//! Exact minimum-wavelength assignment via iterative-deepening
//! branch-and-bound.
//!
//! The paper formulates channel assignment as an ILP (§3.1, equations
//! 1–6) and solves small rings with an ILP solver. No ILP solver is
//! available as an offline crate, so this module computes the *same
//! optimum* with a combinatorial search:
//!
//! 1. start from the certified [load lower bound](crate::channel::bounds);
//! 2. if the greedy heuristic already meets it, that is the optimum;
//! 3. otherwise run the channel layer's one branch-and-bound
//!    (`channel::search`) over empty channels, capped at `C` channels,
//!    for `C = LB, LB+1, …`: longest pairs first, open channels in
//!    ascending order, then the next unused channel index (channel
//!    symmetry breaking), with aggregate-slack pruning.
//!
//! The first `C` admitting a feasible assignment is provably minimal —
//! exactly what the ILP would report. A budget of DFS nodes per level
//! guards against pathological instances; if it trips, the result
//! degrades gracefully to the best known assignment with
//! `status = BudgetExhausted`. The online controller's repack is the
//! same search over the occupancy its cut left standing.

use super::bounds::load_lower_bound;
use super::search::Pending;
use super::{all_pairs, greedy, Assignment};

/// Outcome quality of [`solve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExactStatus {
    /// The returned channel count is provably minimal.
    Optimal,
    /// The node budget ran out; the returned assignment is the best found
    /// (an upper bound on the optimum).
    BudgetExhausted,
}

/// Result of the exact solver.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// The assignment achieving [`ExactResult::channels`].
    pub assignment: Assignment,
    /// Channels used by the assignment.
    pub channels: usize,
    /// Whether optimality was proven.
    pub status: ExactStatus,
}

/// Searches for an assignment of `m`'s pairs into at most `channels`
/// channels: the shared search over empty occupancy. Returns
/// `Ok(Some(_))` on success, `Ok(None)` on proven infeasibility,
/// `Err(())` if the node budget ran out.
fn search_with(m: usize, channels: usize, budget: u64) -> Result<Option<Assignment>, ()> {
    let found = Pending::new(m, 0, &all_pairs(m)).place(Vec::new(), channels, budget, &mut 0)?;
    Ok(found.map(|entries| Assignment::from_entries(m, entries)))
}

/// Computes the provably minimal channel count for a ring of `m`
/// switches, within `node_budget` search nodes per deepening level.
///
/// # Panics
/// Panics if `m < 2` or `m > 64` (the search uses 64-bit link masks; the
/// paper's rings max out at 35).
pub fn solve(m: usize, node_budget: u64) -> ExactResult {
    assert!(
        (2..=64).contains(&m),
        "exact solver supports 2..=64 switches"
    );
    let lb = load_lower_bound(m);
    let greedy_best = greedy::assign_best(m, 0);
    let ub = greedy_best.channels_used();

    if ub == lb {
        return ExactResult {
            assignment: greedy_best,
            channels: lb,
            status: ExactStatus::Optimal,
        };
    }

    // Deepen from the lower bound. If a level's infeasibility proof blows
    // the node budget, keep probing higher levels — a feasible assignment
    // found there still improves the upper bound, it just is no longer a
    // proof of optimality.
    let mut all_proven = true;
    for c in lb..ub {
        match search_with(m, c, node_budget) {
            Ok(Some(a)) => {
                debug_assert!(a.validate(0).is_ok());
                return ExactResult {
                    channels: a.channels_used(),
                    assignment: a,
                    status: if all_proven {
                        ExactStatus::Optimal
                    } else {
                        ExactStatus::BudgetExhausted
                    },
                };
            }
            Ok(None) => continue, // proven infeasible at c; deepen
            Err(()) => all_proven = false,
        }
    }

    // Nothing below the greedy count was found feasible. If every level
    // was fully exhausted, greedy is provably optimal.
    ExactResult {
        assignment: greedy_best,
        channels: ub,
        status: if all_proven {
            ExactStatus::Optimal
        } else {
            ExactStatus::BudgetExhausted
        },
    }
}

/// Default node budget per deepening level used by the Figure 5 bench.
pub const DEFAULT_NODE_BUDGET: u64 = 20_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_rings_exact() {
        assert_eq!(solve(2, 1_000).channels, 1);
        assert_eq!(solve(3, 1_000).channels, 1);
        // m=4's optimum is one above the load bound: the two distance-2
        // pairs always intersect (their arcs tile the ring in two ways
        // that share a link), forcing a third channel.
        assert_eq!(solve(4, 100_000).channels, 3);
        assert_eq!(solve(5, 100_000).channels, 3);
    }

    #[test]
    fn exact_results_are_valid_and_bounded() {
        for m in 2..=13 {
            let r = solve(m, 2_000_000);
            assert!(r.channels >= load_lower_bound(m));
            r.assignment.validate(0).unwrap();
            assert_eq!(r.channels, r.assignment.channels_used());
        }
    }

    #[test]
    fn odd_rings_match_known_closed_form() {
        // The minimum wavelength count for all-to-all traffic on an
        // odd bidirectional ring is (M² − 1)/8 — our solver proves each
        // of these optimally, which also certifies the search itself.
        for m in [3usize, 5, 7, 9, 11, 13, 15] {
            let r = solve(m, 20_000_000);
            assert_eq!(r.status, ExactStatus::Optimal, "m={m} not proven");
            assert_eq!(r.channels, (m * m - 1) / 8, "m={m}");
        }
    }

    #[test]
    fn small_even_rings_proven() {
        // Even rings have a parity obstruction pushing the optimum above
        // the load bound (m=4: 3 > 2; m=6: 5 > 5? no — proven here).
        for (m, expect) in [(2usize, 1usize), (4, 3), (6, 5), (8, 9)] {
            let r = solve(m, 50_000_000);
            assert_eq!(r.status, ExactStatus::Optimal, "m={m} not proven");
            assert_eq!(r.channels, expect, "m={m}");
        }
    }

    #[test]
    fn exact_never_beaten_by_greedy() {
        for m in 2..=13 {
            let e = solve(m, 2_000_000);
            let g = greedy::wavelengths_required(m);
            assert!(e.channels <= g, "m={m}: exact {} > greedy {g}", e.channels);
        }
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        // A 1-node budget cannot even expand the root when a search is
        // required. Find a size where greedy > LB so a search happens.
        for m in 4..=20 {
            let lb = load_lower_bound(m);
            let g = greedy::wavelengths_required(m);
            if g > lb {
                let r = solve(m, 1);
                assert_eq!(r.status, ExactStatus::BudgetExhausted);
                assert_eq!(r.channels, g);
                r.assignment.validate(0).unwrap();
                return;
            }
        }
        // If greedy is optimal everywhere in range, nothing to assert.
    }

    #[test]
    #[should_panic(expected = "2..=64")]
    fn oversized_ring_rejected() {
        let _ = solve(65, 10);
    }
}
