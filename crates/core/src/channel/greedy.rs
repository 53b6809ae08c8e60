//! The paper's greedy channel-assignment heuristic (§3.1.1).
//!
//! > "For all the paths between switch pairs (s, t), they are first sorted
//! > by their length. […] Our heuristic is to give priority to long paths
//! > to avoid fragmenting the available channels on the ring. Shorter
//! > paths are assigned later because short paths are less constrained on
//! > channels that are available on consecutive links. In each iteration,
//! > starting from a random location, the channels are greedily assigned
//! > to the paths until all paths are assigned or the channels are used
//! > up."
//!
//! The implementation is deterministic: the "random location" is an
//! explicit `start` offset. [`assign_best`] tries every offset and keeps
//! the cheapest result, which is what a designer doing one-time wavelength
//! planning would do (§3.1: planning "only requires seconds … even for a
//! ring size of 35").
//!
//! The same loop plans a ring with cut fibers (§3.5): it takes the dead
//! fibers as a mask, routes each pair over a surviving arc, and lists a
//! pair with none as unroutable. The online controller uses it as its
//! from-scratch baseline.

use super::{arcs_shorter_first, dead_fiber, Arc, Assignment, Direction, Pair};

/// The order in which pairs are assigned — the design choice §3.1.1
/// motivates ("give priority to long paths to avoid fragmenting the
/// available channels"). The alternatives exist for ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ordering {
    /// The paper's heuristic: longest paths first.
    LongestFirst,
    /// The reverse: shortest paths first (fragments channels).
    ShortestFirst,
}

/// Runs the paper's greedy heuristic with a fixed starting offset for the
/// per-iteration scan, on a ring whose `dead` fibers are cut (0 for an
/// intact ring).
///
/// Paths are processed longest-first (distance `⌊m/2⌋` down to 1); within
/// a distance class the scan starts at switch `start % m`. Each path takes
/// the shorter surviving arc (clockwise on ties) and the lowest-indexed
/// channel free on all of that arc's links; if the other surviving arc
/// admits a strictly lower channel, it is preferred — a cheap local
/// improvement that stays within the paper's "greedily assign"
/// description. A pair with no surviving arc is unroutable.
///
/// # Panics
/// Panics if `m < 2`, or if `dead` is non-zero on a ring of more than 64
/// switches.
pub fn assign(m: usize, dead: u64, start: usize) -> Assignment {
    assign_with_order(m, dead, start, Ordering::LongestFirst)
}

/// [`assign`] with an explicit pair ordering (see [`Ordering`]).
pub fn assign_with_order(m: usize, dead: u64, start: usize, order: Ordering) -> Assignment {
    assert!(m >= 2, "a ring needs at least 2 switches");
    assert!(m <= 64 || dead == 0, "dead fibers are a 64-bit mask");
    // `used[l]`: the channels occupied on fiber link `l`, as a bit set in
    // 64-bit words (channel `c` is bit `c % 64` of word `c / 64`). Every
    // link holds the same number of words.
    let mut used: Vec<Vec<u64>> = vec![Vec::new(); m];
    // Scratch: the channels busy on any link of the arc under test.
    let mut busy: Vec<u64> = Vec::new();
    let mut entries = Vec::with_capacity(m * (m - 1) / 2);
    let mut unroutable = Vec::new();

    let max_d = m / 2;
    let distances: Vec<usize> = match order {
        Ordering::LongestFirst => (1..=max_d).rev().collect(),
        Ordering::ShortestFirst => (1..=max_d).collect(),
    };
    for d in distances {
        // Pairs at distance d: (i, i+d) for i in 0..m, except distance
        // exactly m/2 on even rings, where each pair appears once.
        let count = if m.is_multiple_of(2) && d == m / 2 {
            m / 2
        } else {
            m
        };
        for idx in 0..count {
            let i = (start + idx) % m;
            let pair = Pair::new(i, (i + d) % m);

            let mut best: Option<(Direction, Arc, usize)> = None;
            for (dir, arc) in arcs_shorter_first(pair, m) {
                if dead_fiber(&arc, dead).is_some() {
                    continue;
                }
                busy.clear();
                busy.resize(used[0].len(), 0);
                for l in arc.links() {
                    for (b, u) in busy.iter_mut().zip(&used[l]) {
                        *b |= u;
                    }
                }
                // The lowest channel free on every link of the arc.
                let ch = busy
                    .iter()
                    .position(|&w| w != u64::MAX)
                    .map_or(64 * busy.len(), |w| {
                        64 * w + busy[w].trailing_ones() as usize
                    });
                if best.is_none_or(|(_, _, best_ch)| ch < best_ch) {
                    best = Some((dir, arc, ch));
                }
            }
            let Some((dir, arc, ch)) = best else {
                unroutable.push(pair);
                continue;
            };
            debug_assert!(ch <= u16::MAX as usize, "channel ids fit u16");
            if ch / 64 == used[0].len() {
                for link in &mut used {
                    link.push(0);
                }
            }
            for l in arc.links() {
                used[l][ch / 64] |= 1 << (ch % 64);
            }
            entries.push((pair, dir, ch as u16));
        }
    }
    unroutable.sort_unstable();
    Assignment {
        m,
        entries,
        unroutable,
    }
}

/// Runs [`assign`] for every starting offset and returns the assignment
/// using the fewest channels (ties: lowest offset) — on a cut ring, the
/// from-scratch baseline the online controller must never exceed.
///
/// # Examples
///
/// ```
/// use quartz_core::channel::greedy;
///
/// let plan = greedy::assign_best(9, 0);
/// plan.validate(0).unwrap();          // conflict-free, complete
/// assert_eq!(plan.channels_used(), 10); // the (M²−1)/8 optimum
/// ```
pub fn assign_best(m: usize, dead: u64) -> Assignment {
    (0..m)
        .map(|s| assign(m, dead, s))
        .min_by_key(|a| a.channels_used())
        .expect("m >= 2 yields at least one offset")
}

/// Number of channels the greedy heuristic needs for an intact ring of
/// `m` (best over starting offsets).
pub fn wavelengths_required(m: usize) -> usize {
    if m < 2 {
        return 0;
    }
    assign_best(m, 0).channels_used()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::bounds::load_lower_bound;

    #[test]
    fn every_result_is_valid() {
        for m in 2..=20 {
            let a = assign(m, 0, 0);
            a.validate(0).unwrap_or_else(|e| panic!("m={m}: {e}"));
            assert_eq!(a.entries().len(), m * (m - 1) / 2);
        }
    }

    #[test]
    fn rings_above_64_switches_plan_intact() {
        // Channel occupancy spans several 64-bit words past m = 64.
        for m in [65usize, 100, 130] {
            let a = assign(m, 0, 0);
            a.validate(0).unwrap_or_else(|e| panic!("m={m}: {e}"));
            assert!(a.unroutable().is_empty());
            assert!(a.channels_used() >= load_lower_bound(m), "m={m}");
        }
    }

    #[test]
    fn single_cut_keeps_every_pair_routable() {
        // One dead fiber leaves the ring a path: every pair still has
        // the all-the-way-around arc.
        for m in [5usize, 8, 11] {
            for fiber in 0..m {
                let dead = 1u64 << fiber;
                let a = assign_best(m, dead);
                assert!(a.unroutable().is_empty(), "m={m} fiber={fiber}");
                a.validate(dead).unwrap();
            }
        }
    }

    #[test]
    fn two_cuts_partition_exactly_the_cross_pairs() {
        // Cutting fibers 0 and 3 on a ring of 8 splits switches
        // {1,2,3} from {4,...,0}; pairs straddling the split are
        // unroutable.
        let m = 8;
        let dead = (1u64 << 0) | (1u64 << 3);
        let a = assign_best(m, dead);
        a.validate(dead).unwrap();
        for p in a.unroutable() {
            let side = |s: usize| (1..=3).contains(&s);
            assert_ne!(side(p.a), side(p.b), "pair {p} should straddle the cut");
        }
        assert_eq!(a.unroutable().len(), 3 * 5);
    }

    #[test]
    fn all_start_offsets_are_valid() {
        let m = 11;
        for s in 0..m {
            assign(m, 0, s).validate(0).unwrap();
        }
    }

    #[test]
    fn greedy_respects_lower_bound() {
        for m in 2..=24 {
            let g = wavelengths_required(m);
            let lb = load_lower_bound(m);
            assert!(g >= lb, "m={m}: greedy {g} below bound {lb}");
        }
    }

    #[test]
    fn greedy_is_near_optimal_small_rings() {
        // Figure 5 shows the greedy curve hugging the ILP curve. The load
        // bound itself can be off by a little (m=4's optimum is 3 vs a
        // bound of 2), so allow a small additive-plus-relative slack.
        for m in 2..=24 {
            let g = wavelengths_required(m);
            let lb = load_lower_bound(m);
            assert!(
                g <= lb + (lb / 4).max(2),
                "m={m}: greedy {g} too far above bound {lb}"
            );
        }
    }

    #[test]
    fn paper_ring_35_fits_160_channels() {
        // §3.1: "the maximum ring size is 35 since current fiber cables
        // can only support 160 channels".
        let g = wavelengths_required(35);
        assert!(g <= 160, "greedy needs {g} > 160 channels at m=35");
    }

    #[test]
    fn tiny_rings() {
        assert_eq!(wavelengths_required(2), 1);
        assert_eq!(wavelengths_required(3), 1);
        // m=4: the two distance-2 pairs have complementary 2-link arcs
        // that always intersect, so they need distinct channels, and the
        // distance-1 pairs cannot all pack into the leftovers: optimum is
        // 3, one above the load bound of 2.
        assert_eq!(wavelengths_required(4), 3);
    }

    #[test]
    fn deterministic_for_fixed_start() {
        let a = assign(13, 0, 5);
        let b = assign(13, 0, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn long_paths_get_low_channels() {
        // Longest-first means distance ⌊m/2⌋ paths are placed while the
        // table is empty, so at least one of them sits on channel 0.
        let m = 12;
        let a = assign(m, 0, 0);
        let found = a
            .entries()
            .iter()
            .any(|(p, _, c)| p.min_len(m) == m / 2 && *c == 0);
        assert!(found);
    }

    #[test]
    fn longest_first_beats_shortest_first_on_average() {
        // The §3.1.1 design-choice ablation: assigning short paths first
        // fragments the channel space; longest-first never loses in
        // aggregate.
        let mut longest_total = 0usize;
        let mut shortest_total = 0usize;
        for m in 4..=20 {
            let l = (0..m)
                .map(|s| assign_with_order(m, 0, s, Ordering::LongestFirst).channels_used())
                .min()
                .unwrap();
            let sf = (0..m)
                .map(|s| assign_with_order(m, 0, s, Ordering::ShortestFirst).channels_used())
                .min()
                .unwrap();
            longest_total += l;
            shortest_total += sf;
        }
        assert!(
            longest_total <= shortest_total,
            "longest-first {longest_total} vs shortest-first {shortest_total}"
        );
    }

    #[test]
    fn shortest_first_is_still_valid() {
        for m in 3..=12 {
            assign_with_order(m, 0, 0, Ordering::ShortestFirst)
                .validate(0)
                .unwrap();
        }
    }
}
