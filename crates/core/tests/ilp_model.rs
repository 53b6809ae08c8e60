//! The paper's ILP formulation of channel assignment (§3.1, Eqs. 1–6),
//! as an explicit, checkable model.
//!
//! The paper formulates wavelength assignment as an integer linear
//! program over variables `C_{s,t,i}` (pair `(s,t)` uses channel `i` on
//! its clockwise path; `C_{t,s,i}` is the counter-clockwise choice) and
//! `L_{s,t,i,m}` (that lightpath occupies link `m`):
//!
//! * **Eq. 2** — every unordered pair picks exactly one (direction,
//!   channel): `∀ s<t, Σᵢ C_{s,t,i} + Σᵢ C_{t,s,i} = 1`;
//! * **Eq. 3** — link occupancy follows from path membership:
//!   `L_{s,t,i,m} = P_{s,t,m} · C_{s,t,i}`;
//! * **Eq. 4** — no channel is reused on a link:
//!   `∀ m,i, Σ_{s,t} L_{s,t,i,m} ≤ 1`;
//! * **Eq. 5** — `λᵢ` flags channels in use; **Eq. 1** minimizes `Σ λᵢ`.
//!
//! No ILP solver exists as an offline crate, so this file does not
//! *solve* the program — `channel::exact` computes the same optimum by
//! branch-and-bound. It is a test oracle holding the **model itself**:
//! `IlpModel` materializes every constraint, `IlpModel::check` verifies
//! an assignment against them variable-by-variable, and the tests prove
//! that an assignment satisfies the ILP **iff** it passes
//! `Assignment::validate` — certifying that the combinatorial solvers
//! optimize exactly the paper's program.

use quartz_core::channel::{all_pairs, exact, greedy, Arc, Assignment, Direction, Pair};

/// Static path-membership data `P_{s,t,m}`: whether the clockwise path
/// of ordered pair `(s, t)` crosses link `m`.
fn path_membership(m_ring: usize, s: usize, t: usize, link: usize) -> bool {
    debug_assert!(s != t && s < m_ring && t < m_ring);
    // Clockwise from s to t covers links s, s+1, …, t−1 (mod M).
    let len = (t + m_ring - s) % m_ring;
    let rel = (link + m_ring - s) % m_ring;
    rel < len
}

/// One violated constraint of the program.
#[derive(Clone, Debug, PartialEq, Eq)]
enum IlpViolation {
    /// Eq. 2: the pair selected zero or multiple (direction, channel)
    /// combinations.
    Selection {
        /// The pair.
        pair: Pair,
        /// Number of set `C` variables found.
        count: usize,
    },
    /// Eq. 4: two lightpaths share `(link, channel)`.
    LinkCapacity {
        /// The link.
        link: usize,
        /// The channel.
        channel: u16,
        /// How many lightpaths occupy it.
        occupants: usize,
    },
}

/// The materialized ILP instance for a ring of `m` switches and `lambda`
/// available channels.
#[derive(Clone, Debug)]
struct IlpModel {
    /// Ring size `M`.
    m: usize,
    /// Available channels `Λ`.
    lambda: usize,
}

impl IlpModel {
    /// Builds the model.
    fn new(m: usize, lambda: usize) -> Self {
        assert!(m >= 2 && lambda >= 1);
        IlpModel { m, lambda }
    }

    /// Total binary `C` variables: ordered pairs × channels.
    fn c_variable_count(&self) -> usize {
        self.m * (self.m - 1) * self.lambda
    }

    /// Total `L` variables: ordered pairs × channels × links.
    fn l_variable_count(&self) -> usize {
        self.c_variable_count() * self.m
    }

    /// Converts an [`Assignment`] into the `C` variable view: the list of
    /// set `C_{s,t,i}` (ordered pair, channel) triples.
    fn set_c_vars(&self, a: &Assignment) -> Vec<(usize, usize, u16)> {
        a.entries()
            .iter()
            .map(|(pair, dir, ch)| match dir {
                // Clockwise from the lower endpoint = ordered (a, b).
                Direction::Cw => (pair.a, pair.b, *ch),
                // Counter-clockwise from a = clockwise from b.
                Direction::Ccw => (pair.b, pair.a, *ch),
            })
            .collect()
    }

    /// Objective value Σ λᵢ (Eq. 1): distinct channels used.
    fn objective(&self, a: &Assignment) -> usize {
        a.channels_used()
    }

    /// Checks every constraint of the program; returns all violations.
    fn check(&self, a: &Assignment) -> Vec<IlpViolation> {
        let mut violations = Vec::new();
        let c_vars = self.set_c_vars(a);

        // Eq. 2: exactly one selection per unordered pair.
        for pair in all_pairs(self.m) {
            let count = c_vars
                .iter()
                .filter(|(s, t, _)| Pair::new(*s, *t) == pair)
                .count();
            if count != 1 {
                violations.push(IlpViolation::Selection { pair, count });
            }
        }

        // Eqs. 3 + 4: derive L from P·C and check per-(link, channel)
        // capacity.
        debug_assert!(self.lambda <= u16::MAX as usize, "channel counts fit u16");
        for link in 0..self.m {
            for ch in 0..self.lambda as u16 {
                let occupants = c_vars
                    .iter()
                    .filter(|(s, t, i)| *i == ch && path_membership(self.m, *s, *t, link))
                    .count();
                if occupants > 1 {
                    violations.push(IlpViolation::LinkCapacity {
                        link,
                        channel: ch,
                        occupants,
                    });
                }
            }
        }
        violations
    }

    /// Whether `a` is a feasible point of the program.
    fn is_feasible(&self, a: &Assignment) -> bool {
        a.channels_used() <= self.lambda && self.check(a).is_empty()
    }
}

#[test]
fn path_membership_matches_arc() {
    let m = 9;
    for s in 0..m {
        for t in 0..m {
            if s == t {
                continue;
            }
            // Ordered (s, t) clockwise corresponds to the Cw arc of
            // the normalized pair when s < t, else the Ccw arc.
            let pair = Pair::new(s, t);
            let dir = if s == pair.a {
                Direction::Cw
            } else {
                Direction::Ccw
            };
            let arc = Arc::of(pair, dir, m);
            for link in 0..m {
                assert_eq!(
                    path_membership(m, s, t, link),
                    arc.covers(link),
                    "s={s} t={t} link={link}"
                );
            }
        }
    }
}

#[test]
fn greedy_solutions_are_ilp_feasible() {
    for m in 2..=14 {
        let a = greedy::assign_best(m, 0);
        let model = IlpModel::new(m, a.channels_used());
        assert!(model.is_feasible(&a), "m={m}: {:?}", model.check(&a));
    }
}

#[test]
fn exact_solutions_are_ilp_feasible_and_optimal_objective() {
    for m in [5usize, 7, 8, 9, 11] {
        let r = exact::solve(m, 50_000_000);
        let model = IlpModel::new(m, r.channels);
        assert!(model.is_feasible(&r.assignment), "m={m}");
        assert_eq!(model.objective(&r.assignment), r.channels);
    }
}

#[test]
fn conflicting_assignment_violates_eq4() {
    // Put two overlapping distance-2 arcs on the same channel.
    let m = 4;
    let entries = vec![
        (Pair::new(0, 2), Direction::Cw, 0u16), // links 0,1
        (Pair::new(1, 3), Direction::Cw, 0u16), // links 1,2 — clash on 1
        (Pair::new(0, 1), Direction::Cw, 1),
        (Pair::new(1, 2), Direction::Cw, 2),
        (Pair::new(2, 3), Direction::Cw, 1),
        (Pair::new(0, 3), Direction::Ccw, 2),
    ];
    let a = Assignment::from_entries(m, entries);
    let model = IlpModel::new(m, 3);
    let v = model.check(&a);
    assert!(
        v.iter().any(|x| matches!(
            x,
            IlpViolation::LinkCapacity {
                link: 1,
                channel: 0,
                occupants: 2
            }
        )),
        "{v:?}"
    );
}

#[test]
fn missing_pair_violates_eq2() {
    let m = 4;
    let a = Assignment::from_entries(m, vec![(Pair::new(0, 1), Direction::Cw, 0)]);
    let model = IlpModel::new(m, 3);
    let v = model.check(&a);
    let missing = v
        .iter()
        .filter(|x| matches!(x, IlpViolation::Selection { count: 0, .. }))
        .count();
    assert_eq!(missing, 5); // the 5 unassigned pairs of K4
}

#[test]
fn ilp_feasibility_equals_validate() {
    // The equivalence that certifies our solvers optimize the
    // paper's exact program.
    for m in 3..=10 {
        for start in 0..m {
            let a = greedy::assign(m, 0, start);
            let model = IlpModel::new(m, a.channels_used());
            assert_eq!(model.is_feasible(&a), a.validate(0).is_ok(), "m={m}");
        }
    }
}

#[test]
fn variable_counts_match_formulation() {
    let model = IlpModel::new(6, 10);
    assert_eq!(model.c_variable_count(), 6 * 5 * 10);
    assert_eq!(model.l_variable_count(), 6 * 5 * 10 * 6);
}
