//! Wavelength (channel) assignment for a Quartz ring — §3.1 of the paper.
//!
//! Communication between switches `s` and `t` requires exclusive ownership
//! of a channel `λst` along every fiber link of the chosen arc between
//! them. The assignment problem is: give every unordered switch pair a
//! *direction* (clockwise or counter-clockwise arc) and a *channel* such
//! that no channel is used twice on any fiber link, minimizing the number
//! of distinct channels.
//!
//! Three solvers live in the submodules:
//!
//! * [`greedy`] — the paper's longest-path-first greedy heuristic,
//! * [`exact`] — an exact iterative-deepening branch-and-bound search
//!   (the same optimum the paper's ILP computes),
//! * [`bounds`] — the aggregate-load lower bound used both to certify
//!   optimality and to seed the exact search.
//!
//! [`online`] relaxes the offline assumption: it keeps a plan live while
//! ring fibers are cut and repaired, warm-starting each re-solve from
//! the incumbent and falling back to the greedy under a node budget.
//! Its repack and [`exact`] run one branch-and-bound search, over kept
//! and over empty occupancy respectively.
//!
//! An intact ring is the case with no dead fibers (§3.5 treats a cut as
//! the same ring with links missing): one [`Assignment`] type, one
//! validator and one greedy serve both. On a cut ring a pair whose two
//! arcs both cross dead fibers is *unroutable* and listed as such.
//!
//! Conventions: the ring has `m` switches `0..m`. Fiber link `i` connects
//! switch `i` to switch `(i+1) % m`. The clockwise arc from `a` covers
//! links `a, a+1, …`; pairs are stored normalized with `a < b`. Dead
//! fibers are a `u64` bitmask (bit `i` = fiber `i`), so only rings of at
//! most 64 switches can have any; larger rings plan intact.

pub mod bounds;
pub mod exact;
pub mod greedy;
pub mod online;
mod search;

use quartz_optics::wavelength::{ChannelId, Grid};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An unordered switch pair, normalized so `a < b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pair {
    /// Lower switch index.
    pub a: usize,
    /// Higher switch index.
    pub b: usize,
}

impl Pair {
    /// Creates a normalized pair.
    ///
    /// # Panics
    /// Panics if `x == y`.
    pub fn new(x: usize, y: usize) -> Self {
        assert_ne!(x, y, "a pair needs two distinct switches");
        Pair {
            a: x.min(y),
            b: x.max(y),
        }
    }

    /// Clockwise hop distance from `a` to `b` on a ring of `m`.
    pub fn cw_len(&self, _m: usize) -> usize {
        self.b - self.a
    }

    /// Counter-clockwise hop distance from `a` to `b` (i.e. the arc
    /// through the wrap-around point).
    pub fn ccw_len(&self, m: usize) -> usize {
        m - (self.b - self.a)
    }

    /// Length of the shorter arc.
    pub fn min_len(&self, m: usize) -> usize {
        self.cw_len(m).min(self.ccw_len(m))
    }
}

impl fmt::Display for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.a, self.b)
    }
}

/// All unordered pairs of a ring of `m` switches, in `(a, b)` order.
pub fn all_pairs(m: usize) -> Vec<Pair> {
    let mut v = Vec::with_capacity(m * (m - 1) / 2);
    for a in 0..m {
        for b in (a + 1)..m {
            v.push(Pair { a, b });
        }
    }
    v
}

/// Which way around the ring a pair's lightpath travels, viewed from the
/// pair's lower endpoint `a`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The arc from `a` increasing: links `a .. b`.
    Cw,
    /// The arc from `a` decreasing through the wrap-around: links
    /// `b .. a+m`.
    Ccw,
}

/// A contiguous run of fiber links on the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arc {
    /// First link index.
    pub start: usize,
    /// Number of links covered.
    pub len: usize,
    /// Ring size (number of links == number of switches).
    pub m: usize,
}

impl Arc {
    /// The arc a pair occupies for a given direction.
    pub fn of(pair: Pair, dir: Direction, m: usize) -> Arc {
        debug_assert!(pair.b < m);
        match dir {
            Direction::Cw => Arc {
                start: pair.a,
                len: pair.cw_len(m),
                m,
            },
            Direction::Ccw => Arc {
                start: pair.b,
                len: pair.ccw_len(m),
                m,
            },
        }
    }

    /// Iterates the link indices the arc covers.
    pub fn links(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).map(move |i| (self.start + i) % self.m)
    }

    /// Whether the arc covers fiber link `link`.
    pub fn covers(&self, link: usize) -> bool {
        let rel = (link + self.m - self.start) % self.m;
        rel < self.len
    }
}

/// Bitmask of the fiber links `arc` crosses (rings of at most 64
/// switches).
pub(crate) fn arc_mask(arc: &Arc) -> u64 {
    let mut mask = 0u64;
    for l in arc.links() {
        mask |= 1 << l;
    }
    mask
}

/// Both arcs of `pair`, shorter first (clockwise on ties): the order
/// every solver tries them in.
pub(crate) fn arcs_shorter_first(pair: Pair, m: usize) -> [(Direction, Arc); 2] {
    let cw = Arc::of(pair, Direction::Cw, m);
    let ccw = Arc::of(pair, Direction::Ccw, m);
    if cw.len <= ccw.len {
        [(Direction::Cw, cw), (Direction::Ccw, ccw)]
    } else {
        [(Direction::Ccw, ccw), (Direction::Cw, cw)]
    }
}

/// The first fiber of `arc` (in arc order) that is in the `dead` mask.
pub(crate) fn dead_fiber(arc: &Arc, dead: u64) -> Option<usize> {
    arc.links().find(|&l| l < 64 && dead >> l & 1 == 1)
}

/// Whether `pair` has at least one arc avoiding the `dead` fibers.
pub fn routable(pair: Pair, m: usize, dead: u64) -> bool {
    arcs_shorter_first(pair, m)
        .iter()
        .any(|(_, arc)| dead_fiber(arc, dead).is_none())
}

/// Why an [`Assignment`] fails validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssignmentError {
    /// Two lightpaths share a channel on a fiber link.
    Conflict {
        /// The fiber link where the clash occurs.
        link: usize,
        /// The clashing channel index.
        channel: u16,
        /// The two offending pairs.
        pairs: (Pair, Pair),
    },
    /// A switch pair is neither assigned nor listed unroutable.
    MissingPair(Pair),
    /// A pair appears more than once across entries and unroutable
    /// pairs.
    DuplicatePair(Pair),
    /// An entry's arc crosses a dead fiber.
    DeadFiber {
        /// The offending pair.
        pair: Pair,
        /// The dead fiber its arc crosses.
        link: usize,
    },
    /// A pair is listed unroutable but has a surviving arc.
    SpuriousUnroutable(Pair),
}

impl fmt::Display for AssignmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignmentError::Conflict {
                link,
                channel,
                pairs,
            } => write!(
                f,
                "channel {channel} used twice on link {link} by {} and {}",
                pairs.0, pairs.1
            ),
            AssignmentError::MissingPair(p) => write!(f, "pair {p} has no channel"),
            AssignmentError::DuplicatePair(p) => write!(f, "pair {p} assigned twice"),
            AssignmentError::DeadFiber { pair, link } => {
                write!(f, "pair {pair} routed over dead fiber {link}")
            }
            AssignmentError::SpuriousUnroutable(p) => {
                write!(f, "pair {p} marked unroutable but has a live arc")
            }
        }
    }
}

impl std::error::Error for AssignmentError {}

/// A channel assignment for a ring of `m` switches: every pair is either
/// routed (an entry with direction and channel) or unroutable (both arcs
/// cross dead fibers). On an intact ring nothing is unroutable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    m: usize,
    /// `(pair, direction, channel)` triples, one per routed pair.
    entries: Vec<(Pair, Direction, u16)>,
    /// Pairs with no surviving arc, sorted.
    unroutable: Vec<Pair>,
}

impl Assignment {
    /// Builds an intact-ring assignment from raw entries (validated
    /// lazily via [`Assignment::validate`]).
    pub fn from_entries(m: usize, entries: Vec<(Pair, Direction, u16)>) -> Self {
        Assignment {
            m,
            entries,
            unroutable: Vec::new(),
        }
    }

    /// Ring size.
    pub fn ring_size(&self) -> usize {
        self.m
    }

    /// The routed `(pair, direction, channel)` triples.
    pub fn entries(&self) -> &[(Pair, Direction, u16)] {
        &self.entries
    }

    /// Pairs with no surviving arc, sorted (empty on an intact ring).
    pub fn unroutable(&self) -> &[Pair] {
        &self.unroutable
    }

    /// Number of distinct channels used by the routed pairs.
    pub fn channels_used(&self) -> usize {
        let mut seen = BTreeSet::new();
        for (_, _, c) in &self.entries {
            seen.insert(*c);
        }
        seen.len()
    }

    /// The entry for a given pair, if routed.
    pub fn lookup(&self, pair: Pair) -> Option<(Direction, u16)> {
        self.entries
            .iter()
            .find(|(p, _, _)| *p == pair)
            .map(|(_, d, c)| (*d, *c))
    }

    /// Per-link lightpath counts (the "load" each fiber link carries).
    pub fn link_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.m];
        for (pair, dir, _) in &self.entries {
            for l in Arc::of(*pair, *dir, self.m).links() {
                loads[l] += 1;
            }
        }
        loads
    }

    /// Checks the §3.1 invariants on a ring whose `dead` fibers are cut
    /// (0 for an intact ring): every pair accounted for exactly once, no
    /// routed arc over a dead fiber, the unroutable list honest, and no
    /// channel repeated on any link.
    pub fn validate(&self, dead: u64) -> Result<(), AssignmentError> {
        let mut seen = BTreeSet::new();
        let listed = self.entries.iter().map(|(p, _, _)| p);
        for pair in listed.chain(&self.unroutable) {
            if !seen.insert(*pair) {
                return Err(AssignmentError::DuplicatePair(*pair));
            }
        }
        for pair in all_pairs(self.m) {
            if !seen.contains(&pair) {
                return Err(AssignmentError::MissingPair(pair));
            }
        }
        if let Some(&p) = self.unroutable.iter().find(|&&p| routable(p, self.m, dead)) {
            return Err(AssignmentError::SpuriousUnroutable(p));
        }
        // Conflict-freedom: per (link, channel) at most one occupant.
        let mut occupant: BTreeMap<(usize, u16), Pair> = BTreeMap::new();
        for (pair, dir, ch) in &self.entries {
            let arc = Arc::of(*pair, *dir, self.m);
            if let Some(link) = dead_fiber(&arc, dead) {
                return Err(AssignmentError::DeadFiber { pair: *pair, link });
            }
            for link in arc.links() {
                if let Some(prev) = occupant.insert((link, *ch), *pair) {
                    return Err(AssignmentError::Conflict {
                        link,
                        channel: *ch,
                        pairs: (prev, *pair),
                    });
                }
            }
        }
        Ok(())
    }
}

/// How a [`ChannelPlan`] was computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanMethod {
    /// The paper's greedy heuristic (best over all ring start offsets).
    Greedy,
    /// The exact branch-and-bound solver (provably minimal).
    Exact,
}

/// A finished wavelength plan: assignment plus its mapping onto a physical
/// WDM grid.
///
/// "Wavelength planning is a one-time event that is done at design time.
/// Quartz does not need to dynamically reassign wavelengths at runtime."
/// (§3.1)
#[derive(Clone, Debug)]
pub struct ChannelPlan {
    /// The logical assignment.
    pub assignment: Assignment,
    /// How it was produced.
    pub method: PlanMethod,
    /// The WDM grid the channel indices map onto.
    pub grid: Grid,
}

impl ChannelPlan {
    /// Number of distinct wavelengths the plan consumes.
    pub fn wavelengths_used(&self) -> usize {
        self.assignment.channels_used()
    }

    /// Number of WDM mux/demux devices each switch needs, given a
    /// per-device channel capacity (80 for the paper's DWDM part).
    pub fn muxes_per_switch(&self, mux_channels: u16) -> usize {
        self.wavelengths_used().div_ceil(usize::from(mux_channels))
    }

    /// The physical wavelength of a pair's channel, if the plan fits the
    /// grid.
    pub fn wavelength_of(&self, pair: Pair) -> Option<quartz_optics::wavelength::Wavelength> {
        let (_, ch) = self.assignment.lookup(pair)?;
        self.grid.wavelength(ChannelId(ch))
    }

    /// The per-switch transceiver tuning sheet — the artifact §3.1 says
    /// the device manufacturer consumes: "wavelength planning and switch
    /// to DWDM cabling can be performed by the device manufacturer at
    /// the factory. Since we can use a fixed wavelength plan for all
    /// Quartz rings of the same size", this sheet *is* the ring's SKU.
    ///
    /// Returns one entry per switch listing `(peer, channel,
    /// wavelength)` for each of its transceivers, peer-sorted.
    pub fn tuning_sheet(&self) -> Vec<SwitchTuning> {
        let m = self.assignment.ring_size();
        let mut sheet: Vec<SwitchTuning> = (0..m)
            .map(|switch| SwitchTuning {
                switch,
                transceivers: Vec::with_capacity(m - 1),
            })
            .collect();
        for (pair, _, ch) in self.assignment.entries() {
            let w = self.grid.wavelength(ChannelId(*ch));
            sheet[pair.a].transceivers.push((pair.b, *ch, w));
            sheet[pair.b].transceivers.push((pair.a, *ch, w));
        }
        for s in &mut sheet {
            s.transceivers.sort_by_key(|&(peer, _, _)| peer);
        }
        sheet
    }

    /// Renders [`ChannelPlan::tuning_sheet`] as fixed-width text, one
    /// block per switch.
    pub fn tuning_sheet_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in self.tuning_sheet() {
            let _ = writeln!(out, "switch {}:", s.switch);
            for (peer, ch, w) in &s.transceivers {
                match w {
                    Some(w) => {
                        let _ = writeln!(out, "  -> peer {peer:>3}  channel {ch:>3}  {w}");
                    }
                    None => {
                        let _ = writeln!(out, "  -> peer {peer:>3}  channel {ch:>3}  (off-grid)");
                    }
                }
            }
        }
        out
    }

    /// Validates the assignment and that it fits within the grid capacity.
    pub fn validate(&self) -> Result<(), PlanError> {
        self.assignment.validate(0).map_err(PlanError::Assignment)?;
        let used = self.wavelengths_used();
        let cap = usize::from(self.grid.channel_count());
        if used > cap {
            return Err(PlanError::GridExceeded { used, cap });
        }
        Ok(())
    }
}

/// One switch's transceiver tuning list (see
/// [`ChannelPlan::tuning_sheet`]).
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchTuning {
    /// The switch index on the ring.
    pub switch: usize,
    /// `(peer switch, channel index, wavelength)` per transceiver.
    pub transceivers: Vec<(usize, u16, Option<quartz_optics::wavelength::Wavelength>)>,
}

/// Errors from validating a [`ChannelPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The underlying assignment is invalid.
    Assignment(AssignmentError),
    /// More wavelengths are needed than the grid offers.
    GridExceeded {
        /// Wavelengths the assignment uses.
        used: usize,
        /// Channels available on the grid.
        cap: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Assignment(e) => write!(f, "invalid assignment: {e}"),
            PlanError::GridExceeded { used, cap } => {
                write!(f, "plan needs {used} wavelengths but the grid has {cap}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_normalizes_and_measures_arcs() {
        let p = Pair::new(7, 2);
        assert_eq!((p.a, p.b), (2, 7));
        assert_eq!(p.cw_len(10), 5);
        assert_eq!(p.ccw_len(10), 5);
        assert_eq!(Pair::new(0, 1).min_len(10), 1);
        assert_eq!(Pair::new(0, 9).min_len(10), 1);
    }

    #[test]
    #[should_panic(expected = "two distinct switches")]
    fn self_pair_panics() {
        let _ = Pair::new(3, 3);
    }

    #[test]
    fn all_pairs_counts() {
        assert_eq!(all_pairs(6).len(), 15);
        assert_eq!(all_pairs(33).len(), 528);
    }

    #[test]
    fn cw_arc_links() {
        let a = Arc::of(Pair::new(2, 5), Direction::Cw, 8);
        assert_eq!(a.links().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert!(a.covers(3));
        assert!(!a.covers(5));
    }

    #[test]
    fn ccw_arc_wraps() {
        let a = Arc::of(Pair::new(2, 5), Direction::Ccw, 8);
        assert_eq!(a.links().collect::<Vec<_>>(), vec![5, 6, 7, 0, 1]);
        assert!(a.covers(0));
        assert!(!a.covers(2));
    }

    #[test]
    fn arcs_of_both_directions_partition_the_ring() {
        let m = 9;
        let p = Pair::new(1, 6);
        let cw: std::collections::BTreeSet<_> = Arc::of(p, Direction::Cw, m).links().collect();
        let ccw: std::collections::BTreeSet<_> = Arc::of(p, Direction::Ccw, m).links().collect();
        assert!(cw.is_disjoint(&ccw));
        assert_eq!(cw.len() + ccw.len(), m);
    }

    #[test]
    fn validate_catches_conflict() {
        let m = 6;
        let mut entries = Vec::new();
        for pair in all_pairs(m) {
            entries.push((pair, Direction::Cw, 0u16)); // everyone on ch0
        }
        let a = Assignment::from_entries(m, entries);
        match a.validate(0) {
            Err(AssignmentError::Conflict { channel: 0, .. }) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn validate_catches_missing_and_duplicate() {
        let m = 4;
        let a = Assignment::from_entries(m, vec![(Pair::new(0, 1), Direction::Cw, 0)]);
        assert!(matches!(
            a.validate(0),
            Err(AssignmentError::MissingPair(_))
        ));
        let mut entries: Vec<_> = all_pairs(m)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, Direction::Cw, i as u16))
            .collect();
        entries.push((Pair::new(0, 1), Direction::Ccw, 99));
        let a = Assignment::from_entries(m, entries);
        assert!(matches!(
            a.validate(0),
            Err(AssignmentError::DuplicatePair(_))
        ));
    }

    #[test]
    fn validate_catches_dead_fiber_use() {
        let m = 6;
        let dead = 1u64 << 2;
        let entries: Vec<_> = all_pairs(m)
            .into_iter()
            .enumerate()
            .map(|(i, pair)| (pair, Direction::Cw, i as u16))
            .collect();
        let a = Assignment::from_entries(m, entries);
        assert!(a.validate(0).is_ok());
        assert!(matches!(
            a.validate(dead),
            Err(AssignmentError::DeadFiber { link: 2, .. })
        ));
    }

    #[test]
    fn validate_catches_spurious_unroutable() {
        let m = 5;
        let mut a = greedy::assign_best(m, 0);
        let (p, _, _) = a.entries.pop().unwrap();
        a.unroutable.push(p);
        assert_eq!(a.validate(0), Err(AssignmentError::SpuriousUnroutable(p)));
    }

    #[test]
    fn trivially_valid_assignment_passes() {
        // Give every pair its own channel: always conflict-free.
        let m = 5;
        let entries: Vec<_> = all_pairs(m)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, Direction::Cw, i as u16))
            .collect();
        let a = Assignment::from_entries(m, entries);
        assert!(a.validate(0).is_ok());
        assert_eq!(a.channels_used(), 10);
    }

    #[test]
    fn link_loads_sum_to_total_hops() {
        let m = 7;
        let entries: Vec<_> = all_pairs(m)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, Direction::Cw, i as u16))
            .collect();
        let a = Assignment::from_entries(m, entries);
        let total: usize = a.link_loads().iter().sum();
        let expect: usize = all_pairs(m).iter().map(|p| p.cw_len(m)).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn tuning_sheet_covers_every_transceiver() {
        use crate::ring::QuartzRing;
        let ring = QuartzRing::paper_config(9).unwrap();
        let plan = ring.assign_channels();
        let sheet = plan.tuning_sheet();
        assert_eq!(sheet.len(), 9);
        for s in &sheet {
            // A full mesh: one transceiver per peer.
            assert_eq!(s.transceivers.len(), 8, "switch {}", s.switch);
            // Peers sorted, no self-entries, every wavelength on-grid.
            let peers: Vec<usize> = s.transceivers.iter().map(|t| t.0).collect();
            let mut sorted = peers.clone();
            sorted.sort_unstable();
            assert_eq!(peers, sorted);
            assert!(!peers.contains(&s.switch));
            assert!(s.transceivers.iter().all(|t| t.2.is_some()));
        }
    }

    #[test]
    fn tuning_sheet_is_symmetric() {
        use crate::ring::QuartzRing;
        let plan = QuartzRing::paper_config(6).unwrap().assign_channels();
        let sheet = plan.tuning_sheet();
        // The channel switch a lists for peer b equals the one b lists
        // for a — both transceivers tune to the same λab.
        for s in &sheet {
            for &(peer, ch, _) in &s.transceivers {
                let back = sheet[peer]
                    .transceivers
                    .iter()
                    .find(|t| t.0 == s.switch)
                    .expect("symmetric entry");
                assert_eq!(back.1, ch);
            }
        }
    }

    #[test]
    fn tuning_sheet_text_renders() {
        use crate::ring::QuartzRing;
        let plan = QuartzRing::paper_config(4).unwrap().assign_channels();
        let text = plan.tuning_sheet_text();
        assert!(text.contains("switch 0:"));
        assert!(text.contains("switch 3:"));
        assert!(text.contains("nm"));
        assert_eq!(text.matches("-> peer").count(), 4 * 3);
    }
}
