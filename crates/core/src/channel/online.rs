//! Online (incremental) routing-and-wavelength assignment under churn.
//!
//! The offline solvers plan a ring once. This module keeps a wavelength
//! plan *live* while ring fibers are cut and repaired: [`OnlineRwa`]
//! holds the incumbent [`Assignment`] and the dead-fiber mask. On each
//! [`RingDelta`] it warm-starts from the incumbent plan: entries whose
//! arcs survive are kept verbatim, only displaced or newly routable
//! pairs are re-placed, and a budgeted repack closes the gap to the
//! from-scratch greedy count when first-fit overshoots. The repack is
//! the [`exact`](super::exact) solver's branch-and-bound run over the
//! kept occupancy instead of empty channels, capped at the fresh greedy
//! count and bounded to the affected pairs. If the node budget runs out
//! anywhere, the controller *falls back* to the fresh greedy plan — the
//! plan degrades (a retune storm), never the solve.
//!
//! Invariant, enforced by construction and pinned by the differential
//! tests: after every delta the adopted plan passes
//! [`Assignment::validate`] against the dead fibers and uses **no more
//! channels than [`greedy::assign_best`]** on the same cut ring — the
//! same greedy that plans the intact ring, given the dead mask.
//!
//! Fiber `i` is the physical ring segment between switches `i` and
//! `(i+1) % m`; dead fibers are a `u64` bitmask (hence `m ≤ 64`, same
//! ceiling as the exact solver).

use super::search::{Entries, Pending};
use super::{arc_mask, greedy, routable, Arc, Assignment, Direction, Pair};
use std::collections::{BTreeMap, BTreeSet};

/// One topology transition the control plane reacts to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingDelta {
    /// Ring fiber `i` (between switches `i` and `i+1 mod m`) is cut.
    FiberCut(usize),
    /// Ring fiber `i` is spliced back.
    FiberRepair(usize),
}

impl RingDelta {
    /// The fiber index the delta touches.
    pub fn fiber(self) -> usize {
        match self {
            RingDelta::FiberCut(i) | RingDelta::FiberRepair(i) => i,
        }
    }

    /// Stable lower-snake name (`"cut"` / `"repair"`).
    pub fn as_str(self) -> &'static str {
        match self {
            RingDelta::FiberCut(_) => "cut",
            RingDelta::FiberRepair(_) => "repair",
        }
    }
}

/// How a re-solve concluded (the observable half of the
/// graceful-degradation contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolveOutcome {
    /// The incumbent-warm-started plan was adopted: surviving entries
    /// untouched, displaced pairs re-placed within the fresh greedy
    /// channel count.
    WarmStart,
    /// The node budget ran out mid-placement or mid-repack; the fresh
    /// greedy plan was adopted instead (more retunes, never a failure).
    BudgetFallback,
    /// The repack proved no warm-started completion could match the
    /// fresh greedy count, so the fresh plan was adopted.
    FreshSolve,
}

impl ResolveOutcome {
    /// Stable lower-snake name used in events and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            ResolveOutcome::WarmStart => "warm_start",
            ResolveOutcome::BudgetFallback => "budget_fallback",
            ResolveOutcome::FreshSolve => "fresh_solve",
        }
    }
}

/// A pair whose transceiver tuning changes: `(direction, channel)`
/// before and after the re-solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetuneOp {
    /// The affected switch pair.
    pub pair: Pair,
    /// Tuning before the re-solve.
    pub from: (Direction, u16),
    /// Tuning after the re-solve.
    pub to: (Direction, u16),
}

impl RetuneOp {
    /// How long the pair's lightpath is dark under `model`: the laser
    /// retune time when the channel moves, the bare re-lock window when
    /// only the arc direction flips, zero when nothing changed.
    pub fn dark_ns(&self, model: &quartz_optics::retune::RetuneModel) -> u64 {
        use quartz_optics::wavelength::ChannelId;
        if self.from.1 != self.to.1 {
            model.latency_ns(ChannelId(self.from.1), ChannelId(self.to.1))
        } else if self.from.0 != self.to.0 {
            model.base_ns
        } else {
            0
        }
    }
}

/// What one [`OnlineRwa::apply`] call did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolveReport {
    /// The delta that triggered the re-solve.
    pub trigger: RingDelta,
    /// How the solve concluded.
    pub outcome: ResolveOutcome,
    /// Channels used by the adopted plan.
    pub channels: usize,
    /// Channels a from-scratch greedy solve of the same degraded ring
    /// uses (always ≥ `channels` is *not* guaranteed — the invariant is
    /// `channels ≤ fresh_channels`).
    pub fresh_channels: usize,
    /// Pairs live before and after whose tuning changed.
    pub moved: Vec<RetuneOp>,
    /// Previously dark pairs now lit (`from` is their last tuning).
    pub restored: Vec<RetuneOp>,
    /// Pairs that lost their lightpath to this delta (dark from the
    /// moment of the cut).
    pub torn_down: Vec<Pair>,
    /// Pairs still dark after the re-solve.
    pub unroutable: usize,
    /// Budget spent: one node per first-fit channel probe plus one per
    /// repack DFS node.
    pub nodes_used: u64,
}

impl ResolveReport {
    /// Total pairs whose transceivers retune (moved + restored-with-
    /// tuning-change).
    pub fn retune_count(&self) -> usize {
        self.moved.len() + self.restored.iter().filter(|op| op.from != op.to).count()
    }
}

/// The live RWA controller: incumbent plan + dead-fiber mask.
///
/// Apply a [`RingDelta`] per topology transition; read the adopted plan
/// back via [`OnlineRwa::plan`]. Deterministic: no randomness, and the
/// adopted plan is a pure function of the delta sequence.
#[derive(Clone, Debug)]
pub struct OnlineRwa {
    m: usize,
    dead: u64,
    node_budget: u64,
    plan: Assignment,
    /// Last tuning of every currently-unroutable pair, so a later
    /// restoration knows where its lasers are parked.
    parked: BTreeMap<Pair, (Direction, u16)>,
}

impl OnlineRwa {
    /// A controller for an intact ring of `m`, seeded with the offline
    /// greedy plan. `node_budget` bounds the incremental work per delta
    /// (0 forces [`ResolveOutcome::BudgetFallback`] on every delta).
    ///
    /// # Panics
    /// Panics unless `2 ≤ m ≤ 64`.
    pub fn new(m: usize, node_budget: u64) -> Self {
        assert!((2..=64).contains(&m), "online RWA supports 2..=64 switches");
        OnlineRwa {
            m,
            dead: 0,
            node_budget,
            plan: greedy::assign_best(m, 0),
            parked: BTreeMap::new(),
        }
    }

    /// Ring size.
    pub fn ring_size(&self) -> usize {
        self.m
    }

    /// Bitmask of currently dead fibers.
    pub fn dead_mask(&self) -> u64 {
        self.dead
    }

    /// The incumbent (currently adopted) plan.
    pub fn plan(&self) -> &Assignment {
        &self.plan
    }

    /// Per-delta search budget.
    pub fn node_budget(&self) -> u64 {
        self.node_budget
    }

    /// Reacts to one topology transition: updates the dead mask,
    /// re-solves incrementally (warm start → budgeted repack → fresh
    /// greedy fallback), adopts the winning plan, and reports every
    /// tuning change.
    ///
    /// # Panics
    /// Panics if the delta is redundant (cutting a dead fiber,
    /// repairing a live one) or names a fiber outside `0..m` — a caller
    /// bug that would otherwise silently desynchronize plans.
    pub fn apply(&mut self, delta: RingDelta) -> ResolveReport {
        let fiber = delta.fiber();
        assert!(fiber < self.m, "fiber {fiber} outside ring of {}", self.m);
        let bit = 1u64 << fiber;
        match delta {
            RingDelta::FiberCut(_) => {
                assert_eq!(self.dead & bit, 0, "fiber {fiber} already cut");
                self.dead |= bit;
            }
            RingDelta::FiberRepair(_) => {
                assert_ne!(self.dead & bit, 0, "fiber {fiber} not cut");
                self.dead &= !bit;
            }
        }
        let dead = self.dead;

        // The from-scratch baseline: bound, fallback plan, and the
        // differential-test oracle, all in one solve.
        let fresh = greedy::assign_best(self.m, dead);
        let fresh_channels = fresh.channels_used();

        // Partition the incumbent: entries whose arcs survive are kept
        // verbatim; the rest are torn down (and parked).
        let mut kept: Vec<(Pair, Direction, u16)> = Vec::new();
        let mut torn_down: Vec<Pair> = Vec::new();
        for &(p, d, c) in &self.plan.entries {
            if arc_mask(&Arc::of(p, d, self.m)) & dead == 0 {
                kept.push((p, d, c));
            } else {
                torn_down.push(p);
            }
        }
        torn_down.sort_unstable();

        // Pairs needing placement: displaced-but-routable plus
        // previously-unroutable-now-routable.
        let mut to_place: Vec<Pair> = Vec::new();
        let mut still_dark: Vec<Pair> = Vec::new();
        for &p in torn_down.iter().chain(self.plan.unroutable.iter()) {
            if routable(p, self.m, dead) {
                to_place.push(p);
            } else {
                still_dark.push(p);
            }
        }
        still_dark.sort_unstable();

        let mut nodes_used = 0u64;
        let to_place = Pending::new(self.m, dead, &to_place);
        let warm = self.warm_place(&kept, &to_place, fresh_channels, &mut nodes_used);

        let (outcome, new_entries, new_unroutable) = match warm {
            Ok(Some(entries)) => (ResolveOutcome::WarmStart, entries, still_dark.clone()),
            Ok(None) => (
                ResolveOutcome::FreshSolve,
                fresh.entries.clone(),
                fresh.unroutable.clone(),
            ),
            Err(()) => (
                ResolveOutcome::BudgetFallback,
                fresh.entries.clone(),
                fresh.unroutable.clone(),
            ),
        };
        debug_assert_eq!(
            new_unroutable, still_dark,
            "fresh and warm solves must agree on unroutable pairs"
        );

        // Diff old state (incumbent + parked) against the adopted plan.
        let old: BTreeMap<Pair, (Direction, u16)> = self
            .plan
            .entries
            .iter()
            .map(|&(p, d, c)| (p, (d, c)))
            .collect();
        let was_dark: BTreeSet<Pair> = torn_down
            .iter()
            .chain(self.plan.unroutable.iter())
            .copied()
            .collect();
        let mut moved = Vec::new();
        let mut restored = Vec::new();
        for &(p, d, c) in &new_entries {
            let from = *old
                .get(&p)
                .or_else(|| self.parked.get(&p))
                .expect("every pair has a prior tuning");
            if was_dark.contains(&p) {
                restored.push(RetuneOp {
                    pair: p,
                    from,
                    to: (d, c),
                });
            } else if from != (d, c) {
                moved.push(RetuneOp {
                    pair: p,
                    from,
                    to: (d, c),
                });
            }
        }
        moved.sort_by_key(|op| op.pair);
        restored.sort_by_key(|op| op.pair);

        // Park the newly dark pairs; unpark the restored ones.
        for &p in &torn_down {
            let tuning = old[&p];
            self.parked.insert(p, tuning);
        }
        for op in &restored {
            self.parked.remove(&op.pair);
        }
        debug_assert_eq!(
            self.parked.keys().copied().collect::<Vec<_>>(),
            still_dark,
            "parked set must mirror the unroutable set"
        );

        self.plan = Assignment {
            m: self.m,
            entries: new_entries,
            unroutable: still_dark.clone(),
        };
        debug_assert!(self.plan.validate(dead).is_ok());
        let channels = self.plan.channels_used();
        debug_assert!(channels <= fresh_channels);

        ResolveReport {
            trigger: delta,
            outcome,
            channels,
            fresh_channels,
            moved,
            restored,
            torn_down,
            unroutable: still_dark.len(),
            nodes_used,
        }
    }

    /// Budgeted warm placement: first-fit each displaced pair, most
    /// constrained first, over the kept occupancy, each channel probe
    /// costing one node; if the resulting distinct-channel count exceeds
    /// the fresh greedy's, repack the displaced pairs (kept entries never
    /// move) with the shared search capped at the fresh count, each DFS
    /// node costing one node. One budget covers both phases.
    ///
    /// Returns the warm plan's entries, `Ok(None)` if no warm completion
    /// can match the fresh count (proven), `Err(())` if the budget ran
    /// out.
    fn warm_place(
        &self,
        kept: &[(Pair, Direction, u16)],
        to_place: &Pending,
        fresh_channels: usize,
        nodes_used: &mut u64,
    ) -> Result<Option<Entries>, ()> {
        let m = self.m;
        let budget = self.node_budget;

        let mut used: Vec<u64> = Vec::new();
        for &(p, d, c) in kept {
            let mask = arc_mask(&Arc::of(p, d, m));
            while used.len() <= usize::from(c) {
                used.push(0);
            }
            used[usize::from(c)] |= mask;
        }

        // Phase 1: first-fit.
        let mut placed: Vec<(Pair, Direction, u16)> = Vec::with_capacity(to_place.rows().len());
        let mut ff_used = used.clone();
        for row in to_place.rows() {
            let mut best: Option<(Direction, u64, usize)> = None;
            for &(dir, mask, _) in row.arcs() {
                for c in 0.. {
                    if *nodes_used >= budget {
                        return Err(());
                    }
                    *nodes_used += 1;
                    if ff_used.get(c).is_none_or(|links| links & mask == 0) {
                        if best.is_none_or(|(_, _, best_ch)| c < best_ch) {
                            best = Some((dir, mask, c));
                        }
                        break;
                    }
                }
            }
            let (dir, mask, ch) = best.expect("routable pair always places");
            debug_assert!(ch <= u16::MAX as usize, "channel ids fit u16");
            while ff_used.len() <= ch {
                ff_used.push(0);
            }
            ff_used[ch] |= mask;
            placed.push((row.pair, dir, ch as u16));
        }

        // Phase 2, if first-fit overshoots: repack over the kept
        // occupancy, which stays fixed.
        if ff_used.iter().filter(|&&links| links != 0).count() > fresh_channels {
            match to_place.place(used, fresh_channels, budget, nodes_used)? {
                Some(repacked) => placed = repacked,
                None => return Ok(None),
            }
        }
        let mut entries = kept.to_vec();
        entries.extend(placed);
        Ok(Some(entries))
    }
}

/// Default per-delta node budget: generous enough that warm starts on
/// paper-scale rings (m ≤ 35) never trip it, small enough that a
/// pathological repack degrades in microseconds, not minutes.
pub const DEFAULT_NODE_BUDGET: u64 = 200_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_then_repair_round_trips_to_a_complete_valid_plan() {
        for m in [6usize, 9, 13] {
            let mut rwa = OnlineRwa::new(m, DEFAULT_NODE_BUDGET);
            let baseline = rwa.plan().channels_used();
            let r1 = rwa.apply(RingDelta::FiberCut(1));
            assert!(r1.channels <= r1.fresh_channels);
            rwa.plan().validate(rwa.dead_mask()).unwrap();
            let r2 = rwa.apply(RingDelta::FiberRepair(1));
            assert!(r2.channels <= r2.fresh_channels);
            assert_eq!(rwa.dead_mask(), 0);
            let plan = rwa.plan();
            assert!(plan.unroutable().is_empty(), "ring healed");
            plan.validate(0).unwrap();
            assert!(
                plan.channels_used() <= baseline,
                "m={m}: healed plan {} > baseline {baseline}",
                plan.channels_used()
            );
        }
    }

    #[test]
    fn warm_start_keeps_surviving_entries_verbatim() {
        let m = 9;
        let mut rwa = OnlineRwa::new(m, DEFAULT_NODE_BUDGET);
        let before: BTreeMap<Pair, (Direction, u16)> = rwa
            .plan()
            .entries()
            .iter()
            .map(|&(p, d, c)| (p, (d, c)))
            .collect();
        let r = rwa.apply(RingDelta::FiberCut(4));
        if r.outcome == ResolveOutcome::WarmStart {
            let touched: BTreeSet<Pair> = r
                .moved
                .iter()
                .chain(r.restored.iter())
                .map(|op| op.pair)
                .chain(r.torn_down.iter().copied())
                .collect();
            for &(p, d, c) in rwa.plan().entries() {
                if !touched.contains(&p) {
                    assert_eq!(before[&p], (d, c), "untouched pair {p} moved");
                }
            }
        }
    }

    #[test]
    fn zero_budget_always_falls_back_and_never_aborts() {
        // A delta that requires placement work must fall back under a
        // zero budget; a delta with nothing to place (e.g. a second cut,
        // which only darkens pairs — the displaced pair's other arc
        // always crosses the first cut) may warm-start for free. Either
        // way the run never aborts and never beats the fresh count.
        let m = 10;
        let mut rwa = OnlineRwa::new(m, 0);
        let deltas = [
            (RingDelta::FiberCut(0), true),    // displaces routable pairs
            (RingDelta::FiberCut(5), false),   // only darkens cross pairs
            (RingDelta::FiberRepair(5), true), // relights them
            (RingDelta::FiberRepair(0), false),
        ];
        for (delta, needs_placement) in deltas {
            let r = rwa.apply(delta);
            if needs_placement {
                assert_eq!(r.outcome, ResolveOutcome::BudgetFallback, "{delta:?}");
                assert_eq!(r.nodes_used, 0);
            }
            assert!(r.channels <= r.fresh_channels);
            rwa.plan().validate(rwa.dead_mask()).unwrap();
        }
    }

    #[test]
    fn incremental_matches_from_scratch_on_channel_count() {
        // The differential invariant over a cut/repair interleaving:
        // after every delta, the adopted plan is valid on the degraded
        // ring and never uses more channels than a from-scratch greedy.
        let m = 11;
        let mut rwa = OnlineRwa::new(m, DEFAULT_NODE_BUDGET);
        let deltas = [
            RingDelta::FiberCut(2),
            RingDelta::FiberCut(7),
            RingDelta::FiberRepair(2),
            RingDelta::FiberCut(0),
            RingDelta::FiberRepair(7),
            RingDelta::FiberRepair(0),
        ];
        for delta in deltas {
            let r = rwa.apply(delta);
            rwa.plan().validate(rwa.dead_mask()).unwrap();
            let scratch = greedy::assign_best(m, rwa.dead_mask());
            assert_eq!(r.fresh_channels, scratch.channels_used());
            assert!(
                r.channels <= scratch.channels_used(),
                "{delta:?}: incremental {} > scratch {}",
                r.channels,
                scratch.channels_used()
            );
            assert_eq!(rwa.plan().unroutable(), scratch.unroutable());
        }
    }

    #[test]
    fn torn_down_pairs_are_restored_with_their_parked_tuning() {
        let m = 8;
        let mut rwa = OnlineRwa::new(m, DEFAULT_NODE_BUDGET);
        // Two cuts isolate switches 1..=3; cross pairs go dark.
        let r1 = rwa.apply(RingDelta::FiberCut(0));
        let r2 = rwa.apply(RingDelta::FiberCut(3));
        let dark: BTreeSet<Pair> = rwa.plan().unroutable().iter().copied().collect();
        assert!(!dark.is_empty());
        let torn: BTreeSet<Pair> = r1
            .torn_down
            .iter()
            .chain(r2.torn_down.iter())
            .copied()
            .collect();
        assert!(dark.iter().all(|p| torn.contains(p)));
        // Repairing fiber 3 relights them; each restored op's `from`
        // must be a real previous tuning, and `to` must be live.
        let r3 = rwa.apply(RingDelta::FiberRepair(3));
        let relit: BTreeSet<Pair> = r3.restored.iter().map(|op| op.pair).collect();
        assert!(dark.iter().all(|p| relit.contains(p)));
        rwa.plan().validate(rwa.dead_mask()).unwrap();
        assert!(rwa.plan().unroutable().is_empty());
    }

    #[test]
    fn reports_are_deterministic() {
        let run = || {
            let mut rwa = OnlineRwa::new(9, DEFAULT_NODE_BUDGET);
            vec![
                rwa.apply(RingDelta::FiberCut(3)),
                rwa.apply(RingDelta::FiberCut(6)),
                rwa.apply(RingDelta::FiberRepair(3)),
            ]
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "already cut")]
    fn redundant_cut_panics() {
        let mut rwa = OnlineRwa::new(5, 1_000);
        rwa.apply(RingDelta::FiberCut(1));
        rwa.apply(RingDelta::FiberCut(1));
    }
}
