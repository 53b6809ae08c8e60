//! The one branch-and-bound behind wavelength placement.
//!
//! Both searches the channel layer runs are this one: [`exact`] places
//! every pair of an intact ring over empty channels, capped at `C`
//! channels per deepening level; the [`online`] repack places the
//! displaced pairs of a cut ring over the kept occupancy, capped at the
//! fresh greedy's channel count. The search owns every choice the two
//! used to make separately:
//!
//! * **pair order** — longest shortest-live-arc first, ties in pair
//!   order ([`Pending::new`]);
//! * **channel order** — a channel is *open* iff its link mask is
//!   non-zero. Open channels are tried in ascending order, then, while
//!   fewer than the ceiling are open, the lowest empty index. Empty
//!   channels are interchangeable, so trying one of them is symmetry
//!   breaking, not a heuristic;
//! * **slack pruning** — the placed arcs, the kept arcs and the
//!   shortest live arc of every pair still to place must fit in the
//!   `ceiling × m` `(channel, link)` slots a completion can use;
//! * **budget** — one unit per DFS node, checked before the node is
//!   expanded.
//!
//! [`exact`]: super::exact
//! [`online`]: super::online

use super::{arc_mask, arcs_shorter_first, Direction, Pair};

/// Placed `(pair, direction, channel)` triples.
pub(crate) type Entries = Vec<(Pair, Direction, u16)>;

/// One pair to place with its live arcs (those avoiding every dead
/// fiber): `arcs[..live]`, each as `(direction, link mask, length)`,
/// shorter first, clockwise on ties.
#[derive(Clone, Copy)]
pub(crate) struct Row {
    pub(crate) pair: Pair,
    arcs: [(Direction, u64, usize); 2],
    live: usize,
}

impl Row {
    /// The live arcs, shorter first.
    pub(crate) fn arcs(&self) -> &[(Direction, u64, usize)] {
        &self.arcs[..self.live]
    }
}

/// The pairs a placement must route, most constrained first.
pub(crate) struct Pending {
    m: usize,
    rows: Vec<Row>,
    /// `suffix_min[i]` = Σ over `rows[i..]` of the shortest live arc —
    /// the fewest slots the pairs from `i` on will consume.
    suffix_min: Vec<usize>,
}

impl Pending {
    /// Orders `pairs` on a ring of `m` with `dead` fibers: longest
    /// shortest-live-arc first, ties in pair order.
    ///
    /// # Panics
    /// Panics if a pair has no live arc.
    pub(crate) fn new(m: usize, dead: u64, pairs: &[Pair]) -> Self {
        let mut rows: Vec<Row> = pairs
            .iter()
            .map(|&pair| {
                let mut row = Row {
                    pair,
                    arcs: [(Direction::Cw, 0, 0); 2],
                    live: 0,
                };
                for (dir, arc) in arcs_shorter_first(pair, m) {
                    let mask = arc_mask(&arc);
                    if mask & dead == 0 {
                        row.arcs[row.live] = (dir, mask, arc.len);
                        row.live += 1;
                    }
                }
                assert!(row.live > 0, "pair {pair} has no live arc");
                row
            })
            .collect();
        rows.sort_by_key(|r| (std::cmp::Reverse(r.arcs[0].2), r.pair));
        let mut suffix_min = vec![0usize; rows.len() + 1];
        for i in (0..rows.len()).rev() {
            suffix_min[i] = suffix_min[i + 1] + rows[i].arcs[0].2;
        }
        Pending {
            m,
            rows,
            suffix_min,
        }
    }

    /// The pairs in placement order.
    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Places every pending pair over the occupancy `used` (`used[c]` =
    /// links busy on channel `c`) so that at most `ceiling` channels end
    /// up open. `nodes` counts DFS nodes against `budget` and is carried
    /// in and out, so a caller can share one budget across phases.
    ///
    /// Returns the new entries in placement order, `Ok(None)` if no
    /// placement exists, `Err(())` if the budget ran out first.
    pub(crate) fn place(
        &self,
        mut used: Vec<u64>,
        ceiling: usize,
        budget: u64,
        nodes: &mut u64,
    ) -> Result<Option<Entries>, ()> {
        let open = used.iter().filter(|&&links| links != 0).count();
        if open > ceiling {
            return Ok(None);
        }
        let top = used
            .iter()
            .rposition(|&links| links != 0)
            .map_or(0, |c| c + 1);
        // The lowest empty index is at most `open`, and only opened
        // while `open < ceiling`: `ceiling` entries always reach it.
        used.resize(used.len().max(ceiling), 0);
        let used_slots = used.iter().map(|links| links.count_ones() as usize).sum();
        let mut dfs = Dfs {
            pending: self,
            used,
            top,
            open,
            ceiling,
            used_slots,
            total_slots: ceiling * self.m,
            nodes: *nodes,
            budget,
            out: self.rows.iter().map(|r| (r.pair, r.arcs[0].0, 0)).collect(),
        };
        let found = dfs.dfs(0);
        *nodes = dfs.nodes;
        Ok(found?.then_some(dfs.out))
    }
}

/// DFS state of one [`Pending::place`] call.
struct Dfs<'a> {
    pending: &'a Pending,
    /// `used[c]` = links busy on channel `c`, kept and placed.
    used: Vec<u64>,
    /// Highest open channel index + 1.
    top: usize,
    /// Open (non-empty) channels.
    open: usize,
    ceiling: usize,
    /// `(channel, link)` slots consumed so far.
    used_slots: usize,
    /// `ceiling × m`: the slots a completion may consume.
    total_slots: usize,
    nodes: u64,
    budget: u64,
    /// `out[i]` = placement of `pending.rows[i]`, valid for `i < idx`.
    out: Entries,
}

impl Dfs<'_> {
    /// Places `rows[idx..]`: `Ok(true)` found, `Ok(false)` infeasible,
    /// `Err(())` budget. On `Err` the state is left mid-placement.
    // lint:hot
    fn dfs(&mut self, idx: usize) -> Result<bool, ()> {
        let pending = self.pending;
        let Some(row) = pending.rows.get(idx) else {
            return Ok(true);
        };
        if self.nodes >= self.budget {
            return Err(());
        }
        self.nodes += 1;

        for &(dir, mask, arc_slots) in row.arcs() {
            // Aggregate-slack pruning: this arc plus the shortest arcs of
            // the remaining pairs must fit in the unused slots. Longer-arc
            // branches die here almost immediately when the ceiling is
            // load-tight.
            if self.used_slots + arc_slots + pending.suffix_min[idx + 1] > self.total_slots {
                continue;
            }
            // Open channels ascending; an empty one below the top (only
            // over kept occupancy) is remembered for the fresh try.
            let mut empty = None;
            let mut c = 0;
            while let Some(skip) = self.used[c..self.top]
                .iter()
                .position(|&links| links & mask == 0)
            {
                c += skip;
                if self.used[c] == 0 {
                    empty.get_or_insert(c);
                } else if self.descend(idx, (dir, mask, arc_slots), c)? {
                    return Ok(true);
                }
                c += 1;
            }
            if self.open < self.ceiling
                && self.descend(idx, (dir, mask, arc_slots), empty.unwrap_or(self.top))?
            {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Puts `rows[idx]` on channel `c` via `arc` and searches on; undoes
    /// the move unless a placement was found.
    // lint:hot
    fn descend(&mut self, idx: usize, arc: (Direction, u64, usize), c: usize) -> Result<bool, ()> {
        debug_assert!(c <= u16::MAX as usize, "channel ids fit u16");
        let (dir, mask, arc_slots) = arc;
        let (top, opens) = (self.top, self.used[c] == 0);
        self.used[c] |= mask;
        self.used_slots += arc_slots;
        self.top = top.max(c + 1);
        self.open += usize::from(opens);
        self.out[idx].1 = dir;
        self.out[idx].2 = c as u16;
        let found = self.dfs(idx + 1)?;
        if !found {
            self.used[c] &= !mask;
            self.used_slots -= arc_slots;
            self.top = top;
            self.open -= usize::from(opens);
        }
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    //! Differential test of the shared search against the two searches
    //! it replaced, kept here as oracles (renamed, with their three
    //! outcomes as `Result<bool, ()>`): the exact solver's per-level DFS
    //! and the online controller's repack. Exact mode must match
    //! outcome, entries and node count; repack mode (which now counts
    //! DFS nodes instead of channel probes) outcome and entries.

    use super::*;
    use crate::channel::bounds::load_lower_bound;
    use crate::channel::online::{OnlineRwa, RingDelta};
    use crate::channel::{all_pairs, greedy, routable, Arc};
    use crate::rng::StdRng;

    #[derive(Debug, PartialEq, Eq)]
    enum Verdict {
        Found(Entries),
        Infeasible,
        Budget,
    }

    fn verdict(r: Result<Option<Entries>, ()>) -> Verdict {
        match r {
            Ok(Some(entries)) => Verdict::Found(entries),
            Ok(None) => Verdict::Infeasible,
            Err(()) => Verdict::Budget,
        }
    }

    // ---- exact oracle: the per-level DFS of `exact::solve` ----

    struct ExactOracle {
        candidates: Vec<(Pair, [(Direction, u64); 2])>,
        used: Vec<u64>,
        opened: usize,
        nodes: u64,
        budget: u64,
        out: Entries,
        total_slots: usize,
        used_slots: usize,
        suffix_min: Vec<usize>,
    }

    impl ExactOracle {
        fn dfs(&mut self, idx: usize) -> Result<bool, ()> {
            if idx == self.candidates.len() {
                return Ok(true);
            }
            if self.nodes >= self.budget {
                return Err(());
            }
            self.nodes += 1;
            let (pair, cand_arcs) = self.candidates[idx];
            let limit = self.used.len();
            let mut budget_hit = false;
            for (dir, mask) in cand_arcs {
                let arc_slots = mask.count_ones() as usize;
                if self.used_slots + arc_slots + self.suffix_min[idx + 1] > self.total_slots {
                    continue;
                }
                let try_until = (self.opened + 1).min(limit);
                for c in 0..try_until {
                    if self.used[c] & mask != 0 {
                        continue;
                    }
                    let was_opened = self.opened;
                    self.used[c] |= mask;
                    self.used_slots += arc_slots;
                    self.opened = self.opened.max(c + 1);
                    self.out.push((pair, dir, c as u16));
                    match self.dfs(idx + 1) {
                        Ok(true) => return Ok(true),
                        Err(()) => budget_hit = true,
                        Ok(false) => {}
                    }
                    self.out.pop();
                    self.used[c] &= !mask;
                    self.used_slots -= arc_slots;
                    self.opened = was_opened;
                    if budget_hit {
                        return Err(());
                    }
                }
            }
            Ok(false)
        }
    }

    fn exact_oracle(m: usize, channels: usize, budget: u64) -> (Verdict, u64) {
        let mut pairs = all_pairs(m);
        pairs.sort_by_key(|p| std::cmp::Reverse(p.min_len(m)));
        let candidates: Vec<(Pair, [(Direction, u64); 2])> = pairs
            .into_iter()
            .map(|pair| {
                (
                    pair,
                    arcs_shorter_first(pair, m).map(|(d, arc)| (d, arc_mask(&arc))),
                )
            })
            .collect();
        let mut suffix_min = vec![0usize; candidates.len() + 1];
        for i in (0..candidates.len()).rev() {
            suffix_min[i] = suffix_min[i + 1] + candidates[i].0.min_len(m);
        }
        let mut s = ExactOracle {
            used: vec![0u64; channels],
            opened: 0,
            nodes: 0,
            budget,
            out: Vec::new(),
            total_slots: channels * m,
            used_slots: 0,
            suffix_min,
            candidates,
        };
        let r = s
            .dfs(0)
            .map(|found| found.then(|| std::mem::take(&mut s.out)));
        (verdict(r), s.nodes)
    }

    // ---- repack oracle: the online controller's bounded DFS ----

    fn allowed_arcs(pair: Pair, m: usize, dead: u64) -> LiveArcs {
        arcs_shorter_first(pair, m)
            .into_iter()
            .map(|(d, a)| (d, arc_mask(&a), a.len))
            .filter(|(_, mask, _)| mask & dead == 0)
            .collect()
    }

    type LiveArcs = Vec<(Direction, u64, usize)>;

    struct WarmOracle {
        arcs_of: Vec<(Pair, LiveArcs)>,
        used: Vec<u64>,
        open: Vec<u16>,
        max_open: usize,
        nodes: u64,
        budget: u64,
        out: Entries,
    }

    impl WarmOracle {
        fn dfs(&mut self, idx: usize) -> Result<bool, ()> {
            if idx == self.arcs_of.len() {
                return Ok(true);
            }
            let arcs = self.arcs_of[idx].1.clone();
            let pair = self.arcs_of[idx].0;
            let mut budget_hit = false;
            for (dir, mask, _) in arcs {
                let mut candidates: Vec<u16> = self.open.clone();
                if self.open.len() < self.max_open {
                    let fresh = (0u16..).find(|c| !self.open.contains(c)).unwrap();
                    candidates.push(fresh);
                }
                for c in candidates {
                    if self.nodes >= self.budget {
                        return Err(());
                    }
                    self.nodes += 1;
                    let ci = usize::from(c);
                    if self.used.get(ci).copied().unwrap_or(0) & mask != 0 {
                        continue;
                    }
                    while self.used.len() <= ci {
                        self.used.push(0);
                    }
                    let newly_open = !self.open.contains(&c);
                    self.used[ci] |= mask;
                    if newly_open {
                        let at = self.open.partition_point(|&o| o < c);
                        self.open.insert(at, c);
                    }
                    self.out.push((pair, dir, c));
                    match self.dfs(idx + 1) {
                        Ok(true) => return Ok(true),
                        Err(()) => budget_hit = true,
                        Ok(false) => {}
                    }
                    self.out.pop();
                    self.used[ci] &= !mask;
                    if newly_open {
                        let at = self.open.partition_point(|&o| o < c);
                        self.open.remove(at);
                    }
                    if budget_hit {
                        return Err(());
                    }
                }
            }
            Ok(false)
        }
    }

    /// The repack as `OnlineRwa::warm_place` ran it, minus the first-fit.
    fn warm_oracle(
        m: usize,
        dead: u64,
        kept: &Entries,
        to_place: &[Pair],
        ceiling: usize,
        budget: u64,
    ) -> (Verdict, u64) {
        let mut to_place = to_place.to_vec();
        to_place.sort_unstable();
        to_place.sort_by_key(|p| {
            std::cmp::Reverse(allowed_arcs(*p, m, dead).iter().map(|a| a.2).min().unwrap())
        });
        let open: Vec<u16> = kept
            .iter()
            .map(|e| e.2)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        if open.len() > ceiling {
            return (Verdict::Infeasible, 0);
        }
        let mut s = WarmOracle {
            arcs_of: to_place
                .iter()
                .map(|&p| (p, allowed_arcs(p, m, dead)))
                .collect(),
            used: occupancy(m, kept),
            open,
            max_open: ceiling,
            nodes: 0,
            budget,
            out: Vec::new(),
        };
        let r = s
            .dfs(0)
            .map(|found| found.then(|| std::mem::take(&mut s.out)));
        (verdict(r), s.nodes)
    }

    fn occupancy(m: usize, kept: &Entries) -> Vec<u64> {
        let mut used = Vec::new();
        for &(p, d, c) in kept {
            let c = usize::from(c);
            if used.len() <= c {
                used.resize(c + 1, 0);
            }
            used[c] |= arc_mask(&Arc::of(p, d, m));
        }
        used
    }

    #[test]
    fn exact_mode_matches_the_per_level_dfs() {
        for m in 2..=12 {
            let lb = load_lower_bound(m);
            let ub = greedy::assign_best(m, 0).channels_used();
            let pending = Pending::new(m, 0, &all_pairs(m));
            for channels in lb..=ub {
                for budget in [1, 1_000, 100_000, 2_000_000] {
                    let (want, want_nodes) = exact_oracle(m, channels, budget);
                    let mut nodes = 0;
                    let got = verdict(pending.place(Vec::new(), channels, budget, &mut nodes));
                    assert_eq!(got, want, "m={m} C={channels} budget={budget}");
                    assert_eq!(nodes, want_nodes, "m={m} C={channels} budget={budget}");
                }
            }
        }
    }

    #[test]
    fn repack_mode_matches_the_warm_repack() {
        // Far above every proof the incumbents below need (≤ 52 k
        // probes); the few levels where the oracle still runs out are
        // budget tests, not placement tests, and are skipped.
        const BUDGET: u64 = 2_000_000;
        let (mut compared, mut skipped) = (0usize, 0usize);
        for (m, seed) in [(7usize, 1u64), (9, 2), (12, 3), (33, 4)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rwa = OnlineRwa::new(m, crate::channel::online::DEFAULT_NODE_BUDGET);
            let (mut found, mut proven) = (0, 0);
            for _ in 0..24 {
                let dead = rwa.dead_mask();
                let cut = dead == 0 || (dead.count_ones() < 3 && rng.random_range(0..2) == 0);
                let fibers: Vec<usize> = (0..m).filter(|f| (dead >> f & 1 == 0) == cut).collect();
                let fiber = fibers[rng.random_range(0..fibers.len())];
                let (delta, dead) = if cut {
                    (RingDelta::FiberCut(fiber), dead | 1 << fiber)
                } else {
                    (RingDelta::FiberRepair(fiber), dead & !(1 << fiber))
                };
                // Kept and displaced exactly as `OnlineRwa::apply` splits
                // the incumbent.
                let plan = rwa.plan();
                let (kept, torn): (Entries, Entries) = plan
                    .entries()
                    .iter()
                    .partition(|&&(p, d, _)| arc_mask(&Arc::of(p, d, m)) & dead == 0);
                let to_place: Vec<Pair> = torn
                    .iter()
                    .map(|e| e.0)
                    .chain(plan.unroutable().iter().copied())
                    .filter(|&p| routable(p, m, dead))
                    .collect();
                let fresh = greedy::assign_best(m, dead).channels_used();
                let pending = Pending::new(m, dead, &to_place);
                for ceiling in [fresh - 1, fresh, fresh + 1] {
                    let (want, nodes) = warm_oracle(m, dead, &kept, &to_place, ceiling, BUDGET);
                    let at = format!("m={m} {delta:?} ceiling={ceiling}");
                    match want {
                        Verdict::Budget => {
                            skipped += 1;
                            continue;
                        }
                        Verdict::Found(_) => found += 1,
                        Verdict::Infeasible if nodes > 0 => proven += 1,
                        Verdict::Infeasible => {}
                    }
                    let mut used = 0;
                    let got =
                        verdict(pending.place(occupancy(m, &kept), ceiling, BUDGET, &mut used));
                    assert_eq!(got, want, "{at}");
                    assert!(used <= nodes, "{at}: {used} DFS nodes > {nodes} probes");
                    compared += 1;
                }
                rwa.apply(delta);
            }
            assert!(
                found > 0 && proven > 0,
                "m={m}: {found} found, {proven} proven by search"
            );
        }
        assert!(
            skipped * 20 < compared,
            "{skipped} skipped vs {compared} compared"
        );
    }
}
