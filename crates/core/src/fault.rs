//! Fault tolerance of Quartz rings — §3.5 and Figure 6 of the paper.
//!
//! A single physical ring partitions after two cable cuts; Quartz designs
//! therefore spread their channels across multiple physical fiber rings
//! (a 33-switch ring needs 137 channels, hence two 80-channel WDM devices
//! and two fibers anyway). This module reproduces the paper's simulation:
//! random fiber-link failures, measuring
//!
//! * **bandwidth loss** — the fraction of switch pairs whose dedicated
//!   channel crossed a broken segment (their direct capacity is gone even
//!   though packets can still detour through intermediate switches), and
//! * **partition probability** — whether the surviving direct channels
//!   still connect all switches (checked with union–find).
//!
//! Failure events hit a uniformly random fiber segment of a uniformly
//! random ring, independently (so two events *can* hit the same segment —
//! this matches the paper's "more than 90 %" rather than exactly 100 %
//! partition probability for two failures on a single ring).

use crate::channel::{greedy, Arc, Pair};
use crate::pool::ThreadPool;
use crate::rng::StdRng;

/// The fault model for an `m`-switch Quartz network whose channels are
/// spread over `rings` physical fiber rings.
///
/// # Examples
///
/// ```
/// use quartz_core::fault::FailureModel;
///
/// // §3.5: with two physical rings, even four simultaneous cuts almost
/// // never partition a 33-switch network.
/// let model = FailureModel::new(33, 2);
/// let report = model.monte_carlo(4, 1_000, 42);
/// assert!(report.partition_probability < 0.02);
/// ```
#[derive(Clone, Debug)]
pub struct FailureModel {
    m: usize,
    rings: usize,
    /// `(pair, arc, ring)` for every switch pair: the links its channel
    /// occupies and the physical ring carrying it.
    paths: Vec<(Pair, Arc, usize)>,
}

/// Outcome of one failure trial.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialOutcome {
    /// Pairs whose direct channel was severed.
    pub lost_pairs: usize,
    /// Total pairs.
    pub total_pairs: usize,
    /// Whether the surviving direct-channel graph is disconnected.
    pub partitioned: bool,
}

impl TrialOutcome {
    /// Fraction of pairwise direct capacity lost.
    pub fn bandwidth_loss(&self) -> f64 {
        self.lost_pairs as f64 / self.total_pairs as f64
    }
}

/// Aggregated Monte-Carlo results (one cell of Figure 6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultReport {
    /// Number of simultaneous fiber-link failures per trial.
    pub failures: usize,
    /// Physical rings in the design.
    pub rings: usize,
    /// Trials run.
    pub trials: usize,
    /// Mean fraction of pairwise direct bandwidth lost.
    pub mean_bandwidth_loss: f64,
    /// Fraction of trials in which the network partitioned.
    pub partition_probability: f64,
    /// Mean hop count of the shortest surviving detour, over severed
    /// pairs that stayed connected (1.0 = nothing severed: every pair
    /// kept its direct channel). Sampled on a deterministic subset of
    /// trials (see [`FailureModel::monte_carlo`]).
    pub mean_detour_stretch: f64,
    /// Mean shortest-path hop count over *all* still-connected pairs
    /// after the failures (1.0 in an intact mesh). Same sampling.
    pub mean_post_failure_hops: f64,
}

/// Connectivity detail of one failure trial: where the severed pairs'
/// traffic can detour over the surviving direct channels, and how the
/// whole mesh's hop-count distribution degrades.
#[derive(Clone, Debug, PartialEq)]
pub struct DetourOutcome {
    /// The basic severed/partitioned outcome of the same trial.
    pub outcome: TrialOutcome,
    /// Shortest surviving detour length, in channel hops, for each
    /// severed pair (`None` if that pair is disconnected entirely).
    pub detour_hops: Vec<Option<usize>>,
    /// `hop_histogram[h]` = number of connected pairs whose shortest
    /// surviving path uses `h` channel hops (index 0 unused).
    pub hop_histogram: Vec<usize>,
}

impl DetourOutcome {
    /// Mean detour length over severed-but-still-connected pairs;
    /// 1.0 when nothing was severed (no pair is stretched).
    pub fn mean_stretch(&self) -> f64 {
        let reachable: Vec<usize> = self.detour_hops.iter().filter_map(|h| *h).collect();
        if reachable.is_empty() {
            1.0
        } else {
            reachable.iter().sum::<usize>() as f64 / reachable.len() as f64
        }
    }

    /// Longest detour any severed pair must take (`None` if nothing was
    /// severed or nothing severed is reachable).
    pub fn max_detour_hops(&self) -> Option<usize> {
        self.detour_hops.iter().filter_map(|h| *h).max()
    }

    /// Mean hops over all connected pairs (severed pairs included via
    /// their detours).
    pub fn mean_hops(&self) -> f64 {
        let (mut pairs, mut hops) = (0usize, 0usize);
        for (h, &count) in self.hop_histogram.iter().enumerate() {
            pairs += count;
            hops += h * count;
        }
        if pairs == 0 {
            0.0
        } else {
            hops as f64 / pairs as f64
        }
    }
}

impl FailureModel {
    /// Builds the model: runs the greedy wavelength planner for `m` and
    /// spreads channels across `rings` fibers round-robin by channel index
    /// (balanced, and consistent with "two 80-channel WDM muxes/demuxes
    /// instead of a single mux/demux at each switch").
    ///
    /// # Panics
    /// Panics if `m < 3` or `rings == 0`.
    pub fn new(m: usize, rings: usize) -> Self {
        assert!(m >= 3, "fault analysis needs ≥ 3 switches");
        assert!(rings >= 1, "at least one physical ring");
        let assignment = greedy::assign_best(m, 0);
        let paths = assignment
            .entries()
            .iter()
            .map(|(pair, dir, ch)| (*pair, Arc::of(*pair, *dir, m), usize::from(*ch) % rings))
            .collect();
        FailureModel { m, rings, paths }
    }

    /// Number of switches.
    pub fn switches(&self) -> usize {
        self.m
    }

    /// Number of physical rings.
    pub fn rings(&self) -> usize {
        self.rings
    }

    /// Evaluates one failure set: `broken` lists `(ring, link)` segments.
    pub fn trial(&self, broken: &[(usize, usize)]) -> TrialOutcome {
        let total_pairs = self.paths.len();
        let mut lost_pairs = 0;
        let mut dsu = DisjointSet::new(self.m);
        for (pair, arc, ring) in &self.paths {
            let severed = broken.iter().any(|(r, l)| r == ring && arc.covers(*l));
            if severed {
                lost_pairs += 1;
            } else {
                dsu.union(pair.a, pair.b);
            }
        }
        TrialOutcome {
            lost_pairs,
            total_pairs,
            partitioned: dsu.components() > 1,
        }
    }

    /// The switch pairs whose direct channel a failure set severs
    /// (normalized `a < b`) — the input a degraded capacity model (e.g.
    /// `quartz_flowsim`'s waterfiller) needs.
    pub fn severed_pairs(&self, broken: &[(usize, usize)]) -> Vec<(usize, usize)> {
        self.paths
            .iter()
            .filter(|(_, arc, ring)| broken.iter().any(|(r, l)| r == ring && arc.covers(*l)))
            .map(|(pair, _, _)| (pair.a.min(pair.b), pair.a.max(pair.b)))
            .collect()
    }

    /// Evaluates one failure set in full: on top of [`FailureModel::trial`],
    /// computes every severed pair's shortest surviving detour and the
    /// post-failure hop-count distribution of the whole mesh (BFS over
    /// the surviving direct-channel graph).
    pub fn trial_detours(&self, broken: &[(usize, usize)]) -> DetourOutcome {
        let outcome = self.trial(broken);
        // Surviving channel adjacency.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.m];
        let mut severed = Vec::new();
        for (pair, arc, ring) in &self.paths {
            if broken.iter().any(|(r, l)| r == ring && arc.covers(*l)) {
                severed.push(*pair);
            } else {
                adj[pair.a].push(pair.b);
                adj[pair.b].push(pair.a);
            }
        }
        // All-pairs hops by BFS from every switch.
        let mut dist = vec![vec![usize::MAX; self.m]; self.m];
        for s in 0..self.m {
            let d = &mut dist[s];
            d[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &v in &adj[u] {
                    if d[v] == usize::MAX {
                        d[v] = d[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        let detour_hops = severed
            .iter()
            .map(|p| {
                let d = dist[p.a][p.b];
                (d != usize::MAX).then_some(d)
            })
            .collect();
        let mut hop_histogram = vec![0usize; self.m];
        for (a, row) in dist.iter().enumerate() {
            for &d in row.iter().skip(a + 1) {
                if d != usize::MAX {
                    hop_histogram[d] += 1;
                }
            }
        }
        DetourOutcome {
            outcome,
            detour_hops,
            hop_histogram,
        }
    }

    /// Runs `trials` independent trials of `failures` random fiber-link
    /// failures each and aggregates the Figure 6 statistics.
    ///
    /// The O(m²) detour analysis runs on a deterministic sample of at
    /// most 200 evenly spaced trials (the loss/partition statistics use
    /// every trial), keeping large Monte-Carlo sweeps cheap.
    pub fn monte_carlo(&self, failures: usize, trials: usize, seed: u64) -> FaultReport {
        self.monte_carlo_with(failures, trials, seed, &ThreadPool::sequential())
    }

    /// The same statistics as [`FailureModel::monte_carlo`], with the
    /// per-trial evaluations spread over `pool`.
    ///
    /// All failure locations are drawn up front from one sequential RNG
    /// stream (identical to the stream `monte_carlo` consumes) and the
    /// per-trial results fold in trial order, so the report is
    /// bit-identical at any worker count.
    pub fn monte_carlo_with(
        &self,
        failures: usize,
        trials: usize,
        seed: u64,
        pool: &ThreadPool,
    ) -> FaultReport {
        let mut rng = StdRng::seed_from_u64(seed);
        let draws: Vec<Vec<(usize, usize)>> = (0..trials)
            .map(|_| {
                (0..failures)
                    .map(|_| (rng.random_range(0..self.rings), rng.random_range(0..self.m)))
                    .collect()
            })
            .collect();
        let stride = trials.div_ceil(200).max(1);
        // `(loss, partitioned, Some((stretch, hops)))` for sampled trials.
        let cells = pool.par_map(trials, |trial| {
            let broken = &draws[trial];
            if trial % stride == 0 {
                let d = self.trial_detours(broken);
                (
                    d.outcome.bandwidth_loss(),
                    d.outcome.partitioned,
                    Some((d.mean_stretch(), d.mean_hops())),
                )
            } else {
                let t = self.trial(broken);
                (t.bandwidth_loss(), t.partitioned, None)
            }
        });
        let mut loss_sum = 0.0;
        let mut partitions = 0usize;
        let mut stretch_sum = 0.0;
        let mut hops_sum = 0.0;
        let mut sampled = 0usize;
        for (loss, partitioned, detours) in cells {
            loss_sum += loss;
            partitions += usize::from(partitioned);
            if let Some((stretch, hops)) = detours {
                stretch_sum += stretch;
                hops_sum += hops;
                sampled += 1;
            }
        }
        FaultReport {
            failures,
            rings: self.rings,
            trials,
            mean_bandwidth_loss: loss_sum / trials as f64,
            partition_probability: partitions as f64 / trials as f64,
            mean_detour_stretch: stretch_sum / sampled as f64,
            mean_post_failure_hops: hops_sum / sampled as f64,
        }
    }
}

/// Minimal union–find for the partition check: iterative path-halving
/// find (no recursion, so arbitrarily deep parent chains cannot blow the
/// stack) plus union by rank (which keeps chains logarithmic anyway).
struct DisjointSet {
    parent: Vec<usize>,
    rank: Vec<u8>,
    count: usize,
}

impl DisjointSet {
    fn new(n: usize) -> Self {
        DisjointSet {
            parent: (0..n).collect(),
            rank: vec![0; n],
            count: n,
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (child, root) = if self.rank[ra] < self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[child] = root;
        if self.rank[child] == self.rank[root] {
            self.rank[root] += 1;
        }
        self.count -= 1;
    }

    fn components(&mut self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_failures_no_loss() {
        let fm = FailureModel::new(9, 1);
        let t = fm.trial(&[]);
        assert_eq!(t.lost_pairs, 0);
        assert!(!t.partitioned);
    }

    #[test]
    fn single_ring_one_failure_loses_roughly_a_quarter() {
        // 33 switches: each link carries ~136 of 528 channels ⇒ ~26 %
        // direct-bandwidth loss per cut (the paper reports ~20 % with its
        // assignment; the shape is what matters).
        let fm = FailureModel::new(33, 1);
        let r = fm.monte_carlo(1, 500, 42);
        assert!(
            (0.15..0.35).contains(&r.mean_bandwidth_loss),
            "loss {}",
            r.mean_bandwidth_loss
        );
        // One cut never partitions a full mesh: every pair still has
        // multi-hop connectivity through surviving direct channels.
        assert_eq!(r.partition_probability, 0.0);
    }

    #[test]
    fn single_ring_two_distinct_failures_partition() {
        let fm = FailureModel::new(12, 1);
        // Cut links 2 and 7: switches 3..=7 split from the rest.
        let t = fm.trial(&[(0, 2), (0, 7)]);
        assert!(t.partitioned);
        // Same segment twice: no partition.
        let t = fm.trial(&[(0, 2), (0, 2)]);
        assert!(!t.partitioned);
    }

    #[test]
    fn single_ring_two_random_failures_mostly_partition() {
        // §3.5: "more than 90%" — misses only when both events hit the
        // same segment.
        let fm = FailureModel::new(33, 1);
        let r = fm.monte_carlo(2, 1000, 7);
        assert!(r.partition_probability > 0.9, "{}", r.partition_probability);
        assert!(r.partition_probability < 1.0);
    }

    #[test]
    fn second_ring_makes_partition_rare() {
        // §3.5: "by adding a single additional physical ring, the
        // probability of the network partitioning is less than 0.24% even
        // when four physical links fail".
        let fm = FailureModel::new(33, 2);
        let r = fm.monte_carlo(4, 4000, 11);
        assert!(
            r.partition_probability < 0.02,
            "partition probability {} too high",
            r.partition_probability
        );
    }

    #[test]
    fn more_rings_less_bandwidth_loss() {
        // Figure 6 top: loss falls roughly as 1/rings (20% → 6% from one
        // ring to four in the paper).
        let loss = |rings| {
            FailureModel::new(33, rings)
                .monte_carlo(1, 400, 3)
                .mean_bandwidth_loss
        };
        let l1 = loss(1);
        let l2 = loss(2);
        let l4 = loss(4);
        assert!(l1 > l2 && l2 > l4, "{l1} {l2} {l4}");
        assert!(
            l4 < l1 / 2.5,
            "four rings should cut loss ~4x: {l1} vs {l4}"
        );
    }

    #[test]
    fn union_find_survives_very_deep_chains() {
        // Regression: `find` used to recurse once per parent-chain link,
        // so a long sequential union chain could exhaust the stack. The
        // iterative path-halving version (with union by rank) must not.
        let n = 1_000_000;
        let mut dsu = DisjointSet::new(n);
        for i in 0..n - 1 {
            dsu.union(i, i + 1);
        }
        assert_eq!(dsu.components(), 1);
        assert_eq!(dsu.find(0), dsu.find(n - 1));
        // Disjoint halves stay disjoint.
        let mut dsu = DisjointSet::new(10);
        for i in 0..4 {
            dsu.union(i, i + 1);
            dsu.union(5 + i, 6 + i);
        }
        assert_eq!(dsu.components(), 2);
        assert_ne!(dsu.find(2), dsu.find(7));
    }

    #[test]
    fn detours_stretch_severed_pairs_to_two_hops() {
        // One cut on a single-ring mesh: severed pairs detour over the
        // surviving channels, almost always in exactly two hops (the
        // mesh's path diversity, §3.5 "routing protocols can route
        // around failed links").
        let fm = FailureModel::new(12, 1);
        let d = fm.trial_detours(&[(0, 3)]);
        assert!(d.outcome.lost_pairs > 0);
        assert!(!d.outcome.partitioned);
        // Every severed pair is still reachable, at ≥ 2 hops.
        for h in &d.detour_hops {
            assert!(h.unwrap() >= 2);
        }
        assert!(d.mean_stretch() >= 2.0);
        // Histogram covers all pairs: none lost to disconnection.
        let pairs: usize = d.hop_histogram.iter().sum();
        assert_eq!(pairs, 12 * 11 / 2);
        // Direct pairs (1 hop) plus the severed detours account for all.
        assert_eq!(d.hop_histogram[1], pairs - d.outcome.lost_pairs);
        assert!(d.mean_hops() > 1.0);
    }

    #[test]
    fn intact_mesh_reports_unit_stretch() {
        let fm = FailureModel::new(9, 2);
        let d = fm.trial_detours(&[]);
        assert_eq!(d.mean_stretch(), 1.0);
        assert_eq!(d.mean_hops(), 1.0);
        assert_eq!(d.max_detour_hops(), None);
        assert!(fm.severed_pairs(&[]).is_empty());
    }

    #[test]
    fn severed_pairs_match_trial_count() {
        let fm = FailureModel::new(15, 2);
        let broken = [(0, 4), (1, 9)];
        let severed = fm.severed_pairs(&broken);
        assert_eq!(severed.len(), fm.trial(&broken).lost_pairs);
        for &(a, b) in &severed {
            assert!(a < b && b < 15);
        }
    }

    #[test]
    fn partitioned_trial_reports_unreachable_detours() {
        // Two distinct cuts on one ring split the mesh: some severed
        // pairs have no surviving path at all.
        let fm = FailureModel::new(12, 1);
        let d = fm.trial_detours(&[(0, 2), (0, 7)]);
        assert!(d.outcome.partitioned);
        assert!(d.detour_hops.iter().any(|h| h.is_none()));
        // The histogram only counts connected pairs now.
        assert!(d.hop_histogram.iter().sum::<usize>() < 12 * 11 / 2);
    }

    #[test]
    fn trial_is_deterministic_and_report_reproducible() {
        let fm = FailureModel::new(15, 2);
        let a = fm.monte_carlo(3, 200, 99);
        let b = fm.monte_carlo(3, 200, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn losses_bounded() {
        let fm = FailureModel::new(9, 1);
        for f in 1..=4 {
            let r = fm.monte_carlo(f, 100, f as u64);
            assert!((0.0..=1.0).contains(&r.mean_bandwidth_loss));
            assert!((0.0..=1.0).contains(&r.partition_probability));
        }
    }
}
