//! Latency statistics: per-tag aggregation with confidence intervals.
//!
//! Experiments tag each measured flow class (e.g. "the local task" vs
//! "cross-traffic") with a small integer; the simulator records one
//! latency sample per delivered (or round-tripped) packet under its tag.
//! Summaries report mean, percentiles, and the 95 % confidence interval
//! of the mean — the paper plots 95 % CIs on its prototype results (§6.1).

use std::cell::{Cell, Ref, RefCell};

/// Aggregated samples for one tag.
///
/// Percentile queries ([`Series::percentile`], [`Series::summary`]) need the
/// samples sorted, but no caller depends on insertion order, so the
/// buffer is sorted **in place, lazily**: the first query after a
/// [`Series::record`] sorts once (amortized by the `sorted` flag) and
/// later queries reuse it — no per-query clone + sort of the full
/// buffer. Interior mutability keeps the query methods `&self`.
#[derive(Clone, Debug, Default)]
pub struct Series {
    samples_ns: RefCell<Vec<u64>>,
    sorted: Cell<bool>,
}

impl Series {
    /// Records one latency sample (invalidates the sorted order).
    pub fn record(&mut self, ns: u64) {
        self.samples_ns.get_mut().push(ns);
        self.sorted.set(false);
    }

    /// Appends every sample from `other` (invalidates the sorted
    /// order). All queries are multiset functions of the samples, so
    /// the answers after an append do not depend on which side the
    /// samples arrived from.
    pub fn append(&mut self, other: &Series) {
        self.samples_ns
            .get_mut()
            .extend_from_slice(&other.samples_ns.borrow());
        self.sorted.set(false);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples_ns.borrow().len()
    }

    /// The samples in ascending order, sorting first only if a record
    /// arrived since the last query.
    fn sorted_samples(&self) -> Ref<'_, Vec<u64>> {
        if !self.sorted.get() {
            self.samples_ns.borrow_mut().sort_unstable();
            self.sorted.set(true);
        }
        self.samples_ns.borrow()
    }

    /// The sample at quantile `p` (`0.0..=1.0`), using the same rounded
    /// nearest-rank convention as [`Series::summary`]. Returns 0 for an
    /// empty series.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "quantile {p} out of range");
        let sorted = self.sorted_samples();
        if sorted.is_empty() {
            0
        } else {
            sorted[(((sorted.len() - 1) as f64) * p).round() as usize]
        }
    }

    /// The 99.9th percentile — the tail the paper's latency argument
    /// lives in, and the headline column of the workload FCT report.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Summarizes the series.
    pub fn summary(&self) -> LatencySummary {
        let sorted = self.sorted_samples();
        let n = sorted.len();
        if n == 0 {
            return LatencySummary::default();
        }
        let sum: u128 = sorted.iter().map(|&x| x as u128).sum();
        let mean = sum as f64 / n as f64;
        let var = if n > 1 {
            sorted
                .iter()
                .map(|&x| {
                    let d = x as f64 - mean;
                    d * d
                })
                .sum::<f64>()
                / (n - 1) as f64
        } else {
            0.0
        };
        let sem = (var / n as f64).sqrt();
        let pct = |p: f64| sorted[(((n - 1) as f64) * p).round() as usize];
        LatencySummary {
            count: n,
            mean_ns: mean,
            ci95_ns: 1.96 * sem,
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
            max_ns: *sorted.last().unwrap(),
        }
    }
}

/// Summary statistics of one latency series.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Mean latency, ns.
    pub mean_ns: f64,
    /// Half-width of the 95 % confidence interval of the mean, ns.
    pub ci95_ns: f64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Mean in microseconds (convenient for paper-style plots).
    pub fn mean_us(&self) -> f64 {
        self.mean_ns / 1e3
    }
}

/// Per-tag aggregates: the latency series plus the hop accounting, one
/// row per tag so the per-delivery hot path touches a single entry.
#[derive(Clone, Debug, Default)]
struct TagStats {
    series: Series,
    /// Histogram of path lengths: `hops[h]` = deliveries that crossed
    /// `h` links. Path lengths are tiny and repeat constantly, so a
    /// counted bin beats buffering one sample per delivery — and every
    /// derived quantity (mean, distribution) is an integer fold that
    /// doesn't depend on arrival order.
    hops: Vec<u64>,
}

/// Bumps the bin for a path of `h` links, growing the histogram to fit.
#[inline]
fn bump_hops(hops: &mut Vec<u64>, h: u32) {
    let h = h as usize;
    if h >= hops.len() {
        hops.resize(h + 1, 0);
    }
    hops[h] += 1;
}

/// All statistics a simulation run produces.
///
/// Tags live in a sorted `Vec` parallel to their aggregate rows:
/// experiments use a handful of tags, so the per-delivery lookup is a
/// binary search over a few words — measurably cheaper than the three
/// `BTreeMap` walks this replaced (one each for latency, bytes, hops).
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Tags with any recorded data, ascending; parallel to `per_tag`.
    tag_keys: Vec<u32>,
    per_tag: Vec<TagStats>,
    /// Packets generated by all sources.
    pub generated: u64,
    /// Packets delivered to their final destination.
    pub delivered: u64,
    /// Packets dropped at full output queues.
    pub dropped: u64,
}

impl Stats {
    /// Row index for `tag`, inserting an empty row (in sorted position)
    /// on first sight.
    fn tag_idx(&mut self, tag: u32) -> usize {
        match self.tag_keys.binary_search(&tag) {
            Ok(i) => i,
            Err(i) => {
                self.tag_keys.insert(i, tag);
                self.per_tag.insert(i, TagStats::default());
                i
            }
        }
    }

    /// Row for `tag`, if it has ever recorded anything.
    fn tag_row(&self, tag: u32) -> Option<&TagStats> {
        self.tag_keys
            .binary_search(&tag)
            .ok()
            .map(|i| &self.per_tag[i])
    }

    /// Records a latency sample under `tag`.
    pub fn record(&mut self, tag: u32, ns: u64) {
        let i = self.tag_idx(tag);
        self.per_tag[i].series.record(ns);
    }

    /// Accounts one delivered packet — its path length (links
    /// traversed, the raw material for post-failure path-stretch
    /// reports) and, when the delivery completes a flow, its latency
    /// sample — under `tag` with a single row lookup.
    pub fn record_delivery(&mut self, tag: u32, hops: u32, latency: Option<u64>) {
        let i = self.tag_idx(tag);
        let row = &mut self.per_tag[i];
        bump_hops(&mut row.hops, hops);
        if let Some(ns) = latency {
            row.series.record(ns);
        }
    }

    /// Mean links traversed by `tag`'s delivered packets (0.0 if none).
    pub fn mean_hops(&self, tag: u32) -> f64 {
        match self.tag_row(tag) {
            Some(r) => {
                let total: u64 = r.hops.iter().sum();
                if total == 0 {
                    return 0.0;
                }
                let weighted: u64 = r.hops.iter().enumerate().map(|(h, &c)| h as u64 * c).sum();
                weighted as f64 / total as f64
            }
            None => 0.0,
        }
    }

    /// Distribution of path lengths under `tag`: `(links, packets)`
    /// pairs, ascending by hop count.
    pub fn hop_distribution(&self, tag: u32) -> Vec<(u32, usize)> {
        self.tag_row(tag)
            .map(|r| {
                debug_assert!(r.hops.len() <= u32::MAX as usize, "hop counts fit u32");
                r.hops
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(h, &c)| (h as u32, c as usize))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of samples recorded under `tag` (O(1), unlike
    /// [`Stats::summary`]).
    pub fn count(&self, tag: u32) -> usize {
        self.tag_row(tag).map_or(0, |r| r.series.count())
    }

    /// Summary for `tag` (empty summary if the tag has no samples).
    pub fn summary(&self, tag: u32) -> LatencySummary {
        self.tag_row(tag)
            .map(|r| r.series.summary())
            .unwrap_or_default()
    }

    /// Folds `other` into `self`: the conservation counters add, and
    /// each of `other`'s tag rows merges into the matching row here
    /// (latency samples append, hop bins add elementwise).
    ///
    /// Every query on [`Stats`] is a multiset function of the recorded
    /// samples, so a merge of per-shard stats yields bit-identical
    /// summaries regardless of how the samples were split across the
    /// shards — the property the sharded engine's determinism contract
    /// relies on.
    pub fn merge(&mut self, other: &Stats) {
        self.generated += other.generated;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        for (&tag, row) in other.tag_keys.iter().zip(&other.per_tag) {
            let i = self.tag_idx(tag);
            let mine = &mut self.per_tag[i];
            mine.series.append(&row.series);
            if row.hops.len() > mine.hops.len() {
                mine.hops.resize(row.hops.len(), 0);
            }
            for (m, &o) in mine.hops.iter_mut().zip(&row.hops) {
                *m += o;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_summary_is_zero() {
        let s = Series::default();
        assert_eq!(s.summary(), LatencySummary::default());
    }

    #[test]
    fn summary_of_constant_samples() {
        let mut s = Series::default();
        for _ in 0..100 {
            s.record(1_000);
        }
        let sum = s.summary();
        assert_eq!(sum.count, 100);
        assert_eq!(sum.mean_ns, 1_000.0);
        assert_eq!(sum.ci95_ns, 0.0);
        assert_eq!(sum.p50_ns, 1_000);
        assert_eq!(sum.p99_ns, 1_000);
        assert_eq!(sum.max_ns, 1_000);
    }

    #[test]
    fn summary_of_uniform_ramp() {
        let mut s = Series::default();
        for i in 1..=1000u64 {
            s.record(i);
        }
        let sum = s.summary();
        assert_eq!(sum.mean_ns, 500.5);
        assert_eq!(sum.p50_ns, 501); // index round(999·0.5)=500 → sorted[500]=501
        assert_eq!(sum.max_ns, 1000);
        assert!(sum.p99_ns >= 989 && sum.p99_ns <= 991);
        // CI of mean for U(1,1000): sd ≈ 288.8, sem ≈ 9.13, CI ≈ 17.9.
        assert!((sum.ci95_ns - 17.9).abs() < 0.5, "{}", sum.ci95_ns);
    }

    #[test]
    fn stats_counts_samples_per_tag() {
        let mut st = Stats::default();
        st.record(1, 10);
        st.record(2, 20);
        st.record(2, 30);
        assert_eq!(st.count(1), 1);
        assert_eq!(st.count(2), 2);
        assert_eq!(st.count(9), 0);
        assert_eq!(st.summary(2).count, 2);
        assert_eq!(st.summary(9).count, 0);
    }

    #[test]
    fn mean_us_conversion() {
        let mut s = Series::default();
        s.record(2_500);
        assert_eq!(s.summary().mean_us(), 2.5);
    }

    #[test]
    fn single_sample_percentiles_collapse_to_it() {
        // n = 1: the percentile index formula round((n−1)·p) must hit
        // index 0 for every p, not over- or under-run.
        let mut s = Series::default();
        s.record(777);
        let sum = s.summary();
        assert_eq!(sum.count, 1);
        assert_eq!(sum.mean_ns, 777.0);
        assert_eq!(sum.ci95_ns, 0.0);
        assert_eq!(sum.p50_ns, 777);
        assert_eq!(sum.p99_ns, 777);
        assert_eq!(sum.max_ns, 777);
        for p in [0.0, 0.5, 1.0] {
            assert_eq!(s.percentile(p), 777);
        }
    }

    #[test]
    fn extreme_quantiles_hit_min_and_max() {
        // p0 / p100 are the exact min and max, for even and odd n.
        for n in [2u64, 3, 10, 11] {
            let mut s = Series::default();
            for i in (1..=n).rev() {
                s.record(i * 7);
            }
            assert_eq!(s.percentile(0.0), 7, "n={n}");
            assert_eq!(s.percentile(1.0), n * 7, "n={n}");
        }
    }

    #[test]
    fn interleaved_pushes_and_percentiles_match_naive_reference() {
        // The lazy sort must re-invalidate on every record: interleave
        // pushes with percentile/summary queries and compare each answer to a
        // naive clone-and-sort reference over the same prefix.
        let naive_cdf = |raw: &[u64], quantiles: &[f64]| -> Vec<u64> {
            let mut sorted = raw.to_vec();
            sorted.sort_unstable();
            quantiles
                .iter()
                .map(|&q| {
                    if sorted.is_empty() {
                        0
                    } else {
                        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
                    }
                })
                .collect()
        };
        let quantiles = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
        let mut s = Series::default();
        let mut raw: Vec<u64> = Vec::new();
        // Deterministic scrambled stream, including duplicates and a
        // descending tail that would expose a stale sort cache.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let sample = if step % 7 == 0 { 42 } else { x % 10_000 };
            s.record(sample);
            raw.push(sample);
            if step % 3 == 0 {
                let got: Vec<u64> = quantiles.iter().map(|&q| s.percentile(q)).collect();
                assert_eq!(got, naive_cdf(&raw, &quantiles), "{step}");
            }
            if step % 5 == 0 {
                let sum = s.summary();
                let want = naive_cdf(&raw, &[0.5, 0.99]);
                assert_eq!(sum.p50_ns, want[0], "{step}");
                assert_eq!(sum.p99_ns, want[1], "{step}");
                assert_eq!(sum.count, raw.len());
                assert_eq!(sum.max_ns, *raw.iter().max().unwrap());
            }
        }
    }

    #[test]
    fn percentile_and_p999_match_naive_sorted_reference() {
        use quartz_core::rng::StdRng;

        // Nearest-rank reference over an explicitly sorted clone.
        let naive = |raw: &[u64], p: f64| -> u64 {
            let mut sorted = raw.to_vec();
            sorted.sort_unstable();
            if sorted.is_empty() {
                0
            } else {
                sorted[((sorted.len() - 1) as f64 * p).round() as usize]
            }
        };
        let ps = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0];
        // Sizes straddle the interesting boundaries for p999: below
        // 1/0.001 samples it collapses toward the max, above it must
        // pick an interior rank.
        for (case, &n) in [0usize, 1, 2, 500, 999, 1_000, 1_001, 4_096]
            .iter()
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(0x999 + case as u64);
            let mut s = Series::default();
            let mut raw = Vec::new();
            for _ in 0..n {
                let v = rng.random::<u64>() % 1_000_000;
                s.record(v);
                raw.push(v);
            }
            for &p in &ps {
                assert_eq!(s.percentile(p), naive(&raw, p), "n={n} p={p}");
            }
            assert_eq!(s.p999(), naive(&raw, 0.999), "n={n}");
            // p999 sits between p99 and the max by construction.
            assert!(s.p999() >= s.percentile(0.99), "n={n}");
            assert!(s.p999() <= s.percentile(1.0), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_percentile_panics() {
        let mut s = Series::default();
        s.record(1);
        s.percentile(-0.1);
    }

    #[test]
    fn merge_equals_single_sided_recording() {
        // Record one interleaved stream into a reference Stats, and the
        // same stream split round-robin across three shards that are
        // then merged; every summary output must be identical.
        let mut reference = Stats::default();
        let mut shards = [Stats::default(), Stats::default(), Stats::default()];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..600u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let tag = (x % 5) as u32;
            let shard = &mut shards[(step % 3) as usize];
            match x % 4 {
                0 => {
                    reference.record(tag, x % 100_000);
                    shard.record(tag, x % 100_000);
                }
                1 => {
                    reference.record_delivery(tag, (x % 7) as u32, Some(x % 50_000));
                    shard.record_delivery(tag, (x % 7) as u32, Some(x % 50_000));
                    reference.delivered += 1;
                    shard.delivered += 1;
                }
                2 => {
                    reference.record_delivery(tag, (x % 11) as u32, None);
                    shard.record_delivery(tag, (x % 11) as u32, None);
                    reference.generated += 1;
                    shard.generated += 1;
                }
                _ => {
                    reference.record_delivery(tag, (x % 9) as u32, None);
                    shard.record_delivery(tag, (x % 9) as u32, None);
                    reference.dropped += 1;
                    shard.dropped += 1;
                }
            }
        }
        let mut merged = Stats::default();
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged.generated, reference.generated);
        assert_eq!(merged.delivered, reference.delivered);
        assert_eq!(merged.dropped, reference.dropped);
        for tag in 0..6u32 {
            assert_eq!(merged.count(tag), reference.count(tag), "tag {tag}");
            assert_eq!(merged.summary(tag), reference.summary(tag), "tag {tag}");
            assert_eq!(
                merged.hop_distribution(tag),
                reference.hop_distribution(tag),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn merge_into_empty_and_with_empty_are_identity() {
        let mut some = Stats::default();
        some.record(3, 11);
        some.record_delivery(3, 2, Some(7));
        some.generated = 5;

        let mut from_empty = Stats::default();
        from_empty.merge(&some);
        assert_eq!(from_empty.summary(3), some.summary(3));
        assert_eq!(from_empty.generated, 5);

        let snapshot = some.summary(3);
        some.merge(&Stats::default());
        assert_eq!(some.summary(3), snapshot);
        assert_eq!(some.generated, 5);
    }

    #[test]
    fn hop_recording_and_distribution() {
        let mut st = Stats::default();
        assert_eq!(st.mean_hops(0), 0.0);
        assert!(st.hop_distribution(0).is_empty());
        st.record_delivery(0, 3, None);
        st.record_delivery(0, 3, None);
        st.record_delivery(0, 4, None);
        st.record_delivery(9, 2, None);
        assert!((st.mean_hops(0) - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(st.hop_distribution(0), vec![(3, 2), (4, 1)]);
        assert_eq!(st.hop_distribution(9), vec![(2, 1)]);
    }
}
