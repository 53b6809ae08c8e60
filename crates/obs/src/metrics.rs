//! A deterministic metrics registry: counters, gauges, and sim-time
//! bucketed histograms.
//!
//! Everything is stored in `BTreeMap`s so iteration (and therefore the
//! rendered output) is ordered by name and bucket, never by hash state.
//! Parallel runs give each work unit its own registry and fold them
//! with [`MetricsRegistry::merge`] in unit-index order, which keeps the
//! aggregate bit-identical at any worker count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Width of every [`TimeHistogram`] bucket: 100 µs of simulated time.
pub const BUCKET_NS: u64 = 100_000;

/// Aggregate statistics of the samples that landed in one time bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketStats {
    /// Number of samples.
    pub count: u64,
    /// Sum of sample values.
    pub sum: u64,
    /// Smallest sample value.
    pub min: u64,
    /// Largest sample value.
    pub max: u64,
}

impl BucketStats {
    fn one(value: u64) -> BucketStats {
        BucketStats {
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }

    fn absorb(&mut self, other: BucketStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A histogram over simulated time: samples are bucketed by the
/// sim-time nanosecond at which they were observed, in [`BUCKET_NS`]
/// buckets, and each bucket keeps count/sum/min/max of the observed
/// values.
///
/// This is the shape behind "queue depth over time" and "link
/// utilization over time": the bucket key is *when*, the stats are
/// *what was seen then*.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimeHistogram {
    buckets: BTreeMap<u64, BucketStats>,
}

impl TimeHistogram {
    /// An empty histogram.
    pub fn new() -> TimeHistogram {
        TimeHistogram::default()
    }

    /// Records `value` observed at sim time `t_ns`.
    pub fn observe(&mut self, t_ns: u64, value: u64) {
        let key = t_ns / BUCKET_NS * BUCKET_NS;
        self.buckets
            .entry(key)
            .and_modify(|b| b.absorb(BucketStats::one(value)))
            .or_insert_with(|| BucketStats::one(value));
    }

    /// The buckets, ordered by start time.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, &BucketStats)> + '_ {
        self.buckets.iter().map(|(&k, v)| (k, v))
    }

    /// Total sample count across all buckets.
    pub fn count(&self) -> u64 {
        self.buckets.values().map(|b| b.count).sum()
    }

    /// Folds `other` into `self`, bucket by bucket.
    pub fn merge(&mut self, other: &TimeHistogram) {
        for (&start, stats) in &other.buckets {
            self.buckets
                .entry(start)
                .and_modify(|b| b.absorb(*stats))
                .or_insert(*stats);
        }
    }
}

/// Counters indexed by a dense id (a switch, a directed link, a fixed
/// column), grown on first touch and named only when rendered: a
/// producer that counts per id bumps a `Vec` slot, never a name.
#[derive(Clone, Debug, Default)]
pub struct CounterColumn(Vec<u64>);

impl CounterColumn {
    /// Adds `by` to entry `i`.
    #[inline]
    pub fn add(&mut self, i: usize, by: u64) {
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += by;
    }

    /// Adds every non-zero entry `i` to `out` as the counter `name(i)`.
    pub fn render_into(&self, out: &mut MetricsRegistry, name: impl Fn(usize) -> String) {
        for (i, &v) in self.0.iter().enumerate().filter(|&(_, &v)| v != 0) {
            out.inc(&name(i), v);
        }
    }
}

/// [`TimeHistogram`]s indexed by a dense id, grown on first touch and
/// named only when rendered.
#[derive(Clone, Debug, Default)]
pub struct HistogramColumn(Vec<TimeHistogram>);

impl HistogramColumn {
    /// Records `value` at sim time `t_ns` into histogram `i`.
    #[inline]
    pub fn observe(&mut self, i: usize, t_ns: u64, value: u64) {
        if i >= self.0.len() {
            self.0.resize_with(i + 1, TimeHistogram::new);
        }
        self.0[i].observe(t_ns, value);
    }

    /// Adds every histogram `i` holding a sample to `out` as `name(i)`.
    pub fn render_into(&self, out: &mut MetricsRegistry, name: impl Fn(usize) -> String) {
        for (i, h) in self.0.iter().enumerate().filter(|(_, h)| h.count() != 0) {
            out.add_histogram(&name(i), h);
        }
    }
}

/// Named counters, gauges, and sim-time histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, TimeHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `by` to the counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Reads a counter (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Folds `h` into the histogram `name` (bucket-wise, see
    /// [`TimeHistogram::merge`]), or stores a copy of `h` under `name`
    /// if there is none yet.
    pub fn add_histogram(&mut self, name: &str, h: &TimeHistogram) {
        match self.histograms.get_mut(name) {
            Some(mine) => mine.merge(h),
            None => {
                self.histograms.insert(name.to_string(), h.clone());
            }
        }
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&TimeHistogram> {
        self.histograms.get(name)
    }

    /// Whether the registry holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Total number of named metrics.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Folds `other` into `self`: counters add, gauges take `other`'s
    /// value (last write wins), histograms merge bucket-wise.
    ///
    /// Merging per-unit registries **in unit-index order** is the
    /// determinism contract: addition over `u64` is associative and the
    /// fixed fold order pins the gauge last-writer, so the aggregate is
    /// independent of which worker ran which unit.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &v) in &other.counters {
            self.inc(name, v);
        }
        for (name, &v) in &other.gauges {
            self.set_gauge(name, v);
        }
        for (name, h) in &other.histograms {
            self.add_histogram(name, h);
        }
    }

    /// Renders every metric as ndjson, one JSON object per line,
    /// ordered counters → gauges → histograms, each by name. The
    /// encoding is byte-stable.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"metric\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}"
            );
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"metric\":\"gauge\",\"name\":\"{name}\",\"value\":{}}}",
                fmt_f64(*v)
            );
        }
        for (name, h) in &self.histograms {
            let _ = write!(
                out,
                "{{\"metric\":\"histogram\",\"name\":\"{name}\",\"bucket_ns\":{BUCKET_NS},\"buckets\":["
            );
            for (i, (start, b)) in h.buckets().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"t\":{start},\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                    if i == 0 { "" } else { "," },
                    b.count,
                    b.sum,
                    b.min,
                    b.max
                );
            }
            out.push_str("]}\n");
        }
        out
    }
}

/// Formats a gauge value deterministically: Rust's shortest round-trip
/// float formatting, with non-finite values mapped to `null` (JSON has
/// no NaN/Inf literals).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut m = MetricsRegistry::new();
        assert!(m.is_empty());
        m.inc("a", 2);
        m.inc("a", 3);
        m.set_gauge("g", 0.5);
        m.set_gauge("g", 0.25);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g"), Some(0.25));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn histogram_buckets_by_sim_time() {
        let mut h = TimeHistogram::new();
        h.observe(0, 10);
        h.observe(BUCKET_NS - 1, 30);
        h.observe(BUCKET_NS, 7);
        let buckets: Vec<_> = h.buckets().map(|(t, b)| (t, *b)).collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].0, 0);
        assert_eq!(buckets[0].1.count, 2);
        assert_eq!(buckets[0].1.sum, 40);
        assert_eq!(buckets[0].1.min, 10);
        assert_eq!(buckets[0].1.max, 30);
        assert_eq!(buckets[1].0, BUCKET_NS);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn merge_is_order_sensitive_only_for_gauges() {
        let series = |t_ns, value| {
            let mut h = TimeHistogram::new();
            h.observe(t_ns, value);
            h
        };
        let mut a = MetricsRegistry::new();
        a.inc("n", 1);
        a.add_histogram("h", &series(50, 5));
        a.set_gauge("g", 1.0);
        let mut b = MetricsRegistry::new();
        b.inc("n", 2);
        b.add_histogram("h", &series(60, 7));
        b.set_gauge("g", 2.0);

        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.counter("n"), 3);
        assert_eq!(ab.gauge("g"), Some(2.0));
        assert_eq!(ab.histogram("h").unwrap().count(), 2);

        // Counters and histograms commute; the fixed unit-index fold
        // order is what pins the gauge winner.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba.counter("n"), ab.counter("n"));
        assert_eq!(
            ba.histogram("h").unwrap().count(),
            ab.histogram("h").unwrap().count()
        );
        assert_eq!(ba.gauge("g"), Some(1.0));
    }

    #[test]
    fn ndjson_is_name_ordered_and_stable() {
        let mut m = MetricsRegistry::new();
        m.inc("z.count", 1);
        m.inc("a.count", 2);
        m.set_gauge("mid", 0.5);
        let mut h = TimeHistogram::new();
        h.observe(150_000, 3);
        m.add_histogram("h", &h);
        let s = m.to_ndjson();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(
            lines,
            vec![
                "{\"metric\":\"counter\",\"name\":\"a.count\",\"value\":2}",
                "{\"metric\":\"counter\",\"name\":\"z.count\",\"value\":1}",
                "{\"metric\":\"gauge\",\"name\":\"mid\",\"value\":0.5}",
                "{\"metric\":\"histogram\",\"name\":\"h\",\"bucket_ns\":100000,\"buckets\":[{\"t\":100000,\"count\":1,\"sum\":3,\"min\":3,\"max\":3}]}",
            ]
        );
    }

    #[test]
    fn columns_render_only_what_they_saw() {
        let mut counts = CounterColumn::default();
        counts.add(3, 2);
        counts.add(1, 0);
        let mut hists = HistogramColumn::default();
        hists.observe(2, 150, 7);
        let mut m = MetricsRegistry::new();
        counts.render_into(&mut m, |i| format!("c{i}"));
        hists.render_into(&mut m, |i| format!("h{i}"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.counter("c3"), 2);
        assert_eq!(m.histogram("h2").map(TimeHistogram::count), Some(1));
    }
}
