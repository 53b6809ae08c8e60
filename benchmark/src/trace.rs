//! In-memory spans around calls into the library, and a tallying event
//! recorder.
//!
//! Spans are recorded only in a traced run. Each one carries its name,
//! start and end on the process monotonic clock, the span that enclosed
//! it, and the repetition it belongs to; they are kept in memory and
//! written out as ndjson when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use quartz_bench::timing::monotonic_ns;
use quartz_obs::{Event, Recorder};

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// 1-based id, unique within the process.
    pub id: usize,
    /// Id of the enclosing span, 0 for a root.
    pub parent: usize,
    /// Repetition the span belongs to (shared by every span of one run
    /// of the workload).
    pub rep: u32,
    /// Layer-qualified name, e.g. `topology.routes`.
    pub name: &'static str,
    /// Start, ns on the process monotonic clock.
    pub start_ns: u64,
    /// End, ns on the process monotonic clock.
    pub end_ns: u64,
}

/// Span collector. When off, [`Tracer::span`] calls straight through
/// and reads no clock.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A collector that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Starts the next repetition: later spans carry its id.
    pub fn next_rep(&mut self) -> u32 {
        self.rep += 1;
        self.rep
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            rep: self.rep,
            name,
            start_ns: monotonic_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let t = monotonic_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id - 1].end_ns = t;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Total duration per span name within repetition `rep`, ns.
    pub fn totals(&self, rep: u32) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.rep == rep) {
            *out.entry(s.name).or_insert(0) += s.end_ns.saturating_sub(s.start_ns);
        }
        out
    }

    /// Every span as one JSON object per line, with the span's self
    /// time (its duration minus what its child spans cover).
    pub fn to_ndjson(&self) -> String {
        let mut child_ns = vec![0_u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent] += s.end_ns.saturating_sub(s.start_ns);
        }
        let mut out = String::new();
        for s in &self.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"rep\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.parent,
                s.rep,
                s.name,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[s.id])
            );
        }
        out
    }
}

/// The packet-lifecycle event kinds the tally counts, in
/// [`Tally::counts`] order; metric `netsim.ev.<kind>`.
pub const EV_KINDS: [&str; 6] = ["gen", "forward", "enqueue", "transmit", "deliver", "drop"];

/// Shared result cell of a [`Tally`].
pub type TallyCounts = Arc<Mutex<[u64; EV_KINDS.len()]>>;

/// A recorder that only counts packet-lifecycle events by kind. It
/// publishes its counts into a shared cell when finished.
#[derive(Debug)]
pub struct Tally {
    counts: [u64; EV_KINDS.len()],
    out: TallyCounts,
}

impl Tally {
    /// A tally that publishes into `out` on `finish`.
    pub fn new(out: TallyCounts) -> Tally {
        Tally {
            counts: [0; EV_KINDS.len()],
            out,
        }
    }
}

impl Recorder for Tally {
    fn record(&mut self, ev: &Event) {
        let kind = match ev {
            Event::Gen { .. } => 0,
            Event::Forward { .. } => 1,
            Event::Enqueue { .. } => 2,
            Event::Transmit { .. } => 3,
            Event::Deliver { .. } => 4,
            Event::Drop { .. } => 5,
            _ => return,
        };
        self.counts[kind] += 1;
    }

    fn finish(self: Box<Self>) -> Vec<Event> {
        *self.out.lock().expect("tally cell is never poisoned") = self.counts;
        Vec::new()
    }
}
