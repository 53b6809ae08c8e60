//! Event sinks: the [`Recorder`] trait and its three backends, and
//! [`Stamped`], which merges several producers' stamped streams into
//! one deterministic order.
//!
//! The simulator holds an `Option<Box<dyn Recorder>>` that defaults to
//! `None`; the disabled path is a single branch per emission site, so a
//! build that never attaches a recorder pays (measurably) nothing. The
//! trait requires `Send` so a recorder can ride inside a work unit on
//! the thread pool.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::Event;

/// A sink for [`Event`]s.
///
/// Implementations must be order-preserving and side-effect-free with
/// respect to the simulation: a recorder may never feed information
/// back into the run that produced the events.
pub trait Recorder: Send {
    /// Accepts one event. Called in simulation order.
    fn record(&mut self, ev: &Event);

    /// Flushes the sink and returns any buffered events.
    ///
    /// Streaming backends flush and return an empty vec; the in-memory
    /// backend hands its buffer back for timeline rendering.
    fn finish(self: Box<Self>) -> Vec<Event> {
        Vec::new()
    }
}

/// The default no-op sink. `record` is inlined away, so the cost of an
/// *attached-but-null* recorder is one virtual call per event and the
/// cost of no recorder at all is one `Option` branch.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn record(&mut self, _ev: &Event) {}
}

/// Buffers every event in memory, in arrival order.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Vec<Event>,
}

impl MemoryRecorder {
    /// An empty buffer.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    /// The events recorded so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Recorder for MemoryRecorder {
    fn record(&mut self, ev: &Event) {
        self.events.push(ev.clone());
    }

    fn finish(self: Box<Self>) -> Vec<Event> {
        self.events
    }
}

/// Items stamped with the `(time, key)` of the event that produced
/// them, gathered from several producers and drained in stamp order.
///
/// When each producer pushes in stamp order and no two producers share
/// a stamp, draining their appended stashes is the k-way merge of
/// their streams (equal stamps keep push order), whatever the order
/// the stashes were appended in. The buffers are reused: a stash that
/// has reached its working size refills and drains without allocating.
#[derive(Debug)]
pub struct Stamped<T> {
    items: Vec<(u64, u64, T)>,
    order: Vec<u32>,
}

impl<T> Default for Stamped<T> {
    fn default() -> Stamped<T> {
        Stamped {
            items: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl<T> Stamped<T> {
    /// Adds `item` under the stamp `(t_ns, key)`.
    #[inline]
    pub fn push(&mut self, t_ns: u64, key: u64, item: T) {
        self.items.push((t_ns, key, item));
    }

    /// Moves every item of `other` to the end of this stash.
    pub fn append(&mut self, other: &mut Stamped<T>) {
        self.items.append(&mut other.items);
    }

    /// Hands every item to `f` in `(time, key)` order, equal stamps in
    /// push order, and empties the stash.
    pub fn drain_in_order(&mut self, mut f: impl FnMut(&T)) {
        debug_assert!(self.items.len() <= u32::MAX as usize, "positions fit u32");
        let items = &self.items;
        self.order.clear();
        self.order.extend(0..items.len() as u32);
        let stamp = |&i: &u32| (items[i as usize].0, items[i as usize].1, i);
        self.order.sort_unstable_by_key(stamp);
        for &i in &self.order {
            f(&items[i as usize].2);
        }
        self.items.clear();
    }

    /// How many items the stash holds room for without reallocating.
    pub fn capacity(&self) -> usize {
        self.items.capacity()
    }
}

/// Streams events as newline-delimited JSON to any writer.
///
/// The encoding is byte-stable (fixed key order, integer/bool values),
/// so two runs that record the same events produce byte-identical
/// output — the property the trace-determinism tests assert across
/// `--jobs` counts.
///
/// I/O errors are latched rather than panicking mid-simulation; check
/// [`NdjsonRecorder::io_error`] (or the flush in `finish`) afterwards.
#[derive(Debug)]
pub struct NdjsonRecorder<W: Write + Send> {
    out: W,
    written: u64,
    io_error: Option<io::ErrorKind>,
}

impl<W: Write + Send> NdjsonRecorder<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> NdjsonRecorder<W> {
        NdjsonRecorder {
            out,
            written: 0,
            io_error: None,
        }
    }

    /// Number of event lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first I/O error encountered, if any.
    pub fn io_error(&self) -> Option<io::ErrorKind> {
        self.io_error
    }

    /// Unwraps the inner writer (without flushing).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl NdjsonRecorder<BufWriter<File>> {
    /// Opens (truncates) `path` for buffered ndjson output.
    pub fn create(path: &Path) -> io::Result<NdjsonRecorder<BufWriter<File>>> {
        Ok(NdjsonRecorder::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> Recorder for NdjsonRecorder<W> {
    fn record(&mut self, ev: &Event) {
        if self.io_error.is_some() {
            return;
        }
        let line = ev.ndjson_line();
        match self.out.write_all(line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.io_error = Some(e.kind()),
        }
    }

    fn finish(mut self: Box<Self>) -> Vec<Event> {
        let _ = self.out.flush();
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropReason;

    fn sample() -> [Event; 2] {
        [
            Event::Gen {
                t_ns: 1,
                flow: 2,
                size_bytes: 64,
                response: true,
            },
            Event::Drop {
                t_ns: 5,
                node: 0,
                flow: 2,
                reason: DropReason::NoRoute,
            },
        ]
    }

    #[test]
    fn stamped_stashes_drain_as_their_merge() {
        let (mut a, mut b, mut all) = (Stamped::default(), Stamped::default(), Stamped::default());
        for (t, key, x) in [(1, 5, 'a'), (1, 5, 'b'), (3, 0, 'c')] {
            a.push(t, key, x);
        }
        for (t, key, x) in [(1, 2, 'd'), (2, 9, 'e'), (3, 1, 'f')] {
            b.push(t, key, x);
        }
        all.append(&mut b);
        all.append(&mut a);
        let mut out = String::new();
        all.drain_in_order(|&x| out.push(x));
        assert_eq!(out, "dabecf");
        all.drain_in_order(|_| unreachable!("drained"));
    }

    #[test]
    fn memory_recorder_round_trips() {
        let mut rec = Box::new(MemoryRecorder::new());
        for ev in &sample() {
            rec.record(ev);
        }
        assert_eq!(rec.len(), 2);
        assert!(!rec.is_empty());
        assert_eq!(rec.events()[1].tag(), "drop");
        let events = (rec as Box<dyn Recorder>).finish();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn ndjson_recorder_streams_lines() {
        let mut rec = NdjsonRecorder::new(Vec::new());
        for ev in &sample() {
            rec.record(ev);
        }
        assert_eq!(rec.written(), 2);
        assert_eq!(rec.io_error(), None);
        let bytes = rec.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text, crate::event::to_ndjson(&sample()));
    }

    #[test]
    fn null_recorder_buffers_nothing() {
        let mut rec = NullRecorder;
        for ev in &sample() {
            rec.record(ev);
        }
        assert!((Box::new(rec) as Box<dyn Recorder>).finish().is_empty());
    }
}
