//! Event sinks: the [`Recorder`] trait and its in-memory backend, and
//! [`Stamped`], which merges several producers' stamped streams into
//! one deterministic order.
//!
//! The simulator holds an `Option<Box<dyn Recorder>>` that defaults to
//! `None`; the disabled path is a single branch per emission site, so a
//! build that never attaches a recorder pays (measurably) nothing. The
//! trait requires `Send` so a recorder can ride inside a work unit on
//! the thread pool. A recorded stream becomes ndjson through
//! [`crate::event::to_ndjson`].

use crate::event::Event;

/// A sink for [`Event`]s.
///
/// Implementations must be order-preserving and side-effect-free with
/// respect to the simulation: a recorder may never feed information
/// back into the run that produced the events.
pub trait Recorder: Send {
    /// Accepts one event. Called in simulation order.
    fn record(&mut self, ev: &Event);

    /// Ends recording and returns any buffered events.
    ///
    /// A sink that keeps no events returns an empty vec (the default);
    /// [`MemoryRecorder`] hands its buffer back for rendering.
    fn finish(self: Box<Self>) -> Vec<Event> {
        Vec::new()
    }
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
        let events = (rec as Box<dyn Recorder>).finish();
        assert_eq!(events, sample());
    }
}
