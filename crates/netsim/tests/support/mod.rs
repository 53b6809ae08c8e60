//! Test oracles shared by the netsim integration tests.
//!
//! [`BinaryHeapScheduler`] is the reference event queue: a plain binary
//! min-heap ordered by `(time, seq)` — exactly the engine the simulator
//! ran on before the timing wheel, and the executable specification of
//! the ordering contract the wheel must reproduce pop for pop.
//! [`Queue`] puts both behind one interface so a test can drive them in
//! lockstep.

use quartz_netsim::sched::TimingWheel;
use quartz_netsim::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The operations the differential tests drive on either engine. Keys
/// come from the caller (a local counter in the tests), as the
/// simulator's do.
pub trait Queue<T> {
    /// Queues `item` at an explicit `(time, seq)` key.
    fn push_at_seq(&mut self, time: SimTime, seq: u64, item: T);
    /// Removes and returns the earliest `(time, seq)` event if its time
    /// is `<= bound`.
    fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, T)>;
    /// The earliest queued `(time, seq)` key, if any.
    fn peek_key(&mut self) -> Option<(SimTime, u64)>;
    /// Whether nothing is queued.
    fn is_empty(&self) -> bool;
    /// Removes and returns the earliest event, whatever its time.
    fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_before(SimTime::from_ns(u64::MAX))
    }
}

impl<T: Copy> Queue<T> for TimingWheel<T> {
    fn push_at_seq(&mut self, time: SimTime, seq: u64, item: T) {
        TimingWheel::push_at_seq(self, time, seq, item);
    }
    fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, T)> {
        TimingWheel::pop_before(self, bound)
    }
    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        TimingWheel::peek_key(self)
    }
    fn is_empty(&self) -> bool {
        TimingWheel::is_empty(self)
    }
}

/// The reference scheduler: a binary min-heap ordered by `(time, seq)`.
pub struct BinaryHeapScheduler<T> {
    heap: BinaryHeap<Reverse<HeapEv<T>>>,
}

struct HeapEv<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEv<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<T> Eq for HeapEv<T> {}
impl<T> PartialOrd for HeapEv<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEv<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<T> BinaryHeapScheduler<T> {
    /// An empty heap scheduler.
    pub fn new() -> Self {
        BinaryHeapScheduler {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> Queue<T> for BinaryHeapScheduler<T> {
    fn push_at_seq(&mut self, time: SimTime, seq: u64, item: T) {
        self.heap.push(Reverse(HeapEv { time, seq, item }));
    }
    fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, T)> {
        if self.heap.peek()?.0.time > bound {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| (e.time, e.item))
    }
    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.time, e.seq))
    }
    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}
