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

/// The operations the differential tests drive on either engine.
pub trait Queue<T> {
    /// Queues `item` at `time` with the next sequence number.
    fn push(&mut self, time: SimTime, item: T) {
        let seq = self.reserve_seq();
        self.push_at_seq(time, seq, item);
    }
    /// Draws the next sequence number without queueing anything.
    fn reserve_seq(&mut self) -> u64;
    /// Queues `item` at an explicit `(time, seq)` key.
    fn push_at_seq(&mut self, time: SimTime, seq: u64, item: T);
    /// Removes and returns the earliest `(time, seq)` event.
    fn pop(&mut self) -> Option<(SimTime, T)>;
    /// The earliest queued `(time, seq)` key, if any.
    fn peek_key(&mut self) -> Option<(SimTime, u64)>;
    /// Whether nothing is queued.
    fn is_empty(&self) -> bool;
}

impl<T> Queue<T> for TimingWheel<T> {
    fn reserve_seq(&mut self) -> u64 {
        TimingWheel::reserve_seq(self)
    }
    fn push_at_seq(&mut self, time: SimTime, seq: u64, item: T) {
        TimingWheel::push_at_seq(self, time, seq, item);
    }
    fn pop(&mut self) -> Option<(SimTime, T)> {
        TimingWheel::pop(self)
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
    seq: u64,
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
            seq: 0,
        }
    }
}

impl<T> Queue<T> for BinaryHeapScheduler<T> {
    fn reserve_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
    fn push_at_seq(&mut self, time: SimTime, seq: u64, item: T) {
        self.heap.push(Reverse(HeapEv { time, seq, item }));
    }
    fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.item))
    }
    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.time, e.seq))
    }
    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}
