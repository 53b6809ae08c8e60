//! The event scheduler: a two-level timing wheel over one slab.
//!
//! The discrete-event loop in [`crate::sim`] is bounded by how fast it
//! can push and pop timestamped events. A `BinaryHeap` gives `O(log n)`
//! per operation and — worse for a packet simulator — every sift moves
//! the full event payload several times. This module replaces it with a
//! hashed and hierarchical **timing wheel** ([`TimingWheel`], after
//! Varghese & Lauck, SOSP '87):
//!
//! * **one slab per wheel**: every queued event is a `Node { time, seq,
//!   item, next }` in a single `Vec`, and freed nodes recycle through a
//!   LIFO free list threaded through `next`, so the slab never grows
//!   past the peak queued count and the most recently freed (still
//!   cache-warm) node is reused first;
//! * **level 1**: `NUM_BUCKETS` list heads of `GRANULARITY` ns each,
//!   covering the cursor's current *revolution* (`NUM_BUCKETS ×
//!   GRANULARITY` ≈ 32.8 µs); a push is an O(1) link at a list head;
//! * **level 2**: `NUM_BUCKETS` list heads, one per revolution, for the
//!   next `NUM_BUCKETS − 1` revolutions (a ≈ 16.8 ms horizon). When the
//!   cursor enters a revolution its level-2 list *cascades* into level
//!   1: nodes are relinked, never copied;
//! * an **overflow heap** of `(time, node id)` for events past level 2
//!   (scheduled faults, long timers), migrated into the levels as the
//!   cursor's revolution approaches theirs;
//! * a **sorted cursor bucket**: when the cursor lands on a non-empty
//!   level-1 bucket, its list is walked into the `current` vector (its
//!   nodes return to the free list) and sorted descending by
//!   `(time, seq)` once, after which every pop and peek is O(1) off the
//!   tail. Buckets routinely hold several events (40 % load ⇒ ~2–3 per
//!   64 ns bucket, Poisson bursts far more). Only the uncommon push
//!   landing on (or before) the cursor bucket pays an ordered insert.
//!
//! ## Ordering contract
//!
//! The wheel drains events in exactly `(time, seq)` order, where `seq`
//! is the caller's key — the simulator's content-derived event key
//! (DESIGN.md §13); the wheel assigns none of its own. This is the
//! tie-break rule the simulator's determinism contract (DESIGN.md §6)
//! is built on, and exactly the order a binary min-heap keyed by
//! `(time, seq)` pops in — the reference kept as a test oracle in
//! `tests/support/` and drained against the wheel by
//! `tests/scheduler_differential.rs`. The wheel achieves that order
//! because
//!
//! * every queued event sits in a strictly later slot than the cursor's
//!   (level 1), a strictly later revolution (level 2) or a later one
//!   still (the overflow heap), so the cursor bucket holds the globally
//!   earliest events, and
//! * the cursor bucket is sorted on the full `(time, seq)` key — exact
//!   even when a bucket mixes timestamps (events pushed for the past
//!   are clamped into the cursor bucket and still sort first).
//!
//! Pushing an event earlier than the last popped time is allowed (it
//! pops next, same as the heap); pushing while mid-drain of the same
//! timestamp is the common case (a packet forwarded at `now`) and
//! ordered correctly by `seq`.

// lint:panic-free — the event engine runs inside every simulated
// nanosecond; a panic here tears down mid-run with arena slots live.
// Potential panic sites below either return Option or state their
// bound with a debug_assert.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// List heads per level (power of two; index masks instead of `%`).
pub const NUM_BUCKETS: usize = 512;
/// log2 of the nanoseconds each level-1 bucket spans.
pub const GRANULARITY_LOG2: u32 = 6;
/// Nanoseconds per level-1 bucket.
pub const GRANULARITY: u64 = 1 << GRANULARITY_LOG2;
/// log2 of [`NUM_BUCKETS`]: level-1 slots per revolution.
const LEVEL_LOG2: u32 = NUM_BUCKETS.trailing_zeros();
/// log2 of the nanoseconds one revolution (one level-2 bucket) spans.
const REV_LOG2: u32 = GRANULARITY_LOG2 + LEVEL_LOG2;
const BUCKET_MASK: u64 = (NUM_BUCKETS as u64) - 1;
/// End of a list (and of the free list).
const NIL: u32 = u32::MAX;

/// One queued event in the slab; `next` links it into a level-1 or
/// level-2 list, or into the free list.
#[derive(Clone, Copy, Debug)]
struct Node<T> {
    time: SimTime,
    seq: u64,
    item: T,
    next: u32,
}

/// The timing-wheel scheduler (see the module docs for geometry and the
/// ordering argument). Payloads are `Copy`: a node is relinked or
/// copied out, never dropped in place.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// Every event on level 1, level 2 or the overflow heap.
    slab: Vec<Node<T>>,
    /// Head of the free list of slab nodes, reused LIFO.
    free: u32,
    /// Level 1: head of the list of slot `s` at `s & BUCKET_MASK`, for
    /// every slot `s` of the cursor's revolution later than the cursor.
    near: [u32; NUM_BUCKETS],
    /// Level 2: head of the list of revolution `r` at `r & BUCKET_MASK`,
    /// for every `r` in `(rev, rev + NUM_BUCKETS)`, `rev` the cursor's.
    coarse: [u32; NUM_BUCKETS],
    /// The cursor bucket's entries, sorted **descending** by
    /// `(time, seq)`: the global minimum is the last element, so pop
    /// and peek are O(1) off the tail.
    current: Vec<(SimTime, u64, T)>,
    /// Events of revolution `>= rev + NUM_BUCKETS`, by time.
    far: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Absolute level-1 slot (`time >> GRANULARITY_LOG2`) of the bucket
    /// the drain cursor is on. Only ever advances.
    cursor: u64,
    /// Events on level 1 and on level 2.
    near_len: usize,
    coarse_len: usize,
    /// Total queued events.
    len: usize,
}

impl<T: Copy> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> TimingWheel<T> {
    /// An empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimingWheel {
            slab: Vec::new(),
            free: NIL,
            near: [NIL; NUM_BUCKETS],
            coarse: [NIL; NUM_BUCKETS],
            current: Vec::new(),
            far: BinaryHeap::new(),
            cursor: 0,
            near_len: 0,
            coarse_len: 0,
            len: 0,
        }
    }

    /// Stores an event in a slab node (the most recently freed one
    /// first) and returns its id.
    fn alloc(&mut self, time: SimTime, seq: u64, item: T) -> u32 {
        let node = Node {
            time,
            seq,
            item,
            next: NIL,
        };
        let id = self.free;
        if id == NIL {
            debug_assert!(self.slab.len() < NIL as usize, "node ids fit u32");
            self.slab.push(node);
            return (self.slab.len() - 1) as u32;
        }
        debug_assert!((id as usize) < self.slab.len(), "free list holds slab ids");
        self.free = self.slab[id as usize].next;
        self.slab[id as usize] = node;
        id
    }

    /// Links node `id`, due in level-1 slot `slot`, at its list head.
    fn link_near(&mut self, id: u32, slot: u64) {
        debug_assert!((id as usize) < self.slab.len(), "linked nodes are live");
        let head = &mut self.near[(slot & BUCKET_MASK) as usize];
        self.slab[id as usize].next = *head;
        *head = id;
        self.near_len += 1;
    }

    /// Links node `id`, due in revolution `rev`, at its level-2 head.
    fn link_coarse(&mut self, id: u32, rev: u64) {
        debug_assert!((id as usize) < self.slab.len(), "linked nodes are live");
        let head = &mut self.coarse[(rev & BUCKET_MASK) as usize];
        self.slab[id as usize].next = *head;
        *head = id;
        self.coarse_len += 1;
    }

    /// Moves the cursor to the first slot of revolution `rev` (later
    /// than the cursor's; level 1 is empty): cascades `rev`'s level-2
    /// list into level 1, then pulls every overflow event now within
    /// level 2's horizon into the levels.
    fn enter(&mut self, rev: u64) {
        debug_assert!(rev > self.cursor >> LEVEL_LOG2 && self.near_len == 0);
        self.cursor = rev << LEVEL_LOG2;
        let mut id = std::mem::replace(&mut self.coarse[(rev & BUCKET_MASK) as usize], NIL);
        while id != NIL {
            debug_assert!((id as usize) < self.slab.len(), "listed nodes are live");
            let Node { time, next, .. } = self.slab[id as usize];
            self.coarse_len -= 1;
            self.link_near(id, time.wheel_slot(GRANULARITY_LOG2));
            id = next;
        }
        while let Some(&Reverse((time, id))) = self.far.peek() {
            let r = time.wheel_slot(REV_LOG2);
            if r >= rev + NUM_BUCKETS as u64 {
                break;
            }
            self.far.pop();
            if r == rev {
                self.link_near(id, time.wheel_slot(GRANULARITY_LOG2));
            } else {
                self.link_coarse(id, r);
            }
        }
    }

    /// Walks level-1 bucket `idx` (the cursor's slot) into `current`,
    /// puts its whole list on the free list, and sorts `current`
    /// descending for O(1) pops.
    fn load(&mut self, idx: usize) {
        debug_assert!(idx < NUM_BUCKETS && self.current.is_empty());
        let head = std::mem::replace(&mut self.near[idx], NIL);
        let (mut id, mut last) = (head, NIL);
        while id != NIL {
            debug_assert!((id as usize) < self.slab.len(), "listed nodes are live");
            let node = self.slab[id as usize];
            self.current.push((node.time, node.seq, node.item));
            (last, id) = (id, node.next);
        }
        if last != NIL {
            self.slab[last as usize].next = self.free;
            self.free = head;
        }
        self.near_len -= self.current.len();
        self.current.sort_unstable_by_key(|e| Reverse((e.0, e.1)));
    }

    /// Makes `current` hold the earliest queued events: advances the
    /// cursor to the next non-empty level-1 bucket, entering the next
    /// non-empty revolution (or the overflow heap's earliest one) when
    /// level 1 is spent, and loads that bucket. Returns `false` when
    /// nothing is queued.
    fn seek(&mut self) -> bool {
        if !self.current.is_empty() {
            return true;
        }
        if self.len == 0 {
            return false;
        }
        loop {
            if self.near_len > 0 {
                // Level 1 holds only slots after the cursor's, in its
                // revolution: the first non-empty head is the next one.
                let from = (self.cursor & BUCKET_MASK) as usize + 1;
                let Some(off) = self.near[from..].iter().position(|&h| h != NIL) else {
                    // Unreachable: near_len > 0 means a list is linked.
                    debug_assert!(false, "near_len {} with level 1 empty", self.near_len);
                    return false;
                };
                self.cursor += off as u64 + 1;
                self.load(from + off);
                return true;
            }
            let rev = self.cursor >> LEVEL_LOG2;
            let next = if self.coarse_len > 0 {
                // The first non-empty level-2 head after the cursor's
                // revolution.
                (1..NUM_BUCKETS as u64)
                    .map(|d| rev + d)
                    .find(|r| self.coarse[(r & BUCKET_MASK) as usize] != NIL)
            } else {
                // Both levels are empty: jump to the overflow heap's
                // earliest revolution.
                self.far
                    .peek()
                    .map(|&Reverse((time, _))| time.wheel_slot(REV_LOG2))
            };
            let Some(next) = next else {
                // Unreachable: len > 0 with level 1 empty means level 2
                // or the overflow heap holds an event.
                debug_assert!(false, "len {} with every level empty", self.len);
                return false;
            };
            self.enter(next);
            if self.near[0] != NIL {
                self.load(0);
                return true;
            }
        }
    }
}

/// The caller queues every event under its own key
/// ([`TimingWheel::push_at_seq`]) and drains up to a time bound
/// ([`TimingWheel::pop_before`]).
impl<T: Copy> TimingWheel<T> {
    /// Queues `item` at `(time, seq)`. `seq` is the caller's key and
    /// breaks ties between equal times; keys must be unique.
    // Always inlined, so that each call site writes `item` straight
    // into its node. Called out of line, a 16-byte event arrived
    // through the stack, and reloading it stalled on the caller's
    // narrower stores: ~8 % of `core_build_5k`'s profile samples.
    #[inline(always)]
    pub fn push_at_seq(&mut self, time: SimTime, seq: u64, item: T) {
        self.len += 1;
        let slot = time.wheel_slot(GRANULARITY_LOG2);
        if slot <= self.cursor {
            // Into (or before — allowed, rare) the cursor bucket:
            // ordered insert keeps `current` sorted descending.
            let key = (time, seq);
            let pos = self.current.partition_point(|e| (e.0, e.1) > key);
            self.current.insert(pos, (time, seq, item));
            return;
        }
        let id = self.alloc(time, seq, item);
        let rev = slot >> LEVEL_LOG2;
        let ahead = rev - (self.cursor >> LEVEL_LOG2);
        if ahead == 0 {
            self.link_near(id, slot);
        } else if ahead < NUM_BUCKETS as u64 {
            self.link_coarse(id, rev);
        } else {
            self.far.push(Reverse((time, id)));
        }
    }

    /// Removes and returns the earliest `(time, seq)` event if its time
    /// is `<= bound`; otherwise the wheel is untouched.
    // lint:hot
    pub fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, T)> {
        if !self.seek() {
            return None;
        }
        if self.current.last()?.0 > bound {
            return None;
        }
        let (time, _, item) = self.current.pop()?;
        self.len -= 1;
        Some((time, item))
    }

    /// The earliest queued `(time, seq)` key, if any. Takes `&mut self`
    /// because the wheel may advance its cursor (not observable).
    // lint:hot
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if !self.seek() {
            return None;
        }
        let e = self.current.last()?;
        Some((e.0, e.1))
    }

    /// The earliest queued time, if any.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(t, _)| t)
    }

    /// Queued event count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the earliest event, whatever its time.
    fn pop<T: Copy>(w: &mut TimingWheel<T>) -> Option<(SimTime, T)> {
        w.pop_before(SimTime::from_ns(u64::MAX))
    }

    #[test]
    fn equal_timestamps_drain_in_key_order() {
        let mut w = TimingWheel::new();
        for i in (0..100u32).rev() {
            w.push_at_seq(SimTime::from_ns(42), u64::from(i), i);
        }
        for i in 0..100u32 {
            assert_eq!(pop(&mut w), Some((SimTime::from_ns(42), i)));
        }
        assert_eq!(pop(&mut w), None);
    }

    #[test]
    fn far_future_events_migrate_in_order() {
        let mut w = TimingWheel::new();
        // Levels 1 and 2 (the first 33 µs, then up to ~16.8 ms) and the
        // overflow heap beyond.
        w.push_at_seq(SimTime::from_ms(30), 0, 0u32);
        w.push_at_seq(SimTime::from_ms(1), 1, 1);
        w.push_at_seq(SimTime::from_ms(20), 2, 2);
        w.push_at_seq(SimTime::from_ms(1), 3, 3);
        w.push_at_seq(SimTime::from_us(20), 4, 4);
        assert_eq!(w.next_time(), Some(SimTime::from_us(20)));
        assert_eq!(pop(&mut w), Some((SimTime::from_us(20), 4)));
        assert_eq!(pop(&mut w), Some((SimTime::from_ms(1), 1)));
        assert_eq!(pop(&mut w), Some((SimTime::from_ms(1), 3)));
        assert_eq!(pop(&mut w), Some((SimTime::from_ms(20), 2)));
        assert_eq!(pop(&mut w), Some((SimTime::from_ms(30), 0)));
        assert_eq!(pop(&mut w), None);
    }

    #[test]
    fn events_on_every_level_edge_drain_in_order() {
        let rev = 1u64 << REV_LOG2;
        let edges = [
            0,
            GRANULARITY - 1,
            GRANULARITY,
            rev - 1,
            rev,
            2 * rev - 1,
            (NUM_BUCKETS as u64 - 1) * rev,
            NUM_BUCKETS as u64 * rev - 1,
            NUM_BUCKETS as u64 * rev,
            (NUM_BUCKETS as u64 + 1) * rev - 1,
            (NUM_BUCKETS as u64 + 1) * rev,
        ];
        // Alone, each edge is found wherever it was filed.
        for &t in &edges {
            let mut w = TimingWheel::new();
            w.push_at_seq(SimTime::from_ns(t), 0, t);
            assert_eq!(pop(&mut w), Some((SimTime::from_ns(t), t)), "edge {t}");
        }
        // Together, pushed latest first, they drain in time order.
        let mut w = TimingWheel::new();
        for (i, &t) in edges.iter().enumerate().rev() {
            w.push_at_seq(SimTime::from_ns(t), i as u64, t);
        }
        for &t in &edges {
            assert_eq!(pop(&mut w), Some((SimTime::from_ns(t), t)));
        }
        assert!(w.is_empty());
    }

    #[test]
    fn pop_before_leaves_later_events_queued() {
        let mut w = TimingWheel::new();
        w.push_at_seq(SimTime::from_ns(10), 0, 'a');
        w.push_at_seq(SimTime::from_ns(2_000_000), 1, 'b');
        assert_eq!(
            w.pop_before(SimTime::from_ns(100)),
            Some((SimTime::from_ns(10), 'a'))
        );
        assert_eq!(w.pop_before(SimTime::from_ns(100)), None);
        assert_eq!(w.len(), 1);
        assert_eq!(
            w.pop_before(SimTime::from_ms(5)),
            Some((SimTime::from_ns(2_000_000), 'b'))
        );
        assert!(w.is_empty());
    }

    #[test]
    fn slab_never_grows_past_the_peak_queued_count() {
        let mut w = TimingWheel::new();
        let (mut seq, mut peak) = (0u64, 0usize);
        for round in 0..10u64 {
            for i in 0..50u32 {
                // Each round spreads over level 1, level 2 and the
                // overflow heap, pushed half ahead of the drain.
                seq += 1;
                let t = SimTime::from_ms(round * 40) + u64::from(i) * 700_000;
                w.push_at_seq(t, seq, i);
                peak = peak.max(w.len());
                if i % 2 == 1 {
                    pop(&mut w);
                }
            }
            while pop(&mut w).is_some() {}
        }
        assert!(w.slab.len() <= peak, "slab grew to {}", w.slab.len());
        // Every node is back on the free list.
        let (mut free, mut id) = (0, w.free);
        while id != NIL {
            free += 1;
            id = w.slab[id as usize].next;
        }
        assert_eq!(free, w.slab.len());
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut w: TimingWheel<u8> = TimingWheel::new();
        assert!(w.is_empty());
        w.push_at_seq(SimTime::from_ns(5), 0, 1);
        w.push_at_seq(SimTime::from_ms(5), 1, 2);
        w.push_at_seq(SimTime::from_ms(50), 2, 3);
        assert_eq!(w.len(), 3);
        pop(&mut w);
        assert_eq!(w.len(), 2);
        pop(&mut w);
        pop(&mut w);
        assert!(w.is_empty());
        assert_eq!(w.next_time(), None);
    }
}
