//! The event scheduler: a timing wheel.
//!
//! The discrete-event loop in [`crate::sim`] is bounded by how fast it
//! can push and pop timestamped events. A `BinaryHeap` gives `O(log n)`
//! per operation and — worse for a packet simulator — every sift moves
//! the full event payload several times. This module replaces it with a
//! calendar-queue-style **timing wheel** ([`TimingWheel`]):
//!
//! * a **near wheel** of `NUM_BUCKETS` buckets, each covering
//!   `GRANULARITY` ns of simulated time, holding every event within the
//!   sliding horizon `[cursor, cursor + NUM_BUCKETS × GRANULARITY)`;
//! * an **overflow heap** for far-future events (retransmission timers,
//!   scheduled faults), migrated into the wheel as the cursor slides
//!   over their slot;
//! * near buckets store `(time, seq, item)` **inline**, so bucket
//!   maintenance moves contiguous tuples instead of chasing slot ids —
//!   cheap now that [`crate::sim`] events carry a 4-byte packet id
//!   rather than a by-value packet. Only overflow-heap payloads live in
//!   a recycled side arena (the heap orders by key and must not move
//!   `T` through sifts);
//! * a **sorted cursor bucket**: when the cursor lands on a non-empty
//!   bucket its entries are sorted descending by `(time, seq)` once,
//!   after which every pop and peek is O(1) off the tail. Buckets
//!   routinely hold several events (40 % load ⇒ ~2–3 per 64 ns bucket,
//!   Poisson bursts far more), so the per-pop min-scan this replaces
//!   was quadratic exactly when the simulator was busiest. Pushes into
//!   future buckets stay O(1) appends; only the uncommon push landing
//!   on (or before) the cursor bucket pays an ordered insert.
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
//! * every bucket within the horizon maps to exactly one absolute slot,
//!   so the first non-empty bucket at the cursor holds the globally
//!   earliest events, and
//! * the pop scans that bucket for the `(time, seq)` minimum — exact
//!   even when a bucket mixes timestamps (events pushed for the past
//!   are clamped into the cursor bucket and still win the scan).
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

/// Near-wheel bucket count (power of two; index masks instead of `%`).
pub const NUM_BUCKETS: usize = 512;
/// log2 of the nanoseconds each bucket spans.
pub const GRANULARITY_LOG2: u32 = 6;
/// Nanoseconds per bucket.
pub const GRANULARITY: u64 = 1 << GRANULARITY_LOG2;
const BUCKET_MASK: u64 = (NUM_BUCKETS as u64) - 1;

/// The timing-wheel scheduler (see the module docs for geometry and the
/// ordering argument).
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// Near-wheel buckets of `(time, seq, item)` entries; bucket `i`
    /// holds exactly the events of absolute slot `s` with
    /// `s & BUCKET_MASK == i` for the unique `s` in
    /// `(cursor, cursor + NUM_BUCKETS)`. The cursor's own slot lives in
    /// `current`, so its bucket is empty outside [`TimingWheel::seek`].
    buckets: Vec<Vec<(SimTime, u64, T)>>,
    /// The cursor bucket's entries, sorted **descending** by
    /// `(time, seq)`: the global minimum is the last element (every
    /// other near entry sits in a strictly later slot, and far entries
    /// later still), so pop and peek are O(1) off the tail.
    current: Vec<(SimTime, u64, T)>,
    /// Events at `slot >= cursor + NUM_BUCKETS`, ordered by
    /// `(time, seq)` for exact migration; payloads sit in `far_slots`.
    far: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Payload arena for overflow-heap events; freed slots recycle
    /// through `far_free`.
    far_slots: Vec<Option<T>>,
    far_free: Vec<u32>,
    /// Absolute slot index (`time >> GRANULARITY_LOG2`) of the bucket
    /// the drain cursor is on. Only ever advances.
    cursor: u64,
    /// Events currently in the near wheel (`current` + `buckets`).
    near_len: usize,
    /// Total queued events (near + far).
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimingWheel {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            current: Vec::new(),
            far: BinaryHeap::new(),
            far_slots: Vec::new(),
            far_free: Vec::new(),
            cursor: 0,
            near_len: 0,
            len: 0,
        }
    }

    /// Pulls every far event whose slot has entered the horizon into
    /// the near wheel. Only called from [`TimingWheel::seek`] with
    /// `current` empty, so migrated entries (whose slots are all
    /// `>= cursor`) can file straight into their buckets; the seek loop
    /// loads the cursor's own bucket right after. (Slot math goes
    /// through [`SimTime::wheel_slot`], the single definition of the
    /// mapping.)
    fn migrate(&mut self) {
        let horizon = self.cursor + NUM_BUCKETS as u64;
        while let Some(&Reverse((t, seq, id))) = self.far.peek() {
            let slot = t.wheel_slot(GRANULARITY_LOG2);
            if slot >= horizon {
                break;
            }
            self.far.pop();
            let Some(item) = self.far_slots[id as usize].take() else {
                // Unreachable: far heap ids always point at live slots.
                debug_assert!(false, "far slot {id} is dead");
                continue;
            };
            self.far_free.push(id);
            debug_assert!(slot >= self.cursor);
            self.buckets[(slot & BUCKET_MASK) as usize].push((t, seq, item));
            self.near_len += 1;
        }
    }

    /// Makes `current` hold the earliest queued events: advances the
    /// cursor to the first non-empty bucket (jumping straight to the
    /// overflow heap's earliest slot when the near wheel is empty) and
    /// sorts that bucket descending, once. Returns `false` when nothing
    /// is queued.
    fn seek(&mut self) -> bool {
        if !self.current.is_empty() {
            return true;
        }
        if self.len == 0 {
            return false;
        }
        loop {
            if self.near_len == 0 {
                // Everything queued is in the overflow heap: jump the
                // cursor to its earliest slot and pull the horizon in.
                let Some(&Reverse((t, _, _))) = self.far.peek() else {
                    // Unreachable: len > 0 with an empty near wheel
                    // means the far heap is non-empty.
                    debug_assert!(false, "len {} with both wheels empty", self.len);
                    return false;
                };
                self.cursor = t.wheel_slot(GRANULARITY_LOG2);
            } else {
                self.cursor += 1;
            }
            self.migrate();
            let idx = (self.cursor & BUCKET_MASK) as usize;
            debug_assert!(idx < NUM_BUCKETS, "mask keeps bucket indices in range");
            if !self.buckets[idx].is_empty() {
                // Take the bucket wholesale (its allocation swaps with
                // `current`'s spent one) and order it for O(1) pops.
                std::mem::swap(&mut self.current, &mut self.buckets[idx]);
                self.current
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
                return true;
            }
        }
    }
}

/// The caller queues every event under its own key
/// ([`TimingWheel::push_at_seq`]) and drains up to a time bound
/// ([`TimingWheel::pop_before`]). [`TimingWheel::peek_key`] lets the
/// batched link drain (DESIGN.md §10) ask "is anything queued ahead of
/// my next batch entry?" without popping.
impl<T> TimingWheel<T> {
    /// Queues `item` at `(time, seq)`. `seq` is the caller's key and
    /// breaks ties between equal times; keys must be unique.
    pub fn push_at_seq(&mut self, time: SimTime, seq: u64, item: T) {
        let slot = time.wheel_slot(GRANULARITY_LOG2);
        if slot <= self.cursor {
            // Into (or before — allowed, rare) the cursor bucket:
            // ordered insert keeps `current` sorted descending.
            let key = (time, seq);
            let pos = self.current.partition_point(|e| (e.0, e.1) > key);
            self.current.insert(pos, (time, seq, item));
            self.near_len += 1;
        } else if slot < self.cursor + NUM_BUCKETS as u64 {
            self.buckets[(slot & BUCKET_MASK) as usize].push((time, seq, item));
            self.near_len += 1;
        } else {
            let id = if let Some(id) = self.far_free.pop() {
                self.far_slots[id as usize] = Some(item);
                id
            } else {
                debug_assert!(
                    self.far_slots.len() <= u32::MAX as usize,
                    "slot ids fit u32"
                );
                let id = self.far_slots.len() as u32;
                self.far_slots.push(Some(item));
                id
            };
            self.far.push(Reverse((time, seq, id)));
        }
        self.len += 1;
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
        self.near_len -= 1;
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
    fn pop<T>(w: &mut TimingWheel<T>) -> Option<(SimTime, T)> {
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
        // All beyond the 512 × 64 ns ≈ 33 µs horizon.
        w.push_at_seq(SimTime::from_ms(3), 0, 0u32);
        w.push_at_seq(SimTime::from_ms(1), 1, 1);
        w.push_at_seq(SimTime::from_ms(2), 2, 2);
        w.push_at_seq(SimTime::from_ms(1), 3, 3);
        assert_eq!(w.next_time(), Some(SimTime::from_ms(1)));
        assert_eq!(pop(&mut w), Some((SimTime::from_ms(1), 1)));
        assert_eq!(pop(&mut w), Some((SimTime::from_ms(1), 3)));
        assert_eq!(pop(&mut w), Some((SimTime::from_ms(2), 2)));
        assert_eq!(pop(&mut w), Some((SimTime::from_ms(3), 0)));
        assert_eq!(pop(&mut w), None);
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
    fn far_arena_recycles_slots() {
        let mut w = TimingWheel::new();
        let mut seq = 0u64;
        for round in 0..10u64 {
            for i in 0..50u32 {
                // Each round sits a full millisecond past the previous
                // cursor — far beyond the 512×64 ns horizon — so every
                // event routes through the overflow heap's payload
                // arena.
                seq += 1;
                w.push_at_seq(SimTime::from_ms(round + 1) + i as u64 * 1_000, seq, i);
            }
            while pop(&mut w).is_some() {}
        }
        // Ten rounds of 50 events reuse the same 50 arena slots.
        assert!(
            w.far_slots.len() <= 50,
            "arena grew to {}",
            w.far_slots.len()
        );
        assert_eq!(w.far_free.len(), w.far_slots.len());
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut w: TimingWheel<u8> = TimingWheel::new();
        assert!(w.is_empty());
        w.push_at_seq(SimTime::from_ns(5), 0, 1);
        w.push_at_seq(SimTime::from_ms(5), 1, 2);
        assert_eq!(w.len(), 2);
        pop(&mut w);
        assert_eq!(w.len(), 1);
        pop(&mut w);
        assert!(w.is_empty());
        assert_eq!(w.next_time(), None);
    }
}
