//! Differential pinning of the timing wheel against the reference
//! binary heap (DESIGN.md §8), the test oracle in `support/`.
//!
//! Seeded random event streams — equal-timestamp bursts,
//! beyond-horizon times, mid-drain pushes back into the draining
//! bucket, pushes into the past, reserved-sequence pushes out of order —
//! must drain through [`TimingWheel`] and [`BinaryHeapScheduler`] in
//! the same order. The streams also fan out over a [`ThreadPool`]
//! pinned at 1, 2, and 8 workers, because the determinism contract is
//! "bit-identical at any `--jobs`": each worker drains its own
//! schedulers, and the per-seed transcripts must not depend on which
//! worker ran them. (Both simulation engines drain through the wheel,
//! so this ordering contract is what pins their tie-breaks.)

mod support;

use quartz_core::rng::StdRng;
use quartz_core::ThreadPool;
use quartz_netsim::sched::TimingWheel;
use quartz_netsim::SimTime;
use support::{BinaryHeapScheduler, Queue};

/// A simple deterministic LCG so the streams need nothing beyond core.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// Drains one seeded stream through both engines and returns the wheel's
/// pop transcript; panics on any divergence from the heap.
fn drain_stream(seed: u64) -> Vec<(u64, u32)> {
    let mut wheel = TimingWheel::new();
    let mut heap = BinaryHeapScheduler::new();
    let mut rng = Lcg(seed.wrapping_add(1));
    for i in 0..500u32 {
        let t = match rng.next() % 4 {
            0 => rng.next() % 64,        // one-bucket bursts
            1 => rng.next() % 20_000,    // near horizon
            2 => 7_000 + rng.next() % 4, // equal-time ties
            _ => rng.next() % 4_000_000, // far beyond horizon
        };
        wheel.push(SimTime::from_ns(t), i);
        heap.push(SimTime::from_ns(t), i);
    }
    let mut transcript = Vec::new();
    let mut tag = 500u32;
    loop {
        let w = wheel.pop();
        assert_eq!(w, heap.pop(), "engines diverged (seed {seed})");
        let Some((t, v)) = w else { break };
        transcript.push((t.ns(), v));
        // Mid-drain pushes, frequently into the bucket being drained.
        if v % 3 == 0 && tag < 800 {
            let delta = match rng.next() % 3 {
                0 => 0,
                1 => rng.next() % 100,
                _ => 500_000 + rng.next() % 100_000,
            };
            wheel.push(t + delta, tag);
            heap.push(t + delta, tag);
            tag += 1;
        }
    }
    assert!(wheel.is_empty() && heap.is_empty());
    transcript
}

#[test]
fn seeded_streams_drain_identically_at_any_worker_count() {
    let baseline: Vec<Vec<(u64, u32)>> = (0..16).map(|s| drain_stream(s as u64)).collect();
    for workers in [1, 2, 8] {
        let pool = ThreadPool::new(workers);
        let fanned = pool.par_map(16, |s| drain_stream(s as u64));
        assert_eq!(
            baseline, fanned,
            "scheduler transcripts must not depend on --jobs (workers={workers})"
        );
    }
}

/// Drains both schedulers fed the same pushes and asserts identical pop
/// streams. Interleaves pushes mid-drain the way the simulator does:
/// some popped events re-push at `now + delta`.
fn differential(seed: u64, initial: usize, respawn_num: u64, respawn_den: u64) {
    let mut wheel = TimingWheel::new();
    let mut heap = BinaryHeapScheduler::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..initial {
        // Mix near (same-bucket bursts), mid, and far-horizon times.
        let t = match rng.random_range(0..4) {
            0 => rng.random_range(0..64) as u64,
            1 => rng.random_range(0..10_000) as u64,
            2 => 5_000 + rng.random_range(0..8) as u64, // equal-time bursts
            _ => rng.random_range(0..5_000_000) as u64, // beyond horizon
        };
        wheel.push(SimTime::from_ns(t), i as u32);
        heap.push(SimTime::from_ns(t), i as u32);
    }
    let mut next_tag = initial as u32;
    let mut popped = 0u64;
    loop {
        let w = wheel.pop();
        assert_eq!(
            w,
            heap.pop(),
            "divergence after {popped} pops (seed {seed})"
        );
        let Some((t, _)) = w else {
            break;
        };
        popped += 1;
        // Deterministic respawn: mid-drain pushes, often landing in the
        // bucket being drained (delta 0) or exactly on another queued
        // timestamp.
        if popped % respawn_den < respawn_num && next_tag < initial as u32 + 400 {
            let delta = match rng.random_range(0..3) {
                0 => 0,
                1 => rng.random_range(0..100) as u64,
                _ => 300_000 + rng.random_range(0..300_000) as u64,
            };
            wheel.push(t + delta, next_tag);
            heap.push(t + delta, next_tag);
            next_tag += 1;
        }
    }
    assert!(wheel.is_empty() && heap.is_empty());
}

#[test]
fn wheel_matches_heap_on_seeded_streams() {
    for seed in 0..8 {
        differential(seed, 300, 1, 3);
    }
}

#[test]
fn wheel_matches_heap_under_heavy_respawn() {
    differential(0xFEED, 50, 1, 1);
}

/// Pushing into the past: the heap pops an earlier-than-now push first;
/// the wheel clamps it into the cursor bucket and must do the same.
fn past_pushes_pop_immediately(s: &mut impl Queue<u32>) {
    s.push(SimTime::from_us(50), 0);
    s.push(SimTime::from_us(60), 1);
    assert_eq!(s.pop(), Some((SimTime::from_us(50), 0)));
    s.push(SimTime::from_us(1), 2);
    assert_eq!(s.pop(), Some((SimTime::from_us(1), 2)));
    assert_eq!(s.pop(), Some((SimTime::from_us(60), 1)));
}

#[test]
fn past_pushes_pop_immediately_on_both_engines() {
    past_pushes_pop_immediately(&mut TimingWheel::new());
    past_pushes_pop_immediately(&mut BinaryHeapScheduler::new());
}

/// Reserving seqs up front and pushing out of order must drain
/// identically to plain pushes in reservation order — the primitive
/// the batched link drain stands on.
fn reserved_seq_orders_like_plain_push(s: &mut impl Queue<u32>) {
    let t = SimTime::from_ns(100);
    let s0 = s.reserve_seq();
    let s1 = s.reserve_seq();
    let s2 = s.reserve_seq();
    assert!(s0 < s1 && s1 < s2);
    // Insert in scrambled order, same timestamp.
    s.push_at_seq(t, s2, 2);
    s.push_at_seq(t, s0, 0);
    s.push_at_seq(t, s1, 1);
    assert_eq!(s.peek_key(), Some((t, s0)));
    assert_eq!(s.pop(), Some((t, 0)));
    assert_eq!(s.peek_key(), Some((t, s1)));
    assert_eq!(s.pop(), Some((t, 1)));
    assert_eq!(s.pop(), Some((t, 2)));
    assert_eq!(s.peek_key(), None);
}

#[test]
fn reserved_seq_orders_like_plain_push_on_both_engines() {
    reserved_seq_orders_like_plain_push(&mut TimingWheel::new());
    reserved_seq_orders_like_plain_push(&mut BinaryHeapScheduler::new());
}
