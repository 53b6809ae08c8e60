//! Differential pinning of the timing wheel against the reference
//! binary heap (DESIGN.md §8), the test oracle in `support/`.
//!
//! Seeded random event streams — equal-timestamp bursts, times on the
//! wheel's second level and past its ~16.8 ms horizon, mid-drain
//! pushes back into the draining bucket, pushes into the past, keyed
//! pushes out of order, drains bounded mid-revolution — must drain
//! through [`TimingWheel`] and [`BinaryHeapScheduler`] in the same
//! order. The streams also fan out over a [`ThreadPool`]
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

/// Pushes `item` at `t` into both engines under the next key of `seq`,
/// a local counter: neither engine numbers events itself.
fn push_both(
    wheel: &mut TimingWheel<u32>,
    heap: &mut BinaryHeapScheduler<u32>,
    seq: &mut u64,
    t: SimTime,
    item: u32,
) {
    *seq += 1;
    wheel.push_at_seq(t, *seq, item);
    heap.push_at_seq(t, *seq, item);
}

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
    let mut seq = 0u64;
    let mut rng = Lcg(seed.wrapping_add(1));
    for i in 0..500u32 {
        let t = match rng.next() % 5 {
            0 => rng.next() % 64,                       // one-bucket bursts
            1 => rng.next() % 20_000,                   // first revolution
            2 => 7_000 + rng.next() % 4,                // equal-time ties
            3 => rng.next() % 4_000_000,                // second level
            _ => 20_000_000 + rng.next() % 180_000_000, // past its horizon
        };
        push_both(&mut wheel, &mut heap, &mut seq, SimTime::from_ns(t), i);
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
            let delta = match rng.next() % 4 {
                0 => 0,
                1 => rng.next() % 100,
                2 => 500_000 + rng.next() % 100_000,
                _ => 20_000_000 + rng.next() % 180_000_000,
            };
            push_both(&mut wheel, &mut heap, &mut seq, t + delta, tag);
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
    let mut seq = 0u64;
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..initial {
        // Mix near (same-bucket bursts), mid, and far-horizon times.
        let t = match rng.random_range(0..4) {
            0 => rng.random_range(0..64) as u64,
            1 => rng.random_range(0..10_000) as u64,
            2 => 5_000 + rng.random_range(0..8) as u64, // equal-time bursts
            _ => rng.random_range(0..5_000_000) as u64, // beyond horizon
        };
        push_both(
            &mut wheel,
            &mut heap,
            &mut seq,
            SimTime::from_ns(t),
            i as u32,
        );
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
            push_both(&mut wheel, &mut heap, &mut seq, t + delta, next_tag);
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

/// Drains both engines in windows whose bounds mostly stop in the
/// middle of a wheel revolution (32 768 ns) and sometimes jump past the
/// second level's horizon, pushing new events between windows — ahead
/// of the bound, at it, and into the past — as the sharded engine's
/// domains do at every window edge.
fn bounded_windows(seed: u64) {
    let mut wheel = TimingWheel::new();
    let mut heap = BinaryHeapScheduler::new();
    let mut seq = 0u64;
    let mut rng = Lcg(seed.wrapping_mul(31).wrapping_add(7));
    let mut tag = 0u32;
    let far = |rng: &mut Lcg, from: u64| {
        from + match rng.next() % 4 {
            0 => rng.next() % 2_000,
            1 => rng.next() % 100_000,
            2 => rng.next() % 10_000_000,
            _ => 20_000_000 + rng.next() % 180_000_000,
        }
    };
    for _ in 0..400 {
        let t = far(&mut rng, 0);
        push_both(&mut wheel, &mut heap, &mut seq, SimTime::from_ns(t), tag);
        tag += 1;
    }
    let (mut bound, mut pops) = (0u64, 0usize);
    while !heap.is_empty() {
        bound += match rng.next() % 8 {
            0 => 30_000_000 + rng.next() % 100_000_000,
            _ => 1 + rng.next() % 50_000,
        };
        let b = SimTime::from_ns(bound);
        loop {
            let w = wheel.pop_before(b);
            assert_eq!(
                w,
                heap.pop_before(b),
                "diverged at bound {bound} (seed {seed})"
            );
            if w.is_none() {
                break;
            }
            pops += 1;
        }
        assert_eq!(wheel.peek_key(), heap.peek_key(), "next key after {bound}");
        let more = if tag < 1_200 { rng.next() % 6 } else { 0 };
        for _ in 0..more {
            let t = match rng.next() % 3 {
                0 => bound.saturating_sub(rng.next() % 1_000),
                1 => bound + 1,
                _ => far(&mut rng, bound),
            };
            push_both(&mut wheel, &mut heap, &mut seq, SimTime::from_ns(t), tag);
            tag += 1;
        }
    }
    assert!(wheel.is_empty() && pops == tag as usize);
}

#[test]
fn bounded_windows_stop_mid_revolution_like_the_heap() {
    for seed in 0..8 {
        bounded_windows(seed);
    }
}

/// Pushing into the past: the heap pops an earlier-than-now push first;
/// the wheel clamps it into the cursor bucket and must do the same.
fn past_pushes_pop_immediately(s: &mut impl Queue<u32>) {
    s.push_at_seq(SimTime::from_us(50), 1, 0);
    s.push_at_seq(SimTime::from_us(60), 2, 1);
    assert_eq!(s.pop(), Some((SimTime::from_us(50), 0)));
    s.push_at_seq(SimTime::from_us(1), 3, 2);
    assert_eq!(s.pop(), Some((SimTime::from_us(1), 2)));
    assert_eq!(s.pop(), Some((SimTime::from_us(60), 1)));
}

#[test]
fn past_pushes_pop_immediately_on_both_engines() {
    past_pushes_pop_immediately(&mut TimingWheel::new());
    past_pushes_pop_immediately(&mut BinaryHeapScheduler::new());
}

/// Drawing keys up front and pushing out of order must drain in key
/// order: the engine keys events by content, not by push order.
fn keyed_pushes_drain_in_key_order(s: &mut impl Queue<u32>) {
    let t = SimTime::from_ns(100);
    let mut seq = 0u64;
    let mut key = || {
        seq += 1;
        seq
    };
    let (s0, s1, s2) = (key(), key(), key());
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
fn keyed_pushes_drain_in_key_order_on_both_engines() {
    keyed_pushes_drain_in_key_order(&mut TimingWheel::new());
    keyed_pushes_drain_in_key_order(&mut BinaryHeapScheduler::new());
}
