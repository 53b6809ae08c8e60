//! A std-only scoped thread pool with work-stealing deques and a
//! determinism contract, for the embarrassingly parallel experiment
//! sweeps (seeds × workloads × scenario points).
//!
//! The workspace is deliberately hermetic — no rayon — so this module
//! implements the minimum that the evaluation harness needs:
//!
//! * [`ThreadPool::par_map`] maps a closure over `0..units` with the
//!   configured number of worker threads. Work is dealt out as
//!   contiguous chunks onto per-worker deques; a worker pops from the
//!   back of its own deque and, when empty, steals from the front of a
//!   victim's (the classic work-stealing discipline, here with plain
//!   mutexed deques rather than lock-free Chase–Lev ones — the units we
//!   schedule are whole simulations, so queue overhead is noise).
//! * Results are merged **in unit-index order**, whatever order the
//!   workers finished in.
//!
//! ## Determinism contract
//!
//! Parallel output must be bit-identical to sequential output. Two rules
//! make that hold across every caller:
//!
//! 1. a unit never shares mutable state with another unit — each derives
//!    any randomness it needs from [`unit_seed`]`(base_seed, unit_index)`
//!    (the `unit_index`-th output of the splitmix64 stream seeded with
//!    `base_seed`), so no RNG stream is ever split across threads;
//! 2. reductions over unit results (sums of floats, appends to result
//!    rows) happen on the caller's thread, in unit-index order, over the
//!    vector [`ThreadPool::par_map`] returns.
//!
//! Under those rules `ThreadPool::new(1)` (today's sequential behavior)
//! and `ThreadPool::new(n)` produce byte-identical experiment rows; the
//! integration tests assert exactly that.
//!
//! A worker panic is propagated to the caller after the scope joins, so
//! `par_map` never silently drops units.

use crate::rng::splitmix64;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// Number of hardware threads (1 if the platform won't say).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The seed for parallel unit `unit_index` under `base_seed`: the
/// `unit_index`-th output of the splitmix64 stream seeded with
/// `base_seed`.
///
/// splitmix64 advances its state by a fixed odd constant per step, so
/// the stream can be indexed randomly: jumping the state by
/// `unit_index` increments and mixing once yields exactly the value a
/// sequential caller would reach after `unit_index` draws. Units can
/// therefore be evaluated in any order — or on any thread — and still
/// see the seed a sequential loop would have handed them.
pub fn unit_seed(base_seed: u64, unit_index: u64) -> u64 {
    let mut state = base_seed.wrapping_add(unit_index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    splitmix64(&mut state)
}

/// A fixed-width scoped thread pool (see the module docs).
///
/// The pool holds no threads between calls: each [`ThreadPool::par_map`]
/// spawns its workers inside a [`std::thread::scope`], which lets the
/// mapped closure borrow from the caller's stack without `'static`
/// bounds — experiment runners pass borrowed unit tables directly.
///
/// # Examples
///
/// ```
/// use quartz_core::pool::{unit_seed, ThreadPool};
///
/// let pool = ThreadPool::new(4);
/// let squares = pool.par_map(10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
///
/// // Per-unit seeding: identical results at any thread count.
/// let seq = ThreadPool::new(1).par_map(8, |i| unit_seed(42, i as u64));
/// let par = pool.par_map(8, |i| unit_seed(42, i as u64));
/// assert_eq!(seq, par);
/// ```
#[derive(Clone, Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool of `threads` workers; `0` means [`available_parallelism`].
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool {
            threads: if threads == 0 {
                available_parallelism()
            } else {
                threads
            },
        }
    }

    /// The single-threaded pool: `par_map` runs every unit on the
    /// calling thread, in order — exactly the pre-pool behavior.
    pub fn sequential() -> ThreadPool {
        ThreadPool::new(1)
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..units` and returns the results in unit-index
    /// order, regardless of which worker ran which unit when.
    ///
    /// With one thread (or at most one unit) this is a plain sequential
    /// map on the calling thread. Otherwise `min(threads, units)`
    /// scoped workers split the index range into contiguous chunks and
    /// work-steal across them until every deque is drained.
    ///
    /// # Panics
    /// Re-raises the first worker panic after all workers have stopped,
    /// so a panicking unit behaves like it would in a sequential loop.
    pub fn par_map<T, F>(&self, units: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || units <= 1 {
            return (0..units).map(f).collect();
        }
        let workers = self.threads.min(units);
        let chunk = units.div_ceil(workers);
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                let lo = (w * chunk).min(units);
                let hi = ((w + 1) * chunk).min(units);
                Mutex::new((lo..hi).collect())
            })
            .collect();

        let f = &f;
        let deques = &deques;
        let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut done = Vec::with_capacity(chunk);
                        loop {
                            // Own deque first (back), then steal from a
                            // victim's front. A poisoned lock just means
                            // some unit panicked; the queued indices are
                            // still valid, so keep draining — the panic
                            // is re-raised at join time.
                            let mut job = deques[w]
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .pop_back();
                            if job.is_none() {
                                for v in 1..workers {
                                    let victim = (w + v) % workers;
                                    job = deques[victim]
                                        .lock()
                                        .unwrap_or_else(PoisonError::into_inner)
                                        .pop_front();
                                    if job.is_some() {
                                        break;
                                    }
                                }
                            }
                            match job {
                                Some(i) => done.push((i, f(i))),
                                None => return done,
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(part) => part,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });

        let mut slots: Vec<Option<T>> = (0..units).map(|_| None).collect();
        for (i, v) in parts.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "unit {i} ran twice");
            slots[i] = Some(v);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every unit runs exactly once"))
            .collect()
    }

    /// [`ThreadPool::par_map`] with observability: each unit receives a
    /// private [`quartz_obs::MetricsRegistry`], and the per-unit
    /// registries are folded **in unit-index order** on the caller's
    /// thread after the scope joins.
    ///
    /// That fold order is the whole point: which *worker* ran a unit is
    /// timing-dependent and must never surface, so the pool meters work
    /// per *unit* (`pool.units_completed`, plus whatever the closure
    /// records) and the aggregate — like every other `par_map`
    /// reduction — is bit-identical at any thread count.
    pub fn par_map_observed<T, F>(
        &self,
        units: usize,
        f: F,
    ) -> (Vec<T>, quartz_obs::MetricsRegistry)
    where
        T: Send,
        F: Fn(usize, &mut quartz_obs::MetricsRegistry) -> T + Sync,
    {
        let pairs = self.par_map(units, |i| {
            let mut unit_metrics = quartz_obs::MetricsRegistry::new();
            let v = f(i, &mut unit_metrics);
            (v, unit_metrics)
        });
        let mut merged = quartz_obs::MetricsRegistry::new();
        merged.inc("pool.par_map_calls", 1);
        let mut out = Vec::with_capacity(units);
        for (v, unit_metrics) in pairs {
            merged.inc("pool.units_completed", 1);
            merged.merge(&unit_metrics);
            out.push(v);
        }
        (out, merged)
    }
}

/// Shared view of the domain set handed to the coordinator closure of
/// [`ThreadPool::step_domains`] between windows. While the coordinator
/// runs, every worker is parked at a barrier, so each `lock` is
/// uncontended — the mutexes exist for the *stepping* phase, where each
/// worker holds only the domains it owns.
pub struct DomainCells<'a, D> {
    cells: &'a [Mutex<D>],
}

impl<D> DomainCells<'_, D> {
    /// Number of domains.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the domain set is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Locks domain `i`. Poison is tolerated: a worker panic is re-raised
    /// by [`ThreadPool::step_domains`] itself, so the coordinator may
    /// still inspect state on its way out.
    pub fn lock(&self, i: usize) -> MutexGuard<'_, D> {
        self.cells[i].lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl ThreadPool {
    /// Repeatedly advances a set of stateful domains to coordinator-chosen
    /// bounds — the synchronization skeleton of a conservatively
    /// lookahead-windowed sharded simulation.
    ///
    /// Each round, `control` runs on the calling thread (every worker
    /// parked at a barrier) and either returns `Some(bound)` — upon which
    /// every worker calls `step(&mut domain, bound)` for each domain it
    /// owns — or `None`, which ends the loop and returns the domains.
    /// Domain `i` is pinned to worker `i % workers` for the whole call,
    /// so a domain's steps are totally ordered and its state never
    /// migrates mid-round.
    ///
    /// With one thread (or one domain) no workers are spawned: `control`
    /// and `step` alternate on the calling thread, in domain-index
    /// order — the reference schedule parallel runs must reproduce.
    ///
    /// # Panics
    /// Re-raises the first `step` panic after all workers have parked,
    /// like [`ThreadPool::par_map`]. A panicking worker keeps meeting the
    /// barriers (without stepping) so the others are never left waiting.
    pub fn step_domains<D, S, C>(&self, domains: Vec<D>, step: S, mut control: C) -> Vec<D>
    where
        D: Send,
        S: Fn(&mut D, u64) + Sync,
        C: FnMut(&DomainCells<'_, D>) -> Option<u64>,
    {
        let cells: Vec<Mutex<D>> = domains.into_iter().map(Mutex::new).collect();
        let view = DomainCells { cells: &cells };
        let workers = self.threads.min(cells.len());

        if workers <= 1 {
            while let Some(bound) = control(&view) {
                for cell in &cells {
                    step(
                        &mut cell.lock().unwrap_or_else(PoisonError::into_inner),
                        bound,
                    );
                }
            }
        } else {
            let bound = AtomicU64::new(0);
            let stop = AtomicBool::new(false);
            let start = Barrier::new(workers + 1);
            let done = Barrier::new(workers + 1);
            let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
            let (step, cells_ref) = (&step, &cells);
            let (bound_ref, stop_ref) = (&bound, &stop);
            let (start_ref, done_ref, panic_ref) = (&start, &done, &panic_slot);

            std::thread::scope(|scope| {
                for w in 0..workers {
                    scope.spawn(move || {
                        let mut poisoned = false;
                        loop {
                            start_ref.wait();
                            if stop_ref.load(Ordering::Acquire) {
                                return;
                            }
                            let b = bound_ref.load(Ordering::Acquire);
                            if !poisoned {
                                // Step owned domains; on panic, stash the
                                // payload and keep meeting barriers so no
                                // peer (or the coordinator) deadlocks.
                                let r = catch_unwind(AssertUnwindSafe(|| {
                                    for i in (w..cells_ref.len()).step_by(workers) {
                                        let mut d = cells_ref[i]
                                            .lock()
                                            .unwrap_or_else(PoisonError::into_inner);
                                        step(&mut d, b);
                                    }
                                }));
                                if let Err(payload) = r {
                                    poisoned = true;
                                    let mut slot =
                                        panic_ref.lock().unwrap_or_else(PoisonError::into_inner);
                                    slot.get_or_insert(payload);
                                }
                            }
                            done_ref.wait();
                        }
                    });
                }
                loop {
                    let next = if panic_ref
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .is_some()
                    {
                        None
                    } else {
                        control(&view)
                    };
                    match next {
                        Some(b) => {
                            bound.store(b, Ordering::Release);
                            start.wait();
                            done.wait();
                        }
                        None => {
                            stop.store(true, Ordering::Release);
                            start.wait();
                            break;
                        }
                    }
                }
            });
            let payload = panic_slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(p) = payload {
                std::panic::resume_unwind(p);
            }
        }

        cells
            .into_iter()
            .map(|c| c.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }
}

impl Default for ThreadPool {
    /// One worker per hardware thread.
    fn default() -> Self {
        ThreadPool::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn observed_map_aggregates_identically_at_any_thread_count() {
        let run = |threads: usize| {
            let (out, metrics) = ThreadPool::new(threads).par_map_observed(16, |i, m| {
                m.inc("unit.work", (i as u64 + 1) * 3);
                m.set_gauge("unit.last", i as f64);
                let mut series = quartz_obs::TimeHistogram::new();
                series.observe(i as u64 * 1_000, i as u64);
                m.add_histogram("unit.series", &series);
                i * 2
            });
            (out, metrics.to_ndjson())
        };
        let (out1, ndjson1) = run(1);
        assert_eq!(out1, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        for threads in [2, 4, 8] {
            let (out_n, ndjson_n) = run(threads);
            assert_eq!(out_n, out1, "{threads} threads");
            // The rendered registry — counters, the last-unit gauge,
            // histogram buckets — is byte-identical: worker identity
            // never leaks into the aggregate.
            assert_eq!(ndjson_n, ndjson1, "{threads} threads");
        }
        assert!(ndjson1.contains("\"name\":\"pool.units_completed\",\"value\":16"));
        assert!(ndjson1.contains("\"name\":\"unit.last\",\"value\":15"));
    }

    #[test]
    fn empty_range_yields_empty_vec() {
        for threads in [1, 4] {
            let out: Vec<u32> = ThreadPool::new(threads).par_map(0, |_| unreachable!());
            assert!(out.is_empty());
        }
    }

    #[test]
    fn pool_of_one_degenerates_to_sequential_in_order() {
        // With one thread the units must run on the calling thread in
        // strictly ascending order (pre-pool behavior, observable via
        // side effects).
        let order = Mutex::new(Vec::new());
        let out = ThreadPool::sequential().par_map(10, |i| {
            order.lock().unwrap().push(i);
            i * 3
        });
        assert_eq!(out, (0..10).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn more_units_than_threads_covers_every_unit_once() {
        let hits = AtomicUsize::new(0);
        let out = ThreadPool::new(3).par_map(257, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i * i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 257);
        assert_eq!(out, (0..257).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_units_still_works() {
        let out = ThreadPool::new(16).par_map(3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn results_merge_in_index_order_under_skewed_work() {
        // Early units do far more work than late ones, so workers
        // finish out of order; the result vector must not care.
        let out = ThreadPool::new(4).par_map(64, |i| {
            let spin = if i < 8 { 20_000 } else { 10 };
            let mut acc = i as u64;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        for (i, &(unit, _)) in out.iter().enumerate() {
            assert_eq!(i, unit);
        }
    }

    #[test]
    fn panic_in_worker_propagates() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            ThreadPool::new(4).par_map(32, |i| {
                if i == 17 {
                    panic!("unit 17 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(msg.contains("unit 17 exploded"), "payload: {msg}");
    }

    #[test]
    fn unit_seed_indexes_the_splitmix_stream() {
        // unit_seed(base, i) must equal the i-th sequential draw.
        let base = 0xDEAD_BEEF_u64;
        let mut state = base;
        for i in 0..100 {
            let sequential = splitmix64(&mut state);
            assert_eq!(unit_seed(base, i), sequential, "index {i}");
        }
    }

    #[test]
    fn unit_seeds_are_pairwise_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(seen.insert(unit_seed(7, i)), "collision at {i}");
        }
    }

    #[test]
    fn parallel_equals_sequential_for_seeded_units() {
        let work = |i: usize| {
            let mut rng = crate::rng::StdRng::seed_from_u64(unit_seed(99, i as u64));
            (0..50)
                .map(|_| rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        let seq = ThreadPool::sequential().par_map(40, work);
        for threads in [2, 4, 8] {
            assert_eq!(seq, ThreadPool::new(threads).par_map(40, work));
        }
    }

    #[test]
    fn zero_thread_request_uses_available_parallelism() {
        assert_eq!(ThreadPool::new(0).threads(), available_parallelism());
        assert_eq!(ThreadPool::default().threads(), available_parallelism());
    }

    /// A toy "simulation": each domain accumulates (bound − state) per
    /// window. Windows advance 0 → 10 → 20 → 30, then stop.
    fn toy_step(d: &mut (u64, u64), bound: u64) {
        d.1 += bound - d.0;
        d.0 = bound;
    }

    #[test]
    fn step_domains_parallel_matches_sequential() {
        let run = |threads: usize| {
            let domains = vec![(0u64, 0u64); 7];
            let mut next = 0u64;
            ThreadPool::new(threads).step_domains(domains, toy_step, |cells| {
                assert_eq!(cells.len(), 7);
                next += 10;
                (next <= 30).then_some(next)
            })
        };
        let seq = run(1);
        assert_eq!(seq, vec![(30, 30); 7]);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), seq, "{threads} threads");
        }
    }

    #[test]
    fn step_domains_coordinator_sees_worker_writes_between_windows() {
        // Every window doubles each domain's accumulator; the control
        // closure reads the updated values before choosing the next
        // bound — a data dependency across the barrier.
        let domains: Vec<u64> = (1..=4).collect();
        let mut rounds = 0;
        let out = ThreadPool::new(4).step_domains(
            domains,
            |d, _| *d *= 2,
            |cells| {
                if rounds > 0 {
                    for i in 0..cells.len() {
                        let v = *cells.lock(i);
                        assert_eq!(v, (i as u64 + 1) << rounds, "round {rounds}");
                    }
                }
                rounds += 1;
                (rounds <= 3).then_some(rounds)
            },
        );
        assert_eq!(out, vec![8, 16, 24, 32]);
    }

    #[test]
    fn step_domains_returns_domains_on_immediate_stop() {
        let out = ThreadPool::new(4).step_domains(vec![1u32, 2, 3], |_, _| {}, |_| None);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn step_domains_propagates_worker_panics() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut windows = 0;
            ThreadPool::new(4).step_domains(
                vec![0u64; 8],
                |d, b| {
                    *d = b;
                    if b == 2 {
                        panic!("domain stepping exploded");
                    }
                },
                |_| {
                    windows += 1;
                    (windows <= 5).then_some(windows)
                },
            )
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(msg.contains("domain stepping exploded"), "payload: {msg}");
    }
}
