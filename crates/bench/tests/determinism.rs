//! The pool determinism contract, pinned end-to-end: every experiment
//! must produce bit-identical results at any worker count, because each
//! unit derives its RNG from its unit index (never from which worker ran
//! it) and results fold in unit order on the calling thread.

use quartz_bench::experiments::{fig06, fig10, fig17};
use quartz_bench::Scale;
use quartz_core::ThreadPool;

#[test]
fn fig10_rows_are_identical_at_one_and_four_workers() {
    let seq = fig10::run(Scale::Quick, &ThreadPool::new(1));
    let par = fig10::run(Scale::Quick, &ThreadPool::new(4));
    assert_eq!(seq, par, "fig10 quick rows must not depend on --jobs");
}

#[test]
fn fig06_panels_are_identical_across_worker_counts() {
    let seq = fig06::run(Scale::Quick, &ThreadPool::new(1), false);
    for workers in [2, 4, 8] {
        let par = fig06::run(Scale::Quick, &ThreadPool::new(workers), false);
        assert_eq!(seq.grid, par.grid, "fig6 grid (workers={workers})");
        assert_eq!(
            seq.dynamic, par.dynamic,
            "fig6 dynamic ring-cut scenario must not depend on --jobs (workers={workers})"
        );
        assert_eq!(seq.metrics.to_ndjson(), par.metrics.to_ndjson());
    }
}

#[test]
fn fig17_panels_are_identical_at_one_and_four_workers() {
    let seq = fig17::run(Scale::Quick, &ThreadPool::new(1));
    let par = fig17::run(Scale::Quick, &ThreadPool::new(4));
    assert_eq!(seq, par, "fig17 quick panels must not depend on --jobs");
}

/// The fig06 `--trace-out` body at `workers` workers.
fn fig06_trace(workers: usize) -> String {
    let panels = fig06::run(Scale::Quick, &ThreadPool::new(workers), true);
    fig06::trace_ndjson(&panels)
}

/// The observability contract extends the pool contract: the full fig06
/// trace body (static grid metrics + dynamic ring-cut events + merged
/// metrics) must be byte-identical at any worker count, because events
/// come from the serial simulator and metrics merge in unit-index order.
#[test]
fn fig06_trace_body_is_identical_at_one_and_four_workers() {
    let seq = fig06_trace(1);
    let par = fig06_trace(4);
    assert_eq!(seq, par, "fig06 trace ndjson must not depend on --jobs");
    assert!(!seq.is_empty() && seq.ends_with('\n'));
}

/// The `--trace-out` files themselves — written through
/// [`quartz_bench::trace::write`] exactly as the experiment binaries do
/// — must be byte-identical on disk at `--jobs 1` vs `--jobs 4`.
#[test]
fn fig06_trace_files_are_byte_identical_across_worker_counts() {
    let dir = std::env::temp_dir();
    let p1 = dir.join("quartz-determinism-fig06-j1.ndjson");
    let p4 = dir.join("quartz-determinism-fig06-j4.ndjson");
    quartz_bench::trace::write(&p1, &fig06_trace(1));
    quartz_bench::trace::write(&p4, &fig06_trace(4));
    let b1 = std::fs::read(&p1).unwrap();
    let b4 = std::fs::read(&p4).unwrap();
    assert!(!b1.is_empty());
    assert_eq!(
        b1, b4,
        "fig06 --trace-out files must be bit-identical across --jobs"
    );
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p4);
}
