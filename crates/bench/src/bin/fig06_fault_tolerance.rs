//! Regenerates fig06 of the paper. Pass `--quick` for a reduced run.
//! `--jobs N` sets the worker count (default: all hardware threads);
//! `--trace-out PATH` writes an ndjson trace; any other argument exits 2.
//! Set `QUARTZ_BENCH_JSON` to also write `BENCH_fig06_fault_tolerance.json`.
use quartz_bench::experiments::fig06::{render, run, trace_ndjson};

fn main() {
    quartz_bench::run_bin("fig06_fault_tolerance", run, render, trace_ndjson);
}
