//! Extension experiment E3: the §1 Facebook-style request (88 cache +
//! 35 DB + 392 backend RPCs). Pass `--quick` for a reduced run.
//! `--jobs N` sets the worker count (default: all hardware threads);
//! `--trace-out PATH` writes an ndjson trace; any other argument exits 2.
//! Set `QUARTZ_BENCH_JSON` to also write `BENCH_ext03_request_workload.json`.
use quartz_bench::experiments::ext03::{render, run, trace_ndjson};

fn main() {
    quartz_bench::run_bin(
        "ext03_request_workload",
        |s, p, _| run(s, p),
        |o| render(o),
        |o| trace_ndjson(o),
    );
}
