//! Extension experiment E4: the workload subsystem (trace replay,
//! heavy-tail mix, incast, ring/tree all-reduce) under Reno and DCTCP.
//! Pass `--quick` for a reduced run.
//! `--jobs N` sets the worker count (default: all hardware threads);
//! `--trace-out PATH` writes an ndjson trace; any other argument exits 2.
//! Set `QUARTZ_BENCH_JSON` to also write `BENCH_ext04_workloads.json`.
use quartz_bench::experiments::ext04::{render, run, trace_ndjson};

fn main() {
    quartz_bench::run_bin(
        "ext04_workloads",
        |s, p, _| run(s, p),
        |o| render(o),
        |o| trace_ndjson(o),
    );
}
