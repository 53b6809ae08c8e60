//! Regenerates table09 of the paper. Pass `--quick` for a reduced run.
//! `--jobs N` sets the worker count (default: all hardware threads);
//! `--trace-out PATH` writes an ndjson trace; any other argument exits 2.
//! Set `QUARTZ_BENCH_JSON` to also write `BENCH_table09_structures.json`.
use quartz_bench::experiments::table09::{render, run, trace_ndjson};

fn main() {
    quartz_bench::run_bin(
        "table09_structures",
        |s, p, _| run(s, p),
        |o| render(o),
        |o| trace_ndjson(o),
    );
}
