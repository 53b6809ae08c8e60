//! Extension experiment E1: protocol fixes vs topology (§2.1.4).
//! Pass `--quick` for a reduced run.
//! `--jobs N` sets the worker count (default: all hardware threads);
//! `--trace-out PATH` writes an ndjson trace; any other argument exits 2.
//! Set `QUARTZ_BENCH_JSON` to also write `BENCH_ext01_protocols.json`.
use quartz_bench::experiments::ext01::{render, run, trace_ndjson};

fn main() {
    quartz_bench::run_bin(
        "ext01_protocols",
        |s, p, _| run(s, p),
        |o| render(o),
        |o| trace_ndjson(o),
    );
}
