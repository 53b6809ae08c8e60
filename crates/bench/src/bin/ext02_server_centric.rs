//! Extension experiment E2: server-centric structures vs the Quartz
//! mesh. Pass `--quick` for a reduced run.
//! `--jobs N` sets the worker count (default: all hardware threads);
//! `--trace-out PATH` writes an ndjson trace; any other argument exits 2.
//! Set `QUARTZ_BENCH_JSON` to also write `BENCH_ext02_server_centric.json`.
use quartz_bench::experiments::ext02::{render, run, trace_ndjson};

fn main() {
    quartz_bench::run_bin(
        "ext02_server_centric",
        |s, p, _| run(s, p),
        |o| render(o),
        |o| trace_ndjson(o),
    );
}
