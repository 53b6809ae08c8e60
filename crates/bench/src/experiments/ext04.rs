//! Extension experiment E4 — the workload subsystem end to end.
//!
//! §2.1 of the paper motivates Quartz with partition/aggregate services:
//! heavy-tailed flow mixes, fan-in bursts, and bulk-synchronous jobs,
//! all under commodity TCP. E4 drives the `quartz-workload` subsystem's
//! four traffic kinds — a replayed flow trace, an open-loop websearch
//! mix, a synchronized incast storm, and ring/tree all-reduces — over
//! the Quartz-in-edge-and-core fabric under both Reno and DCTCP, and
//! reports completion counts, the worst per-size-bucket tail FCT, and
//! collective completion time.
//!
//! One unit per `(workload, transport)` pair over the shared pool;
//! results fold in unit order, bit-identical at any worker count.

use crate::table::print_table;
use crate::Scale;
use quartz_core::pool::{unit_seed, ThreadPool};
use quartz_netsim::time::SimTime;
use quartz_netsim::transport::TcpVariant;
use quartz_topology::builders::quartz_in_edge_and_core;
use quartz_topology::graph::{Network, NodeId};
use quartz_workload::{
    run_workload, variant_name, CollectiveAlgo, Trace, WorkloadConfig, WorkloadReport,
    WorkloadSpec, HADOOP,
};

/// One measurement: a workload under one transport.
#[derive(Clone, Debug)]
pub struct Row {
    /// Spec name (`trace`, `hadoop`, `incast:8`, `allreduce:ring`, …).
    pub spec: String,
    /// Transport name (`reno` / `dctcp`).
    pub transport: &'static str,
    /// Flows offered.
    pub flows: usize,
    /// Flows completed before the horizon.
    pub completed: usize,
    /// Worst per-size-bucket p99 FCT, µs.
    pub worst_p99_us: f64,
    /// Worst per-size-bucket p99 slowdown (FCT / ideal serialization).
    pub worst_p99_slowdown: f64,
    /// Collective completion time, µs (all-reduce rows only).
    pub collective_us: Option<f64>,
}

/// The E4 fabric: 2 rings × 3 switches × 2 hosts plus a 2-switch core.
fn fabric() -> (Network, Vec<NodeId>) {
    let c = quartz_in_edge_and_core(2, 3, 2, 2);
    (c.net, c.hosts)
}

/// A small deterministic shuffle-like trace over `hosts` endpoints:
/// mice between neighbors plus a few rack-crossing elephants.
fn demo_trace(hosts: usize) -> Trace {
    let mut text = String::new();
    for i in 0..40_u64 {
        let src = i as usize % hosts;
        let dst = (i as usize + 1 + (i as usize % (hosts - 1))) % hosts;
        let dst = if dst == src { (dst + 1) % hosts } else { dst };
        let bytes = if i % 8 == 7 { 400_000 } else { 3_000 + i * 157 };
        text.push_str(&format!(
            "{{\"src\":{src},\"dst\":{dst},\"bytes\":{bytes},\"start_ns\":{}}}\n",
            i * 2_500
        ));
    }
    Trace::parse(&text, hosts).expect("demo trace is valid")
}

/// The workload list for one scale: `(spec, arrival window)`.
fn specs(scale: Scale, hosts: usize) -> Vec<(WorkloadSpec, SimTime)> {
    let (load, incast_bytes, gradient) = match scale {
        Scale::Paper => (0.5, 60_000, 200_000),
        Scale::Quick => (0.4, 30_000, 80_000),
    };
    let window = match scale {
        Scale::Paper => SimTime::from_ms(4),
        Scale::Quick => SimTime::from_ms(2),
    };
    vec![
        (WorkloadSpec::Trace(demo_trace(hosts)), window),
        (WorkloadSpec::Dist { dist: HADOOP, load }, window),
        (
            WorkloadSpec::Incast {
                fanin: 8,
                bytes: incast_bytes,
                jitter_ns: 0,
            },
            window,
        ),
        (
            WorkloadSpec::AllReduce {
                algo: CollectiveAlgo::Ring,
                ranks: 0,
                bytes: gradient,
            },
            window,
        ),
        (
            WorkloadSpec::AllReduce {
                algo: CollectiveAlgo::Tree,
                ranks: 0,
                bytes: gradient,
            },
            window,
        ),
    ]
}

fn row_of(report: &WorkloadReport) -> Row {
    let worst_p99_us = report
        .buckets
        .iter()
        .map(|b| b.p99_fct_us)
        .fold(0.0, f64::max);
    let worst_p99_slowdown = report
        .buckets
        .iter()
        .map(|b| b.p99_slowdown)
        .fold(0.0, f64::max);
    Row {
        spec: report.spec.clone(),
        transport: report.transport,
        flows: report.flows,
        completed: report.completed,
        worst_p99_us,
        worst_p99_slowdown,
        collective_us: report.collective.as_ref().map(|c| c.total_ns as f64 / 1e3),
    }
}

/// Runs E4 over `pool`: one unit per `(workload, transport)` pair,
/// re-seeded with [`unit_seed`]; rows fold in unit order.
pub fn run(scale: Scale, pool: &ThreadPool) -> Vec<Row> {
    let hosts = fabric().1.len();
    let mut units = Vec::new();
    for (w, (spec, window)) in specs(scale, hosts).into_iter().enumerate() {
        for variant in [TcpVariant::Reno, TcpVariant::Dctcp] {
            // Both transports of a workload share one seed, so their
            // arrival patterns are identical and the row pair is a pure
            // transport comparison.
            units.push((spec.clone(), window, variant, w));
        }
    }
    pool.par_map(units.len(), |i| {
        let (spec, window, variant, w) = units[i].clone();
        let mut cfg = WorkloadConfig::new(spec, variant, unit_seed(0xE400, w as u64));
        cfg.window = window;
        cfg.horizon = SimTime::from_ms(80);
        let (net, hosts) = fabric();
        let report = run_workload(net, &hosts, &cfg).expect("E4 workloads fit the fabric");
        row_of(&report)
    })
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(rows: &[Row]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("ext04.rows", rows.len() as u64);
    for r in rows {
        let key = format!("{}.{}", r.spec.replace(':', "_"), r.transport);
        m.inc(&format!("ext04.flows.{key}"), r.flows as u64);
        m.inc(&format!("ext04.completed.{key}"), r.completed as u64);
        m.set_gauge(&format!("ext04.worst_p99_us.{key}"), r.worst_p99_us);
        if let Some(c) = r.collective_us {
            m.set_gauge(&format!("ext04.collective_us.{key}"), c);
        }
    }
    m.to_ndjson()
}

/// Renders the computed rows as the E4 table.
pub fn render(rows: &[Row]) {
    crate::outln!(
        "Extension E4: the workload subsystem — trace replay, heavy-tail mix, incast, all-reduce — under Reno and DCTCP\n"
    );
    let headers = [
        "Workload",
        "Transport",
        "Flows",
        "Done",
        "Worst p99 FCT (µs)",
        "Worst p99 slowdown",
        "All-reduce (µs)",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.spec.clone(),
                r.transport.to_string(),
                r.flows.to_string(),
                r.completed.to_string(),
                format!("{:.1}", r.worst_p99_us),
                format!("{:.2}", r.worst_p99_slowdown),
                r.collective_us
                    .map_or_else(|| "—".to_string(), |c| format!("{c:.1}")),
            ]
        })
        .collect();
    print_table(&headers, &table);
    crate::outln!("\nDCTCP's ECN-proportional backoff tames the incast and heavy-tail queueing tails that Reno's loss-driven AIMD lets grow; the all-reduce rows show the ring's many balanced steps versus the tree's fewer, fan-in-concentrated ones. ({} = transport comparison, per-bucket tails from quartz-workload.)", variant_name(TcpVariant::Dctcp));
}
