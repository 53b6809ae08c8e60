//! Extension experiment E3 — the §1 motivating workload, end to end.
//!
//! "In a measurement study from Facebook, servicing a remote HTTP
//! request can require as many as 88 cache lookups, 35 database lookups,
//! and 392 backend remote procedure calls." E3 runs exactly that request
//! — three dependent fan-out stages of request/response RPCs from one
//! front-end server — on the §7 architectures, with and without
//! cross-traffic, and reports the *request completion time* (the metric
//! the user of that HTTP request experiences).
//!
//! Because each stage waits for its slowest RPC, completion time is a
//! tail statistic: architectures with a store-and-forward core or shared
//! congestion points lose far more than their mean-latency gap suggests.

use crate::experiments::fig17::{add_task, Arch, Workload, PARTNERS};
use crate::table::print_table;
use crate::Scale;
use quartz_core::pool::ThreadPool;
use quartz_core::rng::{SliceRandom, StdRng};
use quartz_netsim::sim::{FlowKind, SimConfig, Simulator};
use quartz_netsim::time::SimTime;

/// The §1 request recipe: `(stage name, RPC count, payload bytes)`.
pub const STAGES: [(&str, usize, u32); 3] = [
    ("cache lookups", 88, 400),
    ("database lookups", 35, 1_500),
    ("backend RPCs", 392, 400),
];

/// Outstanding RPCs per stage — real services cap concurrency (thread
/// pools, connection pools), which turns per-RPC latency into serialized
/// request time: the amplification §1 describes.
pub const WINDOW: usize = 16;

/// One measurement.
#[derive(Clone, Debug)]
pub struct Row {
    /// Architecture.
    pub arch: Arch,
    /// Concurrent cross-traffic tasks.
    pub cross_tasks: usize,
    /// Mean request completion time over the measured requests, µs.
    pub completion_us: f64,
}

/// Runs one full request on `arch` with `cross_tasks` of background
/// scatter traffic; returns the completion time in µs.
pub fn one_request_us(arch: Arch, cross_tasks: usize, seed: u64) -> f64 {
    let (net, hosts) = arch.build();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = Simulator::new(
        net,
        SimConfig {
            seed: seed ^ 0xE3,
            ..SimConfig::default()
        },
    );
    let horizon = SimTime::from_ms(400);

    // Background cross-traffic (tag 99), as in Figure 17.
    let mut pool = hosts.clone();
    pool.shuffle(&mut rng);
    let front = pool[0];
    for t in 0..cross_tasks {
        let root = pool[1 + t];
        let mut partners: Vec<_> = hosts.iter().copied().filter(|&h| h != root).collect();
        partners.shuffle(&mut rng);
        add_task(
            &mut sim,
            Workload::Scatter,
            root,
            &partners[..PARTNERS],
            99,
            horizon,
        );
    }
    // Let the background traffic reach steady state.
    sim.run(SimTime::from_ms(1));

    // The request: three dependent fan-out stages from the front end,
    // each issued in windows of [`WINDOW`] outstanding RPCs.
    let t0 = sim.now();
    for (stage_idx, &(_, count, bytes)) in STAGES.iter().enumerate() {
        let tag = stage_idx as u32 + 1;
        let mut issued = 0usize;
        while issued < count {
            let wave = WINDOW.min(count - issued);
            let start = sim.now();
            for w in 0..wave {
                let i = issued + w;
                // Round-robin over the other servers (a request touches
                // many distinct cache/db/backend shards).
                let dst = hosts[(1 + i * 7) % hosts.len()];
                let dst = if dst == front {
                    hosts[(2 + i * 7) % hosts.len()]
                } else {
                    dst
                };
                sim.add_flow(front, dst, bytes, FlowKind::Rpc { count: 1 }, tag, start);
            }
            issued += wave;
            let done = sim.run_until_samples(tag, issued, horizon);
            assert!(done, "stage {stage_idx} did not finish before the horizon");
        }
    }
    sim.now().saturating_sub(t0) as f64 / 1e3
}

/// Measures all architectures over `pool`: one unit per `(arch, cross
/// level, request)` simulation; per-row means fold in request order on
/// this thread, bit-identical at any worker count.
pub fn run(scale: Scale, pool: &ThreadPool) -> Vec<Row> {
    let (requests, cross_levels): (usize, Vec<usize>) = match scale {
        Scale::Paper => (5, vec![0, 2, 4]),
        Scale::Quick => (1, vec![0, 2]),
    };
    let archs = [
        Arch::ThreeTier,
        Arch::Jellyfish,
        Arch::QuartzInCore,
        Arch::QuartzInEdgeAndCore,
    ];
    let mut units = Vec::new();
    for &arch in &archs {
        for &cross in &cross_levels {
            for r in 0..requests {
                units.push((arch, cross, r));
            }
        }
    }
    let cells = pool.par_map(units.len(), |i| {
        let (arch, cross, r) = units[i];
        one_request_us(arch, cross, 0xE300 + r as u64)
    });
    let mut cells = cells.into_iter();
    let mut rows = Vec::new();
    for &arch in &archs {
        for &cross in &cross_levels {
            let mean = (0..requests)
                .map(|_| cells.next().expect("one cell per unit"))
                .sum::<f64>()
                / requests as f64;
            rows.push(Row {
                arch,
                cross_tasks: cross,
                completion_us: mean,
            });
        }
    }
    rows
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(rows: &[Row]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("ext03.rows", rows.len() as u64);
    for r in rows {
        let key = r.arch.name().to_ascii_lowercase().replace([' ', '+'], "_");
        m.set_gauge(
            &format!("ext03.completion_us.{key}.x{}", r.cross_tasks),
            r.completion_us,
        );
    }
    m.to_ndjson()
}

/// Renders the computed rows as the E3 table.
pub fn render(rows: &[Row]) {
    crate::outln!(
        "Extension E3: the §1 request — 88 cache + 35 DB + 392 backend RPCs, sequential stages\n"
    );
    let cross_levels: Vec<usize> = {
        let mut v: Vec<usize> = rows.iter().map(|r| r.cross_tasks).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut headers: Vec<String> = vec!["Architecture".into()];
    headers.extend(
        cross_levels
            .iter()
            .map(|c| format!("{c} cross-task{} (µs)", if *c == 1 { "" } else { "s" })),
    );
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut archs: Vec<Arch> = rows.iter().map(|r| r.arch).collect();
    archs.dedup();
    let table: Vec<Vec<String>> = archs
        .iter()
        .map(|&a| {
            let mut cells = vec![a.name().to_string()];
            for &c in &cross_levels {
                let r = rows
                    .iter()
                    .find(|r| r.arch == a && r.cross_tasks == c)
                    .unwrap();
                cells.push(format!("{:.1}", r.completion_us));
            }
            cells
        })
        .collect();
    print_table(&headers_ref, &table);
    crate::outln!("\nEach stage waits for its slowest RPC, so the request completion tracks the *tail*: the architectures' mean-latency gap (Figure 17) widens into user-visible request time (§1's motivation).");
}
