//! Figure 14 — impact of cross-traffic on RPC latency: the §6 prototype,
//! reproduced in simulation.
//!
//! The hardware experiment: a "Hello World" Thrift RPC between servers
//! on different ToR switches, plus bursty Nuttcp cross-traffic ("20
//! packet bursts … separated by idle intervals" tuned to a target
//! bandwidth) from three servers toward a server that shares the RPC
//! destination's switch. Measured on the Quartz wiring and on the same
//! switches rewired as a two-tier tree. The paper reports *relative*
//! latency (normalized to the zero-cross-traffic baseline), which is
//! exactly what the simulation preserves: the effect is queueing
//! interference at shared 1 Gb/s ports.

use crate::Scale;
use quartz_core::pool::ThreadPool;
use quartz_netsim::sim::{FlowKind, SimConfig, Simulator};
use quartz_netsim::switch::{LatencyModel, SwitchSpec};
use quartz_netsim::time::SimTime;
use quartz_topology::builders::{prototype_quartz, prototype_two_tier};

/// One sweep point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Per-source cross-traffic bandwidth, Mb/s.
    pub cross_mbps: f64,
    /// Two-tier tree RPC latency, normalized to its zero-cross baseline.
    pub tree: f64,
    /// Quartz RPC latency, normalized to its zero-cross baseline.
    pub quartz: f64,
}

/// The prototype's 1 GbE managed switches (Nortel 5510 / Catalyst 4948)
/// are store-and-forward, ~6 µs class devices.
fn prototype_latency_model() -> LatencyModel {
    let sf_1g = SwitchSpec {
        name: "48-port 1GbE managed",
        latency_ns: 6_000,
        cut_through: false,
        ports_10g: 48,
        ports_40g: 0,
    };
    LatencyModel {
        edge: sf_1g,
        core: sf_1g,
        host_send_ns: 0,
        host_recv_ns: 0,
    }
}

/// Mean RPC round-trip under `cross_mbps` per source on one prototype
/// wiring. `quartz` selects the mesh (vs the rewired tree).
fn rpc_latency_ns(quartz: bool, cross_mbps: f64, rpc_count: u32, seed: u64) -> f64 {
    const RPC_SIZE: u32 = 100; // a "Hello World" Thrift call
    const BURST_PKTS: u32 = 20;
    const BURST_BYTES: f64 = 20.0 * 1500.0;

    let cfg = SimConfig {
        seed,
        latency: prototype_latency_model(),
        ..SimConfig::default()
    };
    let horizon = SimTime::from_ms(4_000);

    let (net, rpc_pair, cross) = if quartz {
        let p = prototype_quartz();
        // Hosts: [S1: 0,1 | S2: 2,3 | S3: 4,5 | S4: 6,7].
        // RPC: Rsrc on S2 → Rdst on S3. Cross: both S1 servers and one
        // S4 server → the other S3 server. In the mesh, each cross flow
        // rides its own dedicated channel (S1→S3, S4→S3), so none shares
        // a link with the RPC — the topology property Figure 14
        // demonstrates ("the RPC latency is unaffected by cross-traffic
        // with Quartz").
        (
            p.net,
            (p.hosts[2], p.hosts[4]),
            vec![
                (p.hosts[0], p.hosts[5]),
                (p.hosts[1], p.hosts[5]),
                (p.hosts[6], p.hosts[5]),
            ],
        )
    } else {
        let p = prototype_two_tier();
        // Hosts: [T1: 0,1 | T2: 2,3 | T3: 4,5], root S1.
        // RPC: Rsrc on T1 → Rdst on T2. Cross: one T1 server and both T3
        // servers → the other T2 server: all three share the root→T2
        // link with the RPC.
        (
            p.net,
            (p.hosts[0], p.hosts[2]),
            vec![
                (p.hosts[1], p.hosts[3]),
                (p.hosts[4], p.hosts[3]),
                (p.hosts[5], p.hosts[3]),
            ],
        )
    };

    let mut sim = Simulator::new(net, cfg);
    sim.add_flow(
        rpc_pair.0,
        rpc_pair.1,
        RPC_SIZE,
        FlowKind::Rpc { count: rpc_count },
        0,
        SimTime::from_us(10),
    );
    if cross_mbps > 0.0 {
        let gbps = cross_mbps / 1_000.0;
        let period_ns = (BURST_BYTES * 8.0 / gbps) as u64;
        for (i, &(s, d)) in cross.iter().enumerate() {
            sim.add_flow(
                s,
                d,
                1_500,
                FlowKind::Burst {
                    burst_pkts: BURST_PKTS,
                    period_ns,
                    stop: horizon,
                },
                1,
                // Stagger the unsynchronized sources (§6.1: "the bursty
                // traffic from the three servers are not synchronized").
                SimTime::from_ns(period_ns / 3 * i as u64),
            );
        }
    }
    sim.run(horizon);
    let s = sim.stats().summary(0);
    assert_eq!(
        s.count as u32, rpc_count,
        "RPC loop must complete: got {} of {rpc_count}",
        s.count
    );
    s.mean_ns
}

/// Sweeps cross-traffic 0..=200 Mb/s per source over `pool`: the two zero-cross baselines and
/// every `(wiring, Mb/s)` sweep point are independent simulations, so
/// all of them parallelize; ratios are formed afterwards on this
/// thread, bit-identical at any worker count.
pub fn run(scale: Scale, pool: &ThreadPool) -> Vec<Point> {
    let (rpc_count, step) = match scale {
        Scale::Paper => (10_000, 25.0),
        Scale::Quick => (300, 100.0),
    };
    let mut sweep = Vec::new();
    let mut mbps = 0.0;
    while mbps <= 200.0 + 1e-9 {
        sweep.push(mbps);
        mbps += step;
    }
    // Units: the two baselines first, then (tree, quartz) per point —
    // the exact evaluation order of the sequential loop.
    let units: Vec<(bool, f64)> = [(false, 0.0), (true, 0.0)]
        .into_iter()
        .chain(sweep.iter().flat_map(|&m| [(false, m), (true, m)]))
        .collect();
    let lat = pool.par_map(units.len(), |i| {
        let (quartz, mbps) = units[i];
        rpc_latency_ns(quartz, mbps, rpc_count, 1)
    });
    let (base_tree, base_quartz) = (lat[0], lat[1]);
    sweep
        .iter()
        .enumerate()
        .map(|(j, &m)| Point {
            cross_mbps: m,
            tree: lat[2 + 2 * j] / base_tree,
            quartz: lat[3 + 2 * j] / base_quartz,
        })
        .collect()
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(points: &[Point]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("fig14.points", points.len() as u64);
    for p in points {
        m.set_gauge(&format!("fig14.tree.mbps{:03.0}", p.cross_mbps), p.tree);
        m.set_gauge(&format!("fig14.quartz.mbps{:03.0}", p.cross_mbps), p.quartz);
    }
    m.to_ndjson()
}

/// Renders the computed points as the Figure 14 table.
pub fn render(points: &[Point]) {
    crate::outln!("Figure 14: impact of cross-traffic on normalized RPC latency\n");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.cross_mbps),
                format!("{:.3}", p.tree),
                format!("{:.3}", p.quartz),
            ]
        })
        .collect();
    crate::table::print_table(&["Cross-traffic (Mb/s)", "Two-tier tree", "Quartz"], &rows);
    crate::outln!(
        "\nPaper: at 200 Mb/s the tree RPC slows by >70% while Quartz is unaffected (§6.1)."
    );
}
