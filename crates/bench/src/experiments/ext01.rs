//! Extension experiment E1 — protocols vs. topology.
//!
//! §2.1.4 argues that protocol-level fixes (DCTCP and friends) reduce
//! queueing but "are limited by the amount of path diversity in the
//! underlying network topology". This experiment quantifies that with
//! the transport layer: a latency-sensitive RPC probe shares the network
//! with three bulk, congestion-controlled transfers aimed at a server on
//! the probe's destination switch.
//!
//! * **Tree + Reno** — the transfers fill the shared root link's
//!   drop-tail buffer; the probe queues behind megabytes.
//! * **Tree + DCTCP** — ECN keeps the shared queue near the marking
//!   threshold; the probe improves by an order of magnitude, but still
//!   rides a shared, contended link.
//! * **Quartz + Reno** — no shared link exists at all: the probe sees an
//!   idle channel, beating even DCTCP-on-tree *without any protocol
//!   help*. That is the paper's architectural argument.

use crate::table::print_table;
use crate::Scale;
use quartz_core::pool::ThreadPool;
use quartz_netsim::sim::{FlowKind, SimConfig, Simulator};
use quartz_netsim::time::SimTime;
use quartz_netsim::transport::TcpVariant;
use quartz_topology::builders::{prototype_quartz, prototype_two_tier};

/// One configuration's probe results.
#[derive(Clone, Debug)]
pub struct Row {
    /// Configuration label.
    pub config: &'static str,
    /// Probe RPC mean round trip, µs.
    pub probe_mean_us: f64,
    /// Probe p99 round trip, µs.
    pub probe_p99_us: f64,
    /// Packets dropped anywhere in the network.
    pub drops: u64,
}

fn run_one(quartz: bool, variant: TcpVariant, ecn: Option<u64>, rpc_count: u32) -> Row {
    let (net, rpc, bulk_pairs, label) = if quartz {
        let p = prototype_quartz();
        (
            p.net,
            (p.hosts[2], p.hosts[4]),
            vec![
                (p.hosts[0], p.hosts[5]),
                (p.hosts[1], p.hosts[5]),
                (p.hosts[6], p.hosts[5]),
            ],
            match variant {
                TcpVariant::Reno => "Quartz + Reno",
                TcpVariant::Dctcp => "Quartz + DCTCP",
            },
        )
    } else {
        let p = prototype_two_tier();
        (
            p.net,
            (p.hosts[0], p.hosts[2]),
            vec![
                (p.hosts[1], p.hosts[3]),
                (p.hosts[4], p.hosts[3]),
                (p.hosts[5], p.hosts[3]),
            ],
            match variant {
                TcpVariant::Reno => "Two-tier tree + Reno",
                TcpVariant::Dctcp => "Two-tier tree + DCTCP",
            },
        )
    };
    let mut sim = Simulator::new(
        net,
        SimConfig {
            ecn_threshold_bytes: ecn,
            ..SimConfig::default()
        },
    );
    // The 400 MB transfers take ~9.6 s at a third of 1 Gb/s each, so
    // they outlast every probe that fits this horizon.
    let horizon = SimTime::from_ms(8_000);
    sim.add_flow(
        rpc.0,
        rpc.1,
        100,
        FlowKind::Rpc { count: rpc_count },
        0,
        SimTime::ZERO,
    );
    for &(s, d) in &bulk_pairs {
        sim.add_flow(
            s,
            d,
            1_000,
            FlowKind::Transport {
                // Big enough to stay active for the whole probe run.
                total_bytes: 400_000_000,
                variant,
            },
            1,
            SimTime::ZERO,
        );
    }
    // Run until the probe completes (the bulk transfers are sized to
    // outlast it) rather than simulating the whole horizon.
    let done = sim.run_until_samples(0, rpc_count as usize, horizon);
    assert!(done, "{label}: probe did not finish before the horizon");
    let s = sim.stats().summary(0);
    Row {
        config: label,
        probe_mean_us: s.mean_us(),
        probe_p99_us: s.p99_ns as f64 / 1e3,
        drops: sim.stats().dropped,
    }
}

/// Runs the three §2.1.4 configurations, plus Quartz+DCTCP for
/// completeness, as independent units over `pool`.
pub fn run(scale: Scale, pool: &ThreadPool) -> Vec<Row> {
    // Counts sized so even the slowest configuration (tree + Reno, whose
    // probe RTT averages ~2.2 ms under the bulk transfers) finishes
    // within the horizon.
    let rpc_count = match scale {
        Scale::Paper => 2_000,
        Scale::Quick => 300,
    };
    // DCTCP's K: ~30 kB at 1 Gb/s (the DCTCP paper's guidance scales K
    // with link rate).
    let k = Some(30_000);
    let configs = [
        (false, TcpVariant::Reno, None),
        (false, TcpVariant::Dctcp, k),
        (true, TcpVariant::Reno, None),
        (true, TcpVariant::Dctcp, k),
    ];
    pool.par_map(configs.len(), |i| {
        let (quartz, variant, ecn) = configs[i];
        run_one(quartz, variant, ecn, rpc_count)
    })
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(rows: &[Row]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("ext01.rows", rows.len() as u64);
    for r in rows {
        let key = r
            .config
            .to_ascii_lowercase()
            .replace([' ', '+'], "_")
            .replace("__", "_");
        m.set_gauge(&format!("ext01.probe_mean_us.{key}"), r.probe_mean_us);
        m.set_gauge(&format!("ext01.probe_p99_us.{key}"), r.probe_p99_us);
        m.inc(&format!("ext01.drops.{key}"), r.drops);
    }
    m.to_ndjson()
}

/// Renders the computed rows as the E1 table.
pub fn render(rows: &[Row]) {
    crate::outln!("Extension E1: protocol fixes vs topology (probe RPC under bulk transfers)\n");
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.to_string(),
                format!("{:.1}", r.probe_mean_us),
                format!("{:.1}", r.probe_p99_us),
                r.drops.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "Configuration",
            "Probe mean (µs)",
            "Probe p99 (µs)",
            "Drops",
        ],
        &rows,
    );
    crate::outln!("\n§2.1.4: DCTCP shortens the tree's shared queue by an order of magnitude, but the Quartz mesh removes the shared queue entirely — topology beats protocol.");
}
