//! Retransmission-timer events scale with simulated time, not with ACKs.
//!
//! Every ACK that moves a sender's window re-arms its [`RTO_NS`] timer.
//! A connection keeps one timer event queued and moves it forward to the
//! latest arm when it pops, so over a lossless run each connection pops
//! about one timer event per `RTO_NS` of simulated time, however many
//! ACKs it received. The timer pops are what `events_processed` counts
//! beyond packet arrivals (one per hop of every delivered packet) and
//! generation events (one per transport flow).

use quartz_core::pool::ThreadPool;
use quartz_netsim::shard::ShardedSim;
use quartz_netsim::sim::{FlowKind, SimConfig, Simulator};
use quartz_netsim::stats::Stats;
use quartz_netsim::time::SimTime;
use quartz_netsim::transport::{TcpVariant, RTO_NS};
use quartz_topology::builders::{quartz_mesh, QuartzMesh};
use quartz_topology::graph::NodeId;

const FLOWS: u64 = 8;

/// Each flow: a lossless 300-segment DCTCP transfer.
const TRANSFER: FlowKind = FlowKind::Transport {
    total_bytes: 300_000,
    variant: TcpVariant::Dctcp,
};

/// Eight transfers on a 4-switch mesh under ECN marking, each crossing
/// one channel: `(mesh, config, [(src, dst)])`.
fn scenario() -> (QuartzMesh, SimConfig, Vec<(NodeId, NodeId)>) {
    let q = quartz_mesh(4, 2, 10.0, 10.0);
    let cfg = SimConfig {
        seed: 0x7143,
        ecn_threshold_bytes: Some(30_000),
        ..SimConfig::default()
    };
    let pairs = (0..FLOWS as usize)
        .map(|i| (q.hosts[i], q.hosts[(i + 3) % 8]))
        .collect();
    (q, cfg, pairs)
}

/// Asserts the run was lossless and complete, and that its timer pops
/// stay within one per `RTO_NS` per flow (plus the first and last).
fn check(stats: &Stats, completions: usize, events: u64, now: SimTime) {
    assert_eq!(stats.dropped, 0, "lossless");
    assert_eq!(completions as u64, FLOWS, "every transfer completes");
    let arrivals: u64 = (0..FLOWS as u32)
        .filter(|&tag| stats.count(tag) > 0)
        .flat_map(|tag| stats.hop_distribution(tag))
        .map(|(hops, n)| u64::from(hops) * n as u64)
        .sum();
    let timer_pops = events - arrivals - FLOWS;
    let bound = FLOWS * (now.ns().div_ceil(RTO_NS) + 2);
    assert!(
        timer_pops <= bound,
        "{timer_pops} timer events over {} ns for {FLOWS} flows (bound {bound})",
        now.ns()
    );
    // The transfers really did re-arm on (nearly) every ACK.
    assert!(stats.delivered >= 2 * 300 * FLOWS, "data and ACKs");
}

#[test]
fn simulator_timer_events_scale_with_time() {
    let (q, cfg, pairs) = scenario();
    let mut sim = Simulator::new(q.net, cfg);
    for (tag, (src, dst)) in pairs.into_iter().enumerate() {
        sim.add_flow(src, dst, 1_000, TRANSFER, tag as u32, SimTime::ZERO);
    }
    sim.run(SimTime::from_ms(100));
    check(
        sim.stats(),
        sim.flow_completions().len(),
        sim.events_processed(),
        sim.now(),
    );
}

#[test]
fn sharded_timer_events_scale_with_time() {
    for domains in [1, 4] {
        let (q, cfg, pairs) = scenario();
        let mut sim = ShardedSim::new(q.net, cfg, domains);
        for (tag, (src, dst)) in pairs.into_iter().enumerate() {
            sim.add_flow(src, dst, 1_000, TRANSFER, tag as u32, SimTime::ZERO);
        }
        sim.run(SimTime::from_ms(100), &ThreadPool::sequential());
        check(
            sim.stats(),
            sim.flow_completions().len(),
            sim.events_processed(),
            sim.now(),
        );
    }
}
