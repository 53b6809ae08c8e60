//! Absolute golden digests for the simulation engine, through both
//! of its fronts: `Simulator` (one domain, on the calling thread) and
//! `ShardedSim` at one and four domains.
//!
//! The differential suites (wheel vs heap, one domain vs many, one
//! worker vs many) compare two runs of one per-packet core, so a
//! change *inside* that core moves both sides together and no
//! differential notices. This file pins the absolute output instead:
//! FNV-1a digests of the per-tag statistics bits, the recorder's ndjson
//! bytes, the metrics ndjson, the completion and fault logs, plus the
//! raw `events_processed` count, on four scenarios that together reach
//! every flow kind, transport variant, VLB detour, SPAIN-pinned table,
//! fault kind, automatic and manual reroute, staged `run_until_samples`
//! runs, and retransmission timers that fire and go back N. A mismatch
//! means simulator output changed; the constants may only be
//! re-recorded by a change that explains why each number moved.

use quartz_core::pool::ThreadPool;
use quartz_netsim::shard::ShardedSim;
use quartz_netsim::sim::{FlowKind, SimConfig, Simulator, VlbConfig};
use quartz_netsim::stats::Stats;
use quartz_netsim::time::SimTime;
use quartz_netsim::transport::TcpVariant;
use quartz_netsim::{FaultPlan, FaultRecord, FlowCompletion};
use quartz_obs::event::to_ndjson;
use quartz_obs::{MemoryRecorder, MetricsRegistry, Recorder};
use quartz_topology::builders::{quartz_in_core, quartz_mesh, QuartzMesh};
use quartz_topology::graph::NodeId;
use quartz_topology::spain::SpainFabric;

/// 64-bit FNV-1a, fed field by field in little-endian byte order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digests of everything a run produces.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    stats: u64,
    trace: u64,
    metrics: u64,
    completions: u64,
    faults: u64,
    events: u64,
}

fn stats_digest(stats: &Stats) -> u64 {
    let mut h = Fnv::new();
    h.u64(stats.generated);
    h.u64(stats.delivered);
    h.u64(stats.dropped);
    for tag in (0..8).filter(|&t| stats.count(t) > 0) {
        let s = stats.summary(tag);
        h.u64(u64::from(tag));
        h.u64(s.count as u64);
        h.u64(s.mean_ns.to_bits());
        h.u64(s.ci95_ns.to_bits());
        h.u64(s.p50_ns);
        h.u64(s.p99_ns);
        h.u64(s.max_ns);
        h.u64(stats.mean_hops(tag).to_bits());
        for (hops, n) in stats.hop_distribution(tag) {
            h.u64(u64::from(hops));
            h.u64(n as u64);
        }
    }
    h.0
}

fn golden(
    stats: &Stats,
    recorder: Option<Box<dyn Recorder>>,
    metrics: Option<MetricsRegistry>,
    completions: &[FlowCompletion],
    faults: &[FaultRecord],
    events: u64,
) -> Golden {
    // Each scenario must exercise the paths it is meant to pin.
    assert!(stats.delivered > 0 && stats.dropped > 0, "traffic and loss");
    assert!(!completions.is_empty(), "managed flows complete");
    assert!(!faults.is_empty(), "faults fire");
    let recorded = recorder.expect("recorder attached").finish();
    let mut trace = Fnv::new();
    trace.bytes(to_ndjson(&recorded).as_bytes());
    let mut m = Fnv::new();
    m.bytes(metrics.expect("metrics enabled").to_ndjson().as_bytes());
    let mut c = Fnv::new();
    for r in completions {
        c.u64(u64::from(r.flow));
        c.u64(r.fct_ns);
    }
    let mut f = Fnv::new();
    for r in faults {
        f.u64(r.at.ns());
        f.bytes(format!("{:?}", r.kind).as_bytes());
        f.u64(r.reconverged_at.map_or(u64::MAX, SimTime::ns));
        f.u64(r.drops_during_outage);
    }
    Golden {
        stats: stats_digest(stats),
        trace: trace.0,
        metrics: m.0,
        completions: c.0,
        faults: f.0,
        events,
    }
}

/// `Simulator` with automatic reconvergence: a VLB mesh carrying
/// Poisson echo, bursts, RPC, Reno and DCTCP (under ECN), a paced file
/// transfer and a SPAIN-pinned RPC flow, through a ring cut and its
/// repair plus a switch death and recovery.
fn simulator_auto() -> Golden {
    let q = quartz_mesh(6, 3, 10.0, 10.0);
    let mut sim = Simulator::new(
        q.net.clone(),
        SimConfig {
            seed: 0x601D,
            vlb: Some(VlbConfig {
                fraction: 0.3,
                domains: vec![q.switches.clone()],
            }),
            ecn_threshold_bytes: Some(30_000),
            reconvergence_ns: Some(50_000),
            ..SimConfig::default()
        },
    );
    let stop = SimTime::from_ms(2);
    let n = q.hosts.len();
    for (i, &src) in q.hosts.iter().enumerate() {
        let dst = q.hosts[(i + 4) % n];
        let tag = (i % 5) as u32;
        let kind = match i % 5 {
            0 => FlowKind::Poisson {
                mean_gap_ns: 1_200.0,
                stop,
                respond: true,
            },
            1 => FlowKind::Burst {
                burst_pkts: 16,
                period_ns: 30_000,
                stop,
            },
            2 => FlowKind::Rpc { count: 60 },
            3 => FlowKind::Transport {
                total_bytes: 120_000,
                variant: TcpVariant::Reno,
            },
            _ => FlowKind::Transport {
                total_bytes: 150_000,
                variant: TcpVariant::Dctcp,
            },
        };
        let size = if i % 5 >= 3 { 1_000 } else { 400 };
        sim.add_flow(src, dst, size, kind, tag, SimTime::from_ns(37 * i as u64));
    }
    sim.add_flow(
        q.hosts[1],
        q.hosts[n - 1],
        1_000,
        FlowKind::FileTransfer {
            total_bytes: 90_000,
        },
        5,
        SimTime::from_us(5),
    );
    let spain = SpainFabric::per_switch(&q.net);
    let table = sim
        .add_route_table(spain.table(2).clone())
        .expect("VLAN trees span the mesh");
    let pinned = sim.add_flow(
        q.hosts[0],
        q.hosts[7],
        200,
        FlowKind::Rpc { count: 40 },
        6,
        SimTime::ZERO,
    );
    sim.pin_flow_to_table(pinned, table)
        .expect("the flow and the table exist");
    let cut = q
        .net
        .link_between(q.switches[0], q.switches[1])
        .expect("mesh channel");
    let mut plan = FaultPlan::new();
    plan.link_down(cut, SimTime::from_us(400))
        .link_up(cut, SimTime::from_us(1_100))
        .switch_down(q.switches[4], SimTime::from_us(700))
        .switch_up(q.switches[4], SimTime::from_us(1_500));
    sim.apply_fault_plan(&plan)
        .expect("mesh links and switches");
    sim.set_recorder(Box::new(MemoryRecorder::new()));
    sim.enable_metrics();
    sim.run(SimTime::from_ms(4));
    let (recorder, metrics) = (sim.take_recorder(), sim.take_metrics());
    golden(
        sim.stats(),
        recorder,
        metrics,
        sim.flow_completions(),
        sim.fault_log(),
        sim.events_processed(),
    )
}

/// `Simulator` under a static control plane: staged by
/// `run_until_samples`, cut mid-run, then rerouted by hand.
fn simulator_manual() -> Golden {
    let q = quartz_mesh(4, 2, 10.0, 10.0);
    let mut sim = Simulator::new(
        q.net.clone(),
        SimConfig {
            seed: 0x3A7,
            ..SimConfig::default()
        },
    );
    sim.set_recorder(Box::new(MemoryRecorder::new()));
    sim.enable_metrics();
    for i in 0..4 {
        sim.add_flow(
            q.hosts[i],
            q.hosts[i + 4],
            400,
            FlowKind::Rpc { count: 30 },
            0,
            SimTime::ZERO,
        );
        sim.add_flow(
            q.hosts[i + 4],
            q.hosts[(i + 2) % 8],
            400,
            FlowKind::Burst {
                burst_pkts: 8,
                period_ns: 20_000,
                stop: SimTime::from_ms(3),
            },
            1,
            SimTime::ZERO,
        );
    }
    sim.add_flow(
        q.hosts[0],
        q.hosts[3],
        1_000,
        FlowKind::Transport {
            total_bytes: 200_000,
            variant: TcpVariant::Reno,
        },
        2,
        SimTime::ZERO,
    );
    assert!(sim.run_until_samples(0, 50, SimTime::from_ms(5)));
    let cut = q
        .net
        .link_between(q.switches[0], q.switches[2])
        .expect("mesh channel");
    let mut plan = FaultPlan::new();
    plan.link_down(cut, sim.now() + 1_000);
    sim.apply_fault_plan(&plan).expect("mesh channel");
    sim.run(SimTime::from_ms(1));
    sim.reroute();
    sim.run(SimTime::from_ms(8));
    let (recorder, metrics) = (sim.take_recorder(), sim.take_metrics());
    golden(
        sim.stats(),
        recorder,
        metrics,
        sim.flow_completions(),
        sim.fault_log(),
        sim.events_processed(),
    )
}

/// `ShardedSim` on the Quartz-in-core composite: all five flow kinds,
/// VLB inside one pod, ECN, core ring and uplink cuts, and a core
/// switch death and recovery.
fn sharded(domains: usize) -> Golden {
    let c = quartz_in_core(3, 4, 2, 4);
    // Pod 0's ToRs and aggregation switches form the VLB domain: a ToR
    // can detour through the aggregation switch ECMP did not pick.
    let agg = |tor| c.net.neighbors(tor).iter().map(|&(n, _)| n);
    let mut pod0: Vec<_> = c.edges[..3].to_vec();
    for a in agg(c.edges[0]).filter(|n| !c.hosts.contains(n)) {
        pod0.push(a);
    }
    let cfg = SimConfig {
        seed: 0x5A4D,
        vlb: Some(VlbConfig {
            fraction: 0.4,
            domains: vec![pod0],
        }),
        ecn_threshold_bytes: Some(40_000),
        reconvergence_ns: Some(50_000),
        ..SimConfig::default()
    };
    let mut sim = ShardedSim::new(c.net.clone(), cfg, domains);
    let n = c.hosts.len();
    let stop = SimTime::from_ms(2);
    for i in 0..n {
        let src = c.hosts[i];
        let dst = c.hosts[(i + n / 2 + 1) % n];
        let kind = match i % 5 {
            0 => FlowKind::Poisson {
                mean_gap_ns: 3_000.0,
                stop,
                respond: i % 2 == 0,
            },
            1 => FlowKind::Rpc { count: 40 },
            2 => FlowKind::Burst {
                burst_pkts: 12,
                period_ns: 50_000,
                stop,
            },
            3 => FlowKind::FileTransfer {
                total_bytes: 40_000,
            },
            _ => FlowKind::Transport {
                total_bytes: 80_000,
                variant: if i % 2 == 0 {
                    TcpVariant::Reno
                } else {
                    TcpVariant::Dctcp
                },
            },
        };
        let size = if i % 5 >= 3 { 1_000 } else { 400 };
        sim.add_flow(
            src,
            dst,
            size,
            kind,
            (i % 5) as u32,
            SimTime::from_us(i as u64),
        );
    }
    let ring = c
        .net
        .link_between(c.uppers[0], c.uppers[1])
        .expect("core ring channel");
    let pod1_agg = agg(c.edges[3])
        .find(|n| !c.hosts.contains(n))
        .expect("pod 1 aggregation switch");
    let uplink = c
        .net
        .link_between(pod1_agg, c.uppers[0])
        .expect("aggregation-to-core uplink");
    let mut plan = FaultPlan::new();
    plan.link_down(ring, SimTime::from_us(500))
        .link_down(uplink, SimTime::from_us(500))
        .link_up(uplink, SimTime::from_us(1_300))
        .switch_down(c.uppers[2], SimTime::from_us(900))
        .switch_up(c.uppers[2], SimTime::from_us(1_600));
    sim.apply_fault_plan(&plan)
        .expect("composite links and switches");
    sim.set_recorder(Box::new(MemoryRecorder::new()));
    sim.enable_metrics();
    sim.run(SimTime::from_ms(5), &ThreadPool::sequential());
    let (recorder, metrics) = (sim.take_recorder(), sim.take_metrics());
    golden(
        sim.stats(),
        recorder,
        metrics,
        sim.flow_completions(),
        sim.fault_log(),
        sim.events_processed(),
    )
}

/// A loss-heavy Reno incast: twelve senders on three switches converge
/// on one host behind 6 kB drop-tail queues, so fast retransmit is not
/// enough and retransmission timers fire and go back N. A channel into
/// the receiver's switch is cut at 100 µs and repaired at 400 µs.
fn incast() -> (QuartzMesh, SimConfig, FaultPlan) {
    let q = quartz_mesh(4, 4, 10.0, 10.0);
    let cfg = SimConfig {
        seed: 0x1CA5,
        queue_cap_bytes: 6_000,
        reconvergence_ns: Some(50_000),
        ..SimConfig::default()
    };
    let cut = q
        .net
        .link_between(q.switches[0], q.switches[1])
        .expect("mesh channel");
    let mut plan = FaultPlan::new();
    plan.link_down(cut, SimTime::from_us(100))
        .link_up(cut, SimTime::from_us(400));
    (q, cfg, plan)
}

/// The incast's flows: `(src, dst, kind, tag, start)`.
fn incast_flows(q: &QuartzMesh) -> Vec<(NodeId, NodeId, FlowKind, u32, SimTime)> {
    (4..16)
        .map(|i| {
            let kind = FlowKind::Transport {
                total_bytes: 40_000,
                variant: TcpVariant::Reno,
            };
            let start = SimTime::from_ns(100 * i as u64);
            (q.hosts[i], q.hosts[0], kind, (i % 3) as u32, start)
        })
        .collect()
}

/// The incast on `Simulator`.
fn simulator_incast() -> Golden {
    let (q, cfg, plan) = incast();
    let mut sim = Simulator::new(q.net.clone(), cfg);
    for (src, dst, kind, tag, start) in incast_flows(&q) {
        sim.add_flow(src, dst, 1_000, kind, tag, start);
    }
    sim.apply_fault_plan(&plan).expect("mesh links");
    sim.set_recorder(Box::new(MemoryRecorder::new()));
    sim.enable_metrics();
    sim.run(SimTime::from_ms(40));
    let (recorder, metrics) = (sim.take_recorder(), sim.take_metrics());
    golden(
        sim.stats(),
        recorder,
        metrics,
        sim.flow_completions(),
        sim.fault_log(),
        sim.events_processed(),
    )
}

/// The incast on `ShardedSim` at `domains` domains.
fn sharded_incast(domains: usize) -> Golden {
    let (q, cfg, plan) = incast();
    let mut sim = ShardedSim::new(q.net.clone(), cfg, domains);
    for (src, dst, kind, tag, start) in incast_flows(&q) {
        sim.add_flow(src, dst, 1_000, kind, tag, start);
    }
    sim.apply_fault_plan(&plan).expect("mesh links");
    sim.set_recorder(Box::new(MemoryRecorder::new()));
    sim.enable_metrics();
    sim.run(SimTime::from_ms(40), &ThreadPool::sequential());
    let (recorder, metrics) = (sim.take_recorder(), sim.take_metrics());
    golden(
        sim.stats(),
        recorder,
        metrics,
        sim.flow_completions(),
        sim.fault_log(),
        sim.events_processed(),
    )
}

const SIMULATOR_AUTO: Golden = Golden {
    stats: 0xc9f28acb7ed1f4d9,
    trace: 0xb95bdec058ff367b,
    metrics: 0xed777632dc9d7437,
    completions: 0x32fb94ebb387bb05,
    faults: 0xaab43b33360becec,
    events: 67_523,
};

const SIMULATOR_MANUAL: Golden = Golden {
    stats: 0xea17d1ff98e533bd,
    trace: 0xe613aee837a1b2c2,
    metrics: 0xb8171da43273e228,
    completions: 0xd6b413924ac50575,
    faults: 0x9a7c7812f78d8e5c,
    events: 16_798,
};

const SHARDED: Golden = Golden {
    stats: 0x2961f0ef5055b2be,
    trace: 0x9c591250bab51155,
    metrics: 0x22ef61723a94f5af,
    completions: 0x8157a3486a3b6fad,
    faults: 0xc29bcf3cf12207a3,
    events: 59_510,
};

const SHARDED_INCAST: Golden = Golden {
    stats: 0x6bb063fb1b40e8b7,
    trace: 0x65e3d1c73aa371e4,
    metrics: 0x98da0a52f33254f9,
    completions: 0x904685686eef69aa,
    faults: 0xe6484fbe3e32a5cd,
    events: 3_132,
};

#[test]
fn simulator_auto_reconvergence_output_is_pinned() {
    assert_eq!(simulator_auto(), SIMULATOR_AUTO);
}

#[test]
fn simulator_manual_reroute_output_is_pinned() {
    assert_eq!(simulator_manual(), SIMULATOR_MANUAL);
}

#[test]
fn sharded_output_is_pinned_at_one_domain() {
    assert_eq!(sharded(1), SHARDED);
}

#[test]
fn sharded_output_is_pinned_at_four_domains() {
    assert_eq!(sharded(4), SHARDED);
}

#[test]
fn simulator_incast_output_is_pinned() {
    // `Simulator` is the engine at one domain.
    assert_eq!(simulator_incast(), SHARDED_INCAST);
}

#[test]
fn sharded_incast_output_is_pinned_at_one_domain() {
    assert_eq!(sharded_incast(1), SHARDED_INCAST);
}

#[test]
fn sharded_incast_output_is_pinned_at_four_domains() {
    assert_eq!(sharded_incast(4), SHARDED_INCAST);
}
