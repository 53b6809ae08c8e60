//! Absolute golden digests for both simulation engines.
//!
//! The differential suites (batched vs per-packet drain, wheel vs heap,
//! one domain vs many) compare two runs of code that shares one
//! per-packet core, so a change *inside* that core moves both sides
//! together and no differential notices. This file pins the absolute
//! output instead: FNV-1a digests of the per-tag statistics bits, the
//! recorder's ndjson bytes, the metrics ndjson, the completion and fault
//! logs, plus the raw `events_processed` count, on three scenarios that
//! together reach every flow kind, transport variant, VLB detour,
//! SPAIN-pinned table, fault kind and reroute path. A mismatch means
//! simulator output changed; the constants may only be re-recorded by a
//! change that explains why each number moved.

use quartz_core::pool::ThreadPool;
use quartz_netsim::shard::ShardedSim;
use quartz_netsim::sim::{FlowKind, SimConfig, Simulator, VlbConfig};
use quartz_netsim::stats::Stats;
use quartz_netsim::time::SimTime;
use quartz_netsim::transport::TcpVariant;
use quartz_netsim::{FaultPlan, FaultRecord, FlowCompletion};
use quartz_obs::{MemoryRecorder, MetricsRegistry, NdjsonRecorder, Recorder};
use quartz_topology::builders::{quartz_in_core, quartz_mesh};
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
    for tag in stats.tags() {
        let s = stats.summary(tag);
        h.u64(u64::from(tag));
        h.u64(s.count as u64);
        h.u64(s.mean_ns.to_bits());
        h.u64(s.ci95_ns.to_bits());
        h.u64(s.p50_ns);
        h.u64(s.p99_ns);
        h.u64(s.max_ns);
        h.u64(stats.delivered_bytes(tag));
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
    let mut nd = NdjsonRecorder::new(Vec::new());
    for ev in &recorder.expect("recorder attached").finish() {
        nd.record(ev);
    }
    let mut trace = Fnv::new();
    trace.bytes(&nd.into_inner());
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
    sim.pin_flow_to_table(pinned, table);
    let cut = q
        .net
        .link_between(q.switches[0], q.switches[1])
        .expect("mesh channel");
    let mut plan = FaultPlan::new();
    plan.link_down(cut, SimTime::from_us(400))
        .link_up(cut, SimTime::from_us(1_100))
        .switch_down(q.switches[4], SimTime::from_us(700))
        .switch_up(q.switches[4], SimTime::from_us(1_500));
    sim.apply_fault_plan(&plan);
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
    sim.fail_link_at(cut, sim.now() + 1_000);
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
    sim.apply_fault_plan(&plan);
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

const SIMULATOR_AUTO: Golden = Golden {
    stats: 0x5a4e46692dc5682d,
    trace: 0xe449b61d1513c8f1,
    metrics: 0x288782992b1c7a31,
    completions: 0x139790a177792872,
    faults: 0x47b179000d853c18,
    events: 68_432,
};

const SIMULATOR_MANUAL: Golden = Golden {
    stats: 0x4739b1ffce4ab7d7,
    trace: 0x693665e081636420,
    metrics: 0x114584b85f425ecc,
    completions: 0x5eff01e49aaf1810,
    faults: 0xe311c80f591377d3,
    events: 17_004,
};

const SHARDED: Golden = Golden {
    stats: 0x9637f0688fedbf82,
    trace: 0x9c591250bab51155,
    metrics: 0x22ef61723a94f5af,
    completions: 0x8157a3486a3b6fad,
    faults: 0xc29bcf3cf12207a3,
    events: 59_774,
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
