//! Differential test for the sharded engine's determinism contract:
//! [`ShardedSim`] must produce byte-identical output at every domain
//! count — same stats bits, same ndjson trace bytes, same flow
//! completion log, same fault log, same merged metrics, same per-link
//! transmission totals — on a loaded VLB mesh with bursty traffic, a
//! DCTCP transfer under ECN, a mid-run fiber cut plus repair, and on a
//! Figure 15 Quartz-in-core composite.
//! Each domain count is also re-run across 1, 2, and 8 pool workers to
//! pin that the thread schedule cannot leak into the output. A run
//! stopped mid-flight and resumed must equal an uninterrupted one, and
//! the engine's work counters (windows, boundary messages) are pinned.

use quartz_core::pool::ThreadPool;
use quartz_netsim::shard::ShardedSim;
use quartz_netsim::sim::{FlowKind, LinkLoad, SimConfig, VlbConfig};
use quartz_netsim::time::SimTime;
use quartz_netsim::transport::TcpVariant;
use quartz_netsim::FaultPlan;
use quartz_obs::event::to_ndjson;
use quartz_obs::MemoryRecorder;
use quartz_topology::builders::{quartz_in_core, quartz_mesh};
use quartz_topology::graph::Network;

/// Everything observable about one sharded run, in comparable form.
#[derive(Debug, PartialEq)]
struct Digest {
    generated: u64,
    delivered: u64,
    dropped: u64,
    /// Per tag: count, mean bits, ci95 bits, p50, p99, max,
    /// mean-hops bits, hop distribution.
    per_tag: Vec<(u32, TagDigest)>,
    completions: Vec<(u32, u64)>,
    faults: Vec<(u64, Option<u64>, u64)>,
    /// Per link: busy ns and bytes in each direction, summed over the
    /// domains that own the two directions.
    link_loads: Vec<LinkLoad>,
    ndjson: String,
    metrics: String,
}

#[derive(Debug, PartialEq)]
struct TagDigest {
    count: usize,
    mean_bits: u64,
    ci95_bits: u64,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    mean_hops_bits: u64,
    hop_dist: Vec<(u32, usize)>,
}

/// The engine's deterministic work counters after a run.
#[derive(Debug, PartialEq)]
struct Work {
    windows: u64,
    boundary_messages: u64,
}

/// Runs `populate`d traffic on `net` under `cfg` with `k` domains and
/// `workers` pool threads, capturing every output channel. The run
/// stops at each of `stops` in turn and resumes; every stop but the
/// last must find events still pending.
fn run_sharded(
    net: &Network,
    cfg: &SimConfig,
    k: usize,
    workers: usize,
    stops: &[SimTime],
    populate: impl FnOnce(&mut ShardedSim),
) -> (Digest, Work) {
    let mut sim = ShardedSim::new(net.clone(), cfg.clone(), k);
    populate(&mut sim);
    sim.set_recorder(Box::new(MemoryRecorder::new()));
    sim.enable_metrics();
    let pool = ThreadPool::new(workers);
    for (i, &until) in stops.iter().enumerate() {
        sim.run(until, &pool);
        if i + 1 < stops.len() {
            assert!(
                sim.has_pending_events(),
                "nothing pending at {until} ({k} domains, {workers} workers)"
            );
        }
    }
    let work = Work {
        windows: sim.windows(),
        boundary_messages: sim.boundary_messages(),
    };

    // The trace-determinism contract is stated over the ndjson bytes.
    let events = sim.take_recorder().expect("recorder attached").finish();
    let ndjson = to_ndjson(&events);
    let metrics = sim
        .take_metrics()
        .map(|m| m.to_ndjson())
        .unwrap_or_default();

    let stats = sim.stats();
    let per_tag = (0..8)
        .filter(|&tag| stats.count(tag) > 0)
        .map(|tag| {
            let s = stats.summary(tag);
            (
                tag,
                TagDigest {
                    count: s.count,
                    mean_bits: s.mean_ns.to_bits(),
                    ci95_bits: s.ci95_ns.to_bits(),
                    p50_ns: s.p50_ns,
                    p99_ns: s.p99_ns,
                    max_ns: s.max_ns,
                    mean_hops_bits: stats.mean_hops(tag).to_bits(),
                    hop_dist: stats.hop_distribution(tag),
                },
            )
        })
        .collect();
    let digest = Digest {
        generated: stats.generated,
        delivered: stats.delivered,
        dropped: stats.dropped,
        per_tag,
        completions: sim
            .flow_completions()
            .iter()
            .map(|c| (c.flow, c.fct_ns))
            .collect(),
        faults: sim
            .fault_log()
            .iter()
            .map(|r| {
                (
                    r.at.ns(),
                    r.reconverged_at.map(SimTime::ns),
                    r.drops_during_outage,
                )
            })
            .collect(),
        link_loads: sim.link_loads(),
        ndjson,
        metrics,
    };
    (digest, work)
}

/// Whether both directions of some link carried bytes: a run whose
/// totals lose a direction reads zero there at every domain count.
fn loads_both_directions(d: &Digest) -> bool {
    d.link_loads.iter().any(|l| l.ab_bytes > 0) && d.link_loads.iter().any(|l| l.ba_bytes > 0)
}

/// The fig. 6-flavored mesh scenario: VLB detours over the full ring,
/// Poisson echo + burst cross-traffic, a paced file transfer, a DCTCP
/// transfer with ECN marking, and a ring fiber cut at 0.5 ms repaired
/// at 1.2 ms (the control plane reconverges 50 µs after each).
fn mesh_digest(k: usize, workers: usize) -> Digest {
    let q = quartz_mesh(4, 4, 10.0, 10.0);
    let ring_link = q
        .net
        .links()
        .find(|l| q.switches.contains(&l.a) && q.switches.contains(&l.b))
        .expect("mesh has ring links")
        .id;
    let cfg = SimConfig {
        seed: 0xD1FF,
        vlb: Some(VlbConfig {
            fraction: 0.3,
            domains: vec![q.switches.clone()],
        }),
        ecn_threshold_bytes: Some(30_000),
        reconvergence_ns: Some(50_000),
        ..SimConfig::default()
    };
    let stop = SimTime::from_ms(2);
    let n = q.hosts.len();
    let stops = [SimTime::from_ms(3)];
    let (digest, _) = run_sharded(&q.net, &cfg, k, workers, &stops, |sim| {
        for (i, &src) in q.hosts.iter().enumerate() {
            let dst = q.hosts[(i + 5) % n];
            match i % 3 {
                0 => sim.add_flow(
                    src,
                    dst,
                    400,
                    FlowKind::Poisson {
                        mean_gap_ns: 1_000.0,
                        stop,
                        respond: true,
                    },
                    0,
                    SimTime::ZERO,
                ),
                1 => sim.add_flow(
                    src,
                    dst,
                    400,
                    FlowKind::Burst {
                        burst_pkts: 24,
                        period_ns: 40_000,
                        stop,
                    },
                    1,
                    SimTime::ZERO,
                ),
                _ => sim.add_flow(
                    src,
                    dst,
                    400,
                    FlowKind::Poisson {
                        mean_gap_ns: 900.0,
                        stop,
                        respond: false,
                    },
                    2,
                    SimTime::ZERO,
                ),
            };
        }
        sim.add_flow(
            q.hosts[0],
            q.hosts[n - 1],
            1_000,
            FlowKind::Transport {
                total_bytes: 300_000,
                variant: TcpVariant::Dctcp,
            },
            3,
            SimTime::ZERO,
        );
        sim.add_flow(
            q.hosts[1],
            q.hosts[n - 2],
            1_000,
            FlowKind::FileTransfer {
                total_bytes: 80_000,
            },
            4,
            SimTime::from_us(10),
        );
        let mut plan = FaultPlan::new();
        plan.link_down(ring_link, SimTime::from_ns(500_000))
            .link_up(ring_link, SimTime::from_ns(1_200_000));
        sim.apply_fault_plan(&plan).expect("ring link");
    });
    digest
}

/// The Figure 15 Quartz-in-core composite: four pods whose cores are
/// replaced by a Quartz ring, with pod-crossing RPC, transport, and
/// file-transfer traffic (pod-crossing is what exercises the domain
/// boundaries — the partitioner groups whole pods).
fn composite_digest(k: usize, workers: usize) -> Digest {
    composite_run(k, workers, &[COMPOSITE_HORIZON]).0
}

/// Where the composite run ends.
const COMPOSITE_HORIZON: SimTime = SimTime::from_ms(4);

/// [`composite_digest`], stopping at each of `stops` in turn, with the
/// run's work counters.
fn composite_run(k: usize, workers: usize, stops: &[SimTime]) -> (Digest, Work) {
    let c = quartz_in_core(3, 4, 2, 4);
    let cfg = SimConfig {
        seed: 0xC0DE,
        ecn_threshold_bytes: Some(50_000),
        ..SimConfig::default()
    };
    let n = c.hosts.len();
    run_sharded(&c.net, &cfg, k, workers, stops, |sim| {
        for i in 0..n {
            let src = c.hosts[i];
            let dst = c.hosts[(i + n / 2) % n];
            match i % 3 {
                0 => sim.add_flow(src, dst, 400, FlowKind::Rpc { count: 40 }, 0, SimTime::ZERO),
                1 => sim.add_flow(
                    src,
                    dst,
                    1_000,
                    FlowKind::Transport {
                        total_bytes: 60_000,
                        variant: TcpVariant::Reno,
                    },
                    1,
                    SimTime::from_us(i as u64),
                ),
                _ => sim.add_flow(
                    src,
                    dst,
                    1_000,
                    FlowKind::FileTransfer {
                        total_bytes: 30_000,
                    },
                    2,
                    SimTime::from_us(2 * i as u64),
                ),
            };
        }
    })
}

#[test]
fn mesh_output_is_domain_count_invariant() {
    let reference = mesh_digest(1, 1);
    assert!(reference.delivered > 0, "scenario must carry traffic");
    assert!(reference.dropped > 0, "fault window must cost packets");
    assert!(!reference.ndjson.is_empty(), "trace must observe the run");
    assert!(
        !reference.metrics.is_empty(),
        "metrics must observe the run"
    );
    assert_eq!(reference.faults.len(), 2, "cut and repair both fire");
    assert!(
        loads_both_directions(&reference),
        "{:?}",
        reference.link_loads
    );
    for k in [2usize, 4, 8] {
        let other = mesh_digest(k, 1);
        assert_eq!(reference, other, "mesh run diverged at {k} domains");
    }
}

#[test]
fn mesh_output_is_worker_count_invariant() {
    let reference = mesh_digest(4, 1);
    for workers in [2usize, 8] {
        let other = mesh_digest(4, workers);
        assert_eq!(reference, other, "mesh run diverged at {workers} workers");
    }
}

#[test]
fn composite_output_is_domain_count_invariant() {
    let reference = composite_digest(1, 1);
    assert!(reference.delivered > 0, "scenario must carry traffic");
    assert!(
        !reference.completions.is_empty(),
        "transport and file flows must complete"
    );
    assert!(
        loads_both_directions(&reference),
        "{:?}",
        reference.link_loads
    );
    for (k, workers) in [(2usize, 2usize), (4, 2), (4, 4), (8, 8)] {
        let other = composite_digest(k, workers);
        assert_eq!(
            reference, other,
            "composite run diverged at {k} domains / {workers} workers"
        );
    }
}

#[test]
fn composite_resumed_mid_flight_equals_one_run() {
    let reference = composite_digest(1, 1);
    // 60 µs is mid-flight: every flow has started (the last at 46 µs)
    // and packets are in transit, some of them across domains.
    let stops = [SimTime::from_us(60), COMPOSITE_HORIZON];
    for k in [1usize, 4, 16] {
        for workers in [1usize, 2] {
            let (resumed, _) = composite_run(k, workers, &stops);
            assert_eq!(
                reference, resumed,
                "resumed composite run diverged at {k} domains / {workers} workers"
            );
        }
    }
}

#[test]
fn composite_work_counters_are_pinned_and_worker_count_invariant() {
    // One domain: nothing crosses, so the run is a single window.
    for (k, expected) in [
        (
            1usize,
            Work {
                windows: 1,
                boundary_messages: 0,
            },
        ),
        (
            4,
            Work {
                windows: 539,
                boundary_messages: 2830,
            },
        ),
        (
            16,
            Work {
                windows: 539,
                boundary_messages: 3580,
            },
        ),
    ] {
        for workers in [1usize, 2] {
            let (_, work) = composite_run(k, workers, &[COMPOSITE_HORIZON]);
            assert_eq!(work, expected, "{k} domains / {workers} workers");
        }
    }
}

#[test]
fn a_packet_parked_in_an_inbox_is_pending_and_delivered_on_resume() {
    // One RPC across pods: a single packet exists at any time, so a
    // stop that falls while it crosses a domain boundary leaves it in
    // an inbox with every wheel empty. Stops every 50 ns over the first
    // half of the round trip, the request's way out, are sure to land
    // on such a crossing (each lasts at least the 430 ns lookahead).
    let c = quartz_in_core(3, 4, 2, 4);
    let cfg = SimConfig {
        seed: 7,
        ..SimConfig::default()
    };
    let (src, dst) = (c.hosts[0], c.hosts[c.hosts.len() / 2]);
    let rpc = |k: usize, stops: &[SimTime]| {
        run_sharded(&c.net, &cfg, k, 1, stops, |sim| {
            sim.add_flow(src, dst, 400, FlowKind::Rpc { count: 1 }, 0, SimTime::ZERO);
        })
    };
    let (reference, _) = rpc(1, &[COMPOSITE_HORIZON]);
    let rtt = reference.per_tag[0].1.max_ns;
    assert!(rtt > 1_000, "the round trip crosses the core: {rtt} ns");
    let mut stops: Vec<SimTime> = (1..)
        .map(|i| SimTime::from_ns(50 * i))
        .take_while(|t| t.ns() < rtt / 2)
        .collect();
    stops.push(COMPOSITE_HORIZON);
    for k in [4usize, 16] {
        let (resumed, work) = rpc(k, &stops);
        assert!(work.boundary_messages > 0, "the RPC crosses domains");
        assert_eq!(reference, resumed, "{k} domains");
    }
}
