//! The workload driver: offers a [`WorkloadSpec`] to a simulated fabric
//! and distills the run into a [`WorkloadReport`].
//!
//! One call = one simulator = one seed. Fan-out across experiment units
//! goes through [`run_units`], which re-seeds each unit with
//! [`unit_seed`] and merges on the pool in unit order, so any `--jobs`
//! width produces bit-identical reports.

use quartz_core::pool::{unit_seed, ThreadPool};
use quartz_core::rng::{SliceRandom, StdRng};
use quartz_netsim::sim::{FlowKind, SimConfig, Simulator};
use quartz_netsim::time::SimTime;
use quartz_netsim::transport::TcpVariant;
use quartz_obs::{Event, MemoryRecorder};
use quartz_topology::graph::{Network, NodeId};

use crate::collective::run_allreduce;
use crate::dist::{exp_gap_ns, mean_gap_ns};
use crate::report::{BucketAccum, WorkloadReport};
use crate::spec::WorkloadSpec;

/// Everything one workload run needs besides the topology.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// What traffic to offer.
    pub spec: WorkloadSpec,
    /// Congestion-control variant for every flow.
    pub variant: TcpVariant,
    /// Base RNG seed (also seeds the simulator's own randomness).
    pub seed: u64,
    /// Arrival window for open-loop (distribution) traffic: flows are
    /// offered in `[0, window)` and drain until `horizon`.
    pub window: SimTime,
    /// Hard simulation deadline — flows unfinished here are counted as
    /// offered-but-not-completed, never waited for.
    pub horizon: SimTime,
    /// Transport segment (packet) size, bytes.
    pub pkt_bytes: u32,
    /// ECN marking threshold for the fabric's queues (DCTCP's `K`).
    pub ecn_threshold_bytes: Option<u64>,
}

impl WorkloadConfig {
    /// A config with the subsystem's defaults: 1500 B segments, a
    /// 200 µs arrival window, a 20 ms horizon, and — for DCTCP — the
    /// repo-standard `K = 30 kB` marking threshold (Reno runs without
    /// ECN, as in experiment E1).
    pub fn new(spec: WorkloadSpec, variant: TcpVariant, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            spec,
            variant,
            seed,
            window: SimTime::from_us(200),
            horizon: SimTime::from_ms(20),
            pkt_bytes: 1_500,
            ecn_threshold_bytes: match variant {
                TcpVariant::Reno => None,
                TcpVariant::Dctcp => Some(30_000),
            },
        }
    }
}

/// Stable lowercase transport name for reports.
pub fn variant_name(v: TcpVariant) -> &'static str {
    match v {
        TcpVariant::Reno => "reno",
        TcpVariant::Dctcp => "dctcp",
    }
}

/// Parses a CLI transport name (`reno` / `dctcp`).
pub fn variant_by_name(name: &str) -> Result<TcpVariant, String> {
    match name {
        "reno" => Ok(TcpVariant::Reno),
        "dctcp" => Ok(TcpVariant::Dctcp),
        other => Err(format!("unknown transport '{other}' (reno|dctcp)")),
    }
}

/// Runs one workload on `net`. `hosts` are the traffic endpoints; trace
/// host ids index into this slice. Consumes the network (the simulator
/// owns it from here).
pub fn run_workload(
    net: Network,
    hosts: &[NodeId],
    cfg: &WorkloadConfig,
) -> Result<WorkloadReport, String> {
    run_inner(net, hosts, cfg, false).map(|(report, _)| report)
}

fn run_inner(
    net: Network,
    hosts: &[NodeId],
    cfg: &WorkloadConfig,
    traced: bool,
) -> Result<(WorkloadReport, Vec<Event>), String> {
    if hosts.len() < 2 {
        return Err(format!(
            "workload needs ≥ 2 hosts, topology has {}",
            hosts.len()
        ));
    }
    // Access-link rate per node, captured before the simulator consumes
    // the network; the slowdown denominator (ideal serialization time)
    // is the flow's bytes clocked out at its source's access rate.
    let mut access_gbps = vec![0.0_f64; net.node_count()];
    for &h in hosts {
        let nbrs = net.neighbors(h);
        if nbrs.is_empty() {
            return Err(format!("host {h} has no access link"));
        }
        access_gbps[h.0 as usize] = net.link(nbrs[0].1).bandwidth_gbps;
    }
    let mut sim = Simulator::new(
        net,
        SimConfig {
            seed: cfg.seed,
            ecn_threshold_bytes: cfg.ecn_threshold_bytes,
            ..SimConfig::default()
        },
    );
    if traced {
        sim.set_recorder(Box::new(MemoryRecorder::new()));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut collective = None;
    match &cfg.spec {
        WorkloadSpec::Trace(trace) => {
            for f in &trace.flows {
                sim.add_flow(
                    hosts[f.src as usize],
                    hosts[f.dst as usize],
                    cfg.pkt_bytes,
                    FlowKind::Transport {
                        total_bytes: f.bytes,
                        variant: cfg.variant,
                    },
                    f.tag,
                    SimTime::from_ns(f.start_ns),
                );
            }
            sim.run(cfg.horizon);
        }
        WorkloadSpec::Dist { dist, load } => {
            let bisection_gbps = hosts.iter().map(|h| access_gbps[h.0 as usize]).sum::<f64>() / 2.0;
            let gap = mean_gap_ns(dist, *load, bisection_gbps);
            let mut t_ns = 0_u64;
            loop {
                t_ns += exp_gap_ns(&mut rng, gap);
                if t_ns >= cfg.window.ns() {
                    break;
                }
                let src = rng.random_range(0..hosts.len());
                // Uniform over the other hosts: draw from n−1 slots and
                // skip past the source.
                let mut dst = rng.random_range(0..hosts.len() - 1);
                if dst >= src {
                    dst += 1;
                }
                let bytes = dist.sample(&mut rng).max(1);
                sim.add_flow(
                    hosts[src],
                    hosts[dst],
                    cfg.pkt_bytes,
                    FlowKind::Transport {
                        total_bytes: bytes,
                        variant: cfg.variant,
                    },
                    0,
                    SimTime::from_ns(t_ns),
                );
            }
            sim.run(cfg.horizon);
        }
        WorkloadSpec::Incast {
            fanin,
            bytes,
            jitter_ns,
        } => {
            if fanin + 1 > hosts.len() {
                return Err(format!(
                    "incast fan-in {fanin} needs {} hosts, topology has {}",
                    fanin + 1,
                    hosts.len()
                ));
            }
            let receiver = hosts[rng.random_range(0..hosts.len())];
            let mut senders: Vec<NodeId> =
                hosts.iter().copied().filter(|&h| h != receiver).collect();
            senders.shuffle(&mut rng);
            senders.truncate(*fanin);
            for &s in &senders {
                let start = if *jitter_ns == 0 {
                    0
                } else {
                    rng.random::<u64>() % (jitter_ns + 1)
                };
                sim.add_flow(
                    s,
                    receiver,
                    cfg.pkt_bytes,
                    FlowKind::Transport {
                        total_bytes: *bytes,
                        variant: cfg.variant,
                    },
                    0,
                    SimTime::from_ns(start),
                );
            }
            sim.run(cfg.horizon);
        }
        WorkloadSpec::AllReduce { algo, ranks, bytes } => {
            let n = if *ranks == 0 || *ranks > hosts.len() {
                hosts.len()
            } else {
                *ranks
            };
            collective = Some(run_allreduce(
                &mut sim,
                &hosts[..n],
                *algo,
                *bytes,
                cfg.variant,
                cfg.pkt_bytes,
                0,
                cfg.horizon,
            )?);
        }
    }
    let flows = sim.flow_count();
    let mut offered_bytes = 0_u64;
    for f in 0..flows {
        let id = u32::try_from(f).expect("flow ids fit u32");
        offered_bytes += sim.flow_total_bytes(id).unwrap_or(0);
    }
    let mut acc = BucketAccum::default();
    for c in sim.flow_completions() {
        let bytes = sim.flow_total_bytes(c.flow).unwrap_or(0);
        let (src, _) = sim.flow_endpoints(c.flow).expect("completed flow exists");
        let gbps = access_gbps[src.0 as usize];
        // 1 Gb/s = 1 bit/ns, so ideal_ns = bits / gbps.
        let ideal_ns = if gbps > 0.0 {
            (bytes as f64 * 8.0 / gbps).max(1.0)
        } else {
            1.0
        };
        acc.record(bytes, c.fct_ns, ideal_ns as u64);
    }
    let completed = sim.flow_completions().len();
    let stats = sim.stats();
    let report = WorkloadReport {
        spec: cfg.spec.name(),
        transport: variant_name(cfg.variant),
        seed: cfg.seed,
        flows,
        completed,
        offered_bytes,
        generated: stats.generated,
        delivered: stats.delivered,
        dropped: stats.dropped,
        elapsed_ns: sim.now().ns(),
        buckets: acc.stats(),
        collective,
    };
    let events = if traced {
        sim.take_recorder().expect("recorder was attached").finish()
    } else {
        Vec::new()
    };
    Ok((report, events))
}

/// Runs `units` independent copies of the workload (unit `u` re-seeded
/// with [`unit_seed`]`(cfg.seed, u)`) on `pool`; reports come back in
/// unit order, bit-identical at any pool width. `build` constructs a
/// fresh `(network, hosts)` per unit (the simulator consumes it).
///
/// With `traced`, unit 0 runs with a [`MemoryRecorder`] attached and
/// its full event stream (flow opens/completions, collective steps,
/// per-packet events) comes back beside the reports; otherwise the
/// stream is empty. Observation never perturbs the simulation, so the
/// reports are the same either way.
pub fn run_units<F>(
    cfg: &WorkloadConfig,
    units: usize,
    pool: &ThreadPool,
    traced: bool,
    build: F,
) -> Result<(Vec<WorkloadReport>, Vec<Event>), String>
where
    F: Fn() -> (Network, Vec<NodeId>) + Sync,
{
    let results = pool.par_map(units, |u| {
        let mut unit_cfg = cfg.clone();
        unit_cfg.seed = unit_seed(cfg.seed, u as u64);
        let (net, hosts) = build();
        run_inner(net, &hosts, &unit_cfg, traced && u == 0)
    });
    let mut reports = Vec::with_capacity(units);
    let mut events = Vec::new();
    for (u, r) in results.into_iter().enumerate() {
        let (report, unit_events) = r?;
        if u == 0 {
            events = unit_events;
        }
        reports.push(report);
    }
    Ok((reports, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_topology::builders::quartz_in_edge_and_core;

    fn small_fabric() -> (Network, Vec<NodeId>) {
        let c = quartz_in_edge_and_core(1, 2, 2, 2);
        (c.net, c.hosts)
    }

    fn cfg(spec: WorkloadSpec) -> WorkloadConfig {
        WorkloadConfig::new(spec, TcpVariant::Dctcp, 0xC0FFEE)
    }

    #[test]
    fn incast_completes_and_buckets() {
        let (net, hosts) = small_fabric();
        let rep = run_workload(
            net,
            &hosts,
            &cfg(WorkloadSpec::Incast {
                fanin: 3,
                bytes: 20_000,
                jitter_ns: 0,
            }),
        )
        .unwrap();
        assert_eq!(rep.flows, 3);
        assert_eq!(rep.completed, 3);
        assert_eq!(rep.offered_bytes, 60_000);
        assert_eq!(rep.buckets.len(), 1);
        assert_eq!(rep.buckets[0].label, "10-100KB");
        assert!(rep.buckets[0].p50_slowdown >= 1.0);
    }

    #[test]
    fn incast_fanin_must_fit_the_fabric() {
        let (net, hosts) = small_fabric();
        let err = run_workload(
            net,
            &hosts,
            &cfg(WorkloadSpec::Incast {
                fanin: 64,
                bytes: 1_000,
                jitter_ns: 0,
            }),
        )
        .unwrap_err();
        assert!(err.contains("fan-in"), "{err}");
    }

    #[test]
    fn hadoop_offers_open_loop_traffic() {
        let (net, hosts) = small_fabric();
        // Mean hadoop flow ≈ 340 KB; at load 0.5 of this fabric's
        // 20 Gb/s bisection the mean gap is ≈ 270 µs, so a 3 ms window
        // admits a handful of flows with high probability.
        let mut c = cfg(WorkloadSpec::Dist {
            dist: crate::dist::HADOOP,
            load: 0.5,
        });
        c.window = SimTime::from_ms(3);
        let rep = run_workload(net, &hosts, &c).unwrap();
        assert!(rep.flows > 0, "window should admit at least one flow");
        assert!(rep.completed <= rep.flows);
        assert!(rep.offered_bytes > 0);
    }

    #[test]
    fn allreduce_produces_a_collective_report() {
        let (net, hosts) = small_fabric();
        let rep = run_workload(
            net,
            &hosts,
            &cfg(WorkloadSpec::AllReduce {
                algo: crate::collective::CollectiveAlgo::Ring,
                ranks: 0,
                bytes: 40_000,
            }),
        )
        .unwrap();
        let c = rep.collective.expect("collective report");
        assert_eq!(c.ranks, 4);
        assert_eq!(c.steps.len(), 6); // 2(N−1)
        assert!(c.total_ns > 0);
        assert_eq!(rep.completed, rep.flows);
    }

    #[test]
    fn traced_run_matches_untraced_and_carries_workload_events() {
        let spec = WorkloadSpec::Incast {
            fanin: 3,
            bytes: 5_000,
            jitter_ns: 1_000,
        };
        let pool = ThreadPool::sequential();
        let (plain, none) = run_units(&cfg(spec.clone()), 1, &pool, false, small_fabric).unwrap();
        assert!(none.is_empty());
        let (traced, events) = run_units(&cfg(spec), 1, &pool, true, small_fabric).unwrap();
        assert_eq!(plain[0].render(), traced[0].render());
        let starts = events.iter().filter(|e| e.tag() == "flow_start").count();
        let dones = events.iter().filter(|e| e.tag() == "flow_complete").count();
        assert_eq!(starts, 3);
        assert_eq!(dones, 3);
    }

    #[test]
    fn unit_fanout_is_pool_width_invariant() {
        let base = cfg(WorkloadSpec::Incast {
            fanin: 3,
            bytes: 10_000,
            jitter_ns: 500,
        });
        let (seq, _) = run_units(&base, 4, &ThreadPool::sequential(), false, small_fabric).unwrap();
        let (par, _) = run_units(&base, 4, &ThreadPool::new(4), false, small_fabric).unwrap();
        let render = |v: &[WorkloadReport]| v.iter().map(|r| r.render()).collect::<String>();
        assert_eq!(render(&seq), render(&par));
        // Units are re-seeded, so they are not carbon copies.
        assert_ne!(seq[0].seed, seq[1].seed);
    }
}
