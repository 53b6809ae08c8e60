//! Event throughput of the discrete-event simulator: how many simulated
//! packets per wall-clock second the engine sustains on a loaded mesh,
//! plus the sharded engine on Figure 15 composites (including the
//! ≥10⁴-host scale target).

use quartz_bench::timing::{measure, monotonic_ns, note, note_event_rate, wall_timed};
use quartz_core::pool::ThreadPool;
use quartz_netsim::shard::ShardedSim;
use quartz_netsim::sim::{FlowKind, SimConfig, Simulator};
use quartz_netsim::time::SimTime;
use quartz_netsim::transport::TcpVariant;
use quartz_topology::builders::{quartz_in_core, quartz_mesh};
use quartz_topology::graph::{Network, SwitchRole};
use quartz_topology::route::{FlatRoutes, RouteTable};
use std::hint::black_box;

/// One 2 ms run of a 4-switch mesh with 16 hosts at ~40 % load; returns
/// `(packets delivered, events processed)` for the throughput
/// annotations.
fn run_once(seed: u64) -> (u64, u64) {
    let q = quartz_mesh(4, 4, 10.0, 10.0);
    let mut sim = Simulator::new(
        q.net.clone(),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    let stop = SimTime::from_ms(2);
    for (i, &src) in q.hosts.iter().enumerate() {
        let dst = q.hosts[(i + 5) % q.hosts.len()];
        sim.add_flow(
            src,
            dst,
            400,
            FlowKind::Poisson {
                mean_gap_ns: 800.0,
                stop,
                respond: false,
            },
            0,
            SimTime::ZERO,
        );
    }
    sim.run(SimTime::from_ms(4));
    (sim.stats().delivered, sim.events_processed())
}

fn main() {
    let (packets, events) = run_once(1);
    println!("simulator: {packets} packets, {events} events per iteration");
    let rec = measure("simulator", "mesh_2ms_40pct_load", || {
        run_once(black_box(1))
    });
    // The headline rate: scheduler events retired per wall-clock second
    // on the flagship scenario (generation, per-hop arrivals, timers —
    // everything the engine pops counts once).
    note_event_rate("mesh_2ms_40pct_load", events, &rec);

    measure("simulator", "construction_64_hosts", || {
        let q = quartz_mesh(16, 4, 10.0, 10.0);
        Simulator::new(q.net, SimConfig::default())
    });

    // One 1 MB Reno transfer over a dumbbell: measures the whole
    // transport state machine + event loop.
    measure("simulator", "transport_reno_1mb_dumbbell", || {
        let mut net = Network::new();
        let sw = net.add_switch(SwitchRole::TopOfRack, Some(0));
        let h1 = net.add_host(Some(0));
        let h2 = net.add_host(Some(0));
        net.connect(h1, sw, 10.0);
        net.connect(h2, sw, 10.0);
        let mut sim = Simulator::new(net, SimConfig::default());
        sim.add_flow(
            h1,
            h2,
            1_000,
            FlowKind::Transport {
                total_bytes: 1_000_000,
                variant: TcpVariant::Reno,
            },
            0,
            SimTime::ZERO,
        );
        sim.run(SimTime::from_ms(50));
        sim.stats().summary(0).count
    });

    bench_composite_4dom();
    bench_composite_10k_hosts();

    quartz_bench::timing::write_json("simulator", None);
}

/// One sharded run of a 4-pod Quartz-in-core composite (64 hosts) with
/// pod-crossing RPC + Poisson traffic; returns the sim for inspection.
fn run_composite_4pod(domains: usize) -> ShardedSim {
    let c = quartz_in_core(4, 4, 4, 4);
    let mut sim = ShardedSim::new(
        c.net.clone(),
        SimConfig {
            seed: 7,
            ..SimConfig::default()
        },
        domains,
    );
    let n = c.hosts.len();
    let stop = SimTime::from_ms(1);
    for i in 0..n {
        let src = c.hosts[i];
        let dst = c.hosts[(i + n / 2) % n];
        if i % 2 == 0 {
            sim.add_flow(
                src,
                dst,
                400,
                FlowKind::Rpc { count: 200 },
                0,
                SimTime::ZERO,
            );
        } else {
            sim.add_flow(
                src,
                dst,
                400,
                FlowKind::Poisson {
                    mean_gap_ns: 2_000.0,
                    stop,
                    respond: false,
                },
                1,
                SimTime::ZERO,
            );
        }
    }
    sim.run(SimTime::from_ms(2), &ThreadPool::sequential());
    sim
}

/// Digest of everything the 4-pod run produces that the 1-vs-4-domain
/// equivalence is asserted over.
fn composite_digest(sim: &ShardedSim) -> (u64, u64, u64, u64, usize, u64) {
    let s = sim.stats();
    let rpc = s.summary(0);
    (
        s.generated,
        s.delivered,
        s.dropped,
        sim.events_processed(),
        rpc.count,
        rpc.mean_ns.to_bits(),
    )
}

/// The sharded engine on the 4-pod composite, 1 domain vs 4: equal
/// event counts and bit-identical stats are asserted (the determinism
/// contract), then both are timed. On a multicore host the 4-domain
/// run is the one that parallelizes; the per-domain busy breakdown
/// (injected monotonic clock) shows where the time went either way.
fn bench_composite_4dom() {
    let base = {
        let sim = run_composite_4pod(1);
        composite_digest(&sim)
    };
    let shard = {
        let sim = run_composite_4pod(4);
        composite_digest(&sim)
    };
    assert_eq!(base, shard, "sharded composite diverged from 1 domain");
    println!(
        "composite_4dom: {} packets, {} events per iteration (identical at 1 and 4 domains)",
        base.1, base.3
    );
    let events = base.3;

    let rec1 = measure("composite_4dom", "domains_1", || {
        run_composite_4pod(black_box(1))
    });
    note_event_rate("composite_4dom_domains_1", events, &rec1);
    let rec4 = measure("composite_4dom", "domains_4", || {
        run_composite_4pod(black_box(4))
    });
    note_event_rate("composite_4dom_domains_4", events, &rec4);

    // Busy/idle breakdown of one instrumented 4-domain run: wall time
    // enters the engine only through this injected clock.
    let mut sim = run_instrumented_4pod();
    sim.run(SimTime::from_ms(2), &ThreadPool::sequential());
    let busy = sim.domain_busy_ns();
    let per_dom = sim.per_domain_events();
    for (i, (&b, &e)) in busy.iter().zip(&per_dom).enumerate() {
        let ns = b as f64;
        note("shard_profile", &format!("dom{i}_busy"), ns, ns, e);
        let rate = if b > 0 { e as f64 * 1e3 / ns } else { 0.0 };
        println!("shard_profile/dom{i:<28} busy {ns:>12.0} ns  ({e} events, {rate:.2} M events/s)");
    }
    let coord = sim.coordinator_ns() as f64;
    note("shard_profile", "coordinator", coord, coord, 1);
    println!("shard_profile/coordinator{:>21} {coord:>12.0} ns", "");
}

/// Same 4-pod scenario with the monotonic clock injected.
fn run_instrumented_4pod() -> ShardedSim {
    let c = quartz_in_core(4, 4, 4, 4);
    let mut sim = ShardedSim::new(
        c.net.clone(),
        SimConfig {
            seed: 7,
            ..SimConfig::default()
        },
        4,
    );
    sim.set_clock(monotonic_ns);
    let n = c.hosts.len();
    for i in 0..n {
        let src = c.hosts[i];
        let dst = c.hosts[(i + n / 2) % n];
        sim.add_flow(
            src,
            dst,
            400,
            FlowKind::Rpc { count: 200 },
            0,
            SimTime::ZERO,
        );
    }
    sim
}

/// The scale target: a 10 240-host Quartz-in-core composite (16 pods ×
/// 16 ToRs × 40 hosts, 16-switch core ring) built, partitioned into 16
/// domains, and driven with 512 pod-crossing RPC flows. One timed pass
/// (construction and run recorded separately), plus the heap bytes of
/// the flat route table the engine holds (`route_bytes`: the value sits
/// in the `mean_ns`/`min_ns` fields, like `per_event` rows keep events
/// in `iters`).
fn bench_composite_10k_hosts() {
    let (mut sim, build_ns) = wall_timed(|| {
        let c = quartz_in_core(16, 16, 40, 16);
        let mut sim = ShardedSim::new(
            c.net.clone(),
            SimConfig {
                seed: 11,
                ..SimConfig::default()
            },
            16,
        );
        let n = c.hosts.len();
        assert!(n >= 10_000, "scale target is >= 10^4 hosts, got {n}");
        for i in 0..512 {
            let src = c.hosts[(i * 20) % n];
            let dst = c.hosts[(i * 20 + n / 2) % n];
            sim.add_flow(src, dst, 400, FlowKind::Rpc { count: 50 }, 0, SimTime::ZERO);
        }
        sim
    });
    let (_, run_ns) = wall_timed(|| {
        sim.run(SimTime::from_ms(2), &ThreadPool::sequential());
    });
    let events = sim.events_processed();
    let s = sim.stats();
    assert_eq!(s.summary(0).count, 512 * 50, "every RPC must complete");
    // The engine holds only the flat table (the route table it is built
    // from is dropped); build it outside the timed pass to size it.
    let net = quartz_in_core(16, 16, 40, 16).net;
    let flat = FlatRoutes::new(&RouteTable::all_shortest_paths(&net), &net);
    let route_bytes = flat.heap_bytes() as f64;
    note("composite_10k_hosts", "construct", build_ns, build_ns, 1);
    note("composite_10k_hosts", "run_2ms", run_ns, run_ns, events);
    note(
        "composite_10k_hosts",
        "route_bytes",
        route_bytes,
        route_bytes,
        1,
    );
    println!(
        "composite_10k_hosts: {} domains, {} events, construct {:.3} s, run {:.3} s ({:.2} M events/s), flat routes {:.2} MB",
        sim.domain_count(),
        events,
        build_ns / 1e9,
        run_ns / 1e9,
        events as f64 * 1e3 / run_ns,
        route_bytes / 1e6,
    );
}
