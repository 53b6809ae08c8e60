//! Wall time of the timing-wheel event engine: raw churn, and the
//! Figure 17 cell — the busiest simulation in the harness (64-host
//! composite topologies, Poisson scatter/gather load) — with its
//! events/sec. The wheel's pop order is pinned against the reference
//! binary heap by `crates/netsim/tests/scheduler_differential.rs`, not
//! here: this bench only times.

use quartz_bench::experiments::fig17::{self, add_task, Arch, Workload, PARTNERS};
use quartz_bench::timing::{measure, note_event_rate};
use quartz_core::rng::{SliceRandom, StdRng};
use quartz_netsim::sched::TimingWheel;
use quartz_netsim::sim::{SimConfig, Simulator};
use quartz_netsim::time::SimTime;
use quartz_topology::graph::NodeId;
use std::hint::black_box;

/// Pops drained per iteration of the synthetic churn workload.
const CHURN_EVENTS: u64 = 100_000;

/// Raw engine churn with a simulator-shaped time profile: seeded pushes
/// mostly a few hundred ns ahead of the drain point (per-hop arrivals),
/// a slice ~10 µs out (generator gaps), and a far tail (retransmission
/// timers), every pop respawning until exactly [`CHURN_EVENTS`] pops
/// have drained. Keys come from a local counter, as the simulator keys
/// its own events. Returns a checksum of the pop order so the work
/// can't be optimized away.
fn churn(seed: u64) -> u64 {
    let mut s = TimingWheel::new();
    let mut seq = 0u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let next_time = |now: SimTime, rng: &mut StdRng| {
        now + match rng.random_range(0..10) {
            0..=6 => rng.random_range(64..1_000) as u64,
            7 | 8 => rng.random_range(1_000..20_000) as u64,
            _ => rng.random_range(100_000..2_000_000) as u64,
        }
    };
    for i in 0..1_024u32 {
        let t = next_time(SimTime::ZERO, &mut rng);
        seq += 1;
        s.push_at_seq(t, seq, i);
    }
    let mut pops = 0u64;
    let mut checksum = 0u64;
    while let Some((t, item)) = s.pop_before(SimTime::from_ns(u64::MAX)) {
        pops += 1;
        checksum = checksum
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(t.ns() ^ u64::from(item));
        if pops + (s.len() as u64) < CHURN_EVENTS {
            seq += 1;
            s.push_at_seq(next_time(t, &mut rng), seq, item);
        }
    }
    debug_assert_eq!(pops, CHURN_EVENTS);
    checksum
}

/// One fig17 cell — 2 tasks, 1 ms of simulated time, seed 42 — built
/// exactly as [`fig17::simulate`] builds it, so the run can also report
/// its event count. Returns the mean latency (µs) and events processed.
fn cell(arch: Arch, workload: Workload) -> (f64, u64) {
    let (tasks, seed) = (black_box(2), 42u64);
    let (net, hosts) = arch.build();
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = SimConfig {
        seed: seed ^ 0xABCD,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(net, cfg);
    let stop = SimTime::from_ms(1);
    let mut roots = hosts.clone();
    roots.shuffle(&mut rng);
    for &root in &roots[..tasks] {
        let mut pool: Vec<NodeId> = hosts.iter().copied().filter(|h| *h != root).collect();
        pool.shuffle(&mut rng);
        add_task(&mut sim, workload, root, &pool[..PARTNERS], 0, stop);
    }
    sim.run(stop + 2_000_000);
    (sim.stats().summary(0).mean_us(), sim.events_processed())
}

fn main() {
    // Raw engine throughput, free of simulator bookkeeping.
    let rec = measure("scheduler", "wheel_churn_100k", || churn(black_box(7)));
    note_event_rate("wheel_churn_100k", CHURN_EVENTS, &rec);

    // Gather on the paper's best architecture; scatter/gather on the
    // one with the deepest paths (three-tier tree through CCS cores).
    for (name, arch, workload) in [
        (
            "wheel_fig17_gather",
            Arch::QuartzInEdgeAndCore,
            Workload::Gather,
        ),
        (
            "wheel_fig17_scatter_gather_tree",
            Arch::ThreeTier,
            Workload::ScatterGather,
        ),
    ] {
        let (mean_us, events) = cell(arch, workload);
        assert_eq!(
            mean_us.to_bits(),
            fig17::simulate(arch, workload, 2, 1, 42).to_bits(),
            "the bench cell must be the fig17 cell"
        );
        let rec = measure("scheduler", name, || cell(arch, workload));
        note_event_rate(name, events, &rec);
    }

    quartz_bench::timing::write_json("scheduler", None);
}
