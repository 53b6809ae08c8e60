//! Figure 18 — average latency of a *localized* task (scatter, gather,
//! scatter/gather between servers in nearby racks) while additional
//! randomly-placed tasks generate cross-traffic.
//!
//! "There is only one local task per experiment; the remaining tasks
//! have randomly distributed senders and receivers … the local task
//! performs scatter, gather operations to fewer targets than the
//! non-local tasks." (§7.1)

use crate::experiments::fig17::{add_task, Arch, Workload, PARTNERS};
use crate::table::print_table;
use crate::Scale;
use quartz_core::pool::ThreadPool;
use quartz_core::rng::{SliceRandom, StdRng};
use quartz_netsim::sim::{SimConfig, Simulator};
use quartz_netsim::time::SimTime;
use quartz_topology::graph::{Network, NodeId};

/// Local-task partner count ("fewer targets than the non-local tasks").
pub const LOCAL_PARTNERS: usize = 6;

/// Hosts eligible for the local task: servers in "nearby racks".
fn local_pool(arch: Arch, net: &Network, hosts: &[NodeId]) -> Vec<NodeId> {
    match arch {
        // Racks 0 and 1 share an aggregation switch in our three-tier
        // builder; jellyfish has no locality so take the first switches'
        // hosts (the paper's point is exactly that this doesn't help).
        Arch::ThreeTier | Arch::Jellyfish => hosts
            .iter()
            .copied()
            .filter(|&h| matches!(net.node(h).rack, Some(0) | Some(1)))
            .collect(),
        // Quartz architectures: the hosts of ring 0 (racks 0..4).
        _ => hosts
            .iter()
            .copied()
            .filter(|&h| matches!(net.node(h).rack, Some(r) if r < 4))
            .collect(),
    }
}

/// Mean local-task latency (µs) with `tasks` total tasks (1 local +
/// `tasks − 1` global cross-traffic tasks).
pub fn simulate(arch: Arch, workload: Workload, tasks: usize, sim_ms: u64, seed: u64) -> f64 {
    assert!(tasks >= 1);
    let (net, hosts) = arch.build();
    let mut rng = StdRng::seed_from_u64(seed);
    let stop = SimTime::from_ms(sim_ms);
    let pool = local_pool(arch, &net, &hosts);
    assert!(
        pool.len() > LOCAL_PARTNERS,
        "{arch:?}: local pool too small ({})",
        pool.len()
    );
    let mut sim = Simulator::new(
        net,
        SimConfig {
            seed: seed ^ 0x18,
            ..SimConfig::default()
        },
    );

    // The local task, tagged 0.
    let mut local = pool.clone();
    local.shuffle(&mut rng);
    let local_root = local[0];
    add_task(
        &mut sim,
        workload,
        local_root,
        &local[1..=LOCAL_PARTNERS],
        0,
        stop,
    );

    // Cross-traffic tasks, tagged 1, with roots distinct from each other
    // and from the local root (a shared root would measure NIC overload,
    // not the network).
    let mut cross_roots: Vec<_> = hosts.iter().copied().filter(|&h| h != local_root).collect();
    cross_roots.shuffle(&mut rng);
    for t in 1..tasks {
        let root = cross_roots[t - 1];
        let mut all: Vec<_> = hosts.iter().copied().filter(|&h| h != root).collect();
        all.shuffle(&mut rng);
        add_task(&mut sim, workload, root, &all[..PARTNERS], 1, stop);
    }

    sim.run(stop + 2_000_000);
    sim.stats().summary(0).mean_us()
}

/// One panel: per-architecture series of `(total tasks, local-task µs)`.
pub type Panel = Vec<(Arch, Vec<(usize, f64)>)>;

/// Runs all three localized panels over `pool`; every `(workload,
/// arch, tasks)` point is an independent seeded simulation, so output
/// is bit-identical at any worker count.
pub fn run(scale: Scale, pool: &ThreadPool) -> Vec<(Workload, Panel)> {
    let (sim_ms, max_sg, max_tasks) = match scale {
        Scale::Paper => (4, 5, 6),
        Scale::Quick => (1, 2, 2),
    };
    let archs = [
        Arch::ThreeTier,
        Arch::Jellyfish,
        Arch::QuartzInJellyfish,
        Arch::QuartzInEdgeAndCore,
    ];
    let panels = [
        (Workload::Scatter, max_tasks),
        (Workload::Gather, max_tasks),
        (Workload::ScatterGather, max_sg),
    ];
    let mut units = Vec::new();
    for (w, max) in panels {
        for &a in &archs {
            for t in 1..=max {
                units.push((w, a, t));
            }
        }
    }
    let cells = pool.par_map(units.len(), |i| {
        let (w, a, t) = units[i];
        simulate(a, w, t, sim_ms, 180 + t as u64)
    });
    let mut cells = cells.into_iter();
    panels
        .into_iter()
        .map(|(w, max)| {
            let panel: Panel = archs
                .iter()
                .map(|&a| {
                    let series = (1..=max)
                        .map(|t| (t, cells.next().expect("one cell per unit")))
                        .collect();
                    (a, series)
                })
                .collect();
            (w, panel)
        })
        .collect()
}

/// The `--trace-out` body: one
/// `fig18.<workload>.<arch>.t<tasks>` latency gauge per point.
pub fn trace_ndjson(panels: &[(Workload, Panel)]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    for (w, panel) in panels {
        let wkey = w.name().to_ascii_lowercase().replace('-', "_");
        for (a, series) in panel {
            let akey = a.name().to_ascii_lowercase().replace([' ', '+'], "_");
            for (t, us) in series {
                m.inc("fig18.points", 1);
                m.set_gauge(&format!("fig18.{wkey}.{akey}.t{t}"), *us);
            }
        }
    }
    m.to_ndjson()
}

/// Renders the computed panels as the Figure 18 tables.
pub fn render(panels: &[(Workload, Panel)]) {
    for (w, panel) in panels {
        crate::outln!(
            "\nFigure 18 (Localized {}): local-task latency per packet (µs) vs total tasks\n",
            w.name()
        );
        let max = panel[0].1.len();
        let mut headers: Vec<String> = vec!["Architecture".into()];
        headers.extend((1..=max).map(|t| format!("{t} task{}", if t > 1 { "s" } else { "" })));
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = panel
            .iter()
            .map(|(a, series)| {
                let mut cells = vec![a.name().to_string()];
                cells.extend(series.iter().map(|(_, us)| format!("{us:.2}")));
                cells
            })
            .collect();
        print_table(&headers_ref, &rows);
    }
    crate::outln!("\nPaper: Jellyfish cannot exploit locality (highest); Quartz rings keep local traffic inside the ring, mostly unaffected by cross-traffic (§7.1).");
}
