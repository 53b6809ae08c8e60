//! Figure 17 — average per-packet latency for *global* scatter, gather,
//! and scatter/gather workloads vs the number of concurrent tasks, on the
//! five simulated architectures of §7.
//!
//! Setup per the paper: 400-byte packets, Poisson sources, ULL switches
//! at the edge/aggregation/rings, CCS in the core, 10 Gb/s server links
//! and 40 Gb/s uplinks, four-switch Quartz rings, randomly placed tasks.

use crate::table::print_table;
use crate::Scale;
use quartz_core::pool::ThreadPool;
use quartz_core::rng::{SliceRandom, StdRng};
use quartz_netsim::sim::{FlowKind, SimConfig, Simulator};
use quartz_netsim::time::SimTime;
use quartz_topology::builders::{
    jellyfish, quartz_in_core, quartz_in_edge, quartz_in_edge_and_core, quartz_in_jellyfish,
    three_tier,
};
use quartz_topology::graph::{Network, NodeId};

/// The simulated architectures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    /// Figure 15(a): three-tier multi-root tree.
    ThreeTier,
    /// §7's 16-switch random graph.
    Jellyfish,
    /// Figure 15(b): Quartz replacing the core.
    QuartzInCore,
    /// Figure 15(c): Quartz replacing ToR+aggregation.
    QuartzInEdge,
    /// Figure 15(d): both.
    QuartzInEdgeAndCore,
    /// §4.3: random graph of Quartz rings (used by Figure 18).
    QuartzInJellyfish,
}

impl Arch {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::ThreeTier => "Three-tier Multi-root Tree",
            Arch::Jellyfish => "Jellyfish",
            Arch::QuartzInCore => "Quartz in Core",
            Arch::QuartzInEdge => "Quartz in Edge",
            Arch::QuartzInEdgeAndCore => "Quartz in Edge and Core",
            Arch::QuartzInJellyfish => "Quartz in Jellyfish",
        }
    }

    /// Builds the 64-host instance of this architecture.
    pub fn build(&self) -> (Network, Vec<NodeId>) {
        match self {
            // 16 racks × 4 hosts; 4 aggs; 2 cores.
            Arch::ThreeTier => {
                let t = three_tier(8, 2, 4, 2, 10.0, 40.0);
                (t.net, t.hosts)
            }
            Arch::Jellyfish => {
                let j = jellyfish(16, 4, 4, 10.0, 10.0, 71);
                (j.net, j.hosts)
            }
            Arch::QuartzInCore => {
                let q = quartz_in_core(8, 2, 4, 4);
                (q.net, q.hosts)
            }
            Arch::QuartzInEdge => {
                let q = quartz_in_edge(4, 4, 4, 2);
                (q.net, q.hosts)
            }
            Arch::QuartzInEdgeAndCore => {
                let q = quartz_in_edge_and_core(4, 4, 4, 4);
                (q.net, q.hosts)
            }
            Arch::QuartzInJellyfish => {
                let q = quartz_in_jellyfish(4, 4, 4, 4, 71);
                (q.net, q.hosts)
            }
        }
    }
}

/// The three workload shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One sender streams to many receivers (one-way latency).
    Scatter,
    /// Many senders stream to one receiver (one-way latency).
    Gather,
    /// Scatter with per-packet replies (round-trip latency).
    ScatterGather,
}

impl Workload {
    /// Paper panel name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Scatter => "Scatter",
            Workload::Gather => "Gather",
            Workload::ScatterGather => "Scatter/Gather",
        }
    }
}

/// Partners per task (the root exchanges packets with this many hosts).
pub const PARTNERS: usize = 15;

/// Mean per-flow packet gap, ns (400 B ⇒ 400 Mb/s per flow, ~6 Gb/s per
/// task — enough load to expose congestion without saturating NICs).
pub const MEAN_GAP_NS: f64 = 8_000.0;

/// Adds one task's flows. The task's packets are tagged `tag`.
pub fn add_task(
    sim: &mut Simulator,
    workload: Workload,
    root: NodeId,
    partners: &[NodeId],
    tag: u32,
    stop: SimTime,
) {
    for &p in partners {
        let (src, dst, respond) = match workload {
            Workload::Scatter => (root, p, false),
            Workload::Gather => (p, root, false),
            Workload::ScatterGather => (root, p, true),
        };
        sim.add_flow(
            src,
            dst,
            400,
            FlowKind::Poisson {
                mean_gap_ns: MEAN_GAP_NS,
                stop,
                respond,
            },
            tag,
            SimTime::ZERO,
        );
    }
}

/// Mean per-packet latency (µs) for `tasks` concurrent random tasks.
/// Task roots are distinct (two scatter roots sharing a NIC would just
/// measure self-inflicted host overload, not the network).
pub fn simulate(arch: Arch, workload: Workload, tasks: usize, sim_ms: u64, seed: u64) -> f64 {
    let (net, hosts) = arch.build();
    assert!(tasks <= hosts.len() / 2, "too many tasks for {arch:?}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = Simulator::new(
        net,
        SimConfig {
            seed: seed ^ 0xABCD,
            ..SimConfig::default()
        },
    );
    let stop = SimTime::from_ms(sim_ms);
    let mut roots = hosts.clone();
    roots.shuffle(&mut rng);
    let roots = &roots[..tasks];
    for &root in roots {
        let mut pool: Vec<NodeId> = hosts.iter().copied().filter(|h| *h != root).collect();
        pool.shuffle(&mut rng);
        add_task(&mut sim, workload, root, &pool[..PARTNERS], 0, stop);
    }
    sim.run(stop + 2_000_000);
    sim.stats().summary(0).mean_us()
}

/// One panel: latency series per architecture.
pub type Panel = Vec<(Arch, Vec<(usize, f64)>)>;

/// Runs all three panels (over one worker per hardware thread).
pub fn run(scale: Scale) -> Vec<(Workload, Panel)> {
    run_with(scale, &ThreadPool::default())
}

/// Runs all three panels over `pool`. Every `(workload, arch, tasks,
/// seed)` cell is one independent simulation with its own seed, so the
/// cells parallelize freely; means fold in seed order on this thread,
/// making the output bit-identical at any worker count.
pub fn run_with(scale: Scale, pool: &ThreadPool) -> Vec<(Workload, Panel)> {
    let (sim_ms, max_sg, max_tasks) = match scale {
        Scale::Paper => (4, 4, 8),
        Scale::Quick => (1, 2, 2),
    };
    let archs = [
        Arch::ThreeTier,
        Arch::Jellyfish,
        Arch::QuartzInCore,
        Arch::QuartzInEdge,
        Arch::QuartzInEdgeAndCore,
    ];
    let seeds: u64 = match scale {
        Scale::Paper => 3,
        Scale::Quick => 1,
    };
    let panels = [
        (Workload::Scatter, max_tasks),
        (Workload::Gather, max_tasks),
        (Workload::ScatterGather, max_sg),
    ];
    let mut units = Vec::new();
    for (w, max) in panels {
        for &a in &archs {
            for t in 1..=max {
                for s in 0..seeds {
                    units.push((w, a, t, s));
                }
            }
        }
    }
    let cells = pool.par_map(units.len(), |i| {
        let (w, a, t, s) = units[i];
        // Mean over independent placements, matching the paper's
        // error-bar methodology; seed expression unchanged.
        simulate(a, w, t, sim_ms, 42 + t as u64 + 1000 * s)
    });
    // Reassemble in the original nesting order — unit order equals the
    // sequential iteration order, so the per-point means sum the same
    // floats in the same order.
    let mut cells = cells.into_iter();
    panels
        .into_iter()
        .map(|(w, max)| {
            let panel: Panel = archs
                .iter()
                .map(|&a| {
                    let series = (1..=max)
                        .map(|t| {
                            let mean = (0..seeds)
                                .map(|_| cells.next().expect("one cell per unit"))
                                .sum::<f64>()
                                / seeds as f64;
                            (t, mean)
                        })
                        .collect();
                    (a, series)
                })
                .collect();
            (w, panel)
        })
        .collect()
}

/// Prints the three Figure 17 panels.
pub fn print(scale: Scale) {
    print_with(scale, &ThreadPool::default());
}

/// Prints the three Figure 17 panels, computed over `pool`.
pub fn print_with(scale: Scale, pool: &ThreadPool) {
    print_ctx(scale, pool, None);
}

/// [`print_with`] plus the shared `--trace-out` hook: the panels run
/// once; the same series feed both the tables and the metrics trace.
pub fn print_ctx(scale: Scale, pool: &ThreadPool, trace: Option<&std::path::Path>) {
    let panels = run_with(scale, pool);
    render(&panels);
    if let Some(path) = trace {
        crate::trace::write(path, &trace_ndjson(&panels));
    }
}

/// The metrics-trace body for [`print_ctx`]: one
/// `fig17.<workload>.<arch>.t<tasks>` latency gauge per point.
fn trace_ndjson(panels: &[(Workload, Panel)]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    for (w, panel) in panels {
        let wkey = w.name().to_ascii_lowercase().replace('-', "_");
        for (a, series) in panel {
            let akey = a.name().to_ascii_lowercase().replace([' ', '+'], "_");
            for (t, us) in series {
                m.inc("fig17.points", 1);
                m.set_gauge(&format!("fig17.{wkey}.{akey}.t{t}"), *us);
            }
        }
    }
    m.to_ndjson()
}

/// Renders the computed panels as the Figure 17 tables.
fn render(panels: &[(Workload, Panel)]) {
    for (w, panel) in panels {
        crate::outln!(
            "\nFigure 17 ({}): average latency per packet (µs) vs number of tasks\n",
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
    crate::outln!("\nPaper: the three-tier tree is worst and grows with tasks; Quartz in edge+core roughly halves latency (§7.1).");
}
