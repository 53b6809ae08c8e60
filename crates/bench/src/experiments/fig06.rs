//! Figure 6 — fault tolerance of a 33-switch Quartz network: bandwidth
//! loss (top panel) and partition probability (bottom panel) vs number of
//! broken fiber links, for one to four physical rings.
//!
//! The **dynamic** panel goes beyond the paper's static analysis: it cuts
//! one fiber mid-run under steady Poisson traffic and reports what the
//! packets saw — pre/post latency, hop-count stretch of the detour, the
//! control plane's reconvergence time, the packets lost during the
//! outage — plus the waterfill-level throughput retained by the degraded
//! mesh.

use crate::table::{pct, print_table};
use crate::timing::phase_timed;
use crate::Scale;
use quartz_core::fault::{FailureModel, FaultReport};
use quartz_core::pool::ThreadPool;
use quartz_flowsim::fabric::{MeshRouting, QuartzFabric};
use quartz_flowsim::matrix::random_permutation;
use quartz_flowsim::throughput::normalized_throughput_metered;
use quartz_netsim::faults::{
    ring_cut_scenario, ring_cut_scenario_traced, CutScenarioConfig, CutScenarioReport,
};
use quartz_obs::{Event, MetricsRegistry};

/// The static panels over `pool`: `grid[rings-1][failures-1]`, one
/// unit per `(rings, failures)` cell, plus a registry of
/// `fig06.loss.r<rings>.f<failures>` /
/// `fig06.partition.r<rings>.f<failures>` gauges aggregated in
/// unit-index order. Each cell's Monte-Carlo stream depends only on its
/// own seed, so grid and registry are bit-identical at any worker count.
/// The cells themselves run monte_carlo sequentially — parallelism at
/// the grid level already saturates the pool without nesting.
fn grid(scale: Scale, pool: &ThreadPool) -> (Vec<Vec<FaultReport>>, MetricsRegistry) {
    let (m, trials) = match scale {
        Scale::Paper => (33, 20_000),
        Scale::Quick => (17, 1_000),
    };
    let (cells, metrics) = pool.par_map_observed(16, |i, reg| {
        let (rings, failures) = (i / 4 + 1, i % 4 + 1);
        let r = FailureModel::new(m, rings).monte_carlo(failures, trials, 0xF16 + failures as u64);
        reg.inc("fig06.grid.cells", 1);
        reg.set_gauge(
            &format!("fig06.loss.r{rings}.f{failures}"),
            r.mean_bandwidth_loss,
        );
        reg.set_gauge(
            &format!("fig06.partition.r{rings}.f{failures}"),
            r.partition_probability,
        );
        r
    });
    let mut cells = cells.into_iter();
    let grid = (1..=4usize)
        .map(|_| {
            (1..=4usize)
                .map(|_| cells.next().expect("16 cells"))
                .collect()
        })
        .collect();
    (grid, metrics)
}

/// The dynamic fiber-cut measurement: the packet-level scenario plus the
/// flow-level throughput the degraded mesh retains.
#[derive(Clone, Debug, PartialEq)]
pub struct DynamicReport {
    /// The mid-run ring-cut experiment (severed pair's before/after).
    pub scenario: CutScenarioReport,
    /// Normalized throughput of the intact mesh on a random permutation.
    pub intact_throughput: f64,
    /// Same permutation on the mesh with the cut channel severed.
    pub degraded_throughput: f64,
}

/// Runs the dynamic panel over `pool`: one fiber cut at t = T during
/// steady Poisson traffic on the mesh, plus the waterfill before/after
/// comparison. The packet-level cut scenario and the flow-level
/// waterfill comparison share no state, so they run as two parallel
/// units; each is internally sequential and seeded.
///
/// With `traced`, the scenario records every event through a
/// `MemoryRecorder` and collects its sim metrics; without, no recorder
/// is attached and the event list comes back empty. The waterfill half
/// meters its solver iterations either way, and the two units'
/// registries fold in unit-index order. The report is the same with or
/// without tracing (tracing is observe-only), and report, events and
/// metrics are bit-identical at any worker count.
fn dynamic(
    scale: Scale,
    pool: &ThreadPool,
    traced: bool,
) -> (DynamicReport, Vec<Event>, MetricsRegistry) {
    let cfg = match scale {
        Scale::Paper => CutScenarioConfig::paper(0xD16),
        Scale::Quick => CutScenarioConfig::quick(0xD16),
    };
    let racks = cfg.switches;

    enum Half {
        Scenario(Box<(CutScenarioReport, Vec<Event>)>),
        Waterfill { intact: f64, degraded: f64 },
    }
    let (halves, metrics) = pool.par_map_observed(2, |i, reg| {
        if i == 0 {
            if traced {
                let (scenario, events, sim_metrics) = ring_cut_scenario_traced(&cfg);
                reg.merge(&sim_metrics);
                Half::Scenario(Box::new((scenario, events)))
            } else {
                Half::Scenario(Box::new((ring_cut_scenario(&cfg), Vec::new())))
            }
        } else {
            let intact = QuartzFabric {
                racks,
                hosts_per_rack: 4,
                channel_cap: 1.0,
                policy: MeshRouting::VlbUniform(0.5),
                severed: Vec::new(),
            };
            let demands = random_permutation(racks * 4, 0xD16);
            let intact_throughput =
                normalized_throughput_metered(&intact, &demands, reg).normalized;
            // Sever the same channel the scenario cuts: switches 0 ↔ 1.
            let degraded = QuartzFabric {
                severed: vec![(0, 1)],
                ..intact
            };
            Half::Waterfill {
                intact: intact_throughput,
                degraded: normalized_throughput_metered(&degraded, &demands, reg).normalized,
            }
        }
    });

    let mut halves = halves.into_iter();
    let (Some(Half::Scenario(boxed)), Some(Half::Waterfill { intact, degraded })) =
        (halves.next(), halves.next())
    else {
        unreachable!("par_map_observed returns both halves in index order");
    };
    let (scenario, events) = *boxed;
    (
        DynamicReport {
            scenario,
            intact_throughput: intact,
            degraded_throughput: degraded,
        },
        events,
        metrics,
    )
}

/// Both Figure 6 panels, computed once.
#[derive(Clone, Debug)]
pub struct Panels {
    /// The static grid: `grid[rings-1][failures-1]`.
    pub grid: Vec<Vec<FaultReport>>,
    /// The dynamic fiber-cut panel.
    pub dynamic: DynamicReport,
    /// The dynamic scenario's packet events, time-ordered; empty unless
    /// traced.
    pub events: Vec<Event>,
    /// The dynamic panel's metrics (sim counters and histograms when
    /// traced, waterfill meters always) with the grid's gauges merged in.
    pub metrics: MetricsRegistry,
}

/// Runs both panels over `pool`, each phase-timed, so
/// `BENCH_fig06_fault_tolerance.json` carries a `phase` breakdown.
/// Only with `traced` does a recorder go anywhere near the simulator;
/// grid and dynamic report are the same either way, and everything is
/// bit-identical at any worker count.
pub fn run(scale: Scale, pool: &ThreadPool, traced: bool) -> Panels {
    let (grid, grid_metrics) = phase_timed("fig06.grid", || grid(scale, pool));
    let (dynamic, events, mut metrics) =
        phase_timed("fig06.dynamic", || dynamic(scale, pool, traced));
    metrics.merge(&grid_metrics);
    Panels {
        grid,
        dynamic,
        events,
        metrics,
    }
}

/// The `--trace-out` body: the dynamic panel's packet events (ndjson,
/// time-ordered) followed by the merged metrics of both panels.
pub fn trace_ndjson(panels: &Panels) -> String {
    let mut out = quartz_obs::event::to_ndjson(&panels.events);
    out.push_str(&panels.metrics.to_ndjson());
    out
}

/// Renders the three static-panel tables, then the dynamic-panel
/// summary lines.
pub fn render(panels: &Panels) {
    let grid = &panels.grid;
    crate::outln!("Figure 6 (top): mean bandwidth loss vs broken fiber links\n");
    let headers = [
        "Rings",
        "1 failure",
        "2 failures",
        "3 failures",
        "4 failures",
    ];
    let loss_rows: Vec<Vec<String>> = grid
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut cells = vec![(i + 1).to_string()];
            cells.extend(row.iter().map(|r| pct(r.mean_bandwidth_loss)));
            cells
        })
        .collect();
    print_table(&headers, &loss_rows);

    crate::outln!("\nFigure 6 (bottom): probability of network partition\n");
    let part_rows: Vec<Vec<String>> = grid
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut cells = vec![(i + 1).to_string()];
            cells.extend(
                row.iter()
                    .map(|r| format!("{:.4}", r.partition_probability)),
            );
            cells
        })
        .collect();
    print_table(&headers, &part_rows);

    crate::outln!("\nFigure 6 (companion): detour stretch over surviving channels\n");
    let stretch_rows: Vec<Vec<String>> = grid
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut cells = vec![(i + 1).to_string()];
            cells.extend(row.iter().map(|r| {
                format!(
                    "{:.2}x / {:.2}",
                    r.mean_detour_stretch, r.mean_post_failure_hops
                )
            }));
            cells
        })
        .collect();
    print_table(&headers, &stretch_rows);
    crate::outln!("(severed pairs' mean detour hop count / mesh-wide mean post-failure hops)");

    crate::outln!(
        "\nPaper: one ring loses ~20% bandwidth per cut (ours ~{}); with two rings, four simultaneous failures partition with probability ~0.24% (ours {:.4}).",
        pct(grid[0][0].mean_bandwidth_loss),
        grid[1][3].partition_probability
    );

    let dyn_report = &panels.dynamic;
    let s = &dyn_report.scenario;
    crate::outln!("\nFigure 6 (dynamic): one fiber cut mid-run under steady Poisson traffic\n");
    crate::outln!(
        "  severed pair latency: p50 {:.2} -> {:.2} us (mean {:.2} -> {:.2} us)",
        s.pre.p50_ns as f64 / 1e3,
        s.post.p50_ns as f64 / 1e3,
        s.pre.mean_ns / 1e3,
        s.post.mean_ns / 1e3,
    );
    crate::outln!(
        "  path stretch: {:.2} -> {:.2} links per packet",
        s.pre_mean_hops,
        s.post_mean_hops
    );
    match s.reconvergence_ns {
        Some(ns) => crate::outln!(
            "  reconvergence: {:.1} us ({} packets lost during the outage)",
            ns as f64 / 1e3,
            s.drops_during_outage
        ),
        None => crate::outln!("  reconvergence: never (routes stayed stale)"),
    }
    crate::outln!(
        "  waterfill throughput: {:.3} intact -> {:.3} degraded ({:.1}% retained)",
        dyn_report.intact_throughput,
        dyn_report.degraded_throughput,
        100.0 * dyn_report.degraded_throughput / dyn_report.intact_throughput
    );
}
