//! The online RWA control plane driving a live simulation — churn in
//! the optical layer, felt in the packet path.
//!
//! [`quartz_core::channel::online`] keeps a wavelength plan valid while
//! ring fibers are cut and spliced. This module closes the loop with
//! the packet simulator: each [`ChurnEvent`] is compiled ahead of the
//! run into
//!
//! 1. a re-solve of the wavelength plan (warm-started from the
//!    incumbent, greedy fallback under the node budget),
//! 2. a [`FaultPlan`] that darkens exactly the lightpaths the optical
//!    layer loses — torn-down pairs from the instant of the cut,
//!    re-tuned pairs for their transceivers' retune window after the
//!    control-plane delay — and relights them when the lasers lock, and
//! 3. [`Event::RwaResolve`] / [`Event::Retune`] observability events,
//!    and the totals the traced run renders as `rwa.*` metrics.
//!
//! [`churn_scenario`] replays the compiled plan against steady Poisson
//! load on a one-host-per-switch mesh, built by the same crate-private
//! scenario builder as [`crate::faults::ring_cut_scenario`].
//!
//! Because the compilation is a pure function of the churn sequence,
//! the whole scenario stays bit-deterministic: same seed, same report,
//! at any worker count ([`churn_units`]).
//!
//! The retune window is the experiment's point: with
//! [`RetuneModel::instant`] reconfiguration is free and only the cuts
//! themselves hurt; with a real tunable-transceiver model every plan
//! change darkens channels for tens of microseconds to milliseconds,
//! and that shows up directly in the latency and drop distributions.

use crate::faults::{build_scenario, horizon, run_traced, FaultPlan};
use crate::sim::Simulator;
use crate::stats::LatencySummary;
use crate::time::SimTime;
use quartz_core::channel::online::{OnlineRwa, ResolveReport, RingDelta};
use quartz_core::channel::Pair;
use quartz_core::pool::{unit_seed, ThreadPool};
use quartz_core::rng::StdRng;
use quartz_obs::{Event, MetricsRegistry};
use quartz_optics::retune::{RetuneModel, FAST_TUNABLE_SFP};
use quartz_topology::builders::QuartzMesh;
use std::collections::BTreeMap;

/// One optical-layer transition at an absolute simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When the fiber physically changes state.
    pub at: SimTime,
    /// What changes.
    pub delta: RingDelta,
}

/// A seeded random churn sequence: `cuts` distinct ring fibers each go
/// down at a uniformly random time in `window` and — when
/// `repair_after_ns` is given — are spliced back that long after their
/// cut. Events are sorted by time (cuts before repairs on exact ties).
///
/// # Panics
/// Panics if `cuts > m` or the window is empty.
pub fn random_churn(
    m: usize,
    cuts: usize,
    window: (SimTime, SimTime),
    repair_after_ns: Option<u64>,
    seed: u64,
) -> Vec<ChurnEvent> {
    assert!(cuts <= m, "only {m} ring fibers for {cuts} cuts");
    assert!(window.1 > window.0, "empty churn window");
    let mut fibers: Vec<usize> = (0..m).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let span = window.1 - window.0;
    let mut events = Vec::with_capacity(cuts * 2);
    for _ in 0..cuts {
        let pick = rng.random_range(0..fibers.len());
        let fiber = fibers.swap_remove(pick);
        let at = window.0 + rng.random_range(0..span as usize) as u64;
        events.push(ChurnEvent {
            at,
            delta: RingDelta::FiberCut(fiber),
        });
        if let Some(mttr) = repair_after_ns {
            events.push(ChurnEvent {
                at: at + mttr,
                delta: RingDelta::FiberRepair(fiber),
            });
        }
    }
    // Total deterministic order: time, then cut-before-repair, then
    // fiber index.
    events.sort_by_key(|e| {
        (
            e.at,
            matches!(e.delta, RingDelta::FiberRepair(_)),
            e.delta.fiber(),
        )
    });
    events
}

/// The churn sequence compiled against a mesh: the fault schedule the
/// simulator replays, plus everything the control plane learned while
/// producing it.
#[derive(Clone, Debug)]
pub struct CompiledChurn {
    /// Lightpath dark/relight transitions, ready for
    /// [`ShardedSim::apply_fault_plan`](crate::shard::ShardedSim::apply_fault_plan).
    pub plan: FaultPlan,
    /// `RwaResolve` and `Retune` events, time-sorted, for merging into
    /// the simulator's trace.
    pub control_events: Vec<Event>,
    /// One re-solve report per churn event, in order.
    pub reports: Vec<ResolveReport>,
    /// Total transceiver retunes across the sequence.
    pub retunes: u64,
    /// Summed dark time charged to retuning (not to the outages
    /// themselves), ns.
    pub dark_ns_total: u64,
    /// Channels used by the final plan.
    pub final_channels: usize,
    /// Pairs still dark when the sequence ends.
    pub final_unroutable: usize,
}

/// Runs the online RWA controller over `churn` and compiles the
/// resulting optical-layer state changes into a packet-level
/// [`FaultPlan`] on `q`'s mesh.
///
/// Timing model per event at `t`: torn-down lightpaths go dark at `t`
/// (the cut is physical); the new plan lands at `t + control_delay_ns`;
/// every pair whose tuning changes is dark from then until its
/// [`RetuneOp::dark_ns`](quartz_core::channel::online::RetuneOp::dark_ns)
/// window under `retune` elapses; restored pairs relight when their
/// lasers lock. A later event supersedes any still-pending transitions
/// of the pairs it touches.
pub fn compile_churn(
    q: &QuartzMesh,
    churn: &[ChurnEvent],
    control_delay_ns: u64,
    node_budget: u64,
    retune: &RetuneModel,
) -> CompiledChurn {
    let m = q.switches.len();
    let mut rwa = OnlineRwa::new(m, node_budget);
    let mut control_events = Vec::new();
    let mut reports = Vec::with_capacity(churn.len());
    let mut retunes = 0u64;
    let mut dark_ns_total = 0u64;
    // Per-pair schedule of `(at_ns, lightpath_up)` transitions,
    // appended in event order and superseded on re-touch.
    let mut sched: BTreeMap<Pair, Vec<(u64, bool)>> = BTreeMap::new();

    for ev in churn {
        let t = ev.at.ns();
        let t_ctrl = t + control_delay_ns;
        let report = rwa.apply(ev.delta);

        // A new decision about a pair invalidates any transition of
        // that pair still scheduled for the future.
        let supersede = |sched: &mut BTreeMap<Pair, Vec<(u64, bool)>>, p: Pair| {
            sched.entry(p).or_default().retain(|&(at, _)| at <= t);
        };
        for &p in &report.torn_down {
            supersede(&mut sched, p);
            sched.get_mut(&p).expect("just inserted").push((t, false));
        }
        for op in &report.moved {
            let dark = op.dark_ns(retune);
            supersede(&mut sched, op.pair);
            let entry = sched.get_mut(&op.pair).expect("just inserted");
            if dark > 0 {
                entry.push((t_ctrl, false));
            }
            // With an instant model the pair never drops; the `true`
            // is a no-op unless an earlier window left it dark.
            entry.push((t_ctrl + dark, true));
        }
        for op in &report.restored {
            let dark = op.dark_ns(retune);
            supersede(&mut sched, op.pair);
            sched
                .get_mut(&op.pair)
                .expect("just inserted")
                .push((t_ctrl + dark, true));
        }

        let counts = [
            report.moved.len(),
            report.restored.len(),
            report.torn_down.len(),
        ];
        let sizes = [report.unroutable, report.channels, report.fresh_channels];
        debug_assert!(
            counts.iter().chain(&sizes).all(|&c| c <= u32::MAX as usize)
                && ev.delta.fiber() <= u32::MAX as usize,
            "RWA report counts fit u32"
        );
        control_events.push(Event::RwaResolve {
            t_ns: t_ctrl,
            trigger: ev.delta.as_str(),
            fiber: ev.delta.fiber() as u32,
            outcome: report.outcome.as_str(),
            moved: report.moved.len() as u32,
            restored: report.restored.len() as u32,
            torn_down: report.torn_down.len() as u32,
            unroutable: report.unroutable as u32,
            channels: report.channels as u32,
            fresh_channels: report.fresh_channels as u32,
        });
        for op in report.moved.iter().chain(report.restored.iter()) {
            if op.from == op.to {
                continue; // relight on the incumbent tuning: no retune
            }
            let dark = op.dark_ns(retune);
            retunes += 1;
            dark_ns_total += dark;
            debug_assert!(
                op.pair.a <= u32::MAX as usize && op.pair.b <= u32::MAX as usize,
                "ring pair ids fit u32"
            );
            control_events.push(Event::Retune {
                t_ns: t_ctrl,
                a: op.pair.a as u32,
                b: op.pair.b as u32,
                from_ch: op.from.1,
                to_ch: op.to.1,
                dark_ns: dark,
            });
        }
        reports.push(report);
    }

    // Flatten the per-pair schedules into link transitions, emitting
    // only actual state changes (every lightpath starts lit).
    let mut plan = FaultPlan::new();
    for (pair, transitions) in &sched {
        let link = q
            .net
            .link_between(q.switches[pair.a], q.switches[pair.b])
            .expect("mesh has a channel for every pair");
        let mut up = true;
        for &(at, want_up) in transitions {
            if want_up != up {
                if want_up {
                    plan.link_up(link, SimTime::from_ns(at));
                } else {
                    plan.link_down(link, SimTime::from_ns(at));
                }
                up = want_up;
            }
        }
    }

    CompiledChurn {
        plan,
        control_events,
        reports,
        retunes,
        dark_ns_total,
        final_channels: rwa.plan().channels_used(),
        final_unroutable: rwa.plan().unroutable().len(),
    }
}

/// Parameters of the churn experiment: a Quartz mesh with one host per
/// switch under steady Poisson load (400 B packets, 4 µs mean gap per
/// flow) while ring fibers are cut and repaired, with the online RWA
/// controller re-provisioning the optical layer.
#[derive(Clone, Debug)]
pub struct ChurnScenarioConfig {
    /// Mesh size (switches in the ring, `3..=64`).
    pub switches: usize,
    /// How many distinct ring fibers get cut.
    pub cuts: usize,
    /// Window the cuts land in.
    pub churn_window: (SimTime, SimTime),
    /// Mean time to repair after each cut (`None`: cuts are permanent).
    pub repair_after_ns: Option<u64>,
    /// Delay from a fiber transition to the new plan landing on the
    /// transceivers.
    pub control_delay_ns: u64,
    /// Routing-layer reconvergence holddown after each transition.
    pub reconvergence_ns: u64,
    /// Per-delta node budget of the incremental solver.
    pub node_budget: u64,
    /// Transceiver retune model ([`RetuneModel::instant`] for the
    /// free-reconfiguration baseline).
    pub retune: RetuneModel,
    /// When traffic generation stops (the run drains
    /// [`DRAIN_NS`](crate::faults::DRAIN_NS) longer).
    pub duration: SimTime,
    /// Simulation seed (same seed ⇒ bit-identical report).
    pub seed: u64,
}

impl ChurnScenarioConfig {
    /// Where the run ends: `duration` plus
    /// [`DRAIN_NS`](crate::faults::DRAIN_NS), or `None` when that
    /// overflows the 64-bit nanosecond clock.
    pub fn horizon(&self) -> Option<SimTime> {
        horizon(self.duration)
    }

    /// A CI-sized scenario: 9 switches, two cut+repair rounds inside a
    /// 1.5 ms run, fast-tunable transceivers.
    pub fn quick(seed: u64) -> Self {
        ChurnScenarioConfig {
            switches: 9,
            cuts: 2,
            churn_window: (SimTime::from_us(200), SimTime::from_us(800)),
            repair_after_ns: Some(400_000),
            control_delay_ns: 20_000,
            reconvergence_ns: 50_000,
            node_budget: 2_000_000,
            retune: FAST_TUNABLE_SFP,
            duration: SimTime::from_us(1_500),
            seed,
        }
    }

    /// The paper-scale scenario: the 33-switch ring, four cut+repair
    /// rounds across a 4 ms run.
    pub fn paper(seed: u64) -> Self {
        ChurnScenarioConfig {
            switches: 33,
            cuts: 4,
            churn_window: (SimTime::from_ms(1), SimTime::from_ms(3)),
            repair_after_ns: Some(500_000),
            control_delay_ns: 20_000,
            reconvergence_ns: 50_000,
            node_budget: 2_000_000,
            retune: FAST_TUNABLE_SFP,
            duration: SimTime::from_ms(4),
            seed,
        }
    }
}

/// Tag of the ring-neighbor flows.
pub const TAG_NEIGHBOR: u32 = 0;
/// Tag of the cross-ring (diameter) flows.
pub const TAG_CROSS: u32 = 1;

/// What the churn experiment measured. `PartialEq` is exact (floats
/// included): two same-seed runs must compare equal at any worker
/// count — the determinism guarantee the integration tests and the CI
/// `rwa-smoke` job pin.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnScenarioReport {
    /// Re-solves adopted from the warm start.
    pub warm_start: u32,
    /// Re-solves that fell back to fresh greedy on budget exhaustion.
    pub budget_fallback: u32,
    /// Re-solves where the fresh plan provably beat any warm completion.
    pub fresh_solve: u32,
    /// Total transceiver retunes.
    pub retunes: u64,
    /// Total retune-induced dark time, ns.
    pub dark_ns_total: u64,
    /// Channels used by the final plan.
    pub channels_final: usize,
    /// Pairs still dark at the end of the churn sequence.
    pub unroutable_final: usize,
    /// Latency of the ring-neighbor traffic.
    pub neighbor: LatencySummary,
    /// Latency of the cross-ring traffic.
    pub cross: LatencySummary,
    /// Routing reconvergences observed during the run.
    pub reroutes: u64,
    /// Total packets generated.
    pub generated: u64,
    /// Total packets delivered.
    pub delivered: u64,
    /// Total packets dropped.
    pub dropped: u64,
}

/// Builds the churn simulator and returns it with the run's end and
/// its compiled control-plane schedule.
fn churn_sim(cfg: &ChurnScenarioConfig) -> (Simulator, SimTime, CompiledChurn) {
    let m = cfg.switches;
    assert!(m >= 3, "a detour needs a third switch");
    // Every switch talks to its ring neighbor (shortest channels, the
    // ones single cuts displace) and to its antipode (the long arcs
    // that cross whichever fiber dies).
    let stop = cfg.duration;
    let flows: Vec<_> = (0..m)
        .flat_map(|i| {
            [
                (i, (i + 1) % m, TAG_NEIGHBOR, SimTime::ZERO, stop),
                (i, (i + m / 2) % m, TAG_CROSS, SimTime::ZERO, stop),
            ]
        })
        .collect();
    // The churn stream gets its own unit of the seed's splitmix stream
    // so it never aliases the simulator's draws.
    let churn = random_churn(
        m,
        cfg.cuts,
        cfg.churn_window,
        cfg.repair_after_ns,
        unit_seed(cfg.seed, 1),
    );
    build_scenario(m, cfg.seed, cfg.reconvergence_ns, stop, &flows, |q| {
        let compiled = compile_churn(
            q,
            &churn,
            cfg.control_delay_ns,
            cfg.node_budget,
            &cfg.retune,
        );
        (compiled.plan.clone(), compiled)
    })
}

/// Summarizes a finished churn run.
fn churn_report(sim: &Simulator, compiled: &CompiledChurn) -> ChurnScenarioReport {
    let stats = sim.stats();
    let mut warm_start = 0;
    let mut budget_fallback = 0;
    let mut fresh_solve = 0;
    for r in &compiled.reports {
        use quartz_core::channel::online::ResolveOutcome;
        match r.outcome {
            ResolveOutcome::WarmStart => warm_start += 1,
            ResolveOutcome::BudgetFallback => budget_fallback += 1,
            ResolveOutcome::FreshSolve => fresh_solve += 1,
        }
    }
    ChurnScenarioReport {
        warm_start,
        budget_fallback,
        fresh_solve,
        retunes: compiled.retunes,
        dark_ns_total: compiled.dark_ns_total,
        channels_final: compiled.final_channels,
        unroutable_final: compiled.final_unroutable,
        neighbor: stats.summary(TAG_NEIGHBOR),
        cross: stats.summary(TAG_CROSS),
        reroutes: sim
            .fault_log()
            .iter()
            .filter(|r| r.reconverged_at.is_some())
            .count() as u64,
        generated: stats.generated,
        delivered: stats.delivered,
        dropped: stats.dropped,
    }
}

/// Runs the churn experiment: compile the seeded churn sequence through
/// the online RWA controller, replay the resulting lightpath
/// transitions against steady Poisson load, and report both the
/// control-plane outcomes and the packet-level damage.
///
/// # Panics
/// Panics if [`ChurnScenarioConfig::horizon`] overflows.
pub fn churn_scenario(cfg: &ChurnScenarioConfig) -> ChurnScenarioReport {
    let (mut sim, horizon, compiled) = churn_sim(cfg);
    sim.run(horizon);
    churn_report(&sim, &compiled)
}

/// [`churn_scenario`] traced into memory: the report, the merged event
/// stream (simulator events with the control plane's `RwaResolve` /
/// `Retune` events interleaved in time order), and the simulator's
/// metrics plus the `rwa.*` counters (one per re-solve outcome seen,
/// retunes, dark time) and gauges (final channels and unroutable pairs).
///
/// # Panics
/// Panics if [`ChurnScenarioConfig::horizon`] overflows.
pub fn churn_scenario_traced(
    cfg: &ChurnScenarioConfig,
) -> (ChurnScenarioReport, Vec<Event>, MetricsRegistry) {
    let (mut sim, horizon, compiled) = churn_sim(cfg);
    let (sim_events, mut metrics) = run_traced(&mut sim, horizon);
    for r in &compiled.reports {
        metrics.inc(&format!("rwa.resolve.{}", r.outcome.as_str()), 1);
    }
    metrics.inc("rwa.retunes", compiled.retunes);
    metrics.inc("rwa.dark_ns", compiled.dark_ns_total);
    metrics.set_gauge("rwa.channels", compiled.final_channels as f64);
    metrics.set_gauge("rwa.unroutable", compiled.final_unroutable as f64);
    let report = churn_report(&sim, &compiled);
    let events = merge_by_time(sim_events, compiled.control_events);
    (report, events, metrics)
}

/// Interleaves the control plane's time-sorted events into the
/// simulator's emission-ordered stream: each control event lands before
/// the first simulator event whose timestamp exceeds it. (The simulator
/// stream itself is not globally time-sorted — cut-through forwarding
/// records future-timestamped events — so this is an anchoring, not a
/// sort; it is deterministic either way.)
fn merge_by_time(sim_events: Vec<Event>, control: Vec<Event>) -> Vec<Event> {
    let mut out = Vec::with_capacity(sim_events.len() + control.len());
    let mut ctrl = control.into_iter().peekable();
    for ev in sim_events {
        while ctrl.peek().is_some_and(|c| c.t_ns() < ev.t_ns()) {
            out.push(ctrl.next().expect("peeked"));
        }
        out.push(ev);
    }
    out.extend(ctrl);
    out
}

/// Runs `units` independent churn scenarios (unit `u` re-seeded with
/// [`unit_seed`]`(cfg.seed, u)`) on `pool`, reports in unit order. The
/// result is bit-identical at any pool width — the property the CI
/// smoke job diffs.
pub fn churn_units(
    cfg: &ChurnScenarioConfig,
    units: usize,
    pool: &ThreadPool,
) -> Vec<ChurnScenarioReport> {
    let base = cfg.clone();
    pool.par_map(units, move |u| {
        let mut unit_cfg = base.clone();
        unit_cfg.seed = unit_seed(base.seed, u as u64);
        churn_scenario(&unit_cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_topology::builders::quartz_mesh;

    #[test]
    fn random_churn_is_seeded_and_well_ordered() {
        let w = (SimTime::from_us(100), SimTime::from_us(900));
        let a = random_churn(9, 3, w, Some(50_000), 11);
        let b = random_churn(9, 3, w, Some(50_000), 11);
        assert_eq!(a, b);
        let c = random_churn(9, 3, w, Some(50_000), 12);
        assert_ne!(a, c);
        assert_eq!(a.len(), 6);
        assert!(a.windows(2).all(|p| p[0].at <= p[1].at));
        // Every fiber is cut exactly once and repaired exactly once,
        // repair strictly after (mttr > 0).
        for e in &a {
            if let RingDelta::FiberRepair(f) = e.delta {
                let cut = a
                    .iter()
                    .find(|x| x.delta == RingDelta::FiberCut(f))
                    .expect("matching cut");
                assert_eq!(e.at, cut.at + 50_000);
            }
        }
    }

    #[test]
    fn compile_charges_retune_darkness_only_under_a_real_model() {
        let q = quartz_mesh(9, 1, 10.0, 10.0);
        let churn = random_churn(
            9,
            2,
            (SimTime::from_us(200), SimTime::from_us(800)),
            Some(400_000),
            unit_seed(0xC0FFEE, 1),
        );
        let real = compile_churn(&q, &churn, 20_000, 2_000_000, &FAST_TUNABLE_SFP);
        let instant = compile_churn(&q, &churn, 20_000, 2_000_000, &RetuneModel::instant());
        // Same control-plane decisions (the solver never sees the
        // retune model) …
        assert_eq!(real.reports, instant.reports);
        assert_eq!(real.retunes, instant.retunes);
        // … but only the real model charges dark time.
        assert_eq!(instant.dark_ns_total, 0);
        assert!(real.retunes > 0, "churn should force retunes");
        assert!(real.dark_ns_total >= real.retunes * FAST_TUNABLE_SFP.base_ns);
        // The fault schedule differs: retune windows add transitions.
        assert!(real.plan.len() >= instant.plan.len());
    }

    #[test]
    fn compiled_plan_balances_every_dark_window() {
        // Repairs within the run: every pair that goes dark comes back,
        // so downs and ups pair off exactly.
        use crate::faults::FaultKind;
        let q = quartz_mesh(9, 1, 10.0, 10.0);
        let churn = random_churn(
            9,
            2,
            (SimTime::from_us(200), SimTime::from_us(800)),
            Some(400_000),
            unit_seed(7, 1),
        );
        let compiled = compile_churn(&q, &churn, 20_000, 2_000_000, &FAST_TUNABLE_SFP);
        assert_eq!(compiled.final_unroutable, 0);
        let mut down = std::collections::BTreeMap::new();
        for ev in compiled.plan.events() {
            match ev.kind {
                FaultKind::LinkDown(l) => *down.entry(l).or_insert(0i64) += 1,
                FaultKind::LinkUp(l) => *down.entry(l).or_insert(0i64) -= 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            down.values().all(|&v| v == 0),
            "unbalanced windows: {down:?}"
        );
    }

    #[test]
    fn scenario_is_deterministic_and_feels_the_retune_window() {
        let cfg = ChurnScenarioConfig::quick(0xA1);
        let a = churn_scenario(&cfg);
        let b = churn_scenario(&cfg);
        assert_eq!(a, b, "same seed, same report");
        assert!(a.generated > 0 && a.delivered > 0);
        assert!(a.retunes > 0);
        assert!(a.dark_ns_total > 0);

        let mut instant_cfg = cfg.clone();
        instant_cfg.retune = RetuneModel::instant();
        let instant = churn_scenario(&instant_cfg);
        assert_eq!(instant.dark_ns_total, 0);
        // Reconfiguration cost is visible in the packet path: the
        // retune-modeled run loses at least as many packets, and the
        // runs are distinguishable.
        assert!(a.dropped >= instant.dropped);
        assert_ne!(a, instant);
    }

    #[test]
    fn traced_run_matches_plain_run_and_tells_the_story() {
        let cfg = ChurnScenarioConfig::quick(0xB2);
        let plain = churn_scenario(&cfg);
        let (traced, events, metrics) = churn_scenario_traced(&cfg);
        assert_eq!(plain, traced);
        // The control plane's own events stay in time order inside the
        // merged stream (the sim stream is emission-ordered, so only
        // the control subsequence is globally sorted).
        let ctrl_times: Vec<u64> = events
            .iter()
            .filter(|e| matches!(e.tag(), "rwa_resolve" | "retune"))
            .map(|e| e.t_ns())
            .collect();
        assert!(ctrl_times.windows(2).all(|w| w[0] <= w[1]));
        let resolves = events.iter().filter(|e| e.tag() == "rwa_resolve").count();
        assert_eq!(resolves, 2 * cfg.cuts);
        assert_eq!(
            events.iter().filter(|e| e.tag() == "retune").count() as u64,
            traced.retunes
        );
        assert_eq!(
            metrics.counter("rwa.resolve.warm_start")
                + metrics.counter("rwa.resolve.budget_fallback")
                + metrics.counter("rwa.resolve.fresh_solve"),
            (2 * cfg.cuts) as u64
        );
        assert_eq!(metrics.counter("rwa.retunes"), traced.retunes);
        assert_eq!(metrics.counter("sim.packets.generated"), traced.generated);
    }

    #[test]
    fn units_are_identical_across_pool_widths() {
        let cfg = ChurnScenarioConfig::quick(0xC3);
        let seq = churn_units(&cfg, 3, &ThreadPool::sequential());
        let par = churn_units(&cfg, 3, &ThreadPool::new(4));
        assert_eq!(seq, par);
        // Units are genuinely different experiments.
        assert_ne!(seq[0], seq[1]);
    }
}
