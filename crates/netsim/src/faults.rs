//! Dynamic fault injection: deterministic, seeded schedules of link and
//! switch failures (and recoveries) applied to a live simulation.
//!
//! §3.5 of the paper argues Quartz keeps working through fiber cuts:
//! "routing protocols can route around failed links". The static
//! Monte-Carlo analysis in [`quartz_core::fault`] measures how much
//! *capacity* survives; this module measures what actually happens to
//! *packets in flight*: a [`FaultPlan`] schedules cuts mid-run, the
//! simulator drops everything forwarded onto dead elements until its
//! control plane reconverges onto failure-aware routes (see
//! [`crate::sim::SimConfig::reconvergence_ns`]), and the statistics
//! record the latency and hop-count stretch of the detoured traffic.
//!
//! [`ring_cut_scenario`] packages the paper-flavoured experiment — a
//! Quartz mesh under steady Poisson load, one fiber cut at `t = T` —
//! used by the Figure 6 dynamic panel, the `quartz faults --dynamic`
//! CLI, and the integration tests.

use crate::sim::{FlowKind, SimConfig, Simulator};
use crate::stats::LatencySummary;
use crate::time::SimTime;
use quartz_core::rng::StdRng;
use quartz_obs::{Event, MemoryRecorder, MetricsRegistry};
use quartz_topology::builders::quartz_mesh;
use quartz_topology::graph::{LinkId, Network, NodeId, NodeKind};

/// One kind of scheduled fault or recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Both directions of a link start dropping traffic (fiber cut).
    LinkDown(LinkId),
    /// A previously cut link carries traffic again (splice repaired).
    LinkUp(LinkId),
    /// A switch dies: every frame inside or arriving at it is lost.
    SwitchDown(NodeId),
    /// A dead switch comes back.
    SwitchUp(NodeId),
}

/// A fault (or recovery) scheduled at an absolute simulation time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedFault {
    /// When the event fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of failure and recovery events.
///
/// Build one explicitly (`link_down` / `switch_down` / …) or generate a
/// random-but-seeded plan with [`FaultPlan::random_link_faults`]; then
/// hand it to [`ShardedSim::apply_fault_plan`] (or a `Simulator`'s).
/// The plan itself is plain data — the same plan applied to same-seed
/// simulators produces bit-identical runs.
///
/// [`ShardedSim::apply_fault_plan`]: crate::shard::ShardedSim::apply_fault_plan
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<PlannedFault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a fiber cut of `link` at `at`.
    pub fn link_down(&mut self, link: LinkId, at: SimTime) -> &mut Self {
        self.events.push(PlannedFault {
            at,
            kind: FaultKind::LinkDown(link),
        });
        self
    }

    /// Schedules the repair of `link` at `at`.
    pub fn link_up(&mut self, link: LinkId, at: SimTime) -> &mut Self {
        self.events.push(PlannedFault {
            at,
            kind: FaultKind::LinkUp(link),
        });
        self
    }

    /// Schedules the death of switch `node` at `at`.
    pub fn switch_down(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.events.push(PlannedFault {
            at,
            kind: FaultKind::SwitchDown(node),
        });
        self
    }

    /// Schedules the recovery of switch `node` at `at`.
    pub fn switch_up(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.events.push(PlannedFault {
            at,
            kind: FaultKind::SwitchUp(node),
        });
        self
    }

    /// The planned events, sorted by time (stable for ties: insertion
    /// order).
    pub fn events(&self) -> Vec<PlannedFault> {
        let mut e = self.events.clone();
        e.sort_by_key(|f| f.at);
        e
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a seeded random plan: `count` distinct switch-to-switch
    /// links of `net` each go down at a uniformly random time in
    /// `window`, and — if `repair_after_ns` is given — come back up that
    /// long after their cut. Host access links are never cut (the paper's
    /// failure model is about the ring fibers, not server NICs).
    ///
    /// # Panics
    /// Panics if `net` has fewer than `count` switch-to-switch links or
    /// the window is empty.
    pub fn random_link_faults(
        net: &Network,
        count: usize,
        window: (SimTime, SimTime),
        repair_after_ns: Option<u64>,
        seed: u64,
    ) -> Self {
        assert!(window.1 > window.0, "empty fault window");
        let mut candidates: Vec<LinkId> = net
            .links()
            .filter(|l| {
                net.node(l.a).kind != NodeKind::Host && net.node(l.b).kind != NodeKind::Host
            })
            .map(|l| l.id)
            .collect();
        assert!(
            candidates.len() >= count,
            "only {} switch-to-switch links for {count} faults",
            candidates.len()
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let span = window.1 - window.0;
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let pick = rng.random_range(0..candidates.len());
            let link = candidates.swap_remove(pick);
            let at = window.0 + rng.random_range(0..span as usize) as u64;
            plan.link_down(link, at);
            if let Some(mttr) = repair_after_ns {
                plan.link_up(link, at + mttr);
            }
        }
        plan
    }
}

/// Parameters of the canonical dynamic experiment: a Quartz mesh under
/// steady Poisson traffic, one fiber cut mid-run.
#[derive(Clone, Debug)]
pub struct CutScenarioConfig {
    /// Mesh size (switches in the ring).
    pub switches: usize,
    /// Hosts attached to each switch.
    pub hosts_per_switch: usize,
    /// When the fiber between switches 0 and 1 is cut.
    pub cut_at: SimTime,
    /// Control-plane reconvergence delay after the cut.
    pub reconvergence_ns: u64,
    /// When traffic generation stops (the run drains [`DRAIN_NS`]
    /// longer).
    pub duration: SimTime,
    /// Mean Poisson inter-packet gap per flow, ns.
    pub mean_gap_ns: f64,
    /// Extra steady cross-traffic flows between other switch pairs.
    pub background_pairs: usize,
    /// Simulation seed (same seed ⇒ bit-identical report).
    pub seed: u64,
}

/// How long a ring-cut run keeps going after traffic stops, ns, so
/// the packets in flight drain.
pub const DRAIN_NS: u64 = 2_000_000;

impl CutScenarioConfig {
    /// Where the run ends: `duration` plus [`DRAIN_NS`], or `None` when
    /// that overflows the 64-bit nanosecond clock.
    pub fn horizon(&self) -> Option<SimTime> {
        self.duration
            .ns()
            .checked_add(DRAIN_NS)
            .map(SimTime::from_ns)
    }

    /// The paper-scale scenario: the 33-switch ring, cut at 1 ms into a
    /// 4 ms run, 50 µs reconvergence.
    pub fn paper(seed: u64) -> Self {
        CutScenarioConfig {
            switches: 33,
            hosts_per_switch: 1,
            cut_at: SimTime::from_ms(1),
            reconvergence_ns: 50_000,
            duration: SimTime::from_ms(4),
            mean_gap_ns: 4_000.0,
            background_pairs: 16,
            seed,
        }
    }

    /// A CI-sized scenario (small mesh, 1.5 ms run).
    pub fn quick(seed: u64) -> Self {
        CutScenarioConfig {
            switches: 9,
            hosts_per_switch: 1,
            cut_at: SimTime::from_us(500),
            reconvergence_ns: 50_000,
            duration: SimTime::from_us(1_500),
            mean_gap_ns: 4_000.0,
            background_pairs: 4,
            seed,
        }
    }
}

/// What the dynamic experiment measured. `PartialEq` is exact (floats
/// included): two same-seed runs must compare equal, which is the
/// determinism guarantee the integration tests pin.
#[derive(Clone, Debug, PartialEq)]
pub struct CutScenarioReport {
    /// Latency of the severed pair's traffic before the cut.
    pub pre: LatencySummary,
    /// Latency of the severed pair's traffic emitted after the cut
    /// (detoured over surviving channels once routes reconverge).
    pub post: LatencySummary,
    /// Mean links traversed before the cut.
    pub pre_mean_hops: f64,
    /// Mean links traversed after the cut (≥ pre: the detour is longer).
    pub post_mean_hops: f64,
    /// Full post-cut path-length distribution `(links, packets)`.
    pub post_hop_distribution: Vec<(u32, usize)>,
    /// Measured control-plane reconvergence time, ns (`None` if routes
    /// never reconverged within the run).
    pub reconvergence_ns: Option<u64>,
    /// Packets lost between the cut and reconvergence.
    pub drops_during_outage: u64,
    /// Total packets generated.
    pub generated: u64,
    /// Total packets delivered.
    pub delivered: u64,
    /// Total packets dropped.
    pub dropped: u64,
}

/// Tag of the severed pair's pre-cut traffic.
pub const TAG_PRE: u32 = 0;
/// Tag of the severed pair's post-cut traffic.
pub const TAG_POST: u32 = 1;
/// Tag of the background cross-traffic.
pub const TAG_BACKGROUND: u32 = 2;

/// Runs the canonical dynamic experiment: build the mesh, load it with
/// Poisson traffic, cut the switch-0↔switch-1 fiber at `cut_at`, let the
/// control plane reconverge onto the degraded routes, and report the
/// severed pair's before/after latency and path stretch.
///
/// # Panics
/// Panics if the mesh has fewer than 3 switches, the cut does not fall
/// inside `duration`, or the run's end overflows the clock
/// ([`CutScenarioConfig::horizon`]).
pub fn ring_cut_scenario(cfg: &CutScenarioConfig) -> CutScenarioReport {
    let (mut sim, horizon) = scenario_sim(cfg);
    sim.run(horizon);
    scenario_report(&sim)
}

/// [`ring_cut_scenario`] traced into memory: the report, the full event
/// stream, and the metrics registry. The report is identical to the
/// untraced run's — observation never perturbs the simulation.
///
/// # Panics
/// As [`ring_cut_scenario`].
pub fn ring_cut_scenario_traced(
    cfg: &CutScenarioConfig,
) -> (CutScenarioReport, Vec<Event>, MetricsRegistry) {
    let (mut sim, horizon) = scenario_sim(cfg);
    sim.set_recorder(Box::new(MemoryRecorder::new()));
    sim.enable_metrics();
    sim.run(horizon);
    let events = sim.take_recorder().expect("recorder was attached").finish();
    let metrics = sim.take_metrics().expect("metrics were enabled");
    (scenario_report(&sim), events, metrics)
}

/// Builds the scenario simulator (mesh, severed-pair flows, background
/// load, and the scheduled cut) and returns it with the run's end.
fn scenario_sim(cfg: &CutScenarioConfig) -> (Simulator, SimTime) {
    assert!(cfg.switches >= 3, "a detour needs a third switch");
    assert!(cfg.cut_at < cfg.duration, "cut must land inside the run");
    let horizon = cfg
        .horizon()
        .expect("duration plus the drain fits the 64-bit nanosecond clock");
    let q = quartz_mesh(cfg.switches, cfg.hosts_per_switch, 10.0, 10.0);
    let mut sim = Simulator::new(
        q.net.clone(),
        SimConfig {
            seed: cfg.seed,
            reconvergence_ns: Some(cfg.reconvergence_ns),
            ..SimConfig::default()
        },
    );
    let hps = cfg.hosts_per_switch;
    let host_of = |sw: usize| q.hosts[sw * hps];

    // The severed pair: hosts behind switches 0 and 1, whose direct
    // channel is about to be cut. Pre- and post-cut emissions carry
    // different tags so the report can compare them.
    sim.add_flow(
        host_of(0),
        host_of(1),
        400,
        FlowKind::Poisson {
            mean_gap_ns: cfg.mean_gap_ns,
            stop: cfg.cut_at,
            respond: false,
        },
        TAG_PRE,
        SimTime::ZERO,
    );
    sim.add_flow(
        host_of(0),
        host_of(1),
        400,
        FlowKind::Poisson {
            mean_gap_ns: cfg.mean_gap_ns,
            stop: cfg.duration,
            respond: false,
        },
        TAG_POST,
        cfg.cut_at,
    );
    // Steady background load on the rest of the mesh.
    for i in 0..cfg.background_pairs {
        let a = 2 + i % (cfg.switches - 2);
        let b = 2 + (i + 3) % (cfg.switches - 2);
        if a == b {
            continue;
        }
        sim.add_flow(
            host_of(a),
            host_of(b),
            400,
            FlowKind::Poisson {
                mean_gap_ns: cfg.mean_gap_ns,
                stop: cfg.duration,
                respond: false,
            },
            TAG_BACKGROUND,
            SimTime::ZERO,
        );
    }

    let cut = q
        .net
        .link_between(q.switches[0], q.switches[1])
        .expect("mesh has the direct channel");
    let mut plan = FaultPlan::new();
    plan.link_down(cut, cfg.cut_at);
    sim.apply_fault_plan(&plan);
    (sim, horizon)
}

/// Summarizes a finished scenario run.
fn scenario_report(sim: &Simulator) -> CutScenarioReport {
    let record = sim.fault_log().first().expect("one fault was injected");
    let stats = sim.stats();
    CutScenarioReport {
        pre: stats.summary(TAG_PRE),
        post: stats.summary(TAG_POST),
        pre_mean_hops: stats.mean_hops(TAG_PRE),
        post_mean_hops: stats.mean_hops(TAG_POST),
        post_hop_distribution: stats.hop_distribution(TAG_POST),
        reconvergence_ns: record.reconverged_at.map(|t| t - record.at),
        drops_during_outage: record.drops_during_outage,
        generated: stats.generated,
        delivered: stats.delivered,
        dropped: stats.dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_topology::builders::prototype_quartz;

    #[test]
    fn plan_events_sort_by_time() {
        let mut p = FaultPlan::new();
        p.link_down(LinkId(3), SimTime::from_us(9))
            .switch_down(NodeId(1), SimTime::from_us(2))
            .link_up(LinkId(3), SimTime::from_us(20));
        let e = p.events();
        assert_eq!(p.len(), 3);
        assert_eq!(e[0].kind, FaultKind::SwitchDown(NodeId(1)));
        assert_eq!(e[2].kind, FaultKind::LinkUp(LinkId(3)));
        assert!(e.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn random_plans_are_seeded_and_skip_host_links() {
        let p = prototype_quartz();
        let window = (SimTime::from_us(10), SimTime::from_us(100));
        let a = FaultPlan::random_link_faults(&p.net, 3, window, Some(5_000), 7);
        let b = FaultPlan::random_link_faults(&p.net, 3, window, Some(5_000), 7);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::random_link_faults(&p.net, 3, window, Some(5_000), 8);
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.len(), 6); // 3 cuts + 3 repairs
        for ev in a.events() {
            let (link, up) = match ev.kind {
                FaultKind::LinkDown(l) => (l, false),
                FaultKind::LinkUp(l) => (l, true),
                other => panic!("unexpected {other:?}"),
            };
            let l = p.net.link(link);
            assert!(
                p.switches.contains(&l.a) && p.switches.contains(&l.b),
                "host link {link:?} in plan"
            );
            if !up {
                assert!(ev.at >= window.0 && ev.at < window.1);
            }
        }
    }

    #[test]
    fn tracing_never_perturbs_the_scenario() {
        // The observe-only contract: a run with a recorder and metrics
        // attached reports *exactly* what an unobserved run reports
        // (CutScenarioReport's PartialEq is float-exact).
        let cfg = CutScenarioConfig::quick(0xD16);
        let plain = ring_cut_scenario(&cfg);
        let (traced, events, metrics) = ring_cut_scenario_traced(&cfg);
        assert_eq!(plain, traced);

        // The trace tells the same story as the report.
        assert!(!events.is_empty());
        assert_eq!(events[0].tag(), "gen");
        assert!(events.iter().any(|e| e.tag() == "fault"));
        assert!(events.iter().any(|e| e.tag() == "reroute"));
        let cuts = events
            .iter()
            .filter(|e| matches!(e, Event::Fault { kind, .. } if *kind == "link_down"))
            .count();
        assert_eq!(cuts, 1);
        assert_eq!(metrics.counter("sim.packets.generated"), traced.generated);
        assert_eq!(metrics.counter("sim.packets.delivered"), traced.delivered);
        assert_eq!(metrics.counter("sim.packets.dropped"), traced.dropped);
        assert_eq!(metrics.counter("sim.fault.link_down"), 1);
        assert!(metrics.counter("sim.reroutes") >= 1);
        // Per-link series exist for the mesh links the traffic used.
        assert!(metrics
            .to_ndjson()
            .lines()
            .any(|l| l.contains("queue.link")));
    }

    #[test]
    #[should_panic(expected = "switch-to-switch")]
    fn too_many_faults_panic() {
        let p = prototype_quartz();
        let _ = FaultPlan::random_link_faults(
            &p.net,
            100,
            (SimTime::ZERO, SimTime::from_us(1)),
            None,
            1,
        );
    }
}
