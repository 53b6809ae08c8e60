//! Dynamic fault injection: deterministic schedules of link and switch
//! failures (and recoveries) applied to a live simulation.
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
//! and `quartz trace` CLIs, and the integration tests. It and the
//! online-RWA churn scenario ([`crate::rwa`]) build their simulators
//! through one crate-private scenario builder: a one-host-per-switch
//! mesh, 400 B Poisson flows and an applied plan.

use crate::sim::{FlowKind, SimConfig, Simulator};
use crate::stats::LatencySummary;
use crate::time::SimTime;
use quartz_obs::{Event, MemoryRecorder, MetricsRegistry};
use quartz_topology::builders::{quartz_mesh, QuartzMesh};
use quartz_topology::graph::{LinkId, Network, NodeId};
use std::fmt;

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
/// Build one with `link_down` / `link_up` / `switch_down` /
/// `switch_up`, then hand it to [`ShardedSim::apply_fault_plan`] (a
/// `Simulator` derefs to it), the one way faults enter a run. The plan
/// itself is plain data — the same plan applied to same-seed simulators
/// produces bit-identical runs.
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
        self.push(at, FaultKind::LinkDown(link))
    }

    /// Schedules the repair of `link` at `at`.
    pub fn link_up(&mut self, link: LinkId, at: SimTime) -> &mut Self {
        self.push(at, FaultKind::LinkUp(link))
    }

    /// Schedules the death of switch `node` at `at`.
    pub fn switch_down(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.push(at, FaultKind::SwitchDown(node))
    }

    /// Schedules the recovery of switch `node` at `at`.
    pub fn switch_up(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.push(at, FaultKind::SwitchUp(node))
    }

    fn push(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        self.events.push(PlannedFault { at, kind });
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

    /// Checks every event against `net`, in insertion order: the first
    /// that names an element `net` lacks, or fails a host, is the error.
    pub(crate) fn check(&self, net: &Network) -> Result<(), FaultError> {
        for ev in &self.events {
            match ev.kind {
                FaultKind::LinkDown(l) | FaultKind::LinkUp(l) => {
                    if l.0 as usize >= net.link_count() {
                        return Err(FaultError::UnknownLink(l));
                    }
                }
                FaultKind::SwitchDown(n) | FaultKind::SwitchUp(n) => {
                    if n.0 as usize >= net.node_count() {
                        return Err(FaultError::UnknownNode(n));
                    }
                    if !net.node(n).kind.is_switch() {
                        return Err(FaultError::NotASwitch(n));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Why [`ShardedSim::apply_fault_plan`] refused a plan. A refused plan
/// schedules nothing.
///
/// [`ShardedSim::apply_fault_plan`]: crate::shard::ShardedSim::apply_fault_plan
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// The network has no link with this id.
    UnknownLink(LinkId),
    /// The network has no node with this id.
    UnknownNode(NodeId),
    /// Only switches fail; this node is a host.
    NotASwitch(NodeId),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::UnknownLink(l) => write!(f, "fault plan names unknown link {l:?}"),
            FaultError::UnknownNode(n) => write!(f, "fault plan names unknown node {n:?}"),
            FaultError::NotASwitch(n) => write!(f, "only switches fail; {n:?} is a host"),
        }
    }
}

impl std::error::Error for FaultError {}

/// A 400 B Poisson flow of a fault scenario, between the hosts of two
/// switches: `(src switch, dst switch, tag, start, stop)`.
pub(crate) type ScenarioFlow = (usize, usize, u32, SimTime, SimTime);

/// Mean Poisson inter-packet gap of every scenario flow, ns.
const MEAN_GAP_NS: f64 = 4_000.0;

/// Builds a fault scenario's simulator: the Quartz mesh of `switches`
/// with one host per switch, a simulator seeded with `seed` whose
/// control plane reconverges `reconvergence_ns` after each fault,
/// `flows` added in order (each `add_flow` draws the flow's ECMP hash
/// from the construction RNG, so the order is part of the run), and the
/// plan that `plan` derives from the mesh, applied. Returns the
/// simulator, the run's end (`duration` plus [`DRAIN_NS`]) and what
/// `plan` returned beside the plan.
///
/// # Panics
/// Panics if the run's end overflows the 64-bit nanosecond clock or the
/// plan names an element the mesh lacks.
pub(crate) fn build_scenario<T>(
    switches: usize,
    seed: u64,
    reconvergence_ns: u64,
    duration: SimTime,
    flows: &[ScenarioFlow],
    plan: impl FnOnce(&QuartzMesh) -> (FaultPlan, T),
) -> (Simulator, SimTime, T) {
    let horizon =
        horizon(duration).expect("duration plus the drain fits the 64-bit nanosecond clock");
    let q = quartz_mesh(switches, 1, 10.0, 10.0);
    let mut sim = Simulator::new(
        q.net.clone(),
        SimConfig {
            seed,
            reconvergence_ns: Some(reconvergence_ns),
            ..SimConfig::default()
        },
    );
    for &(src, dst, tag, start, stop) in flows {
        let kind = FlowKind::Poisson {
            mean_gap_ns: MEAN_GAP_NS,
            stop,
            respond: false,
        };
        sim.add_flow(q.hosts[src], q.hosts[dst], 400, kind, tag, start);
    }
    let (plan, extra) = plan(&q);
    sim.apply_fault_plan(&plan)
        .expect("the scenario's plan names mesh links");
    (sim, horizon, extra)
}

/// Runs a built scenario to `horizon` with a memory recorder and
/// metrics attached; returns the recorded events and the metrics.
pub(crate) fn run_traced(sim: &mut Simulator, horizon: SimTime) -> (Vec<Event>, MetricsRegistry) {
    sim.set_recorder(Box::new(MemoryRecorder::new()));
    sim.enable_metrics();
    sim.run(horizon);
    let events = sim.take_recorder().expect("recorder was attached").finish();
    let metrics = sim.take_metrics().expect("metrics were enabled");
    (events, metrics)
}

/// Parameters of the canonical dynamic experiment: a Quartz mesh with
/// one host per switch under steady Poisson traffic (400 B packets,
/// 4 µs mean gap per flow), one fiber cut mid-run.
#[derive(Clone, Debug)]
pub struct CutScenarioConfig {
    /// Mesh size (switches in the ring). `(switches / 2).max(4)`
    /// background flows run between the other switches.
    pub switches: usize,
    /// When the fiber between switches 0 and 1 is cut.
    pub cut_at: SimTime,
    /// Control-plane reconvergence delay after the cut.
    pub reconvergence_ns: u64,
    /// When traffic generation stops (the run drains [`DRAIN_NS`]
    /// longer).
    pub duration: SimTime,
    /// Simulation seed (same seed ⇒ bit-identical report).
    pub seed: u64,
}

/// How long a fault-scenario run keeps going after traffic stops, ns,
/// so the packets in flight drain.
pub const DRAIN_NS: u64 = 2_000_000;

/// Where a fault-scenario run ends: `duration` plus [`DRAIN_NS`], or
/// `None` when that overflows the 64-bit nanosecond clock.
pub(crate) fn horizon(duration: SimTime) -> Option<SimTime> {
    duration.ns().checked_add(DRAIN_NS).map(SimTime::from_ns)
}

impl CutScenarioConfig {
    /// Where the run ends: `duration` plus [`DRAIN_NS`], or `None` when
    /// that overflows the 64-bit nanosecond clock.
    pub fn horizon(&self) -> Option<SimTime> {
        horizon(self.duration)
    }

    /// The paper-scale scenario: the 33-switch ring, cut at 1 ms into a
    /// 4 ms run, 50 µs reconvergence.
    pub fn paper(seed: u64) -> Self {
        CutScenarioConfig {
            switches: 33,
            cut_at: SimTime::from_ms(1),
            reconvergence_ns: 50_000,
            duration: SimTime::from_ms(4),
            seed,
        }
    }

    /// A CI-sized scenario (small mesh, 1.5 ms run).
    pub fn quick(seed: u64) -> Self {
        CutScenarioConfig {
            switches: 9,
            cut_at: SimTime::from_us(500),
            reconvergence_ns: 50_000,
            duration: SimTime::from_us(1_500),
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
    let (events, metrics) = run_traced(&mut sim, horizon);
    (scenario_report(&sim), events, metrics)
}

/// Builds the scenario simulator (severed-pair flows, background load,
/// and the scheduled cut) and returns it with the run's end.
fn scenario_sim(cfg: &CutScenarioConfig) -> (Simulator, SimTime) {
    let m = cfg.switches;
    assert!(m >= 3, "a detour needs a third switch");
    assert!(cfg.cut_at < cfg.duration, "cut must land inside the run");
    let (cut_at, stop) = (cfg.cut_at, cfg.duration);
    // The severed pair: the hosts behind switches 0 and 1, whose direct
    // channel is about to be cut. Pre- and post-cut emissions carry
    // different tags so the report can compare them.
    let mut flows = vec![
        (0, 1, TAG_PRE, SimTime::ZERO, cut_at),
        (0, 1, TAG_POST, cut_at, stop),
    ];
    // Steady background load on the rest of the mesh.
    for i in 0..(m / 2).max(4) {
        let a = 2 + i % (m - 2);
        let b = 2 + (i + 3) % (m - 2);
        if a != b {
            flows.push((a, b, TAG_BACKGROUND, SimTime::ZERO, stop));
        }
    }
    let (sim, horizon, ()) = build_scenario(m, cfg.seed, cfg.reconvergence_ns, stop, &flows, |q| {
        let cut = q
            .net
            .link_between(q.switches[0], q.switches[1])
            .expect("mesh has the direct channel");
        let mut plan = FaultPlan::new();
        plan.link_down(cut, cut_at);
        (plan, ())
    });
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
}
