//! Acceptance test of the dynamic fault-injection subsystem: a 33-switch
//! Quartz ring under steady Poisson traffic, one fiber cut mid-run.
//!
//! The pinned claims:
//! * the severed pair keeps receiving after the cut — packets reroute
//!   over surviving channels with measurable latency and hop stretch;
//! * the control plane's reconvergence time is finite and exactly the
//!   configured delay;
//! * two same-seed runs are bit-identical.

use quartz::netsim::faults::{ring_cut_scenario, CutScenarioConfig, FaultKind, FaultPlan};
use quartz::netsim::sim::{FlowKind, SimConfig, Simulator};
use quartz::netsim::time::SimTime;
use quartz::topology::builders::quartz_mesh;

fn paper_scenario(seed: u64) -> CutScenarioConfig {
    CutScenarioConfig {
        duration: SimTime::from_ms(3),
        ..CutScenarioConfig::paper(seed)
    }
}

#[test]
fn ring_cut_reroutes_severed_pair_over_surviving_channels() {
    let report = ring_cut_scenario(&paper_scenario(7));

    // Healthy phase: the pair talked over its 3-link direct path.
    assert!(report.pre.count > 100, "pre-cut traffic flowed");
    assert_eq!(report.pre_mean_hops, 3.0, "direct mesh path is 3 links");

    // After the cut, packets keep arriving — over a longer detour.
    assert!(
        report.post.count > 100,
        "severed pair still receives after the cut: {report:?}"
    );
    assert!(
        report.post_mean_hops > report.pre_mean_hops,
        "detour stretches the path: {} vs {}",
        report.post_mean_hops,
        report.pre_mean_hops
    );
    assert!(
        report.post.p50_ns > report.pre.p50_ns,
        "detour latency exceeds the direct path"
    );
    // Every post-cut delivery took a detour of ≥ 4 links.
    assert!(report
        .post_hop_distribution
        .iter()
        .all(|&(hops, _)| hops >= 4));

    // Reconvergence is finite and exactly the configured control-plane
    // delay; the outage cost a bounded number of packets.
    assert_eq!(report.reconvergence_ns, Some(50_000));
    assert!(report.drops_during_outage > 0, "the outage was not free");
    assert!(
        report.drops_during_outage < 100,
        "50 us of a 4 us-gap flow is tens of packets, not {}",
        report.drops_during_outage
    );
    assert_eq!(
        report.generated,
        report.delivered + report.dropped,
        "packet conservation"
    );
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let a = ring_cut_scenario(&paper_scenario(21));
    let b = ring_cut_scenario(&paper_scenario(21));
    assert_eq!(a, b, "same seed must reproduce the exact report");

    let c = ring_cut_scenario(&paper_scenario(22));
    assert_ne!(a, c, "a different seed perturbs the run");
}

#[test]
fn fault_plan_drives_the_simulator_fault_log() {
    // Cut two channels with one plan; auto-reconvergence closes both
    // records with the configured delay.
    let q = quartz_mesh(8, 1, 10.0, 10.0);
    let mut sim = Simulator::new(
        q.net.clone(),
        SimConfig {
            seed: 5,
            reconvergence_ns: Some(20_000),
            ..SimConfig::default()
        },
    );
    for (i, (a, b)) in [(0usize, 3usize), (2, 6), (5, 1)].into_iter().enumerate() {
        sim.add_flow(
            q.hosts[a],
            q.hosts[b],
            400,
            FlowKind::Poisson {
                mean_gap_ns: 8_000.0,
                stop: SimTime::from_ms(4),
                respond: false,
            },
            i as u32,
            SimTime::ZERO,
        );
    }
    let l03 = q.net.link_between(q.switches[0], q.switches[3]).unwrap();
    let l26 = q.net.link_between(q.switches[2], q.switches[6]).unwrap();
    let mut plan = FaultPlan::new();
    plan.link_down(l03, SimTime::from_ms(1))
        .link_down(l26, SimTime::from_us(1_500));
    sim.apply_fault_plan(&plan).expect("mesh channels");
    sim.run(SimTime::from_ms(5));

    let log = sim.fault_log();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].kind, FaultKind::LinkDown(l03));
    assert_eq!(log[1].kind, FaultKind::LinkDown(l26));
    for rec in log {
        assert_eq!(
            rec.reconverged_at.map(|t| t - rec.at),
            Some(20_000),
            "each fault reconverges after the configured delay"
        );
    }
    // Both severed pairs kept talking end to end.
    let st = sim.stats();
    for tag in 0..2 {
        assert!(st.summary(tag).count > 200, "tag {tag} kept flowing");
        assert!(st.mean_hops(tag) > 3.0, "tag {tag} detoured");
    }
    assert_eq!(st.generated, st.delivered + st.dropped);
}
