//! Cross-validation between the two performance models: the packet-level
//! simulator (`quartz-netsim`) and the flow-level max-min solver
//! (`quartz-flowsim`) must agree on steady-state throughput when driven
//! by the same demands on the same fabric — the strongest internal
//! consistency check the workspace has.

use quartz::core::routing::RoutingPolicy;
use quartz::flowsim::fabric::{Fabric, QuartzFabric};
use quartz::flowsim::waterfill::max_min_rates;
use quartz::netsim::sim::{FlowKind, SimConfig, Simulator};
use quartz::netsim::switch::LatencyModel;
use quartz::netsim::time::SimTime;
use quartz::topology::builders::quartz_mesh;

/// Packet-level delivered rate per flow (in line-rate units) on a 4×2
/// mesh, offering `offer` line-rate units per flow.
///
/// The offer stays below the source NIC rate: a saturated source link
/// re-shapes Poisson traffic into deterministic back-to-back spacing,
/// and two such deterministic streams meeting at one drop-tail queue
/// phase-lock (one wins every freed slot) — physically real for
/// unrandomized senders, but not the regime the fluid model describes.
fn netsim_rates(demands: &[(usize, usize)], offer: f64) -> Vec<f64> {
    let q = quartz_mesh(4, 2, 10.0, 10.0);
    let mut sim = Simulator::new(
        q.net.clone(),
        SimConfig {
            prop_delay_ns: 0,
            latency: LatencyModel::ideal(),
            ..SimConfig::default()
        },
    );
    let run_ms = 40u64;
    let stop = SimTime::from_ms(run_ms);
    for (i, &(s, d)) in demands.iter().enumerate() {
        sim.add_flow(
            q.hosts[s],
            q.hosts[d],
            400,
            FlowKind::Poisson {
                mean_gap_ns: 320.0 / offer,
                stop,
                respond: false,
            },
            i as u32,
            SimTime::ZERO,
        );
    }
    sim.run(SimTime::from_ms(run_ms + 20));
    demands
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let delivered = sim.stats().summary(i as u32).count as f64;
            // bits delivered / simulated time, normalized to 10 Gb/s.
            delivered * 400.0 * 8.0 / (run_ms as f64 * 1e6) / 10.0
        })
        .collect()
}

/// Flow-level max-min prediction for the same demands.
fn flowsim_rates(demands: &[(usize, usize)]) -> Vec<f64> {
    let fabric = QuartzFabric {
        racks: 4,
        hosts_per_rack: 2,
        channel_cap: 1.0,
        policy: RoutingPolicy::EcmpDirect.into(),
        severed: Vec::new(),
    };
    max_min_rates(&fabric.problem(demands))
}

#[test]
fn packet_and_flow_models_agree_on_shared_channel() {
    // Two flows share the rack0→rack1 channel (fair split 0.5 each); a
    // third has the rack2→rack3 channel to itself. Offer 0.8 per flow:
    // the shared pair is bottleneck-governed (0.5 < 0.8), the lone flow
    // demand-governed (0.8 < 1.0).
    let offer = 0.8;
    let demands = vec![(0usize, 2usize), (1, 3), (4, 6)];
    let predicted = flowsim_rates(&demands);
    let measured = netsim_rates(&demands, offer);
    assert!((predicted[0] - 0.5).abs() < 1e-9);
    assert!((predicted[1] - 0.5).abs() < 1e-9);
    assert!(predicted[2] > 0.99);
    for (i, (p, m)) in predicted.iter().zip(&measured).enumerate() {
        let expect = p.min(offer); // the fluid model has no demand cap
        let err = (expect - m).abs() / expect;
        assert!(
            err < 0.12,
            "flow {i}: expected {expect:.3} vs netsim {m:.3} ({err:.2} rel err)"
        );
    }
}

#[test]
fn packet_and_flow_models_agree_on_incast() {
    // Both hosts of racks 0 and 1 target rack 2's first host: four flows
    // into one 10 G downlink → 0.25 each in both models. Offer 0.3 per
    // flow so only the shared downlink saturates (the intermediate
    // channels carry 0.6 and stay Poisson).
    let offer = 0.3;
    let demands = vec![(0usize, 4usize), (1, 4), (2, 4), (3, 4)];
    let predicted = flowsim_rates(&demands);
    let measured = netsim_rates(&demands, offer);
    for (i, (p, m)) in predicted.iter().zip(&measured).enumerate() {
        assert!((p - 0.25).abs() < 0.01, "prediction {p} for flow {i}");
        let err = (p - m).abs() / p;
        assert!(
            err < 0.12,
            "flow {i}: flowsim {p:.3} vs netsim {m:.3} ({err:.2} rel err)"
        );
    }
}
