//! A live failure drill (§3.5 in action): cut a fiber mid-simulation,
//! watch traffic drop, reconverge routing, and watch it flow again over
//! a two-hop detour.
//!
//! Run with `cargo run --release --example failure_drill`.

use quartz::netsim::faults::FaultPlan;
use quartz::netsim::sim::{FlowKind, SimConfig, Simulator};
use quartz::netsim::time::SimTime;
use quartz::topology::builders::quartz_mesh;

fn main() {
    let q = quartz_mesh(6, 2, 10.0, 10.0);
    let mut sim = Simulator::new(q.net.clone(), SimConfig::default());
    let stop = SimTime::from_ms(30);
    sim.add_flow(
        q.hosts[0], // under switch 0
        q.hosts[2], // under switch 1
        400,
        FlowKind::Poisson {
            mean_gap_ns: 4_000.0,
            stop,
            respond: false,
        },
        0,
        SimTime::ZERO,
    );

    // T+10 ms: backhoe finds the direct S0–S1 channel.
    let direct = q.net.link_between(q.switches[0], q.switches[1]).unwrap();
    let mut plan = FaultPlan::new();
    plan.link_down(direct, SimTime::from_ms(10));
    sim.apply_fault_plan(&plan)
        .expect("the mesh has the channel");

    sim.run(SimTime::from_ms(10));
    let healthy = (sim.stats().delivered, sim.stats().dropped);
    println!(
        "t=10ms  delivered {:>6}  dropped {:>4}  (healthy)",
        healthy.0, healthy.1
    );

    sim.run(SimTime::from_ms(20));
    let cut = (sim.stats().delivered, sim.stats().dropped);
    println!(
        "t=20ms  delivered {:>6}  dropped {:>4}  (fiber cut, routes stale)",
        cut.0, cut.1
    );

    sim.reroute();
    sim.run(SimTime::from_ms(35));
    let after = (sim.stats().delivered, sim.stats().dropped);
    println!(
        "t=30ms  delivered {:>6}  dropped {:>4}  (reconverged via 2-hop detour)",
        after.0, after.1
    );

    let s = sim.stats().summary(0);
    println!(
        "\nmean latency {:.2} µs, p99 {:.2} µs — detour packets pay one extra switch",
        s.mean_us(),
        s.p99_ns as f64 / 1e3
    );
    println!("With two physical rings, the cut wouldn't even cost this much (Figure 6).");
}
