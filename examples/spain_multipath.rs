//! SPAIN-style multipath on the §6 prototype: build one VLAN spanning
//! tree per switch, then steer the same RPC over the direct two-switch
//! path and over every indirect three-switch detour, measuring each.
//!
//! Run with `cargo run --release --example spain_multipath`.

use quartz::netsim::sim::{FlowKind, SimConfig, Simulator};
use quartz::netsim::time::SimTime;
use quartz::topology::builders::prototype_quartz;
use quartz::topology::spain::SpainFabric;

fn main() {
    let p = prototype_quartz();
    let spain = SpainFabric::per_switch(&p.net);
    let (src, dst) = (p.hosts[2], p.hosts[4]); // S2-host → S3-host

    println!("SPAIN path choices for {src} → {dst} (links incl. host hops):");
    for (vlan, len) in spain.path_choices(src, dst) {
        println!(
            "  VLAN {vlan} (tree rooted at {}): {len} links",
            spain.root(vlan)
        );
    }
    println!(
        "best VLAN: {}\n",
        spain.best_vlan(src, dst).expect("reachable")
    );

    println!("measured RPC round trips per VLAN:");
    for vlan in 0..spain.vlans() {
        let mut sim = Simulator::new(
            p.net.clone(),
            SimConfig {
                prop_delay_ns: 0,
                ..SimConfig::default()
            },
        );
        let t = sim
            .add_route_table(spain.table(vlan).clone())
            .expect("VLAN trees span the prototype");
        let f = sim.add_flow(
            src,
            dst,
            100,
            FlowKind::Rpc { count: 500 },
            0,
            SimTime::ZERO,
        );
        sim.pin_flow_to_table(f, t)
            .expect("the flow and the table exist");
        sim.run(SimTime::from_ms(100));
        let s = sim.stats().summary(0);
        println!("  VLAN {vlan}: mean RTT {:.2} µs", s.mean_us());
    }
    println!("\nThe VLANs rooted at S2/S3 ride the direct mesh channel; the others pay one extra switch — exactly the knob the prototype used (§6).");
}
