//! Throughput analysis of a MapReduce-style shuffle (§5.1): how much of
//! the ideal bisection bandwidth does a Quartz mesh deliver on incast and
//! rack-level shuffle patterns, and what detour fraction should VLB use?
//!
//! Run with `cargo run --release --example mapreduce_shuffle`.

use quartz::core::routing::RoutingPolicy;
use quartz::flowsim::fabric::{OversubscribedFabric, QuartzFabric};
use quartz::flowsim::matrix::{incast, rack_shuffle};
use quartz::flowsim::throughput::normalized_throughput;

fn main() {
    let (racks, hpr) = (16, 8);
    let hosts = racks * hpr;

    println!("Incast 10:1 (the MapReduce shuffle stage), {hosts} hosts:");
    let d = incast(hosts, 10, 7);
    for k in [0.0, 0.25, 0.5, 0.75] {
        let policy = if k == 0.0 {
            RoutingPolicy::EcmpDirect
        } else {
            RoutingPolicy::vlb(k)
        };
        let f = QuartzFabric {
            racks,
            hosts_per_rack: hpr,
            channel_cap: 1.0,
            policy: policy.into(),
            severed: Vec::new(),
        };
        let t = normalized_throughput(&f, &d);
        println!("  {policy:<18} normalized throughput {:.3}", t.normalized);
    }

    println!("\nRack-level shuffle (VM rebalancing), 4 target racks:");
    let d = rack_shuffle(racks, hpr, 4, 7);
    for (name, t) in [
        (
            "Quartz ECMP",
            normalized_throughput(
                &QuartzFabric {
                    racks,
                    hosts_per_rack: hpr,
                    channel_cap: 1.0,
                    policy: RoutingPolicy::EcmpDirect.into(),
                    severed: Vec::new(),
                },
                &d,
            ),
        ),
        (
            "Quartz VLB k=0.75",
            normalized_throughput(
                &QuartzFabric {
                    racks,
                    hosts_per_rack: hpr,
                    channel_cap: 1.0,
                    policy: RoutingPolicy::vlb(0.75).into(),
                    severed: Vec::new(),
                },
                &d,
            ),
        ),
        (
            "1/2 bisection Clos",
            normalized_throughput(
                &OversubscribedFabric {
                    racks,
                    hosts_per_rack: hpr,
                    oversub: 2.0,
                },
                &d,
            ),
        ),
    ] {
        println!("  {name:<18} normalized throughput {:.3}", t.normalized);
    }
    println!("\nVLB turns concentrated rack-pair traffic into spread load — §3.4's Figure 7(b).");
}
