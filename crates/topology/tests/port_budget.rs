//! Port-budget validation: does a generated topology actually fit on the
//! devices it claims to use?
//!
//! Table 16's switches have hard port counts (64 × 10 G for the ULL,
//! 768 × 10 G for the CCS). A topology generator can silently exceed
//! them — a 40-switch "Quartz ring" would need 39 trunk + n server ports.
//! `validate_port_budget` checks every switch's degree (weighted by
//! link rate, in 10 G-port equivalents) against a per-role budget: a test
//! oracle over every topology the builders generate.

use quartz_topology::builders::{
    quartz_in_edge_and_core, quartz_mesh, table9_fat_tree, three_tier, two_tier,
};
use quartz_topology::graph::{Network, NodeId, NodeKind, SwitchRole};
use std::fmt;

/// Port budgets per switch role, in 10 G-port equivalents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PortBudget {
    /// ToR / aggregation / Quartz-ring devices (the paper's ULL: 64).
    edge_ports_10g: u32,
    /// Core devices (the paper's CCS: 768).
    core_ports_10g: u32,
}

impl Default for PortBudget {
    fn default() -> Self {
        PortBudget {
            edge_ports_10g: 64,
            core_ports_10g: 768,
        }
    }
}

/// A switch exceeding its budget.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PortViolation {
    /// The offending switch.
    switch: NodeId,
    /// Its role.
    role: SwitchRole,
    /// 10 G-port equivalents in use.
    used: f64,
    /// The budget it exceeded.
    budget: u32,
}

impl fmt::Display for PortViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "switch {} ({:?}) uses {:.0} 10G-port equivalents, budget {}",
            self.switch, self.role, self.used, self.budget
        )
    }
}

/// Checks every switch against `budget`; returns all violations (empty =
/// the topology is physically buildable from the Table 16 parts).
fn validate_port_budget(net: &Network, budget: PortBudget) -> Vec<PortViolation> {
    let mut violations = Vec::new();
    for node in net.nodes() {
        let NodeKind::Switch(role) = node.kind else {
            continue;
        };
        let used: f64 = net
            .neighbors(node.id)
            .iter()
            .map(|&(_, l)| net.link(l).bandwidth_gbps / 10.0)
            .sum();
        let cap = match role {
            SwitchRole::Core => budget.core_ports_10g,
            _ => budget.edge_ports_10g,
        };
        if used > f64::from(cap) + 1e-9 {
            violations.push(PortViolation {
                switch: node.id,
                role,
                used,
                budget: cap,
            });
        }
    }
    violations
}

#[test]
fn every_evaluated_topology_fits_table16_parts() {
    let b = PortBudget::default();
    let nets: Vec<Network> = vec![
        quartz_mesh(33, 32, 10.0, 10.0).net,
        three_tier(8, 2, 4, 2, 10.0, 40.0).net,
        quartz_in_edge_and_core(4, 4, 4, 4).net,
        table9_fat_tree().net,
    ];
    for (i, net) in nets.iter().enumerate() {
        let v = validate_port_budget(net, b);
        assert!(v.is_empty(), "topology {i}: {:?}", v.first());
    }
}

#[test]
fn oversized_mesh_is_caught() {
    // A hand-built 40-switch full mesh with 32 hosts each would need
    // 39 + 32 = 71 ports per 64-port device: physically impossible —
    // and the validator says so. (QuartzRing::new rejects this design
    // at a higher level; the validator catches raw graphs.)
    let mut net = Network::new();
    let switches: Vec<_> = (0..40)
        .map(|r| net.add_switch(SwitchRole::QuartzRing(0), Some(r)))
        .collect();
    for i in 0..40 {
        for j in (i + 1)..40 {
            net.connect(switches[i], switches[j], 10.0);
        }
        for _ in 0..32 {
            let h = net.add_host(Some(i));
            net.connect(h, switches[i], 10.0);
        }
    }
    let v = validate_port_budget(&net, PortBudget::default());
    assert_eq!(v.len(), 40, "every ring switch is over budget");
    assert!(v[0].used > 64.0);
}

#[test]
fn forty_gig_links_count_as_four_ports() {
    let t = two_tier(2, 2, 1, 10.0, 40.0);
    // Root switch: 2 × 40G uplinks = 8 port-equivalents.
    let tight = PortBudget {
        edge_ports_10g: 7,
        core_ports_10g: 768,
    };
    let v = validate_port_budget(&t.net, tight);
    assert!(v.iter().any(|x| x.used == 8.0), "{v:?}");
}

#[test]
fn core_budget_is_separate() {
    let t = three_tier(8, 2, 4, 2, 10.0, 40.0);
    // Squeeze the core budget below its real use; edges stay fine.
    let tight = PortBudget {
        edge_ports_10g: 64,
        core_ports_10g: 8,
    };
    let v = validate_port_budget(&t.net, tight);
    assert!(!v.is_empty());
    assert!(v.iter().all(|x| x.role == SwitchRole::Core));
}
