//! # quartz-topology
//!
//! Datacenter network topologies for the Quartz reproduction (Liu et al.,
//! SIGCOMM 2014).
//!
//! The paper analyzes five representative structures (§5, Table 9) and
//! simulates six architectures (§7, Figure 15). This crate builds all of
//! them on one graph model:
//!
//! * [`graph`] — the [`Network`] type: hosts and switches, full-duplex
//!   links with bandwidth, rack placement.
//! * [`builders`] — generators: two-tier and three-tier multi-root trees,
//!   Fat-Tree, BCube, Jellyfish, the Quartz full mesh, the Figure 15
//!   composites (Quartz in core / edge / both, Quartz-in-Jellyfish), and
//!   the §6 four-switch prototype in both its Quartz and rewired
//!   two-tier-tree forms.
//! * [`route`] — routing: all-shortest-paths ECMP next-hop tables,
//!   spanning-tree (single-path L2) tables, and Valiant load balancing
//!   intermediates.
//! * [`metrics`] — the Table 9 columns: uncongested latency, switch
//!   count, wiring complexity, and path diversity (edge-disjoint paths by
//!   max-flow).
//! * [`partition`] — spatial-domain partitioning (ring arcs, whole pods,
//!   BFS-growth fallback) for the sharded simulation engine.
//! * [`spain`] — the §6 prototype's SPAIN-style per-VLAN spanning trees
//!   for application-selected multipath.
//! * [`dot`] — Graphviz export of any topology.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod builders;
pub mod dot;
pub mod graph;
pub mod metrics;
pub mod partition;
pub mod route;
pub mod spain;

pub use graph::{LinkId, Network, Node, NodeId, NodeKind, SwitchRole};
pub use partition::{spatial_domains, Partition};
pub use route::{FlatRoutes, RouteTable};
pub use spain::SpainFabric;
