//! # quartz-netsim
//!
//! A packet-level discrete-event network simulator, built for the Quartz
//! reproduction the way the paper built its own: "we implemented our own
//! packet-level discrete event network simulator that we tailored to our
//! specific requirements. We have performed extensive validation testing
//! of our simulator to ensure that it produces correct results that match
//! queuing theory." (§7)
//!
//! Modeling choices (all from the paper):
//!
//! * 400-byte packets generated by Poisson processes (§7);
//! * two switch models — the Cisco Nexus 7000 store-and-forward core
//!   switch (6 µs) and the Arista 7150S cut-through switch (380 ns),
//!   Table 16;
//! * cut-through switches begin transmitting after the header plus the
//!   switching delay; store-and-forward switches wait for the full frame;
//!   a cut-through output faster than its input degrades to
//!   store-and-forward (it would otherwise underrun);
//! * drop-tail output queues with a configurable per-port byte capacity;
//! * ECMP by flow hash over the all-shortest-path DAG, with optional
//!   Valiant load balancing inside designated mesh domains (§3.4).
//!
//! The simulator is deterministic: one seeded RNG drives all stochastic
//! decisions, and event ties break on a monotone sequence number.
//!
//! Module map: [`time`] (nanosecond clock), [`switch`] (device models,
//! Tables 2 and 16), [`stats`] (latency aggregation with confidence
//! intervals), [`sim`] (the serial engine and the flow kinds: Poisson
//! streams, request/response, ping-pong RPC, bursty on/off sources,
//! paced file transfers, Reno/DCTCP transport), [`shard`] (the sharded
//! single-simulation engine: spatial domains advancing under
//! conservative lookahead with bit-identical output at any domain
//! count), the crate-private `core` (the one per-packet core both
//! engines run: forwarding, delivery, emission, transport actions,
//! drops, faults and reroute), [`workload`] (the §7 scatter/gather task
//! drivers), [`transport`] (the congestion-control state machines),
//! [`faults`] (seeded fault plans, live fiber cuts and switch deaths,
//! and the canonical mid-run ring-cut experiment), [`rwa`] (the online
//! wavelength-reassignment control plane driving lightpath dark/relight
//! windows under churn), [`sched`] (the timing-wheel event queue),
//! [`arena`] (the struct-of-arrays in-flight packet store the hot path
//! indexes instead of cloning).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod arena;
mod core;
pub mod faults;
pub mod latency;
pub mod rwa;
pub mod sched;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod switch;
pub mod time;
pub mod transport;
pub mod workload;

pub use arena::{PacketArena, PacketId};
pub use faults::{
    ring_cut_scenario, CutScenarioConfig, CutScenarioReport, FaultKind, FaultPlan, PlannedFault,
};
pub use latency::ComponentLatency;
pub use rwa::{
    churn_scenario, churn_units, ChurnEvent, ChurnScenarioConfig, ChurnScenarioReport,
    CompiledChurn,
};
pub use sched::TimingWheel;
pub use shard::ShardedSim;
pub use sim::{FaultRecord, FlowCompletion, FlowKind, SimConfig, Simulator, VlbConfig};
pub use stats::{LatencySummary, Series, Stats};
pub use switch::{LatencyModel, SwitchSpec, ARISTA_7150S, CISCO_NEXUS_7000};
pub use time::SimTime;
pub use transport::TcpVariant;
pub use workload::{Shape, Task, TaskSet};
