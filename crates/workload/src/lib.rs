//! `quartz-workload` — trace-driven traffic, heavy-tail generators,
//! incast storms, and ML collectives as a first-class subsystem.
//!
//! The Quartz paper's claims are about *latency under realistic
//! traffic*: §2 motivates the design with partition/aggregate
//! (incast-prone) services and heavy-tailed flow mixes, and §5
//! evaluates with fixed traffic patterns. This crate turns "realistic
//! traffic" into a reusable subsystem with four drivers behind one
//! [`WorkloadSpec`]:
//!
//! * **Trace replay** ([`trace`]) — an ndjson flow-trace format
//!   (`{"src":..,"dst":..,"bytes":..,"start_ns":..}`) with strict,
//!   line-numbered validation, replayed verbatim through the
//!   transport layer.
//! * **Empirical distributions** ([`dist`]) — websearch / hadoop
//!   heavy-tail flow-size CDFs, inverse-transform sampled, with
//!   Poisson arrivals scaled to a target fraction of bisection
//!   bandwidth.
//! * **Incast** — parameterized fan-in storms (N senders, one
//!   receiver, synchronized or jittered).
//! * **ML collectives** ([`collective`]) — ring and tree all-reduce
//!   as chunked, delivery-driven transfer schedules with per-step
//!   timings.
//!
//! Every driver reports flow completion times and slowdowns per size
//! bucket ([`report`]), runs bit-identically at any worker count
//! ([`run::run_units`]), and emits flow/collective events through the
//! observability layer.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod collective;
pub mod dist;
pub mod report;
pub mod run;
pub mod spec;
pub mod trace;

pub use collective::{run_allreduce, CollectiveAlgo, CollectiveReport, CollectiveStep};
pub use dist::{SizeDist, HADOOP, WEBSEARCH};
pub use report::{BucketStat, WorkloadReport, BUCKETS};
pub use run::{run_units, run_workload, variant_by_name, variant_name, WorkloadConfig};
pub use spec::WorkloadSpec;
pub use trace::{Trace, TraceError, TraceFlow};
