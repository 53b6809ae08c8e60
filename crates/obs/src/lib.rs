//! `quartz-obs` — deterministic observability for the Quartz stack.
//!
//! Tracing, metrics, and profiling keyed to **simulated time, never wall
//! clock**. The subsystem is std-only and dependency-free (it sits below
//! every other workspace crate), and it is built around one invariant:
//!
//! > Observation must not perturb the experiment. With no recorder
//! > attached (the simulator's default) its RNG draws, event ordering,
//! > and printed output are bit-identical to a build without the
//! > subsystem; with a recorder attached the captured trace is
//! > bit-identical at every `--jobs` worker count.
//!
//! The pieces:
//!
//! - [`Event`] — typed spans for the packet lifecycle (generation →
//!   enqueue → cut-through decision → transmit → deliver/drop), VLB
//!   detour choices, and fault/reroute transitions. Every event carries
//!   a simulated-time `t_ns`; none carries a wall-clock reading.
//! - [`Recorder`] — the sink trait the simulator calls once per event
//!   when one is attached. [`MemoryRecorder`] buffers the events, and
//!   [`event::to_ndjson`] renders them as one JSON object per line.
//!   [`Stamped`] stashes what parallel producers record under
//!   `(time, key)` stamps and drains them in one order, so a merged
//!   trace is identical at any producer count.
//! - [`MetricsRegistry`] — BTreeMap-ordered counters, gauges, and
//!   sim-time-bucketed histograms. BTreeMap (not HashMap) so every
//!   rendering iterates in a deterministic order, and [`MetricsRegistry::merge`]
//!   folds per-unit registries in unit-index order so parallel runs
//!   aggregate identically at any worker count. The simulator keeps no
//!   registry while it runs: its metrics are a fold of the [`Event`]s
//!   it records into dense, id-indexed [`CounterColumn`]s and
//!   [`HistogramColumn`]s, which name their entries only when rendered
//!   into a registry, once, at export.
//! - [`Phases`] — a wall-clock-free *accumulator* for profiling: the
//!   bench harness (the one sanctioned wall-clock site) measures phase
//!   durations and deposits them here for folding into `BENCH_*.json`.
//! - [`timeline`] — renders a recorded event stream as a human-readable
//!   text timeline.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod timeline;

pub use event::{DropReason, Event};
pub use metrics::{BucketStats, CounterColumn, HistogramColumn, MetricsRegistry, TimeHistogram};
pub use profile::Phases;
pub use recorder::{MemoryRecorder, Recorder, Stamped};
