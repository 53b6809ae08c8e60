//! # quartz-flowsim
//!
//! Flow-level throughput analysis for the Quartz reproduction.
//!
//! §5.1 of the paper: "Given Quartz's high path diversity, it is
//! difficult to analytically calculate its bisection bandwidth. Instead,
//! we use simulations to compare the aggregate throughput of a Quartz
//! network using both one- and two-hop paths to that of an ideal (full
//! bisection bandwidth) network for typical DCN workloads."
//!
//! This crate answers those questions at the flow level:
//!
//! * [`waterfill`] — a weighted progressive-filling solver computing the
//!   **max-min fair** rate allocation for flows over capacitated links
//!   (the steady state TCP-like transport converges toward);
//! * [`fabric`] — abstract capacity models: the Quartz mesh with
//!   ECMP-direct or VLB split routing (§3.4), intact or after fiber cuts
//!   (severed channels carry nothing and their traffic detours over
//!   surviving paths), the ideal full-bisection fabric, and
//!   oversubscribed (1/2, 1/4 bisection) fabrics;
//! * [`matrix`] — the three §5.1 traffic patterns: random permutation,
//!   incast (10:1), and rack-level shuffle;
//! * [`throughput`] — normalized-throughput computation ("equals 1 if
//!   every server can send traffic at its full rate"), reproducing
//!   Figure 10, and how gracefully a cut mesh loses throughput.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod fabric;
pub mod matrix;
pub mod throughput;
pub mod waterfill;

pub use fabric::{Fabric, OversubscribedFabric, QuartzFabric};
pub use matrix::{incast, rack_shuffle, random_permutation, Demand};
pub use throughput::{normalized_throughput, NormalizedThroughput};
pub use waterfill::{max_min_rates, Problem};
