//! # quartz-core
//!
//! The Quartz design element (Liu et al., SIGCOMM 2014): a logical full
//! mesh of low-latency top-of-rack switches implemented as a physical
//! optical ring using commodity wavelength-division multiplexing.
//!
//! The crate covers everything §3 of the paper specifies:
//!
//! * [`ring`] — the [`QuartzRing`] design type: `M` switches with an
//!   `(n, k)` server/trunk port split, oversubscription, and the paper's
//!   scalability arithmetic (a 33-switch ring of 64-port switches mimics a
//!   1056-port switch; dual-ToR designs reach 2080 ports).
//! * [`channel`] — wavelength (channel) assignment on the ring: the
//!   paper's greedy longest-path-first heuristic, an exact
//!   branch-and-bound solver equivalent to the paper's ILP (the crate's
//!   `tests/ilp_model.rs` checks solutions against the ILP's
//!   constraints), and certified lower bounds. Regenerates Figure 5.
//! * [`routing`] — the routing policies §3.4 defines: ECMP over the
//!   single direct hop, and Valiant load balancing over the `n − 2`
//!   two-hop detours.
//! * [`fault`] — the §3.5 fault model: Monte-Carlo bandwidth loss and
//!   partition probability under random fiber-link failures with one to
//!   four physical rings. Regenerates Figure 6.
//!
//! A [`QuartzRing`] ties the pieces together: it checks that a design is
//! feasible (channel count within fiber capacity, optical power budget
//! satisfiable) and exposes the channel plan and optical plan to the
//! topology/simulation layers.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod fault;
pub mod pool;
pub mod ring;
pub mod rng;
pub mod routing;
pub mod scalability;

pub use channel::{Arc, Assignment, ChannelPlan, Direction, Pair};
pub use fault::{FailureModel, FaultReport};
pub use pool::{available_parallelism, unit_seed, ThreadPool};
pub use ring::{DesignError, QuartzRing, ScaledDesign};
pub use routing::{RoutingPolicy, TwoHopPaths};
pub use scalability::{expansion_step, max_mesh_server_ports, ExpansionStep};
