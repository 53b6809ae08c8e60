//! One module per table/figure of the paper's evaluation.
//!
//! Each module exposes one `run(scale, pool)` that computes its
//! structured result once (fig06's also takes whether a trace was asked
//! for), a `render` that prints it as the paper-style table, and a
//! `trace_ndjson` that serializes the same result for `--trace-out`.
//! The binaries in `src/bin` hand those three to [`crate::run_bin`].

pub mod ext01;
pub mod ext02;
pub mod ext03;
pub mod ext04;
pub mod fig01;
pub mod fig05;
pub mod fig06;
pub mod fig10;
pub mod fig14;
pub mod fig17;
pub mod fig18;
pub mod fig20;
pub mod table02;
pub mod table08;
pub mod table09;
pub mod table16;
