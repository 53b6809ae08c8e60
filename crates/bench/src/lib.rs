//! # quartz-bench
//!
//! The experiment harness: one module (and one binary) per table and
//! figure of the paper's evaluation. Each binary prints the same rows or
//! series the paper reports, so `cargo run -p quartz-bench --bin
//! fig17_global_latency` regenerates Figure 17 and so on. EXPERIMENTS.md
//! in the repository root records paper-vs-measured for every one.
//!
//! Every experiment module exports one `run(scale, pool)` that computes
//! its result once, a `render` that prints it, and a `trace_ndjson` that
//! serializes the same result for `--trace-out`; each binary hands the
//! three to [`run_bin`]. A [`Scale`] picks the fidelity: `Paper` runs
//! the full configuration; `Quick` shrinks trial counts and simulated
//! time so the whole suite can run inside the integration tests.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod table;
pub mod timing;
pub mod trace;

use quartz_core::ThreadPool;
use std::path::PathBuf;

/// Experiment fidelity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Full, paper-fidelity parameters (seconds to a few minutes).
    Paper,
    /// Reduced trials/time for CI and integration tests.
    Quick,
}

/// The command line every experiment binary accepts: `--quick`,
/// `--jobs N` (or `--jobs=N`) and `--trace-out PATH` (or
/// `--trace-out=PATH`), nothing else.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Args {
    /// `Quick` with `--quick`, else `Paper`.
    scale: Scale,
    /// Worker count; `0` (the default) means one per hardware thread,
    /// `1` runs sequentially.
    jobs: usize,
    /// Where to write the ndjson trace, if anywhere.
    trace_out: Option<PathBuf>,
}

impl Args {
    /// Parses the arguments after the program name. Any argument not
    /// listed on [`Args`], a missing or empty value and a `--jobs`
    /// value that is not a count are errors.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            scale: Scale::Paper,
            jobs: 0,
            trace_out: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, v)) => (flag, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            let mut value = || match inline.clone().or_else(|| args.next()) {
                Some(v) if !v.is_empty() => Ok(v),
                _ => Err(format!("{flag} needs a value")),
            };
            match flag {
                "--quick" if inline.is_none() => out.scale = Scale::Quick,
                "--jobs" => {
                    let v = value()?;
                    out.jobs = v
                        .parse()
                        .map_err(|_| format!("--jobs: cannot parse '{v}' as a worker count"))?;
                }
                "--trace-out" => out.trace_out = Some(PathBuf::from(value()?)),
                _ => return Err(format!("unexpected argument '{arg}'")),
            }
        }
        Ok(out)
    }
}

/// Shared `main` for the experiment binaries. Parses the process args
/// (a bad command line exits 2 before any output), runs the experiment
/// once over the `--jobs` pool — `run`'s last argument says whether a
/// trace was asked for — renders its output and, with `--trace-out`,
/// writes `trace_body` of the same output there. The whole invocation
/// is timed, and `BENCH_<name>.json` — including any
/// [`timing::phase_timed`] breakdown — is emitted when
/// `QUARTZ_BENCH_JSON` is set (see [`timing::write_json`]).
pub fn run_bin<T>(
    name: &str,
    run: impl FnOnce(Scale, &ThreadPool, bool) -> T,
    render: impl FnOnce(&T),
    trace_body: impl FnOnce(&T) -> String,
) {
    let args =
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| table::exit_usage(name, &e));
    let pool = ThreadPool::new(args.jobs);
    let ((), wall_ns) = timing::wall_timed(|| {
        let out = run(args.scale, &pool, args.trace_out.is_some());
        render(&out);
        if let Some(path) = &args.trace_out {
            trace::write(path, &trace_body(&out));
        }
    });
    timing::note(
        name,
        match args.scale {
            Scale::Paper => "total_paper",
            Scale::Quick => "total_quick",
        },
        wall_ns,
        wall_ns,
        1,
    );
    timing::flush_phases();
    timing::write_json(name, Some(pool.threads()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_every_documented_form() {
        assert_eq!(
            parse(&[]),
            Ok(Args {
                scale: Scale::Paper,
                jobs: 0,
                trace_out: None
            })
        );
        let want = Args {
            scale: Scale::Quick,
            jobs: 2,
            trace_out: Some(PathBuf::from("t.ndjson")),
        };
        assert_eq!(
            parse(&["--quick", "--jobs", "2", "--trace-out", "t.ndjson"]),
            Ok(want.clone())
        );
        assert_eq!(
            parse(&["--trace-out=t.ndjson", "--jobs=2", "--quick"]),
            Ok(want)
        );
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(parse(&["--jobs", "two"]).unwrap_err().contains("'two'"));
        assert!(parse(&["--jobs=-1"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--quik"]).unwrap_err().contains("--quik"));
        assert!(parse(&["--quick=1"]).is_err());
        assert!(parse(&["--quick", "--trace-out"]).is_err());
        assert!(parse(&["--trace-out="]).is_err());
        assert!(parse(&["--bogus", "1"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--quick", "1"]).unwrap_err().contains("'1'"));
    }
}
