//! End-to-end benchmark of the Quartz simulator pipeline.
//!
//! ```text
//! quartz-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--quick] [--spans-out <file>]
//! ```
//!
//! Repeats one workload's whole pipeline (fabric build → engine → flows
//! → simulate → check) for `--seconds` of host time and prints each
//! metric with its unit, then one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! `--trace 0` reports the end-to-end metrics (medians over
//! repetitions); `--trace 1` reports the per-layer metrics of a traced
//! run. `--quick` shrinks every workload for a self-test. Everything
//! runs in this one process on the sequential thread pool. See
//! `NOTES.md` beside this crate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod pipeline;
mod trace;

use std::collections::BTreeMap;

use pipeline::{ratio, Inputs, Mode, Rep, Workload};
use quartz_bench::timing::monotonic_ns;
use trace::{Tracer, EV_KINDS};

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_pkts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1` (`netsim.ev.*` follow
/// from [`EV_KINDS`]).
const PER_LAYER: [(&str, &str); 31] = [
    ("topology.build_s", "s"),
    ("topology.routes_s", "s"),
    ("topology.flat_s", "s"),
    ("topology.route_entries", "count"),
    ("topology.partition_s", "s"),
    ("topology.cross_links", "count"),
    ("netsim.new_s", "s"),
    ("netsim.add_flow_s", "s"),
    ("netsim.flows", "count"),
    ("netsim.run_s", "s"),
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.pkts_generated", "count"),
    ("netsim.pkts_delivered", "count"),
    ("netsim.pkts_dropped", "count"),
    ("netsim.delivery_ratio", "ratio"),
    ("netsim.hops_per_pkt", "hops/pkt"),
    ("netsim.link_util_peak", "fraction"),
    ("shard.busy_s", "s"),
    ("shard.busy_max_s", "s"),
    ("shard.coordinator_s", "s"),
    ("shard.unattributed_s", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.tax_ratio", "ratio"),
    ("workload.run_s", "s"),
    ("workload.new_s", "s"),
    ("workload.flows", "count"),
    ("workload.completed", "count"),
    ("workload.fct_p99_slowdown", "ratio"),
    ("obs.recorder_ratio", "ratio"),
    ("bench.trace_overhead", "s"),
];

/// Measured repetitions an untraced run makes at least, whatever
/// `--seconds` says.
const MIN_REPS: usize = 3;

const USAGE: &str = "usage: quartz-e2e-bench --workload <core_build_5k|websearch_dctcp> \
                     --seed <n> --seconds <s> --trace <0|1> [--quick] [--spans-out <file>]";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    spans_out: Option<String>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut quick, mut spans_out) = (false, None);
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                quick = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag}: missing value"))?;
            let bad = |_| format!("{flag}: cannot parse '{value}'");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::by_name(&value).ok_or(format!("unknown workload '{value}'"))?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got '{value}'")),
                    });
                }
                "--spans-out" => spans_out = Some(value),
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            quick,
            spans_out,
        })
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let inputs = pipeline::inputs(args.workload, args.seed, args.quick);
    let mut tracer = Tracer::new(args.trace);
    let reps = collect_reps(&args, &inputs, &mut tracer);

    let mut errors: Vec<String> = reps.all().filter_map(|r| r.error.clone()).collect();
    let digests: Vec<u64> = reps.all().filter_map(|r| r.digest).collect();
    if digests.iter().any(|&d| d != digests[0]) {
        errors.push("simulated output differs between repetitions or modes".into());
    }
    let attempted: u64 = reps.all().map(|r| r.ops).sum();
    let mut failed: u64 = reps.all().map(|r| r.ops_failed).sum();
    if !errors.is_empty() {
        failed = attempted;
    }
    for e in &errors {
        eprintln!("correctness check failed: {e}");
    }

    let metrics = if args.trace {
        per_layer(args.workload, &reps.by_mode)
    } else {
        end_to_end(&reps)
    };
    println!(
        "sim_digest {} seed={} {:016x}",
        args.workload.name(),
        args.seed,
        digests.first().copied().unwrap_or(0)
    );
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("metric {name} {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(path) = &args.spans_out {
        if let Err(e) = std::fs::write(path, tracer.to_ndjson()) {
            eprintln!("cannot write spans to {path}: {e}");
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        errors.is_empty(),
    );
    if !errors.is_empty() {
        std::process::exit(1);
    }
}

/// The repetitions of one run.
#[derive(Default)]
struct Reps {
    /// Measured repetitions, by mode.
    by_mode: BTreeMap<Mode, Vec<Rep>>,
    /// Repetitions whose output is checked but whose timing is unused.
    warmup: Vec<Rep>,
    /// Peak resident set after the measured repetitions, MB.
    peak_rss_mb: f64,
}

impl Reps {
    /// Every repetition, measured or not.
    fn all(&self) -> impl Iterator<Item = &Rep> {
        self.by_mode.values().flatten().chain(&self.warmup)
    }
}

/// Runs the workload: one warm-up repetition, then rounds until
/// `--seconds` have passed. An untraced round is one plain repetition
/// (at least [`MIN_REPS`] of them); a traced round is one repetition per
/// mode (at least one round), and only its `Spans` repetition records
/// spans.
fn collect_reps(args: &Args, inputs: &Inputs, tr: &mut Tracer) -> Reps {
    let mut modes = vec![Mode::Plain];
    if args.trace {
        modes.extend([Mode::Spans, Mode::Recorded]);
        if args.workload.is_sharded() {
            modes.push(Mode::OneDomain);
        }
    }
    let min_rounds = if args.trace { 1 } else { MIN_REPS };
    let mut reps = Reps::default();
    let mut off = Tracer::new(false);
    reps.warmup
        .push(pipeline::run_rep(inputs, args.seed, Mode::Plain, &mut off));
    let start = monotonic_ns();
    let mut rounds = 0;
    while rounds < min_rounds || monotonic_ns() - start < args.seconds * 1_000_000_000 {
        for &mode in &modes {
            let id = tr.next_rep();
            let t = if mode == Mode::Spans {
                &mut *tr
            } else {
                &mut off
            };
            let mut rep = pipeline::run_rep(inputs, args.seed, mode, t);
            for (name, ns) in tr.totals(id) {
                if name != "rep" {
                    rep.layer.insert(format!("{name}_s"), ns as f64 / 1e9);
                }
            }
            reps.by_mode.entry(mode).or_default().push(rep);
        }
        rounds += 1;
    }
    reps.peak_rss_mb = peak_rss_mb();
    reps
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(reps: &Reps) -> Vec<(String, f64, &'static str)> {
    let plain = &reps.by_mode[&Mode::Plain];
    let pick = |f: &dyn Fn(&Rep) -> f64| median(plain.iter().map(f).collect());
    let values = [
        pick(&|r| r.wall_ns as f64 / 1e9),
        pick(&|r| r.setup_ns as f64 / 1e9),
        pick(&|r| ratio(r.delivered as f64 * 1e9, r.sim_ns as f64)),
        reps.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect()
}

/// The per-layer metrics of a traced run: the median of each value over
/// the repetitions that produced it, plus ratios across modes. A layer
/// the workload does not use reads 0.
fn per_layer(w: Workload, reps: &BTreeMap<Mode, Vec<Rep>>) -> Vec<(String, f64, &'static str)> {
    let of = |mode: Mode| reps.get(&mode).map(Vec::as_slice).unwrap_or(&[]);
    let med = |mode: Mode, f: &dyn Fn(&Rep) -> f64| median(of(mode).iter().map(f).collect());
    let layer = |name: &str| {
        let vals: Vec<f64> = reps
            .values()
            .flatten()
            .filter_map(|r| r.layer.get(name).copied())
            .collect();
        median(vals)
    };
    let plain_run = med(Mode::Plain, &|r| r.sim_ns as f64);
    let mut out: Vec<(String, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "workload.new_s" if !w.is_sharded() => layer("netsim.new_s"),
                "shard.tax_ratio" if w.is_sharded() => {
                    ratio(plain_run, med(Mode::OneDomain, &|r| r.sim_ns as f64))
                }
                "obs.recorder_ratio" => ratio(
                    med(Mode::Recorded, &|r| r.sim_ns as f64),
                    layer("netsim.run_s") * 1e9,
                ),
                "bench.trace_overhead" => {
                    (med(Mode::Spans, &|r| r.wall_ns as f64)
                        - med(Mode::Plain, &|r| r.wall_ns as f64))
                        / 1e9
                }
                _ => layer(name),
            };
            (name.to_string(), v, unit)
        })
        .collect();
    for kind in EV_KINDS {
        let name = format!("netsim.ev.{kind}");
        let v = layer(&name);
        out.push((name, v, "count"));
    }
    out
}

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
