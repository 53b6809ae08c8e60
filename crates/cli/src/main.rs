//! `quartz` — command-line tools for the Quartz WDM-ring design element.
//!
//! ```text
//! quartz design     --switches 33 [--server-ports 32 --trunk-ports 32 --rate 10]
//! quartz plan       --switches 9 [--exact true] [--show-pairs 10]
//! quartz grow       --switches 9
//! quartz scale      [--channels 160 --port-count 64 --thermal true]
//! quartz faults     --switches 33 --rings 2 [--failures 4 --trials 10000 --jobs 4]
//! quartz faults     --dynamic true [--switches 33 --cut-at-us 1000 --reconverge-us 50 --duration-ms 4]
//! quartz rwa        [--switches 9 --budget 200000]
//! quartz rwa        --dynamic true [--switches 9 --cuts 2 --duration-us 1500 --repair-us 400
//!                    --control-us 20 --reconverge-us 50 --budget 2000000 --instant-retune true
//!                    --units 4 --jobs 4 --seed 42 --metrics-out rwa.ndjson]
//! quartz configure
//! quartz throughput --racks 16 --hosts 8 [--pattern permutation|incast|shuffle] [--policy ecmp|adaptive|vlb:0.5]
//! quartz rpc        [--cross-mbps 150 --wiring quartz|tree]
//! quartz trace      [--quick true --switches 33 --seed 3350 --out trace.ndjson --timeline 40]
//! quartz workload   --spec trace.ndjson|websearch|hadoop|incast:<fanin>|allreduce:ring|tree
//!                   [--transport reno|dctcp --load 0.4 --bytes N --jitter-ns N --ranks N
//!                    --rings 2 --switches 3 --hosts 2 --core 2 --window-us 2000
//!                    --horizon-ms 80 --seed 42 --units 1 --jobs 0 --quick true
//!                    --trace-out wl.ndjson --metrics-out wl-metrics.ndjson]
//! quartz shard      [--domains 4 --jobs 0 --pods 4 --tors 3 --hosts 2 --ring 4
//!                    --duration-ms 4 --cut-at-us 500 --seed 42 --quick true
//!                    --trace-out shard.ndjson --metrics-out shard-metrics.ndjson]
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod args;

use args::Args;
use quartz_core::channel::{bounds, exact, greedy};
use quartz_core::fault::FailureModel;
use quartz_core::pool::ThreadPool;
use quartz_core::scalability;
use quartz_core::QuartzRing;
use quartz_netsim::faults::{
    ring_cut_scenario, ring_cut_scenario_traced, CutScenarioConfig, DRAIN_NS,
};
use quartz_netsim::time::SimTime;
use quartz_obs::event::to_ndjson;
use quartz_obs::Event;

/// Writes `text` to stdout. A reader that closes the pipe early
/// (`quartz plan … | head -1`) ends the program quietly with status 0,
/// as Unix filters do; any other write error exits with status 1.
fn emit(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let Err(e) = std::io::stdout().lock().write_fmt(text) else {
        return;
    };
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("error: writing to stdout: {e}");
    std::process::exit(1);
}

/// `println!` through [`emit`]: same input, same bytes.
macro_rules! outln {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() {
    let args = match Args::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            std::process::exit(2);
        }
    };
    let result = match args.command.as_deref() {
        Some("design") => cmd_design(&args),
        Some("plan") => cmd_plan(&args),
        Some("grow") => cmd_grow(&args),
        Some("scale") => cmd_scale(&args),
        Some("faults") => cmd_faults(&args),
        Some("rwa") => cmd_rwa(&args),
        Some("configure") => cmd_configure(&args),
        Some("throughput") => cmd_throughput(&args),
        Some("rpc") => cmd_rpc(&args),
        Some("topo") => cmd_topo(&args),
        Some("power") => cmd_power(&args),
        Some("trace") => cmd_trace(&args),
        Some("workload") => cmd_workload(&args),
        Some("shard") => cmd_shard(&args),
        Some("help") | None => {
            usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn usage() {
    outln!(
        "quartz — design tools for WDM-ring full-mesh datacenter networks\n\n\
         commands:\n\
         \x20 design      check a ring design: ports, wavelengths, optics, fault plan\n\
         \x20 plan        wavelength assignment (greedy, optionally proven optimal)\n\
         \x20 grow        cost of expanding a ring by one switch\n\
         \x20 scale       element size ceilings and the expansion cost table\n\
         \x20             (retune counts and dark time under the tunable-laser model)\n\
         \x20 faults      Monte-Carlo bandwidth-loss / partition analysis;\n\
         \x20             --dynamic true simulates a live mid-run fiber cut\n\
         \x20 rwa         online wavelength re-assignment: one cut+repair walkthrough;\n\
         \x20             --dynamic true runs the full churn scenario with retune\n\
         \x20             latency charged in the packet path\n\
         \x20 configure   the cost/latency configurator (paper Table 8)\n\
         \x20 throughput  max-min throughput of a mesh under a traffic pattern\n\
         \x20 rpc         simulate the prototype RPC-under-cross-traffic experiment\n\
         \x20 topo        emit a topology as Graphviz DOT on stdout\n\
         \x20 power       network power draw per design (watts/server)\n\
         \x20 trace       replay the ring-cut scenario with full event tracing;\n\
         \x20             prints a sim-time timeline, --out writes the ndjson trace\n\
         \x20 workload    drive a traffic workload (trace replay, websearch/hadoop\n\
         \x20             heavy-tail mix, incast, ring/tree all-reduce) through the\n\
         \x20             transport layer and report per-bucket FCT and slowdown\n\
         \x20 shard       run one simulation across spatial domains under\n\
         \x20             conservative lookahead; stdout is identical at any\n\
         \x20             --domains value (the determinism contract)\n\n\
         run a command with wrong flags to see its options"
    );
}

fn cmd_design(args: &Args) -> Result<(), String> {
    args.expect_only(&["switches", "server-ports", "trunk-ports", "rate"])?;
    let m: usize = args.num("switches", 33)?;
    let n: usize = args.num("server-ports", 32)?;
    let k: usize = args.num("trunk-ports", if m > 0 { m - 1 } else { 32 })?;
    let rate: f64 = args.num("rate", 10.0)?;

    let ring = QuartzRing::new(m, n, k, rate).map_err(|e| e.to_string())?;
    outln!("Quartz ring: {m} switches, {n} server + {k} trunk ports each, {rate} Gb/s");
    outln!("  server ports           {}", ring.server_ports());
    outln!("  worst-case switch hops {}", ring.max_switch_hops());
    outln!("  rack-pair oversub      {}:1", ring.oversubscription());
    outln!("  wavelengths (greedy)   {}", ring.wavelengths_required());
    outln!("  lower bound            {}", bounds::load_lower_bound(m));
    outln!("  WDM muxes per switch   {}", ring.muxes_per_switch());
    outln!("  physical fiber rings   {}", ring.physical_rings());
    let optics = ring.optical_plan().map_err(|e| e.to_string())?;
    outln!("  amplifiers on ring     {}", optics.amplifier_count());
    outln!(
        "  receiver pad           {} dB",
        optics.receiver_pad().attenuation.value()
    );
    outln!("  worst optical margin   {}", optics.worst_margin());
    outln!(
        "  max ports at this port count: {}",
        scalability::max_mesh_server_ports(n + k)
    );
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    args.expect_only(&["switches", "exact", "show-pairs"])?;
    let m: usize = args.num("switches", 9)?;
    let want_exact: bool = args.num("exact", false)?;
    let show: usize = args.num("show-pairs", 10)?;
    if m < 2 {
        return Err("--switches must be ≥ 2".into());
    }

    let assignment = if want_exact {
        if m > 64 {
            return Err("--exact supports up to 64 switches".into());
        }
        let r = exact::solve(m, exact::DEFAULT_NODE_BUDGET);
        outln!(
            "exact plan: {} wavelengths ({})",
            r.channels,
            match r.status {
                exact::ExactStatus::Optimal => "proven optimal",
                exact::ExactStatus::BudgetExhausted => "best found within budget",
            }
        );
        r.assignment
    } else {
        let a = greedy::assign_best(m, 0);
        outln!(
            "greedy plan: {} wavelengths (lower bound {})",
            a.channels_used(),
            bounds::load_lower_bound(m)
        );
        a
    };
    assignment.validate(0).map_err(|e| e.to_string())?;

    for (shown, (pair, dir, ch)) in assignment.entries().iter().enumerate() {
        if shown >= show {
            outln!("  … ({} more pairs)", assignment.entries().len() - shown);
            break;
        }
        outln!("  λ[{} ↔ {}] = channel {ch} ({dir:?} arc)", pair.a, pair.b);
    }
    Ok(())
}

fn cmd_grow(args: &Args) -> Result<(), String> {
    args.expect_only(&["switches"])?;
    let m: usize = args.num("switches", 9)?;
    if m < 2 {
        return Err("--switches must be ≥ 2".into());
    }
    let step = scalability::expansion_step(m);
    outln!("growing a ring from {} to {} switches:", step.from, step.to);
    outln!("  new pairs (channels to provision) {}", step.added);
    outln!("  existing pairs re-tuned           {}", step.retuned);
    outln!(
        "  wavelengths                        {} → {}",
        step.wavelengths.0,
        step.wavelengths.1
    );
    outln!(
        "  retune dark time (fast-tunable)    {} total, {} critical path",
        fmt_ns(step.retune_total_ns),
        fmt_ns(step.retune_max_ns)
    );
    let thermal = scalability::expansion_step_with(m, &quartz_optics::retune::THERMAL_TUNABLE_SFP);
    outln!(
        "  retune dark time (thermal SFP+)    {} total, {} critical path",
        fmt_ns(thermal.retune_total_ns),
        fmt_ns(thermal.retune_max_ns)
    );
    Ok(())
}

/// Renders a nanosecond quantity with a human unit (ns / µs / ms).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// `scale`: the element-size ceilings (§3.1/§8) and the per-step
/// expansion cost table with retune latency under the tunable-laser
/// model.
fn cmd_scale(args: &Args) -> Result<(), String> {
    args.expect_only(&["channels", "port-count", "thermal"])?;
    let channels: usize = args.num("channels", 160)?;
    let ports: usize = args.num("port-count", 64)?;
    let thermal: bool = args.num("thermal", false)?;
    if channels == 0 {
        return Err("--channels must be ≥ 1".into());
    }
    if ports < 4 {
        return Err("--port-count must be ≥ 4".into());
    }
    let model = if thermal {
        quartz_optics::retune::THERMAL_TUNABLE_SFP
    } else {
        quartz_optics::retune::FAST_TUNABLE_SFP
    };
    let ceiling = scalability::max_ring_size_for_channels(channels);
    outln!("Quartz element scaling:");
    outln!("  ring ceiling at {channels} channels   {ceiling} switches");
    outln!(
        "  max server ports ({ports}-port sw)  {}",
        scalability::max_mesh_server_ports(ports)
    );
    outln!(
        "\nexpansion cost per added switch ({} retune model):",
        if thermal {
            "thermal SFP+"
        } else {
            "fast-tunable"
        }
    );
    outln!(
        "  {:>8}  {:>5}  {:>7}  {:>9}  {:>12}  {:>13}",
        "step",
        "added",
        "retuned",
        "waves",
        "dark total",
        "critical path"
    );
    for m in [4usize, 8, 12, 16, 24, 32] {
        if m + 1 > ceiling {
            break;
        }
        let step = scalability::expansion_step_with(m, &model);
        outln!(
            "  {:>2} → {:>2}  {:>5}  {:>7}  {:>4} → {:<3}  {:>12}  {:>13}",
            step.from,
            step.to,
            step.added,
            step.retuned,
            step.wavelengths.0,
            step.wavelengths.1,
            fmt_ns(step.retune_total_ns),
            fmt_ns(step.retune_max_ns)
        );
    }
    Ok(())
}

fn cmd_faults(args: &Args) -> Result<(), String> {
    args.expect_only(&[
        "switches",
        "rings",
        "failures",
        "trials",
        "seed",
        "jobs",
        "dynamic",
        "cut-at-us",
        "reconverge-us",
        "duration-ms",
    ])?;
    let dynamic: bool = args.num("dynamic", false)?;
    if dynamic {
        return cmd_faults_dynamic(args);
    }
    let m: usize = args.num("switches", 33)?;
    let rings: usize = args.num("rings", 2)?;
    let failures: usize = args.num("failures", 4)?;
    let trials: usize = args.num("trials", 10_000)?;
    let seed: u64 = args.num("seed", 42)?;
    // 0 = one worker per hardware thread; the report is identical at
    // any worker count.
    let jobs: usize = args.num("jobs", 0)?;
    if m < 3 {
        return Err("--switches must be ≥ 3".into());
    }
    if trials == 0 {
        return Err("--trials must be ≥ 1".into());
    }
    let model = FailureModel::new(m, rings);
    let r = model.monte_carlo_with(failures, trials, seed, &ThreadPool::new(jobs));
    outln!(
        "{m}-switch ring, {rings} physical fiber ring(s), {failures} random cut(s), {trials} trials:"
    );
    outln!(
        "  mean direct-bandwidth loss {:.1}%",
        r.mean_bandwidth_loss * 100.0
    );
    outln!(
        "  partition probability      {:.4}",
        r.partition_probability
    );
    outln!(
        "  severed-pair detour        {:.2} hops (mesh-wide mean {:.2})",
        r.mean_detour_stretch,
        r.mean_post_failure_hops
    );
    Ok(())
}

/// `faults --dynamic true`: cut one fiber mid-run under steady Poisson
/// traffic and report what the packets saw.
fn cmd_faults_dynamic(args: &Args) -> Result<(), String> {
    let m: usize = args.num("switches", 33)?;
    let (cut_at_us, cut_at_ns) = args.duration("cut-at-us", 1_000, 1_000)?;
    let (reconverge_us, reconvergence_ns) = args.duration("reconverge-us", 50, 1_000)?;
    let (duration_ms, duration_ns) = args.duration("duration-ms", 4, 1_000_000)?;
    let seed: u64 = args.num("seed", 42)?;
    if m < 3 {
        return Err("--switches must be ≥ 3".into());
    }
    let cut_at = SimTime::from_ns(cut_at_ns);
    let duration = SimTime::from_ns(duration_ns);
    if cut_at >= duration {
        return Err("--cut-at-us must fall inside --duration-ms".into());
    }
    let cfg = CutScenarioConfig {
        switches: m,
        cut_at,
        reconvergence_ns,
        duration,
        seed,
    };
    if cfg.horizon().is_none() {
        return Err(format!(
            "--duration-ms: {duration_ms} plus the {} ms drain overflows the 64-bit nanosecond clock",
            DRAIN_NS / 1_000_000
        ));
    }
    let s = ring_cut_scenario(&cfg);
    outln!(
        "{m}-switch mesh, fiber 0<->1 cut at {cut_at_us} us, {reconverge_us} us reconvergence, {duration_ms} ms run (seed {seed}):"
    );
    outln!(
        "  severed pair latency  p50 {:.2} -> {:.2} us, mean {:.2} -> {:.2} us",
        s.pre.p50_ns as f64 / 1e3,
        s.post.p50_ns as f64 / 1e3,
        s.pre.mean_ns / 1e3,
        s.post.mean_ns / 1e3
    );
    outln!(
        "  path stretch          {:.2} -> {:.2} links per packet",
        s.pre_mean_hops,
        s.post_mean_hops
    );
    match s.reconvergence_ns {
        Some(ns) => outln!(
            "  reconvergence         {:.1} us, {} packets lost during the outage",
            ns as f64 / 1e3,
            s.drops_during_outage
        ),
        None => {
            outln!("  reconvergence         never (run ended before the control plane acted)")
        }
    }
    outln!(
        "  totals                {} generated, {} delivered, {} dropped",
        s.generated,
        s.delivered,
        s.dropped
    );
    if !s.post_hop_distribution.is_empty() {
        let dist: Vec<String> = s
            .post_hop_distribution
            .iter()
            .map(|(h, n)| format!("{h} links x{n}"))
            .collect();
        outln!("  post-cut paths        {}", dist.join(", "));
    }
    Ok(())
}

/// `rwa`: the online wavelength-reassignment control plane. Without
/// flags, walk one cut+repair round on fiber 0 and print what the
/// incremental solver did; with `--dynamic true`, run the full churn
/// scenario (seeded cut/repair sequence, retune latency charged in the
/// packet path) across `--units` independent units on `--jobs` workers.
/// Output is bit-identical at any `--jobs` count.
fn cmd_rwa(args: &Args) -> Result<(), String> {
    args.expect_only(&[
        "dynamic",
        "switches",
        "budget",
        "cuts",
        "seed",
        "duration-us",
        "repair-us",
        "control-us",
        "reconverge-us",
        "instant-retune",
        "units",
        "jobs",
        "metrics-out",
    ])?;
    let dynamic: bool = args.num("dynamic", false)?;
    if dynamic {
        return cmd_rwa_dynamic(args);
    }
    use quartz_core::channel::online::{OnlineRwa, ResolveReport, RingDelta, DEFAULT_NODE_BUDGET};
    let m: usize = args.num("switches", 9)?;
    let budget: u64 = args.num("budget", DEFAULT_NODE_BUDGET)?;
    if !(3..=64).contains(&m) {
        return Err("--switches must be in 3..=64".into());
    }
    let mut rwa = OnlineRwa::new(m, budget);
    outln!(
        "{m}-switch ring, seed plan {} wavelengths, node budget {budget}:",
        rwa.plan().channels_used()
    );
    let show = |label: &str, r: &ResolveReport| {
        outln!(
            "  {label}: {} ({} ch vs {} fresh), {} moved / {} relit / {} torn down / {} dark, {} nodes",
            r.outcome.as_str(),
            r.channels,
            r.fresh_channels,
            r.moved.len(),
            r.restored.len(),
            r.torn_down.len(),
            r.unroutable,
            r.nodes_used
        );
        for op in r.moved.iter().chain(r.restored.iter()).take(6) {
            outln!(
                "    pair ({},{}) retunes {:?} ch {} → {:?} ch {}",
                op.pair.a,
                op.pair.b,
                op.from.0,
                op.from.1,
                op.to.0,
                op.to.1
            );
        }
    };
    let cut = rwa.apply(RingDelta::FiberCut(0));
    show("cut fiber 0", &cut);
    let repair = rwa.apply(RingDelta::FiberRepair(0));
    show("repair fiber 0", &repair);
    rwa.plan().validate(0).map_err(|e| e.to_string())?;
    outln!(
        "  healed plan valid: {} wavelengths",
        rwa.plan().channels_used()
    );
    Ok(())
}

/// `rwa --dynamic true`: the churn scenario with the retune window in
/// the packet path.
fn cmd_rwa_dynamic(args: &Args) -> Result<(), String> {
    use quartz_core::channel::online::DEFAULT_NODE_BUDGET;
    use quartz_netsim::rwa::{churn_scenario_traced, churn_units, ChurnScenarioConfig};
    use quartz_optics::retune::RetuneModel;

    let m: usize = args.num("switches", 9)?;
    let cuts: usize = args.num("cuts", 2)?;
    let seed: u64 = args.num("seed", 42)?;
    let (duration_us, duration_ns) = args.duration("duration-us", 1_500, 1_000)?;
    let (repair_us, repair_ns) = args.duration("repair-us", 400, 1_000)?;
    let (control_us, control_ns) = args.duration("control-us", 20, 1_000)?;
    let (_, reconvergence_ns) = args.duration("reconverge-us", 50, 1_000)?;
    let budget: u64 = args.num("budget", DEFAULT_NODE_BUDGET)?;
    let instant: bool = args.num("instant-retune", false)?;
    let units: usize = args.num("units", 4)?;
    let jobs: usize = args.num("jobs", 0)?;
    if !(3..=64).contains(&m) {
        return Err("--switches must be in 3..=64".into());
    }
    if cuts == 0 || cuts > m {
        return Err(format!("--cuts must be in 1..={m}"));
    }
    if duration_us < 100 {
        return Err("--duration-us must be ≥ 100".into());
    }
    if units == 0 {
        return Err("--units must be ≥ 1".into());
    }
    let mut cfg = ChurnScenarioConfig::quick(seed);
    cfg.switches = m;
    cfg.cuts = cuts;
    cfg.duration = SimTime::from_ns(duration_ns);
    cfg.churn_window = (
        SimTime::from_us(duration_us / 8),
        SimTime::from_us(duration_us / 2),
    );
    cfg.repair_after_ns = (repair_ns > 0).then_some(repair_ns);
    cfg.control_delay_ns = control_ns;
    cfg.reconvergence_ns = reconvergence_ns;
    cfg.node_budget = budget;
    if instant {
        cfg.retune = RetuneModel::instant();
    }
    if cfg.horizon().is_none() {
        return Err(format!(
            "--duration-us: {duration_us} plus the {} ms drain overflows the 64-bit nanosecond clock",
            DRAIN_NS / 1_000_000
        ));
    }
    // The last transition (a repair, if any) lands up to `repair` after
    // the churn window's end; its plan lands `control` after that.
    let window_end_ns = cfg.churn_window.1.ns();
    let Some(last_ns) = window_end_ns.checked_add(repair_ns) else {
        return Err(format!(
            "--repair-us: {repair_us} plus the churn window's end ({} us) overflows the 64-bit nanosecond clock",
            window_end_ns / 1_000
        ));
    };
    if last_ns.checked_add(control_ns).is_none() {
        return Err(format!(
            "--control-us: {control_us} plus the churn's last transition ({} us) overflows the 64-bit nanosecond clock",
            last_ns / 1_000
        ));
    }

    outln!(
        "{m}-switch mesh, {cuts} fiber cut(s){}, {} retune, {duration_us} us run, budget {budget} (seed {seed}, {units} unit(s)):",
        if repair_us == 0 {
            " (no repair)".to_string()
        } else {
            format!(" + repair after {repair_us} us")
        },
        if instant { "instant" } else { "fast-tunable" }
    );
    let reports = churn_units(&cfg, units, &ThreadPool::new(jobs));
    let mut tot = (0u32, 0u32, 0u32, 0u64, 0u64, 0u64);
    for (u, r) in reports.iter().enumerate() {
        outln!(
            "  unit {u}: {} warm / {} fallback / {} fresh; {} retunes ({} dark); {} dropped; p99 neighbor {:.2} us, cross {:.2} us",
            r.warm_start,
            r.budget_fallback,
            r.fresh_solve,
            r.retunes,
            fmt_ns(r.dark_ns_total),
            r.dropped,
            r.neighbor.p99_ns as f64 / 1e3,
            r.cross.p99_ns as f64 / 1e3
        );
        tot.0 += r.warm_start;
        tot.1 += r.budget_fallback;
        tot.2 += r.fresh_solve;
        tot.3 += r.retunes;
        tot.4 += r.dark_ns_total;
        tot.5 += r.dropped;
    }
    outln!(
        "  aggregate: {} re-solve(s) ({} warm, {} fallback, {} fresh), {} retunes, {} dark, {} dropped",
        tot.0 + tot.1 + tot.2,
        tot.0,
        tot.1,
        tot.2,
        tot.3,
        fmt_ns(tot.4),
        tot.5
    );

    if let Some(out) = args.get("metrics-out") {
        // One traced run of the base config: the control-plane events
        // plus the merged metrics, as ndjson. Independent of --jobs.
        let (_report, events, metrics) = churn_scenario_traced(&cfg);
        let control =
            |ev: &&Event| matches!(ev.tag(), "rwa_resolve" | "retune" | "fault" | "reroute");
        let mut body = to_ndjson(events.iter().filter(control));
        body.push_str(&metrics.to_ndjson());
        std::fs::write(out, body).map_err(|e| format!("writing {out}: {e}"))?;
        outln!("  re-solve metrics written: {out}");
    }
    Ok(())
}

fn cmd_configure(args: &Args) -> Result<(), String> {
    args.expect_only(&["wdm-scale"])?;
    let scale: f64 = args.num("wdm-scale", 1.0)?;
    let catalog = quartz_cost::catalog::PriceCatalog::era_2014().with_wdm_scale(scale);
    for row in quartz_cost::configurator::configure(&catalog) {
        let premium = row.quartz_cost / row.baseline_cost - 1.0;
        outln!(
            "{:?}/{:?}: {} ${:.0} → {} ${:.0} ({:+.1}%), latency −{:.0}%",
            row.size,
            row.utilization,
            row.baseline.name(),
            row.baseline_cost,
            row.quartz.name(),
            row.quartz_cost,
            premium * 100.0,
            row.latency_reduction * 100.0
        );
    }
    Ok(())
}

fn cmd_throughput(args: &Args) -> Result<(), String> {
    args.expect_only(&["racks", "hosts", "pattern", "policy", "seed"])?;
    let racks: usize = args.num("racks", 16)?;
    let hosts: usize = args.num("hosts", 8)?;
    let seed: u64 = args.num("seed", 1)?;
    let pattern = args.get("pattern").unwrap_or("permutation");
    let policy_s = args.get("policy").unwrap_or("adaptive");

    use quartz_flowsim::fabric::{MeshRouting, QuartzFabric};
    use quartz_flowsim::matrix;
    use quartz_flowsim::throughput::normalized_throughput;

    if racks == 0 || hosts == 0 {
        let flag = if racks == 0 { "--racks" } else { "--hosts" };
        return Err(format!("{flag} must be at least 1"));
    }
    let total = racks * hosts;
    if total < 2 {
        return Err("--racks × --hosts must be at least 2 hosts".into());
    }
    if pattern == "shuffle" && racks < 2 {
        return Err("--pattern shuffle needs --racks of at least 2".into());
    }
    let demands = match pattern {
        "permutation" => matrix::random_permutation(total, seed),
        "incast" => matrix::incast(total, 10.min(total - 1), seed),
        "shuffle" => matrix::rack_shuffle(racks, hosts, 4.min(racks - 1), seed),
        other => return Err(format!("unknown pattern '{other}'")),
    };
    let policy = match policy_s {
        "ecmp" => MeshRouting::EcmpDirect,
        "adaptive" => MeshRouting::VlbAdaptive,
        s => match s.strip_prefix("vlb:") {
            Some(k) => match k.parse::<f64>() {
                Ok(f) if (0.0..=1.0).contains(&f) => MeshRouting::VlbUniform(f),
                _ => return Err(format!("bad VLB fraction '{k}': must be in [0, 1]")),
            },
            None => return Err(format!("unknown policy '{policy_s}'")),
        },
    };
    let fabric = QuartzFabric {
        racks,
        hosts_per_rack: hosts,
        channel_cap: 1.0,
        policy,
        severed: Vec::new(),
    };
    let t = normalized_throughput(&fabric, &demands);
    outln!(
        "{racks}×{hosts} mesh, {pattern}, {policy_s}: normalized throughput {:.3} ({:.1} of {:.1} line-rate units)",
        t.normalized, t.aggregate, t.ideal_aggregate
    );
    Ok(())
}

fn cmd_rpc(args: &Args) -> Result<(), String> {
    args.expect_only(&["cross-mbps", "wiring", "count"])?;
    let mbps: f64 = args.num("cross-mbps", 150.0)?;
    let count: u32 = args.num("count", 2_000)?;
    let wiring = args.get("wiring").unwrap_or("quartz");
    if !(mbps.is_finite() && mbps >= 0.0) {
        return Err(format!(
            "--cross-mbps must be a finite rate of at least 0, not {mbps}"
        ));
    }
    // Each source sends 20 × 1500 B bursts; the period is their bit
    // count over the rate.
    let period_ns = (20.0 * 1500.0 * 8.0 / (mbps / 1000.0)) as u64;
    if mbps > 0.0 && period_ns == 0 {
        return Err(format!(
            "--cross-mbps {mbps}: the burst period rounds to 0 ns (rate too high)"
        ));
    }

    use quartz_netsim::sim::{FlowKind, SimConfig, Simulator};
    use quartz_netsim::time::SimTime;
    use quartz_topology::builders::{prototype_quartz, prototype_two_tier};

    let (net, rpc, cross) = match wiring {
        "quartz" => {
            let p = prototype_quartz();
            (
                p.net,
                (p.hosts[2], p.hosts[4]),
                vec![(p.hosts[0], p.hosts[5]), (p.hosts[1], p.hosts[5])],
            )
        }
        "tree" => {
            let p = prototype_two_tier();
            (
                p.net,
                (p.hosts[0], p.hosts[2]),
                vec![(p.hosts[4], p.hosts[3]), (p.hosts[5], p.hosts[3])],
            )
        }
        other => return Err(format!("unknown wiring '{other}' (quartz|tree)")),
    };
    let horizon = SimTime::from_ms(4_000);
    let mut sim = Simulator::new(net, SimConfig::default());
    sim.add_flow(rpc.0, rpc.1, 100, FlowKind::Rpc { count }, 0, SimTime::ZERO);
    if mbps > 0.0 {
        for (s, d) in cross {
            sim.add_flow(
                s,
                d,
                1_500,
                FlowKind::Burst {
                    burst_pkts: 20,
                    period_ns,
                    stop: horizon,
                },
                1,
                SimTime::ZERO,
            );
        }
    }
    sim.run(horizon);
    let s = sim.stats().summary(0);
    outln!(
        "{wiring} wiring, {mbps} Mb/s cross-traffic per source: RPC RTT mean {:.2} µs, p99 {:.2} µs ({} calls)",
        s.mean_us(),
        s.p99_ns as f64 / 1e3,
        s.count
    );
    Ok(())
}

fn cmd_topo(args: &Args) -> Result<(), String> {
    args.expect_only(&["kind", "size", "hosts", "seed"])?;
    let kind = args.get("kind").unwrap_or("mesh");
    let size: usize = args.num("size", 4)?;
    let hosts: usize = args.num("hosts", 2)?;
    let seed: u64 = args.num("seed", 1)?;
    use quartz_topology::builders as b;
    use quartz_topology::dot::to_dot;
    let (net, title) = match kind {
        "mesh" => (b::quartz_mesh(size, hosts, 10.0, 10.0).net, "Quartz mesh"),
        "three-tier" => (
            b::three_tier(size.max(1), 2, hosts, 2, 10.0, 40.0).net,
            "Three-tier tree",
        ),
        "jellyfish" => {
            let deg = 4.min(size.saturating_sub(1)).max(1);
            (
                b::jellyfish(size.max(4), deg, hosts, 10.0, 10.0, seed).net,
                "Jellyfish",
            )
        }
        "prototype" => (b::prototype_quartz().net, "Quartz prototype"),
        "edge-core" => (
            b::quartz_in_edge_and_core(size.max(2), 4, hosts, 4).net,
            "Quartz in edge and core",
        ),
        other => {
            return Err(format!(
                "unknown kind '{other}' (mesh|three-tier|jellyfish|prototype|edge-core)"
            ))
        }
    };
    emit(format_args!("{}", to_dot(&net, title)));
    Ok(())
}

/// `trace`: replay the mid-run fiber-cut scenario (the Figure 6 dynamic
/// panel) with the `quartz-obs` recorder attached, print a rendered
/// sim-time timeline plus a summary, and optionally write the full
/// event + metrics trace as ndjson. Everything is keyed to simulated
/// time, so the same seed always produces a byte-identical trace.
fn cmd_trace(args: &Args) -> Result<(), String> {
    args.expect_only(&["switches", "seed", "quick", "out", "timeline"])?;
    let quick: bool = args.num("quick", false)?;
    let seed: u64 = args.num("seed", 0xD16)?;
    let mut cfg = if quick {
        CutScenarioConfig::quick(seed)
    } else {
        CutScenarioConfig::paper(seed)
    };
    let m: usize = args.num("switches", cfg.switches)?;
    if m < 3 {
        return Err("--switches must be ≥ 3".into());
    }
    cfg.switches = m;
    let timeline: usize = args.num("timeline", 40)?;

    let (report, events, metrics) = ring_cut_scenario_traced(&cfg);
    outln!(
        "{m}-switch mesh, fiber 0<->1 cut at {:.0} us (seed {seed}): {} events, {} metrics",
        cfg.cut_at.ns() as f64 / 1e3,
        events.len(),
        metrics.len()
    );
    outln!(
        "  generated {} / delivered {} / dropped {}; reconvergence {}",
        report.generated,
        report.delivered,
        report.dropped,
        match report.reconvergence_ns {
            Some(ns) => format!("{:.1} us", ns as f64 / 1e3),
            None => "never".to_string(),
        }
    );
    outln!();
    emit(format_args!(
        "{}",
        quartz_obs::timeline::render(&events, timeline)
    ));

    if let Some(out) = args.get("out") {
        let mut body = to_ndjson(&events);
        body.push_str(&metrics.to_ndjson());
        std::fs::write(out, body).map_err(|e| format!("writing {out}: {e}"))?;
        outln!("\ntrace written: {out}");
    }
    Ok(())
}

/// `workload`: drive one of the four `quartz-workload` traffic kinds
/// over the Quartz-in-edge-and-core fabric and report per-size-bucket
/// FCT and slowdown. Deterministic at any `--jobs` width.
fn cmd_workload(args: &Args) -> Result<(), String> {
    use quartz_topology::builders::quartz_in_edge_and_core;
    use quartz_workload::{run_units, variant_by_name, WorkloadConfig, WorkloadSpec};

    args.expect_only(&[
        "spec",
        "transport",
        "load",
        "bytes",
        "jitter-ns",
        "ranks",
        "rings",
        "switches",
        "hosts",
        "core",
        "window-us",
        "horizon-ms",
        "seed",
        "units",
        "jobs",
        "quick",
        "trace-out",
        "metrics-out",
    ])?;
    let quick: bool = args.num("quick", false)?;
    let rings: usize = args.num("rings", 2)?;
    let switches: usize = args.num("switches", if quick { 2 } else { 3 })?;
    let hosts_per_sw: usize = args.num("hosts", 2)?;
    let core: usize = args.num("core", 2)?;
    if rings < 1 || switches < 2 || hosts_per_sw < 1 || core < 2 {
        return Err("--rings ≥ 1, --switches ≥ 2, --hosts ≥ 1, --core ≥ 2".into());
    }
    let host_count = rings * switches * hosts_per_sw;
    if host_count < 2 {
        return Err("the fabric needs at least 2 hosts".into());
    }

    let spec_arg = args.get("spec").unwrap_or("websearch");
    let mut spec = WorkloadSpec::parse(spec_arg, host_count)?;
    // Optional per-kind overrides.
    match &mut spec {
        WorkloadSpec::Trace(_) => {}
        WorkloadSpec::Dist { load, .. } => {
            *load = args.num("load", *load)?;
            if !(*load > 0.0 && *load <= 1.0) {
                return Err("--load must be in (0,1]".into());
            }
        }
        WorkloadSpec::Incast {
            bytes, jitter_ns, ..
        } => {
            *bytes = args.num("bytes", *bytes)?;
            *jitter_ns = args.num("jitter-ns", *jitter_ns)?;
            if *bytes == 0 {
                return Err("--bytes must be ≥ 1".into());
            }
        }
        WorkloadSpec::AllReduce { ranks, bytes, .. } => {
            *ranks = args.num("ranks", *ranks)?;
            *bytes = args.num("bytes", *bytes)?;
            if *bytes == 0 {
                return Err("--bytes must be ≥ 1".into());
            }
        }
    }

    let transport = variant_by_name(args.get("transport").unwrap_or("dctcp"))?;
    let seed: u64 = args.num("seed", 42)?;
    let units: usize = args.num("units", 1)?;
    let jobs: usize = args.num("jobs", 0)?;
    if units == 0 {
        return Err("--units must be ≥ 1".into());
    }
    let (_, window_ns) = args.duration("window-us", if quick { 500 } else { 2_000 }, 1_000)?;
    let (_, horizon_ns) = args.duration("horizon-ms", if quick { 40 } else { 80 }, 1_000_000)?;
    if window_ns == 0 || horizon_ns == 0 {
        return Err("--window-us and --horizon-ms must be ≥ 1".into());
    }
    if horizon_ns < window_ns {
        return Err("--horizon-ms must cover --window-us".into());
    }

    let mut cfg = WorkloadConfig::new(spec, transport, seed);
    cfg.window = SimTime::from_ns(window_ns);
    cfg.horizon = SimTime::from_ns(horizon_ns);

    let build = || {
        let c = quartz_in_edge_and_core(rings, switches, hosts_per_sw, core);
        (c.net, c.hosts)
    };
    outln!(
        "workload {} over {} hosts ({rings} ring(s) x {switches} sw x {hosts_per_sw}), \
         {} transport, seed {seed}, {units} unit(s):",
        cfg.spec.name(),
        host_count,
        quartz_workload::variant_name(transport),
    );
    let trace_out = args.get("trace-out");
    let (reports, events) = run_units(
        &cfg,
        units,
        &ThreadPool::new(jobs),
        trace_out.is_some(),
        build,
    )?;
    for (u, r) in reports.iter().enumerate() {
        outln!("unit {u} (seed {}):", r.seed);
        for line in r.render().lines() {
            outln!("  {line}");
        }
    }

    if let Some(out) = args.get("metrics-out") {
        let mut m = quartz_obs::MetricsRegistry::new();
        for (u, r) in reports.iter().enumerate() {
            r.add_metrics(&mut m, &format!("workload.u{u}"));
        }
        std::fs::write(out, m.to_ndjson()).map_err(|e| format!("writing {out}: {e}"))?;
        outln!("metrics written: {out}");
    }
    if let Some(out) = trace_out {
        // Unit 0's trace — independent of --jobs — cut to the
        // workload-level events (flow opens and completions, collective
        // step boundaries).
        let workload =
            |ev: &&Event| matches!(ev.tag(), "flow_start" | "flow_complete" | "collective_step");
        let body = to_ndjson(events.iter().filter(workload));
        std::fs::write(out, body).map_err(|e| format!("writing {out}: {e}"))?;
        outln!("trace written: {out}");
    }
    Ok(())
}

/// Drives a Figure 15 Quartz-in-core composite through the sharded
/// engine. Everything on stdout is domain-count-invariant (the CI
/// smoke job diffs `--domains 1` against `--domains 4` byte for byte);
/// the partition diagnostics — domain count, lookahead bound,
/// per-domain event counts — go to stderr. No wall-clock time is
/// printed anywhere: the engine's injected clock stays at its frozen
/// default here.
fn cmd_shard(args: &Args) -> Result<(), String> {
    use quartz_netsim::shard::ShardedSim;
    use quartz_netsim::sim::{FlowKind, SimConfig};
    use quartz_netsim::transport::TcpVariant;
    use quartz_netsim::FaultPlan;
    use quartz_topology::builders::quartz_in_core;

    args.expect_only(&[
        "domains",
        "jobs",
        "pods",
        "tors",
        "hosts",
        "ring",
        "duration-ms",
        "cut-at-us",
        "seed",
        "quick",
        "trace-out",
        "metrics-out",
    ])?;
    let quick: bool = args.num("quick", false)?;
    let domains: usize = args.num("domains", 4)?;
    let jobs: usize = args.num("jobs", 0)?;
    let pods: usize = args.num("pods", 4)?;
    let tors: usize = args.num("tors", if quick { 2 } else { 3 })?;
    let hosts_per_tor: usize = args.num("hosts", 2)?;
    let ring: usize = args.num("ring", 4)?;
    let (duration_ms, duration_ns) =
        args.duration("duration-ms", if quick { 2 } else { 4 }, 1_000_000)?;
    let (cut_at_us, cut_at_ns) = args.duration("cut-at-us", 0, 1_000)?;
    let seed: u64 = args.num("seed", 42)?;
    if domains == 0 || pods == 0 || tors == 0 || hosts_per_tor == 0 || ring < 2 {
        return Err("--domains/--pods/--tors/--hosts ≥ 1, --ring ≥ 2".into());
    }
    if duration_ms == 0 {
        return Err("--duration-ms must be ≥ 1".into());
    }
    if cut_at_ns > 0 && cut_at_ns >= duration_ns {
        return Err("--cut-at-us must fall inside --duration-ms".into());
    }

    let c = quartz_in_core(tors, pods, hosts_per_tor, ring);
    let cfg = SimConfig {
        seed,
        ecn_threshold_bytes: Some(50_000),
        reconvergence_ns: Some(50_000),
        ..SimConfig::default()
    };
    let mut sim = ShardedSim::new(c.net.clone(), cfg, domains);
    let n = c.hosts.len();
    outln!(
        "shard: quartz-in-core {pods} pods x {tors} ToRs x {hosts_per_tor} hosts \
         ({n} hosts, {ring}-switch core ring), seed {seed}"
    );

    // Pod-crossing traffic: RPC ping-pong, a Reno transfer, and a paced
    // file per triple of hosts.
    for i in 0..n {
        let src = c.hosts[i];
        let dst = c.hosts[(i + n / 2) % n];
        match i % 3 {
            0 => sim.add_flow(src, dst, 400, FlowKind::Rpc { count: 40 }, 0, SimTime::ZERO),
            1 => sim.add_flow(
                src,
                dst,
                1_000,
                FlowKind::Transport {
                    total_bytes: 60_000,
                    variant: TcpVariant::Reno,
                },
                1,
                SimTime::from_us(i as u64),
            ),
            _ => sim.add_flow(
                src,
                dst,
                1_000,
                FlowKind::FileTransfer {
                    total_bytes: 30_000,
                },
                2,
                SimTime::from_us(2 * i as u64),
            ),
        };
    }
    if cut_at_us > 0 {
        // Cut one core ring channel mid-run; the control plane
        // reconverges 50 µs later (a coordinator-timeline event, so the
        // outcome is domain-count-invariant).
        let l = c
            .net
            .links()
            .find(|l| c.uppers.contains(&l.a) && c.uppers.contains(&l.b))
            .ok_or("core ring has no channels")?
            .id;
        let mut plan = FaultPlan::new();
        plan.link_down(l, SimTime::from_ns(cut_at_ns));
        sim.apply_fault_plan(&plan).map_err(|e| e.to_string())?;
        outln!("fault: core channel cut at {cut_at_us} µs (reconverge +50 µs)");
    }

    let trace = args.get("trace-out").map(str::to_string);
    if trace.is_some() {
        sim.set_recorder(Box::new(quartz_obs::MemoryRecorder::new()));
    }
    sim.enable_metrics();
    sim.run(SimTime::from_ns(duration_ns), &ThreadPool::new(jobs));

    let s = sim.stats();
    outln!(
        "packets: {} generated, {} delivered, {} dropped over {} ms",
        s.generated,
        s.delivered,
        s.dropped,
        duration_ms
    );
    for (tag, label) in [(0u32, "rpc"), (1, "reno-60k"), (2, "file-30k")] {
        let sum = s.summary(tag);
        if sum.count > 0 {
            outln!(
                "  {label:<10} n={:<5} mean {:>9.1} ns  p50 {:>8} ns  p99 {:>8} ns  max {:>8} ns",
                sum.count,
                sum.mean_ns,
                sum.p50_ns,
                sum.p99_ns,
                sum.max_ns
            );
        }
    }
    outln!("completions: {}", sim.flow_completions().len());
    for r in sim.fault_log() {
        outln!(
            "fault at {} ns: reconverged {}, {} drops during outage",
            r.at.ns(),
            r.reconverged_at
                .map(|t| format!("at {} ns", t.ns()))
                .unwrap_or_else(|| "never".into()),
            r.drops_during_outage,
        );
    }
    eprintln!(
        "partition: {} domain(s), lookahead {} ns, {} windows, {} boundary messages",
        sim.domain_count(),
        sim.lookahead_ns(),
        sim.windows(),
        sim.boundary_messages()
    );
    let per_dom = sim.per_domain_events();
    eprintln!(
        "events: {} total across {} domain(s): {:?}",
        sim.events_processed(),
        per_dom.len(),
        per_dom
    );

    if let Some(out) = args.get("metrics-out") {
        let m = sim.take_metrics().ok_or("metrics were enabled")?;
        std::fs::write(out, m.to_ndjson()).map_err(|e| format!("writing {out}: {e}"))?;
        outln!("metrics written: {out}");
    }
    if let Some(out) = trace {
        let events = sim.take_recorder().ok_or("recorder was attached")?.finish();
        std::fs::write(&out, to_ndjson(&events)).map_err(|e| format!("writing {out}: {e}"))?;
        outln!("trace written: {out}");
    }
    Ok(())
}

fn cmd_power(args: &Args) -> Result<(), String> {
    args.expect_only(&["servers"])?;
    let servers: usize = args.num("servers", 10_000)?;
    if servers == 0 {
        return Err("--servers must be ≥ 1".into());
    }
    use quartz_cost::bom::Design;
    use quartz_cost::power::PowerCatalog;
    let p = PowerCatalog::default();
    outln!("network power draw for {servers} servers:");
    for d in [
        Design::TwoTierTree,
        Design::ThreeTierTree,
        Design::QuartzInEdge,
        Design::QuartzInCore,
        Design::QuartzInEdgeAndCore,
    ] {
        let w = p.watts_per_server(d, servers);
        outln!(
            "  {:<26} {w:>6.2} W/server ({:.1} kW total)",
            d.name(),
            w * servers as f64 / 1000.0
        );
    }
    Ok(())
}
