//! Figure 10 — normalized throughput for random permutation, incast, and
//! rack-level shuffle traffic: Quartz (adaptive VLB, §3.4) vs full, ½,
//! and ¼ bisection-bandwidth networks.

use crate::table::print_table;
use crate::Scale;
use quartz_core::pool::ThreadPool;
use quartz_flowsim::fabric::OversubscribedFabric;
use quartz_flowsim::matrix::{incast, rack_shuffle, random_permutation};
use quartz_flowsim::throughput::{adaptive_quartz_throughput, normalized_throughput, DEFAULT_KS};

/// One pattern's bars.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Pattern name.
    pub pattern: &'static str,
    /// Full-bisection network.
    pub full: f64,
    /// Quartz with adaptive VLB (and the chosen detour fraction).
    pub quartz: f64,
    /// Detour fraction the adaptive sweep chose.
    pub quartz_k: f64,
    /// ½-bisection network.
    pub half: f64,
    /// ¼-bisection network.
    pub quarter: f64,
}

/// Names of the three Figure 10 traffic patterns, in panel order.
const PATTERNS: [&str; 3] = ["Random Permutation", "Incast", "Rack-Level Shuffle"];

/// Runs the three patterns over `pool`: one unit per `(pattern, seed)`
/// cell (each cell regenerates its own demand matrix from the seed, so
/// cells share nothing); per-pattern sums fold in seed order, keeping
/// the rows bit-identical at any worker count. Paper scale uses the
/// flagship 33 × 32 mesh; quick scale a 9 × 8 one.
pub fn run(scale: Scale, pool: &ThreadPool) -> Vec<Row> {
    let (racks, hpr, seeds) = match scale {
        Scale::Paper => (33usize, 32usize, 5u64),
        Scale::Quick => (9, 8, 2),
    };
    let hosts = racks * hpr;
    let cells = pool.par_map(PATTERNS.len() * seeds as usize, |i| {
        let (pattern, seed) = (i / seeds as usize, (i % seeds as usize) as u64);
        let d = match pattern {
            0 => random_permutation(hosts, seed),
            1 => incast(hosts, 10, seed),
            _ => rack_shuffle(racks, hpr, 4, seed),
        };
        let over = |o: f64| {
            normalized_throughput(
                &OversubscribedFabric {
                    racks,
                    hosts_per_rack: hpr,
                    oversub: o,
                },
                &d,
            )
            .normalized
        };
        // Evaluation order matches the sequential loop: full, half,
        // quarter, then the adaptive sweep.
        let full = over(1.0);
        let half = over(2.0);
        let quarter = over(4.0);
        let (t, k) = adaptive_quartz_throughput(racks, hpr, 1.0, &d, &DEFAULT_KS);
        (full, half, quarter, t.normalized, k)
    });

    PATTERNS
        .iter()
        .enumerate()
        .map(|(p, &name)| {
            let mut acc = Row {
                pattern: name,
                full: 0.0,
                quartz: 0.0,
                quartz_k: 0.0,
                half: 0.0,
                quarter: 0.0,
            };
            for seed in 0..seeds as usize {
                let (full, half, quarter, quartz, k) = cells[p * seeds as usize + seed];
                acc.full += full;
                acc.half += half;
                acc.quarter += quarter;
                acc.quartz += quartz;
                acc.quartz_k += k;
            }
            let n = seeds as f64;
            Row {
                pattern: acc.pattern,
                full: acc.full / n,
                quartz: acc.quartz / n,
                // A negative mean marks seeds where the per-pair adaptive
                // policy won the sweep.
                quartz_k: acc.quartz_k / n,
                half: acc.half / n,
                quarter: acc.quarter / n,
            }
        })
        .collect()
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(rows: &[Row]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("fig10.rows", rows.len() as u64);
    for r in rows {
        let key = r.pattern.to_ascii_lowercase().replace([' ', '-'], "_");
        m.set_gauge(&format!("fig10.full.{key}"), r.full);
        m.set_gauge(&format!("fig10.quartz.{key}"), r.quartz);
        m.set_gauge(&format!("fig10.quartz_k.{key}"), r.quartz_k);
        m.set_gauge(&format!("fig10.half.{key}"), r.half);
        m.set_gauge(&format!("fig10.quarter.{key}"), r.quarter);
    }
    m.to_ndjson()
}

/// Renders the computed rows as the Figure 10 table.
pub fn render(rows: &[Row]) {
    crate::outln!("Figure 10: normalized throughput (1.0 = every server at full rate)\n");
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.pattern.to_string(),
                format!("{:.2}", r.full),
                if r.quartz_k < 0.0 {
                    format!("{:.2} (per-pair k)", r.quartz)
                } else {
                    format!("{:.2} (k={:.1})", r.quartz, r.quartz_k)
                },
                format!("{:.2}", r.half),
                format!("{:.2}", r.quarter),
            ]
        })
        .collect();
    print_table(
        &[
            "Traffic pattern",
            "Full bisection",
            "Quartz (adaptive VLB)",
            "1/2 bisection",
            "1/4 bisection",
        ],
        &rows,
    );
    crate::outln!("\nPaper: Quartz ≈0.9 on permutation/incast, ≈0.75 on shuffle — above 1/2 bisection, below full (§5.1).");
}
