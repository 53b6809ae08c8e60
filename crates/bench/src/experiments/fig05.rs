//! Figure 5 — wavelengths required vs ring size: greedy vs optimal.
//!
//! The paper solves an ILP for the optimum; our exact branch-and-bound
//! computes the same minimum where it can prove it within the node
//! budget, and otherwise the row reports the certified `[lower bound,
//! greedy]` interval (even ring sizes ≥ 10 have expensive infeasibility
//! proofs; odd sizes all solve instantly and match the known closed form
//! `(M² − 1)/8`).

use crate::table::print_table;
use crate::Scale;
use quartz_core::channel::bounds::load_lower_bound;
use quartz_core::channel::exact::{solve, ExactStatus};
use quartz_core::channel::greedy;
use quartz_core::pool::ThreadPool;

/// One ring size's result.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Ring size `M`.
    pub m: usize,
    /// Greedy heuristic wavelength count (best start offset).
    pub greedy: usize,
    /// Exact optimum when proven.
    pub optimal: Option<usize>,
    /// Certified lower bound.
    pub lower_bound: usize,
}

/// Sweeps ring sizes 2..=41 over `pool`: each size's greedy + exact
/// solve is one independent unit (the even sizes' branch-and-bound
/// infeasibility proofs dominate, so they spread across workers).
pub fn run(scale: Scale, pool: &ThreadPool) -> Vec<Row> {
    let (max_m, exact_horizon, budget) = match scale {
        // Attempt the exact solver at every size: odd rings prove their
        // optimum quickly at any size; even rings ≥ 10 usually exhaust
        // the budget on the infeasibility proof and fall back to the
        // certified interval.
        Scale::Paper => (41, 41, 30_000_000u64),
        Scale::Quick => (12, 9, 2_000_000u64),
    };
    pool.par_map(max_m - 1, |i| {
        let m = i + 2;
        let g = greedy::wavelengths_required(m);
        let lb = load_lower_bound(m);
        let optimal = if m <= exact_horizon {
            let r = solve(m, budget);
            (r.status == ExactStatus::Optimal).then_some(r.channels)
        } else if g == lb {
            // Greedy meeting the load bound is a proof of optimality
            // at any size.
            Some(g)
        } else {
            None
        };
        Row {
            m,
            greedy: g,
            optimal,
            lower_bound: lb,
        }
    })
}

/// The largest ring a 160-channel fiber supports — the paper's "maximum
/// ring size is 35".
pub fn max_ring_size(rows: &[Row]) -> usize {
    rows.iter()
        .filter(|r| r.greedy <= 160)
        .map(|r| r.m)
        .max()
        .unwrap_or(0)
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(rows: &[Row]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("fig05.rows", rows.len() as u64);
    m.inc(
        "fig05.optimal_proven",
        rows.iter().filter(|r| r.optimal.is_some()).count() as u64,
    );
    m.set_gauge("fig05.max_ring_size", max_ring_size(rows) as f64);
    for r in rows {
        m.set_gauge(&format!("fig05.greedy.m{:02}", r.m), r.greedy as f64);
        m.set_gauge(
            &format!("fig05.lower_bound.m{:02}", r.m),
            r.lower_bound as f64,
        );
        if let Some(o) = r.optimal {
            m.set_gauge(&format!("fig05.optimal.m{:02}", r.m), o as f64);
        }
    }
    m.to_ndjson()
}

/// Renders the computed rows as the Figure 5 table.
pub fn render(rows: &[Row]) {
    crate::outln!("Figure 5: wavelengths required vs ring size (greedy vs optimal)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.m.to_string(),
                r.greedy.to_string(),
                r.optimal
                    .map(|o| o.to_string())
                    .unwrap_or_else(|| format!("[{}..{}]", r.lower_bound, r.greedy)),
                r.lower_bound.to_string(),
            ]
        })
        .collect();
    print_table(
        &["Ring size", "Greedy", "Optimal (exact)", "Load bound"],
        &table,
    );
    crate::outln!(
        "\nMax ring size within 160 fiber channels: {} (paper: 35).",
        max_ring_size(rows)
    );
    let worst = rows
        .iter()
        .filter_map(|r| r.optimal.map(|o| (r.m, r.greedy as f64 / o as f64)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((m, ratio)) = worst {
        crate::outln!(
            "Greedy vs proven optimum: worst ratio {ratio:.3}x at M = {m} — \"our greedy heuristic performs nearly as well as the optimal solution\" (§3.1.1)."
        );
    }
}
