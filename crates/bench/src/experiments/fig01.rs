//! Figure 1 — backbone DWDM per-bit, per-km cost improvements over time.

use crate::table::print_table;
use crate::Scale;
use quartz_core::ThreadPool;
use quartz_cost::trend::{dwdm_cost_index, DWDM_TREND};

/// One point of the trend: `(year, generation, relative cost, fitted)`.
pub type Row = (u32, &'static str, f64, f64);

/// The digitized series with the exponential fit alongside (a static
/// table: scale and pool are unused).
pub fn run(_scale: Scale, _pool: &ThreadPool) -> Vec<Row> {
    DWDM_TREND
        .iter()
        .map(|&(year, cost, label)| (year, label, cost, dwdm_cost_index(year)))
        .collect()
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(rows: &[Row]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("fig01.rows", rows.len() as u64);
    for (year, _label, cost, fit) in rows {
        m.set_gauge(&format!("fig01.cost.y{year}"), *cost);
        m.set_gauge(&format!("fig01.fit.y{year}"), *fit);
    }
    m.to_ndjson()
}

/// Prints the Figure 1 series.
pub fn render(rows: &[Row]) {
    crate::outln!("Figure 1: backbone DWDM per-bit, per-km relative cost (1993 = 1.0)\n");
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(y, label, c, f)| {
            vec![
                y.to_string(),
                label.to_string(),
                format!("{c:.4}"),
                format!("{f:.4}"),
            ]
        })
        .collect();
    print_table(
        &["Year", "Generation", "Relative cost", "Exponential fit"],
        &rows,
    );
    let annual = quartz_cost::trend::annual_decline_factor();
    crate::outln!(
        "\nFitted decline: ×{annual:.2} per year (−{:.0}%/yr) — \"Quartz will only become more cost-competitive over time\" (§2.2).",
        (1.0 - annual) * 100.0
    );
}
