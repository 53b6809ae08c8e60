//! Table 8 — the §4.4 configurator: cost and latency comparison across
//! datacenter sizes and utilization levels.

use crate::table::{pct, print_table};
use crate::Scale;
use quartz_core::ThreadPool;
use quartz_cost::catalog::PriceCatalog;
use quartz_cost::configurator::{configure, DatacenterSize, Row, Utilization};

/// The six configurator rows under the default 2014 catalog. One
/// evaluation is sub-millisecond, and the scale and pool are unused.
pub fn run(_scale: Scale, _pool: &ThreadPool) -> Vec<Row> {
    configure(&PriceCatalog::era_2014())
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(rows: &[Row]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("table08.rows", rows.len() as u64);
    for r in rows {
        let key = format!(
            "{}.{}",
            size_name(r.size)
                .split(' ')
                .next()
                .unwrap()
                .to_ascii_lowercase(),
            util_name(r.utilization).to_ascii_lowercase()
        );
        m.set_gauge(&format!("table08.baseline_cost.{key}"), r.baseline_cost);
        m.set_gauge(&format!("table08.quartz_cost.{key}"), r.quartz_cost);
        m.set_gauge(
            &format!("table08.latency_reduction.{key}"),
            r.latency_reduction,
        );
    }
    m.to_ndjson()
}

fn size_name(s: DatacenterSize) -> &'static str {
    match s {
        DatacenterSize::Small => "Small (500)",
        DatacenterSize::Medium => "Medium (10K)",
        DatacenterSize::Large => "Large (100K)",
    }
}

fn util_name(u: Utilization) -> &'static str {
    match u {
        Utilization::Low => "Low",
        Utilization::High => "High",
    }
}

/// Prints Table 8.
pub fn render(rows: &[Row]) {
    crate::outln!("Table 8: approximate cost and latency comparison (network hardware only)\n");
    let rows: Vec<Vec<String>> = rows
        .iter()
        .flat_map(|r| {
            [
                vec![
                    size_name(r.size).to_string(),
                    util_name(r.utilization).to_string(),
                    r.baseline.name().to_string(),
                    "-".to_string(),
                    format!("${:.0}", r.baseline_cost),
                ],
                vec![
                    String::new(),
                    String::new(),
                    r.quartz.name().to_string(),
                    pct(r.latency_reduction),
                    format!("${:.0}", r.quartz_cost),
                ],
            ]
        })
        .collect();
    print_table(
        &[
            "Datacenter size",
            "Utilization",
            "Topology",
            "Latency reduction",
            "Cost/server",
        ],
        &rows,
    );
    crate::outln!("\nPaper's rows: small $589→$633 (33%/50%), medium $544→$612 (20%/40%), large $525→$525 core (70%) and $525→$614 edge+core (74%).");
}
