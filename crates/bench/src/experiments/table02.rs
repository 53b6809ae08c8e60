//! Table 2 — network latencies of different network components.

use crate::table::print_table;
use crate::Scale;
use quartz_core::ThreadPool;
use quartz_netsim::latency::{STANDARD, STATE_OF_ART};

/// `(component, standard ns, state-of-art ns)`.
pub type Row = (&'static str, u64, u64);

/// The Table 2 component latencies (a static table: scale and pool
/// are unused).
pub fn run(_scale: Scale, _pool: &ThreadPool) -> Vec<Row> {
    vec![
        ("OS Network Stack", STANDARD.stack_ns, STATE_OF_ART.stack_ns),
        ("NIC", STANDARD.nic_ns, STATE_OF_ART.nic_ns),
        ("Switch", STANDARD.switch_ns, STATE_OF_ART.switch_ns),
        (
            "Congestion",
            STANDARD.congestion_ns,
            STATE_OF_ART.congestion_ns,
        ),
    ]
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(rows: &[Row]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("table02.rows", rows.len() as u64);
    for (component, std_ns, art_ns) in rows {
        let key = component.to_ascii_lowercase().replace(' ', "_");
        m.set_gauge(&format!("table02.standard_ns.{key}"), *std_ns as f64);
        m.set_gauge(&format!("table02.state_of_art_ns.{key}"), *art_ns as f64);
    }
    m.to_ndjson()
}

/// Prints Table 2.
pub fn render(rows: &[Row]) {
    crate::outln!("Table 2: network latencies of different network components\n");
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|&(c, s, a)| {
            vec![
                c.to_string(),
                format!("{:.1}", s as f64 / 1e3),
                format!("{:.1}", a as f64 / 1e3),
            ]
        })
        .collect();
    print_table(&["Component", "Standard (µs)", "State of Art (µs)"], &rows);
    crate::outln!("\nNote: congestion is the Table 2 ~50 µs queueing figure; Quartz attacks it with topology rather than protocol changes (§1).");
}
