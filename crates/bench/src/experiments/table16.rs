//! Table 16 — specifications of the switches used in the simulations.

use crate::table::print_table;
use crate::Scale;
use quartz_core::ThreadPool;
use quartz_netsim::switch::{SwitchSpec, ARISTA_7150S, CISCO_NEXUS_7000};

/// The two simulated devices (a static table: scale and pool are
/// unused).
pub fn run(_scale: Scale, _pool: &ThreadPool) -> Vec<SwitchSpec> {
    vec![CISCO_NEXUS_7000, ARISTA_7150S]
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(rows: &[SwitchSpec]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("table16.rows", rows.len() as u64);
    for s in rows {
        let key = s.name.to_ascii_lowercase().replace(' ', "_");
        m.set_gauge(&format!("table16.latency_ns.{key}"), s.latency_ns as f64);
        m.set_gauge(&format!("table16.ports_10g.{key}"), s.ports_10g as f64);
        m.inc(
            &format!("table16.cut_through.{key}"),
            u64::from(s.cut_through),
        );
    }
    m.to_ndjson()
}

/// Prints Table 16.
pub fn render(rows: &[SwitchSpec]) {
    crate::outln!("Table 16: specifications of switches used in the simulations\n");
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                if s.latency_ns >= 1000 {
                    format!("{} us", s.latency_ns / 1000)
                } else {
                    format!("{} ns", s.latency_ns)
                },
                format!("{} 10Gbps or {} 40Gbps", s.ports_10g, s.ports_40g),
                if s.cut_through {
                    "cut-through".into()
                } else {
                    "store-and-forward".into()
                },
            ]
        })
        .collect();
    print_table(&["Switch", "Latency", "Port count", "Architecture"], &rows);
}
