//! Extension experiment E2 — the server-centric structures §2.1.5
//! surveys but Table 9 omits: DCell and CamCube alongside BCube and the
//! Quartz mesh, measured with the same metrics.
//!
//! "DCell, BCube and CamCube are networks that use servers as switches
//! to assist in packet forwarding … using servers to perform packet
//! forwarding can introduce substantial delays in the OS network stack."
//! The table charges every relay server the §2.1.5 stack penalty and
//! shows the latency cliff between switch-forwarded and server-forwarded
//! designs.

use crate::table::print_table;
use crate::Scale;
use quartz_core::pool::ThreadPool;
use quartz_topology::builders::{bcube, camcube, dcell_1, quartz_mesh};
use quartz_topology::metrics::{diameter_hops, latency_no_congestion_us, HopCounts};
use quartz_topology::route::RouteTable;

/// One structure's row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Structure name.
    pub name: &'static str,
    /// Servers in the measured instance.
    pub servers: usize,
    /// Worst-case hop composition.
    pub hops: HopCounts,
    /// Uncongested latency (0.5 µs per switch, 15 µs per relay server).
    pub latency_us: f64,
}

/// Measures the four structures at comparable small scale as
/// independent units over `pool` (each unit builds its topology and
/// runs the all-pairs shortest-path analysis).
pub fn run(scale: Scale, pool: &ThreadPool) -> Vec<Row> {
    let paper = scale == Scale::Paper;

    let build_row = |name, net: &quartz_topology::Network| {
        let t = RouteTable::all_shortest_paths(net);
        let hops = diameter_hops(net, &t);
        Row {
            name,
            servers: net.hosts().len(),
            hops,
            latency_us: latency_no_congestion_us(hops, 0.5, 15.0),
        }
    };

    pool.par_map(4, |i| match i {
        0 => {
            let q = if paper {
                quartz_mesh(8, 8, 10.0, 10.0)
            } else {
                quartz_mesh(4, 4, 10.0, 10.0)
            };
            build_row("Quartz mesh", &q.net)
        }
        1 => {
            let b = if paper {
                bcube(8, 1, 10.0)
            } else {
                bcube(4, 1, 10.0)
            };
            build_row("BCube(n,1)", &b.net)
        }
        2 => {
            let d = if paper {
                dcell_1(8, 10.0)
            } else {
                dcell_1(4, 10.0)
            };
            build_row("DCell_1(n)", &d.net)
        }
        _ => {
            let c = if paper {
                camcube(4, 10.0)
            } else {
                camcube(3, 10.0)
            };
            build_row("CamCube", &c.net)
        }
    })
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(rows: &[Row]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("ext02.rows", rows.len() as u64);
    for r in rows {
        let key = r
            .name
            .to_ascii_lowercase()
            .replace([' ', '(', ')', ','], "_")
            .replace("__", "_");
        let key = key.trim_matches('_');
        m.set_gauge(&format!("ext02.servers.{key}"), r.servers as f64);
        m.set_gauge(&format!("ext02.latency_us.{key}"), r.latency_us);
        m.set_gauge(
            &format!("ext02.server_hops.{key}"),
            r.hops.server_hops as f64,
        );
    }
    m.to_ndjson()
}

/// Renders the computed rows as the E2 table.
pub fn render(rows: &[Row]) {
    crate::outln!("Extension E2: server-centric structures vs the Quartz mesh (§2.1.5)\n");
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.servers.to_string(),
                format!("{} sw + {} srv", r.hops.switch_hops, r.hops.server_hops),
                format!("{:.1}", r.latency_us),
            ]
        })
        .collect();
    print_table(
        &[
            "Structure",
            "Servers",
            "Worst-case hops",
            "Latency w/o congestion (µs)",
        ],
        &rows,
    );
    crate::outln!("\nEvery relay *server* costs ~15 µs of OS stack (Table 2) — the cliff between switch-forwarded (Quartz: 1.0 µs) and server-forwarded designs.");
}
