//! Table 9 — summary of different network structures at the ~1k-server
//! scale: uncongested latency, switch count, wiring complexity, and path
//! diversity.
//!
//! Latency uses the paper's arithmetic: 0.5 µs per cut-through switch
//! hop and ~15 µs per relaying *server* (BCube). Wiring complexity is
//! the number of cross-rack cables. Path diversity is the number of
//! edge-disjoint paths between representative endpoints (computed
//! exactly with max-flow). The "switches (64-port)" column is the
//! closed-form count of 64-port devices for ~1k usable ports, as the
//! paper counts them.

use crate::table::print_table;
use crate::Scale;
use quartz_core::pool::ThreadPool;
use quartz_topology::builders::{
    bcube, jellyfish, leaf_spine, quartz_mesh, table9_fat_tree, two_tier,
};
use quartz_topology::metrics::{
    diameter_hops, latency_no_congestion_us, path_diversity, HopCounts,
};
use quartz_topology::route::RouteTable;

/// One structure's row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Structure name.
    pub name: &'static str,
    /// Worst-case hop composition (from the generated instance).
    pub hops: HopCounts,
    /// Uncongested latency, µs.
    pub latency_us: f64,
    /// 64-port switches for ~1k ports (paper's closed-form accounting).
    pub switches_64p: usize,
    /// Cross-rack cables in the generated instance.
    pub wiring: usize,
    /// For the mesh: physical cables after WDM collapsing (§3).
    pub wiring_with_wdm: Option<usize>,
    /// Edge-disjoint paths between representative endpoints.
    pub path_diversity: usize,
}

/// Builds and measures all five structures over `pool`: each
/// structure's build + all-pairs shortest-path + max-flow analysis is
/// one independent unit.
pub fn run(scale: Scale, pool: &ThreadPool) -> Vec<Row> {
    // Quick scale shrinks each instance but keeps the structure.
    let paper = scale == Scale::Paper;
    pool.par_map(5, |i| build_row(i, paper))
}

/// Builds and measures structure `i` of the table's five rows.
fn build_row(i: usize, paper: bool) -> Row {
    match i {
        // 2-tier tree: 16 ToRs under one root (17 switches, 16 cross
        // links).
        0 => {
            let t = if paper {
                two_tier(16, 63, 1, 10.0, 40.0)
            } else {
                two_tier(8, 8, 1, 10.0, 40.0)
            };
            let table = RouteTable::all_shortest_paths(&t.net);
            let hops = diameter_hops(&t.net, &table);
            Row {
                name: "2-Tier Tree",
                hops,
                latency_us: latency_no_congestion_us(hops, 0.5, 15.0),
                switches_64p: 17,
                wiring: t.net.switch_to_switch_links(),
                wiring_with_wdm: None,
                path_diversity: path_diversity(&t.net, t.tors[0], t.tors[1]),
            }
        }
        // Fat-Tree: the paper's 1k-port instance is a 3-stage folded
        // Clos of 64-port switches (32 leaves × 32 hosts, 16 spines, 2
        // parallel links per leaf-spine pair = 48 switches, 1024 links,
        // diversity 32).
        1 => {
            let f = if paper {
                table9_fat_tree()
            } else {
                leaf_spine(4, 2, 4, 2, 10.0)
            };
            let table = RouteTable::all_shortest_paths(&f.net);
            let hops = diameter_hops(&f.net, &table);
            let last = *f.leaves.last().unwrap();
            Row {
                name: "Fat-Tree",
                hops,
                latency_us: latency_no_congestion_us(hops, 0.5, 15.0),
                switches_64p: f.leaves.len() + f.spines.len(),
                wiring: f.net.switch_to_switch_links(),
                wiring_with_wdm: None,
                path_diversity: path_diversity(&f.net, f.leaves[0], last),
            }
        }
        // BCube(32,1) (1024 hosts) or BCube(4,1) quick.
        2 => {
            let b = if paper {
                bcube(32, 1, 10.0)
            } else {
                bcube(4, 1, 10.0)
            };
            let table = RouteTable::all_shortest_paths(&b.net);
            let hops = diameter_hops(&b.net, &table);
            // Cross-rack cables: every level-1 (non-rack-local) server
            // link.
            let wiring = b.hosts.len();
            Row {
                name: "BCube",
                hops,
                latency_us: latency_no_congestion_us(hops, 0.5, 15.0),
                switches_64p: 32, // the paper counts the per-pod 32-port tier
                wiring,
                wiring_with_wdm: None,
                path_diversity: path_diversity(&b.net, b.hosts[0], *b.hosts.last().unwrap()),
            }
        }
        // Jellyfish: 24 switches, degree 20, 44 hosts each (1056 hosts).
        3 => {
            let j = if paper {
                jellyfish(24, 20, 44, 10.0, 10.0, 9)
            } else {
                jellyfish(8, 4, 4, 10.0, 10.0, 9)
            };
            let table = RouteTable::all_shortest_paths(&j.net);
            let hops = diameter_hops(&j.net, &table);
            Row {
                name: "Jellyfish",
                hops,
                latency_us: latency_no_congestion_us(hops, 0.5, 15.0),
                switches_64p: 24,
                wiring: j.net.switch_to_switch_links(),
                wiring_with_wdm: None,
                path_diversity: path_diversity(&j.net, j.switches[0], j.switches[1]),
            }
        }
        // Quartz mesh: 33 switches × 32 hosts = 1056 ports.
        _ => {
            let q = if paper {
                quartz_mesh(33, 32, 10.0, 10.0)
            } else {
                quartz_mesh(6, 2, 10.0, 10.0)
            };
            let table = RouteTable::all_shortest_paths(&q.net);
            let hops = diameter_hops(&q.net, &table);
            let m = q.switches.len();
            Row {
                name: "Mesh (Quartz)",
                hops,
                latency_us: latency_no_congestion_us(hops, 0.5, 15.0),
                switches_64p: 33,
                wiring: q.net.switch_to_switch_links(),
                // Two fiber cables per switch once channels ride the
                // ring (§3.5: a 33-switch ring needs two physical rings).
                wiring_with_wdm: Some(2 * m),
                path_diversity: path_diversity(&q.net, q.switches[0], q.switches[1]),
            }
        }
    }
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(rows: &[Row]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("table09.rows", rows.len() as u64);
    for r in rows {
        let key = r
            .name
            .to_ascii_lowercase()
            .replace([' ', '(', ')'], "_")
            .replace('-', "_");
        let key = key.trim_matches('_');
        m.set_gauge(&format!("table09.latency_us.{key}"), r.latency_us);
        m.set_gauge(&format!("table09.wiring.{key}"), r.wiring as f64);
        m.set_gauge(
            &format!("table09.path_diversity.{key}"),
            r.path_diversity as f64,
        );
    }
    m.to_ndjson()
}

/// Renders the computed rows as the Table 9 table.
pub fn render(rows: &[Row]) {
    crate::outln!("Table 9: summary of different network structures (~1k server ports)\n");
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let hop_desc = if r.hops.server_hops > 0 {
                format!(
                    "{:.1} ({} sw + {} srv)",
                    r.latency_us, r.hops.switch_hops, r.hops.server_hops
                )
            } else {
                format!("{:.1} ({} sw hops)", r.latency_us, r.hops.switch_hops)
            };
            vec![
                r.name.to_string(),
                hop_desc,
                r.switches_64p.to_string(),
                match r.wiring_with_wdm {
                    Some(w) => format!("{} ({w} with WDMs)", r.wiring),
                    None => r.wiring.to_string(),
                },
                r.path_diversity.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "Network",
            "Latency w/o congestion (µs)",
            "# 64-port switches",
            "Wiring complexity",
            "Path diversity",
        ],
        &rows,
    );
    crate::outln!("\nPaper row values: 1.5µs/17/16/1, 1.5µs/48/1024/32, 16µs/32/960/2, 1.5µs/24/240/≤32, 1.0µs/33/528/32.");
}
