//! Routing-table construction cost: all-shortest-paths ECMP DAGs over the
//! evaluation topologies, up to the 5 120-host Quartz-in-core composite.

use quartz_bench::timing::measure;
use quartz_topology::builders::{fat_tree, jellyfish, quartz_in_core, quartz_mesh, three_tier};
use quartz_topology::metrics::path_diversity;
use quartz_topology::route::{FlatRoutes, RouteTable};

fn main() {
    let ft = fat_tree(8, 10.0);
    measure("route_tables", "fat_tree_k8", || {
        RouteTable::all_shortest_paths(&ft.net)
    });
    let jf = jellyfish(32, 6, 4, 10.0, 10.0, 3);
    measure("route_tables", "jellyfish_32sw", || {
        RouteTable::all_shortest_paths(&jf.net)
    });
    let q = quartz_mesh(33, 4, 10.0, 10.0);
    measure("route_tables", "quartz_mesh_33", || {
        RouteTable::all_shortest_paths(&q.net)
    });
    let t3 = three_tier(8, 2, 4, 2, 10.0, 40.0);
    measure("route_tables", "three_tier_16racks", || {
        RouteTable::all_shortest_paths(&t3.net)
    });
    // 5 120 hosts folded onto 304 switches: the table plus its
    // flattening, as an engine builds them.
    let qc = quartz_in_core(16, 16, 20, 16);
    measure("route_tables", "quartz_in_core_5k_hosts", || {
        let table = RouteTable::all_shortest_paths(&qc.net);
        let flat = FlatRoutes::new(&table, &qc.net);
        (table, flat)
    });

    let q = quartz_mesh(33, 1, 10.0, 10.0);
    measure("route_tables", "path_diversity_mesh33", || {
        path_diversity(&q.net, q.switches[0], q.switches[16])
    });

    quartz_bench::timing::write_json("routing_tables", None);
}
