//! Routing-table construction cost: all-shortest-paths ECMP DAGs over the
//! evaluation topologies, up to the 5 120-host Quartz-in-core composite.

use quartz_bench::timing::measure;
use quartz_core::rng::StdRng;
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
    // The simulator's per-hop path on the same fabric: 16 384 seeded
    // cross-pod host pairs, each walked from source to destination
    // through `ecmp_next` (six hops: ToR, aggregation, ring, aggregation,
    // ToR, host). That many pairs spread the lookups over the whole
    // table, as a fabric-wide traffic mix does; a few hundred pairs
    // would keep every entry they touch in cache, however large the
    // table.
    let table = RouteTable::all_shortest_paths(&qc.net);
    let flat = FlatRoutes::new(&table, &qc.net);
    let per_pod = qc.hosts.len() / 16;
    let mut rng = StdRng::seed_from_u64(7);
    let pairs: Vec<_> = (0..16_384)
        .map(|_| {
            let src = rng.random_range(0..qc.hosts.len());
            let pod = (src / per_pod + 1 + rng.random_range(0..15)) % 16;
            let dst = pod * per_pod + rng.random_range(0..per_pod);
            (qc.hosts[src], qc.hosts[dst], rng.random::<u64>())
        })
        .collect();
    measure("route_tables", "quartz_in_core_5k_lookups", || {
        let mut slots = 0u64;
        for &(src, dst, hash) in &pairs {
            let mut at = src;
            while at != dst {
                let (next, slot) = flat.ecmp_next(at, dst, hash).expect("reachable");
                slots = slots.wrapping_add(u64::from(slot));
                at = next;
            }
        }
        slots
    });

    let q = quartz_mesh(33, 1, 10.0, 10.0);
    measure("route_tables", "path_diversity_mesh33", || {
        path_diversity(&q.net, q.switches[0], q.switches[16])
    });

    quartz_bench::timing::write_json("routing_tables", None);
}
