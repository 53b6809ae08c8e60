//! Differential test of the leaf-folded route tables against a dense
//! oracle: one reverse BFS per node over every node, hosts included,
//! storing `dist` and the ECMP sets for all n² pairs. The production
//! [`RouteTable`] routes between routing nodes only and folds leaf hosts
//! onto their switch at lookup time; for every `(at, dst)` pair it must
//! answer exactly what the oracle answers — same path length, same next
//! hops in the same order, same ECMP pick — and [`FlatRoutes`] must add
//! the directed slot of the first link the oracle found toward that hop:
//! the first live one of a set of parallel links, never a dead one.

use quartz_core::rng::StdRng;
use quartz_topology::builders::{
    bcube, camcube, dcell_1, dual_tor_mesh, fat_tree, jellyfish, leaf_spine, prototype_quartz,
    prototype_two_tier, quartz_in_core, quartz_in_edge, quartz_mesh, three_tier,
};
use quartz_topology::graph::{LinkId, Network, NodeId};
use quartz_topology::route::{FlatRoutes, RouteTable};
use std::collections::VecDeque;

/// The dense all-pairs table: `dist[dst][at]`, `next[dst][at]` as
/// `(next hop, link)` entries.
struct Oracle {
    dist: Vec<Vec<u32>>,
    next: Vec<Vec<Vec<(NodeId, LinkId)>>>,
}

impl Oracle {
    fn degraded(
        net: &Network,
        dead_link: impl Fn(LinkId) -> bool,
        dead_node: impl Fn(NodeId) -> bool,
    ) -> Self {
        let n = net.node_count();
        let mut dist = Vec::with_capacity(n);
        let mut next = Vec::with_capacity(n);
        for d in 0..n {
            let dst = NodeId(d as u32);
            if dead_node(dst) {
                dist.push(vec![u32::MAX; n]);
                next.push(vec![Vec::new(); n]);
                continue;
            }
            let (dv, nv) = bfs_to(net, dst, &dead_link, &dead_node);
            dist.push(dv);
            next.push(nv);
        }
        Oracle { dist, next }
    }

    /// The BFS spanning tree rooted at `root`: the fabric with every
    /// link off the tree dead.
    fn spanning_tree(net: &Network, root: NodeId) -> Self {
        let n = net.node_count();
        let mut seen = vec![false; n];
        let mut tree = vec![false; net.link_count()];
        let mut q = VecDeque::new();
        seen[root.0 as usize] = true;
        q.push_back(root);
        while let Some(u) = q.pop_front() {
            for &(v, l) in net.neighbors(u) {
                if !seen[v.0 as usize] {
                    seen[v.0 as usize] = true;
                    tree[l.0 as usize] = true;
                    q.push_back(v);
                }
            }
        }
        Self::degraded(net, |l| !tree[l.0 as usize], |_| false)
    }
}

fn bfs_to(
    net: &Network,
    dst: NodeId,
    dead_link: &impl Fn(LinkId) -> bool,
    dead_node: &impl Fn(NodeId) -> bool,
) -> (Vec<u32>, Vec<Vec<(NodeId, LinkId)>>) {
    let n = net.node_count();
    let mut dist = vec![u32::MAX; n];
    let mut q = VecDeque::new();
    dist[dst.0 as usize] = 0;
    q.push_back(dst);
    while let Some(u) = q.pop_front() {
        for &(v, l) in net.neighbors(u) {
            if dead_link(l) || dead_node(v) {
                continue;
            }
            if dist[v.0 as usize] == u32::MAX {
                dist[v.0 as usize] = dist[u.0 as usize] + 1;
                q.push_back(v);
            }
        }
    }
    let mut next = vec![Vec::new(); n];
    for u in 0..n {
        if dist[u] == u32::MAX || dist[u] == 0 || dead_node(NodeId(u as u32)) {
            continue;
        }
        for &(v, l) in net.neighbors(NodeId(u as u32)) {
            if dead_link(l) || dead_node(v) {
                continue;
            }
            if dist[v.0 as usize] + 1 == dist[u] {
                next[u].push((v, l));
            }
        }
    }
    (dist, next)
}

const HASHES: [u64; 6] = [0, 1, 2, 3, 7, u64::MAX];

/// Asserts `table` (and its flattening over `net`) answers every pair
/// exactly as `oracle` does.
fn assert_matches(label: &str, net: &Network, table: &RouteTable, oracle: &Oracle) {
    let n = net.node_count();
    assert_eq!(table.node_count(), n, "{label}: node count");
    let flat = FlatRoutes::new(table, net);
    assert_eq!(flat.node_count(), n, "{label}: flat node count");
    for d in 0..n {
        for a in 0..n {
            let (at, dst) = (NodeId(a as u32), NodeId(d as u32));
            let want_len = oracle.dist[d][a];
            let want_len = (want_len != u32::MAX).then_some(want_len as usize);
            assert_eq!(
                table.path_len(at, dst),
                want_len,
                "{label}: path_len {at}->{dst}"
            );
            let want_links = &oracle.next[d][a];
            let want: Vec<NodeId> = want_links.iter().map(|&(v, _)| v).collect();
            assert_eq!(
                table.next_hops(at, dst),
                &want[..],
                "{label}: next_hops {at}->{dst}"
            );
            let flat_hops = flat.next_hops(at, dst);
            assert_eq!(
                flat_hops.len(),
                want.len(),
                "{label}: flat width {at}->{dst}"
            );
            for (&(hop, slot), &(w, _)) in flat_hops.iter().zip(want_links) {
                // Parallel links to `w` share the first live one.
                let (_, l) = want_links.iter().find(|&&(v, _)| v == w).unwrap();
                let dir = u32::from(net.link(*l).a != at);
                assert_eq!(
                    (hop, slot),
                    (w, 2 * l.0 + dir),
                    "{label}: flat hop {at}->{dst}"
                );
            }
            for h in HASHES {
                let want = (!want.is_empty()).then(|| want[(h % want.len() as u64) as usize]);
                assert_eq!(
                    table.ecmp_next(at, dst, h),
                    want,
                    "{label}: ecmp {at}->{dst}"
                );
                assert_eq!(
                    flat.ecmp_next(at, dst, h).map(|(hop, _)| hop),
                    want,
                    "{label}: flat ecmp {at}->{dst}"
                );
            }
        }
    }
}

/// The fabrics every check runs over: leaf-only edges, multi-homed
/// hosts, parallel links, relay hosts, and the §7 composites.
fn fabrics() -> Vec<(String, Network)> {
    let mut v = vec![
        ("prototype_quartz".to_string(), prototype_quartz().net),
        ("prototype_two_tier".to_string(), prototype_two_tier().net),
        ("quartz_mesh".to_string(), quartz_mesh(6, 3, 10.0, 10.0).net),
        (
            "dual_tor_mesh".to_string(),
            dual_tor_mesh(4, 3, 10.0, 10.0).net,
        ),
        (
            "three_tier".to_string(),
            three_tier(2, 2, 2, 2, 10.0, 40.0).net,
        ),
        ("fat_tree".to_string(), fat_tree(4, 10.0).net),
        ("leaf_spine".to_string(), leaf_spine(4, 2, 3, 2, 10.0).net),
        ("bcube".to_string(), bcube(3, 1, 10.0).net),
        ("dcell_1".to_string(), dcell_1(3, 10.0).net),
        ("camcube".to_string(), camcube(3, 10.0).net),
        ("quartz_in_edge".to_string(), quartz_in_edge(2, 3, 2, 2).net),
        ("quartz_in_core".to_string(), quartz_in_core(2, 3, 3, 4).net),
        // Every aggregation switch holds the same 16-wide ring set
        // toward each remote pod: one interned set, many destinations.
        (
            "quartz_in_core_ring16".to_string(),
            quartz_in_core(4, 4, 2, 16).net,
        ),
    ];
    for seed in [1, 2, 3, 4] {
        v.push((
            format!("jellyfish_seed{seed}"),
            jellyfish(10, 3, 2, 10.0, 10.0, seed).net,
        ));
    }
    // A host wired to another host, and an isolated node: both route.
    let mut odd = Network::new();
    let s = odd.add_switch(quartz_topology::SwitchRole::TopOfRack, Some(0));
    let h1 = odd.add_host(Some(0));
    let h2 = odd.add_host(Some(0));
    let h3 = odd.add_host(Some(0));
    odd.add_host(None);
    odd.connect(h1, s, 10.0);
    odd.connect(h2, s, 10.0);
    odd.connect(h3, h2, 10.0);
    v.push(("odd_hosts".to_string(), odd));
    v
}

#[test]
fn pristine_tables_match_the_dense_oracle() {
    for (label, net) in fabrics() {
        let table = RouteTable::all_shortest_paths(&net);
        let oracle = Oracle::degraded(&net, |_| false, |_| false);
        assert_matches(&label, &net, &table, &oracle);
    }
}

#[test]
fn spanning_tree_tables_match_the_dense_oracle() {
    for (label, net) in fabrics() {
        for root in net.switches().into_iter().take(3) {
            let table = RouteTable::spanning_tree(&net, root);
            let oracle = Oracle::spanning_tree(&net, root);
            assert_matches(&format!("{label} stp@{root}"), &net, &table, &oracle);
        }
    }
}

/// Leaf-to-leaf ECMP 260 wide: wider than a byte, so the flat table's
/// set encoding must carry any width. Kept out of [`fabrics`], whose
/// sweeps would build this 269-node oracle eleven times.
#[test]
fn sets_wider_than_a_byte_match_the_dense_oracle() {
    let ls = leaf_spine(3, 260, 2, 1, 10.0);
    let net = &ls.net;
    let table = RouteTable::all_shortest_paths(net);
    let flat = FlatRoutes::new(&table, net);
    assert_eq!(flat.next_hops(ls.leaves[0], ls.leaves[2]).len(), 260);
    assert_matches(
        "leaf_spine_260",
        net,
        &table,
        &Oracle::degraded(net, |_| false, |_| false),
    );
    let (dl, dn) = random_failures(net, 5, 0.1, 0.02);
    let table = RouteTable::degraded(net, |l| dl[l.0 as usize], |x| dn[x.0 as usize]);
    let oracle = Oracle::degraded(net, |l| dl[l.0 as usize], |x| dn[x.0 as usize]);
    assert_matches("leaf_spine_260 seed5", net, &table, &oracle);
}

/// Seeded random failure sets: a share of the links (host access links
/// included) and of the nodes (ToRs and hosts included) are dead.
fn random_failures(net: &Network, seed: u64, link_p: f64, node_p: f64) -> (Vec<bool>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let links = (0..net.link_count())
        .map(|_| rng.random::<f64>() < link_p)
        .collect();
    let nodes = (0..net.node_count())
        .map(|_| rng.random::<f64>() < node_p)
        .collect();
    (links, nodes)
}

#[test]
fn degraded_tables_match_the_dense_oracle() {
    for (label, net) in fabrics() {
        for seed in 0..6 {
            let (p_link, p_node) = [(0.1, 0.0), (0.0, 0.1), (0.15, 0.1)][seed as usize % 3];
            let (dl, dn) = random_failures(&net, seed, p_link, p_node);
            let table = RouteTable::degraded(&net, |l| dl[l.0 as usize], |x| dn[x.0 as usize]);
            let oracle = Oracle::degraded(&net, |l| dl[l.0 as usize], |x| dn[x.0 as usize]);
            assert_matches(&format!("{label} seed{seed}"), &net, &table, &oracle);
        }
    }
}

#[test]
fn orphaned_hosts_match_the_dense_oracle() {
    // Kill the first host's switch, and cut the last host's access link.
    for (label, net) in fabrics() {
        let hosts = net.hosts();
        let wired = |h: &&NodeId| net.degree(**h) > 0;
        let (Some(&first), Some(&last)) = (hosts.first(), hosts.iter().rfind(wired)) else {
            continue;
        };
        let Some(tor) = net.host_tor(first) else {
            continue;
        };
        let access = net.neighbors(last)[0].1;
        let table = RouteTable::degraded(&net, |l| l == access, |x| x == tor);
        let oracle = Oracle::degraded(&net, |l| l == access, |x| x == tor);
        assert_matches(&format!("{label} orphaned"), &net, &table, &oracle);
    }
}

/// A dead parallel link is never forwarded on: after reconvergence the
/// flat entry resolves through the surviving twin, not the first link
/// between the two switches (`Network::link_between`).
#[test]
fn flat_routes_skip_a_dead_parallel_link() {
    let net = leaf_spine(4, 2, 3, 2, 10.0).net;
    let dead = LinkId(0);
    let (a, b) = (net.link(dead).a, net.link(dead).b);
    let twins = net.neighbors(a).iter().filter(|&&(v, _)| v == b).count();
    assert!(twins > 1, "link 0 must have a parallel twin");
    let table = RouteTable::degraded(&net, |l| l == dead, |_| false);
    let flat = FlatRoutes::new(&table, &net);
    let n = net.node_count() as u32;
    let mut through_twin = 0;
    for at in (0..n).map(NodeId) {
        for dst in (0..n).map(NodeId) {
            for &(hop, slot) in flat.next_hops(at, dst) {
                assert_ne!(slot / 2, dead.0, "{at}->{dst} forwards on the dead link");
                through_twin += usize::from((at, hop) == (a, b) || (at, hop) == (b, a));
            }
        }
    }
    assert!(
        through_twin > 0,
        "traffic still crosses between the two switches"
    );
}
