//! Routing tables: all-shortest-paths ECMP and spanning-tree (L2)
//! forwarding.
//!
//! The paper routes Quartz with ECMP ("since there is a single shortest
//! path between any pair of switches in a full mesh, ECMP always selects
//! the direct one-hop path", §3.4) and uses per-VLAN spanning trees on the
//! prototype (via SPAIN, §6). Valiant load balancing is expressed on top
//! of this table by routing to a chosen intermediate switch first.
//!
//! [`RouteTable`] answers, for every `(at, dst)` node pair, the set of
//! shortest-path next hops at `at` toward `dst` — the ECMP DAG. Selection
//! among equal-cost hops is by flow hash, so a flow's packets stay on one
//! path (no reordering), which is how real ECMP behaves.
//!
//! # Leaf folding
//!
//! Routes are computed between **routing nodes** only. A **leaf host** —
//! a host with exactly one link, whose other end is a switch — is only
//! ever the first or last node of a path: its switch (its *ToR*) is its
//! only next hop, and no shortest path transits it. So a leaf is folded
//! onto its ToR at lookup time:
//!
//! * at the leaf, the next hop toward any reachable `dst` is the ToR;
//! * at the ToR, the next hop toward the leaf is the leaf itself;
//! * at any other routing node, `next_hops(at, leaf)` is
//!   `next_hops(at, tor)` — a neighbor `v` is one hop closer to the leaf
//!   exactly when it is one hop closer to the ToR, and a leaf neighbor
//!   is never closer, so the sets agree element for element, in
//!   adjacency order.
//!
//! Every other node is a routing node: switches, multi-homed hosts
//! (`dual_tor_mesh`), relay hosts (BCube, DCell, CamCube) and isolated
//! nodes. A fabric with R routing nodes and n nodes stores an R×R
//! distance table, the R×R ECMP sets as one CSR array, and one column
//! entry per node: O(R² + n) memory and R breadth-first searches, however
//! many hosts hang off the switches. The 5 424-node Quartz-in-core
//! composite has R = 304. A fabric without leaves has R = n and the
//! same tables as a dense all-pairs build.
//!
//! A leaf is live when it, its access link and its ToR are; the first two
//! are flags in the leaf's column and the third is the ToR's own row. So
//! a dead host access link (or leaf host) costs no search: the searches
//! run over routing nodes only.
//!
//! [`FlatRoutes`] resolves the same table to `(next hop, directed link
//! slot)` entries for the simulator's per-hop path. It stores each
//! forwarding router's *distinct* ECMP sets once and gives every R×R
//! cell a set id, so a set shared by many destinations (an aggregation
//! switch's ring set toward every remote pod) costs one `u32` per
//! destination. The §7 composite's flat table takes 0.55 MB, where one
//! copy of each set per destination would take 2.9 MB: small enough to
//! stay in a 2 MB L2 cache.

use crate::graph::{LinkId, Network, NodeId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::mem::size_of;

/// Shortest-path next-hop table over every node pair, stored between
/// routing nodes (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use quartz_topology::builders::prototype_quartz;
/// use quartz_topology::route::RouteTable;
///
/// // §3.4: in a full mesh, ECMP always picks the single direct hop.
/// let p = prototype_quartz();
/// let table = RouteTable::all_shortest_paths(&p.net);
/// assert_eq!(table.next_hops(p.switches[0], p.switches[3]), &[p.switches[3]]);
/// // A host's only next hop is its switch.
/// assert_eq!(table.next_hops(p.hosts[0], p.hosts[7]), &[p.switches[0]]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteTable {
    /// Per node: its routing index, or its leaf column.
    place: Vec<Place>,
    /// Routing nodes in id order (routing index → node).
    routers: Vec<NodeId>,
    /// `dist[dst * R + at]` in links between routing nodes; `u32::MAX` =
    /// unreachable (and every entry of a dead node's row and column).
    dist: Vec<u32>,
    /// CSR offsets of the ECMP sets, `R * R + 1` entries, indexed like
    /// `dist`.
    offsets: Vec<u32>,
    /// Concatenated ECMP sets, each in the at-node's adjacency order.
    hops: Vec<NodeId>,
    /// The dead links of the failure state the table routes around,
    /// ascending (empty on an intact fabric). [`FlatRoutes`] resolves a
    /// next hop behind parallel links to the first one not listed here.
    dead_links: Vec<LinkId>,
}

/// Where a node sits in a [`RouteTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Place {
    /// A routing node: its index into the R×R tables.
    Router(u32),
    /// A leaf host, folded onto its attachment switch.
    Leaf(Leaf),
}

/// A leaf host's column: where it attaches and whether it is live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Leaf {
    /// The host itself, so its last hop can be handed out as a slice.
    host: NodeId,
    /// The attachment switch (a routing node).
    tor: NodeId,
    /// The attachment switch's routing index.
    tor_r: u32,
    /// The host is not dead.
    alive: bool,
    /// The access link is not dead.
    link_up: bool,
}

impl Leaf {
    /// The host and its access link are up (its ToR may still be down).
    fn attached(&self) -> bool {
        self.alive && self.link_up
    }
}

impl RouteTable {
    /// Builds the full ECMP table with one reverse BFS per routing node.
    pub fn all_shortest_paths(net: &Network) -> Self {
        Self::degraded(net, |_| false, |_| false)
    }

    /// Builds the ECMP table over the network *minus* failed elements —
    /// the table a converged control plane installs after the failures
    /// in §3.5's model. `dead_link` / `dead_node` mark the casualties; a
    /// dead node implicitly kills every link incident to it, and no
    /// route ever enters or leaves a dead node.
    pub fn degraded(
        net: &Network,
        dead_link: impl Fn(LinkId) -> bool,
        dead_node: impl Fn(NodeId) -> bool,
    ) -> Self {
        let (place, routers) = fold_leaves(net, &dead_link, &dead_node);
        let r = routers.len();
        let graph = Graph::new(net, &place, &routers);
        let mut dist = vec![u32::MAX; r * r];
        let mut offsets = Vec::with_capacity(r * r + 1);
        let mut hops = Vec::new();
        offsets.push(0);
        for (d, row) in dist.chunks_mut(r.max(1)).enumerate() {
            graph.route_to(d, row, &dead_link, &dead_node, &mut offsets, &mut hops);
        }
        RouteTable {
            place,
            routers,
            dist,
            offsets,
            hops,
            dead_links: net
                .links()
                .map(|l| l.id)
                .filter(|&l| dead_link(l))
                .collect(),
        }
    }

    /// Builds a single-path table routed along the BFS spanning tree
    /// rooted at `root` — the behaviour of classic L2 Ethernet, where
    /// "Ethernet creates a single spanning tree … it can only utilize a
    /// small fraction of the links in the network" (§3.4). The table is
    /// the fabric's own with every link off the tree dead, so it
    /// forwards on the fabric's tree links.
    pub fn spanning_tree(net: &Network, root: NodeId) -> Self {
        let mut seen = vec![false; net.node_count()];
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

    /// Number of routing nodes, R.
    fn r(&self) -> usize {
        self.routers.len()
    }

    /// The routing node standing in for `x` and the links between them:
    /// a router stands for itself (0 links), an attached leaf for its
    /// ToR (1 link); a detached leaf reaches nothing.
    fn anchor(&self, x: NodeId) -> Option<(usize, usize)> {
        match self.place[x.0 as usize] {
            Place::Router(r) => Some((r as usize, 0)),
            Place::Leaf(l) => l.attached().then_some((l.tor_r as usize, 1)),
        }
    }

    /// The ECMP set between two routing nodes.
    fn set(&self, at: usize, dst: usize) -> &[NodeId] {
        let i = dst * self.r() + at;
        &self.hops[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Shortest-path length in links, if reachable.
    pub fn path_len(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if from == to {
            let alive = match self.place[from.0 as usize] {
                Place::Router(r) => self.dist[r as usize * (self.r() + 1)] == 0,
                Place::Leaf(l) => l.alive,
            };
            return alive.then_some(0);
        }
        let (a, ea) = self.anchor(from)?;
        let (d, ed) = self.anchor(to)?;
        let hops = self.dist[d * self.r() + a];
        (hops != u32::MAX).then_some(hops as usize + ea + ed)
    }

    /// The ECMP next-hop set at `at` toward `dst` (empty at `dst` itself
    /// or if unreachable).
    pub fn next_hops(&self, at: NodeId, dst: NodeId) -> &[NodeId] {
        if at == dst {
            return &[];
        }
        match &self.place[at.0 as usize] {
            Place::Leaf(l) => match self.path_len(at, dst) {
                Some(_) => std::slice::from_ref(&l.tor),
                None => &[],
            },
            &Place::Router(a) => match &self.place[dst.0 as usize] {
                &Place::Router(d) => self.set(a as usize, d as usize),
                Place::Leaf(l) if !l.attached() => &[],
                // Last hop: a live ToR hands the packet to its leaf.
                Place::Leaf(l) if l.tor == at => match self.path_len(at, at) {
                    Some(_) => std::slice::from_ref(&l.host),
                    None => &[],
                },
                Place::Leaf(l) => self.set(a as usize, l.tor_r as usize),
            },
        }
    }

    /// Deterministic ECMP selection: pick among the equal-cost next hops
    /// by `flow_hash`, so all packets of a flow take the same path.
    pub fn ecmp_next(&self, at: NodeId, dst: NodeId, flow_hash: u64) -> Option<NodeId> {
        let hops = self.next_hops(at, dst);
        if hops.is_empty() {
            None
        } else {
            Some(hops[(flow_hash % hops.len() as u64) as usize])
        }
    }

    /// One shortest path from `from` to `to` (following ECMP choice 0),
    /// inclusive of both endpoints.
    pub fn a_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        self.path_len(from, to)?;
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            cur = *self.next_hops(cur, to).first()?;
            path.push(cur);
        }
        Some(path)
    }

    /// Number of nodes in the table.
    pub fn node_count(&self) -> usize {
        self.place.len()
    }

    /// Heap memory the table holds, in bytes (allocated capacity).
    pub fn heap_bytes(&self) -> usize {
        self.place.capacity() * size_of::<Place>()
            + self.routers.capacity() * size_of::<NodeId>()
            + self.dist.capacity() * size_of::<u32>()
            + self.offsets.capacity() * size_of::<u32>()
            + self.hops.capacity() * size_of::<NodeId>()
            + self.dead_links.capacity() * size_of::<LinkId>()
    }
}

/// Splits `net`'s nodes into routing nodes (in id order) and leaf hosts,
/// taking each leaf's liveness from the predicates.
fn fold_leaves(
    net: &Network,
    dead_link: &impl Fn(LinkId) -> bool,
    dead_node: &impl Fn(NodeId) -> bool,
) -> (Vec<Place>, Vec<NodeId>) {
    let leaf_link = |x: NodeId| match net.neighbors(x) {
        &[(tor, link)] if net.node(x).kind.is_host() && net.node(tor).kind.is_switch() => {
            Some((tor, link))
        }
        _ => None,
    };
    let mut index = vec![u32::MAX; net.node_count()];
    let mut routers = Vec::new();
    for node in net.nodes() {
        if leaf_link(node.id).is_none() {
            debug_assert!(routers.len() < u32::MAX as usize, "node ids fit u32");
            index[node.id.0 as usize] = routers.len() as u32;
            routers.push(node.id);
        }
    }
    let place = net
        .nodes()
        .map(|node| match leaf_link(node.id) {
            None => Place::Router(index[node.id.0 as usize]),
            Some((tor, link)) => Place::Leaf(Leaf {
                host: node.id,
                tor,
                tor_r: index[tor.0 as usize],
                alive: !dead_node(node.id),
                link_up: !dead_link(link),
            }),
        })
        .collect();
    (place, routers)
}

/// The routing subgraph in routing indices: each router's router
/// neighbors as `(index, link)`, in [`Network::neighbors`] order.
struct Graph<'a> {
    routers: &'a [NodeId],
    /// CSR offsets into `adj`, `R + 1` entries.
    start: Vec<usize>,
    adj: Vec<(usize, LinkId)>,
}

impl<'a> Graph<'a> {
    fn new(net: &Network, place: &[Place], routers: &'a [NodeId]) -> Self {
        let mut start = Vec::with_capacity(routers.len() + 1);
        let mut adj = Vec::new();
        start.push(0);
        for &u in routers {
            adj.extend(
                net.neighbors(u)
                    .iter()
                    .filter_map(|&(v, l)| match place[v.0 as usize] {
                        Place::Router(i) => Some((i as usize, l)),
                        Place::Leaf(_) => None,
                    }),
            );
            start.push(adj.len());
        }
        Graph {
            routers,
            start,
            adj,
        }
    }

    fn neighbors(&self, u: usize) -> &[(usize, LinkId)] {
        &self.adj[self.start[u]..self.start[u + 1]]
    }

    /// Reverse BFS toward router `d` over the surviving routing graph:
    /// fills `dist` (d's row) and appends d's ECMP sets, one per router
    /// in index order, to `offsets` / `hops`.
    fn route_to(
        &self,
        d: usize,
        dist: &mut [u32],
        dead_link: &impl Fn(LinkId) -> bool,
        dead_node: &impl Fn(NodeId) -> bool,
        offsets: &mut Vec<u32>,
        hops: &mut Vec<NodeId>,
    ) {
        let mut queue = VecDeque::new();
        let live = |v: usize, l: LinkId| !dead_link(l) && !dead_node(self.routers[v]);
        dist.fill(u32::MAX);
        // Nothing routes toward a dead destination.
        if !dead_node(self.routers[d]) {
            dist[d] = 0;
            queue.push_back(d);
        }
        while let Some(u) = queue.pop_front() {
            for &(v, l) in self.neighbors(u) {
                if dist[v] == u32::MAX && live(v, l) {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        for (u, &du) in dist.iter().enumerate() {
            // An unreached router is dead or cut off; `d` has no next hop.
            if du != u32::MAX && du != 0 {
                hops.extend(
                    self.neighbors(u)
                        .iter()
                        .filter(|&&(v, l)| dist[v].wrapping_add(1) == du && live(v, l))
                        .map(|&(v, _)| self.routers[v]),
                );
            }
            debug_assert!(hops.len() <= u32::MAX as usize, "hop offsets fit u32");
            offsets.push(hops.len() as u32);
        }
    }
}

/// Why a [`RouteTable`] cannot forward over a [`Network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// The table covers a different number of nodes than the network.
    NodeCount {
        /// Nodes in the table.
        table: usize,
        /// Nodes in the network.
        network: usize,
    },
    /// The table forwards from `at` to `next`, but the network has no
    /// link between them: the table was built over another fabric.
    NotAdjacent {
        /// The forwarding node.
        at: NodeId,
        /// The next hop the table names.
        next: NodeId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NodeCount { table, network } => write!(
                f,
                "route table covers {table} nodes but the network has {network}"
            ),
            RouteError::NotAdjacent { at, next } => write!(
                f,
                "route next hop must be adjacent: the table forwards {at} -> {next}, which share no link"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// [`RouteTable`] resolved for the per-hop fast path: every next hop
/// comes with its directed link slot (`slot = 2 × link + direction`,
/// the simulator's per-direction link array layout), so forwarding needs
/// no adjacency search.
///
/// The routing-node ECMP sets are interned: an `(R+1)×(R+1)` grid whose
/// last row and column are empty holds one set id per cell, and a CSR
/// over the *distinct* sets maps each id to its entries. Sets are
/// interned per forwarding router — a slot names the router's own port,
/// so sets at two routers never coincide — and id 0 is the empty set.
/// Where one router reaches many destinations through the same hops (an
/// aggregation switch's 16-wide ring set toward every remote pod of the
/// §7 composite), the set is stored once, and the grid stays a few
/// hundred kilobytes. Each node has one grid index, used as its row when
/// it is the destination and as its column when it forwards: a router's
/// own, a live leaf's ToR's, and the empty one for a leaf that is cut
/// off. So every hop is two per-node reads, a set id, two offsets and a
/// pick:
///
/// * at a router, the cell is the ECMP set — toward a leaf, its ToR's;
/// * at a live leaf, the cell is its ToR's set toward `dst`: the leaf's
///   one next hop, the ToR, applies when that set is non-empty or `dst`
///   shares the ToR's index (the ToR itself, or a leaf on it);
/// * at a ToR toward one of its own live leaves the cell is the empty
///   diagonal, and the leaf's entry supplies the last hop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatRoutes {
    /// `R + 1`: the grid's row length.
    stride: usize,
    /// Per node: its grid index and, for a live leaf, its hops.
    node: Vec<Entry>,
    /// The grid: per cell, its set id (`stride * stride` entries).
    cell: Vec<u32>,
    /// CSR offsets of the distinct sets, one more than there are sets.
    offsets: Vec<u32>,
    /// Concatenated distinct sets, each in [`RouteTable::next_hops`]
    /// order.
    hops: Vec<(NodeId, u32)>,
}

/// One node's place in a [`FlatRoutes`] grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    /// Grid row as destination and column as forwarding node.
    idx: u32,
    /// For a live leaf (attached, with a live ToR): its first hop `(ToR,
    /// uplink slot)` and its ToR's last hop `(leaf, downlink slot)`.
    edge: Option<[(NodeId, u32); 2]>,
}

impl FlatRoutes {
    /// Flattens `table` over `net`, resolving every next hop to its
    /// directed link slot once, here, instead of per packet.
    ///
    /// # Panics
    /// Panics if the table does not fit `net` (see
    /// [`FlatRoutes::try_new`]).
    pub fn new(table: &RouteTable, net: &Network) -> Self {
        Self::try_new(table, net).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`FlatRoutes::new`], or why `table` cannot forward over `net`: it
    /// covers a different node count, or names a next hop `net` has no
    /// link to. O(R² · ECMP width + n + links): each cell costs one
    /// comparison with the cell before it or a lookup among its router's
    /// distinct sets, and only a new set is resolved and stored.
    pub fn try_new(table: &RouteTable, net: &Network) -> Result<Self, RouteError> {
        let n = table.node_count();
        if net.node_count() != n {
            return Err(RouteError::NodeCount {
                table: n,
                network: net.node_count(),
            });
        }
        let r = table.r();
        let stride = r + 1;
        debug_assert!(stride <= u32::MAX as usize, "node ids fit u32");
        let empty = r as u32;
        let slot = |at: NodeId, l: LinkId| 2 * l.0 + u32::from(net.link(l).a != at);

        // Routing-node sets, interned per forwarding router: same
        // entries, same order as the table's; resolved through the
        // router's first live link to each neighbor — the link
        // `Network::link_between` picks on an intact fabric, and never a
        // dead parallel link. Id 0 is the empty set; the grid's last row
        // and column keep it.
        let dead = |l: LinkId| table.dead_links.binary_search(&l).is_ok();
        let mut cell = vec![0u32; stride * stride];
        let mut offsets = vec![0u32, 0];
        let mut hops = Vec::new();
        let mut first_slot = vec![u32::MAX; n];
        let mut ids: BTreeMap<&[NodeId], u32> = BTreeMap::new();
        for (a, &at) in table.routers.iter().enumerate() {
            for &(v, l) in net.neighbors(at).iter().rev() {
                if !dead(l) {
                    first_slot[v.0 as usize] = slot(at, l);
                }
            }
            ids.clear();
            let mut prev: (&[NodeId], u32) = (&[], 0);
            for d in 0..r {
                let set = table.set(a, d);
                if set != prev.0 {
                    let id = match ids.get(set) {
                        Some(&id) => id,
                        None if set.is_empty() => 0,
                        None => {
                            for &next in set {
                                let s = first_slot[next.0 as usize];
                                if s == u32::MAX {
                                    return Err(RouteError::NotAdjacent { at, next });
                                }
                                hops.push((next, s));
                            }
                            debug_assert!(hops.len() <= u32::MAX as usize, "hop offsets fit u32");
                            offsets.push(hops.len() as u32);
                            let id = (offsets.len() - 2) as u32;
                            ids.insert(set, id);
                            id
                        }
                    };
                    prev = (set, id);
                }
                cell[d * stride + a] = prev.1;
            }
            for &(v, _) in net.neighbors(at) {
                first_slot[v.0 as usize] = u32::MAX;
            }
        }
        offsets.shrink_to_fit();
        hops.shrink_to_fit();

        let mut node = Vec::with_capacity(n);
        for p in &table.place {
            node.push(match *p {
                Place::Router(idx) => Entry { idx, edge: None },
                Place::Leaf(l) => {
                    let up = net
                        .link_between(l.host, l.tor)
                        .ok_or(RouteError::NotAdjacent {
                            at: l.host,
                            next: l.tor,
                        })?;
                    let up = slot(l.host, up);
                    if l.attached() && table.path_len(l.tor, l.tor).is_some() {
                        Entry {
                            idx: l.tor_r,
                            edge: Some([(l.tor, up), (l.host, up ^ 1)]),
                        }
                    } else {
                        Entry {
                            idx: empty,
                            edge: None,
                        }
                    }
                }
            });
        }
        Ok(FlatRoutes {
            stride,
            node,
            cell,
            offsets,
            hops,
        })
    }

    /// The ECMP set at `at` toward `dst` as `(next hop, directed link
    /// slot)` entries, in the same order as [`RouteTable::next_hops`].
    // lint:hot
    #[inline]
    pub fn next_hops(&self, at: NodeId, dst: NodeId) -> &[(NodeId, u32)] {
        let (a, d) = (&self.node[at.0 as usize], &self.node[dst.0 as usize]);
        let set = self.cell[d.idx as usize * self.stride + a.idx as usize] as usize;
        match (&a.edge, &d.edge) {
            // First hop: the leaf's ToR, if the ToR can deliver.
            (Some([up, _]), _) if at != dst && (set != 0 || a.idx == d.idx) => {
                std::slice::from_ref(up)
            }
            (Some(_), _) => &[],
            // Last hop: the ToR hands the packet to its own leaf.
            (None, Some([_, down])) if a.idx == d.idx => std::slice::from_ref(down),
            _ => &self.hops[self.offsets[set] as usize..self.offsets[set + 1] as usize],
        }
    }

    /// Deterministic ECMP pick by flow hash — selects the same hop as
    /// [`RouteTable::ecmp_next`] on the source table, plus its directed
    /// link slot. ECMP sets are almost always 1, 2, or 4 wide, where
    /// the modulo reduces to a mask — worth special-casing because this
    /// runs once per hop of every simulated packet.
    // lint:hot
    #[inline]
    pub fn ecmp_next(&self, at: NodeId, dst: NodeId, flow_hash: u64) -> Option<(NodeId, u32)> {
        let hops = self.next_hops(at, dst);
        let idx = match hops.len() {
            0 => return None,
            1 => 0,
            2 => (flow_hash & 1) as usize,
            4 => (flow_hash & 3) as usize,
            n => (flow_hash % n as u64) as usize,
        };
        Some(hops[idx])
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.node.len()
    }

    /// Heap memory the flattened table holds, in bytes (allocated
    /// capacity).
    pub fn heap_bytes(&self) -> usize {
        self.node.capacity() * size_of::<Entry>()
            + self.cell.capacity() * size_of::<u32>()
            + self.offsets.capacity() * size_of::<u32>()
            + self.hops.capacity() * size_of::<(NodeId, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{prototype_quartz, prototype_two_tier, quartz_in_core, three_tier};
    use crate::graph::SwitchRole;

    #[test]
    fn mesh_ecmp_always_direct() {
        // §3.4: in a full mesh ECMP always selects the one-hop path.
        let p = prototype_quartz();
        let t = RouteTable::all_shortest_paths(&p.net);
        for &a in &p.switches {
            for &b in &p.switches {
                if a != b {
                    assert_eq!(t.next_hops(a, b), &[b]);
                }
            }
        }
    }

    #[test]
    fn tree_paths_go_through_root() {
        let p = prototype_two_tier();
        let t = RouteTable::all_shortest_paths(&p.net);
        let path = t.a_path(p.hosts[0], p.hosts[2]).unwrap();
        assert_eq!(path.len(), 5); // h, tor, root, tor, h
        assert_eq!(path[2], p.switches[0]);
    }

    #[test]
    fn ecmp_spreads_across_equal_paths_deterministically() {
        let t3 = three_tier(2, 2, 1, 2, 10.0, 40.0);
        let table = RouteTable::all_shortest_paths(&t3.net);
        // From a ToR toward a core-adjacent destination there are two agg
        // choices; different hashes may differ, same hash never does.
        let tor = t3.tors[0];
        let far_host = *t3.hosts.last().unwrap();
        let h1 = table.ecmp_next(tor, far_host, 1).unwrap();
        let h1b = table.ecmp_next(tor, far_host, 1).unwrap();
        assert_eq!(h1, h1b);
        let hops = table.next_hops(tor, far_host);
        assert!(!hops.is_empty() && hops.len() <= 2);
    }

    #[test]
    fn path_len_matches_a_path() {
        let t3 = three_tier(3, 2, 2, 2, 10.0, 40.0);
        let table = RouteTable::all_shortest_paths(&t3.net);
        for &a in t3.hosts.iter().take(4) {
            for &b in t3.hosts.iter().rev().take(4) {
                if a == b {
                    continue;
                }
                let p = table.a_path(a, b).unwrap();
                assert_eq!(p.len() - 1, table.path_len(a, b).unwrap());
            }
        }
    }

    #[test]
    fn degraded_table_detours_around_a_cut_link() {
        // Cut the direct S0↔S3 channel of the prototype mesh: ECMP must
        // fall back to the two-hop detours through S1/S2 (§3.5).
        let p = prototype_quartz();
        let cut = p.net.link_between(p.switches[0], p.switches[3]).unwrap();
        let t = RouteTable::degraded(&p.net, |l| l == cut, |_| false);
        assert_eq!(t.path_len(p.switches[0], p.switches[3]), Some(2));
        let hops = t.next_hops(p.switches[0], p.switches[3]);
        assert_eq!(hops.len(), 2, "{hops:?}");
        assert!(!hops.contains(&p.switches[3]));
        // Untouched pairs keep their direct hop.
        assert_eq!(t.next_hops(p.switches[0], p.switches[1]), &[p.switches[1]]);
    }

    #[test]
    fn degraded_table_excludes_a_dead_switch() {
        let p = prototype_quartz();
        let dead = p.switches[2];
        let t = RouteTable::degraded(&p.net, |_| false, |n| n == dead);
        // No route enters, leaves, or targets the dead switch.
        for &s in &p.switches {
            if s != dead {
                assert_eq!(t.path_len(s, dead), None);
                assert!(!t.next_hops(s, p.hosts[0]).contains(&dead));
            }
        }
        // Its hosts are cut off; everyone else still talks.
        let orphan = p.hosts[4]; // hosts 4,5 hang off switch 2
        assert_eq!(t.path_len(p.hosts[0], orphan), None);
        assert_eq!(t.path_len(p.hosts[0], p.hosts[7]), Some(3));
    }

    #[test]
    fn unreachable_is_none() {
        let mut net = Network::new();
        let a = net.add_host(None);
        let b = net.add_host(None);
        let t = RouteTable::all_shortest_paths(&net);
        assert_eq!(t.path_len(a, b), None);
        assert_eq!(t.ecmp_next(a, b, 0), None);
    }

    #[test]
    fn spanning_tree_uses_single_paths() {
        let p = prototype_quartz();
        // Root the tree at S1: S2↔S3 traffic must detour via S1 even
        // though a direct mesh link exists.
        let t = RouteTable::spanning_tree(&p.net, p.switches[0]);
        let path = t.a_path(p.switches[1], p.switches[2]).unwrap();
        assert!(path.contains(&p.switches[0]), "path {path:?} skips root");
        // Every pair still reachable.
        for &a in &p.hosts {
            for &b in &p.hosts {
                if a != b {
                    assert!(t.path_len(a, b).is_some());
                }
            }
        }
    }

    #[test]
    fn spanning_tree_stretches_mesh_paths() {
        // On the Quartz mesh, STP forfeits the direct links: §3.4's
        // argument for ECMP over plain Ethernet.
        let p = prototype_quartz();
        let ecmp = RouteTable::all_shortest_paths(&p.net);
        let stp = RouteTable::spanning_tree(&p.net, p.switches[0]);
        let mut longer = 0;
        for &a in &p.hosts {
            for &b in &p.hosts {
                if a == b {
                    continue;
                }
                let e = ecmp.path_len(a, b).unwrap();
                let s = stp.path_len(a, b).unwrap();
                assert!(s >= e);
                if s > e {
                    longer += 1;
                }
            }
        }
        assert!(longer > 0, "expected some stretched STP paths");
    }

    #[test]
    fn flat_routes_agree_with_the_table() {
        let t3 = three_tier(3, 2, 2, 2, 10.0, 40.0);
        let table = RouteTable::all_shortest_paths(&t3.net);
        let flat = FlatRoutes::new(&table, &t3.net);
        assert_eq!(flat.node_count(), table.node_count());
        let n = t3.net.node_count() as u32;
        for a in 0..n {
            for b in 0..n {
                let (at, dst) = (NodeId(a), NodeId(b));
                let nested = table.next_hops(at, dst);
                let csr = flat.next_hops(at, dst);
                assert_eq!(nested.len(), csr.len());
                for (i, &(hop, slot)) in csr.iter().enumerate() {
                    assert_eq!(hop, nested[i]);
                    let l = t3.net.link_between(at, hop).unwrap();
                    let dir = u32::from(t3.net.link(l).a != at);
                    assert_eq!(slot, 2 * l.0 + dir);
                }
                for hash in [0u64, 1, 7, u64::MAX] {
                    assert_eq!(
                        flat.ecmp_next(at, dst, hash).map(|(h, _)| h),
                        table.ecmp_next(at, dst, hash)
                    );
                }
            }
        }
    }

    #[test]
    fn degraded_tables_through_leaf_events() {
        // Cut a host access link, then kill the ToR, orphaning every
        // host in its rack, then restore both.
        let t3 = three_tier(2, 2, 2, 2, 10.0, 40.0);
        let (host, peer, far) = (t3.hosts[0], t3.hosts[1], *t3.hosts.last().unwrap());
        let tor = t3.net.host_tor(host).unwrap();
        assert_eq!(
            t3.net.host_tor(peer),
            Some(tor),
            "hosts 0 and 1 share a rack"
        );
        let access = t3.net.link_between(host, tor).unwrap();
        // Cut access link: the host is alone, its rack-mate is not.
        let cut = RouteTable::degraded(&t3.net, |l| l == access, |_| false);
        assert_eq!(cut.path_len(host, host), Some(0));
        assert_eq!(cut.path_len(host, far), None);
        assert_eq!(cut.next_hops(tor, host), &[]);
        assert_eq!(cut.path_len(peer, far), Some(6));
        // Dead ToR: the whole rack is orphaned, whatever its access
        // links do.
        for access_dead in [false, true] {
            let dead = RouteTable::degraded(&t3.net, |l| access_dead && l == access, |x| x == tor);
            for h in [host, peer] {
                assert_eq!(dead.path_len(h, far), None);
                assert_eq!(dead.path_len(far, h), None);
                assert_eq!(dead.next_hops(h, far), &[]);
            }
        }
        // Restored: the host reaches the far side again, through its ToR.
        let restored = RouteTable::degraded(&t3.net, |_| false, |_| false);
        assert_eq!(restored.path_len(host, far), Some(6));
        assert_eq!(restored.next_hops(tor, host), &[host]);
        assert_eq!(restored.next_hops(host, far), &[tor]);
    }

    #[test]
    fn flat_routes_reject_a_table_from_another_fabric() {
        // Same node count, different wiring: host 1 hangs off another
        // switch, so the table's last hop to it names a missing link.
        let wire = |h1_switch: usize| {
            let mut net = Network::new();
            let s = [
                net.add_switch(SwitchRole::TopOfRack, Some(0)),
                net.add_switch(SwitchRole::TopOfRack, Some(1)),
            ];
            let h0 = net.add_host(Some(0));
            let h1 = net.add_host(Some(1));
            net.connect(s[0], s[1], 40.0);
            net.connect(h0, s[0], 10.0);
            net.connect(h1, s[h1_switch], 10.0);
            net
        };
        let (a, b) = (wire(1), wire(0));
        let table = RouteTable::all_shortest_paths(&a);
        assert_eq!(
            FlatRoutes::try_new(&table, &b),
            Err(RouteError::NotAdjacent {
                at: NodeId(3),
                next: NodeId(1),
            })
        );
        assert_eq!(
            FlatRoutes::try_new(&table, &prototype_quartz().net),
            Err(RouteError::NodeCount {
                table: 4,
                network: 12,
            })
        );
        assert!(FlatRoutes::try_new(&table, &a).is_ok());
    }

    #[test]
    fn route_memory_scales_with_switches_not_hosts() {
        // Tripling the hosts per ToR leaves the R×R tables as they are;
        // only the per-node columns grow.
        let small = three_tier(2, 2, 2, 2, 10.0, 40.0).net;
        let large = three_tier(2, 2, 6, 2, 10.0, 40.0).net;
        let bytes = |net: &Network| {
            let t = RouteTable::all_shortest_paths(net);
            let f = FlatRoutes::new(&t, net);
            (t.heap_bytes(), f.heap_bytes())
        };
        let (ts, fs) = bytes(&small);
        let (tl, fl) = bytes(&large);
        let extra = large.node_count() - small.node_count();
        assert!(tl - ts <= extra * 16, "table grew {} bytes", tl - ts);
        assert!(fl - fs <= extra * 32, "flat grew {} bytes", fl - fs);
    }

    #[test]
    fn composite_flat_table_fits_in_a_megabyte() {
        // The §7 composite: each aggregation switch reaches every remote
        // pod through the same 16-wide ring set, stored once per router.
        // Stored once per destination, the sets take 2 933 128 B.
        let net = quartz_in_core(16, 16, 20, 16).net;
        let flat = FlatRoutes::new(&RouteTable::all_shortest_paths(&net), &net);
        assert!(flat.heap_bytes() < 1_000_000, "{} bytes", flat.heap_bytes());
    }

    #[test]
    fn spanning_tree_on_three_tier_never_shortens() {
        let t3 = three_tier(2, 2, 1, 2, 10.0, 40.0);
        let ecmp = RouteTable::all_shortest_paths(&t3.net);
        let stp = RouteTable::spanning_tree(&t3.net, t3.cores[0]);
        for &a in &t3.hosts {
            for &b in &t3.hosts {
                if a != b {
                    assert!(stp.path_len(a, b).unwrap() >= ecmp.path_len(a, b).unwrap());
                }
            }
        }
        let _ = SwitchRole::Core;
    }
}
