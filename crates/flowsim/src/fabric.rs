//! Capacity models of the fabrics Figure 10 compares.
//!
//! All capacities are normalized to the server line rate (1.0 = one NIC).
//!
//! * [`QuartzFabric`] — `racks` switches in a full mesh of unit-rate
//!   channels, `hosts_per_rack` servers each. Routing per §3.4: ECMP
//!   (direct channel only) or VLB (fraction `k` sprayed over the
//!   `racks − 2` two-hop detours). Fiber cuts sever channels; the intact
//!   mesh is the case with none severed.
//! * [`OversubscribedFabric`] — a folded-Clos abstraction with an ideal
//!   core: each rack's uplink carries `hosts_per_rack / oversub`. With
//!   `oversub = 1` this is the ideal full-bisection fabric; 2 and 4 give
//!   the paper's ½- and ¼-bisection comparison points.

use crate::waterfill::Problem;
use quartz_core::routing::RoutingPolicy;
use std::collections::{BTreeMap, VecDeque};

/// A demand endpoint: global host index.
pub type Host = usize;

/// How traffic crosses the mesh (§3.4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MeshRouting {
    /// ECMP: the single direct channel only.
    EcmpDirect,
    /// Valiant load balancing with one global detour fraction `k`.
    VlbUniform(f64),
    /// Per-pair adaptive VLB: "the parameter k can be adaptive depending
    /// on the traffic characteristics" — each rack pair detours only the
    /// traffic its direct channel cannot carry
    /// (`k = max(0, 1 − capacity/demand)`), so uncongested pairs pay no
    /// two-hop overhead at all.
    VlbAdaptive,
}

impl From<RoutingPolicy> for MeshRouting {
    fn from(p: RoutingPolicy) -> Self {
        match p {
            RoutingPolicy::EcmpDirect => MeshRouting::EcmpDirect,
            RoutingPolicy::Vlb { indirect_fraction } => MeshRouting::VlbUniform(indirect_fraction),
        }
    }
}

/// Anything that can lower a demand set into a max-min [`Problem`].
pub trait Fabric {
    /// Number of hosts.
    fn hosts(&self) -> usize;

    /// Builds the allocation problem for the given `(src, dst)` demands.
    fn problem(&self, demands: &[(Host, Host)]) -> Problem;

    /// The rack (switch) a host belongs to.
    fn rack_of(&self, h: Host) -> usize;
}

/// The Quartz mesh fabric, intact or with channels severed by fiber
/// cuts.
///
/// Routing mirrors what a converged control plane installs. A pair
/// whose direct channel survives follows the policy, detouring only over
/// intermediates whose **both** channel legs survive (with no such
/// intermediate, all its traffic goes direct). A pair whose direct
/// channel is severed spreads its traffic over the surviving two-hop
/// detours or, if every intermediate lost a leg, one shortest multi-hop
/// rack path. Pairs in different connected components are
/// **unroutable**: their demands are omitted from the allocation
/// problem, and [`crate::throughput::normalized_throughput`] counts the
/// omission against the fabric because the NIC-only ideal reference
/// still includes them.
#[derive(Clone, Debug)]
pub struct QuartzFabric {
    /// Switches in the ring (racks).
    pub racks: usize,
    /// Servers per switch.
    pub hosts_per_rack: usize,
    /// Capacity of each pairwise channel, in server line rates (1.0 for
    /// the paper's 10 G channels and 10 G NICs).
    pub channel_cap: f64,
    /// Routing policy (§3.4).
    pub policy: MeshRouting,
    /// Severed channels as undirected rack pairs, empty for the intact
    /// mesh. [`quartz_core::fault::FailureModel::severed_pairs`] gives
    /// the channels a set of broken fiber segments severs.
    pub severed: Vec<(usize, usize)>,
}

impl QuartzFabric {
    /// The paper's flagship mesh: 33 racks × 32 servers, unit channels,
    /// intact.
    pub fn paper(policy: impl Into<MeshRouting>) -> Self {
        QuartzFabric {
            racks: 33,
            hosts_per_rack: 32,
            channel_cap: 1.0,
            policy: policy.into(),
            severed: Vec::new(),
        }
    }

    /// Directed channel link index for `a → b` within the problem's link
    /// table (after the 2·hosts host links).
    fn chan(&self, a: usize, b: usize) -> usize {
        debug_assert!(a != b);
        2 * self.hosts() + a * self.racks + b
    }

    /// Whether racks `a` and `b` can still reach each other over the
    /// surviving channels (possibly multi-hop).
    pub fn connected(&self, a: usize, b: usize) -> bool {
        let mesh = Survivors::new(self);
        mesh.comp[a] == mesh.comp[b]
    }

    /// The detour fraction `k` of the live channel `ra → rb` under the
    /// policy, and the intermediates to spread it over, chosen among the
    /// surviving two-hop `detours`.
    fn split(
        &self,
        ra: usize,
        rb: usize,
        detours: Vec<usize>,
        pair_flows: &BTreeMap<(usize, usize), usize>,
    ) -> (f64, Vec<usize>) {
        if detours.is_empty() {
            return (0.0, detours);
        }
        match self.policy {
            MeshRouting::EcmpDirect => (0.0, detours),
            MeshRouting::VlbUniform(k) => (k, detours),
            MeshRouting::VlbAdaptive => {
                // Detour only the traffic the direct channel cannot
                // carry if every sharer sent at line rate, and spread it
                // only over intermediates whose two channel legs are not
                // already claimed by direct traffic (an adaptive VLB
                // would never spill onto someone else's saturated
                // channel).
                let j = pair_flows[&(ra, rb)] as f64;
                let k = (1.0 - self.channel_cap / j).max(0.0);
                let direct_load =
                    |x: usize, y: usize| *pair_flows.get(&(x, y)).unwrap_or(&0) as f64;
                let free: Vec<usize> = detours
                    .iter()
                    .copied()
                    .filter(|&w| {
                        direct_load(ra, w) < self.channel_cap
                            && direct_load(w, rb) < self.channel_cap
                    })
                    .collect();
                (k, if free.is_empty() { detours } else { free })
            }
        }
    }

    /// Appends the two-hop legs `ra → w → rb` for each `w` in `via`,
    /// sharing fraction `k` of the flow evenly between them.
    fn spread(&self, path: &mut Vec<(usize, f64)>, ra: usize, rb: usize, k: f64, via: &[usize]) {
        if k > 0.0 {
            let share = k / via.len() as f64;
            for &w in via {
                path.push((self.chan(ra, w), share));
                path.push((self.chan(w, rb), share));
            }
        }
    }
}

/// The surviving channel graph of a [`QuartzFabric`].
struct Survivors {
    racks: usize,
    /// `alive[a * racks + b]`: the channel `a ↔ b` survives.
    alive: Vec<bool>,
    /// Connected component of each rack over surviving channels.
    comp: Vec<usize>,
}

impl Survivors {
    /// The channels of `f` its `severed` list leaves alive.
    ///
    /// # Panics
    /// Panics if a severed pair names a rack out of range or is a
    /// self-pair.
    fn new(f: &QuartzFabric) -> Self {
        let racks = f.racks;
        let mut alive = vec![true; racks * racks];
        for &(a, b) in &f.severed {
            assert!(a != b && a < racks && b < racks, "bad pair ({a},{b})");
            alive[a * racks + b] = false;
            alive[b * racks + a] = false;
        }
        let mut comp = vec![usize::MAX; racks];
        let mut next = 0;
        for start in 0..racks {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = next;
            let mut queue = VecDeque::from([start]);
            while let Some(r) = queue.pop_front() {
                for (w, c) in comp.iter_mut().enumerate() {
                    if w != r && *c == usize::MAX && alive[r * racks + w] {
                        *c = next;
                        queue.push_back(w);
                    }
                }
            }
            next += 1;
        }
        Survivors { racks, alive, comp }
    }

    fn alive(&self, a: usize, b: usize) -> bool {
        self.alive[a * self.racks + b]
    }

    /// Shortest surviving rack path `from → … → to` (BFS, deterministic
    /// tie-break by rack index). Both racks must be connected.
    fn rack_path(&self, from: usize, to: usize) -> Vec<usize> {
        let mut prev = vec![usize::MAX; self.racks];
        prev[from] = from;
        let mut queue = VecDeque::from([from]);
        while let Some(r) = queue.pop_front() {
            if r == to {
                break;
            }
            for (w, p) in prev.iter_mut().enumerate() {
                if w != r && *p == usize::MAX && self.alive(r, w) {
                    *p = r;
                    queue.push_back(w);
                }
            }
        }
        let mut path = vec![to];
        while *path.last().expect("non-empty") != from {
            path.push(prev[*path.last().expect("non-empty")]);
        }
        path.reverse();
        path
    }
}

impl Fabric for QuartzFabric {
    fn hosts(&self) -> usize {
        self.racks * self.hosts_per_rack
    }

    fn rack_of(&self, h: Host) -> usize {
        h / self.hosts_per_rack
    }

    fn problem(&self, demands: &[(Host, Host)]) -> Problem {
        let mesh = Survivors::new(self);
        let mut p = Problem::default();
        let nh = self.hosts();
        // Links 0..nh: host uplinks; nh..2nh: host downlinks.
        for _ in 0..2 * nh {
            p.add_link(1.0);
        }
        // Directed channels, racks × racks (self-entries and severed
        // channels unused but allocated for O(1) indexing).
        for _ in 0..self.racks * self.racks {
            p.add_link(self.channel_cap);
        }

        // For adaptive VLB: how many cross-rack flows share each ordered
        // rack pair — the "traffic characteristics" k adapts to.
        let mut pair_flows: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        if self.policy == MeshRouting::VlbAdaptive {
            for &(s, d) in demands {
                let (ra, rb) = (self.rack_of(s), self.rack_of(d));
                if ra != rb {
                    *pair_flows.entry((ra, rb)).or_insert(0) += 1;
                }
            }
        }

        for &(s, d) in demands {
            assert!(s < nh && d < nh && s != d, "bad demand ({s},{d})");
            let (ra, rb) = (self.rack_of(s), self.rack_of(d));
            let mut path = vec![(s, 1.0), (nh + d, 1.0)];
            if ra != rb {
                if mesh.comp[ra] != mesh.comp[rb] {
                    // Unroutable: omit the flow (see the type docs).
                    continue;
                }
                let detours: Vec<usize> = (0..self.racks)
                    .filter(|&w| w != ra && w != rb && mesh.alive(ra, w) && mesh.alive(w, rb))
                    .collect();
                if mesh.alive(ra, rb) {
                    let (k, via) = self.split(ra, rb, detours, &pair_flows);
                    if 1.0 - k > 0.0 {
                        path.push((self.chan(ra, rb), 1.0 - k));
                    }
                    self.spread(&mut path, ra, rb, k, &via);
                } else if !detours.is_empty() {
                    self.spread(&mut path, ra, rb, 1.0, &detours);
                } else {
                    for leg in mesh.rack_path(ra, rb).windows(2) {
                        path.push((self.chan(leg[0], leg[1]), 1.0));
                    }
                }
            }
            p.add_flow(path);
        }
        p
    }
}

/// A folded-Clos fabric with an ideal core and configurable rack-uplink
/// oversubscription.
#[derive(Clone, Debug)]
pub struct OversubscribedFabric {
    /// Racks.
    pub racks: usize,
    /// Servers per rack.
    pub hosts_per_rack: usize,
    /// Oversubscription factor: 1.0 = full bisection, 2.0 = ½, 4.0 = ¼.
    pub oversub: f64,
}

impl OversubscribedFabric {
    /// Full-bisection ideal network at the paper's mesh scale.
    pub fn ideal(racks: usize, hosts_per_rack: usize) -> Self {
        OversubscribedFabric {
            racks,
            hosts_per_rack,
            oversub: 1.0,
        }
    }
}

impl Fabric for OversubscribedFabric {
    fn hosts(&self) -> usize {
        self.racks * self.hosts_per_rack
    }

    fn rack_of(&self, h: Host) -> usize {
        h / self.hosts_per_rack
    }

    fn problem(&self, demands: &[(Host, Host)]) -> Problem {
        let mut p = Problem::default();
        let nh = self.hosts();
        for _ in 0..2 * nh {
            p.add_link(1.0);
        }
        let up_cap = (self.hosts_per_rack as f64 / self.oversub).max(1e-9);
        // racks × (uplink, downlink).
        for _ in 0..2 * self.racks {
            p.add_link(up_cap);
        }
        let rack_up = |r: usize| 2 * nh + 2 * r;
        let rack_down = |r: usize| 2 * nh + 2 * r + 1;

        for &(s, d) in demands {
            assert!(s < nh && d < nh && s != d, "bad demand ({s},{d})");
            let (ra, rb) = (self.rack_of(s), self.rack_of(d));
            let mut path = vec![(s, 1.0), (nh + d, 1.0)];
            if ra != rb {
                path.push((rack_up(ra), 1.0));
                path.push((rack_down(rb), 1.0));
            }
            p.add_flow(path);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::normalized_throughput;
    use crate::waterfill::max_min_rates;

    #[test]
    fn quartz_direct_channel_is_shared() {
        // 4 racks × 2 hosts; both hosts of rack 0 send to rack 1: the
        // unit channel splits 0.5/0.5 under ECMP.
        let f = QuartzFabric {
            racks: 4,
            hosts_per_rack: 2,
            channel_cap: 1.0,
            policy: RoutingPolicy::EcmpDirect.into(),
            severed: Vec::new(),
        };
        let demands = vec![(0, 2), (1, 3)];
        let r = max_min_rates(&f.problem(&demands));
        assert_eq!(r, vec![0.5, 0.5]);
    }

    #[test]
    fn vlb_unlocks_detour_capacity() {
        // Same demand with VLB k = 2/3: direct carries 1/3, each of the
        // two detours 1/3 → per-flow rate can reach 1.0 (host limited).
        let f = QuartzFabric {
            racks: 4,
            hosts_per_rack: 2,
            channel_cap: 1.0,
            policy: RoutingPolicy::vlb(2.0 / 3.0).into(),
            severed: Vec::new(),
        };
        let demands = vec![(0, 2), (1, 3)];
        let r = max_min_rates(&f.problem(&demands));
        for x in &r {
            assert!(*x > 0.99, "{r:?}");
        }
    }

    #[test]
    fn same_rack_traffic_skips_channels() {
        let f = QuartzFabric {
            racks: 3,
            hosts_per_rack: 2,
            channel_cap: 0.01, // tiny channels must not matter
            policy: RoutingPolicy::EcmpDirect.into(),
            severed: Vec::new(),
        };
        let r = max_min_rates(&f.problem(&[(0, 1)]));
        assert_eq!(r, vec![1.0]);
    }

    #[test]
    fn ideal_fabric_gives_line_rate_permutation() {
        let f = OversubscribedFabric::ideal(4, 4);
        // A perfect cross-rack permutation.
        let demands: Vec<_> = (0..16).map(|h| (h, (h + 4) % 16)).collect();
        let r = max_min_rates(&f.problem(&demands));
        for x in &r {
            assert!((x - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn oversubscription_caps_cross_rack_rate() {
        // 4:1 oversubscription: 4 hosts share a 1-host-rate uplink.
        let f = OversubscribedFabric {
            racks: 2,
            hosts_per_rack: 4,
            oversub: 4.0,
        };
        let demands: Vec<_> = (0..4).map(|h| (h, h + 4)).collect();
        let r = max_min_rates(&f.problem(&demands));
        for x in &r {
            assert!((x - 0.25).abs() < 1e-9, "{r:?}");
        }
    }

    fn mesh(
        racks: usize,
        hpr: usize,
        policy: MeshRouting,
        severed: &[(usize, usize)],
    ) -> QuartzFabric {
        QuartzFabric {
            racks,
            hosts_per_rack: hpr,
            channel_cap: 1.0,
            policy,
            severed: severed.to_vec(),
        }
    }

    /// Per-link load of an allocation: Σ rate × weight over the flows.
    fn link_loads(p: &Problem, rates: &[f64]) -> Vec<f64> {
        let mut load = vec![0.0; p.caps.len()];
        for (flow, rate) in p.flows.iter().zip(rates) {
            for &(l, w) in flow {
                load[l] += rate * w;
            }
        }
        load
    }

    #[test]
    fn two_racks_under_vlb_send_everything_direct() {
        // With no intermediate rack there is nowhere to detour: both
        // rack-0 → rack-1 flows share the one channel, 0.5 each.
        for policy in [MeshRouting::VlbUniform(0.5), MeshRouting::VlbAdaptive] {
            let f = mesh(2, 2, policy, &[]);
            let p = f.problem(&[(0, 2), (1, 3)]);
            assert_eq!(max_min_rates(&p), vec![0.5, 0.5], "{policy:?}");
        }
    }

    #[test]
    fn no_channel_carries_more_than_its_capacity() {
        use crate::matrix::{incast, rack_shuffle, random_permutation};
        for racks in 2..=4 {
            for hpr in [1usize, 2, 4] {
                let hosts = racks * hpr;
                for policy in [
                    MeshRouting::EcmpDirect,
                    MeshRouting::VlbUniform(0.5),
                    MeshRouting::VlbAdaptive,
                ] {
                    let f = mesh(racks, hpr, policy, &[]);
                    for seed in 0..4 {
                        let mut sets = vec![random_permutation(hosts, seed)];
                        if hosts > 1 {
                            sets.push(incast(hosts, (hosts - 1).min(10), seed));
                        }
                        sets.push(rack_shuffle(racks, hpr, racks - 1, seed));
                        for demands in sets {
                            let p = f.problem(&demands);
                            let rates = max_min_rates(&p);
                            for (l, (load, cap)) in
                                link_loads(&p, &rates).iter().zip(&p.caps).enumerate()
                            {
                                assert!(
                                    *load <= cap + 1e-9,
                                    "racks={racks} hpr={hpr} {policy:?} seed={seed}: link {l} carries {load} > {cap}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn severed_pair_detours_over_two_hops() {
        // 4 racks × 1 host; cut channel 0↔1. The 0→1 demand spreads over
        // racks 2 and 3 and still reaches full line rate (nothing else
        // competes for those legs).
        let f = mesh(4, 1, MeshRouting::EcmpDirect, &[(0, 1)]);
        assert!(f.connected(0, 1));
        let r = max_min_rates(&f.problem(&[(0, 1)]));
        assert_eq!(r.len(), 1);
        assert!(r[0] > 0.99, "{r:?}");
    }

    #[test]
    fn partitioned_demands_are_omitted() {
        // 3 racks: cutting 0↔1 and 0↔2 isolates rack 0 entirely.
        let f = mesh(3, 2, MeshRouting::EcmpDirect, &[(0, 1), (0, 2)]);
        assert!(!f.connected(0, 1));
        assert!(f.connected(1, 2));
        // Only the routable rack-1↔rack-2 demand enters the problem.
        let demands = vec![(0, 2), (2, 4), (4, 1)];
        let r = max_min_rates(&f.problem(&demands));
        assert_eq!(r.len(), 1);
        // And the normalization charges for the two missing flows.
        let t = normalized_throughput(&f, &demands);
        assert!(t.normalized < 0.5, "{t:?}");
    }

    #[test]
    fn multi_hop_fallback_when_every_intermediate_lost_a_leg() {
        // 5 racks; the cuts leave no intermediate with both legs toward
        // the 0↔1 pair (2 and 3 lost their leg to 1, 4 lost its leg to
        // 0), yet the racks stay connected — the BFS fallback must find
        // the 3-hop detour 0 → 2 → 4 → 1 and the flow still gets full
        // rate.
        let f = mesh(
            5,
            1,
            MeshRouting::EcmpDirect,
            &[(0, 1), (2, 1), (3, 1), (4, 0)],
        );
        assert!(f.connected(0, 1));
        let p = f.problem(&[(0, 1)]);
        let legs: Vec<usize> = p.flows[0][2..].iter().map(|&(l, _)| l).collect();
        assert_eq!(legs, vec![f.chan(0, 2), f.chan(2, 4), f.chan(4, 1)]);
        let r = max_min_rates(&p);
        assert!(r[0] > 0.99, "{r:?}");
    }

    #[test]
    fn cut_throughput_sits_between_zero_and_intact() {
        // A permutation on a 8×4 mesh with VLB: severing three channels
        // costs some throughput but nowhere near all of it.
        let intact = mesh(8, 4, MeshRouting::VlbUniform(0.5), &[]);
        let d = crate::matrix::random_permutation(32, 11);
        let t0 = normalized_throughput(&intact, &d).normalized;
        let f = QuartzFabric {
            severed: vec![(0, 1), (2, 5), (3, 7)],
            ..intact
        };
        let t1 = normalized_throughput(&f, &d).normalized;
        assert!(t1 <= t0 + 1e-9, "cut {t1} vs intact {t0}");
        assert!(t1 > 0.5 * t0, "the mesh degrades gracefully: {t1} vs {t0}");
    }

    #[test]
    fn failure_model_severed_pairs_lose_their_direct_channel() {
        use quartz_core::fault::FailureModel;
        let model = FailureModel::new(9, 1);
        let severed = model.severed_pairs(&[(0, 2)]);
        assert!(!severed.is_empty());
        let f = mesh(9, 1, MeshRouting::EcmpDirect, &severed);
        for &(a, b) in &severed {
            let p = f.problem(&[(a, b)]);
            assert!(
                p.flows[0].iter().all(|&(l, _)| l != f.chan(a, b)),
                "({a},{b})"
            );
            assert!(max_min_rates(&p)[0] > 0.99, "({a},{b})");
        }
    }

    #[test]
    fn rack_of_is_contiguous() {
        let f = QuartzFabric::paper(RoutingPolicy::EcmpDirect);
        assert_eq!(f.hosts(), 1056);
        assert_eq!(f.rack_of(0), 0);
        assert_eq!(f.rack_of(31), 0);
        assert_eq!(f.rack_of(32), 1);
        assert_eq!(f.rack_of(1055), 32);
    }
}
