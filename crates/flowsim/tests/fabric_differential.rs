//! Differential test of the Quartz flow fabric against the two routing
//! models it replaced: the intact mesh (direct channel plus the policy's
//! detour share over every intermediate, adaptive VLB preferring
//! intermediates whose legs carry no direct traffic of their own) and
//! the cut mesh (surviving two-hop detours, a BFS multi-hop fallback,
//! unroutable demands omitted). For each demand set the max-min rates
//! of `QuartzFabric::problem` must be bit-equal to the matching
//! oracle's.

use quartz_core::rng::StdRng;
use quartz_flowsim::fabric::{Fabric, MeshRouting, QuartzFabric};
use quartz_flowsim::matrix::{incast, rack_shuffle, random_permutation};
use quartz_flowsim::waterfill::{max_min_rates, Problem};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Host links, then `racks × racks` directed channels at `cap`.
fn links(f: &QuartzFabric) -> Problem {
    let mut p = Problem::default();
    for _ in 0..2 * f.hosts() {
        p.add_link(1.0);
    }
    for _ in 0..f.racks * f.racks {
        p.add_link(f.channel_cap);
    }
    p
}

fn chan(f: &QuartzFabric, a: usize, b: usize) -> usize {
    2 * f.hosts() + a * f.racks + b
}

/// Cross-rack flows per ordered rack pair.
fn pair_flows(f: &QuartzFabric, demands: &[(usize, usize)]) -> BTreeMap<(usize, usize), usize> {
    let mut pair_flows = BTreeMap::new();
    for &(s, d) in demands {
        let (ra, rb) = (f.rack_of(s), f.rack_of(d));
        if ra != rb {
            *pair_flows.entry((ra, rb)).or_insert(0) += 1;
        }
    }
    pair_flows
}

/// The intact-mesh model (no severed channels).
fn intact_oracle(f: &QuartzFabric, demands: &[(usize, usize)]) -> Problem {
    let mut p = links(f);
    let nh = f.hosts();
    let pair_flows = pair_flows(f, demands);
    for &(s, d) in demands {
        let (ra, rb) = (f.rack_of(s), f.rack_of(d));
        let mut path = vec![(s, 1.0), (nh + d, 1.0)];
        if ra != rb {
            let (k, intermediates): (f64, Vec<usize>) = match f.policy {
                MeshRouting::EcmpDirect => (0.0, Vec::new()),
                MeshRouting::VlbUniform(k) => {
                    (k, (0..f.racks).filter(|&w| w != ra && w != rb).collect())
                }
                MeshRouting::VlbAdaptive => {
                    let j = pair_flows[&(ra, rb)] as f64;
                    let k = (1.0 - f.channel_cap / j).max(0.0);
                    if k == 0.0 {
                        (0.0, Vec::new())
                    } else {
                        let direct_load =
                            |x: usize, y: usize| *pair_flows.get(&(x, y)).unwrap_or(&0) as f64;
                        let free: Vec<usize> = (0..f.racks)
                            .filter(|&w| {
                                w != ra
                                    && w != rb
                                    && direct_load(ra, w) < f.channel_cap
                                    && direct_load(w, rb) < f.channel_cap
                            })
                            .collect();
                        if free.is_empty() {
                            (k, (0..f.racks).filter(|&w| w != ra && w != rb).collect())
                        } else {
                            (k, free)
                        }
                    }
                }
            };
            let direct = 1.0 - k;
            if direct > 0.0 {
                path.push((chan(f, ra, rb), direct));
            }
            if k > 0.0 && !intermediates.is_empty() {
                let share = k / intermediates.len() as f64;
                for w in intermediates {
                    path.push((chan(f, ra, w), share));
                    path.push((chan(f, w, rb), share));
                }
            }
        }
        p.add_flow(path);
    }
    p
}

/// The cut-mesh model over `f.severed`.
fn cut_oracle(f: &QuartzFabric, demands: &[(usize, usize)]) -> Problem {
    let r = f.racks;
    let mut dead = BTreeSet::new();
    for &(a, b) in &f.severed {
        dead.insert((a, b));
        dead.insert((b, a));
    }
    let alive = |a: usize, b: usize| !dead.contains(&(a, b));
    let mut comp = vec![usize::MAX; r];
    let mut next = 0;
    for start in 0..r {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = next;
        let mut queue = VecDeque::from([start]);
        while let Some(x) = queue.pop_front() {
            for (w, c) in comp.iter_mut().enumerate() {
                if w != x && *c == usize::MAX && alive(x, w) {
                    *c = next;
                    queue.push_back(w);
                }
            }
        }
        next += 1;
    }
    let rack_path = |from: usize, to: usize| {
        let mut prev = vec![usize::MAX; r];
        prev[from] = from;
        let mut queue = VecDeque::from([from]);
        while let Some(x) = queue.pop_front() {
            if x == to {
                break;
            }
            for (w, p) in prev.iter_mut().enumerate() {
                if w != x && *p == usize::MAX && alive(x, w) {
                    *p = x;
                    queue.push_back(w);
                }
            }
        }
        let mut path = vec![to];
        while *path.last().unwrap() != from {
            path.push(prev[*path.last().unwrap()]);
        }
        path.reverse();
        path
    };

    let mut p = links(f);
    let nh = f.hosts();
    let pair_flows = pair_flows(f, demands);
    for &(s, d) in demands {
        let (ra, rb) = (f.rack_of(s), f.rack_of(d));
        let mut path = vec![(s, 1.0), (nh + d, 1.0)];
        if ra != rb {
            if comp[ra] != comp[rb] {
                continue;
            }
            let survivors: Vec<usize> = (0..r)
                .filter(|&w| w != ra && w != rb && alive(ra, w) && alive(w, rb))
                .collect();
            if alive(ra, rb) {
                let k = match f.policy {
                    MeshRouting::EcmpDirect => 0.0,
                    MeshRouting::VlbUniform(k) => k,
                    MeshRouting::VlbAdaptive => {
                        let j = pair_flows[&(ra, rb)] as f64;
                        (1.0 - f.channel_cap / j).max(0.0)
                    }
                };
                let k = if survivors.is_empty() { 0.0 } else { k };
                if 1.0 - k > 0.0 {
                    path.push((chan(f, ra, rb), 1.0 - k));
                }
                if k > 0.0 {
                    let share = k / survivors.len() as f64;
                    for w in survivors {
                        path.push((chan(f, ra, w), share));
                        path.push((chan(f, w, rb), share));
                    }
                }
            } else if !survivors.is_empty() {
                let share = 1.0 / survivors.len() as f64;
                for w in survivors {
                    path.push((chan(f, ra, w), share));
                    path.push((chan(f, w, rb), share));
                }
            } else {
                for leg in rack_path(ra, rb).windows(2) {
                    path.push((chan(f, leg[0], leg[1]), 1.0));
                }
            }
        }
        p.add_flow(path);
    }
    p
}

/// Seeded permutation, incast and shuffle demand sets over `f`.
fn demand_sets(f: &QuartzFabric, seed: u64) -> Vec<Vec<(usize, usize)>> {
    let hosts = f.hosts();
    vec![
        random_permutation(hosts, seed),
        incast(hosts, (hosts - 1).min(10), seed),
        rack_shuffle(f.racks, f.hosts_per_rack, (f.racks - 1).min(3), seed),
    ]
}

fn assert_bit_equal(label: &str, got: &Problem, want: &Problem) {
    let bits = |p: &Problem| -> Vec<u64> { max_min_rates(p).iter().map(|r| r.to_bits()).collect() };
    assert_eq!(bits(got), bits(want), "{label}");
}

const POLICIES: [MeshRouting; 3] = [
    MeshRouting::EcmpDirect,
    MeshRouting::VlbUniform(0.5),
    MeshRouting::VlbAdaptive,
];

fn mesh(racks: usize, hosts_per_rack: usize, policy: MeshRouting) -> QuartzFabric {
    QuartzFabric {
        racks,
        hosts_per_rack,
        channel_cap: 1.0,
        policy,
        severed: Vec::new(),
    }
}

#[test]
fn intact_mesh_matches_the_intact_oracle() {
    for racks in 3..=12 {
        for hpr in [1usize, 2, 4] {
            for policy in POLICIES {
                let f = mesh(racks, hpr, policy);
                for seed in 0..4 {
                    for (i, d) in demand_sets(&f, seed).iter().enumerate() {
                        let label =
                            format!("racks={racks} hpr={hpr} {policy:?} seed={seed} set={i}");
                        assert_bit_equal(&label, &f.problem(d), &intact_oracle(&f, d));
                    }
                }
            }
        }
    }
}

#[test]
fn cut_mesh_matches_the_cut_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC075);
    for racks in 3..=12 {
        for hpr in [1usize, 2, 4] {
            for policy in [MeshRouting::EcmpDirect, MeshRouting::VlbUniform(0.5)] {
                for seed in 0..4 {
                    // From a single cut up to enough to partition the mesh.
                    let cuts = 1 + rng.random_range(0..racks * (racks - 1) / 2);
                    let severed: Vec<(usize, usize)> = (0..cuts)
                        .map(|_| {
                            let a = rng.random_range(0..racks);
                            let b = (a + 1 + rng.random_range(0..racks - 1)) % racks;
                            (a, b)
                        })
                        .collect();
                    let f = QuartzFabric {
                        severed,
                        ..mesh(racks, hpr, policy)
                    };
                    for (i, d) in demand_sets(&f, seed).iter().enumerate() {
                        let label = format!(
                            "racks={racks} hpr={hpr} {policy:?} seed={seed} set={i} cut={:?}",
                            f.severed
                        );
                        assert_bit_equal(&label, &f.problem(d), &cut_oracle(&f, d));
                    }
                }
            }
        }
    }
}
