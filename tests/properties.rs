//! Property-style tests on the core invariants, spanning crates.
//!
//! These were once `proptest` properties; they are now exhaustive or
//! seeded-random sweeps driven by the in-tree deterministic RNG, so the
//! workspace needs no external dependencies and every failure
//! reproduces exactly.

use quartz::core::channel::bounds::load_lower_bound;
use quartz::core::channel::{all_pairs, greedy, Arc, Direction, Pair};
use quartz::core::fault::FailureModel;
use quartz::core::rng::StdRng;
use quartz::flowsim::waterfill::{is_max_min, max_min_rates, Problem};
use quartz::netsim::transport::{ReceiverState, SendAction, SenderState, TcpVariant};
use quartz::topology::builders::jellyfish;
use quartz::topology::route::RouteTable;

/// The greedy wavelength assignment is valid (complete and
/// conflict-free) for every ring size and starting offset.
#[test]
fn greedy_assignment_always_valid() {
    for m in 2usize..24 {
        for start in 0..m {
            let a = greedy::assign(m, 0, start);
            assert!(a.validate(0).is_ok(), "m={m} start={start}");
            assert_eq!(a.entries().len(), m * (m - 1) / 2);
            assert!(a.channels_used() >= load_lower_bound(m));
        }
    }
}

/// A pair's clockwise and counter-clockwise arcs tile the ring: they
/// are disjoint and jointly cover every fiber link.
#[test]
fn arcs_tile_the_ring() {
    for m in 2usize..40 {
        for x in 0..m {
            for y in (x + 1)..m {
                let p = Pair::new(x, y);
                let cw = Arc::of(p, Direction::Cw, m);
                let ccw = Arc::of(p, Direction::Ccw, m);
                for link in 0..m {
                    assert!(
                        cw.covers(link) != ccw.covers(link),
                        "m={m} pair=({x},{y}) link {link}"
                    );
                }
                assert_eq!(cw.len + ccw.len, m);
            }
        }
    }
}

/// Link loads always sum to the total arc length of the assignment.
#[test]
fn link_loads_conserve_hops() {
    for m in 3usize..16 {
        let a = greedy::assign_best(m, 0);
        let total: usize = a.link_loads().iter().sum();
        let arcs: usize = a
            .entries()
            .iter()
            .map(|(p, d, _)| Arc::of(*p, *d, m).len)
            .sum();
        assert_eq!(total, arcs, "m={m}");
        assert_eq!(a.entries().len(), all_pairs(m).len());
    }
}

/// The water-filling solver always produces a feasible, max-min fair
/// allocation, for randomly generated problems.
#[test]
fn waterfill_is_always_max_min() {
    for case in 0u64..60 {
        let mut rng = StdRng::seed_from_u64(0x57A7 + case);
        let n_links = rng.random_range(3..12);
        let mut p = Problem::default();
        let caps: Vec<f64> = (0..n_links)
            .map(|_| 0.5 + rng.random::<f64>() * 19.5)
            .collect();
        for &c in &caps {
            p.add_link(c);
        }
        let n_flows = rng.random_range(1..30);
        for _ in 0..n_flows {
            let hops = rng.random_range(1..4);
            let mut seen: Vec<(usize, f64)> = Vec::new();
            for _ in 0..hops {
                let l = rng.random_range(0..n_links);
                let w = 0.1 + rng.random::<f64>() * 0.9;
                if !seen.iter().any(|&(m, _)| m == l) {
                    seen.push((l, w));
                }
            }
            p.add_flow(seen);
        }
        let rates = max_min_rates(&p);
        assert!(is_max_min(&p, &rates), "case {case}");
    }
}

/// ECMP next hops strictly reduce distance to the destination on
/// random (Jellyfish) topologies — no routing loops, ever.
#[test]
fn next_hops_strictly_progress() {
    for seed in 0u64..20 {
        let j = jellyfish(10, 3, 2, 10.0, 10.0, seed);
        let t = RouteTable::all_shortest_paths(&j.net);
        for a in j.net.hosts() {
            for b in j.net.hosts() {
                if a == b {
                    continue;
                }
                let d = t.path_len(a, b).unwrap();
                for &nh in t.next_hops(a, b) {
                    assert_eq!(t.path_len(nh, b).unwrap(), d - 1, "seed {seed}");
                }
            }
        }
    }
}

/// Failure-trial invariants hold for random mesh sizes, ring counts,
/// and failure sets: counts are bounded, probabilities live in [0, 1],
/// trials are deterministic, and the severed-pair list agrees with the
/// trial's loss count.
#[test]
fn failure_trial_invariants() {
    for case in 0u64..40 {
        let mut rng = StdRng::seed_from_u64(0xFA17 + case);
        let m = 3 + rng.random_range(0..20);
        let rings = 1 + rng.random_range(0..3);
        let model = FailureModel::new(m, rings);

        let cuts = rng.random_range(1..5);
        let broken: Vec<(usize, usize)> = (0..cuts)
            .map(|_| (rng.random_range(0..rings), rng.random_range(0..m)))
            .collect();

        let t = model.trial(&broken);
        let total = m * (m - 1) / 2;
        assert_eq!(t.total_pairs, total, "case {case}");
        assert!(t.lost_pairs <= total, "case {case}");
        assert_eq!(t, model.trial(&broken), "trial must be deterministic");
        assert_eq!(
            model.severed_pairs(&broken).len(),
            t.lost_pairs,
            "severed-pair list and loss count must agree (case {case})"
        );

        let d = model.trial_detours(&broken);
        assert_eq!(d.outcome, t, "case {case}");
        assert_eq!(d.detour_hops.len(), t.lost_pairs, "case {case}");
        assert!(
            d.detour_hops.iter().flatten().all(|&h| h >= 2),
            "a severed pair's detour takes at least two hops (case {case})"
        );
        if !t.partitioned {
            assert!(
                d.detour_hops.iter().all(Option::is_some),
                "unpartitioned ⇒ every severed pair has a detour (case {case})"
            );
            assert_eq!(
                d.hop_histogram.iter().sum::<usize>(),
                total,
                "histogram covers every pair (case {case})"
            );
        }
        assert!(d.mean_stretch() >= 1.0, "case {case}");

        let report = model.monte_carlo(cuts, 50, 0xBEEF + case);
        assert!(
            (0.0..=1.0).contains(&report.mean_bandwidth_loss),
            "case {case}"
        );
        assert!(
            (0.0..=1.0).contains(&report.partition_probability),
            "case {case}"
        );
        assert!(report.mean_detour_stretch >= 1.0, "case {case}");
        // A trial that shatters the mesh completely has no connected
        // pairs and contributes 0 hops; without partitions the mean must
        // be a real path length.
        assert!(
            report.mean_post_failure_hops >= 1.0 || report.partition_probability > 0.0,
            "case {case}: {report:?}"
        );
        assert!(report.mean_post_failure_hops >= 0.0, "case {case}");
    }
}

/// The transport state machine always completes a transfer over a
/// lossy in-order pipe, for any loss pattern, using only the
/// fast-retransmit and RTO mechanisms.
#[test]
fn transport_completes_under_arbitrary_loss() {
    fn apply(
        acts: &mut Vec<SendAction>,
        wire: &mut std::collections::VecDeque<u64>,
        last_epoch: &mut u64,
    ) {
        for a in acts.drain(..) {
            match a {
                SendAction::SendData { seq } => wire.push_back(seq),
                SendAction::ArmRto { epoch } => *last_epoch = epoch,
                SendAction::Complete => {}
            }
        }
    }

    for case in 0u64..60 {
        let mut rng = StdRng::seed_from_u64(0x10_55 + case);
        let total = 1 + rng.random_range(0..200) as u64;
        let variant = if rng.random::<u64>().is_multiple_of(2) {
            TcpVariant::Dctcp
        } else {
            TcpVariant::Reno
        };
        let loss_bits: Vec<bool> = (0..64).map(|_| rng.random::<f64>() < 0.5).collect();

        let mut s = SenderState::new(variant, total);
        let mut r = ReceiverState::default();
        let mut wire: std::collections::VecDeque<u64> = Default::default();
        let mut last_epoch = 0u64;
        let mut drop_idx = 0usize;
        let mut acts = Vec::new();

        s.pump_into(&mut acts);
        apply(&mut acts, &mut wire, &mut last_epoch);
        let mut guard = 0;
        while !s.is_complete() {
            guard += 1;
            assert!(guard < 50_000, "deadlock under loss (case {case})");
            match wire.pop_front() {
                Some(seq) => {
                    // Drop according to the random pattern (cycled).
                    let dropped = loss_bits[drop_idx % loss_bits.len()];
                    drop_idx += 1;
                    if dropped {
                        continue;
                    }
                    let ack = r.on_data(seq);
                    s.on_ack_into(ack, false, &mut acts);
                    apply(&mut acts, &mut wire, &mut last_epoch);
                }
                None => {
                    // The wire drained without completing: fire the RTO.
                    s.on_rto_into(last_epoch, &mut acts);
                    assert!(
                        !acts.is_empty(),
                        "a live timer must restart a stalled connection (case {case})"
                    );
                    apply(&mut acts, &mut wire, &mut last_epoch);
                }
            }
        }
    }
}
