//! Shape tests for every reproduced table and figure: each experiment is
//! run at `Quick` scale and its qualitative conclusions — who wins, in
//! what order, where the knees are — are asserted. These are the claims
//! EXPERIMENTS.md records; a regression here means the reproduction no
//! longer tells the paper's story.

use quartz_bench::experiments::*;
use quartz_bench::Scale;
use quartz_core::ThreadPool;

#[test]
fn fig01_cost_declines_exponentially() {
    let rows = fig01::run(Scale::Quick, &ThreadPool::default());
    assert!(rows.len() >= 5);
    assert!(rows.first().unwrap().2 / rows.last().unwrap().2 >= 1_000.0);
}

#[test]
fn table02_standard_vs_state_of_art() {
    let rows = table02::run(Scale::Quick, &ThreadPool::default());
    // Every component except congestion improves by at least 4x.
    for (name, std, soa) in &rows[..3] {
        assert!(
            *std >= 4 * *soa,
            "{name}: {std} vs {soa} — state of the art must win"
        );
    }
}

#[test]
fn fig05_greedy_tracks_optimal() {
    let rows = fig05::run(Scale::Quick, &ThreadPool::default());
    for r in &rows {
        assert!(r.greedy >= r.lower_bound, "m={}", r.m);
        if let Some(opt) = r.optimal {
            assert!(r.greedy >= opt && opt >= r.lower_bound, "m={}", r.m);
            // "nearly as well as the optimal solution": within 25 %.
            assert!(
                r.greedy as f64 <= opt as f64 * 1.25,
                "m={}: greedy {} vs optimal {opt}",
                r.m,
                r.greedy
            );
        }
    }
}

#[test]
fn fig06_more_rings_help() {
    let grid = fig06::run(Scale::Quick, &ThreadPool::default(), false).grid;
    // Bandwidth loss falls with ring count (column-wise).
    #[allow(clippy::needless_range_loop)] // f and r index a 2-D grid
    for f in 0..4 {
        for r in 1..4 {
            assert!(
                grid[r][f].mean_bandwidth_loss < grid[r - 1][f].mean_bandwidth_loss,
                "rings {} vs {} at {} failures",
                r + 1,
                r,
                f + 1
            );
        }
    }
    // One ring partitions with ≥ 2 failures; two rings almost never do.
    assert!(grid[0][1].partition_probability > 0.9);
    assert!(grid[1][3].partition_probability < 0.05);
}

#[test]
fn table08_structure() {
    let rows = table08::run(Scale::Quick, &ThreadPool::default());
    assert_eq!(rows.len(), 6);
    for r in &rows {
        assert!(r.latency_reduction > 0.0);
        // Quartz never more than ~25 % premium, sometimes free.
        let premium = r.quartz_cost / r.baseline_cost - 1.0;
        assert!(premium < 0.25, "{premium}");
    }
}

#[test]
fn table09_orderings() {
    let rows = table09::run(Scale::Quick, &ThreadPool::default());
    let find = |name: &str| rows.iter().find(|r| r.name.contains(name)).unwrap().clone();
    let mesh = find("Mesh");
    let tree = find("2-Tier");
    let bcube = find("BCube");
    // Mesh: fewest switch hops, most diversity; BCube pays server hops.
    assert_eq!(mesh.hops.switch_hops, 2);
    assert!(mesh.latency_us < tree.latency_us);
    assert!(bcube.latency_us > 10.0);
    assert!(mesh.path_diversity > tree.path_diversity);
    assert!(mesh.wiring_with_wdm.unwrap() < mesh.wiring);
}

#[test]
fn fig10_quartz_between_half_and_full() {
    for r in fig10::run(Scale::Quick, &ThreadPool::default()) {
        assert!(r.quartz <= r.full + 1e-9, "{}", r.pattern);
        assert!(
            r.quartz > r.quarter,
            "{}: quartz {} vs quarter {}",
            r.pattern,
            r.quartz,
            r.quarter
        );
        assert!(r.half >= r.quarter, "{}", r.pattern);
    }
}

#[test]
fn fig14_tree_degrades_quartz_does_not() {
    let pts = fig14::run(Scale::Quick, &ThreadPool::default());
    let last = pts.last().unwrap();
    assert!(last.cross_mbps >= 200.0 - 1e-9);
    assert!(
        last.tree > 1.15,
        "tree should degrade under cross-traffic: {}",
        last.tree
    );
    assert!(
        last.quartz < 1.05,
        "quartz should be (nearly) unaffected: {}",
        last.quartz
    );
    assert!(last.tree > last.quartz);
}

#[test]
fn table16_constants() {
    let specs = table16::run(Scale::Quick, &ThreadPool::default());
    assert_eq!(specs.len(), 2);
    assert!(specs[0].latency_ns > 10 * specs[1].latency_ns);
}

#[test]
fn fig17_three_tier_worst_quartz_best() {
    let panels = fig17::run(Scale::Quick, &ThreadPool::default());
    for (w, panel) in panels {
        let latency_of = |arch: fig17::Arch| {
            panel
                .iter()
                .find(|(a, _)| *a == arch)
                .unwrap()
                .1
                .last()
                .unwrap()
                .1
        };
        let tree = latency_of(fig17::Arch::ThreeTier);
        let both = latency_of(fig17::Arch::QuartzInEdgeAndCore);
        let core = latency_of(fig17::Arch::QuartzInCore);
        assert!(
            both < 0.5 * tree,
            "{:?}: edge+core {both:.2} should halve tree {tree:.2}",
            w
        );
        assert!(core < tree, "{w:?}: core swap must help");
    }
}

#[test]
fn fig18_quartz_locality_beats_jellyfish() {
    let panels = fig18::run(Scale::Quick, &ThreadPool::default());
    for (w, panel) in panels {
        let latency_of = |arch: fig17::Arch| {
            panel
                .iter()
                .find(|(a, _)| *a == arch)
                .unwrap()
                .1
                .last()
                .unwrap()
                .1
        };
        let jf = latency_of(fig17::Arch::Jellyfish);
        let qjf = latency_of(fig17::Arch::QuartzInJellyfish);
        let qec = latency_of(fig17::Arch::QuartzInEdgeAndCore);
        // Quartz keeps the local task inside its ring: at or below the
        // random graph that cannot exploit locality.
        assert!(
            qjf <= jf * 1.35 && qec <= jf * 1.35,
            "{w:?}: quartz local {qjf:.2}/{qec:.2} vs jellyfish {jf:.2}"
        );
    }
}

#[test]
fn fig20_ecmp_saturates_vlb_does_not() {
    let pts = fig20::run(Scale::Quick, &ThreadPool::default());
    let designs = fig20::designs();
    let at = |gbps: f64, d: fig20::Design| {
        let p = pts.iter().find(|p| (p.gbps - gbps).abs() < 1e-9).unwrap();
        let i = designs.iter().position(|&x| x == d).unwrap();
        p.results[i]
    };
    use fig20::Design::*;
    // Below saturation everything is fine; the non-blocking switch pays
    // its store-and-forward 6 µs.
    let (nb10, _) = at(10.0, NonBlockingSwitch);
    let (ecmp10, _) = at(10.0, QuartzEcmp);
    assert!(nb10 > 6.0 && ecmp10 < 2.0);
    // At 50 Gb/s ECMP's direct 40 G channel is saturated: huge latency
    // and loss. VLB and the non-blocking switch stay flat.
    let (ecmp50, loss50) = at(50.0, QuartzEcmp);
    let (vlb50, vloss) = at(50.0, QuartzVlb);
    let (nb50, _) = at(50.0, NonBlockingSwitch);
    assert!(ecmp50 > 30.0 && loss50 > 0.05, "{ecmp50} {loss50}");
    assert!(vlb50 < 3.0 && vloss < 0.01, "{vlb50} {vloss}");
    assert!((nb50 - nb10).abs() < 1.0);
}

#[test]
fn ext01_topology_beats_protocol() {
    // §2.1.4 quantified: DCTCP halves-or-better the tree's probe tail;
    // the Quartz mesh beats both by an order of magnitude with plain
    // Reno, because no shared queue exists at all.
    let rows = ext01::run(Scale::Quick, &ThreadPool::default());
    let find = |name: &str| {
        rows.iter()
            .find(|r| r.config == name)
            .unwrap_or_else(|| panic!("missing row {name}"))
    };
    let tree_reno = find("Two-tier tree + Reno");
    let tree_dctcp = find("Two-tier tree + DCTCP");
    let quartz_reno = find("Quartz + Reno");
    assert!(tree_reno.drops > 0, "Reno must overflow the shared buffer");
    assert_eq!(tree_dctcp.drops, 0, "DCTCP must hold the queue under K");
    assert!(
        tree_dctcp.probe_p99_us < tree_reno.probe_p99_us / 2.0,
        "DCTCP should cut the tree tail: {} vs {}",
        tree_dctcp.probe_p99_us,
        tree_reno.probe_p99_us
    );
    assert!(
        quartz_reno.probe_p99_us < tree_dctcp.probe_p99_us / 10.0,
        "the mesh should beat DCTCP-on-tree: {} vs {}",
        quartz_reno.probe_p99_us,
        tree_dctcp.probe_p99_us
    );
}

#[test]
fn ext02_server_forwarding_is_the_latency_cliff() {
    let rows = ext02::run(Scale::Quick, &ThreadPool::default());
    let find = |name: &str| rows.iter().find(|r| r.name.contains(name)).unwrap();
    let quartz = find("Quartz");
    let bcube = find("BCube");
    let dcell = find("DCell");
    let camcube = find("CamCube");
    assert_eq!(quartz.hops.server_hops, 0);
    assert!(quartz.latency_us <= 1.0 + 1e-9);
    // Every server-centric design pays at least one 15 µs relay; CamCube
    // (switchless) is the worst.
    for r in [bcube, dcell, camcube] {
        assert!(r.hops.server_hops >= 1, "{}", r.name);
        assert!(r.latency_us > 10.0 * quartz.latency_us, "{}", r.name);
    }
    assert_eq!(camcube.hops.switch_hops, 0, "CamCube is switchless");
}

#[test]
fn ext03_request_time_halves_on_quartz() {
    // §1's motivating request: the dependent RPC stages amplify per-hop
    // latency; Quartz in edge+core roughly halves the tree's request
    // completion, with or without cross-traffic.
    let rows = ext03::run(Scale::Quick, &ThreadPool::default());
    let at = |arch: fig17::Arch, cross: usize| {
        rows.iter()
            .find(|r| r.arch == arch && r.cross_tasks == cross)
            .unwrap()
            .completion_us
    };
    for cross in [0usize, 2] {
        let tree = at(fig17::Arch::ThreeTier, cross);
        let quartz = at(fig17::Arch::QuartzInEdgeAndCore, cross);
        assert!(
            quartz < 0.6 * tree,
            "cross={cross}: quartz {quartz:.0} vs tree {tree:.0}"
        );
    }
}
