//! Property and differential pinning of the online RWA control plane
//! (DESIGN.md §9).
//!
//! Three layers:
//!
//! * **Solver-level property**: over seeded random cut/repair
//!   interleavings, after every delta the warm-started incremental plan
//!   is valid on the degraded ring and uses no more channels than a
//!   from-scratch greedy solve of the same ring; once every fiber is
//!   repaired the plan has no unroutable pair and passes
//!   `Assignment::validate` on the intact ring. Debug asserts inside
//!   `OnlineRwa::apply` (active here) cross-check the warm and fresh
//!   solvers' unroutable sets on every delta.
//! * **Budget**: a zero-budget controller completes every delta via the
//!   greedy fallback — degradation, never an abort.
//! * **Scenario-level determinism**: the full packet experiment is
//!   bit-identical at 1, 2, and 8 workers, the retune-modeled run is
//!   measurably different from the instant-retune baseline, and every
//!   cut and repair in the compiled plan is closed by a reroute, which
//!   rebuilds the routes from the live failure state.

use quartz_core::channel::greedy;
use quartz_core::channel::online::{OnlineRwa, ResolveOutcome, RingDelta, DEFAULT_NODE_BUDGET};
use quartz_core::pool::{unit_seed, ThreadPool};
use quartz_core::rng::StdRng;
use quartz_netsim::faults::FaultKind;
use quartz_netsim::rwa::{churn_scenario, churn_units, random_churn, ChurnScenarioConfig};
use quartz_netsim::time::SimTime;
use quartz_optics::retune::RetuneModel;

/// A seeded random interleaving of cut and repair deltas that is always
/// legal (never cuts a dead fiber or repairs a live one) and ends fully
/// repaired.
fn random_deltas(m: usize, steps: usize, seed: u64) -> Vec<RingDelta> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dead: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(steps + m);
    for _ in 0..steps {
        let cut = dead.is_empty() || (dead.len() < m && rng.random_range(0..2) == 0);
        if cut {
            let alive: Vec<usize> = (0..m).filter(|f| !dead.contains(f)).collect();
            let f = alive[rng.random_range(0..alive.len())];
            dead.push(f);
            out.push(RingDelta::FiberCut(f));
        } else {
            let f = dead.swap_remove(rng.random_range(0..dead.len()));
            out.push(RingDelta::FiberRepair(f));
        }
    }
    // Heal everything so the run can finish on a complete assignment.
    dead.sort_unstable();
    for f in dead {
        out.push(RingDelta::FiberRepair(f));
    }
    out
}

#[test]
fn incremental_plan_is_valid_and_no_worse_than_scratch_under_churn() {
    for m in [7usize, 9, 12] {
        for unit in 0..4u64 {
            let seed = unit_seed(0x5EED_0001, unit);
            let deltas = random_deltas(m, 10, seed);
            let mut rwa = OnlineRwa::new(m, DEFAULT_NODE_BUDGET);
            for delta in &deltas {
                let r = rwa.apply(*delta);
                let dead = rwa.dead_mask();
                rwa.plan()
                    .validate(dead)
                    .unwrap_or_else(|e| panic!("m={m} seed={seed:#x} {delta:?}: {e}"));
                let scratch = greedy::assign_best(m, dead);
                assert_eq!(r.fresh_channels, scratch.channels_used());
                assert!(
                    r.channels <= scratch.channels_used(),
                    "m={m} seed={seed:#x} {delta:?}: incremental {} > scratch {}",
                    r.channels,
                    scratch.channels_used()
                );
                assert_eq!(rwa.plan().unroutable(), scratch.unroutable());
            }
            // Fully healed: the plan is a complete intact-ring assignment.
            assert_eq!(rwa.dead_mask(), 0);
            let plan = rwa.plan();
            assert!(
                plan.unroutable().is_empty(),
                "healed ring has unroutable pairs"
            );
            plan.validate(0).expect("healed plan is a valid assignment");
            assert!(plan.channels_used() <= greedy::assign_best(m, 0).channels_used());
        }
    }
}

#[test]
fn zero_budget_churn_degrades_but_never_aborts() {
    let m = 9;
    for unit in 0..3u64 {
        let deltas = random_deltas(m, 8, unit_seed(0x5EED_0002, unit));
        let mut rwa = OnlineRwa::new(m, 0);
        let mut fallbacks = 0;
        for delta in &deltas {
            let r = rwa.apply(*delta);
            assert!(r.channels <= r.fresh_channels);
            if r.outcome == ResolveOutcome::BudgetFallback {
                fallbacks += 1;
            }
            rwa.plan().validate(rwa.dead_mask()).unwrap();
        }
        assert!(fallbacks > 0, "a zero budget must trip the fallback");
        assert!(rwa.plan().unroutable().is_empty(), "healed");
        rwa.plan().validate(0).unwrap();
    }
}

#[test]
fn churn_scenario_is_bit_identical_at_1_2_and_8_workers() {
    let cfg = ChurnScenarioConfig::quick(0x0B5);
    let units = 4;
    let one = churn_units(&cfg, units, &ThreadPool::new(1));
    let two = churn_units(&cfg, units, &ThreadPool::new(2));
    let eight = churn_units(&cfg, units, &ThreadPool::new(8));
    // ChurnScenarioReport's PartialEq is float-exact: this is
    // bit-identity, not approximate agreement.
    assert_eq!(one, two);
    assert_eq!(one, eight);
}

#[test]
fn retune_latency_is_measurable_against_the_instant_baseline() {
    let cfg = ChurnScenarioConfig::quick(0x0D7);
    let mut instant_cfg = cfg.clone();
    instant_cfg.retune = RetuneModel::instant();
    let real = churn_scenario(&cfg);
    let instant = churn_scenario(&instant_cfg);
    assert!(real.retunes > 0, "the scenario must force retunes");
    assert!(real.dark_ns_total > 0);
    assert_eq!(instant.dark_ns_total, 0);
    // The dark windows cost packets: reconfiguration is visible in the
    // drop/latency distributions, not just the control-plane counters.
    assert!(
        real.dropped > instant.dropped,
        "retune windows should drop packets: real {} vs instant {}",
        real.dropped,
        instant.dropped
    );
    assert_eq!(real.generated, instant.generated);
}

#[test]
fn repair_reconvergence_closes_every_fault_record() {
    // Every cut and repair in the compiled plan schedules a reroute.
    // The fault log must show reconvergence closing both down and up
    // transitions.
    use quartz_netsim::rwa::compile_churn;
    use quartz_netsim::{SimConfig, Simulator};
    use quartz_topology::builders::quartz_mesh;

    let q = quartz_mesh(9, 1, 10.0, 10.0);
    let churn = random_churn(
        9,
        2,
        (SimTime::from_us(200), SimTime::from_us(600)),
        Some(300_000),
        unit_seed(0x0E1, 1),
    );
    let compiled = compile_churn(&q, &churn, 20_000, 2_000_000, &RetuneModel::instant());
    let ups = compiled
        .plan
        .events()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::LinkUp(_)))
        .count();
    assert!(ups > 0, "repairs must relight lightpaths");

    let mut sim = Simulator::new(
        q.net.clone(),
        SimConfig {
            seed: 0x0E1,
            reconvergence_ns: Some(50_000),
            ..SimConfig::default()
        },
    );
    sim.apply_fault_plan(&compiled.plan)
        .expect("the compiled plan names mesh links");
    sim.run(SimTime::from_ms(3));
    let log = sim.fault_log();
    assert_eq!(log.len(), compiled.plan.len());
    for rec in log {
        assert!(
            rec.reconverged_at.is_some(),
            "{:?} at {:?} never reconverged",
            rec.kind,
            rec.at
        );
        assert!(rec.reconverged_at.unwrap() >= rec.at);
    }
    assert!(log.iter().any(|r| matches!(r.kind, FaultKind::LinkUp(_))));
}
