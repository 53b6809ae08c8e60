//! Determinism tests: every workload driver must produce bit-identical
//! reports at any thread-pool width, and identical reports for
//! identical seeds.

use quartz_core::pool::ThreadPool;
use quartz_netsim::transport::TcpVariant;
use quartz_topology::builders::quartz_in_edge_and_core;
use quartz_topology::graph::{Network, NodeId};
use quartz_workload::{
    run_units, CollectiveAlgo, Trace, WorkloadConfig, WorkloadReport, WorkloadSpec,
};

fn fabric() -> (Network, Vec<NodeId>) {
    let c = quartz_in_edge_and_core(2, 3, 2, 2);
    (c.net, c.hosts)
}

fn render_all(reports: &[WorkloadReport]) -> String {
    reports.iter().map(|r| r.render()).collect()
}

fn assert_pool_width_invariant(spec: WorkloadSpec, variant: TcpVariant) {
    let name = spec.name();
    let cfg = WorkloadConfig::new(spec, variant, 0xA11CE);
    let units = 4;
    let baseline = render_all(
        &run_units(&cfg, units, &ThreadPool::new(1), false, fabric)
            .unwrap()
            .0,
    );
    for jobs in [2, 8] {
        let wide = render_all(
            &run_units(&cfg, units, &ThreadPool::new(jobs), false, fabric)
                .unwrap()
                .0,
        );
        assert_eq!(
            baseline, wide,
            "{name} over {jobs} threads diverged from sequential"
        );
    }
}

fn demo_trace() -> Trace {
    let mut text = String::new();
    for i in 0..30_u64 {
        text.push_str(&format!(
            "{{\"src\":{},\"dst\":{},\"bytes\":{},\"start_ns\":{}}}\n",
            i % 12,
            (i + 5) % 12,
            2_000 + i * 911,
            i * 1_000
        ));
    }
    Trace::parse(&text, 12).expect("demo trace is valid")
}

#[test]
fn trace_replay_is_pool_width_invariant() {
    assert_pool_width_invariant(WorkloadSpec::Trace(demo_trace()), TcpVariant::Reno);
}

#[test]
fn ring_allreduce_is_pool_width_invariant() {
    assert_pool_width_invariant(
        WorkloadSpec::AllReduce {
            algo: CollectiveAlgo::Ring,
            ranks: 0,
            bytes: 60_000,
        },
        TcpVariant::Dctcp,
    );
}

#[test]
fn tree_allreduce_is_pool_width_invariant() {
    assert_pool_width_invariant(
        WorkloadSpec::AllReduce {
            algo: CollectiveAlgo::Tree,
            ranks: 8,
            bytes: 60_000,
        },
        TcpVariant::Dctcp,
    );
}

#[test]
fn incast_is_pool_width_invariant() {
    assert_pool_width_invariant(
        WorkloadSpec::Incast {
            fanin: 6,
            bytes: 30_000,
            jitter_ns: 2_000,
        },
        TcpVariant::Reno,
    );
}

#[test]
fn same_seed_same_report_different_seed_different_report() {
    let spec = WorkloadSpec::Incast {
        fanin: 6,
        bytes: 30_000,
        jitter_ns: 2_000,
    };
    let pool = ThreadPool::new(2);
    let a = WorkloadConfig::new(spec.clone(), TcpVariant::Dctcp, 7);
    let b = WorkloadConfig::new(spec, TcpVariant::Dctcp, 8);
    let ra = render_all(&run_units(&a, 2, &pool, false, fabric).unwrap().0);
    let ra2 = render_all(&run_units(&a, 2, &pool, false, fabric).unwrap().0);
    let rb = render_all(&run_units(&b, 2, &pool, false, fabric).unwrap().0);
    assert_eq!(ra, ra2, "same seed must replay exactly");
    assert_ne!(ra, rb, "different seeds must diverge");
}
