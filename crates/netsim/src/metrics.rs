//! The engine's metrics: a fold over the events it records.
//!
//! Every engine metric is a pure function of one recorded [`Event`]. A
//! domain hands each event it records to [`EngineMetrics::observe`]
//! before the trace sink sees it; the fold updates dense columns, and
//! [`EngineMetrics::render_into`] names them once, at export. This is
//! the only code that names an engine metric, so a run's trace and its
//! metrics agree by construction.

use quartz_obs::{CounterColumn, Event, HistogramColumn, MetricsRegistry};
use quartz_topology::graph::NodeKind;
use std::sync::Arc;

/// Fixed counter names, by column: lifecycle totals, then one per
/// `DropReason` (in declaration order) from `DROPS`, then one per fault
/// kind from `FAULTS`.
const COUNTERS: [&str; 16] = [
    "sim.packets.generated",
    "sim.packets.delivered",
    "sim.packets.dropped",
    "sim.packets.forwarded",
    "sim.vlb.detours",
    "sim.forward.cut_through",
    "sim.forward.store_forward",
    "sim.reroutes",
    "sim.drop.dead_switch",
    "sim.drop.dead_link",
    "sim.drop.no_route",
    "sim.drop.queue_full",
    "sim.fault.link_down",
    "sim.fault.link_up",
    "sim.fault.switch_down",
    "sim.fault.switch_up",
];
const GENERATED: usize = 0;
const DELIVERED: usize = 1;
const DROPPED: usize = 2;
const FORWARDED: usize = 3;
const VLB_DETOURS: usize = 4;
const CUT_THROUGH: usize = 5;
const STORE_FORWARD: usize = 6;
const REROUTES: usize = 7;
const DROPS: usize = 8;
const FAULTS: usize = 12;
/// `Event::Fault` kinds, in column order from `FAULTS`.
const FAULT_KINDS: [&str; 4] = ["link_down", "link_up", "switch_down", "switch_up"];

/// One domain's engine metrics, folded from the events it records.
#[derive(Default)]
pub(crate) struct EngineMetrics {
    node_kind: Arc<[NodeKind]>,
    /// The fixed counters, by `COUNTERS` column.
    counters: CounterColumn,
    /// Packets forwarded and dropped per switch, by node id.
    switch_fwd: CounterColumn,
    switch_drop: CounterColumn,
    /// Per directed slot (`[2l]` = a→b, `[2l+1]` = b→a): queue depth at
    /// enqueue and serialization time at transmit, over sim time.
    queue: HistogramColumn,
    util: HistogramColumn,
}

impl EngineMetrics {
    /// Empty columns over a fabric whose node kinds are `node_kind`.
    pub(crate) fn new(node_kind: Arc<[NodeKind]>) -> EngineMetrics {
        let empty = EngineMetrics::default();
        EngineMetrics { node_kind, ..empty }
    }

    /// Folds one recorded event into the columns. Nothing allocates but
    /// a column's growth to a new id and a new histogram bucket.
    #[inline]
    pub(crate) fn observe(&mut self, ev: &Event) {
        let slot = |link: u32, to_b: bool| 2 * link as usize + usize::from(!to_b);
        let column = match *ev {
            Event::Gen { .. } => GENERATED,
            Event::Deliver { .. } => DELIVERED,
            Event::Vlb { .. } => VLB_DETOURS,
            Event::Forward { cut_through, .. } if cut_through => CUT_THROUGH,
            Event::Forward { .. } => STORE_FORWARD,
            Event::Reroute { .. } => REROUTES,
            Event::Drop { node, reason, .. } => {
                self.counters.add(DROPPED, 1);
                if self.node_kind[node as usize].is_switch() {
                    self.switch_drop.add(node as usize, 1);
                }
                DROPS + reason as usize
            }
            Event::Enqueue {
                t_ns,
                node,
                link,
                to_b,
                queue_bytes,
                ..
            } => {
                if self.node_kind[node as usize].is_switch() {
                    self.switch_fwd.add(node as usize, 1);
                }
                self.queue.observe(slot(link, to_b), t_ns, queue_bytes);
                FORWARDED
            }
            Event::Transmit {
                t_ns,
                link,
                to_b,
                serialize_ns,
                ..
            } => return self.util.observe(slot(link, to_b), t_ns, serialize_ns),
            Event::Fault { kind, .. } => match FAULT_KINDS.iter().position(|&k| k == kind) {
                Some(i) => FAULTS + i,
                None => return,
            },
            _ => return,
        };
        self.counters.add(column, 1);
    }

    /// Names every column into `out`: a counter only when it is
    /// non-zero, a histogram only when it holds a sample.
    pub(crate) fn render_into(&self, out: &mut MetricsRegistry) {
        let switch = |n: usize, what: &str| format!("switch.{n:03}.{what}");
        let slot = |s: usize, what: &str| {
            let dir = if s & 1 == 0 { "ab" } else { "ba" };
            format!("{what}.link{:04}.{dir}", s >> 1)
        };
        self.counters.render_into(out, |i| COUNTERS[i].to_string());
        self.switch_fwd.render_into(out, |n| switch(n, "forwarded"));
        self.switch_drop.render_into(out, |n| switch(n, "dropped"));
        self.queue.render_into(out, |s| slot(s, "queue"));
        self.util.render_into(out, |s| slot(s, "util"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::shard::ShardedSim;
    use crate::sim::{FlowKind, SimConfig, VlbConfig};
    use crate::time::SimTime;
    use quartz_core::pool::ThreadPool;
    use quartz_obs::{DropReason, MemoryRecorder};
    use quartz_topology::builders::{quartz_in_core, Composite};

    #[test]
    fn counter_columns_match_their_names() {
        let reasons = [
            DropReason::DeadSwitch,
            DropReason::DeadLink,
            DropReason::NoRoute,
            DropReason::QueueFull,
        ];
        for r in reasons {
            let name = format!("sim.drop.{}", r.as_str());
            assert_eq!(COUNTERS[DROPS + r as usize], name);
        }
        for (i, kind) in FAULT_KINDS.iter().enumerate() {
            assert_eq!(COUNTERS[FAULTS + i], format!("sim.fault.{kind}"));
        }
    }

    /// Quartz in the core under bursty cross-pod load and an incast,
    /// with VLB in pod 0, 4 kB drop-tail queues and an aggregation-to-core
    /// uplink cut at 300 µs that the control plane routes around 50 µs
    /// later.
    fn busy_composite(domains: usize) -> (Composite, ShardedSim) {
        let c = quartz_in_core(3, 4, 2, 4);
        let agg = |tor| c.net.neighbors(tor).iter().map(|&(n, _)| n);
        let mut pod0: Vec<_> = c.edges[..3].to_vec();
        pod0.extend(agg(c.edges[0]).filter(|n| !c.hosts.contains(n)));
        let cfg = SimConfig {
            seed: 0x7A11,
            queue_cap_bytes: 4_000,
            vlb: Some(VlbConfig {
                fraction: 0.5,
                domains: vec![pod0],
            }),
            reconvergence_ns: Some(50_000),
            ..SimConfig::default()
        };
        let mut sim = ShardedSim::new(c.net.clone(), cfg, domains);
        let n = c.hosts.len();
        let stop = SimTime::from_us(800);
        for i in 0..n {
            let burst = FlowKind::Burst {
                burst_pkts: 6,
                period_ns: 40_000,
                stop,
            };
            let dst = c.hosts[(i + n / 2 + 1) % n];
            sim.add_flow(c.hosts[i], dst, 1_000, burst, 0, SimTime::from_us(i as u64));
        }
        for &src in &c.hosts[6..12] {
            let incast = FlowKind::Burst {
                burst_pkts: 4,
                period_ns: 100_000,
                stop,
            };
            sim.add_flow(src, c.hosts[0], 1_000, incast, 1, SimTime::ZERO);
        }
        let pod1_agg = agg(c.edges[3]).find(|n| !c.hosts.contains(n));
        let uplink = pod1_agg.and_then(|a| c.net.link_between(a, c.uppers[0]));
        let mut plan = FaultPlan::new();
        plan.link_down(uplink.expect("uplink"), SimTime::from_us(300));
        sim.apply_fault_plan(&plan).expect("core uplink");
        sim.set_recorder(Box::new(MemoryRecorder::new()));
        sim.enable_metrics();
        sim.run(SimTime::from_ms(2), &ThreadPool::sequential());
        (c, sim)
    }

    /// Three independently kept tallies agree: the engine's metrics, a
    /// fold of the recorded trace, the per-tag [`crate::stats::Stats`]
    /// counters and the per-slot link loads.
    #[test]
    fn metrics_trace_stats_and_link_loads_agree() {
        let mut rendered = Vec::new();
        for domains in [1, 4] {
            let (c, mut sim) = busy_composite(domains);
            let events = sim.take_recorder().expect("recorder").finish();
            let metrics = sim.take_metrics().expect("metrics");

            let mut fold = EngineMetrics::new(c.net.nodes().map(|n| n.kind).collect());
            for ev in &events {
                fold.observe(ev);
            }
            let mut refold = MetricsRegistry::new();
            fold.render_into(&mut refold);
            assert_eq!(refold.to_ndjson(), metrics.to_ndjson(), "k = {domains}");

            let stats = sim.stats();
            assert_eq!(metrics.counter("sim.packets.generated"), stats.generated);
            assert_eq!(metrics.counter("sim.packets.delivered"), stats.delivered);
            assert_eq!(metrics.counter("sim.packets.dropped"), stats.dropped);

            let busy = |name: String| {
                let h = metrics.histogram(&name);
                h.map_or(0, |h| h.buckets().map(|(_, b)| b.sum).sum::<u64>())
            };
            for (l, load) in sim.link_loads().iter().enumerate() {
                assert_eq!(busy(format!("util.link{l:04}.ab")), load.ab_busy_ns);
                assert_eq!(busy(format!("util.link{l:04}.ba")), load.ba_busy_ns);
            }

            for name in [
                "sim.vlb.detours",
                "sim.forward.cut_through",
                "sim.forward.store_forward",
                "sim.drop.queue_full",
                "sim.drop.dead_link",
                "sim.fault.link_down",
                "sim.reroutes",
            ] {
                assert!(
                    metrics.counter(name) > 0,
                    "k = {domains}: {name} never fired"
                );
            }
            rendered.push(metrics.to_ndjson());
        }
        assert_eq!(
            rendered[0], rendered[1],
            "metrics differ across domain counts"
        );
    }
}
