//! The benchmark workloads. One repetition runs the whole pipeline a
//! user waits for — build the fabric, construct the engine, register
//! the traffic, simulate, check the result — through public functions
//! of `quartz-topology`, `quartz-netsim` and `quartz-workload` only.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use quartz_bench::timing::monotonic_ns;
use quartz_core::pool::ThreadPool;
use quartz_core::rng::StdRng;
use quartz_netsim::shard::ShardedSim;
use quartz_netsim::sim::{FlowKind, LinkLoad, SimConfig, Simulator};
use quartz_netsim::time::SimTime;
use quartz_netsim::transport::TcpVariant;
use quartz_obs::MetricsRegistry;
use quartz_topology::builders::{quartz_in_core, quartz_mesh};
use quartz_topology::{spatial_domains, FlatRoutes, Network, NodeId, RouteTable};
use quartz_workload::dist::{exp_gap_ns, mean_gap_ns};
use quartz_workload::{
    run_workload, Trace, TraceFlow, WorkloadConfig, WorkloadReport, WorkloadSpec, WEBSEARCH,
};

use crate::trace::{Tally, TallyCounts, Tracer, EV_KINDS};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 5 120-host Quartz-in-core fabric at 16 domains; construction
    /// dominates.
    CoreBuild5k,
    /// WEBSEARCH flows over DCTCP on a 16-switch Quartz mesh through
    /// `run_workload`; the legacy engine's transport path dominates.
    WebsearchDctcp,
}

impl Workload {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Workload; 2] = [Workload::CoreBuild5k, Workload::WebsearchDctcp];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CoreBuild5k => "core_build_5k",
            Workload::WebsearchDctcp => "websearch_dctcp",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the sharded engine.
    pub fn is_sharded(self) -> bool {
        self != Workload::WebsearchDctcp
    }
}

/// How one repetition is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// Nothing attached: the end-to-end measurement.
    Plain,
    /// Spans around every library call, the shard clock injected, and
    /// the construction layers timed once more on their own.
    Spans,
    /// The tallying recorder and metrics attached.
    Recorded,
    /// Sharded workloads: the same inputs on a single domain.
    OneDomain,
}

/// What one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host time of the whole pipeline, ns (work done only to trace it
    /// excluded).
    pub wall_ns: u64,
    /// Host time before the first call that simulates, ns.
    pub setup_ns: u64,
    /// Host time of the call that simulates, ns (in `Recorded` mode on
    /// `websearch_dctcp`, the run of the replica that carries the
    /// recorder).
    pub sim_ns: u64,
    /// Packets delivered by that call.
    pub delivered: u64,
    /// Operations attempted: RPC requests, or flows.
    pub ops: u64,
    /// Operations not completed by the horizon.
    pub ops_failed: u64,
    /// Digest of the simulated output, where the mode reproduces it.
    pub digest: Option<u64>,
    /// The first correctness check that failed.
    pub error: Option<String>,
    /// Per-layer values by metric name.
    pub layer: BTreeMap<String, f64>,
}

impl Rep {
    fn put(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    fn fail(&mut self, why: String) {
        if self.error.is_none() {
            self.error = Some(why);
        }
    }
}

/// Tag of the closed-loop RPC flows of `core_build_5k`.
const RPC_TAG: u32 = 0;
/// Packet size of RPC requests and responses, bytes.
const RPC_PKT_BYTES: u32 = 400;
/// Access and mesh channel rate of `websearch_dctcp`, Gb/s.
const HOST_GBPS: f64 = 10.0;
/// Sharded runs go quiescent long before this.
const SHARD_HORIZON: SimTime = SimTime::from_ms(1_000);

/// A Quartz-in-core fabric, its domain count, and its RPC flows.
#[derive(Clone, Debug)]
pub struct Sharded {
    tors_per_pod: usize,
    pods: usize,
    hosts_per_tor: usize,
    ring: usize,
    domains: usize,
    /// (source, destination) by index into the fabric's host list.
    flows: Vec<(usize, usize)>,
    /// Requests per flow, one outstanding at a time.
    rpcs: u32,
}

/// A Quartz mesh and the `run_workload` configuration.
#[derive(Clone, Debug)]
pub struct Websearch {
    switches: usize,
    hosts_per_switch: usize,
    cfg: WorkloadConfig,
}

/// A workload's inputs: everything the seed decides, generated before
/// any timing starts.
#[derive(Clone, Debug)]
pub enum Inputs {
    /// `core_build_5k`.
    Sharded(Sharded),
    /// `websearch_dctcp`.
    Websearch(Websearch),
}

/// Generates the inputs of `w` from `seed`; `quick` shrinks every size
/// so a run takes well under a second.
pub fn inputs(w: Workload, seed: u64, quick: bool) -> Inputs {
    match w {
        Workload::CoreBuild5k => Inputs::Sharded(core_build(seed, quick)),
        Workload::WebsearchDctcp => Inputs::Websearch(websearch(seed, quick)),
    }
}

/// `quartz_in_core(16, 16, 20, 16)` at 16 domains with 512 closed-loop
/// RPC flows, each from a random host to a random host of another pod.
fn core_build(seed: u64, quick: bool) -> Sharded {
    let (tors_per_pod, pods, hosts_per_tor, ring, domains, flows, rpcs) = if quick {
        (4, 4, 4, 4, 4, 32, 20)
    } else {
        (16, 16, 20, 16, 16, 512, CORE_RPCS)
    };
    let per_pod = tors_per_pod * hosts_per_tor;
    let mut rng = StdRng::seed_from_u64(seed);
    let flows = (0..flows)
        .map(|_| {
            let src = rng.random_range(0..pods * per_pod);
            let pod = (src / per_pod + 1 + rng.random_range(0..pods - 1)) % pods;
            (src, pod * per_pod + rng.random_range(0..per_pod))
        })
        .collect();
    Sharded {
        tors_per_pod,
        pods,
        hosts_per_tor,
        ring,
        domains,
        flows,
        rpcs,
    }
}

/// Requests per RPC flow of `core_build_5k`.
const CORE_RPCS: u32 = 150;

/// Bytes `websearch_dctcp` offers: 100 ms of arrivals at its load.
const WEBSEARCH_BYTES: u64 = 2_400_000_000;
/// Offered load of `websearch_dctcp`, as a fraction of bisection bandwidth.
const WEBSEARCH_LOAD: f64 = 0.6;

/// `quartz_mesh(16, 4, 10, 10)` offered WEBSEARCH flows over DCTCP as
/// open-loop Poisson arrivals at 0.6 of bisection bandwidth, uniform
/// over host pairs. Arrivals stop once a fixed byte budget is offered
/// (the last flow is cut to fit), so every seed offers the same bytes.
fn websearch(seed: u64, quick: bool) -> Websearch {
    let (switches, hosts_per_switch) = (16, 4);
    let hosts = switches * hosts_per_switch;
    let budget = if quick { 50_000_000 } else { WEBSEARCH_BYTES };
    let bisection_gbps = (hosts as f64) * HOST_GBPS / 2.0;
    let gap = mean_gap_ns(&WEBSEARCH, WEBSEARCH_LOAD, bisection_gbps);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut flows, mut offered, mut t_ns) = (Vec::new(), 0_u64, 0_u64);
    while offered < budget {
        t_ns += exp_gap_ns(&mut rng, gap);
        let src = rng.random_range(0..hosts);
        let dst = (src + 1 + rng.random_range(0..hosts - 1)) % hosts;
        let bytes = WEBSEARCH.sample(&mut rng).clamp(1, budget - offered);
        offered += bytes;
        flows.push(TraceFlow {
            src: u32::try_from(src).expect("host index fits u32"),
            dst: u32::try_from(dst).expect("host index fits u32"),
            bytes,
            start_ns: t_ns,
            tag: 0,
        });
    }
    let spec = WorkloadSpec::Trace(Trace { flows });
    let mut cfg = WorkloadConfig::new(spec, TcpVariant::Dctcp, seed);
    // Late elephants need time to drain; the run ends once quiescent.
    cfg.horizon = SimTime::from_ns(t_ns) + SimTime::from_ms(1_000).ns();
    Websearch {
        switches,
        hosts_per_switch,
        cfg,
    }
}

/// Runs one repetition of the workload in `mode`.
pub fn run_rep(inputs: &Inputs, seed: u64, mode: Mode, tr: &mut Tracer) -> Rep {
    match inputs {
        Inputs::Sharded(p) => sharded_rep(p, seed, mode, tr),
        Inputs::Websearch(p) => websearch_rep(p, mode, tr),
    }
}

fn sharded_rep(p: &Sharded, seed: u64, mode: Mode, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let pool = ThreadPool::sequential();
    let domains = if mode == Mode::OneDomain {
        1
    } else {
        p.domains
    };
    tr.begin("rep");
    let t0 = monotonic_ns();
    let c = tr.span("topology.build", || {
        quartz_in_core(p.tors_per_pod, p.pods, p.hosts_per_tor, p.ring)
    });
    let mut extra_ns = 0;
    if mode == Mode::Spans {
        let t = monotonic_ns();
        topology_layer(&c.net, tr, &mut rep);
        let part = tr.span("topology.partition", || spatial_domains(&c.net, domains));
        rep.put("topology.cross_links", part.cross_links(&c.net) as f64);
        extra_ns = monotonic_ns() - t;
    }
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = tr.span("netsim.new", || ShardedSim::new(c.net, cfg, domains));
    let tally: TallyCounts = Arc::new(Mutex::new([0; EV_KINDS.len()]));
    if matches!(mode, Mode::Spans | Mode::Recorded) {
        sim.set_clock(monotonic_ns);
    }
    if mode == Mode::Recorded {
        sim.set_recorder(Box::new(Tally::new(Arc::clone(&tally))));
        sim.enable_metrics();
    }
    let kind = FlowKind::Rpc { count: p.rpcs };
    for &(src, dst) in &p.flows {
        let (src, dst) = (c.hosts[src], c.hosts[dst]);
        tr.span("netsim.add_flow", || {
            sim.add_flow(src, dst, RPC_PKT_BYTES, kind, RPC_TAG, SimTime::ZERO)
        });
    }
    let t1 = monotonic_ns();
    tr.span("netsim.run", || {
        sim.run(SHARD_HORIZON, &pool);
    });
    let t2 = monotonic_ns();

    let quiescent = !sim.has_pending_events();
    let s = sim.stats();
    let rpc = s.summary(RPC_TAG);
    rep.ops = p.flows.len() as u64 * u64::from(p.rpcs);
    rep.ops_failed = rep.ops.saturating_sub(rpc.count as u64);
    if !quiescent {
        rep.fail("events still queued at the horizon".into());
    }
    check_conservation(&mut rep, (s.generated, s.delivered, s.dropped));
    if rep.ops_failed > 0 {
        rep.fail(format!(
            "{} of {} RPCs did not complete",
            rep.ops_failed, rep.ops
        ));
    }
    let events = sim.events_processed();
    rep.digest = Some(digest(&[
        s.generated,
        s.delivered,
        s.dropped,
        events,
        rpc.count as u64,
        rpc.p50_ns,
        rpc.p99_ns,
    ]));
    rep.delivered = s.delivered;
    let run_ns = t2 - t1;
    if mode == Mode::Spans {
        rep.put("netsim.flows", sim.flow_count() as f64);
        netsim_layer(
            &mut rep,
            (s.generated, s.delivered, s.dropped),
            events,
            run_ns,
            &sim.link_loads(),
            sim.now(),
        );
        let busy = sim.domain_busy_ns();
        let busy_sum: u64 = busy.iter().sum();
        let coord = sim.coordinator_ns();
        rep.put("shard.busy_s", busy_sum as f64 / 1e9);
        rep.put(
            "shard.busy_max_s",
            busy.iter().max().copied().unwrap_or(0) as f64 / 1e9,
        );
        rep.put("shard.coordinator_s", coord as f64 / 1e9);
        rep.put(
            "shard.unattributed_s",
            (run_ns as f64 - busy_sum as f64 - coord as f64) / 1e9,
        );
        let per_dom = sim.per_domain_events();
        let max = per_dom.iter().max().copied().unwrap_or(0) as f64;
        let mean = per_dom.iter().sum::<u64>() as f64 / per_dom.len().max(1) as f64;
        rep.put("shard.imbalance", ratio(max, mean));
    }
    if mode == Mode::Recorded {
        if let Some(r) = sim.take_recorder() {
            r.finish();
        }
        recorded_layer(&mut rep, &tally, sim.take_metrics());
    }
    let t3 = monotonic_ns();
    tr.end();
    rep.wall_ns = t3 - t0 - extra_ns;
    rep.setup_ns = t1 - t0 - extra_ns;
    rep.sim_ns = run_ns;
    rep
}

/// Set-ups per `websearch_dctcp` repetition. One takes tens of
/// microseconds, too short to read once, so the repetition's set-up time
/// is the median of this many; the last one is simulated.
const WEBSEARCH_SETUPS: usize = 25;

fn websearch_rep(p: &Websearch, mode: Mode, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    tr.begin("rep");
    let mut setup_ns = Vec::with_capacity(WEBSEARCH_SETUPS);
    for _ in 1..WEBSEARCH_SETUPS {
        let t = monotonic_ns();
        let built = (
            quartz_mesh(p.switches, p.hosts_per_switch, HOST_GBPS, HOST_GBPS),
            p.cfg.clone(),
        );
        setup_ns.push(monotonic_ns() - t);
        std::hint::black_box(built);
    }
    let t0 = monotonic_ns();
    let mesh = tr.span("topology.build", || {
        quartz_mesh(p.switches, p.hosts_per_switch, HOST_GBPS, HOST_GBPS)
    });
    let cfg = p.cfg.clone();
    setup_ns.push(monotonic_ns() - t0);
    setup_ns.sort_unstable();
    let mut extra_ns = 0;
    let mut replica_net = None;
    if mode != Mode::Plain {
        let t = monotonic_ns();
        if mode == Mode::Spans {
            topology_layer(&mesh.net, tr, &mut rep);
        }
        replica_net = Some(mesh.net.clone());
        extra_ns = monotonic_ns() - t;
    }
    let t1 = monotonic_ns();
    let report = tr.span("workload.run", || run_workload(mesh.net, &mesh.hosts, &cfg));
    let t2 = monotonic_ns();
    match &report {
        Ok(r) => check_report(r, &mut rep),
        Err(e) => rep.fail(format!("run_workload: {e}")),
    }
    let t3 = monotonic_ns();
    rep.wall_ns = t3 - t0 - extra_ns;
    rep.setup_ns = setup_ns[setup_ns.len() / 2];
    rep.sim_ns = t2 - t1;
    if let (Some(net), Ok(r)) = (replica_net, &report) {
        websearch_replica(&mut rep, net, &mesh.hosts, &cfg, r, mode, tr);
    }
    tr.end();
    rep
}

/// The netsim layer under `run_workload`, seen through a replica: the
/// same fabric, configuration and flows on a `Simulator` this benchmark
/// owns, which must reproduce the report's packet counts. `Spans` times
/// the replica's layers; `Recorded` attaches the tallying recorder and
/// metrics and makes the replica's run the repetition's simulate call.
fn websearch_replica(
    rep: &mut Rep,
    net: Network,
    hosts: &[NodeId],
    cfg: &WorkloadConfig,
    r: &WorkloadReport,
    mode: Mode,
    tr: &mut Tracer,
) {
    let tally: TallyCounts = Arc::new(Mutex::new([0; EV_KINDS.len()]));
    let recorded = mode == Mode::Recorded;
    let mut sim = replica(net, hosts, cfg, recorded.then_some(&tally), tr);
    let t = monotonic_ns();
    tr.span("netsim.run", || {
        sim.run(cfg.horizon);
    });
    let run_ns = monotonic_ns() - t;
    let s = sim.stats();
    let counts = (s.generated, s.delivered, s.dropped);
    if counts != (r.generated, r.delivered, r.dropped) {
        rep.fail(format!(
            "replica generated/delivered/dropped {counts:?} != run_workload's ({}, {}, {})",
            r.generated, r.delivered, r.dropped
        ));
    }
    check_conservation(rep, counts);
    if mode == Mode::Spans {
        rep.put("workload.flows", r.flows as f64);
        rep.put("workload.completed", r.completed as f64);
        let p99 = r.buckets.iter().map(|b| b.p99_slowdown).fold(0.0, f64::max);
        rep.put("workload.fct_p99_slowdown", p99);
        rep.put("netsim.flows", sim.flow_count() as f64);
        netsim_layer(
            rep,
            counts,
            sim.events_processed(),
            run_ns,
            &sim.link_loads(),
            sim.now(),
        );
    }
    if recorded {
        rep.sim_ns = run_ns;
        if let Some(rec) = sim.take_recorder() {
            rec.finish();
        }
        recorded_layer(rep, &tally, sim.take_metrics());
    }
}

/// Fails `rep` unless every packet generated was delivered or dropped.
fn check_conservation(rep: &mut Rep, (generated, delivered, dropped): (u64, u64, u64)) {
    if generated != delivered + dropped {
        rep.fail(format!(
            "packet conservation: generated {generated} != delivered {delivered} + dropped {dropped}"
        ));
    }
}

/// A `Simulator` over `net` carrying the flows `run_workload` offers for
/// `cfg`: the same configuration, flows and add order.
fn replica(
    net: Network,
    hosts: &[NodeId],
    cfg: &WorkloadConfig,
    tally: Option<&TallyCounts>,
    tr: &mut Tracer,
) -> Simulator {
    let WorkloadSpec::Trace(trace) = &cfg.spec else {
        unreachable!("the websearch workload replays a generated trace")
    };
    let sim_cfg = SimConfig {
        seed: cfg.seed,
        ecn_threshold_bytes: cfg.ecn_threshold_bytes,
        ..SimConfig::default()
    };
    let mut sim = tr.span("netsim.new", || Simulator::new(net, sim_cfg));
    if let Some(t) = tally {
        sim.set_recorder(Box::new(Tally::new(Arc::clone(t))));
        sim.enable_metrics();
    }
    for f in &trace.flows {
        let kind = FlowKind::Transport {
            total_bytes: f.bytes,
            variant: cfg.variant,
        };
        let (src, dst) = (hosts[f.src as usize], hosts[f.dst as usize]);
        let start = SimTime::from_ns(f.start_ns);
        tr.span("netsim.add_flow", || {
            sim.add_flow(src, dst, cfg.pkt_bytes, kind, f.tag, start)
        });
    }
    sim
}

/// Checks a workload report and digests it.
fn check_report(r: &WorkloadReport, rep: &mut Rep) {
    rep.ops = r.flows as u64;
    rep.ops_failed = r.flows.saturating_sub(r.completed) as u64;
    rep.delivered = r.delivered;
    if r.completed > r.flows {
        rep.fail(format!(
            "{} flows completed of {} offered",
            r.completed, r.flows
        ));
    }
    if rep.ops_failed > 0 {
        rep.fail(format!(
            "{} of {} flows did not complete",
            rep.ops_failed, r.flows
        ));
    }
    check_conservation(rep, (r.generated, r.delivered, r.dropped));
    let mut words = vec![
        r.flows as u64,
        r.completed as u64,
        r.generated,
        r.delivered,
        r.dropped,
        r.elapsed_ns,
    ];
    for b in &r.buckets {
        words.push(b.count as u64);
        words.push(b.p50_slowdown.to_bits());
        words.push(b.p99_slowdown.to_bits());
        words.push(b.p999_slowdown.to_bits());
    }
    rep.digest = Some(digest(&words));
}

/// Times the route-table layers once on their own, over the fabric the
/// engine receives.
fn topology_layer(net: &Network, tr: &mut Tracer, rep: &mut Rep) {
    let table = tr.span("topology.routes", || RouteTable::all_shortest_paths(net));
    let n = u32::try_from(net.node_count()).expect("node ids fit u32");
    let mut entries = 0_u64;
    for at in 0..n {
        for dst in 0..n {
            entries += table.next_hops(NodeId(at), NodeId(dst)).len() as u64;
        }
    }
    rep.put("topology.route_entries", entries as f64);
    let flat = tr.span("topology.flat", || FlatRoutes::new(&table, net));
    std::hint::black_box(&flat);
}

/// Per-layer values of the engine's run.
fn netsim_layer(
    rep: &mut Rep,
    (generated, delivered, dropped): (u64, u64, u64),
    events: u64,
    run_ns: u64,
    loads: &[LinkLoad],
    now: SimTime,
) {
    rep.put("netsim.events", events as f64);
    rep.put("netsim.ns_per_event", ratio(run_ns as f64, events as f64));
    rep.put("netsim.pkts_generated", generated as f64);
    rep.put("netsim.pkts_delivered", delivered as f64);
    rep.put("netsim.pkts_dropped", dropped as f64);
    rep.put(
        "netsim.delivery_ratio",
        ratio(delivered as f64, generated as f64),
    );
    let util = loads
        .iter()
        .map(|l| l.peak_utilization(now.ns()))
        .fold(0.0, f64::max);
    rep.put("netsim.link_util_peak", util);
}

/// Per-layer values that need the recorder or the metrics registry.
fn recorded_layer(rep: &mut Rep, tally: &TallyCounts, metrics: Option<MetricsRegistry>) {
    let counts = *tally.lock().expect("tally cell is never poisoned");
    for (kind, n) in EV_KINDS.iter().zip(counts) {
        rep.put(&format!("netsim.ev.{kind}"), n as f64);
    }
    let forwarded = metrics.map_or(0, |m| m.counter("sim.packets.forwarded"));
    rep.put(
        "netsim.hops_per_pkt",
        ratio(forwarded as f64, rep.delivered as f64),
    );
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
