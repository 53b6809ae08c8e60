//! The sharded single-simulation engine: spatial domains under
//! conservative lookahead (DESIGN.md §13).
//!
//! [`ShardedSim`] runs **one** simulation across `k` spatial domains
//! produced by [`quartz_topology::partition::spatial_domains`]. Each
//! domain owns a contiguous region of the network — its switches, its
//! hosts, and every directed link slot whose *source* node it owns —
//! plus a private [`TimingWheel`] and [`PacketArena`] shard, around its
//! own copy of the per-packet core (`core`) that the serial
//! engine runs too. Domains advance independently inside a window
//! `[W0, B]` whose upper bound is derived from the slowest-safe lower
//! bound
//!
//! ```text
//! L = min over cross-domain directed slots (from → to) of
//!         latency(from) + prop_delay
//! B = min(W0 + L − 1, t_ctl − 1, until)
//! ```
//!
//! where `W0` is the earliest pending event across all domains and
//! `t_ctl` is the next control-plane event (fault or reconvergence).
//! Any packet a domain forwards across a boundary during the window
//! arrives no earlier than `W0 + L > B`, so boundary exchange at the
//! window edge can never deliver an event into a domain's past — the
//! classic conservative-lookahead argument, with the bound realized by
//! the fabric's own switch latency and propagation delay.
//!
//! ## Determinism
//!
//! The engine is **bit-identical at any domain count** (and any worker
//! count). Three mechanisms make that hold:
//!
//! 1. **Content-derived event keys.** Where the legacy
//!    [`crate::sim::Simulator`]
//!    breaks same-time ties with an execution-order sequence number
//!    (meaningless across shards), every event here carries a canonical
//!    key computed from its content: generation events sort before
//!    packet arrivals before retransmission timers, and within each
//!    class by flow id and a per-flow emission counter. The global
//!    `(time, key)` order is therefore a property of the *simulation*,
//!    not of the schedule that produced it.
//! 2. **Order-independent randomness.** Each flow owns two private RNG
//!    streams ([`unit_seed`]`(seed, 2·flow)` for its source side,
//!    `2·flow + 1` for its destination side); VLB decisions are
//!    pre-drawn at emission from the emitting side's stream and carried
//!    with the packet. No RNG is ever shared across domains, so draw
//!    order cannot depend on the partition.
//! 3. **Merge-order-stable sinks.** Domains stash trace events and
//!    flow completions keyed by the `(time, key)` of the event that
//!    produced them; the coordinator k-way-merges the stashes at every
//!    window edge, so the recorder byte stream and the completion log
//!    are identical at `k = 1, 2, …, N`.
//!
//! ## Scope
//!
//! The sharded engine supports the workloads the scale experiments use:
//! all five [`FlowKind`]s, ECN marking, Reno/DCTCP transport, VLB
//! detours, live faults with automatic reconvergence, and the full
//! observability surface. Every domain runs a per-packet timing wheel —
//! batching across a window boundary would leak schedule order into
//! output — and the SPAIN-style extra route tables of the §6 prototype
//! are not available. Fabrics whose routes forward *through* hosts
//! (e.g. BCube) are rejected at construction when a host link would
//! cross a domain boundary.
//!
//! Control-plane events deviate from the legacy engine in exactly one
//! documented way: a fault (or reroute) at time `t` applies before all
//! packet events at `t`, whereas the legacy engine interleaves them in
//! schedule order. The deviation is the same at every domain count.

use crate::arena::{PacketArena, PacketCold, PacketId};
use crate::core::{Arrival, Control, Core, Engine, Fabric};
use crate::faults::{FaultKind, FaultPlan};
use crate::sched::TimingWheel;
use crate::sim::{FaultRecord, FlowCompletion, FlowKind, LinkLoad, SimConfig};
use crate::stats::Stats;
use crate::time::SimTime;
use quartz_core::pool::{unit_seed, DomainCells, ThreadPool};
use quartz_core::rng::StdRng;
use quartz_obs::{Event, MetricsRegistry, Recorder};
use quartz_topology::graph::{LinkId, Network, NodeId, NodeKind};
use quartz_topology::partition::spatial_domains;
use quartz_topology::route::FlatRoutes;
use std::sync::Arc;

/// Rank bit of packet-arrival (`Head`) keys: arrivals sort after
/// generations (rank 0) and before retransmission timers.
const HEAD_RANK: u64 = 1 << 62;
/// Rank bit of retransmission-timer (`Rto`) keys: timers sort last
/// among same-time events.
const RTO_RANK: u64 = 1 << 63;

/// Canonical key of the `n`-th generation event of `flow` (rank 0).
#[inline]
fn gen_key(flow: u32, n: u32) -> u64 {
    (u64::from(flow) << 32) | u64::from(n)
}

/// Canonical key of the `seq`-th retransmission timer armed by `flow`.
#[inline]
fn rto_key(flow: u32, seq: u32) -> u64 {
    RTO_RANK | (u64::from(flow) << 32) | u64::from(seq)
}

/// The default injected clock: frozen at zero, so per-domain busy-time
/// profiling is free (and silent) unless a harness installs a real
/// monotonic source via [`ShardedSim::set_clock`].
fn zero_clock() -> u64 {
    0
}

/// A domain-local event. Unlike the legacy engine's `EvKind`, every
/// variant carries enough content to reconstruct its canonical
/// `(time, key)` position at dispatch (the scheduler returns only the
/// time), so sinks can stamp everything they stash with a
/// partition-independent merge key.
#[derive(Clone, Copy, Debug)]
enum DEv {
    /// Emit the `n`-th generation of `flow` (packet, burst, or window
    /// pump — `n` is the flow's generation counter, not a packet seq).
    Gen { flow: u32, n: u32 },
    /// Packet head arrives at `at`; tail follows `ser` ns later. The
    /// packet's canonical key lives in the arena sidecar (`pkey`).
    Head { pkt: PacketId, at: NodeId, ser: u32 },
    /// The one queued retransmission-timer event of `flow`. `seq` is
    /// the flow's arm counter when its timer was armed — the key
    /// component, advanced on every arm so keys stay unique.
    Rto { flow: u32, seq: u32 },
}

/// A packet crossing a domain boundary: everything the receiving shard
/// needs to re-materialize it in its own arena and schedule its next
/// arrival. `Copy`, about one cache line — outboxes are plain vectors.
#[derive(Clone, Copy, Debug)]
struct BoundaryMsg {
    /// Arrival time of the head at `at` (strictly beyond the window).
    arr_head: SimTime,
    /// The packet's canonical key (`pkey` sidecar value).
    key_lo: u64,
    /// Node the packet arrives at (owned by the receiving domain).
    at: NodeId,
    /// Serialization time of the inbound hop, ns (tail = head + ser).
    ser: u32,
    created: SimTime,
    dst: NodeId,
    flow: u32,
    size: u32,
    hash: u64,
    cold: PacketCold,
    /// Pre-drawn VLB randomness (coin as `f64::to_bits`, pick, spray).
    vcoin: u64,
    vpick: u64,
    vspray: u64,
}

/// One spatial domain's [`Engine`] hooks: a content-keyed timing wheel
/// plus the boundary outbox, per-flow RNG streams drawn at emission,
/// and merge-keyed trace/completion stashes. Per-flow rows are
/// full-size in every domain (only the owning side's domain advances
/// them), trading memory for branch-free indexing by flow id.
struct Domain {
    id: u32,
    dom_of: Arc<[u32]>,
    /// Whether packets pre-draw VLB randomness at emission.
    vlb: bool,
    wheel: TimingWheel<DEv>,
    /// Next generation-event ordinal (key component).
    gen_n: Vec<u32>,
    /// Per-flow retransmission-timer arm counter (key component),
    /// advanced on every arm.
    rto_emit: Vec<u32>,
    /// Per-flow emission counters, source / destination side (canonical
    /// packet-key components).
    src_emit: Vec<u32>,
    dst_emit: Vec<u32>,
    /// Per-flow private RNG streams, source / destination side.
    src_rng: Vec<StdRng>,
    dst_rng: Vec<StdRng>,
    /// Arena sidecars, parallel to the arena columns: the packet's
    /// canonical key and its pre-drawn VLB randomness.
    pkey: Vec<u64>,
    vcoin: Vec<u64>,
    vpick: Vec<u64>,
    vspray: Vec<u64>,
    /// Boundary packets bound for each peer domain, drained by the
    /// coordinator at every window edge.
    outbox: Vec<Vec<BoundaryMsg>>,
    /// Trace events keyed by the `(time, key, sub)` of the event that
    /// produced them; non-decreasing by construction (events dispatch
    /// in key order, `sub` counts records within one dispatch).
    trace_stash: Vec<(u64, u64, u32, Event)>,
    /// Flow completions, keyed like the trace stash.
    comp_stash: Vec<(u64, u64, FlowCompletion)>,
    trace_on: bool,
    /// Merge key of the event being dispatched.
    cur_t: u64,
    cur_key: u64,
    cur_sub: u32,
    /// Wall time spent inside `step_to`, by the injected clock.
    busy_ns: u64,
    clock: fn() -> u64,
}

/// One domain's complete simulation state.
type DomainSim = Core<Domain>;

impl Domain {
    fn new(id: u32, dom_of: Arc<[u32]>, vlb: bool, k: usize) -> Domain {
        Domain {
            id,
            dom_of,
            vlb,
            wheel: TimingWheel::new(),
            gen_n: Vec::new(),
            rto_emit: Vec::new(),
            src_emit: Vec::new(),
            dst_emit: Vec::new(),
            src_rng: Vec::new(),
            dst_rng: Vec::new(),
            pkey: Vec::new(),
            vcoin: Vec::new(),
            vpick: Vec::new(),
            vspray: Vec::new(),
            outbox: (0..k).map(|_| Vec::new()).collect(),
            trace_stash: Vec::new(),
            comp_stash: Vec::new(),
            trace_on: false,
            cur_t: 0,
            cur_key: 0,
            cur_sub: 0,
            busy_ns: 0,
            clock: zero_clock,
        }
    }

    /// Adds flow `i`'s key counters and RNG streams.
    fn push_flow(&mut self, i: u64, base_seed: u64) {
        self.gen_n.push(0);
        self.rto_emit.push(0);
        self.src_emit.push(0);
        self.dst_emit.push(0);
        self.src_rng
            .push(StdRng::seed_from_u64(unit_seed(base_seed, 2 * i)));
        self.dst_rng
            .push(StdRng::seed_from_u64(unit_seed(base_seed, 2 * i + 1)));
    }

    /// Grows the arena sidecar columns to cover every allocated slot.
    fn ensure_side_cols(&mut self, need: usize) {
        if self.pkey.len() < need {
            self.pkey.resize(need, 0);
            self.vcoin.resize(need, 0);
            self.vpick.resize(need, 0);
            self.vspray.resize(need, 0);
        }
    }

    /// Stashes a boundary crossing for the coordinator to deliver.
    fn stash_boundary(&mut self, dom: u32, m: BoundaryMsg) {
        self.outbox[dom as usize].push(m);
    }
}

impl Engine for Domain {
    /// Schedules the flow's next generation event at its canonical key.
    #[inline]
    fn schedule_gen(&mut self, flow_idx: usize, at: SimTime) {
        let n = self.gen_n[flow_idx];
        debug_assert!(n < u32::MAX, "generation counter fits u32");
        self.gen_n[flow_idx] = n + 1;
        debug_assert!(flow_idx < (1 << 29), "flow ids fit the key layout");
        let flow = flow_idx as u32;
        self.wheel
            .push_at_seq(at, gen_key(flow, n), DEv::Gen { flow, n });
    }

    #[inline]
    fn reserve_rto_key(&mut self, flow_idx: usize) -> u64 {
        debug_assert!(flow_idx < (1 << 29), "flow ids fit the key layout");
        let seq = self.rto_emit[flow_idx];
        debug_assert!(seq < u32::MAX, "timer counter fits u32");
        self.rto_emit[flow_idx] = seq + 1;
        rto_key(flow_idx as u32, seq)
    }

    #[inline]
    fn push_rto(&mut self, flow_idx: usize, at: SimTime, key: u64) {
        debug_assert!(flow_idx < (1 << 29), "flow ids fit the key layout");
        let flow = flow_idx as u32;
        debug_assert_eq!(key >> 32, rto_key(flow, 0) >> 32, "one of flow's keys");
        // The key's low word is the arm counter.
        let seq = key as u32;
        self.wheel.push_at_seq(at, key, DEv::Rto { flow, seq });
    }

    /// Queues the arrival on this domain's wheel, or hands the packet
    /// to the next hop's domain.
    // lint:hot
    #[inline]
    fn schedule_arrival(&mut self, arena: &mut PacketArena, a: Arrival) {
        let i = a.pkt as usize;
        let next_dom = self.dom_of[a.at.0 as usize];
        if next_dom != self.id {
            let m = BoundaryMsg {
                arr_head: a.head,
                key_lo: self.pkey[i],
                at: a.at,
                ser: a.ser,
                created: arena.created[i],
                dst: arena.dst[i],
                flow: arena.flow[i],
                size: arena.size[i],
                hash: arena.hash[i],
                cold: arena.cold[i],
                vcoin: self.vcoin[i],
                vpick: self.vpick[i],
                vspray: self.vspray[i],
            };
            self.stash_boundary(next_dom, m);
            arena.free(a.pkt);
            return;
        }
        let ev = DEv::Head {
            pkt: a.pkt,
            at: a.at,
            ser: a.ser,
        };
        self.wheel.push_at_seq(a.head, HEAD_RANK | self.pkey[i], ev);
    }

    /// Assigns a freshly allocated packet its canonical key and (when
    /// VLB is on) pre-draws its detour randomness from the emitting
    /// side's private stream.
    #[inline]
    fn on_emit(&mut self, arena: &PacketArena, id: PacketId, flow: u32, dst_side: bool) {
        self.ensure_side_cols(arena.capacity());
        let i = id as usize;
        let fi = flow as usize;
        let (dir, ctr) = if dst_side {
            (1u64, &mut self.dst_emit[fi])
        } else {
            (0u64, &mut self.src_emit[fi])
        };
        let c = *ctr;
        debug_assert!(c < u32::MAX, "emission counter fits u32");
        *ctr = c + 1;
        self.pkey[i] = (dir << 61) | (u64::from(flow) << 32) | u64::from(c);
        if self.vlb {
            let rng = if dst_side {
                &mut self.dst_rng[fi]
            } else {
                &mut self.src_rng[fi]
            };
            self.vcoin[i] = rng.random::<f64>().to_bits();
            self.vpick[i] = rng.next_u64();
            self.vspray[i] = rng.next_u64();
        }
    }

    #[inline]
    fn uniform(&mut self, flow: usize) -> f64 {
        self.src_rng[flow].random::<f64>()
    }

    #[inline]
    fn vlb_coin(&mut self, pkt: PacketId) -> f64 {
        f64::from_bits(self.vcoin[pkt as usize])
    }

    #[inline]
    fn vlb_pick(&mut self, pkt: PacketId, n: usize) -> usize {
        (self.vpick[pkt as usize] % n as u64) as usize
    }

    #[inline]
    fn vlb_spray(&mut self, pkt: PacketId) -> u64 {
        self.vspray[pkt as usize]
    }

    /// Stashes a trace event under the current dispatch's merge key.
    #[inline]
    fn record(&mut self, ev: Event) {
        if self.trace_on {
            let sub = self.cur_sub;
            self.cur_sub = sub + 1;
            self.trace_stash.push((self.cur_t, self.cur_key, sub, ev));
        }
    }

    #[inline]
    fn complete(&mut self, c: FlowCompletion) {
        self.comp_stash.push((self.cur_t, self.cur_key, c));
    }

    #[inline]
    fn routes<'a>(&'a self, default: &'a FlatRoutes, _flow: u32) -> &'a FlatRoutes {
        default
    }
}

impl Core<Domain> {
    /// Earliest pending event time in this domain, if any.
    fn next_event_time(&mut self) -> Option<SimTime> {
        self.eng.wheel.next_time()
    }

    /// Drains every event with `time <= bound` in `(time, key)` order.
    // lint:hot
    fn step_to(&mut self, bound: SimTime) {
        let t_in = (self.eng.clock)();
        while let Some((t, ev)) = self.eng.wheel.pop_before(bound) {
            self.events_processed += 1;
            self.dispatch(t, ev);
        }
        self.eng.busy_ns = self
            .eng
            .busy_ns
            .saturating_add((self.eng.clock)().saturating_sub(t_in));
    }

    /// Dispatches one event, reconstructing its canonical merge key
    /// from its content.
    // lint:hot
    fn dispatch(&mut self, t: SimTime, ev: DEv) {
        self.now = t;
        self.eng.cur_t = t.ns();
        self.eng.cur_sub = 0;
        match ev {
            DEv::Gen { flow, n } => {
                debug_assert_eq!(
                    self.eng.dom_of[self.flows[flow as usize].src.0 as usize], self.eng.id,
                    "generation runs in the source domain"
                );
                self.eng.cur_key = gen_key(flow, n);
                self.generate(flow as usize, t);
            }
            DEv::Head { pkt, at, ser } => {
                // Delivery, receiver state and forwarding all happen in
                // the domain owning the node.
                debug_assert_eq!(self.eng.dom_of[at.0 as usize], self.eng.id);
                self.eng.cur_key = HEAD_RANK | self.eng.pkey[pkt as usize];
                self.arrive(pkt, at, t, t + u64::from(ser));
            }
            DEv::Rto { flow, seq } => {
                let key = rto_key(flow, seq);
                self.eng.cur_key = key;
                self.on_rto(flow as usize, key, t);
            }
        }
    }

    /// Re-materializes a boundary packet in this domain's arena and
    /// schedules its arrival. Called by the coordinator between
    /// windows; the arrival time is provably beyond everything this
    /// domain has processed.
    // lint:hot
    fn deliver_boundary(&mut self, m: &BoundaryMsg) {
        debug_assert!(
            m.arr_head > self.now,
            "conservative lookahead violated: boundary event in the past"
        );
        let id = self
            .arena
            .alloc(m.created, m.dst, m.flow, m.size, m.hash, m.cold);
        let d = &mut self.eng;
        d.ensure_side_cols(self.arena.capacity());
        let i = id as usize;
        d.pkey[i] = m.key_lo;
        d.vcoin[i] = m.vcoin;
        d.vpick[i] = m.vpick;
        d.vspray[i] = m.vspray;
        let ev = DEv::Head {
            pkt: id,
            at: m.at,
            ser: m.ser,
        };
        d.wheel.push_at_seq(m.arr_head, HEAD_RANK | m.key_lo, ev);
    }
}

/// A control-plane transition applied at a window barrier.
#[derive(Clone, Copy, Debug)]
enum CtlKind {
    /// A fault (or recovery) hits the data plane.
    Fault(FaultKind),
    /// Control-plane reconvergence completes.
    Reroute,
}

/// The coordinator's control plane: the shared [`Control`] (route
/// table and fault log) plus the sorted timeline of fault/reroute
/// events. Control events apply *between* windows — every window is
/// bounded by the next control event's time, so a fault at `t` is
/// visible to every packet event at `t` or later, in every domain.
struct CtlPlane {
    ctl: Control,
    /// Time-sorted control events; `cursor` marks the applied prefix.
    events: Vec<(SimTime, CtlKind)>,
    cursor: usize,
    reconvergence_ns: Option<u64>,
    metrics: Option<MetricsRegistry>,
}

impl CtlPlane {
    /// Next unapplied control-event time, if any.
    fn next_time(&self) -> Option<SimTime> {
        self.events.get(self.cursor).map(|e| e.0)
    }

    /// Inserts a control event keeping the timeline sorted (upper
    /// bound: same-time events apply in insertion order, matching the
    /// legacy scheduler's behavior for a fault and its reconvergence).
    fn insert(&mut self, at: SimTime, kind: CtlKind) {
        let lo = self.cursor;
        let pos = lo + self.events[lo..].partition_point(|e| e.0 <= at);
        self.events.insert(pos, (at, kind));
    }

    /// Applies the control event at the cursor.
    fn apply_next(&mut self, sinks: &mut Sinks, cells: &DomainCells<'_, DomainSim>) {
        let (at, kind) = self.events[self.cursor];
        self.cursor += 1;
        let dropped: u64 = (0..cells.len()).map(|i| cells.lock(i).stats.dropped).sum();
        let ev = match kind {
            CtlKind::Fault(k) => {
                // Faults hit every domain's copy of the data plane.
                for i in 0..cells.len() {
                    cells.lock(i).set_fault_state(k);
                }
                if let Some(delay) = self.reconvergence_ns {
                    self.insert(at + delay, CtlKind::Reroute);
                }
                self.ctl.open(at, k, dropped, self.metrics.as_mut())
            }
            CtlKind::Reroute => {
                // Domain 0's live failure state checks the patch (it is
                // identical in all domains).
                let (flat, ev) = {
                    let d0 = cells.lock(0);
                    let metrics = self.metrics.as_mut();
                    self.ctl
                        .reroute(at, dropped, &d0.links, &d0.failed_nodes, metrics)
                };
                let flat = Arc::new(flat);
                for i in 0..cells.len() {
                    cells.lock(i).flat = Arc::clone(&flat);
                }
                ev
            }
        };
        sinks.record_ctl(ev);
    }
}

/// The coordinator's output sinks: the recorder, the merged completion
/// log, and the reusable buffers the window merge ping-pongs with the
/// domains (so the steady-state merge allocates nothing).
struct Sinks {
    recorder: Option<Box<dyn Recorder>>,
    completions: Vec<FlowCompletion>,
    msg_scratch: Vec<BoundaryMsg>,
    trace_bufs: Vec<Vec<(u64, u64, u32, Event)>>,
    comp_bufs: Vec<Vec<(u64, u64, FlowCompletion)>>,
    cursors: Vec<usize>,
}

impl Sinks {
    /// Records a coordinator-originated (control-plane) event.
    fn record_ctl(&mut self, ev: Event) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(&ev);
        }
    }

    /// Merges one window's outputs: boundary packets into their target
    /// wheels, then traces and completions into the global sinks in
    /// `(time, key)` order.
    fn merge_window(&mut self, cells: &DomainCells<'_, DomainSim>) {
        self.merge_boundary(cells);
        self.merge_traces(cells);
        self.merge_completions(cells);
    }

    /// Drains every domain's outboxes into the target domains' wheels.
    /// Delivery order is irrelevant to simulation output (events are
    /// keyed), but is fixed anyway: by receiving domain, then sender.
    // lint:hot
    fn merge_boundary(&mut self, cells: &DomainCells<'_, DomainSim>) {
        let k = cells.len();
        for dd in 0..k {
            for sd in 0..k {
                if sd == dd {
                    continue;
                }
                {
                    let mut src = cells.lock(sd);
                    std::mem::swap(&mut self.msg_scratch, &mut src.eng.outbox[dd]);
                }
                if !self.msg_scratch.is_empty() {
                    let mut dst = cells.lock(dd);
                    for m in &self.msg_scratch {
                        dst.deliver_boundary(m);
                    }
                    self.msg_scratch.clear();
                }
                {
                    let mut src = cells.lock(sd);
                    std::mem::swap(&mut self.msg_scratch, &mut src.eng.outbox[dd]);
                }
            }
        }
    }

    /// K-way merges the domains' trace stashes into the recorder by
    /// `(time, key, sub)`, ties to the lowest domain (only same-domain
    /// entries can tie, so any deterministic rule gives one order).
    // lint:hot
    fn merge_traces(&mut self, cells: &DomainCells<'_, DomainSim>) {
        let k = cells.len();
        for d in 0..k {
            let mut dom = cells.lock(d);
            std::mem::swap(&mut self.trace_bufs[d], &mut dom.eng.trace_stash);
            self.cursors[d] = 0;
        }
        if let Some(r) = self.recorder.as_deref_mut() {
            loop {
                let mut best: Option<(u64, u64, u32, usize)> = None;
                for d in 0..k {
                    if let Some(e) = self.trace_bufs[d].get(self.cursors[d]) {
                        let key = (e.0, e.1, e.2, d);
                        if best.is_none_or(|b| key < b) {
                            best = Some(key);
                        }
                    }
                }
                let Some((_, _, _, d)) = best else { break };
                r.record(&self.trace_bufs[d][self.cursors[d]].3);
                self.cursors[d] += 1;
            }
        }
        for d in 0..k {
            self.trace_bufs[d].clear();
            let mut dom = cells.lock(d);
            std::mem::swap(&mut self.trace_bufs[d], &mut dom.eng.trace_stash);
        }
    }

    /// K-way merges the domains' completion stashes into the global
    /// completion log (which grows once per flow — off the hot path).
    fn merge_completions(&mut self, cells: &DomainCells<'_, DomainSim>) {
        let k = cells.len();
        for d in 0..k {
            let mut dom = cells.lock(d);
            std::mem::swap(&mut self.comp_bufs[d], &mut dom.eng.comp_stash);
            self.cursors[d] = 0;
        }
        loop {
            let mut best: Option<(u64, u64, usize)> = None;
            for d in 0..k {
                if let Some(e) = self.comp_bufs[d].get(self.cursors[d]) {
                    let key = (e.0, e.1, d);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let Some((_, _, d)) = best else { break };
            self.completions.push(self.comp_bufs[d][self.cursors[d]].2);
            self.cursors[d] += 1;
        }
        for d in 0..k {
            self.comp_bufs[d].clear();
            let mut dom = cells.lock(d);
            std::mem::swap(&mut self.comp_bufs[d], &mut dom.eng.comp_stash);
        }
    }
}

/// The sharded simulation: `k` spatial domains advancing one simulation
/// under conservative lookahead. See the module docs for the windowing
/// and determinism arguments; [`ShardedSim::run`] drives the domains on
/// a [`ThreadPool`] (bit-identical output at any thread count,
/// including 1).
///
/// # Examples
///
/// ```
/// use quartz_core::pool::ThreadPool;
/// use quartz_netsim::shard::ShardedSim;
/// use quartz_netsim::sim::{FlowKind, SimConfig};
/// use quartz_netsim::time::SimTime;
/// use quartz_topology::builders::quartz_mesh;
///
/// let m = quartz_mesh(4, 2, 10.0, 10.0);
/// let mut sim = ShardedSim::new(m.net.clone(), SimConfig::default(), 2);
/// sim.add_flow(
///     m.hosts[0],
///     m.hosts[7],
///     400,
///     FlowKind::Rpc { count: 50 },
///     0,
///     SimTime::ZERO,
/// );
/// sim.run(SimTime::from_ms(10), &ThreadPool::sequential());
/// assert_eq!(sim.stats().summary(0).count, 50);
/// ```
pub struct ShardedSim {
    domains: Vec<DomainSim>,
    dom_of: Arc<[u32]>,
    net: Arc<Network>,
    lookahead: u64,
    ctl: CtlPlane,
    sinks: Sinks,
    merged: Stats,
    /// Construction-order RNG: one ECMP hash per `add_flow`, exactly
    /// like the legacy engine's add-time draws (so flow hashes match
    /// the legacy simulator under the same seed and add order).
    cons_rng: StdRng,
    seed: u64,
    clock: fn() -> u64,
    coord_ns: u64,
    flow_count: usize,
}

impl ShardedSim {
    /// Builds a sharded simulator over `net`, partitioned into (at
    /// most) `domains` spatial domains.
    ///
    /// # Panics
    /// Panics if any cross-domain link touches a host (relay-host
    /// fabrics and multi-homed hosts straddling a cut are not
    /// shardable), or if the lookahead bound would be zero (an ideal
    /// latency model with zero propagation delay cannot shard — run
    /// with `domains = 1`).
    pub fn new(net: Network, cfg: SimConfig, domains: usize) -> Self {
        let part = spatial_domains(&net, domains.max(1));
        let k = part.domains();
        let mut lookahead = u64::MAX;
        for (_slot, from, to) in part.cross_slots(&net) {
            let from_kind = net.node(from).kind;
            assert!(
                from_kind.is_switch() && net.node(to).kind.is_switch(),
                "cross-domain links must join switches; {from:?} -> {to:?} touches a host \
                 (relay-host fabrics are not shardable — use domains = 1)"
            );
            let NodeKind::Switch(role) = from_kind else {
                unreachable!("asserted switch above")
            };
            let hop = cfg.latency.spec_for(role).latency_ns + cfg.prop_delay_ns;
            lookahead = lookahead.min(hop);
        }
        if k > 1 {
            assert!(
                lookahead >= 1,
                "conservative lookahead needs >= 1 ns per cross-domain hop; this latency \
                 model has zero switch latency and zero propagation delay — run with domains = 1"
            );
        }
        let dom_of: Arc<[u32]> = part.domain_of().into();
        let fabric = Fabric::new(net, &cfg);
        let (ctl, flat) = Control::new(Arc::clone(&fabric.net));
        let flat = Arc::new(flat);
        debug_assert!(k <= u32::MAX as usize, "domain count fits u32");
        let doms: Vec<DomainSim> = (0..k)
            .map(|id| {
                let d = Domain::new(id as u32, Arc::clone(&dom_of), fabric.vlb_enabled, k);
                Core::new(&fabric, cfg.clone(), Arc::clone(&flat), d)
            })
            .collect();
        ShardedSim {
            domains: doms,
            dom_of,
            net: fabric.net,
            lookahead,
            ctl: CtlPlane {
                ctl,
                events: Vec::new(),
                cursor: 0,
                reconvergence_ns: cfg.reconvergence_ns,
                metrics: None,
            },
            sinks: Sinks {
                recorder: None,
                completions: Vec::new(),
                msg_scratch: Vec::new(),
                trace_bufs: (0..k).map(|_| Vec::new()).collect(),
                comp_bufs: (0..k).map(|_| Vec::new()).collect(),
                cursors: vec![0; k],
            },
            merged: Stats::default(),
            cons_rng: StdRng::seed_from_u64(cfg.seed),
            seed: cfg.seed,
            clock: zero_clock,
            coord_ns: 0,
            flow_count: 0,
        }
    }

    /// Registers a flow starting at `start`; returns its index. Flow
    /// hashes are drawn from a construction-order RNG seeded like the
    /// legacy engine's, so the same add order yields the same ECMP
    /// paths.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is not a host, they coincide, or more
    /// than 2²⁹ flows are registered (the canonical key layout).
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size_bytes: u32,
        kind: FlowKind,
        tag: u32,
        start: SimTime,
    ) -> usize {
        let idx = self.flow_count;
        assert!(idx < (1 << 29), "the sharded engine keys flows in 29 bits");
        self.flow_count += 1;
        let hash = self.cons_rng.random::<u64>();
        for d in &mut self.domains {
            d.add_flow(src, dst, size_bytes, kind, tag, start, hash);
            d.eng.push_flow(idx as u64, self.seed);
        }
        let src_dom = self.dom_of[src.0 as usize];
        self.domains[src_dom as usize].eng.schedule_gen(idx, start);
        idx
    }

    /// Schedules a fiber cut at `at` (both directions of `link` drop
    /// everything until recovery + reconvergence).
    pub fn fail_link_at(&mut self, link: LinkId, at: SimTime) {
        self.schedule_fault(FaultKind::LinkDown(link), at);
    }

    /// Schedules the death of switch `node` at `at`.
    ///
    /// # Panics
    /// Panics if `node` is not a switch.
    pub fn fail_switch_at(&mut self, node: NodeId, at: SimTime) {
        self.schedule_fault(FaultKind::SwitchDown(node), at);
    }

    /// Schedules every event of a [`FaultPlan`]. The sharded engine
    /// requires [`SimConfig::reconvergence_ns`] for routes to recover —
    /// there is no manual reroute call (reroutes are control events on
    /// the coordinator's timeline).
    ///
    /// # Panics
    /// Panics if the plan names an unknown link or a non-switch node.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.schedule_fault(ev.kind, ev.at);
        }
    }

    fn schedule_fault(&mut self, kind: FaultKind, at: SimTime) {
        self.ctl.ctl.check(kind);
        self.ctl.insert(at, CtlKind::Fault(kind));
    }

    /// Attaches an event recorder. The merged stream is identical at
    /// any domain count (the determinism contract).
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.sinks.recorder = Some(recorder);
        for d in &mut self.domains {
            d.eng.trace_on = true;
            d.obs = true;
        }
    }

    /// Detaches the recorder; drain or flush it via `Recorder::finish`.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        for d in &mut self.domains {
            d.eng.trace_on = false;
            d.obs = d.metrics.is_some();
        }
        self.sinks.recorder.take()
    }

    /// Enables metric collection in every domain plus the control
    /// plane; [`ShardedSim::take_metrics`] merges them.
    pub fn enable_metrics(&mut self) {
        if self.ctl.metrics.is_none() {
            self.ctl.metrics = Some(MetricsRegistry::new());
        }
        for d in &mut self.domains {
            if d.metrics.is_none() {
                d.metrics = Some(MetricsRegistry::new());
            }
            d.obs = true;
        }
    }

    /// Detaches and merges every registry (control plane first, then
    /// domains in index order). Counter and histogram merges are
    /// commutative, so the result is domain-count-independent.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        let mut out = self.ctl.metrics.take();
        for d in &mut self.domains {
            if let Some(m) = d.metrics.take() {
                match &mut out {
                    Some(o) => o.merge(&m),
                    None => out = Some(m),
                }
            }
            d.obs = d.eng.trace_on;
        }
        out
    }

    /// Injects a monotonic-clock source (nanoseconds) for per-domain
    /// busy-time profiling. The default clock is frozen at zero, which
    /// keeps the engine free of wall-clock reads; benches install
    /// `quartz_bench::timing::monotonic_ns`.
    pub fn set_clock(&mut self, clock: fn() -> u64) {
        self.clock = clock;
        for d in &mut self.domains {
            d.eng.clock = clock;
        }
    }

    /// Runs the simulation until `until` (events after it stay queued)
    /// on `pool`'s workers. Returns the merged statistics. Output is
    /// bit-identical for every `(domains, threads)` combination.
    pub fn run(&mut self, until: SimTime, pool: &ThreadPool) -> &Stats {
        let clock = self.clock;
        let lookahead = self.lookahead;
        let ctl = &mut self.ctl;
        let sinks = &mut self.sinks;
        let coord_ns = &mut self.coord_ns;
        let mut first = true;
        let doms = std::mem::take(&mut self.domains);
        let doms = pool.step_domains(
            doms,
            |d, b| d.step_to(SimTime::from_ns(b)),
            |cells| {
                let t_in = clock();
                let r = Self::coordinate(ctl, sinks, cells, until, lookahead, &mut first);
                *coord_ns = coord_ns.saturating_add(clock().saturating_sub(t_in));
                r
            },
        );
        self.domains = doms;
        #[cfg(debug_assertions)]
        {
            let quiescent = self
                .domains
                .iter_mut()
                .all(|d| d.next_event_time().is_none() && d.eng.outbox.iter().all(Vec::is_empty));
            if quiescent {
                for d in &self.domains {
                    debug_assert_eq!(
                        d.arena.live(),
                        0,
                        "packet arena leak in domain {} at quiescence",
                        d.eng.id
                    );
                }
            }
        }
        self.merged = Stats::default();
        for d in &self.domains {
            self.merged.merge(&d.stats);
        }
        &self.merged
    }

    /// One coordinator round: merge the finished window's outputs, then
    /// apply every control event due before the next packet event, then
    /// pick the next window bound (or end the run).
    fn coordinate(
        ctl: &mut CtlPlane,
        sinks: &mut Sinks,
        cells: &DomainCells<'_, DomainSim>,
        until: SimTime,
        lookahead: u64,
        first: &mut bool,
    ) -> Option<u64> {
        if *first {
            *first = false;
        } else {
            sinks.merge_window(cells);
        }
        loop {
            let mut next_ev: Option<u64> = None;
            for d in 0..cells.len() {
                if let Some(t) = cells.lock(d).next_event_time() {
                    let t = t.ns();
                    if next_ev.is_none_or(|b| t < b) {
                        next_ev = Some(t);
                    }
                }
            }
            let tc = ctl.next_time();
            if let Some(tc) = tc {
                // A control event due at or before the earliest packet
                // event applies now (fault-before-packet at equal
                // times — the engine's one documented deviation).
                if tc <= until && next_ev.is_none_or(|w| tc.ns() <= w) {
                    ctl.apply_next(sinks, cells);
                    continue;
                }
            }
            let w0 = next_ev?;
            if w0 > until.ns() {
                return None;
            }
            let mut bound = w0.saturating_add(lookahead - 1).min(until.ns());
            if let Some(tc) = tc {
                if tc <= until {
                    // Reachable only with tc > w0 (else the apply branch
                    // took it), so tc - 1 >= w0 and cannot underflow.
                    bound = bound.min(tc.ns() - 1);
                }
            }
            return Some(bound);
        }
    }

    /// Merged statistics from the last [`ShardedSim::run`].
    pub fn stats(&self) -> &Stats {
        &self.merged
    }

    /// Completion log for managed flows, in global `(time, key)` order
    /// (identical at any domain count).
    pub fn flow_completions(&self) -> &[FlowCompletion] {
        &self.sinks.completions
    }

    /// Every fault event that has fired, with reconvergence outcomes.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.ctl.ctl.fault_log
    }

    /// Total events processed across all domains.
    pub fn events_processed(&self) -> u64 {
        self.domains.iter().map(|d| d.events_processed).sum()
    }

    /// Events processed per domain (the load-balance profile).
    pub fn per_domain_events(&self) -> Vec<u64> {
        self.domains.iter().map(|d| d.events_processed).collect()
    }

    /// Wall time each domain spent stepping, by the injected clock
    /// (all zeros under the default frozen clock).
    pub fn domain_busy_ns(&self) -> Vec<u64> {
        self.domains.iter().map(|d| d.eng.busy_ns).collect()
    }

    /// Wall time the coordinator spent merging windows and picking
    /// bounds, by the injected clock.
    pub fn coordinator_ns(&self) -> u64 {
        self.coord_ns
    }

    /// The conservative lookahead bound `L`, ns (`u64::MAX` when no
    /// link crosses a domain boundary).
    pub fn lookahead_ns(&self) -> u64 {
        self.lookahead
    }

    /// Number of spatial domains actually in use.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Number of flows registered so far.
    pub fn flow_count(&self) -> usize {
        self.flow_count
    }

    /// The time of the most recently processed event in any domain.
    pub fn now(&self) -> SimTime {
        self.domains
            .iter()
            .map(|d| d.now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Whether any events remain queued in any domain.
    pub fn has_pending_events(&mut self) -> bool {
        self.domains
            .iter_mut()
            .any(|d| d.next_event_time().is_some())
    }

    /// Transmission statistics per link, summed across domains (each
    /// directed slot is only ever driven by its owning domain).
    pub fn link_loads(&self) -> Vec<LinkLoad> {
        let mut out = vec![LinkLoad::default(); self.net.link_count()];
        for d in &self.domains {
            d.add_link_loads(&mut out);
        }
        out
    }
}

/// Compile-time check: domains must be `Send` to cross worker threads.
#[doc(hidden)]
pub fn _assert_send() {
    fn is_send<T: Send>() {}
    is_send::<DomainSim>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use quartz_obs::MemoryRecorder;
    use quartz_topology::builders::{quartz_in_core, quartz_mesh};

    fn mesh_flows(sim_add: &mut dyn FnMut(NodeId, NodeId, u32, FlowKind, u32, SimTime)) {
        let m = quartz_mesh(4, 3, 10.0, 10.0);
        let h = &m.hosts;
        sim_add(
            h[0],
            h[7],
            400,
            FlowKind::Rpc { count: 40 },
            0,
            SimTime::ZERO,
        );
        sim_add(
            h[1],
            h[10],
            400,
            FlowKind::Burst {
                burst_pkts: 6,
                period_ns: 20_000,
                stop: SimTime::from_us(400),
            },
            1,
            SimTime::from_ns(500),
        );
        sim_add(
            h[4],
            h[11],
            1_000,
            FlowKind::FileTransfer {
                total_bytes: 40_000,
            },
            2,
            SimTime::from_us(1),
        );
        sim_add(
            h[5],
            h[2],
            1_000,
            FlowKind::Transport {
                total_bytes: 60_000,
                variant: crate::transport::TcpVariant::Dctcp,
            },
            3,
            SimTime::from_us(2),
        );
    }

    /// Per-tag stat rows: `(tag, count, mean bits, p99)`.
    type TagRows = Vec<(u32, usize, u64, u64)>;

    /// Digest of everything a run produces: stats bits, completions,
    /// and the recorded event stream.
    fn run_digest(k: usize, threads: usize) -> (TagRows, u64, Vec<(u32, u64)>, Vec<Event>) {
        let m = quartz_mesh(4, 3, 10.0, 10.0);
        let cfg = SimConfig {
            ecn_threshold_bytes: Some(30_000),
            ..SimConfig::default()
        };
        let mut sim = ShardedSim::new(m.net.clone(), cfg, k);
        sim.set_recorder(Box::new(MemoryRecorder::new()));
        let mut add = |src, dst, size, kind, tag, start| {
            sim.add_flow(src, dst, size, kind, tag, start);
        };
        mesh_flows(&mut add);
        let pool = ThreadPool::new(threads);
        sim.run(SimTime::from_ms(5), &pool);
        let stats = sim.stats();
        let rows: Vec<(u32, usize, u64, u64)> = stats
            .tags()
            .into_iter()
            .map(|t| {
                let s = stats.summary(t);
                (t, s.count, s.mean_ns.to_bits(), s.p99_ns)
            })
            .collect();
        let lifecycle = stats.generated ^ (stats.delivered << 20) ^ (stats.dropped << 40);
        let comps: Vec<(u32, u64)> = sim
            .flow_completions()
            .iter()
            .map(|c| (c.flow, c.fct_ns))
            .collect();
        let rec = sim.take_recorder().expect("recorder attached");
        let events = rec.finish();
        (rows, lifecycle, comps, events)
    }

    #[test]
    fn domain_count_does_not_change_output() {
        let base = run_digest(1, 1);
        for (k, threads) in [(2, 1), (2, 2), (4, 2), (4, 4)] {
            let other = run_digest(k, threads);
            assert_eq!(base.0, other.0, "stats diverge at k={k}");
            assert_eq!(base.1, other.1, "lifecycle counters diverge at k={k}");
            assert_eq!(base.2, other.2, "completions diverge at k={k}");
            assert_eq!(base.3, other.3, "event stream diverges at k={k}");
        }
    }

    #[test]
    fn single_domain_matches_legacy_on_rng_free_workloads() {
        // RPC + FileTransfer + Transport draw no mid-run randomness, and
        // flow hashes come from the same construction-order RNG, so the
        // sharded engine at k = 1 must agree with the legacy engine
        // sample for sample.
        let m = quartz_mesh(4, 2, 10.0, 10.0);
        let mut legacy = Simulator::new(m.net.clone(), SimConfig::default());
        let mut sharded = ShardedSim::new(m.net.clone(), SimConfig::default(), 1);
        for (src, dst, size, kind, tag) in [
            (
                m.hosts[0],
                m.hosts[5],
                400,
                FlowKind::Rpc { count: 30 },
                0u32,
            ),
            (
                m.hosts[1],
                m.hosts[6],
                1_000,
                FlowKind::FileTransfer {
                    total_bytes: 25_000,
                },
                1,
            ),
            (
                m.hosts[2],
                m.hosts[7],
                1_000,
                FlowKind::Transport {
                    total_bytes: 50_000,
                    variant: crate::transport::TcpVariant::Reno,
                },
                2,
            ),
        ] {
            legacy.add_flow(src, dst, size, kind, tag, SimTime::ZERO);
            sharded.add_flow(src, dst, size, kind, tag, SimTime::ZERO);
        }
        legacy.run(SimTime::from_ms(5));
        sharded.run(SimTime::from_ms(5), &ThreadPool::sequential());
        for tag in [0u32, 1, 2] {
            let a = legacy.stats().summary(tag);
            let b = sharded.stats().summary(tag);
            assert_eq!(a.count, b.count, "tag {tag} count");
            assert_eq!(a.mean_ns.to_bits(), b.mean_ns.to_bits(), "tag {tag} mean");
        }
        assert_eq!(legacy.stats().generated, sharded.stats().generated);
        assert_eq!(legacy.stats().delivered, sharded.stats().delivered);
        assert_eq!(
            legacy.flow_completions().len(),
            sharded.flow_completions().len()
        );
        for (a, b) in legacy
            .flow_completions()
            .iter()
            .zip(sharded.flow_completions())
        {
            assert_eq!(a, b, "completion logs diverge");
        }
    }

    #[test]
    fn faults_and_reconvergence_are_domain_count_invariant() {
        let digest = |k: usize| {
            let m = quartz_mesh(6, 2, 10.0, 10.0);
            let cfg = SimConfig {
                reconvergence_ns: Some(50_000),
                ..SimConfig::default()
            };
            let mut sim = ShardedSim::new(m.net.clone(), cfg, k);
            for i in 0..6 {
                sim.add_flow(
                    m.hosts[i],
                    m.hosts[(i + 5) % 12],
                    400,
                    FlowKind::Rpc { count: 60 },
                    i as u32,
                    SimTime::ZERO,
                );
            }
            // Cut a ring channel mid-run.
            let l = m
                .net
                .link_between(m.switches[0], m.switches[3])
                .expect("mesh channel exists");
            sim.fail_link_at(l, SimTime::from_us(30));
            sim.run(SimTime::from_ms(4), &ThreadPool::sequential());
            let log: Vec<(u64, Option<u64>, u64)> = sim
                .fault_log()
                .iter()
                .map(|r| {
                    (
                        r.at.ns(),
                        r.reconverged_at.map(|t| t.ns()),
                        r.drops_during_outage,
                    )
                })
                .collect();
            let s = sim.stats();
            (log, s.generated, s.delivered, s.dropped)
        };
        let base = digest(1);
        assert_eq!(base, digest(2));
        assert_eq!(base, digest(4));
        assert_eq!(base, digest(6));
    }

    #[test]
    fn vlb_detours_are_domain_count_invariant() {
        let digest = |k: usize| {
            let m = quartz_mesh(6, 2, 10.0, 10.0);
            let cfg = SimConfig {
                vlb: Some(crate::sim::VlbConfig {
                    fraction: 0.5,
                    domains: vec![m.switches.clone()],
                }),
                ..SimConfig::default()
            };
            let mut sim = ShardedSim::new(m.net.clone(), cfg, k);
            for i in 0..4 {
                sim.add_flow(
                    m.hosts[i],
                    m.hosts[11 - i],
                    400,
                    FlowKind::Burst {
                        burst_pkts: 4,
                        period_ns: 10_000,
                        stop: SimTime::from_us(300),
                    },
                    i as u32,
                    SimTime::ZERO,
                );
            }
            sim.run(SimTime::from_ms(2), &ThreadPool::sequential());
            let s = sim.stats();
            (
                s.generated,
                s.delivered,
                s.tags()
                    .into_iter()
                    .map(|t| s.summary(t).mean_ns.to_bits())
                    .collect::<Vec<_>>(),
            )
        };
        let base = digest(1);
        assert_eq!(base, digest(2));
        assert_eq!(base, digest(6));
    }

    #[test]
    fn composite_partitions_and_runs_sharded() {
        let c = quartz_in_core(3, 4, 2, 4);
        let mut sim = ShardedSim::new(c.net.clone(), SimConfig::default(), 4);
        assert!(sim.domain_count() >= 2, "composite splits into domains");
        assert!(sim.lookahead_ns() >= 1);
        let n = c.hosts.len();
        for i in 0..8 {
            sim.add_flow(
                c.hosts[i],
                c.hosts[(i + n / 2) % n],
                400,
                FlowKind::Rpc { count: 25 },
                0,
                SimTime::ZERO,
            );
        }
        sim.run(SimTime::from_ms(10), &ThreadPool::new(2));
        assert_eq!(sim.stats().summary(0).count, 8 * 25);
        assert!(sim.events_processed() > 0);
        let per = sim.per_domain_events();
        assert_eq!(per.len(), sim.domain_count());
        assert!(per.iter().copied().sum::<u64>() >= sim.stats().generated);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn zero_lookahead_is_rejected() {
        let m = quartz_mesh(4, 2, 10.0, 10.0);
        let cfg = SimConfig {
            prop_delay_ns: 0,
            latency: crate::switch::LatencyModel::ideal(),
            ..SimConfig::default()
        };
        let _ = ShardedSim::new(m.net.clone(), cfg, 2);
    }
}
