//! The simulation engine: spatial domains under conservative lookahead
//! (DESIGN.md §13).
//!
//! [`ShardedSim`] runs **one** simulation across `k` spatial domains
//! produced by [`quartz_topology::partition::spatial_domains`]. Each
//! domain owns a contiguous region of the network — its switches and
//! its hosts — and runs its own copy of the per-packet core (`core`),
//! with a private [`TimingWheel`] and [`PacketArena`] shard. Each copy
//! holds link rows only for the directed slots whose *source* node it
//! owns, and a full-size flow table of which it advances only the
//! per-flow state of the flow ends it hosts. [`crate::sim::Simulator`]
//! is this engine at `k = 1`. Domains advance independently inside a
//! window `[W0, B]` whose upper bound is derived from the slowest-safe
//! lower bound
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
//! the fabric's own switch latency and propagation delay. With one
//! domain nothing crosses (`L = ∞`), so a run is one window per
//! control event.
//!
//! ## Boundary exchange
//!
//! A packet forwarded to a node of another domain leaves its arena as
//! one row ([`PacketArena::take`]) and is stashed, as a `BoundaryMsg`,
//! in the sender's outbox for that peer; the sender also lists the
//! peers its outboxes hold messages for. At the window edge the coordinator makes one pass over the
//! domains: it moves each listed outbox into its receiver's inbox
//! (`Vec::append`, keeping the earliest arrival time), gathers the
//! trace and completion stashes, and takes the earliest pending event
//! time, wheels and mailboxes alike, which bounds the next window. The
//! receiving domain re-materializes its inbox at the start of its own
//! next step, on its own worker. The coordinator's cost is therefore
//! one visit per domain plus one per non-empty outbox, not one per
//! domain pair, and no packet is rebuilt on the coordinator. A run
//! that ends leaves the last window's messages in the inboxes; they
//! count as pending events and are delivered when the next run steps.
//!
//! ## Determinism
//!
//! The engine is **bit-identical at any domain count** (and any worker
//! count). Three mechanisms make that hold:
//!
//! 1. **Content-derived event keys.** Every event carries a canonical
//!    key computed from its content (an execution-order sequence number
//!    would be meaningless across shards): generation events sort
//!    before packet arrivals before retransmission timers, and within
//!    each class by flow id and a per-flow emission counter. The global
//!    `(time, key)` order is therefore a property of the *simulation*,
//!    not of the schedule that produced it.
//! 2. **Order-independent randomness.** Each flow owns two private RNG
//!    streams ([`quartz_core::pool::unit_seed`]`(seed, 2·flow)` for its
//!    source side, `2·flow + 1` for its destination side), kept in the
//!    core's flow table; VLB decisions are pre-drawn at emission from
//!    the emitting side's stream and carried in the packet's arena row.
//!    No RNG is ever shared across domains, so draw order cannot depend
//!    on the partition.
//! 3. **Merge-order-stable sinks.** Domains stash trace events and
//!    flow completions keyed by the `(time, key)` of the event that
//!    produced them; at every window edge the coordinator merges the
//!    trace stashes into the recorder and the completion stashes into
//!    the completion log, so both are identical at `k = 1, 2, …, N`
//!    ([`quartz_obs::Stamped`]). A single domain records straight to the
//!    recorder: its dispatch order already is the global order, and its
//!    window can span the whole run. Metrics are a fold of the recorded
//!    events (`crate::metrics`), kept per domain with the control
//!    plane's folded into domain 0's; counters add and histograms merge
//!    bucket-wise, so the merged result is the same at every `k`.
//!
//! ## Scope
//!
//! The engine supports all five [`FlowKind`]s, ECN marking, Reno/DCTCP
//! transport, VLB detours, the SPAIN-style extra route tables of the §6
//! prototype, live faults with automatic or manual reconvergence, and
//! the full observability surface. Every packet arrival is one `Head`
//! event, whether it stays in its domain or crosses into another.
//! Fabrics whose routes forward *through* hosts (e.g. BCube) are
//! rejected at construction when a host link would cross a domain
//! boundary.
//!
//! A control-plane event (fault or reroute) at time `t` applies before
//! every packet event at `t`, at every domain count. The control plane
//! keeps the fault log but no route table: a reroute that resolves a
//! fault builds the routes from scratch over the live failure state and
//! hands every domain the same flat table, and one that resolves none
//! keeps the installed table.

use crate::arena::{Packet, PacketArena, PacketId};
use crate::core::{Arrival, Core, Fabric};
use crate::faults::{FaultError, FaultKind, FaultPlan};
use crate::metrics::EngineMetrics;
use crate::sched::TimingWheel;
use crate::sim::{FaultRecord, FlowCompletion, FlowKind, LinkLoad, PinError, SimConfig};
use crate::stats::Stats;
use crate::time::SimTime;
use quartz_core::pool::{DomainCells, ThreadPool};
use quartz_core::rng::StdRng;
use quartz_obs::{Event, MetricsRegistry, Recorder, Stamped};
use quartz_topology::graph::{Network, NodeId, NodeKind};
use quartz_topology::partition::spatial_domains;
use quartz_topology::route::{FlatRoutes, RouteError, RouteTable};
use std::fmt;
use std::sync::Arc;

// The canonical key layout, the one place it is written down: a rank in
// bits 62–63, the packet side in bit 61, the flow id in bits 32–60
// (`add_flow` admits 2²⁹ flows), and a per-flow counter in the low word.

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

/// Canonical key of every arrival of the `n`-th packet `flow` emits
/// from its source side, or from its destination side when `reverse`
/// (bit 61).
#[inline]
pub(crate) fn packet_key(flow: u32, reverse: bool, n: u32) -> u64 {
    HEAD_RANK | (u64::from(reverse) << 61) | (u64::from(flow) << 32) | u64::from(n)
}

/// Canonical key of the `seq`-th retransmission timer armed by `flow`.
#[inline]
pub(crate) fn rto_key(flow: u32, seq: u32) -> u64 {
    RTO_RANK | (u64::from(flow) << 32) | u64::from(seq)
}

/// The default injected clock: frozen at zero, so per-domain busy-time
/// profiling is free (and silent) unless a harness installs a real
/// monotonic source via [`ShardedSim::set_clock`].
fn zero_clock() -> u64 {
    0
}

/// A domain-local event. Every variant carries enough content to
/// reconstruct its canonical `(time, key)` position at dispatch (the
/// scheduler returns only the time), so sinks can stamp everything they
/// stash with a partition-independent merge key.
#[derive(Clone, Copy, Debug)]
enum DEv {
    /// Emit the `n`-th generation of `flow` (packet, burst, or window
    /// pump — `n` is the flow's generation counter, not a packet seq).
    Gen { flow: u32, n: u32 },
    /// Packet head arrives at `at`; tail follows `ser` ns later. The
    /// packet's canonical key lives in its arena row.
    Head { pkt: PacketId, at: NodeId, ser: u32 },
    /// The one queued retransmission-timer event of `flow`. `seq` is
    /// the flow's arm counter when its timer was armed — the key
    /// component, advanced on every arm so keys stay unique.
    Rto { flow: u32, seq: u32 },
}

/// A packet crossing a domain boundary: its next arrival plus its whole
/// arena row, which the receiving shard allocates in its own arena.
/// `Copy`, 112 bytes (pinned by a unit test) — mailboxes are plain
/// vectors.
#[derive(Clone, Copy, Debug)]
struct BoundaryMsg {
    /// Arrival time of the head at `at` (strictly beyond the window).
    head: SimTime,
    /// Node the packet arrives at (owned by the receiving domain).
    at: NodeId,
    /// Serialization time of the inbound hop, ns (tail = head + ser).
    ser: u32,
    /// The packet's arena row.
    pkt: Packet,
}

/// Boundary packets in transit, with the earliest arrival among them
/// (`u64::MAX` when empty) so a window bound never scans the messages.
struct Mailbox {
    msgs: Vec<BoundaryMsg>,
    first: u64,
}

impl Default for Mailbox {
    fn default() -> Mailbox {
        Mailbox {
            msgs: Vec::new(),
            first: u64::MAX,
        }
    }
}

impl Mailbox {
    /// Adds `m`, keeping the earliest arrival.
    fn push(&mut self, m: BoundaryMsg) {
        self.first = self.first.min(m.head.ns());
        self.msgs.push(m);
    }

    /// Moves every message of `other` here, leaving it empty (its
    /// allocation stays with it for the next window).
    fn append(&mut self, other: &mut Mailbox) {
        self.first = self.first.min(other.first);
        other.first = u64::MAX;
        self.msgs.append(&mut other.msgs);
    }
}

/// How one spatial domain runs — what the shared core calls out to: a
/// content-keyed timing wheel, the boundary mailboxes, the metrics,
/// trace and completion sinks, and the injected clock. Packets and
/// flows keep their rows in the core; nothing here is indexed by packet
/// or flow id.
pub(crate) struct Domain {
    id: u32,
    dom_of: Arc<[u32]>,
    wheel: TimingWheel<DEv>,
    /// Boundary packets bound for each peer domain, handed to the
    /// peers' inboxes by the coordinator at every window edge.
    outbox: Vec<Mailbox>,
    /// The peers whose outboxes are non-empty, in first-stash order.
    peers: Vec<u32>,
    /// Boundary packets handed to this domain at the last window edge,
    /// re-materialized at the start of its next step.
    inbox: Mailbox,
    /// The metrics fold every event this domain records passes through.
    metrics: Option<EngineMetrics>,
    /// The recorder, held by domain 0 at every domain count. With one
    /// domain, recorded events go straight to it.
    recorder: Option<Box<dyn Recorder>>,
    /// Whether events are stashed for the coordinator's merge instead:
    /// a recorder is attached and there is more than one domain.
    stash: bool,
    /// Whether a metrics fold or a recorder is attached: one load gates
    /// every record site.
    obs: bool,
    /// Trace events stamped with the `(time, key)` of the event that
    /// produced them, in record order; non-decreasing by construction
    /// (events dispatch in key order).
    trace_stash: Stamped<Event>,
    /// Flow completions, stamped like the trace stash.
    comp_stash: Stamped<FlowCompletion>,
    /// Merge key of the event being dispatched.
    cur_t: u64,
    cur_key: u64,
    /// Wall time spent inside `step_to`, by the injected clock.
    busy_ns: u64,
    clock: fn() -> u64,
}

impl Domain {
    fn new(id: u32, dom_of: Arc<[u32]>, k: usize) -> Domain {
        Domain {
            id,
            dom_of,
            wheel: TimingWheel::new(),
            outbox: (0..k).map(|_| Mailbox::default()).collect(),
            peers: Vec::new(),
            inbox: Mailbox::default(),
            metrics: None,
            recorder: None,
            stash: false,
            obs: false,
            trace_stash: Stamped::default(),
            comp_stash: Stamped::default(),
            cur_t: 0,
            cur_key: 0,
            busy_ns: 0,
            clock: zero_clock,
        }
    }

    /// Whether `node` belongs to this domain.
    #[inline]
    pub(crate) fn owns(&self, node: NodeId) -> bool {
        self.dom_of[node.0 as usize] == self.id
    }

    /// Stashes a boundary crossing for the coordinator to hand to
    /// domain `dom`.
    fn stash_boundary(&mut self, dom: u32, m: BoundaryMsg) {
        let out = &mut self.outbox[dom as usize];
        if out.msgs.is_empty() {
            self.peers.push(dom);
        }
        out.push(m);
    }

    /// Queues the `n`-th generation event of `flow` at its canonical
    /// key.
    #[inline]
    pub(crate) fn push_gen(&mut self, flow_idx: usize, n: u32, at: SimTime) {
        debug_assert!(flow_idx < (1 << 29), "flow ids fit the key layout");
        let flow = flow_idx as u32;
        self.wheel
            .push_at_seq(at, gen_key(flow, n), DEv::Gen { flow, n });
    }

    /// Queues `flow`'s one timer event at `(at, key)`, a key from
    /// [`rto_key`].
    #[inline]
    pub(crate) fn push_rto(&mut self, flow_idx: usize, at: SimTime, key: u64) {
        debug_assert!(flow_idx < (1 << 29), "flow ids fit the key layout");
        let flow = flow_idx as u32;
        debug_assert_eq!(key >> 32, rto_key(flow, 0) >> 32, "one of flow's keys");
        // The key's low word is the arm counter.
        let seq = key as u32;
        self.wheel.push_at_seq(at, key, DEv::Rto { flow, seq });
    }

    /// Queues a forwarded packet's arrival: hands its row to the next
    /// hop's domain or queues its `Head` event. The packet's arena row
    /// is final.
    // lint:hot
    #[inline]
    pub(crate) fn schedule_arrival(&mut self, arena: &mut PacketArena, a: Arrival) {
        let next_dom = self.dom_of[a.at.0 as usize];
        if next_dom != self.id {
            let m = BoundaryMsg {
                head: a.head,
                at: a.at,
                ser: a.ser,
                pkt: arena.take(a.pkt),
            };
            self.stash_boundary(next_dom, m);
            return;
        }
        let key = arena.key[a.pkt as usize];
        self.push_head(a.head, key, a.pkt, a.at, a.ser);
    }

    /// Queues packet `pkt`'s arrival at `at` at `(head, key)`.
    #[inline]
    fn push_head(&mut self, head: SimTime, key: u64, pkt: PacketId, at: NodeId, ser: u32) {
        self.wheel
            .push_at_seq(head, key, DEv::Head { pkt, at, ser });
    }

    /// Records one engine event, built only when observing: folds it
    /// into the metrics, then stashes it under the current dispatch's
    /// merge key or hands it straight to the recorder.
    #[inline]
    pub(crate) fn record(&mut self, ev: impl FnOnce() -> Event) {
        if !self.obs {
            return;
        }
        let ev = ev();
        if let Some(m) = &mut self.metrics {
            m.observe(&ev);
        }
        if self.stash {
            self.trace_stash.push(self.cur_t, self.cur_key, ev);
        } else if let Some(r) = &mut self.recorder {
            r.record(&ev);
        }
    }

    /// Logs a managed flow's completion under the current merge key.
    #[inline]
    pub(crate) fn complete(&mut self, c: FlowCompletion) {
        self.comp_stash.push(self.cur_t, self.cur_key, c);
    }
}

impl Core {
    /// Earliest pending event time in this domain, ns (`u64::MAX` when
    /// none): its wheel's next event or its inbox's earliest arrival.
    fn next_event_ns(&mut self) -> u64 {
        let wheel = self.eng.wheel.next_time().map_or(u64::MAX, SimTime::ns);
        wheel.min(self.eng.inbox.first)
    }

    /// Delivers the inbox, then drains every event with `time <= bound`
    /// in `(time, key)` order, stopping early — right after an event —
    /// once `stop` holds.
    // lint:hot
    fn step_to(&mut self, bound: SimTime, stop: &impl Fn(&Core) -> bool) {
        let t_in = (self.eng.clock)();
        if !self.eng.inbox.msgs.is_empty() {
            self.deliver_inbox();
        }
        while !stop(self) {
            let Some((t, ev)) = self.eng.wheel.pop_before(bound) else {
                break;
            };
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
        match ev {
            DEv::Gen { flow, n } => {
                debug_assert!(
                    self.eng.owns(self.flows[flow as usize].src),
                    "generation runs in the source domain"
                );
                self.begin(t, gen_key(flow, n));
                self.generate(flow as usize, t);
            }
            DEv::Head { pkt, at, ser } => self.head(pkt, at, t, t + u64::from(ser)),
            DEv::Rto { flow, seq } => {
                let key = rto_key(flow, seq);
                self.begin(t, key);
                self.on_rto(flow as usize, key, t);
            }
        }
    }

    /// Sets the clock and the merge key for the event about to run.
    #[inline]
    fn begin(&mut self, t: SimTime, key: u64) {
        self.now = t;
        self.eng.cur_t = t.ns();
        self.eng.cur_key = key;
    }

    /// Packet `pkt`'s head reaches `at` at `head` (tail at `tail`).
    /// Delivery, receiver state and forwarding all happen in the domain
    /// owning the node.
    // lint:hot
    #[inline]
    fn head(&mut self, pkt: PacketId, at: NodeId, head: SimTime, tail: SimTime) {
        debug_assert!(self.eng.owns(at));
        self.begin(head, self.arena.key[pkt as usize]);
        self.arrive(pkt, at, head, tail);
    }

    /// Re-materializes every boundary packet of the inbox, in hand-off
    /// order (irrelevant to the output: events are keyed), and empties
    /// it, keeping its allocation.
    // lint:hot
    fn deliver_inbox(&mut self) {
        let mut inbox = std::mem::take(&mut self.eng.inbox);
        for m in &inbox.msgs {
            self.deliver_boundary(m);
        }
        inbox.msgs.clear();
        inbox.first = u64::MAX;
        self.eng.inbox = inbox;
    }

    /// Re-materializes a boundary packet in this domain's arena and
    /// schedules its arrival. Runs at the start of the receiving
    /// domain's step; the arrival time is provably beyond everything
    /// this domain has processed.
    // lint:hot
    fn deliver_boundary(&mut self, m: &BoundaryMsg) {
        debug_assert!(
            m.head > self.now,
            "conservative lookahead violated: boundary event in the past"
        );
        let id = self.arena.alloc(m.pkt);
        self.eng.push_head(m.head, m.pkt.key, id, m.at, m.ser);
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

/// The coordinator's control plane: the fault log and the sorted
/// timeline of fault/reroute events. It keeps no route table: a reroute
/// that resolves a fault builds the routes from the data plane's live
/// failure state ([`Core::live_routes`]). Control events apply
/// *between* windows — every window is bounded by the next control
/// event's time, so a fault at `t` is visible to every packet event at
/// `t` or later, in every domain.
struct CtlPlane {
    /// Every fault event that has fired, with reconvergence outcomes.
    fault_log: Vec<FaultRecord>,
    /// Time-sorted control events; `cursor` marks the applied prefix.
    events: Vec<(SimTime, CtlKind)>,
    cursor: usize,
    reconvergence_ns: Option<u64>,
}

impl CtlPlane {
    /// Next unapplied control-event time, if any.
    fn next_time(&self) -> Option<SimTime> {
        self.events.get(self.cursor).map(|e| e.0)
    }

    /// Inserts a control event keeping the timeline sorted (upper
    /// bound: same-time events apply in insertion order, so a fault
    /// applies before the reconvergence it schedules).
    fn insert(&mut self, at: SimTime, kind: CtlKind) {
        let lo = self.cursor;
        let pos = lo + self.events[lo..].partition_point(|e| e.0 <= at);
        self.events.insert(pos, (at, kind));
    }

    /// Applies the control event at the cursor.
    fn apply_next(&mut self, cells: &DomainCells<'_, Core>) {
        let (at, kind) = self.events[self.cursor];
        self.cursor += 1;
        self.apply(at, kind, cells);
    }

    /// Applies one control event at `at` to every domain, and records
    /// it after everything recorded so far: folded into domain 0's
    /// metrics and, at every domain count, straight to the recorder.
    fn apply(&mut self, at: SimTime, kind: CtlKind, cells: &DomainCells<'_, Core>) {
        let dropped: u64 = (0..cells.len()).map(|i| cells.lock(i).stats.dropped).sum();
        let ev = match kind {
            CtlKind::Fault(k) => {
                // Faults hit every domain's copy of the data plane.
                for i in 0..cells.len() {
                    cells.lock(i).set_fault_state(k);
                }
                // A reroute past the end of the clock never happens:
                // the record stays open.
                if let Some(t) = self.reconvergence_ns.and_then(|d| at.ns().checked_add(d)) {
                    self.insert(SimTime::from_ns(t), CtlKind::Reroute);
                }
                self.open(at, k, dropped)
            }
            CtlKind::Reroute => {
                let resolved = self.close(at, dropped);
                // Every reroute closes every open record, so the open
                // ones are the faults since the last reroute: with none,
                // the installed routes are still current.
                if resolved > 0 {
                    // Domain 0's live failure state is every domain's.
                    let flat = Arc::new(cells.lock(0).live_routes());
                    for i in 0..cells.len() {
                        cells.lock(i).flat = Arc::clone(&flat);
                    }
                }
                Event::Reroute {
                    t_ns: at.ns(),
                    resolved,
                }
            }
        };
        let d0 = &mut cells.lock(0).eng;
        if let Some(m) = &mut d0.metrics {
            m.observe(&ev);
        }
        if let Some(r) = &mut d0.recorder {
            r.record(&ev);
        }
    }

    /// Opens a log record for a fault that just hit the data plane at
    /// `at`, with `dropped` packets lost so far. Returns its trace
    /// event.
    fn open(&mut self, at: SimTime, kind: FaultKind, dropped: u64) -> Event {
        self.fault_log.push(FaultRecord {
            at,
            kind,
            reconverged_at: None,
            drops_during_outage: 0,
            baseline_drops: dropped,
        });
        let (kind_str, element) = match kind {
            FaultKind::LinkDown(l) => ("link_down", l.0),
            FaultKind::LinkUp(l) => ("link_up", l.0),
            FaultKind::SwitchDown(n) => ("switch_down", n.0),
            FaultKind::SwitchUp(n) => ("switch_up", n.0),
        };
        Event::Fault {
            t_ns: at.ns(),
            kind: kind_str,
            element,
        }
    }

    /// Closes every open fault record as reconverged at `at`, with
    /// `dropped` packets lost so far; returns how many it closed.
    fn close(&mut self, at: SimTime, dropped: u64) -> u32 {
        let mut resolved = 0;
        for r in self.fault_log.iter_mut().rev() {
            if r.reconverged_at.is_some() {
                break;
            }
            r.reconverged_at = Some(at);
            r.drops_during_outage = dropped - r.baseline_drops;
            resolved += 1;
        }
        resolved
    }
}

/// The coordinator's output sinks: the merged completion log and the
/// window edge's reusable buffers (the domains' stashes gather in
/// `trace_buf` and `comp_buf`).
struct Sinks {
    completions: Vec<FlowCompletion>,
    trace_buf: Stamped<Event>,
    comp_buf: Stamped<FlowCompletion>,
}

/// What one window edge found across the domains.
struct Edge {
    /// The earliest pending event time, ns (`u64::MAX` when none).
    next_ns: u64,
    /// Boundary messages handed to their receivers.
    handed: u64,
}

impl Sinks {
    /// Closes one window: [`Sinks::sweep`], then the completions into
    /// the completion log in `(time, key)` order.
    fn end_window(&mut self, cells: &DomainCells<'_, Core>) -> Edge {
        let edge = self.sweep(cells);
        // The completion log grows once per flow — off the hot path.
        let log = &mut self.completions;
        self.comp_buf.drain_in_order(|&c| log.push(c));
        edge
    }

    /// One pass over the domains: hands each non-empty outbox to its
    /// receiver's inbox, gathers the trace and completion stashes, and
    /// takes the earliest pending event time (a handed message counts
    /// through its outbox, whichever of the two domains the pass visits
    /// first). Then merges the traces into domain 0's recorder in
    /// `(time, key)` order: each stash is in order and equal stamps
    /// only arise within one domain, so draining their concatenation in
    /// stamp order is the k-way merge.
    // lint:hot
    fn sweep(&mut self, cells: &DomainCells<'_, Core>) -> Edge {
        let mut edge = Edge {
            next_ns: u64::MAX,
            handed: 0,
        };
        for d in 0..cells.len() {
            let mut cell = cells.lock(d);
            edge.next_ns = edge.next_ns.min(cell.next_event_ns());
            let eng = &mut cell.eng;
            for &p in &eng.peers {
                let out = &mut eng.outbox[p as usize];
                edge.next_ns = edge.next_ns.min(out.first);
                edge.handed += out.msgs.len() as u64;
                cells.lock(p as usize).eng.inbox.append(out);
            }
            eng.peers.clear();
            self.trace_buf.append(&mut eng.trace_stash);
            self.comp_buf.append(&mut eng.comp_stash);
        }
        if let Some(r) = cells.lock(0).eng.recorder.as_deref_mut() {
            self.trace_buf.drain_in_order(|ev| r.record(ev));
        }
        edge
    }
}

/// Why a fabric cannot be split into simulation domains
/// ([`ShardedSim::try_new`]). Such a fabric still runs at one domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// A cross-domain hop takes zero time (zero switch latency and zero
    /// propagation delay), so no window could advance.
    ZeroLookahead,
    /// A cross-domain link touches a host: a relay host, or a
    /// multi-homed host straddling the cut.
    HostOnCut {
        /// The link's end in the sending domain.
        from: NodeId,
        /// The link's end in the receiving domain.
        to: NodeId,
    },
    /// The VLB fraction lies outside `0..=1` (or is NaN).
    VlbFraction,
    /// A VLB domain lists a node the network does not have.
    VlbNodeOutOfRange {
        /// The listed node.
        node: NodeId,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ZeroLookahead => write!(
                f,
                "conservative lookahead needs >= 1 ns per cross-domain hop; this latency \
                 model has zero switch latency and zero propagation delay — run with domains = 1"
            ),
            ShardError::HostOnCut { from, to } => write!(
                f,
                "cross-domain links must join switches; {from:?} -> {to:?} touches a host \
                 (relay-host fabrics are not shardable — use domains = 1)"
            ),
            ShardError::VlbFraction => write!(f, "VLB fraction must be in 0..=1"),
            ShardError::VlbNodeOutOfRange { node } => write!(
                f,
                "VLB domain member {node:?} is not a node of this network"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// The simulation: `k` spatial domains advancing one simulation under
/// conservative lookahead. See the module docs for the windowing and
/// determinism arguments; [`ShardedSim::run`] drives the domains on a
/// [`ThreadPool`] (bit-identical output at any thread count, including
/// 1). [`crate::sim::Simulator`] is this engine at one domain.
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
    domains: Vec<Core>,
    net: Arc<Network>,
    lookahead: u64,
    ctl: CtlPlane,
    sinks: Sinks,
    /// Statistics merged over the domains by the last run (unused with
    /// one domain, whose own statistics are the result).
    merged: Stats,
    /// Construction-order RNG: one ECMP hash per `add_flow`.
    cons_rng: StdRng,
    clock: fn() -> u64,
    coord_ns: u64,
    /// Windows stepped so far (see [`ShardedSim::windows`]).
    windows: u64,
    /// Boundary messages handed over so far.
    boundary_msgs: u64,
    flow_count: usize,
}

impl ShardedSim {
    /// Builds a simulator over `net` (routing tables are computed
    /// here), partitioned into (at most) `domains` spatial domains.
    ///
    /// # Panics
    /// Panics with the [`ShardError`] message if `net` cannot be split
    /// into `domains` (see [`ShardedSim::try_new`]).
    pub fn new(net: Network, cfg: SimConfig, domains: usize) -> Self {
        Self::try_new(net, cfg, domains).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ShardedSim::new`], or why `net` cannot be split into `domains`:
    /// a cross-domain link touches a host (relay-host fabrics and
    /// multi-homed hosts straddling a cut are not shardable), or the
    /// lookahead bound would be zero (an ideal latency model with zero
    /// propagation delay cannot shard). Both run with `domains = 1`.
    /// A VLB config with a fraction outside `0..=1` or a domain member
    /// outside `net` is rejected at every domain count.
    pub fn try_new(net: Network, cfg: SimConfig, domains: usize) -> Result<Self, ShardError> {
        if let Some(v) = &cfg.vlb {
            if !(0.0..=1.0).contains(&v.fraction) {
                return Err(ShardError::VlbFraction);
            }
            let outside = |n: &&NodeId| n.0 as usize >= net.node_count();
            if let Some(&node) = v.domains.iter().flatten().find(outside) {
                return Err(ShardError::VlbNodeOutOfRange { node });
            }
        }
        let mut lookahead = u64::MAX;
        // One domain needs no partition (and so admits switchless
        // fabrics such as CamCube).
        let (dom_of, k): (Arc<[u32]>, usize) = if domains <= 1 {
            (vec![0; net.node_count()].into(), 1)
        } else {
            let part = spatial_domains(&net, domains);
            for (_slot, from, to) in part.cross_slots(&net) {
                let (NodeKind::Switch(role), true) =
                    (net.node(from).kind, net.node(to).kind.is_switch())
                else {
                    return Err(ShardError::HostOnCut { from, to });
                };
                let hop = cfg.latency.spec_for(role).latency_ns + cfg.prop_delay_ns;
                lookahead = lookahead.min(hop);
            }
            if lookahead == 0 {
                return Err(ShardError::ZeroLookahead);
            }
            (part.domain_of().into(), part.domains())
        };
        let fabric = Fabric::new(net, &cfg, &dom_of, k);
        // The table is dropped once flattened: the engine forwards by
        // the flat table alone.
        let table = RouteTable::all_shortest_paths(&fabric.net);
        let flat = Arc::new(FlatRoutes::new(&table, &fabric.net));
        drop(table);
        debug_assert!(k <= u32::MAX as usize, "domain count fits u32");
        let doms: Vec<Core> = (0..k)
            .map(|id| {
                let d = Domain::new(id as u32, Arc::clone(&dom_of), k);
                Core::new(&fabric, cfg.clone(), Arc::clone(&flat), d)
            })
            .collect();
        Ok(ShardedSim {
            domains: doms,
            net: fabric.net,
            lookahead,
            ctl: CtlPlane {
                fault_log: Vec::new(),
                events: Vec::new(),
                cursor: 0,
                reconvergence_ns: cfg.reconvergence_ns,
            },
            sinks: Sinks {
                completions: Vec::new(),
                trace_buf: Stamped::default(),
                comp_buf: Stamped::default(),
            },
            merged: Stats::default(),
            cons_rng: StdRng::seed_from_u64(cfg.seed),
            clock: zero_clock,
            coord_ns: 0,
            windows: 0,
            boundary_msgs: 0,
            flow_count: 0,
        })
    }

    /// Registers a flow starting at `start`; returns its index. Flow
    /// hashes are drawn from a construction-order RNG, so the same add
    /// order yields the same ECMP paths.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is not a host, they coincide, more than
    /// 2²⁹ flows are registered (the canonical key layout), or `kind`
    /// is a [`FlowKind::Burst`] with `period_ns == 0` (its next burst
    /// would start at the same instant, forever).
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size_bytes: u32,
        kind: FlowKind,
        tag: u32,
        start: SimTime,
    ) -> usize {
        if let FlowKind::Burst { period_ns, .. } = kind {
            assert!(period_ns > 0, "a burst flow needs period_ns > 0");
        }
        let idx = self.flow_count;
        assert!(idx < (1 << 29), "the engine keys flows in 29 bits");
        self.flow_count += 1;
        let hash = self.cons_rng.random::<u64>();
        for d in &mut self.domains {
            d.add_flow(src, dst, size_bytes, kind, tag, start, hash);
        }
        idx
    }

    /// Registers an additional routing table (e.g. a per-VLAN spanning
    /// tree from [`quartz_topology::spain::SpainFabric`]); returns its
    /// index for [`ShardedSim::pin_flow_to_table`].
    ///
    /// # Errors
    /// A table built over another fabric — a different node count, or a
    /// next hop with no link in this network — is rejected with the
    /// [`RouteError`] that says which.
    pub fn add_route_table(&mut self, table: RouteTable) -> Result<usize, RouteError> {
        let flat = Arc::new(FlatRoutes::try_new(&table, &self.net)?);
        for d in &mut self.domains {
            d.extra_flat.push(Arc::clone(&flat));
        }
        Ok(self.domains[0].extra_flat.len() - 1)
    }

    /// Pins a flow's packets to a previously registered table — the §6
    /// prototype's "an application can select a direct two-hop path or a
    /// specific indirect three-hop path by sending data on the
    /// corresponding virtual interface".
    ///
    /// # Errors
    /// [`PinError`] names an unknown flow or table.
    pub fn pin_flow_to_table(&mut self, flow: usize, table: usize) -> Result<(), PinError> {
        if flow >= self.flow_count {
            return Err(PinError::UnknownFlow(flow));
        }
        if table >= self.domains[0].extra_flat.len() {
            return Err(PinError::UnknownTable(table));
        }
        for d in &mut self.domains {
            if d.flow_table.len() <= flow {
                d.flow_table.resize(flow + 1, None);
            }
            d.flow_table[flow] = Some(table);
        }
        Ok(())
    }

    /// Schedules every event of a [`FaultPlan`], the one way faults
    /// enter a run. With [`SimConfig::reconvergence_ns`] set, each fault
    /// (and recovery) triggers an automatic route recomputation that
    /// much later; otherwise call [`ShardedSim::reroute`].
    ///
    /// # Errors
    /// A plan that names an unknown link, an unknown node or a host is
    /// refused with the [`FaultError`] of its first such event, before
    /// any event is scheduled.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), FaultError> {
        plan.check(&self.net)?;
        for ev in plan.events() {
            self.ctl.insert(ev.at, CtlKind::Fault(ev.kind));
        }
        Ok(())
    }

    /// Recomputes the routes over the surviving links and switches at
    /// [`ShardedSim::now`]: manual control-plane reconvergence, for runs
    /// without [`SimConfig::reconvergence_ns`]. In-flight packets are
    /// unaffected.
    pub fn reroute(&mut self) {
        let at = self.now();
        let ctl = &mut self.ctl;
        let doms = std::mem::take(&mut self.domains);
        self.domains = ThreadPool::sequential().step_domains(
            doms,
            |_, _| {},
            |cells| {
                ctl.apply(at, CtlKind::Reroute, cells);
                None
            },
        );
    }

    /// Attaches an event recorder. Recording is observe-only: it never
    /// draws randomness and never reorders events, so a run with any
    /// recorder produces the same [`Stats`] as a run with none, and the
    /// recorded stream is identical at any domain count.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        let stash = self.domains.len() > 1;
        for d in &mut self.domains {
            d.eng.stash = stash;
            d.eng.obs = true;
        }
        self.domains[0].eng.recorder = Some(recorder);
    }

    /// Detaches the recorder; drain or flush it via `Recorder::finish`.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        for d in &mut self.domains {
            d.eng.stash = false;
            d.eng.obs = d.eng.metrics.is_some();
        }
        self.domains[0].eng.recorder.take()
    }

    /// Feeds a caller-constructed event (e.g. a collective step
    /// boundary) to the attached recorder, if any, after everything
    /// recorded so far. Drivers that stage work *around* the simulator
    /// use this to keep their milestones in the same ordered stream as
    /// the packet-level events. The event reaches the recorder only:
    /// engine metrics count what the engine itself recorded.
    pub fn record_event(&mut self, ev: Event) {
        if let Some(r) = &mut self.domains[0].eng.recorder {
            r.record(&ev);
        }
    }

    /// Enables metric collection (per-link queue/utilization series,
    /// per-switch forwarded/dropped counters, lifecycle, drop, fault
    /// and reroute totals): from now on every domain folds the events
    /// it records, and domain 0 also folds the control plane's.
    pub fn enable_metrics(&mut self) {
        for d in &mut self.domains {
            if d.eng.metrics.is_none() {
                d.eng.metrics = Some(EngineMetrics::new(Arc::clone(&d.node_kind)));
            }
            d.eng.obs = true;
        }
    }

    /// Detaches every domain's metrics and renders them, in domain
    /// order, into one registry. Counters add and histograms merge
    /// bucket-wise, so the result is domain-count-independent.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        let mut out: Option<MetricsRegistry> = None;
        for d in &mut self.domains {
            d.eng.obs = d.eng.stash || d.eng.recorder.is_some();
            if let Some(m) = d.eng.metrics.take() {
                m.render_into(out.get_or_insert_with(MetricsRegistry::new));
            }
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
    /// on `pool`'s workers. Returns the statistics. Output is
    /// bit-identical for every `(domains, threads)` combination.
    pub fn run(&mut self, until: SimTime, pool: &ThreadPool) -> &Stats {
        self.run_while(until, pool, &|_: &Core| false);
        self.stats()
    }

    /// Runs until `count` samples exist under `tag` (e.g. that many RPCs
    /// have completed) or `deadline` passes; returns whether the target
    /// was reached. Stops right after the event that reaches the count,
    /// so staged, dependency-driven workloads can start the next stage
    /// at [`ShardedSim::now`].
    ///
    /// # Panics
    /// Panics with more than one domain: only a single domain's
    /// dispatch order is the global one.
    pub fn run_until_samples(&mut self, tag: u32, count: usize, deadline: SimTime) -> bool {
        assert_eq!(self.domains.len(), 1, "run_until_samples needs one domain");
        let reached = move |d: &Core| d.stats.count(tag) >= count;
        self.run_while(deadline, &ThreadPool::sequential(), &reached);
        self.stats().count(tag) >= count
    }

    /// [`ShardedSim::run`], ending right after the event at which `stop`
    /// first holds (honoured with one domain only).
    fn run_while(
        &mut self,
        until: SimTime,
        pool: &ThreadPool,
        stop: &(impl Fn(&Core) -> bool + Sync),
    ) {
        let clock = self.clock;
        let lookahead = self.lookahead;
        let ctl = &mut self.ctl;
        let sinks = &mut self.sinks;
        let coord_ns = &mut self.coord_ns;
        let windows = &mut self.windows;
        let boundary_msgs = &mut self.boundary_msgs;
        let doms = std::mem::take(&mut self.domains);
        let doms = pool.step_domains(
            doms,
            |d, b| d.step_to(SimTime::from_ns(b), stop),
            |cells| {
                let t_in = clock();
                let edge = sinks.end_window(cells);
                *boundary_msgs += edge.handed;
                // Only a one-domain run stops early (`run_until_samples`).
                let stopped = cells.len() == 1 && stop(&cells.lock(0));
                let r = if stopped {
                    None
                } else {
                    Self::coordinate(ctl, cells, edge.next_ns, until, lookahead)
                };
                *windows += u64::from(r.is_some());
                *coord_ns = coord_ns.saturating_add(clock().saturating_sub(t_in));
                r
            },
        );
        self.domains = doms;
        #[cfg(debug_assertions)]
        {
            // The last window edge handed every outbox over.
            debug_assert!(self.domains.iter().all(|d| d.eng.peers.is_empty()));
            if !self.has_pending_events() {
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
        if self.domains.len() > 1 {
            self.merged = Stats::default();
            for d in &self.domains {
                self.merged.merge(&d.stats);
            }
        }
    }

    /// One coordinator round after the finished window's outputs are
    /// merged: apply every control event due before the next packet
    /// event (at `next_ns`, `u64::MAX` when none; control events move
    /// no packet event), then pick the next window bound (or end the
    /// run).
    fn coordinate(
        ctl: &mut CtlPlane,
        cells: &DomainCells<'_, Core>,
        next_ns: u64,
        until: SimTime,
        lookahead: u64,
    ) -> Option<u64> {
        let next_ev = (next_ns != u64::MAX).then_some(next_ns);
        loop {
            let tc = ctl.next_time();
            if let Some(tc) = tc {
                // A control event due at or before the earliest packet
                // event applies now (control before packet at equal
                // times).
                if tc <= until && next_ev.is_none_or(|w| tc.ns() <= w) {
                    ctl.apply_next(cells);
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

    /// Statistics as of the last run (merged over the domains).
    pub fn stats(&self) -> &Stats {
        match self.domains.as_slice() {
            [d] => &d.stats,
            _ => &self.merged,
        }
    }

    /// Completion log for managed flows ([`FlowKind::Transport`],
    /// [`FlowKind::FileTransfer`]), in global `(time, key)` order
    /// (identical at any domain count). Workload drivers join these
    /// against their own flow-index bookkeeping to compute per-flow FCT
    /// and slowdown; unmanaged kinds (Poisson, RPC, bursts) never
    /// appear.
    pub fn flow_completions(&self) -> &[FlowCompletion] {
        &self.sinks.completions
    }

    /// Every fault event that has fired so far, in firing order, with
    /// its measured reconvergence time and outage cost.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.ctl.fault_log
    }

    /// Total simulated events processed so far across all domains: one
    /// per scheduler pop. The events/sec headline metric divides this
    /// by wall time.
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

    /// Lookahead windows the domains have stepped so far, over every
    /// run. Derived from the simulation alone: the same at any worker
    /// count.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Packets handed across domain boundaries so far, over every run.
    /// Derived from the simulation alone: the same at any worker count
    /// (zero at one domain).
    pub fn boundary_messages(&self) -> u64 {
        self.boundary_msgs
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

    /// Total payload bytes of a managed flow ([`FlowKind::Transport`] /
    /// [`FlowKind::FileTransfer`]); `None` for packet-stream kinds or an
    /// unknown index.
    pub fn flow_total_bytes(&self, flow: u32) -> Option<u64> {
        match self.domains[0].flows.get(flow as usize)?.kind {
            FlowKind::Transport { total_bytes, .. } | FlowKind::FileTransfer { total_bytes } => {
                Some(total_bytes)
            }
            _ => None,
        }
    }

    /// A flow's `(src, dst)` hosts, or `None` for an unknown index.
    pub fn flow_endpoints(&self, flow: u32) -> Option<(NodeId, NodeId)> {
        let f = self.domains[0].flows.get(flow as usize)?;
        Some((f.src, f.dst))
    }

    /// The time of the most recently processed packet-level event in
    /// any domain.
    pub fn now(&self) -> SimTime {
        self.domains
            .iter()
            .map(|d| d.now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Whether any events remain queued (packets in flight or future
    /// generations) in any domain, boundary packets waiting in an inbox
    /// included.
    pub fn has_pending_events(&self) -> bool {
        self.domains
            .iter()
            .any(|d| !d.eng.wheel.is_empty() || !d.eng.inbox.msgs.is_empty())
    }

    /// Transmission statistics per link, in the network's link order,
    /// summed across domains (each directed slot has its row in the
    /// domain that owns its source node, and only there).
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
    is_send::<Core>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::{LatencyModel, SwitchSpec, ARISTA_7150S};
    use quartz_obs::{Event, MemoryRecorder, Recorder};
    use quartz_topology::builders::{
        bcube, camcube, dcell_1, dual_tor_mesh, fat_tree, jellyfish, leaf_spine, prototype_quartz,
        prototype_two_tier, quartz_in_core, quartz_in_edge, quartz_in_edge_and_core,
        quartz_in_jellyfish, quartz_mesh, three_tier, two_tier,
    };

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
        let rows: Vec<(u32, usize, u64, u64)> = (0..8)
            .filter(|&t| stats.count(t) > 0)
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

    /// `net` rebuilt with every link at 10 Gb/s (same node and link
    /// ids), so one serialization time holds on every hop.
    fn uniform(net: &Network) -> Network {
        let mut u = Network::new();
        for n in net.nodes() {
            match n.kind {
                NodeKind::Host => u.add_host(n.rack),
                NodeKind::Switch(role) => u.add_switch(role, n.rack),
            };
        }
        for l in net.links() {
            u.connect(l.a, l.b, 10.0);
        }
        u
    }

    /// Links on a shortest path from `src` to every node (BFS).
    fn hops_from(net: &Network, src: NodeId) -> Vec<u64> {
        let mut dist = vec![u64::MAX; net.node_count()];
        let mut queue = std::collections::VecDeque::from([src]);
        dist[src.0 as usize] = 0;
        while let Some(n) = queue.pop_front() {
            for &(m, _) in net.neighbors(n) {
                if dist[m.0 as usize] == u64::MAX {
                    dist[m.0 as usize] = dist[n.0 as usize] + 1;
                    queue.push_back(m);
                }
            }
        }
        dist
    }

    /// Sends one 400 B packet per ordered host pair of `net`, each alone
    /// on the fabric, and checks every latency against the closed form:
    /// host send latency, plus propagation per link and `interior_ns`
    /// per node between the hosts, plus one serialization (cut-through)
    /// or one per link (store-and-forward), plus host receive latency.
    fn check_zero_load(name: &str, net: &Network, latency: LatencyModel, k: usize) {
        const GAP_NS: u64 = 100_000;
        const SER_NS: u64 = 320; // 400 B at 10 Gb/s
        let spec = latency.edge;
        let (send, recv) = (latency.host_send_ns, latency.host_recv_ns);
        let cfg = SimConfig {
            latency,
            ..SimConfig::default()
        };
        let prop = cfg.prop_delay_ns;
        let mut sim = ShardedSim::new(net.clone(), cfg, k);
        let mut expect = Vec::new();
        let hosts = net.hosts();
        for &src in &hosts {
            let hops = hops_from(net, src);
            for &dst in hosts.iter().filter(|&&d| d != src) {
                let tag = expect.len() as u32;
                let start = SimTime::from_ns(GAP_NS * u64::from(tag));
                let kind = FlowKind::Poisson {
                    mean_gap_ns: 1e12,
                    stop: start + 1,
                    respond: false,
                };
                sim.add_flow(src, dst, 400, kind, tag, start);
                let m = hops[dst.0 as usize];
                let ser = if spec.cut_through { SER_NS } else { m * SER_NS };
                expect.push(send + m * prop + (m - 1) * spec.latency_ns + ser + recv);
            }
        }
        let until = SimTime::from_ns(GAP_NS * expect.len() as u64);
        sim.run(until, &ThreadPool::sequential());
        assert_eq!(sim.stats().delivered, expect.len() as u64, "{name}");
        for (tag, &want) in expect.iter().enumerate() {
            let s = sim.stats().summary(tag as u32);
            assert_eq!(
                (s.count, s.max_ns),
                (1, want),
                "{name}, k = {k}, pair {tag}"
            );
        }
    }

    #[test]
    fn zero_load_latency_matches_the_closed_form() {
        let (send, recv) = (1_000, 700);
        let cut_through = LatencyModel {
            edge: ARISTA_7150S,
            core: ARISTA_7150S,
            host_send_ns: send,
            host_recv_ns: recv,
        };
        // A relaying host waits for the tail and adds its receive and
        // send latency: store-and-forward at exactly this switch latency.
        let sf = SwitchSpec {
            name: "store-and-forward",
            latency_ns: send + recv,
            cut_through: false,
            ports_10g: u32::MAX,
            ports_40g: u32::MAX,
        };
        let store_forward = LatencyModel {
            edge: sf,
            core: sf,
            ..cut_through
        };
        let fabrics = [
            ("quartz_mesh", quartz_mesh(4, 2, 10.0, 10.0).net),
            ("dual_tor_mesh", dual_tor_mesh(3, 2, 10.0, 10.0).net),
            ("two_tier", two_tier(3, 2, 2, 10.0, 10.0).net),
            ("three_tier", three_tier(2, 2, 2, 2, 10.0, 10.0).net),
            ("prototype_quartz", prototype_quartz().net),
            ("prototype_two_tier", prototype_two_tier().net),
            ("fat_tree", fat_tree(4, 10.0).net),
            ("leaf_spine", leaf_spine(3, 2, 2, 1, 10.0).net),
            ("jellyfish", jellyfish(6, 3, 2, 10.0, 10.0, 7).net),
            ("bcube", bcube(2, 1, 10.0).net),
            ("dcell_1", dcell_1(2, 10.0).net),
            ("camcube", camcube(3, 10.0).net),
            ("quartz_in_core", quartz_in_core(2, 2, 2, 4).net),
            ("quartz_in_edge", quartz_in_edge(2, 3, 2, 2).net),
            (
                "quartz_in_edge_and_core",
                quartz_in_edge_and_core(2, 4, 1, 4).net,
            ),
            (
                "quartz_in_jellyfish",
                quartz_in_jellyfish(2, 4, 1, 2, 7).net,
            ),
        ];
        for (name, net) in fabrics {
            let net = uniform(&net);
            // Hosts that are leaves never relay, and never straddle a
            // domain cut.
            let leaves = net.hosts().iter().all(|&h| net.degree(h) == 1);
            let ks: &[usize] = if leaves { &[1, 4] } else { &[1] };
            for &k in ks {
                check_zero_load(name, &net, store_forward, k);
                if leaves {
                    check_zero_load(name, &net, cut_through, k);
                }
            }
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
            let mut plan = FaultPlan::new();
            plan.link_down(l, SimTime::from_us(30));
            sim.apply_fault_plan(&plan).expect("mesh channel");
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

    /// VLB on two fabrics. On the mesh the detour decision runs at the
    /// source's own switch, before any crossing. On the composite the
    /// sources sit in the first pod and the destinations in the last,
    /// and the VLB domain is the core ring plus the destination pod's
    /// aggregation switches: the decision runs at a ring switch, across
    /// the aggregation↔ring cut, on the draws the packet carried over.
    #[test]
    fn vlb_detours_are_domain_count_invariant() {
        let m = quartz_mesh(6, 2, 10.0, 10.0);
        let mesh_pairs: Vec<_> = (0..4).map(|i| (m.hosts[i], m.hosts[11 - i])).collect();
        let c = quartz_in_core(2, 4, 2, 4);
        let n = c.hosts.len();
        let core_pairs: Vec<_> = (0..4).map(|i| (c.hosts[i], c.hosts[n - 1 - i])).collect();
        let mut core_vlb = c.uppers.clone();
        for &(_, dst) in &core_pairs {
            let tor = c.net.neighbors(dst)[0].0;
            for &(agg, _) in c.net.neighbors(tor) {
                if c.net.node(agg).kind.is_switch() && !core_vlb.contains(&agg) {
                    core_vlb.push(agg);
                }
            }
        }
        let cases = [
            (&m.net, &m.switches, &mesh_pairs, [2, 6]),
            (&c.net, &core_vlb, &core_pairs, [2, 4]),
        ];
        for (net, vlb_switches, pairs, ks) in cases {
            let digest = |k: usize| {
                let cfg = SimConfig {
                    vlb: Some(crate::sim::VlbConfig {
                        fraction: 0.5,
                        domains: vec![vlb_switches.clone()],
                    }),
                    ..SimConfig::default()
                };
                let mut sim = ShardedSim::new(net.clone(), cfg, k);
                assert_eq!(sim.domain_count(), k);
                sim.set_recorder(Box::new(MemoryRecorder::new()));
                for (i, &(src, dst)) in pairs.iter().enumerate() {
                    let kind = FlowKind::Burst {
                        burst_pkts: 4,
                        period_ns: 10_000,
                        stop: SimTime::from_us(300),
                    };
                    sim.add_flow(src, dst, 400, kind, i as u32, SimTime::ZERO);
                }
                sim.run(SimTime::from_ms(2), &ThreadPool::sequential());
                let s = sim.stats();
                let means: Vec<u64> = (0..4)
                    .filter(|&t| s.count(t) > 0)
                    .map(|t| s.summary(t).mean_ns.to_bits())
                    .collect();
                let (generated, delivered) = (s.generated, s.delivered);
                let events = sim.take_recorder().expect("recorder attached").finish();
                let detours = events
                    .iter()
                    .filter(|e| matches!(e, Event::Vlb { .. }))
                    .count();
                assert!(detours > 0, "VLB detours some packets at k = {k}");
                (generated, delivered, means, events)
            };
            let base = digest(1);
            for k in ks {
                assert_eq!(base, digest(k), "VLB output diverges at k = {k}");
            }
        }
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
    fn one_domain_streams_its_trace() {
        // With one domain a run is a single window, so a stashing sink
        // would hold the whole trace until the run ends.
        let m = quartz_mesh(4, 2, 10.0, 10.0);
        let mut sim = ShardedSim::new(m.net.clone(), SimConfig::default(), 1);
        // A sink that keeps nothing, so only the engine's own stash can
        // hold events.
        struct Discard;
        impl Recorder for Discard {
            fn record(&mut self, _ev: &Event) {}
        }
        sim.set_recorder(Box::new(Discard));
        for i in 0..8 {
            let kind = FlowKind::Poisson {
                mean_gap_ns: 2_000.0,
                stop: SimTime::from_ms(10),
                respond: true,
            };
            sim.add_flow(
                m.hosts[i],
                m.hosts[(i + 3) % 8],
                400,
                kind,
                0,
                SimTime::ZERO,
            );
        }
        sim.run(SimTime::from_ms(11), &ThreadPool::sequential());
        assert!(sim.events_processed() > 50_000, "a long run");
        let stashed = sim.domains[0].eng.trace_stash.capacity() + sim.sinks.trace_buf.capacity();
        assert!(stashed <= 16, "{stashed} trace events stashed at once");
    }

    /// The reroute invariant, pinned on the paper's 33-switch ring-cut
    /// mesh at three domains: after every scripted fault's
    /// reconvergence, every domain forwards by the flat table of a
    /// [`RouteTable::degraded`] build over its live failure state, and
    /// once every fault has healed, by the pristine one.
    #[test]
    fn rerouted_routes_match_a_scratch_rebuild_on_the_ring_cut_mesh() {
        let q = quartz_mesh(33, 1, 10.0, 10.0);
        let mut sim = ShardedSim::new(
            q.net.clone(),
            SimConfig {
                reconvergence_ns: Some(50_000),
                ..SimConfig::default()
            },
            3,
        );
        assert_eq!(sim.domain_count(), 3);
        // Background traffic keeps packets in flight across every fault.
        for i in 0..8 {
            sim.add_flow(
                q.hosts[i],
                q.hosts[(i + 11) % q.hosts.len()],
                400,
                FlowKind::Poisson {
                    mean_gap_ns: 8_000.0,
                    stop: SimTime::from_ms(8),
                    respond: false,
                },
                0,
                SimTime::ZERO,
            );
        }
        // Four extra cuts between 2 and 5 ms, each repaired 1.5 ms
        // later, then the paper's cut (switch 0 ↔ 1 at 1 ms) and a
        // scripted switch death and recovery — overlapping outages, so
        // reroutes rebuild over an already-degraded fabric.
        let link = |a: usize, b: usize| q.net.link_between(q.switches[a], q.switches[b]).unwrap();
        let mut plan = FaultPlan::new();
        for (a, b, at_ns) in [
            (17, 29, 2_749_336),
            (7, 23, 2_993_992),
            (6, 22, 2_562_718),
            (17, 18, 3_836_671),
        ] {
            plan.link_down(link(a, b), SimTime::from_ns(at_ns))
                .link_up(link(a, b), SimTime::from_ns(at_ns + 1_500_000));
        }
        plan.link_down(link(0, 1), SimTime::from_ms(1))
            .link_up(link(0, 1), SimTime::from_ms(4))
            .switch_down(q.switches[7], SimTime::from_ms(3))
            .switch_up(q.switches[7], SimTime::from_ms(6));
        sim.apply_fault_plan(&plan)
            .expect("mesh links and switches");

        let pool = ThreadPool::sequential();
        // Checkpoint just past each fault's reconvergence.
        let mut checkpoints: Vec<SimTime> = plan.events().iter().map(|f| f.at + 50_001).collect();
        checkpoints.sort();
        for (i, t) in checkpoints.into_iter().enumerate() {
            sim.run(t, &pool);
            for d in &sim.domains {
                let scratch = RouteTable::degraded(
                    &sim.net,
                    |l| d.failed_links[l.0 as usize],
                    |n| d.failed_nodes[n.0 as usize],
                );
                assert_eq!(
                    *d.flat,
                    FlatRoutes::new(&scratch, &sim.net),
                    "domain {} routes differ from a scratch rebuild at {t:?}",
                    d.eng.id
                );
            }
            // Each fault's own reroute fired 50 µs after it, so by the
            // i-th checkpoint at least i + 1 faults have reconverged (a
            // reroute also resolves any other still-open records).
            let resolved = sim
                .fault_log()
                .iter()
                .filter(|r| r.reconverged_at.is_some())
                .count();
            assert!(resolved > i, "missing reroutes by {t:?}");
        }
        assert_eq!(sim.fault_log().len(), plan.len());
        // Every fault healed: the final routes equal the pristine ones.
        sim.run(SimTime::from_ms(9), &pool);
        let pristine = FlatRoutes::new(&RouteTable::all_shortest_paths(&sim.net), &sim.net);
        for d in &sim.domains {
            assert_eq!(*d.flat, pristine);
        }
    }

    /// A reroute that resolves no fault keeps the installed routes: the
    /// same `Arc`, not a rebuild of equal content.
    #[test]
    fn a_reroute_that_resolves_nothing_keeps_the_routes() {
        let m = quartz_mesh(4, 2, 10.0, 10.0);
        let mut sim = ShardedSim::new(m.net.clone(), SimConfig::default(), 2);
        let shares = |sim: &ShardedSim, flat: &Arc<FlatRoutes>| {
            sim.domains.iter().all(|d| Arc::ptr_eq(&d.flat, flat))
        };
        let pristine = Arc::clone(&sim.domains[0].flat);
        sim.reroute();
        assert!(shares(&sim, &pristine), "a reroute with no fault rebuilt");

        let l = m.net.link_between(m.switches[0], m.switches[1]).unwrap();
        let mut plan = FaultPlan::new();
        plan.link_down(l, SimTime::from_us(1));
        sim.apply_fault_plan(&plan).expect("mesh channel");
        sim.run(SimTime::from_us(2), &ThreadPool::sequential());
        sim.reroute();
        let cut = Arc::clone(&sim.domains[0].flat);
        assert!(!Arc::ptr_eq(&cut, &pristine), "the cut was not rerouted");
        assert!(shares(&sim, &cut));
        assert!(sim.fault_log()[0].reconverged_at.is_some());
        sim.reroute();
        assert!(shares(&sim, &cut), "a reroute after the last one rebuilt");
    }

    /// A crossing copies one message through two mailboxes; carrying
    /// the packet as one arena row must not make it larger than the
    /// 112 bytes it took as thirteen copied fields.
    #[test]
    fn a_boundary_message_is_no_larger_than_its_fields_were() {
        assert!(std::mem::size_of::<BoundaryMsg>() <= 112);
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

    #[test]
    fn try_new_reports_a_zero_lookahead() {
        let m = quartz_mesh(4, 2, 10.0, 10.0);
        let cfg = SimConfig {
            prop_delay_ns: 0,
            latency: crate::switch::LatencyModel::ideal(),
            ..SimConfig::default()
        };
        let err = ShardedSim::try_new(m.net.clone(), cfg.clone(), 2).err();
        assert_eq!(err, Some(ShardError::ZeroLookahead));
        // One domain has no cut to cross, so it needs no lookahead.
        assert!(ShardedSim::try_new(m.net, cfg, 1).is_ok());
    }

    #[test]
    fn try_new_reports_a_host_on_the_cut() {
        // Every host of a dual-ToR mesh hangs off two ring switches; with
        // one switch per domain, each host straddles a cut.
        let m = dual_tor_mesh(4, 2, 10.0, 10.0);
        let err = ShardedSim::try_new(m.net.clone(), SimConfig::default(), 8).err();
        let Some(ShardError::HostOnCut { from, to }) = err else {
            panic!("expected HostOnCut, got {err:?}");
        };
        let host = |x: NodeId| m.net.node(x).kind.is_host();
        assert!(host(from) || host(to), "{from:?} -> {to:?}");
        assert!(err.unwrap().to_string().contains("touches a host"));
        assert!(ShardedSim::try_new(m.net, SimConfig::default(), 1).is_ok());
    }

    fn vlb_cfg(fraction: f64, members: Vec<NodeId>) -> SimConfig {
        SimConfig {
            vlb: Some(crate::sim::VlbConfig {
                fraction,
                domains: vec![members],
            }),
            ..SimConfig::default()
        }
    }

    #[test]
    fn try_new_reports_a_vlb_fraction_outside_the_unit_interval() {
        let m = quartz_mesh(4, 2, 10.0, 10.0);
        for fraction in [-0.1, 1.5, f64::NAN] {
            for k in [1, 2] {
                let cfg = vlb_cfg(fraction, m.switches.clone());
                let err = ShardedSim::try_new(m.net.clone(), cfg, k).err();
                assert_eq!(err, Some(ShardError::VlbFraction), "{fraction} at {k}");
            }
        }
        for fraction in [0.0, 1.0] {
            let cfg = vlb_cfg(fraction, m.switches.clone());
            assert!(ShardedSim::try_new(m.net.clone(), cfg, 2).is_ok());
        }
    }

    #[test]
    fn try_new_reports_a_vlb_member_outside_the_network() {
        let m = quartz_mesh(4, 2, 10.0, 10.0);
        let node = NodeId(m.net.node_count() as u32);
        let mut members = m.switches.clone();
        members.push(node);
        for k in [1, 2] {
            let err = ShardedSim::try_new(m.net.clone(), vlb_cfg(0.5, members.clone()), k).err();
            assert_eq!(err, Some(ShardError::VlbNodeOutOfRange { node }));
        }
    }

    /// No domain holds a link row for a slot it does not send on: each
    /// core's table has one row per directed slot whose source node it
    /// owns, so the tables together hold each slot exactly once.
    #[test]
    fn each_domain_keeps_link_rows_only_for_its_own_slots() {
        let c = quartz_in_core(3, 4, 2, 4);
        for k in [1, 4] {
            let sim = ShardedSim::new(c.net.clone(), SimConfig::default(), k);
            assert_eq!(sim.domains.len(), k);
            for d in &sim.domains {
                let owned = c
                    .net
                    .links()
                    .flat_map(|l| [l.a, l.b])
                    .filter(|&src| d.eng.owns(src))
                    .count();
                assert_eq!(d.links.len(), owned, "domain {} of {k}", d.eng.id);
            }
            let rows: usize = sim.domains.iter().map(|d| d.links.len()).sum();
            assert_eq!(rows, 2 * c.net.link_count(), "{k} domains");
        }
    }

    /// A burst source with a zero period would start its next burst at
    /// the same instant forever; `add_flow` refuses it up front.
    #[test]
    #[should_panic(expected = "period_ns > 0")]
    fn zero_period_burst_is_rejected() {
        let m = quartz_mesh(4, 2, 10.0, 10.0);
        let mut sim = ShardedSim::new(m.net.clone(), SimConfig::default(), 1);
        let burst = FlowKind::Burst {
            burst_pkts: 20,
            period_ns: 0,
            stop: SimTime::from_ms(1),
        };
        sim.add_flow(m.hosts[0], m.hosts[7], 1_500, burst, 0, SimTime::ZERO);
    }
}

/// A pinned loaded scenario: a VLB mesh with bursty echo and fill
/// traffic, a DCTCP transfer under ECN, and a mid-run fiber cut plus
/// repair. Its digest — stats (bit-level for the float summaries),
/// completions, `events_processed`, the recorded event stream and the
/// re-encoded ndjson bytes — is pinned to constants, and must come out
/// the same at one domain and at four, and on 1, 2 and 8 concurrent
/// threads (no hidden shared state between simulations).
#[cfg(test)]
mod pinned_scenario {
    use super::*;
    use crate::sim::VlbConfig;
    use crate::transport::TcpVariant;
    use quartz_obs::event::to_ndjson;
    use quartz_obs::MemoryRecorder;
    use quartz_topology::builders::quartz_mesh;

    /// Everything observable about one run, in comparable form.
    #[derive(Debug, PartialEq)]
    struct Digest {
        generated: u64,
        delivered: u64,
        dropped: u64,
        /// Per tag: count, mean bits, ci95 bits, p50, p99, max,
        /// mean-hops bits, hop distribution.
        per_tag: Vec<(u32, TagDigest)>,
        completions: Vec<FlowCompletion>,
        faults: usize,
        events_processed: u64,
        events: Vec<Event>,
        ndjson: String,
    }

    #[derive(Debug, PartialEq)]
    struct TagDigest {
        count: usize,
        mean_bits: u64,
        ci95_bits: u64,
        p50_ns: u64,
        p99_ns: u64,
        max_ns: u64,
        mean_hops_bits: u64,
        hop_dist: Vec<(u32, usize)>,
    }

    /// 64-bit FNV-1a over little-endian fields.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Fnv {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn bytes(&mut self, b: &[u8]) {
            for &x in b {
                self.0 ^= u64::from(x);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }

        fn u64(&mut self, v: u64) {
            self.bytes(&v.to_le_bytes());
        }
    }

    impl Digest {
        /// The digest folded to scalars: counts as they are, the
        /// per-tag rows, completions and ndjson bytes as FNV-1a hashes.
        fn pinned(&self) -> [u64; 9] {
            let mut tags = Fnv::new();
            for (tag, r) in &self.per_tag {
                tags.u64(u64::from(*tag));
                tags.u64(r.count as u64);
                tags.u64(r.mean_bits);
                tags.u64(r.ci95_bits);
                tags.u64(r.p50_ns);
                tags.u64(r.p99_ns);
                tags.u64(r.max_ns);
                tags.u64(r.mean_hops_bits);
                for &(hops, n) in &r.hop_dist {
                    tags.u64(u64::from(hops));
                    tags.u64(n as u64);
                }
            }
            let mut comps = Fnv::new();
            for c in &self.completions {
                comps.u64(u64::from(c.flow));
                comps.u64(c.fct_ns);
            }
            let mut ndjson = Fnv::new();
            ndjson.bytes(self.ndjson.as_bytes());
            [
                self.generated,
                self.delivered,
                self.dropped,
                tags.0,
                comps.0,
                self.faults as u64,
                self.events_processed,
                self.events.len() as u64,
                ndjson.0,
            ]
        }
    }

    /// One full scenario run at `domains` domains: VLB detours, Poisson
    /// echo + burst cross-traffic, a DCTCP transfer with ECN marking,
    /// and a ring fiber cut at 0.5 ms repaired at 1.2 ms (control plane
    /// reconverges 50 µs after each).
    fn run(domains: usize) -> Digest {
        let q = quartz_mesh(4, 4, 10.0, 10.0);
        // First switch-switch link: cutting it forces reroutes (and VLB
        // detours around the gap) while packets are in flight.
        let ring_link = q
            .net
            .links()
            .find(|l| q.switches.contains(&l.a) && q.switches.contains(&l.b))
            .expect("mesh has ring links")
            .id;
        let cfg = SimConfig {
            seed: 0xD1FF,
            vlb: Some(VlbConfig {
                fraction: 0.3,
                domains: vec![q.switches.clone()],
            }),
            ecn_threshold_bytes: Some(30_000),
            reconvergence_ns: Some(50_000),
            ..SimConfig::default()
        };
        let mut sim = ShardedSim::new(q.net.clone(), cfg, domains);
        assert_eq!(sim.domain_count(), domains);
        let stop = SimTime::from_ms(2);
        let n = q.hosts.len();
        for (i, &src) in q.hosts.iter().enumerate() {
            let dst = q.hosts[(i + 5) % n];
            let (kind, tag) = match i % 3 {
                // Open-loop echo streams (round trips stress both link
                // directions and the response emission path).
                0 => (
                    FlowKind::Poisson {
                        mean_gap_ns: 1_000.0,
                        stop,
                        respond: true,
                    },
                    0,
                ),
                // Bursts: back-to-back runs queue deep behind one
                // another on every link they share.
                1 => (
                    FlowKind::Burst {
                        burst_pkts: 24,
                        period_ns: 40_000,
                        stop,
                    },
                    1,
                ),
                // One-way Poisson fill.
                _ => (
                    FlowKind::Poisson {
                        mean_gap_ns: 900.0,
                        stop,
                        respond: false,
                    },
                    2,
                ),
            };
            sim.add_flow(src, dst, 400, kind, tag, SimTime::ZERO);
        }
        // A congestion-controlled transfer through the loaded mesh: ECN
        // marks feed DCTCP, ACKs ride the reverse path, timers arm.
        let transfer = FlowKind::Transport {
            total_bytes: 300_000,
            variant: TcpVariant::Dctcp,
        };
        sim.add_flow(
            q.hosts[0],
            q.hosts[n - 1],
            1_000,
            transfer,
            3,
            SimTime::ZERO,
        );
        let mut plan = FaultPlan::new();
        plan.link_down(ring_link, SimTime::from_ns(500_000))
            .link_up(ring_link, SimTime::from_ns(1_200_000));
        sim.apply_fault_plan(&plan).expect("ring link");
        sim.set_recorder(Box::new(MemoryRecorder::new()));
        sim.run(SimTime::from_ms(3), &ThreadPool::sequential());

        let events = sim.take_recorder().expect("recorder attached").finish();
        // The ndjson bytes are what the trace-determinism contract is
        // stated over.
        let ndjson = to_ndjson(&events);
        let stats = sim.stats();
        let per_tag = (0..8)
            .filter(|&tag| stats.count(tag) > 0)
            .map(|tag| {
                let s = stats.summary(tag);
                let row = TagDigest {
                    count: s.count,
                    mean_bits: s.mean_ns.to_bits(),
                    ci95_bits: s.ci95_ns.to_bits(),
                    p50_ns: s.p50_ns,
                    p99_ns: s.p99_ns,
                    max_ns: s.max_ns,
                    mean_hops_bits: stats.mean_hops(tag).to_bits(),
                    hop_dist: stats.hop_distribution(tag),
                };
                (tag, row)
            })
            .collect();
        Digest {
            generated: stats.generated,
            delivered: stats.delivered,
            dropped: stats.dropped,
            per_tag,
            completions: sim.flow_completions().to_vec(),
            faults: sim.fault_log().len(),
            events_processed: sim.events_processed(),
            events,
            ndjson,
        }
    }

    /// The digest of [`run`] at one domain, recorded when the engine
    /// still batched back-to-back arrivals into one drain event per
    /// link: one `Head` event per arrival gives the same output.
    const PINNED: [u64; 9] = [
        41_494,
        41_315,
        179,
        0x2ff5_cc20_65e2_3559,
        0x7255_55f6_4879_6904,
        2,
        163_070,
        473_351,
        0x2164_592f_994f_3b99,
    ];

    #[test]
    fn loaded_scenario_matches_its_pinned_digest_at_one_and_four_domains() {
        let one = run(1);
        assert!(one.delivered > 0, "scenario must carry traffic");
        assert!(one.dropped > 0, "fault window must cost packets");
        assert!(!one.completions.is_empty(), "the transfer completes");
        assert!(!one.events.is_empty(), "recorder must observe the run");
        assert_eq!(one.pinned(), PINNED, "simulator output changed");
        assert_eq!(run(4), one, "domain count changed the output");
    }

    #[test]
    fn loaded_scenario_agrees_across_worker_counts() {
        let reference = run(1);
        for workers in [1usize, 2, 8] {
            let digests: Vec<Digest> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|_| s.spawn(|| run(1))).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for d in &digests {
                assert_eq!(d, &reference, "run diverged at {workers} workers");
            }
        }
    }
}
