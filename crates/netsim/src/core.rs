//! The per-packet core both simulation engines run on.
//!
//! [`Core`] owns the state every packet touches — configuration,
//! directed link slots, failed nodes, node kinds, flat routes, VLB
//! domains, the packet arena, per-flow progress and transport state,
//! statistics, metrics and their label caches — and implements the
//! per-packet logic exactly once: forwarding and delivery
//! ([`Core::arrive`]), generation, emission, transport actions, drop
//! accounting and data-plane fault state. [`Control`] holds the route
//! table and the fault log: opening a fault record and the incremental
//! reroute patch loop (with its debug scratch-rebuild check and the
//! fault-log close) live there, also once.
//!
//! What differs between [`crate::sim::Simulator`] and
//! [`crate::shard::ShardedSim`] goes behind the [`Engine`] hooks,
//! statically dispatched (one impl per engine, no `dyn`):
//!
//! * **scheduling** of the next arrival, generation and retransmission
//!   timer — a `(time, seq)` wheel with batched link drain, or a
//!   content-keyed wheel plus the cross-domain boundary outbox;
//! * **randomness** — lazy draws from one shared RNG in execution
//!   order, or per-flow streams drawn at emission;
//! * the **trace sink** — the recorder directly, or a merge-keyed stash;
//! * the **route table per flow** — only the serial engine installs
//!   SPAIN-style extra tables.

use crate::arena::{
    PacketArena, PacketCold, PacketId, FLAG_ECN, FLAG_LAST, FLAG_RESPONSE, FLAG_VLB_DECIDED,
};
use crate::faults::FaultKind;
use crate::sim::{FaultRecord, FlowCompletion, FlowKind, LinkLoad, SimConfig};
use crate::stats::Stats;
use crate::switch::ForwardMode;
use crate::time::SimTime;
use crate::transport::{ReceiverState, SendAction, SenderState, TransportInfo};
use quartz_obs::{DropReason, Event, MetricsRegistry};
use quartz_topology::graph::{Network, NodeId, NodeKind};
use quartz_topology::route::{FlatRoutes, RouteChange, RouteTable};
use std::sync::Arc;

/// Sentinel: this flow has no transport connection.
const NO_CONN: u32 = u32::MAX;

/// The engine-specific half of the per-packet path (see the module
/// docs). Every method is called from [`Core`] with the core's own
/// state already updated, so an impl only schedules, draws, or sinks.
pub(crate) trait Engine {
    /// Queues the next generation event of `flow` at `at`.
    fn schedule_gen(&mut self, flow: usize, at: SimTime);
    /// Arms a retransmission timer for `flow` at `at`.
    fn schedule_rto(&mut self, flow: usize, epoch: u32, at: SimTime);
    /// Queues a forwarded packet's arrival at the next node. The
    /// packet's arena row is final; an impl that hands the packet
    /// elsewhere frees the slot.
    fn schedule_arrival(&mut self, arena: &mut PacketArena, a: Arrival);
    /// Notes a freshly allocated packet of `flow`, emitted from its
    /// destination side when `reverse`.
    fn on_emit(&mut self, arena: &PacketArena, pkt: PacketId, flow: u32, reverse: bool);
    /// A uniform `[0, 1)` draw for `flow`'s source (Poisson gaps).
    fn uniform(&mut self, flow: usize) -> f64;
    /// The VLB coin for `pkt`, uniform in `[0, 1)`.
    fn vlb_coin(&mut self, pkt: PacketId) -> f64;
    /// The VLB intermediate pick for `pkt`, uniform in `0..n`.
    fn vlb_pick(&mut self, pkt: PacketId, n: usize) -> usize;
    /// The re-sprayed ECMP hash of a detoured `pkt`.
    fn vlb_spray(&mut self, pkt: PacketId) -> u64;
    /// Feeds one trace event to the sink.
    fn record(&mut self, ev: Event);
    /// Logs a managed flow's completion.
    fn complete(&mut self, c: FlowCompletion);
    /// The table `flow`'s packets route by.
    fn routes<'a>(&'a self, default: &'a FlatRoutes, flow: u32) -> &'a FlatRoutes;
}

/// A forwarded packet's next arrival, as handed to
/// [`Engine::schedule_arrival`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Arrival {
    pub(crate) pkt: PacketId,
    /// The node the head arrives at.
    pub(crate) at: NodeId,
    /// The directed link slot it travels.
    pub(crate) slot: u32,
    pub(crate) head: SimTime,
    pub(crate) tail: SimTime,
    /// Serialization time of the hop (`tail - head`), ns.
    pub(crate) ser: u32,
    /// Whether the link was idle when the packet reached it.
    pub(crate) idle: bool,
}

/// Per-flow metadata, fixed at `add_flow`. `Copy`, so the per-event
/// handlers read it by value and stay free to mutate [`FlowState`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlowMeta {
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    size: u32,
    pub(crate) kind: FlowKind,
    tag: u32,
    hash: u64,
    /// Index into the dense connection table (`NO_CONN` for flows with
    /// no transport state), so the per-delivery lookup is one load.
    conn: u32,
}

/// Per-flow mutable progress, parallel to the [`FlowMeta`] table.
#[derive(Clone, Copy, Debug)]
struct FlowState {
    /// Packets (or requests) sent so far.
    sent: u32,
    /// First emission time (file transfers measure completion from it).
    t0: SimTime,
}

/// One reliable connection's two endpoints plus its start time.
struct Conn {
    sender: SenderState,
    receiver: ReceiverState,
    t0: SimTime,
}

/// Per-direction link state.
#[derive(Clone, Debug)]
pub(crate) struct DirLink {
    rate_gbps: f64, // == bits per ns
    free_at: SimTime,
    /// Nanoseconds spent transmitting (for utilization reports).
    busy_ns: u64,
    /// Bytes transmitted.
    bytes: u64,
    /// A failed link silently drops everything queued onto it.
    pub(crate) failed: bool,
    /// Memoized serialization time for the last frame size sent (the
    /// rate is fixed per link and traffic is dominated by one or two
    /// sizes, so the `ceil(bits / rate)` float round-trip rarely
    /// recomputes). `ser_size == 0` means empty.
    ser_size: u32,
    ser_ns: u64,
}

impl DirLink {
    /// Serialization time for `size` bytes — the cached value when the
    /// size repeats, the identical f64 computation when it doesn't.
    #[inline]
    fn ser_ns(&mut self, size: u32) -> u64 {
        if self.ser_size != size {
            self.ser_size = size;
            self.ser_ns = ((size as f64 * 8.0) / self.rate_gbps).ceil() as u64;
        }
        self.ser_ns
    }
}

/// Per-switch, per-slot and per-reason metric label caches. The labels
/// (`switch.NNN.forwarded`, `queue.linkNNNN.ab`, `sim.drop.queue_full`,
/// …) are deterministic functions of their index, so they are rendered
/// once, on first use, and the packet path borrows the cached `&str` —
/// `format!` never runs per packet.
#[derive(Debug, Default)]
struct MetricLabels {
    /// `switch.{:03}.forwarded`, indexed by node id.
    switch_fwd: Vec<String>,
    /// `switch.{:03}.dropped`, indexed by node id.
    switch_drop: Vec<String>,
    /// `sim.drop.{reason}`, one per reason seen so far.
    drop: Vec<(DropReason, String)>,
    /// `queue.link{:04}.{ab|ba}`, indexed by directed slot.
    queue: Vec<String>,
    /// `util.link{:04}.{ab|ba}`, indexed by directed slot.
    util: Vec<String>,
}

impl MetricLabels {
    fn switch_fwd(&mut self, node: u32) -> &str {
        Self::node_label(&mut self.switch_fwd, "forwarded", node)
    }

    fn switch_drop(&mut self, node: u32) -> &str {
        Self::node_label(&mut self.switch_drop, "dropped", node)
    }

    fn drop(&mut self, reason: DropReason) -> &str {
        let i = match self.drop.iter().position(|(r, _)| *r == reason) {
            Some(i) => i,
            None => {
                let label = format!("sim.drop.{}", reason.as_str());
                self.drop.push((reason, label));
                self.drop.len() - 1
            }
        };
        &self.drop[i].1
    }

    fn queue(&mut self, slot: u32) -> &str {
        Self::slot_label(&mut self.queue, "queue", slot)
    }

    fn util(&mut self, slot: u32) -> &str {
        Self::slot_label(&mut self.util, "util", slot)
    }

    fn node_label<'a>(cache: &'a mut Vec<String>, what: &str, node: u32) -> &'a str {
        while cache.len() <= node as usize {
            let n = cache.len();
            cache.push(format!("switch.{n:03}.{what}"));
        }
        &cache[node as usize]
    }

    /// Slot layout mirrors [`Core::links`]: `[2l]` = a→b (`ab`),
    /// `[2l+1]` = b→a (`ba`).
    fn slot_label<'a>(cache: &'a mut Vec<String>, prefix: &str, slot: u32) -> &'a str {
        while cache.len() <= slot as usize {
            let s = cache.len();
            let link_idx = s >> 1;
            let dir_tag = if s & 1 == 0 { "ab" } else { "ba" };
            cache.push(format!("{prefix}.link{link_idx:04}.{dir_tag}"));
        }
        &cache[slot as usize]
    }
}

/// Read-only fabric state, built once per simulation and shared by
/// every [`Core`] of it.
pub(crate) struct Fabric {
    pub(crate) net: Arc<Network>,
    node_kind: Arc<[NodeKind]>,
    /// Arrival node of each directed link slot (`[2l]` = `a→b` arrives
    /// at `b`).
    slot_dst: Arc<[NodeId]>,
    /// VLB domain index per node (`u32::MAX` = not in any domain).
    vlb_domain: Arc<[u32]>,
    /// Whether any VLB domain exists at all.
    pub(crate) vlb_enabled: bool,
    /// Pristine per-slot link state each core starts from.
    links: Vec<DirLink>,
}

impl Fabric {
    /// # Panics
    /// Panics if the VLB fraction lies outside `0..=1`.
    pub(crate) fn new(net: Network, cfg: &SimConfig) -> Fabric {
        let mut vlb_domain = vec![u32::MAX; net.node_count()];
        if let Some(v) = &cfg.vlb {
            assert!(
                (0.0..=1.0).contains(&v.fraction),
                "VLB fraction must be in 0..=1"
            );
            for (i, dom) in v.domains.iter().enumerate() {
                debug_assert!(i < u32::MAX as usize, "VLB domain ids fit u32");
                for &sw in dom {
                    vlb_domain[sw.0 as usize] = i as u32;
                }
            }
        }
        let mut slot_dst = Vec::with_capacity(2 * net.link_count());
        let mut links = Vec::with_capacity(2 * net.link_count());
        for l in net.links() {
            slot_dst.extend([l.b, l.a]);
            let d = DirLink {
                rate_gbps: l.bandwidth_gbps,
                free_at: SimTime::ZERO,
                busy_ns: 0,
                bytes: 0,
                failed: false,
                ser_size: 0,
                ser_ns: 0,
            };
            links.extend([d.clone(), d]);
        }
        Fabric {
            node_kind: net.nodes().map(|n| n.kind).collect(),
            vlb_enabled: vlb_domain.iter().any(|&d| d != u32::MAX),
            slot_dst: slot_dst.into(),
            vlb_domain: vlb_domain.into(),
            links,
            net: Arc::new(net),
        }
    }
}

/// The shared per-packet state machine; `E` supplies the engine hooks.
pub(crate) struct Core<E> {
    pub(crate) cfg: SimConfig,
    pub(crate) net: Arc<Network>,
    /// Dense per-node kind column (the [`Network`] rows carry rack
    /// metadata the per-hop path never reads).
    node_kind: Arc<[NodeKind]>,
    pub(crate) slot_dst: Arc<[NodeId]>,
    vlb_domain: Arc<[u32]>,
    /// Whether any VLB domain exists; `false` keeps non-VLB runs off
    /// the domain table entirely.
    vlb_enabled: bool,
    /// The per-hop lookup: next hop *and* its directed slot in one
    /// indexed load.
    pub(crate) flat: Arc<FlatRoutes>,
    /// 2 per undirected link: `[2l]` = a→b, `[2l+1]` = b→a.
    pub(crate) links: Vec<DirLink>,
    /// Per-node failure state (only switches ever fail).
    pub(crate) failed_nodes: Vec<bool>,
    pub(crate) flows: Vec<FlowMeta>,
    flow_state: Vec<FlowState>,
    /// Dense transport connection table; [`FlowMeta::conn`] indexes it.
    conns: Vec<Conn>,
    /// In-flight packet store (struct-of-arrays; events carry ids).
    pub(crate) arena: PacketArena,
    pub(crate) stats: Stats,
    pub(crate) metrics: Option<MetricsRegistry>,
    labels: MetricLabels,
    /// Whether a trace sink or metrics registry is attached: one load
    /// gates every observability site.
    pub(crate) obs: bool,
    /// The time of the event being processed.
    pub(crate) now: SimTime,
    /// Events processed so far (the events/sec numerator).
    pub(crate) events_processed: u64,
    /// Scratch for VLB intermediate candidates, reused across packets.
    vlb_scratch: Vec<NodeId>,
    /// Scratch for transport actions, reused via `mem::take`.
    action_scratch: Vec<SendAction>,
    pub(crate) eng: E,
}

impl<E: Engine> Core<E> {
    pub(crate) fn new(fabric: &Fabric, cfg: SimConfig, flat: Arc<FlatRoutes>, eng: E) -> Self {
        Core {
            cfg,
            net: Arc::clone(&fabric.net),
            node_kind: Arc::clone(&fabric.node_kind),
            slot_dst: Arc::clone(&fabric.slot_dst),
            vlb_enabled: fabric.vlb_enabled,
            vlb_domain: Arc::clone(&fabric.vlb_domain),
            flat,
            links: fabric.links.clone(),
            failed_nodes: vec![false; fabric.net.node_count()],
            flows: Vec::new(),
            flow_state: Vec::new(),
            conns: Vec::new(),
            arena: PacketArena::new(),
            stats: Stats::default(),
            metrics: None,
            labels: MetricLabels::default(),
            obs: false,
            now: SimTime::ZERO,
            events_processed: 0,
            vlb_scratch: Vec::new(),
            action_scratch: Vec::new(),
            eng,
        }
    }

    /// Appends a flow row (and its connection, for transport flows);
    /// returns its index. Scheduling the first generation is the
    /// engine's call.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is not a host, or they coincide.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size: u32,
        kind: FlowKind,
        tag: u32,
        start: SimTime,
        hash: u64,
    ) -> usize {
        assert_ne!(src, dst, "flow endpoints must differ");
        assert!(
            self.net.node(src).kind == NodeKind::Host && self.net.node(dst).kind == NodeKind::Host,
            "flows run between hosts"
        );
        let conn = match kind {
            FlowKind::Transport {
                total_bytes,
                variant,
            } => {
                let pkts = total_bytes.div_ceil(u64::from(size)).max(1);
                self.conns.push(Conn {
                    sender: SenderState::new(variant, pkts),
                    receiver: ReceiverState::default(),
                    t0: start,
                });
                debug_assert!(self.conns.len() <= u32::MAX as usize, "conn ids fit u32");
                (self.conns.len() - 1) as u32
            }
            _ => NO_CONN,
        };
        self.flows.push(FlowMeta {
            src,
            dst,
            size,
            kind,
            tag,
            hash,
            conn,
        });
        self.flow_state.push(FlowState { sent: 0, t0: start });
        self.flows.len() - 1
    }

    /// Counts a discarded packet, reports it when observing, and frees
    /// its slot.
    fn drop_packet(&mut self, id: PacketId, at: NodeId, t: SimTime, reason: DropReason) {
        self.stats.dropped += 1;
        if self.obs {
            self.drop_hook(self.arena.flow[id as usize], at, t, reason);
        }
        self.arena.free(id);
    }

    /// Trace and metric bookkeeping for one drop; only called when
    /// observing.
    fn drop_hook(&mut self, flow: u32, at: NodeId, t: SimTime, reason: DropReason) {
        self.eng.record(Event::Drop {
            t_ns: t.ns(),
            node: at.0,
            flow,
            reason,
        });
        if let Some(m) = self.metrics.as_mut() {
            m.inc("sim.packets.dropped", 1);
            m.inc(self.labels.drop(reason), 1);
            if self.node_kind[at.0 as usize].is_switch() {
                m.inc(self.labels.switch_drop(at.0), 1);
            }
        }
    }

    /// Runs `f` on `flow`'s sender and executes the actions it asks for.
    fn drive_sender(
        &mut self,
        flow: usize,
        now: SimTime,
        f: impl FnOnce(&mut SenderState, &mut Vec<SendAction>),
    ) {
        let conn = self.flows[flow].conn;
        debug_assert_ne!(conn, NO_CONN, "transport event without a connection");
        let mut actions = std::mem::take(&mut self.action_scratch);
        actions.clear();
        f(&mut self.conns[conn as usize].sender, &mut actions);
        self.apply_transport_actions(flow, now, &actions);
        self.action_scratch = actions;
    }

    /// A retransmission timer of `flow` fired; stale epochs are no-ops.
    pub(crate) fn on_rto(&mut self, flow: usize, epoch: u32, now: SimTime) {
        if self.flows[flow].conn != NO_CONN {
            self.drive_sender(flow, now, |s, a| s.on_rto_into(u64::from(epoch), a));
        }
    }

    /// Emits the flow's next packet (or burst, or window pump).
    pub(crate) fn generate(&mut self, flow_idx: usize, now: SimTime) {
        let flow = self.flows[flow_idx];
        match flow.kind {
            FlowKind::Poisson {
                mean_gap_ns, stop, ..
            } => {
                if now >= stop {
                    return;
                }
                self.emit_request(flow_idx, now, None, false);
                let u: f64 = self.eng.uniform(flow_idx).max(1e-12);
                let gap = (-mean_gap_ns * u.ln()).max(1.0) as u64;
                let next = now + gap;
                if next < stop {
                    self.eng.schedule_gen(flow_idx, next);
                }
            }
            FlowKind::Rpc { count } => {
                if self.flow_state[flow_idx].sent >= count {
                    return;
                }
                self.flow_state[flow_idx].sent += 1;
                self.emit_request(flow_idx, now, None, false);
            }
            FlowKind::Burst {
                burst_pkts,
                period_ns,
                stop,
            } => {
                if now >= stop {
                    return;
                }
                for _ in 0..burst_pkts {
                    self.emit_request(flow_idx, now, None, false);
                }
                let next = now + period_ns;
                if next < stop {
                    self.eng.schedule_gen(flow_idx, next);
                }
            }
            FlowKind::Transport { total_bytes, .. } => {
                // Connection start: open the window.
                let t0 = self.flow_state[flow_idx].t0;
                if t0 == SimTime::ZERO || now >= t0 {
                    if self.obs {
                        self.record_flow_start(flow_idx, now, total_bytes);
                    }
                    self.drive_sender(flow_idx, now, |s, a| s.pump_into(a));
                }
            }
            FlowKind::FileTransfer { total_bytes } => {
                // Ideally paced transport: one packet per serialization
                // slot of the source's access link, so the transfer
                // never overflows its own output queue.
                let pkts64 = total_bytes.div_ceil(u64::from(flow.size)).max(1);
                debug_assert!(pkts64 <= u64::from(u32::MAX), "packet count fits u32");
                let pkts = pkts64 as u32;
                let sent = self.flow_state[flow_idx].sent;
                if sent >= pkts {
                    return;
                }
                if sent == 0 {
                    self.flow_state[flow_idx].t0 = now;
                    if self.obs {
                        self.record_flow_start(flow_idx, now, total_bytes);
                    }
                }
                self.flow_state[flow_idx].sent += 1;
                let is_last = sent + 1 == pkts;
                // The final packet carries the flow's start time so its
                // delivery latency *is* the flow completion time.
                let created = is_last.then(|| self.flow_state[flow_idx].t0);
                self.emit_request(flow_idx, now, created, is_last);
                if !is_last {
                    let (_, link_id) = self.net.neighbors(flow.src)[0];
                    let rate = self.net.link(link_id).bandwidth_gbps;
                    let pace = ((flow.size as f64 * 8.0) / rate).ceil() as u64;
                    self.eng.schedule_gen(flow_idx, now + pace);
                }
            }
        }
    }

    fn record_flow_start(&mut self, flow_idx: usize, now: SimTime, bytes: u64) {
        debug_assert!(flow_idx <= u32::MAX as usize, "flow ids fit u32");
        let f = self.flows[flow_idx];
        self.eng.record(Event::FlowStart {
            t_ns: now.ns(),
            flow: flow_idx as u32,
            src: f.src.0,
            dst: f.dst.0,
            bytes,
        });
    }

    /// Emits one source-side packet of a packet-stream flow.
    fn emit_request(
        &mut self,
        flow_idx: usize,
        now: SimTime,
        created: Option<SimTime>,
        is_last: bool,
    ) {
        let flags = if is_last { FLAG_LAST } else { 0 };
        let size = self.flows[flow_idx].size;
        let created = created.unwrap_or(now);
        self.emit(
            flow_idx,
            now,
            false,
            size,
            TransportInfo::None,
            flags,
            created,
        );
    }

    /// Creates a packet of `flow` and starts it from its origin host:
    /// the flow's source, or its destination when `reverse` (responses,
    /// echoes and ACKs). `created` is the latency base — a response
    /// keeps its request's, so the recorded latency is the round trip.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn emit(
        &mut self,
        flow_idx: usize,
        now: SimTime,
        reverse: bool,
        size: u32,
        transport: TransportInfo,
        flags: u8,
        created: SimTime,
    ) {
        let f = self.flows[flow_idx];
        let (origin, dst, hash) = if reverse {
            (f.dst, f.src, f.hash.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15)
        } else {
            (f.src, f.dst, f.hash)
        };
        debug_assert!(flow_idx <= u32::MAX as usize, "flow ids fit u32");
        let flow_id = flow_idx as u32;
        let id = self.arena.alloc(
            created,
            dst,
            flow_id,
            size,
            hash,
            PacketCold {
                transport,
                intermediate: None,
                flags,
                hops: 0,
            },
        );
        self.eng.on_emit(&self.arena, id, flow_id, reverse);
        self.stats.generated += 1;
        if self.obs {
            self.eng.record(Event::Gen {
                t_ns: now.ns(),
                flow: flow_id,
                size_bytes: size,
                response: flags & FLAG_RESPONSE != 0,
            });
            if let Some(m) = self.metrics.as_mut() {
                m.inc("sim.packets.generated", 1);
            }
        }
        let t = now + self.cfg.latency.host_send_ns;
        self.arrive(id, origin, t, t);
    }

    /// Executes the transport state machine's requested actions.
    fn apply_transport_actions(&mut self, flow_idx: usize, now: SimTime, actions: &[SendAction]) {
        for &a in actions {
            match a {
                SendAction::SendData { seq } => {
                    let f = self.flows[flow_idx];
                    let data = TransportInfo::Data(seq);
                    self.emit(flow_idx, now, false, f.size, data, 0, now);
                }
                SendAction::ArmRto { epoch } => {
                    debug_assert!(epoch <= u64::from(u32::MAX));
                    let at = now + self.cfg.rto_ns;
                    self.eng.schedule_rto(flow_idx, epoch as u32, at);
                }
                SendAction::Complete => {
                    let f = self.flows[flow_idx];
                    let total_bytes = match f.kind {
                        FlowKind::Transport { total_bytes, .. } => total_bytes,
                        _ => 0,
                    };
                    let fct_ns = now.saturating_sub(self.conns[f.conn as usize].t0);
                    self.stats.record(f.tag, fct_ns);
                    debug_assert!(flow_idx <= u32::MAX as usize, "flow ids fit u32");
                    self.log_completion(flow_idx as u32, now, fct_ns, total_bytes);
                }
            }
        }
    }

    /// Logs a managed flow's completion and, when observing, records
    /// `FlowComplete`. Cold: runs once per flow, not per packet.
    fn log_completion(&mut self, flow: u32, at: SimTime, fct_ns: u64, bytes: u64) {
        self.eng.complete(FlowCompletion { flow, fct_ns });
        if self.obs {
            self.eng.record(Event::FlowComplete {
                t_ns: at.ns(),
                flow,
                fct_ns,
                bytes,
            });
        }
    }

    /// Handles a packet (arena slot `id`) whose head reached `at` at
    /// `head` (tail at `tail`): deliver, or queue on the next output
    /// port. Every exit path either frees the slot (delivery, drops) or
    /// hands it to [`Engine::schedule_arrival`].
    // lint:hot
    pub(crate) fn arrive(&mut self, id: PacketId, at: NodeId, head: SimTime, tail: SimTime) {
        let i = id as usize;
        // A dead switch loses every frame that reaches it.
        if self.failed_nodes[at.0 as usize] {
            self.drop_packet(id, at, head, DropReason::DeadSwitch);
            return;
        }
        let flow_id = self.arena.flow[i];
        let node_kind = self.node_kind[at.0 as usize];
        let dst = self.arena.dst[i];
        if at == dst {
            debug_assert!(node_kind.is_host());
            self.deliver(id, at, tail);
            return;
        }

        // Forwarding: the mutable fields (detour, flags, hash, hops)
        // work on copies and write back once, right before scheduling.
        let mut cold = self.arena.cold[i];
        let mut hash = self.arena.hash[i];
        let size = self.arena.size[i];

        // Routing target: detour intermediate first, then the real dst.
        if cold.intermediate == Some(at) {
            cold.intermediate = None;
        }

        // VLB decision at the mesh ingress switch. (`vlb_enabled` keeps
        // non-VLB runs — the common case — off the domain table
        // entirely; with no domains configured every lookup would miss
        // anyway.)
        let mut vlb_detour: Option<NodeId> = None;
        if self.vlb_enabled && cold.flags & FLAG_VLB_DECIDED == 0 && node_kind.is_switch() {
            let dom_idx = self.vlb_domain[at.0 as usize];
            if dom_idx != u32::MAX {
                cold.flags |= FLAG_VLB_DECIDED;
                if let Some((nh, _)) = self.flat.ecmp_next(at, dst, hash) {
                    if self.vlb_domain[nh.0 as usize] == dom_idx {
                        let vlb = self.cfg.vlb.as_ref().expect("domains imply config");
                        if self.eng.vlb_coin(id) < vlb.fraction {
                            let dom = &vlb.domains[dom_idx as usize];
                            self.vlb_scratch.clear();
                            self.vlb_scratch
                                .extend(dom.iter().copied().filter(|&w| w != at && w != nh));
                            if !self.vlb_scratch.is_empty() {
                                let pick = self.eng.vlb_pick(id, self.vlb_scratch.len());
                                let w = self.vlb_scratch[pick];
                                cold.intermediate = Some(w);
                                vlb_detour = Some(w);
                                // Per-packet spraying: differentiate the
                                // hash so detour packets of one flow use
                                // their own ECMP choices.
                                hash = self.eng.vlb_spray(id);
                            }
                        }
                    }
                }
            }
        }

        if self.obs {
            if let Some(w) = vlb_detour {
                self.eng.record(Event::Vlb {
                    t_ns: head.ns(),
                    node: at.0,
                    flow: flow_id,
                    via: w.0,
                });
                if let Some(m) = self.metrics.as_mut() {
                    m.inc("sim.vlb.detours", 1);
                }
            }
        }

        let target = cold.intermediate.unwrap_or(dst);
        let routing = self.eng.routes(&self.flat, flow_id);
        let Some((next, slot)) = routing.ecmp_next(at, target, hash) else {
            self.drop_packet(id, at, head, DropReason::NoRoute);
            return;
        };
        let (failed, rate, free_at, ser_ns) = {
            let dl = &mut self.links[slot as usize];
            (dl.failed, dl.rate_gbps, dl.free_at, dl.ser_ns(size))
        };
        if failed {
            // A cut fiber: everything forwarded onto it is lost until
            // routes are recomputed.
            self.drop_packet(id, at, head, DropReason::DeadLink);
            return;
        }
        let inbound_ns = tail - head; // 0 at the origin host
        let mut forward_decision: Option<(ForwardMode, u64)> = None;
        let earliest = match node_kind {
            NodeKind::Host => {
                if inbound_ns == 0 {
                    // Origin host (head == tail only at emission; every
                    // real link adds ≥ 1 ns of serialization): send-side
                    // latency was applied in `emit`.
                    head
                } else {
                    // Relay host (server-centric designs): full stack.
                    tail + self.cfg.latency.host_recv_ns + self.cfg.latency.host_send_ns
                }
            }
            NodeKind::Switch(role) => {
                let spec = self.cfg.latency.spec_for(role);
                let mode = spec.forward_mode(inbound_ns, ser_ns);
                if self.obs {
                    forward_decision = Some((mode, spec.latency_ns));
                }
                match mode {
                    ForwardMode::CutThrough => head + spec.latency_ns,
                    ForwardMode::StoreForward => tail + spec.latency_ns,
                }
            }
        };
        if let Some((mode, latency_ns)) = forward_decision {
            let cut_through = mode == ForwardMode::CutThrough;
            self.eng.record(Event::Forward {
                t_ns: head.ns(),
                node: at.0,
                flow: flow_id,
                cut_through,
                latency_ns,
            });
            if let Some(m) = self.metrics.as_mut() {
                m.inc(
                    if cut_through {
                        "sim.forward.cut_through"
                    } else {
                        "sim.forward.store_forward"
                    },
                    1,
                );
            }
        }

        // Drop-tail check on the output port (skip the float math on
        // the common idle-port case — the backlog is exactly zero).
        let backlog_ns = free_at.saturating_sub(earliest);
        let backlog_bytes = if backlog_ns == 0 {
            0
        } else {
            (backlog_ns as f64 * rate / 8.0) as u64
        };
        if backlog_bytes > self.cfg.queue_cap_bytes {
            self.drop_packet(id, at, earliest, DropReason::QueueFull);
            return;
        }
        // DCTCP-style ECN: mark packets that queue behind more than K
        // bytes (instantaneous queue-length marking, as DCTCP specifies).
        if let Some(k) = self.cfg.ecn_threshold_bytes {
            if backlog_bytes > k {
                cold.flags |= FLAG_ECN;
            }
        }

        let start = if free_at > earliest {
            free_at
        } else {
            earliest
        };
        let done = start + ser_ns;
        let dl = &mut self.links[slot as usize];
        dl.free_at = done;
        dl.busy_ns += ser_ns;
        dl.bytes += u64::from(size);
        if self.obs {
            let queue_bytes = backlog_bytes + u64::from(size);
            // Slot layout: [2l] = a→b, [2l+1] = b→a.
            let link_idx = slot >> 1;
            let to_b = slot & 1 == 0;
            self.eng.record(Event::Enqueue {
                t_ns: earliest.ns(),
                node: at.0,
                link: link_idx,
                to_b,
                flow: flow_id,
                queue_bytes,
            });
            self.eng.record(Event::Transmit {
                t_ns: start.ns(),
                link: link_idx,
                to_b,
                flow: flow_id,
                serialize_ns: ser_ns,
            });
            if let Some(m) = self.metrics.as_mut() {
                m.inc("sim.packets.forwarded", 1);
                if node_kind.is_switch() {
                    m.inc(self.labels.switch_fwd(at.0), 1);
                }
                m.observe(self.labels.queue(slot), earliest.ns(), queue_bytes);
                m.observe(self.labels.util(slot), start.ns(), ser_ns);
            }
        }
        cold.hops += 1;
        self.arena.cold[i] = cold;
        self.arena.hash[i] = hash;
        debug_assert_eq!(next, self.slot_dst[slot as usize]);
        debug_assert!(ser_ns <= u64::from(u32::MAX));
        let prop = self.cfg.prop_delay_ns;
        let arrival = Arrival {
            pkt: id,
            at: next,
            slot,
            head: start + prop,
            tail: done + prop,
            ser: ser_ns as u32,
            idle: free_at <= earliest,
        };
        self.eng.schedule_arrival(&mut self.arena, arrival);
    }

    /// Delivers packet `id` (tail at `tail`) to its destination host
    /// `at`: records the sample, then runs the receiver side — ACK a
    /// data segment, feed an ACK to the sender, answer a request, or
    /// schedule the next RPC. The slot is freed up front: the LIFO free
    /// list hands the still-warm row straight to the ACK or response
    /// this delivery may emit.
    // lint:hot
    #[inline]
    fn deliver(&mut self, id: PacketId, at: NodeId, tail: SimTime) {
        let i = id as usize;
        let flow_id = self.arena.flow[i];
        let delivered_at = tail + self.cfg.latency.host_recv_ns;
        let size = self.arena.size[i];
        let created = self.arena.created[i];
        let cold = self.arena.cold[i];
        self.arena.free(id);
        self.stats.delivered += 1;
        let flow_idx = flow_id as usize;
        let f = self.flows[flow_idx];
        // One stats-row lookup per delivery: decide up front whether
        // this delivery contributes a latency sample (responses and
        // one-way streams do; request legs awaiting a response,
        // transport segments, and non-final file packets don't).
        let is_response = cold.flags & FLAG_RESPONSE != 0;
        let latency_sample = match cold.transport {
            TransportInfo::None => {
                if is_response {
                    Some(delivered_at.saturating_sub(created))
                } else {
                    let completes = match f.kind {
                        FlowKind::Poisson { respond, .. } => !respond,
                        FlowKind::Rpc { .. } => false,
                        FlowKind::FileTransfer { .. } => cold.flags & FLAG_LAST != 0,
                        _ => true,
                    };
                    completes.then(|| delivered_at.saturating_sub(created))
                }
            }
            _ => None,
        };
        self.stats
            .record_delivery(f.tag, u64::from(size), cold.hops, latency_sample);
        if self.obs {
            self.eng.record(Event::Deliver {
                t_ns: delivered_at.ns(),
                node: at.0,
                flow: flow_id,
                latency_ns: delivered_at.saturating_sub(created),
                hops: cold.hops,
            });
            if let Some(m) = self.metrics.as_mut() {
                m.inc("sim.packets.delivered", 1);
            }
        }
        // A file transfer's last packet closes the whole flow: log its
        // completion (transport flows log theirs at
        // `SendAction::Complete` instead).
        if let FlowKind::FileTransfer { total_bytes } = f.kind {
            if cold.flags & FLAG_LAST != 0 {
                let fct_ns = delivered_at.saturating_sub(created);
                self.log_completion(flow_id, delivered_at, fct_ns, total_bytes);
            }
        }
        match cold.transport {
            TransportInfo::Data(seq) => {
                // Receiver: reassemble and send a cumulative ACK echoing
                // this packet's ECN mark.
                debug_assert_ne!(f.conn, NO_CONN, "data packet without connection");
                let ack = self.conns[f.conn as usize].receiver.on_data(seq);
                let ecn_echo = cold.flags & FLAG_ECN != 0;
                let info = TransportInfo::Ack { ack, ecn_echo };
                self.emit(flow_idx, delivered_at, true, 64, info, 0, delivered_at);
            }
            TransportInfo::Ack { ack, ecn_echo } => {
                self.drive_sender(flow_idx, delivered_at, |s, a| {
                    s.on_ack_into(ack, ecn_echo, a)
                });
            }
            TransportInfo::None if is_response => {
                if let FlowKind::Rpc { count } = f.kind {
                    if self.flow_state[flow_idx].sent < count {
                        self.eng.schedule_gen(flow_idx, delivered_at);
                    }
                }
            }
            TransportInfo::None => {
                let responds = matches!(
                    f.kind,
                    FlowKind::Poisson { respond: true, .. } | FlowKind::Rpc { .. }
                );
                if responds {
                    let info = TransportInfo::None;
                    self.emit(
                        flow_idx,
                        delivered_at,
                        true,
                        f.size,
                        info,
                        FLAG_RESPONSE,
                        created,
                    );
                }
            }
        }
    }

    /// Applies one fault (or recovery) to this core's data plane.
    pub(crate) fn set_fault_state(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::LinkDown(l) | FaultKind::LinkUp(l) => {
                let down = matches!(kind, FaultKind::LinkDown(_));
                self.links[2 * l.0 as usize].failed = down;
                self.links[2 * l.0 as usize + 1].failed = down;
            }
            FaultKind::SwitchDown(n) => self.failed_nodes[n.0 as usize] = true,
            FaultKind::SwitchUp(n) => self.failed_nodes[n.0 as usize] = false,
        }
    }

    /// Adds this core's per-slot transmission totals into `out` (one
    /// row per undirected link).
    pub(crate) fn add_link_loads(&self, out: &mut [LinkLoad]) {
        for (i, ll) in out.iter_mut().enumerate() {
            let (ab, ba) = (&self.links[2 * i], &self.links[2 * i + 1]);
            ll.ab_busy_ns += ab.busy_ns;
            ll.ab_bytes += ab.bytes;
            ll.ba_busy_ns += ba.busy_ns;
            ll.ba_bytes += ba.bytes;
        }
    }
}

/// The control plane: the routing table as the data plane last saw
/// it, the fault deltas not yet reflected in it, and the fault log.
pub(crate) struct Control {
    net: Arc<Network>,
    pub(crate) table: RouteTable,
    /// Link/node failure state *as the routing table last saw it*.
    /// [`Control::reroute`] replays pending deltas against these so
    /// each incremental patch observes exactly the state the previous
    /// patch produced (faults and recoveries may interleave between
    /// reroutes).
    routed_link_failed: Vec<bool>,
    routed_node_failed: Vec<bool>,
    /// Fault deltas that have fired but are not yet in `table`.
    pending: Vec<FaultKind>,
    /// Every fault event that has fired, with reconvergence outcomes.
    pub(crate) fault_log: Vec<FaultRecord>,
}

impl Control {
    /// Routes the pristine fabric; returns the control plane and the
    /// flat table the data plane forwards by.
    pub(crate) fn new(net: Arc<Network>) -> (Control, FlatRoutes) {
        let table = RouteTable::all_shortest_paths(&net);
        let flat = FlatRoutes::new(&table, &net);
        let ctl = Control {
            routed_link_failed: vec![false; net.link_count()],
            routed_node_failed: vec![false; net.node_count()],
            net,
            table,
            pending: Vec::new(),
            fault_log: Vec::new(),
        };
        (ctl, flat)
    }

    /// # Panics
    /// Panics if `kind` names an unknown link or a non-switch node.
    pub(crate) fn check(&self, kind: FaultKind) {
        match kind {
            FaultKind::LinkDown(l) | FaultKind::LinkUp(l) => {
                assert!((l.0 as usize) < self.net.link_count(), "unknown link");
            }
            FaultKind::SwitchDown(n) | FaultKind::SwitchUp(n) => {
                assert!(
                    self.net.node(n).kind.is_switch(),
                    "only switches fail; {n:?} is a host"
                );
            }
        }
    }

    /// Opens a log record for a fault that just hit the data plane at
    /// `at`, with `dropped` packets lost so far. Returns its trace
    /// event.
    pub(crate) fn open(
        &mut self,
        at: SimTime,
        kind: FaultKind,
        dropped: u64,
        metrics: Option<&mut MetricsRegistry>,
    ) -> Event {
        self.pending.push(kind);
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
        if let Some(m) = metrics {
            m.inc(&format!("sim.fault.{kind_str}"), 1);
        }
        Event::Fault {
            t_ns: at.ns(),
            kind: kind_str,
            element,
        }
    }

    /// Control-plane reconvergence at `at`: patches the table with
    /// every pending delta, closes the open fault records against
    /// `dropped`, and returns the new flat table plus the trace event.
    /// `links` and `failed_nodes` are the live data plane the patched
    /// table is checked against in debug builds.
    pub(crate) fn reroute(
        &mut self,
        at: SimTime,
        dropped: u64,
        links: &[DirLink],
        failed_nodes: &[bool],
        metrics: Option<&mut MetricsRegistry>,
    ) -> (FlatRoutes, Event) {
        // Incremental reconvergence: replay each pending fault delta as
        // a patch that recomputes only the destinations whose shortest
        // paths the delta can change. Each patch must observe the
        // failure state the *previous* patch produced (several deltas
        // may queue between reroutes, including a fault and its own
        // recovery), so the `routed_*` vectors advance delta by delta
        // rather than reading the live data plane.
        for kind in std::mem::take(&mut self.pending) {
            let change = match kind {
                FaultKind::LinkDown(l) => {
                    self.routed_link_failed[l.0 as usize] = true;
                    RouteChange::LinkDown(l)
                }
                FaultKind::LinkUp(l) => {
                    self.routed_link_failed[l.0 as usize] = false;
                    RouteChange::LinkUp(l)
                }
                FaultKind::SwitchDown(n) => {
                    self.routed_node_failed[n.0 as usize] = true;
                    RouteChange::NodeDown(n)
                }
                FaultKind::SwitchUp(n) => {
                    self.routed_node_failed[n.0 as usize] = false;
                    RouteChange::NodeUp(n)
                }
            };
            let (rl, rn) = (&self.routed_link_failed, &self.routed_node_failed);
            self.table.patch(
                &self.net,
                change,
                |l| rl[l.0 as usize],
                |n| rn[n.0 as usize],
            );
        }
        // Every delta has been replayed, so the patched table must
        // equal a from-scratch rebuild over the live failure state.
        debug_assert_eq!(
            self.table,
            RouteTable::degraded(
                &self.net,
                |l| links[2 * l.0 as usize].failed,
                |n| failed_nodes[n.0 as usize],
            ),
            "incremental route patch diverged from scratch rebuild"
        );
        let mut resolved = 0u32;
        for r in self
            .fault_log
            .iter_mut()
            .filter(|r| r.reconverged_at.is_none())
        {
            r.reconverged_at = Some(at);
            r.drops_during_outage = dropped - r.baseline_drops;
            resolved += 1;
        }
        if let Some(m) = metrics {
            m.inc("sim.reroutes", 1);
        }
        let ev = Event::Reroute {
            t_ns: at.ns(),
            resolved,
        };
        (FlatRoutes::new(&self.table, &self.net), ev)
    }
}
