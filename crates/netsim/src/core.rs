//! The per-packet core every spatial domain of the engine runs.
//!
//! [`Core`] owns the state every packet touches — configuration, the
//! link rows of the directed slots its own nodes send on, failed links
//! and nodes, node kinds, flat routes (plus the SPAIN-style extra
//! tables and per-flow pins), VLB domains, the packet arena (one row
//! per packet: its hot fields, canonical key, pre-drawn VLB randomness
//! and cold fields), the flow table (one row per flow:
//! its metadata, progress, key counters and two private RNG streams),
//! the transport connections, and statistics — and implements the
//! per-packet logic exactly once: forwarding and
//! delivery ([`Core::arrive`]), generation, emission, transport
//! actions, drop accounting and data-plane fault state. It holds no
//! metrics: it records one [`Event`] per lifecycle point. Nor does it
//! keep a route table: a reroute installs [`Core::live_routes`], a
//! table built from scratch over the live failure state and flattened.
//! The fault log and the reroute timeline belong to the coordinator's
//! control plane (`crate::shard`).
//!
//! How the core runs belongs to its domain ([`crate::shard::Domain`],
//! the core's `eng`): a content-keyed wheel plus the cross-domain
//! boundary mailboxes, the metrics fold and recorder (or merge-keyed
//! stash) every recorded event goes to, and the injected clock. The
//! keys themselves are the core's to count: it advances each flow's
//! generation, emission and timer-arm counters and builds the keys with
//! `crate::shard`'s key functions. Which retransmission timer is live
//! is decided here, once: a connection keeps at most one timer event
//! queued (see [`Core::on_rto`]).

use crate::arena::{
    Packet, PacketArena, PacketCold, PacketId, VlbDraws, FLAG_ECN, FLAG_LAST, FLAG_RESPONSE,
    FLAG_VLB_DECIDED,
};
use crate::faults::FaultKind;
use crate::shard::{packet_key, rto_key, Domain};
use crate::sim::{FlowCompletion, FlowKind, LinkLoad, SimConfig};
use crate::stats::Stats;
use crate::switch::ForwardMode;
use crate::time::SimTime;
use crate::transport::{ReceiverState, SendAction, SenderState, TransportInfo, RTO_NS};
use quartz_core::pool::unit_seed;
use quartz_core::rng::StdRng;
use quartz_obs::{DropReason, Event};
use quartz_topology::graph::{Network, NodeId, NodeKind};
use quartz_topology::route::{FlatRoutes, RouteTable};
use std::sync::Arc;

/// Sentinel: this flow has no transport connection.
const NO_CONN: u32 = u32::MAX;

/// A forwarded packet's next arrival, as handed to
/// [`Domain::schedule_arrival`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Arrival {
    pub(crate) pkt: PacketId,
    /// The node the head arrives at.
    pub(crate) at: NodeId,
    pub(crate) head: SimTime,
    /// Serialization time of the hop (tail minus head), ns.
    pub(crate) ser: u32,
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

/// Per-flow mutable progress and key counters, parallel to the
/// [`FlowMeta`] table.
struct FlowState {
    /// Packets (or requests) sent so far.
    sent: u32,
    /// First emission time (file transfers measure completion from it).
    t0: SimTime,
    /// Next generation-event ordinal (the generation key's low word).
    gens: u32,
    /// The source side (`[0]`) and the destination side (`[1]`).
    sides: [Side; 2],
}

/// One end of a flow as an emitter: its packet-key counter and its
/// private RNG stream.
struct Side {
    /// Packets emitted from this side so far (the packet key's low
    /// word).
    emitted: u32,
    rng: StdRng,
}

/// One reliable connection's two endpoints, its start time and its
/// retransmission timer.
struct Conn {
    sender: SenderState,
    receiver: ReceiverState,
    t0: SimTime,
    rto: Timer,
}

/// A connection's latest armed retransmission timer. Arming only
/// overwrites it; at most one event per connection sits in the
/// scheduler, and [`Core::on_rto`] moves it forward to this record.
#[derive(Clone, Copy, Debug, Default)]
struct Timer {
    deadline: SimTime,
    key: u64,
    /// The sender epoch the timer was armed for.
    epoch: u64,
    /// Whether an event for this connection is queued.
    queued: bool,
    /// Arms so far: the next arm's key component.
    arms: u32,
}

/// Per-direction link state: one row per directed slot, kept only by
/// the domain that owns the slot's source node.
#[derive(Debug)]
pub(crate) struct DirLink {
    rate_gbps: f64, // == bits per ns
    free_at: SimTime,
    /// Nanoseconds spent transmitting (for utilization reports).
    busy_ns: u64,
    /// Bytes transmitted.
    bytes: u64,
    /// Memoized serialization time for the last frame size sent (the
    /// rate is fixed per link and traffic is dominated by one or two
    /// sizes, so the `ceil(bits / rate)` float round-trip rarely
    /// recomputes). `ser_size == 0` means empty.
    ser_size: u32,
    ser_ns: u64,
}

impl DirLink {
    fn new(rate_gbps: f64) -> DirLink {
        DirLink {
            rate_gbps,
            free_at: SimTime::ZERO,
            busy_ns: 0,
            bytes: 0,
            ser_size: 0,
            ser_ns: 0,
        }
    }

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

/// Read-only fabric state, built once per simulation and shared by
/// every [`Core`] of it: the network, node kinds, VLB domains, and the
/// map from each global directed slot to its row in the owning
/// domain's link table.
pub(crate) struct Fabric {
    pub(crate) net: Arc<Network>,
    node_kind: Arc<[NodeKind]>,
    /// VLB domain index per node (`u32::MAX` = not in any domain).
    vlb_domain: Arc<[u32]>,
    /// Whether any VLB domain exists at all.
    pub(crate) vlb_enabled: bool,
    /// Each directed slot's row in its owner's link table, where the
    /// owner is the domain of the slot's source node.
    slot_local: Arc<[u32]>,
}

impl Fabric {
    /// The shared state of `net` under `cfg`, split over `k` domains by
    /// `dom_of` (the domain of each node). `cfg`'s VLB domains must
    /// name nodes of `net` (`ShardedSim::try_new` checks them).
    pub(crate) fn new(net: Network, cfg: &SimConfig, dom_of: &[u32], k: usize) -> Fabric {
        let mut vlb_domain = vec![u32::MAX; net.node_count()];
        if let Some(v) = &cfg.vlb {
            for (i, dom) in v.domains.iter().enumerate() {
                debug_assert!(i < u32::MAX as usize, "VLB domain ids fit u32");
                for &sw in dom {
                    vlb_domain[sw.0 as usize] = i as u32;
                }
            }
        }
        // Rows are numbered per owner in slot order, the order in which
        // `Core::new` lays out its table.
        let mut rows = vec![0u32; k];
        let mut slot_local = Vec::with_capacity(2 * net.link_count());
        for l in net.links() {
            for src in [l.a, l.b] {
                let next = &mut rows[dom_of[src.0 as usize] as usize];
                slot_local.push(*next);
                *next += 1;
            }
        }
        Fabric {
            node_kind: net.nodes().map(|n| n.kind).collect(),
            vlb_enabled: vlb_domain.iter().any(|&d| d != u32::MAX),
            vlb_domain: vlb_domain.into(),
            slot_local: slot_local.into(),
            net: Arc::new(net),
        }
    }
}

/// The per-packet state machine of one domain. Its link table holds a
/// row only for each directed slot whose source node the domain owns
/// (the only slots its `arrive` ever sends on); its flow table is
/// full-size, with only the ends the domain hosts ever advancing.
pub(crate) struct Core {
    pub(crate) cfg: SimConfig,
    pub(crate) net: Arc<Network>,
    /// Dense per-node kind column (the [`Network`] rows carry rack
    /// metadata the per-hop path never reads).
    pub(crate) node_kind: Arc<[NodeKind]>,
    vlb_domain: Arc<[u32]>,
    /// Whether any VLB domain exists; `false` keeps non-VLB runs off
    /// the domain table entirely.
    vlb_enabled: bool,
    /// The per-hop lookup: next hop *and* its directed slot in one
    /// indexed load.
    pub(crate) flat: Arc<FlatRoutes>,
    /// Extra routing tables (per-VLAN spanning trees, §6's SPAIN
    /// technique), stored flattened.
    pub(crate) extra_flat: Vec<Arc<FlatRoutes>>,
    /// The extra table each flow is pinned to, by flow id (flows past
    /// the end are unpinned).
    pub(crate) flow_table: Vec<Option<usize>>,
    /// One row per directed slot this domain sends on, in slot order;
    /// `slot_local` maps a global slot (`[2l]` = a→b, `[2l+1]` = b→a)
    /// to its row.
    pub(crate) links: Vec<DirLink>,
    slot_local: Arc<[u32]>,
    /// Per-link failure state, one entry per undirected link. Every
    /// domain keeps all of it, so any domain's reroute sees every cut.
    pub(crate) failed_links: Vec<bool>,
    /// Per-node failure state (only switches ever fail).
    pub(crate) failed_nodes: Vec<bool>,
    pub(crate) flows: Vec<FlowMeta>,
    flow_state: Vec<FlowState>,
    /// Dense transport connection table; [`FlowMeta::conn`] indexes it.
    conns: Vec<Conn>,
    /// In-flight packet store (struct-of-arrays; events carry ids).
    pub(crate) arena: PacketArena,
    pub(crate) stats: Stats,
    /// The time of the event being processed.
    pub(crate) now: SimTime,
    /// Events processed so far (the events/sec numerator).
    pub(crate) events_processed: u64,
    /// Scratch for VLB intermediate candidates, reused across packets.
    vlb_scratch: Vec<NodeId>,
    /// Scratch for transport actions, reused via `mem::take`.
    action_scratch: Vec<SendAction>,
    /// The domain's wheel, mailboxes, sinks and clock.
    pub(crate) eng: Domain,
}

impl Core {
    pub(crate) fn new(fabric: &Fabric, cfg: SimConfig, flat: Arc<FlatRoutes>, eng: Domain) -> Self {
        let net = &fabric.net;
        let links = net
            .links()
            .flat_map(|l| [(l.a, l), (l.b, l)])
            .filter(|&(src, _)| eng.owns(src))
            .map(|(_, l)| DirLink::new(l.bandwidth_gbps))
            .collect();
        Core {
            cfg,
            net: Arc::clone(&fabric.net),
            node_kind: Arc::clone(&fabric.node_kind),
            vlb_enabled: fabric.vlb_enabled,
            vlb_domain: Arc::clone(&fabric.vlb_domain),
            flat,
            extra_flat: Vec::new(),
            flow_table: Vec::new(),
            links,
            slot_local: Arc::clone(&fabric.slot_local),
            failed_links: vec![false; net.link_count()],
            failed_nodes: vec![false; net.node_count()],
            flows: Vec::new(),
            flow_state: Vec::new(),
            conns: Vec::new(),
            arena: PacketArena::new(),
            stats: Stats::default(),
            now: SimTime::ZERO,
            events_processed: 0,
            vlb_scratch: Vec::new(),
            action_scratch: Vec::new(),
            eng,
        }
    }

    /// Appends a flow row (and its connection, for transport flows),
    /// seeds its two RNG streams, and queues its first generation at
    /// `start` if this domain hosts `src`. Returns its index.
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
                    rto: Timer::default(),
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
        let i = self.flow_state.len() as u64;
        let side = |j| Side {
            emitted: 0,
            rng: StdRng::seed_from_u64(unit_seed(self.cfg.seed, 2 * i + j)),
        };
        self.flow_state.push(FlowState {
            sent: 0,
            t0: start,
            gens: 0,
            sides: [side(0), side(1)],
        });
        let idx = self.flows.len() - 1;
        if self.eng.owns(src) {
            self.schedule_gen(idx, start);
        }
        idx
    }

    /// Queues the flow's next generation event.
    #[inline]
    fn schedule_gen(&mut self, flow_idx: usize, at: SimTime) {
        let st = &mut self.flow_state[flow_idx];
        let n = st.gens;
        debug_assert!(n < u32::MAX, "generation counter fits u32");
        st.gens = n + 1;
        self.eng.push_gen(flow_idx, n, at);
    }

    /// Counts a discarded packet, records it, and frees its slot.
    fn drop_packet(&mut self, id: PacketId, at: NodeId, t: SimTime, reason: DropReason) {
        self.stats.dropped += 1;
        self.eng.record(|| Event::Drop {
            t_ns: t.ns(),
            node: at.0,
            flow: self.arena.flow[id as usize],
            reason,
        });
        self.arena.free(id);
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

    /// `flow`'s timer event popped at `(now, key)`. If the connection
    /// re-armed since the event was queued, the event moves to the
    /// latest armed `(deadline, key)`; otherwise the timer fires (a
    /// stale epoch is still a no-op in the sender).
    pub(crate) fn on_rto(&mut self, flow: usize, key: u64, now: SimTime) {
        let conn = self.flows[flow].conn;
        debug_assert_ne!(conn, NO_CONN, "timer event without a connection");
        let rto = &mut self.conns[conn as usize].rto;
        debug_assert!(rto.queued && (now, key) <= (rto.deadline, rto.key));
        if (now, key) != (rto.deadline, rto.key) {
            self.eng.push_rto(flow, rto.deadline, rto.key);
            return;
        }
        rto.queued = false;
        let epoch = rto.epoch;
        self.drive_sender(flow, now, |s, a| s.on_rto_into(epoch, a));
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
                let rng = &mut self.flow_state[flow_idx].sides[0].rng;
                let u = rng.random::<f64>().max(1e-12);
                let gap = (-mean_gap_ns * u.ln()).max(1.0) as u64;
                let next = now + gap;
                if next < stop {
                    self.schedule_gen(flow_idx, next);
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
                    self.schedule_gen(flow_idx, next);
                }
            }
            FlowKind::Transport { total_bytes, .. } => {
                // Connection start: open the window.
                let t0 = self.flow_state[flow_idx].t0;
                if t0 == SimTime::ZERO || now >= t0 {
                    self.record_flow_start(flow_idx, now, total_bytes);
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
                    self.record_flow_start(flow_idx, now, total_bytes);
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
                    self.schedule_gen(flow_idx, now + pace);
                }
            }
        }
    }

    fn record_flow_start(&mut self, flow_idx: usize, now: SimTime, bytes: u64) {
        debug_assert!(flow_idx <= u32::MAX as usize, "flow ids fit u32");
        let f = self.flows[flow_idx];
        self.eng.record(|| Event::FlowStart {
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
        // The canonical key and the VLB draws come from the emitting
        // side: the destination's for responses, echoes and ACKs.
        let side = &mut self.flow_state[flow_idx].sides[usize::from(reverse)];
        let n = side.emitted;
        debug_assert!(n < u32::MAX, "emission counter fits u32");
        side.emitted = n + 1;
        let vlb = if self.vlb_enabled {
            VlbDraws {
                coin: side.rng.random::<f64>(),
                pick: side.rng.next_u64(),
                spray: side.rng.next_u64(),
            }
        } else {
            VlbDraws::default()
        };
        let id = self.arena.alloc(Packet {
            created,
            dst,
            flow: flow_id,
            size,
            hash,
            key: packet_key(flow_id, reverse, n),
            vlb,
            cold: PacketCold {
                transport,
                intermediate: None,
                flags,
                hops: 0,
            },
        });
        self.stats.generated += 1;
        self.eng.record(|| Event::Gen {
            t_ns: now.ns(),
            flow: flow_id,
            size_bytes: size,
            response: flags & FLAG_RESPONSE != 0,
        });
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
                    let deadline = now + RTO_NS;
                    let conn = self.flows[flow_idx].conn as usize;
                    let rto = &mut self.conns[conn].rto;
                    // Deadlines never move back, so the queued event
                    // (at or before the old deadline) still pops first.
                    debug_assert!(!rto.queued || deadline >= rto.deadline);
                    // Every arm takes the flow's next key, so the timer
                    // pops where a per-arm schedule would pop it.
                    debug_assert!(rto.arms < u32::MAX, "timer counter fits u32");
                    debug_assert!(flow_idx < (1 << 29), "flow ids fit the key layout");
                    let key = rto_key(flow_idx as u32, rto.arms);
                    let queued = rto.queued;
                    *rto = Timer {
                        deadline,
                        key,
                        epoch,
                        queued: true,
                        arms: rto.arms + 1,
                    };
                    if !queued {
                        self.eng.push_rto(flow_idx, deadline, key);
                    }
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

    /// Logs a managed flow's completion and records `FlowComplete`.
    /// Cold: runs once per flow, not per packet.
    fn log_completion(&mut self, flow: u32, at: SimTime, fct_ns: u64, bytes: u64) {
        self.eng.complete(FlowCompletion { flow, fct_ns });
        self.eng.record(|| Event::FlowComplete {
            t_ns: at.ns(),
            flow,
            fct_ns,
            bytes,
        });
    }

    /// Handles a packet (arena slot `id`) whose head reached `at` at
    /// `head` (tail at `tail`): deliver, or queue on the next output
    /// port. Every exit path either frees the slot (delivery, drops) or
    /// hands it to [`Domain::schedule_arrival`].
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
        if self.vlb_enabled && cold.flags & FLAG_VLB_DECIDED == 0 && node_kind.is_switch() {
            let dom_idx = self.vlb_domain[at.0 as usize];
            if dom_idx != u32::MAX {
                cold.flags |= FLAG_VLB_DECIDED;
                if let Some((nh, _)) = self.flat.ecmp_next(at, dst, hash) {
                    if self.vlb_domain[nh.0 as usize] == dom_idx {
                        let vlb = self.cfg.vlb.as_ref().expect("domains imply config");
                        let draws = self.arena.vlb[i];
                        if draws.coin < vlb.fraction {
                            let dom = &vlb.domains[dom_idx as usize];
                            self.vlb_scratch.clear();
                            self.vlb_scratch
                                .extend(dom.iter().copied().filter(|&w| w != at && w != nh));
                            if !self.vlb_scratch.is_empty() {
                                let n = self.vlb_scratch.len() as u64;
                                let w = self.vlb_scratch[(draws.pick % n) as usize];
                                cold.intermediate = Some(w);
                                self.eng.record(|| Event::Vlb {
                                    t_ns: head.ns(),
                                    node: at.0,
                                    flow: flow_id,
                                    via: w.0,
                                });
                                // Per-packet spraying: differentiate the
                                // hash so detour packets of one flow use
                                // their own ECMP choices.
                                hash = draws.spray;
                            }
                        }
                    }
                }
            }
        }

        let target = cold.intermediate.unwrap_or(dst);
        // Unpinned flows (every flow, unless SPAIN tables are in use)
        // route by the default table.
        let routing = match self.flow_table.get(flow_id as usize) {
            Some(&Some(t)) => &self.extra_flat[t],
            _ => &self.flat,
        };
        let Some((next, slot)) = routing.ecmp_next(at, target, hash) else {
            self.drop_packet(id, at, head, DropReason::NoRoute);
            return;
        };
        // The sending node is this domain's, so the slot has a row here.
        let row = self.slot_local[slot as usize] as usize;
        let (rate, free_at, ser_ns) = {
            let dl = &mut self.links[row];
            (dl.rate_gbps, dl.free_at, dl.ser_ns(size))
        };
        if self.failed_links[(slot >> 1) as usize] {
            // A cut fiber: everything forwarded onto it is lost until
            // routes are recomputed.
            self.drop_packet(id, at, head, DropReason::DeadLink);
            return;
        }
        let inbound_ns = tail - head; // 0 at the origin host
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
                self.eng.record(|| Event::Forward {
                    t_ns: head.ns(),
                    node: at.0,
                    flow: flow_id,
                    cut_through: mode == ForwardMode::CutThrough,
                    latency_ns: spec.latency_ns,
                });
                match mode {
                    ForwardMode::CutThrough => head + spec.latency_ns,
                    ForwardMode::StoreForward => tail + spec.latency_ns,
                }
            }
        };

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
        let dl = &mut self.links[row];
        dl.free_at = done;
        dl.busy_ns += ser_ns;
        dl.bytes += u64::from(size);
        // Slot layout: [2l] = a→b, [2l+1] = b→a.
        let (link, to_b) = (slot >> 1, slot & 1 == 0);
        self.eng.record(|| Event::Enqueue {
            t_ns: earliest.ns(),
            node: at.0,
            link,
            to_b,
            flow: flow_id,
            queue_bytes: backlog_bytes + u64::from(size),
        });
        self.eng.record(|| Event::Transmit {
            t_ns: start.ns(),
            link,
            to_b,
            flow: flow_id,
            serialize_ns: ser_ns,
        });
        cold.hops += 1;
        self.arena.cold[i] = cold;
        self.arena.hash[i] = hash;
        debug_assert!(ser_ns <= u64::from(u32::MAX));
        let prop = self.cfg.prop_delay_ns;
        let arrival = Arrival {
            pkt: id,
            at: next,
            head: start + prop,
            ser: ser_ns as u32,
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
        self.stats.record_delivery(f.tag, cold.hops, latency_sample);
        self.eng.record(|| Event::Deliver {
            t_ns: delivered_at.ns(),
            node: at.0,
            flow: flow_id,
            latency_ns: delivered_at.saturating_sub(created),
            hops: cold.hops,
        });
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
                        self.schedule_gen(flow_idx, delivered_at);
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
                self.failed_links[l.0 as usize] = matches!(kind, FaultKind::LinkDown(_));
            }
            FaultKind::SwitchDown(n) => self.failed_nodes[n.0 as usize] = true,
            FaultKind::SwitchUp(n) => self.failed_nodes[n.0 as usize] = false,
        }
    }

    /// The routes a converged control plane installs over this core's
    /// live failure state: a from-scratch [`RouteTable::degraded`],
    /// flattened (the table itself is dropped).
    pub(crate) fn live_routes(&self) -> FlatRoutes {
        let table = RouteTable::degraded(
            &self.net,
            |l| self.failed_links[l.0 as usize],
            |n| self.failed_nodes[n.0 as usize],
        );
        FlatRoutes::new(&table, &self.net)
    }

    /// Adds the transmission totals of the slots this core sends on
    /// into `out` (one row per undirected link).
    pub(crate) fn add_link_loads(&self, out: &mut [LinkLoad]) {
        let row = |slot: usize| &self.links[self.slot_local[slot] as usize];
        for ((i, ll), l) in out.iter_mut().enumerate().zip(self.net.links()) {
            if self.eng.owns(l.a) {
                let ab = row(2 * i);
                ll.ab_busy_ns += ab.busy_ns;
                ll.ab_bytes += ab.bytes;
            }
            if self.eng.owns(l.b) {
                let ba = row(2 * i + 1);
                ll.ba_busy_ns += ba.busy_ns;
                ll.ba_bytes += ba.bytes;
            }
        }
    }
}
