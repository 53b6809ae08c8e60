//! Struct-of-arrays packet arena: the simulator's in-flight packet store.
//!
//! Before this module, every `Head` event carried a full
//! ~80-byte `Packet` by value through the timing wheel — cloned on VLB
//! detour re-enqueues, moved on every bucket migration. The arena
//! inverts the layout: packets live in **slots** identified by a `u32`
//! [`PacketId`], events carry only the id, and the per-hop hot loop
//! touches a handful of contiguous parallel `Vec`s:
//!
//! ```text
//!             id ──────────────┐
//!   hot (read every hop)       ▼
//!   created:  [SimTime SimTime SimTime …]   latency base
//!   dst:      [NodeId  NodeId  NodeId  …]   delivery test
//!   flow:     [u32     u32     u32     …]   stats / transport lookup
//!   size:     [u32     u32     u32     …]   serialization time
//!   hash:     [u64     u64     u64     …]   ECMP pick
//!   key:      [u64     u64     u64     …]   Head event key
//!   cold (copied per hop, transport read at delivery)
//!   cold:     [PacketCold …]               transport, intermediate,
//!                                          flags, hops
//!   detour (read at a VLB decision only)
//!   vlb:      [VlbDraws …]                 coin, pick, spray
//! ```
//!
//! A whole row is one [`Packet`]: [`PacketArena::alloc`] writes one,
//! and [`PacketArena::take`] reads one back and frees its slot, which
//! is how a packet crosses into another domain's arena. The VLB draws
//! sit in a column of their own, not in [`PacketCold`], because the
//! forwarding loop copies the cold row on every hop and reads the draws
//! only at a detour decision.
//!
//! Freed slots recycle through a LIFO free list, so the steady-state
//! hot path allocates nothing and the most recently freed slot — whose
//! row is still cache-warm — is handed out next. The free list is a
//! plain `Vec`, so recycling order is deterministic: identical
//! alloc/free sequences produce identical id sequences, which the
//! property tests in `tests/arena_prop.rs` pin.
//!
//! Debug builds additionally track per-slot liveness so a recycled slot
//! can never alias a live packet (double-free and double-alloc both
//! panic), and [`crate::shard::ShardedSim::run`] asserts at quiescence
//! that the live count matches the in-flight count — a leak check.

// lint:panic-free — the arena sits under every packet event; slot
// indexing is covered by the debug-build liveness asserts.

use crate::time::SimTime;
use crate::transport::TransportInfo;
use quartz_topology::graph::NodeId;

/// Index of a live arena slot; the payload of a `Head` event.
pub type PacketId = u32;

/// Flag bit: the packet travels dst→src of its flow (an RPC response or
/// Poisson echo); its delivery records a round trip.
pub const FLAG_RESPONSE: u8 = 1 << 0;
/// Flag bit: final packet of a file transfer; its delivery is the flow
/// completion.
pub const FLAG_LAST: u8 = 1 << 1;
/// Flag bit: ECN congestion-experienced mark, set at overloaded queues.
pub const FLAG_ECN: u8 = 1 << 2;
/// Flag bit: the VLB ingress decision (detour or not) has been made.
pub const FLAG_VLB_DECIDED: u8 = 1 << 3;

/// Per-packet fields the forwarding loop copies once per hop and
/// writes back (detour waypoint, flags, hop count) plus the transport
/// payload read at delivery — one row per slot, beside the hot columns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PacketCold {
    /// Transport-layer payload (data segment or cumulative ACK).
    pub transport: TransportInfo,
    /// VLB detour waypoint still to be visited, if any.
    pub intermediate: Option<NodeId>,
    /// `FLAG_*` bits.
    pub flags: u8,
    /// Links traversed so far (recorded at delivery: detours after a
    /// fiber cut show up as hop-count stretch).
    pub hops: u32,
}

/// Randomness a packet's VLB detour decision consumes, drawn at
/// emission from the emitting side's private stream (all zero when no
/// VLB domain exists), so the decision draws nothing at the ingress
/// switch, whichever domain it runs in.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VlbDraws {
    /// Detour coin, uniform in `[0, 1)`.
    pub coin: f64,
    /// Intermediate pick; the detour takes candidate `pick % n`.
    pub pick: u64,
    /// The ECMP hash a detoured packet is re-sprayed with.
    pub spray: u64,
}

/// One packet's whole arena row: what [`PacketArena::alloc`] writes and
/// [`PacketArena::take`] returns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Packet {
    /// Creation time (or the original request time, for responses).
    pub created: SimTime,
    /// Final destination host.
    pub dst: NodeId,
    /// Owning flow index.
    pub flow: u32,
    /// Frame size, bytes.
    pub size: u32,
    /// ECMP flow hash (resprayed on VLB detours).
    pub hash: u64,
    /// Canonical key of the packet's arrival events, fixed at emission.
    pub key: u64,
    /// Pre-drawn VLB randomness.
    pub vlb: VlbDraws,
    /// The cold fields.
    pub cold: PacketCold,
}

/// The slot arena. Columns are parallel: index all of them by the same
/// [`PacketId`]. Crate-internal code reads the columns directly; the
/// public surface (alloc/take/free/live/capacity) is what external
/// tests exercise.
#[derive(Debug, Default)]
pub struct PacketArena {
    /// Creation time (or the original request time, for responses).
    pub(crate) created: Vec<SimTime>,
    /// Final destination host.
    pub(crate) dst: Vec<NodeId>,
    /// Owning flow index.
    pub(crate) flow: Vec<u32>,
    /// Frame size, bytes.
    pub(crate) size: Vec<u32>,
    /// ECMP flow hash (resprayed on VLB detours).
    pub(crate) hash: Vec<u64>,
    /// Canonical event key.
    pub(crate) key: Vec<u64>,
    /// Pre-drawn VLB randomness.
    pub(crate) vlb: Vec<VlbDraws>,
    /// Cold row per slot.
    pub(crate) cold: Vec<PacketCold>,
    /// Freed slot ids, reused LIFO.
    free: Vec<PacketId>,
    /// Currently allocated slots.
    live: usize,
    /// Debug-only per-slot liveness, for alias detection.
    #[cfg(debug_assertions)]
    live_bits: Vec<bool>,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a slot (recycling the most recently freed one first)
    /// and writes row `p` into it. Returns the slot's id.
    ///
    /// The recycle branch is the steady-state hot path: pure column
    /// stores into a cache-warm row, no allocator. [`Self::grow`] runs
    /// only while the in-flight high-water mark is still rising.
    // lint:hot
    pub fn alloc(&mut self, p: Packet) -> PacketId {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            let i = id as usize;
            debug_assert!(i < self.created.len(), "recycled id is in bounds");
            self.created[i] = p.created;
            self.dst[i] = p.dst;
            self.flow[i] = p.flow;
            self.size[i] = p.size;
            self.hash[i] = p.hash;
            self.key[i] = p.key;
            self.vlb[i] = p.vlb;
            self.cold[i] = p.cold;
            #[cfg(debug_assertions)]
            {
                assert!(!self.live_bits[i], "arena slot {id} handed out twice");
                self.live_bits[i] = true;
            }
            id
        } else {
            self.grow(p)
        }
    }

    /// Appends a brand-new slot holding `p` to every column.
    fn grow(&mut self, p: Packet) -> PacketId {
        debug_assert!(self.created.len() <= u32::MAX as usize, "slot ids fit u32");
        let id = self.created.len() as PacketId;
        self.created.push(p.created);
        self.dst.push(p.dst);
        self.flow.push(p.flow);
        self.size.push(p.size);
        self.hash.push(p.hash);
        self.key.push(p.key);
        self.vlb.push(p.vlb);
        self.cold.push(p.cold);
        #[cfg(debug_assertions)]
        self.live_bits.push(true);
        id
    }

    /// Reads slot `id`'s row and returns the slot to the free list.
    ///
    /// # Panics
    /// Debug builds panic if the slot is not live.
    // lint:hot
    pub fn take(&mut self, id: PacketId) -> Packet {
        let i = id as usize;
        debug_assert!(i < self.created.len(), "taken id is in bounds");
        let p = Packet {
            created: self.created[i],
            dst: self.dst[i],
            flow: self.flow[i],
            size: self.size[i],
            hash: self.hash[i],
            key: self.key[i],
            vlb: self.vlb[i],
            cold: self.cold[i],
        };
        self.free(id);
        p
    }

    /// Returns slot `id` to the free list.
    ///
    /// # Panics
    /// Debug builds panic on a double free.
    pub fn free(&mut self, id: PacketId) {
        #[cfg(debug_assertions)]
        {
            assert!(self.live_bits[id as usize], "double free of slot {id}");
            self.live_bits[id as usize] = false;
        }
        self.live -= 1;
        self.free.push(id);
    }

    /// Currently allocated slot count (the in-flight packet count).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever created (live + free).
    pub fn capacity(&self) -> usize {
        self.created.len()
    }
}
