//! Property tests for the struct-of-arrays packet arena: seeded
//! alloc/free churn pinning the recycling contract the simulator's
//! determinism rests on — no slot is ever live twice, recycling is
//! LIFO, and identical operation sequences produce identical id
//! sequences — and the row round trip a boundary crossing relies on:
//! `take` returns exactly the row `alloc` wrote.

use quartz_core::rng::StdRng;
use quartz_netsim::arena::{Packet, PacketArena, PacketCold, PacketId, VlbDraws};
use quartz_netsim::time::SimTime;
use quartz_netsim::transport::TransportInfo;
use quartz_topology::graph::NodeId;
use std::collections::HashSet;

/// A row with every field drawn from `rng`, so a column mix-up shows.
fn packet(rng: &mut StdRng, step: usize) -> Packet {
    let transport = match rng.random_range(0..3) {
        0 => TransportInfo::None,
        1 => TransportInfo::Data(rng.next_u64()),
        _ => TransportInfo::Ack {
            ack: rng.next_u64(),
            ecn_echo: rng.random_range(0..2) == 1,
        },
    };
    let intermediate = (rng.random_range(0..2) == 1).then(|| NodeId(rng.next_u64() as u32));
    Packet {
        created: SimTime::from_ns(step as u64),
        dst: NodeId(rng.random_range(0..64) as u32),
        flow: rng.random_range(0..16) as u32,
        size: 64 + rng.random_range(0..1_500) as u32,
        hash: rng.next_u64(),
        key: rng.next_u64(),
        vlb: VlbDraws {
            coin: rng.random::<f64>(),
            pick: rng.next_u64(),
            spray: rng.next_u64(),
        },
        cold: PacketCold {
            transport,
            intermediate,
            flags: rng.next_u64() as u8,
            hops: rng.random_range(0..8) as u32,
        },
    }
}

/// Runs `ops` seeded alloc/free steps (biased toward alloc, so the
/// arena both grows and recycles) and returns the full id trace:
/// `(allocated ids in order, freed ids in order)`.
fn churn(seed: u64, ops: usize) -> (Vec<PacketId>, Vec<PacketId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arena = PacketArena::new();
    let mut live: Vec<PacketId> = Vec::new();
    let mut live_set: HashSet<PacketId> = HashSet::new();
    let mut allocated = Vec::new();
    let mut freed = Vec::new();
    let mut peak = 0usize;
    for step in 0..ops {
        let do_alloc = live.is_empty() || rng.random_range(0..5) < 3;
        if do_alloc {
            let id = arena.alloc(packet(&mut rng, step));
            // Never-twice-live: a handed-out slot must not alias one
            // still allocated.
            assert!(
                live_set.insert(id),
                "slot {id} handed out while still live (step {step})"
            );
            live.push(id);
            allocated.push(id);
        } else {
            let idx = rng.random_range(0..live.len());
            let id = live.swap_remove(idx);
            assert!(live_set.remove(&id));
            arena.free(id);
            freed.push(id);
        }
        peak = peak.max(live.len());
        assert_eq!(arena.live(), live.len(), "live() accounting diverged");
        // The arena never grows past the high-water mark of concurrent
        // liveness: every slot beyond it must come from recycling.
        assert!(
            arena.capacity() <= peak,
            "capacity {} exceeded peak liveness {peak}",
            arena.capacity()
        );
    }
    (allocated, freed)
}

#[test]
fn churn_never_aliases_and_stays_bounded() {
    for seed in 0..8 {
        churn(seed, 4_000);
    }
}

#[test]
fn identical_sequences_yield_identical_ids() {
    for seed in [1, 7, 42] {
        let a = churn(seed, 2_500);
        let b = churn(seed, 2_500);
        assert_eq!(a, b, "same ops must recycle the same slots (seed {seed})");
    }
}

#[test]
fn recycling_is_lifo() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut arena = PacketArena::new();
    let ids: Vec<PacketId> = (0..16).map(|i| arena.alloc(packet(&mut rng, i))).collect();
    // Free in an arbitrary fixed order; re-allocation must hand the
    // slots back in exactly the reverse of it.
    let free_order = [3u32, 11, 5, 0, 15, 8];
    for &id in &free_order {
        arena.free(id);
    }
    let realloc: Vec<PacketId> = (0..free_order.len())
        .map(|i| arena.alloc(packet(&mut rng, 100 + i)))
        .collect();
    let expect: Vec<PacketId> = free_order.iter().rev().copied().collect();
    assert_eq!(realloc, expect, "free list must recycle LIFO");
    assert_eq!(
        arena.capacity(),
        ids.len(),
        "no growth while free slots exist"
    );
    assert_eq!(arena.live(), 16);
}

/// Seeded churn in which every release is a `take`: it must return the
/// row its slot was allocated with, field for field, free the slot, and
/// the LIFO free list must hand that slot out next.
#[test]
fn take_returns_the_row_and_frees_its_slot_first_in_line() {
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = PacketArena::new();
        let mut rows: Vec<(PacketId, Packet)> = Vec::new();
        for step in 0..2_000 {
            if rows.is_empty() || rng.random_range(0..5) < 3 {
                let p = packet(&mut rng, step);
                rows.push((arena.alloc(p), p));
                continue;
            }
            let (id, want) = rows.swap_remove(rng.random_range(0..rows.len()));
            let (live, capacity) = (arena.live(), arena.capacity());
            assert_eq!(arena.take(id), want, "slot {id} (seed {seed}, step {step})");
            assert_eq!(arena.live(), live - 1, "take frees the slot");
            let next = packet(&mut rng, step);
            assert_eq!(arena.alloc(next), id, "the taken slot is handed out next");
            assert_eq!(arena.capacity(), capacity, "no growth after a take");
            rows.push((id, next));
        }
        assert_eq!(arena.live(), rows.len());
    }
}
