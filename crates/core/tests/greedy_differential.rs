//! Differential test of the greedy channel assignment against the two
//! greedy loops it replaced: the intact-ring greedy (a per-channel,
//! per-link `bool` usage table, any ring size, both orderings) and the
//! cut-ring greedy (64-bit channel masks, a dead-fiber mask, longest
//! paths first). The single `greedy::assign_with_order` must place every
//! pair exactly as the matching oracle does — same entries in the same
//! order, same unroutable pairs.

use quartz_core::channel::greedy::{assign_with_order, Ordering};
use quartz_core::channel::{Arc, Direction, Pair};
use quartz_core::rng::StdRng;

type Entries = Vec<(Pair, Direction, u16)>;

/// The pairs at distance `d` in scan order from `start`.
fn class(m: usize, d: usize, start: usize) -> impl Iterator<Item = Pair> {
    let count = if m.is_multiple_of(2) && d == m / 2 {
        m / 2
    } else {
        m
    };
    (0..count).map(move |idx| {
        let i = (start + idx) % m;
        Pair::new(i, (i + d) % m)
    })
}

/// Both arcs of `pair`, shorter first, clockwise on ties.
fn candidates(pair: Pair, m: usize) -> [(Direction, Arc); 2] {
    let cw = Arc::of(pair, Direction::Cw, m);
    let ccw = Arc::of(pair, Direction::Ccw, m);
    if cw.len <= ccw.len {
        [(Direction::Cw, cw), (Direction::Ccw, ccw)]
    } else {
        [(Direction::Ccw, ccw), (Direction::Cw, cw)]
    }
}

/// The intact-ring greedy: `used[channel][link]`.
fn intact_oracle(m: usize, start: usize, order: Ordering) -> Entries {
    let mut used: Vec<Vec<bool>> = Vec::new();
    let is_free = |used: &Vec<Vec<bool>>, c: usize, links: &[usize]| match used.get(c) {
        None => true,
        Some(busy) => links.iter().all(|&l| !busy[l]),
    };
    let mut entries = Vec::new();
    let distances: Vec<usize> = match order {
        Ordering::LongestFirst => (1..=m / 2).rev().collect(),
        Ordering::ShortestFirst => (1..=m / 2).collect(),
    };
    for d in distances {
        for pair in class(m, d, start) {
            let mut best: Option<(Direction, Arc, usize)> = None;
            for (dir, arc) in candidates(pair, m) {
                let links: Vec<usize> = arc.links().collect();
                let ch = (0..).find(|&c| is_free(&used, c, &links)).unwrap();
                if best.as_ref().is_none_or(|b| ch < b.2) {
                    best = Some((dir, arc, ch));
                }
            }
            let (dir, arc, ch) = best.unwrap();
            while used.len() <= ch {
                used.push(vec![false; m]);
            }
            for l in arc.links() {
                used[ch][l] = true;
            }
            entries.push((pair, dir, ch as u16));
        }
    }
    entries
}

/// The cut-ring greedy: `used[channel]` is a 64-bit link mask.
fn cut_oracle(m: usize, dead: u64, start: usize) -> (Entries, Vec<Pair>) {
    let mask = |arc: &Arc| arc.links().fold(0u64, |acc, l| acc | 1 << l);
    let mut used: Vec<u64> = Vec::new();
    let mut entries = Vec::new();
    let mut unroutable = Vec::new();
    for d in (1..=m / 2).rev() {
        for pair in class(m, d, start) {
            let allowed: Vec<(Direction, u64)> = candidates(pair, m)
                .iter()
                .map(|(dir, arc)| (*dir, mask(arc)))
                .filter(|(_, mk)| mk & dead == 0)
                .collect();
            if allowed.is_empty() {
                unroutable.push(pair);
                continue;
            }
            let mut best: Option<(Direction, u64, usize)> = None;
            for (dir, mk) in allowed {
                let ch = (0..)
                    .find(|&c| used.get(c).is_none_or(|links| links & mk == 0))
                    .unwrap();
                if best.is_none_or(|b| ch < b.2) {
                    best = Some((dir, mk, ch));
                }
            }
            let (dir, mk, ch) = best.unwrap();
            while used.len() <= ch {
                used.push(0);
            }
            used[ch] |= mk;
            entries.push((pair, dir, ch as u16));
        }
    }
    unroutable.sort_unstable();
    (entries, unroutable)
}

/// Every scan offset of every intact ring of 2..=80 switches.
fn assert_matches_intact_oracle(order: Ordering) {
    for m in 2..=80 {
        for start in 0..m {
            let got = assign_with_order(m, 0, start, order);
            assert_eq!(
                got.entries(),
                &intact_oracle(m, start, order)[..],
                "m={m} start={start} {order:?}"
            );
            assert!(got.unroutable().is_empty());
        }
    }
}

// One test per ordering, so the harness runs the two sweeps in parallel.
#[test]
fn intact_rings_longest_first_match_the_intact_oracle() {
    assert_matches_intact_oracle(Ordering::LongestFirst);
}

#[test]
fn intact_rings_shortest_first_match_the_intact_oracle() {
    assert_matches_intact_oracle(Ordering::ShortestFirst);
}

fn assert_matches_cut_oracle(m: usize, dead: u64, start: usize) {
    let got = assign_with_order(m, dead, start, Ordering::LongestFirst);
    let (entries, unroutable) = cut_oracle(m, dead, start);
    let label = format!("m={m} dead={dead:#x} start={start}");
    assert_eq!(got.entries(), &entries[..], "{label}");
    assert_eq!(got.unroutable(), &unroutable[..], "{label}");
}

#[test]
fn every_dead_mask_up_to_12_switches_matches_the_cut_oracle() {
    for m in 2..=12 {
        for dead in 0..1u64 << m {
            for start in 0..m {
                assert_matches_cut_oracle(m, dead, start);
            }
        }
    }
}

#[test]
fn seeded_dead_masks_up_to_64_switches_match_the_cut_oracle() {
    let mut rng = StdRng::seed_from_u64(0x6EED);
    for m in 13..=64 {
        for _ in 0..4 {
            // One to four cut fibers.
            let cuts = 1 + rng.random_range(0..4usize);
            let dead = (0..cuts).fold(0u64, |acc, _| acc | 1 << rng.random_range(0..m));
            let start = rng.random_range(0..m);
            assert_matches_cut_oracle(m, dead, start);
        }
    }
}
