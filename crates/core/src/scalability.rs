//! Scalability and incremental deployment analysis — §3.2 and §8.
//!
//! Two questions a deployment planner asks:
//!
//! 1. *How big can a Quartz element get?* Bounded by both the switch
//!    port split (`k ≥ m − 1` transceivers) and the fiber's channel
//!    budget (160 channels ⇒ ring size ≤ 35). "If port count of
//!    low-latency cut-through switches increase, Quartz becomes more
//!    scalable" (§8) — [`max_mesh_server_ports`] quantifies exactly how.
//! 2. *What does growing a ring cost?* Quartz "can be incrementally
//!    deployed as needed" (§8); [`expansion_step`] compares the
//!    wavelength plans of consecutive ring sizes and counts how many
//!    existing lightpaths must be re-tuned versus freshly added.

use crate::channel::greedy;
use crate::ring::FIBER_CHANNEL_CAPACITY;
use quartz_optics::retune::{RetuneModel, FAST_TUNABLE_SFP};
use quartz_optics::wavelength::ChannelId;

/// Largest ring size whose greedy wavelength plan fits in `channels`
/// fiber channels.
///
/// With the paper's 160-channel ceiling this is 35 (§3.1).
pub fn max_ring_size_for_channels(channels: usize) -> usize {
    let mut best = 0;
    for m in 2.. {
        // The load bound grows ~m²/8; once it exceeds the budget no
        // larger size can fit either.
        if crate::channel::bounds::load_lower_bound(m) > channels {
            break;
        }
        if greedy::wavelengths_required(m) <= channels {
            best = m;
        }
    }
    best
}

/// Maximum server ports of a single Quartz element built from
/// `port_count`-port cut-through switches split half servers / half
/// trunks, under the fiber channel ceiling.
pub fn max_mesh_server_ports(port_count: usize) -> usize {
    assert!(port_count >= 4, "need at least a 2/2 split");
    let half = port_count / 2;
    // A mesh of m switches needs m − 1 trunk ports, and the ring is
    // capped by the wavelength budget.
    let m = (half + 1).min(max_ring_size_for_channels(FIBER_CHANNEL_CAPACITY));
    half * m
}

/// The cost of growing a ring from `from` to `from + 1` switches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExpansionStep {
    /// Original ring size.
    pub from: usize,
    /// New ring size (`from + 1`).
    pub to: usize,
    /// Existing switch pairs whose channel or direction changes (each
    /// means re-tuning two transceivers).
    pub retuned: usize,
    /// Brand-new pairs (the new switch's `from` channels).
    pub added: usize,
    /// Wavelengths used before and after.
    pub wavelengths: (usize, usize),
    /// Total transceiver dark time across all retunes (serial sum; two
    /// transceivers per pair retune concurrently, so this counts each
    /// pair's window once).
    pub retune_total_ns: u64,
    /// The single longest retune window — the expansion's critical path
    /// if every pair retunes in parallel.
    pub retune_max_ns: u64,
}

/// Computes the [`ExpansionStep`] from ring size `m` to `m + 1` under the
/// greedy planner. Wavelength planning is per-size ("we can use a fixed
/// wavelength plan for all Quartz rings of the same size", §3.1), so
/// growth means diffing two plans.
///
/// # Examples
///
/// ```
/// use quartz_core::scalability::expansion_step;
///
/// let step = expansion_step(8);
/// assert_eq!(step.added, 8);         // the new switch's 8 channels
/// assert!(step.retuned <= 28);       // bounded by the old pair count
/// ```
pub fn expansion_step(m: usize) -> ExpansionStep {
    expansion_step_with(m, &FAST_TUNABLE_SFP)
}

/// [`expansion_step`] under an explicit [`RetuneModel`]: each re-tuned
/// pair's dark window is the model's latency for its channel move (or
/// the bare re-lock window when only the arc direction flips).
pub fn expansion_step_with(m: usize, model: &RetuneModel) -> ExpansionStep {
    assert!(m >= 2);
    let before = greedy::assign_best(m, 0);
    let after = greedy::assign_best(m + 1, 0);
    let mut retuned = 0;
    let mut added = 0;
    let mut retune_total_ns = 0u64;
    let mut retune_max_ns = 0u64;
    for (pair, dir, ch) in after.entries() {
        // In the grown ring the new switch has index m; pairs touching
        // it are new.
        if pair.b == m {
            added += 1;
            continue;
        }
        match before.lookup(*pair) {
            Some((d0, c0)) if d0 == *dir && c0 == *ch => {}
            Some((_, c0)) => {
                retuned += 1;
                let dark = if c0 == *ch {
                    model.base_ns // direction-only change: re-lock, no laser move
                } else {
                    model.latency_ns(ChannelId(c0), ChannelId(*ch))
                };
                retune_total_ns += dark;
                retune_max_ns = retune_max_ns.max(dark);
            }
            None => unreachable!("old plan covers every pre-existing pair"),
        }
    }
    ExpansionStep {
        from: m,
        to: m + 1,
        retuned,
        added,
        wavelengths: (before.channels_used(), after.channels_used()),
        retune_total_ns,
        retune_max_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fiber_budget_gives_ring_of_35() {
        assert_eq!(max_ring_size_for_channels(160), 35);
        // An 80-channel WDM alone caps the ring earlier.
        let m80 = max_ring_size_for_channels(80);
        assert!((24..=26).contains(&m80), "80 channels → ring of {m80}");
    }

    #[test]
    fn paper_64_port_element_is_1056_ports() {
        assert_eq!(max_mesh_server_ports(64), 32 * 33);
    }

    #[test]
    fn bigger_switches_mean_bigger_elements_until_fiber_caps() {
        // 128-port switches: 64 trunks would allow a 65-ring, but the
        // fiber caps it at 35 → 64 × 35 = 2240 ports.
        assert_eq!(max_mesh_server_ports(128), 64 * 35);
        // Monotone in port count.
        let mut prev = 0;
        for p in [8usize, 16, 32, 64, 128, 256] {
            let ports = max_mesh_server_ports(p);
            assert!(ports >= prev, "p={p}");
            prev = ports;
        }
    }

    #[test]
    fn expansion_adds_m_new_pairs() {
        for m in [4usize, 6, 9] {
            let step = expansion_step(m);
            assert_eq!(step.added, m, "growing to {} adds {} pairs", m + 1, m);
            assert!(step.wavelengths.1 >= step.wavelengths.0);
            // Sanity: retuning never exceeds the number of old pairs.
            assert!(step.retuned <= m * (m - 1) / 2);
        }
    }

    #[test]
    fn expansion_reports_are_deterministic() {
        assert_eq!(expansion_step(7), expansion_step(7));
    }

    #[test]
    fn retune_latency_tracks_the_model() {
        use quartz_optics::retune::{RetuneModel, THERMAL_TUNABLE_SFP};
        for m in [5usize, 8, 12] {
            let fast = expansion_step_with(m, &FAST_TUNABLE_SFP);
            let instant = expansion_step_with(m, &RetuneModel::instant());
            // Same plan diff regardless of model.
            assert_eq!(fast.retuned, instant.retuned);
            assert_eq!(instant.retune_total_ns, 0);
            assert_eq!(instant.retune_max_ns, 0);
            if fast.retuned > 0 {
                // Every retune pays at least the base window.
                assert!(fast.retune_total_ns >= fast.retuned as u64 * FAST_TUNABLE_SFP.base_ns);
                assert!(fast.retune_max_ns >= FAST_TUNABLE_SFP.base_ns);
                assert!(fast.retune_max_ns <= fast.retune_total_ns);
                // Thermal parts are strictly slower.
                let thermal = expansion_step_with(m, &THERMAL_TUNABLE_SFP);
                assert!(thermal.retune_total_ns > fast.retune_total_ns);
            }
        }
    }
}
