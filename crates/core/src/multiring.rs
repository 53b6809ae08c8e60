//! Distributing one logical channel plan over multiple physical fiber
//! rings — §3.5 made concrete.
//!
//! "A Quartz network with 33 switches requires 137 channels, we can use
//! two 80-channel WDM muxes/demuxes instead of a single mux/demux at each
//! switch. In this configuration, there will be two optical links between
//! any two nearby racks, forming two optical rings, and link failures are
//! less likely to partition the network."
//!
//! [`MultiRingPlan`] assigns every channel of an [`Assignment`] to a
//! physical ring (round-robin by channel index — balanced by
//! construction), validates that no ring exceeds its WDM device's channel
//! capacity, and answers the queries the fault model and the bill of
//! materials need.

use crate::channel::Assignment;
use std::fmt;

/// A channel-to-physical-ring mapping.
#[derive(Clone, Debug)]
pub struct MultiRingPlan {
    rings: usize,
    wdm_capacity: usize,
    /// `per_ring[r]` = channels assigned to physical ring `r`.
    per_ring: Vec<usize>,
}

/// Errors from building a multi-ring plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MultiRingError {
    /// Some ring would carry more channels than one WDM device supports.
    CapacityExceeded {
        /// The overloaded ring.
        ring: usize,
        /// Channels assigned to it.
        channels: usize,
        /// The device capacity.
        capacity: usize,
    },
}

impl fmt::Display for MultiRingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiRingError::CapacityExceeded {
                ring,
                channels,
                capacity,
            } => write!(
                f,
                "physical ring {ring} needs {channels} channels but its WDM carries {capacity}"
            ),
        }
    }
}

impl std::error::Error for MultiRingError {}

impl MultiRingPlan {
    /// Spreads `assignment`'s channels over `rings` physical rings of
    /// `wdm_capacity`-channel devices (round-robin by channel index).
    pub fn new(
        assignment: &Assignment,
        rings: usize,
        wdm_capacity: usize,
    ) -> Result<Self, MultiRingError> {
        assert!(rings >= 1 && wdm_capacity >= 1);
        let total = assignment.channels_used();
        let mut per_ring = vec![0usize; rings];
        for ch in 0..total {
            per_ring[ch % rings] += 1;
        }
        for (ring, &channels) in per_ring.iter().enumerate() {
            if channels > wdm_capacity {
                return Err(MultiRingError::CapacityExceeded {
                    ring,
                    channels,
                    capacity: wdm_capacity,
                });
            }
        }
        Ok(MultiRingPlan {
            rings,
            wdm_capacity,
            per_ring,
        })
    }

    /// The minimum number of rings an assignment needs with this WDM.
    pub fn min_rings(assignment: &Assignment, wdm_capacity: usize) -> usize {
        assignment.channels_used().div_ceil(wdm_capacity).max(1)
    }

    /// Which physical ring carries channel `ch`.
    pub fn ring_of(&self, ch: u16) -> usize {
        usize::from(ch) % self.rings
    }

    /// Number of physical rings.
    pub fn rings(&self) -> usize {
        self.rings
    }

    /// Channels carried by ring `r`.
    pub fn channels_on(&self, r: usize) -> usize {
        self.per_ring[r]
    }

    /// Spare channel slots on the fullest ring — growth headroom before
    /// another fiber ring is needed.
    pub fn headroom(&self) -> usize {
        self.wdm_capacity - self.per_ring.iter().copied().max().unwrap_or(0)
    }

    /// The plan is balanced: ring loads differ by at most one channel.
    pub fn is_balanced(&self) -> bool {
        let max = self.per_ring.iter().max().unwrap_or(&0);
        let min = self.per_ring.iter().min().unwrap_or(&0);
        max - min <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::greedy;

    #[test]
    fn paper_33_ring_needs_two_wdm_devices() {
        let a = greedy::assign_best(33, 0);
        assert_eq!(MultiRingPlan::min_rings(&a, 80), 2);
        // One ring cannot carry it…
        assert!(MultiRingPlan::new(&a, 1, 80).is_err());
        // …two can, balanced.
        let plan = MultiRingPlan::new(&a, 2, 80).unwrap();
        assert!(plan.is_balanced());
        assert_eq!(plan.channels_on(0) + plan.channels_on(1), a.channels_used());
        assert!(plan.headroom() > 0);
    }

    #[test]
    fn small_rings_fit_one_device() {
        let a = greedy::assign_best(9, 0);
        let plan = MultiRingPlan::new(&a, 1, 80).unwrap();
        assert_eq!(plan.rings(), 1);
        assert_eq!(plan.channels_on(0), a.channels_used());
    }

    #[test]
    fn extra_rings_add_headroom_for_fault_tolerance() {
        // §3.5's resilience configuration: four rings for a 33-switch
        // network leaves each WDM mostly empty.
        let a = greedy::assign_best(33, 0);
        let plan = MultiRingPlan::new(&a, 4, 80).unwrap();
        assert!(plan.is_balanced());
        assert!(plan.headroom() >= 80 - 36);
    }

    #[test]
    fn ring_of_is_round_robin() {
        let a = greedy::assign_best(7, 0);
        let plan = MultiRingPlan::new(&a, 3, 80).unwrap();
        for ch in 0..a.channels_used() as u16 {
            assert_eq!(plan.ring_of(ch), usize::from(ch) % 3);
        }
    }

    #[test]
    fn error_reports_the_overload() {
        let a = greedy::assign_best(20, 0);
        match MultiRingPlan::new(&a, 1, 10) {
            Err(MultiRingError::CapacityExceeded {
                ring: 0,
                channels,
                capacity: 10,
            }) => assert_eq!(channels, a.channels_used()),
            other => panic!("expected overload, got {other:?}"),
        }
    }
}
