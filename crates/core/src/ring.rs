//! The [`QuartzRing`] design type: §3's parameters and §3.2's scalability
//! arithmetic.
//!
//! A Quartz switch has `n` server-facing ports and `k` optical
//! transceivers toward the ring; `n : k` is the server-to-switch ratio and
//! `n + k` the switch port density. A full mesh of `m` switches needs a
//! dedicated channel — hence a dedicated transceiver — per peer, so
//! `k ≥ m − 1`.
//!
//! The paper's flagship configuration: 64-port low-latency cut-through
//! switches split 32/32, 33 switches — "this configuration mimics a 1056
//! (32 × 33) port switch". Dual-ToR scaling (two switches per rack, every
//! server dual-homed) reaches "2080 (32 × 65) ports at the cost of an
//! additional switch per rack".

use crate::channel::{greedy, ChannelPlan, PlanMethod};
use quartz_optics::ring::{RingOpticalPlan, RingPlanError};
use quartz_optics::wavelength::Grid;
use std::fmt;

/// Errors from constructing a Quartz design.
#[derive(Clone, Debug, PartialEq)]
pub enum DesignError {
    /// Rings need at least two switches.
    TooSmall(usize),
    /// A full mesh of `m` switches needs `k ≥ m − 1` transceivers.
    NotEnoughTrunkPorts {
        /// Switches in the ring.
        switches: usize,
        /// Trunk ports offered per switch.
        trunk_ports: usize,
    },
    /// The wavelength plan exceeds what a fiber can carry (§3.1: 160
    /// channels at 10 Gb/s).
    FiberCapacityExceeded {
        /// Wavelengths the design needs.
        needed: usize,
        /// The fiber ceiling.
        capacity: usize,
    },
    /// The optical power budget cannot be satisfied.
    Optical(RingPlanError),
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::TooSmall(m) => write!(f, "a Quartz ring needs ≥ 2 switches, got {m}"),
            DesignError::NotEnoughTrunkPorts {
                switches,
                trunk_ports,
            } => write!(
                f,
                "{switches}-switch mesh needs ≥ {} trunk ports, switch has {trunk_ports}",
                switches - 1
            ),
            DesignError::FiberCapacityExceeded { needed, capacity } => write!(
                f,
                "design needs {needed} wavelengths; fiber carries {capacity}"
            ),
            DesignError::Optical(e) => write!(f, "optical plan failed: {e}"),
        }
    }
}

impl std::error::Error for DesignError {}

/// Fiber ceiling the paper assumes: "current technology can only multiplex
/// 160 channels in an optical fiber" (§3.1).
pub const FIBER_CHANNEL_CAPACITY: usize = 160;

/// Channels a commodity WDM mux/demux supports: "commodity Wavelength
/// Division Multiplexers can only support about 80 channels" (§3.1).
pub const WDM_MUX_CHANNELS: usize = 80;

/// A Quartz ring design: `m` switches in a logical full mesh on a physical
/// WDM ring.
///
/// # Examples
///
/// ```
/// use quartz_core::QuartzRing;
///
/// // The paper's flagship: 33 × 64-port switches = a 1056-port element.
/// let ring = QuartzRing::paper_config(33).unwrap();
/// assert_eq!(ring.server_ports(), 1056);
/// assert_eq!(ring.max_switch_hops(), 2);
/// assert_eq!(ring.physical_rings(), 2); // 137+ channels ⇒ two 80ch WDMs
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct QuartzRing {
    switches: usize,
    server_ports_per_switch: usize,
    trunk_ports_per_switch: usize,
    link_rate_gbps: f64,
}

impl QuartzRing {
    /// Creates a design and checks its structural feasibility (mesh port
    /// requirement and fiber channel capacity).
    pub fn new(
        switches: usize,
        server_ports_per_switch: usize,
        trunk_ports_per_switch: usize,
        link_rate_gbps: f64,
    ) -> Result<Self, DesignError> {
        if switches < 2 {
            return Err(DesignError::TooSmall(switches));
        }
        if trunk_ports_per_switch < switches - 1 {
            return Err(DesignError::NotEnoughTrunkPorts {
                switches,
                trunk_ports: trunk_ports_per_switch,
            });
        }
        let ring = QuartzRing {
            switches,
            server_ports_per_switch,
            trunk_ports_per_switch,
            link_rate_gbps,
        };
        let needed = ring.wavelengths_required();
        if needed > FIBER_CHANNEL_CAPACITY {
            return Err(DesignError::FiberCapacityExceeded {
                needed,
                capacity: FIBER_CHANNEL_CAPACITY,
            });
        }
        Ok(ring)
    }

    /// The paper's flagship configuration: `m` 64-port low-latency
    /// switches split 32 server / 32 trunk, 10 Gb/s ports.
    pub fn paper_config(switches: usize) -> Result<Self, DesignError> {
        QuartzRing::new(switches, 32, 32, 10.0)
    }

    /// Number of switches (racks) in the ring.
    pub fn switches(&self) -> usize {
        self.switches
    }

    /// Server-facing ports per switch (`n`).
    pub fn server_ports_per_switch(&self) -> usize {
        self.server_ports_per_switch
    }

    /// Ring-facing transceivers per switch (`k`).
    pub fn trunk_ports_per_switch(&self) -> usize {
        self.trunk_ports_per_switch
    }

    /// Port rate in Gb/s.
    pub fn link_rate_gbps(&self) -> f64 {
        self.link_rate_gbps
    }

    /// Total server ports the ring offers — the port count of the big
    /// switch the mesh "mimics" (§3.2: 32 × 33 = 1056).
    pub fn server_ports(&self) -> usize {
        self.switches * self.server_ports_per_switch
    }

    /// Rack-to-rack bandwidth oversubscription under direct (ECMP)
    /// routing: `n` servers share the single channel toward each peer
    /// rack, so §3.4's example gives 32:1.
    pub fn oversubscription(&self) -> f64 {
        self.server_ports_per_switch as f64
    }

    /// Wavelengths the design needs (greedy planner, best start offset).
    pub fn wavelengths_required(&self) -> usize {
        greedy::wavelengths_required(self.switches)
    }

    /// WDM mux/demux devices per switch: `⌈wavelengths / 80⌉`. A
    /// 33-switch ring needs 137 channels, hence two 80-channel devices —
    /// and two physical fiber rings (§3.5).
    pub fn muxes_per_switch(&self) -> usize {
        self.wavelengths_required().div_ceil(WDM_MUX_CHANNELS)
    }

    /// Physical fiber rings the design uses (one per WDM device tier).
    pub fn physical_rings(&self) -> usize {
        self.muxes_per_switch()
    }

    /// Runs the greedy wavelength planner and returns the channel plan on
    /// the DWDM grid sized for this design.
    pub fn assign_channels(&self) -> ChannelPlan {
        let assignment = greedy::assign_best(self.switches, 0);
        let grid = if assignment.channels_used() > WDM_MUX_CHANNELS {
            Grid::dwdm_50ghz_160ch()
        } else {
            Grid::dwdm_100ghz_80ch()
        };
        ChannelPlan {
            assignment,
            method: PlanMethod::Greedy,
            grid,
        }
    }

    /// Plans the optical layer (amplifier/attenuator placement) with the
    /// paper's §3.3 parts.
    pub fn optical_plan(&self) -> Result<RingOpticalPlan, DesignError> {
        RingOpticalPlan::paper_plan(self.switches).map_err(DesignError::Optical)
    }

    /// Latency of the longest server-to-server path inside the ring, in
    /// switch hops: always 2 — the defining property of the mesh.
    pub fn max_switch_hops(&self) -> usize {
        2
    }
}

/// A dual-homed scaled design (§3.2): `switches_per_rack` ToR switches per
/// rack, every server connected to all of them, and each rack directly
/// connected to every other rack through *some* switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaledDesign {
    /// Number of racks.
    pub racks: usize,
    /// ToR switches in each rack.
    pub switches_per_rack: usize,
    /// Server ports per rack (bounded by NIC count × servers; the paper
    /// uses 32).
    pub server_ports_per_rack: usize,
    /// Trunk ports per switch.
    pub trunk_ports_per_switch: usize,
}

impl ScaledDesign {
    /// The paper's 2080-port example: 65 racks × 2 switches, 32 server
    /// ports per rack, 64-port switches.
    pub fn paper_dual_tor() -> Self {
        ScaledDesign {
            racks: 65,
            switches_per_rack: 2,
            server_ports_per_rack: 32,
            trunk_ports_per_switch: 32,
        }
    }

    /// Total server ports: the paper's 32 × 65 = 2080.
    pub fn server_ports(&self) -> usize {
        self.racks * self.server_ports_per_rack
    }

    /// Whether each rack can reach every other rack directly: the rack's
    /// pooled trunk ports must cover `racks − 1` peers.
    pub fn is_full_mesh(&self) -> bool {
        self.switches_per_rack * self.trunk_ports_per_switch >= self.racks - 1
    }

    /// Longest server-to-server path in switch hops (2 when the rack-level
    /// mesh holds: ToR → peer ToR).
    pub fn max_switch_hops(&self) -> usize {
        if self.is_full_mesh() {
            2
        } else {
            3
        }
    }

    /// Total switches across all racks.
    pub fn total_switches(&self) -> usize {
        self.racks * self.switches_per_rack
    }

    /// Number of physical optical rings required. Wavelength restrictions
    /// limit a single ring to 35 switches (§3.1–3.2), and each ring of
    /// `m ≤ 35` switches needs `⌈channels/80⌉` fibers; the design
    /// partitions its switches into `⌈switches/35⌉` rings at minimum.
    pub fn min_optical_rings(&self) -> usize {
        self.total_switches().div_ceil(35)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_1056_port_design() {
        // §3.2: 64-port switches, 32 trunk, 33 switches → 1056 ports.
        let ring = QuartzRing::paper_config(33).unwrap();
        assert_eq!(ring.server_ports(), 1056);
        assert_eq!(ring.oversubscription(), 32.0);
        assert_eq!(ring.max_switch_hops(), 2);
    }

    #[test]
    fn ring_33_needs_two_wdm_devices() {
        // §3.5: "a Quartz network with 33 switches requires 137 channels,
        // we can use two 80-channel WDM muxes/demuxes".
        let ring = QuartzRing::paper_config(33).unwrap();
        let w = ring.wavelengths_required();
        assert!(w > 80 && w <= 160, "33-ring wavelengths: {w}");
        assert_eq!(ring.muxes_per_switch(), 2);
        assert_eq!(ring.physical_rings(), 2);
    }

    #[test]
    fn mesh_needs_one_trunk_port_per_peer() {
        match QuartzRing::paper_config(34) {
            Err(DesignError::NotEnoughTrunkPorts { switches: 34, .. }) => {}
            other => panic!("expected NotEnoughTrunkPorts, got {other:?}"),
        }
    }

    #[test]
    fn fiber_capacity_caps_ring_size() {
        // A hypothetical switch with plenty of trunk ports still cannot
        // exceed the 160-channel fiber: size 36 needs > 160 wavelengths.
        match QuartzRing::new(36, 16, 48, 10.0) {
            Err(DesignError::FiberCapacityExceeded { .. }) => {}
            other => panic!("expected FiberCapacityExceeded, got {other:?}"),
        }
        // 35 fits (§3.1's maximum ring size).
        assert!(QuartzRing::new(35, 16, 48, 10.0).is_ok());
    }

    #[test]
    fn degenerate_sizes_rejected() {
        assert!(matches!(
            QuartzRing::new(1, 32, 32, 10.0),
            Err(DesignError::TooSmall(1))
        ));
    }

    #[test]
    fn channel_plan_is_valid_and_fits_grid() {
        let ring = QuartzRing::paper_config(9).unwrap();
        let plan = ring.assign_channels();
        plan.validate().unwrap();
        assert_eq!(plan.method, PlanMethod::Greedy);
        assert!(plan.wavelengths_used() <= 80);
    }

    #[test]
    fn channel_plan_33_uses_160ch_grid() {
        let ring = QuartzRing::paper_config(33).unwrap();
        let plan = ring.assign_channels();
        plan.validate().unwrap();
        assert_eq!(plan.grid.channel_count(), 160);
    }

    #[test]
    fn optical_plan_succeeds_for_paper_sizes() {
        for m in [4, 9, 24, 33] {
            let ring = QuartzRing::paper_config(m.min(33)).unwrap();
            ring.optical_plan().unwrap();
        }
    }

    #[test]
    fn dual_tor_reaches_2080_ports() {
        // §3.2: "This configuration can support up to 2080 (32 × 65)
        // ports at the cost of an additional switch per rack".
        let d = ScaledDesign::paper_dual_tor();
        assert_eq!(d.server_ports(), 2080);
        assert!(d.is_full_mesh());
        assert_eq!(d.max_switch_hops(), 2);
        assert_eq!(d.total_switches(), 130);
        assert!(d.min_optical_rings() >= 2);
    }

    #[test]
    fn undersized_dual_tor_loses_mesh_property() {
        let d = ScaledDesign {
            racks: 100,
            switches_per_rack: 2,
            server_ports_per_rack: 32,
            trunk_ports_per_switch: 32,
        };
        assert!(!d.is_full_mesh());
        assert_eq!(d.max_switch_hops(), 3);
    }
}
