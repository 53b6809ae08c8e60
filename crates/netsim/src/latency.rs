//! Per-component latencies — Table 2 of the paper.
//!
//! "There are many sources of latency in DCNs": the OS network stack, the
//! NIC, each switch, and congestion. Table 2 contrasts standard hardware
//! with the state of the art; [`ComponentLatency`] captures one column.

/// Per-component one-way latency contributions, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComponentLatency {
    /// Label ("standard" / "state of the art").
    pub name: &'static str,
    /// OS network stack traversal, ns.
    pub stack_ns: u64,
    /// NIC processing, ns.
    pub nic_ns: u64,
    /// One switch traversal, ns.
    pub switch_ns: u64,
    /// Typical congestion-induced queueing, ns.
    pub congestion_ns: u64,
}

/// Table 2's "Standard" column: 15 µs stack, 2.5–32 µs NIC (low end
/// used), 6 µs switch, 50 µs congestion.
pub const STANDARD: ComponentLatency = ComponentLatency {
    name: "Standard",
    stack_ns: 15_000,
    nic_ns: 2_500,
    switch_ns: 6_000,
    congestion_ns: 50_000,
};

/// Table 2's "State of Art" column: 1–4 µs stack (low end), 0.5 µs NIC,
/// 0.5 µs switch.
pub const STATE_OF_ART: ComponentLatency = ComponentLatency {
    name: "State of Art",
    stack_ns: 1_000,
    nic_ns: 500,
    switch_ns: 500,
    congestion_ns: 50_000,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// One-way latency through `switch_hops` switches with both end-host
    /// stacks and NICs, ignoring congestion.
    fn end_to_end_ns(c: &ComponentLatency, switch_hops: u64) -> u64 {
        2 * (c.stack_ns + c.nic_ns) + switch_hops * c.switch_ns
    }

    #[test]
    fn table2_values() {
        assert_eq!(STANDARD.stack_ns, 15_000);
        assert_eq!(STANDARD.switch_ns, 6_000);
        assert_eq!(STATE_OF_ART.nic_ns, 500);
        assert_eq!(STATE_OF_ART.switch_ns, 500);
    }

    #[test]
    fn three_tier_standard_switching_is_30us() {
        // §2.1.3: "In a typical three-tier network architecture, switching
        // delay can therefore be as high as 30 µs" — five switch hops at
        // 6 µs each.
        assert_eq!(5 * STANDARD.switch_ns, 30_000);
    }

    #[test]
    fn order_of_magnitude_improvement() {
        // §1: combining state-of-the-art techniques yields "an order of
        // magnitude reduction in end-to-end network latency".
        let std = end_to_end_ns(&STANDARD, 5);
        let soa = end_to_end_ns(&STATE_OF_ART, 5);
        assert!(std as f64 / soa as f64 > 8.0, "{std} vs {soa}");
    }

    #[test]
    fn congestion_dominates_state_of_art() {
        // Table 2's point: once components are fast, congestion (~50 µs)
        // dominates — the motivation for Quartz's topology approach.
        let soa = STATE_OF_ART;
        assert!(soa.congestion_ns > end_to_end_ns(&soa, 5));
    }
}
