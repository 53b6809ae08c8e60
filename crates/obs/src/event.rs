//! Typed observability events keyed to simulated time.
//!
//! Every variant carries `t_ns`, the simulated-time nanosecond at which
//! the observation holds. Node, link, and flow identities are plain
//! integers so this crate stays dependency-free; the emitting layer
//! (`quartz-netsim`) owns the typed ids and unwraps them at the
//! emission site.

use std::fmt::Write as _;

/// Why the simulator discarded a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The packet arrived at a failed switch.
    DeadSwitch,
    /// The chosen output link is administratively down.
    DeadLink,
    /// The forwarding table has no entry toward the destination.
    NoRoute,
    /// The output queue exceeded its byte cap.
    QueueFull,
}

impl DropReason {
    /// Stable lower-snake name used in the ndjson encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::DeadSwitch => "dead_switch",
            DropReason::DeadLink => "dead_link",
            DropReason::NoRoute => "no_route",
            DropReason::QueueFull => "queue_full",
        }
    }
}

/// One observation from the simulated network.
///
/// The packet lifecycle reads `Gen` → (`Vlb`)? → per hop: `Forward`
/// (the cut-through decision) → `Enqueue` → `Transmit` → finally
/// `Deliver` or `Drop`. `Fault` and `Reroute` mark control-plane
/// transitions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A flow generated (injected) one packet at its source host.
    Gen {
        /// Simulated time of injection, ns.
        t_ns: u64,
        /// Flow index.
        flow: u32,
        /// Packet size in bytes.
        size_bytes: u32,
        /// Whether this is a response packet of a request/response flow.
        response: bool,
    },
    /// A switch (or host NIC) decided how to forward a frame.
    Forward {
        /// Simulated arrival time of the frame head, ns.
        t_ns: u64,
        /// Node making the decision.
        node: u32,
        /// Flow index.
        flow: u32,
        /// `true` for cut-through, `false` for store-and-forward.
        cut_through: bool,
        /// The node's forwarding latency contribution, ns.
        latency_ns: u64,
    },
    /// A frame joined an output-link queue.
    Enqueue {
        /// Simulated time the frame became eligible to transmit, ns.
        t_ns: u64,
        /// Node that owns the queue.
        node: u32,
        /// Undirected link index.
        link: u32,
        /// Direction: `true` = a→b, `false` = b→a.
        to_b: bool,
        /// Flow index.
        flow: u32,
        /// Queue backlog in bytes after this frame joined.
        queue_bytes: u64,
    },
    /// A frame began serializing onto the wire.
    Transmit {
        /// Simulated transmission start, ns.
        t_ns: u64,
        /// Undirected link index.
        link: u32,
        /// Direction: `true` = a→b, `false` = b→a.
        to_b: bool,
        /// Flow index.
        flow: u32,
        /// Serialization time on this link, ns.
        serialize_ns: u64,
    },
    /// A packet reached its destination host.
    Deliver {
        /// Simulated delivery time (tail received), ns.
        t_ns: u64,
        /// Destination node.
        node: u32,
        /// Flow index.
        flow: u32,
        /// End-to-end latency, ns.
        latency_ns: u64,
        /// Switch hops traversed.
        hops: u32,
    },
    /// A packet was discarded.
    Drop {
        /// Simulated time of the discard, ns.
        t_ns: u64,
        /// Node at which the discard happened.
        node: u32,
        /// Flow index.
        flow: u32,
        /// Why.
        reason: DropReason,
    },
    /// Valiant load balancing chose a detour switch for a packet.
    Vlb {
        /// Simulated time of the choice, ns.
        t_ns: u64,
        /// Node making the choice (the ingress switch).
        node: u32,
        /// Flow index.
        flow: u32,
        /// The intermediate switch the packet will bounce through.
        via: u32,
    },
    /// A fault-plan transition fired (link/switch down or up).
    Fault {
        /// Simulated time of the transition, ns.
        t_ns: u64,
        /// `"link_down"`, `"link_up"`, `"switch_down"`, or `"switch_up"`.
        kind: &'static str,
        /// Failed/restored element id (link or node index).
        element: u32,
    },
    /// Routing reconverged after the configured holddown.
    Reroute {
        /// Simulated time routing became consistent again, ns.
        t_ns: u64,
        /// Number of fault transitions folded into the new tables.
        resolved: u32,
    },
    /// The online RWA control plane re-solved the wavelength plan.
    RwaResolve {
        /// Simulated time the new plan was adopted, ns.
        t_ns: u64,
        /// `"cut"` or `"repair"`.
        trigger: &'static str,
        /// The ring fiber the triggering delta touched.
        fiber: u32,
        /// `"warm_start"`, `"budget_fallback"`, or `"fresh_solve"`.
        outcome: &'static str,
        /// Live pairs whose tuning changed.
        moved: u32,
        /// Previously dark pairs relit.
        restored: u32,
        /// Pairs that lost their lightpath to this delta.
        torn_down: u32,
        /// Pairs still dark after the re-solve.
        unroutable: u32,
        /// Channels the adopted plan uses.
        channels: u32,
        /// Channels a from-scratch greedy solve would use.
        fresh_channels: u32,
    },
    /// A workload-managed flow opened (first byte handed to the
    /// transport or pacing layer).
    FlowStart {
        /// Simulated time the flow opened, ns.
        t_ns: u64,
        /// Flow index.
        flow: u32,
        /// Source host node.
        src: u32,
        /// Destination host node.
        dst: u32,
        /// Total flow size in bytes.
        bytes: u64,
    },
    /// A workload-managed flow delivered its last byte.
    FlowComplete {
        /// Simulated time of the final delivery, ns.
        t_ns: u64,
        /// Flow index.
        flow: u32,
        /// Flow completion time (open → last byte), ns.
        fct_ns: u64,
        /// Total flow size in bytes.
        bytes: u64,
    },
    /// A collective schedule finished one bulk-synchronous step.
    CollectiveStep {
        /// Simulated time the step's last transfer completed, ns.
        t_ns: u64,
        /// `"ring"` or `"tree"`.
        algo: &'static str,
        /// Zero-based step index.
        step: u32,
        /// Total steps in the schedule.
        of: u32,
        /// Wall (simulated) duration of this step, ns.
        elapsed_ns: u64,
    },
    /// A pair's transceivers began re-tuning to a new grid slot.
    Retune {
        /// Simulated time the retune started (lightpath goes dark), ns.
        t_ns: u64,
        /// Lower switch of the pair.
        a: u32,
        /// Higher switch of the pair.
        b: u32,
        /// Channel before.
        from_ch: u16,
        /// Channel after.
        to_ch: u16,
        /// How long the lightpath is dark, ns.
        dark_ns: u64,
    },
}

impl Event {
    /// The simulated time this event is keyed to, in nanoseconds.
    pub fn t_ns(&self) -> u64 {
        match *self {
            Event::Gen { t_ns, .. }
            | Event::Forward { t_ns, .. }
            | Event::Enqueue { t_ns, .. }
            | Event::Transmit { t_ns, .. }
            | Event::Deliver { t_ns, .. }
            | Event::Drop { t_ns, .. }
            | Event::Vlb { t_ns, .. }
            | Event::Fault { t_ns, .. }
            | Event::Reroute { t_ns, .. }
            | Event::RwaResolve { t_ns, .. }
            | Event::FlowStart { t_ns, .. }
            | Event::FlowComplete { t_ns, .. }
            | Event::CollectiveStep { t_ns, .. }
            | Event::Retune { t_ns, .. } => t_ns,
        }
    }

    /// Stable short tag used as the `"ev"` field of the ndjson encoding.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::Gen { .. } => "gen",
            Event::Forward { .. } => "forward",
            Event::Enqueue { .. } => "enqueue",
            Event::Transmit { .. } => "transmit",
            Event::Deliver { .. } => "deliver",
            Event::Drop { .. } => "drop",
            Event::Vlb { .. } => "vlb",
            Event::Fault { .. } => "fault",
            Event::Reroute { .. } => "reroute",
            Event::RwaResolve { .. } => "rwa_resolve",
            Event::FlowStart { .. } => "flow_start",
            Event::FlowComplete { .. } => "flow_complete",
            Event::CollectiveStep { .. } => "collective_step",
            Event::Retune { .. } => "retune",
        }
    }

    /// Appends the event's single-line JSON object (no trailing newline)
    /// to `out`. Key order is fixed, all values are integers, booleans,
    /// or the fixed tag strings, so the encoding is byte-stable.
    fn write_ndjson(&self, out: &mut String) {
        // Infallible: `fmt::Write` for `String` never errors.
        let _ = match *self {
            Event::Gen {
                t_ns,
                flow,
                size_bytes,
                response,
            } => write!(
                out,
                "{{\"ev\":\"gen\",\"t\":{t_ns},\"flow\":{flow},\"size\":{size_bytes},\"response\":{response}}}"
            ),
            Event::Forward {
                t_ns,
                node,
                flow,
                cut_through,
                latency_ns,
            } => write!(
                out,
                "{{\"ev\":\"forward\",\"t\":{t_ns},\"node\":{node},\"flow\":{flow},\"cut\":{cut_through},\"lat\":{latency_ns}}}"
            ),
            Event::Enqueue {
                t_ns,
                node,
                link,
                to_b,
                flow,
                queue_bytes,
            } => write!(
                out,
                "{{\"ev\":\"enqueue\",\"t\":{t_ns},\"node\":{node},\"link\":{link},\"to_b\":{to_b},\"flow\":{flow},\"queue\":{queue_bytes}}}"
            ),
            Event::Transmit {
                t_ns,
                link,
                to_b,
                flow,
                serialize_ns,
            } => write!(
                out,
                "{{\"ev\":\"transmit\",\"t\":{t_ns},\"link\":{link},\"to_b\":{to_b},\"flow\":{flow},\"ser\":{serialize_ns}}}"
            ),
            Event::Deliver {
                t_ns,
                node,
                flow,
                latency_ns,
                hops,
            } => write!(
                out,
                "{{\"ev\":\"deliver\",\"t\":{t_ns},\"node\":{node},\"flow\":{flow},\"lat\":{latency_ns},\"hops\":{hops}}}"
            ),
            Event::Drop {
                t_ns,
                node,
                flow,
                reason,
            } => write!(
                out,
                "{{\"ev\":\"drop\",\"t\":{t_ns},\"node\":{node},\"flow\":{flow},\"reason\":\"{}\"}}",
                reason.as_str()
            ),
            Event::Vlb {
                t_ns,
                node,
                flow,
                via,
            } => write!(
                out,
                "{{\"ev\":\"vlb\",\"t\":{t_ns},\"node\":{node},\"flow\":{flow},\"via\":{via}}}"
            ),
            Event::Fault {
                t_ns,
                kind,
                element,
            } => write!(
                out,
                "{{\"ev\":\"fault\",\"t\":{t_ns},\"kind\":\"{kind}\",\"element\":{element}}}"
            ),
            Event::Reroute { t_ns, resolved } => write!(
                out,
                "{{\"ev\":\"reroute\",\"t\":{t_ns},\"resolved\":{resolved}}}"
            ),
            Event::RwaResolve {
                t_ns,
                trigger,
                fiber,
                outcome,
                moved,
                restored,
                torn_down,
                unroutable,
                channels,
                fresh_channels,
            } => write!(
                out,
                "{{\"ev\":\"rwa_resolve\",\"t\":{t_ns},\"trigger\":\"{trigger}\",\"fiber\":{fiber},\"outcome\":\"{outcome}\",\"moved\":{moved},\"restored\":{restored},\"torn\":{torn_down},\"unroutable\":{unroutable},\"channels\":{channels},\"fresh\":{fresh_channels}}}"
            ),
            Event::FlowStart {
                t_ns,
                flow,
                src,
                dst,
                bytes,
            } => write!(
                out,
                "{{\"ev\":\"flow_start\",\"t\":{t_ns},\"flow\":{flow},\"src\":{src},\"dst\":{dst},\"bytes\":{bytes}}}"
            ),
            Event::FlowComplete {
                t_ns,
                flow,
                fct_ns,
                bytes,
            } => write!(
                out,
                "{{\"ev\":\"flow_complete\",\"t\":{t_ns},\"flow\":{flow},\"fct\":{fct_ns},\"bytes\":{bytes}}}"
            ),
            Event::CollectiveStep {
                t_ns,
                algo,
                step,
                of,
                elapsed_ns,
            } => write!(
                out,
                "{{\"ev\":\"collective_step\",\"t\":{t_ns},\"algo\":\"{algo}\",\"step\":{step},\"of\":{of},\"elapsed\":{elapsed_ns}}}"
            ),
            Event::Retune {
                t_ns,
                a,
                b,
                from_ch,
                to_ch,
                dark_ns,
            } => write!(
                out,
                "{{\"ev\":\"retune\",\"t\":{t_ns},\"a\":{a},\"b\":{b},\"from\":{from_ch},\"to\":{to_ch},\"dark\":{dark_ns}}}"
            ),
        };
    }
}

/// Renders events as ndjson, one line per event, in iteration order.
/// Filter first to render a subset (`events.iter().filter(..)`).
pub fn to_ndjson<'a>(events: impl IntoIterator<Item = &'a Event>) -> String {
    let events = events.into_iter();
    let mut out = String::with_capacity(events.size_hint().0 * 96);
    for ev in events {
        ev.write_ndjson(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_encoding_is_stable() {
        let ev = Event::Forward {
            t_ns: 1_500,
            node: 3,
            flow: 7,
            cut_through: true,
            latency_ns: 380,
        };
        assert_eq!(
            to_ndjson([&ev]),
            "{\"ev\":\"forward\",\"t\":1500,\"node\":3,\"flow\":7,\"cut\":true,\"lat\":380}\n"
        );
        assert_eq!(ev.t_ns(), 1_500);
        assert_eq!(ev.tag(), "forward");
    }

    #[test]
    fn drop_reasons_have_distinct_names() {
        let all = [
            DropReason::DeadSwitch,
            DropReason::DeadLink,
            DropReason::NoRoute,
            DropReason::QueueFull,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.as_str(), b.as_str());
            }
        }
    }

    #[test]
    fn rwa_event_encodings_are_stable() {
        let ev = Event::RwaResolve {
            t_ns: 520_000,
            trigger: "cut",
            fiber: 3,
            outcome: "warm_start",
            moved: 2,
            restored: 0,
            torn_down: 5,
            unroutable: 1,
            channels: 11,
            fresh_channels: 11,
        };
        assert_eq!(
            to_ndjson([&ev]),
            "{\"ev\":\"rwa_resolve\",\"t\":520000,\"trigger\":\"cut\",\"fiber\":3,\"outcome\":\"warm_start\",\"moved\":2,\"restored\":0,\"torn\":5,\"unroutable\":1,\"channels\":11,\"fresh\":11}\n"
        );
        assert_eq!(ev.tag(), "rwa_resolve");
        let ev = Event::Retune {
            t_ns: 520_000,
            a: 1,
            b: 6,
            from_ch: 4,
            to_ch: 9,
            dark_ns: 52_500,
        };
        assert_eq!(
            to_ndjson([&ev]),
            "{\"ev\":\"retune\",\"t\":520000,\"a\":1,\"b\":6,\"from\":4,\"to\":9,\"dark\":52500}\n"
        );
        assert_eq!(ev.t_ns(), 520_000);
        assert_eq!(ev.tag(), "retune");
    }

    #[test]
    fn workload_event_encodings_are_stable() {
        let ev = Event::FlowStart {
            t_ns: 1_000,
            flow: 42,
            src: 3,
            dst: 17,
            bytes: 1_048_576,
        };
        assert_eq!(
            to_ndjson([&ev]),
            "{\"ev\":\"flow_start\",\"t\":1000,\"flow\":42,\"src\":3,\"dst\":17,\"bytes\":1048576}\n"
        );
        assert_eq!(ev.t_ns(), 1_000);
        assert_eq!(ev.tag(), "flow_start");
        let ev = Event::FlowComplete {
            t_ns: 9_500,
            flow: 42,
            fct_ns: 8_500,
            bytes: 1_048_576,
        };
        assert_eq!(
            to_ndjson([&ev]),
            "{\"ev\":\"flow_complete\",\"t\":9500,\"flow\":42,\"fct\":8500,\"bytes\":1048576}\n"
        );
        assert_eq!(ev.tag(), "flow_complete");
        let ev = Event::CollectiveStep {
            t_ns: 77_000,
            algo: "ring",
            step: 3,
            of: 14,
            elapsed_ns: 11_000,
        };
        assert_eq!(
            to_ndjson([&ev]),
            "{\"ev\":\"collective_step\",\"t\":77000,\"algo\":\"ring\",\"step\":3,\"of\":14,\"elapsed\":11000}\n"
        );
        assert_eq!(ev.t_ns(), 77_000);
        assert_eq!(ev.tag(), "collective_step");
    }

    #[test]
    fn to_ndjson_joins_lines() {
        let evs = [
            Event::Gen {
                t_ns: 0,
                flow: 0,
                size_bytes: 1500,
                response: false,
            },
            Event::Reroute {
                t_ns: 9,
                resolved: 1,
            },
        ];
        let s = to_ndjson(&evs);
        assert_eq!(s.lines().count(), 2);
        assert!(s.ends_with('\n'));
    }
}
