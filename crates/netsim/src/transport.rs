//! Reliable window-based transport state machines: Reno-style TCP and
//! DCTCP (Alizadeh et al., SIGCOMM 2010 — the paper's \[19\]).
//!
//! §2.1.4 of the Quartz paper surveys protocol-based latency fixes
//! (DCTCP, D²TCP, PDQ…) and argues they are "limited by the amount of
//! path diversity in the underlying network topology". This module makes
//! that argument measurable: the simulator can run the same congested
//! workload under plain Reno, under DCTCP (ECN-based early reaction), and
//! on a Quartz mesh — and compare flow completion times.
//!
//! The state machines are deliberately compact, documented
//! simplifications of the real protocols:
//!
//! * cumulative per-packet ACKs, no SACK;
//! * slow start (+1 cwnd per ACK) and congestion avoidance (+1/cwnd);
//! * fast retransmit on 3 duplicate ACKs (retransmit one segment,
//!   multiplicative decrease);
//! * retransmission timeout → go-back-N from the cumulative ACK with
//!   `cwnd = 1`;
//! * DCTCP: per-window ECN mark fraction `F`, `α ← (1−g)α + gF` with
//!   `g = 1/16`, and `cwnd ← cwnd·(1 − α/2)` once per marked window.
//!
//! They are pure (no simulator types), so every transition is unit-tested
//! here; the simulator's per-packet core (`core.rs`, shared by both
//! engines) only executes their actions.
//!
//! Timers: a sender asks to re-arm its retransmission timer
//! ([`SendAction::ArmRto`]) on nearly every ACK, bumping
//! [`SenderState::rto_epoch`] each time. The simulator does not queue one
//! event per arm. Each connection keeps its latest armed
//! `(deadline, epoch)` and at most one queued timer event, which moves
//! forward to the latest deadline when it pops early, so only the timer
//! still armed when its deadline passes reaches
//! [`SenderState::on_rto_into`]. The epoch check there still drops a
//! timer that completion (or any later bump) made stale.

/// Retransmission timeout, ns: a timer armed at `t` fires at
/// `t + RTO_NS` unless re-armed first.
pub const RTO_NS: u64 = 250_000;

/// Congestion-control variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpVariant {
    /// Loss-based AIMD.
    Reno,
    /// ECN-proportional decrease (DCTCP).
    Dctcp,
}

/// Transport-layer role of a packet, carried in the simulator's packet
/// arena (`quartz_netsim::arena`) and interpreted at delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportInfo {
    /// Not transport-managed.
    None,
    /// Data segment `seq` of its flow.
    Data(u64),
    /// Cumulative ACK up to `ack`, echoing the data packet's ECN mark.
    Ack {
        /// Next sequence expected by the receiver.
        ack: u64,
        /// Whether the acknowledged data packet carried an ECN mark.
        ecn_echo: bool,
    },
}

/// What the sender wants the simulator to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendAction {
    /// Transmit the data segment with this sequence number.
    SendData {
        /// Segment sequence number (0-based packet index).
        seq: u64,
    },
    /// (Re-)arm the retransmission timer ([`RTO_NS`] from now) for
    /// this epoch, replacing any earlier arm.
    ArmRto {
        /// Epoch the timer fires with; stale epochs are ignored.
        epoch: u64,
    },
    /// All data acknowledged — record the completion.
    Complete,
}

/// DCTCP's EWMA gain.
const DCTCP_G: f64 = 1.0 / 16.0;

/// Sender-side connection state.
#[derive(Clone, Debug)]
pub struct SenderState {
    variant: TcpVariant,
    total: u64,
    /// Next never-sent sequence.
    next_seq: u64,
    /// First unacknowledged sequence.
    acked: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    /// DCTCP: marks and ACKs in the current observation window, which
    /// ends when `acked` passes `window_end`.
    alpha: f64,
    marked: u64,
    acks_in_window: u64,
    window_end: u64,
    /// Incremented on every timer-relevant state change.
    pub rto_epoch: u64,
    complete: bool,
}

impl SenderState {
    /// A new connection of `total` segments.
    pub fn new(variant: TcpVariant, total: u64) -> Self {
        assert!(total > 0, "empty transfers complete trivially");
        SenderState {
            variant,
            total,
            next_seq: 0,
            acked: 0,
            cwnd: 2.0,
            ssthresh: f64::INFINITY,
            dup_acks: 0,
            alpha: 0.0,
            marked: 0,
            acks_in_window: 0,
            window_end: 0,
            rto_epoch: 0,
            complete: false,
        }
    }

    /// Current congestion window in whole segments (≥ 1).
    pub fn cwnd_pkts(&self) -> u64 {
        (self.cwnd.floor() as u64).max(1)
    }

    /// Segments in flight.
    pub fn in_flight(&self) -> u64 {
        self.next_seq.saturating_sub(self.acked)
    }

    /// Whether the transfer has completed.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The DCTCP mark-fraction estimate (0 for Reno).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Sends as much new data as the window allows, appending the
    /// actions to `out`. Every handler appends into a caller-provided
    /// buffer, so the simulator's steady state reuses one scratch `Vec`
    /// instead of allocating per transport event.
    pub fn pump_into(&mut self, out: &mut Vec<SendAction>) {
        let mut sent = false;
        while self.next_seq < self.total && self.in_flight() < self.cwnd_pkts() {
            out.push(SendAction::SendData { seq: self.next_seq });
            self.next_seq += 1;
            sent = true;
        }
        if sent {
            self.rto_epoch += 1;
            out.push(SendAction::ArmRto {
                epoch: self.rto_epoch,
            });
        }
    }

    /// Handles a cumulative ACK up to (excluding) `ack`, with DCTCP's
    /// per-packet ECN echo, appending the actions to `out`.
    pub fn on_ack_into(&mut self, ack: u64, ecn_echo: bool, out: &mut Vec<SendAction>) {
        if self.complete {
            return;
        }
        // DCTCP bookkeeping counts every ACK, new or duplicate.
        if self.variant == TcpVariant::Dctcp {
            self.acks_in_window += 1;
            if ecn_echo {
                self.marked += 1;
                // A congestion signal ends slow start at once — without
                // this, short flows overshoot the ECN threshold just as
                // badly as loss-based senders overshoot the buffer.
                if self.cwnd < self.ssthresh {
                    self.ssthresh = self.cwnd;
                }
            }
            if ack >= self.window_end {
                let f = self.marked as f64 / self.acks_in_window.max(1) as f64;
                self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f;
                if self.marked > 0 {
                    self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(1.0);
                }
                self.marked = 0;
                self.acks_in_window = 0;
                self.window_end = self.next_seq;
            }
        }

        if ack > self.acked {
            self.acked = ack;
            // A late ACK for data sent before an RTO rewind can pass the
            // rewound `next_seq`; those segments need no resend.
            self.next_seq = self.next_seq.max(self.acked);
            self.dup_acks = 0;
            // Window growth per newly acknowledged data.
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0; // slow start
            } else {
                self.cwnd += 1.0 / self.cwnd; // congestion avoidance
            }
            if self.acked >= self.total {
                self.complete = true;
                self.rto_epoch += 1; // cancel outstanding timers
                out.push(SendAction::Complete);
                return;
            }
            let before = out.len();
            self.pump_into(out);
            if out.len() == before {
                // Still waiting on in-flight data: keep the timer alive.
                self.rto_epoch += 1;
                out.push(SendAction::ArmRto {
                    epoch: self.rto_epoch,
                });
            }
        } else {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                // Fast retransmit + multiplicative decrease.
                self.ssthresh = (self.cwnd / 2.0).max(1.0);
                self.cwnd = self.ssthresh;
                self.dup_acks = 0;
                self.rto_epoch += 1;
                out.push(SendAction::SendData { seq: self.acked });
                out.push(SendAction::ArmRto {
                    epoch: self.rto_epoch,
                });
            }
        }
    }

    /// Handles a retransmission timeout carrying `epoch`, appending the
    /// actions to `out`.
    pub fn on_rto_into(&mut self, epoch: u64, out: &mut Vec<SendAction>) {
        if self.complete || epoch != self.rto_epoch {
            return; // stale timer
        }
        // Go-back-N: rewind to the cumulative ACK, collapse the window.
        self.ssthresh = (self.cwnd / 2.0).max(1.0);
        self.cwnd = 1.0;
        self.next_seq = self.acked;
        self.dup_acks = 0;
        self.pump_into(out);
    }
}

/// Receiver-side reassembly state: cumulative ACK generation.
#[derive(Clone, Debug, Default)]
pub struct ReceiverState {
    rcv_next: u64,
    out_of_order: std::collections::BTreeSet<u64>,
}

impl ReceiverState {
    /// Accepts segment `seq`; returns the cumulative ACK to send (the
    /// next expected sequence).
    pub fn on_data(&mut self, seq: u64) -> u64 {
        if seq == self.rcv_next {
            self.rcv_next += 1;
            while self.out_of_order.remove(&self.rcv_next) {
                self.rcv_next += 1;
            }
        } else if seq > self.rcv_next {
            self.out_of_order.insert(seq);
        } // seq < rcv_next: duplicate, re-ACK
        self.rcv_next
    }

    /// Highest contiguous sequence received.
    pub fn expected(&self) -> u64 {
        self.rcv_next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The actions one `*_into` call appends to a fresh buffer.
    fn acts(call: impl FnOnce(&mut Vec<SendAction>)) -> Vec<SendAction> {
        let mut out = Vec::new();
        call(&mut out);
        out
    }

    fn data_seqs(actions: &[SendAction]) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                SendAction::SendData { seq } => Some(*seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = SenderState::new(TcpVariant::Reno, 1_000);
        // Initial window 2.
        assert_eq!(data_seqs(&acts(|o| s.pump_into(o))), vec![0, 1]);
        // ACK both: window grows to 4, two new per ACK on average.
        let a1 = acts(|o| s.on_ack_into(1, false, o));
        let a2 = acts(|o| s.on_ack_into(2, false, o));
        let sent: usize = data_seqs(&a1).len() + data_seqs(&a2).len();
        assert_eq!(sent, 4);
        assert_eq!(s.cwnd_pkts(), 4);
    }

    #[test]
    fn completion_fires_exactly_once() {
        let mut s = SenderState::new(TcpVariant::Reno, 3);
        s.pump_into(&mut Vec::new());
        s.on_ack_into(1, false, &mut Vec::new());
        s.on_ack_into(2, false, &mut Vec::new());
        let done = acts(|o| s.on_ack_into(3, false, o));
        assert!(done.contains(&SendAction::Complete));
        assert!(s.is_complete());
        assert!(acts(|o| s.on_ack_into(3, false, o)).is_empty());
    }

    #[test]
    fn triple_dup_ack_fast_retransmits_and_halves() {
        let mut s = SenderState::new(TcpVariant::Reno, 1_000);
        s.pump_into(&mut Vec::new());
        s.on_ack_into(1, false, &mut Vec::new()); // advance
        s.on_ack_into(2, false, &mut Vec::new()); // advance, cwnd = 4
        let cwnd_before = s.cwnd_pkts();
        assert_eq!(acts(|o| s.on_ack_into(2, false, o)), vec![]); // dup 1
        assert_eq!(acts(|o| s.on_ack_into(2, false, o)), vec![]); // dup 2
        let got = acts(|o| s.on_ack_into(2, false, o)); // dup 3 → fast retransmit seq 2
        assert_eq!(data_seqs(&got), vec![2]);
        assert!(s.cwnd_pkts() <= cwnd_before / 2 + 1);
    }

    #[test]
    fn rto_goes_back_n_with_window_collapse() {
        let mut s = SenderState::new(TcpVariant::Reno, 100);
        s.pump_into(&mut Vec::new());
        let epoch = s.rto_epoch;
        let got = acts(|o| s.on_rto_into(epoch, o));
        assert_eq!(data_seqs(&got), vec![0]); // cwnd = 1 → one segment
        assert_eq!(s.cwnd_pkts(), 1);
        // A stale epoch does nothing.
        assert!(acts(|o| s.on_rto_into(epoch, o)).is_empty());
    }

    #[test]
    fn dctcp_alpha_tracks_mark_fraction() {
        let mut s = SenderState::new(TcpVariant::Dctcp, 10_000);
        s.pump_into(&mut Vec::new());
        assert_eq!(s.alpha(), 0.0);
        // Fully marked traffic drives α up (EWMA with g = 1/16, one
        // update per window).
        for ack in 1..200u64 {
            s.on_ack_into(ack, true, &mut Vec::new());
        }
        let peak = s.alpha();
        assert!(peak > 0.3, "α = {peak}");
        // Unmarked windows decay it.
        for ack in 200..600u64 {
            s.on_ack_into(ack, false, &mut Vec::new());
        }
        assert!(s.alpha() < peak, "α should decay: {} vs {peak}", s.alpha());
    }

    #[test]
    fn dctcp_cuts_proportionally_not_by_half() {
        // Lightly marked: DCTCP's cut is gentler than Reno's halving.
        let mut s = SenderState::new(TcpVariant::Dctcp, 100_000);
        s.pump_into(&mut Vec::new());
        for ack in 1..100u64 {
            s.on_ack_into(ack, false, &mut Vec::new()); // grow cleanly
        }
        let before = s.cwnd;
        // One marked window out of many: small α, small cut.
        for ack in 100..110u64 {
            s.on_ack_into(ack, ack % 10 == 0, &mut Vec::new());
        }
        assert!(s.cwnd > before * 0.7, "{} vs {before}", s.cwnd);
    }

    #[test]
    fn receiver_generates_cumulative_acks() {
        let mut r = ReceiverState::default();
        assert_eq!(r.on_data(0), 1);
        assert_eq!(r.on_data(2), 1); // gap: hold 2
        assert_eq!(r.on_data(3), 1);
        assert_eq!(r.on_data(1), 4); // fills the gap, releases 2 and 3
        assert_eq!(r.on_data(1), 4); // duplicate re-ACKs
        assert_eq!(r.expected(), 4);
    }

    #[test]
    fn reno_never_deadlocks_without_loss() {
        // Drive a whole transfer with an in-order network: every pumped
        // segment is delivered and ACKed; the connection must complete.
        let mut s = SenderState::new(TcpVariant::Reno, 500);
        let mut r = ReceiverState::default();
        let mut wire: std::collections::VecDeque<u64> = data_seqs(&acts(|o| s.pump_into(o))).into();
        let mut guard = 0;
        while !s.is_complete() {
            guard += 1;
            assert!(guard < 10_000, "deadlock");
            let seq = wire.pop_front().expect("window stalled with no data");
            let ack = r.on_data(seq);
            for a in acts(|o| s.on_ack_into(ack, false, o)) {
                if let SendAction::SendData { seq } = a {
                    wire.push_back(seq);
                }
            }
        }
    }

    #[test]
    fn late_ack_after_rto_rewind_does_not_underflow() {
        // Regression: send a window, rewind via RTO (next_seq ← acked),
        // then receive an ACK for data from *before* the rewind. The
        // window accounting must stay consistent (this underflowed
        // in_flight in debug builds).
        let mut s = SenderState::new(TcpVariant::Reno, 100);
        s.pump_into(&mut Vec::new()); // seq 0, 1 in flight
        let epoch = s.rto_epoch;
        s.on_rto_into(epoch, &mut Vec::new()); // rewind: next_seq = 0, resend seq 0
                                               // The original seq 0 and 1 were actually delivered: ACK 2 lands.
        let got = acts(|o| s.on_ack_into(2, false, o));
        assert!(s.in_flight() <= s.cwnd_pkts());
        // The connection keeps making progress.
        assert!(
            got.iter().any(|a| matches!(a, SendAction::SendData { .. })),
            "{got:?}"
        );
        assert!(!s.is_complete());
    }
}
