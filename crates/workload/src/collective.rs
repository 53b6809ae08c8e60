//! ML collective schedules: ring and tree all-reduce.
//!
//! An all-reduce over `N` ranks is modeled as a dependency graph of
//! chunked transfers, driven by *delivery*: each bulk-synchronous step
//! injects its transport flows, the simulator runs until every one of
//! them has completed (via `Simulator::run_until_samples`), and the
//! next step starts at the simulated instant the last transfer of the
//! previous one finished — no wall-clock anywhere.
//!
//! * **Ring**: each rank holds `bytes`; the gradient is split into `N`
//!   chunks. A reduce-scatter of `N−1` steps (every rank sends one
//!   chunk to its right neighbor) is followed by an all-gather of
//!   another `N−1` steps, so `2(N−1)` steps of `N` concurrent
//!   `bytes/N`-sized transfers each. Per-step traffic is balanced but
//!   the step count grows with `N`.
//! * **Tree** (binomial): `⌈log₂N⌉` reduce levels — at level `l`, rank
//!   `r` with `r mod 2^(l+1) = 2^l` sends its full `bytes` to
//!   `r − 2^l` — then the same pairings in reverse broadcast the
//!   result. Fewer steps, but every transfer carries the full payload
//!   and the fan-in concentrates on low ranks.

use quartz_netsim::sim::{FlowKind, Simulator};
use quartz_netsim::time::SimTime;
use quartz_netsim::transport::TcpVariant;
use quartz_obs::Event;
use quartz_topology::graph::NodeId;

/// Which all-reduce schedule to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveAlgo {
    /// Ring reduce-scatter + all-gather.
    Ring,
    /// Binomial-tree reduce + broadcast.
    Tree,
}

impl CollectiveAlgo {
    /// Stable lowercase name (`ring` / `tree`).
    pub fn name(self) -> &'static str {
        match self {
            CollectiveAlgo::Ring => "ring",
            CollectiveAlgo::Tree => "tree",
        }
    }
}

/// One completed step of a collective schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollectiveStep {
    /// Zero-based step index.
    pub step: u32,
    /// Concurrent transfers in this step.
    pub transfers: u32,
    /// Bytes per transfer.
    pub bytes_per_transfer: u64,
    /// Simulated duration of the step, ns.
    pub elapsed_ns: u64,
}

/// The result of one all-reduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectiveReport {
    /// Schedule that ran.
    pub algo: CollectiveAlgo,
    /// Participating ranks.
    pub ranks: usize,
    /// Gradient bytes per rank.
    pub bytes: u64,
    /// Per-step timings, in schedule order.
    pub steps: Vec<CollectiveStep>,
    /// Total collective completion time, ns (sum of the steps as
    /// simulated — the steps are serialized, so this is also last step
    /// end minus first step start).
    pub total_ns: u64,
}

/// The transfers of one schedule step: `(sender, receiver, bytes)`.
type StepPlan = Vec<(usize, usize, u64)>;

/// Builds the ring schedule: `2(N−1)` steps, every rank sending one
/// `bytes/N` chunk to its right neighbor each step.
fn ring_steps(ranks: usize, bytes: u64) -> Vec<StepPlan> {
    let n = ranks;
    let chunk = bytes.div_ceil(n as u64).max(1);
    let step: StepPlan = (0..n).map(|r| (r, (r + 1) % n, chunk)).collect();
    std::iter::repeat_n(step, 2 * (n - 1)).collect()
}

/// Builds the binomial-tree schedule: reduce levels up, then the same
/// pairings reversed to broadcast.
fn tree_steps(ranks: usize, bytes: u64) -> Vec<StepPlan> {
    let n = ranks;
    let mut reduce: Vec<StepPlan> = Vec::new();
    let mut stride = 1usize;
    while stride < n {
        let mut plan = StepPlan::new();
        let mut r = stride;
        while r < n {
            if r % (2 * stride) == stride {
                plan.push((r, r - stride, bytes));
            }
            r += stride;
        }
        if !plan.is_empty() {
            reduce.push(plan);
        }
        stride *= 2;
    }
    let broadcast: Vec<StepPlan> = reduce
        .iter()
        .rev()
        .map(|plan| plan.iter().map(|&(s, d, b)| (d, s, b)).collect())
        .collect();
    reduce.into_iter().chain(broadcast).collect()
}

/// Runs one all-reduce over `ranks` (host nodes) on `sim`, starting at
/// `sim.now()`. Each step's flows are tagged `tag_base + step`, so the
/// caller must keep that tag range free. Returns an error if any step
/// fails to complete by `deadline`.
#[allow(clippy::too_many_arguments)]
pub fn run_allreduce(
    sim: &mut Simulator,
    ranks: &[NodeId],
    algo: CollectiveAlgo,
    bytes: u64,
    variant: TcpVariant,
    pkt_bytes: u32,
    tag_base: u32,
    deadline: SimTime,
) -> Result<CollectiveReport, String> {
    let n = ranks.len();
    if n < 2 {
        return Err(format!("all-reduce needs ≥ 2 ranks, got {n}"));
    }
    if bytes == 0 {
        return Err("all-reduce payload must be ≥ 1 byte".into());
    }
    let plans = match algo {
        CollectiveAlgo::Ring => ring_steps(n, bytes),
        CollectiveAlgo::Tree => tree_steps(n, bytes),
    };
    let of = u32::try_from(plans.len()).map_err(|_| "step count overflows u32".to_string())?;
    let t0 = sim.now();
    let mut steps = Vec::with_capacity(plans.len());
    for (s, plan) in plans.iter().enumerate() {
        let step = u32::try_from(s).expect("step index bounded by `of`");
        let tag = tag_base + step;
        let start = sim.now();
        for &(src, dst, b) in plan {
            sim.add_flow(
                ranks[src],
                ranks[dst],
                pkt_bytes,
                FlowKind::Transport {
                    total_bytes: b,
                    variant,
                },
                tag,
                start,
            );
        }
        if !sim.run_until_samples(tag, plan.len(), deadline) {
            return Err(format!(
                "{} all-reduce step {step}/{of} did not complete by the deadline \
                 ({} of {} transfers done)",
                algo.name(),
                sim.stats().count(tag),
                plan.len()
            ));
        }
        let now = sim.now();
        let elapsed_ns = now.saturating_sub(start);
        sim.record_event(Event::CollectiveStep {
            t_ns: now.ns(),
            algo: algo.name(),
            step,
            of,
            elapsed_ns,
        });
        steps.push(CollectiveStep {
            step,
            transfers: u32::try_from(plan.len()).expect("transfers ≤ ranks, fits u32"),
            bytes_per_transfer: plan[0].2,
            elapsed_ns,
        });
    }
    Ok(CollectiveReport {
        algo,
        ranks: n,
        bytes,
        steps,
        total_ns: sim.now().saturating_sub(t0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_schedule_shape() {
        let plans = ring_steps(4, 4_000);
        assert_eq!(plans.len(), 6); // 2(N−1)
        for plan in &plans {
            assert_eq!(plan.len(), 4);
            for &(s, d, b) in plan {
                assert_eq!(d, (s + 1) % 4);
                assert_eq!(b, 1_000);
            }
        }
    }

    #[test]
    fn tree_schedule_reduces_then_broadcasts() {
        let plans = tree_steps(8, 1_000);
        assert_eq!(plans.len(), 6); // log2(8) up + log2(8) down
                                    // Level 0 of the reduce: odd ranks send to their even neighbor.
        assert_eq!(
            plans[0],
            vec![(1, 0, 1_000), (3, 2, 1_000), (5, 4, 1_000), (7, 6, 1_000)]
        );
        // Last reduce level: rank 4 sends the half-tree total to 0.
        assert_eq!(plans[2], vec![(4, 0, 1_000)]);
        // Broadcast mirrors the reduce in reverse order and direction.
        assert_eq!(plans[3], vec![(0, 4, 1_000)]);
        assert_eq!(
            plans[5],
            vec![(0, 1, 1_000), (2, 3, 1_000), (4, 5, 1_000), (6, 7, 1_000)]
        );
    }

    #[test]
    fn tree_handles_non_power_of_two() {
        let plans = tree_steps(6, 600);
        // Every rank except 0 must send exactly once in the reduce half.
        let reduce_half = plans.len() / 2;
        let mut senders: Vec<usize> = plans[..reduce_half]
            .iter()
            .flat_map(|p| p.iter().map(|&(s, _, _)| s))
            .collect();
        senders.sort_unstable();
        assert_eq!(senders, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn ring_chunk_rounds_up() {
        let plans = ring_steps(3, 1_000);
        assert_eq!(plans[0][0].2, 334); // ceil(1000/3)
    }
}
