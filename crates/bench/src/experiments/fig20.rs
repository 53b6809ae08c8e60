//! Figure 20 — the pathological traffic pattern of §7.2: multiple flows
//! from switch S1 to receivers on switch S2, stressing switch-to-switch
//! bandwidth. Compares a non-blocking store-and-forward core switch, a
//! four-switch 40 GbE Quartz ring with ECMP (direct paths only), and the
//! same ring with VLB.

use crate::table::print_table;
use crate::Scale;
use quartz_core::pool::ThreadPool;
use quartz_netsim::sim::{FlowKind, SimConfig, Simulator, VlbConfig};
use quartz_netsim::time::SimTime;
use quartz_topology::builders::quartz_mesh;
use quartz_topology::graph::{Network, NodeId, SwitchRole};

/// The compared designs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Design {
    /// A single non-blocking (but store-and-forward, 6 µs) core switch.
    NonBlockingSwitch,
    /// Quartz in core, ECMP routing (direct channel only).
    QuartzEcmp,
    /// Quartz in core, VLB over the two-hop detours.
    QuartzVlb,
}

impl Design {
    /// Legend name.
    pub fn name(&self) -> &'static str {
        match self {
            Design::NonBlockingSwitch => "Non-blocking Switch",
            Design::QuartzEcmp => "Quartz in Core (ECMP)",
            Design::QuartzVlb => "Quartz in Core (VLB)",
        }
    }
}

const SENDERS: usize = 5;

/// Builds the topology: either 4×40G-meshed switches with 5 hosts each,
/// or all 10 endpoints on one core switch.
fn build(design: Design) -> (Network, Vec<NodeId>, Vec<NodeId>, Option<VlbConfig>) {
    match design {
        Design::NonBlockingSwitch => {
            let mut net = Network::new();
            let core = net.add_switch(SwitchRole::Core, None);
            let mk = |net: &mut Network, rack| {
                (0..SENDERS)
                    .map(|_| {
                        let h = net.add_host(Some(rack));
                        net.connect(h, core, 40.0);
                        h
                    })
                    .collect::<Vec<_>>()
            };
            let senders = mk(&mut net, 0);
            let receivers = mk(&mut net, 1);
            (net, senders, receivers, None)
        }
        Design::QuartzEcmp | Design::QuartzVlb => {
            let q = quartz_mesh(4, SENDERS, 40.0, 40.0);
            let senders = q.hosts[0..SENDERS].to_vec();
            let receivers = q.hosts[SENDERS..2 * SENDERS].to_vec();
            let vlb = (design == Design::QuartzVlb).then(|| VlbConfig {
                fraction: 0.5,
                domains: vec![q.switches.clone()],
            });
            (q.net, senders, receivers, vlb)
        }
    }
}

/// Mean packet latency (µs) and loss fraction at `aggregate_gbps` of
/// S1→S2 traffic.
pub fn simulate(design: Design, aggregate_gbps: f64, sim_ms: u64, seed: u64) -> (f64, f64) {
    let (net, senders, receivers, vlb) = build(design);
    let mut sim = Simulator::new(
        net,
        SimConfig {
            seed,
            vlb,
            ..SimConfig::default()
        },
    );
    let stop = SimTime::from_ms(sim_ms);
    let per_flow_gbps = aggregate_gbps / SENDERS as f64;
    let mean_gap_ns = 400.0 * 8.0 / per_flow_gbps;
    for (&s, &d) in senders.iter().zip(&receivers) {
        sim.add_flow(
            s,
            d,
            400,
            FlowKind::Poisson {
                mean_gap_ns,
                stop,
                respond: false,
            },
            0,
            SimTime::ZERO,
        );
    }
    sim.run(stop + 5_000_000);
    let st = sim.stats();
    let loss = st.dropped as f64 / st.generated.max(1) as f64;
    (st.summary(0).mean_us(), loss)
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Point {
    /// Aggregate S1→S2 traffic, Gb/s.
    pub gbps: f64,
    /// `(mean latency µs, loss fraction)` per design, in
    /// [`designs`] order.
    pub results: Vec<(f64, f64)>,
}

/// The designs in output order.
pub fn designs() -> [Design; 3] {
    [
        Design::NonBlockingSwitch,
        Design::QuartzEcmp,
        Design::QuartzVlb,
    ]
}

/// Sweeps aggregate traffic 10..=50 Gb/s over `pool`: one unit per `(load point,
/// design)` simulation, reassembled in sweep order — bit-identical at
/// any worker count.
pub fn run(scale: Scale, pool: &ThreadPool) -> Vec<Point> {
    let (sim_ms, points): (u64, Vec<f64>) = match scale {
        Scale::Paper => (8, vec![10.0, 20.0, 30.0, 40.0, 45.0, 50.0]),
        Scale::Quick => (1, vec![10.0, 50.0]),
    };
    let n_designs = designs().len();
    let cells = pool.par_map(points.len() * n_designs, |i| {
        let (gbps, d) = (points[i / n_designs], designs()[i % n_designs]);
        simulate(d, gbps, sim_ms, 7)
    });
    points
        .into_iter()
        .enumerate()
        .map(|(p, gbps)| Point {
            gbps,
            results: cells[p * n_designs..(p + 1) * n_designs].to_vec(),
        })
        .collect()
}

/// The `--trace-out` body: the metrics trace of [`run`]'s output.
pub fn trace_ndjson(points: &[Point]) -> String {
    let mut m = quartz_obs::MetricsRegistry::new();
    m.inc("fig20.points", points.len() as u64);
    for p in points {
        for (d, &(lat_us, loss)) in designs().iter().zip(&p.results) {
            let key = d.name().to_ascii_lowercase().replace([' ', '+'], "_");
            m.set_gauge(&format!("fig20.latency_us.g{:02.0}.{key}", p.gbps), lat_us);
            m.set_gauge(&format!("fig20.loss.g{:02.0}.{key}", p.gbps), loss);
        }
    }
    m.to_ndjson()
}

/// Renders the computed points as the Figure 20 table.
pub fn render(pts: &[Point]) {
    crate::outln!("Figure 20: pathological S1→S2 pattern — latency per packet (µs)\n");
    let mut headers: Vec<String> = vec!["Traffic (Gb/s)".into()];
    headers.extend(designs().iter().map(|d| d.name().to_string()));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            let mut cells = vec![format!("{:.0}", p.gbps)];
            for &(us, loss) in &p.results {
                cells.push(if loss > 0.001 {
                    format!("{us:.1} ({:.0}% loss)", loss * 100.0)
                } else {
                    format!("{us:.2}")
                });
            }
            cells
        })
        .collect();
    print_table(&headers_ref, &rows);
    crate::outln!("\nPaper: the non-blocking switch is flat but pays its 6 µs store-and-forward latency; Quartz+ECMP is far lower until the 40 Gb/s direct channel saturates (then unbounded, ~125 µs with our 512 KiB ports); Quartz+VLB stays low through 50 Gb/s (§7.2).");
}
