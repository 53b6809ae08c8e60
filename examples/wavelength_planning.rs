//! Wavelength planning in depth (§3.1): greedy vs exact assignment, the
//! physical ITU wavelengths each switch pair gets, and the power budget
//! along the worst lightpath.
//!
//! Run with `cargo run --release --example wavelength_planning`.

use quartz::core::channel::bounds::load_lower_bound;
use quartz::core::channel::exact::{solve, ExactStatus};
use quartz::core::channel::{greedy, Pair};
use quartz::optics::ring::RingOpticalPlan;

fn main() {
    let m = 9;
    println!(
        "Ring of {m} switches — all {} pairs need channels.\n",
        m * (m - 1) / 2
    );

    let g = greedy::assign_best(m, 0);
    let e = solve(m, 50_000_000);
    println!(
        "greedy: {} wavelengths; exact: {} ({}); load bound: {}",
        g.channels_used(),
        e.channels,
        match e.status {
            ExactStatus::Optimal => "proven optimal",
            ExactStatus::BudgetExhausted => "best found",
        },
        load_lower_bound(m),
    );

    // Physical wavelengths for a few pairs, on the DWDM grid.
    let ring = quartz::core::QuartzRing::new(m, 4, m - 1, 10.0).unwrap();
    let plan = ring.assign_channels();
    plan.validate().unwrap();
    println!("\nSample channel assignments ({}):", plan.grid.name());
    for (a, b) in [(0, 1), (0, 4), (2, 7)] {
        let pair = Pair::new(a, b);
        let (dir, ch) = plan.assignment.lookup(pair).unwrap();
        let w = plan.wavelength_of(pair).unwrap();
        println!("  λ{a}{b}: channel {ch} = {w} ({dir:?} arc)");
    }

    // Optical feasibility for the same ring.
    let optics = RingOpticalPlan::paper_plan(m).unwrap();
    println!(
        "\nOptics: {} amplifiers, {} dB receiver pad, worst margin {}",
        optics.amplifier_count(),
        optics.receiver_pad().attenuation.value(),
        optics.worst_margin(),
    );
    let path = optics.lightpath(0, m / 2);
    println!(
        "Longest lightpath traverses {} elements end to end.",
        path.elements.len()
    );
}
