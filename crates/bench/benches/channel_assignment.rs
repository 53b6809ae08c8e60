//! Performance of the §3.1 wavelength planners. The paper claims the
//! greedy heuristic "only requires seconds to compute on a standard
//! workstation even for a ring size of 35" — ours is far below that.

use quartz_bench::timing::measure;
use quartz_core::channel::greedy::{assign_with_order, Ordering};
use quartz_core::channel::{exact, greedy};
use quartz_core::fault::FailureModel;
use std::hint::black_box;

fn main() {
    for m in [9usize, 17, 33, 35] {
        measure("greedy_assignment", &format!("best_of_starts_m{m}"), || {
            greedy::assign_best(black_box(m), 0)
        });
    }

    // Odd sizes prove optimality essentially instantly; m=8 needs a real
    // infeasibility proof at the load bound.
    for m in [8usize, 9, 11, 13] {
        measure("exact_assignment", &format!("solve_m{m}"), || {
            exact::solve(black_box(m), 100_000_000)
        });
    }

    for (name, ord) in [
        ("longest_first_paper", Ordering::LongestFirst),
        ("shortest_first", Ordering::ShortestFirst),
    ] {
        measure("greedy_ordering_ablation", &format!("{name}_m33"), || {
            assign_with_order(black_box(33), 0, 0, ord)
        });
    }

    let model = FailureModel::new(33, 2);
    measure("fault", "monte_carlo_1k_trials", || {
        model.monte_carlo(4, 1_000, 7)
    });

    quartz_bench::timing::write_json("channel_assignment", None);
}
