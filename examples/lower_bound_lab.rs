//! The lower-bound laboratory: watch the paper's framework run.
//!
//! Picks one planted-clique instance size, walks the exact engine over
//! the full `A_k = avg_C A_C` decomposition, and prints everything the §3
//! framework manipulates: the progress function turn by turn, the real
//! (mixture) distance it dominates, the per-clique distances, and the
//! consistent-set statistics of Claim 2.
//!
//! Run with: `cargo run --release --example lower_bound_lab`

use bcc::core::{Estimator, ExactEstimator};
use bcc::planted::protocols::suspect_intersection;
use bcc::planted::{bounds, clique_family, rand_input};

fn main() {
    let n = 8u32;
    let k = 2usize;
    let rounds = 2u32;
    println!("planted clique, n = {n}, k = {k}, {rounds} rounds of BCAST(1)");
    println!("protocol: suspect-intersection (adaptive greedy clique probe)\n");

    let members = clique_family(n, k);
    let baseline = rand_input(n);
    println!(
        "decomposition: A_k = average of {} row-independent A_C members",
        members.len()
    );

    let proto = suspect_intersection(n, rounds);
    let cmp = ExactEstimator.estimate(&proto, &members, &baseline);

    println!("\nturn-by-turn (exact):");
    println!(
        "{:>5} {:>12} {:>12} {:>16}",
        "turn", "L_progress", "mixture TV", "speaker E[|D_p|]"
    );
    for t in 0..cmp.progress_by_depth.len() {
        let frac = if t < cmp.speaker_stats.len() {
            format!("{:.4}", cmp.speaker_stats[t].mean_fraction)
        } else {
            "-".into()
        };
        println!(
            "{t:>5} {:>12.6} {:>12.6} {:>16}",
            cmp.progress_by_depth[t], cmp.mixture_tv_by_depth[t], frac
        );
    }

    let best = cmp
        .per_member_tv
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "\nper-clique distances: max {best:.5}, mean {:.5}",
        cmp.progress()
    );
    println!(
        "final: mixture TV = {:.5}  <=  L_progress = {:.5}  <=  bound {:.5}",
        cmp.tv(),
        cmp.progress(),
        bounds::theorem_4_1(n as usize, k, rounds as usize)
    );
    println!(
        "\nReading: each turn adds a small, bounded increment to the\n\
         progress function (Lemma 4.3's job); the mixture's real distance\n\
         stays below it (the triangle inequality); and the theorem's bound\n\
         caps everything — the whole §4 proof, executed."
    );
}
