//! E6 — Theorem 5.1 and Lemma 5.2: the toy PRG fools one round.
//!
//! Part 1: exact mixture distance of `avg_b U_[b]^{⊗n}` versus uniform for
//! one turn-based round, against the `n/2^{k/2}` bound — the measured
//! distance should decay geometrically in `k` at rate `2^{-k/2}`.
//!
//! Part 2: the Parseval inequality of Lemma 5.2,
//! `Σ_b ‖f(U) − f(U_[b])‖² ≤ E[f]`, exactly for the function families.

use bcc_bench::{banner, check, f, print_table, sci};
use bcc_congest::FnProtocol;
use bcc_core::{Estimator, ExactEstimator};
use bcc_planted::bounds;
use bcc_prg::toy::{family, uniform_input};
use bcc_stats::boolfn::Family;
use bcc_stats::fourier::lemma_5_2_sum;

fn main() {
    banner(
        "E6: toy PRG, one round",
        "Theorem 5.1, Lemma 5.2",
        "exact distance <= O(n/2^(k/2)); Parseval sum <= E[f]",
    );

    println!("\n-- Theorem 5.1: exact mixture distance, one round --");
    let mut rows = Vec::new();
    for &n in &[2usize, 4] {
        for &k in &[4u32, 6, 8, 10] {
            let proto = FnProtocol::new(n, k + 1, n as u32, move |proc, input, tr| {
                let mask = (0x5A5A5A ^ (tr.as_u64() << 1) ^ (proc as u64)) & ((1 << (k + 1)) - 1);
                (input & mask).count_ones() % 2 == 1
            });
            let members = family(n, k);
            let baseline = uniform_input(n, k);
            let cmp = ExactEstimator::default().estimate_full(&proto, &members, &baseline);
            let bound = bounds::theorem_5_1(n, k);
            rows.push(vec![
                n.to_string(),
                k.to_string(),
                sci(cmp.tv()),
                sci(cmp.progress()),
                sci(bound),
                check(cmp.tv() <= bound),
            ]);
        }
    }
    print_table(
        &["n", "k", "mixture TV", "L_progress", "n/2^(k/2)", "ok"],
        &rows,
    );

    println!("\n-- Lemma 5.2: sum_b ||f(U) - f(U_[b])||^2 <= E[f] --");
    let mut rows = Vec::new();
    for &k in &[6u32, 8, 10] {
        for fam in Family::all(bcc_bench::SEED) {
            let table = fam.build(k + 1);
            let sum = lemma_5_2_sum(&table.to_f64_table());
            let mean = table.mean();
            rows.push(vec![
                k.to_string(),
                fam.label().into(),
                sci(sum),
                f(mean),
                check(sum <= mean + 1e-9),
            ]);
        }
    }
    print_table(&["k", "f", "Parseval sum", "E[f]", "ok"], &rows);
    println!(
        "\nShape check: the mixture TV column decays ~4x per k += 4 at\n\
         fixed n (the 2^(-k/2) rate), and doubles with n."
    );
}
