//! E8 — Theorem 1.3 / Theorem 5.4: the complete matrix PRG.
//!
//! Part 1: construction accounting — rounds `⌈k(m−k)/n⌉` and seed bits
//! `k + ⌈k(m−k)/n⌉` per processor, measured by the network, against the
//! theorem's formulas.
//!
//! Part 2: exact mixture indistinguishability for small `(n, k, m)` over
//! the full matrix family (`2^{k(m−k)}` members).

use bcc_bench::{banner, check, f, print_table, sci};
use bcc_congest::FnProtocol;
use bcc_core::{Estimator, ExactEstimator};
use bcc_prg::full::{family, uniform_input};
use bcc_prg::MatrixPrg;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner(
        "E8: the complete matrix PRG",
        "Theorem 1.3, Theorem 5.4",
        "construction rounds/seed bits measured vs formula; exact indistinguishability over the matrix family",
    );
    let mut rng = StdRng::seed_from_u64(bcc_bench::SEED);

    println!("\n-- Theorem 1.3: construction accounting --");
    let mut rows = Vec::new();
    for &(n, k, m) in &[
        (64usize, 16u32, 48u32),
        (128, 16, 80),
        (256, 24, 256),
        (1024, 32, 1024),
    ] {
        let prg = MatrixPrg::new(n, k, m).expect("valid");
        let run = prg.run(&mut rng);
        let theory_rounds = (k as usize * (m - k) as usize).div_ceil(n);
        rows.push(vec![
            n.to_string(),
            k.to_string(),
            m.to_string(),
            run.rounds_used.to_string(),
            theory_rounds.to_string(),
            run.seed_bits_per_processor.to_string(),
            format!("{}x", m as usize / run.seed_bits_per_processor.max(1)),
            check(run.rounds_used == theory_rounds),
        ]);
    }
    print_table(
        &[
            "n",
            "k",
            "m",
            "rounds",
            "ceil(k(m-k)/n)",
            "seed bits",
            "stretch",
            "ok",
        ],
        &rows,
    );

    println!("\n-- Theorem 5.4: exact mixture distance over all 2^(k(m-k)) matrices --");
    let mut rows = Vec::new();
    for &(n, k, m) in &[(3usize, 3u32, 5u32), (3, 4, 6), (2, 5, 7), (2, 6, 8)] {
        for j in 1..=2u32 {
            let proto = FnProtocol::new(n, m, j * n as u32, move |proc, input, tr| {
                let mask = (0xB4E1 ^ (tr.as_u64() << 1) ^ ((proc as u64) << 2)) & ((1 << m) - 1);
                (input & mask).count_ones() % 2 == 1
            });
            let members = family(n, k, m);
            let baseline = uniform_input(n, m);
            let cmp = ExactEstimator.estimate(&proto, &members, &baseline);
            rows.push(vec![
                n.to_string(),
                k.to_string(),
                m.to_string(),
                j.to_string(),
                members.len().to_string(),
                sci(cmp.tv()),
                sci(cmp.progress()),
                f(cmp.tv() / cmp.progress().max(1e-300)),
            ]);
        }
    }
    print_table(
        &[
            "n",
            "k",
            "m",
            "j",
            "|family|",
            "mixture TV",
            "L_progress",
            "TV/progress",
        ],
        &rows,
    );

    println!("\n-- Lemma 7.3: E_M ||f(U_m) - f(U_M)||^2 <= 2^-k (m-k)^2 E[f] --");
    let mut rows = Vec::new();
    let (k, m) = (4u32, 7u32);
    for fam in bcc_stats::boolfn::Family::all(bcc_bench::SEED) {
        let table = fam.build(m).to_f64_table();
        let (lhs, rhs) = bcc_prg::full::lemma_7_3_check(k, m, &table);
        rows.push(vec![
            fam.label().into(),
            sci(lhs),
            sci(rhs),
            check(lhs <= rhs + 1e-12),
        ]);
    }
    print_table(&["f", "E_M dist^2", "bound", "ok"], &rows);

    println!("\n-- Lemma 7.2: restricted domains, E_M distance <= 2^(-k/9) --");
    let mut rng = StdRng::seed_from_u64(bcc_bench::SEED);
    let mut rows = Vec::new();
    for frac in [0.75f64, 0.5, 0.25] {
        let mut domain: Vec<u64> = (0..(1u64 << m))
            .filter(|_| rand::Rng::gen::<f64>(&mut rng) < frac)
            .collect();
        domain.sort_unstable();
        let table = bcc_stats::TruthTable::random(&mut rng, m).to_f64_table();
        let got = bcc_prg::full::lemma_7_2_mean(k, m, &table, &domain);
        let bound = 2f64.powf(-(k as f64) / 9.0);
        rows.push(vec![
            format!("{frac:.2}"),
            domain.len().to_string(),
            sci(got),
            sci(bound),
            check(got <= bound),
        ]);
    }
    print_table(&["|D|/2^m", "|D|", "E_M distance", "2^(-k/9)", "ok"], &rows);

    println!(
        "\nShape check: at fixed (n, m - k, protocol) the mixture TV\n\
         decays with k (the 2^(-Omega(k)) of Theorem 5.4), and the\n\
         construction stretch factor grows once m = O(n)."
    );
}
