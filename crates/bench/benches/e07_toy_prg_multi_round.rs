//! E7 — Theorem 5.3, Lemma 6.1 and Claims 4/5: the toy PRG fools
//! multiple rounds.
//!
//! Part 1: exact mixture distance for `j`-round adaptive protocols
//! against the `2jn/2^{k/9}` bound.
//!
//! Part 2: Lemma 6.1 on restricted domains
//! (`E_b ‖f(U_{[b],D}) − f(U_{k+1,D})‖ ≤ 2^{-k/9}` for `|D| ≥ 2^{k/2}`).
//!
//! Part 3: Claim 5 — the coset balance `N_b/N_D ≈ ½`.

use bcc_bench::{banner, check, f, print_table, sci};
use bcc_congest::FnProtocol;
use bcc_core::{Estimator, ExactEstimator};
use bcc_planted::bounds;
use bcc_prg::toy::{claim_5_deviations, family, lemma_6_1_mean, uniform_input};
use bcc_stats::TruthTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    banner(
        "E7: toy PRG, multiple rounds",
        "Theorem 5.3, Lemma 6.1, Claims 4/5",
        "exact distance <= O(jn/2^(k/9)) for j <= k/10; restricted-domain lemma; coset balance",
    );
    let mut rng = StdRng::seed_from_u64(bcc_bench::SEED);

    println!("\n-- Theorem 5.3: exact mixture distance, j rounds --");
    let mut rows = Vec::new();
    for &(n, k) in &[(2usize, 8u32), (3, 8), (2, 10)] {
        for j in 1..=3u32 {
            // Non-linear protocol (a masked threshold): linear tests are
            // fooled perfectly by a linear PRG, so thresholds make the
            // table informative.
            let proto = FnProtocol::new(n, k + 1, j * n as u32, move |proc, input, tr| {
                // Always include the PRG's extra bit (bit k) in the mask —
                // a test that ignores it sees only raw uniform seed bits.
                let mask = ((0x3C96A5 ^ tr.as_u64() ^ ((proc as u64) << 3)) & ((1 << (k + 1)) - 1))
                    | (1 << k);
                (input & mask).count_ones() >= (k + 1) / 3
            });
            let members = family(n, k);
            let baseline = uniform_input(n, k);
            let cmp = ExactEstimator::default().estimate_full(&proto, &members, &baseline);
            let bound = bounds::theorem_5_3(n, k, j as usize);
            rows.push(vec![
                n.to_string(),
                k.to_string(),
                j.to_string(),
                sci(cmp.tv()),
                sci(cmp.progress()),
                sci(bound),
                check(cmp.tv() <= bound),
            ]);
        }
    }
    print_table(
        &[
            "n",
            "k",
            "j",
            "mixture TV",
            "L_progress",
            "2jn/2^(k/9)",
            "ok",
        ],
        &rows,
    );

    println!("\n-- Lemma 6.1: restricted-domain indistinguishability --");
    let mut rows = Vec::new();
    for &k in &[8u32, 10] {
        let full: Vec<u64> = (0..(1u64 << (k + 1))).collect();
        // Random domain of half the cube (far above the 2^(k/2) floor).
        let domain: Vec<u64> = full.iter().copied().filter(|_| rng.gen::<bool>()).collect();
        for (label, f_table) in [
            ("majority", TruthTable::majority(k + 1)),
            ("random", TruthTable::random(&mut rng, k + 1)),
        ] {
            let got = lemma_6_1_mean(k, &f_table, &domain);
            let bound = 2f64.powf(-(k as f64) / 9.0);
            rows.push(vec![
                k.to_string(),
                label.into(),
                domain.len().to_string(),
                sci(got),
                sci(bound),
                check(got <= bound),
            ]);
        }
    }
    print_table(&["k", "f", "|D|", "E_b distance", "2^(-k/9)", "ok"], &rows);

    println!("\n-- Claim 5: coset balance N_b/N_D on random domains --");
    let mut rows = Vec::new();
    for &k in &[8u32, 10, 12] {
        let domain: Vec<u64> = (0..(1u64 << (k + 1)))
            .filter(|_| rng.gen::<f64>() < 0.3)
            .collect();
        let (mean_dev, max_dev) = claim_5_deviations(k, &domain);
        let threshold = 2f64.powf(-(k as f64) / 8.0);
        rows.push(vec![
            k.to_string(),
            domain.len().to_string(),
            sci(mean_dev),
            f(max_dev),
            sci(threshold),
            check(mean_dev <= threshold),
        ]);
    }
    print_table(
        &["k", "|D|", "E|N_b/N_D - 1/2|", "max dev", "2^(-k/8)", "ok"],
        &rows,
    );
}
