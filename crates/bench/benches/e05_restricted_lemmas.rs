//! E5 — Lemmas 4.3/4.4 and Claim 2: the restricted-domain inequalities
//! and the size of the consistent input set during a real protocol.
//!
//! Part 1 evaluates Lemma 4.4 exactly on random domains of size `2^{n−t}`
//! (the `√(t/n)` shape). Part 2 runs the exact engine on a real protocol
//! and prints the distribution of the speaker's consistent-set fraction —
//! Claim 2 says `|D_p| ≥ 2^{n−j}/n³` except with probability `1/n²`.

use bcc_bench::{banner, check, f, print_table, sci};
use bcc_core::exec::{Estimator, ExactEstimator};
use bcc_planted::lemmas::{lemma_4_3_sampled, lemma_4_4_mean, random_domain};
use bcc_planted::{bounds, rand_input};
use bcc_stats::boolfn::Family;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner(
        "E5: restricted-domain inequalities + consistent-set sizes",
        "Lemmas 4.3 and 4.4, Claim 2",
        "restriction to |D| = 2^(n-t) costs sqrt(t/n); consistent sets stay large w.h.p.",
    );
    let mut rng = StdRng::seed_from_u64(bcc_bench::SEED);

    // Part 1: Lemma 4.4 on random domains.
    println!("\n-- Lemma 4.4: E_i ||f(U_D) - f(U_D^[i])|| on random |D| = 2^(n-t) --");
    let n = 14u32;
    let mut rows = Vec::new();
    for &t in &[1u32, 2, 4, 6] {
        let domain = random_domain(n, t, &mut rng);
        let bound = bounds::lemma_4_4(n as usize, t as usize);
        for fam in [Family::Majority, Family::Random(bcc_bench::SEED)] {
            let table = fam.build(n);
            let got = lemma_4_4_mean(&table, &domain);
            rows.push(vec![
                n.to_string(),
                t.to_string(),
                fam.label().into(),
                f(got),
                f(got / ((t as f64 + 1.0) / n as f64).sqrt()),
                f(bound),
                check(got <= bound),
            ]);
        }
    }
    print_table(
        &["n", "t", "f", "measured", "/sqrt((t+1)/n)", "bound", "ok"],
        &rows,
    );

    // Part 2: Lemma 4.3 (clique version, sampled cliques).
    println!("\n-- Lemma 4.3: clique version on restricted domains --");
    let mut rows = Vec::new();
    for &t in &[2u32, 4] {
        let domain = random_domain(n, t, &mut rng);
        for &k in &[2usize, 3] {
            let table = Family::Majority.build(n);
            let got = lemma_4_3_sampled(&table, &domain, k, 800, &mut rng);
            let bound = 4.0 * k as f64 * ((t as f64) / (n as f64)).sqrt();
            rows.push(vec![
                t.to_string(),
                k.to_string(),
                f(got),
                f(bound),
                check(got <= bound),
            ]);
        }
    }
    print_table(&["t", "k", "measured", "O(k sqrt(t/n))", "ok"], &rows);

    // Part 3: Claim 2 via the engine's speaker statistics, for a protocol
    // that genuinely reveals input bits (each processor broadcasts a fresh
    // input bit every round, plus an adaptive transcript twist).
    println!("\n-- Claim 2: speaker consistent-set fraction under A_rand --");
    let n = 7u32;
    let j = 3u32;
    let proto = bcc_congest::FnProtocol::new(n as usize, n, j * n, move |proc, input, tr| {
        let round = tr.len() / n;
        // Reveal bit (proc + round + 1) mod n: skips the processor's own
        // diagonal bit, which A_rand fixes to 0 (broadcasting it would
        // reveal nothing).
        let bit = (proc as u32 + round + 1) % n;
        let twist = tr.as_u64().count_ones() as u64 & 1;
        ((input >> bit) ^ twist) & 1 == 1
    });
    let baseline = rand_input(n);
    let cmp = ExactEstimator.estimate(&proto, std::slice::from_ref(&baseline), &baseline);
    let mut rows = Vec::new();
    for round in 0..j {
        // Processor 0's turn at the start of each round: it has spoken
        // `round` bits so far.
        let t = (round * n) as usize;
        let s = &cmp.speaker_stats[t];
        // Claim 2 threshold: fraction < 2^-j / n^3, i.e. below the first
        // threshold index >= j + 3·log2(n).
        let idx = (round as usize + (3.0 * (n as f64).log2()).ceil() as usize)
            .min(bcc_core::engine::FRACTION_THRESHOLDS - 1);
        rows.push(vec![
            round.to_string(),
            f(s.mean_fraction),
            sci(s.mass_below[idx.min(19)]),
            sci(1.0 / (n as f64 * n as f64)),
            check(s.mass_below[idx.min(19)] <= 1.0 / (n as f64 * n as f64) + 1e-9),
        ]);
    }
    print_table(
        &[
            "round",
            "E[|D_p|/2^n]",
            "Pr[< 2^-j/n^3]",
            "claim: 1/n^2",
            "ok",
        ],
        &rows,
    );
    println!(
        "\nShape check: after j spoken bits the expected fraction is about\n\
         2^-j, and the catastrophic-shrink probability is far below 1/n^2."
    );
}
