//! E17 (extension) — the undirected planted clique (§9 open problem).
//!
//! The undirected problem shares one bit per unordered pair, so processor
//! rows are dependent and the §3 decomposition does not apply — the paper
//! leaves the lower bound open and conjectures the framework extends.
//! This experiment (a) measures the row dependence directly, and (b)
//! estimates transcript distances of the same natural protocols on the
//! undirected pair, side by side with the directed case: the conjecture
//! predicts the same smallness, which is what we see.

use bcc_bench::{banner, f, print_table};
use bcc_core::sample::sampled_comparison_with;
use bcc_graphs::planted::{fill_rows_planted, fill_rows_rand};
use bcc_planted::protocols::{degree_threshold, suspect_intersection};
use bcc_planted::undirected::{self, row_dependence, sampled_experiment};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner(
        "E17 (extension): undirected planted clique",
        "Section 9 (open problem)",
        "rows are dependent (shared edge bits); natural protocols still cannot tell A_rand from A_k",
    );
    let mut rng = StdRng::seed_from_u64(bcc_bench::SEED);

    println!("\n-- the obstruction: row dependence (shared-bit agreement) --");
    let n = 12usize;
    let undirected = row_dependence(
        |r, v| undirected::fill_rows_rand(r, n, v),
        n,
        20_000,
        &mut rng,
    );
    let directed = row_dependence(|r, v| fill_rows_rand(r, n, v), n, 20_000, &mut rng);
    print_table(
        &["model", "dependence score"],
        &[
            vec!["undirected".into(), f(undirected)],
            vec!["directed".into(), f(directed)],
        ],
    );

    println!("\n-- sampled transcript distance, A_rand vs A_k, one round --");
    let samples = 60_000;
    let mut rows = Vec::new();
    for &k in &[2usize, 3, 4, 8] {
        let p1 = suspect_intersection(n as u32, 1);
        let und = sampled_experiment(&p1, n, k, samples, &mut rng);
        let dir = sampled_comparison_with(
            &p1,
            |r, v| fill_rows_rand(r, n, v),
            |r, v| fill_rows_planted(r, n, k, v),
            samples,
            &mut rng,
        );
        rows.push(vec![
            k.to_string(),
            "suspect-intersect".into(),
            f(und.tv()),
            f(dir.tv()),
            f(und.noise_floor()),
        ]);
        let p2 = degree_threshold(n as u32, 1, n as u32 / 2 + 1);
        let und = sampled_experiment(&p2, n, k, samples, &mut rng);
        rows.push(vec![
            k.to_string(),
            "degree-threshold".into(),
            f(und.tv()),
            "-".into(),
            f(und.noise_floor()),
        ]);
    }
    print_table(
        &[
            "k",
            "protocol",
            "undirected TV",
            "directed TV",
            "noise floor",
        ],
        &rows,
    );
    println!(
        "\nShape check: for k = 2..4 both columns sit at/near the noise\n\
         floor (the conjecture's prediction); by k = 8 (~2 sqrt(n)) both\n\
         become clearly visible — dependence does not change the landscape."
    );
}
