//! E2 — Theorem 4.1: multi-round planted clique and the progress
//! function.
//!
//! The exact mixture walk returns the progress function
//! `L_progress^{(t)}` turn by turn; the table shows (a) the final distance
//! against the `j·k²·√((j+log n)/n)` bound and (b) the per-round progress
//! profile, whose per-turn increments are what Lemma 4.3 bounds.

use bcc_bench::{banner, check, f, print_table};
use bcc_planted::protocols::{random_mask_parity, suspect_intersection};
use bcc_planted::{bounds, exact_experiment};

fn main() {
    banner(
        "E2: multi-round planted clique",
        "Theorem 4.1, Section 3 framework",
        "exact mixture distance and progress function across rounds; bound j*k^2*sqrt((j+log n)/n)",
    );
    let mut rows = Vec::new();
    for &(n, k, jmax) in &[(6u32, 2usize, 3u32), (8, 2, 2), (7, 3, 2)] {
        for j in 1..=jmax {
            let cmp = exact_experiment(&suspect_intersection(n, j), n, k);
            let bound = bounds::theorem_4_1(n as usize, k, j as usize);
            rows.push(vec![
                n.to_string(),
                k.to_string(),
                j.to_string(),
                "suspect-intersect".into(),
                f(cmp.tv()),
                f(cmp.progress()),
                f(bound.min(1.0)),
                check(cmp.tv() <= bound),
            ]);
            let cmp = exact_experiment(&random_mask_parity(n, j, bcc_bench::SEED), n, k);
            rows.push(vec![
                n.to_string(),
                k.to_string(),
                j.to_string(),
                "random-mask".into(),
                f(cmp.tv()),
                f(cmp.progress()),
                f(bound.min(1.0)),
                check(cmp.tv() <= bound),
            ]);
        }
    }
    print_table(
        &[
            "n",
            "k",
            "j",
            "protocol",
            "mixture TV",
            "L_progress",
            "bound(cap 1)",
            "ok",
        ],
        &rows,
    );

    // Per-turn progress profile for one configuration: Eq. (7)'s linear
    // accumulation.
    println!("\nprogress function by turn (n=6, k=2, j=3, suspect-intersect):");
    let cmp = exact_experiment(&suspect_intersection(6, 3), 6, 2);
    let prof: Vec<String> = cmp
        .progress_by_depth
        .iter()
        .enumerate()
        .filter(|(t, _)| t % 6 == 0)
        .map(|(t, p)| format!("t={t}: {p:.5}"))
        .collect();
    println!("  {}", prof.join("   "));
    println!(
        "  (mixture TV at horizon: {:.5} <= progress {:.5})",
        cmp.tv(),
        cmp.progress()
    );
}
