//! The *undirected* planted clique — the paper's §9 open problem, explored
//! empirically.
//!
//! In the undirected problem each unordered pair carries one shared bit,
//! so processor `i`'s row and processor `j`'s row agree at the `{i,j}`
//! entry: the rows are **dependent**, the §3 decomposition into
//! row-independent members does not apply, and the paper leaves the lower
//! bound open ("we believe it may be possible to extend the framework…").
//!
//! This module supplies the distributions, the row-dependence measurement
//! (a direct witness of *why* the framework's precondition fails), and
//! Monte-Carlo transcript-distance experiments showing that natural
//! protocols behave just as in the directed case — evidence for the
//! paper's conjecture.

use bcc_congest::TurnProtocol;
use bcc_core::sample::{sampled_comparison_with, SampledComparison};
use bcc_graphs::digraph::UGraph;
use bcc_graphs::planted::sample_subset;
use rand::Rng;

/// Samples the undirected `A_rand`: `G(n, ½)` as packed symmetric rows,
/// one `u64` per processor (`n ≤ 63`).
pub fn sample_rows_rand<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<u64> {
    let g = UGraph::random(rng, n, 0.5);
    rows_of(&g)
}

/// Samples the undirected `A_k`: `G(n, ½)` with a planted `k`-clique.
pub fn sample_rows_planted<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<u64> {
    let mut g = UGraph::random(rng, n, 0.5);
    let clique = sample_subset(rng, n, k);
    for (a, &u) in clique.iter().enumerate() {
        for &v in &clique[a + 1..] {
            g.set_edge(u, v, true);
        }
    }
    rows_of(&g)
}

fn rows_of(g: &UGraph) -> Vec<u64> {
    (0..g.n())
        .map(|i| {
            let mut row = 0u64;
            for j in 0..g.n() {
                if i != j && g.has_edge(i, j) {
                    row |= 1 << j;
                }
            }
            row
        })
        .collect()
}

/// The empirical correlation between entry `(i, j)` of row `i` and entry
/// `(j, i)` of row `j` — exactly 1 for undirected inputs (shared bit),
/// ≈ 0 for directed ones. This is the row-dependence that blocks the §3
/// decomposition.
pub fn row_dependence<R, F>(mut sampler: F, n: usize, trials: usize, rng: &mut R) -> f64
where
    R: Rng + ?Sized,
    F: FnMut(&mut R) -> Vec<u64>,
{
    assert!(n >= 2, "need two processors to correlate");
    assert!(trials > 0, "need at least one trial");
    let (i, j) = (0usize, 1usize);
    let mut agree = 0usize;
    for _ in 0..trials {
        let rows = sampler(rng);
        let a = (rows[i] >> j) & 1;
        let b = (rows[j] >> i) & 1;
        if a == b {
            agree += 1;
        }
    }
    // Map agreement rate to a correlation-like score in [0, 1]:
    // 0.5 (independent fair bits) -> 0, 1.0 (shared bit) -> 1.
    (2.0 * (agree as f64 / trials as f64 - 0.5)).clamp(0.0, 1.0)
}

/// Monte-Carlo transcript distance between undirected `A_rand` and
/// undirected `A_k` for a given protocol.
pub fn sampled_experiment<P, R>(
    protocol: &P,
    n: usize,
    k: usize,
    samples: usize,
    rng: &mut R,
) -> SampledComparison
where
    P: TurnProtocol + ?Sized,
    R: Rng + ?Sized,
{
    sampled_comparison_with(
        &protocol.as_wide(),
        |rng| sample_rows_rand(rng, n),
        |rng| sample_rows_planted(rng, n, k),
        samples,
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{degree_threshold, suspect_intersection};
    use bcc_graphs::planted::sample_rand as sample_directed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rows_are_symmetric() {
        let mut rng = StdRng::seed_from_u64(1);
        let rows = sample_rows_rand(&mut rng, 10);
        for i in 0..10 {
            assert_eq!((rows[i] >> i) & 1, 0, "no self-loop");
            for j in 0..10 {
                assert_eq!(
                    (rows[i] >> j) & 1,
                    (rows[j] >> i) & 1,
                    "symmetry at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn planted_rows_boost_edge_density() {
        // Planting a 5-clique adds ~C(5,2)/2 = 5 expected edges; compare
        // mean total ones across many samples against the plain model.
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 300;
        let mean_ones = |planted: bool, rng: &mut StdRng| -> f64 {
            (0..trials)
                .map(|_| {
                    let rows = if planted {
                        sample_rows_planted(rng, 12, 5)
                    } else {
                        sample_rows_rand(rng, 12)
                    };
                    rows.iter().map(|r| r.count_ones() as f64).sum::<f64>()
                })
                .sum::<f64>()
                / trials as f64
        };
        let plain = mean_ones(false, &mut rng);
        let planted = mean_ones(true, &mut rng);
        assert!(
            planted > plain + 5.0,
            "expected ~10 extra half-edges: {plain} -> {planted}"
        );
    }

    #[test]
    fn undirected_rows_are_dependent_directed_are_not() {
        let mut rng = StdRng::seed_from_u64(3);
        let undirected = row_dependence(|r| sample_rows_rand(r, 8), 8, 4000, &mut rng);
        assert!(undirected > 0.95, "shared bits: dependence {undirected}");
        let directed = row_dependence(
            |r| {
                let g = sample_directed(r, 8);
                (0..8)
                    .map(|i| {
                        (0..8)
                            .filter(|&j| g.has_edge(i, j))
                            .map(|j| 1u64 << j)
                            .sum()
                    })
                    .collect()
            },
            8,
            4000,
            &mut rng,
        );
        assert!(directed < 0.1, "directed edges independent: {directed}");
    }

    #[test]
    fn small_clique_is_invisible_to_sampled_protocols() {
        // The §9 conjecture's shape: for k far below sqrt(n), the sampled
        // transcript distance stays at the noise floor.
        let mut rng = StdRng::seed_from_u64(4);
        let n = 12usize;
        let proto = suspect_intersection(n as u32, 1);
        let cmp = sampled_experiment(&proto, n, 2, 30_000, &mut rng);
        assert!(
            cmp.tv <= cmp.noise_floor() + 0.05,
            "tv {} floor {}",
            cmp.tv,
            cmp.noise_floor()
        );
    }

    #[test]
    fn large_clique_is_visible() {
        // Sanity: a huge clique IS detectable (k comparable to n) — the
        // estimator is not blind.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 12usize;
        let proto = degree_threshold(n as u32, 1, 7);
        let cmp = sampled_experiment(&proto, n, 8, 30_000, &mut rng);
        assert!(cmp.tv > 0.2, "tv {} should be large for k = 8", cmp.tv);
    }
}
