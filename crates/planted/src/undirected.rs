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

use bcc_congest::wide::WideTurnProtocol;
use bcc_core::exec::DepthProfile;
use bcc_core::sample::sampled_comparison_with;
use bcc_graphs::planted::sample_subset;
use rand::Rng;

/// Refills `rows` with the undirected `A_rand`: `G(n, ½)` as packed
/// symmetric rows, one `u64` per processor (`n ≤ 63`). It draws the
/// pairs `u < v` in the order
/// [`UGraph::random`](bcc_graphs::digraph::UGraph::random) does, so the
/// stream and the graph are that sampler's.
pub fn fill_rows_rand<R: Rng + ?Sized>(rng: &mut R, n: usize, rows: &mut Vec<u64>) {
    rows.clear();
    rows.resize(n, 0);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < 0.5 {
                rows[u] |= 1 << v;
                rows[v] |= 1 << u;
            }
        }
    }
}

/// Refills `rows` with the undirected `A_k`: `G(n, ½)` with a planted
/// `k`-clique.
fn fill_rows_planted<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize, rows: &mut Vec<u64>) {
    fill_rows_rand(rng, n, rows);
    let clique = sample_subset(rng, n, k);
    for (a, &u) in clique.iter().enumerate() {
        for &v in &clique[a + 1..] {
            rows[u] |= 1 << v;
            rows[v] |= 1 << u;
        }
    }
}

/// The empirical correlation between entry `(i, j)` of row `i` and entry
/// `(j, i)` of row `j` — exactly 1 for undirected inputs (shared bit),
/// ≈ 0 for directed ones. This is the row-dependence that blocks the §3
/// decomposition. `sampler` refills the one row buffer it is handed, as
/// [`sampled_comparison_with`]'s samplers do.
pub fn row_dependence<R, F>(mut sampler: F, n: usize, trials: usize, rng: &mut R) -> f64
where
    R: Rng + ?Sized,
    F: FnMut(&mut R, &mut Vec<u64>),
{
    assert!(n >= 2, "need two processors to correlate");
    assert!(trials > 0, "need at least one trial");
    let (i, j) = (0usize, 1usize);
    let mut agree = 0usize;
    let mut rows = Vec::new();
    for _ in 0..trials {
        sampler(rng, &mut rows);
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
/// undirected `A_k` for a given protocol: a sampled [`DepthProfile`] with
/// `A_rand` as its single member and `A_k` as the baseline.
pub fn sampled_experiment<P, R>(
    protocol: &P,
    n: usize,
    k: usize,
    samples: usize,
    rng: &mut R,
) -> DepthProfile
where
    P: WideTurnProtocol + ?Sized,
    R: Rng + ?Sized,
{
    sampled_comparison_with(
        protocol,
        |rng, rows| fill_rows_rand(rng, n, rows),
        |rng, rows| fill_rows_planted(rng, n, k, rows),
        samples,
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{degree_threshold, suspect_intersection};
    use bcc_core::exec::Provenance;
    use bcc_graphs::planted::fill_rows_rand as fill_directed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rows_are_symmetric() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut rows = Vec::new();
        fill_rows_rand(&mut rng, 10, &mut rows);
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
            let mut rows = Vec::new();
            (0..trials)
                .map(|_| {
                    if planted {
                        fill_rows_planted(rng, 12, 5, &mut rows);
                    } else {
                        fill_rows_rand(rng, 12, &mut rows);
                    }
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
        let undirected = row_dependence(|r, v| fill_rows_rand(r, 8, v), 8, 4000, &mut rng);
        assert!(undirected > 0.95, "shared bits: dependence {undirected}");
        let directed = row_dependence(|r, v| fill_directed(r, 8, v), 8, 4000, &mut rng);
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
            cmp.tv() <= cmp.noise_floor() + 0.05,
            "tv {} floor {}",
            cmp.tv(),
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
        assert!(cmp.tv() > 0.2, "tv {} should be large for k = 8", cmp.tv());
    }

    #[test]
    fn sampled_experiment_bits_are_pinned() {
        // Golden: the exact bits of one seeded experiment — TV, noise
        // floor and observed support — so a change to the sampler's
        // result plumbing cannot move a reported number silently.
        let mut rng = StdRng::seed_from_u64(0x601D);
        let proto = degree_threshold(8, 1, 4);
        let cmp = sampled_experiment(&proto, 8, 6, 4_000, &mut rng);
        let Provenance::Sampled {
            ref support_by_depth,
            ..
        } = cmp.provenance
        else {
            panic!("sampled run");
        };
        assert_eq!(cmp.tv().to_bits(), 4605209842163229122);
        assert_eq!(cmp.noise_floor().to_bits(), 4598228942315338354);
        assert_eq!(support_by_depth.last(), Some(&256));
    }
}
