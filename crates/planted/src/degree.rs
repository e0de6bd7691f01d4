//! The high-degree heuristic for `k ≳ √n` (§1.2 of the paper).
//!
//! "Once `k` goes substantially above `√n`, it is possible to find the
//! clique by considering the vertices with highest degree": a clique
//! member's out-degree is `Binomial(n − k, ½) + (k − 1)` versus a
//! non-member's `Binomial(n − 1, ½)` — a shift of `≈ k/2` against a
//! `√n/2` standard deviation. One `BCAST(log n)` round (everyone
//! broadcasts its out-degree) suffices; the crossover experiment E15
//! sweeps `k` through `√n` to watch this detector switch on exactly where
//! the lower bound's `O(k²/√n)` bound becomes vacuous.

use bcc_congest::{Model, Network};
use bcc_graphs::degree::top_k_indices;
use bcc_graphs::digraph::DiGraph;

/// The outcome of the degree protocol.
#[derive(Debug, Clone)]
pub struct DegreeOutcome {
    /// The `k` vertices of the highest out-degree, sorted.
    pub candidates: Vec<usize>,
    /// Rounds consumed (1 in `BCAST(log n)`; `⌈log n⌉` in `BCAST(1)`).
    pub rounds_used: usize,
}

impl DegreeOutcome {
    /// The fraction of `clique` contained in the candidate set.
    fn recall(&self, clique: &[usize]) -> f64 {
        if clique.is_empty() {
            return 1.0;
        }
        let hits = clique
            .iter()
            .filter(|v| self.candidates.binary_search(v).is_ok())
            .count();
        hits as f64 / clique.len() as f64
    }

    /// Whether the candidates are exactly the clique.
    fn exact(&self, clique: &[usize]) -> bool {
        self.candidates == clique
    }
}

/// Runs the degree protocol: one `BCAST(log n)` round of out-degrees,
/// then everyone locally takes the top `k`.
///
/// # Panics
///
/// Panics if `k > n`.
fn degree_protocol(graph: &DiGraph, k: usize) -> DegreeOutcome {
    let n = graph.n();
    assert!(k <= n, "clique size exceeds vertex count");
    let mut net = Network::new(Model::bcast_log(n.max(2)));
    // An out-degree is at most n-1 < n, so it fits one BCAST(log n)
    // message.
    let degrees: Vec<u64> = (0..n).map(|i| graph.out_degree(i) as u64).collect();
    let heard: Vec<usize> = net
        .broadcast_round(&degrees)
        .iter()
        .map(|&d| d as usize)
        .collect();
    DegreeOutcome {
        candidates: top_k_indices(&heard, k),
        rounds_used: net.rounds_used(),
    }
}

/// Success statistics of the degree protocol over planted instances.
#[derive(Debug, Clone, Copy)]
pub struct DegreeStatsSummary {
    /// Mean recall (fraction of the clique among the top-k degrees).
    pub mean_recall: f64,
    /// Fraction of runs with exact recovery.
    pub exact_rate: f64,
}

/// Measures the degree protocol on `trials` planted instances.
pub fn measure_degree<R: rand::Rng + ?Sized>(
    n: usize,
    k: usize,
    trials: usize,
    rng: &mut R,
) -> DegreeStatsSummary {
    assert!(trials > 0, "need at least one trial");
    let mut recall = 0.0;
    let mut exact = 0usize;
    for _ in 0..trials {
        let inst = bcc_graphs::planted::sample_planted(rng, n, k);
        let out = degree_protocol(&inst.graph, k);
        recall += out.recall(&inst.clique);
        if out.exact(&inst.clique) {
            exact += 1;
        }
    }
    DegreeStatsSummary {
        mean_recall: recall / trials as f64,
        exact_rate: exact as f64 / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::planted::{sample_planted, sample_rand};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn one_round_in_bcast_log() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = sample_rand(&mut rng, 64);
        let out = degree_protocol(&g, 8);
        assert_eq!(out.rounds_used, 1);
        assert_eq!(out.candidates.len(), 8);
    }

    #[test]
    fn large_clique_is_recovered() {
        // k = 4·sqrt(n log n) ≈ far above the threshold.
        let mut rng = StdRng::seed_from_u64(2);
        let n = 400;
        let k = 180;
        let inst = sample_planted(&mut rng, n, k);
        let out = degree_protocol(&inst.graph, k);
        assert!(
            out.recall(&inst.clique) > 0.95,
            "recall {}",
            out.recall(&inst.clique)
        );
    }

    #[test]
    fn small_clique_is_missed() {
        // k far below sqrt(n): degree gives nothing beyond chance.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 400;
        let k = 8; // sqrt(400) = 20
        let mut recall = 0.0;
        let trials = 30;
        for _ in 0..trials {
            let inst = sample_planted(&mut rng, n, k);
            let out = degree_protocol(&inst.graph, k);
            recall += out.recall(&inst.clique);
        }
        recall /= trials as f64;
        // Chance level is k/n = 0.02; allow up to 0.3.
        assert!(recall < 0.3, "recall {recall} too high for tiny k");
    }

    #[test]
    fn recall_is_monotone_in_k_through_the_crossover() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 256;
        let r_small = measure_degree(n, 8, 20, &mut rng).mean_recall;
        let r_big = measure_degree(n, 128, 20, &mut rng).mean_recall;
        assert!(r_big > r_small + 0.3, "{r_small} -> {r_big}");
    }

    #[test]
    fn recall_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let inst = sample_planted(&mut rng, 100, 30);
        let out = degree_protocol(&inst.graph, 30);
        let r = out.recall(&inst.clique);
        assert!((0.0..=1.0).contains(&r));
    }
}
