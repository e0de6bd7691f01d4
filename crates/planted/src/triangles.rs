//! Triangle counting in the Broadcast Congested Clique — the first entry
//! of the paper's §9 list of problems its technique should extend to.
//!
//! Two protocols:
//!
//! * [`exact_count_protocol`] — the trivial upper bound: everyone
//!   broadcasts their whole row (`n − 1` useful bits ⇒ `n` rounds of
//!   `BCAST(1)` with our padding), then counts locally.
//! * [`sampled_count_protocol`] — a sublinear-round estimator: in each of
//!   `s` rounds a publicly-known random vertex pair is probed; processors
//!   broadcast their adjacency bit to the pair and everyone tallies the
//!   wedge-closure rate. Rounds `s ≪ n` at the cost of sampling error.
//!
//! The experiment side pairs `A_rand` with `A_k`: triangle counts are a
//! *global* statistic whose planted shift is `Θ(k³)` against a `Θ(n^{3/2})`
//! standard deviation — another face of the `k ≈ √n` crossover.

use bcc_congest::{Model, Network};
use bcc_f2::BitVec;
use bcc_graphs::digraph::{DiGraph, UGraph};
use rand::Rng;

/// The number of triangles of the undirected graph (triples with all
/// three edges).
fn triangle_count(g: &UGraph) -> u64 {
    let n = g.n();
    let mut count = 0u64;
    for u in 0..n {
        for v in (u + 1)..n {
            if !g.has_edge(u, v) {
                continue;
            }
            // Common neighbours above v close triangles (u < v < w).
            let common = g.neighbors(u) & g.neighbors(v);
            count += common.iter_ones().filter(|&w| w > v).count() as u64;
        }
    }
    count
}

/// The number of *mutual* triangles of a directed graph (triangles of the
/// mutual graph — the object the planted clique boosts).
pub fn mutual_triangle_count(g: &DiGraph) -> u64 {
    triangle_count(&g.mutual_graph())
}

/// The expected mutual-triangle count of `A_rand`:
/// `C(n,3) · (1/4)³` (each mutual edge has probability ¼).
pub fn expected_triangles_rand(n: usize) -> f64 {
    let c3 = (n * (n - 1) * (n - 2)) as f64 / 6.0;
    c3 / 64.0
}

/// The outcome of a distributed triangle-counting protocol.
#[derive(Debug, Clone, Copy)]
pub struct TriangleOutcome {
    /// The (exact or estimated) mutual-triangle count.
    pub count: f64,
    /// `BCAST(1)` rounds used.
    pub rounds_used: usize,
}

/// The trivial exact protocol: every processor broadcasts its full row
/// (`n` bits ⇒ `n` rounds), then counts locally.
pub fn exact_count_protocol(g: &DiGraph) -> TriangleOutcome {
    let n = g.n();
    let mut net = Network::new(Model::bcast1(n));
    let payloads: Vec<BitVec> = (0..n).map(|i| g.row(i).clone()).collect();
    let rounds = net.broadcast_bits(&payloads);
    let heard = net.collect_bits(rounds, n);
    // Everyone reconstructs the graph and counts.
    let mut mutual = UGraph::empty(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if heard[u].get(v) && heard[v].get(u) {
                mutual.set_edge(u, v, true);
            }
        }
    }
    TriangleOutcome {
        count: triangle_count(&mutual) as f64,
        rounds_used: net.rounds_used(),
    }
}

/// The sampling estimator: probes `samples` random ordered triples using
/// public randomness; each probe costs one round (processors `u`, `v`
/// and `w` of the triple broadcast their three adjacency bits — everyone
/// else pads). The estimate is `closure_rate · C(n,3)`.
///
/// # Panics
///
/// Panics if `n < 3` or `samples == 0`.
pub fn sampled_count_protocol<R: Rng + ?Sized>(
    g: &DiGraph,
    samples: usize,
    rng: &mut R,
) -> TriangleOutcome {
    let n = g.n();
    assert!(n >= 3, "need at least three vertices");
    assert!(samples > 0, "need at least one probe");
    let mut net = Network::new(Model::bcast1(n));
    let mut closed = 0u64;
    for _ in 0..samples {
        // Public random distinct triple (u, v, w).
        let mut triple = [0usize; 3];
        loop {
            for t in &mut triple {
                *t = rng.gen_range(0..n);
            }
            if triple[0] != triple[1] && triple[1] != triple[2] && triple[0] != triple[2] {
                break;
            }
        }
        let [u, v, w] = triple;
        // One round: u broadcasts (u<->v mutual from its side: u->v),
        // v broadcasts v->w side, w broadcasts w->u side... mutual edges
        // need both directions, so probe two bits per processor packed
        // into one BCAST(1) round each? One bit per round: use 2 rounds
        // per probe — u says u->v AND u->w? That is 2 bits. Keep the
        // model honest: 2 rounds per probe, each processor 1 bit.
        let msgs_a: Vec<u64> = (0..n)
            .map(|i| {
                if i == u {
                    u64::from(g.has_edge(u, v))
                } else if i == v {
                    u64::from(g.has_edge(v, w))
                } else if i == w {
                    u64::from(g.has_edge(w, u))
                } else {
                    0
                }
            })
            .collect();
        let msgs_b: Vec<u64> = (0..n)
            .map(|i| {
                if i == u {
                    u64::from(g.has_edge(u, w))
                } else if i == v {
                    u64::from(g.has_edge(v, u))
                } else if i == w {
                    u64::from(g.has_edge(w, v))
                } else {
                    0
                }
            })
            .collect();
        let a = net.broadcast_round(&msgs_a).to_vec();
        let b = net.broadcast_round(&msgs_b).to_vec();
        let uv = a[u] == 1 && b[v] == 1;
        let vw = a[v] == 1 && b[w] == 1;
        let wu = a[w] == 1 && b[u] == 1;
        if uv && vw && wu {
            closed += 1;
        }
    }
    let c3 = (n * (n - 1) * (n - 2)) as f64 / 6.0;
    // Ordered distinct triples hit each unordered triangle 6 ways.
    let rate = closed as f64 / samples as f64;
    TriangleOutcome {
        count: rate * c3,
        rounds_used: net.rounds_used(),
    }
}

/// Measures how well the (exact) triangle count separates `A_rand` from
/// `A_k`: returns `(mean_rand, mean_planted, std_rand)` over `trials`.
pub fn separation<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    trials: usize,
    rng: &mut R,
) -> (f64, f64, f64) {
    assert!(trials > 1, "need at least two trials for a variance");
    let mut rand_counts = Vec::with_capacity(trials);
    let mut planted_counts = Vec::with_capacity(trials);
    for _ in 0..trials {
        rand_counts.push(mutual_triangle_count(&DiGraph::random(rng, n)) as f64);
        let inst = bcc_graphs::planted::sample_planted(rng, n, k);
        planted_counts.push(mutual_triangle_count(&inst.graph) as f64);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let m_r = mean(&rand_counts);
    let m_p = mean(&planted_counts);
    let var = rand_counts
        .iter()
        .map(|c| (c - m_r) * (c - m_r))
        .sum::<f64>()
        / (trials - 1) as f64;
    (m_r, m_p, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn triangle_graph() -> UGraph {
        let mut g = UGraph::empty(5);
        g.set_edge(0, 1, true);
        g.set_edge(1, 2, true);
        g.set_edge(0, 2, true);
        g.set_edge(2, 3, true);
        g
    }

    #[test]
    fn counts_a_single_triangle() {
        assert_eq!(triangle_count(&triangle_graph()), 1);
    }

    #[test]
    fn complete_graph_count() {
        let mut g = UGraph::empty(6);
        for u in 0..6 {
            for v in (u + 1)..6 {
                g.set_edge(u, v, true);
            }
        }
        assert_eq!(triangle_count(&g), 20); // C(6,3)
    }

    #[test]
    fn random_count_matches_expectation() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 60;
        let trials = 40;
        let mean: f64 = (0..trials)
            .map(|_| mutual_triangle_count(&DiGraph::random(&mut rng, n)) as f64)
            .sum::<f64>()
            / trials as f64;
        let expect = expected_triangles_rand(n);
        assert!(
            (mean - expect).abs() < 0.15 * expect,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn exact_protocol_counts_and_costs_n_rounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = DiGraph::random(&mut rng, 24);
        let out = exact_count_protocol(&g);
        assert_eq!(out.count, mutual_triangle_count(&g) as f64);
        assert_eq!(out.rounds_used, 24);
    }

    #[test]
    fn sampled_protocol_is_sublinear_and_unbiased() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40;
        // A graph with many triangles: plant a big clique.
        let inst = bcc_graphs::planted::sample_planted(&mut rng, n, 20);
        let truth = mutual_triangle_count(&inst.graph) as f64;
        let samples = 4000;
        let out = sampled_count_protocol(&inst.graph, samples, &mut rng);
        assert_eq!(out.rounds_used, 2 * samples);
        assert!(
            (out.count - truth).abs() < 0.5 * truth + 50.0,
            "estimate {} vs truth {truth}",
            out.count
        );
    }

    #[test]
    fn planted_clique_boosts_triangles_by_k_choose_3() {
        let mut rng = StdRng::seed_from_u64(4);
        let (n, k) = (80usize, 30usize);
        let (m_rand, m_planted, _) = separation(n, k, 30, &mut rng);
        let boost = m_planted - m_rand;
        // The planted clique contributes ~ C(k,3) certain triangles (plus
        // mixed terms); check the right order.
        let kc3 = (k * (k - 1) * (k - 2)) as f64 / 6.0;
        assert!(boost > 0.5 * kc3, "boost {boost} vs C(k,3) = {kc3}");
    }

    #[test]
    fn small_clique_hides_in_triangle_noise() {
        // k^3 << n^{3/2}: the shift drowns in the standard deviation —
        // the §9 conjecture's quantitative face.
        let mut rng = StdRng::seed_from_u64(5);
        let (n, k) = (100usize, 4usize);
        let (m_rand, m_planted, std_rand) = separation(n, k, 30, &mut rng);
        assert!(
            (m_planted - m_rand).abs() < 2.0 * std_rand,
            "shift {} vs noise {std_rand}",
            m_planted - m_rand
        );
    }
}
