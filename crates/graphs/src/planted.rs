//! Samplers for the paper's three planted-clique input distributions.
//!
//! §1.3 notation: `A_rand` is the uniform directed graph (diagonal zero),
//! `A_C` conditions on vertex set `C` being a clique, `A_k` plants a clique
//! on a uniformly random size-`k` subset. A key structural fact the whole
//! lower-bound framework rests on (§3, footnote 13): **after fixing `C`,
//! the rows of `A_C` are independent**, each uniform over a subcube. The
//! [`row_subcube`] helper exposes exactly that subcube, which is how
//! `bcc-planted` plugs these distributions into the exact engine.

use bcc_f2::subcube::Subcube64;
use rand::seq::index::sample as index_sample;
use rand::Rng;

use crate::digraph::DiGraph;

/// A sample from `A_k` together with the planted clique.
#[derive(Debug, Clone)]
pub struct PlantedInstance {
    /// The graph (random with a planted directed clique).
    pub graph: DiGraph,
    /// The clique vertices, sorted.
    pub clique: Vec<usize>,
}

/// Samples `A_rand`: a uniformly random directed graph on `n` vertices.
pub fn sample_rand<R: Rng + ?Sized>(rng: &mut R, n: usize) -> DiGraph {
    DiGraph::random(rng, n)
}

/// Samples `A_C`: uniform conditioned on `clique` being a directed clique.
///
/// # Panics
///
/// Panics if `clique` contains repeats or out-of-range vertices.
fn sample_with_clique<R: Rng + ?Sized>(rng: &mut R, n: usize, clique: &[usize]) -> DiGraph {
    let mut g = DiGraph::random(rng, n);
    g.plant_clique(clique);
    if let Some(obs) = bcc_obs::current() {
        obs.add("graphs.planted.ac_samples", 1);
        obs.add("graphs.planted.clique_vertices", clique.len() as u64);
    }
    g
}

/// Samples `A_k`: a uniformly random size-`k` clique set, then `A_C`.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_planted<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> PlantedInstance {
    let clique = sample_subset(rng, n, k);
    let graph = sample_with_clique(rng, n, &clique);
    if let Some(obs) = bcc_obs::current() {
        obs.add("graphs.planted.ak_samples", 1);
    }
    PlantedInstance { graph, clique }
}

/// Refills `rows` with `A_rand` as packed rows, bit `j` of `rows[i]`
/// the edge `i → j`, drawing from `rng` exactly as [`sample_rand`]
/// does (so the same stream gives the same graph); panics if `n > 64`.
pub fn fill_rows_rand<R: Rng + ?Sized>(rng: &mut R, n: usize, rows: &mut Vec<u64>) {
    assert!(n <= 64, "packed rows hold at most 64 vertices");
    let columns = u64::MAX.checked_shr(64 - n as u32).unwrap_or(0);
    rows.clear();
    rows.extend((0..n).map(|i| rng.gen::<u64>() & columns & !(1 << i)));
}

/// Refills `rows` with `A_k` as packed rows, drawing from `rng` exactly
/// as [`sample_planted`] does; panics if `k > n` or `n > 64`.
pub fn fill_rows_planted<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize, rows: &mut Vec<u64>) {
    let clique = sample_subset(rng, n, k);
    fill_rows_rand(rng, n, rows);
    let members: u64 = clique.iter().map(|&v| 1u64 << v).sum();
    for &v in &clique {
        rows[v] |= members & !(1 << v);
    }
}

/// A uniformly random size-`k` subset of `0..n`, sorted (the paper's
/// `S_k^{[n]}`).
pub fn sample_subset<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "subset size exceeds ground set");
    let mut s: Vec<usize> = index_sample(rng, n, k).into_iter().collect();
    s.sort_unstable();
    s
}

/// Enumerates all size-`k` subsets of `0..n` in lexicographic order — the
/// exact decomposition `A_k = avg_C A_C` for small instances.
pub fn all_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    assert!(k <= n, "subset size exceeds ground set");
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..k).collect();
    loop {
        out.push(current.clone());
        // Rightmost position that can still advance.
        let Some(i) = (0..k).rev().find(|&i| current[i] < n - k + i) else {
            return out;
        };
        current[i] += 1;
        for j in (i + 1)..k {
            current[j] = current[j - 1] + 1;
        }
    }
}

/// The support subcube of row `i` of `A_C` on `n ≤ 64` vertices.
///
/// Under `A_rand` row `i` is uniform on `{x : x_i = 0}`; under `A_C` with
/// `i ∈ C` it is additionally fixed to `x_j = 1` for `j ∈ C \ {i}`
/// (§4: the definitions of `D_t` and `D_t^C`). Pass an empty clique for
/// the `A_rand` row.
///
/// # Panics
///
/// Panics if `n > 64` or any index is out of range.
pub fn row_subcube(n: u32, i: usize, clique: &[usize]) -> Subcube64 {
    assert!((i as u32) < n, "row index out of range");
    let mut cube = Subcube64::new(n)
        .fixed(i as u32, false)
        .expect("fresh cube accepts any fix");
    if clique.contains(&i) {
        for &j in clique {
            if j != i {
                cube = cube
                    .fixed(j as u32, true)
                    .expect("distinct coordinates cannot conflict");
            }
        }
    }
    cube
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn planted_instance_contains_clique() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = sample_planted(&mut rng, 30, 6);
        assert_eq!(inst.clique.len(), 6);
        for &u in &inst.clique {
            for &v in &inst.clique {
                if u != v {
                    assert!(inst.graph.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn clique_is_uniformly_spread() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 10;
        let mut counts = vec![0usize; n];
        for _ in 0..2000 {
            let inst = sample_planted(&mut rng, n, 3);
            for &v in &inst.clique {
                counts[v] += 1;
            }
        }
        // Each vertex should appear ~600 times (2000 * 3/10).
        for &c in &counts {
            assert!((c as f64 - 600.0).abs() < 120.0, "count {c}");
        }
    }

    #[test]
    fn all_subsets_counts() {
        assert_eq!(all_subsets(5, 2).len(), 10);
        assert_eq!(all_subsets(6, 3).len(), 20);
        assert_eq!(all_subsets(4, 0), vec![Vec::<usize>::new()]);
        assert_eq!(all_subsets(4, 4).len(), 1);
    }

    #[test]
    fn all_subsets_are_sorted_and_distinct() {
        let subs = all_subsets(7, 3);
        for s in &subs {
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
        let set: std::collections::BTreeSet<_> = subs.iter().cloned().collect();
        assert_eq!(set.len(), subs.len());
    }

    #[test]
    fn row_subcube_rand_row() {
        // No clique: only x_i = 0 is fixed.
        let cube = row_subcube(6, 2, &[]);
        assert_eq!(cube.free_count(), 5);
        assert!(cube.contains(0b000000));
        assert!(!cube.contains(0b000100));
    }

    #[test]
    fn row_subcube_clique_member() {
        // i = 1 in clique {1, 3, 4}: x_1 = 0, x_3 = x_4 = 1.
        let cube = row_subcube(6, 1, &[1, 3, 4]);
        assert_eq!(cube.free_count(), 3);
        assert!(cube.contains(0b011000));
        assert!(!cube.contains(0b001000)); // x_4 = 0
        assert!(!cube.contains(0b011010)); // x_1 = 1
    }

    #[test]
    fn row_subcube_non_member_ignores_clique() {
        let cube = row_subcube(6, 0, &[1, 3]);
        assert_eq!(cube, row_subcube(6, 0, &[]));
    }

    #[test]
    fn sample_with_clique_marginals() {
        // Non-clique edges remain fair coins.
        let mut rng = StdRng::seed_from_u64(3);
        let mut present = 0usize;
        let trials = 3000;
        for _ in 0..trials {
            let g = sample_with_clique(&mut rng, 8, &[0, 1, 2]);
            if g.has_edge(5, 6) {
                present += 1;
            }
        }
        let rate = present as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn subset_sampler_size_and_range() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let s = sample_subset(&mut rng, 12, 5);
            assert_eq!(s.len(), 5);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(*s.last().unwrap() < 12);
        }
    }

    fn work_counter(snap: &bcc_obs::Snapshot, name: &str) -> u64 {
        snap.work
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    #[test]
    fn planted_samplers_count_their_draws_when_observed() {
        let registry = bcc_obs::Registry::new();
        let _scope = registry.install();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..3 {
            let _ = sample_planted(&mut rng, 16, 4);
        }
        let _ = sample_with_clique(&mut rng, 16, &[0, 1, 2, 3, 4]);
        let snap = registry.snapshot();
        // A_k draws one A_C each, so A_C counts the direct draw too.
        assert_eq!(work_counter(&snap, "graphs.planted.ak_samples"), 3);
        assert_eq!(work_counter(&snap, "graphs.planted.ac_samples"), 4);
        assert_eq!(
            work_counter(&snap, "graphs.planted.clique_vertices"),
            3 * 4 + 5
        );
        // The underlying A_rand draws surface through the digraph counter.
        assert!(work_counter(&snap, "graphs.edges_emitted") > 0);
    }

    #[test]
    fn row_fills_draw_the_samplers_graphs_from_the_same_stream() {
        let rows_of = |g: &DiGraph| -> Vec<u64> {
            (0..g.n())
                .map(|i| {
                    (0..g.n())
                        .filter(|&j| g.has_edge(i, j))
                        .map(|j| 1 << j)
                        .sum()
                })
                .collect()
        };
        let mut rows = vec![7; 3];
        for (n, k) in [(0, 0), (1, 1), (12, 4), (63, 9), (64, 64)] {
            let (mut a, mut b) = (
                StdRng::seed_from_u64(n as u64),
                StdRng::seed_from_u64(n as u64),
            );
            fill_rows_rand(&mut a, n, &mut rows);
            assert_eq!(rows, rows_of(&sample_rand(&mut b, n)), "A_rand, n = {n}");
            fill_rows_planted(&mut a, n, k, &mut rows);
            assert_eq!(
                rows,
                rows_of(&sample_planted(&mut b, n, k).graph),
                "A_k, n = {n}"
            );
            assert_eq!(
                a.gen::<u64>(),
                b.gen::<u64>(),
                "streams end together, n = {n}"
            );
        }
    }

    #[test]
    fn planted_samplers_are_silent_without_a_registry() {
        // No registry installed on this thread: sampling must neither
        // panic nor leak counters into a registry installed *afterwards*.
        let mut rng = StdRng::seed_from_u64(6);
        let _ = sample_planted(&mut rng, 16, 4);
        let registry = bcc_obs::Registry::new();
        let _scope = registry.install();
        let snap = registry.snapshot();
        assert_eq!(work_counter(&snap, "graphs.planted.ak_samples"), 0);
        assert_eq!(work_counter(&snap, "graphs.planted.ac_samples"), 0);
    }
}
