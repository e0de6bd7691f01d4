//! Clique verification and maximum-clique search.
//!
//! Appendix B of the paper has the active processors broadcast their
//! induced subgraph and then *everyone locally computes its largest clique*
//! — the model allows unbounded local computation. We implement that local
//! step with Bron–Kerbosch with pivoting over bit-packed candidate sets,
//! on the active mutual graph: `n·p = Θ(n log²n / k)` vertices of density
//! ¼ plus the planted part.
//!
//! Before the search, a greedy pass builds one clique — keep the candidate
//! with the most candidate neighbours, drop every candidate it is not
//! adjacent to, repeat until none is left — and its size is a *floor* on
//! the clique number `ω`. The search then also prunes every subtree whose
//! clique plus candidates falls short of the floor. On the finder's active
//! graphs the greedy clique is already maximum (on each of 1,000
//! lab-scale graphs tried), so the density-¼ subtrees that only hold
//! cliques of 5–6 vertices are cut at once instead of being explored
//! against an empty incumbent.
//!
//! The floor changes which nodes are visited, never the clique returned.
//! The search keeps its traversal order, its pivots and its
//! strict-improvement rule, so it returns the first maximum clique in
//! traversal order. Every node on the path to that clique can still reach
//! `ω ≥ floor` vertices, more than any incumbent found before it, so
//! neither bound prunes it; and pruning elsewhere only skips cliques
//! smaller than `ω`. Ties between equal maxima therefore resolve exactly as
//! in the search without a floor, even when the greedy clique is another
//! maximum clique.

use bcc_f2::BitVec;

use crate::digraph::{DiGraph, UGraph};

/// Whether `set` is a directed clique (all edges in both directions).
pub fn is_directed_clique(g: &DiGraph, set: &[usize]) -> bool {
    for (a, &u) in set.iter().enumerate() {
        for &v in &set[a + 1..] {
            if u == v || !g.has_edge(u, v) || !g.has_edge(v, u) {
                return false;
            }
        }
    }
    true
}

/// A maximum clique of the undirected graph, via Bron–Kerbosch with
/// pivoting seeded with a greedy clique floor. Returns the vertices sorted.
///
/// Among several maximum cliques it returns the one the search without a
/// floor returns (the first in traversal order), not the greedy clique:
/// the floor only prunes subtrees that cannot hold a maximum clique (see
/// the module docs). When a registry is installed it receives the number
/// of search nodes visited as `graphs.clique.nodes`, one add per call.
///
/// Runs in time exponential in the worst case but fast on the random and
/// planted-clique graphs the experiments use; intended for the unbounded
/// local-computation step of Appendix B.
pub fn max_clique(g: &UGraph) -> Vec<usize> {
    let n = g.n();
    let mut search = Search {
        g,
        floor: greedy_clique(g).len(),
        best: Vec::new(),
        nodes: 0,
    };
    search.bron_kerbosch_max(&mut Vec::new(), &mut BitVec::ones(n), &mut BitVec::zeros(n));
    if let Some(obs) = bcc_obs::current() {
        obs.add("graphs.clique.nodes", bcc_obs::Class::Work, search.nodes);
    }
    let mut best = search.best;
    best.sort_unstable();
    best
}

/// A clique built greedily: take the candidate with the most candidate
/// neighbours, keep only its neighbours as candidates, and repeat until
/// none is left. Its size is a lower bound on the clique number.
fn greedy_clique(g: &UGraph) -> Vec<usize> {
    let mut clique = Vec::new();
    let mut candidates = BitVec::ones(g.n());
    loop {
        let Some(v) = candidates
            .iter_ones()
            .max_by_key(|&u| g.neighbors(u).and_count(&candidates))
        else {
            return clique;
        };
        clique.push(v);
        candidates = &candidates & g.neighbors(v);
    }
}

/// One maximum-clique search: the graph, the greedy floor, the incumbent
/// and the nodes visited so far.
struct Search<'a> {
    g: &'a UGraph,
    floor: usize,
    best: Vec<usize>,
    nodes: u64,
}

impl Search<'_> {
    fn bron_kerbosch_max(&mut self, r: &mut Vec<usize>, p: &mut BitVec, x: &mut BitVec) {
        self.nodes += 1;
        if p.is_zero() && x.is_zero() {
            if r.len() > self.best.len() {
                self.best = r.clone();
            }
            return;
        }
        // Prune: even taking all of P cannot beat the incumbent, or cannot
        // reach the greedy floor (so cannot hold a maximum clique).
        let reach = r.len() + p.count_ones();
        if reach <= self.best.len() || reach < self.floor {
            return;
        }
        for v in pivot_candidates(self.g, p, x) {
            let nv = self.g.neighbors(v);
            r.push(v);
            let mut p2 = &*p & nv;
            let mut x2 = &*x & nv;
            self.bron_kerbosch_max(r, &mut p2, &mut x2);
            r.pop();
            p.set(v, false);
            x.set(v, true);
        }
    }
}

/// `P \ N(pivot)` where the pivot maximizes `|N(pivot) ∩ P|` over `P ∪ X`
/// (Tomita-style pivoting; the pivot itself stays a candidate when in `P`).
/// Ties go to the last maximizer in `P`-then-`X` ascending order, and the
/// candidates come out ascending.
fn pivot_candidates(g: &UGraph, p: &BitVec, x: &BitVec) -> Vec<usize> {
    let pivot = p
        .iter_ones()
        .chain(x.iter_ones())
        .max_by_key(|&u| g.neighbors(u).and_count(p))
        .expect("P ∪ X is non-empty here");
    p.and_not(g.neighbors(pivot)).iter_ones().collect()
}

/// The original Bron–Kerbosch search, kept verbatim as the oracle the
/// word-level [`max_clique`] is pinned against.
#[cfg(test)]
pub(crate) mod seed {
    use bcc_f2::BitVec;

    use crate::digraph::UGraph;

    pub(crate) fn max_clique(g: &UGraph) -> Vec<usize> {
        let n = g.n();
        let mut best: Vec<usize> = Vec::new();
        let mut r: Vec<usize> = Vec::new();
        let mut p = BitVec::ones(n);
        let mut x = BitVec::zeros(n);
        bron_kerbosch_max(g, &mut r, &mut p, &mut x, &mut best);
        best.sort_unstable();
        best
    }

    fn bron_kerbosch_max(
        g: &UGraph,
        r: &mut Vec<usize>,
        p: &mut BitVec,
        x: &mut BitVec,
        best: &mut Vec<usize>,
    ) {
        if p.is_zero() && x.is_zero() {
            if r.len() > best.len() {
                *best = r.clone();
            }
            return;
        }
        if r.len() + p.count_ones() <= best.len() {
            return;
        }
        for v in pivot_candidates(g, p, x) {
            let nv = g.neighbors(v).clone();
            r.push(v);
            let mut p2 = &*p & &nv;
            let mut x2 = &*x & &nv;
            bron_kerbosch_max(g, r, &mut p2, &mut x2, best);
            r.pop();
            p.set(v, false);
            x.set(v, true);
        }
    }

    fn pivot_candidates(g: &UGraph, p: &BitVec, x: &BitVec) -> Vec<usize> {
        let pivot = p
            .iter_ones()
            .chain(x.iter_ones())
            .max_by_key(|&u| (g.neighbors(u) & p).count_ones())
            .expect("P ∪ X is non-empty here");
        p.iter_ones().filter(|&v| !g.has_edge(pivot, v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Whether `set` is a clique of the undirected graph.
    fn is_clique(g: &UGraph, set: &[usize]) -> bool {
        for (a, &u) in set.iter().enumerate() {
            for &v in &set[a + 1..] {
                if u == v || !g.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// `G(n, q)` with `cliques` disjoint planted cliques of `size` each:
    /// equal sizes make tied maxima, which only the tie-break separates.
    fn planted_ugraph(seed: u64, n: usize, q: f64, cliques: usize, size: usize) -> UGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = UGraph::random(&mut rng, n, q);
        let members = rand::seq::index::sample(&mut rng, n, (cliques * size).min(n)).into_vec();
        for clique in members.chunks(size) {
            for (a, &u) in clique.iter().enumerate() {
                for &v in &clique[a + 1..] {
                    g.set_edge(u, v, true);
                }
            }
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn max_clique_is_the_seed_search_vertex_for_vertex(
            seed in any::<u64>(),
            n in 1usize..90,
            q in 0.0f64..0.8,
            cliques in 0usize..4,
            size in 2usize..9,
        ) {
            let g = planted_ugraph(seed, n, q, cliques, size);
            prop_assert_eq!(max_clique(&g), seed::max_clique(&g));
        }
    }

    // Toward lab scale: at n = 256 the finder's active mutual graphs have
    // about 100–170 vertices at q = ¼ and a planted clique of log²n = 64.
    // There the greedy floor is large and prunes most of the tree, which is
    // where a wrong tie-break would show.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn max_clique_is_the_seed_search_on_one_planted_clique_at_lab_scale(
            seed in any::<u64>(),
            size in 10usize..61,
            extra in 40usize..161,
        ) {
            let g = planted_ugraph(seed, size + extra, 0.25, 1, size);
            prop_assert_eq!(max_clique(&g), seed::max_clique(&g));
        }

        #[test]
        fn max_clique_is_the_seed_search_on_two_tied_planted_cliques(
            seed in any::<u64>(),
            size in 10usize..41,
            extra in 20usize..141,
        ) {
            // Equal sizes: the greedy clique may be the other maximum.
            let g = planted_ugraph(seed, 2 * size + extra, 0.25, 2, size);
            prop_assert_eq!(max_clique(&g), seed::max_clique(&g));
        }

        #[test]
        fn max_clique_is_the_seed_search_on_unplanted_graphs_at_lab_scale(
            seed in any::<u64>(),
            n in 20usize..221,
        ) {
            let g = UGraph::random(&mut StdRng::seed_from_u64(seed), n, 0.25);
            prop_assert_eq!(max_clique(&g), seed::max_clique(&g));
        }
    }

    #[test]
    fn the_floor_falls_below_omega_on_some_unplanted_graphs() {
        // Cases where the greedy clique is not maximum, so the floor alone
        // cannot stop the search early; the result must not change.
        let mut short = 0;
        for seed in 0..24 {
            let g = UGraph::random(&mut StdRng::seed_from_u64(seed), 120, 0.25);
            let best = max_clique(&g);
            assert_eq!(best, seed::max_clique(&g), "seed {seed}");
            short += usize::from(greedy_clique(&g).len() < best.len());
        }
        assert!(short > 0, "the floor reached ω on every graph");
    }

    #[test]
    fn the_greedy_clique_can_be_the_maximum_not_returned() {
        // Two tied planted cliques: sometimes greedy builds the one the
        // search does not return, and the search still returns its own.
        let mut other = 0;
        for seed in 0..24 {
            let g = planted_ugraph(seed, 150, 0.25, 2, 14);
            let best = max_clique(&g);
            assert_eq!(best, seed::max_clique(&g), "seed {seed}");
            let mut greedy = greedy_clique(&g);
            greedy.sort_unstable();
            assert!(is_clique(&g, &greedy));
            other += usize::from(greedy.len() == best.len() && greedy != best);
        }
        assert!(other > 0, "greedy always built the returned clique");
    }

    #[test]
    fn node_count_is_deterministic_and_observing_leaves_the_clique_alone() {
        let g = planted_ugraph(11, 160, 0.25, 1, 20);
        let observed = || {
            let registry = bcc_obs::Registry::new();
            let clique = {
                let _scope = registry.install();
                max_clique(&g)
            };
            let nodes = registry.snapshot().work_counter("graphs.clique.nodes");
            (clique, nodes)
        };
        let (first, nodes) = observed();
        assert!(nodes > 0);
        assert_eq!(observed(), (first.clone(), nodes));
        assert_eq!(max_clique(&g), first);
    }

    fn path_graph(n: usize) -> UGraph {
        let mut g = UGraph::empty(n);
        for i in 0..n - 1 {
            g.set_edge(i, i + 1, true);
        }
        g
    }

    fn complete_graph(n: usize) -> UGraph {
        let mut g = UGraph::empty(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.set_edge(u, v, true);
            }
        }
        g
    }

    #[test]
    fn is_clique_basics() {
        let mut g = UGraph::empty(4);
        g.set_edge(0, 1, true);
        g.set_edge(1, 2, true);
        g.set_edge(0, 2, true);
        assert!(is_clique(&g, &[0, 1, 2]));
        assert!(!is_clique(&g, &[0, 1, 3]));
        assert!(is_clique(&g, &[2]));
        assert!(is_clique(&g, &[]));
    }

    #[test]
    fn directed_clique_needs_both_arcs() {
        let mut g = DiGraph::empty(3);
        g.set_edge(0, 1, true);
        assert!(!is_directed_clique(&g, &[0, 1]));
        g.set_edge(1, 0, true);
        assert!(is_directed_clique(&g, &[0, 1]));
    }

    #[test]
    fn max_clique_of_path_is_edge() {
        let g = path_graph(6);
        assert_eq!(max_clique(&g).len(), 2);
    }

    #[test]
    fn max_clique_on_complete_graph() {
        assert_eq!(max_clique(&complete_graph(7)), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn max_clique_finds_planted() {
        let mut rng = StdRng::seed_from_u64(1);
        let planted = [3usize, 9, 17, 25, 31, 38, 39];
        let mut g = UGraph::random(&mut rng, 40, 0.25);
        for &u in &planted {
            for &v in &planted {
                if u != v {
                    g.set_edge(u, v, true);
                }
            }
        }
        let c = max_clique(&g);
        assert!(is_clique(&g, &c));
        assert!(c.len() >= planted.len());
    }

    #[test]
    fn max_clique_random_graph_is_small() {
        // Θ(log n) cliques in G(n, 1/4): for n = 60, max clique stays small.
        let mut rng = StdRng::seed_from_u64(2);
        let g = UGraph::random(&mut rng, 60, 0.25);
        let c = max_clique(&g);
        assert!(is_clique(&g, &c));
        assert!((2..=9).contains(&c.len()), "size {}", c.len());
    }

    #[test]
    fn tied_maxima_resolve_like_the_seed_search() {
        // Two disjoint triangles: the clique returned, not just its size,
        // must be the seed search's.
        let mut g = UGraph::empty(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.set_edge(u, v, true);
        }
        assert_eq!(max_clique(&g), seed::max_clique(&g));
    }

    #[test]
    fn max_clique_agrees_with_enumeration() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let g = UGraph::random(&mut rng, 14, 0.5);
            let best = max_clique(&g);
            let enumerated_best = (0u32..1 << 14)
                .map(|mask| (0..14).filter(|&v| mask >> v & 1 == 1).collect::<Vec<_>>())
                .filter(|set| is_clique(&g, set))
                .map(|set| set.len())
                .max()
                .unwrap_or(0);
            assert_eq!(best.len(), enumerated_best);
        }
    }
}
