//! Directed and undirected graphs over bit-packed adjacency matrices.

use bcc_f2::{BitMatrix, BitVec};
use rand::Rng;

/// A simple directed graph on `n` vertices with no self-loops, stored as a
/// bit-packed adjacency matrix (row `i`, bit `j` ⇔ edge `i → j`).
///
/// Row `i` is exactly the input of processor `i` in the paper's
/// distributed planted-clique problem.
///
/// # Example
///
/// ```
/// use bcc_graphs::DiGraph;
///
/// let mut g = DiGraph::empty(3);
/// g.set_edge(0, 1, true);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(1, 0));
/// assert_eq!(g.out_degree(0), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    adj: BitMatrix,
}

impl DiGraph {
    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        DiGraph {
            adj: BitMatrix::zeros(n, n),
        }
    }

    /// A uniformly random directed graph: each ordered pair an independent
    /// fair coin (`A_rand`).
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Self {
        let mut adj = BitMatrix::random(rng, n, n);
        for i in 0..n {
            adj.set(i, i, false);
        }
        let g = DiGraph { adj };
        if let Some(obs) = bcc_obs::current() {
            let edges: usize = (0..n).map(|u| g.out_degree(u)).sum();
            obs.add("graphs.edges_emitted", bcc_obs::Class::Work, edges as u64);
        }
        g
    }

    /// The number of vertices.
    pub fn n(&self) -> usize {
        self.adj.nrows()
    }

    /// Whether the edge `u → v` exists.
    ///
    /// # Panics
    ///
    /// Panics if a vertex is out of range.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj.get(u, v)
    }

    /// Adds or removes the edge `u → v`.
    ///
    /// # Panics
    ///
    /// Panics if out of range or `u == v` and `present` (self-loop).
    pub fn set_edge(&mut self, u: usize, v: usize, present: bool) {
        assert!(!(u == v && present), "self-loops are forbidden");
        self.adj.set(u, v, present);
    }

    /// Row `u` of the adjacency matrix — processor `u`'s input.
    pub fn row(&self, u: usize) -> &BitVec {
        self.adj.row(u)
    }

    /// The out-degree of `u`.
    pub fn out_degree(&self, u: usize) -> usize {
        self.adj.row(u).count_ones()
    }

    /// Forces every ordered pair within `set` to be an edge (plants a
    /// directed clique), word by word: the member mask is ORed into each
    /// member's row and the diagonal cleared again.
    ///
    /// # Panics
    ///
    /// Panics if a vertex repeats or is out of range.
    pub fn plant_clique(&mut self, set: &[usize]) {
        let mut members = BitVec::zeros(self.n());
        for &u in set {
            assert!(!members.get(u), "clique vertices must be distinct");
            members.set(u, true);
        }
        for &u in set {
            let row = self.adj.row_mut(u);
            row.or_in_place(&members);
            row.set(u, false);
        }
    }

    /// The *mutual graph*: the undirected graph with `{u,v}` iff both
    /// `u → v` and `v → u`. A set is a directed clique iff it is a clique
    /// of the mutual graph.
    pub fn mutual_graph(&self) -> UGraph {
        UGraph::mutual(&self.adj)
    }
}

/// A simple undirected graph with bit-packed symmetric adjacency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UGraph {
    adj: Vec<BitVec>,
}

impl UGraph {
    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        UGraph {
            adj: vec![BitVec::zeros(n); n],
        }
    }

    /// The mutual graph of a square adjacency matrix `A`: `{u, v}` is an
    /// edge iff `A[u][v]` and `A[v][u]` — the rows of `A ∧ Aᵀ`, computed
    /// word by word. The diagonal is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `adj` is not square.
    pub fn mutual(adj: &BitMatrix) -> Self {
        assert_eq!(adj.nrows(), adj.ncols(), "adjacency must be square");
        let mut rows: Vec<BitVec> = adj
            .iter_rows()
            .zip(adj.transpose().iter_rows())
            .map(|(row, col)| row & col)
            .collect();
        for (u, row) in rows.iter_mut().enumerate() {
            row.set(u, false);
        }
        UGraph { adj: rows }
    }

    /// A `G(n, p)` Erdős–Rényi graph.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64) -> Self {
        let mut g = UGraph::empty(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < p {
                    g.set_edge(u, v, true);
                }
            }
        }
        if let Some(obs) = bcc_obs::current() {
            obs.add(
                "graphs.edges_emitted",
                bcc_obs::Class::Work,
                g.edge_count() as u64,
            );
        }
        g
    }

    /// The number of vertices.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].get(v)
    }

    /// Adds or removes the edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics on self-loops when `present`.
    pub fn set_edge(&mut self, u: usize, v: usize, present: bool) {
        assert!(!(u == v && present), "self-loops are forbidden");
        self.adj[u].set(v, present);
        self.adj[v].set(u, present);
    }

    /// The neighbourhood of `u` as a bit vector.
    pub fn neighbors(&self, u: usize) -> &BitVec {
        &self.adj[u]
    }

    /// The degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].count_ones()
    }

    /// The number of edges.
    fn edge_count(&self) -> usize {
        self.adj.iter().map(BitVec::count_ones).sum::<usize>() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_has_no_edges() {
        let g = DiGraph::empty(5);
        for u in 0..5 {
            for v in 0..5 {
                assert!(!g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn set_and_get_directed() {
        let mut g = DiGraph::empty(4);
        g.set_edge(2, 3, true);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(3, 2));
        g.set_edge(2, 3, false);
        assert!(!g.has_edge(2, 3));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        DiGraph::empty(3).set_edge(1, 1, true);
    }

    #[test]
    fn random_has_empty_diagonal() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = DiGraph::random(&mut rng, 20);
        for i in 0..20 {
            assert!(!g.has_edge(i, i));
        }
    }

    #[test]
    fn random_edge_density_near_half() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 60;
        let g = DiGraph::random(&mut rng, n);
        let edges: usize = (0..n).map(|u| g.out_degree(u)).sum();
        let possible = n * (n - 1);
        let density = edges as f64 / possible as f64;
        assert!((density - 0.5).abs() < 0.05, "density {density}");
    }

    #[test]
    fn plant_clique_sets_both_directions() {
        let mut g = DiGraph::empty(6);
        g.plant_clique(&[1, 3, 5]);
        for &u in &[1, 3, 5] {
            for &v in &[1, 3, 5] {
                if u != v {
                    assert!(g.has_edge(u, v));
                }
            }
        }
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn plant_clique_is_the_per_pair_loop_edge_for_edge() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 63, 64, 65, 130] {
            for _ in 0..8 {
                let g = DiGraph::random(&mut rng, n);
                let k = rng.gen_range(0..=n);
                // `sample` returns the members in random order.
                let set = rand::seq::index::sample(&mut rng, n, k).into_vec();
                let mut per_pair = g.clone();
                for (a, &u) in set.iter().enumerate() {
                    for &v in &set[a + 1..] {
                        per_pair.set_edge(u, v, true);
                        per_pair.set_edge(v, u, true);
                    }
                }
                let mut planted = g;
                planted.plant_clique(&set);
                assert_eq!(planted, per_pair, "n = {n}, set = {set:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn plant_clique_rejects_a_repeated_vertex() {
        DiGraph::empty(6).plant_clique(&[1, 4, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plant_clique_rejects_an_out_of_range_vertex() {
        DiGraph::empty(6).plant_clique(&[1, 6]);
    }

    #[test]
    fn mutual_graph_requires_both_edges() {
        let mut g = DiGraph::empty(3);
        g.set_edge(0, 1, true);
        g.set_edge(1, 0, true);
        g.set_edge(1, 2, true);
        let m = g.mutual_graph();
        assert!(m.has_edge(0, 1));
        assert!(!m.has_edge(1, 2));
    }

    #[test]
    fn mutual_graph_matches_the_pairwise_definition() {
        let mut rng = StdRng::seed_from_u64(6);
        for n in [1usize, 2, 63, 64, 65, 130] {
            let g = DiGraph::random(&mut rng, n);
            let m = g.mutual_graph();
            for u in 0..n {
                for v in 0..n {
                    let both = u != v && g.has_edge(u, v) && g.has_edge(v, u);
                    assert_eq!(m.has_edge(u, v), both, "{{{u},{v}}} of n = {n}");
                }
            }
        }
    }

    #[test]
    fn mutual_graph_density_near_quarter() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 80;
        let g = DiGraph::random(&mut rng, n).mutual_graph();
        let density = g.edge_count() as f64 / (n * (n - 1) / 2) as f64;
        assert!((density - 0.25).abs() < 0.05, "density {density}");
    }

    #[test]
    fn ugraph_symmetry_and_counts() {
        let mut g = UGraph::empty(4);
        g.set_edge(0, 2, true);
        g.set_edge(2, 3, true);
        assert!(g.has_edge(2, 0));
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn generators_count_emitted_edges_when_observed() {
        let registry = bcc_obs::Registry::new();
        let (di_edges, u_edges) = {
            let _scope = registry.install();
            let mut rng = StdRng::seed_from_u64(9);
            let g = DiGraph::random(&mut rng, 24);
            let u = UGraph::random(&mut rng, 24, 0.4);
            (
                (0..24).map(|v| g.out_degree(v)).sum::<usize>(),
                u.edge_count(),
            )
        };
        let counted = registry
            .snapshot()
            .work
            .iter()
            .find(|(name, _)| name == "graphs.edges_emitted")
            .map(|(_, v)| *v);
        assert_eq!(counted, Some((di_edges + u_edges) as u64));
        // Unobserved generation counts nothing (and costs nothing).
        let mut rng = StdRng::seed_from_u64(9);
        let _ = DiGraph::random(&mut rng, 24);
        assert_eq!(
            registry
                .snapshot()
                .work
                .iter()
                .find(|(name, _)| name == "graphs.edges_emitted")
                .map(|(_, v)| *v),
            counted
        );
    }

    #[test]
    fn gnp_density() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = UGraph::random(&mut rng, 70, 0.3);
        let density = g.edge_count() as f64 / (70.0 * 69.0 / 2.0);
        assert!((density - 0.3).abs() < 0.06);
    }
}
