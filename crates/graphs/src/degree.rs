//! Degree ranking: the `k ≳ √n` regime.
//!
//! §1.2 of the paper: "Once `k` goes substantially above `√n`, it is
//! possible to find the clique by considering the vertices with highest
//! degree" — clique members get `k − 1` guaranteed mutual edges on top of a
//! Binomial(n − k, ¼) base, so their mutual degree is shifted by ≈ `k`
//! against a `√n`-scale standard deviation. Experiment E15 sweeps `k` and
//! watches this detector's success cross over.

/// The indices of the `k` largest values (ties broken by lower index),
/// sorted ascending.
pub fn top_k_indices(values: &[usize], k: usize) -> Vec<usize> {
    assert!(k <= values.len(), "k exceeds the number of values");
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[b].cmp(&values[a]).then(a.cmp(&b)));
    let mut top: Vec<usize> = idx.into_iter().take(k).collect();
    top.sort_unstable();
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planted::sample_planted;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn top_k_picks_largest() {
        let vals = [5usize, 1, 9, 7, 3];
        assert_eq!(top_k_indices(&vals, 2), vec![2, 3]);
        assert_eq!(top_k_indices(&vals, 0), Vec::<usize>::new());
    }

    #[test]
    fn top_k_tie_break_is_deterministic() {
        let vals = [4usize, 4, 4, 4];
        assert_eq!(top_k_indices(&vals, 2), vec![0, 1]);
    }

    #[test]
    fn clique_members_have_boosted_mutual_degree() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200;
        let k = 60; // far above sqrt(n): degree detection must work
        let inst = sample_planted(&mut rng, n, k);
        let m = inst.graph.mutual_graph();
        let degs: Vec<usize> = (0..n).map(|v| m.degree(v)).collect();
        let top = top_k_indices(&degs, k);
        let hits = top.iter().filter(|v| inst.clique.contains(v)).count();
        assert!(
            hits as f64 >= 0.9 * k as f64,
            "only {hits}/{k} clique members in the top-k by degree"
        );
    }
}
