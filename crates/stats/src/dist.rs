//! Finite discrete distributions and statistical (total-variation) distance.
//!
//! The paper's notation (§2.1): for distributions `D₁, D₂` on a countable
//! set, `‖D₁ − D₂‖ = ½ Σ_x |D₁(x) − D₂(x)|`. Lemma 1.9 — the chain rule the
//! whole inductive framework rests on — is implemented as
//! [`Dist::chain_rule_bound`] and verified exhaustively in the tests.

use std::collections::BTreeMap;

use rand::Rng;

/// A finite discrete distribution over values of type `T`.
///
/// Probabilities are `f64`; construction normalizes, so callers may pass
/// unnormalized non-negative weights. Zero-weight entries are dropped.
///
/// # Example
///
/// ```
/// use bcc_stats::Dist;
///
/// let d = Dist::from_weights(vec![("a", 1.0), ("b", 3.0)]);
/// assert!((d.prob(&"b") - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Dist<T: Ord> {
    // BTreeMap, not HashMap: support iteration order is part of the
    // crate's determinism contract (sampling consumes the RNG stream in
    // value order, so equal seeds give equal draws on every host).
    probs: BTreeMap<T, f64>,
}

impl<T: Ord + Clone> Dist<T> {
    /// Builds a distribution from non-negative weights, normalizing them.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or not finite, or if all weights are
    /// zero.
    pub fn from_weights<I: IntoIterator<Item = (T, f64)>>(weights: I) -> Self {
        let mut probs: BTreeMap<T, f64> = BTreeMap::new();
        let mut total = 0.0;
        for (value, w) in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and >= 0");
            if w > 0.0 {
                *probs.entry(value).or_insert(0.0) += w;
                total += w;
            }
        }
        assert!(total > 0.0, "distribution needs positive total mass");
        for p in probs.values_mut() {
            *p /= total;
        }
        Dist { probs }
    }

    /// The uniform distribution over the given values (duplicates get
    /// proportionally more mass).
    pub fn uniform<I: IntoIterator<Item = T>>(values: I) -> Self {
        Dist::from_weights(values.into_iter().map(|v| (v, 1.0)))
    }

    /// The point mass at `value`.
    pub fn point(value: T) -> Self {
        Dist::from_weights([(value, 1.0)])
    }

    /// The probability of `value` (zero if outside the support).
    pub fn prob(&self, value: &T) -> f64 {
        self.probs.get(value).copied().unwrap_or(0.0)
    }

    /// Iterates over `(value, probability)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, f64)> {
        self.probs.iter().map(|(v, &p)| (v, p))
    }

    /// Total-variation (statistical) distance `‖self − other‖ ∈ [0, 1]`.
    pub fn tv_distance(&self, other: &Dist<T>) -> f64 {
        let mut sum = 0.0;
        for (v, p) in &self.probs {
            sum += (p - other.prob(v)).abs();
        }
        for (v, q) in &other.probs {
            if !self.probs.contains_key(v) {
                sum += q;
            }
        }
        sum / 2.0
    }

    /// The mixture `λ·self + (1−λ)·other`.
    ///
    /// # Panics
    ///
    /// Panics if `λ ∉ [0, 1]`.
    pub fn mix(&self, other: &Dist<T>, lambda: f64) -> Dist<T> {
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0,1]");
        let mut weights: BTreeMap<T, f64> = BTreeMap::new();
        for (v, p) in &self.probs {
            *weights.entry(v.clone()).or_insert(0.0) += lambda * p;
        }
        for (v, q) in &other.probs {
            *weights.entry(v.clone()).or_insert(0.0) += (1.0 - lambda) * q;
        }
        Dist::from_weights(weights)
    }

    /// The image distribution `f(D)` (paper notation, §2.1).
    pub fn map<U: Ord + Clone, F: FnMut(&T) -> U>(&self, mut f: F) -> Dist<U> {
        Dist::from_weights(self.probs.iter().map(|(v, &p)| (f(v), p)))
    }

    /// Samples a value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        let mut u: f64 = rng.gen::<f64>();
        let mut last = None;
        for (v, p) in &self.probs {
            if u < *p {
                return v.clone();
            }
            u -= p;
            last = Some(v);
        }
        last.expect("non-empty distribution").clone()
    }

    /// Shannon entropy in bits.
    pub fn entropy(&self) -> f64 {
        self.probs
            .values()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.log2())
            .sum()
    }
}

impl<T: Ord + Clone> Dist<(T, T)> {
    /// The marginal on the first component (`D|_X` in Lemma 1.9).
    fn marginal_first(&self) -> Dist<T> {
        Dist::from_weights(self.iter().map(|((a, _), p)| (a.clone(), p)))
    }

    /// The conditional distribution of the second component given the first
    /// equals `a` (`D_{X=a}` in Lemma 1.9).
    ///
    /// Returns `None` if `a` has zero marginal probability (the paper sets
    /// this case to an arbitrary fixed distribution; callers decide).
    fn conditional_second(&self, a: &T) -> Option<Dist<T>> {
        let mass: f64 = self
            .iter()
            .filter(|((x, _), _)| x == a)
            .map(|(_, p)| p)
            .sum();
        if mass <= 0.0 {
            return None;
        }
        Some(Dist::from_weights(self.iter().filter_map(|((x, y), p)| {
            if x == a {
                Some((y.clone(), p))
            } else {
                None
            }
        })))
    }

    /// The right-hand side of **Lemma 1.9**:
    /// `‖D|_X − D'|_X‖ + E_{a∼D|_X} ‖D_{X=a} − D'_{X=a}‖`.
    ///
    /// The lemma asserts `‖D − D'‖` is at most this; the tests check it on
    /// random joint distributions.
    pub fn chain_rule_bound(&self, other: &Dist<(T, T)>) -> f64 {
        let mx = self.marginal_first();
        let my = other.marginal_first();
        let marginal_term = mx.tv_distance(&my);
        let mut cond_term = 0.0;
        for (a, pa) in mx.iter() {
            let ca = self
                .conditional_second(a)
                .expect("a has positive marginal mass");
            // Per the paper's footnote: if D'_{X=a} is undefined, use an
            // arbitrary fixed distribution — here, the conditional of self,
            // making the term 0, which only weakens the bound we verify.
            let cb = other.conditional_second(a).unwrap_or_else(|| ca.clone());
            cond_term += pa * ca.tv_distance(&cb);
        }
        marginal_term + cond_term
    }
}

/// Total-variation distance between two Bernoulli distributions, `|p − q|`.
///
/// For Boolean-valued `f`, `‖f(D₁) − f(D₂)‖ = |E_{D₁}[f] − E_{D₂}[f]|`
/// (used constantly in the paper, e.g. in the proof of Lemma 5.2).
///
/// # Panics
///
/// Panics if either argument is outside `[0, 1]`.
pub fn tv_bernoulli(p: f64, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    assert!((0.0..=1.0).contains(&q), "q must be a probability");
    (p - q).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_dist(rng: &mut StdRng, support: &[u32]) -> Dist<u32> {
        Dist::from_weights(support.iter().map(|&v| (v, rng.gen::<f64>() + 1e-9)))
    }

    #[test]
    fn probabilities_normalize() {
        let d = Dist::from_weights(vec![(0u8, 2.0), (1u8, 6.0)]);
        assert!((d.prob(&0) - 0.25).abs() < 1e-12);
        assert!((d.prob(&1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn duplicate_values_accumulate() {
        let d = Dist::from_weights(vec![(7u8, 1.0), (7u8, 1.0), (8u8, 2.0)]);
        assert!((d.prob(&7) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tv_distance_axioms() {
        let mut rng = StdRng::seed_from_u64(1);
        let support = [0u32, 1, 2, 3, 4];
        for _ in 0..30 {
            let a = random_dist(&mut rng, &support);
            let b = random_dist(&mut rng, &support);
            let c = random_dist(&mut rng, &support);
            let dab = a.tv_distance(&b);
            assert!((0.0..=1.0).contains(&dab));
            assert!((dab - b.tv_distance(&a)).abs() < 1e-12, "symmetry");
            assert!(a.tv_distance(&a) < 1e-12, "identity");
            assert!(
                dab <= a.tv_distance(&c) + c.tv_distance(&b) + 1e-12,
                "triangle inequality"
            );
        }
    }

    #[test]
    fn tv_distance_disjoint_supports_is_one() {
        let a = Dist::uniform([0u8, 1]);
        let b = Dist::uniform([2u8, 3]);
        assert!((a.tv_distance(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixture_interpolates_tv() {
        // ||λa + (1-λ)b - b|| = λ||a - b||
        let a = Dist::uniform([0u8]);
        let b = Dist::uniform([1u8]);
        let m = a.mix(&b, 0.3);
        assert!((m.tv_distance(&b) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn mixture_tv_bounded_by_average_tv() {
        // ||avg_I D_I - U|| <= avg_I ||D_I - U||: the framework's
        // L_real-dist <= L_progress inequality (§3).
        let mut rng = StdRng::seed_from_u64(2);
        let support = [0u32, 1, 2, 3];
        for _ in 0..20 {
            let family: Vec<Dist<u32>> = (0..5).map(|_| random_dist(&mut rng, &support)).collect();
            let target = random_dist(&mut rng, &support);
            let mixed =
                Dist::from_weights(family.iter().flat_map(|d| d.iter().map(|(&v, p)| (v, p))));
            let avg: f64 =
                family.iter().map(|d| d.tv_distance(&target)).sum::<f64>() / family.len() as f64;
            assert!(mixed.tv_distance(&target) <= avg + 1e-12);
        }
    }

    #[test]
    fn map_is_contraction() {
        // Data-processing: ||f(D1) - f(D2)|| <= ||D1 - D2||.
        let mut rng = StdRng::seed_from_u64(3);
        let support = [0u32, 1, 2, 3, 4, 5];
        for _ in 0..20 {
            let a = random_dist(&mut rng, &support);
            let b = random_dist(&mut rng, &support);
            let fa = a.map(|&x| x % 2);
            let fb = b.map(|&x| x % 2);
            assert!(fa.tv_distance(&fb) <= a.tv_distance(&b) + 1e-12);
        }
    }

    #[test]
    fn lemma_1_9_chain_rule_holds() {
        let mut rng = StdRng::seed_from_u64(4);
        let pairs: Vec<(u32, u32)> = (0..3).flat_map(|x| (0..3).map(move |y| (x, y))).collect();
        for _ in 0..50 {
            let d: Dist<(u32, u32)> =
                Dist::from_weights(pairs.iter().map(|&p| (p, rng.gen::<f64>() + 1e-9)));
            let d2: Dist<(u32, u32)> =
                Dist::from_weights(pairs.iter().map(|&p| (p, rng.gen::<f64>() + 1e-9)));
            let lhs = d.tv_distance(&d2);
            let rhs = d.chain_rule_bound(&d2);
            assert!(lhs <= rhs + 1e-9, "Lemma 1.9 violated: {lhs} > {rhs}");
        }
    }

    #[test]
    fn chain_rule_tight_for_product() {
        // For product distributions with identical second marginal, the
        // bound collapses to the first-marginal distance.
        let d: Dist<(u32, u32)> = Dist::from_weights(vec![
            ((0, 0), 0.35),
            ((0, 1), 0.35),
            ((1, 0), 0.15),
            ((1, 1), 0.15),
        ]);
        let d2: Dist<(u32, u32)> = Dist::from_weights(vec![
            ((0, 0), 0.1),
            ((0, 1), 0.1),
            ((1, 0), 0.4),
            ((1, 1), 0.4),
        ]);
        let lhs = d.tv_distance(&d2);
        let rhs = d.chain_rule_bound(&d2);
        assert!((lhs - rhs).abs() < 1e-12);
        assert!((lhs - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_probabilities() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Dist::from_weights(vec![(0u8, 1.0), (1u8, 2.0), (2u8, 1.0)]);
        let mut counts = [0usize; 3];
        let n = 20_000;
        for _ in 0..n {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        assert!((counts[1] as f64 / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn entropy_of_uniform() {
        let d = Dist::uniform(0u8..8);
        assert!((d.entropy() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_and_conditional() {
        let d: Dist<(u8, u8)> =
            Dist::from_weights(vec![((0, 0), 0.25), ((0, 1), 0.25), ((1, 0), 0.5)]);
        let m = d.marginal_first();
        assert!((m.prob(&0) - 0.5).abs() < 1e-12);
        let c0 = d.conditional_second(&0).unwrap();
        assert!((c0.prob(&0) - 0.5).abs() < 1e-12);
        let c1 = d.conditional_second(&1).unwrap();
        assert!((c1.prob(&0) - 1.0).abs() < 1e-12);
        assert!(d.conditional_second(&2).is_none());
    }

    #[test]
    fn bernoulli_tv() {
        assert!((tv_bernoulli(0.2, 0.7) - 0.5).abs() < 1e-12);
        assert_eq!(tv_bernoulli(0.5, 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive total mass")]
    fn empty_distribution_panics() {
        let _ = Dist::<u8>::from_weights(Vec::new());
    }
}
