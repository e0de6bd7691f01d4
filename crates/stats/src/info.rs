//! Information theory: entropy, mutual information, KL divergence,
//! Pinsker's inequality, and the paper's Fact 2.3.
//!
//! These are the tools behind Lemma 1.10 and Lemma 4.4 of the paper: a
//! sub-additivity argument bounds `Σ_i I(X_i; f(X))`, Pinsker converts KL
//! divergence to statistical distance, and Fact 2.3 relates binary entropy
//! to bias.

use crate::dist::Dist;

/// Binary entropy `H(p) = −p log₂ p − (1−p) log₂(1−p)`, with `H(0)=H(1)=0`.
///
/// # Panics
///
/// Panics if `p ∉ [0, 1]`.
pub fn binary_entropy(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let term = |x: f64| if x <= 0.0 { 0.0 } else { -x * x.log2() };
    term(p) + term(1.0 - p)
}

/// **Fact 2.3** of the paper: if `H(p) ≥ 0.9` then `p ∈ [0.3, 0.7]` and
/// `(1 − H(p)) / (p − 1/2)² ∈ [2, 3]`.
///
/// Returns the ratio `(1 − H(p)) / (p − 1/2)²` (or `None` at `p = 1/2`,
/// where it degenerates to `0/0`; the limit is `2/ln 2 ≈ 2.885`).
pub fn fact_2_3_ratio(p: f64) -> Option<f64> {
    let gap = p - 0.5;
    if gap.abs() < 1e-12 {
        return None;
    }
    Some((1.0 - binary_entropy(p)) / (gap * gap))
}

/// KL divergence `D(P‖Q) = Σ P(x) log₂ (P(x)/Q(x))` in bits.
///
/// Returns `f64::INFINITY` if `P` puts mass where `Q` does not.
pub fn kl_divergence<T: Ord + Clone>(p: &Dist<T>, q: &Dist<T>) -> f64 {
    let mut sum = 0.0;
    for (v, pp) in p.iter() {
        let qq = q.prob(v);
        if qq <= 0.0 {
            return f64::INFINITY;
        }
        sum += pp * (pp / qq).log2();
    }
    sum.max(0.0)
}

/// **Pinsker's inequality** (the paper's Lemma 2.2, bits version):
/// `‖P − Q‖ ≤ sqrt(½ · D(P‖Q))` with `D` in *nats*; with `D` in bits the
/// bound is `sqrt(ln 2 / 2 · D)`.
///
/// Returns the right-hand side for the given KL divergence in bits.
pub fn pinsker_bound(kl_bits: f64) -> f64 {
    (std::f64::consts::LN_2 / 2.0 * kl_bits).sqrt()
}

/// A finite joint distribution over pairs, with entropy / information
/// helpers used by the Lemma 4.4 reproduction.
#[derive(Debug, Clone)]
pub struct Joint<A: Ord + Clone, B: Ord + Clone> {
    dist: Dist<(A, B)>,
}

impl<A: Ord + Clone, B: Ord + Clone> Joint<A, B> {
    /// Builds a joint distribution from weights on pairs.
    pub fn from_weights<I: IntoIterator<Item = ((A, B), f64)>>(weights: I) -> Self {
        Joint {
            dist: Dist::from_weights(weights),
        }
    }

    /// The marginal entropy `H(A)`.
    fn entropy_first(&self) -> f64 {
        self.marginal_first().entropy()
    }

    /// The marginal entropy `H(B)`.
    fn entropy_second(&self) -> f64 {
        self.marginal_second().entropy()
    }

    /// The joint entropy `H(A, B)`.
    fn entropy_joint(&self) -> f64 {
        self.dist.entropy()
    }

    /// The mutual information `I(A; B) = H(A) + H(B) − H(A,B)` in bits.
    pub fn mutual_information(&self) -> f64 {
        (self.entropy_first() + self.entropy_second() - self.entropy_joint()).max(0.0)
    }

    /// The marginal distribution of the first component.
    fn marginal_first(&self) -> Dist<A> {
        Dist::from_weights(self.dist.iter().map(|((a, _), p)| (a.clone(), p)))
    }

    /// The marginal distribution of the second component.
    fn marginal_second(&self) -> Dist<B> {
        Dist::from_weights(self.dist.iter().map(|((_, b), p)| (b.clone(), p)))
    }

    /// The conditional distribution of the second component given the first.
    fn conditional_second(&self, a: &A) -> Option<Dist<B>> {
        let entries: Vec<(B, f64)> = self
            .dist
            .iter()
            .filter(|((x, _), _)| x == a)
            .map(|((_, y), p)| (y.clone(), p))
            .collect();
        if entries.is_empty() {
            None
        } else {
            Some(Dist::from_weights(entries))
        }
    }

    /// **Fact 2.1** of the paper: `I(X;Y) = E_{x∼X} D(Y|X=x ‖ Y)`.
    ///
    /// Computes the right-hand side; the tests confirm it equals
    /// [`Joint::mutual_information`].
    pub fn mutual_information_via_kl(&self) -> f64 {
        let mx = self.marginal_first();
        let my = self.marginal_second();
        let mut sum = 0.0;
        for (a, pa) in mx.iter() {
            let cond = self
                .conditional_second(a)
                .expect("support value has positive mass");
            sum += pa * kl_divergence(&cond, &my);
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn binary_entropy_endpoints() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn binary_entropy_symmetric() {
        for p in [0.1, 0.25, 0.4] {
            assert!((binary_entropy(p) - binary_entropy(1.0 - p)).abs() < 1e-12);
        }
    }

    #[test]
    fn fact_2_3_holds_on_grid() {
        // The paper's Fact 2.3, checked on a fine grid of the H(p) >= 0.9
        // region.
        let mut checked = 0;
        for i in 0..=10_000 {
            let p = i as f64 / 10_000.0;
            if binary_entropy(p) >= 0.9 {
                assert!(
                    (0.3..=0.7).contains(&p),
                    "H({p}) >= 0.9 must imply p in [0.3, 0.7]"
                );
                if let Some(r) = fact_2_3_ratio(p) {
                    assert!((2.0..=3.0).contains(&r), "ratio {r} at p={p}");
                }
                checked += 1;
            }
        }
        assert!(checked > 1000);
    }

    #[test]
    fn kl_nonnegative_and_zero_iff_equal() {
        let p = Dist::from_weights(vec![(0u8, 0.3), (1u8, 0.7)]);
        let q = Dist::from_weights(vec![(0u8, 0.6), (1u8, 0.4)]);
        assert!(kl_divergence(&p, &q) > 0.0);
        assert!(kl_divergence(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn kl_infinite_outside_support() {
        let p = Dist::uniform([0u8, 1]);
        let q = Dist::point(0u8);
        assert_eq!(kl_divergence(&p, &q), f64::INFINITY);
    }

    #[test]
    fn pinsker_inequality_random_pairs() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = Dist::from_weights(vec![
                (0u8, rng.gen::<f64>() + 1e-6),
                (1u8, rng.gen::<f64>() + 1e-6),
                (2u8, rng.gen::<f64>() + 1e-6),
            ]);
            let q = Dist::from_weights(vec![
                (0u8, rng.gen::<f64>() + 1e-6),
                (1u8, rng.gen::<f64>() + 1e-6),
                (2u8, rng.gen::<f64>() + 1e-6),
            ]);
            let tv = p.tv_distance(&q);
            let bound = pinsker_bound(kl_divergence(&p, &q));
            assert!(tv <= bound + 1e-9, "Pinsker violated: {tv} > {bound}");
        }
    }

    #[test]
    fn mutual_information_of_independent_is_zero() {
        let joint = Joint::from_weights(vec![
            ((0u8, 0u8), 0.25),
            ((0, 1), 0.25),
            ((1, 0), 0.25),
            ((1, 1), 0.25),
        ]);
        assert!(joint.mutual_information() < 1e-12);
    }

    #[test]
    fn mutual_information_of_copy_is_entropy() {
        let joint = Joint::from_weights(vec![((0u8, 0u8), 0.5), ((1, 1), 0.5)]);
        assert!((joint.mutual_information() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fact_2_1_kl_form_matches() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let joint = Joint::from_weights(
                (0..3u8)
                    .flat_map(|a| (0..3u8).map(move |b| (a, b)))
                    .map(|p| (p, rng.gen::<f64>() + 1e-9))
                    .collect::<Vec<_>>(),
            );
            let direct = joint.mutual_information();
            let via_kl = joint.mutual_information_via_kl();
            assert!(
                (direct - via_kl).abs() < 1e-9,
                "Fact 2.1: {direct} vs {via_kl}"
            );
        }
    }

    #[test]
    fn subadditivity_of_entropy() {
        // H(A,B) <= H(A) + H(B) — used repeatedly in §4.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let joint = Joint::from_weights(
                (0..4u8)
                    .flat_map(|a| (0..4u8).map(move |b| (a, b)))
                    .map(|p| (p, rng.gen::<f64>() + 1e-9))
                    .collect::<Vec<_>>(),
            );
            assert!(joint.entropy_joint() <= joint.entropy_first() + joint.entropy_second() + 1e-9);
        }
    }
}
