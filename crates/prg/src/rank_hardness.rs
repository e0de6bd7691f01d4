//! The first average-case lower bound for `BCAST(1)` (Theorem 1.4).
//!
//! Distribute a uniform matrix `M ∈ {0,1}^{n×n}` row-per-processor and ask
//! whether it has full rank. A uniform matrix is full rank with probability
//! `→ Q₀ ≈ 0.2888`, yet the toy PRG's joint output — each row
//! `(xᵢ, ⟨xᵢ, b⟩)` with a shared secret `b` — always has rank `≤ n − 1`
//! while being indistinguishable from uniform to `n/20`-round protocols
//! (Theorem 5.3 with `k = n − 1`). The paper's counting argument then
//! shows no `n/20`-round protocol computes the indicator with probability
//! `0.99` on uniform inputs; [`theorem_1_4_error_bound`] is that argument
//! as a function, and the samplers below feed the measured side.

use bcc_f2::rank_dist::{full_rank_probability, limit_q};
use bcc_f2::{gauss, BitMatrix, BitVec};
use rand::Rng;

/// Samples the pseudo distribution `U_B` of Theorem 1.4: row `i` is
/// `(xᵢ, ⟨xᵢ, b⟩)` for private uniform `xᵢ ∈ {0,1}^{n−1}` and one shared
/// uniform `b ∈ {0,1}^{n−1}`. The resulting matrix always has rank
/// `≤ n − 1`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn sample_pseudo_matrix<R: Rng + ?Sized>(rng: &mut R, n: usize) -> BitMatrix {
    assert!(n >= 2, "need n >= 2");
    let b = BitVec::random(rng, n - 1);
    let rows = (0..n)
        .map(|_| {
            let x = BitVec::random(rng, n - 1);
            let y = x.dot(&b);
            x.concat(&BitVec::from_bools(&[y]))
        })
        .collect();
    BitMatrix::from_rows(rows, n)
}

/// The indicator `F_full-rank` of the theorem.
fn full_rank_indicator(m: &BitMatrix) -> bool {
    gauss::is_full_rank(m)
}

/// The accuracy of the best *input-oblivious* strategy (always answer
/// "not full rank"): `1 − Pr[rank = n] → 1 − Q₀ ≈ 0.711`.
///
/// This is the benchmark the theorem's 0.99 sits far above: a protocol
/// must genuinely communicate to beat it, and the theorem says `n/20`
/// rounds of communication do not suffice.
pub fn constant_guess_accuracy(n: usize) -> f64 {
    1.0 - full_rank_probability(n)
}

/// **Theorem 1.4's counting argument** as a function. Given
///
/// * `eps` — the assumed error bound of the protocol on uniform inputs
///   (the theorem contradicts `eps = 0.01`);
/// * `distance` — the transcript statistical distance between uniform and
///   pseudo inputs (exponentially small by Theorem 5.3; `o(1)` suffices);
/// * `n` — the matrix dimension,
///
/// returns the implied lower bound on the protocol's error probability on
/// uniform inputs. If the returned value exceeds `eps`, the assumption is
/// contradicted — no such protocol exists.
///
/// Mirrors the final chain of §6.1: with probability
/// `≥ Q₀ + Q₁ + Q₂ − small` the pseudo matrix's first `n − 1` columns have
/// rank ≥ n − 3, making the likelihood ratio `U_A(M)/U_B(M) ≥ 1/8`; every
/// pseudo matrix is rank deficient, so the protocol is wrong on the
/// `(≈ Q₀)`-mass of accept-answers it must keep giving.
pub fn theorem_1_4_error_bound(eps: f64, distance: f64, n: usize) -> f64 {
    let q0 = limit_q(0);
    // Pr over U_B that the first n-1 columns have rank >= n-3: at least
    // Q_0 + Q_1 + Q_2 (minus finite-size slack already inside `distance`
    // at the scales we run).
    let mass_high_rank: f64 = (0..3).map(limit_q).sum();
    let wrong_mass = 1.0 - q0 - eps - distance - (1.0 - mass_high_rank);
    (wrong_mass / 8.0).max(0.0) * if n >= 2 { 1.0 } else { 0.0 }
}

/// Measured acceptance statistics of a Boolean matrix test under the two
/// distributions — the experimental side of the theorem.
#[derive(Debug, Clone, Copy)]
pub struct TestProfile {
    /// Acceptance rate on uniform matrices.
    pub accept_uniform: f64,
    /// Acceptance rate on pseudo (rank-deficient) matrices.
    pub accept_pseudo: f64,
    /// Accuracy against `F_full-rank` on uniform matrices.
    pub accuracy_uniform: f64,
}

/// Profiles an arbitrary matrix test against the two distributions.
pub fn profile_test<R, F>(n: usize, trials: usize, test: F, rng: &mut R) -> TestProfile
where
    R: Rng + ?Sized,
    F: Fn(&BitMatrix) -> bool,
{
    assert!(trials > 0, "need at least one trial");
    let mut acc_u = 0usize;
    let mut acc_p = 0usize;
    let mut correct = 0usize;
    for _ in 0..trials {
        let u = BitMatrix::random(rng, n, n);
        let pu = test(&u);
        if pu {
            acc_u += 1;
        }
        if pu == full_rank_indicator(&u) {
            correct += 1;
        }
        let p = sample_pseudo_matrix(rng, n);
        if test(&p) {
            acc_p += 1;
        }
    }
    TestProfile {
        accept_uniform: acc_u as f64 / trials as f64,
        accept_pseudo: acc_p as f64 / trials as f64,
        accuracy_uniform: correct as f64 / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pseudo_matrices_are_never_full_rank() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [4usize, 8, 16, 32] {
            for _ in 0..20 {
                let m = sample_pseudo_matrix(&mut rng, n);
                assert!(gauss::rank(&m) < n);
                assert!(!full_rank_indicator(&m));
            }
        }
    }

    #[test]
    fn uniform_full_rank_rate_near_q0() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 24;
        let trials = 2000;
        let full = (0..trials)
            .filter(|_| full_rank_indicator(&BitMatrix::random(&mut rng, n, n)))
            .count();
        let rate = full as f64 / trials as f64;
        assert!((rate - limit_q(0)).abs() < 0.04, "rate {rate}");
    }

    #[test]
    fn pseudo_rank_profile_matches_column_argument() {
        // §6.1: with probability ~ Q_0 + Q_1 + Q_2 the first n-1 columns
        // of the pseudo matrix have rank >= n-3.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20;
        let trials = 1500;
        let mut high = 0;
        for _ in 0..trials {
            let m = sample_pseudo_matrix(&mut rng, n);
            let first_cols =
                BitMatrix::from_rows((0..n).map(|i| m.row(i).slice(0, n - 1)).collect(), n - 1);
            if gauss::rank(&first_cols) >= n - 3 {
                high += 1;
            }
        }
        let mass: f64 = (0..3).map(limit_q).sum();
        let rate = high as f64 / trials as f64;
        assert!(rate >= mass - 0.05, "rate {rate} vs theory {mass}");
    }

    #[test]
    fn counting_argument_contradicts_99_percent() {
        // eps = 0.01, distance o(1): the implied error bound exceeds eps —
        // the paper's ">" at the end of the proof (they derive > 0.05).
        let bound = theorem_1_4_error_bound(0.01, 0.001, 64);
        assert!(bound > 0.05, "bound {bound}");
        assert!(bound > 0.01, "contradiction with the assumed error");
    }

    #[test]
    fn counting_argument_degrades_gracefully() {
        // With large distance (weak PRG) no contradiction follows.
        let bound = theorem_1_4_error_bound(0.01, 0.9, 64);
        assert_eq!(bound, 0.0);
    }

    #[test]
    fn constant_guess_accuracy_value() {
        // ≈ 1 - 0.2888 = 0.7112 for large n.
        let acc = constant_guess_accuracy(40);
        assert!((acc - (1.0 - limit_q(0))).abs() < 1e-9);
        assert!(acc < 0.99, "the theorem's bar is above the trivial bound");
    }

    #[test]
    fn rank_test_itself_separates_distributions() {
        // The (unbounded-round) rank test tells them apart with advantage
        // ~ Q_0/2 — there is genuine signal, it just needs rounds.
        let mut rng = StdRng::seed_from_u64(4);
        let profile = profile_test(16, 1500, full_rank_indicator, &mut rng);
        assert_eq!(profile.accept_pseudo, 0.0);
        assert!((profile.accept_uniform - limit_q(0)).abs() < 0.05);
        assert!((profile.accuracy_uniform - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oblivious_tests_cannot_separate() {
        // A test that ignores rank structure: parity of all entries.
        let mut rng = StdRng::seed_from_u64(5);
        let profile = profile_test(
            16,
            2000,
            |m| m.iter_rows().map(|r| r.count_ones()).sum::<usize>() % 2 == 0,
            &mut rng,
        );
        assert!(
            (profile.accept_uniform - profile.accept_pseudo).abs() < 0.05,
            "oblivious test should not separate: {} vs {}",
            profile.accept_uniform,
            profile.accept_pseudo
        );
        assert!(profile.accuracy_uniform < 0.75);
    }
}
