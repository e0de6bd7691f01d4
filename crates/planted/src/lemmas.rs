//! The statistical inequalities behind the lower bound, evaluated exactly.
//!
//! The paper quantifies over all Boolean functions; these harnesses
//! evaluate the left-hand sides *exactly* (full enumeration) for concrete
//! functions, so experiments can confront measured values with the bounds:
//!
//! * **Lemma 1.10** — `E_{i←[n]} ‖f(U) − f(U^{[i]})‖ ≤ O(1/√n)`;
//!   majority witnesses tightness `Θ(1/√n)`.
//! * **Lemma 1.8** — `E_{C∼S_k} ‖f(U) − f(U^C)‖ ≤ O(k/√n)`.
//! * **Lemma 4.4** — the same with the uniform distribution restricted to
//!   an arbitrary large domain `D`, paying `√(t/n)` for `|D| = 2^{n−t}`.
//! * **Lemma 4.3** — the clique version on a restricted domain.
//!
//! Per the paper's convention (Lemma 4.3), the distance is 1 when the
//! restricted support is empty.

use bcc_f2::subcube::Subcube64;
use bcc_graphs::planted::{all_subsets, sample_subset};
use bcc_stats::TruthTable;
use rand::Rng;

/// **Lemma 1.10** left-hand side, exactly:
/// `E_{i←[n]} | E_{U}[f] − E_{U^{[i]}}[f] |`.
pub fn lemma_1_10_mean(f: &TruthTable) -> f64 {
    let n = f.arity();
    let base = f.mean();
    let mut total = 0.0;
    for i in 0..n {
        let cube = Subcube64::new(n).fixed(i, true).expect("fresh fix");
        total += (f.mean_on_subcube(&cube) - base).abs();
    }
    total / n as f64
}

/// **Lemma 1.8** left-hand side, exactly (all `binomial(n,k)` cliques):
/// `E_{C∼S_k^{[n]}} | E_U[f] − E_{U^C}[f] |`.
///
/// # Panics
///
/// Panics if the number of subsets exceeds 50 000.
pub fn lemma_1_8_exact(f: &TruthTable, k: usize) -> f64 {
    let n = f.arity();
    let subsets = all_subsets(n as usize, k);
    assert!(subsets.len() <= 50_000, "too many cliques; sample instead");
    let base = f.mean();
    let total: f64 = subsets
        .iter()
        .map(|c| (f.mean_on_subcube(&ones_cube(n, c)) - base).abs())
        .sum();
    total / subsets.len() as f64
}

/// **Lemma 4.4** left-hand side, exactly, on a restricted domain `D`
/// (points as packed `n`-bit values):
/// `E_{i←[n]} ‖f(U_D) − f(U_D^{[i]})‖`, distance 1 on empty restriction.
///
/// # Panics
///
/// Panics if `D` is empty.
pub fn lemma_4_4_mean(f: &TruthTable, domain: &[u64]) -> f64 {
    let n = f.arity();
    let base = f.mean_on_domain(domain).expect("domain must be non-empty");
    let mut total = 0.0;
    for i in 0..n {
        let restricted: Vec<u64> = domain
            .iter()
            .copied()
            .filter(|&x| (x >> i) & 1 == 1)
            .collect();
        total += match f.mean_on_domain(&restricted) {
            Some(m) => (m - base).abs(),
            None => 1.0,
        };
    }
    total / n as f64
}

/// **Lemma 4.3** left-hand side estimated over `samples` random cliques on
/// a restricted domain: `E_{C∼S_k} ‖f(U_D) − f(U_D^C)‖`.
pub fn lemma_4_3_sampled<R: Rng + ?Sized>(
    f: &TruthTable,
    domain: &[u64],
    k: usize,
    samples: usize,
    rng: &mut R,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let n = f.arity();
    let base = f.mean_on_domain(domain).expect("domain must be non-empty");
    let total: f64 = (0..samples)
        .map(|_| {
            let c = sample_subset(rng, n as usize, k);
            let mask: u64 = c.iter().map(|&i| 1u64 << i).sum();
            let restricted: Vec<u64> = domain
                .iter()
                .copied()
                .filter(|&x| x & mask == mask)
                .collect();
            match f.mean_on_domain(&restricted) {
                Some(m) => (m - base).abs(),
                None => 1.0,
            }
        })
        .sum();
    total / samples as f64
}

/// A uniformly random domain `D ⊆ {0,1}^n` of size `2^{n−t}` (sampling
/// without replacement), sorted.
///
/// # Panics
///
/// Panics if `t ≥ n` or `n > 25`.
pub fn random_domain<R: Rng + ?Sized>(n: u32, t: u32, rng: &mut R) -> Vec<u64> {
    assert!(t < n, "domain would be a single point or empty");
    assert!(n <= 25, "domain too large to materialize");
    let size = 1usize << (n - t);
    let mut all: Vec<u64> = (0..(1u64 << n)).collect();
    // Partial Fisher-Yates: shuffle the first `size` slots.
    for i in 0..size {
        let j = rng.gen_range(i..all.len());
        all.swap(i, j);
    }
    let mut d = all[..size].to_vec();
    d.sort_unstable();
    d
}

fn ones_cube(n: u32, set: &[usize]) -> Subcube64 {
    let mut cube = Subcube64::new(n);
    for &i in set {
        cube = cube.fixed(i as u32, true).expect("distinct coordinates");
    }
    cube
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lemma_1_10_dictator_value() {
        // Dictator on bit 0: only i = 0 contributes, with distance 1/2.
        let n = 9u32;
        let f = TruthTable::dictator(n, 0);
        let got = lemma_1_10_mean(&f);
        assert!((got - 0.5 / n as f64).abs() < 1e-12);
    }

    #[test]
    fn lemma_1_10_parity_is_zero() {
        // Fixing one bit of a full parity leaves the output uniform.
        let f = TruthTable::parity(10, (1 << 10) - 1);
        assert!(lemma_1_10_mean(&f) < 1e-12);
    }

    #[test]
    fn lemma_1_10_bound_holds_for_families() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [7u32, 11, 15] {
            for f in [
                TruthTable::majority(n),
                TruthTable::threshold(n, n / 2 + 2),
                TruthTable::and(n, 0b111),
                TruthTable::random(&mut rng, n),
            ] {
                let got = lemma_1_10_mean(&f);
                let bound = bounds::lemma_1_10(n as usize);
                assert!(got <= bound, "n={n}: {got} > {bound}");
            }
        }
    }

    #[test]
    fn majority_witnesses_theta_one_over_sqrt_n() {
        // Majority's value times sqrt(n) stays within a constant band —
        // the lemma is tight.
        for n in [9u32, 15, 21] {
            let f = TruthTable::majority(n);
            let scaled = lemma_1_10_mean(&f) * (n as f64).sqrt();
            assert!((0.3..1.2).contains(&scaled), "n={n}: scaled value {scaled}");
        }
    }

    #[test]
    fn lemma_1_8_linear_in_k() {
        let n = 13u32;
        let f = TruthTable::majority(n);
        let v1 = lemma_1_8_exact(&f, 1);
        let v3 = lemma_1_8_exact(&f, 3);
        // Grows with k, roughly linearly (within a factor 2 band).
        assert!(v3 > 1.9 * v1, "v1={v1}, v3={v3}");
        assert!(v3 < 4.5 * v1, "v1={v1}, v3={v3}");
        assert!(v3 <= bounds::lemma_1_8(n as usize, 3));
    }

    #[test]
    fn lemma_4_4_full_domain_reduces_to_1_10() {
        let f = TruthTable::majority(9);
        let full: Vec<u64> = (0..512).collect();
        assert!((lemma_4_4_mean(&f, &full) - lemma_1_10_mean(&f)).abs() < 1e-12);
    }

    #[test]
    fn lemma_4_4_bound_on_random_domains() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 14u32;
        for t in [1u32, 3, 5] {
            let domain = random_domain(n, t, &mut rng);
            for f in [TruthTable::majority(n), TruthTable::random(&mut rng, n)] {
                let got = lemma_4_4_mean(&f, &domain);
                let bound = bounds::lemma_4_4(n as usize, t as usize);
                assert!(got <= bound, "n={n}, t={t}: {got} > {bound}");
            }
        }
    }

    #[test]
    fn lemma_4_4_grows_with_restriction() {
        // Averaged over random domains, smaller D means (weakly) larger
        // deviation.
        let mut rng = StdRng::seed_from_u64(4);
        let n = 12u32;
        let f = TruthTable::majority(n);
        let avg_at = |t: u32, rng: &mut StdRng| -> f64 {
            (0..40)
                .map(|_| lemma_4_4_mean(&f, &random_domain(n, t, rng)))
                .sum::<f64>()
                / 40.0
        };
        let small_t = avg_at(1, &mut rng);
        let large_t = avg_at(7, &mut rng);
        assert!(
            large_t >= small_t - 0.005,
            "restriction should not shrink the deviation: {small_t} -> {large_t}"
        );
    }

    #[test]
    fn lemma_4_3_sampled_within_bound() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 14u32;
        let t = 3u32;
        let domain = random_domain(n, t, &mut rng);
        let f = TruthTable::majority(n);
        let got = lemma_4_3_sampled(&f, &domain, 2, 500, &mut rng);
        // Lemma 4.3: O(k sqrt(t/n)); generous constant 4.
        let bound = 4.0 * 2.0 * ((t as f64) / (n as f64)).sqrt();
        assert!(got <= bound, "{got} > {bound}");
    }

    #[test]
    fn random_domain_size_and_sortedness() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = random_domain(10, 3, &mut rng);
        assert_eq!(d.len(), 128);
        assert!(d.windows(2).all(|w| w[0] < w[1]));
    }
}
