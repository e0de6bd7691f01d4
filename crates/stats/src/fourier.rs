//! Fourier analysis on the Boolean cube (§2.2 of the paper).
//!
//! For `f : {0,1}^n → ℝ` the Fourier coefficient at `S ⊆ [n]` is
//! `f̂(S) = E_{x∼U_n}[f(x)·(−1)^{Σ_{i∈S} x_i}]`, and Parseval's identity
//! states `E[f(x)²] = Σ_S f̂(S)²`. The PRG analysis (Lemma 5.2) is exactly
//! an application of Parseval to coefficients indexed by the secret vector
//! `b`; [`parseval_check`] and the tests make the identity executable.

/// The fast Walsh–Hadamard transform, in place.
///
/// On input `values[x] = f(x)` (indexed by the packed point `x`), produces
/// `values[s] = Σ_x f(x)·(−1)^{⟨s,x⟩}`. Dividing by `2^n` yields the Fourier
/// coefficients `f̂(S)`. Self-inverse up to the factor `2^n`.
///
/// # Panics
///
/// Panics if the length is not a power of two.
fn walsh_hadamard(values: &mut [f64]) {
    let n = values.len();
    assert!(n.is_power_of_two(), "length must be a power of two");
    let mut h = 1;
    while h < n {
        for chunk in values.chunks_mut(2 * h) {
            for i in 0..h {
                let (a, b) = (chunk[i], chunk[i + h]);
                chunk[i] = a + b;
                chunk[i + h] = a - b;
            }
        }
        h *= 2;
    }
}

/// All Fourier coefficients of `f : {0,1}^n → ℝ` given as a table indexed by
/// packed points; entry `S` of the result is `f̂(S)`.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fourier_coefficients(table: &[f64]) -> Vec<f64> {
    let mut v = table.to_vec();
    walsh_hadamard(&mut v);
    let scale = 1.0 / table.len() as f64;
    for x in &mut v {
        *x *= scale;
    }
    v
}

/// Parseval's identity residual: `E[f²] − Σ_S f̂(S)²` (should be ≈ 0).
pub fn parseval_check(table: &[f64]) -> f64 {
    let coeffs = fourier_coefficients(table);
    let lhs: f64 = table.iter().map(|v| v * v).sum::<f64>() / table.len() as f64;
    let rhs: f64 = coeffs.iter().map(|c| c * c).sum();
    lhs - rhs
}

/// The **Lemma 5.2 sum** for a Boolean function `f : {0,1}^{k+1} → {0,1}`
/// given as a truth table of length `2^{k+1}`:
///
/// `Σ_{b ∈ {0,1}^k} ‖f(U_{k+1}) − f(U_{[b]})‖²`,
///
/// where `U_{[b]}` is uniform on `{(x, x·b) : x ∈ {0,1}^k}`. The lemma
/// asserts this is at most `E[f] ≤ 1`; the paper proves it by identifying
/// each summand with the Fourier coefficient `f̂(S_b ∪ {k+1})`.
///
/// # Panics
///
/// Panics if the table length is not a power of two or is less than 2.
pub fn lemma_5_2_sum(table: &[f64]) -> f64 {
    let len = table.len();
    assert!(len.is_power_of_two() && len >= 2, "need a 2^{{k+1}} table");
    let k = len.trailing_zeros() - 1;
    let mean: f64 = table.iter().sum::<f64>() / len as f64;
    let mut total = 0.0;
    for b in 0..(1u64 << k) {
        // E over U_[b]: x ranges over {0,1}^k, last input bit is <x,b>.
        let mut sum = 0.0;
        for x in 0..(1u64 << k) {
            let last = (x & b).count_ones() as u64 % 2;
            let point = x | (last << k);
            sum += table[point as usize];
        }
        let mean_b = sum / (1u64 << k) as f64;
        total += (mean_b - mean) * (mean_b - mean);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A single Fourier coefficient `f̂(S)` computed directly from the
    /// definition.
    fn fourier_coefficient_naive(table: &[f64], s: u64) -> f64 {
        let n = table.len();
        assert!(n.is_power_of_two(), "length must be a power of two");
        let mut sum = 0.0;
        for (x, &fx) in table.iter().enumerate() {
            let parity = ((x as u64) & s).count_ones() % 2;
            sum += if parity == 1 { -fx } else { fx };
        }
        sum / n as f64
    }

    fn random_boolean_table(rng: &mut StdRng, n: u32) -> Vec<f64> {
        (0..1usize << n)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { 0.0 })
            .collect()
    }

    #[test]
    fn transform_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        let table = random_boolean_table(&mut rng, 6);
        let coeffs = fourier_coefficients(&table);
        for s in [0u64, 1, 5, 17, 63] {
            let naive = fourier_coefficient_naive(&table, s);
            assert!((coeffs[s as usize] - naive).abs() < 1e-12);
        }
    }

    #[test]
    fn transform_is_involution_up_to_scale() {
        let mut rng = StdRng::seed_from_u64(2);
        let table: Vec<f64> = (0..64).map(|_| rng.gen::<f64>()).collect();
        let mut twice = table.clone();
        walsh_hadamard(&mut twice);
        walsh_hadamard(&mut twice);
        for (a, b) in table.iter().zip(&twice) {
            assert!((a * 64.0 - b).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_holds() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1u32, 4, 8] {
            let table = random_boolean_table(&mut rng, n);
            assert!(parseval_check(&table).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_set_coefficient_is_mean() {
        let table = [1.0, 0.0, 0.0, 1.0];
        let coeffs = fourier_coefficients(&table);
        assert!((coeffs[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parity_has_single_coefficient() {
        // f(x) = (-1)^{x0 + x1} has f̂({0,1}) = 1 and all others 0.
        let table: Vec<f64> = (0..4u64)
            .map(|x| if x.count_ones() % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let coeffs = fourier_coefficients(&table);
        assert!((coeffs[3] - 1.0).abs() < 1e-12);
        for s in [0usize, 1, 2] {
            assert!(coeffs[s].abs() < 1e-12);
        }
    }

    #[test]
    fn lemma_5_2_bound_random_functions() {
        // Σ_b ||f(U_{k+1}) - f(U_[b])||² <= E[f].
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let table = random_boolean_table(&mut rng, 9); // k = 8
            let mean: f64 = table.iter().sum::<f64>() / table.len() as f64;
            let sum = lemma_5_2_sum(&table);
            assert!(sum <= mean + 1e-9, "Lemma 5.2 violated: {sum} > {mean}");
        }
    }

    #[test]
    fn lemma_5_2_tight_for_inner_product_indicator() {
        // f(x, y) = 1 iff y = <x, b*>: then ||f(U) - f(U_[b*])|| = 1/2 and
        // the b* term alone contributes 1/4 toward E[f] = 1/2.
        let k = 6u32;
        let bstar = 0b101101u64;
        let table: Vec<f64> = (0..1u64 << (k + 1))
            .map(|p| {
                let x = p & ((1 << k) - 1);
                let y = (p >> k) & 1;
                if (x & bstar).count_ones() as u64 % 2 == y {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let sum = lemma_5_2_sum(&table);
        assert!(sum <= 0.5 + 1e-9);
        assert!(sum >= 0.25 - 1e-9, "b* summand alone is (1/2)² = 1/4");
    }

    #[test]
    fn lemma_5_2_matches_fourier_identity() {
        // The proof identifies ||f(U)-f(U_[b])|| with f̂(S_b ∪ {k+1}); check
        // Σ_b f̂(S_b ∪ {k+1})² equals the lemma sum.
        let mut rng = StdRng::seed_from_u64(5);
        let k = 5u32;
        let table = random_boolean_table(&mut rng, k + 1);
        let coeffs = fourier_coefficients(&table);
        let via_fourier: f64 = (0..1u64 << k)
            .map(|b| {
                let s = b | (1 << k);
                coeffs[s as usize] * coeffs[s as usize]
            })
            .sum();
        let direct = lemma_5_2_sum(&table);
        assert!((via_fourier - direct).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut v = vec![0.0; 3];
        walsh_hadamard(&mut v);
    }
}
