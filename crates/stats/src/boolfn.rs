//! Boolean functions as truth tables, with the function families used by
//! the paper's statistical-lemma experiments.
//!
//! The lemmas (1.8, 1.10, 4.3, 4.4) quantify over *all* functions
//! `f : {0,1}^n → {0,1}`; the experiments evaluate them on representative
//! families — majority (which witnesses the `Θ(1/√n)` tightness of
//! Lemma 1.10), thresholds, dictators, parities, ANDs and random functions.

use bcc_f2::subcube::Subcube64;
use rand::Rng;

/// A Boolean function `f : {0,1}^n → {0,1}` stored as a packed truth table,
/// for `n ≤ 25` or so (the exact-experiment regime).
///
/// # Example
///
/// ```
/// use bcc_stats::TruthTable;
///
/// let maj = TruthTable::majority(5);
/// assert!(maj.eval(0b11100));
/// assert!(!maj.eval(0b00100));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct TruthTable {
    n: u32,
    bits: Vec<u64>,
}

impl TruthTable {
    /// Builds a table by evaluating `f` on every point of `{0,1}^n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 30` (the table would not fit in memory).
    fn from_fn<F: FnMut(u64) -> bool>(n: u32, mut f: F) -> Self {
        assert!(n <= 30, "truth table too large for n = {n}");
        let size = 1usize << n;
        let mut bits = vec![0u64; size.div_ceil(64)];
        for x in 0..size as u64 {
            if f(x) {
                bits[(x / 64) as usize] |= 1 << (x % 64);
            }
        }
        TruthTable { n, bits }
    }

    /// A uniformly random function.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: u32) -> Self {
        let mut t = TruthTable::from_fn(n, |_| false);
        for w in &mut t.bits {
            *w = rng.gen();
        }
        // Mask the tail for n < 6.
        let size = 1usize << n;
        if size < 64 {
            t.bits[0] &= (1u64 << size) - 1;
        }
        t
    }

    /// Majority: 1 iff more than half the input bits are set (ties → 0).
    pub fn majority(n: u32) -> Self {
        TruthTable::from_fn(n, |x| 2 * x.count_ones() > n)
    }

    /// Threshold: 1 iff at least `t` input bits are set.
    pub fn threshold(n: u32, t: u32) -> Self {
        TruthTable::from_fn(n, move |x| x.count_ones() >= t)
    }

    /// Dictator: 1 iff bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn dictator(n: u32, i: u32) -> Self {
        assert!(i < n, "dictator index out of range");
        TruthTable::from_fn(n, move |x| (x >> i) & 1 == 1)
    }

    /// Parity of the bits selected by `mask`.
    pub fn parity(n: u32, mask: u64) -> Self {
        TruthTable::from_fn(n, move |x| (x & mask).count_ones() % 2 == 1)
    }

    /// AND of the bits selected by `mask`.
    pub fn and(n: u32, mask: u64) -> Self {
        TruthTable::from_fn(n, move |x| x & mask == mask)
    }

    /// The arity `n`.
    pub fn arity(&self) -> u32 {
        self.n
    }

    /// Evaluates the function at a packed point.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ 2^n`.
    pub fn eval(&self, x: u64) -> bool {
        assert!(x < (1u64 << self.n), "point out of domain");
        (self.bits[(x / 64) as usize] >> (x % 64)) & 1 == 1
    }

    /// `E_{x ∼ U(cube)}[f(x)]`: the mean over a uniform subcube.
    ///
    /// For Boolean `f`, `‖f(U_D) − f(U_{D'})‖` is exactly
    /// `|mean_on(D) − mean_on(D')|` (total variation of Bernoullis).
    ///
    /// # Panics
    ///
    /// Panics if the cube dimension differs from the arity.
    pub fn mean_on_subcube(&self, cube: &Subcube64) -> f64 {
        assert_eq!(cube.dimension(), self.n, "dimension mismatch");
        let mut ones = 0u64;
        for x in cube.iter() {
            if self.eval(x) {
                ones += 1;
            }
        }
        ones as f64 / cube.len() as f64
    }

    /// The mean over an explicit domain given as a sorted slice of points.
    ///
    /// Returns `None` for an empty domain (the paper defines the distance as
    /// 1 in that case; callers decide).
    pub fn mean_on_domain(&self, domain: &[u64]) -> Option<f64> {
        if domain.is_empty() {
            return None;
        }
        let ones = domain.iter().filter(|&&x| self.eval(x)).count();
        Some(ones as f64 / domain.len() as f64)
    }

    /// The global mean `E_{U_n}[f]`.
    pub fn mean(&self) -> f64 {
        let ones: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        ones as f64 / (1u64 << self.n) as f64
    }

    /// The truth table as a `0.0/1.0` vector (for [`crate::fourier`]).
    pub fn to_f64_table(&self) -> Vec<f64> {
        (0..1u64 << self.n)
            .map(|x| if self.eval(x) { 1.0 } else { 0.0 })
            .collect()
    }
}

impl std::fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TruthTable(n={}, mean={:.3})", self.n, self.mean())
    }
}

/// The named function families swept by the lemma experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Majority of all bits.
    Majority,
    /// Threshold at `⌈n/2⌉ + 1`.
    ShiftedThreshold,
    /// The first coordinate.
    Dictator,
    /// Parity of all bits.
    Parity,
    /// AND of the first three bits.
    And3,
    /// A seeded uniformly random function.
    Random(u64),
}

impl Family {
    /// All families, with a fixed seed for the random one.
    pub fn all(seed: u64) -> Vec<Family> {
        vec![
            Family::Majority,
            Family::ShiftedThreshold,
            Family::Dictator,
            Family::Parity,
            Family::And3,
            Family::Random(seed),
        ]
    }

    /// Instantiates the family at arity `n`.
    pub fn build(self, n: u32) -> TruthTable {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        match self {
            Family::Majority => TruthTable::majority(n),
            Family::ShiftedThreshold => TruthTable::threshold(n, n / 2 + 1),
            Family::Dictator => TruthTable::dictator(n, 0),
            Family::Parity => TruthTable::parity(n, (1u64 << n) - 1),
            Family::And3 => TruthTable::and(n, 0b111),
            Family::Random(seed) => TruthTable::random(&mut StdRng::seed_from_u64(seed), n),
        }
    }

    /// A short label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Family::Majority => "majority",
            Family::ShiftedThreshold => "threshold",
            Family::Dictator => "dictator",
            Family::Parity => "parity",
            Family::And3 => "and3",
            Family::Random(_) => "random",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn majority_basic() {
        let m = TruthTable::majority(3);
        assert!(!m.eval(0b000));
        assert!(!m.eval(0b001));
        assert!(m.eval(0b011));
        assert!(m.eval(0b111));
    }

    #[test]
    fn majority_even_ties_are_zero() {
        let m = TruthTable::majority(4);
        assert!(!m.eval(0b0011));
        assert!(m.eval(0b0111));
    }

    #[test]
    fn dictator_depends_on_one_bit() {
        let d = TruthTable::dictator(5, 2);
        for x in 0..32u64 {
            assert_eq!(d.eval(x), (x >> 2) & 1 == 1);
        }
    }

    #[test]
    fn parity_mean_is_half() {
        let p = TruthTable::parity(6, 0b111111);
        assert!((p.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn and_mask() {
        let a = TruthTable::and(4, 0b0101);
        assert!(a.eval(0b0101));
        assert!(a.eval(0b1111));
        assert!(!a.eval(0b0100));
    }

    #[test]
    fn mean_on_full_cube_matches_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = TruthTable::random(&mut rng, 8);
        let cube = Subcube64::new(8);
        assert!((f.mean_on_subcube(&cube) - f.mean()).abs() < 1e-12);
    }

    #[test]
    fn mean_on_subcube_matches_manual() {
        let f = TruthTable::majority(3);
        // Fix x2 = 1: points {100,101,110,111}, majority true on 3 of 4.
        let cube = Subcube64::new(3).fixed(2, true).unwrap();
        assert!((f.mean_on_subcube(&cube) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn random_mean_near_half() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = TruthTable::random(&mut rng, 12);
        assert!((f.mean() - 0.5).abs() < 0.05);
    }

    #[test]
    fn random_small_n_is_tail_masked() {
        let mut rng = StdRng::seed_from_u64(3);
        let f = TruthTable::random(&mut rng, 3);
        // mean must be computable without phantom bits
        assert!(f.mean() <= 1.0);
        let ones = (0..8u64).filter(|&x| f.eval(x)).count();
        assert!((f.mean() - ones as f64 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn mean_on_domain_counts() {
        let f = TruthTable::dictator(3, 0);
        let dom = [0u64, 1, 3, 6];
        assert!((f.mean_on_domain(&dom).unwrap() - 0.5).abs() < 1e-12);
        assert!(f.mean_on_domain(&[]).is_none());
    }

    #[test]
    fn families_build_at_multiple_arities() {
        for fam in Family::all(7) {
            for n in [4u32, 7, 10] {
                let f = fam.build(n);
                assert_eq!(f.arity(), n);
            }
        }
    }

    #[test]
    fn to_f64_table_roundtrip() {
        let f = TruthTable::majority(5);
        let t = f.to_f64_table();
        for (x, v) in t.iter().enumerate() {
            assert_eq!(*v == 1.0, f.eval(x as u64));
        }
    }
}
