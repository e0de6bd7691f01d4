//! Empirical estimation with explicit confidence bounds.
//!
//! The exact transcript engine covers small instances; everything larger is
//! estimated by sampling. Every estimate carries a Hoeffding confidence
//! radius so experiment tables can print `value ± ci`.

use std::collections::BTreeMap;

/// A running mean of a `[0, 1]`-bounded statistic with Hoeffding bounds.
///
/// # Example
///
/// ```
/// use bcc_stats::sampling::MeanEstimator;
///
/// let mut est = MeanEstimator::new();
/// for i in 0..1000 { est.push(f64::from(i % 2 == 0)); }
/// assert!((est.mean() - 0.5).abs() < 1e-9);
/// assert!(est.hoeffding_radius(0.01) < 0.06);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MeanEstimator {
    sum: f64,
    count: usize,
}

impl MeanEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        MeanEstimator::default()
    }

    /// Adds an observation in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the observation is outside `[0, 1]` (Hoeffding's bound
    /// assumes bounded observations).
    pub fn push(&mut self, x: f64) {
        assert!((0.0..=1.0).contains(&x), "observation must be in [0,1]");
        self.sum += x;
        self.count += 1;
    }

    /// The sample mean.
    ///
    /// # Panics
    ///
    /// Panics if no observations were pushed.
    pub fn mean(&self) -> f64 {
        assert!(self.count > 0, "mean of zero observations");
        self.sum / self.count as f64
    }

    /// Radius `r` such that `|mean − E| ≤ r` with probability `≥ 1 − delta`
    /// by Hoeffding's inequality: `r = sqrt(ln(2/δ) / (2·count))`.
    ///
    /// # Panics
    ///
    /// Panics if `delta ∉ (0, 1)` or no observations were pushed.
    pub fn hoeffding_radius(&self, delta: f64) -> f64 {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        assert!(self.count > 0, "radius of zero observations");
        ((2.0 / delta).ln() / (2.0 * self.count as f64)).sqrt()
    }
}

/// Counts occurrences of each value.
pub fn histogram<T: Ord + Clone, I: IntoIterator<Item = T>>(samples: I) -> BTreeMap<T, usize> {
    let mut h = BTreeMap::new();
    for s in samples {
        *h.entry(s).or_insert(0) += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn mean_estimator_basic() {
        let mut e = MeanEstimator::new();
        e.push(0.0);
        e.push(1.0);
        assert!((e.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hoeffding_radius_shrinks() {
        let mut e = MeanEstimator::new();
        for _ in 0..100 {
            e.push(0.5);
        }
        let r100 = e.hoeffding_radius(0.05);
        for _ in 0..900 {
            e.push(0.5);
        }
        let r1000 = e.hoeffding_radius(0.05);
        assert!(r1000 < r100);
        assert!((r100 / r1000 - (10f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn hoeffding_radius_is_valid_bound() {
        // Empirical coverage check: the true mean is inside mean ± r at
        // least 1 - delta of the time.
        let mut rng = StdRng::seed_from_u64(1);
        let mut covered = 0;
        let trials = 200;
        for _ in 0..trials {
            let mut e = MeanEstimator::new();
            for _ in 0..200 {
                e.push(f64::from(rng.gen::<f64>() < 0.3));
            }
            let r = e.hoeffding_radius(0.05);
            if (e.mean() - 0.3).abs() <= r {
                covered += 1;
            }
        }
        assert!(covered as f64 / trials as f64 >= 0.95);
    }

    #[test]
    fn histogram_counts() {
        let h = histogram(vec![1u8, 1, 2]);
        assert_eq!(h[&1], 2);
        assert_eq!(h[&2], 1);
    }
}
