//! Good–Turing smoothing for plug-in total-variation estimates.
//!
//! The plug-in TV between two empirical histograms is biased **upward**
//! by exactly the mass sitting in combined singletons: a transcript key
//! drawn once across both sides contributes its full empirical weight to
//! `|p̂ - q̂|` even when the true distributions overlap there. Good–Turing
//! theory identifies the singleton fraction `n₁/N` with the unseen
//! (missing) probability mass, so subtracting the singleton weight from
//! the plug-in distance removes that bias — the *smoothed* estimator.
//! On a fully resolved support (`n₁ = 0`) the two estimators coincide;
//! on a saturated support (every key a singleton) the plug-in estimate
//! pins near 1 regardless of the true distance while the smoothed one
//! collapses toward the honest answer "nothing was resolved".
//!
//! The functions here are pure arithmetic on counts — the per-depth
//! singleton counting lives with the sorted-key walks in `bcc-core`,
//! which tags each profile with the [`TvEstimator`] that produced it.

/// Which estimator produced a TV figure — recorded in provenance so a
/// smoothed profile can never be mistaken for a plug-in one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TvEstimator {
    /// The raw empirical-histogram distance.
    PlugIn,
    /// The Good–Turing corrected distance ([`smoothed_tv`]).
    Smoothed,
}

/// The exact plug-in inflation contributed by combined singletons: a key
/// seen once in side `a` (and never in `b`) adds `w_a / 2 = 1/(2·len_a)`
/// to the plug-in TV, and symmetrically for `b`. Subtracting this is the
/// smoothing correction.
pub fn singleton_correction(
    singletons_a: usize,
    len_a: usize,
    singletons_b: usize,
    len_b: usize,
) -> f64 {
    let mass = |n1: usize, len: usize| {
        if len == 0 {
            0.0
        } else {
            n1 as f64 / len as f64
        }
    };
    0.5 * (mass(singletons_a, len_a) + mass(singletons_b, len_b))
}

/// The smoothed TV: plug-in minus the singleton correction, floored at 0
/// (TV is nonnegative; over-correction on tiny samples must not go
/// negative).
pub fn smoothed_tv(plugin_tv: f64, correction: f64) -> f64 {
    (plugin_tv - correction).max(0.0)
}

/// The smoothed estimator's noise scale: the multinomial fluctuation of
/// the *resolved* support (keys seen at least twice, `support - n₁`)
/// plus the correction itself as slack for its own estimation error.
/// Clamped to 1 — TV is bounded, and so is any honest floor on it.
///
/// This is never larger than necessary by construction, but callers
/// should still take the min against the plug-in floor: on a support
/// that is saturated *and* skewed the two scales can cross.
pub fn smoothed_floor(resolved_support: usize, samples_per_side: usize, correction: f64) -> f64 {
    if samples_per_side == 0 {
        return f64::INFINITY;
    }
    ((resolved_support as f64 / samples_per_side as f64).sqrt() + correction).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_is_half_the_singleton_weight_per_side() {
        // 10 singletons of weight 1/100 on one side, none on the other.
        assert_eq!(singleton_correction(10, 100, 0, 50), 0.05);
        // Both sides contribute independently at their own weights.
        let c = singleton_correction(10, 100, 5, 50);
        assert!((c - 0.1).abs() < 1e-15);
        assert_eq!(singleton_correction(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn smoothed_tv_subtracts_and_floors_at_zero() {
        assert_eq!(smoothed_tv(0.8, 0.3), 0.5);
        assert_eq!(smoothed_tv(0.2, 0.5), 0.0, "over-correction floors");
    }

    #[test]
    fn fully_saturated_supports_smooth_to_zero() {
        // Every key a singleton on both equal-length sides: plug-in TV is
        // 1 whatever the true distance; the correction is exactly 1.
        let n = 1 << 10;
        let correction = singleton_correction(n, n, n, n);
        assert_eq!(correction, 1.0);
        assert_eq!(smoothed_tv(1.0, correction), 0.0);
    }

    #[test]
    fn smoothed_floor_tracks_the_resolved_support() {
        // Fully resolved: the floor is the plain sampling scale.
        assert_eq!(smoothed_floor(64, 1 << 12, 0.0), (64f64 / 4096.0).sqrt());
        // Saturated: nothing resolved, the floor is the correction alone.
        assert_eq!(smoothed_floor(0, 1 << 12, 0.75), 0.75);
        // Clamped to the TV bound.
        assert_eq!(smoothed_floor(1 << 20, 4, 1.0), 1.0);
        assert_eq!(smoothed_floor(1, 0, 0.0), f64::INFINITY);
    }
}
