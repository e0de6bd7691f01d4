//! Canonical `BCAST(1)` protocols for the planted-clique lower-bound
//! experiments (Theorems 1.6 and 4.1).
//!
//! The theorems quantify over *all* protocols; the exact engine computes,
//! for any *fixed* protocol, the statistical distance between its
//! transcript distributions under `A_rand` and `A_k` — which is precisely
//! the advantage of the *optimal* post-processing of that protocol's
//! transcript. The protocols here are the natural clique-hunting
//! strategies one would actually try:
//!
//! * [`degree_threshold`] — broadcast whether your out-degree is
//!   suspiciously high (the detector that *works* once `k ≫ √n`);
//! * [`row_parity`] — broadcast a parity (maximally uninformative,
//!   a calibration control);
//! * [`suspect_intersection`] — adaptive: broadcast whether you are
//!   connected to every processor that has broadcast 1 so far (a greedy
//!   distributed clique probe);
//! * [`random_mask_parity`] — a seeded random linear protocol, the
//!   "generic" protocol for average-case behaviour.

use bcc_congest::wide::WideTurnProtocol;
use bcc_congest::FnProtocol;
use bcc_core::exec::{DepthProfile, Estimator, ExactEstimator};

use crate::inputs::{clique_family, rand_input};

/// Broadcast 1 iff the row weight (out-degree) is at least `threshold`.
pub fn degree_threshold(n: u32, rounds: u32, threshold: u32) -> impl WideTurnProtocol {
    FnProtocol::new(n as usize, n, rounds * n, move |_, input, _| {
        input.count_ones() >= threshold
    })
}

/// Broadcast the parity of the row restricted to `mask` (refreshed per
/// round by rotating the mask with the turn index).
pub fn row_parity(n: u32, rounds: u32, mask: u64) -> impl WideTurnProtocol {
    FnProtocol::new(n as usize, n, rounds * n, move |_, input, tr| {
        let rotated = mask.rotate_left(tr.len() / n) & ((1u64 << n) - 1);
        (input & rotated).count_ones() % 2 == 1
    })
}

/// Adaptive greedy probe: broadcast 1 iff this processor has an out-edge
/// to *every* processor that broadcast 1 earlier in the current round.
///
/// On a planted instance, clique members reinforce each other; on a
/// random instance the set of 1-broadcasters thins out geometrically.
pub fn suspect_intersection(n: u32, rounds: u32) -> impl WideTurnProtocol {
    FnProtocol::new(n as usize, n, rounds * n, move |_, input, tr| {
        let t = tr.len();
        let round_start = t - (t % n);
        for s in round_start..t {
            let speaker = (s % n) as u64;
            if tr.message(s) == 1 && (input >> speaker) & 1 == 0 {
                return false;
            }
        }
        true
    })
}

/// A seeded random linear protocol: each (processor, turn) pair gets a
/// fixed pseudorandom mask; broadcast the parity of the row under it.
pub fn random_mask_parity(n: u32, rounds: u32, seed: u64) -> impl WideTurnProtocol {
    FnProtocol::new(n as usize, n, rounds * n, move |proc, input, tr| {
        // SplitMix64 over (seed, proc, turn) — deterministic and cheap.
        let mut z = seed
            .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(proc as u64 + 1))
            .wrapping_add(0xBF58476D1CE4E5B9u64.wrapping_mul(tr.len() as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let mask = z & ((1u64 << n) - 1);
        (input & mask).count_ones() % 2 == 1
    })
}

/// Runs the full Theorem 1.6 / 4.1 experiment for one protocol through an
/// arbitrary [`Estimator`]: the mixture `A_k = avg_C A_C` against
/// `A_rand`.
///
/// The returned [`DepthProfile`] carries the real distance (the theorem's
/// left-hand side), the progress function, and — for exact estimators —
/// the consistent-set statistics of Claim 2.
///
/// # Panics
///
/// Panics if the instance is out of the estimator's reach (for the exact
/// walk: a horizon above 25 turns, past the
/// [`bcc_core::MAX_WIDE_NODES`] node budget) or the family exceeds 5000
/// cliques.
pub fn experiment<P: WideTurnProtocol + Sync + ?Sized, E: Estimator>(
    protocol: &P,
    n: u32,
    k: usize,
    estimator: &E,
) -> DepthProfile {
    let members = clique_family(n, k);
    let baseline = rand_input(n);
    estimator.estimate_full(protocol, &members, &baseline)
}

/// [`experiment`] through the default exact estimator (the parallel exact
/// mixture walk).
///
/// # Panics
///
/// As [`experiment`].
pub fn exact_experiment<P: WideTurnProtocol + Sync + ?Sized>(
    protocol: &P,
    n: u32,
    k: usize,
) -> DepthProfile {
    experiment(protocol, n, k, &ExactEstimator::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use bcc_congest::wide::{run_wide_protocol, WideTranscript};

    #[test]
    fn degree_threshold_counts() {
        let p = degree_threshold(4, 1, 2);
        let t = WideTranscript::empty(1);
        assert_eq!(p.message(0, 0b0010, &t), 0);
        assert_eq!(p.message(0, 0b0110, &t), 1);
    }

    #[test]
    fn suspect_intersection_reacts_to_transcript() {
        let p = suspect_intersection(3, 1);
        let mut t = WideTranscript::empty(1);
        // Processor 0 says 1.
        assert_eq!(p.message(0, 0, &t), 1); // vacuous: nobody spoke yet
        t.push(1);
        // Processor 1 with no edge to 0 must say 0.
        assert_eq!(p.message(1, 0b000, &t), 0);
        // With the edge, 1.
        assert_eq!(p.message(1, 0b001, &t), 1);
    }

    #[test]
    fn suspect_intersection_full_run_on_clique() {
        // All-ones rows: everyone keeps saying 1.
        let p = suspect_intersection(3, 2);
        let inputs = [0b110u64, 0b101, 0b011]; // complete digraph rows
        let tr = run_wide_protocol(&p, &inputs);
        assert_eq!(tr.as_u64(), 0b111111);
    }

    #[test]
    fn one_round_exact_experiment_obeys_theorem_1_6() {
        let (n, k) = (8u32, 2usize);
        let bound = bounds::theorem_1_6(n as usize, k);
        for cmp in [
            exact_experiment(&degree_threshold(n, 1, 5), n, k),
            exact_experiment(&suspect_intersection(n, 1), n, k),
            exact_experiment(&random_mask_parity(n, 1, 42), n, k),
        ] {
            assert!(
                cmp.tv() <= bound,
                "distance {} above k²/√n = {bound}",
                cmp.tv()
            );
            assert!(cmp.tv() <= cmp.progress() + 1e-12);
        }
    }

    #[test]
    fn parity_protocol_is_blind_to_cliques() {
        // A parity of a row with a planted all-ones sub-pattern is still a
        // fair coin as long as the mask touches free coordinates; distance
        // should be very small.
        let cmp = exact_experiment(&row_parity(7, 1, 0b1010101), 7, 2);
        assert!(cmp.tv() < 0.05, "parity distance {}", cmp.tv());
    }

    #[test]
    fn progress_function_dominates_real_distance_everywhere() {
        let n = 7u32;
        let cmp = exact_experiment(&suspect_intersection(n, 2), n, 2);
        for t in 0..cmp.mixture_tv_by_depth.len() {
            assert!(cmp.mixture_tv_by_depth[t] <= cmp.progress_by_depth[t] + 1e-12);
        }
    }

    #[test]
    fn two_rounds_accumulate_more_distance_than_one() {
        let n = 7u32;
        let one = exact_experiment(&suspect_intersection(n, 1), n, 2);
        let two = exact_experiment(&suspect_intersection(n, 2), n, 2);
        assert!(two.tv() >= one.tv() - 1e-12);
        assert!(
            two.tv() <= bounds::theorem_4_1(n as usize, 2, 2),
            "multi-round bound violated: {}",
            two.tv()
        );
    }
}
