//! The exact transcript-distribution engine.
//!
//! For row-independent input distributions the probability of a transcript
//! prefix factorizes over processors, so a single depth-first walk of the
//! turn tree computes — *exactly* —
//!
//! * the statistical distance `‖P^{(t)}(Π, A) − P^{(t)}(Π, B)‖` at every
//!   prefix length `t` (the quantity every theorem in the paper bounds);
//! * the progress function `L_progress^{(t)} = E_I ‖P_I^{(t)} − P_rand^{(t)}‖`
//!   of the §3 framework, together with the mixture distance it dominates;
//! * the distribution of the speaker's consistent-set size `|D_p^{(t)}|`
//!   (Claims 2, 4 and 6 assert it is rarely much smaller than
//!   `2^{-j}·|support|` after `j` of the speaker's turns).
//!
//! There is one engine, over `BCAST(w)` turn protocols
//! ([`WideTurnProtocol`]); `BCAST(1)` is its width-1 case, which a bit
//! protocol ([`bcc_congest::FnProtocol`]) is. Cost is
//! `O(2^{wT} · Σ_I Σ_i |support|)` for horizon `T` — exponential by
//! nature, so exact runs are for small trees: a walk whose complete turn
//! tree could exceed [`crate::wide::MAX_WIDE_NODES`] nodes is refused up
//! front, and [`crate::sample`] covers the rest.
//!
//! # Execution strategy
//!
//! The walk keeps each processor's *consistent set* `D_p^{(t)}` as a
//! hybrid dense/sparse [`bcc_f2::ConsistentSet`] over that row's support
//! points and splits the speaker's set on the broadcast label at each
//! node, by the one split rule [`crate::walk`] describes.
//!
//! The walk itself — alive-set state, the split, the pooled
//! zero-allocation workspace, the frontier cut and the
//! in-frontier-order reduction — lives in [`crate::walk`]; the node
//! budget it is priced against lives in [`crate::wide`].
//! The walk's front door is [`crate::exec::ExactEstimator`], which runs
//! it on the current rayon pool and returns a [`DepthProfile`] tagged
//! [`Provenance::Exact`] — built by this module's `assemble`, the one
//! place a walk becomes a result. The seed implementation is retained
//! behind [`exact_mixture_comparison_reference`] as a
//! differential-testing oracle.

use bcc_congest::wide::WideTurnProtocol;

use crate::exec::{DepthProfile, Provenance};
use crate::input::ProductInput;
use crate::walk::{reference, WalkOutcome};
use crate::wide::validate_budget;

pub use crate::walk::FRACTION_THRESHOLDS;

/// Per-turn statistics of the speaker's consistent input set `D_p^{(t)}`,
/// measured under the *baseline* transcript distribution.
#[derive(Debug, Clone)]
pub struct SpeakerStats {
    /// The processor speaking at this turn.
    pub speaker: usize,
    /// `E_{p ∼ P_base^{(t)}} [ |D_p| / |support| ]` just before the turn.
    pub mean_fraction: f64,
    /// `mass_below[j] = Pr_{p ∼ P_base^{(t)}} [ |D_p|/|support| < 2^{-j} ]`.
    pub mass_below: [f64; FRACTION_THRESHOLDS],
}

/// The exact walk of a decomposition family `{A_I}` against a baseline,
/// computed by the retained **seed** walk (the crate-private
/// `walk::reference` module, which queries
/// [`WideTurnProtocol::message`] directly): per-node protocol evaluation
/// for every distribution, per-node mask allocation, no hybrid sets.
/// Results are bitwise identical to
/// [`ExactEstimator`](crate::exec::ExactEstimator)'s optimized walk.
///
/// It is public because its users live outside this crate: the oracle
/// suites `crates/core/tests/prop.rs` (optimized walk == seed walk,
/// property-tested) and `crates/core/tests/alloc.rs` (the seed walk
/// allocates per node, the optimized one does not) are integration-test
/// crates, and the hot-path benchmark `e20_walk_hot_path` times it as
/// the before-side of its `bit_walk/seed` and `wide_walk/seed` rows.
///
/// # Panics
///
/// Panics if `members` is empty, the processor counts or input widths
/// disagree with the protocol, the protocol's width is outside `1..=16`,
/// or the complete `2^w`-ary turn tree to its horizon could exceed
/// [`crate::wide::MAX_WIDE_NODES`] (`2^26`) nodes — at width 1, a
/// horizon above 25 turns.
pub fn exact_mixture_comparison_reference<P: WideTurnProtocol + Sync + ?Sized>(
    protocol: &P,
    members: &[ProductInput],
    baseline: &ProductInput,
) -> DepthProfile {
    validate_budget(protocol);
    let acc = reference::exact_walk(protocol, members, baseline);
    assemble(protocol, acc)
}

/// Packs a finished walk into an exact [`DepthProfile`]: the mixture
/// distance and the progress function by depth, the per-member
/// distances, and the speaker statistics of every turn.
pub(crate) fn assemble<P: WideTurnProtocol + ?Sized>(
    protocol: &P,
    acc: WalkOutcome,
) -> DepthProfile {
    let horizon = protocol.horizon();
    DepthProfile {
        horizon,
        mixture_tv_by_depth: acc.mixture_tv_by_depth,
        progress_by_depth: acc.progress_by_depth,
        per_member_tv: acc.per_member_tv,
        speaker_stats: (0..horizon as usize)
            .map(|t| SpeakerStats {
                speaker: protocol.speaker(t as u32),
                mean_fraction: acc.mean_fraction[t],
                mass_below: acc.mass_below[t],
            })
            .collect(),
        provenance: Provenance::Exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Estimator, ExactEstimator};
    use crate::input::RowSupport;
    use bcc_congest::FnProtocol;

    fn uniform(n: usize, bits: u32) -> ProductInput {
        ProductInput::uniform(n, bits)
    }

    #[test]
    fn input_oblivious_protocol_has_zero_distance() {
        let p = FnProtocol::new(3, 4, 6, |proc, _, tr| {
            (proc + tr.len() as usize).is_multiple_of(2)
        });
        let a = uniform(3, 4);
        let b = ProductInput::new(vec![
            RowSupport::explicit(4, vec![0]),
            RowSupport::explicit(4, vec![1, 2]),
            RowSupport::explicit(4, vec![3, 7, 11]),
        ]);
        let cmp = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &b);
        for (t, tv) in cmp.mixture_tv_by_depth.iter().enumerate() {
            assert!(tv.abs() < 1e-12, "depth {t}: tv {tv}");
        }
    }

    #[test]
    fn single_bit_reveal_matches_hand_computation() {
        // One processor broadcasts its only bit. A = uniform {0,1},
        // B = always 1. Transcript TV = 1/2.
        let p = FnProtocol::new(1, 1, 1, |_, input, _| input == 1);
        let a = uniform(1, 1);
        let b = ProductInput::new(vec![RowSupport::explicit(1, vec![1])]);
        let cmp = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &b);
        assert!((cmp.tv() - 0.5).abs() < 1e-12);
        assert!(cmp.mixture_tv_by_depth[0].abs() < 1e-12);
    }

    #[test]
    fn full_reveal_reaches_input_tv() {
        // Each of 2 processors broadcasts its 1-bit input; transcripts
        // determine inputs, so transcript TV = input TV.
        let p = FnProtocol::new(2, 1, 2, |_, input, _| input == 1);
        let a = uniform(2, 1);
        // B: both processors always broadcast equal bits (correlated is
        // impossible in ProductInput; use biased-to-1 rows instead).
        let b = ProductInput::new(vec![
            RowSupport::explicit(1, vec![1]),
            RowSupport::explicit(1, vec![0, 1]),
        ]);
        let cmp = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &b);
        // Input TV: first coordinate differs (1/2 vs 1), second identical:
        // product TV = 1/2.
        assert!((cmp.tv() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tv_by_depth_is_monotone() {
        // Prefixes are functions of longer prefixes, so TV cannot decrease.
        let p = FnProtocol::new(2, 3, 6, |proc, input, tr| {
            ((input >> (tr.len() / 2)) & 1 == 1) ^ (proc == 1 && tr.len() > 2)
        });
        let a = uniform(2, 3);
        let b = ProductInput::new(vec![
            RowSupport::explicit(3, vec![0, 3, 5]),
            RowSupport::explicit(3, vec![1, 2, 6, 7]),
        ]);
        let cmp = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &b);
        for w in cmp.mixture_tv_by_depth.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "prefix TV decreased: {w:?}");
        }
    }

    #[test]
    fn mixture_distance_below_progress() {
        // L_real <= L_progress (§3): members biased oppositely, mixture
        // closer to uniform than any member.
        let p = FnProtocol::new(1, 2, 2, |_, input, tr| (input >> tr.len()) & 1 == 1);
        let member0 = ProductInput::new(vec![RowSupport::explicit(2, vec![0, 1])]);
        let member1 = ProductInput::new(vec![RowSupport::explicit(2, vec![2, 3])]);
        let baseline = uniform(1, 2);
        let cmp = ExactEstimator.estimate(&p, &[member0, member1], &baseline);
        for t in 0..cmp.mixture_tv_by_depth.len() {
            assert!(
                cmp.mixture_tv_by_depth[t] <= cmp.progress_by_depth[t] + 1e-12,
                "depth {t}"
            );
        }
        // Here the second-bit broadcast distinguishes each member
        // perfectly but the mixture not at all.
        assert!(cmp.progress() > 0.4);
        assert!(cmp.tv() < 1e-12);
    }

    #[test]
    fn per_member_tv_matches_individual_runs() {
        let p = FnProtocol::new(2, 2, 4, |_, input, tr| (input >> (tr.len() / 2)) & 1 == 1);
        let members = vec![
            ProductInput::new(vec![
                RowSupport::explicit(2, vec![1, 3]),
                RowSupport::uniform(2),
            ]),
            ProductInput::new(vec![
                RowSupport::uniform(2),
                RowSupport::explicit(2, vec![0]),
            ]),
        ];
        let baseline = uniform(2, 2);
        let mix = ExactEstimator.estimate(&p, &members, &baseline);
        for (i, member) in members.iter().enumerate() {
            let single = ExactEstimator.estimate(&p, std::slice::from_ref(member), &baseline);
            assert!(
                (mix.per_member_tv[i] - single.tv()).abs() < 1e-12,
                "member {i}"
            );
        }
    }

    #[test]
    fn speaker_fraction_halves_per_spoken_bit() {
        // Processor 0 broadcasts a fresh uniform input bit on each of its
        // turns: before its (j+1)-th turn the consistent fraction is 2^-j.
        let p = FnProtocol::new(2, 4, 8, |_, input, tr| (input >> (tr.len() / 2)) & 1 == 1);
        let a = uniform(2, 4);
        let cmp = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &a);
        // Turns 0,2,4,6 are processor 0's; before turn 2t it has spoken t
        // bits.
        for (idx, turn) in [0usize, 2, 4, 6].iter().enumerate() {
            let s = &cmp.speaker_stats[*turn];
            assert_eq!(s.speaker, 0);
            let expected = 2f64.powi(-(idx as i32));
            assert!(
                (s.mean_fraction - expected).abs() < 1e-12,
                "turn {turn}: {} vs {expected}",
                s.mean_fraction
            );
        }
    }

    #[test]
    fn mass_below_tracks_fraction() {
        // After 2 spoken bits the fraction is exactly 1/4: strictly below
        // 2^0 and 2^-1 but not below 2^-2.
        let p = FnProtocol::new(1, 3, 3, |_, input, tr| (input >> tr.len()) & 1 == 1);
        let a = uniform(1, 3);
        let cmp = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &a);
        let s = &cmp.speaker_stats[2];
        assert!((s.mass_below[0] - 1.0).abs() < 1e-12);
        assert!((s.mass_below[1] - 1.0).abs() < 1e-12);
        assert!(s.mass_below[2].abs() < 1e-12);
    }

    #[test]
    fn disjoint_supports_distance_one_after_reveal() {
        let p = FnProtocol::new(1, 2, 2, |_, input, tr| (input >> tr.len()) & 1 == 1);
        let a = ProductInput::new(vec![RowSupport::explicit(2, vec![0, 1])]);
        let b = ProductInput::new(vec![RowSupport::explicit(2, vec![2, 3])]);
        let cmp = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &b);
        assert!((cmp.tv() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn progress_increments_are_nonnegative() {
        let p = FnProtocol::new(2, 3, 6, |_, input, tr| {
            (input.count_ones() as u64 + tr.as_u64()) % 2 == 1
        });
        let members = vec![
            ProductInput::new(vec![
                RowSupport::explicit(3, vec![0, 1, 2]),
                RowSupport::uniform(3),
            ]),
            ProductInput::new(vec![
                RowSupport::uniform(3),
                RowSupport::explicit(3, vec![5, 6]),
            ]),
        ];
        let baseline = uniform(2, 3);
        let mix = ExactEstimator.estimate(&p, &members, &baseline);
        for (t, inc) in mix.progress_increments().iter().enumerate() {
            assert!(*inc >= -1e-12, "turn {t}: negative increment {inc}");
        }
    }

    #[test]
    fn reference_oracle_returns_an_exact_profile() {
        let p = FnProtocol::new(2, 2, 4, |_, input, tr| (input >> (tr.len() / 2)) & 1 == 1);
        let a = ProductInput::new(vec![
            RowSupport::explicit(2, vec![1, 3]),
            RowSupport::uniform(2),
        ]);
        let b = uniform(2, 2);
        let seed = exact_mixture_comparison_reference(&p, std::slice::from_ref(&a), &b);
        assert!(seed.is_exact());
        assert_eq!(seed.noise_floor(), 0.0);
        assert_eq!(seed.speaker_stats.len(), 4);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn width_mismatch_panics() {
        let p = FnProtocol::new(1, 2, 1, |_, _, _| false);
        let a = uniform(1, 3);
        let b = uniform(1, 3);
        let _ = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &b);
    }
}
