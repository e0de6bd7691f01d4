//! Property-based tests for the exact engine: its outputs must satisfy the
//! structural identities the paper's framework relies on, for *arbitrary*
//! protocols and input families.

use bcc_congest::wide::FnWideProtocol;
use bcc_congest::FnProtocol;
use bcc_core::exec::{AdaptiveEstimator, Estimator, ExactEstimator};
use bcc_core::{
    exact_mixture_comparison_reference, DepthProfile, ExecMode, ProductInput, RowSupport,
};
use proptest::prelude::*;

mod common;
use common::fixed_budget;

/// Asserts two exact-walk results are **bitwise** identical — every f64
/// of the profile, the per-member distances and the speaker statistics.
fn assert_mixture_bitwise_eq(a: &DepthProfile, b: &DepthProfile, what: &str) {
    assert_eq!(a.horizon, b.horizon, "{what}: horizon");
    for t in 0..a.mixture_tv_by_depth.len() {
        assert_eq!(
            a.mixture_tv_by_depth[t].to_bits(),
            b.mixture_tv_by_depth[t].to_bits(),
            "{what}: mixture tv differs at depth {t}"
        );
        assert_eq!(
            a.progress_by_depth[t].to_bits(),
            b.progress_by_depth[t].to_bits(),
            "{what}: progress differs at depth {t}"
        );
    }
    for i in 0..a.per_member_tv.len() {
        assert_eq!(
            a.per_member_tv[i].to_bits(),
            b.per_member_tv[i].to_bits(),
            "{what}: member {i} differs"
        );
    }
    assert_eq!(a.speaker_stats.len(), b.speaker_stats.len());
    for t in 0..a.speaker_stats.len() {
        assert_eq!(a.speaker_stats[t].speaker, b.speaker_stats[t].speaker);
        assert_eq!(
            a.speaker_stats[t].mean_fraction.to_bits(),
            b.speaker_stats[t].mean_fraction.to_bits(),
            "{what}: speaker fraction differs at turn {t}"
        );
        for j in 0..a.speaker_stats[t].mass_below.len() {
            assert_eq!(
                a.speaker_stats[t].mass_below[j].to_bits(),
                b.speaker_stats[t].mass_below[j].to_bits(),
                "{what}: mass_below[{j}] differs at turn {t}"
            );
        }
    }
}

/// The seeded pseudo-random decision every test protocol shares: one bit per
/// `(proc, input, transcript length, packed transcript)` query.
///
/// A [`bcc_congest::FnProtocol`] and a width-1 [`FnWideProtocol`] both read
/// a [`bcc_congest::wide::WideTranscript`] that packs turn `t` at bit `t`,
/// so feeding this function from either protocol drives *identical* walks
/// — which is what lets the width-1 bit-vs-wide property below demand
/// bitwise equality, not mere closeness.
fn decision_bit(seed: u64, proc: usize, input: u64, len: u32, packed: u64) -> bool {
    let mut z = seed
        .wrapping_add(input.wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add((proc as u64) << 24)
        .wrapping_add(u64::from(len) << 48)
        .wrapping_add(packed.wrapping_mul(0xBF58476D1CE4E5B9));
    z ^= z >> 29;
    z = z.wrapping_mul(0x94D049BB133111EB);
    (z >> 33) & 1 == 1
}

/// An arbitrary deterministic protocol seeded by `seed`.
fn protocol(
    n: usize,
    bits: u32,
    horizon: u32,
    seed: u64,
) -> FnProtocol<impl Fn(usize, u64, &bcc_congest::wide::WideTranscript) -> bool> {
    FnProtocol::new(n, bits, horizon, move |proc, input, tr| {
        decision_bit(seed, proc, input, tr.len(), tr.as_u64())
    })
}

/// An arbitrary deterministic `BCAST(w)` protocol seeded by `seed`: each
/// message bit is an independent [`decision_bit`] query.
fn wide_protocol(
    n: usize,
    bits: u32,
    width: u32,
    horizon: u32,
    seed: u64,
) -> FnWideProtocol<impl Fn(usize, u64, &bcc_congest::wide::WideTranscript) -> u64> {
    FnWideProtocol::new(n, bits, width, horizon, move |proc, input, tr| {
        let mut message = 0u64;
        for b in 0..width {
            if decision_bit(
                seed ^ (u64::from(b) << 17),
                proc,
                input,
                tr.len(),
                tr.as_u64(),
            ) {
                message |= 1 << b;
            }
        }
        message
    })
}

fn arb_support(bits: u32) -> impl Strategy<Value = RowSupport> {
    let size = 1u64 << bits;
    proptest::collection::btree_set(0..size, 1..=size as usize)
        .prop_map(move |set| RowSupport::explicit(bits, set.into_iter().collect()))
}

fn arb_input(n: usize, bits: u32) -> impl Strategy<Value = ProductInput> {
    proptest::collection::vec(arb_support(bits), n).prop_map(ProductInput::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tv_is_symmetric_and_bounded(
        a in arb_input(2, 3),
        b in arb_input(2, 3),
        seed in any::<u64>(),
    ) {
        let p = protocol(2, 3, 6, seed);
        let ab = ExactEstimator::default().estimate_pair(&p, &a, &b);
        let ba = ExactEstimator::default().estimate_pair(&p, &b, &a);
        prop_assert!((ab.tv() - ba.tv()).abs() < 1e-12);
        for t in 0..ab.mixture_tv_by_depth.len() {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&ab.mixture_tv_by_depth[t]));
        }
    }

    #[test]
    fn identical_inputs_have_zero_distance(a in arb_input(2, 3), seed in any::<u64>()) {
        let p = protocol(2, 3, 6, seed);
        let cmp = ExactEstimator::default().estimate_pair(&p, &a, &a);
        prop_assert!(cmp.tv() < 1e-12);
    }

    #[test]
    fn prefix_tv_is_monotone(a in arb_input(2, 3), b in arb_input(2, 3), seed in any::<u64>()) {
        // Longer transcripts can only reveal more (data processing in
        // reverse): prefix TV is nondecreasing in t.
        let p = protocol(2, 3, 8, seed);
        let cmp = ExactEstimator::default().estimate_pair(&p, &a, &b);
        for w in cmp.mixture_tv_by_depth.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12, "prefix TV decreased: {w:?}");
        }
    }

    #[test]
    fn mixture_below_progress_and_members(
        a in arb_input(2, 3),
        b in arb_input(2, 3),
        base in arb_input(2, 3),
        seed in any::<u64>(),
    ) {
        // The §3 inequality chain: L_real <= L_progress = avg of member
        // distances <= max member distance.
        let p = protocol(2, 3, 6, seed);
        let members = vec![a.clone(), b.clone()];
        let mix = ExactEstimator::default().estimate_full(&p, &members, &base);
        for t in 0..mix.mixture_tv_by_depth.len() {
            prop_assert!(mix.mixture_tv_by_depth[t] <= mix.progress_by_depth[t] + 1e-12);
        }
        let avg = (mix.per_member_tv[0] + mix.per_member_tv[1]) / 2.0;
        prop_assert!((mix.progress() - avg).abs() < 1e-12);
        // Per-member results agree with standalone walks.
        let solo_a = ExactEstimator::default().estimate_pair(&p, &a, &base).tv();
        prop_assert!((mix.per_member_tv[0] - solo_a).abs() < 1e-12);
    }

    #[test]
    fn progress_increments_nonnegative(
        a in arb_input(2, 3),
        base in arb_input(2, 3),
        seed in any::<u64>(),
    ) {
        let p = protocol(2, 3, 8, seed);
        let mix = ExactEstimator::default().estimate_full(&p, &[a], &base);
        for inc in mix.progress_increments() {
            prop_assert!(inc >= -1e-12);
        }
    }

    #[test]
    fn speaker_fraction_starts_at_one_and_never_grows_in_expectation(
        a in arb_input(2, 4),
        seed in any::<u64>(),
    ) {
        // Under baseline = a itself, processor 0's expected consistent
        // fraction is nonincreasing over its own turns.
        let p = protocol(2, 4, 8, seed);
        let cmp = ExactEstimator::default().estimate_pair(&p, &a, &a);
        let own_turns: Vec<f64> = cmp
            .speaker_stats
            .iter()
            .filter(|s| s.speaker == 0)
            .map(|s| s.mean_fraction)
            .collect();
        prop_assert!((own_turns[0] - 1.0).abs() < 1e-12);
        for w in own_turns.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn sampled_estimate_brackets_exact(
        a in arb_input(2, 3),
        b in arb_input(2, 3),
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let p = protocol(2, 3, 4, seed);
        let exact = ExactEstimator::default().estimate_pair(&p, &a, &b).tv();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let sampled = bcc_core::sampled_comparison_with(
            &p,
            |r, v| a.sample_into(r, v),
            |r, v| b.sample_into(r, v),
            20_000,
            &mut rng,
        );
        prop_assert!(
            (sampled.tv() - exact).abs() <= sampled.noise_floor() + 0.05,
            "sampled {} vs exact {exact} (floor {})",
            sampled.tv(),
            sampled.noise_floor()
        );
    }

    #[test]
    fn estimator_backends_agree_within_noise_floor(
        a in arb_input(2, 3),
        b in arb_input(2, 3),
        base in arb_input(2, 3),
        seed in any::<u64>(),
    ) {
        // The unified-backend contract: on any small random protocol and
        // family, the sampled estimator's TV lands within its own noise
        // floor (plus Hoeffding slack) of the exact estimator's TV.
        let p = protocol(2, 3, 6, seed);
        let members = vec![a, b];
        let exact = ExactEstimator::default().estimate_full(&p, &members, &base);
        let sampled = fixed_budget(20_000, seed).estimate_full(&p, &members, &base);
        prop_assert!(
            (sampled.tv() - exact.tv()).abs() <= sampled.noise_floor() + 0.05,
            "sampled {} vs exact {} (floor {})",
            sampled.tv(),
            exact.tv(),
            sampled.noise_floor()
        );
        // The whole profile stays close, not just the endpoint.
        for t in 0..exact.mixture_tv_by_depth.len() {
            prop_assert!(
                (sampled.mixture_tv_by_depth[t] - exact.mixture_tv_by_depth[t]).abs()
                    <= sampled.noise_floor() + 0.05,
                "depth {t}"
            );
        }
        prop_assert!((sampled.progress() - exact.progress()).abs() <= sampled.noise_floor() + 0.05);
    }

    #[test]
    fn parallel_sampler_is_bitwise_deterministic(
        base in arb_input(2, 3),
        seed in any::<u64>(),
    ) {
        // The sampler's analogue of the exact-walk property below: with
        // every side on its own derived ChaCha stream, fanning family
        // members out over rayon must be bitwise identical to the forced
        // single-thread run — profile, members, provenance and all.
        let p = protocol(2, 3, 8, seed);
        let members: Vec<ProductInput> = (0..6u64)
            .map(|i| {
                let points: Vec<u64> = (0..8).filter(|x| (x ^ i) % 3 != 0).collect();
                ProductInput::new(vec![
                    RowSupport::explicit(3, points),
                    RowSupport::uniform(3),
                ])
            })
            .collect();
        let est = fixed_budget(2_000, seed);
        let par = est.estimate_full(&p, &members, &base);
        let seq = AdaptiveEstimator { mode: ExecMode::Sequential, ..est }
            .estimate_full(&p, &members, &base);
        for t in 0..par.mixture_tv_by_depth.len() {
            prop_assert_eq!(
                par.mixture_tv_by_depth[t].to_bits(),
                seq.mixture_tv_by_depth[t].to_bits(),
                "mixture tv differs at depth {}", t
            );
            prop_assert_eq!(
                par.progress_by_depth[t].to_bits(),
                seq.progress_by_depth[t].to_bits(),
                "progress differs at depth {}", t
            );
        }
        for i in 0..par.per_member_tv.len() {
            prop_assert_eq!(
                par.per_member_tv[i].to_bits(),
                seq.per_member_tv[i].to_bits(),
                "member {} differs", i
            );
        }
        prop_assert_eq!(par.provenance, seq.provenance);
    }

    #[test]
    fn adaptive_estimator_meets_tolerance_or_cap(
        a in arb_input(2, 3),
        b in arb_input(2, 3),
        base in arb_input(2, 3),
        seed in any::<u64>(),
    ) {
        use bcc_core::exec::AdaptiveEstimator;
        let p = protocol(2, 3, 6, seed);
        let members = vec![a, b];
        let est = AdaptiveEstimator::new(0.25, 64, 1 << 16, seed);
        let (profile, report) = est.estimate_with_report(&p, &members, &base, 6);
        prop_assert!(report.samples_per_side <= 1 << 16);
        if report.met_tolerance {
            prop_assert!(profile.noise_floor() <= 0.25);
        } else {
            prop_assert_eq!(report.samples_per_side, 1 << 16);
        }
        // Deterministic under the fixed seed.
        let (again, report_again) = est.estimate_with_report(&p, &members, &base, 6);
        prop_assert_eq!(report, report_again);
        prop_assert_eq!(profile.tv().to_bits(), again.tv().to_bits());
    }

    #[test]
    fn wide_parallel_walk_is_bitwise_deterministic(
        base in arb_input(2, 4),
        seed in any::<u64>(),
    ) {
        // The width-2 analogue of the width-1 property below: a
        // width-2, 8-turn walk cuts its frontier at depth 3 (SPLIT_DEPTH
        // / w), so subtree tasks genuinely fan out, and the parallel run
        // must be bitwise identical to the forced single-thread run.
        let p = wide_protocol(2, 4, 2, 8, seed);
        let members: Vec<ProductInput> = (0..6u64)
            .map(|i| {
                let lo: Vec<u64> = (0..16).filter(|x| (x ^ i) % 3 != 0).collect();
                ProductInput::new(vec![
                    RowSupport::explicit(4, lo),
                    RowSupport::uniform(4),
                ])
            })
            .collect();
        let par = ExactEstimator::parallel().estimate_full(&p, &members, &base);
        let seq = ExactEstimator::sequential().estimate_full(&p, &members, &base);
        for t in 0..par.mixture_tv_by_depth.len() {
            prop_assert_eq!(
                par.mixture_tv_by_depth[t].to_bits(),
                seq.mixture_tv_by_depth[t].to_bits(),
                "mixture tv differs at depth {}", t
            );
            prop_assert_eq!(
                par.progress_by_depth[t].to_bits(),
                seq.progress_by_depth[t].to_bits(),
                "progress differs at depth {}", t
            );
        }
        for i in 0..par.per_member_tv.len() {
            prop_assert_eq!(
                par.per_member_tv[i].to_bits(),
                seq.per_member_tv[i].to_bits(),
                "member {} differs", i
            );
        }
        for t in 0..par.speaker_stats.len() {
            prop_assert_eq!(
                par.speaker_stats[t].mean_fraction.to_bits(),
                seq.speaker_stats[t].mean_fraction.to_bits(),
                "speaker fraction differs at turn {}", t
            );
        }
    }

    #[test]
    fn width_one_wide_walk_is_bitwise_the_bit_engine(
        a in arb_input(2, 3),
        b in arb_input(2, 3),
        base in arb_input(2, 3),
        seed in any::<u64>(),
    ) {
        // A bit protocol and the same decision function written as an
        // FnWideProtocol at w = 1 read the same transcripts, so they must
        // walk to the same profile bit for bit, depth by depth — not just
        // within tolerance.
        let bitp = protocol(2, 3, 8, seed);
        let widep = FnWideProtocol::new(2, 3, 1, 8, move |proc, input, tr| {
            u64::from(decision_bit(seed, proc, input, tr.len(), tr.as_u64()))
        });
        let members = vec![a, b];
        let bit = ExactEstimator::default().estimate_full(&bitp, &members, &base);
        let wide = ExactEstimator::parallel().estimate_full(&widep, &members, &base);
        prop_assert_eq!(bit.horizon, wide.horizon);
        for t in 0..bit.mixture_tv_by_depth.len() {
            prop_assert_eq!(
                bit.mixture_tv_by_depth[t].to_bits(),
                wide.mixture_tv_by_depth[t].to_bits(),
                "mixture tv differs at depth {}", t
            );
            prop_assert_eq!(
                bit.progress_by_depth[t].to_bits(),
                wide.progress_by_depth[t].to_bits(),
                "progress differs at depth {}", t
            );
        }
        for i in 0..bit.per_member_tv.len() {
            prop_assert_eq!(
                bit.per_member_tv[i].to_bits(),
                wide.per_member_tv[i].to_bits(),
                "member {} differs", i
            );
        }
        for t in 0..bit.speaker_stats.len() {
            prop_assert_eq!(
                bit.speaker_stats[t].mean_fraction.to_bits(),
                wide.speaker_stats[t].mean_fraction.to_bits(),
                "speaker fraction differs at turn {}", t
            );
            for j in 0..bit.speaker_stats[t].mass_below.len() {
                prop_assert_eq!(
                    bit.speaker_stats[t].mass_below[j].to_bits(),
                    wide.speaker_stats[t].mass_below[j].to_bits(),
                    "mass_below[{}] differs at turn {}", j, t
                );
            }
        }
    }

    #[test]
    fn parallel_walk_is_bitwise_deterministic(
        base in arb_input(2, 4),
        seed in any::<u64>(),
    ) {
        // An 8-member family over a 12-turn horizon: deep enough that the
        // walk actually fans subtree tasks out over rayon. The parallel
        // run must be bitwise identical to the forced single-thread run.
        let p = protocol(2, 4, 12, seed);
        let members: Vec<ProductInput> = (0..8u64)
            .map(|i| {
                let lo: Vec<u64> = (0..16).filter(|x| (x ^ i) % 3 != 0).collect();
                ProductInput::new(vec![
                    RowSupport::explicit(4, lo),
                    RowSupport::uniform(4),
                ])
            })
            .collect();
        let par = ExactEstimator::parallel().estimate_full(&p, &members, &base);
        let seq = ExactEstimator::sequential().estimate_full(&p, &members, &base);
        for t in 0..par.mixture_tv_by_depth.len() {
            prop_assert_eq!(
                par.mixture_tv_by_depth[t].to_bits(),
                seq.mixture_tv_by_depth[t].to_bits(),
                "mixture tv differs at depth {}", t
            );
            prop_assert_eq!(
                par.progress_by_depth[t].to_bits(),
                seq.progress_by_depth[t].to_bits(),
                "progress differs at depth {}", t
            );
        }
        for i in 0..par.per_member_tv.len() {
            prop_assert_eq!(
                par.per_member_tv[i].to_bits(),
                seq.per_member_tv[i].to_bits(),
                "member {} differs", i
            );
        }
        for t in 0..par.speaker_stats.len() {
            prop_assert_eq!(
                par.speaker_stats[t].mean_fraction.to_bits(),
                seq.speaker_stats[t].mean_fraction.to_bits(),
                "speaker fraction differs at turn {}", t
            );
            for j in 0..par.speaker_stats[t].mass_below.len() {
                prop_assert_eq!(
                    par.speaker_stats[t].mass_below[j].to_bits(),
                    seq.speaker_stats[t].mass_below[j].to_bits(),
                    "mass_below[{}] differs at turn {}", j, t
                );
            }
        }
    }

    #[test]
    fn overhauled_walk_is_bitwise_the_seed_walk(
        a in arb_input(2, 3),
        b in arb_input(2, 3),
        base in arb_input(2, 3),
        seed in any::<u64>(),
    ) {
        // The hot-path overhaul (label planes + pooled workspace + hybrid
        // sets) against the retained seed implementation, on arbitrary
        // protocols and supports: every f64 must agree bit for bit, in
        // both execution modes.
        let p = protocol(2, 3, 8, seed);
        let members = vec![a, b];
        for mode in [ExecMode::Parallel, ExecMode::Sequential] {
            let new = ExactEstimator { mode }.estimate_full(&p, &members, &base);
            let old = exact_mixture_comparison_reference(&p, &members, &base, mode);
            assert_mixture_bitwise_eq(&new, &old, &format!("{mode:?}"));
        }
    }

    #[test]
    fn overhauled_wide_walk_is_bitwise_the_seed_walk(
        a in arb_input(2, 4),
        base in arb_input(2, 4),
        seed in any::<u64>(),
    ) {
        let p = wide_protocol(2, 4, 2, 6, seed);
        let members = vec![a];
        for mode in [ExecMode::Parallel, ExecMode::Sequential] {
            let new = ExactEstimator { mode }.estimate_full(&p, &members, &base);
            let old = exact_mixture_comparison_reference(&p, &members, &base, mode);
            assert_mixture_bitwise_eq(&new, &old, &format!("{mode:?}"));
        }
    }

    #[test]
    fn arc_shared_family_walk_is_bitwise_the_seed_walk(
        planted in proptest::collection::btree_set(0u64..16, 1..=16usize),
        seed in any::<u64>(),
    ) {
        // The label-plane dedup path proper: members built with
        // `with_row` share every other row's Arc with the baseline, so
        // the walk groups them into one label table per node. Sharing
        // must be a pure optimization — bitwise invisible.
        let p = protocol(3, 4, 9, seed);
        let base = ProductInput::uniform(3, 4);
        let planted: Vec<u64> = planted.into_iter().collect();
        let members: Vec<ProductInput> = (0..3)
            .map(|i| base.with_row(i, RowSupport::explicit(4, planted.clone())))
            .collect();
        for mode in [ExecMode::Parallel, ExecMode::Sequential] {
            let new = ExactEstimator { mode }.estimate_full(&p, &members, &base);
            let old = exact_mixture_comparison_reference(&p, &members, &base, mode);
            assert_mixture_bitwise_eq(&new, &old, &format!("shared {mode:?}"));
        }
    }
}

/// The acceptance-scale case, deliberately outside the proptest loop: a
/// `BCAST(2)` walk over 2048 processors (every row materialized, sharing
/// one support allocation) must cut its frontier, fan subtree tasks out,
/// and agree bitwise across execution modes.
#[test]
fn wide_walk_with_thousands_of_processors_is_bitwise_deterministic() {
    let n = 2048;
    let p = wide_protocol(n, 3, 2, 8, 0xC0FFEE);
    let members = vec![
        ProductInput::repeated(RowSupport::explicit(3, vec![0, 2, 5, 7]), n),
        ProductInput::repeated(RowSupport::explicit(3, vec![1, 3, 4, 6, 7]), n),
    ];
    let base = ProductInput::uniform(n, 3);
    let par = ExactEstimator::parallel().estimate_full(&p, &members, &base);
    let seq = ExactEstimator::sequential().estimate_full(&p, &members, &base);
    assert_eq!(par.horizon, 8);
    for t in 0..par.mixture_tv_by_depth.len() {
        assert_eq!(
            par.mixture_tv_by_depth[t].to_bits(),
            seq.mixture_tv_by_depth[t].to_bits(),
            "mixture tv differs at depth {t}"
        );
        assert_eq!(
            par.progress_by_depth[t].to_bits(),
            seq.progress_by_depth[t].to_bits(),
            "progress differs at depth {t}"
        );
    }
    for i in 0..par.per_member_tv.len() {
        assert_eq!(
            par.per_member_tv[i].to_bits(),
            seq.per_member_tv[i].to_bits(),
            "member {i} differs"
        );
    }
    // Eight round-robin turns touch eight distinct speakers of the 2048.
    let speakers: std::collections::BTreeSet<usize> =
        par.speaker_stats.iter().map(|s| s.speaker).collect();
    assert_eq!(speakers.len(), 8);
}

/// A walk that crosses the dense→sparse demotion boundary mid-tree: a
/// 2^10-point support (word budget 16) halves per turn, demoting around
/// depth 6 — the whole profile must still be bitwise the seed walk's.
#[test]
fn demotion_boundary_walk_is_bitwise_the_seed_walk() {
    let p = FnProtocol::new(1, 10, 10, |_, input, tr| (input >> tr.len()) & 1 == 1);
    let a = ProductInput::new(vec![RowSupport::explicit(
        10,
        (0..1024).filter(|x| x % 5 != 0).collect(),
    )]);
    let base = ProductInput::uniform(1, 10);
    for mode in [ExecMode::Parallel, ExecMode::Sequential] {
        let new = ExactEstimator { mode }.estimate_pair(&p, &a, &base);
        let old = exact_mixture_comparison_reference(&p, std::slice::from_ref(&a), &base, mode);
        assert_mixture_bitwise_eq(&new, &old, "demotion boundary");
    }
}

/// The workload the hybrid representation exists for: a 2^18-point
/// support whose consistent sets collapse along a full binary tree of
/// 2^14 leaves. Priced densely this walk does ~2^12 word-operations per
/// node (~10^9 total — far outside the test budget); priced by live
/// points it is a few million operations. Only the sparse path finishes
/// here, and the distance it returns is checked against the closed form.
#[test]
fn huge_support_tiny_alive_bit_walk_finishes_and_is_exact() {
    // Turn t broadcasts input bit t: after 14 turns the transcript is
    // the low 14 bits. A sits on 16 points (low nibble free, the rest
    // zero), so TV = 1 − 16·2^-14 · ... = 1 − 2^-10 exactly.
    let p = FnProtocol::new(1, 18, 14, |_, input, tr| (input >> tr.len()) & 1 == 1);
    let a = ProductInput::new(vec![RowSupport::explicit(18, (0..16).collect())]);
    let base = ProductInput::uniform(1, 18);
    let par = ExactEstimator::parallel().estimate_pair(&p, &a, &base);
    let seq = ExactEstimator::sequential().estimate_pair(&p, &a, &base);
    let expected = 1.0 - (16.0 / (1u64 << 14) as f64);
    assert!(
        (par.tv() - expected).abs() < 1e-12,
        "tv {} vs {expected}",
        par.tv()
    );
    assert_mixture_bitwise_eq(&par, &seq, "huge support par vs seq");
    // The baseline's consistent fraction before turn t is exactly 2^-t.
    for (t, stats) in par.speaker_stats.iter().enumerate() {
        assert!(
            (stats.mean_fraction - 2f64.powi(-(t as i32))).abs() < 1e-12,
            "turn {t}: fraction {}",
            stats.mean_fraction
        );
    }
}

/// The same huge-support/tiny-alive shape at width 2: a
/// width-2 walk to depth 7 reveals the same 14 bits inside the
/// reachable-node budget (`wide_walk_nodes(2, 7) ≤ 2^26`).
#[test]
fn huge_support_tiny_alive_wide_walk_finishes_and_is_exact() {
    assert!(bcc_core::wide_walk_nodes(2, 7) <= bcc_core::MAX_WIDE_NODES);
    let p = FnWideProtocol::new(1, 18, 2, 7, |_, input, tr| (input >> (2 * tr.len())) & 0b11);
    let a = ProductInput::new(vec![RowSupport::explicit(18, (0..16).collect())]);
    let base = ProductInput::uniform(1, 18);
    let par = ExactEstimator::parallel().estimate_pair(&p, &a, &base);
    let seq = ExactEstimator::sequential().estimate_pair(&p, &a, &base);
    let expected = 1.0 - (16.0 / (1u64 << 14) as f64);
    assert!(
        (par.tv() - expected).abs() < 1e-12,
        "tv {} vs {expected}",
        par.tv()
    );
    assert_mixture_bitwise_eq(&par, &seq, "huge wide par vs seq");
}
