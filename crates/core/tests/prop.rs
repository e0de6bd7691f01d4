//! Property-based tests for the exact engine: its outputs must satisfy the
//! structural identities the paper's framework relies on, for *arbitrary*
//! protocols and input families.

use bcc_congest::wide::{FnWideProtocol, ParityProtocol, WideTranscript, WideTurnProtocol};
use bcc_congest::FnProtocol;
use bcc_core::exec::{Estimator, ExactEstimator};
use bcc_core::{exact_mixture_comparison_reference, DepthProfile, ProductInput, RowSupport};
use proptest::prelude::*;

mod common;
use common::{fixed_budget, pool};

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
        let ab = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &b);
        let ba = ExactEstimator.estimate(&p, std::slice::from_ref(&b), &a);
        prop_assert!((ab.tv() - ba.tv()).abs() < 1e-12);
        for t in 0..ab.mixture_tv_by_depth.len() {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&ab.mixture_tv_by_depth[t]));
        }
    }

    #[test]
    fn identical_inputs_have_zero_distance(a in arb_input(2, 3), seed in any::<u64>()) {
        let p = protocol(2, 3, 6, seed);
        let cmp = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &a);
        prop_assert!(cmp.tv() < 1e-12);
    }

    #[test]
    fn prefix_tv_is_monotone(a in arb_input(2, 3), b in arb_input(2, 3), seed in any::<u64>()) {
        // Longer transcripts can only reveal more (data processing in
        // reverse): prefix TV is nondecreasing in t.
        let p = protocol(2, 3, 8, seed);
        let cmp = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &b);
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
        let mix = ExactEstimator.estimate(&p, &members, &base);
        for t in 0..mix.mixture_tv_by_depth.len() {
            prop_assert!(mix.mixture_tv_by_depth[t] <= mix.progress_by_depth[t] + 1e-12);
        }
        let avg = (mix.per_member_tv[0] + mix.per_member_tv[1]) / 2.0;
        prop_assert!((mix.progress() - avg).abs() < 1e-12);
        // Per-member results agree with standalone walks.
        let solo_a = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &base).tv();
        prop_assert!((mix.per_member_tv[0] - solo_a).abs() < 1e-12);
    }

    #[test]
    fn progress_increments_nonnegative(
        a in arb_input(2, 3),
        base in arb_input(2, 3),
        seed in any::<u64>(),
    ) {
        let p = protocol(2, 3, 8, seed);
        let mix = ExactEstimator.estimate(&p, &[a], &base);
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
        let cmp = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &a);
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
        let exact = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &b).tv();
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
        let exact = ExactEstimator.estimate(&p, &members, &base);
        let sampled = fixed_budget(20_000, seed).estimate(&p, &members, &base);
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
        // members out over four threads must be bitwise identical to the
        // one-thread run — profile, members, provenance and all.
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
        let run = || fixed_budget(2_000, seed).estimate(&p, &members, &base);
        let (par, seq) = (pool(4, run), pool(1, run));
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
        let (profile, report) = est.estimate_with_report(&p, &members, &base);
        prop_assert!(report.samples_per_side <= 1 << 16);
        if report.met_tolerance {
            prop_assert!(profile.noise_floor() <= 0.25);
        } else {
            prop_assert_eq!(report.samples_per_side, 1 << 16);
        }
        // Deterministic under the fixed seed.
        let (again, report_again) = est.estimate_with_report(&p, &members, &base);
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
        // / w) on pools of 1 and 4 threads, so subtree tasks genuinely
        // fan out, and the two runs must be bitwise identical.
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
        let run = || ExactEstimator.estimate(&p, &members, &base);
        let (par, seq) = (pool(4, run), pool(1, run));
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
        let bit = ExactEstimator.estimate(&bitp, &members, &base);
        let wide = ExactEstimator.estimate(&widep, &members, &base);
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
        // walk actually fans subtree tasks out over rayon. The run on four
        // threads must be bitwise identical to the run on one.
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
        let run = || ExactEstimator.estimate(&p, &members, &base);
        let (par, seq) = (pool(4, run), pool(1, run));
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
        // protocols and supports: every f64 must agree bit for bit.
        let p = protocol(2, 3, 8, seed);
        let members = vec![a, b];
        let new = ExactEstimator.estimate(&p, &members, &base);
        let old = exact_mixture_comparison_reference(&p, &members, &base);
        assert_mixture_bitwise_eq(&new, &old, "walk vs seed");
    }

    #[test]
    fn overhauled_wide_walk_is_bitwise_the_seed_walk(
        a in arb_input(2, 4),
        base in arb_input(2, 4),
        seed in any::<u64>(),
    ) {
        let p = wide_protocol(2, 4, 2, 6, seed);
        let members = vec![a];
        let new = ExactEstimator.estimate(&p, &members, &base);
        let old = exact_mixture_comparison_reference(&p, &members, &base);
        assert_mixture_bitwise_eq(&new, &old, "wide walk vs seed");
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
        let new = ExactEstimator.estimate(&p, &members, &base);
        let old = exact_mixture_comparison_reference(&p, &members, &base);
        assert_mixture_bitwise_eq(&new, &old, "shared");
    }

    #[test]
    fn arc_shared_wide_family_walk_is_bitwise_the_seed_walk(
        planted in proptest::collection::btree_set(0u64..16, 1..=16usize),
        width in 2u32..=3,
        seed in any::<u64>(),
    ) {
        // The counted split's shared-group source: every member shares
        // all but one row's Arc with the baseline, so each speaker row
        // splits a group of several distributions off one label table.
        let horizon = if width == 2 { 6 } else { 4 };
        let p = wide_protocol(3, 4, width, horizon, seed);
        let base = ProductInput::uniform(3, 4);
        let planted: Vec<u64> = planted.into_iter().collect();
        let members: Vec<ProductInput> = (0..3)
            .map(|i| base.with_row(i, RowSupport::explicit(4, planted.clone())))
            .collect();
        let new = ExactEstimator.estimate(&p, &members, &base);
        let old = exact_mixture_comparison_reference(&p, &members, &base);
        assert_mixture_bitwise_eq(&new, &old, &format!("shared w{width}"));
    }
}

/// The acceptance-scale case, deliberately outside the proptest loop: a
/// `BCAST(2)` walk over 2048 processors (every row materialized, sharing
/// one support allocation) must cut its frontier, fan subtree tasks out,
/// and agree bitwise on pools of 1 and 4 threads.
#[test]
fn wide_walk_with_thousands_of_processors_is_bitwise_deterministic() {
    let n = 2048;
    let p = wide_protocol(n, 3, 2, 8, 0xC0FFEE);
    let members = vec![
        ProductInput::repeated(RowSupport::explicit(3, vec![0, 2, 5, 7]), n),
        ProductInput::repeated(RowSupport::explicit(3, vec![1, 3, 4, 6, 7]), n),
    ];
    let base = ProductInput::uniform(n, 3);
    let run = || ExactEstimator.estimate(&p, &members, &base);
    let (par, seq) = (pool(4, run), pool(1, run));
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
    let new = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &base);
    let old = exact_mixture_comparison_reference(&p, std::slice::from_ref(&a), &base);
    assert_mixture_bitwise_eq(&new, &old, "demotion boundary");
}

/// Message walks across the dense→sparse boundary, through every split
/// route a message node takes. Two 2^10-point rows (word budget 16) lose
/// one or two bits per spoken turn, so late splits yield 16-point (and
/// smaller) children of dense parents. Each member replaces one row and
/// shares the other's Arc with the baseline, so every speaker row has a
/// one-distribution group and a shared group. At width 2 every set takes
/// the counted split, through both of its pair sources; at width 1 a
/// group with a dense set splits on a packed label plane and an
/// all-sparse group by counts. Each profile is the seed walk's bit for
/// bit, and each walk's work counts, kernel words included, are pinned.
#[test]
fn wide_demotion_boundary_walk_is_bitwise_the_seed_walk_and_counts_pinned() {
    let base = ProductInput::uniform(2, 10);
    let members = vec![
        base.with_row(
            0,
            RowSupport::explicit(10, (0..1024).filter(|x| x % 5 != 0).collect()),
        ),
        base.with_row(
            1,
            RowSupport::explicit(10, (0..1024).filter(|x| x % 3 != 0).collect()),
        ),
    ];
    let wide = FnWideProtocol::new(2, 10, 2, 6, |_, input, tr| {
        (input >> (2 * (tr.len() / 2))) & 0b11
    });
    let bit = FnWideProtocol::new(2, 10, 1, 14, |_, input, tr| (input >> (tr.len() / 2)) & 1);
    assert_eq!(
        pinned_walk_counts(&wide, &members, &base, "w2"),
        [16380, 15360, 289527, 21840, 43680]
    );
    assert_eq!(
        pinned_walk_counts(&bit, &members, &base, "w1"),
        [98298, 18432, 1057529, 780780, 131040]
    );
}

/// Checks the walk of `p` bitwise against the seed walk and returns its
/// `walk.children_built`, `walk.demotions_dense_to_sparse`,
/// `walk.live_points`, `kernel.words.filter` and `kernel.words.boolean`.
fn pinned_walk_counts<P: WideTurnProtocol + Sync>(
    p: &P,
    members: &[ProductInput],
    base: &ProductInput,
    what: &str,
) -> [u64; 5] {
    let registry = bcc_obs::Registry::new();
    let scope = registry.install();
    let new = ExactEstimator.estimate(p, members, base);
    drop(scope);
    let old = exact_mixture_comparison_reference(p, members, base);
    assert_mixture_bitwise_eq(&new, &old, &format!("demotion boundary {what}"));
    let snap = registry.snapshot();
    [
        "walk.children_built",
        "walk.demotions_dense_to_sparse",
        "walk.live_points",
        "kernel.words.filter",
        "kernel.words.boolean",
    ]
    .map(|key| snap.work_counter(key))
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
    let run = || ExactEstimator.estimate(&p, std::slice::from_ref(&a), &base);
    let (par, seq) = (pool(4, run), pool(1, run));
    let expected = 1.0 - (16.0 / (1u64 << 14) as f64);
    assert!(
        (par.tv() - expected).abs() < 1e-12,
        "tv {} vs {expected}",
        par.tv()
    );
    assert_mixture_bitwise_eq(&par, &seq, "huge support, 4 vs 1 threads");
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
    let run = || ExactEstimator.estimate(&p, std::slice::from_ref(&a), &base);
    let (par, seq) = (pool(4, run), pool(1, run));
    let expected = 1.0 - (16.0 / (1u64 << 14) as f64);
    assert!(
        (par.tv() - expected).abs() < 1e-12,
        "tv {} vs {expected}",
        par.tv()
    );
    assert_mixture_bitwise_eq(&par, &seq, "huge wide, 4 vs 1 threads");
}

/// A seeded 64-bit parity mask for message bit `b` of `proc` after `tr`.
/// Bits above the input width are set too; they must select nothing.
fn parity_mask(seed: u64, proc: usize, tr: &WideTranscript, b: u32) -> u64 {
    let mut z = seed
        .wrapping_add(tr.as_u64().wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add(u64::from(tr.len()) << 56)
        .wrapping_add((proc as u64) << 40)
        .wrapping_add(u64::from(b).wrapping_mul(0xBF58476D1CE4E5B9));
    z ^= z >> 31;
    z = z.wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 29)
}

/// The exact walk on a pool of `threads`, with its profile and every
/// `walk.*` and `kernel.words.*` work counter it tallied.
fn observed_walk<P: WideTurnProtocol + Sync>(
    p: &P,
    members: &[ProductInput],
    base: &ProductInput,
    threads: usize,
) -> (DepthProfile, Vec<(String, u64)>) {
    pool(threads, || {
        let registry = bcc_obs::Registry::new();
        let scope = registry.install();
        let profile = ExactEstimator.estimate(p, members, base);
        drop(scope);
        let work = registry
            .snapshot()
            .work_fingerprint()
            .into_iter()
            .filter(|(key, _)| key.starts_with("walk.") || key.starts_with("kernel.words."))
            .collect();
        (profile, work)
    })
}

/// A family over `n` rows of `bits`-bit supports: members that replace
/// one row each and share the rest with the uniform baseline (`shared`),
/// or members whose every row is a support of its own.
fn parity_family(
    n: usize,
    bits: u32,
    planted: &[u64],
    shared: bool,
) -> (Vec<ProductInput>, ProductInput) {
    let base = ProductInput::uniform(n, bits);
    let size = 1u64 << bits;
    let members = (0..3u64)
        .map(|i| {
            let row = |r: u64| {
                let points = planted.iter().map(|&x| (x + i + r) % size).collect();
                RowSupport::explicit(bits, points)
            };
            if shared {
                base.with_row(i as usize % n, row(0))
            } else {
                ProductInput::new((0..n as u64).map(row).collect())
            }
        })
        .collect();
    (members, base)
}

/// Asserts the exact walk of a masked-parity family is the seed walk's
/// bit for bit, and the walk of the same masks behind a message closure
/// bit for bit with equal work counters, on pools of 1 and 4 threads.
fn assert_parity_walk_matches(width: u32, horizon: u32, planted: &[u64], shared: bool, seed: u64) {
    let (n, bits) = (2, 8);
    let (members, base) = parity_family(n, bits, planted, shared);
    let parity = ParityProtocol::new(n, bits, width, horizon, move |proc, tr, b| {
        parity_mask(seed, proc, tr, b)
    });
    let by_message = FnWideProtocol::new(n, bits, width, horizon, move |proc, input, tr| {
        (0..width).fold(0, |message, b| {
            let bit = (input & parity_mask(seed, proc, tr, b)).count_ones() & 1;
            message | u64::from(bit) << b
        })
    });
    let what = format!("w{width} T{horizon} shared {shared}");
    let seed_walk = exact_mixture_comparison_reference(&parity, &members, &base);
    for threads in [1, 4] {
        let (planes, planes_work) = observed_walk(&parity, &members, &base, threads);
        let (messages, messages_work) = observed_walk(&by_message, &members, &base, threads);
        assert_mixture_bitwise_eq(&planes, &seed_walk, &format!("{what}: parity vs seed"));
        assert_mixture_bitwise_eq(&planes, &messages, &format!("{what}: parity vs closure"));
        assert_eq!(
            planes_work, messages_work,
            "{what}, {threads} threads: work"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parity_walk_is_bitwise_the_seed_walk_and_the_message_walk(
        width in 1u32..=4,
        planted in proptest::collection::btree_set(0u64..256, 1..=256usize),
        shared in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Horizons past n = 2, so speakers repeat and their sets shrink
        // from dense to sparse within one walk.
        let horizon = [12, 5, 4, 3][width as usize - 1];
        let planted: Vec<u64> = planted.into_iter().collect();
        assert_parity_walk_matches(width, horizon, &planted, shared, seed);
    }
}

/// A [`ParityProtocol`] that counts its `message` calls.
struct CountingParity<F> {
    inner: ParityProtocol<F>,
    messages: std::sync::atomic::AtomicUsize,
}

impl<F: Fn(usize, &WideTranscript, u32) -> u64> WideTurnProtocol for CountingParity<F> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn input_bits(&self) -> u32 {
        self.inner.input_bits()
    }
    fn width(&self) -> u32 {
        self.inner.width()
    }
    fn horizon(&self) -> u32 {
        self.inner.horizon()
    }
    fn message(&self, proc: usize, input: u64, transcript: &WideTranscript) -> u64 {
        self.messages
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.message(proc, input, transcript)
    }
    fn parity_mask(&self, proc: usize, transcript: &WideTranscript, bit: u32) -> Option<u64> {
        self.inner.parity_mask(proc, transcript, bit)
    }
}

/// The fixed cases behind the property: every width, shared and unshared
/// rows, a full 256-point planted row and a few-point one. The walks
/// demote dense sets to sparse, split by words and by counts, and
/// evaluate no message at all.
#[test]
fn parity_walk_splits_by_planes_without_evaluating_a_message() {
    let wide: Vec<u64> = (0..256).filter(|x| x % 7 != 3).collect();
    let few: Vec<u64> = vec![3, 90, 91, 200, 201, 255];
    for width in 1..=4u32 {
        let horizon = [12, 5, 4, 3][width as usize - 1];
        for planted in [&wide, &few] {
            for shared in [false, true] {
                assert_parity_walk_matches(
                    width,
                    horizon,
                    planted,
                    shared,
                    0x5EED + u64::from(width),
                );
            }
        }
        let (members, base) = parity_family(2, 8, &wide, true);
        let counting = CountingParity {
            inner: ParityProtocol::new(2, 8, width, horizon, move |proc, tr, b| {
                parity_mask(7, proc, tr, b)
            }),
            messages: std::sync::atomic::AtomicUsize::new(0),
        };
        let (_, work) = observed_walk(&counting, &members, &base, 1);
        let counter = |name: &str| work.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v);
        assert!(
            counter("walk.demotions_dense_to_sparse") > 0,
            "w{width}: no demotion"
        );
        assert_eq!(
            counting.messages.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "w{width}: the parity walk evaluated messages"
        );
    }
}
