//! The differential suite pinning the **adaptive sampler** to the
//! **exact** walk everywhere the exact walk can go.
//!
//! The sampled path exists to extend `BCAST(w)` coverage past the exact
//! walk's `2^26` reachable-node budget, where no oracle exists. What
//! makes the extrapolated regime trustworthy is this suite: inside the
//! budget — including *at* the budget boundary for each width — the
//! sampled estimator must agree with the exact walk within its own
//! reported `noise_floor()`, and at width 1 a bit protocol (`FnProtocol`)
//! must sample **bit for bit** as the same decision written as an
//! `FnWideProtocol` at `w = 1`. Property tests add the
//! structural invariants (parallel == sequential bitwise, a multi-batch
//! run == one batch at its final budget, bitwise) over arbitrary supports
//! and `(width, horizon)` shapes, using the vendored proptest's
//! `prop_filter` to generate exactly the shapes that pack into a `u64`.

use bcc_congest::wide::FnWideProtocol;
use bcc_congest::FnProtocol;
use bcc_core::exec::{AdaptiveEstimator, Estimator, ExactEstimator};
use bcc_core::ExecMode;
use bcc_core::{wide_walk_nodes, ProductInput, RowSupport, MAX_WIDE_NODES};
use proptest::prelude::*;

mod common;
use common::{assert_profile_bitwise_eq, decision_bit, fixed_budget, small_family, wide_protocol};

/// The convergence contract: on seeded grids **inside** the exact node
/// budget — up to and including the boundary horizon for each width — the
/// sampled wide estimator's whole depth profile lands within its own
/// noise floor of the exact walk's.
#[test]
fn sampled_wide_agrees_with_exact_up_to_the_node_budget_boundary() {
    // The deepest horizons whose complete 2^w-ary trees still fit the
    // 2^26-node budget: T = 25 (w 1), 12 (w 2), 8 (w 3) — plus interior
    // depths so convergence is checked across the grid, not one corner.
    let grid: &[(u32, &[u32])] = &[(1, &[6, 12, 25]), (2, &[4, 8, 12]), (3, &[3, 5, 8])];
    let (members, baseline) = small_family();
    for &(w, horizons) in grid {
        for &t in horizons {
            assert!(
                wide_walk_nodes(w, t) <= MAX_WIDE_NODES,
                "grid point (w {w}, T {t}) must be inside the exact budget"
            );
            let p = wide_protocol(2, 3, w, t, 0xD1FF ^ (u64::from(w) << 8) ^ u64::from(t));
            let exact = ExactEstimator::default().estimate_full(&p, &members, &baseline);
            assert!(exact.is_exact());
            let sampled = fixed_budget(16_384, 0x5EED ^ u64::from(w * 31 + t))
                .estimate_full(&p, &members, &baseline);
            let floor = sampled.noise_floor();
            assert!(floor.is_finite() && floor > 0.0);
            for depth in 0..exact.mixture_tv_by_depth.len() {
                assert!(
                    (sampled.mixture_tv_by_depth[depth] - exact.mixture_tv_by_depth[depth]).abs()
                        <= floor,
                    "(w {w}, T {t}) depth {depth}: sampled {} vs exact {} beyond floor {floor}",
                    sampled.mixture_tv_by_depth[depth],
                    exact.mixture_tv_by_depth[depth],
                );
                assert!(
                    (sampled.progress_by_depth[depth] - exact.progress_by_depth[depth]).abs()
                        <= floor,
                    "(w {w}, T {t}) depth {depth}: progress beyond floor"
                );
            }
            for i in 0..exact.per_member_tv.len() {
                assert!(
                    (sampled.per_member_tv[i] - exact.per_member_tv[i]).abs() <= floor,
                    "(w {w}, T {t}) member {i} beyond floor"
                );
            }
        }
    }
}

/// The estimator matrix over the same boundary grid: the plug-in and the
/// Good–Turing smoothed views of one sampled run must **each** land
/// within their **own** depth-resolved noise floor of the exact walk, at
/// every depth up to and including each width's boundary horizon — and
/// the smoothed floor must never exceed the plug-in floor (it subtracts
/// the singleton mass the plug-in floor charges for, and is clamped by
/// the plug-in floor on saturated depths).
#[test]
fn smoothed_and_plugin_estimates_both_agree_with_exact_within_their_own_floors() {
    let grid: &[(u32, &[u32])] = &[(1, &[6, 12, 25]), (2, &[4, 8, 12]), (3, &[3, 5, 8])];
    let (members, baseline) = small_family();
    let mut strictly_tighter = 0usize;
    // A generous budget saturates every point (no singletons survive, so
    // the two floors coincide); the starved budget is where Good–Turing
    // earns its keep — singletons exist and the smoothed floor tightens.
    for &(w, horizons) in grid {
        for &t in horizons {
            for samples in [16_384usize, 96] {
                let p = wide_protocol(2, 3, w, t, 0xD1FF ^ (u64::from(w) << 8) ^ u64::from(t));
                let exact = ExactEstimator::default().estimate_full(&p, &members, &baseline);
                let plugin = fixed_budget(samples, 0x5EED ^ u64::from(w * 31 + t))
                    .estimate_full(&p, &members, &baseline);
                let smoothed = plugin.smoothed();
                for depth in 0..=t {
                    let d = depth as usize;
                    let plugin_floor = plugin.noise_floor_at(depth);
                    let smoothed_floor = smoothed.noise_floor_at(depth);
                    assert!(
                    (plugin.mixture_tv_by_depth[d] - exact.mixture_tv_by_depth[d]).abs()
                        <= plugin_floor,
                    "(w {w}, T {t}) depth {depth}: plug-in {} vs exact {} beyond its floor {plugin_floor}",
                    plugin.mixture_tv_by_depth[d],
                    exact.mixture_tv_by_depth[d],
                );
                    assert!(
                    (smoothed.mixture_tv_by_depth[d] - exact.mixture_tv_by_depth[d]).abs()
                        <= smoothed_floor,
                    "(w {w}, T {t}) depth {depth}: smoothed {} vs exact {} beyond its floor {smoothed_floor}",
                    smoothed.mixture_tv_by_depth[d],
                    exact.mixture_tv_by_depth[d],
                );
                    assert!(
                    smoothed_floor <= plugin_floor + 1e-15,
                    "(w {w}, T {t}) depth {depth}: smoothed floor {smoothed_floor} above plug-in {plugin_floor}"
                );
                    if smoothed_floor < plugin_floor - 1e-15 {
                        strictly_tighter += 1;
                    }
                }
            }
        }
    }
    assert!(
        strictly_tighter > 0,
        "somewhere on the matrix singletons must make the smoothed floor strictly tighter"
    );
}

/// Past the boundary the exact engine refuses — and the sampled estimator
/// is the continuation: the same protocol family one turn deeper than the
/// exact budget admits still yields a finite, in-range estimate.
#[test]
fn sampled_wide_continues_past_the_exact_cliff() {
    let (members, baseline) = small_family();
    // w = 2, T = 13: wide_walk_nodes(2, 13) > 2^26 (the exact engine's
    // budget guard panics here — pinned in crates/core/src/wide.rs).
    assert!(wide_walk_nodes(2, 13) > MAX_WIDE_NODES);
    let p = wide_protocol(2, 3, 2, 13, 0xC11F);
    let profile = fixed_budget(8_192, 7).estimate_full(&p, &members, &baseline);
    assert_eq!(profile.horizon, 13);
    assert!(profile.noise_floor().is_finite());
    for &tv in &profile.mixture_tv_by_depth {
        assert!((0.0..=1.0 + 1e-12).contains(&tv));
    }
    // Seeded rerun is bitwise identical (the property lab resume needs).
    let again = fixed_budget(8_192, 7).estimate_full(&p, &members, &baseline);
    assert_profile_bitwise_eq(&profile, &again, "past-cliff rerun");
}

/// A bit protocol (`FnProtocol`) and the same decision function written
/// as an `FnWideProtocol` at `w = 1` share the key packing, seed
/// derivation, and RNG consumption — so they must produce **bit for
/// bit** the same profile, in one batch and across several alike.
#[test]
fn width_one_sampled_path_is_bitwise_the_bit_sampler() {
    let seed = 0xB17;
    let bitp = FnProtocol::new(2, 3, 9, move |proc, input, tr| {
        decision_bit(seed, proc, input, tr.len(), tr.as_u64())
    });
    let widep = FnWideProtocol::new(2, 3, 1, 9, move |proc, input, tr| {
        u64::from(decision_bit(seed, proc, input, tr.len(), tr.as_u64()))
    });
    let (members, baseline) = small_family();

    let bit = fixed_budget(6_000, 0xAB).estimate_full(&bitp, &members, &baseline);
    let wide = fixed_budget(6_000, 0xAB).estimate_full(&widep, &members, &baseline);
    assert_profile_bitwise_eq(&bit, &wide, "single-batch w=1");

    let est = AdaptiveEstimator::new(1e-9, 50, 1600, 0xCD);
    let (bit_a, bit_r) = est.estimate_with_report(&bitp, &members, &baseline, 9);
    let (wide_a, wide_r) = est.estimate_with_report(&widep, &members, &baseline, 9);
    assert_eq!(bit_r, wide_r, "adaptive reports must coincide at w = 1");
    assert!(bit_r.batches > 1, "want a multi-batch adaptive run");
    assert_profile_bitwise_eq(&bit_a, &wide_a, "adaptive w=1");
}

fn arb_support(bits: u32) -> impl Strategy<Value = RowSupport> {
    let size = 1u64 << bits;
    proptest::collection::btree_set(0..size, 1..=size as usize)
        .prop_map(move |set| RowSupport::explicit(bits, set.into_iter().collect()))
}

fn arb_input(n: usize, bits: u32) -> impl Strategy<Value = ProductInput> {
    proptest::collection::vec(arb_support(bits), n).prop_map(ProductInput::new)
}

/// `(width, horizon)` shapes that pack into the u64 key and stay cheap:
/// exactly the filter the estimators enforce, expressed as a
/// `prop_filter` so every generated case is executable.
fn arb_wide_shape() -> impl Strategy<Value = (u32, u32)> {
    (1u32..=4, 2u32..=10).prop_filter("fits the sampling budget of a test case", |&(w, t)| {
        w * t <= 16
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wide_sampler_parallel_matches_sequential_bitwise(
        base in arb_input(2, 3),
        shape in arb_wide_shape(),
        seed in any::<u64>(),
    ) {
        let (w, t) = shape;
        let p = wide_protocol(2, 3, w, t, seed);
        let members: Vec<ProductInput> = (0..5u64)
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
        for depth in 0..par.mixture_tv_by_depth.len() {
            prop_assert_eq!(
                par.mixture_tv_by_depth[depth].to_bits(),
                seq.mixture_tv_by_depth[depth].to_bits(),
                "mixture tv differs at depth {}", depth
            );
            prop_assert_eq!(
                par.progress_by_depth[depth].to_bits(),
                seq.progress_by_depth[depth].to_bits(),
                "progress differs at depth {}", depth
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
    fn wide_adaptive_is_bitwise_the_one_shot_at_the_final_budget(
        a in arb_input(2, 3),
        base in arb_input(2, 3),
        shape in arb_wide_shape(),
        seed in any::<u64>(),
    ) {
        let (w, t) = shape;
        let p = wide_protocol(2, 3, w, t, seed);
        let members = vec![a];
        let est = AdaptiveEstimator::new(0.3, 64, 1 << 12, seed);
        let (profile, report) = est.estimate_with_report(&p, &members, &base, t);
        let single = fixed_budget(report.samples_per_side, seed)
            .estimate_full(&p, &members, &base);
        prop_assert_eq!(profile.tv().to_bits(), single.tv().to_bits());
        prop_assert_eq!(profile.progress().to_bits(), single.progress().to_bits());
        prop_assert_eq!(report.samples_drawn, report.samples_per_side);
    }
}
