//! Observability is bitwise invisible — and its work counters are
//! deterministic.
//!
//! Two contracts from `bcc_obs`'s design are pinned end to end here:
//!
//! 1. **Invisibility**: running any estimator with a registry installed
//!    and span tracing enabled must produce bitwise-identical numbers to
//!    the bare run. Counters only observe; they never steer.
//! 2. **Determinism**: the *work-class* counters (nodes, live points,
//!    sorted/merged keys, kernel words, …) are pure functions of the
//!    task — equal across pool sizes. The suite runs in this process on
//!    rayon pools of 1, 4 and 32 threads, and every run must give
//!    bitwise-identical profiles and equal full sorted work-counter sets.

use bcc_core::exec::{AdaptiveEstimator, Estimator, ExactEstimator};
use bcc_core::{DepthProfile, ProductInput, RowSupport};

mod common;
use common::{
    assert_profile_bitwise_eq, decision_bit, fixed_budget, pool, small_family, wide_protocol,
};

/// One run of every estimator family — exact and sampled, bit and wide,
/// one batch and several — returning the profiles for bitwise
/// comparison.
fn suite_profiles() -> Vec<(&'static str, DepthProfile)> {
    let (members, baseline) = small_family();
    let seed = 0xB17;
    let bitp = bcc_congest::FnProtocol::new(2, 3, 9, move |proc, input, tr| {
        decision_bit(seed, proc, input, tr.len(), tr.as_u64())
    });
    let widep = wide_protocol(2, 3, 2, 8, 0xA5A5);
    let est = AdaptiveEstimator::new(1e-9, 50, 1600, 0xCD);
    let (bit_adaptive, _) = est.estimate_with_report(&bitp, &members, &baseline);
    let (wide_adaptive, _) = est.estimate_with_report(&widep, &members, &baseline);
    // Three members over explicit 10-bit rows of about 820 points, so the
    // walk's probabilities are not dyadic and its float sums round, under
    // a parity whose mask follows the transcript; 16 turns put the
    // frontier well above the leaves.
    let rows = |i: u64| {
        (0..2u64)
            .map(|row| {
                RowSupport::explicit(
                    10,
                    (0..1024)
                        .filter(|x| !(x * 7 + i * 3 + row).is_multiple_of(5))
                        .collect(),
                )
            })
            .collect()
    };
    let probe_members: Vec<ProductInput> = (0..3).map(|i| ProductInput::new(rows(i))).collect();
    let probe_baseline = ProductInput::uniform(2, 10);
    let probe = bcc_congest::FnProtocol::new(2, 10, 16, |proc, input, tr| {
        let mask = (0..10).fold(0u64, |mask, b| {
            let bit = decision_bit(0x9A5 ^ (b << 17), proc, 0, tr.len(), tr.as_u64());
            mask | (u64::from(bit) << b)
        });
        (input & mask).count_ones() % 2 == 1
    });
    vec![
        (
            "exact bit",
            ExactEstimator.estimate(&bitp, &members, &baseline),
        ),
        (
            "exact wide",
            ExactEstimator.estimate(&widep, &members, &baseline),
        ),
        (
            "single-batch bit",
            fixed_budget(6_000, 0xAB).estimate(&bitp, &members, &baseline),
        ),
        (
            "single-batch wide",
            fixed_budget(4_096, 0x5EED).estimate(&widep, &members, &baseline),
        ),
        ("multi-batch bit", bit_adaptive),
        ("multi-batch wide", wide_adaptive),
        (
            "exact probe",
            ExactEstimator.estimate(&probe, &probe_members, &probe_baseline),
        ),
    ]
}

#[test]
fn observability_is_bitwise_invisible() {
    // Bare runs first: no registry on this thread, tracing not yet
    // installed in this process.
    let bare = suite_profiles();

    // Instrumented runs: registry installed, span tracing live.
    let trace_path =
        std::env::temp_dir().join(format!("bcc-obs-differential-{}.json", std::process::id()));
    bcc_obs::trace::install(&trace_path);
    let registry = bcc_obs::Registry::new();
    let scope = registry.install();
    let instrumented = suite_profiles();
    drop(scope);

    for ((what, off), (_, on)) in bare.iter().zip(&instrumented) {
        assert_profile_bitwise_eq(off, on, what);
    }

    // Guard against a vacuous pass: the instrumented runs must actually
    // have been observed.
    let snap = registry.snapshot();
    assert!(
        snap.work_counter("walk.nodes") > 0,
        "exact walks must tally nodes: {:?}",
        snap.work
    );
    assert!(
        snap.work_counter("exec.keys_sorted") > 0,
        "sampled runs must tally sort work"
    );
    assert!(
        !snap.spans.is_empty(),
        "spans must have recorded wall timings"
    );
    assert!(
        bcc_obs::trace::event_count() > 0,
        "tracing was installed; spans must emit events"
    );
    let _ = std::fs::remove_file(&trace_path);
}

/// Pools of 1, 4 and 32 threads must give bitwise-identical profiles and
/// equal sorted work-counter sets. The larger pools run their fan-outs on
/// worker threads whatever the host's core count.
#[test]
fn work_counters_are_thread_invariant() {
    let observed = || {
        let registry = bcc_obs::Registry::new();
        let scope = registry.install();
        let profiles = suite_profiles();
        drop(scope);
        (profiles, registry.snapshot())
    };
    let (one, one_snap) = pool(1, observed);
    assert!(
        one_snap.work_counter("walk.nodes") > 0,
        "the suite must observe walk work"
    );
    for threads in [4, 32] {
        let (many, many_snap) = pool(threads, observed);
        for ((what, a), (_, b)) in one.iter().zip(&many) {
            assert_profile_bitwise_eq(a, b, &format!("{what}, {threads} threads"));
        }
        assert_eq!(
            one_snap.work_fingerprint(),
            many_snap.work_fingerprint(),
            "work counters differ between 1 and {threads} threads"
        );
    }
}
