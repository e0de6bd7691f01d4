//! Sort-work accounting for the adaptive estimator, pinned against the
//! scoped [`bcc_obs`] work counters (`exec.keys_sorted`,
//! `exec.keys_merged`, `exec.samples_drawn`) that an installed
//! [`bcc_obs::Registry`] collects per run.
//!
//! The adaptive layer's contract is **1× final-budget sort work**: every
//! transcript's key is radix-sorted exactly once (in the batch chunk that
//! drew it), and both the per-side arrays *and the mixture histogram* are
//! maintained by merges from then on. Before this suite existed the
//! mixture was silently re-sorted per batch (`O(m · samples)` of hidden
//! sort work per batch, up to 2× the final budget in total) while
//! producing bitwise-identical profiles — exactly the kind of regression
//! only a work counter can catch.
//!
//! Each estimator run installs a fresh registry, so the pinned counts are
//! scoped to that run, also while other runs count on other threads.

use bcc_congest::wide::FnWideProtocol;
use bcc_congest::FnProtocol;
use bcc_core::{
    exact_mixture_comparison_reference, AdaptiveEstimator, Estimator, ExactEstimator, ProductInput,
    RowSupport,
};
use bcc_obs::{Registry, Snapshot};

mod common;
use common::pool;

/// Runs `f` under a fresh scoped registry and returns its result plus
/// the run's work snapshot.
fn scoped<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let registry = Registry::new();
    let scope = registry.install();
    let out = f();
    drop(scope);
    (out, registry.snapshot())
}

/// A two-member family over two 3-bit rows, and its uniform baseline.
fn family() -> (Vec<ProductInput>, ProductInput) {
    let members = vec![
        ProductInput::new(vec![
            RowSupport::explicit(3, vec![1, 3, 5, 7]),
            RowSupport::uniform(3),
        ]),
        ProductInput::new(vec![
            RowSupport::uniform(3),
            RowSupport::explicit(3, vec![0, 2]),
        ]),
    ];
    (members, ProductInput::uniform(2, 3))
}

/// A wide (m = 6) family over the same rows.
fn wide_family() -> Vec<ProductInput> {
    (0..6)
        .map(|i| {
            ProductInput::new(vec![
                RowSupport::explicit(3, (0..=i as u64 + 1).collect()),
                RowSupport::uniform(3),
            ])
        })
        .collect()
}

#[test]
fn adaptive_runs_sort_exactly_one_final_budget_per_side() {
    let (members, baseline) = family();
    let sides = members.len() as u64 + 1;
    let cap = 2048usize;
    // Unreachable tolerance: the cap binds after several doubling
    // batches — the regime where per-batch re-sorting would multiply the
    // counted work.
    let est = AdaptiveEstimator::new(1e-9, 64, cap, 0xFEED);

    // The bit path.
    let bitp = FnProtocol::new(2, 3, 6, |_, input, tr| (input >> (tr.len() / 2)) & 1 == 1);
    let (report, snap) = scoped(|| {
        let (_, report) = est.estimate_with_report(&bitp, &members, &baseline);
        report
    });
    let sorted = snap.work_counter("exec.keys_sorted");
    assert!(report.batches > 1, "want a multi-batch run: {report:?}");
    assert_eq!(report.samples_per_side, cap);
    assert_eq!(
        sorted,
        sides * cap as u64,
        "bit adaptive run must sort each side's keys exactly once \
         ({} batches drew {} per side; a mixture re-sort per batch would \
         roughly double this)",
        report.batches,
        cap
    );
    assert_eq!(
        snap.work_counter("exec.samples_drawn"),
        sides * cap as u64,
        "every side draws exactly the final budget"
    );
    assert_eq!(
        snap.work_counter("exec.adaptive.batches"),
        report.batches as u64,
        "the scoped batch count mirrors the report"
    );

    // The wide path, same contract.
    let widep = FnWideProtocol::new(2, 3, 2, 6, |_, input, tr| (input >> (tr.len() % 2)) & 0b11);
    let (report, snap) = scoped(|| {
        let (_, report) = est.estimate_with_report(&widep, &members, &baseline);
        report
    });
    let sorted = snap.work_counter("exec.keys_sorted");
    assert!(report.batches > 1, "want a multi-batch run: {report:?}");
    assert_eq!(
        sorted,
        sides * cap as u64,
        "wide adaptive run must sort each side's keys exactly once"
    );

    // The merge half of the contract, on a wide (m = 6) family: per
    // batch the member chunks fold through ONE k-way heap merge (each
    // chunk key written once, m·Δ), not a pairwise chain that re-copies
    // early chunks (Σ_{i≤m} i·Δ = 21Δ here). Total merge work — per-side
    // extends + chunk fold + mixture merge — is pinned exactly, and the
    // combined radix+merge work stays under the pairwise baseline.
    let wide_members = wide_family();
    let m = wide_members.len() as u64;
    let (report, snap) = scoped(|| {
        let (_, report) = est.estimate_with_report(&bitp, &wide_members, &baseline);
        report
    });
    let sorted = snap.work_counter("exec.keys_sorted");
    let merged = snap.work_counter("exec.keys_merged");
    // The unreachable tolerance makes the budget schedule deterministic:
    // batch 1 draws the initial 64, the support projection then jumps
    // straight to the cap.
    assert_eq!(report.batches, 2, "want the two-batch schedule: {report:?}");
    assert_eq!(report.samples_per_side, cap);
    let deltas = [64u64, cap as u64 - 64];
    let mut expect_merged = 0u64;
    let mut kway_fold = 0u64;
    let mut pairwise_fold = 0u64;
    let mut drawn = 0u64;
    let mut mixture_len = 0u64;
    for delta in deltas {
        // Each side merges its sorted chunk into its persistent keys...
        expect_merged += (m + 1) * (drawn + delta);
        // ...the k-way fold writes the m member chunks once...
        expect_merged += m * delta;
        kway_fold += m * delta;
        // ...and the folded delta merges into the persistent mixture.
        expect_merged += mixture_len + m * delta;
        drawn += delta;
        mixture_len += m * delta;
        // The pairwise chain this replaced: fold step i copies i·Δ + Δ.
        pairwise_fold += (1..=m).map(|i| i * delta).sum::<u64>();
    }
    assert_eq!(
        merged, expect_merged,
        "adaptive merge work must be extends + one k-way fold + mixture \
         merge per batch ({} batches): {report:?}",
        report.batches
    );
    let merged_pairwise_baseline = expect_merged - kway_fold + pairwise_fold;
    assert!(
        merged < merged_pairwise_baseline,
        "k-way fold ({merged}) must beat the pairwise chain \
         ({merged_pairwise_baseline})"
    );
    assert_eq!(sorted, (m + 1) * cap as u64, "sort work stays 1× per side");
    assert!(
        sorted + merged <= sorted + merged_pairwise_baseline,
        "total radix+merge work must stay within the pairwise baseline"
    );
}

/// Two adaptive runs on two threads, each under its own registry: each
/// run's work fingerprint, `kernel.words.*` included, is the one the
/// same run records alone.
#[test]
fn concurrent_runs_count_only_their_own_work() {
    let (members, baseline) = family();
    let wide_members = wide_family();
    let est = AdaptiveEstimator::new(1e-9, 64, 2048, 0xFEED);
    let bitp = FnProtocol::new(2, 3, 6, |_, input, tr| (input >> (tr.len() / 2)) & 1 == 1);
    let widep = FnWideProtocol::new(2, 3, 2, 6, |_, input, tr| (input >> (tr.len() % 2)) & 0b11);
    let bit_run = || est.estimate_with_report(&bitp, &members, &baseline);
    let wide_run = || est.estimate_with_report(&widep, &wide_members, &baseline);
    let fingerprint = |snap: Snapshot| snap.work_fingerprint();
    let bit_alone = fingerprint(scoped(bit_run).1);
    let wide_alone = fingerprint(scoped(wide_run).1);
    assert!(
        bit_alone.contains(&("exec.keys_sorted".to_string(), 3 * 2048)),
        "{bit_alone:?}"
    );
    assert_ne!(bit_alone, wide_alone, "the two runs must differ in work");
    for _ in 0..4 {
        let (bit, wide) = std::thread::scope(|s| {
            let bit = s.spawn(|| fingerprint(scoped(bit_run).1));
            let wide = s.spawn(|| fingerprint(scoped(wide_run).1));
            (bit.join().unwrap(), wide.join().unwrap())
        });
        assert_eq!(bit, bit_alone, "the bit run, beside the wide run");
        assert_eq!(wide, wide_alone, "the wide run, beside the bit run");
    }
}

/// Both exact walks record the same work, `kernel.words.*` included, on
/// pools of 4 threads and of 1: a task's kernel words reach the caller's
/// scope from whichever worker thread ran it. Rows of 8 bits keep the
/// consistent sets dense, so the tasks run word kernels. The pool of 4
/// runs its tasks on worker threads whatever the host's core count.
#[test]
fn exact_walks_count_the_same_work_in_both_modes() {
    let row =
        |keep: fn(u64) -> bool| RowSupport::explicit(8, (0..256).filter(|&x| keep(x)).collect());
    let members = vec![
        ProductInput::new(vec![row(|x| x % 3 != 0), RowSupport::uniform(8)]),
        ProductInput::new(vec![RowSupport::uniform(8), row(|x| x % 5 != 1)]),
    ];
    let baseline = ProductInput::uniform(2, 8);
    let p = FnProtocol::new(2, 8, 10, |proc, input, tr| {
        (input >> ((tr.len() as usize + proc) % 8)) & 1 == (tr.as_u64() & 1)
    });
    let optimized = || scoped(|| ExactEstimator.estimate(&p, &members, &baseline)).1;
    let reference = || scoped(|| exact_mixture_comparison_reference(&p, &members, &baseline)).1;
    for (four, one) in [
        (pool(4, optimized), pool(1, optimized)),
        (pool(4, reference), pool(1, reference)),
    ] {
        let kernel_words = four
            .work
            .iter()
            .filter(|(n, _)| n.starts_with("kernel.words."));
        assert!(kernel_words.map(|(_, words)| words).sum::<u64>() > 0);
        assert_eq!(four.work_fingerprint(), one.work_fingerprint());
    }
}
