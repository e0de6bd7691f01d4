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
//!    task — equal across thread counts (at equal frontier split depth).
//!    The rayon pool is process-wide, so the runner re-executes this
//!    binary as one worker subprocess per thread count and compares
//!    fingerprints of the full sorted counter set.

use bcc_core::exec::{AdaptiveEstimator, Estimator, ExactEstimator};
use bcc_core::DepthProfile;

mod common;
use common::{assert_profile_bitwise_eq, decision_bit, fixed_budget, small_family, wide_protocol};

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
    let (bit_adaptive, _) = est.estimate_with_report(&bitp, &members, &baseline, 9);
    let (wide_adaptive, _) = est.estimate_with_report(&widep, &members, &baseline, 8);
    vec![
        (
            "exact bit",
            ExactEstimator::default().estimate_full(&bitp, &members, &baseline),
        ),
        (
            "exact wide",
            ExactEstimator::default().estimate_full(&widep, &members, &baseline),
        ),
        (
            "single-batch bit",
            fixed_budget(6_000, 0xAB).estimate_full(&bitp, &members, &baseline),
        ),
        (
            "single-batch wide",
            fixed_budget(4_096, 0x5EED).estimate_full(&widep, &members, &baseline),
        ),
        ("multi-batch bit", bit_adaptive),
        ("multi-batch wide", wide_adaptive),
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

/// FNV-1a over the sorted `(name, value)` work-counter set.
fn fingerprint_hash(fp: &[(String, u64)]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for (name, value) in fp {
        for &b in name.as_bytes() {
            mix(u64::from(b));
        }
        mix(*value);
    }
    h
}

/// Worker half: runs the suite under an installed registry
/// and prints the work-counter fingerprint for the runner to compare.
#[test]
#[ignore = "worker spawned by work_counters_are_thread_invariant"]
fn obs_fingerprint_worker() {
    let registry = bcc_obs::Registry::new();
    let scope = registry.install();
    let _ = suite_profiles();
    drop(scope);
    let snap = registry.snapshot();
    let fp = snap.work_fingerprint();
    assert!(
        snap.work_counter("walk.nodes") > 0,
        "worker must observe walk work"
    );
    println!(
        "OBS_WORK_FINGERPRINT {} {} {:016x}",
        rayon::current_num_threads(),
        fp.len(),
        fingerprint_hash(&fp)
    );
}

/// Runner half: `RAYON_NUM_THREADS ∈ {1, 4}` (both map to the same
/// frontier split depth, see `split_depth_for_threads`); both workers'
/// deterministic work fingerprints must be identical.
#[test]
fn work_counters_are_thread_invariant() {
    let exe = std::env::current_exe().expect("test binary path");
    let mut rows: Vec<(String, u64)> = Vec::new();
    for threads in ["1", "4"] {
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                "obs_fingerprint_worker",
                "--ignored",
                "--nocapture",
            ])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("spawn fingerprint worker");
        assert!(
            out.status.success(),
            "worker under RAYON_NUM_THREADS={threads} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let at = stdout
            .find("OBS_WORK_FINGERPRINT")
            .unwrap_or_else(|| panic!("no fingerprint line in worker output:\n{stdout}"));
        let mut parts = stdout[at..].split_whitespace().skip(1);
        let got_threads = parts.next().expect("thread count").to_string();
        let entries: usize = parts.next().expect("entry count").parse().expect("count");
        let fp = u64::from_str_radix(parts.next().expect("fingerprint"), 16).expect("hex");
        assert_eq!(got_threads, threads, "worker saw the requested pool size");
        assert!(entries > 0, "fingerprint must cover counters");
        rows.push((format!("{got_threads}t"), fp));
    }
    let first = rows[0].1;
    assert!(
        rows.iter().all(|(_, fp)| *fp == first),
        "work fingerprints must agree across thread counts: {rows:?}"
    );
}
