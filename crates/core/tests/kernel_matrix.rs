//! The kernel matrix: the differential suite's sampled-vs-exact sweep,
//! fingerprinted once per F2 word kernel and compared bit for bit.
//!
//! `bcc_f2::kernel` promises lane width is observationally invisible —
//! `BCC_KERNEL=scalar` and `BCC_KERNEL=avx2` runs of any computation in
//! this workspace must agree bitwise. The f2 property tests pin that
//! per kernel method; this binary pins it **end to end**: the runner
//! test re-executes itself as a subprocess per kernel (the kernel choice
//! is a process-wide `OnceLock`, so a matrix needs one process per
//! kernel), each worker folds every number produced by exact walks,
//! one-shot samplers, and adaptive runs across the width grid into a
//! 64-bit fingerprint, and the fingerprints must coincide.
//!
//! On hosts without AVX2 (or off `x86_64` entirely) the matrix has one
//! column and the runner skips with a visible notice.

use bcc_congest::TurnProtocol;
use bcc_core::exec::{AdaptiveEstimator, Estimator, ExactEstimator, SampledEstimator};
use bcc_core::{wide_walk_nodes, MAX_WIDE_NODES};
use bcc_f2::kernel::{self, WordKernel};

mod common;
use common::{decision_bit, fold_profile, small_family, wide_protocol};

/// Folds the whole sweep — exact and sampled, bit and wide, one-shot and
/// adaptive — into one order-sensitive fingerprint under the process's
/// active kernel.
fn suite_fingerprint() -> u64 {
    let (members, baseline) = small_family();
    let mut h = 0xCBF2_9CE4_8422_2325u64;

    // Exact + sampled across the wide width grid (inside the exact
    // node budget, including each width's boundary horizon).
    let grid: &[(u32, &[u32])] = &[(1, &[6, 12, 25]), (2, &[4, 8, 12]), (3, &[3, 5, 8])];
    for &(w, horizons) in grid {
        for &t in horizons {
            assert!(wide_walk_nodes(w, t) <= MAX_WIDE_NODES);
            let p = wide_protocol(2, 3, w, t, 0xD1FF ^ (u64::from(w) << 8) ^ u64::from(t));
            let exact = ExactEstimator::default().estimate_full(&p, &members, &baseline);
            fold_profile(&mut h, &exact);
            let sampled = SampledEstimator::new(4_096, 0x5EED ^ u64::from(w * 31 + t))
                .estimate_full(&p, &members, &baseline);
            fold_profile(&mut h, &sampled);
        }
    }

    // A bit protocol through its width-1 view (exact, one-shot sampled,
    // adaptive) plus a width-2 adaptive run.
    let seed = 0xB17;
    let bitp = bcc_congest::FnProtocol::new(2, 3, 9, move |proc, input, tr| {
        decision_bit(seed, proc, input, tr.len(), tr.as_u64())
    });
    let widep = wide_protocol(2, 3, 2, 9, 0xA5A5);
    fold_profile(
        &mut h,
        &ExactEstimator::default().estimate_full(&bitp.as_wide(), &members, &baseline),
    );
    fold_profile(
        &mut h,
        &SampledEstimator::new(6_000, 0xAB).estimate_full(&bitp.as_wide(), &members, &baseline),
    );
    let est = AdaptiveEstimator::new(1e-9, 50, 1600, 0xCD);
    let (bit_a, bit_r) = est.estimate_with_report(&bitp.as_wide(), &members, &baseline, 9);
    assert!(bit_r.batches > 1, "want a multi-batch adaptive run");
    fold_profile(&mut h, &bit_a);
    let (wide_a, _) = est.estimate_with_report(&widep, &members, &baseline, 9);
    fold_profile(&mut h, &wide_a);
    h
}

/// Worker half: runs the sweep under whatever kernel `BCC_KERNEL`
/// selected and prints the fingerprint for the runner to compare.
/// `#[ignore]`d so a plain `cargo test` runs the sweep once (via the
/// runner), not three times.
#[test]
#[ignore = "worker spawned by differential_sweep_is_kernel_invariant"]
fn kernel_fingerprint_worker() {
    println!(
        "KERNEL_FINGERPRINT {} {:016x}",
        kernel::active().name(),
        suite_fingerprint()
    );
}

/// Runner half: one worker subprocess per kernel, fingerprints compared
/// bit for bit.
#[cfg(target_arch = "x86_64")]
#[test]
fn differential_sweep_is_kernel_invariant() {
    if kernel::Kernel::avx2().is_none() {
        eprintln!(
            "SKIP kernel matrix: host has no AVX2, scalar is the only kernel \
             (the sweep itself still runs under BCC_KERNEL=scalar in CI)"
        );
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut rows: Vec<(String, u64)> = Vec::new();
    for want in ["scalar", "avx2"] {
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                "kernel_fingerprint_worker",
                "--ignored",
                "--nocapture",
            ])
            .env("BCC_KERNEL", want)
            .output()
            .expect("spawn fingerprint worker");
        assert!(
            out.status.success(),
            "worker under BCC_KERNEL={want} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        // The harness may print its own "test ... " prefix on the same
        // line, so locate the marker anywhere in the stream.
        let at = stdout
            .find("KERNEL_FINGERPRINT")
            .unwrap_or_else(|| panic!("no fingerprint line in worker output:\n{stdout}"));
        let mut parts = stdout[at..].split_whitespace().skip(1);
        let name = parts.next().expect("kernel name").to_string();
        let fp = u64::from_str_radix(parts.next().expect("fingerprint"), 16).expect("hex");
        assert_eq!(name, want, "worker must run under the requested kernel");
        rows.push((name, fp));
    }
    assert_eq!(
        rows[0].1, rows[1].1,
        "scalar and avx2 fingerprints must be bitwise identical: {rows:?}"
    );
}

/// Off `x86_64` the scalar kernel is the only column; say so visibly
/// rather than reporting a vacuous pass silently.
#[cfg(not(target_arch = "x86_64"))]
#[test]
fn differential_sweep_is_kernel_invariant() {
    eprintln!("SKIP kernel matrix: scalar is the only kernel on this target");
}
