//! E20 (extension) — the exact-walk hot path, measured.
//!
//! The walk overhaul (per-speaker label planes, pooled zero-allocation
//! workspace, hybrid dense/sparse consistent sets) promises measured
//! wins, not vibes. This bench times the before/after pairs —
//!
//! * **partition**: a decomposition-family walk whose members share
//!   every unplanted row's `Arc` with the baseline, seed walk vs label
//!   planes (a bit protocol, and a width-2 protocol), plus both
//!   protocols' messages written as masked parities, which the walk
//!   splits by input bit planes (`bit_walk/parity`, `wide_walk/parity`);
//! * **intersect**: one consistent-set split at 2^17-point support with
//!   512 live points, dense mask vs sparse index list;
//! * **huge-support**: the 2^18-support/16-live-point walk only the
//!   sparse path can price sanely (the seed walk is not run here — its
//!   projected cost is reported instead);
//! * **kernel loops**: the F2 word-kernel hot loops (dense intersect,
//!   label-plane partition, radix passes) timed on their own, so their
//!   cost is tracked from change to change;
//! * **transcript sort**: the sampled estimator's key sort, comparison
//!   sort vs the hybrid radix sort on packed prefix keys at 12 and 32
//!   transcript bits — 32 bits is four varying bytes, the widest shape
//!   the hybrid still radix-sorts (`RADIX_MAX_VARYING_BYTES` in
//!   `bcc_core::sample`);
//!
//! — and persists everything to `BENCH_walk.json` (override the path
//! with `BCC_BENCH_WALK_OUT`), so the perf trajectory of the walk has
//! machine-readable data from change to change (schema
//! `bcc-bench-walk/v4`). `--smoke` shrinks the workloads for CI but
//! still exercises every scenario and writes the file. Every row runs on
//! a one-thread rayon pool, so the walk timings are single-thread costs.

use std::time::Instant;

use bcc_bench::{banner, f, print_table};
use bcc_congest::wide::{FnWideProtocol, ParityProtocol};
use bcc_congest::FnProtocol;
use bcc_core::{
    exact_mixture_comparison_reference, radix_sort_u64, Estimator, ExactEstimator, ProductInput,
    RowSupport,
};
use bcc_f2::kernel::{self, WordKernel};
use bcc_f2::{BitVec, ConsistentSet};
use bcc_obs::json::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A decomposition family in the shape the paper produces: `members`
/// inputs that differ from the uniform baseline in one planted row and
/// share every other row's `Arc` with it ([`ProductInput::with_row`]) —
/// the shape whose per-node protocol evaluations the walk's label planes
/// deduplicate.
fn shared_family(n: usize, bits: u32, members: usize) -> (Vec<ProductInput>, ProductInput) {
    let baseline = ProductInput::uniform(n, bits);
    let size = 1u64 << bits;
    let members = (0..members as u64)
        .map(|i| {
            baseline.with_row(
                0,
                RowSupport::explicit(bits, (0..size).filter(|x| (x ^ i) % 3 != 0).collect()),
            )
        })
        .collect();
    (members, baseline)
}

/// The dense-vs-sparse intersect scenario: a random label plane over a
/// `universe`-point support, plus one consistent set of `live` evenly
/// strided points, both as the sparse hybrid set and as the dense mask
/// the seed representation would have kept.
fn intersect_fixture(universe: usize, live: usize) -> (Vec<u64>, ConsistentSet, BitVec) {
    let mut rng = StdRng::seed_from_u64(bcc_bench::SEED);
    let plane: Vec<u64> = (0..universe.div_ceil(64)).map(|_| rng.gen()).collect();
    let idxs: Vec<u32> = (0..live as u32)
        .map(|i| i * (universe / live) as u32)
        .collect();
    let sparse = ConsistentSet::from_indices(universe, &idxs);
    assert!(sparse.is_sparse(), "fixture must exercise the sparse path");
    let mut mask = BitVec::zeros(universe);
    for &i in &idxs {
        mask.set(i as usize, true);
    }
    (plane, sparse, mask)
}

/// `len` packed prefix keys of a `bits`-bit transcript, as the sampler
/// sorts them: random low bits, bit-reversed so the transcript fills the
/// top `bits` and the low `64 − bits` stay zero.
fn transcript_keys(len: usize, bits: u32, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| (rng.gen::<u64>() & ((1u64 << bits) - 1)).reverse_bits())
        .collect()
}

/// One measured scenario: mean wall-clock nanoseconds per iteration.
struct Measurement {
    name: &'static str,
    ns_per_iter: f64,
    iters: u64,
}

/// Times `routine` for at least `min_iters` iterations and ~`budget_ms`
/// of wall clock, after one warmup call.
fn measure<T>(
    name: &'static str,
    min_iters: u64,
    budget_ms: u64,
    mut routine: impl FnMut() -> T,
) -> Measurement {
    std::hint::black_box(routine());
    let budget = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < min_iters || (start.elapsed() < budget) {
        std::hint::black_box(routine());
        iters += 1;
    }
    Measurement {
        name,
        ns_per_iter: start.elapsed().as_secs_f64() * 1e9 / iters as f64,
        iters,
    }
}

/// Times `a` and `b` in `rounds` alternating rounds of ~`budget_ms / rounds`
/// each, so host drift hits both alike. Returns both totals and the
/// median of the per-round `a / b` time ratios.
fn measure_paired<T, U>(
    names: (&'static str, &'static str),
    rounds: u32,
    budget_ms: u64,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> U,
) -> (Measurement, Measurement, f64) {
    let slice = budget_ms / u64::from(rounds);
    let mut rows = Vec::new();
    for _ in 0..rounds {
        rows.push((
            measure(names.0, 1, slice, &mut a),
            measure(names.1, 1, slice, &mut b),
        ));
    }
    let mut ratios: Vec<f64> = rows
        .iter()
        .map(|(x, y)| x.ns_per_iter / y.ns_per_iter)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let total = |name, pick: fn(&(Measurement, Measurement)) -> &Measurement| {
        let iters: u64 = rows.iter().map(|r| pick(r).iters).sum();
        let ns: f64 = rows
            .iter()
            .map(|r| pick(r).ns_per_iter * pick(r).iters as f64)
            .sum();
        Measurement {
            name,
            ns_per_iter: ns / iters as f64,
            iters,
        }
    };
    (
        total(names.0, |r| &r.0),
        total(names.1, |r| &r.1),
        ratios[ratios.len() / 2],
    )
}

/// A float rounded to `digits` decimals, so the file stays readable.
fn rounded(x: f64, digits: i32) -> Value {
    let scale = 10f64.powi(digits);
    Value::float_lenient((x * scale).round() / scale)
}

fn write_json(
    path: &str,
    smoke: bool,
    measurements: &[Measurement],
    speedups: &[(&str, f64)],
    notes: &[(&str, String)],
) {
    let scenarios = measurements
        .iter()
        .map(|m| {
            Value::object([
                ("name", m.name.into()),
                ("ns_per_iter", rounded(m.ns_per_iter, 1)),
                ("iters", m.iters.into()),
            ])
        })
        .collect();
    let doc = Value::object([
        ("schema", "bcc-bench-walk/v4".into()),
        ("smoke", smoke.into()),
        ("scenarios", scenarios),
        (
            "speedups",
            Value::object(speedups.iter().map(|&(name, x)| (name, rounded(x, 2)))),
        ),
        (
            "notes",
            Value::object(
                notes
                    .iter()
                    .map(|(name, value)| (*name, value.as_str().into())),
            ),
        ),
    ]);
    std::fs::write(path, format!("{doc}\n")).expect("write BENCH_walk.json");
    println!("\nwrote {path}");
}

fn main() {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build the one-thread pool")
        .install(run);
}

fn run() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--test");
    banner(
        "E20 (extension): exact-walk hot path",
        "perf",
        "label planes + pooled workspace + hybrid sets vs the seed walk, measured",
    );

    let budget: u64 = if smoke { 40 } else { 400 };

    // -- partition: width 1, Arc-sharing decomposition family -----------
    let (members, baseline) = shared_family(4, 8, if smoke { 3 } else { 6 });
    let horizon = if smoke { 8 } else { 10 };
    let proto = FnProtocol::new(4, 8, horizon, |proc, input, tr| {
        let mask = 0xB5u64 ^ tr.as_u64() ^ ((proc as u64) << 2);
        (input & mask).count_ones() % 2 == 1
    });
    let seed_bit = measure("bit_walk/seed", 3, budget, || {
        exact_mixture_comparison_reference(&proto, &members, &baseline)
    });
    let new_bit = measure("bit_walk/overhauled", 3, budget, || {
        ExactEstimator.estimate(&proto, &members, &baseline)
    });
    // Sanity: the walks must agree exactly before their times mean
    // anything.
    {
        let a = exact_mixture_comparison_reference(&proto, &members, &baseline);
        let b = ExactEstimator.estimate(&proto, &members, &baseline);
        assert_eq!(a.tv().to_bits(), b.tv().to_bits(), "walks disagree");
    }
    let partition_speedup = seed_bit.ns_per_iter / new_bit.ns_per_iter;
    // The same messages as masked parities: one label plane per node.
    let pbit = ParityProtocol::new(4, 8, 1, horizon, |proc, tr, _| {
        0xB5u64 ^ tr.as_u64() ^ ((proc as u64) << 2)
    });
    let parity_bit = measure("bit_walk/parity", 3, budget, || {
        ExactEstimator.estimate(&pbit, &members, &baseline)
    });
    {
        let a = ExactEstimator.estimate(&proto, &members, &baseline);
        let b = ExactEstimator.estimate(&pbit, &members, &baseline);
        assert_eq!(
            a.tv().to_bits(),
            b.tv().to_bits(),
            "bit parity walk disagrees"
        );
    }
    let parity_bit_speedup = new_bit.ns_per_iter / parity_bit.ns_per_iter;

    // -- partition: width 2 ----------------------------------------------
    let (wmembers, wbaseline) = shared_family(3, 8, if smoke { 2 } else { 4 });
    let wproto = FnWideProtocol::new(3, 8, 2, if smoke { 4 } else { 5 }, |proc, input, tr| {
        let mask = 0x6Du64 ^ tr.as_u64() ^ (proc as u64);
        ((input & mask).count_ones() % 2) as u64 * 2 + ((input >> tr.len()) & 1)
    });
    let seed_wide = measure("wide_walk/seed", 3, budget, || {
        exact_mixture_comparison_reference(&wproto, &wmembers, &wbaseline)
    });
    let new_wide = measure("wide_walk/overhauled", 3, budget, || {
        ExactEstimator.estimate(&wproto, &wmembers, &wbaseline)
    });
    let wide_speedup = seed_wide.ns_per_iter / new_wide.ns_per_iter;
    // The same messages as masked parities: bit 0 is input bit `len`,
    // bit 1 the masked parity above, so the walk splits by label planes.
    let pproto = ParityProtocol::new(3, 8, 2, if smoke { 4 } else { 5 }, |proc, tr, b| {
        if b == 0 {
            1 << tr.len()
        } else {
            0x6Du64 ^ tr.as_u64() ^ (proc as u64)
        }
    });
    let parity_wide = measure("wide_walk/parity", 3, budget, || {
        ExactEstimator.estimate(&pproto, &wmembers, &wbaseline)
    });
    {
        let a = ExactEstimator.estimate(&wproto, &wmembers, &wbaseline);
        let b = ExactEstimator.estimate(&pproto, &wmembers, &wbaseline);
        assert_eq!(a.tv().to_bits(), b.tv().to_bits(), "parity walk disagrees");
    }
    let parity_speedup = new_wide.ns_per_iter / parity_wide.ns_per_iter;

    // -- intersect: dense mask vs sparse index list --------------------
    let universe = 1usize << 17;
    let live = 512usize;
    let (plane, sparse, mask) = intersect_fixture(universe, live);
    let dense_time = measure("intersect/dense_mask", 64, budget, || {
        let out = mask.clone();
        let mut count = 0usize;
        for (w, &p) in out.as_words().iter().zip(&plane) {
            count += (w & p).count_ones() as usize;
        }
        count
    });
    let mut out_set = ConsistentSet::empty(universe);
    let sparse_time = measure("intersect/sparse_indices", 64, budget, || {
        out_set.assign_filtered(&sparse, &plane, true);
        out_set.count()
    });
    let intersect_speedup = dense_time.ns_per_iter / sparse_time.ns_per_iter;

    // -- the F2 word-kernel loops on their own -------------------------
    let full_parent = ConsistentSet::full(universe);
    let mut kernel_out = ConsistentSet::empty(universe);
    let mask_words: Vec<u64> = mask.as_words().to_vec();
    // Transcript-shaped, so the hybrid takes its counting passes: full
    // 64-bit keys vary in all eight bytes and would time its fallback.
    let radix_keys = transcript_keys(if smoke { 1 << 12 } else { 1 << 16 }, 12, bcc_bench::SEED);
    let k_int_scalar = measure("kernel_intersect/scalar", 64, budget, || {
        kernel::active().filter_count(&mask_words, &plane, true)
    });
    let k_part_scalar = measure("kernel_partition/scalar", 16, budget, || {
        kernel_out.assign_filtered(&full_parent, &plane, true);
        kernel_out.count()
    });
    let k_radix_scalar = measure("kernel_radix/scalar", 8, budget, || {
        let mut keys = radix_keys.clone();
        radix_sort_u64(&mut keys);
        keys.len()
    });

    // -- transcript sort: comparison sort vs the hybrid radix sort ------
    // The sampled estimator's key sort at two depths: two varying bytes,
    // and four, the widest shape the hybrid still radix-sorts.
    let sort_len = if smoke { 1usize << 12 } else { 1 << 17 };
    let mut sort_rows = Vec::new();
    let mut sort_speedups = Vec::new();
    for (bits, names, speedup) in [
        (
            12,
            (
                "transcript_sort/std_unstable_h12",
                "transcript_sort/radix_h12",
            ),
            "transcript_sort_h12",
        ),
        (
            32,
            (
                "transcript_sort/std_unstable_h32",
                "transcript_sort/radix_h32",
            ),
            "transcript_sort_h32",
        ),
    ] {
        let keys = transcript_keys(sort_len, bits, u64::from(bits));
        let (std_row, radix_row, ratio) = measure_paired(
            names,
            5,
            budget,
            || {
                let mut v = keys.clone();
                v.sort_unstable();
                v
            },
            || {
                let mut v = keys.clone();
                radix_sort_u64(&mut v);
                v
            },
        );
        sort_rows.extend([std_row, radix_row]);
        sort_speedups.push((speedup, ratio));
    }

    // -- huge support, tiny alive: only the sparse path is priced sanely
    let hbits: u32 = if smoke { 14 } else { 18 };
    let hhorizon: u32 = if smoke { 10 } else { 14 };
    let hproto = FnProtocol::new(1, hbits, hhorizon, |_, input, tr| {
        (input >> tr.len()) & 1 == 1
    });
    let ha = ProductInput::new(vec![RowSupport::explicit(hbits, (0..16).collect())]);
    let hbase = ProductInput::uniform(1, hbits);
    let huge = measure("huge_support/overhauled_only", 1, budget, || {
        ExactEstimator.estimate(&hproto, std::slice::from_ref(&ha), &hbase)
    });
    // What the dense representation would pay per node regardless of
    // occupancy: words touched across the full live tree.
    let dense_words_projected = (1u64 << (hhorizon + 1)) * (1u64 << hbits) / 64 * 2;

    let mut measurements = vec![
        seed_bit,
        new_bit,
        parity_bit,
        seed_wide,
        new_wide,
        parity_wide,
        dense_time,
        sparse_time,
        huge,
        k_int_scalar,
        k_part_scalar,
        k_radix_scalar,
    ];
    measurements.extend(sort_rows);

    println!();
    print_table(
        &["scenario", "ns/iter", "iters"],
        &measurements
            .iter()
            .map(|m| {
                vec![
                    m.name.to_string(),
                    format!("{:.1}", m.ns_per_iter),
                    m.iters.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!();
    let mut speedup_rows = vec![
        vec!["partition (w = 1)".into(), f(partition_speedup)],
        vec!["partition (w = 2)".into(), f(wide_speedup)],
        vec![
            "parity planes vs messages (w = 1)".into(),
            f(parity_bit_speedup),
        ],
        vec![
            "parity planes vs messages (w = 2)".into(),
            f(parity_speedup),
        ],
        vec!["intersect (dense vs sparse)".into(), f(intersect_speedup)],
    ];
    for &(name, ratio) in &sort_speedups {
        speedup_rows.push(vec![format!("{name} (std vs radix)"), f(ratio)]);
    }
    print_table(&["speedup", "x"], &speedup_rows);

    // -- headline work counters of one representative run ---------------
    // A timing without its work denominator is hard to compare across
    // machines, so one scoped pass over the overhauled bit walk plus one
    // radix sort records nodes and kernel words, and the note carries the
    // sort's key count, alongside the nanoseconds.
    let work_registry = bcc_obs::Registry::new();
    {
        let _scope = work_registry.install();
        let _ = ExactEstimator.estimate(&proto, &members, &baseline);
        let mut keys = radix_keys.clone();
        radix_sort_u64(&mut keys);
        std::hint::black_box(keys);
    }
    let work = work_registry.snapshot();
    assert!(
        work.work_counter("kernel.words.bytes") > 0,
        "kernel_radix keys took the comparison-sort fallback, not the radix passes"
    );
    let kernel_words: u64 = work
        .work
        .iter()
        .filter(|(name, _)| name.starts_with("kernel.words."))
        .map(|&(_, words)| words)
        .sum();

    // Default to the workspace root (cargo bench runs in crates/bench)
    // so the committed baseline is where readers look for it.
    let path = std::env::var("BCC_BENCH_WALK_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_walk.json").into());
    let mut speedups = vec![
        ("partition_bit", partition_speedup),
        ("partition_wide", wide_speedup),
        ("parity_bit", parity_bit_speedup),
        ("parity_wide", parity_speedup),
        ("intersect", intersect_speedup),
    ];
    speedups.extend(sort_speedups);
    write_json(
        &path,
        smoke,
        &measurements,
        &speedups,
        &[
            (
                "huge_support_case",
                format!(
                    "2^{hbits} support, 16 live after turn 0, horizon {hhorizon}; dense pricing would touch ~{dense_words_projected} words"
                ),
            ),
            (
                "acceptance",
                "partition/intersect >= 2.0; partition_wide >= 2.0".into(),
            ),
            // One representative bit walk + one radix pass, from bcc_obs.
            (
                "work_walk_nodes",
                work.work_counter("walk.nodes").to_string(),
            ),
            (
                "work_walk_live_points",
                work.work_counter("walk.live_points").to_string(),
            ),
            ("work_kernel_words", kernel_words.to_string()),
            ("work_keys_sorted", radix_keys.len().to_string()),
        ],
    );

    assert!(
        smoke || (partition_speedup >= 2.0 && intersect_speedup >= 2.0),
        "hot-path speedups regressed below 2x: partition {partition_speedup:.2}, \
         intersect {intersect_speedup:.2}"
    );
    assert!(
        smoke || wide_speedup >= 2.0,
        "wide partition speedup regressed below 2x: {wide_speedup:.2}"
    );
}
