//! Helpers shared by the differential-style integration suites
//! (`differential.rs`, `obs_differential.rs`, `prop.rs`, `work.rs`,
//! `alloc.rs`): the seeded protocol constructions, the fixed-budget
//! sampler, the pool-size runner and the bitwise profile comparison they
//! pin against.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use bcc_congest::wide::FnWideProtocol;
use bcc_core::{AdaptiveEstimator, DepthProfile, ProductInput, RowSupport};

/// The seeded pseudo-random decision shared with `tests/prop.rs`: one bit
/// per `(proc, input, transcript length, packed transcript)` query, so
/// "arbitrary protocol" tests are reproducible.
pub fn decision_bit(seed: u64, proc: usize, input: u64, len: u32, packed: u64) -> bool {
    let mut z = seed
        .wrapping_add(input.wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add((proc as u64) << 24)
        .wrapping_add(u64::from(len) << 48)
        .wrapping_add(packed.wrapping_mul(0xBF58476D1CE4E5B9));
    z ^= z >> 29;
    z = z.wrapping_mul(0x94D049BB133111EB);
    (z >> 33) & 1 == 1
}

/// An arbitrary deterministic `BCAST(w)` protocol seeded by `seed`.
pub fn wide_protocol(
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

/// Runs `f` on a rayon pool of `threads` workers. Every pool size must
/// give bitwise-identical results.
pub fn pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build the rayon pool")
        .install(f)
}

/// A fixed budget of `samples` per side: the adaptive sampler with
/// initial budget = cap runs exactly one batch.
pub fn fixed_budget(samples: usize, seed: u64) -> AdaptiveEstimator {
    AdaptiveEstimator::new(0.0, samples, samples, seed)
}

/// A two-member family plus baseline over `bits`-bit rows (small supports
/// keep the exact walk's *live* tree tiny even at the deepest horizons,
/// so the budget-boundary walks finish in milliseconds).
pub fn small_family() -> (Vec<ProductInput>, ProductInput) {
    let members = vec![
        ProductInput::new(vec![
            RowSupport::explicit(3, vec![1, 3, 5, 7]),
            RowSupport::uniform(3),
        ]),
        ProductInput::new(vec![
            RowSupport::uniform(3),
            RowSupport::explicit(3, vec![0, 2, 6]),
        ]),
    ];
    (members, ProductInput::uniform(2, 3))
}

/// Asserts every number of two depth profiles is bitwise identical.
pub fn assert_profile_bitwise_eq(a: &DepthProfile, b: &DepthProfile, what: &str) {
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
    assert_eq!(a.provenance, b.provenance, "{what}: provenance");
}
