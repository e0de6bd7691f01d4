//! Allocation accounting for the exact-walk and sampler hot paths.
//!
//! The overhauled walk promises **zero per-node heap allocations in the
//! steady-state recursion**: all child sets live in pooled per-depth
//! slots, all scratch vectors are reused, and only the one-time
//! workspace setup plus the frontier snapshots allocate. This test pins
//! that property with a counting global allocator: growing the tree by
//! 16× (two extra full binary levels per distribution pair) must leave
//! the allocation count essentially unchanged, while the retained seed
//! walk — which allocates fresh masks at every node — scales its count
//! with the node total. A width-2 full-tree walk, whose every node takes
//! the counted non-binary split, is pinned the same way (two extra 4-ary
//! levels), and so is the same tree under a parity protocol, whose dense
//! sets split by label planes. The samplers make the same promise per
//! transcript: drawing 16× more samples per side must not add
//! allocations beyond the per-side key arrays, for the estimators and for
//! the pair sampler fed by buffer-refilling closures alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bcc_congest::wide::{FnWideProtocol, ParityProtocol};
use bcc_congest::FnProtocol;
use bcc_core::{
    exact_mixture_comparison_reference, sampled_comparison_with, Estimator, ExactEstimator,
    ProductInput, RowSupport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{fixed_budget, pool};

struct CountingAlloc;

// bcc-lint: allow(no-global-mutable-state, reason = "the counting allocator's tally; read only via relaxed before/after deltas in this test")
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// bcc-lint: allow(no-unsafe, reason = "GlobalAlloc is an unsafe trait; this impl only counts and delegates to System")
unsafe impl GlobalAlloc for CountingAlloc {
    // bcc-lint: allow(no-unsafe, reason = "signature required by GlobalAlloc")
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // bcc-lint: allow(no-unsafe, reason = "forwards the caller's contract to the System allocator verbatim")
        unsafe { System.alloc(layout) }
    }

    // bcc-lint: allow(no-unsafe, reason = "signature required by GlobalAlloc")
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // bcc-lint: allow(no-unsafe, reason = "forwards the caller's contract to the System allocator verbatim")
        unsafe { System.dealloc(ptr, layout) }
    }

    // bcc-lint: allow(no-unsafe, reason = "signature required by GlobalAlloc")
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // bcc-lint: allow(no-unsafe, reason = "forwards the caller's contract to the System allocator verbatim")
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

// bcc-lint: allow(no-global-mutable-state, reason = "serializes this binary's tests so one test's allocations never land in another's before/after delta")
static SERIAL: Mutex<()> = Mutex::new(());

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// A full binary tree: every turn broadcasts a fresh uniform input bit,
/// so all `2^horizon` leaves are live and the node count is exact.
fn full_tree_walk(horizon: u32, reference: bool) -> f64 {
    let p = FnProtocol::new(1, 12, horizon, |_, input, tr| (input >> tr.len()) & 1 == 1);
    let a = ProductInput::uniform(1, 12);
    let b = ProductInput::uniform(1, 12);
    let members = std::slice::from_ref(&a);
    if reference {
        exact_mixture_comparison_reference(&p, members, &b).tv()
    } else {
        ExactEstimator.estimate(&p, members, &b).tv()
    }
}

/// Runs one pin on a one-thread pool, serialized with the other pins of
/// this binary. One thread keeps worker-thread spawns out of the count
/// and runs the whole frontier as one chunk, so the pooled buffers warm
/// once whatever machine runs the test.
fn pinned(pin: impl FnOnce() + Send) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    pool(1, pin);
}

#[test]
fn steady_state_recursion_does_not_allocate_per_node() {
    pinned(|| {
        // Warm up once so lazily initialized runtime structures don't count.
        let _ = full_tree_walk(8, false);

        let (_, small) = allocations(|| full_tree_walk(8, false));
        let (_, large) = allocations(|| full_tree_walk(12, false));
        // 2^12 vs 2^8 leaves: 3840 extra internal+leaf nodes. A per-node
        // allocation habit would show up thousands of times over; the
        // pooled workspace only pays for four more recursion levels.
        assert!(
            large < small + 256,
            "allocation count scaled with the tree: {small} at depth 8, {large} at depth 12"
        );

        // The seed walk allocates fresh masks per node: the same growth
        // must cost it thousands of allocations (sanity check that the
        // instrumentation actually measures what we think it does).
        let (_, seed_small) = allocations(|| full_tree_walk(8, true));
        let (_, seed_large) = allocations(|| full_tree_walk(12, true));
        assert!(
            seed_large > seed_small + 4_000,
            "seed walk expected to allocate per node: {seed_small} -> {seed_large}"
        );
        assert!(
            large * 10 < seed_large,
            "overhauled walk ({large}) should allocate at least 10x less than the seed ({seed_large})"
        );
    });
}

/// A full 4-ary tree: every turn broadcasts two fresh input bits of a
/// 2^12-point row (word budget 64), so all `4^horizon` leaves are live,
/// every node takes the counted non-binary split, and the sets demote
/// from dense to sparse at depth 3.
fn full_wide_tree_walk(horizon: u32, reference: bool) -> f64 {
    let p = FnWideProtocol::new(1, 12, 2, horizon, |_, input, tr| {
        (input >> (2 * tr.len())) & 0b11
    });
    let a = ProductInput::uniform(1, 12);
    let b = ProductInput::uniform(1, 12);
    let members = std::slice::from_ref(&a);
    if reference {
        exact_mixture_comparison_reference(&p, members, &b).tv()
    } else {
        ExactEstimator.estimate(&p, members, &b).tv()
    }
}

#[test]
fn steady_state_wide_recursion_does_not_allocate_per_node() {
    pinned(|| {
        let _ = full_wide_tree_walk(4, false);

        let (_, small) = allocations(|| full_wide_tree_walk(4, false));
        let (_, large) = allocations(|| full_wide_tree_walk(6, false));
        // 4^6 vs 4^4 leaves: 5120 extra nodes, each splitting two sets
        // into four children. The label-indexed tables and the child
        // slots are pooled, so two more recursion levels cost only their
        // own warm-up.
        assert!(
            large < small + 256,
            "allocation count scaled with the tree: {small} at depth 4, {large} at depth 6"
        );

        let (_, seed_small) = allocations(|| full_wide_tree_walk(4, true));
        let (_, seed_large) = allocations(|| full_wide_tree_walk(6, true));
        assert!(
            seed_large > seed_small + 4_000,
            "seed walk expected to allocate per node: {seed_small} -> {seed_large}"
        );
        assert!(
            large * 10 < seed_large,
            "overhauled walk ({large}) should allocate at least 10x less than the seed ({seed_large})"
        );
    });
}

/// The same full 4-ary tree under a [`ParityProtocol`]: turn `t` ships
/// input bits `2t` and `2t + 1` as two one-bit masks, so every dense set
/// splits by label planes (and demotes at depth 3, built from words).
fn full_parity_tree_walk(horizon: u32) -> f64 {
    let p = ParityProtocol::new(1, 12, 2, horizon, |_, tr, b| 1 << (2 * tr.len() + b));
    let a = ProductInput::uniform(1, 12);
    let b = ProductInput::uniform(1, 12);
    ExactEstimator
        .estimate(&p, std::slice::from_ref(&a), &b)
        .tv()
}

#[test]
fn steady_state_parity_recursion_does_not_allocate_per_node() {
    pinned(|| {
        let _ = full_parity_tree_walk(4);

        let (small_tv, small) = allocations(|| full_parity_tree_walk(4));
        let (large_tv, large) = allocations(|| full_parity_tree_walk(6));
        // The same walks as the message protocol's, bit for bit.
        assert_eq!(small_tv.to_bits(), full_wide_tree_walk(4, false).to_bits());
        assert_eq!(large_tv.to_bits(), full_wide_tree_walk(6, false).to_bits());
        // 5120 extra nodes: the label planes and the partial children of
        // the word split are pooled like every other per-node buffer, so
        // two more levels cost only their own warm-up.
        assert!(
            large < small + 256,
            "allocation count scaled with the tree: {small} at depth 4, {large} at depth 6"
        );
    });
}

/// A sampled estimate of a width-2, 6-turn protocol over a two-member
/// family (three sides), at a fixed `samples` per side: the adaptive
/// estimator with initial budget = cap, so one batch.
fn sampled_estimate(samples: usize) -> f64 {
    let p = FnWideProtocol::new(3, 4, 2, 6, |proc, input, tr| {
        ((input >> (tr.len() % 3)) ^ proc as u64 ^ tr.as_u64()) & 0b11
    });
    let baseline = ProductInput::uniform(3, 4);
    let members = [
        baseline.with_row(0, RowSupport::explicit(4, vec![1, 4, 7, 10, 13])),
        baseline.with_row(2, RowSupport::explicit(4, vec![0, 3, 5, 6, 9, 10, 12, 15])),
    ];
    fixed_budget(samples, 7)
        .estimate(&p, &members, &baseline)
        .tv()
}

#[test]
fn steady_state_sampler_does_not_allocate_per_transcript() {
    pinned(|| {
        let _ = sampled_estimate(1 << 10);

        let (_, small) = allocations(|| sampled_estimate(1 << 10));
        let (_, large) = allocations(|| sampled_estimate(1 << 14));
        // 15,360 more transcripts on each of three sides: one allocation
        // per transcript would add 46,080. The per-side key, chunk and
        // merge arrays, the radix scratch and the mixture are allocated
        // once per batch, whatever the sample count.
        assert!(
            large < small + 64,
            "allocation count scaled with the samples: {small} at 2^10, {large} at 2^14"
        );
    });
}

/// The pair sampler on two product inputs of a width-2, 6-turn protocol,
/// at `samples` per side, each side refilling one input buffer.
fn sampled_pair(samples: usize) -> f64 {
    let p = FnWideProtocol::new(3, 4, 2, 6, |proc, input, tr| {
        ((input >> (tr.len() % 3)) ^ proc as u64 ^ tr.as_u64()) & 0b11
    });
    let a = ProductInput::uniform(3, 4).with_row(1, RowSupport::explicit(4, vec![2, 3, 11]));
    let b = ProductInput::uniform(3, 4);
    let mut rng = StdRng::seed_from_u64(11);
    sampled_comparison_with(
        &p,
        |r, v| a.sample_into(r, v),
        |r, v| b.sample_into(r, v),
        samples,
        &mut rng,
    )
    .tv()
}

#[test]
fn pair_sampler_does_not_allocate_per_transcript() {
    pinned(|| {
        let _ = sampled_pair(1 << 10);

        let (_, small) = allocations(|| sampled_pair(1 << 10));
        let (_, large) = allocations(|| sampled_pair(1 << 14));
        // 15,360 more transcripts on each of two sides: one allocation
        // per transcript would add 30,720.
        assert!(
            large < small + 64,
            "allocation count scaled with the samples: {small} at 2^10, {large} at 2^14"
        );
    });
}
