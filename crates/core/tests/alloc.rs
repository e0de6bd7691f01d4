//! Allocation accounting for the exact-walk hot path.
//!
//! The overhauled walk promises **zero per-node heap allocations in the
//! steady-state recursion**: all child sets live in pooled per-depth
//! slots, all scratch vectors are reused, and only the one-time
//! workspace setup plus the frontier snapshots allocate. This test pins
//! that property with a counting global allocator: growing the tree by
//! 16× (two extra full binary levels per distribution pair) must leave
//! the allocation count essentially unchanged, while the retained seed
//! walk — which allocates fresh masks at every node — scales its count
//! with the node total.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bcc_congest::{FnProtocol, TurnProtocol};
use bcc_core::{
    exact_mixture_comparison_reference, Estimator, ExactEstimator, ExecMode, ProductInput,
};

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
    // Sequential mode: thread spawning would blur the per-node count.
    let members = std::slice::from_ref(&a);
    if reference {
        exact_mixture_comparison_reference(&p.as_wide(), members, &b, ExecMode::Sequential).tv()
    } else {
        ExactEstimator::sequential()
            .estimate_full(&p.as_wide(), members, &b)
            .tv()
    }
}

#[test]
fn steady_state_recursion_does_not_allocate_per_node() {
    // Pin the pool so the adaptive split depth — and with it the number
    // of frontier-task snapshots — is identical for both walks whatever
    // machine runs the test (a 33+-core host would otherwise give the
    // depth-12 walk 256 tasks and the depth-8 walk none). The vendored
    // rayon reads this on every call, and this test owns its process.
    std::env::set_var("RAYON_NUM_THREADS", "1");

    // Warm up once so lazily initialized runtime structures don't count.
    let _ = full_tree_walk(8, false);

    let (_, small) = allocations(|| full_tree_walk(8, false));
    let (_, large) = allocations(|| full_tree_walk(12, false));
    // 2^12 vs 2^8 leaves: 3840 extra internal+leaf nodes. A per-node
    // allocation habit would show up thousands of times over; the pooled
    // workspace only pays for four more recursion levels.
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
}
