//! Fixture: the same `unsafe` block, suppressed with a reasoned directive.

pub fn first_unchecked(xs: &[u64]) -> u64 {
    // bcc-lint: allow(no-unsafe, reason = "fixture: callers guarantee xs is non-empty")
    unsafe { *xs.get_unchecked(0) }
}
