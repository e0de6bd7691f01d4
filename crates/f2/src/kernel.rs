//! The word-kernel layer: every F₂ hot loop in one dispatchable place.
//!
//! All estimators in the workspace — the exact bit walk, the wide walk
//! and the sampled/adaptive paths — bottom out in word-at-a-time `u64`
//! loops: `BitVec` AND/AND-NOT/XOR/popcount, the label-plane split of
//! [`crate::ConsistentSet::assign_filtered`], the dense↔sparse promotion
//! scans, and the radix-sort digit passes in `bcc-core`. This module
//! lifts those loops behind the [`WordKernel`] trait so they can run
//! either as plain scalar code ([`Scalar`], the former loops moved here
//! verbatim) or on 256-bit lanes ([`Avx2`], stable `std::arch`
//! intrinsics, four words per step).
//!
//! # Dispatch rule
//!
//! [`active`] picks the kernel once per process: `Avx2` when the CPU
//! reports the feature (`is_x86_feature_detected!("avx2")`), `Scalar`
//! otherwise. The env var `BCC_KERNEL=scalar|avx2` overrides the choice
//! (for differential testing and benching); forcing `avx2` on a host
//! without the feature aborts rather than faulting later.
//!
//! # Why lane width cannot change results
//!
//! Every kernel method is integer arithmetic over `u64` words — AND,
//! XOR, popcount, funnel shifts, counting — with a defined sequential
//! semantics. The AVX2 paths process four words per lane step and fold
//! with the same associative, exact operations (bitwise ops and integer
//! adds commute freely; no floating point, no saturation, no ordering
//! freedom observable in the result). The scalar fallback is therefore a
//! bitwise oracle: property tests in this crate and in `bcc-core` pin
//! `Avx2 == Scalar` on random inputs, including tail words and
//! demotion-boundary occupancies, and the walk's resume/parallel
//! determinism guarantees hold under either kernel.
#![allow(unsafe_code)]

use std::sync::OnceLock;

const WORD_BITS: usize = 64;

/// The F₂ word-loop kernel: one method per hot-loop family.
///
/// Slice-pair methods zip over the common prefix (`min` of the two
/// lengths), matching the loops they replaced. `plane` arguments are
/// packed bit planes over the same universe as `a`; `filter_*` reads
/// `a.len()` words of the plane and panics if it is narrower.
pub trait WordKernel {
    /// A short stable name (`"scalar"` / `"avx2"`) for logs and benches.
    fn name(&self) -> &'static str;

    /// `a[i] &= b[i]` over the common prefix.
    fn and_in_place(&self, a: &mut [u64], b: &[u64]);

    /// `a[i] &= !b[i]` over the common prefix.
    fn and_not_in_place(&self, a: &mut [u64], b: &[u64]);

    /// `a[i] |= b[i]` over the common prefix.
    fn or_in_place(&self, a: &mut [u64], b: &[u64]);

    /// `a[i] ^= b[i]` over the common prefix.
    fn xor_in_place(&self, a: &mut [u64], b: &[u64]);

    /// Total popcount of `a`.
    fn count_ones(&self, a: &[u64]) -> usize;

    /// Parity of `popcount(a AND b)` over the common prefix — the F₂
    /// inner product of the packed vectors.
    fn dot(&self, a: &[u64], b: &[u64]) -> bool;

    /// Popcount of `a AND plane` (`keep`) or `a AND NOT plane`
    /// (`!keep`) — the counting pass of the label-plane split.
    fn filter_count(&self, a: &[u64], plane: &[u64], keep: bool) -> usize;

    /// Writes `a AND ±plane` into `out` (`out.len() == a.len()`), the
    /// dense→dense materialization of the label-plane split.
    fn filter_into(&self, a: &[u64], plane: &[u64], keep: bool, out: &mut [u64]);

    /// Appends the bit indices of `a AND ±plane` to `out` ascending —
    /// the dense→sparse demotion scan of the label-plane split.
    fn filter_indices(&self, a: &[u64], plane: &[u64], keep: bool, out: &mut Vec<u32>);

    /// Appends the bit indices of `a` to `out` ascending.
    fn ones_indices(&self, a: &[u64], out: &mut Vec<u32>);

    /// `(OR-fold, AND-fold)` of `keys` — the radix sort's constant-byte
    /// pre-scan. Returns `(0, !0)` for an empty slice.
    fn or_and_fold(&self, keys: &[u64]) -> (u64, u64);

    /// Adds the byte-value counts of `(key >> shift) & 0xFF` into
    /// `hist` — one radix digit pass's counting phase.
    fn byte_histogram(&self, keys: &[u64], shift: u32, hist: &mut [usize; 256]);

    /// Stable counting-sort scatter of `keys` by the byte at `shift`,
    /// given running start `offsets` (advanced in place). A serial
    /// permutation in both kernels — the write targets depend on the
    /// running offsets, so this is the documented scalar seam of the
    /// radix pipeline.
    fn byte_scatter(&self, keys: &[u64], shift: u32, offsets: &mut [usize; 256], out: &mut [u64]);

    /// Word-at-a-time funnel-shift extraction: `out[k]` receives bits
    /// `[lo_bit + 64k, lo_bit + 64(k+1))` of `src`, reading missing
    /// high bits as zero. The word core of `BitVec::slice`.
    fn extract_shifted(&self, src: &[u64], lo_bit: usize, out: &mut [u64]);

    /// ORs the bit string of `src` into `out` starting at `bit_offset`.
    /// Shifted-out high bits that fall beyond `out` must be zero (the
    /// tail-masked invariant guarantees this for `BitVec::concat`). A
    /// read-modify-write with cross-word carry in both kernels; the
    /// word-at-a-time walk is the win over per-bit copying.
    fn or_shifted_into(&self, src: &[u64], bit_offset: usize, out: &mut [u64]);
}

/// The scalar kernel: the repo's original word loops, moved here
/// verbatim. The bitwise oracle every other kernel is pinned against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Scalar;

#[inline]
fn masked(a: u64, p: u64, keep: bool) -> u64 {
    if keep {
        a & p
    } else {
        a & !p
    }
}

impl WordKernel for Scalar {
    fn name(&self) -> &'static str {
        "scalar"
    }

    #[inline]
    fn and_in_place(&self, a: &mut [u64], b: &[u64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x &= y;
        }
    }

    #[inline]
    fn and_not_in_place(&self, a: &mut [u64], b: &[u64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x &= !y;
        }
    }

    #[inline]
    fn or_in_place(&self, a: &mut [u64], b: &[u64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x |= y;
        }
    }

    #[inline]
    fn xor_in_place(&self, a: &mut [u64], b: &[u64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x ^= y;
        }
    }

    #[inline]
    fn count_ones(&self, a: &[u64]) -> usize {
        a.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[inline]
    fn dot(&self, a: &[u64], b: &[u64]) -> bool {
        let mut acc = 0u64;
        for (x, y) in a.iter().zip(b) {
            acc ^= x & y;
        }
        acc.count_ones() % 2 == 1
    }

    #[inline]
    fn filter_count(&self, a: &[u64], plane: &[u64], keep: bool) -> usize {
        assert!(plane.len() >= a.len(), "plane narrower than the universe");
        let mut count = 0usize;
        for (&x, &p) in a.iter().zip(plane) {
            count += masked(x, p, keep).count_ones() as usize;
        }
        count
    }

    #[inline]
    fn filter_into(&self, a: &[u64], plane: &[u64], keep: bool, out: &mut [u64]) {
        assert!(plane.len() >= a.len(), "plane narrower than the universe");
        assert_eq!(out.len(), a.len(), "output width mismatch");
        for ((&x, &p), o) in a.iter().zip(plane).zip(out.iter_mut()) {
            *o = masked(x, p, keep);
        }
    }

    #[inline]
    fn filter_indices(&self, a: &[u64], plane: &[u64], keep: bool, out: &mut Vec<u32>) {
        assert!(plane.len() >= a.len(), "plane narrower than the universe");
        for (wi, (&x, &p)) in a.iter().zip(plane).enumerate() {
            let mut w = masked(x, p, keep);
            while w != 0 {
                out.push((wi * WORD_BITS) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }

    #[inline]
    fn ones_indices(&self, a: &[u64], out: &mut Vec<u32>) {
        for (wi, &x) in a.iter().enumerate() {
            let mut w = x;
            while w != 0 {
                out.push((wi * WORD_BITS) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }

    #[inline]
    fn or_and_fold(&self, keys: &[u64]) -> (u64, u64) {
        let mut ones = 0u64;
        let mut zeros = !0u64;
        for &k in keys {
            ones |= k;
            zeros &= k;
        }
        (ones, zeros)
    }

    #[inline]
    fn byte_histogram(&self, keys: &[u64], shift: u32, hist: &mut [usize; 256]) {
        for &k in keys {
            hist[((k >> shift) & 0xFF) as usize] += 1;
        }
    }

    #[inline]
    fn byte_scatter(&self, keys: &[u64], shift: u32, offsets: &mut [usize; 256], out: &mut [u64]) {
        for &k in keys {
            let b = ((k >> shift) & 0xFF) as usize;
            out[offsets[b]] = k;
            offsets[b] += 1;
        }
    }

    #[inline]
    fn extract_shifted(&self, src: &[u64], lo_bit: usize, out: &mut [u64]) {
        let off = lo_bit / WORD_BITS;
        let s = (lo_bit % WORD_BITS) as u32;
        let word = |i: usize| src.get(i).copied().unwrap_or(0);
        if s == 0 {
            for (k, o) in out.iter_mut().enumerate() {
                *o = word(off + k);
            }
        } else {
            for (k, o) in out.iter_mut().enumerate() {
                *o = (word(off + k) >> s) | (word(off + k + 1) << (WORD_BITS as u32 - s));
            }
        }
    }

    #[inline]
    fn or_shifted_into(&self, src: &[u64], bit_offset: usize, out: &mut [u64]) {
        let off = bit_offset / WORD_BITS;
        let s = (bit_offset % WORD_BITS) as u32;
        for (k, &w) in src.iter().enumerate() {
            let lo = w << s;
            if let Some(o) = out.get_mut(off + k) {
                *o |= lo;
            } else {
                debug_assert_eq!(lo, 0, "shifted bits fall beyond the output");
            }
            if s != 0 {
                let hi = w >> (WORD_BITS as u32 - s);
                if let Some(o) = out.get_mut(off + k + 1) {
                    *o |= hi;
                } else {
                    debug_assert_eq!(hi, 0, "shifted bits fall beyond the output");
                }
            }
        }
    }
}

/// The 256-bit lane kernel: four `u64` words per step via stable AVX2
/// intrinsics, with scalar tails. Constructible only through
/// `Avx2::new`, whose `Some` is the proof that the CPU supports the
/// feature — every `unsafe` call below relies on that invariant.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Avx2 {
    _proof: (),
}

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// The AVX2 kernel, if the running CPU supports the feature.
    fn new() -> Option<Avx2> {
        if std::arch::is_x86_feature_detected!("avx2") {
            Some(Avx2 { _proof: () })
        } else {
            None
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl WordKernel for Avx2 {
    fn name(&self) -> &'static str {
        "avx2"
    }

    #[inline]
    fn and_in_place(&self, a: &mut [u64], b: &[u64]) {
        // SAFETY: constructing `Avx2` proved the CPU feature.
        unsafe { avx2::and_in_place(a, b) }
    }

    #[inline]
    fn and_not_in_place(&self, a: &mut [u64], b: &[u64]) {
        // SAFETY: constructing `Avx2` proved the CPU feature.
        unsafe { avx2::and_not_in_place(a, b) }
    }

    #[inline]
    fn or_in_place(&self, a: &mut [u64], b: &[u64]) {
        // SAFETY: constructing `Avx2` proved the CPU feature.
        unsafe { avx2::or_in_place(a, b) }
    }

    #[inline]
    fn xor_in_place(&self, a: &mut [u64], b: &[u64]) {
        // SAFETY: constructing `Avx2` proved the CPU feature.
        unsafe { avx2::xor_in_place(a, b) }
    }

    #[inline]
    fn count_ones(&self, a: &[u64]) -> usize {
        // SAFETY: constructing `Avx2` proved the CPU feature.
        unsafe { avx2::count_ones(a) }
    }

    #[inline]
    fn dot(&self, a: &[u64], b: &[u64]) -> bool {
        // SAFETY: constructing `Avx2` proved the CPU feature.
        unsafe { avx2::dot(a, b) }
    }

    #[inline]
    fn filter_count(&self, a: &[u64], plane: &[u64], keep: bool) -> usize {
        assert!(plane.len() >= a.len(), "plane narrower than the universe");
        // SAFETY: constructing `Avx2` proved the CPU feature.
        unsafe { avx2::filter_count(a, plane, keep) }
    }

    #[inline]
    fn filter_into(&self, a: &[u64], plane: &[u64], keep: bool, out: &mut [u64]) {
        assert!(plane.len() >= a.len(), "plane narrower than the universe");
        assert_eq!(out.len(), a.len(), "output width mismatch");
        // SAFETY: constructing `Avx2` proved the CPU feature.
        unsafe { avx2::filter_into(a, plane, keep, out) }
    }

    #[inline]
    fn filter_indices(&self, a: &[u64], plane: &[u64], keep: bool, out: &mut Vec<u32>) {
        // Index extraction is output-serial (cost ∝ ones); the masked
        // words it scans are the same either way. Scalar is optimal.
        Scalar.filter_indices(a, plane, keep, out)
    }

    #[inline]
    fn ones_indices(&self, a: &[u64], out: &mut Vec<u32>) {
        // Output-serial, like `filter_indices`.
        Scalar.ones_indices(a, out)
    }

    #[inline]
    fn or_and_fold(&self, keys: &[u64]) -> (u64, u64) {
        // SAFETY: constructing `Avx2` proved the CPU feature.
        unsafe { avx2::or_and_fold(keys) }
    }

    #[inline]
    fn byte_histogram(&self, keys: &[u64], shift: u32, hist: &mut [usize; 256]) {
        // Four interleaved sub-histograms break the increment dependency
        // chain (the counts are additive, so the split cannot change the
        // totals); the byte extraction itself is not the bottleneck.
        let mut sub = [[0usize; 256]; 4];
        let mut chunks = keys.chunks_exact(4);
        for c in &mut chunks {
            sub[0][((c[0] >> shift) & 0xFF) as usize] += 1;
            sub[1][((c[1] >> shift) & 0xFF) as usize] += 1;
            sub[2][((c[2] >> shift) & 0xFF) as usize] += 1;
            sub[3][((c[3] >> shift) & 0xFF) as usize] += 1;
        }
        for &k in chunks.remainder() {
            sub[0][((k >> shift) & 0xFF) as usize] += 1;
        }
        for (b, h) in hist.iter_mut().enumerate() {
            *h += sub[0][b] + sub[1][b] + sub[2][b] + sub[3][b];
        }
    }

    #[inline]
    fn byte_scatter(&self, keys: &[u64], shift: u32, offsets: &mut [usize; 256], out: &mut [u64]) {
        // A serial permutation: each write target depends on the running
        // offset of its bucket. This is the documented scalar seam.
        Scalar.byte_scatter(keys, shift, offsets, out)
    }

    #[inline]
    fn extract_shifted(&self, src: &[u64], lo_bit: usize, out: &mut [u64]) {
        // SAFETY: constructing `Avx2` proved the CPU feature.
        unsafe { avx2::extract_shifted(src, lo_bit, out) }
    }

    #[inline]
    fn or_shifted_into(&self, src: &[u64], bit_offset: usize, out: &mut [u64]) {
        // Read-modify-write with cross-word carry and tail bounds
        // checks; the word-at-a-time walk is the win, not the lanes.
        Scalar.or_shifted_into(src, bit_offset, out)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The `#[target_feature(enable = "avx2")]` bodies. Callers must
    //! have proved the CPU feature (see [`super::Avx2::new`]).

    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_andnot_si256,
        _mm256_extract_epi64, _mm256_loadu_si256, _mm256_or_si256, _mm256_sad_epu8,
        _mm256_set1_epi8, _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
        _mm256_sll_epi64, _mm256_srl_epi64, _mm256_srli_epi16, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_cvtsi64_si128,
    };

    const LANES: usize = 4;

    macro_rules! bulk_op {
        ($name:ident, $combine:expr) => {
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name(a: &mut [u64], b: &[u64]) {
                let n = a.len().min(b.len());
                let chunks = n / LANES;
                for c in 0..chunks {
                    // SAFETY: `LANES * c + 3 < n` bounds both unaligned
                    // 256-bit accesses inside the two slices.
                    unsafe {
                        let pa = a.as_mut_ptr().add(LANES * c).cast::<__m256i>();
                        let pb = b.as_ptr().add(LANES * c).cast::<__m256i>();
                        let va = _mm256_loadu_si256(pa);
                        let vb = _mm256_loadu_si256(pb);
                        _mm256_storeu_si256(pa, $combine(va, vb));
                    }
                }
                for i in LANES * chunks..n {
                    a[i] = $combine(a[i], b[i]);
                }
            }
        };
    }

    bulk_op!(and_in_place, Ops::and);
    bulk_op!(or_in_place, Ops::or);
    bulk_op!(xor_in_place, Ops::xor);
    bulk_op!(and_not_in_place, Ops::and_not);

    /// The four word ops, once for `u64` and once for 256-bit lanes, so
    /// the `bulk_op!` bodies stay literally identical in both widths.
    struct Ops;

    impl Ops {
        #[inline(always)]
        fn and<T: Word>(a: T, b: T) -> T {
            T::and(a, b)
        }
        #[inline(always)]
        fn or<T: Word>(a: T, b: T) -> T {
            T::or(a, b)
        }
        #[inline(always)]
        fn xor<T: Word>(a: T, b: T) -> T {
            T::xor(a, b)
        }
        #[inline(always)]
        fn and_not<T: Word>(a: T, b: T) -> T {
            T::and_not(a, b)
        }
    }

    trait Word: Copy {
        fn and(a: Self, b: Self) -> Self;
        fn or(a: Self, b: Self) -> Self;
        fn xor(a: Self, b: Self) -> Self;
        /// `a AND NOT b`.
        fn and_not(a: Self, b: Self) -> Self;
    }

    impl Word for u64 {
        #[inline(always)]
        fn and(a: u64, b: u64) -> u64 {
            a & b
        }
        #[inline(always)]
        fn or(a: u64, b: u64) -> u64 {
            a | b
        }
        #[inline(always)]
        fn xor(a: u64, b: u64) -> u64 {
            a ^ b
        }
        #[inline(always)]
        fn and_not(a: u64, b: u64) -> u64 {
            a & !b
        }
    }

    impl Word for __m256i {
        #[inline(always)]
        fn and(a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: only reachable from `#[target_feature(avx2)]`
            // bodies whose callers proved the feature.
            unsafe { _mm256_and_si256(a, b) }
        }
        #[inline(always)]
        fn or(a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: as in `and`.
            unsafe { _mm256_or_si256(a, b) }
        }
        #[inline(always)]
        fn xor(a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: as in `and`.
            unsafe { _mm256_xor_si256(a, b) }
        }
        #[inline(always)]
        fn and_not(a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: as in `and`. Note the intrinsic computes
            // `!first & second`, so the arguments swap.
            unsafe { _mm256_andnot_si256(b, a) }
        }
    }

    /// Per-64-bit-lane popcounts of `v` (Mula's nibble-LUT `pshufb`
    /// algorithm folded with `sad_epu8`).
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_lanes(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0F);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let counts = _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        );
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    #[target_feature(enable = "avx2")]
    fn sum_lanes(v: __m256i) -> u64 {
        (_mm256_extract_epi64(v, 0) as u64)
            .wrapping_add(_mm256_extract_epi64(v, 1) as u64)
            .wrapping_add(_mm256_extract_epi64(v, 2) as u64)
            .wrapping_add(_mm256_extract_epi64(v, 3) as u64)
    }

    #[target_feature(enable = "avx2")]
    fn xor_lanes(v: __m256i) -> u64 {
        (_mm256_extract_epi64(v, 0) as u64)
            ^ (_mm256_extract_epi64(v, 1) as u64)
            ^ (_mm256_extract_epi64(v, 2) as u64)
            ^ (_mm256_extract_epi64(v, 3) as u64)
    }

    #[target_feature(enable = "avx2")]
    fn or_lanes(v: __m256i) -> u64 {
        (_mm256_extract_epi64(v, 0) as u64)
            | (_mm256_extract_epi64(v, 1) as u64)
            | (_mm256_extract_epi64(v, 2) as u64)
            | (_mm256_extract_epi64(v, 3) as u64)
    }

    #[target_feature(enable = "avx2")]
    fn and_lanes(v: __m256i) -> u64 {
        (_mm256_extract_epi64(v, 0) as u64)
            & (_mm256_extract_epi64(v, 1) as u64)
            & (_mm256_extract_epi64(v, 2) as u64)
            & (_mm256_extract_epi64(v, 3) as u64)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn count_ones(a: &[u64]) -> usize {
        let chunks = a.len() / LANES;
        let mut acc = _mm256_setzero_si256();
        for c in 0..chunks {
            // SAFETY: chunk bounds as in `bulk_op!`.
            unsafe {
                let v = _mm256_loadu_si256(a.as_ptr().add(LANES * c).cast::<__m256i>());
                acc = _mm256_add_epi64(acc, popcount_lanes(v));
            }
        }
        let mut total = sum_lanes(acc) as usize;
        for &w in &a[LANES * chunks..] {
            total += w.count_ones() as usize;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot(a: &[u64], b: &[u64]) -> bool {
        let n = a.len().min(b.len());
        let chunks = n / LANES;
        let mut acc = _mm256_setzero_si256();
        for c in 0..chunks {
            // SAFETY: chunk bounds as in `bulk_op!`.
            unsafe {
                let va = _mm256_loadu_si256(a.as_ptr().add(LANES * c).cast::<__m256i>());
                let vb = _mm256_loadu_si256(b.as_ptr().add(LANES * c).cast::<__m256i>());
                acc = _mm256_xor_si256(acc, _mm256_and_si256(va, vb));
            }
        }
        let mut fold = xor_lanes(acc);
        for i in LANES * chunks..n {
            fold ^= a[i] & b[i];
        }
        fold.count_ones() % 2 == 1
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn filter_count(a: &[u64], plane: &[u64], keep: bool) -> usize {
        let chunks = a.len() / LANES;
        let mut acc = _mm256_setzero_si256();
        for c in 0..chunks {
            // SAFETY: `filter_count`'s caller asserted
            // `plane.len() >= a.len()`; chunk bounds as in `bulk_op!`.
            unsafe {
                let va = _mm256_loadu_si256(a.as_ptr().add(LANES * c).cast::<__m256i>());
                let vp = _mm256_loadu_si256(plane.as_ptr().add(LANES * c).cast::<__m256i>());
                let w = if keep {
                    _mm256_and_si256(va, vp)
                } else {
                    _mm256_andnot_si256(vp, va)
                };
                acc = _mm256_add_epi64(acc, popcount_lanes(w));
            }
        }
        let mut total = sum_lanes(acc) as usize;
        for i in LANES * chunks..a.len() {
            total += super::masked(a[i], plane[i], keep).count_ones() as usize;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn filter_into(a: &[u64], plane: &[u64], keep: bool, out: &mut [u64]) {
        let chunks = a.len() / LANES;
        for c in 0..chunks {
            // SAFETY: caller asserted `plane.len() >= a.len()` and
            // `out.len() == a.len()`; chunk bounds as in `bulk_op!`.
            unsafe {
                let va = _mm256_loadu_si256(a.as_ptr().add(LANES * c).cast::<__m256i>());
                let vp = _mm256_loadu_si256(plane.as_ptr().add(LANES * c).cast::<__m256i>());
                let w = if keep {
                    _mm256_and_si256(va, vp)
                } else {
                    _mm256_andnot_si256(vp, va)
                };
                _mm256_storeu_si256(out.as_mut_ptr().add(LANES * c).cast::<__m256i>(), w);
            }
        }
        for i in LANES * chunks..a.len() {
            out[i] = super::masked(a[i], plane[i], keep);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn or_and_fold(keys: &[u64]) -> (u64, u64) {
        let chunks = keys.len() / LANES;
        let mut vones = _mm256_setzero_si256();
        let mut vzeros = _mm256_set1_epi8(-1);
        for c in 0..chunks {
            // SAFETY: chunk bounds as in `bulk_op!`.
            unsafe {
                let v = _mm256_loadu_si256(keys.as_ptr().add(LANES * c).cast::<__m256i>());
                vones = _mm256_or_si256(vones, v);
                vzeros = _mm256_and_si256(vzeros, v);
            }
        }
        let mut ones = or_lanes(vones);
        let mut zeros = and_lanes(vzeros);
        if chunks == 0 {
            // The lane folds of the untouched accumulators would be
            // correct too, but keep the empty case explicit.
            ones = 0;
            zeros = !0;
        }
        for &k in &keys[LANES * chunks..] {
            ones |= k;
            zeros &= k;
        }
        (ones, zeros)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn extract_shifted(src: &[u64], lo_bit: usize, out: &mut [u64]) {
        const WORD_BITS: usize = 64;
        let off = lo_bit / WORD_BITS;
        let s = (lo_bit % WORD_BITS) as u32;
        if s == 0 {
            let have = src.len().saturating_sub(off).min(out.len());
            if have > 0 {
                out[..have].copy_from_slice(&src[off..off + have]);
            }
            out[have..].fill(0);
            return;
        }
        // Vector body: out[k] = (src[off+k] >> s) | (src[off+k+1] << 64-s),
        // valid while the *shifted-in* load `src[off+k+1 .. off+k+5]`
        // stays in bounds.
        let full = src
            .len()
            .saturating_sub(off + LANES + 1)
            .min(out.len() / LANES * LANES);
        let vs = _mm_cvtsi64_si128(s as i64);
        let vinv = _mm_cvtsi64_si128((WORD_BITS as u32 - s) as i64);
        let mut k = 0usize;
        while k + LANES <= full {
            // SAFETY: `off + k + 1 + 3 < src.len()` by the `full` bound;
            // `k + 3 < out.len()` likewise.
            unsafe {
                let lo = _mm256_loadu_si256(src.as_ptr().add(off + k).cast::<__m256i>());
                let hi = _mm256_loadu_si256(src.as_ptr().add(off + k + 1).cast::<__m256i>());
                let v = _mm256_or_si256(_mm256_srl_epi64(lo, vs), _mm256_sll_epi64(hi, vinv));
                _mm256_storeu_si256(out.as_mut_ptr().add(k).cast::<__m256i>(), v);
            }
            k += LANES;
        }
        let word = |i: usize| src.get(i).copied().unwrap_or(0);
        for (j, o) in out.iter_mut().enumerate().skip(k) {
            *o = (word(off + j) >> s) | (word(off + j + 1) << (WORD_BITS as u32 - s));
        }
    }
}

/// The process-wide kernel choice: a `Copy` handle that is one of the
/// concrete kernels, dispatching each [`WordKernel`] method with a
/// single inlined match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// The scalar word loops.
    Scalar(Scalar),
    /// The 256-bit lane kernel (x86-64 with AVX2 only).
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
}

impl Kernel {
    /// The scalar kernel, unconditionally available.
    pub fn scalar() -> Kernel {
        Kernel::Scalar(Scalar)
    }

    /// The AVX2 kernel, when the host supports it (`None` elsewhere,
    /// including every non-x86-64 target).
    pub fn avx2() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        {
            Avx2::new().map(Kernel::Avx2)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            None
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $k:ident => $body:expr) => {
        match $self {
            Kernel::Scalar($k) => $body,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2($k) => $body,
        }
    };
}

/// Words-processed accounting at the dispatch seam. Counting here (not
/// inside the concrete kernels) means every `active()` caller is
/// covered once, and the count is derived from *input* lengths — so it
/// is identical for scalar and AVX2 by construction, keeping
/// `kernel.words.*` in the deterministic-work metric class. The
/// underlying counter is gated on an observation scope being active,
/// so the unobserved cost is one relaxed load.
#[inline]
fn obs_words(family: bcc_obs::KernelFamily, words: usize) {
    bcc_obs::add_kernel_words(family, words as u64);
}

impl WordKernel for Kernel {
    #[inline]
    fn name(&self) -> &'static str {
        dispatch!(self, k => k.name())
    }

    #[inline]
    fn and_in_place(&self, a: &mut [u64], b: &[u64]) {
        obs_words(bcc_obs::KernelFamily::Boolean, a.len().min(b.len()));
        dispatch!(self, k => k.and_in_place(a, b))
    }

    #[inline]
    fn and_not_in_place(&self, a: &mut [u64], b: &[u64]) {
        obs_words(bcc_obs::KernelFamily::Boolean, a.len().min(b.len()));
        dispatch!(self, k => k.and_not_in_place(a, b))
    }

    #[inline]
    fn or_in_place(&self, a: &mut [u64], b: &[u64]) {
        obs_words(bcc_obs::KernelFamily::Boolean, a.len().min(b.len()));
        dispatch!(self, k => k.or_in_place(a, b))
    }

    #[inline]
    fn xor_in_place(&self, a: &mut [u64], b: &[u64]) {
        obs_words(bcc_obs::KernelFamily::Boolean, a.len().min(b.len()));
        dispatch!(self, k => k.xor_in_place(a, b))
    }

    #[inline]
    fn count_ones(&self, a: &[u64]) -> usize {
        obs_words(bcc_obs::KernelFamily::Reduce, a.len());
        dispatch!(self, k => k.count_ones(a))
    }

    #[inline]
    fn dot(&self, a: &[u64], b: &[u64]) -> bool {
        obs_words(bcc_obs::KernelFamily::Reduce, a.len().min(b.len()));
        dispatch!(self, k => k.dot(a, b))
    }

    #[inline]
    fn filter_count(&self, a: &[u64], plane: &[u64], keep: bool) -> usize {
        obs_words(bcc_obs::KernelFamily::Filter, a.len());
        dispatch!(self, k => k.filter_count(a, plane, keep))
    }

    #[inline]
    fn filter_into(&self, a: &[u64], plane: &[u64], keep: bool, out: &mut [u64]) {
        obs_words(bcc_obs::KernelFamily::Filter, a.len());
        dispatch!(self, k => k.filter_into(a, plane, keep, out))
    }

    #[inline]
    fn filter_indices(&self, a: &[u64], plane: &[u64], keep: bool, out: &mut Vec<u32>) {
        obs_words(bcc_obs::KernelFamily::Filter, a.len());
        dispatch!(self, k => k.filter_indices(a, plane, keep, out))
    }

    #[inline]
    fn ones_indices(&self, a: &[u64], out: &mut Vec<u32>) {
        obs_words(bcc_obs::KernelFamily::Filter, a.len());
        dispatch!(self, k => k.ones_indices(a, out))
    }

    #[inline]
    fn or_and_fold(&self, keys: &[u64]) -> (u64, u64) {
        obs_words(bcc_obs::KernelFamily::Reduce, keys.len());
        dispatch!(self, k => k.or_and_fold(keys))
    }

    #[inline]
    fn byte_histogram(&self, keys: &[u64], shift: u32, hist: &mut [usize; 256]) {
        obs_words(bcc_obs::KernelFamily::Bytes, keys.len());
        dispatch!(self, k => k.byte_histogram(keys, shift, hist))
    }

    #[inline]
    fn byte_scatter(&self, keys: &[u64], shift: u32, offsets: &mut [usize; 256], out: &mut [u64]) {
        obs_words(bcc_obs::KernelFamily::Bytes, keys.len());
        dispatch!(self, k => k.byte_scatter(keys, shift, offsets, out))
    }

    #[inline]
    fn extract_shifted(&self, src: &[u64], lo_bit: usize, out: &mut [u64]) {
        obs_words(bcc_obs::KernelFamily::Shift, out.len());
        dispatch!(self, k => k.extract_shifted(src, lo_bit, out))
    }

    #[inline]
    fn or_shifted_into(&self, src: &[u64], bit_offset: usize, out: &mut [u64]) {
        obs_words(bcc_obs::KernelFamily::Shift, src.len());
        dispatch!(self, k => k.or_shifted_into(src, bit_offset, out))
    }
}

static ACTIVE: OnceLock<Kernel> = OnceLock::new();

/// The process-wide active kernel, chosen once on first use.
///
/// Default: [`Avx2`] when the CPU supports it, [`Scalar`] otherwise.
/// `BCC_KERNEL=scalar|avx2` overrides the choice.
///
/// # Panics
///
/// Panics (once, at first use) if `BCC_KERNEL` names an unknown kernel
/// or forces `avx2` on a host without the feature.
pub fn active() -> Kernel {
    *ACTIVE.get_or_init(select)
}

fn select() -> Kernel {
    match std::env::var("BCC_KERNEL") {
        Ok(name) => match name.as_str() {
            "scalar" => Kernel::scalar(),
            "avx2" => {
                Kernel::avx2().unwrap_or_else(|| panic!("BCC_KERNEL=avx2 but this host lacks AVX2"))
            }
            other => panic!("unknown BCC_KERNEL {other:?} (expected \"scalar\" or \"avx2\")"),
        },
        Err(_) => Kernel::avx2().unwrap_or_else(Kernel::scalar),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_cached_and_named() {
        let k = active();
        assert_eq!(active(), k);
        assert!(matches!(k.name(), "scalar" | "avx2"));
    }

    #[test]
    fn scalar_kernel_small_cases() {
        let k = Kernel::scalar();
        let mut a = vec![0b1100u64, u64::MAX];
        k.and_in_place(&mut a, &[0b1010, 0]);
        assert_eq!(a, vec![0b1000, 0]);
        assert_eq!(k.count_ones(&[0b111, 1]), 4);
        assert!(k.dot(&[0b11], &[0b01]));
        assert_eq!(k.or_and_fold(&[]), (0, !0));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_matches_scalar_on_fixed_vectors() {
        let Some(v) = Kernel::avx2() else {
            eprintln!("notice: no AVX2 on this host, skipping");
            return;
        };
        let s = Kernel::scalar();
        let a: Vec<u64> = (0..23u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let b: Vec<u64> = (0..23u64).map(|i| (!i).wrapping_mul(0x165_667B1)).collect();
        assert_eq!(v.count_ones(&a), s.count_ones(&a));
        assert_eq!(v.dot(&a, &b), s.dot(&a, &b));
        for keep in [true, false] {
            assert_eq!(v.filter_count(&a, &b, keep), s.filter_count(&a, &b, keep));
        }
        assert_eq!(v.or_and_fold(&a), s.or_and_fold(&a));
        let mut xs = a.clone();
        let mut xv = a.clone();
        s.xor_in_place(&mut xs, &b);
        v.xor_in_place(&mut xv, &b);
        assert_eq!(xs, xv);
        let mut outs = vec![0u64; 9];
        let mut outv = vec![0u64; 9];
        s.extract_shifted(&a, 37, &mut outs);
        v.extract_shifted(&a, 37, &mut outv);
        assert_eq!(outs, outv);
    }
}
