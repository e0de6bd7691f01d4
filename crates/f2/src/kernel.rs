//! The word-kernel layer: every F₂ hot loop in one place.
//!
//! All estimators in the workspace — the exact bit walk, the wide walk
//! and the sampled/adaptive paths — bottom out in word-at-a-time `u64`
//! loops: `BitVec` AND/AND-NOT/XOR/popcount, the label-plane split of
//! [`crate::ConsistentSet::assign_filtered`], the dense↔sparse promotion
//! scans, and the radix-sort digit passes in `bcc-core`. This module
//! names those loop families in the [`WordKernel`] trait and implements
//! them once, as plain safe scalar code ([`Scalar`]).
//!
//! Every method is integer arithmetic over `u64` words — AND, XOR,
//! popcount, funnel shifts, fixed-mask compress, counting — with the
//! sequential semantics its doc states; `crates/f2/tests/prop.rs` pins
//! each one against a bit-at-a-time reference on random inputs,
//! including tail words and demotion-boundary occupancies.
//!
//! Each call also adds the words it reads to the `kernel.words.*`
//! counter of its family (see [`bcc_obs::KernelFamily`]). The count is
//! a function of the input lengths only, so it is deterministic work;
//! it costs one add to a plain per-thread cell, and goes to the registry
//! installed innermost on the calling thread, or nowhere if none is.

use bcc_obs::{add_kernel_words, KernelFamily};

const WORD_BITS: usize = 64;

/// The F₂ word-loop kernel: one method per hot-loop family.
///
/// Slice-pair methods zip over the common prefix (`min` of the two
/// lengths), matching the loops they replaced. `plane` arguments are
/// packed bit planes over the same universe as `a`; `filter_*` reads
/// `a.len()` words of the plane and panics if it is narrower.
pub trait WordKernel {
    /// A short stable name (`"scalar"`) for logs and benches.
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
    /// given running start `offsets` (advanced in place) — one radix
    /// digit pass's permutation phase.
    fn byte_scatter(&self, keys: &[u64], shift: u32, offsets: &mut [usize; 256], out: &mut [u64]);

    /// Word-at-a-time funnel-shift extraction: `out[k]` receives bits
    /// `[lo_bit + 64k, lo_bit + 64(k+1))` of `src`, reading missing
    /// high bits as zero. The word core of `BitVec::slice`.
    fn extract_shifted(&self, src: &[u64], lo_bit: usize, out: &mut [u64]);

    /// ORs the bit string of `src` into `out` starting at `bit_offset`.
    /// Shifted-out high bits that fall beyond `out` must be zero (the
    /// tail-masked invariant guarantees this for `BitVec::concat`). A
    /// read-modify-write with cross-word carry; the word-at-a-time walk
    /// is the win over per-bit copying.
    fn or_shifted_into(&self, src: &[u64], bit_offset: usize, out: &mut [u64]);

    /// Fixed-mask compress (software PEXT): gathers the bits of `a`
    /// selected by `masks` (word `i` of `a` by `masks[i]`), in order, and
    /// ORs them into `out` from bit 0 — the bits of one word land at the
    /// running popcount of the masks before it. Reads `masks.len()` words
    /// of `a` and panics if `a` is narrower; `out` must hold the masks'
    /// total popcount, and the caller zeroes it.
    fn compress_into(&self, a: &[u64], masks: &[CompressWord], out: &mut [u64]);
}

/// One mask word prepared for [`WordKernel::compress_into`]: the mask,
/// its popcount and the six move masks of the fixed-mask compress of
/// Hacker's Delight §7-4, so compressing a word by it costs 25
/// shift/AND/XOR operations and no per-bit loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressWord {
    mask: u64,
    ones: u32,
    moves: [u64; 6],
}

impl CompressWord {
    /// Precomputes the move masks of `mask`.
    pub fn new(mask: u64) -> Self {
        let mut m = mask;
        // Stage `i` moves right by `2^i` the selected bits whose count of
        // unselected bits below them has bit `i` set; `mp` is that bit
        // of the count, as a prefix XOR of the zeros still to cross.
        let mut mk = !m << 1;
        let mut moves = [0u64; 6];
        for (i, mv) in moves.iter_mut().enumerate() {
            let mut mp = mk ^ (mk << 1);
            for s in [2, 4, 8, 16, 32] {
                mp ^= mp << s;
            }
            *mv = mp & m;
            m = (m ^ *mv) | (*mv >> (1u32 << i));
            mk &= !mp;
        }
        CompressWord {
            mask,
            ones: mask.count_ones(),
            moves,
        }
    }

    /// The selected bits of `x`, packed at the bottom of the word.
    #[inline]
    fn compress(&self, x: u64) -> u64 {
        let mut x = x & self.mask;
        for (i, &mv) in self.moves.iter().enumerate() {
            let t = x & mv;
            x = (x ^ t) | (t >> (1u32 << i));
        }
        x
    }
}

/// The scalar kernel: plain safe `u64` word loops.
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
        add_kernel_words(KernelFamily::Boolean, a.len().min(b.len()));
        for (x, y) in a.iter_mut().zip(b) {
            *x &= y;
        }
    }

    #[inline]
    fn and_not_in_place(&self, a: &mut [u64], b: &[u64]) {
        add_kernel_words(KernelFamily::Boolean, a.len().min(b.len()));
        for (x, y) in a.iter_mut().zip(b) {
            *x &= !y;
        }
    }

    #[inline]
    fn or_in_place(&self, a: &mut [u64], b: &[u64]) {
        add_kernel_words(KernelFamily::Boolean, a.len().min(b.len()));
        for (x, y) in a.iter_mut().zip(b) {
            *x |= y;
        }
    }

    #[inline]
    fn xor_in_place(&self, a: &mut [u64], b: &[u64]) {
        add_kernel_words(KernelFamily::Boolean, a.len().min(b.len()));
        for (x, y) in a.iter_mut().zip(b) {
            *x ^= y;
        }
    }

    #[inline]
    fn count_ones(&self, a: &[u64]) -> usize {
        add_kernel_words(KernelFamily::Reduce, a.len());
        a.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[inline]
    fn dot(&self, a: &[u64], b: &[u64]) -> bool {
        add_kernel_words(KernelFamily::Reduce, a.len().min(b.len()));
        let mut acc = 0u64;
        for (x, y) in a.iter().zip(b) {
            acc ^= x & y;
        }
        acc.count_ones() % 2 == 1
    }

    #[inline]
    fn filter_count(&self, a: &[u64], plane: &[u64], keep: bool) -> usize {
        add_kernel_words(KernelFamily::Filter, a.len());
        assert!(plane.len() >= a.len(), "plane narrower than the universe");
        let mut count = 0usize;
        for (&x, &p) in a.iter().zip(plane) {
            count += masked(x, p, keep).count_ones() as usize;
        }
        count
    }

    #[inline]
    fn filter_into(&self, a: &[u64], plane: &[u64], keep: bool, out: &mut [u64]) {
        add_kernel_words(KernelFamily::Filter, a.len());
        assert!(plane.len() >= a.len(), "plane narrower than the universe");
        assert_eq!(out.len(), a.len(), "output width mismatch");
        for ((&x, &p), o) in a.iter().zip(plane).zip(out.iter_mut()) {
            *o = masked(x, p, keep);
        }
    }

    #[inline]
    fn filter_indices(&self, a: &[u64], plane: &[u64], keep: bool, out: &mut Vec<u32>) {
        add_kernel_words(KernelFamily::Filter, a.len());
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
        add_kernel_words(KernelFamily::Filter, a.len());
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
        add_kernel_words(KernelFamily::Reduce, keys.len());
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
        add_kernel_words(KernelFamily::Bytes, keys.len());
        for &k in keys {
            hist[((k >> shift) & 0xFF) as usize] += 1;
        }
    }

    #[inline]
    fn byte_scatter(&self, keys: &[u64], shift: u32, offsets: &mut [usize; 256], out: &mut [u64]) {
        add_kernel_words(KernelFamily::Bytes, keys.len());
        for &k in keys {
            let b = ((k >> shift) & 0xFF) as usize;
            out[offsets[b]] = k;
            offsets[b] += 1;
        }
    }

    #[inline]
    fn extract_shifted(&self, src: &[u64], lo_bit: usize, out: &mut [u64]) {
        add_kernel_words(KernelFamily::Shift, out.len());
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
        add_kernel_words(KernelFamily::Shift, src.len());
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

    #[inline]
    fn compress_into(&self, a: &[u64], masks: &[CompressWord], out: &mut [u64]) {
        add_kernel_words(KernelFamily::Filter, masks.len());
        assert!(a.len() >= masks.len(), "source narrower than the mask");
        let mut offset = 0usize;
        for (&x, m) in a.iter().zip(masks) {
            if m.ones == 0 {
                continue;
            }
            let c = m.compress(x);
            let (wi, s) = (offset / WORD_BITS, offset % WORD_BITS);
            out[wi] |= c << s;
            if s + m.ones as usize > WORD_BITS {
                out[wi + 1] |= c >> (WORD_BITS - s);
            }
            offset += m.ones as usize;
        }
    }
}

/// The active kernel: [`Scalar`], the workspace's only one. Kept as a
/// function so callers name the layer rather than a concrete loop set.
pub fn active() -> Scalar {
    Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_the_scalar_kernel() {
        assert_eq!(active(), Scalar);
        assert_eq!(active().name(), "scalar");
    }

    #[test]
    fn scalar_kernel_small_cases() {
        let k = Scalar;
        let mut a = vec![0b1100u64, u64::MAX];
        k.and_in_place(&mut a, &[0b1010, 0]);
        assert_eq!(a, vec![0b1000, 0]);
        assert_eq!(k.count_ones(&[0b111, 1]), 4);
        assert!(k.dot(&[0b11], &[0b01]));
        assert_eq!(k.or_and_fold(&[]), (0, !0));
    }
}
