//! Bit-packed vectors over F₂.

use std::fmt;
use std::ops::{BitAnd, BitXor, BitXorAssign};

use rand::Rng;

use crate::kernel::{self, WordKernel};

const WORD_BITS: usize = 64;

/// A fixed-length vector over F₂, packed 64 coordinates per word. Only
/// the explicit appends ([`BitVec::push_word`], [`BitVec::append`]) grow
/// it.
///
/// Coordinate `0` is the least-significant bit of the first word. Trailing
/// bits of the last word beyond `len` are kept zero (an internal invariant
/// all operations preserve), so equality, hashing and popcounts are
/// well-defined on the packed representation directly.
///
/// # Example
///
/// ```
/// use bcc_f2::BitVec;
///
/// let mut v = BitVec::zeros(130);
/// v.set(0, true);
/// v.set(129, true);
/// assert_eq!(v.count_ones(), 2);
/// assert!(v.get(129));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates the all-zeros vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates the all-ones vector of length `len`.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            words: vec![!0u64; len.div_ceil(WORD_BITS)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Creates a vector from a slice of booleans, one coordinate per entry.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Creates a vector of length `len` from the low bits of `value`.
    ///
    /// Coordinate `i` is bit `i` of `value`. Useful for enumerating the
    /// Boolean cube `{0,1}^len` for `len ≤ 64`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 coordinates");
        let mut v = BitVec::zeros(len);
        if len > 0 {
            v.words[0] = if len == 64 {
                value
            } else {
                value & ((1u64 << len) - 1)
            };
        }
        v
    }

    /// Returns the vector as a `u64` (inverse of [`BitVec::from_u64`]).
    ///
    /// # Panics
    ///
    /// Panics if the length exceeds 64.
    pub fn to_u64(&self) -> u64 {
        assert!(self.len <= 64, "to_u64 supports at most 64 coordinates");
        self.words.first().copied().unwrap_or(0)
    }

    /// Creates a vector of length `len` from packed words (coordinate `i`
    /// is bit `i % 64` of word `i / 64`). Bits beyond `len` are cleared.
    ///
    /// # Panics
    ///
    /// Panics unless `words.len() == len.div_ceil(64)`.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "word count does not match the length"
        );
        let mut v = BitVec { words, len };
        v.mask_tail();
        v
    }

    /// Samples a uniformly random vector of length `len`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        let mut v = BitVec::zeros(len);
        for w in &mut v.words {
            *w = rng.gen();
        }
        v.mask_tail();
        v
    }

    /// The number of coordinates.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero coordinates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns coordinate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets coordinate `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Flips coordinate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
    }

    /// The number of coordinates equal to one (Hamming weight).
    pub fn count_ones(&self) -> usize {
        kernel::active().count_ones(&self.words)
    }

    /// `popcount(self AND other)` — the size of the intersection of the one
    /// sets, without materializing it.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_count(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "and_count of mismatched lengths");
        kernel::active().filter_count(&self.words, &other.words, true)
    }

    /// The `count ≤ 64` coordinates starting at `lo`, packed into a word
    /// (coordinate `lo + b` is bit `b`).
    ///
    /// # Panics
    ///
    /// Panics if `count > 64` or `lo + count > len`.
    pub fn word_at(&self, lo: usize, count: usize) -> u64 {
        assert!(count <= WORD_BITS, "word_at reads at most 64 coordinates");
        assert!(
            lo + count <= self.len,
            "word_at [{lo},{}) out of range {}",
            lo + count,
            self.len
        );
        if count == 0 {
            return 0;
        }
        let (wi, s) = (lo / WORD_BITS, lo % WORD_BITS);
        let mut w = self.words[wi] >> s;
        if s != 0 && s + count > WORD_BITS {
            w |= self.words[wi + 1] << (WORD_BITS - s);
        }
        if count < WORD_BITS {
            w &= (1u64 << count) - 1;
        }
        w
    }

    /// Appends the low `count ≤ 64` bits of `value` (bit `b` becomes
    /// coordinate `len + b`).
    ///
    /// # Panics
    ///
    /// Panics if `count > 64` or `value` has a set bit at or above `count`.
    pub fn push_word(&mut self, value: u64, count: usize) {
        assert!(count <= WORD_BITS, "push_word appends at most 64 bits");
        assert!(
            count == WORD_BITS || value >> count == 0,
            "value {value:#x} has bits at or above {count}"
        );
        let (wi, s) = (self.len / WORD_BITS, self.len % WORD_BITS);
        self.len += count;
        self.words.resize(self.len.div_ceil(WORD_BITS), 0);
        if count == 0 {
            return;
        }
        self.words[wi] |= value << s;
        if s != 0 && s + count > WORD_BITS {
            self.words[wi + 1] |= value >> (WORD_BITS - s);
        }
    }

    /// Appends `other` in place (`self ← self ∥ other`), word-at-a-time
    /// like [`BitVec::concat`].
    pub fn append(&mut self, other: &BitVec) {
        let offset = self.len;
        self.len += other.len;
        self.words.resize(self.len.div_ceil(WORD_BITS), 0);
        kernel::active().or_shifted_into(&other.words, offset, &mut self.words);
    }

    /// Whether every coordinate is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The inner product `⟨self, other⟩` over F₂ (parity of the AND).
    ///
    /// This is the only arithmetic the paper's PRG asks of a processor
    /// (§1.2: "the only operations done by the processors is computing dot
    /// products of vectors over F₂").
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "dot of mismatched lengths");
        kernel::active().dot(&self.words, &other.words)
    }

    /// XORs `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_in_place(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "xor of mismatched lengths");
        kernel::active().xor_in_place(&mut self.words, &other.words);
    }

    /// ORs `other` into `self` in place (union of the one sets).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_in_place(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "or of mismatched lengths");
        kernel::active().or_in_place(&mut self.words, &other.words);
    }

    /// Returns the concatenation `self ∥ other`.
    ///
    /// Word-at-a-time: `self`'s words are copied and `other`'s are
    /// OR-shifted in at `self.len`, so the cost is `O(words)`, not
    /// `O(bits)`.
    pub fn concat(&self, other: &BitVec) -> BitVec {
        let mut out = BitVec::zeros(self.len + other.len);
        out.words[..self.words.len()].copy_from_slice(&self.words);
        kernel::active().or_shifted_into(&other.words, self.len, &mut out.words);
        out
    }

    /// Returns the restriction of the vector to coordinates `[lo, hi)`.
    ///
    /// Word-at-a-time funnel shifts, `O(words)` rather than `O(bits)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > len`.
    pub fn slice(&self, lo: usize, hi: usize) -> BitVec {
        assert!(lo <= hi && hi <= self.len, "slice [{lo},{hi}) out of range");
        let mut out = BitVec::zeros(hi - lo);
        kernel::active().extract_shifted(&self.words, lo, &mut out.words);
        out.mask_tail();
        out
    }

    /// Iterates over the coordinates as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterates over the indices of the one coordinates, word-parallel:
    /// cost is `O(words + ones)` rather than `O(len)`.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |&w| {
                let next = w & (w - 1);
                (next != 0).then_some(next)
            })
            .map(move |w| wi * WORD_BITS + w.trailing_zeros() as usize)
        })
    }

    /// Returns `self AND NOT other` (set difference of the one sets).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_not(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "and_not of mismatched lengths");
        let mut out = self.clone();
        kernel::active().and_not_in_place(&mut out.words, &other.words);
        out.mask_tail();
        out
    }

    /// Access to the packed words (low-level; trailing bits are zero).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    fn mask_tail(&mut self) {
        let used = self.len % WORD_BITS;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        self.xor_in_place(rhs);
    }
}

impl BitXor for &BitVec {
    type Output = BitVec;

    fn bitxor(self, rhs: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_in_place(rhs);
        out
    }
}

impl BitAnd for &BitVec {
    type Output = BitVec;

    fn bitand(self, rhs: &BitVec) -> BitVec {
        assert_eq!(self.len, rhs.len, "and of mismatched lengths");
        let mut out = self.clone();
        kernel::active().and_in_place(&mut out.words, &rhs.words);
        out
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bools(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(100);
        assert_eq!(z.count_ones(), 0);
        assert!(z.is_zero());
        let o = BitVec::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(o.len(), 100);
    }

    #[test]
    fn ones_masks_tail() {
        let o = BitVec::ones(65);
        assert_eq!(o.count_ones(), 65);
        assert_eq!(o.as_words()[1], 1);
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut v = BitVec::zeros(130);
        v.set(129, true);
        assert!(v.get(129));
        v.flip(129);
        assert!(!v.get(129));
        v.flip(0);
        assert!(v.get(0));
    }

    #[test]
    fn from_u64_roundtrip() {
        for x in [0u64, 1, 0b1011, u64::MAX >> 3] {
            let v = BitVec::from_u64(x, 61);
            assert_eq!(v.to_u64(), x & ((1 << 61) - 1));
        }
        let v = BitVec::from_u64(u64::MAX, 64);
        assert_eq!(v.to_u64(), u64::MAX);
    }

    #[test]
    fn from_bools_matches_get() {
        let bits = [true, false, true, true, false];
        let v = BitVec::from_bools(&bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(v.get(i), b);
        }
    }

    #[test]
    fn dot_is_parity_of_and() {
        let a = BitVec::from_bools(&[true, true, false, true]);
        let b = BitVec::from_bools(&[true, false, true, true]);
        // overlap at 0 and 3 -> even parity
        assert!(!a.dot(&b));
        let c = BitVec::from_bools(&[true, false, false, false]);
        assert!(a.dot(&c));
    }

    #[test]
    fn dot_self_is_weight_parity() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let v = BitVec::random(&mut rng, 97);
            assert_eq!(v.dot(&v), v.count_ones() % 2 == 1);
        }
    }

    #[test]
    fn xor_is_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = BitVec::random(&mut rng, 200);
        let b = BitVec::random(&mut rng, 200);
        let mut c = a.clone();
        c.xor_in_place(&b);
        c.xor_in_place(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn concat_preserves_bits() {
        let a = BitVec::from_bools(&[true, false]);
        let b = BitVec::from_bools(&[false, true, true]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 5);
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            vec![true, false, false, true, true]
        );
    }

    #[test]
    fn slice_extracts_range() {
        let v = BitVec::from_bools(&[true, false, true, true, false, true]);
        let s = v.slice(2, 5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![true, true, false]);
    }

    #[test]
    fn random_is_tail_masked() {
        let mut rng = StdRng::seed_from_u64(11);
        for len in [1usize, 63, 64, 65, 127, 129] {
            let v = BitVec::random(&mut rng, len);
            let mut w = v.clone();
            w.mask_tail();
            assert_eq!(v, w, "tail bits must be zero for len {len}");
        }
    }

    #[test]
    fn iter_ones_matches_weight() {
        let mut rng = StdRng::seed_from_u64(5);
        let v = BitVec::random(&mut rng, 300);
        assert_eq!(v.iter_ones().count(), v.count_ones());
    }

    #[test]
    fn iter_ones_yields_sorted_set_indices() {
        let mut rng = StdRng::seed_from_u64(6);
        for len in [1usize, 63, 64, 65, 129, 300] {
            let v = BitVec::random(&mut rng, len);
            let ones: Vec<usize> = v.iter_ones().collect();
            let naive: Vec<usize> = (0..len).filter(|&i| v.get(i)).collect();
            assert_eq!(ones, naive, "len {len}");
        }
    }

    #[test]
    fn and_not_is_set_difference() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = BitVec::random(&mut rng, 170);
        let b = BitVec::random(&mut rng, 170);
        let diff = a.and_not(&b);
        for i in 0..170 {
            assert_eq!(diff.get(i), a.get(i) && !b.get(i), "bit {i}");
        }
        // Partition identity: (a AND b) + (a AND NOT b) = a.
        assert_eq!((&a & &b).count_ones() + diff.count_ones(), a.count_ones());
    }

    #[test]
    fn or_in_place_is_set_union() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = BitVec::random(&mut rng, 170);
        let b = BitVec::random(&mut rng, 170);
        let mut union = a.clone();
        union.or_in_place(&b);
        for i in 0..170 {
            assert_eq!(union.get(i), a.get(i) || b.get(i), "bit {i}");
        }
    }

    #[test]
    fn and_count_is_popcount_of_and() {
        let mut rng = StdRng::seed_from_u64(12);
        for len in [0usize, 1, 63, 64, 65, 200] {
            let a = BitVec::random(&mut rng, len);
            let b = BitVec::random(&mut rng, len);
            assert_eq!(a.and_count(&b), (&a & &b).count_ones(), "len {len}");
        }
    }

    #[test]
    fn appends_match_concat_and_word_at_reads_them_back() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut grown = BitVec::zeros(0);
        let mut reference = BitVec::zeros(0);
        for step in 0..60 {
            let lo = grown.len();
            if step % 3 == 0 {
                let piece = BitVec::random(&mut rng, step * 7 % 131);
                grown.append(&piece);
                reference = reference.concat(&piece);
                assert_eq!(grown.slice(lo, grown.len()), piece);
            } else {
                let count = step * 5 % 65;
                let value = BitVec::random(&mut rng, count).as_words().first().copied();
                let value = value.unwrap_or(0);
                grown.push_word(value, count);
                reference = reference.concat(&BitVec::from_words(
                    vec![value; usize::from(count > 0)],
                    count,
                ));
                assert_eq!(grown.word_at(lo, count), value, "step {step}");
            }
            assert_eq!(grown, reference, "step {step}");
        }
    }

    #[test]
    fn from_words_masks_the_tail() {
        let v = BitVec::from_words(vec![u64::MAX, u64::MAX], 70);
        assert_eq!(v, BitVec::ones(70));
    }

    #[test]
    #[should_panic(expected = "bits at or above")]
    fn push_word_rejects_wide_values() {
        BitVec::zeros(3).push_word(0b100, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn word_at_past_the_end_panics() {
        BitVec::zeros(10).word_at(4, 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(4).get(4);
    }

    #[test]
    fn collect_from_iterator() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.len(), 3);
        assert!(v.get(0) && !v.get(1) && v.get(2));
    }
}
