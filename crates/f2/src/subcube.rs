//! Affine subcubes of the Boolean cube `{0,1}^n` for `n ≤ 64`.
//!
//! A subcube fixes some coordinates to constants and leaves the rest free.
//! Every planted-clique row distribution in the paper is uniform over such a
//! set: processor `t`'s input under `A_C` is uniform on
//! `{x : x_t = 0, x_j = 1 for j ∈ C \ {t}}` (§1.3). The exact
//! transcript-distribution engine enumerates these supports, so the
//! representation is a packed `u64` pair for speed.

use rand::Rng;

/// A subcube `{x ∈ {0,1}^n : x & mask == value}`, `n ≤ 64`.
///
/// `mask` has a one at each fixed coordinate; `value` holds the fixed bits
/// (and is zero elsewhere — an invariant maintained by all constructors).
///
/// # Example
///
/// ```
/// use bcc_f2::subcube::Subcube64;
///
/// // {x ∈ {0,1}^4 : x_1 = 1, x_3 = 0}
/// let c = Subcube64::new(4).fixed(1, true).unwrap().fixed(3, false).unwrap();
/// assert_eq!(c.free_count(), 2);
/// assert!(c.contains(0b0010));
/// assert!(!c.contains(0b1010));
/// assert_eq!(c.iter().count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Subcube64 {
    n: u32,
    mask: u64,
    value: u64,
}

impl Subcube64 {
    /// The full cube `{0,1}^n` (no fixed coordinates).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn new(n: u32) -> Self {
        assert!(n <= 64, "Subcube64 supports at most 64 coordinates");
        Subcube64 {
            n,
            mask: 0,
            value: 0,
        }
    }

    /// A subcube with the given fixed-coordinate mask and values.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`, if `mask` or `value` has bits above coordinate
    /// `n`, or if `value` has bits outside `mask`.
    pub fn with_fixed(n: u32, mask: u64, value: u64) -> Self {
        assert!(n <= 64, "Subcube64 supports at most 64 coordinates");
        let dom = domain_mask(n);
        assert_eq!(mask & !dom, 0, "mask has bits above coordinate n");
        assert_eq!(value & !mask, 0, "value has bits outside the mask");
        Subcube64 { n, mask, value }
    }

    /// Returns this subcube with coordinate `i` additionally fixed to `bit`.
    ///
    /// Returns `None` if `i` is already fixed to the opposite value (the
    /// intersection would be empty).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn fixed(&self, i: u32, bit: bool) -> Option<Self> {
        assert!(i < self.n, "coordinate {i} out of range {}", self.n);
        let b = 1u64 << i;
        if self.mask & b != 0 {
            let existing = self.value & b != 0;
            return (existing == bit).then_some(*self);
        }
        Some(Subcube64 {
            n: self.n,
            mask: self.mask | b,
            value: self.value | if bit { b } else { 0 },
        })
    }

    /// The intersection with another subcube over the same cube, if
    /// non-empty.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn intersect(&self, other: &Subcube64) -> Option<Self> {
        assert_eq!(self.n, other.n, "intersect requires equal dimensions");
        let common = self.mask & other.mask;
        if (self.value ^ other.value) & common != 0 {
            return None;
        }
        Some(Subcube64 {
            n: self.n,
            mask: self.mask | other.mask,
            value: self.value | other.value,
        })
    }

    /// The cube dimension `n`.
    pub fn dimension(&self) -> u32 {
        self.n
    }

    /// The number of free coordinates.
    pub fn free_count(&self) -> u32 {
        self.n - self.mask.count_ones()
    }

    /// The number of points, `2^free_count`.
    ///
    /// # Panics
    ///
    /// Panics if the size does not fit a `u64` (free_count = 64).
    pub fn len(&self) -> u64 {
        assert!(self.free_count() < 64, "size overflows u64");
        1u64 << self.free_count()
    }

    /// `is_empty` is always false — subcubes are never empty — provided for
    /// API symmetry with collections.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `x` (as packed bits) belongs to the subcube.
    pub fn contains(&self, x: u64) -> bool {
        x & !domain_mask(self.n) == 0 && x & self.mask == self.value
    }

    /// Enumerates the members in increasing free-coordinate counter order.
    ///
    /// The iterator yields exactly `2^free_count` values; intended for
    /// `free_count ≲ 25` (the exact engine's regime).
    pub fn iter(&self) -> Iter {
        Iter {
            cube: *self,
            counter: 0,
            done: false,
        }
    }

    /// Samples a uniform member.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let free = !self.mask & domain_mask(self.n);
        (rng.gen::<u64>() & free) | self.value
    }

    /// Scatters a free-coordinate counter into the cube: bit `j` of
    /// `counter` lands on the `j`-th free coordinate.
    fn scatter(&self, counter: u64) -> u64 {
        let mut x = self.value;
        let mut c = counter;
        let mut free = !self.mask & domain_mask(self.n);
        while c != 0 && free != 0 {
            let bit = free & free.wrapping_neg();
            if c & 1 == 1 {
                x |= bit;
            }
            free ^= bit;
            c >>= 1;
        }
        x
    }
}

/// Iterator over the members of a [`Subcube64`].
#[derive(Debug, Clone)]
pub struct Iter {
    cube: Subcube64,
    counter: u64,
    done: bool,
}

impl Iterator for Iter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.done {
            return None;
        }
        let x = self.cube.scatter(self.counter);
        if self.counter + 1 == self.cube.len() {
            self.done = true;
        } else {
            self.counter += 1;
        }
        Some(x)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = if self.done {
            0
        } else {
            (self.cube.len() - self.counter) as usize
        };
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter {}

fn domain_mask(n: u32) -> u64 {
    if n == 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn full_cube_enumerates_everything() {
        let c = Subcube64::new(4);
        let all: BTreeSet<u64> = c.iter().collect();
        assert_eq!(all.len(), 16);
        assert!(all.contains(&0) && all.contains(&15));
    }

    #[test]
    fn fixing_halves_size() {
        let c = Subcube64::new(6);
        let c1 = c.fixed(2, true).unwrap();
        assert_eq!(c1.len(), 32);
        assert!(c1.iter().all(|x| x & 4 != 0));
    }

    #[test]
    fn conflicting_fix_is_none() {
        let c = Subcube64::new(3).fixed(0, true).unwrap();
        assert!(c.fixed(0, false).is_none());
        assert_eq!(c.fixed(0, true), Some(c));
    }

    #[test]
    fn contains_matches_enumeration() {
        let c = Subcube64::with_fixed(5, 0b10010, 0b10000);
        let members: BTreeSet<u64> = c.iter().collect();
        for x in 0..32u64 {
            assert_eq!(members.contains(&x), c.contains(x), "x={x:05b}");
        }
    }

    #[test]
    fn contains_rejects_out_of_domain() {
        let c = Subcube64::new(4);
        assert!(!c.contains(1 << 10));
    }

    #[test]
    fn intersect_matches_set_intersection() {
        let a = Subcube64::with_fixed(5, 0b00011, 0b00001);
        let b = Subcube64::with_fixed(5, 0b00110, 0b00100);
        // a fixes x1=0; b fixes x1=0 too (bit 1 of value is 0) -> compatible.
        let i = a.intersect(&b).unwrap();
        let ia: BTreeSet<u64> = a.iter().collect();
        let ib: BTreeSet<u64> = b.iter().collect();
        let ii: BTreeSet<u64> = i.iter().collect();
        assert_eq!(ii, ia.intersection(&ib).copied().collect());
    }

    #[test]
    fn intersect_detects_empty() {
        let a = Subcube64::new(3).fixed(1, true).unwrap();
        let b = Subcube64::new(3).fixed(1, false).unwrap();
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn sample_lands_inside() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = Subcube64::with_fixed(20, 0xF0F, 0x505);
        for _ in 0..200 {
            assert!(c.contains(c.sample(&mut rng)));
        }
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = Subcube64::new(3).fixed(0, true).unwrap(); // 4 members
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..4000 {
            *counts.entry(c.sample(&mut rng)).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4);
        for &c in counts.values() {
            assert!((c as f64 - 1000.0).abs() < 150.0);
        }
    }

    #[test]
    fn iter_len_matches_size_hint() {
        let c = Subcube64::with_fixed(10, 0b11, 0b01);
        let it = c.iter();
        assert_eq!(it.len(), 256);
        assert_eq!(it.count(), 256);
    }

    #[test]
    fn point_subcube() {
        let mut c = Subcube64::new(3);
        for i in 0..3 {
            c = c.fixed(i, i % 2 == 0).unwrap();
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![0b101]);
    }

    #[test]
    fn dimension_64_domain_mask() {
        let c = Subcube64::new(64);
        assert!(c.contains(u64::MAX));
        assert_eq!(c.free_count(), 64);
    }
}
