//! Hybrid dense/sparse sets of live support points.
//!
//! The exact transcript walks in `bcc-core` track, per processor, the
//! *consistent set* `D_p^{(t)}` — the support points still compatible
//! with the transcript so far. Sets start at the full support and only
//! ever shrink along a walk, so two regimes matter:
//!
//! * **dense** — a word-parallel bit mask ([`BitVec`]-style packed
//!   words), where intersections are `AND`s and sizes are popcounts:
//!   cost `O(universe / 64)` per operation regardless of occupancy;
//! * **sparse** — a sorted list of live indices, where every operation
//!   costs `O(live)`: the only viable representation once a huge
//!   support (2^20+ points) has collapsed to a handful of survivors.
//!
//! [`ConsistentSet`] is both: it starts dense and *demotes* to sparse
//! once the live count falls to the word budget ([`sparse_budget`] —
//! the number of words the dense mask would occupy), the break-even
//! point at which scanning indices beats scanning words. Demotion is
//! monotone along a walk (subsets of a sparse set are sparse), and the
//! live count is cached so `count()` is `O(1)` in both regimes.
//!
//! All mutating operations reuse the set's existing buffers, which is
//! what lets `bcc-core`'s walk workspace pool `ConsistentSet` slots
//! across tree nodes and run its steady-state recursion without heap
//! allocation.

use crate::kernel::{self, WordKernel};
use crate::BitVec;

const WORD_BITS: usize = 64;

/// The storage regime a [`ConsistentSet`] currently uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetRepr {
    /// Word-parallel bit mask over the universe.
    Dense,
    /// Sorted list of live indices.
    Sparse,
}

/// The live-count threshold at or below which a set over `universe`
/// points is stored sparse: the number of 64-bit words its dense mask
/// would occupy. At that occupancy the index list is no larger than the
/// mask and every operation is priced by live points instead of
/// universe words.
pub fn sparse_budget(universe: usize) -> usize {
    universe.div_ceil(WORD_BITS)
}

/// A set of live points over a fixed universe `0..universe`, stored
/// dense or sparse by occupancy (see the module docs).
///
/// # Example
///
/// ```
/// use bcc_f2::{sparse_budget, ConsistentSet, SetRepr};
///
/// let full = ConsistentSet::full(1 << 12);
/// assert_eq!(full.repr(), SetRepr::Dense);
/// assert_eq!(full.count(), 1 << 12);
///
/// let tiny = ConsistentSet::from_indices(1 << 12, &[3, 999]);
/// assert_eq!(tiny.repr(), SetRepr::Sparse);
/// assert!(tiny.count() <= sparse_budget(1 << 12));
/// ```
#[derive(Debug)]
pub struct ConsistentSet {
    universe: usize,
    count: usize,
    repr: SetRepr,
    /// Dense storage; valid (and tail-masked) only when `repr` is
    /// `Dense`. Retained across regime flips so pooled slots never
    /// re-allocate.
    words: Vec<u64>,
    /// Sparse storage (sorted, distinct); valid only when `repr` is
    /// `Sparse`.
    indices: Vec<u32>,
}

impl ConsistentSet {
    /// The full set `0..universe`.
    pub fn full(universe: usize) -> Self {
        let mut set = ConsistentSet::empty(universe);
        set.make_full(universe);
        set
    }

    /// The empty set over `universe`.
    pub fn empty(universe: usize) -> Self {
        ConsistentSet {
            universe,
            count: 0,
            repr: SetRepr::Sparse,
            words: Vec::new(),
            indices: Vec::new(),
        }
    }

    /// Builds from sorted, distinct indices below `universe`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are unsorted, repeat, or overflow the
    /// universe.
    pub fn from_indices(universe: usize, indices: &[u32]) -> Self {
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be sorted and distinct"
        );
        if let Some(&last) = indices.last() {
            assert!((last as usize) < universe, "index beyond the universe");
        }
        let mut set = ConsistentSet::empty(universe);
        set.begin(universe);
        for &i in indices {
            set.push(i as usize);
        }
        set.finish();
        set
    }

    /// Builds from a [`BitVec`] mask (bit `i` set ⇔ point `i` live).
    pub fn from_bitvec(mask: &BitVec) -> Self {
        let mut set = ConsistentSet::empty(mask.len());
        set.begin(mask.len());
        for i in mask.iter_ones() {
            set.push(i);
        }
        set.finish();
        set
    }

    /// The set as a [`BitVec`] mask (allocates; for tests and
    /// interchange, not hot paths).
    pub fn to_bitvec(&self) -> BitVec {
        let mut mask = BitVec::zeros(self.universe);
        for i in self.iter() {
            mask.set(i, true);
        }
        mask
    }

    /// The number of live points — `O(1)`, cached in both regimes.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether no point is live.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The current storage regime.
    pub fn repr(&self) -> SetRepr {
        self.repr
    }

    /// Whether the set is stored as a sorted index list.
    pub fn is_sparse(&self) -> bool {
        self.repr == SetRepr::Sparse
    }

    /// The dense words, when dense (tail bits zero).
    pub fn dense_words(&self) -> Option<&[u64]> {
        match self.repr {
            SetRepr::Dense => Some(&self.words),
            SetRepr::Sparse => None,
        }
    }

    /// The sorted live indices, when sparse.
    pub fn sparse_indices(&self) -> Option<&[u32]> {
        match self.repr {
            SetRepr::Sparse => Some(&self.indices),
            SetRepr::Dense => None,
        }
    }

    /// Whether point `i` is live.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(
            i < self.universe,
            "point {i} beyond universe {}",
            self.universe
        );
        match self.repr {
            SetRepr::Dense => (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1,
            SetRepr::Sparse => self.indices.binary_search(&(i as u32)).is_ok(),
        }
    }

    /// Iterates over the live points ascending: `O(words + live)` dense,
    /// `O(live)` sparse.
    pub fn iter(&self) -> SetIter<'_> {
        match self.repr {
            SetRepr::Dense => SetIter::Dense {
                words: &self.words,
                word_index: 0,
                current: self.words.first().copied().unwrap_or(0),
            },
            SetRepr::Sparse => SetIter::Sparse {
                indices: self.indices.iter(),
            },
        }
    }

    /// Re-initializes as the empty set over `universe` — `O(1)`, keeps
    /// both buffers for reuse.
    pub fn make_empty(&mut self, universe: usize) {
        self.universe = universe;
        self.count = 0;
        self.repr = SetRepr::Sparse;
        self.indices.clear();
    }

    /// Re-initializes as the full set over `universe`, reusing buffers.
    fn make_full(&mut self, universe: usize) {
        self.universe = universe;
        self.count = universe;
        if universe <= sparse_budget(universe) {
            // Degenerate tiny universes: the index list is no larger
            // than one word.
            self.repr = SetRepr::Sparse;
            self.indices.clear();
            self.indices.extend(0..universe as u32);
            return;
        }
        self.repr = SetRepr::Dense;
        self.words.clear();
        self.words.resize(universe.div_ceil(WORD_BITS), !0u64);
        let used = universe % WORD_BITS;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }

    /// Sets `self` to the points of `parent` whose bit in `plane` equals
    /// `keep` — the walk's split-by-broadcast-label primitive. `plane`
    /// is a packed bit plane over the same universe (bit `i` at word
    /// `i/64`); bits of `plane` outside `parent` are ignored.
    ///
    /// Cost: `O(universe/64)` for a dense parent, `O(live)` for a
    /// sparse one. The result is demoted to sparse when its count falls
    /// within [`sparse_budget`]; buffers are reused, so steady-state
    /// callers never allocate.
    ///
    /// # Panics
    ///
    /// Panics if `plane` holds fewer words than the parent's universe
    /// needs.
    pub fn assign_filtered(&mut self, parent: &ConsistentSet, plane: &[u64], keep: bool) {
        self.assign_filtered_with(parent, plane, keep, &kernel::active());
    }

    /// [`assign_filtered`](ConsistentSet::assign_filtered) under an
    /// explicit [`WordKernel`] — the entry point differential tests and
    /// benches use to pin and price one kernel against another. The
    /// result is bitwise independent of the kernel choice.
    pub fn assign_filtered_with<K: WordKernel>(
        &mut self,
        parent: &ConsistentSet,
        plane: &[u64],
        keep: bool,
        kernel: &K,
    ) {
        let universe = parent.universe;
        let words = sparse_budget(universe);
        assert!(plane.len() >= words, "plane narrower than the universe");
        self.universe = universe;
        match parent.repr {
            SetRepr::Sparse => {
                // Branchless filter: the survive/die decision is data
                // random in the walk, so a conditional push would
                // mispredict half the time; writing unconditionally and
                // advancing the length by the predicate keeps the loop
                // at memory speed.
                self.repr = SetRepr::Sparse;
                self.indices.clear();
                self.indices.resize(parent.indices.len(), 0);
                let want = keep as u64;
                let mut len = 0usize;
                for &i in &parent.indices {
                    let bit = (plane[i as usize / WORD_BITS] >> (i as usize % WORD_BITS)) & 1;
                    self.indices[len] = i;
                    len += (bit == want) as usize;
                }
                self.indices.truncate(len);
                self.count = len;
            }
            SetRepr::Dense => {
                // Pass 1: count, to choose the result regime without
                // materializing twice.
                let count = kernel.filter_count(&parent.words, plane, keep);
                self.count = count;
                if count <= sparse_budget(universe) {
                    self.repr = SetRepr::Sparse;
                    self.indices.clear();
                    kernel.filter_indices(&parent.words, plane, keep, &mut self.indices);
                } else {
                    self.repr = SetRepr::Dense;
                    self.words.clear();
                    self.words.resize(parent.words.len(), 0);
                    kernel.filter_into(&parent.words, plane, keep, &mut self.words);
                }
            }
        }
    }

    /// Starts building the set by ascending index pushes (clears any
    /// previous content, keeps buffers).
    pub fn begin(&mut self, universe: usize) {
        self.make_empty(universe);
    }

    /// Appends a live point during a [`begin`](ConsistentSet::begin)
    /// build. Points must arrive in strictly ascending order.
    pub fn push(&mut self, i: usize) {
        debug_assert!(i < self.universe, "point beyond universe");
        debug_assert!(
            self.indices.last().is_none_or(|&last| (last as usize) < i),
            "pushes must be strictly ascending"
        );
        self.indices.push(i as u32);
    }

    /// Finishes a [`begin`](ConsistentSet::begin) build: caches the
    /// count and promotes to dense if the occupancy exceeds the sparse
    /// budget.
    pub fn finish(&mut self) {
        self.count = self.indices.len();
        if self.count > sparse_budget(self.universe) {
            self.repr = SetRepr::Dense;
            self.words.clear();
            self.words.resize(sparse_budget(self.universe), 0);
            for &i in &self.indices {
                self.words[i as usize / WORD_BITS] |= 1u64 << (i as usize % WORD_BITS);
            }
            self.indices.clear();
        }
    }
}

impl Clone for ConsistentSet {
    /// Clones only the active representation's buffer (pooled sets may
    /// carry stale capacity in the inactive one).
    fn clone(&self) -> Self {
        ConsistentSet {
            universe: self.universe,
            count: self.count,
            repr: self.repr,
            words: match self.repr {
                SetRepr::Dense => self.words.clone(),
                SetRepr::Sparse => Vec::new(),
            },
            indices: match self.repr {
                SetRepr::Sparse => self.indices.clone(),
                SetRepr::Dense => Vec::new(),
            },
        }
    }
}

impl PartialEq for ConsistentSet {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe && self.count == other.count && self.iter().eq(other.iter())
    }
}

impl Eq for ConsistentSet {}

/// Iterator over a [`ConsistentSet`]'s live points, ascending.
pub enum SetIter<'a> {
    /// Word-scanning iteration of a dense mask.
    Dense {
        /// The packed words.
        words: &'a [u64],
        /// The word currently being drained.
        word_index: usize,
        /// Remaining bits of the current word.
        current: u64,
    },
    /// Direct iteration of a sparse index list.
    Sparse {
        /// The remaining indices.
        indices: std::slice::Iter<'a, u32>,
    },
}

impl Iterator for SetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            SetIter::Sparse { indices } => indices.next().map(|&i| i as usize),
            SetIter::Dense {
                words,
                word_index,
                current,
            } => {
                while *current == 0 {
                    *word_index += 1;
                    if *word_index >= words.len() {
                        return None;
                    }
                    *current = words[*word_index];
                }
                let bit = current.trailing_zeros() as usize;
                *current &= *current - 1;
                Some(*word_index * WORD_BITS + bit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive_plane_filter(parent: &[usize], plane: &[u64], keep: bool) -> Vec<usize> {
        parent
            .iter()
            .copied()
            .filter(|&i| ((plane[i / 64] >> (i % 64)) & 1 == 1) == keep)
            .collect()
    }

    #[test]
    fn full_and_empty_reprs() {
        let full = ConsistentSet::full(4096);
        assert_eq!(full.repr(), SetRepr::Dense);
        assert_eq!(full.count(), 4096);
        assert_eq!(full.iter().count(), 4096);
        let empty = ConsistentSet::empty(4096);
        assert_eq!(empty.repr(), SetRepr::Sparse);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.iter().next(), None);
    }

    #[test]
    fn tiny_universe_full_set_is_sparse() {
        // universe <= its own word budget only for universe <= 1.
        let one = ConsistentSet::full(1);
        assert_eq!(one.repr(), SetRepr::Sparse);
        assert_eq!(one.count(), 1);
        assert!(one.contains(0));
        let zero = ConsistentSet::full(0);
        assert_eq!(zero.count(), 0);
    }

    #[test]
    fn sparse_budget_is_the_word_count() {
        assert_eq!(sparse_budget(0), 0);
        assert_eq!(sparse_budget(1), 1);
        assert_eq!(sparse_budget(64), 1);
        assert_eq!(sparse_budget(65), 2);
        assert_eq!(sparse_budget(1 << 20), 1 << 14);
    }

    #[test]
    fn from_indices_boundary_repr() {
        // universe 256 -> budget 4: 4 live points sparse, 5 dense.
        let at_budget = ConsistentSet::from_indices(256, &[0, 7, 100, 255]);
        assert_eq!(at_budget.repr(), SetRepr::Sparse);
        assert_eq!(at_budget.count(), 4);
        let over_budget = ConsistentSet::from_indices(256, &[0, 7, 100, 200, 255]);
        assert_eq!(over_budget.repr(), SetRepr::Dense);
        assert_eq!(over_budget.count(), 5);
        // Same membership either way.
        assert_eq!(
            over_budget.iter().collect::<Vec<_>>(),
            vec![0, 7, 100, 200, 255]
        );
    }

    #[test]
    fn assign_filtered_demotes_exactly_at_the_budget() {
        // universe 256, parent dense with 8 live points; a plane keeping
        // 4 of them must produce a sparse child, keeping 5 a dense one.
        let parent = ConsistentSet::from_indices(256, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(parent.repr(), SetRepr::Dense);
        let mut plane = vec![0u64; 4];
        for i in [1usize, 2, 3, 4] {
            plane[i / 64] |= 1 << (i % 64);
        }
        let mut child = ConsistentSet::empty(0);
        child.assign_filtered(&parent, &plane, true);
        assert_eq!(child.repr(), SetRepr::Sparse);
        assert_eq!(child.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        plane[0] |= 1 << 5;
        child.assign_filtered(&parent, &plane, true);
        assert_eq!(child.repr(), SetRepr::Dense);
        assert_eq!(child.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        // The complement side of the same plane.
        child.assign_filtered(&parent, &plane, false);
        assert_eq!(child.iter().collect::<Vec<_>>(), vec![6, 7, 8]);
        assert_eq!(child.repr(), SetRepr::Sparse);
    }

    #[test]
    fn sparse_parent_children_stay_sparse() {
        let parent = ConsistentSet::from_indices(1 << 16, &[5, 1000, 40000]);
        assert!(parent.is_sparse());
        let mut plane = vec![0u64; sparse_budget(1 << 16)];
        plane[1000 / 64] |= 1 << (1000 % 64);
        let mut child = ConsistentSet::empty(0);
        child.assign_filtered(&parent, &plane, true);
        assert_eq!(child.iter().collect::<Vec<_>>(), vec![1000]);
        child.assign_filtered(&parent, &plane, false);
        assert_eq!(child.iter().collect::<Vec<_>>(), vec![5, 40000]);
    }

    #[test]
    fn begin_push_finish_promotes_past_budget() {
        let mut set = ConsistentSet::empty(0);
        set.begin(256);
        for i in 0..4 {
            set.push(i * 10);
        }
        set.finish();
        assert_eq!(set.repr(), SetRepr::Sparse);
        set.begin(256);
        for i in 0..100 {
            set.push(i * 2);
        }
        set.finish();
        assert_eq!(set.repr(), SetRepr::Dense);
        assert_eq!(set.count(), 100);
        assert_eq!(set.iter().count(), 100);
        assert!(set.contains(198) && !set.contains(199));
    }

    #[test]
    fn buffer_reuse_across_regime_flips_is_correct() {
        // The same slot cycling dense -> sparse -> dense must never leak
        // stale content.
        let big = ConsistentSet::full(512);
        let mut plane = vec![!0u64; 8];
        let mut slot = ConsistentSet::empty(0);
        slot.assign_filtered(&big, &plane, true); // all 512: dense
        assert_eq!(slot.count(), 512);
        plane.iter_mut().for_each(|w| *w = 0);
        plane[0] = 0b1010;
        slot.assign_filtered(&big, &plane, true); // 2 points: sparse
        assert_eq!(slot.iter().collect::<Vec<_>>(), vec![1, 3]);
        slot.assign_filtered(&big, &plane, false); // 510 points: dense again
        assert_eq!(slot.count(), 510);
        assert!(!slot.contains(1) && slot.contains(0) && slot.contains(511));
    }

    #[test]
    fn random_differential_vs_bitvec() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for &universe in &[1usize, 63, 64, 65, 300, 1000] {
            for _ in 0..20 {
                let mask = BitVec::random(&mut rng, universe);
                let set = ConsistentSet::from_bitvec(&mask);
                assert_eq!(set.count(), mask.count_ones(), "universe {universe}");
                assert_eq!(
                    set.iter().collect::<Vec<_>>(),
                    mask.iter_ones().collect::<Vec<_>>()
                );
                assert_eq!(set.to_bitvec(), mask);
                // Filter by a random plane, both polarities.
                let plane_mask = BitVec::random(&mut rng, universe);
                let plane = plane_mask.as_words();
                let parent_pts: Vec<usize> = mask.iter_ones().collect();
                for keep in [true, false] {
                    let mut child = ConsistentSet::empty(0);
                    child.assign_filtered(&set, plane, keep);
                    assert_eq!(
                        child.iter().collect::<Vec<_>>(),
                        naive_plane_filter(&parent_pts, plane, keep),
                        "universe {universe} keep {keep}"
                    );
                    assert_eq!(child.count(), child.iter().count());
                    // The repr always matches the budget rule.
                    let expect_sparse = child.count() <= sparse_budget(universe);
                    assert_eq!(child.is_sparse(), expect_sparse);
                }
            }
        }
    }

    #[test]
    fn clone_and_eq_are_semantic() {
        let mut rng = StdRng::seed_from_u64(7);
        let mask = BitVec::random(&mut rng, 500);
        let a = ConsistentSet::from_bitvec(&mask);
        let b = a.clone();
        assert_eq!(a, b);
        let c = ConsistentSet::from_indices(500, &[2]);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "sorted and distinct")]
    fn from_indices_rejects_unsorted() {
        let _ = ConsistentSet::from_indices(10, &[3, 1]);
    }

    #[test]
    #[should_panic(expected = "beyond the universe")]
    fn from_indices_rejects_overflow() {
        let _ = ConsistentSet::from_indices(10, &[10]);
    }
}
