//! Property-based tests for the F₂ substrate.

use bcc_f2::kernel::{Scalar, WordKernel};
use bcc_f2::subcube::Subcube64;
use bcc_f2::{gauss, sparse_budget, BitMatrix, BitVec, CompressMask, ConsistentSet};
use proptest::prelude::*;

fn arb_bitvec(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(|v| BitVec::from_bools(&v))
}

fn arb_matrix(nrows: usize, ncols: usize) -> impl Strategy<Value = BitMatrix> {
    proptest::collection::vec(arb_bitvec(ncols), nrows)
        .prop_map(move |rows| BitMatrix::from_rows(rows, ncols))
}

proptest! {
    #[test]
    fn xor_commutes(a in arb_bitvec(80), b in arb_bitvec(80)) {
        prop_assert_eq!(&a ^ &b, &b ^ &a);
    }

    #[test]
    fn dot_is_bilinear(a in arb_bitvec(40), b in arb_bitvec(40), c in arb_bitvec(40)) {
        // <a + b, c> = <a, c> + <b, c>
        let lhs = (&a ^ &b).dot(&c);
        let rhs = a.dot(&c) ^ b.dot(&c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn matvec_is_linear(m in arb_matrix(6, 8), x in arb_bitvec(8), y in arb_bitvec(8)) {
        let lhs = m.mul_vec(&(&x ^ &y));
        let rhs = &m.mul_vec(&x) ^ &m.mul_vec(&y);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn left_mul_matches_transpose(m in arb_matrix(7, 5), x in arb_bitvec(7)) {
        prop_assert_eq!(m.left_mul_vec(&x), m.transpose().mul_vec(&x));
    }

    #[test]
    fn rank_subadditive_under_stacking(a in arb_matrix(4, 6), b in arb_matrix(3, 6)) {
        let mut rows: Vec<BitVec> = a.iter_rows().cloned().collect();
        rows.extend(b.iter_rows().cloned());
        let stacked = BitMatrix::from_rows(rows, 6);
        let r = gauss::rank(&stacked);
        prop_assert!(r <= gauss::rank(&a) + gauss::rank(&b));
        prop_assert!(r >= gauss::rank(&a).max(gauss::rank(&b)));
    }

    #[test]
    fn solve_returns_actual_solutions(m in arb_matrix(6, 6), b in arb_bitvec(6)) {
        if let Some(x) = gauss::solve(&m, &b) {
            prop_assert_eq!(m.mul_vec(&x), b);
        } else {
            // Inconsistent: b not in column space, rank([A|b]) > rank(A).
            let aug = m.hconcat(&BitMatrix::from_rows(
                b.iter().map(|bit| BitVec::from_bools(&[bit])).collect(),
                1,
            ));
            prop_assert_eq!(gauss::rank(&aug), gauss::rank(&m) + 1);
        }
    }

    #[test]
    fn kernel_dimension_theorem(m in arb_matrix(5, 9)) {
        let basis = gauss::kernel_basis(&m);
        prop_assert_eq!(basis.len(), 9 - gauss::rank(&m));
        for v in &basis {
            prop_assert!(m.mul_vec(v).is_zero());
        }
    }

    #[test]
    fn subcube_contains_iff_enumerated(mask in 0u64..64, value in 0u64..64, x in 0u64..64) {
        let value = value & mask;
        let cube = Subcube64::with_fixed(6, mask, value);
        let enumerated: std::collections::BTreeSet<u64> = cube.iter().collect();
        prop_assert_eq!(enumerated.contains(&x), cube.contains(x));
        prop_assert_eq!(enumerated.len() as u64, cube.len());
    }

    #[test]
    fn subcube_fix_then_contains(bits in proptest::collection::vec((0u32..10, any::<bool>()), 0..6)) {
        let mut cube = Some(Subcube64::new(10));
        let mut assignment: std::collections::BTreeMap<u32, bool> = Default::default();
        let mut consistent = true;
        for (i, b) in bits {
            if let Some(&prev) = assignment.get(&i) {
                if prev != b {
                    consistent = false;
                }
            }
            assignment.entry(i).or_insert(b);
            cube = cube.and_then(|c| c.fixed(i, b));
        }
        prop_assert_eq!(cube.is_some(), consistent);
        if let Some(c) = cube {
            for x in c.iter().take(64) {
                for (&i, &b) in &assignment {
                    prop_assert_eq!((x >> i) & 1 == 1, b);
                }
            }
        }
    }

    #[test]
    fn echelon_preserves_row_space(m in arb_matrix(5, 7)) {
        let e = gauss::echelon(&m);
        let mut rows: Vec<BitVec> = m.iter_rows().cloned().collect();
        rows.extend(e.matrix.iter_rows().cloned());
        let stacked = BitMatrix::from_rows(rows, 7);
        prop_assert_eq!(gauss::rank(&stacked), e.rank());
    }

    #[test]
    fn consistent_set_roundtrips_bitvec(mask in arb_bitvec(300)) {
        let set = ConsistentSet::from_bitvec(&mask);
        prop_assert_eq!(set.count(), mask.count_ones());
        prop_assert_eq!(set.to_bitvec(), mask.clone());
        prop_assert!(set.iter().eq(mask.iter_ones()));
        // The representation always follows the word-budget rule.
        prop_assert_eq!(set.is_sparse(), set.count() <= sparse_budget(300));
        prop_assert_eq!(set.clone(), set);
    }

    #[test]
    fn consistent_set_filter_agrees_with_bitvec_ops(
        mask in arb_bitvec(300),
        plane_mask in arb_bitvec(300),
        keep in any::<bool>(),
    ) {
        // assign_filtered against the BitVec algebra it replaces:
        // keep = alive AND plane, drop = alive AND NOT plane.
        let set = ConsistentSet::from_bitvec(&mask);
        let mut child = ConsistentSet::empty(0);
        child.assign_filtered(&set, plane_mask.as_words(), keep);
        let expected = if keep {
            &mask & &plane_mask
        } else {
            mask.and_not(&plane_mask)
        };
        prop_assert_eq!(child.to_bitvec(), expected.clone());
        prop_assert_eq!(child.count(), expected.count_ones());
        prop_assert_eq!(child.is_sparse(), child.count() <= sparse_budget(300));
        // Both polarities partition the parent.
        let mut other = ConsistentSet::empty(0);
        other.assign_filtered(&set, plane_mask.as_words(), !keep);
        prop_assert_eq!(child.count() + other.count(), set.count());
    }

    #[test]
    fn consistent_set_build_matches_indices(
        indices in proptest::collection::btree_set(0u32..300, 0..80usize),
    ) {
        let sorted: Vec<u32> = indices.into_iter().collect();
        let set = ConsistentSet::from_indices(300, &sorted);
        prop_assert_eq!(set.count(), sorted.len());
        prop_assert!(set.iter().map(|i| i as u32).eq(sorted.iter().copied()));
        for &i in &sorted {
            prop_assert!(set.contains(i as usize));
        }
    }

    #[test]
    fn counted_build_is_the_per_index_reference(
        universe in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(300), Just(1024)],
        size_pick in 0usize..6,
        seed in any::<u64>(),
        previous in 0usize..4,
    ) {
        // The sizes that matter: empty, one under the word budget, at
        // it, one past it, full — plus one drawn uniformly.
        let budget = sparse_budget(universe);
        let count = match size_pick {
            0 => 0,
            1 => budget.saturating_sub(1),
            2 => budget,
            3 => (budget + 1).min(universe),
            4 => universe,
            _ => (seed % (universe as u64 + 1)) as usize,
        };
        let indices = distinct_sorted(universe, count, seed);
        // Build into a pooled slot that held another set first, so stale
        // buffers would show.
        let mut set = ConsistentSet::full(universe);
        let stale = distinct_sorted(universe, [0, budget, universe / 2, universe][previous], !seed);
        set.start_counted(universe, stale.len());
        for &i in &stale {
            set.push_counted(i as usize);
        }
        set.start_counted(universe, count);
        for &i in &indices {
            set.push_counted(i as usize);
        }
        // The reference: one bit per index, and the index list itself.
        let mut mask = BitVec::zeros(universe);
        for &i in &indices {
            mask.set(i as usize, true);
        }
        prop_assert_eq!(set.count(), count);
        prop_assert!(set.iter().map(|i| i as u32).eq(indices.iter().copied()));
        prop_assert_eq!(set.to_bitvec(), mask);
        prop_assert_eq!(set.is_sparse(), count <= budget);
        for i in 0..universe {
            prop_assert_eq!(set.contains(i), indices.binary_search(&(i as u32)).is_ok());
        }
        prop_assert_eq!(&set, &ConsistentSet::from_indices(universe, &indices));
    }

    #[test]
    fn word_assignment_is_the_counted_build(
        universe in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(300), Just(1024)],
        size_pick in 0usize..6,
        seed in any::<u64>(),
        previous in 0usize..4,
    ) {
        // The exact walk's word-parallel split builds each child from its
        // packed mask and popcount: it must be the counted build of the
        // same points, in the same representation — demoted to sparse
        // exactly at the word budget — into a slot that held another set.
        let budget = sparse_budget(universe);
        let count = match size_pick {
            0 => 0,
            1 => budget.saturating_sub(1),
            2 => budget,
            3 => (budget + 1).min(universe),
            4 => universe,
            _ => (seed % (universe as u64 + 1)) as usize,
        };
        let indices = distinct_sorted(universe, count, seed);
        let mut words = vec![0u64; budget];
        for &i in &indices {
            words[i as usize / 64] |= 1 << (i % 64);
        }
        let mut counted = ConsistentSet::empty(universe);
        counted.start_counted(universe, count);
        for &i in &indices {
            counted.push_counted(i as usize);
        }
        let mut set = ConsistentSet::full(universe);
        let stale = distinct_sorted(universe, [0, budget, universe / 2, universe][previous], !seed);
        set.start_counted(universe, stale.len());
        for &i in &stale {
            set.push_counted(i as usize);
        }
        set.assign_words(universe, &words, count);
        prop_assert_eq!(&set, &counted);
        prop_assert_eq!(set.repr(), counted.repr());
        prop_assert_eq!(set.is_sparse(), count <= budget);
        prop_assert_eq!(set.count(), count);
        prop_assert!(set.iter().map(|i| i as u32).eq(indices.iter().copied()));
        if let Some(dense) = set.dense_words() {
            prop_assert_eq!(dense, words.as_slice());
        }
    }

    #[test]
    fn demotion_flag_tracks_the_budget_exactly_at_the_boundary(
        // prop_filter concentrates every case within two elements of the
        // dense↔sparse demotion boundary — the sizes where an off-by-one
        // in the budget comparison would actually flip the representation
        // (uniform sizes would hit this window in a small minority of
        // cases).
        indices in proptest::collection::btree_set(0u32..300, 1..=80usize)
            .prop_filter("within 2 of the sparse budget", |s| {
                s.len().abs_diff(sparse_budget(300)) <= 2
            }),
    ) {
        let sorted: Vec<u32> = indices.into_iter().collect();
        let set = ConsistentSet::from_indices(300, &sorted);
        prop_assert_eq!(set.is_sparse(), set.count() <= sparse_budget(300));
        prop_assert!(set.iter().map(|i| i as u32).eq(sorted.iter().copied()));
    }
}

/// `count` distinct points of `0..universe`, ascending: the head of a
/// seeded Fisher–Yates shuffle.
fn distinct_sorted(universe: usize, count: usize, seed: u64) -> Vec<u32> {
    let mut all: Vec<u32> = (0..universe as u32).collect();
    let mut state = seed | 1;
    for i in 0..count {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = i + (state % (universe - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(count);
    all.sort_unstable();
    all
}

// ---------------------------------------------------------------------
// The kernel layer: every `WordKernel` method of `Scalar` pinned bitwise
// against a plain bit-at-a-time reference, so the one word-loop path
// keeps an oracle that shares none of its word arithmetic.
// ---------------------------------------------------------------------

/// Bit `i` of a packed word slice, reading past the end as zero.
fn bit(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
}

/// Sets bit `i` of a packed word slice to `v`.
fn put(words: &mut [u64], i: usize, v: bool) {
    let m = 1u64 << (i % 64);
    if v {
        words[i / 64] |= m;
    } else {
        words[i / 64] &= !m;
    }
}

/// The bit indices `i < 64·a.len()` where `a` is set and `plane` reads
/// `keep` (every set bit when `plane` is `None`).
fn ones_reference(a: &[u64], plane: Option<(&[u64], bool)>) -> Vec<u32> {
    (0..a.len() * 64)
        .filter(|&i| bit(a, i) && plane.is_none_or(|(p, keep)| bit(p, i) == keep))
        .map(|i| i as u32)
        .collect()
}

/// The byte of `key` at `shift`, assembled one bit at a time.
fn byte_reference(key: u64, shift: u32) -> usize {
    (0..8)
        .filter(|&j| bit(&[key], (shift + j) as usize))
        .map(|j| 1 << j)
        .sum()
}

/// Word slices sized 0..=12, so single words, multi-word runs with
/// mismatched lengths and the empty case all occur.
fn arb_words() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..=12)
}

/// Reference bit-at-a-time slice (the loop `BitVec::slice` replaced).
fn slice_reference(v: &BitVec, lo: usize, hi: usize) -> BitVec {
    let mut out = BitVec::zeros(hi - lo);
    for i in lo..hi {
        if v.get(i) {
            out.set(i - lo, true);
        }
    }
    out
}

/// Reference bit-at-a-time concat (the loop `BitVec::concat` replaced).
fn concat_reference(a: &BitVec, b: &BitVec) -> BitVec {
    let mut out = BitVec::zeros(a.len() + b.len());
    for i in 0..a.len() {
        if a.get(i) {
            out.set(i, true);
        }
    }
    for i in 0..b.len() {
        if b.get(i) {
            out.set(a.len() + i, true);
        }
    }
    out
}

/// Reference per-bit gather (the loop `BitVec::compress` replaced): each
/// selected one of `v` set at its active slot through a slot table.
fn compress_reference(v: &BitVec, mask: &BitVec) -> BitVec {
    let mut slot = vec![0usize; mask.len()];
    for (s, j) in mask.iter_ones().enumerate() {
        slot[j] = s;
    }
    let mut out = BitVec::zeros(mask.count_ones());
    for j in (v & mask).iter_ones() {
        out.set(slot[j], true);
    }
    out
}

proptest! {
    #[test]
    fn kernel_bulk_ops_match_scalar(a in arb_words(), b in arb_words()) {
        let common = a.len().min(b.len()) * 64;
        for op in 0..4usize {
            let mut want = a.clone();
            for i in 0..common {
                let (x, y) = (bit(&a, i), bit(&b, i));
                put(&mut want, i, match op {
                    0 => x & y,
                    1 => x | y,
                    2 => x ^ y,
                    _ => x & !y,
                });
            }
            let mut got = a.clone();
            match op {
                0 => Scalar.and_in_place(&mut got, &b),
                1 => Scalar.or_in_place(&mut got, &b),
                2 => Scalar.xor_in_place(&mut got, &b),
                _ => Scalar.and_not_in_place(&mut got, &b),
            }
            prop_assert_eq!(&want, &got, "op {}", op);
        }
    }

    #[test]
    fn kernel_counts_and_folds_match_scalar(a in arb_words(), b in arb_words()) {
        prop_assert_eq!(Scalar.count_ones(&a), (0..a.len() * 64).filter(|&i| bit(&a, i)).count());
        let common = a.len().min(b.len()) * 64;
        let parity = (0..common).filter(|&i| bit(&a, i) && bit(&b, i)).count() % 2 == 1;
        prop_assert_eq!(Scalar.dot(&a, &b), parity);
        let (mut ones, mut zeros) = (0u64, 0u64);
        for j in 0..64 {
            put(std::slice::from_mut(&mut ones), j, a.iter().any(|&k| bit(&[k], j)));
            put(std::slice::from_mut(&mut zeros), j, a.iter().all(|&k| bit(&[k], j)));
        }
        prop_assert_eq!(Scalar.or_and_fold(&a), (ones, zeros));
    }

    #[test]
    fn kernel_filter_family_matches_scalar(
        a in arb_words(),
        plane in proptest::collection::vec(any::<u64>(), 12),
        keep in any::<bool>(),
    ) {
        let want_idx = ones_reference(&a, Some((&plane, keep)));
        prop_assert_eq!(Scalar.filter_count(&a, &plane, keep), want_idx.len());
        let mut want = vec![0u64; a.len()];
        for &i in &want_idx {
            put(&mut want, i as usize, true);
        }
        let mut got = vec![!0u64; a.len()];
        Scalar.filter_into(&a, &plane, keep, &mut got);
        prop_assert_eq!(&want, &got);
        let mut got_idx = vec![7u32];
        Scalar.filter_indices(&a, &plane, keep, &mut got_idx);
        prop_assert_eq!(got_idx.remove(0), 7, "appends, keeping existing content");
        prop_assert_eq!(&want_idx, &got_idx);
        got_idx.clear();
        Scalar.ones_indices(&a, &mut got_idx);
        prop_assert_eq!(&ones_reference(&a, None), &got_idx);
    }

    #[test]
    fn kernel_radix_passes_match_scalar(
        keys in proptest::collection::vec(any::<u64>(), 0..40),
        byte in 0u32..8,
    ) {
        let shift = byte * 8;
        let mut want_hist = [0usize; 256];
        for &k in &keys {
            want_hist[byte_reference(k, shift)] += 1;
        }
        let mut got_hist = [0usize; 256];
        Scalar.byte_histogram(&keys, shift, &mut got_hist);
        prop_assert!(want_hist == got_hist, "histogram");
        // Scatter with the offsets a radix pass would derive: the result
        // is the stable sort by that byte, and each offset advances by
        // its bucket's count.
        let mut offsets = [0usize; 256];
        let mut sum = 0usize;
        for (b, o) in offsets.iter_mut().enumerate() {
            *o = sum;
            sum += want_hist[b];
        }
        let mut want_out = keys.clone();
        want_out.sort_by_key(|&k| byte_reference(k, shift));
        let mut want_offsets = offsets;
        for (o, &h) in want_offsets.iter_mut().zip(&want_hist) {
            *o += h;
        }
        let mut got_out = vec![!0u64; keys.len()];
        Scalar.byte_scatter(&keys, shift, &mut offsets, &mut got_out);
        prop_assert_eq!(&want_out, &got_out);
        prop_assert!(offsets == want_offsets, "advanced offsets");
    }

    #[test]
    fn kernel_shift_family_matches_scalar(
        src in arb_words(),
        lo_bit in 0usize..800,
        out_len in 0usize..12,
        base in arb_words(),
    ) {
        let mut want = vec![0u64; out_len];
        for i in 0..out_len * 64 {
            put(&mut want, i, bit(&src, lo_bit + i));
        }
        let mut got = vec![!0u64; out_len];
        Scalar.extract_shifted(&src, lo_bit, &mut got);
        prop_assert_eq!(&want, &got, "extract at {}", lo_bit);
        // or_shifted_into: size the output so every bit fits (its
        // contract for out-of-range bits requires them to be zero).
        let bit_offset = lo_bit % 130;
        let words = src.len() + bit_offset / 64 + 2;
        let mut want = base.clone();
        want.resize(words, 0);
        let mut got = want.clone();
        for i in 0..src.len() * 64 {
            if bit(&src, i) {
                put(&mut want, bit_offset + i, true);
            }
        }
        Scalar.or_shifted_into(&src, bit_offset, &mut got);
        prop_assert_eq!(&want, &got, "or-shift at {}", bit_offset);
    }

    #[test]
    fn kernel_partition_split_matches_scalar_at_the_demotion_boundary(
        // Parent occupancies concentrated around the dense↔sparse budget
        // (300/64 -> 5 words) so both child regimes and the boundary
        // itself occur; universe 300 leaves a 44-bit tail word.
        indices in proptest::collection::btree_set(0u32..300, 1..=24usize),
        plane_mask in arb_bitvec(300),
        keep in any::<bool>(),
    ) {
        let sorted: Vec<u32> = indices.into_iter().collect();
        let parent = ConsistentSet::from_indices(300, &sorted);
        let want: Vec<usize> = sorted
            .iter()
            .map(|&i| i as usize)
            .filter(|&i| plane_mask.get(i) == keep)
            .collect();
        let mut got = ConsistentSet::empty(0);
        got.assign_filtered(&parent, plane_mask.as_words(), keep);
        // A sparse parent stays sparse; a dense one demotes exactly when
        // the child fits the budget.
        let sparse = parent.is_sparse() || want.len() <= sparse_budget(300);
        prop_assert_eq!(got.is_sparse(), sparse);
        prop_assert_eq!(got.count(), want.len());
        prop_assert!(got.iter().eq(want.iter().copied()), "points differ");
    }

    #[test]
    fn slice_matches_the_bitwise_reference(
        bits in proptest::collection::vec(any::<bool>(), 300),
        len in 0usize..=300,
        a in 0usize..=300,
        b in 0usize..=300,
    ) {
        let v = BitVec::from_bools(&bits[..len]);
        let (lo, hi) = (a.min(b).min(len), a.max(b).min(len));
        prop_assert_eq!(v.slice(lo, hi), slice_reference(&v, lo, hi));
    }

    #[test]
    fn concat_matches_the_bitwise_reference(
        bits_a in proptest::collection::vec(any::<bool>(), 200),
        bits_b in proptest::collection::vec(any::<bool>(), 200),
        len_a in 0usize..=200,
        len_b in 0usize..=200,
    ) {
        let a = BitVec::from_bools(&bits_a[..len_a]);
        let b = BitVec::from_bools(&bits_b[..len_b]);
        let cat = a.concat(&b);
        prop_assert_eq!(cat.len(), a.len() + b.len());
        prop_assert_eq!(cat, concat_reference(&a, &b));
    }

    #[test]
    fn compress_is_the_per_bit_gather(
        bits in proptest::collection::vec(any::<bool>(), 600),
        mask_bits in proptest::collection::vec(any::<bool>(), 600),
        thin_bits in proptest::collection::vec(any::<bool>(), 600),
        len in 0usize..=600,
        kind in 0usize..6,
        single in 0usize..600,
    ) {
        // Empty, full, single-bit, all-but-one-bit, half-dense and
        // quarter-dense masks. Past the cleared bit of the all-but-one
        // mask every word's 64 kept bits straddle two output words, and
        // the random masks leave runs of every length per word.
        let v = BitVec::from_bools(&bits[..len]);
        let mask = match kind {
            0 => BitVec::zeros(len),
            1 => BitVec::ones(len),
            2 => {
                let mut m = BitVec::zeros(len);
                if len > 0 {
                    m.set(single % len, true);
                }
                m
            }
            3 => {
                let mut m = BitVec::ones(len);
                if len > 0 {
                    m.set(single % len, false);
                }
                m
            }
            4 => BitVec::from_bools(&mask_bits[..len]),
            _ => &BitVec::from_bools(&mask_bits[..len]) & &BitVec::from_bools(&thin_bits[..len]),
        };
        let prepared = CompressMask::new(&mask);
        prop_assert_eq!(prepared.ones(), mask.count_ones());
        prop_assert_eq!(v.compress(&prepared), compress_reference(&v, &mask));
    }
}

#[test]
fn compress_spills_every_width_into_the_next_output_word() {
    // Word 0 keeps its low `kept` bits and every later word all 64, so
    // each later word starts at output offset `kept` and spills `kept`
    // bits into the next output word: every spill width 0..=64 occurs.
    let ones = BitVec::ones(300);
    let thirds: BitVec = (0..300).map(|i| i % 3 != 1).collect();
    for kept in 0..=64 {
        let mut mask = BitVec::ones(300);
        for i in kept..64 {
            mask.set(i, false);
        }
        let prepared = CompressMask::new(&mask);
        for v in [&ones, &thirds] {
            let want = compress_reference(v, &mask);
            assert_eq!(v.compress(&prepared), want, "kept {kept}");
        }
    }
}
