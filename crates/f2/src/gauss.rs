//! Gaussian elimination over F₂: rank, echelon forms, kernels, solving.
//!
//! The seed-length attack of §8 of the paper reduces to deciding whether the
//! broadcast `(seed, bit)` pairs are consistent with *some* secret column
//! `m₁`, i.e. whether the linear system `X·m₁ = y` is solvable — which is
//! [`solve`].

use crate::{BitMatrix, BitVec};

/// The result of reducing a matrix to row-echelon form.
#[derive(Debug, Clone)]
pub struct Echelon {
    /// The reduced matrix (row-echelon; zero rows at the bottom).
    pub matrix: BitMatrix,
    /// The pivot column of each non-zero row, in order.
    pub pivots: Vec<usize>,
}

impl Echelon {
    /// The rank of the original matrix.
    pub fn rank(&self) -> usize {
        self.pivots.len()
    }
}

/// Reduces a copy of `a` to (reduced) row-echelon form.
///
/// Every pivot column has exactly one `1` (fully reduced / RREF), which
/// makes back-substitution in [`solve`] trivial.
pub fn echelon(a: &BitMatrix) -> Echelon {
    let mut m = a.clone();
    let (nrows, ncols) = (m.nrows(), m.ncols());
    let mut pivots = Vec::new();
    let mut row = 0;
    for col in 0..ncols {
        if row == nrows {
            break;
        }
        // Find a pivot at or below `row`.
        let Some(pivot_row) = (row..nrows).find(|&r| m.get(r, col)) else {
            continue;
        };
        if pivot_row != row {
            let tmp = m.row(pivot_row).clone();
            let cur = m.row(row).clone();
            m.set_row(pivot_row, cur);
            m.set_row(row, tmp);
        }
        // Clear the column everywhere else (full reduction).
        let pivot = m.row(row).clone();
        for r in 0..nrows {
            if r != row && m.get(r, col) {
                m.row_mut(r).xor_in_place(&pivot);
            }
        }
        pivots.push(col);
        row += 1;
    }
    Echelon { matrix: m, pivots }
}

/// The rank of `a` over F₂.
pub fn rank(a: &BitMatrix) -> usize {
    echelon(a).rank()
}

/// Whether the square matrix `a` is invertible (full rank).
///
/// This is the predicate `F_full-rank` of Theorem 1.4 in the paper.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn is_full_rank(a: &BitMatrix) -> bool {
    assert_eq!(
        a.nrows(),
        a.ncols(),
        "is_full_rank requires a square matrix"
    );
    rank(a) == a.nrows()
}

/// Solves `A·x = b` over F₂.
///
/// Returns `Some(x)` for an arbitrary solution if the system is consistent,
/// `None` otherwise.
///
/// # Panics
///
/// Panics if `b.len() != a.nrows()`.
pub fn solve(a: &BitMatrix, b: &BitVec) -> Option<BitVec> {
    assert_eq!(b.len(), a.nrows(), "solve dimension mismatch");
    // Reduce the augmented matrix [A | b].
    let mut aug = BitMatrix::zeros(a.nrows(), a.ncols() + 1);
    for i in 0..a.nrows() {
        let row = a.row(i).concat(&b.slice(i, i + 1));
        aug.set_row(i, row);
    }
    let ech = echelon(&aug);
    // Inconsistent iff some pivot landed in the augmented column.
    if ech.pivots.last() == Some(&a.ncols()) {
        return None;
    }
    // Back-substitution: free variables set to zero; because the form is
    // fully reduced, each pivot row reads off one solution coordinate.
    let mut x = BitVec::zeros(a.ncols());
    for (r, &col) in ech.pivots.iter().enumerate() {
        if ech.matrix.get(r, a.ncols()) {
            x.set(col, true);
        }
    }
    Some(x)
}

/// Whether `A·x = b` has a solution, without materializing one.
pub fn is_consistent(a: &BitMatrix, b: &BitVec) -> bool {
    solve(a, b).is_some()
}

/// A basis of the kernel (null space) `{x : A·x = 0}`.
///
/// The kernel has dimension `ncols − rank(A)`.
pub fn kernel_basis(a: &BitMatrix) -> Vec<BitVec> {
    let ech = echelon(a);
    let n = a.ncols();
    let pivot_set: Vec<bool> = {
        let mut s = vec![false; n];
        for &p in &ech.pivots {
            s[p] = true;
        }
        s
    };
    let mut basis = Vec::new();
    for (free, &is_pivot) in pivot_set.iter().enumerate() {
        if is_pivot {
            continue;
        }
        // Set the free variable to one, pivots to the matching column values.
        let mut v = BitVec::zeros(n);
        v.set(free, true);
        for (r, &p) in ech.pivots.iter().enumerate() {
            if ech.matrix.get(r, free) {
                v.set(p, true);
            }
        }
        basis.push(v);
    }
    basis
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rank_of_identity() {
        assert_eq!(rank(&BitMatrix::identity(8)), 8);
    }

    #[test]
    fn rank_of_zero() {
        assert_eq!(rank(&BitMatrix::zeros(5, 9)), 0);
    }

    #[test]
    fn rank_bounded_by_dims() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = BitMatrix::random(&mut rng, 6, 9);
            assert!(rank(&a) <= 6);
        }
    }

    #[test]
    fn rank_invariant_under_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let a = BitMatrix::random(&mut rng, 7, 5);
            assert_eq!(rank(&a), rank(&a.transpose()));
        }
    }

    #[test]
    fn solve_consistent_system() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let a = BitMatrix::random(&mut rng, 8, 6);
            let x = BitVec::random(&mut rng, 6);
            let b = a.mul_vec(&x);
            let sol = solve(&a, &b).expect("constructed system must be consistent");
            assert_eq!(a.mul_vec(&sol), b);
        }
    }

    #[test]
    fn solve_detects_inconsistency() {
        // x0 = 0 and x0 = 1 simultaneously.
        let a = BitMatrix::from_rows(
            vec![BitVec::from_bools(&[true]), BitVec::from_bools(&[true])],
            1,
        );
        let b = BitVec::from_bools(&[false, true]);
        assert!(solve(&a, &b).is_none());
        assert!(!is_consistent(&a, &b));
    }

    #[test]
    fn kernel_vectors_annihilate() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let a = BitMatrix::random(&mut rng, 5, 9);
            let basis = kernel_basis(&a);
            assert_eq!(basis.len(), 9 - rank(&a));
            for v in &basis {
                assert!(a.mul_vec(v).is_zero());
            }
        }
    }

    #[test]
    fn kernel_basis_is_independent() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = BitMatrix::random(&mut rng, 4, 10);
        let basis = kernel_basis(&a);
        let m = BitMatrix::from_rows(basis.clone(), 10);
        assert_eq!(rank(&m), basis.len());
    }

    #[test]
    fn full_rank_matches_rank() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let a = BitMatrix::random(&mut rng, 5, 5);
            assert_eq!(is_full_rank(&a), rank(&a) == 5);
        }
    }

    #[test]
    fn echelon_rank_matches_pivot_count_random() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let n = rng.gen_range(1..8);
            let m = rng.gen_range(1..8);
            let a = BitMatrix::random(&mut rng, n, m);
            let e = echelon(&a);
            assert!(e.rank() <= n.min(m));
            // Row space is preserved: every original row is a combination of
            // the echelon rows, checked via rank of the stacked matrix.
            let mut stacked = Vec::new();
            stacked.extend(a.iter_rows().cloned());
            stacked.extend(e.matrix.iter_rows().cloned());
            let s = BitMatrix::from_rows(stacked, m);
            assert_eq!(rank(&s), e.rank());
        }
    }
}
