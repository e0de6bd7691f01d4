//! Bit-packed matrices over F₂.

use std::fmt;

use rand::Rng;

use crate::BitVec;

/// A dense matrix over F₂ stored as bit-packed rows.
///
/// The paper's PRG hides a secret matrix `M ∈ F₂^{k×(m−k)}` and each
/// processor outputs `(x, xᵀM)`; [`BitMatrix::left_mul_vec`] is exactly that
/// product.
///
/// # Example
///
/// ```
/// use bcc_f2::{BitMatrix, BitVec};
///
/// let mut m = BitMatrix::zeros(2, 3);
/// m.set(0, 1, true);
/// m.set(1, 2, true);
/// let x = BitVec::from_bools(&[true, true]);
/// // xᵀM = row0 + row1 = (0,1,1)
/// assert_eq!(m.left_mul_vec(&x), BitVec::from_bools(&[false, true, true]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: Vec<BitVec>,
    ncols: usize,
}

impl BitMatrix {
    /// Creates the all-zeros `nrows × ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        BitMatrix {
            rows: vec![BitVec::zeros(ncols); nrows],
            ncols,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from owned rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have length `ncols`.
    pub fn from_rows(rows: Vec<BitVec>, ncols: usize) -> Self {
        for r in &rows {
            assert_eq!(r.len(), ncols, "row length mismatch");
        }
        BitMatrix { rows, ncols }
    }

    /// Samples a uniformly random `nrows × ncols` matrix.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, nrows: usize, ncols: usize) -> Self {
        BitMatrix {
            rows: (0..nrows).map(|_| BitVec::random(rng, ncols)).collect(),
            ncols,
        }
    }

    /// The number of rows.
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// The number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Returns entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.rows[i].get(j)
    }

    /// Sets entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        self.rows[i].set(j, value);
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row(&self, i: usize) -> &BitVec {
        &self.rows[i]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut BitVec {
        &mut self.rows[i]
    }

    /// Replaces row `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range or if the length differs from `ncols`.
    pub fn set_row(&mut self, i: usize, row: BitVec) {
        assert_eq!(row.len(), self.ncols, "row length mismatch");
        self.rows[i] = row;
    }

    /// Iterates over the rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &BitVec> {
        self.rows.iter()
    }

    /// Extracts column `j` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn column(&self, j: usize) -> BitVec {
        assert!(j < self.ncols, "column {j} out of range {}", self.ncols);
        self.rows.iter().map(|r| r.get(j)).collect()
    }

    /// The matrix–vector product `A·x` (x has `ncols` coordinates).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &BitVec) -> BitVec {
        assert_eq!(x.len(), self.ncols, "mul_vec dimension mismatch");
        self.rows.iter().map(|r| r.dot(x)).collect()
    }

    /// The vector–matrix product `xᵀA` (x has `nrows` coordinates).
    ///
    /// Computed as the XOR of the rows selected by `x`, which is how the
    /// paper describes the PRG output: "a random linear combination of those
    /// vectors".
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows`.
    pub fn left_mul_vec(&self, x: &BitVec) -> BitVec {
        assert_eq!(x.len(), self.nrows(), "left_mul_vec dimension mismatch");
        let mut acc = BitVec::zeros(self.ncols);
        for i in x.iter_ones() {
            acc.xor_in_place(&self.rows[i]);
        }
        acc
    }

    /// The transpose, one 64×64 word block at a time.
    pub fn transpose(&self) -> BitMatrix {
        let nrows = self.nrows();
        let mut out = vec![vec![0u64; nrows.div_ceil(64)]; self.ncols];
        let mut block = [0u64; 64];
        for bi in 0..nrows.div_ceil(64) {
            for bj in 0..self.ncols.div_ceil(64) {
                for (k, w) in block.iter_mut().enumerate() {
                    *w = self.rows.get(bi * 64 + k).map_or(0, |r| r.as_words()[bj]);
                }
                transpose64(&mut block);
                for (row, &w) in out[bj * 64..].iter_mut().zip(&block) {
                    row[bi] = w;
                }
            }
        }
        BitMatrix {
            rows: out
                .into_iter()
                .map(|words| BitVec::from_words(words, nrows))
                .collect(),
            ncols: nrows,
        }
    }

    /// The top-left `r × c` submatrix.
    ///
    /// # Panics
    ///
    /// Panics if `r > nrows` or `c > ncols`.
    pub fn submatrix(&self, r: usize, c: usize) -> BitMatrix {
        assert!(
            r <= self.nrows() && c <= self.ncols,
            "submatrix out of range"
        );
        let rows = self.rows[..r].iter().map(|row| row.slice(0, c)).collect();
        BitMatrix::from_rows(rows, c)
    }

    /// Horizontal concatenation `[self | rhs]`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hconcat(&self, rhs: &BitMatrix) -> BitMatrix {
        assert_eq!(self.nrows(), rhs.nrows(), "hconcat row count mismatch");
        let rows = self
            .rows
            .iter()
            .zip(rhs.iter_rows())
            .map(|(a, b)| a.concat(b))
            .collect();
        BitMatrix::from_rows(rows, self.ncols + rhs.ncols)
    }
}

/// Transposes a 64×64 bit block in place (`block[k]` bit `j` ↔
/// `block[j]` bit `k`) by swapping ever smaller off-diagonal sub-blocks:
/// 32×32, then 16×16, down to single bits.
fn transpose64(block: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((block[k] >> j) ^ block[k + j]) & mask;
            block[k] ^= t << j;
            block[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{} [", self.nrows(), self.ncols)?;
        for r in &self.rows {
            writeln!(f, "  {r}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = BitVec::random(&mut rng, 5);
        let i = BitMatrix::identity(5);
        assert_eq!(i.mul_vec(&x), x);
        assert_eq!(i.left_mul_vec(&x), x);
    }

    #[test]
    fn mul_vec_vs_left_mul_vec_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = BitMatrix::random(&mut rng, 6, 9);
        let x = BitVec::random(&mut rng, 6);
        // xᵀA == Aᵀx
        assert_eq!(a.left_mul_vec(&x), a.transpose().mul_vec(&x));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = BitMatrix::random(&mut rng, 7, 4);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_every_entry_across_block_edges() {
        let mut rng = StdRng::seed_from_u64(6);
        for (r, c) in [(0, 5), (5, 0), (1, 1), (63, 65), (64, 64), (130, 70)] {
            let a = BitMatrix::random(&mut rng, r, c);
            let t = a.transpose();
            assert_eq!((t.nrows(), t.ncols()), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.get(j, i), a.get(i, j), "({i},{j}) of {r}x{c}");
                }
            }
        }
    }

    #[test]
    fn column_matches_entries() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = BitMatrix::random(&mut rng, 4, 7);
        for j in 0..7 {
            let col = a.column(j);
            for i in 0..4 {
                assert_eq!(col.get(i), a.get(i, j));
            }
        }
    }

    #[test]
    fn submatrix_top_left() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = BitMatrix::random(&mut rng, 5, 5);
        let s = a.submatrix(3, 2);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(s.get(i, j), a.get(i, j));
            }
        }
    }

    #[test]
    fn hconcat_widths_add() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = BitMatrix::random(&mut rng, 3, 4);
        let b = BitMatrix::random(&mut rng, 3, 2);
        let c = a.hconcat(&b);
        assert_eq!(c.ncols(), 6);
        assert_eq!(c.get(1, 5), b.get(1, 1));
        assert_eq!(c.get(2, 3), a.get(2, 3));
    }

    #[test]
    fn left_mul_selects_rows() {
        let m = BitMatrix::from_rows(
            vec![
                BitVec::from_bools(&[true, false, false]),
                BitVec::from_bools(&[false, true, true]),
            ],
            3,
        );
        let x = BitVec::from_bools(&[true, true]);
        assert_eq!(m.left_mul_vec(&x), BitVec::from_bools(&[true, true, true]));
    }
}
