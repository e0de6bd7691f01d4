//! Row-independent input distributions: one uniform support per processor.
//!
//! The paper's decomposition step produces families `{A_I}` in which, after
//! fixing the index `I`, every processor's input is *independent* and
//! *uniform over some support set* — subcubes for planted cliques (§4),
//! linear-code cosets for the PRG (§5–7). [`RowSupport`] is that support;
//! [`ProductInput`] is one per processor.

use std::sync::Arc;

use bcc_f2::subcube::Subcube64;
use rand::Rng;

/// The uniform distribution over an explicit set of packed inputs for one
/// processor.
///
/// # Example
///
/// ```
/// use bcc_core::RowSupport;
///
/// let row = RowSupport::uniform(3);
/// assert_eq!(row.len(), 8);
/// let odd = RowSupport::explicit(3, vec![1, 3, 5, 7]);
/// assert_eq!(odd.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSupport {
    bits: u32,
    points: Vec<u64>,
}

impl RowSupport {
    /// The full cube `{0,1}^bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 25` (the engine enumerates supports; beyond this
    /// the exact method is out of reach anyway).
    pub fn uniform(bits: u32) -> Self {
        assert!(bits <= 25, "support too large to enumerate");
        RowSupport {
            bits,
            points: (0..(1u64 << bits)).collect(),
        }
    }

    /// Uniform over a subcube.
    pub fn from_subcube(cube: &Subcube64) -> Self {
        assert!(cube.free_count() <= 25, "support too large to enumerate");
        RowSupport {
            bits: cube.dimension(),
            points: cube.iter().collect(),
        }
    }

    /// Uniform over explicit distinct points.
    ///
    /// # Panics
    ///
    /// Panics if empty, if points repeat, or if a point exceeds `bits`.
    pub fn explicit(bits: u32, mut points: Vec<u64>) -> Self {
        assert!(!points.is_empty(), "support must be non-empty");
        assert!(bits <= 63, "packed inputs hold at most 63 bits");
        points.sort_unstable();
        assert!(
            points.windows(2).all(|w| w[0] < w[1]),
            "support points must be distinct"
        );
        let limit = 1u64 << bits;
        assert!(
            points.iter().all(|&p| p < limit),
            "support point exceeds input width"
        );
        RowSupport { bits, points }
    }

    /// The input width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The number of support points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the support is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The support points, sorted ascending.
    pub fn points(&self) -> &[u64] {
        &self.points
    }

    /// Samples a uniform point. A power-of-two support (every toy-PRG
    /// coset row) masks one `next_u64` instead of dividing: `gen_range`
    /// draws `next_u64() % len`, which is the same value.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let len = self.points.len();
        let index = if len.is_power_of_two() {
            (rng.next_u64() & (len as u64 - 1)) as usize
        } else {
            rng.gen_range(0..len)
        };
        self.points[index]
    }
}

/// A row-independent input distribution: processor `i` draws uniformly and
/// independently from `rows[i]`.
///
/// This is one member `A_I` of a decomposition family — or the baseline
/// `A_rand` itself.
///
/// Rows are stored behind [`Arc`], so cloning a `ProductInput` — and
/// building one whose processors share a support, the shape of every
/// family in the paper — costs reference counts, not deep copies of the
/// support points. [`ProductInput::repeated`] is the shared-row
/// constructor; the accessors still hand out plain `&RowSupport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductInput {
    rows: Vec<Arc<RowSupport>>,
}

impl ProductInput {
    /// Builds from per-processor supports.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn new(rows: Vec<RowSupport>) -> Self {
        assert!(!rows.is_empty(), "need at least one processor");
        ProductInput {
            rows: rows.into_iter().map(Arc::new).collect(),
        }
    }

    /// `n` processors sharing one support allocation — `O(|support|)`
    /// memory total instead of `n` deep copies, which is what lets
    /// wide/huge-`n` families materialize cheaply.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn repeated(row: RowSupport, n: usize) -> Self {
        assert!(n > 0, "need at least one processor");
        let row = Arc::new(row);
        ProductInput { rows: vec![row; n] }
    }

    /// Every processor uniform over `{0,1}^bits` — the `A_rand` shape for
    /// abstract experiments.
    pub fn uniform(n: usize, bits: u32) -> Self {
        ProductInput::repeated(RowSupport::uniform(bits), n)
    }

    /// This input with processor `i`'s support replaced by `row` — every
    /// *other* row still shares its `Arc` allocation with `self`.
    ///
    /// This is the natural constructor for decomposition families whose
    /// members differ from the baseline in a few planted rows: the
    /// shared rows cost reference counts, and the exact walk evaluates
    /// the protocol on them once per node for the whole family (its
    /// label planes key on `Arc` identity).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn with_row(&self, i: usize, row: RowSupport) -> ProductInput {
        assert!(
            i < self.rows.len(),
            "row {i} out of range {}",
            self.rows.len()
        );
        let mut rows = self.rows.clone();
        rows[i] = Arc::new(row);
        ProductInput { rows }
    }

    /// The number of processors.
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Processor `i`'s support.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row(&self, i: usize) -> &RowSupport {
        &self.rows[i]
    }

    /// Iterates over the per-processor supports.
    pub fn iter_rows(&self) -> impl Iterator<Item = &RowSupport> {
        self.rows.iter().map(|row| row.as_ref())
    }

    /// Samples a full input vector (one packed input per processor).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u64> {
        let mut inputs = Vec::with_capacity(self.rows.len());
        self.sample_into(rng, &mut inputs);
        inputs
    }

    /// Refills `inputs` with a full input vector: the same RNG calls and
    /// values as [`ProductInput::sample`], into a caller-owned buffer, so
    /// a sampler that reuses one buffer allocates nothing per transcript.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, inputs: &mut Vec<u64>) {
        inputs.clear();
        inputs.extend(self.rows.iter().map(|r| r.sample(rng)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_support_enumerates_cube() {
        let r = RowSupport::uniform(4);
        assert_eq!(r.len(), 16);
        assert_eq!(r.points()[15], 15);
    }

    #[test]
    fn subcube_support() {
        let cube = Subcube64::new(4).fixed(1, true).unwrap();
        let r = RowSupport::from_subcube(&cube);
        assert_eq!(r.len(), 8);
        assert!(r.points().iter().all(|p| p & 0b10 != 0));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn explicit_rejects_duplicates() {
        RowSupport::explicit(3, vec![1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "exceeds input width")]
    fn explicit_rejects_out_of_range() {
        RowSupport::explicit(2, vec![4]);
    }

    #[test]
    fn sample_stays_in_support() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = RowSupport::explicit(4, vec![2, 5, 9]);
        for _ in 0..100 {
            assert!(r.points().contains(&r.sample(&mut rng)));
        }
    }

    #[test]
    fn product_input_samples_rowwise() {
        let mut rng = StdRng::seed_from_u64(2);
        let input = ProductInput::new(vec![
            RowSupport::explicit(2, vec![1]),
            RowSupport::explicit(2, vec![2, 3]),
        ]);
        for _ in 0..50 {
            let v = input.sample(&mut rng);
            assert_eq!(v[0], 1);
            assert!(v[1] == 2 || v[1] == 3);
        }
    }

    /// A toy-PRG coset row `U_[b]` at `k = 4`: `x` in the low 4 bits and
    /// `⟨x, b⟩` in bit 4, so `2^4` points (a power-of-two row).
    fn coset_row(b: u64) -> RowSupport {
        let points = (0..16u64)
            .map(|x| x | (u64::from((x & b).count_ones() & 1) << 4))
            .collect();
        RowSupport::explicit(5, points)
    }

    #[test]
    fn product_draws_are_pinned() {
        // Golden: the first 32 input vectors of a seeded ChaCha12 stream,
        // over two power-of-two coset rows, a 3-point and a 5-point row.
        // Any change to how a row index is drawn must keep these.
        use rand_chacha::ChaCha12Rng;
        let input = ProductInput::new(vec![
            coset_row(0b1011),
            coset_row(0b0110),
            RowSupport::explicit(3, vec![1, 2, 5]),
            RowSupport::explicit(4, vec![0, 3, 6, 9, 12]),
        ]);
        let mut rng = ChaCha12Rng::seed_from_u64(0xD7A3);
        let drawn: Vec<Vec<u64>> = (0..32).map(|_| input.sample(&mut rng)).collect();
        let expected: [[u64; 4]; 32] = [
            [13, 7, 2, 3],
            [10, 8, 2, 3],
            [17, 6, 2, 0],
            [27, 18, 1, 6],
            [27, 15, 5, 12],
            [22, 14, 1, 9],
            [28, 9, 2, 6],
            [10, 20, 2, 0],
            [3, 21, 2, 0],
            [13, 14, 5, 9],
            [17, 28, 5, 3],
            [0, 0, 1, 6],
            [4, 15, 5, 12],
            [9, 0, 5, 12],
            [7, 21, 5, 9],
            [7, 27, 1, 0],
            [24, 20, 5, 6],
            [31, 9, 2, 9],
            [13, 0, 1, 9],
            [24, 20, 2, 9],
            [13, 14, 2, 12],
            [14, 28, 2, 12],
            [9, 26, 5, 6],
            [10, 0, 5, 3],
            [7, 19, 2, 9],
            [24, 7, 5, 9],
            [18, 29, 2, 9],
            [18, 14, 1, 0],
            [27, 14, 1, 0],
            [17, 27, 2, 12],
            [13, 20, 5, 12],
            [3, 9, 5, 3],
        ];
        for (i, (got, want)) in drawn.iter().zip(&expected).enumerate() {
            assert_eq!(got.as_slice(), want.as_slice(), "draw {i}");
        }
    }

    #[test]
    fn repeated_rows_share_one_allocation() {
        let input = ProductInput::repeated(RowSupport::uniform(4), 1000);
        assert_eq!(input.n(), 1000);
        // Every accessor hands back the same shared support, not a copy.
        assert!(std::ptr::eq(input.row(0), input.row(999)));
        let uniform = ProductInput::uniform(3, 4);
        assert!(std::ptr::eq(uniform.row(0), uniform.row(2)));
        // Cloning the product clones handles, not points.
        let cloned = input.clone();
        assert!(std::ptr::eq(input.row(0), cloned.row(0)));
        assert_eq!(input, cloned);
    }
}
