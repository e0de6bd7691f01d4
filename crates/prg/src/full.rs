//! The complete matrix PRG (Theorem 1.3, §7).
//!
//! Parameters `(n, k, m)`: each of `n` processors ends with `m`
//! pseudorandom bits from `O(k)` private seed bits. Construction (quoted
//! from Theorem 1.3):
//!
//! 1. each processor gets `k + k·(m−k)/n` private random bits;
//! 2. in `O(k·(m−k)/n)` rounds all processors broadcast their last
//!    `k·(m−k)/n` bits, assembling a shared matrix
//!    `M ∈ {0,1}^{k×(m−k)}`;
//! 3. each processor outputs `(x, xᵀM)` where `x` is its first `k` bits.
//!
//! Theorem 5.4: for `j ≤ k/10` and `m ≤ 2^{k/20}`, no `j`-round `BCAST(1)`
//! protocol tells case (B) (these outputs) from case (A) (`m` uniform bits
//! each) with statistical distance above `O(jn/2^{k/9})`.

use bcc_congest::{Model, Network};
use bcc_core::{ProductInput, RowSupport};
use bcc_f2::{BitMatrix, BitVec};
use rand::Rng;

/// The matrix PRG `x ↦ (x, xᵀM)` with broadcast-assembled `M`.
///
/// # Example
///
/// ```
/// use bcc_prg::MatrixPrg;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let prg = MatrixPrg::new(8, 16, 64).unwrap();
/// let mut rng = StdRng::seed_from_u64(1);
/// let run = prg.run(&mut rng);
/// assert_eq!(run.outputs.len(), 8);
/// assert_eq!(run.outputs[0].len(), 64);
/// // Construction cost matches Theorem 1.3: ceil(k*(m-k)/n) broadcast bits
/// // per processor, one per BCAST(1) round.
/// assert_eq!(run.rounds_used, (16 * (64 - 16) + 7) / 8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MatrixPrg {
    n: usize,
    k: u32,
    m: u32,
}

/// An invalid-parameter error for [`MatrixPrg::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidPrgParams {
    reason: &'static str,
}

impl std::fmt::Display for InvalidPrgParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid PRG parameters: {}", self.reason)
    }
}

impl std::error::Error for InvalidPrgParams {}

/// The outcome of one PRG construction run.
#[derive(Debug, Clone)]
pub struct PrgRun {
    /// The assembled secret matrix `M ∈ {0,1}^{k×(m−k)}`.
    pub matrix: BitMatrix,
    /// Each processor's private seed `x ∈ {0,1}^k`.
    pub seeds: Vec<BitVec>,
    /// Each processor's `m` pseudorandom bits `(x, xᵀM)`.
    pub outputs: Vec<BitVec>,
    /// `BCAST(1)` rounds spent assembling `M`.
    pub rounds_used: usize,
    /// Private random bits consumed per processor
    /// (`k + ⌈k·(m−k)/n⌉`).
    pub seed_bits_per_processor: usize,
}

impl MatrixPrg {
    /// A `(k, m, n)` PRG.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < k < m` and `n > 0`.
    pub fn new(n: usize, k: u32, m: u32) -> Result<Self, InvalidPrgParams> {
        if n == 0 {
            return Err(InvalidPrgParams {
                reason: "need at least one processor",
            });
        }
        if k == 0 {
            return Err(InvalidPrgParams {
                reason: "need at least one seed bit",
            });
        }
        if m <= k {
            return Err(InvalidPrgParams {
                reason: "output length m must exceed seed length k",
            });
        }
        Ok(MatrixPrg { n, k, m })
    }

    /// The number of processors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-processor seed length `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The per-processor output length `m`.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Matrix bits each processor contributes, `⌈k(m−k)/n⌉`.
    fn shared_bits_per_processor(&self) -> usize {
        (self.k as usize * (self.m - self.k) as usize).div_ceil(self.n)
    }

    /// Total private random bits per processor, `k + ⌈k(m−k)/n⌉`.
    fn seed_bits_per_processor(&self) -> usize {
        self.k as usize + self.shared_bits_per_processor()
    }

    /// Runs the construction in a fresh `BCAST(1)` network, with round
    /// accounting.
    pub fn run<R: Rng + ?Sized>(&self, rng: &mut R) -> PrgRun {
        let mut net = Network::new(Model::bcast1(self.n));
        self.run_in(&mut net, rng)
    }

    /// Runs the construction inside an existing network (so a larger
    /// protocol can account for the PRG rounds as part of its own budget).
    pub fn run_in<R: Rng + ?Sized>(&self, net: &mut Network, rng: &mut R) -> PrgRun {
        assert_eq!(net.model().n(), self.n, "network size mismatch");
        let matrix_bits = self.k as usize * (self.m - self.k) as usize;
        let per_proc = self.shared_bits_per_processor();

        // Private seeds: x (k bits) + the processor's share of M.
        let seeds: Vec<BitVec> = (0..self.n)
            .map(|_| BitVec::random(rng, self.k as usize))
            .collect();
        let shares: Vec<BitVec> = (0..self.n).map(|_| BitVec::random(rng, per_proc)).collect();

        // Broadcast the shares; everyone assembles M from the first
        // k*(m-k) of the n*per_proc received bits (processor-major order).
        let before = net.rounds_used();
        let sent = net.broadcast_bits(&shares);
        let received = net.collect_bits(sent, per_proc);
        let rounds_used = net.rounds_used() - before;

        let mut flat = BitVec::zeros(self.n * per_proc);
        for (i, share) in received.iter().enumerate() {
            for b in 0..per_proc {
                if share.get(b) {
                    flat.set(i * per_proc + b, true);
                }
            }
        }
        let mut matrix = BitMatrix::zeros(self.k as usize, (self.m - self.k) as usize);
        for idx in 0..matrix_bits {
            if flat.get(idx) {
                matrix.set(
                    idx / (self.m - self.k) as usize,
                    idx % (self.m - self.k) as usize,
                    true,
                );
            }
        }

        let outputs = seeds
            .iter()
            .map(|x| x.concat(&matrix.left_mul_vec(x)))
            .collect();

        if let Some(obs) = bcc_obs::current() {
            obs.add("prg.blocks_drawn", bcc_obs::Class::Work, self.n as u64);
        }
        PrgRun {
            matrix,
            seeds,
            outputs,
            rounds_used,
            seed_bits_per_processor: self.seed_bits_per_processor(),
        }
    }

    /// The outputs for given seeds under a given matrix (the deterministic
    /// core of the construction).
    pub fn expand(&self, matrix: &BitMatrix, seed: &BitVec) -> BitVec {
        assert_eq!(seed.len(), self.k as usize, "seed length mismatch");
        assert_eq!(matrix.nrows(), self.k as usize, "matrix rows mismatch");
        assert_eq!(
            matrix.ncols(),
            (self.m - self.k) as usize,
            "matrix cols mismatch"
        );
        seed.concat(&matrix.left_mul_vec(seed))
    }
}

/// The support of `U_M` as packed `m`-bit points `(x, xᵀM)`, for the exact
/// engine.
///
/// # Panics
///
/// Panics if `m > 25` or `k > 20` (supports are enumerated).
pub fn row_support(k: u32, m: u32, matrix: &BitMatrix) -> RowSupport {
    assert!(m <= 25, "support too large to enumerate");
    assert!(k < m, "need k < m");
    assert!(k <= 20, "seed space too large to enumerate");
    assert_eq!(matrix.nrows(), k as usize);
    assert_eq!(matrix.ncols(), (m - k) as usize);
    let points = (0..(1u64 << k))
        .map(|x| {
            let xv = BitVec::from_u64(x, k as usize);
            let ext = matrix.left_mul_vec(&xv);
            x | (ext.to_u64() << k)
        })
        .collect();
    if let Some(obs) = bcc_obs::current() {
        obs.add("prg.support_points", bcc_obs::Class::Work, 1u64 << k);
    }
    RowSupport::explicit(m, points)
}

/// Case (B) of Theorem 5.4 for a fixed secret matrix: all `n` processors
/// i.i.d. uniform on `U_M` (one shared support allocation, not `n`
/// copies).
pub fn pseudo_input(n: usize, k: u32, m: u32, matrix: &BitMatrix) -> ProductInput {
    ProductInput::repeated(row_support(k, m, matrix), n)
}

/// Case (A): all processors uniform on `{0,1}^m`.
pub fn uniform_input(n: usize, m: u32) -> ProductInput {
    ProductInput::uniform(n, m)
}

/// The full decomposition family: one member per matrix
/// `M ∈ {0,1}^{k×(m−k)}`.
///
/// # Panics
///
/// Panics if `k·(m−k) > 12` (the family has `2^{k(m−k)}` members).
pub fn family(n: usize, k: u32, m: u32) -> Vec<ProductInput> {
    let bits = k * (m - k);
    assert!(bits <= 12, "family too large to enumerate");
    (0..(1u64 << bits))
        .map(|packed| {
            let mut mat = BitMatrix::zeros(k as usize, (m - k) as usize);
            for idx in 0..bits {
                if (packed >> idx) & 1 == 1 {
                    mat.set((idx / (m - k)) as usize, (idx % (m - k)) as usize, true);
                }
            }
            pseudo_input(n, k, m, &mat)
        })
        .collect()
}

/// Enumerates every matrix `M ∈ {0,1}^{k×(m−k)}` (for `k(m−k) ≤ 20`).
fn all_matrices(k: u32, m: u32) -> impl Iterator<Item = BitMatrix> {
    let bits = k * (m - k);
    assert!(bits <= 20, "matrix space too large to enumerate");
    (0..(1u64 << bits)).map(move |packed| {
        let mut mat = BitMatrix::zeros(k as usize, (m - k) as usize);
        for idx in 0..bits {
            if (packed >> idx) & 1 == 1 {
                mat.set((idx / (m - k)) as usize, (idx % (m - k)) as usize, true);
            }
        }
        mat
    })
}

/// `E_{U_M}[f]` for a truth table `f : {0,1}^m → {0,1}` (indexed by the
/// packed point), exactly: average over the `2^k` codewords `(x, xᵀM)`.
fn mean_on_code(table: &[f64], k: u32, matrix: &BitMatrix) -> f64 {
    let mut sum = 0.0;
    for x in 0..(1u64 << k) {
        let xv = BitVec::from_u64(x, k as usize);
        let point = x | (matrix.left_mul_vec(&xv).to_u64() << k);
        sum += table[point as usize];
    }
    sum / (1u64 << k) as f64
}

/// **Lemma 7.3**, evaluated exactly:
/// `E_{M ∼ U_{k×(m−k)}} ‖f(U_m) − f(U_M)‖² ≤ 2^{−k}·(m−k)²·E[f]`.
///
/// Returns `(lhs, rhs)`; the lemma asserts `lhs ≤ rhs`.
///
/// # Panics
///
/// Panics if the table length is not `2^m` or the matrix space exceeds
/// `2^20` members.
pub fn lemma_7_3_check(k: u32, m: u32, table: &[f64]) -> (f64, f64) {
    assert_eq!(table.len(), 1usize << m, "table must have 2^m entries");
    let mean: f64 = table.iter().sum::<f64>() / table.len() as f64;
    let count = 1u64 << (k * (m - k));
    let lhs = all_matrices(k, m)
        .map(|mat| {
            let d = mean_on_code(table, k, &mat) - mean;
            d * d
        })
        .sum::<f64>()
        / count as f64;
    let rhs = 2f64.powi(-(k as i32)) * ((m - k) as f64).powi(2) * mean;
    (lhs, rhs)
}

/// **Lemma 7.2**, evaluated exactly: for a domain `D ⊆ {0,1}^m` with
/// `|D| ≥ 2^{m−k/2}`, `E_M ‖f(U_{M,D}) − f(U_{m,D})‖ ≤ 2^{−k/9}`
/// (assuming `m ≤ 2^{k/20}`). Empty conditional supports contribute
/// distance 0 per the paper's footnote (the conditional defaults to
/// `U_{m,D}` itself).
///
/// # Panics
///
/// Panics if `D` is empty or dimensions are inconsistent.
pub fn lemma_7_2_mean(k: u32, m: u32, table: &[f64], domain: &[u64]) -> f64 {
    assert_eq!(table.len(), 1usize << m, "table must have 2^m entries");
    assert!(!domain.is_empty(), "domain must be non-empty");
    let mean_d = domain.iter().map(|&p| table[p as usize]).sum::<f64>() / domain.len() as f64;
    let count = 1u64 << (k * (m - k));
    let total: f64 = all_matrices(k, m)
        .map(|mat| {
            // Restrict the code's support to D.
            let mut sum = 0.0;
            let mut hits = 0usize;
            for x in 0..(1u64 << k) {
                let xv = BitVec::from_u64(x, k as usize);
                let point = x | (mat.left_mul_vec(&xv).to_u64() << k);
                if domain.binary_search(&point).is_ok() {
                    sum += table[point as usize];
                    hits += 1;
                }
            }
            if hits == 0 {
                0.0
            } else {
                (sum / hits as f64 - mean_d).abs()
            }
        })
        .sum();
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_congest::FnProtocol;
    use bcc_core::exec::{Estimator, ExactEstimator};
    use bcc_f2::gauss;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_round_count_matches_theorem() {
        // Theorem 1.3: O((m-k)/n * k) rounds; exactly ceil(k(m-k)/n) in
        // BCAST(1) with processor-major packing.
        let prg = MatrixPrg::new(16, 8, 40).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let run = prg.run(&mut rng);
        assert_eq!(run.rounds_used, (8 * 32usize).div_ceil(16));
        assert_eq!(run.seed_bits_per_processor, 8 + 16);
    }

    #[test]
    fn outputs_extend_seeds_linearly() {
        let prg = MatrixPrg::new(4, 6, 20).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let run = prg.run(&mut rng);
        for (seed, out) in run.seeds.iter().zip(&run.outputs) {
            assert_eq!(&out.slice(0, 6), seed);
            assert_eq!(out.slice(6, 20), run.matrix.left_mul_vec(seed));
        }
    }

    #[test]
    fn output_rows_live_in_rank_k_space() {
        // Stack the n outputs: rank ≤ k always (the average-case lower
        // bound's structural core).
        let prg = MatrixPrg::new(12, 5, 24).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let run = prg.run(&mut rng);
        let stacked = BitMatrix::from_rows(run.outputs.clone(), 24);
        assert!(gauss::rank(&stacked) <= 5);
    }

    #[test]
    fn uniform_outputs_would_have_higher_rank() {
        // Contrast: n=12 uniform 24-bit rows have rank 12 w.h.p.
        let mut rng = StdRng::seed_from_u64(4);
        let m = BitMatrix::random(&mut rng, 12, 24);
        assert!(gauss::rank(&m) >= 11);
    }

    #[test]
    fn expand_is_deterministic() {
        let prg = MatrixPrg::new(2, 4, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mat = BitMatrix::random(&mut rng, 4, 6);
        let seed = BitVec::random(&mut rng, 4);
        assert_eq!(prg.expand(&mat, &seed), prg.expand(&mat, &seed));
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(MatrixPrg::new(0, 4, 8).is_err());
        assert!(MatrixPrg::new(4, 0, 8).is_err());
        assert!(MatrixPrg::new(4, 8, 8).is_err());
        assert!(MatrixPrg::new(4, 8, 4).is_err());
    }

    #[test]
    fn row_support_points_are_codewords() {
        let mut rng = StdRng::seed_from_u64(6);
        let mat = BitMatrix::random(&mut rng, 4, 3);
        let sup = row_support(4, 7, &mat);
        assert_eq!(sup.len(), 16);
        for &p in sup.points() {
            let x = BitVec::from_u64(p & 0xF, 4);
            let ext = BitVec::from_u64(p >> 4, 3);
            assert_eq!(mat.left_mul_vec(&x), ext);
        }
    }

    #[test]
    fn family_enumerates_all_matrices() {
        let fam = family(2, 2, 4); // 2*(4-2) = 4 bits -> 16 matrices
        assert_eq!(fam.len(), 16);
        // Members are pairwise distinct as supports.
        let mut sets: Vec<Vec<u64>> = fam.iter().map(|inp| inp.row(0).points().to_vec()).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), 16);
    }

    #[test]
    fn one_round_mixture_distance_obeys_theorem_5_4() {
        // Exact mixture walk at (n, k, m) = (3, 3, 5): distance must be
        // well below trivial and shrink with k.
        let (n, k, m) = (3usize, 3u32, 5u32);
        let proto = FnProtocol::new(n, m, n as u32, |_, input, tr| {
            (input & (0b10110 ^ tr.as_u64())).count_ones() % 2 == 1
        });
        let members = family(n, k, m);
        let baseline = uniform_input(n, m);
        let cmp = ExactEstimator::default().estimate_full(&proto, &members, &baseline);
        assert!(cmp.tv() <= cmp.progress() + 1e-12);
        assert!(cmp.tv() < 0.3, "distance {}", cmp.tv());
    }

    #[test]
    fn lemma_7_3_holds_for_families() {
        use bcc_stats::TruthTable;
        let (k, m) = (4u32, 7u32); // 12 matrix bits -> 4096 matrices
        let mut rng = StdRng::seed_from_u64(7);
        for table in [
            TruthTable::majority(m),
            TruthTable::parity(m, (1 << m) - 1),
            TruthTable::random(&mut rng, m),
            TruthTable::and(m, 0b1011),
        ] {
            let (lhs, rhs) = lemma_7_3_check(k, m, &table.to_f64_table());
            assert!(lhs <= rhs + 1e-12, "Lemma 7.3 violated: {lhs} > {rhs}");
        }
    }

    #[test]
    fn lemma_7_3_tight_for_code_indicator() {
        // f = indicator of one fixed matrix's code: the M* term alone
        // contributes (1 - 2^{k-m})² / count... more usefully, the lemma
        // must still hold with slack for this adversarial f.
        let (k, m) = (3u32, 5u32);
        let mut rng = StdRng::seed_from_u64(8);
        let mstar = BitMatrix::random(&mut rng, k as usize, (m - k) as usize);
        let sup = row_support(k, m, &mstar);
        let mut table = vec![0.0; 1 << m];
        for &p in sup.points() {
            table[p as usize] = 1.0;
        }
        let (lhs, rhs) = lemma_7_3_check(k, m, &table);
        assert!(lhs <= rhs + 1e-12, "{lhs} > {rhs}");
        assert!(lhs > 0.0, "the indicator must register some distance");
    }

    #[test]
    fn lemma_7_2_small_on_large_domains() {
        use bcc_stats::TruthTable;
        let (k, m) = (4u32, 7u32);
        let mut rng = StdRng::seed_from_u64(9);
        // Random half-cube domain (well above 2^{m-k/2}).
        let mut domain: Vec<u64> = (0..(1u64 << m))
            .filter(|_| rand::Rng::gen::<bool>(&mut rng))
            .collect();
        domain.sort_unstable();
        let f = TruthTable::random(&mut rng, m);
        let got = lemma_7_2_mean(k, m, &f.to_f64_table(), &domain);
        // The paper's bound is 2^{-k/9}; at toy scale we check an order of
        // magnitude under the trivial 1.
        assert!(got <= 2f64.powf(-(k as f64) / 9.0), "mean {got}");
    }

    #[test]
    fn lemma_7_2_full_domain_matches_7_3_scale() {
        use bcc_stats::TruthTable;
        let (k, m) = (4u32, 6u32);
        let domain: Vec<u64> = (0..(1u64 << m)).collect();
        let f = TruthTable::majority(m);
        let mean = lemma_7_2_mean(k, m, &f.to_f64_table(), &domain);
        let (mean_sq, _) = lemma_7_3_check(k, m, &f.to_f64_table());
        // Jensen: (E|X|)² <= E[X²].
        assert!(mean * mean <= mean_sq + 1e-12);
    }

    #[test]
    fn deeper_seed_shrinks_distance() {
        // Increasing k (at fixed m - k and protocol) shrinks the exact
        // mixture distance — the 2^{-Ω(k)} shape of Theorem 5.4.
        let distance_at = |k: u32| {
            let n = 2usize;
            let m = k + 2;
            let proto = FnProtocol::new(n, m, n as u32, move |_, input, tr| {
                (input & (0x35 ^ tr.as_u64())).count_ones() % 2 == 1
            });
            let members = family(n, k, m);
            let baseline = uniform_input(n, m);
            ExactEstimator::default()
                .estimate_full(&proto, &members, &baseline)
                .tv()
        };
        let d2 = distance_at(2);
        let d5 = distance_at(5);
        assert!(
            d5 <= d2 + 1e-12,
            "distance should shrink with k: {d2} -> {d5}"
        );
    }
}
