//! The toy PRG (§5, §6): one extra pseudorandom bit per processor.
//!
//! Each processor holds `k` private seed bits `x ∈ {0,1}^k`; a shared
//! secret `b ∈ {0,1}^k` turns them into `k + 1` output bits `(x, ⟨x,b⟩)`.
//! `U_{[b]}` denotes the uniform distribution on `{(x, x·b)}` — processor
//! inputs under the PRG; case (A) of Theorems 5.1/5.3 is `U_{k+1}`.
//!
//! The module provides the generator itself, the row supports that plug the
//! two cases into the exact engine, and executable forms of Lemma 6.1 and
//! Claim 5.

use bcc_core::{ProductInput, RowSupport};
use bcc_f2::BitVec;
use bcc_stats::TruthTable;
use rand::Rng;

/// The one-extra-bit PRG: seed `k` bits per processor plus a shared secret
/// `b`, output `k + 1` bits per processor.
///
/// # Example
///
/// ```
/// use bcc_prg::ToyPrg;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let prg = ToyPrg::new(4, 8);
/// let mut rng = StdRng::seed_from_u64(7);
/// let run = prg.run(&mut rng);
/// assert_eq!(run.outputs.len(), 4);
/// assert_eq!(run.outputs[0].len(), 9); // k + 1
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ToyPrg {
    n: usize,
    k: u32,
}

/// The outcome of one toy-PRG execution.
#[derive(Debug, Clone)]
pub struct ToyRun {
    /// The shared secret vector `b`.
    pub secret: BitVec,
    /// Each processor's `k + 1` pseudorandom bits `(x, ⟨x,b⟩)`.
    pub outputs: Vec<BitVec>,
}

impl ToyPrg {
    /// A toy PRG for `n` processors with `k` seed bits each.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`.
    pub fn new(n: usize, k: u32) -> Self {
        assert!(n > 0, "need at least one processor");
        assert!(k > 0, "need at least one seed bit");
        ToyPrg { n, k }
    }

    /// Samples the secret and all processors' outputs.
    pub fn run<R: Rng + ?Sized>(&self, rng: &mut R) -> ToyRun {
        let secret = BitVec::random(rng, self.k as usize);
        let outputs = (0..self.n)
            .map(|_| {
                let x = BitVec::random(rng, self.k as usize);
                let extra = x.dot(&secret);
                x.concat(&BitVec::from_bools(&[extra]))
            })
            .collect();
        if let Some(obs) = bcc_obs::current() {
            obs.add("prg.blocks_drawn", self.n as u64);
        }
        ToyRun { secret, outputs }
    }
}

/// The support of `U_{[b]}` as packed `(k+1)`-bit points: `x` in the low
/// `k` bits, `⟨x,b⟩` in bit `k`.
///
/// # Panics
///
/// Panics if `k > 24` (the support is enumerated).
pub fn row_support(k: u32, b: u64) -> RowSupport {
    assert!(k <= 24, "support too large to enumerate");
    let points = (0..(1u64 << k)).map(|x| x | (parity(x & b) << k)).collect();
    if let Some(obs) = bcc_obs::current() {
        obs.add("prg.support_points", 1u64 << k);
    }
    RowSupport::explicit(k + 1, points)
}

/// Case (B) of Theorem 5.3 for a fixed secret `b`: every one of `n`
/// processors independently uniform on `U_{[b]}` (one shared support
/// allocation, not `n` copies).
pub fn pseudo_input(n: usize, k: u32, b: u64) -> ProductInput {
    ProductInput::repeated(row_support(k, b), n)
}

/// Case (A): every processor uniform on `{0,1}^{k+1}`.
pub fn uniform_input(n: usize, k: u32) -> ProductInput {
    ProductInput::uniform(n, k + 1)
}

/// The full decomposition family: one member per secret `b ∈ {0,1}^k`.
///
/// # Panics
///
/// Panics if `k > 12` (the family has `2^k` members).
pub fn family(n: usize, k: u32) -> Vec<ProductInput> {
    assert!(k <= 12, "family too large to enumerate");
    (0..(1u64 << k)).map(|b| pseudo_input(n, k, b)).collect()
}

/// **Lemma 6.1**, evaluated exactly: for `f : {0,1}^{k+1} → {0,1}` and a
/// domain `D`, returns `E_{b∼U_k} ‖f(U_{[b],D}) − f(U_{k+1,D})‖`.
///
/// The lemma asserts this is `≤ 2^{-k/9}` whenever `|D| ≥ 2^{k/2}`. Points
/// of `D` are packed `(k+1)`-bit values. Per the paper's footnote, when
/// `U_{[b]}` has no mass on `D` the conditional is taken to be `U_D`
/// itself, contributing distance 0.
///
/// # Panics
///
/// Panics if `D` is empty or `k > 20`.
pub fn lemma_6_1_mean(k: u32, f: &TruthTable, domain: &[u64]) -> f64 {
    assert!(!domain.is_empty(), "domain must be non-empty");
    assert!(k <= 20, "secret space too large to enumerate");
    assert_eq!(f.arity(), k + 1, "f must take k+1 bits");
    let mean_d = f
        .mean_on_domain(domain)
        .expect("non-empty domain has a mean");
    let mut total = 0.0;
    for b in 0..(1u64 << k) {
        let restricted: Vec<u64> = domain
            .iter()
            .copied()
            .filter(|&p| on_coset(p, b, k))
            .collect();
        let dist = match f.mean_on_domain(&restricted) {
            Some(mean_b) => (mean_b - mean_d).abs(),
            None => 0.0,
        };
        total += dist;
    }
    total / (1u64 << k) as f64
}

/// **Claim 5**, evaluated exactly: the distribution of `N_b / N_D` over
/// secrets `b`, where `N_D = |D|` and `N_b = |D ∩ supp U_{[b]}|`. Returns
/// `(mean of |N_b/N_D − 1/2|, max of |N_b/N_D − 1/2|)`.
///
/// The claim asserts the deviation exceeds `2^{-k/8}` with probability at
/// most `2^{-k/8}`.
pub fn claim_5_deviations(k: u32, domain: &[u64]) -> (f64, f64) {
    assert!(!domain.is_empty(), "domain must be non-empty");
    let nd = domain.len() as f64;
    let mut sum = 0.0;
    let mut max: f64 = 0.0;
    for b in 0..(1u64 << k) {
        let nb = domain.iter().filter(|&&p| on_coset(p, b, k)).count() as f64;
        let dev = (nb / nd - 0.5).abs();
        sum += dev;
        max = max.max(dev);
    }
    (sum / (1u64 << k) as f64, max)
}

/// Whether the packed point `p = (x, y)` lies on the coset of secret `b`,
/// i.e. `y = ⟨x, b⟩`.
fn on_coset(p: u64, b: u64, k: u32) -> bool {
    let x = p & ((1u64 << k) - 1);
    let y = (p >> k) & 1;
    parity(x & b) == y
}

fn parity(x: u64) -> u64 {
    (x.count_ones() % 2) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_congest::FnProtocol;
    use bcc_core::exec::{Estimator, ExactEstimator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn outputs_satisfy_linear_relation() {
        let prg = ToyPrg::new(6, 10);
        let mut rng = StdRng::seed_from_u64(1);
        let run = prg.run(&mut rng);
        for out in &run.outputs {
            let x = out.slice(0, 10);
            assert_eq!(out.get(10), x.dot(&run.secret));
        }
    }

    #[test]
    fn row_support_size_and_membership() {
        let r = row_support(5, 0b10110);
        assert_eq!(r.len(), 32);
        for &p in r.points() {
            assert!(on_coset(p, 0b10110, 5));
        }
    }

    #[test]
    fn supports_partition_the_cube_in_pairs() {
        // For any x, exactly one of (x,0),(x,1) is on the coset.
        let r = row_support(4, 0b1010);
        let xs: std::collections::BTreeSet<u64> = r.points().iter().map(|&p| p & 0xF).collect();
        assert_eq!(xs.len(), 16);
    }

    #[test]
    fn family_has_all_secrets() {
        let fam = family(2, 3);
        assert_eq!(fam.len(), 8);
    }

    #[test]
    fn one_round_distance_obeys_theorem_5_1() {
        // Theorem 5.1: ||P_rand - avg_b P_[b]|| <= O(n / 2^{k/2}).
        // Exact mixture walk with a parity-style protocol, n = 4, k = 6.
        let (n, k) = (4usize, 6u32);
        let proto = FnProtocol::new(n, k + 1, n as u32, |_, input, tr| {
            // Broadcast a transcript-dependent parity of the input.
            let mask = 0x55u64 ^ tr.as_u64();
            (input & mask).count_ones() % 2 == 1
        });
        let members = family(n, k);
        let baseline = uniform_input(n, k);
        let cmp = ExactEstimator.estimate(&proto, &members, &baseline);
        let bound = n as f64 / 2f64.powf(k as f64 / 2.0);
        assert!(
            cmp.tv() <= bound,
            "mixture distance {} above O(n/2^(k/2)) = {bound}",
            cmp.tv()
        );
        // The progress function also obeys the per-turn bound t·2^{-k/2}.
        for (t, p) in cmp.progress_by_depth.iter().enumerate() {
            assert!(
                *p <= t as f64 * 2f64.powf(-(k as f64) / 2.0) + 1e-9,
                "turn {t}: progress {p}"
            );
        }
    }

    #[test]
    fn secret_revealing_protocol_distinguishes_one_b() {
        // A protocol that knows b* can distinguish U_[b*] from uniform:
        // broadcast whether the extra bit matches <x, b*>.
        let k = 5u32;
        let bstar = 0b10011u64;
        let proto = FnProtocol::new(1, k + 1, 1, move |_, input, _| on_coset(input, bstar, k));
        let pseudo = pseudo_input(1, k, bstar);
        let baseline = uniform_input(1, k);
        let cmp = ExactEstimator.estimate(&proto, std::slice::from_ref(&pseudo), &baseline);
        assert!((cmp.tv() - 0.5).abs() < 1e-12, "tv = {}", cmp.tv());
    }

    #[test]
    fn lemma_6_1_on_full_domain() {
        let k = 8u32;
        let domain: Vec<u64> = (0..(1u64 << (k + 1))).collect();
        let mut rng = StdRng::seed_from_u64(2);
        for f in [
            TruthTable::majority(k + 1),
            TruthTable::random(&mut rng, k + 1),
            TruthTable::parity(k + 1, (1 << (k + 1)) - 1),
        ] {
            let mean = lemma_6_1_mean(k, &f, &domain);
            let bound = 2f64.powf(-(k as f64) / 9.0);
            assert!(mean <= bound, "{mean} > 2^(-k/9) = {bound}");
        }
    }

    #[test]
    fn lemma_6_1_on_restricted_domain() {
        // |D| = 2^{k/2} exactly at the lemma's threshold.
        let k = 8u32;
        let mut rng = StdRng::seed_from_u64(3);
        let full: Vec<u64> = (0..(1u64 << (k + 1))).collect();
        // Random domain of size 2^{k-1} (well above 2^{k/2}).
        let mut domain = full.clone();
        for i in (1..domain.len()).rev() {
            let j = rng.gen_range(0..=i);
            domain.swap(i, j);
        }
        domain.truncate(1 << (k - 1));
        domain.sort_unstable();
        let f = TruthTable::random(&mut rng, k + 1);
        let mean = lemma_6_1_mean(k, &f, &domain);
        assert!(mean <= 2f64.powf(-(k as f64) / 9.0) * 2.0, "mean {mean}");
    }

    #[test]
    fn claim_5_balance() {
        let k = 10u32;
        let mut rng = StdRng::seed_from_u64(4);
        let mut domain: Vec<u64> = (0..(1u64 << (k + 1)))
            .filter(|_| rng.gen::<f64>() < 0.4)
            .collect();
        domain.sort_unstable();
        let (mean_dev, _max_dev) = claim_5_deviations(k, &domain);
        // Mean deviation should be tiny (Claim 5: below ~2^{-k/8} except
        // with small probability).
        assert!(mean_dev < 0.05, "mean deviation {mean_dev}");
    }

    #[test]
    fn claim_5_worst_case_domain_is_balanced_too() {
        // Even the coset of a fixed secret as the domain: N_b/N_D deviates
        // fully only at b = b* and its complement-ish values.
        let k = 8u32;
        let domain: Vec<u64> = row_support(k, 0b1011).points().to_vec();
        let (mean_dev, max_dev) = claim_5_deviations(k, &domain);
        assert!((max_dev - 0.5).abs() < 1e-12, "b = b* is fully biased");
        assert!(mean_dev < 0.01, "but on average balance holds: {mean_dev}");
    }

    #[test]
    fn multi_round_distance_small_for_natural_protocols() {
        // Theorem 5.3 shape: j rounds, distance O(jn/2^{k/9}).
        let (n, k, j) = (3usize, 7u32, 2u32);
        let proto = FnProtocol::new(n, k + 1, j * n as u32, |proc, input, tr| {
            let mask = (0x6D ^ (tr.as_u64() << 1) ^ proc as u64) & 0xFF;
            (input & mask).count_ones() % 2 == 1
        });
        let mut rng = StdRng::seed_from_u64(5);
        // Sampled over random secrets (the full family is 128 members;
        // average exact distance over a few).
        let baseline = uniform_input(n, k);
        let mut total = 0.0;
        let trials = 16;
        for _ in 0..trials {
            let b = rng.gen::<u64>() & ((1 << k) - 1);
            let cmp = ExactEstimator.estimate(
                &proto,
                std::slice::from_ref(&pseudo_input(n, k, b)),
                &baseline,
            );
            total += cmp.tv();
        }
        let avg = total / trials as f64;
        let bound = 2.0 * (j * n as u32) as f64 / 2f64.powf(k as f64 / 9.0);
        assert!(avg <= bound, "avg distance {avg} above {bound}");
    }

    #[test]
    fn generators_count_blocks_and_support_points_when_observed() {
        let registry = bcc_obs::Registry::new();
        {
            let _scope = registry.install();
            let mut rng = StdRng::seed_from_u64(11);
            let _ = ToyPrg::new(5, 4).run(&mut rng); // 5 blocks
            let _ = row_support(6, 0b10_1010); // 2^6 support points
        }
        let snapshot = registry.snapshot();
        let counter = |name: &str| {
            snapshot
                .work
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("prg.blocks_drawn"), Some(5));
        assert_eq!(counter("prg.support_points"), Some(64));
    }
}
