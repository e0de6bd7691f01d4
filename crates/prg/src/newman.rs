//! Newman's theorem in the Broadcast Congested Clique (Appendix A,
//! Theorem A.1).
//!
//! Any public-coin protocol using `N` public random bits can be
//! `ε`-simulated by one using `O(kn + log m + log ε⁻¹)` public bits: fix
//! `T` pre-sampled coin strings `w₁…w_T`; at runtime draw a uniform index
//! (costing `log₂ T` public bits) and run the protocol with `w_index`.
//!
//! The construction is *non-constructive* in the paper (a good `T`-tuple
//! exists by Chernoff + union bound); here we sample the tuple and measure
//! the simulation error empirically — the measured error converging as
//! `1/√T` is exactly the Chernoff shape the proof uses. The contrast with
//! [`crate::derand`] is the paper's point: Newman saves *public* coins
//! but is computationally infeasible to make constructive, while the PRG
//! transform is efficient.

use bcc_congest::Network;
use bcc_f2::BitVec;
use rand::Rng;

/// A public-coin Broadcast Congested Clique protocol: deterministic given
/// one shared random string.
pub trait PublicCoinProtocol {
    /// The protocol's result.
    type Output;

    /// Public random bits consumed per execution.
    fn coin_bits(&self) -> usize;

    /// Executes with the given shared coins.
    fn run(&self, net: &mut Network, coins: &BitVec) -> Self::Output;
}

/// A Newman simulation: `T` pre-sampled coin strings.
#[derive(Debug, Clone)]
pub struct NewmanSimulation {
    tuples: Vec<BitVec>,
}

impl NewmanSimulation {
    /// Pre-samples `t` coin strings for a protocol with `coin_bits` coins.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn sample<R: Rng + ?Sized>(coin_bits: usize, t: usize, rng: &mut R) -> Self {
        assert!(t > 0, "need at least one coin string");
        NewmanSimulation {
            tuples: (0..t).map(|_| BitVec::random(rng, coin_bits)).collect(),
        }
    }

    /// The number of pre-sampled strings `T`.
    fn t(&self) -> usize {
        self.tuples.len()
    }

    /// Public bits the simulation consumes at runtime, `⌈log₂ T⌉`.
    pub fn runtime_coin_bits(&self) -> usize {
        (usize::BITS - (self.t() - 1).leading_zeros()) as usize
    }

    /// Runs the simulated protocol: draws an index with
    /// [`runtime_coin_bits`](NewmanSimulation::runtime_coin_bits) public
    /// bits and dispatches.
    fn run<P, R>(&self, protocol: &P, net: &mut Network, rng: &mut R) -> P::Output
    where
        P: PublicCoinProtocol,
        R: Rng + ?Sized,
    {
        let idx = rng.gen_range(0..self.t());
        protocol.run(net, &self.tuples[idx])
    }
}

/// Measures the simulation error on a *Boolean* statistic of the
/// protocol's output: `|Pr_sim[stat] − Pr_true[stat]|`, both estimated
/// with `trials` runs.
///
/// Theorem A.1 asserts a tuple exists making this at most `ε` for *all*
/// inputs and transcript events simultaneously once
/// `T = Θ(ε⁻²(nm + 2^{2kn}))`; a random tuple achieves the per-event
/// `1/√T` Chernoff bound this function observes.
pub fn simulation_error<P, R, F>(
    protocol: &P,
    sim: &NewmanSimulation,
    make_net: impl Fn() -> Network,
    stat: F,
    trials: usize,
    rng: &mut R,
) -> f64
where
    P: PublicCoinProtocol,
    R: Rng + ?Sized,
    F: Fn(&P::Output) -> bool,
{
    assert!(trials > 0, "need at least one trial");
    let mut hits_true = 0usize;
    let mut hits_sim = 0usize;
    for _ in 0..trials {
        let coins = BitVec::random(rng, protocol.coin_bits());
        let mut net = make_net();
        if stat(&protocol.run(&mut net, &coins)) {
            hits_true += 1;
        }
        let mut net = make_net();
        if stat(&sim.run(protocol, &mut net, rng)) {
            hits_sim += 1;
        }
    }
    (hits_true as f64 - hits_sim as f64).abs() / trials as f64
}

/// The paper's sufficient tuple size
/// `T = Θ(ε⁻²·(nm + 2^{2kn}))` — astronomically large in general, which
/// is the point of preferring the PRG transform; returned as `log₂ T` to
/// avoid overflow.
pub fn newman_tuple_size_log2(n: usize, m: usize, k: usize, eps: f64) -> f64 {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
    let inside = (n as f64 * m as f64) + 2f64.powf(2.0 * k as f64 * n as f64);
    (inside / (eps * eps)).log2()
}

/// **Remark A.2**: at least `Ω(k·n)` coins are required to ε-simulate a
/// `k`-round protocol whose `n` processors each output `k` uniform random
/// bits — the joint output entropy is `k·n` bits, and a protocol driven
/// by `c` coins has transcript-and-output entropy at most `c` (given the
/// inputs, everything is a function of the coins).
///
/// Returns the entropy lower bound on the coin count, `k·n`, so callers
/// can print it against the `O(kn + log m)` upper bound of Theorem A.1 —
/// tight up to the `log m` term.
pub fn remark_a_2_coin_lower_bound(n: usize, k: usize) -> usize {
    n * k
}

/// A demonstration public-coin protocol: AllEqual by random-parity
/// fingerprinting.
///
/// Inputs: each processor holds an `L`-bit string. With `s` shared random
/// vectors `r₁…r_s` (the public coins), every processor broadcasts
/// `⟨xᵢ, r_j⟩` for each `j` (s rounds); all accept iff all broadcasts agree
/// in every round. One-sided error: unequal inputs collide with
/// probability `2^{-s}`.
#[derive(Debug, Clone)]
pub struct AllEqual {
    /// Per-processor inputs, equal lengths.
    pub inputs: Vec<BitVec>,
    /// Number of fingerprint rounds `s`.
    pub repetitions: usize,
}

impl PublicCoinProtocol for AllEqual {
    type Output = bool;

    fn coin_bits(&self) -> usize {
        self.repetitions * self.inputs[0].len()
    }

    fn run(&self, net: &mut Network, coins: &BitVec) -> bool {
        let n = net.model().n();
        assert_eq!(self.inputs.len(), n, "one input per processor");
        let len = self.inputs[0].len();
        let mut all_agree = true;
        for j in 0..self.repetitions {
            let r = coins.slice(j * len, (j + 1) * len);
            let messages: Vec<u64> = (0..n).map(|i| u64::from(self.inputs[i].dot(&r))).collect();
            let heard = net.broadcast_round(&messages);
            if heard.iter().any(|&m| m != heard[0]) {
                all_agree = false;
            }
        }
        all_agree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_congest::Model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn equal_instance(n: usize, len: usize, reps: usize) -> AllEqual {
        AllEqual {
            inputs: vec![BitVec::ones(len); n],
            repetitions: reps,
        }
    }

    fn unequal_instance(rng: &mut StdRng, n: usize, len: usize, reps: usize) -> AllEqual {
        let mut inputs = vec![BitVec::random(rng, len); n];
        inputs[n - 1] = {
            let mut v = inputs[0].clone();
            v.flip(0);
            v
        };
        AllEqual {
            inputs,
            repetitions: reps,
        }
    }

    #[test]
    fn all_equal_accepts_equal_inputs_always() {
        let mut rng = StdRng::seed_from_u64(1);
        let proto = equal_instance(5, 16, 4);
        for _ in 0..50 {
            let coins = BitVec::random(&mut rng, proto.coin_bits());
            let mut net = Network::new(Model::bcast1(5));
            assert!(proto.run(&mut net, &coins));
            assert_eq!(net.rounds_used(), 4);
        }
    }

    #[test]
    fn all_equal_rejects_unequal_whp() {
        let mut rng = StdRng::seed_from_u64(2);
        let proto = unequal_instance(&mut rng, 5, 16, 8);
        assert!(proto.inputs.windows(2).any(|w| w[0] != w[1]));
        let mut accepts = 0;
        for _ in 0..200 {
            let coins = BitVec::random(&mut rng, proto.coin_bits());
            let mut net = Network::new(Model::bcast1(5));
            if proto.run(&mut net, &coins) {
                accepts += 1;
            }
        }
        // Error probability 2^-8 per trial.
        assert!(accepts <= 5, "false accepts: {accepts}");
    }

    #[test]
    fn simulation_uses_few_coins() {
        let mut rng = StdRng::seed_from_u64(3);
        let sim = NewmanSimulation::sample(128, 1024, &mut rng);
        assert_eq!(sim.runtime_coin_bits(), 10);
    }

    #[test]
    fn simulation_error_shrinks_with_t() {
        let mut rng = StdRng::seed_from_u64(4);
        let proto = unequal_instance(&mut rng, 4, 12, 3);
        let trials = 3000;
        let mut errors = Vec::new();
        for t in [2usize, 256] {
            let sim = NewmanSimulation::sample(proto.coin_bits(), t, &mut rng);
            let err = simulation_error(
                &proto,
                &sim,
                || Network::new(Model::bcast1(4)),
                |&accepted| accepted,
                trials,
                &mut rng,
            );
            errors.push(err);
        }
        // T = 2 can misrepresent the 1/8 rejection-failure rate badly;
        // T = 256 cannot (beyond sampling noise).
        assert!(errors[1] < 0.05, "T=256 error {}", errors[1]);
    }

    #[test]
    fn tuple_size_is_astronomical_in_general() {
        // n = 8 processors, k = 2 rounds: log2 T ~ 2kn = 32 bits plus
        // slack; versus the PRG's poly-time construction.
        let log2_t = newman_tuple_size_log2(8, 64, 2, 0.01);
        assert!(log2_t > 32.0);
    }

    #[test]
    fn remark_a_2_brackets_theorem_a_1() {
        // The entropy lower bound kn sits below Theorem A.1's sufficient
        // O(kn + log m + log 1/eps) coin count — tight up to additive
        // logs. We compare against the log2 of the tuple count actually
        // needed at runtime (log2 T), using the kn-dominant regime.
        let (n, k, m) = (16usize, 4usize, 64usize);
        let lower = remark_a_2_coin_lower_bound(n, k);
        let upper_log2_t = newman_tuple_size_log2(n, m, k, 0.01);
        // Runtime coins = log2 T ≈ 2kn + O(log): within a factor ~2-3 of
        // the entropy bound kn.
        assert!(lower as f64 <= upper_log2_t);
        assert!(upper_log2_t <= 3.0 * lower as f64 + 40.0);
    }

    #[test]
    fn coin_entropy_argument_is_observable() {
        // A protocol that outputs its coins verbatim: with T sampled
        // strings its output entropy is capped at log2 T, visibly below
        // the kn bits of true randomness for small T.
        use bcc_stats::Dist;
        let mut rng = StdRng::seed_from_u64(9);
        let coin_bits = 12usize;
        let t = 4usize; // log2 T = 2 << 12
        let sim = NewmanSimulation::sample(coin_bits, t, &mut rng);
        struct Echo;
        impl PublicCoinProtocol for Echo {
            type Output = u64;
            fn coin_bits(&self) -> usize {
                12
            }
            fn run(&self, _net: &mut Network, coins: &BitVec) -> u64 {
                coins.to_u64()
            }
        }
        let outputs: Vec<u64> = (0..4000)
            .map(|_| {
                let mut net = Network::new(Model::bcast1(2));
                sim.run(&Echo, &mut net, &mut rng)
            })
            .collect();
        let entropy = Dist::uniform(outputs).entropy();
        assert!(
            entropy <= (t as f64).log2() + 1e-9,
            "simulated output entropy {entropy} must be capped at log2 T"
        );
    }

    #[test]
    fn simulation_preserves_completeness() {
        // On equal inputs both real and simulated protocols always accept.
        let mut rng = StdRng::seed_from_u64(5);
        let proto = equal_instance(4, 12, 3);
        let sim = NewmanSimulation::sample(proto.coin_bits(), 64, &mut rng);
        let err = simulation_error(
            &proto,
            &sim,
            || Network::new(Model::bcast1(4)),
            |&accepted| accepted,
            500,
            &mut rng,
        );
        assert_eq!(err, 0.0);
    }
}
