//! The *decision* version of the planted clique problem (§1.2: "the goal
//! is to determine whether a clique exists").
//!
//! A decision protocol is a turn protocol plus an accept/reject rule on
//! the final transcript. The paper measures quality as *advantage*
//! (footnote 5): guessing the source of a sample drawn from either
//! distribution with probability `½ + ε`.
//!
//! Two facts this module makes executable:
//!
//! * For any transcript rule, `advantage = |accept_rate₁ − accept_rate₂|/2`
//!   and is at most `TV/2`... more precisely the *optimal* rule's
//!   advantage is exactly `TV(P₁, P₂)/2` — [`optimal_advantage`] computes
//!   it from the exact engine and [`rule_advantage`] measures any given
//!   rule against it.
//! * Corollary 1.7: with `k = o(n^{1/4})` every one-round protocol's
//!   optimal advantage is `o(1)`.

use bcc_congest::{run_turn_protocol, TurnProtocol};
use bcc_core::exec::{Estimator, ExactEstimator};
use rand::Rng;

use crate::inputs::{clique_family, rand_input};

/// A decision rule: accept/reject on a packed final transcript.
pub trait DecisionRule {
    /// Whether to output "planted" on this transcript.
    fn accept(&self, transcript: u64) -> bool;
}

impl<F: Fn(u64) -> bool> DecisionRule for F {
    fn accept(&self, transcript: u64) -> bool {
        self(transcript)
    }
}

/// The advantage of the *optimal* transcript rule for a protocol on
/// `A_rand` vs `A_k`, computed exactly: `TV(P_rand, P_k) / 2`.
///
/// This is the strongest possible decision quality for the given
/// communication pattern — Theorem 1.6 bounds it by `k²/(2√n)`.
pub fn optimal_advantage<P: TurnProtocol + Sync + ?Sized>(protocol: &P, n: u32, k: usize) -> f64 {
    optimal_advantage_with(protocol, n, k, &ExactEstimator::default())
}

/// [`optimal_advantage`] through an arbitrary [`Estimator`] — the sampled
/// backend reaches instances beyond the exact walk (its result is then an
/// estimate with the estimator's noise floor).
pub fn optimal_advantage_with<P, E>(protocol: &P, n: u32, k: usize, estimator: &E) -> f64
where
    P: TurnProtocol + Sync + ?Sized,
    E: Estimator,
{
    let members = clique_family(n, k);
    let baseline = rand_input(n);
    estimator
        .estimate_full(&protocol.as_wide(), &members, &baseline)
        .tv()
        / 2.0
}

/// Measured acceptance rates of a concrete rule under both distributions.
#[derive(Debug, Clone, Copy)]
pub struct RulePerformance {
    /// Acceptance rate on `A_k` (planted).
    pub accept_planted: f64,
    /// Acceptance rate on `A_rand`.
    pub accept_rand: f64,
    /// The advantage `|accept_planted − accept_rand| / 2`.
    pub advantage: f64,
}

/// Measures a decision rule by sampling both distributions `trials` times
/// each (sampling `A_k` by first sampling the clique — the mixture).
pub fn rule_advantage<P, D, R>(
    protocol: &P,
    rule: &D,
    n: u32,
    k: usize,
    trials: usize,
    rng: &mut R,
) -> RulePerformance
where
    P: TurnProtocol + ?Sized,
    D: DecisionRule + ?Sized,
    R: Rng + ?Sized,
{
    assert!(trials > 0, "need at least one trial");
    let baseline = rand_input(n);
    let mut acc_p = 0usize;
    let mut acc_r = 0usize;
    for _ in 0..trials {
        let c = bcc_graphs::planted::sample_subset(rng, n as usize, k);
        let planted_input = crate::inputs::clique_input(n, &c);
        let x = planted_input.sample(rng);
        if rule.accept(run_turn_protocol(protocol, &x).as_u64()) {
            acc_p += 1;
        }
        let y = baseline.sample(rng);
        if rule.accept(run_turn_protocol(protocol, &y).as_u64()) {
            acc_r += 1;
        }
    }
    let accept_planted = acc_p as f64 / trials as f64;
    let accept_rand = acc_r as f64 / trials as f64;
    RulePerformance {
        accept_planted,
        accept_rand,
        advantage: (accept_planted - accept_rand).abs() / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::protocols::{degree_threshold, suspect_intersection, transcript_ones_acceptor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn optimal_advantage_obeys_corollary_1_7() {
        let (n, k) = (8u32, 2usize);
        let adv = optimal_advantage(&suspect_intersection(n, 1), n, k);
        assert!(adv <= bounds::theorem_1_6(n as usize, k) / 2.0);
    }

    #[test]
    fn concrete_rules_never_beat_the_optimal() {
        let (n, k) = (7u32, 2usize);
        let proto = degree_threshold(n, 1, 4);
        let optimal = optimal_advantage(&proto, n, k);
        let mut rng = StdRng::seed_from_u64(1);
        for thresh in [2u32, 3, 4, 5] {
            let rule = transcript_ones_acceptor(thresh);
            let perf = rule_advantage(&proto, &rule, n, k, 30_000, &mut rng);
            // Allow 3-sigma sampling noise (~0.006 at 30k trials).
            assert!(
                perf.advantage <= optimal + 0.01,
                "rule(>{thresh}) advantage {} beats optimal {optimal}",
                perf.advantage
            );
        }
    }

    #[test]
    fn some_rule_approaches_the_optimal() {
        // For a 1-round degree protocol the best threshold rule should
        // capture a decent share of the optimal advantage.
        let (n, k) = (7u32, 3usize);
        let proto = degree_threshold(n, 1, 4);
        let optimal = optimal_advantage(&proto, n, k);
        let mut rng = StdRng::seed_from_u64(2);
        let best = (1..=6u32)
            .map(|t| {
                rule_advantage(&proto, &transcript_ones_acceptor(t), n, k, 20_000, &mut rng)
                    .advantage
            })
            .fold(0.0f64, f64::max);
        assert!(
            best >= optimal * 0.5,
            "best rule {best} far below optimal {optimal}"
        );
    }

    #[test]
    fn constant_rules_have_zero_advantage() {
        let (n, k) = (6u32, 2usize);
        let proto = suspect_intersection(n, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let always = rule_advantage(&proto, &|_: u64| true, n, k, 5000, &mut rng);
        assert_eq!(always.advantage, 0.0);
        assert_eq!(always.accept_planted, 1.0);
    }
}
