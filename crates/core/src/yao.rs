//! Yao's principle, as the paper uses it.
//!
//! Every lower-bound proof opens with: "By Yao's principle \[Yao77\], we can
//! assume all processors are deterministic as we are trying to prove a
//! lower bound for distinguishing two input distributions." The direction
//! used is elementary: a randomized protocol is a distribution over
//! deterministic ones, and a mixture's distinguishing advantage is at most
//! the best member's — so a bound on *every deterministic* protocol bounds
//! all randomized ones. This module makes the step executable: feed a
//! family of deterministic protocols with selection weights, get back the
//! randomized protocol's exact transcript distance and the certificate
//! that it is dominated by the best member.

use bcc_congest::TurnProtocol;

use crate::engine::exact_comparison;
use crate::input::ProductInput;

/// The exact distances of a randomized protocol (a weighted mixture of
/// deterministic protocols) between two input distributions.
#[derive(Debug, Clone)]
pub struct YaoReduction {
    /// Exact distance per deterministic member.
    pub member_tv: Vec<f64>,
    /// The randomized protocol's distance: the weighted average (the
    /// shared randomness also enters the transcript, so the joint
    /// (coin, transcript) distance is exactly this average).
    pub randomized_tv: f64,
    /// The best member's distance — Yao's bound.
    pub best_member_tv: f64,
}

/// Runs the Yao reduction for a family of deterministic protocols with
/// selection probabilities `weights`.
///
/// Treats the protocol selector as *public* randomness (the strongest
/// variant: the distinguisher sees which deterministic protocol ran), so
/// the randomized distance is the weighted mean of member distances; the
/// reduction certificate is `randomized ≤ best member`.
///
/// # Panics
///
/// Panics if the family is empty, lengths mismatch, or weights do not sum
/// to ≈ 1.
pub fn yao_reduction<P: TurnProtocol + Sync>(
    protocols: &[P],
    weights: &[f64],
    a: &ProductInput,
    b: &ProductInput,
) -> YaoReduction {
    assert!(!protocols.is_empty(), "need at least one protocol");
    assert_eq!(protocols.len(), weights.len(), "one weight per protocol");
    let total: f64 = weights.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "weights must sum to 1");
    let member_tv: Vec<f64> = protocols
        .iter()
        .map(|p| exact_comparison(&p.as_wide(), a, b).tv())
        .collect();
    let randomized_tv = member_tv
        .iter()
        .zip(weights)
        .map(|(tv, w)| tv * w)
        .sum::<f64>();
    let best_member_tv = member_tv.iter().cloned().fold(0.0, f64::max);
    YaoReduction {
        member_tv,
        randomized_tv,
        best_member_tv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::RowSupport;
    use bcc_congest::FnProtocol;

    type BitFn = Box<dyn Fn(usize, u64, &bcc_congest::TurnTranscript) -> bool + Sync>;
    type Proto = FnProtocol<BitFn>;

    fn family() -> Vec<Proto> {
        (0..4u64)
            .map(|mask_seed| {
                let f: BitFn = Box::new(move |_, input, tr| {
                    let mask = (mask_seed * 3 + 1) ^ tr.as_u64();
                    (input & mask & 0b111).count_ones() % 2 == 1
                });
                FnProtocol::new(2, 3, 4, f)
            })
            .collect()
    }

    fn inputs() -> (ProductInput, ProductInput) {
        (
            ProductInput::new(vec![
                RowSupport::explicit(3, vec![1, 3, 5, 7]),
                RowSupport::uniform(3),
            ]),
            ProductInput::uniform(2, 3),
        )
    }

    #[test]
    fn randomized_never_beats_best_member() {
        let protos = family();
        let (a, b) = inputs();
        let w = vec![0.25; 4];
        let red = yao_reduction(&protos, &w, &a, &b);
        assert!(red.randomized_tv <= red.best_member_tv + 1e-12);
        assert_eq!(red.member_tv.len(), 4);
    }

    #[test]
    fn point_mass_recovers_the_member() {
        let protos = family();
        let (a, b) = inputs();
        let w = vec![0.0, 1.0, 0.0, 0.0];
        let red = yao_reduction(&protos, &w, &a, &b);
        assert!((red.randomized_tv - red.member_tv[1]).abs() < 1e-12);
    }

    #[test]
    fn bounding_all_members_bounds_randomized() {
        // The paper's usage: a theorem bounding every deterministic
        // protocol by B bounds every randomized protocol by B.
        let protos = family();
        let (a, b) = inputs();
        let w = vec![0.1, 0.2, 0.3, 0.4];
        let red = yao_reduction(&protos, &w, &a, &b);
        let theorem_b = red.best_member_tv; // any valid uniform bound
        assert!(red.randomized_tv <= theorem_b + 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn invalid_weights_rejected() {
        let protos = family();
        let (a, b) = inputs();
        let _ = yao_reduction(&protos, &[0.5, 0.5, 0.5, 0.5], &a, &b);
    }
}
