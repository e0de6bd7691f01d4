//! The `BCAST(w)` alphabet of the exact engine.
//!
//! [`crate::engine`] walks one kind of turn tree: each turn branches over
//! the `2^w`-message alphabet of a [`WideTurnProtocol`], so footnote 2 of
//! the paper ("all of our results generalize to the setting of
//! logarithmic sized messages") is checked *exactly*, and `BCAST(1)` is
//! the width-1 case. This module holds the node budget every exact walk
//! is priced against ([`wide_walk_nodes`] ≤ [`MAX_WIDE_NODES`]); the walk
//! itself, and the one rule by which it splits the speaker's live points
//! by label at each node, is [`crate::walk`]. A node builds one pooled
//! set per label that actually occurs, never `O(2^w)` sets for an
//! alphabet that is mostly dead. The frontier depth adapts to the width
//! and the rayon pool ([`crate::walk::adaptive_split_depth`]`(w)`
//! turns), keeping the fan-out comparable across message widths.

use bcc_congest::wide::WideTurnProtocol;

/// The node-budget cap of the exact wide walk: a walk whose *complete*
/// turn tree could exceed this many nodes is refused up front.
pub const MAX_WIDE_NODES: u64 = 1 << 26;

/// The number of nodes in the complete `2^width`-ary turn tree of depth
/// `horizon` — `Σ_{t=0}^{horizon} 2^{width·t}` — saturating at
/// [`u64::MAX`]. This is the upper bound on what
/// [`crate::exec::ExactEstimator`] can visit; dead branches
/// are pruned, so real walks typically visit far fewer nodes.
pub fn wide_walk_nodes(width: u32, horizon: u32) -> u64 {
    let fanout = if width >= 64 { u64::MAX } else { 1u64 << width };
    let mut total: u64 = 0;
    let mut level: u64 = 1;
    for _ in 0..=horizon {
        total = total.saturating_add(level);
        level = level.saturating_mul(fanout);
    }
    total
}

/// Refuses a walk the node budget cannot price: a width outside `1..=16`,
/// or a complete turn tree beyond [`MAX_WIDE_NODES`] nodes.
pub(crate) fn validate_budget<P: WideTurnProtocol + ?Sized>(protocol: &P) {
    let width = protocol.width();
    assert!(
        (1..=16).contains(&width),
        "message width {width} outside 1..=16 (wide transcripts pack into a u64)"
    );
    let horizon = protocol.horizon();
    let nodes = wide_walk_nodes(width, horizon);
    assert!(
        nodes <= MAX_WIDE_NODES,
        "exact walk refused: a width-{width} tree to horizon {horizon} reaches up to \
         {nodes} nodes, beyond the {MAX_WIDE_NODES}-node budget"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Estimator, ExactEstimator};
    use crate::input::{ProductInput, RowSupport};
    use bcc_congest::wide::{FnWideProtocol, PackedAdapter, WideTranscript};
    use bcc_congest::FnProtocol;

    #[test]
    fn width_one_matches_bit_engine() {
        // A BCAST(1) protocol and the same decision written as a width-1
        // FnWideProtocol give the same distances.
        let bitp = FnProtocol::new(2, 3, 4, |_, input, tr| (input >> (tr.len() / 2)) & 1 == 1);
        let widep = FnWideProtocol::new(2, 3, 1, 4, |_, input, tr| (input >> (tr.len() / 2)) & 1);
        let a = ProductInput::new(vec![
            RowSupport::explicit(3, vec![0, 2, 5, 7]),
            RowSupport::uniform(3),
        ]);
        let b = ProductInput::uniform(2, 3);
        let bit = ExactEstimator.estimate(&bitp, std::slice::from_ref(&a), &b);
        let wide = ExactEstimator.estimate(&widep, std::slice::from_ref(&a), &b);
        assert!((bit.tv() - wide.tv()).abs() < 1e-12);
        assert_eq!(
            bit.mixture_tv_by_depth.len(),
            wide.mixture_tv_by_depth.len()
        );
        for (x, y) in bit
            .mixture_tv_by_depth
            .iter()
            .zip(&wide.mixture_tv_by_depth)
        {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn packed_adapter_preserves_distance_in_fewer_turns() {
        // Footnote 2, executable: pack 2 single-bit turns per message —
        // same final distance, half the turns.
        struct Contig<F>(FnProtocol<F>);
        impl<F: Fn(usize, u64, &WideTranscript) -> bool> WideTurnProtocol for Contig<F> {
            fn n(&self) -> usize {
                self.0.n()
            }
            fn input_bits(&self) -> u32 {
                self.0.input_bits()
            }
            fn width(&self) -> u32 {
                1
            }
            fn horizon(&self) -> u32 {
                self.0.horizon()
            }
            fn speaker(&self, t: u32) -> usize {
                (t / 2) as usize % self.n()
            }
            fn message(&self, proc: usize, input: u64, tr: &WideTranscript) -> u64 {
                self.0.message(proc, input, tr)
            }
        }
        let make_inner = || {
            Contig(FnProtocol::new(2, 4, 8, |_, input, tr| {
                (input >> (tr.len() % 4)) & 1 == 1
            }))
        };
        let a = ProductInput::new(vec![
            RowSupport::explicit(4, (0..16).filter(|x| x % 3 != 0).collect()),
            RowSupport::uniform(4),
        ]);
        let b = ProductInput::uniform(2, 4);

        let inner = make_inner();
        let bit = ExactEstimator.estimate(&inner, std::slice::from_ref(&a), &b);
        let packed = PackedAdapter::new(make_inner(), 2);
        let wide = ExactEstimator.estimate(&packed, std::slice::from_ref(&a), &b);
        assert_eq!(wide.horizon * 2, bit.horizon);
        assert!(
            (bit.tv() - wide.tv()).abs() < 1e-12,
            "bit {} vs wide {}",
            bit.tv(),
            wide.tv()
        );
    }

    #[test]
    fn wider_messages_extract_distance_faster() {
        // One BCAST(4) turn reveals the speaker's low nibble — as much as
        // four BCAST(1) turns.
        let wide = FnWideProtocol::new(1, 4, 4, 1, |_, input, _| input & 0xF);
        let a = ProductInput::new(vec![RowSupport::explicit(4, vec![0, 1, 2, 3])]);
        let b = ProductInput::uniform(1, 4);
        let cmp = ExactEstimator.estimate(&wide, std::slice::from_ref(&a), &b);
        assert!((cmp.tv() - 0.75).abs() < 1e-12);
        assert_eq!(cmp.horizon, 1);
    }

    #[test]
    fn mixture_below_progress_wide() {
        let wide = FnWideProtocol::new(1, 3, 2, 2, |_, input, tr| (input >> tr.len()) & 0b11);
        let m0 = ProductInput::new(vec![RowSupport::explicit(3, vec![0, 1])]);
        let m1 = ProductInput::new(vec![RowSupport::explicit(3, vec![6, 7])]);
        let base = ProductInput::uniform(1, 3);
        let cmp = ExactEstimator.estimate(&wide, &[m0, m1], &base);
        for t in 0..cmp.mixture_tv_by_depth.len() {
            assert!(cmp.mixture_tv_by_depth[t] <= cmp.progress_by_depth[t] + 1e-12);
        }
    }

    #[test]
    fn speaker_stats_track_message_splits() {
        // One processor ships its low 2 bits in one BCAST(2) turn: before
        // turn 0 the consistent fraction is 1; before turn 1 it is 1/4 in
        // expectation (4 equal parts of the uniform 4-point support).
        let wide = FnWideProtocol::new(1, 2, 2, 2, |_, input, _| input & 0b11);
        let a = ProductInput::uniform(1, 2);
        let cmp = ExactEstimator.estimate(&wide, std::slice::from_ref(&a), &a);
        assert_eq!(cmp.speaker_stats.len(), 2);
        assert!((cmp.speaker_stats[0].mean_fraction - 1.0).abs() < 1e-12);
        assert!((cmp.speaker_stats[1].mean_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn node_budget_formula_is_exact_and_saturating() {
        assert_eq!(wide_walk_nodes(1, 0), 1);
        assert_eq!(wide_walk_nodes(1, 2), 7);
        assert_eq!(wide_walk_nodes(2, 2), 21);
        assert_eq!(wide_walk_nodes(3, 3), 1 + 8 + 64 + 512);
        // The bit-model boundary: horizon 25 is the last accepted depth.
        assert_eq!(wide_walk_nodes(1, 25), (1 << 26) - 1);
        assert_eq!(wide_walk_nodes(1, 26), (1 << 27) - 1);
        // The width-2 boundary sits at horizon 12, not at the old
        // `horizon * width <= 26` line (which would have allowed 13).
        assert!(wide_walk_nodes(2, 12) <= MAX_WIDE_NODES);
        assert!(wide_walk_nodes(2, 13) > MAX_WIDE_NODES);
        // Saturation instead of overflow, even at absurd widths.
        assert_eq!(wide_walk_nodes(16, 64), u64::MAX);
        assert_eq!(wide_walk_nodes(63, 2), u64::MAX);
    }

    #[test]
    fn budget_guard_accepts_the_boundary_walk() {
        // Width 1, horizon 25: exactly 2^26 - 1 potential nodes — the
        // largest accepted walk. The live tree is tiny (the single input
        // bit pins after one turn), so the walk itself is cheap.
        let p = FnWideProtocol::new(1, 1, 1, 25, |_, input, _| input & 1);
        let a = ProductInput::uniform(1, 1);
        let cmp = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &a);
        assert_eq!(cmp.horizon, 25);
        assert!(cmp.tv().abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "beyond the 67108864-node budget")]
    fn budget_guard_panics_past_the_boundary() {
        // Width 1, horizon 26: 2^27 - 1 potential nodes — one turn too
        // deep. The guard must fire before any walking happens.
        let p = FnWideProtocol::new(1, 1, 1, 26, |_, input, _| input & 1);
        let a = ProductInput::uniform(1, 1);
        let _ = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &a);
    }

    #[test]
    #[should_panic(expected = "beyond the 67108864-node budget")]
    fn budget_guard_prices_width_not_just_turns() {
        // horizon * width = 26 — the old guard's acceptance line — but the
        // width-2 tree to depth 13 reaches ~2^26.4 nodes and must refuse.
        let p = FnWideProtocol::new(1, 2, 2, 13, |_, input, _| input & 0b11);
        let a = ProductInput::uniform(1, 2);
        let _ = ExactEstimator.estimate(&p, std::slice::from_ref(&a), &a);
    }

    #[test]
    #[should_panic(expected = "outside 1..=16")]
    fn oversized_width_rejected_up_front() {
        // A hand-rolled protocol lying about its width must hit the
        // validation, not a shift overflow.
        struct Absurd;
        impl WideTurnProtocol for Absurd {
            fn n(&self) -> usize {
                1
            }
            fn input_bits(&self) -> u32 {
                1
            }
            fn width(&self) -> u32 {
                64
            }
            fn horizon(&self) -> u32 {
                1
            }
            fn message(&self, _: usize, input: u64, _: &WideTranscript) -> u64 {
                input
            }
        }
        let a = ProductInput::uniform(1, 1);
        let _ = ExactEstimator.estimate(&Absurd, std::slice::from_ref(&a), &a);
    }

    #[test]
    #[should_panic(expected = "message exceeds 1 bits")]
    fn over_wide_message_is_refused_by_the_walk() {
        // A width-1 protocol answering two bits: the dense bit-plane
        // split would read labels 2 and 3 as 0 and report tv 0, so the
        // walk must check every message against the width itself.
        struct TwoBitsAtWidthOne;
        impl WideTurnProtocol for TwoBitsAtWidthOne {
            fn n(&self) -> usize {
                1
            }
            fn input_bits(&self) -> u32 {
                2
            }
            fn width(&self) -> u32 {
                1
            }
            fn horizon(&self) -> u32 {
                1
            }
            fn message(&self, _: usize, input: u64, _: &WideTranscript) -> u64 {
                input & 3
            }
        }
        let a = ProductInput::uniform(1, 2);
        let _ = ExactEstimator.estimate(&TwoBitsAtWidthOne, std::slice::from_ref(&a), &a);
    }

    /// A width-1 closure answering two bits: `FnWideProtocol` does not
    /// check its closure, so the consumer must.
    fn two_bits_at_width_one() -> impl WideTurnProtocol + Sync {
        FnWideProtocol::new(1, 2, 1, 1, |_, input, _| input & 3)
    }

    #[test]
    #[should_panic(expected = "message exceeds")]
    fn over_wide_message_is_refused_by_the_sampler() {
        // On a one-thread pool the sides are sampled on the calling
        // thread.
        let a = ProductInput::uniform(1, 2);
        let est = crate::exec::AdaptiveEstimator::new(0.0, 64, 64, 1);
        let one_thread = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("build the rayon pool");
        one_thread.install(|| est.estimate(&two_bits_at_width_one(), std::slice::from_ref(&a), &a));
    }

    #[test]
    #[should_panic(expected = "message exceeds")]
    fn over_wide_message_is_refused_by_the_sampler_on_the_default_pool() {
        // On the default pool the sides may be sampled on scoped workers;
        // a worker's panic reaches the caller with its own message.
        let a = ProductInput::uniform(1, 2);
        let est = crate::exec::AdaptiveEstimator::new(0.0, 64, 64, 1);
        let _ = est.estimate(&two_bits_at_width_one(), std::slice::from_ref(&a), &a);
    }

    #[test]
    #[should_panic(expected = "message exceeds")]
    fn over_wide_message_is_refused_by_the_seed_walk() {
        let a = ProductInput::uniform(1, 2);
        let _ = crate::engine::exact_mixture_comparison_reference(
            &two_bits_at_width_one(),
            std::slice::from_ref(&a),
            &a,
        );
    }
}
