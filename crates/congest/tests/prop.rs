//! Property-based tests for the congested-clique model.

use bcc_congest::wide::run_wide_protocol;
use bcc_congest::{
    is_consistent, run_turn_protocol, FnProtocol, Model, Network, TurnProtocol, TurnTranscript,
};
use bcc_core::wide_prefix_key;
use bcc_f2::BitVec;
use proptest::prelude::*;

proptest! {
    #[test]
    fn width_one_view_runs_bitwise_as_the_bit_protocol(
        n in 1usize..5,
        bits in 1u32..8,
        horizon in 0u32..=64,
        seed in any::<u64>(),
        raw in proptest::collection::vec(any::<u64>(), 4),
    ) {
        // A random bit protocol: each turn's bit hashes everything the
        // speaker may look at.
        let p = FnProtocol::new(n, bits, horizon, move |proc, input, tr| {
            let h = (seed
                ^ input
                ^ ((proc as u64) << 32)
                ^ (u64::from(tr.len()) << 40)
                ^ tr.as_u64().rotate_left(7))
            .wrapping_mul(0x9E3779B97F4A7C15);
            (h >> 40) & 1 == 1
        });
        let inputs: Vec<u64> = raw[..n].iter().map(|x| x & ((1 << bits) - 1)).collect();
        let bit = run_turn_protocol(&p, &inputs);
        let wide = run_wide_protocol(&p.as_wide(), &inputs);
        prop_assert_eq!(wide.as_u64(), bit.as_u64());
        prop_assert_eq!(wide.len(), bit.len());
        prop_assert_eq!(wide.as_bits(), bit);
        // The samplers' key of the view is the bit model's bit reversal.
        prop_assert_eq!(wide_prefix_key(&wide), bit.as_u64().reverse_bits());
    }

    #[test]
    fn transcript_push_then_read(bits in proptest::collection::vec(any::<bool>(), 0..64)) {
        let mut t = TurnTranscript::empty();
        for &b in &bits {
            t.push(b);
        }
        prop_assert_eq!(t.len() as usize, bits.len());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(t.bit(i as u32), b);
        }
        // Round-trip through the packed form.
        let back = TurnTranscript::from_bits(t.as_u64(), t.len());
        prop_assert_eq!(back, t);
    }

    #[test]
    fn prefix_is_idempotent(bits in proptest::collection::vec(any::<bool>(), 0..40), cut in 0u32..40) {
        let mut t = TurnTranscript::empty();
        for &b in &bits {
            t.push(b);
        }
        let cut = cut.min(t.len());
        let p = t.prefix(cut);
        prop_assert_eq!(p.prefix(cut), p);
        for i in 0..cut {
            prop_assert_eq!(p.bit(i), t.bit(i));
        }
    }

    #[test]
    fn real_input_is_always_consistent(
        inputs in proptest::collection::vec(0u64..16, 3),
        seed in any::<u64>(),
    ) {
        // For any (seeded, deterministic) protocol, the actual inputs are
        // consistent with the transcript they generated.
        let p = FnProtocol::new(3, 4, 9, move |proc, input, tr| {
            let h = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(input)
                .wrapping_add((proc as u64) << 32)
                .wrapping_add(u64::from(tr.len()) << 40)
                .wrapping_add(tr.as_u64());
            (h >> 17) & 1 == 1
        });
        let t = run_turn_protocol(&p, &inputs);
        for (proc, &input) in inputs.iter().enumerate() {
            prop_assert!(is_consistent(&p, proc, input, &t));
        }
    }

    #[test]
    fn consistent_inputs_reproduce_the_transcript(
        inputs in proptest::collection::vec(0u64..8, 2),
        alt in 0u64..8,
    ) {
        // If `alt` is consistent for processor 0, swapping it in yields
        // the same transcript (the defining property of D_p).
        let p = FnProtocol::new(2, 3, 6, |_, input, tr| {
            (input >> (tr.len() / 2).min(2)) & 1 == 1
        });
        let t = run_turn_protocol(&p, &inputs);
        if is_consistent(&p, 0, alt, &t) {
            let t2 = run_turn_protocol(&p, &[alt, inputs[1]]);
            prop_assert_eq!(t2, t);
        }
    }

    #[test]
    fn broadcast_bits_roundtrip(
        payload_len in 1usize..40,
        width in 1u32..=8,
        n in 1usize..5,
        seed in any::<u64>(),
        schedule in proptest::collection::vec((any::<bool>(), 1usize..40), 0..10),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut random_payloads = |len: usize| -> Vec<BitVec> {
            (0..n)
                .map(|_| (0..len).map(|_| rng.gen::<bool>()).collect())
                .collect()
        };
        let payloads = random_payloads(payload_len);
        let mut net = Network::new(Model::new(n, width));
        let rounds = net.broadcast_bits(&payloads);
        prop_assert_eq!(rounds, payload_len.div_ceil(width as usize));
        prop_assert_eq!(net.collect_bits(rounds, payload_len), payloads);

        // Random interleavings of single rounds and bulk payloads, checked
        // against a per-round reference model: `model[r][i]` is the
        // message processor i sent in round r.
        let w = width as usize;
        let mut net = Network::new(Model::new(n, width));
        let mut model: Vec<Vec<u64>> = Vec::new();
        let mut message_rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for &(bulk, len) in &schedule {
            if bulk {
                // Leave the last round part-filled whenever the width allows.
                let len = if w > 1 && len % w == 0 { len + 1 } else { len };
                let payloads = random_payloads(len);
                let rounds = net.broadcast_bits(&payloads);
                prop_assert_eq!(rounds, len.div_ceil(w));
                for r in 0..rounds {
                    model.push(
                        payloads
                            .iter()
                            .map(|p| {
                                (0..w)
                                    .filter(|&b| r * w + b < len && p.get(r * w + b))
                                    .map(|b| 1u64 << b)
                                    .sum()
                            })
                            .collect(),
                    );
                }
                prop_assert_eq!(net.collect_bits(rounds, len), payloads);
            } else {
                let messages: Vec<u64> = (0..n)
                    .map(|_| message_rng.gen::<u64>() & ((1u64 << width) - 1))
                    .collect();
                prop_assert_eq!(net.broadcast_round(&messages), &messages[..]);
                model.push(messages);
            }
            prop_assert_eq!(net.rounds_used(), model.len());
            prop_assert_eq!(net.bits_used(), model.len() * n * w);
        }
        let log = net.log();
        for (r, round) in model.iter().enumerate() {
            prop_assert_eq!(&log.round(r), round);
            for (i, &m) in round.iter().enumerate() {
                prop_assert_eq!(log.message(r, i), m);
            }
        }
        let model_bits = |i: usize, from: usize| -> BitVec {
            model[from..]
                .iter()
                .flat_map(|round| (0..w).map(move |b| (round[i] >> b) & 1 == 1))
                .collect()
        };
        for i in 0..n {
            let sent: Vec<u64> = model.iter().map(|round| round[i]).collect();
            prop_assert_eq!(log.by_processor(i), sent);
            prop_assert_eq!(log.bits_by_processor(i), &model_bits(i, 0));
        }
        // collect_bits over every suffix of the log, full and truncated.
        for suffix in 0..=model.len() {
            for bits in [suffix * w, (suffix * w).saturating_sub(w - 1)] {
                let expected: Vec<BitVec> = (0..n)
                    .map(|i| model_bits(i, model.len() - suffix).slice(0, bits))
                    .collect();
                prop_assert_eq!(net.collect_bits(suffix, bits), expected);
            }
        }
    }

    #[test]
    fn rounds_for_bits_is_exact_ceil(bits in 0usize..1000, width in 1u32..32) {
        let m = Model::new(4, width);
        let r = m.rounds_for_bits(bits);
        prop_assert!(r * width as usize >= bits);
        prop_assert!(r == 0 || ((r - 1) * (width as usize)) < bits);
    }
}
