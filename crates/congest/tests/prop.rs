//! Property-based tests for the congested-clique model.

use bcc_congest::wide::{run_wide_protocol, ParityProtocol, WideTranscript, WideTurnProtocol};
use bcc_congest::{FnProtocol, Model, Network};
use bcc_f2::BitVec;
use proptest::prelude::*;

proptest! {
    #[test]
    fn transcript_push_then_read(bits in proptest::collection::vec(any::<bool>(), 0..64)) {
        // A width-1 transcript is the bit transcript: turn t at bit t.
        let mut t = WideTranscript::empty(1);
        for &b in &bits {
            t.push(u64::from(b));
        }
        prop_assert_eq!(t.len() as usize, bits.len());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(t.message(i as u32), u64::from(b));
            prop_assert_eq!((t.as_u64() >> i) & 1, u64::from(b));
        }
        if bits.len() < 64 {
            prop_assert_eq!(t.as_u64() >> bits.len(), 0);
        }
    }

    #[test]
    fn real_input_is_always_consistent(
        inputs in proptest::collection::vec(0u64..16, 3),
        seed in any::<u64>(),
    ) {
        // For any (seeded, deterministic) protocol, the actual inputs are
        // consistent with the transcript they generated: replaying each
        // turn's speaker on the prefix before it gives the recorded
        // message.
        let p = FnProtocol::new(3, 4, 9, move |proc, input, tr| {
            let h = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(input)
                .wrapping_add((proc as u64) << 32)
                .wrapping_add(u64::from(tr.len()) << 40)
                .wrapping_add(tr.as_u64());
            (h >> 17) & 1 == 1
        });
        let t = run_wide_protocol(&p, &inputs);
        let mut prefix = WideTranscript::empty(1);
        for turn in 0..t.len() {
            let speaker = p.speaker(turn);
            prop_assert_eq!(p.message(speaker, inputs[speaker], &prefix), t.message(turn));
            prefix.push(t.message(turn));
        }
    }

    #[test]
    fn consistent_inputs_reproduce_the_transcript(
        inputs in proptest::collection::vec(0u64..8, 2),
        alt in 0u64..8,
    ) {
        // If `alt` is consistent for processor 0, swapping it in yields
        // the same transcript (the defining property of D_p). Put the
        // other way round: the two transcripts can first differ only on
        // a turn processor 0 speaks.
        let p = FnProtocol::new(2, 3, 6, |_, input, tr| {
            (input >> (tr.len() / 2).min(2)) & 1 == 1
        });
        let t = run_wide_protocol(&p, &inputs);
        let t2 = run_wide_protocol(&p, &[alt, inputs[1]]);
        if let Some(first) = (0..t.len()).find(|&turn| t.message(turn) != t2.message(turn)) {
            prop_assert_eq!(p.speaker(first), 0);
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
    fn parity_protocol_messages_are_the_parities_of_its_masks(
        input_bits in 1u32..=63,
        width in 1u32..=16,
        raw_input in any::<u64>(),
        messages in proptest::collection::vec(any::<u64>(), 0..4),
        proc in 0usize..5,
        seed in any::<u64>(),
    ) {
        // Masks may set bits above the input width: they select nothing.
        let mask = move |proc: usize, tr: &WideTranscript, b: u32| {
            let z = seed ^ tr.as_u64().rotate_left(17) ^ ((proc as u64) << 40) ^ u64::from(b);
            z.wrapping_mul(0x9E3779B97F4A7C15)
        };
        let p = ParityProtocol::new(5, input_bits, width, 4, mask);
        let input = raw_input & ((1u64 << input_bits) - 1);
        let mut tr = WideTranscript::empty(width);
        for m in messages {
            tr.push(m & ((1u64 << width) - 1));
        }
        let message = p.message(proc, input, &tr);
        prop_assert!(message >> width == 0);
        for b in 0..width {
            let m = mask(proc, &tr, b);
            prop_assert_eq!(p.parity_mask(proc, &tr, b), Some(m));
            prop_assert_eq!((message >> b) & 1, u64::from((input & m).count_ones() & 1));
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
