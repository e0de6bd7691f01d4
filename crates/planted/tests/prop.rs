//! Property-based tests for the planted-clique crate.

use bcc_congest::wide::run_wide_protocol;
use bcc_graphs::clique::is_directed_clique;
use bcc_graphs::planted::{row_subcube, sample_planted};
use bcc_planted::lemmas::{lemma_1_10_mean, lemma_4_4_mean};
use bcc_planted::protocols::suspect_intersection;
use bcc_planted::{bounds, clique_input, rand_input};
use bcc_stats::TruthTable;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planted_instances_contain_directed_cliques(
        n in 4usize..40,
        frac in 0.2f64..0.9,
        seed in any::<u64>(),
    ) {
        let k = ((n as f64 * frac) as usize).clamp(2, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = sample_planted(&mut rng, n, k);
        prop_assert_eq!(inst.clique.len(), k);
        prop_assert!(is_directed_clique(&inst.graph, &inst.clique));
    }

    #[test]
    fn row_subcube_counts(n in 2u32..16, i in 0usize..16, seed in any::<u64>()) {
        prop_assume!((i as u32) < n);
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 2 + (seed as usize % 3).min(n as usize - 2);
        let clique = bcc_graphs::planted::sample_subset(&mut rng, n as usize, k);
        let cube = row_subcube(n, i, &clique);
        // Free coordinates: n - 1 (diagonal) - (k-1 if i in clique else 0).
        let expected = if clique.contains(&i) {
            n - k as u32
        } else {
            n - 1
        };
        prop_assert_eq!(cube.free_count(), expected);
    }

    #[test]
    fn lemma_1_10_holds_for_random_functions(n in 4u32..14, seed in any::<u64>()) {
        let f = TruthTable::random(&mut StdRng::seed_from_u64(seed), n);
        prop_assert!(lemma_1_10_mean(&f) <= bounds::lemma_1_10(n as usize));
    }

    #[test]
    fn lemma_4_4_holds_on_arbitrary_large_domains(
        n in 6u32..12,
        seed in any::<u64>(),
        keep in 0.4f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain: Vec<u64> = (0..(1u64 << n))
            .filter(|_| rand::Rng::gen::<f64>(&mut rng) < keep)
            .collect();
        prop_assume!(domain.len() >= 1 << (n - 1)); // t <= 1
        let f = TruthTable::random(&mut rng, n);
        let got = lemma_4_4_mean(&f, &domain);
        prop_assert!(got <= bounds::lemma_4_4(n as usize, 1));
    }

    #[test]
    fn engine_inputs_match_graph_samples(n in 4u32..12, seed in any::<u64>()) {
        // Any sampled A_C graph row is in the corresponding engine support.
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 2;
        let inst = sample_planted(&mut rng, n as usize, k);
        let input = clique_input(n, &inst.clique);
        for i in 0..n as usize {
            let packed: u64 = inst
                .graph
                .row(i)
                .iter_ones()
                .map(|j| 1u64 << j)
                .sum();
            prop_assert!(input.row(i).points().contains(&packed));
        }
    }

    #[test]
    fn transcripts_under_rand_input_are_valid(n in 2u32..8, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let proto = suspect_intersection(n, 2);
        let input = rand_input(n);
        let x = input.sample(&mut rng);
        let t = run_wide_protocol(&proto, &x);
        prop_assert_eq!(t.len(), 2 * n);
    }

    #[test]
    fn theorem_bounds_are_monotone(n in 16usize..4096, k in 1usize..8, j in 1usize..5) {
        prop_assert!(bounds::theorem_1_6(n, k + 1) > bounds::theorem_1_6(n, k));
        prop_assert!(bounds::theorem_4_1(n, k, j + 1) > bounds::theorem_4_1(n, k, j));
        prop_assert!(bounds::theorem_1_6(4 * n, k) < bounds::theorem_1_6(n, k));
    }
}
