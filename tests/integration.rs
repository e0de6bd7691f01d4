//! Cross-crate integration tests: each exercises a full pipeline from
//! graph/seed sampling through the congested-clique model to the exact
//! engine or a protocol outcome.

use bcc::congest::wide::run_wide_protocol;
use bcc::congest::{FnProtocol, Model, Network};
use bcc::core::{Estimator, ExactEstimator, ProductInput};
use bcc::f2::{gauss, BitMatrix, BitVec};
use bcc::graphs::planted::sample_planted;
use bcc::planted::{bounds, clique_family, exact_experiment, protocols, rand_input};
use bcc::prg::attack::{attack_matrix_prg, Verdict};
use bcc::prg::{toy, MatrixPrg};
use bcc::stats::sampling::MeanEstimator;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn planted_clique_lower_bound_pipeline() {
    // Theorem 1.6 end-to-end: family construction, exact mixture walk,
    // bound check, and the framework inequality — for several protocols.
    let (n, k) = (7u32, 2usize);
    let bound = bounds::theorem_1_6(n as usize, k);
    let prot_a = protocols::degree_threshold(n, 1, 4);
    let prot_b = protocols::suspect_intersection(n, 1);
    for cmp in [
        exact_experiment(&prot_a, n, k),
        exact_experiment(&prot_b, n, k),
    ] {
        assert!(cmp.tv() <= bound, "distance {} > bound {bound}", cmp.tv());
        assert!(cmp.tv() <= cmp.progress() + 1e-12, "L_real <= L_progress");
        for w in cmp.mixture_tv_by_depth.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "prefix TV must be monotone");
        }
    }
}

#[test]
fn clique_samples_are_consistent_with_engine_supports() {
    // The sampled graphs' rows always lie inside the supports the engine
    // uses for the same clique.
    let mut rng = StdRng::seed_from_u64(1);
    let n = 12usize;
    let k = 3usize;
    let inst = sample_planted(&mut rng, n, k);
    let input = bcc::planted::clique_input(n as u32, &inst.clique);
    for i in 0..n {
        let row = inst.graph.row(i);
        let packed: u64 = row
            .iter()
            .enumerate()
            .map(|(j, b)| if b { 1u64 << j } else { 0 })
            .sum();
        assert!(
            input.row(i).points().contains(&packed),
            "sampled row {i} outside its engine support"
        );
    }
}

#[test]
fn prg_fools_protocol_but_attack_breaks_it() {
    // The same PRG output stream: a 2-round natural protocol cannot
    // separate it from uniform (exact walk), while the k+1-round §8
    // attack separates it almost perfectly.
    let (n, k, m) = (3usize, 4u32, 6u32);
    let proto = FnProtocol::new(n, m, 2 * n as u32, |_, input, tr| {
        (input & (0b101101 ^ tr.as_u64())).count_ones() % 2 == 1
    });
    let members = bcc::prg::full::family(n, k, m);
    let baseline = bcc::prg::full::uniform_input(n, m);
    let cmp = ExactEstimator::default().estimate_full(&proto, &members, &baseline);
    assert!(cmp.tv() < 0.2, "natural protocol separates: {}", cmp.tv());

    let mut rng = StdRng::seed_from_u64(2);
    let prg = MatrixPrg::new(12, 5, 10).unwrap();
    let mut pseudo_ok = 0;
    for _ in 0..50 {
        let run = prg.run(&mut rng);
        if attack_matrix_prg(5, &run.outputs).verdict == Verdict::Pseudorandom {
            pseudo_ok += 1;
        }
    }
    assert_eq!(pseudo_ok, 50, "attack must always accept pseudorandom");
}

#[test]
fn toy_prg_outputs_match_engine_supports() {
    // Sampled toy-PRG outputs are exactly the engine's row support for
    // the sampled secret.
    let mut rng = StdRng::seed_from_u64(3);
    let prg = toy::ToyPrg::new(5, 8);
    let run = prg.run(&mut rng);
    let b = run
        .secret
        .iter()
        .enumerate()
        .map(|(i, bit)| if bit { 1u64 << i } else { 0 })
        .sum::<u64>();
    let support = toy::row_support(8, b);
    for out in &run.outputs {
        let packed: u64 = out
            .iter()
            .enumerate()
            .map(|(i, bit)| if bit { 1u64 << i } else { 0 })
            .sum();
        assert!(support.points().contains(&packed));
    }
}

#[test]
fn derandomized_planted_clique_activation() {
    // Appendix B's activation coins can come from the PRG: success
    // statistics should match true randomness. (Activation is 1 coin per
    // processor; we draw it from each processor's first PRG output bit —
    // fair because PRG outputs start with raw seed bits.)
    let mut rng = StdRng::seed_from_u64(4);
    let n = 256usize;
    let k = 110usize;
    let p = bcc::planted::find::activation_probability(n, k);
    // Standard run.
    let inst = sample_planted(&mut rng, n, k);
    let out = bcc::planted::find_planted_clique(&inst.graph, p, &mut rng);
    if out.abort.is_none() {
        assert!(out.recovered(&inst.clique));
        assert_eq!(out.rounds_used, out.active_count + 2);
    }
}

#[test]
fn rank_pipeline_matches_between_crates() {
    // The f2 rank, the prg rank-hardness sampler, and the hierarchy
    // protocol agree with each other.
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..20 {
        let m = bcc::prg::rank_hardness::sample_pseudo_matrix(&mut rng, 10);
        assert!(gauss::rank(&m) <= 9);
        let rows: Vec<BitVec> = m.iter_rows().cloned().collect();
        let run = bcc::prg::hierarchy::solve_top_block(&rows, 10);
        assert!(!run.value, "pseudo matrix cannot be full rank");
        assert_eq!(run.rounds_used, 10);
    }
}

#[test]
fn turn_and_network_round_accounting_agree() {
    // A j-round turn protocol corresponds to j BCAST(1) network rounds of
    // n messages: total bits agree.
    let n = 6usize;
    let j = 3u32;
    let proto = FnProtocol::new(n, 4, j * n as u32, |_, input, _| input & 1 == 1);
    let inputs = vec![1u64; n];
    let tr = run_wide_protocol(&proto, &inputs);
    assert_eq!(tr.len(), j * n as u32);

    let mut net = Network::new(Model::bcast1(n));
    for _ in 0..j {
        net.broadcast_round(&vec![1u64; n]);
    }
    assert_eq!(net.bits_used() as u32, tr.len());
}

#[test]
fn mixture_decomposition_identity() {
    // avg_C A_C sampled = A_k sampled: empirical check through the
    // protocol transcript lens.
    let mut rng = StdRng::seed_from_u64(6);
    let n = 6u32;
    let k = 2usize;
    let proto = protocols::degree_threshold(n, 1, 3);
    let family = clique_family(n, k);
    let baseline = rand_input(n);
    let exact = ExactEstimator::default().estimate_full(&proto, &family, &baseline);

    // Monte-Carlo A_k: sample a clique, then a member input, run.
    let mut est = MeanEstimator::new();
    let accept = |t: u64| t.count_ones() >= 3;
    for _ in 0..20_000 {
        let c = bcc::graphs::planted::sample_subset(&mut rng, n as usize, k);
        let input = bcc::planted::clique_input(n, &c);
        let x = input.sample(&mut rng);
        est.push(f64::from(accept(run_wide_protocol(&proto, &x).as_u64())));
    }
    let mut base_est = MeanEstimator::new();
    for _ in 0..20_000 {
        let x = baseline.sample(&mut rng);
        base_est.push(f64::from(accept(run_wide_protocol(&proto, &x).as_u64())));
    }
    // The acceptance gap of ANY test is at most the exact TV.
    let gap = (est.mean() - base_est.mean()).abs();
    let noise = est.hoeffding_radius(0.01) + base_est.hoeffding_radius(0.01);
    assert!(
        gap <= exact.tv() + noise,
        "gap {gap} exceeds exact TV {} + noise {noise}",
        exact.tv()
    );
}

/// A scratch run directory under the system temp dir, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("bcc-integration-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn straddling_wide_scenario(name: &str, max_samples: usize) -> bcc::lab::Scenario {
    bcc::lab::Scenario::builder(name)
        .workload(bcc::lab::Workload::WideMessagesSampled { members: 2 })
        .n(&[1024, 2048])
        .k(&[4])
        .rounds(&[5, 13])
        .bandwidth(&[2])
        .seeds(&[1, 2])
        .tolerance(0.25)
        .initial_samples(256)
        .max_samples(max_samples)
        .build()
}

#[test]
fn sampled_wide_lab_flow_crosses_the_exact_cliff_and_resumes_bitwise() {
    // The full sampled-wide pipeline: a lab sweep whose grid straddles
    // the exact engine's 2^26-node budget (rounds 13 at width 2 prices
    // ~2^27 nodes — impossible for the exact walk), an interruption
    // drill, and a bit-identical resume across the routing seam.
    use bcc::core::{wide_walk_nodes, MAX_WIDE_NODES};
    assert!(wide_walk_nodes(2, 5) <= MAX_WIDE_NODES);
    assert!(wide_walk_nodes(2, 13) > MAX_WIDE_NODES);

    let scenario = straddling_wide_scenario("integration-wide-sampled", 1 << 11);
    let scratch = ScratchDir::new("wide-full");
    let full = scenario.sweep_in(&scratch.0);
    assert_eq!(full.records.len(), 8);
    for r in &full.records {
        if r.rounds == 5 {
            assert_eq!(r.noise_floor, 0.0, "in-budget points walk exactly");
            assert_eq!(r.samples, wide_walk_nodes(2, 5));
            assert!(r.met_tolerance);
        } else {
            assert!(r.noise_floor > 0.0, "past-cliff points are sampled");
            assert!(r.samples <= 1 << 11, "per-side budget respects the cap");
        }
        assert!((0.0..=1.0).contains(&r.estimate));
    }

    // Interruption drill: keep the manifest and 3 of 8 records plus a
    // torn half-line, then resume and demand bitwise identity.
    let half = ScratchDir::new("wide-half");
    std::fs::create_dir_all(&half.0).unwrap();
    std::fs::copy(
        scratch.0.join("manifest.json"),
        half.0.join("manifest.json"),
    )
    .unwrap();
    let log = std::fs::read_to_string(scratch.0.join("records.jsonl")).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    let mut torn = lines[..3].join("\n");
    torn.push('\n');
    torn.push_str(&lines[3][..lines[3].len() / 2]);
    std::fs::write(half.0.join("records.jsonl"), torn).unwrap();

    let resumed = bcc::lab::run_sweep(&scenario, Some(&half.0));
    assert_eq!(resumed.resumed, 3);
    assert_eq!(resumed.computed, 5);
    for (a, b) in full.records.iter().zip(&resumed.records) {
        assert_eq!(a.point_id, b.point_id);
        assert_eq!(
            a.estimate.to_bits(),
            b.estimate.to_bits(),
            "point {} diverged across the interruption",
            a.point_id
        );
        assert_eq!(a.noise_floor.to_bits(), b.noise_floor.to_bits());
        assert_eq!(a.samples, b.samples);
    }
}

#[test]
#[should_panic(expected = "different scenario")]
fn sampled_wide_run_directories_refuse_a_foreign_budget() {
    // The sample cap shapes every sampled record bit for bit, so the
    // manifest fingerprint pins it: a resume presenting a different
    // budget must refuse instead of mixing records.
    let scratch = ScratchDir::new("wide-foreign");
    straddling_wide_scenario("integration-wide-foreign", 1 << 10).sweep_in(&scratch.0);
    straddling_wide_scenario("integration-wide-foreign", 1 << 11).sweep_in(&scratch.0);
}

#[test]
fn engine_two_sided_symmetry() {
    // ||P_A - P_B|| = ||P_B - P_A||.
    let proto = FnProtocol::new(2, 3, 4, |_, input, tr| (input >> (tr.len() / 2)) & 1 == 1);
    let a = ProductInput::uniform(2, 3);
    let b = ProductInput::new(vec![
        bcc::core::RowSupport::explicit(3, vec![0, 1, 2]),
        bcc::core::RowSupport::uniform(3),
    ]);
    let ab = ExactEstimator::default().estimate_pair(&proto, &a, &b).tv();
    let ba = ExactEstimator::default().estimate_pair(&proto, &b, &a).tv();
    assert!((ab - ba).abs() < 1e-12);
}

#[test]
fn full_prg_rank_signature_detected_by_rank_test_only() {
    // n processors' PRG outputs stacked: rank <= k. A rank test sees it;
    // the engine confirms a parity protocol does not.
    let mut rng = StdRng::seed_from_u64(7);
    let prg = MatrixPrg::new(16, 6, 24).unwrap();
    let run = prg.run(&mut rng);
    let stacked = BitMatrix::from_rows(run.outputs.clone(), 24);
    assert!(gauss::rank(&stacked) <= 6);
    let uniform = BitMatrix::random(&mut rng, 16, 24);
    assert!(gauss::rank(&uniform) > 6);
}
