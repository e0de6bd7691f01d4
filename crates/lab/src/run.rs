//! Executing one scenario point: the bridge from a declarative
//! [`Workload`] to the estimator backends.
//!
//! Every workload follows the same adaptive-precision discipline: run a
//! seeded batch, read off an estimate and an uncertainty half-width, and
//! grow the budget (at least doubling) until the half-width meets the
//! scenario's tolerance or the hard cap binds. Distance workloads
//! delegate that loop to [`bcc_core::AdaptiveEstimator`]; the others use
//! the same doubling locally. Because batches share one seed root,
//! growing the budget reproduces the earlier draws and extends them (the
//! planted-clique finder continues one trial stream rather than
//! re-running it), so the final record is exactly the one-shot run at the
//! final budget — which is what makes interrupted sweeps resumable
//! bit-for-bit (timing workloads excepted: wall clocks are not
//! replayable). The exact workload ([`Workload::WideMessages`])
//! short-circuits the discipline: its noise floor is 0, so one batch
//! always meets the tolerance, and its recorded budget is the walk's
//! reachable-node bound.

// bcc-lint: allow(no-wall-clock-in-work-paths, reason = "wall_ms is a reporting-only record field; estimates never depend on it")
use std::time::Instant;

use bcc_congest::wide::{ParityProtocol, WideTurnProtocol};
use bcc_congest::FnProtocol;
use bcc_core::{
    derive_seed, wide_walk_nodes, AdaptiveEstimator, Estimator, ExactEstimator, ProductInput,
    MAX_WIDE_NODES,
};
use bcc_f2::{BitMatrix, BitVec};
use bcc_planted::find::{activation_probability, FindTally};
use bcc_prg::toy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scenario::{Precision, Scenario, ScenarioPoint, Workload};

/// The persisted outcome of one scenario point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// The point's index in the grid's canonical enumeration.
    pub point_id: usize,
    /// The point's `n` coordinate.
    pub n: usize,
    /// The point's `k` coordinate.
    pub k: u32,
    /// The point's `rounds` coordinate.
    pub rounds: u32,
    /// The point's `bandwidth` coordinate.
    pub bandwidth: u32,
    /// The point's replication seed.
    pub seed: u64,
    /// The workload's headline estimate (transcript TV, success rate, or
    /// output Mbit/s).
    pub estimate: f64,
    /// The uncertainty half-width of the estimate (the sampled noise
    /// floor, a success-rate half-width, or a relative standard error).
    pub noise_floor: f64,
    /// The budget the adaptive layer settled on (samples per side,
    /// trials, or timed repetitions).
    pub samples: u64,
    /// Whether the scenario's tolerance was met — at the full horizon by
    /// default, or at the deepest resolvable depth under
    /// [`Precision::truncated_target`] (`false` means the cap stopped
    /// the growth first).
    pub met_tolerance: bool,
    /// The deepest transcript depth whose noise floor met the tolerance
    /// ([`bcc_core::DepthProfile::resolved_horizon`]). Populated only
    /// when the scenario's truncated-depth target is on (legacy records
    /// stay byte-identical); `0` otherwise.
    pub resolved_horizon: u32,
    /// The per-depth noise floors, encoded by [`encode_depth_floors`]
    /// (dash-separated `f64::to_bits` hex — bitwise-exact round trips).
    /// Empty unless the scenario's truncated-depth target is on and the
    /// point took a sampled route.
    pub depth_floors: String,
    /// Wall-clock spent on the point, in milliseconds. Never replayed on
    /// resume.
    pub wall_ms: f64,
}

impl PointRecord {
    /// Whether the recorded parameters are the grid point `point`.
    pub fn matches(&self, point: &ScenarioPoint) -> bool {
        self.n == point.n
            && self.k == point.k
            && self.rounds == point.rounds
            && self.bandwidth == point.bandwidth
            && self.seed == point.seed
    }
}

/// The estimate half of a record, before params and wall-clock attach.
struct Outcome {
    estimate: f64,
    noise_floor: f64,
    samples: u64,
    met_tolerance: bool,
    resolved_horizon: u32,
    depth_floors: String,
}

impl Outcome {
    /// An outcome with no depth-resolved statistics attached (exact
    /// walks, non-distance workloads, and legacy full-horizon targets).
    fn flat(estimate: f64, noise_floor: f64, samples: u64, met_tolerance: bool) -> Outcome {
        Outcome {
            estimate,
            noise_floor,
            samples,
            met_tolerance,
            resolved_horizon: 0,
            depth_floors: String::new(),
        }
    }
}

/// Encodes per-depth noise floors as dash-separated 16-digit hex
/// `f64::to_bits` — bitwise-exact, and persisted as one plain string
/// field of the record.
pub fn encode_depth_floors(floors: &[f64]) -> String {
    let cells: Vec<String> = floors
        .iter()
        .map(|f| format!("{:016x}", f.to_bits()))
        .collect();
    cells.join("-")
}

/// Decodes [`encode_depth_floors`] output. `None` on anything the
/// encoder never writes: every cell must be exactly 16 lowercase hex
/// digits. An empty string is the empty vector (no floors recorded).
pub fn decode_depth_floors(encoded: &str) -> Option<Vec<f64>> {
    if encoded.is_empty() {
        return Some(Vec::new());
    }
    encoded
        .split('-')
        .map(|cell| {
            let hex = |b: u8| matches!(b, b'0'..=b'9' | b'a'..=b'f');
            if cell.len() != 16 || !cell.bytes().all(hex) {
                return None;
            }
            u64::from_str_radix(cell, 16).ok().map(f64::from_bits)
        })
        .collect()
}

/// Runs one grid point of `scenario` and stamps the record.
pub fn run_point(scenario: &Scenario, point_id: usize, point: &ScenarioPoint) -> PointRecord {
    // bcc-lint: allow(no-wall-clock-in-work-paths, reason = "stamps wall_ms on the record; excluded from fingerprints and resume comparison")
    let start = Instant::now();
    let precision = scenario.precision();
    let outcome = match scenario.workload() {
        Workload::RankDistance { members } => rank_distance(point, members, &precision),
        Workload::FindClique => find_clique(point, &precision),
        Workload::PrgThroughput => prg_throughput(point, &precision),
        Workload::WideMessages { members } => wide_messages(point, members, &precision),
        Workload::WideMessagesSampled { members } => {
            wide_messages_sampled(point, members, &precision)
        }
    };
    PointRecord {
        point_id,
        n: point.n,
        k: point.k,
        rounds: point.rounds,
        bandwidth: point.bandwidth,
        seed: point.seed,
        estimate: outcome.estimate,
        noise_floor: outcome.noise_floor,
        samples: outcome.samples,
        met_tolerance: outcome.met_tolerance,
        resolved_horizon: outcome.resolved_horizon,
        depth_floors: outcome.depth_floors,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// The toy-PRG coset family against uniform on `n_speak` rows: up to
/// `members` distinct `k`-bit secrets (clamped to the `2^k` possible)
/// drawn from the point's own stream `stream`, one
/// `toy::pseudo_input` per secret, and the uniform baseline.
fn coset_family(
    point: &ScenarioPoint,
    members: usize,
    n_speak: usize,
    stream: u64,
) -> (Vec<ProductInput>, ProductInput) {
    let k = point.k;
    let mut rng = StdRng::seed_from_u64(derive_seed(point.stream_root(), stream));
    let secret_space = 1u64 << k;
    let want = members.min(secret_space as usize);
    let mut secrets: Vec<u64> = Vec::with_capacity(want);
    while secrets.len() < want {
        let b = rng.gen::<u64>() & (secret_space - 1);
        if !secrets.contains(&b) {
            secrets.push(b);
        }
    }
    let family = secrets
        .iter()
        .map(|&b| toy::pseudo_input(n_speak, k, b))
        .collect();
    (family, toy::uniform_input(n_speak, k))
}

/// The family's transcript distance to the baseline over the protocol's
/// full horizon, from the adaptive sampler seeded with `seed`, under the
/// scenario's precision.
///
/// The depth-resolved half of the outcome — the resolved horizon at the
/// scenario tolerance plus the encoded per-depth floors — is attached
/// only when the truncated-depth target is on: legacy scenarios must
/// keep producing byte-identical records.
fn sampled_distance<P: WideTurnProtocol + Sync + ?Sized>(
    protocol: &P,
    family: &[ProductInput],
    baseline: &ProductInput,
    seed: u64,
    precision: &Precision,
) -> Outcome {
    let mut estimator = AdaptiveEstimator::new(
        precision.tolerance,
        precision.initial_samples,
        precision.max_samples,
        seed,
    );
    if precision.truncated_target {
        estimator = estimator.with_truncated_target();
    }
    let (profile, report) = estimator.estimate_with_report(protocol, family, baseline);
    let mut outcome = Outcome::flat(
        profile.tv(),
        profile.noise_floor(),
        report.samples_per_side as u64,
        report.met_tolerance,
    );
    if precision.truncated_target {
        let floors: Vec<f64> = (0..=profile.horizon)
            .map(|t| profile.noise_floor_at(t))
            .collect();
        outcome.resolved_horizon = profile.resolved_horizon(precision.tolerance);
        outcome.depth_floors = encode_depth_floors(&floors);
    }
    outcome
}

/// The toy-PRG coset family vs uniform under a transcript-dependent
/// parity protocol.
///
/// The transcript law of a *product* input depends only on the speaking
/// processors' rows (a turn bit is a function of the speaker's own input
/// and the transcript so far), so only `min(n, turns)` rows are
/// materialized; the logical `n` still enters through the protocol's bit
/// functions. That is what makes points at `n` in the thousands cost the
/// same as points at `n = 64`.
fn rank_distance(point: &ScenarioPoint, members: usize, precision: &Precision) -> Outcome {
    let (protocol, family, baseline) = rank_setup(point, members);
    let seed = derive_seed(point.stream_root(), 2);
    sampled_distance(&protocol, &family, &baseline, seed, precision)
}

/// [`rank_distance`]'s parity protocol, coset family and uniform
/// baseline, all derived from the point's own streams.
fn rank_setup(
    point: &ScenarioPoint,
    members: usize,
) -> (
    impl WideTurnProtocol + Sync,
    Vec<ProductInput>,
    ProductInput,
) {
    let turns = point.rounds * point.bandwidth;
    let k = point.k;
    let n_speak = point.n.min(turns as usize).max(1);
    let n_logical = point.n as u64;
    let protocol = FnProtocol::new(n_speak, k + 1, turns, move |proc, input, tr| {
        let mask =
            (0x9D ^ n_logical ^ tr.as_u64() ^ ((proc as u64) << 1)) & ((1u64 << (k + 1)) - 1);
        (input & mask).count_ones() % 2 == 1
    });
    let (family, baseline) = coset_family(point, members, n_speak, 1);
    (protocol, family, baseline)
}

/// The toy-PRG coset family vs uniform under a `w`-bit masked-parity
/// protocol, walked **exactly** by the engine.
///
/// Each turn the speaker ships `bandwidth` transcript-dependent masked
/// parities of its `(k+1)`-bit input as one message, so one wide turn is
/// worth `w` single-bit turns of revelation. The walk is exact: the
/// estimate is the true mixture TV, the noise floor is 0, and the
/// recorded budget is the reachable-node bound the engine's guard prices
/// (live nodes are typically far fewer). Exact results are trivially
/// deterministic, which keeps sweep resume bit-for-bit.
///
/// The same row-materialization trick as [`rank_distance`] applies: only
/// `min(n, rounds)` rows exist (shared, via `ProductInput::repeated`
/// inside `toy::pseudo_input`), while the logical `n` parameterizes the
/// message masks.
fn wide_messages(point: &ScenarioPoint, members: usize, precision: &Precision) -> Outcome {
    let (protocol, family, baseline) = wide_setup(point, members);
    let profile = ExactEstimator.estimate(&protocol, &family, &baseline);
    Outcome::flat(
        profile.tv(),
        profile.noise_floor(),
        wide_walk_nodes(point.bandwidth, point.rounds),
        profile.noise_floor() <= precision.tolerance,
    )
}

/// The shared declarative half of the wide-message workloads: the masked
/// `w`-bit parity protocol plus the point's coset family and uniform
/// baseline, all derived from the point's own streams. Exact and sampled
/// routes consume identical setups, which is what makes the in-budget
/// cells of a [`Workload::WideMessagesSampled`] grid directly
/// cross-checkable against [`Workload::WideMessages`] records.
fn wide_setup(
    point: &ScenarioPoint,
    members: usize,
) -> (
    impl WideTurnProtocol + Sync,
    Vec<ProductInput>,
    ProductInput,
) {
    let w = point.bandwidth;
    let rounds = point.rounds;
    let k = point.k;
    let n_speak = point.n.min(rounds as usize).max(1);
    let n_logical = point.n as u64;
    // Each message bit is a transcript-dependent masked parity; the
    // forced `1 << k` keeps the PRG's correlated output bit in every
    // parity, so the walk probes the coset structure rather than the
    // (uniform) seed bits alone.
    let protocol = ParityProtocol::new(n_speak, k + 1, w, rounds, move |proc, tr, b| {
        ((0x9D ^ n_logical ^ (tr.as_u64() << 1) ^ ((proc as u64) << 1) ^ (u64::from(b) << 7))
            & ((1u64 << (k + 1)) - 1))
            | (1 << k)
    });
    let (family, baseline) = coset_family(point, members, n_speak, 5);
    (protocol, family, baseline)
}

/// [`wide_messages`] past the exact cliff: the identical protocol family,
/// with the backend routed per point — the exact wide walk when the
/// complete tree fits [`bcc_core::MAX_WIDE_NODES`], the adaptive wide
/// sampler ([`sampled_distance`]: per-side derived ChaCha streams,
/// incremental batches) exactly when it does not. The sweep's
/// `lab.route_exact` / `lab.route_sampled` counters say which.
///
/// Sampled records report the estimator's honest `noise_floor()` —
/// clamped to the TV bound 1 — for deep wide horizons the transcript
/// support can exceed any sample budget, so under the default
/// full-horizon target the floor may stay above the tolerance and the
/// record then says `met_tolerance = false` at the cap rather than
/// overstating its precision. Under [`Precision::truncated_target`] the
/// point instead meets the tolerance at the deepest resolvable depth,
/// recording that depth as `resolved_horizon` along with every depth's
/// floor. Both routes are bitwise-deterministic from the point's
/// coordinates, so resume semantics are unchanged.
fn wide_messages_sampled(point: &ScenarioPoint, members: usize, precision: &Precision) -> Outcome {
    let exact = wide_walk_nodes(point.bandwidth, point.rounds) <= MAX_WIDE_NODES;
    if let Some(obs) = bcc_obs::current() {
        let route = if exact {
            "lab.route_exact"
        } else {
            "lab.route_sampled"
        };
        obs.add(route, 1);
    }
    if exact {
        let mut outcome = wide_messages(point, members, precision);
        if precision.truncated_target {
            // The exact walk resolves every depth (floor 0 everywhere);
            // no per-depth floors are worth persisting.
            outcome.resolved_horizon = point.rounds;
        }
        return outcome;
    }
    let (protocol, family, baseline) = wide_setup(point, members);
    let seed = derive_seed(point.stream_root(), 6);
    sampled_distance(&protocol, &family, &baseline, seed, precision)
}

/// Success rate of the Appendix B finder, with trials grown until the
/// smoothed Wald half-width `sqrt(p̃(1−p̃)/t)`, `p̃ = (s+1)/(t+2)`, meets
/// the tolerance.
fn find_clique(point: &ScenarioPoint, precision: &Precision) -> Outcome {
    let n = point.n;
    let k = point.k as usize;
    let p = activation_probability(n, k);
    // One stream for every budget: a larger budget extends the smaller
    // one's tally with the next trials of the stream instead of replaying
    // it, so no trial is drawn twice and the final result is the one-shot
    // run at the final budget.
    let mut rng = StdRng::seed_from_u64(derive_seed(point.stream_root(), 3));
    let mut tally = FindTally::default();
    let mut trials = precision.initial_samples.min(precision.max_samples);
    loop {
        tally.extend(n, k, p, trials - tally.trials(), &mut rng);
        let successes = tally.successes() as f64;
        let smoothed = (successes + 1.0) / (trials as f64 + 2.0);
        let half_width = (smoothed * (1.0 - smoothed) / trials as f64).sqrt();
        let met = half_width <= precision.tolerance;
        if met || trials >= precision.max_samples {
            let success_rate = tally.stats().success_rate;
            return Outcome::flat(success_rate, half_width, trials as u64, met);
        }
        trials = trials.saturating_mul(2).min(precision.max_samples);
    }
}

/// `xᵀM` expansion throughput in output Mbit/s, with repetitions grown
/// until the relative standard error across timing chunks meets the
/// tolerance.
fn prg_throughput(point: &ScenarioPoint, precision: &Precision) -> Outcome {
    const CHUNKS: usize = 8;
    let k = point.k as usize;
    let m = point.n;
    let out_bits = (m - k) as f64;
    let mut rng = StdRng::seed_from_u64(derive_seed(point.stream_root(), 4));
    let matrix = BitMatrix::random(&mut rng, k, m - k);
    let seeds: Vec<BitVec> = (0..64).map(|_| BitVec::random(&mut rng, k)).collect();

    // Warm-up pass (untimed), also defeats dead-code elimination below.
    let mut sink = 0usize;
    for s in &seeds {
        sink += matrix.left_mul_vec(s).count_ones();
    }

    let cap = precision.max_samples;
    let mut reps = precision.initial_samples.min(cap);
    loop {
        // Small budgets get fewer (or single) chunks so `timed` never
        // exceeds the cap; a single chunk has no spread, leaving the
        // stderr infinite (the tolerance then cannot be met — correct:
        // one timing gives no uncertainty information).
        let chunks = reps.min(CHUNKS);
        let per_chunk = reps / chunks;
        let mut chunk_rates = vec![0.0f64; chunks];
        let mut total_secs = 0.0f64;
        for (chunk, rate) in chunk_rates.iter_mut().enumerate() {
            // bcc-lint: allow(no-wall-clock-in-work-paths, reason = "PrgThroughput measures elements/sec; timing is the workload's output, not hidden state")
            let start = Instant::now();
            for r in 0..per_chunk {
                let s = &seeds[(chunk * per_chunk + r) % seeds.len()];
                sink += matrix.left_mul_vec(s).count_ones();
            }
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            total_secs += secs;
            *rate = per_chunk as f64 * out_bits / secs;
        }
        let mean = chunk_rates.iter().sum::<f64>() / chunks as f64;
        let rel_stderr = if chunks < 2 {
            f64::INFINITY
        } else {
            let var = chunk_rates
                .iter()
                .map(|r| (r - mean) * (r - mean))
                .sum::<f64>()
                / (chunks - 1) as f64;
            (var / chunks as f64).sqrt() / mean.max(1e-9)
        };
        let met = rel_stderr <= precision.tolerance;
        let timed = per_chunk * chunks;
        if met || reps >= cap {
            std::hint::black_box(sink);
            return Outcome::flat(
                timed as f64 * out_bits / total_secs / 1e6,
                rel_stderr,
                timed as u64,
                met,
            );
        }
        reps = reps.saturating_mul(2).min(cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn point(n: usize, k: u32, rounds: u32, seed: u64) -> ScenarioPoint {
        ScenarioPoint {
            n,
            k,
            rounds,
            bandwidth: 1,
            seed,
        }
    }

    #[test]
    fn rank_distance_is_deterministic_and_meets_tolerance() {
        let scenario = Scenario::builder("t")
            .workload(Workload::RankDistance { members: 2 })
            .n(&[2048])
            .k(&[4])
            .rounds(&[8])
            .tolerance(0.3)
            .initial_samples(256)
            .max_samples(1 << 15)
            .build();
        let p = point(2048, 4, 8, 7);
        let a = run_point(&scenario, 0, &p);
        let b = run_point(&scenario, 0, &p);
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.noise_floor.to_bits(), b.noise_floor.to_bits());
        assert_eq!(a.samples, b.samples);
        assert!(
            a.met_tolerance,
            "floor {} at {} samples",
            a.noise_floor, a.samples
        );
        assert!(a.noise_floor <= 0.3);
        assert!((0.0..=1.0).contains(&a.estimate));
    }

    /// Every record of the e2e `rank_sampled` shape and precision at
    /// seed 1, on the grid's `rounds` cells, lies within its noise floor
    /// of the exact walk on the same family. The plug-in estimate's
    /// upward bias is largest at k >= 6, where the transcript support
    /// outgrows the sample budget.
    fn assert_rank_records_within_floor_of_exact(rounds: &[u32]) {
        let scenario = Scenario::builder("t")
            .workload(Workload::RankDistance { members: 4 })
            .n(&[1024, 4096])
            .k(&[4, 6, 8, 10])
            .rounds(rounds)
            .seeds(&[1])
            .tolerance(0.2)
            .initial_samples(4096)
            .max_samples(1 << 17)
            .build();
        for (id, p) in scenario.grid().points().iter().enumerate() {
            let record = run_point(&scenario, id, p);
            let (protocol, family, baseline) = rank_setup(p, 4);
            let exact = ExactEstimator.estimate(&protocol, &family, &baseline).tv();
            assert!(
                (record.estimate - exact).abs() <= record.noise_floor,
                "{p:?}: sampled {} vs exact {exact}, floor {}",
                record.estimate,
                record.noise_floor
            );
        }
    }

    #[test]
    fn rank_distance_records_lie_within_their_floor_of_the_exact_walk() {
        assert_rank_records_within_floor_of_exact(&[8, 10]);
    }

    #[test]
    fn twelve_round_rank_distance_records_lie_within_their_floor_of_the_exact_walk() {
        // The grid's deepest cells, in their own test so the two halves
        // of the 24-cell grid run side by side.
        assert_rank_records_within_floor_of_exact(&[12]);
    }

    #[test]
    fn rank_distance_records_cap_when_tolerance_unreachable() {
        let scenario = Scenario::builder("t")
            .workload(Workload::RankDistance { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[12])
            .tolerance(1e-9)
            .initial_samples(64)
            .max_samples(256)
            .build();
        let rec = run_point(&scenario, 0, &point(1024, 4, 12, 1));
        assert!(!rec.met_tolerance);
        assert_eq!(rec.samples, 256);
        assert!(rec.noise_floor > 1e-9);
    }

    #[test]
    fn wide_messages_is_exact_deterministic_and_in_range() {
        let scenario = Scenario::builder("t")
            .workload(Workload::WideMessages { members: 3 })
            .n(&[2048])
            .k(&[4])
            .rounds(&[6])
            .bandwidth(&[2])
            .tolerance(0.25)
            .build();
        let p = ScenarioPoint {
            n: 2048,
            k: 4,
            rounds: 6,
            bandwidth: 2,
            seed: 9,
        };
        let a = run_point(&scenario, 0, &p);
        let b = run_point(&scenario, 0, &p);
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert!((0.0..=1.0).contains(&a.estimate));
        // Exact walk: zero uncertainty, tolerance trivially met, and the
        // recorded budget is the engine's reachable-node bound.
        assert_eq!(a.noise_floor, 0.0);
        assert!(a.met_tolerance);
        assert_eq!(a.samples, bcc_core::wide_walk_nodes(2, 6));
    }

    #[test]
    fn wide_messages_runs_at_every_width_and_finds_signal() {
        // The workload must execute across the width axis (including the
        // degenerate w = 1), and the forced output-bit parity must extract
        // a nonzero exact distance from the coset family.
        let run_width = |bandwidth: u32| {
            let scenario = Scenario::builder("t")
                .workload(Workload::WideMessages { members: 2 })
                .n(&[1024])
                .k(&[4])
                .rounds(&[6])
                .bandwidth(&[bandwidth])
                .build();
            let p = ScenarioPoint {
                n: 1024,
                k: 4,
                rounds: 6,
                bandwidth,
                seed: 3,
            };
            run_point(&scenario, 0, &p)
        };
        let mut signal = 0.0f64;
        for w in [1, 2, 3] {
            let rec = run_width(w);
            assert!((0.0..=1.0).contains(&rec.estimate), "width {w}");
            assert_eq!(rec.noise_floor, 0.0, "width {w}");
            if w == 2 {
                signal = rec.estimate;
            }
        }
        assert!(
            signal > 0.0,
            "masked output-bit parities must distinguish the coset family"
        );
    }

    #[test]
    fn wide_sampled_routes_exact_inside_the_budget_and_samples_beyond() {
        let scenario = Scenario::builder("t")
            .workload(Workload::WideMessagesSampled { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[5, 14])
            .bandwidth(&[2])
            .tolerance(0.25)
            .initial_samples(256)
            .max_samples(1 << 12)
            .build();
        // Inside the budget (w 2, T 5): exact route — zero floor, node
        // budget recorded, identical to the exact-only workload's record.
        let inside = ScenarioPoint {
            n: 1024,
            k: 4,
            rounds: 5,
            bandwidth: 2,
            seed: 3,
        };
        let routed = run_point(&scenario, 0, &inside);
        assert_eq!(routed.noise_floor, 0.0);
        assert_eq!(routed.samples, bcc_core::wide_walk_nodes(2, 5));
        assert!(routed.met_tolerance);
        let exact_only = Scenario::builder("t")
            .workload(Workload::WideMessages { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[5])
            .bandwidth(&[2])
            .tolerance(0.25)
            .build();
        let reference = run_point(&exact_only, 0, &inside);
        assert_eq!(
            routed.estimate.to_bits(),
            reference.estimate.to_bits(),
            "in-budget routing must reproduce the exact workload bit for bit"
        );

        // Beyond the budget (w 2, T 14 > the T = 12 boundary): the exact
        // engine would refuse; the router must sample instead.
        assert!(bcc_core::wide_walk_nodes(2, 14) > bcc_core::MAX_WIDE_NODES);
        let beyond = ScenarioPoint {
            n: 1024,
            k: 4,
            rounds: 14,
            bandwidth: 2,
            seed: 3,
        };
        let sampled = run_point(&scenario, 1, &beyond);
        assert!(sampled.noise_floor > 0.0, "sampled records carry noise");
        assert!(
            sampled.samples <= 1 << 12,
            "sampled budget is per-side samples, capped: {}",
            sampled.samples
        );
        assert!((0.0..=1.0).contains(&sampled.estimate));
        // Deterministic — the property resume rests on.
        let again = run_point(&scenario, 1, &beyond);
        assert_eq!(sampled.estimate.to_bits(), again.estimate.to_bits());
        assert_eq!(sampled.noise_floor.to_bits(), again.noise_floor.to_bits());
        assert_eq!(sampled.samples, again.samples);
    }

    #[test]
    fn depth_floors_round_trip_bitwise() {
        let floors = [0.0, 0.125, 1.0, f64::INFINITY, 0.3333333333333333];
        let encoded = encode_depth_floors(&floors);
        assert!(encoded.chars().all(|c| c.is_ascii_hexdigit() || c == '-'));
        let back = decode_depth_floors(&encoded).expect("well-formed");
        assert_eq!(back.len(), floors.len());
        for (a, b) in floors.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decode_depth_floors(""), Some(Vec::new()));
        assert_eq!(decode_depth_floors("zz"), None);
        assert_eq!(decode_depth_floors("3fd0-"), None, "short cell");
        // `from_str_radix` takes both; the encoder writes neither.
        assert_eq!(decode_depth_floors("+123456789abcdef"), None, "sign");
        assert_eq!(decode_depth_floors("3FD0000000000000"), None, "uppercase");
    }

    #[test]
    fn truncated_target_turns_a_past_cliff_cap_out_into_a_met_point() {
        // The acceptance drill: a past-cliff sampled point that caps out
        // unmet under the legacy full-horizon target (its deep support
        // dwarfs the budget) meets the tolerance at its resolvable
        // prefix under the truncated target, with the depth floors and
        // resolved horizon persisted — and the floor clamped to the TV
        // bound either way.
        let build = |truncated| {
            Scenario::builder("t")
                .workload(Workload::WideMessagesSampled { members: 2 })
                .n(&[1024])
                .k(&[4])
                .rounds(&[14])
                .bandwidth(&[2])
                .tolerance(0.25)
                .initial_samples(256)
                .max_samples(1 << 12)
                .truncated_target(truncated)
                .build()
        };
        let p = ScenarioPoint {
            n: 1024,
            k: 4,
            rounds: 14,
            bandwidth: 2,
            seed: 3,
        };
        let legacy = run_point(&build(false), 0, &p);
        assert!(!legacy.met_tolerance, "full horizon is unresolvable here");
        assert_eq!(legacy.samples, 1 << 12, "legacy burns to the cap");
        assert!(
            legacy.noise_floor <= 1.0,
            "clamped: a TV floor above 1 is a bug"
        );
        assert_eq!(legacy.resolved_horizon, 0);
        assert!(legacy.depth_floors.is_empty(), "legacy records unchanged");

        let truncated = run_point(&build(true), 0, &p);
        assert!(truncated.met_tolerance, "the resolvable prefix meets 0.25");
        assert!(truncated.resolved_horizon > 0);
        assert!(truncated.resolved_horizon <= 14);
        // The resolvable-prefix target needs up to `support_t / tol²`
        // samples, which for the *deepest* resolvable depth can be the
        // whole cap — the strict budget saving is pinned in bcc-core's
        // truncated-projection test; here the claim is it never costs
        // more.
        assert!(truncated.samples <= legacy.samples);
        let floors = decode_depth_floors(&truncated.depth_floors).expect("persisted floors");
        assert_eq!(floors.len(), 15, "one floor per depth 0..=rounds");
        assert!(floors.windows(2).all(|w| w[0] <= w[1]), "monotone");
        assert!(floors[truncated.resolved_horizon as usize] <= 0.25);
        // Deterministic, like every sampled route.
        let again = run_point(&build(true), 0, &p);
        assert_eq!(truncated.estimate.to_bits(), again.estimate.to_bits());
        assert_eq!(truncated.depth_floors, again.depth_floors);
        assert_eq!(truncated.resolved_horizon, again.resolved_horizon);
    }

    #[test]
    fn find_clique_succeeds_at_forgiving_parameters() {
        let scenario = Scenario::builder("t")
            .workload(Workload::FindClique)
            .n(&[128])
            .k(&[80])
            .tolerance(0.25)
            .initial_samples(4)
            .max_samples(8)
            .build();
        let p = point(128, 80, 1, 5);
        let a = run_point(&scenario, 0, &p);
        let b = run_point(&scenario, 0, &p);
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "deterministic");
        assert_eq!(a.samples, b.samples);
        assert!(a.estimate > 0.5, "success rate {} too low", a.estimate);
        assert!(a.samples <= 8);
    }

    #[test]
    fn find_clique_record_is_the_from_scratch_replay() {
        // The replaying loop the extended tally replaced: every budget
        // restarts the stream and re-runs all earlier trials.
        fn replay(point: &ScenarioPoint, precision: &Precision) -> (f64, f64, u64, bool) {
            let (n, k) = (point.n, point.k as usize);
            let p = activation_probability(n, k);
            let seed = derive_seed(point.stream_root(), 3);
            let mut trials = precision.initial_samples.min(precision.max_samples);
            loop {
                let mut rng = StdRng::seed_from_u64(seed);
                let stats = bcc_planted::find::measure_find(n, k, p, trials, &mut rng);
                let successes = (stats.success_rate * trials as f64).round();
                let smoothed = (successes + 1.0) / (trials as f64 + 2.0);
                let half_width = (smoothed * (1.0 - smoothed) / trials as f64).sqrt();
                let met = half_width <= precision.tolerance;
                if met || trials >= precision.max_samples {
                    return (stats.success_rate, half_width, trials as u64, met);
                }
                trials = trials.saturating_mul(2).min(precision.max_samples);
            }
        }
        // A budget that grows through several doublings (tolerance too
        // tight to stop early) and one that stops before the cap.
        for (k, tolerance) in [(40u32, 0.01), (80, 0.2)] {
            let scenario = Scenario::builder("t")
                .workload(Workload::FindClique)
                .n(&[128])
                .k(&[k])
                .tolerance(tolerance)
                .initial_samples(2)
                .max_samples(16)
                .build();
            let p = point(128, k, 1, 5);
            let record = run_point(&scenario, 0, &p);
            let (estimate, floor, samples, met) = replay(&p, &scenario.precision());
            assert_eq!(record.estimate.to_bits(), estimate.to_bits(), "k {k}");
            assert_eq!(record.noise_floor.to_bits(), floor.to_bits(), "k {k}");
            assert_eq!(
                (record.samples, record.met_tolerance),
                (samples, met),
                "k {k}"
            );
        }
    }

    #[test]
    fn prg_throughput_respects_tiny_budget_caps() {
        // Cap below the chunk count: the loop must shrink its chunking
        // rather than overshoot the hard cap; a single-repetition budget
        // records infinite uncertainty (no spread to estimate from).
        for &(initial, cap) in &[(2usize, 4usize), (1, 1)] {
            let scenario = Scenario::builder("t")
                .workload(Workload::PrgThroughput)
                .n(&[1024])
                .k(&[64])
                .tolerance(0.0)
                .initial_samples(initial)
                .max_samples(cap)
                .build();
            let rec = run_point(&scenario, 0, &point(1024, 64, 1, 1));
            assert!(
                rec.samples <= cap as u64,
                "samples {} > cap {cap}",
                rec.samples
            );
            assert!(!rec.met_tolerance);
            if cap == 1 {
                assert!(rec.noise_floor.is_infinite());
            }
        }
    }

    #[test]
    fn prg_throughput_reports_positive_rate() {
        let scenario = Scenario::builder("t")
            .workload(Workload::PrgThroughput)
            .n(&[2048])
            .k(&[64])
            .tolerance(0.5)
            .initial_samples(16)
            .max_samples(64)
            .build();
        let rec = run_point(&scenario, 0, &point(2048, 64, 1, 1));
        assert!(rec.estimate > 0.0, "Mbit/s must be positive");
        assert!(rec.samples >= 16);
        assert!(rec.wall_ms >= 0.0);
    }
}
