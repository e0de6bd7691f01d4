//! Declarative scenario specifications: what to measure, over which
//! parameter grid, to which precision.
//!
//! A [`Scenario`] names a [`Workload`] (a protocol family plus its input
//! distributions, parameterized by a grid point), a [`ParamGrid`] over
//! `(n, k, rounds, bandwidth, seed)`, and a [`Precision`] target for the
//! adaptive estimator. [`ScenarioBuilder`] assembles one with validation;
//! `crate::sweep` executes it.
//!
//! ## Axis semantics
//!
//! The five axes are shared vocabulary; each workload documents what it
//! reads:
//!
//! * `n` — the system scale: processors for distance and clique
//!   workloads, output width `m` for [`Workload::PrgThroughput`].
//! * `k` — the secret scale: PRG seed bits, or the planted clique size.
//! * `rounds` — broadcast turns of the protocol under test.
//! * `bandwidth` — bits per broadcast (`BCAST(b)`). For the sampled
//!   distance workloads a `b`-bit message is `b` consecutive one-bit
//!   turns by the same speaker, so they walk `rounds × bandwidth`
//!   transcript turns; for [`Workload::WideMessages`] and
//!   [`Workload::WideMessagesSampled`] `b` is the *literal* message width
//!   of one wide turn (walked exactly, or Monte-Carlo-sampled past the
//!   exact node budget).
//! * `seed` — the replication axis: same parameters, fresh randomness.
//!
//! Axes a workload ignores should be pinned to one value so they do not
//! multiply the grid.

use bcc_core::{derive_seed, wide_walk_nodes, MAX_WIDE_NODES};

use bcc_obs::json::Value;

/// The largest transcript the sampled backend can walk (`u64`-packed
/// prefix keys: turn `t` lives at bit `63 − t`).
pub const MAX_TRANSCRIPT_TURNS: u32 = 64;

/// One cell of a scenario's parameter grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioPoint {
    /// System scale (processors, or output bits for throughput).
    pub n: usize,
    /// Secret scale (seed bits, or clique size).
    pub k: u32,
    /// Broadcast turns.
    pub rounds: u32,
    /// Bits per broadcast.
    pub bandwidth: u32,
    /// Replication seed.
    pub seed: u64,
}

impl ScenarioPoint {
    /// The root of this point's private ChaCha randomness: a pure hash of
    /// the coordinates, so a point's streams do not depend on its position
    /// in the grid, on scheduling order, or on which other points exist —
    /// the invariant that makes interrupted sweeps resume bit-for-bit.
    pub fn stream_root(&self) -> u64 {
        let mut root = derive_seed(self.seed, 0x6C_61_62); // "lab"
        root = derive_seed(root, self.n as u64);
        root = derive_seed(root, u64::from(self.k));
        root = derive_seed(root, u64::from(self.rounds));
        root = derive_seed(root, u64::from(self.bandwidth));
        root
    }
}

/// The cartesian parameter grid of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamGrid {
    /// The `n` axis (see the module docs for axis semantics).
    pub n: Vec<usize>,
    /// The `k` axis.
    pub k: Vec<u32>,
    /// The `rounds` axis.
    pub rounds: Vec<u32>,
    /// The `bandwidth` axis.
    pub bandwidth: Vec<u32>,
    /// The replication-seed axis.
    pub seeds: Vec<u64>,
}

impl ParamGrid {
    /// The number of grid points.
    pub fn len(&self) -> usize {
        self.n.len() * self.k.len() * self.rounds.len() * self.bandwidth.len() * self.seeds.len()
    }

    /// Whether the grid is empty (never true for a built scenario).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the grid in its canonical order — lexicographic over
    /// `(n, k, rounds, bandwidth, seed)` with `seed` fastest. A point's
    /// index in this enumeration is its `point_id` in run records.
    pub fn points(&self) -> Vec<ScenarioPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &n in &self.n {
            for &k in &self.k {
                for &rounds in &self.rounds {
                    for &bandwidth in &self.bandwidth {
                        for &seed in &self.seeds {
                            out.push(ScenarioPoint {
                                n,
                                k,
                                rounds,
                                bandwidth,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// The adaptive-precision target of a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Precision {
    /// The per-point noise-floor tolerance the adaptive layer aims for.
    pub tolerance: f64,
    /// The first batch's budget (samples or trials, per workload).
    pub initial_samples: usize,
    /// The hard per-point budget cap.
    pub max_samples: usize,
    /// When set, sampled transcript-distance points target the deepest
    /// **resolvable** depth instead of the full horizon
    /// ([`bcc_core::AdaptiveEstimator::truncated_target`]): a point
    /// whose deep support no budget can resolve stops once the
    /// resolvable prefix meets the tolerance, records
    /// `met_tolerance = true` with a nonzero `resolved_horizon`, and no
    /// longer burns its way to the cap. Only the sampled distance
    /// workloads ([`Workload::RankDistance`],
    /// [`Workload::WideMessagesSampled`]) read it; off by default, and
    /// the fingerprint emits it only when set so existing run
    /// directories resume unchanged.
    pub truncated_target: bool,
}

/// A protocol family plus input distributions, parameterized by a grid
/// point. This is the declarative half of a workload; `crate::run` holds
/// the executable half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 1.4's shape at scale: the toy-PRG coset family `U_{[b]}`
    /// (the rank-deficient pseudo distribution) against uniform inputs,
    /// under a transcript-dependent parity protocol, measured as a
    /// transcript-distance depth profile by the adaptive sampled backend.
    ///
    /// Axes: `n` = processors (the transcript law of a product input
    /// depends only on the speaking processors' rows, so only
    /// `min(n, rounds × bandwidth)` rows are materialized; `n` still
    /// parameterizes the protocol's bit functions). `k` = seed bits per
    /// processor (≤ 12: coset supports are enumerated). `rounds ×
    /// bandwidth` = transcript turns (≤ [`MAX_TRANSCRIPT_TURNS`]).
    RankDistance {
        /// Family members (secrets `b`) drawn per point, from the point's
        /// own stream. Clamped to the `2^k` distinct secrets.
        members: usize,
    },
    /// Theorem B.1 at scale: success rate of the Appendix B
    /// planted-clique finder over fresh `A_k` instances, with the trial
    /// count grown adaptively until the success-rate half-width meets the
    /// tolerance.
    ///
    /// Axes: `n` = vertices, `k` = planted clique size (`2 ≤ k ≤ n`);
    /// `rounds` and `bandwidth` are ignored (pin to 1).
    FindClique,
    /// Section 1.2's "computationally very cheap" claim at scale:
    /// `xᵀM` PRG expansion throughput in output megabits per second, with
    /// the repetition count grown until the relative standard error meets
    /// the tolerance. Wall-clock measurements are inherently
    /// non-deterministic, so resumed records keep their recorded values
    /// rather than reproducing them bit-for-bit, and the scheduler runs
    /// these points one at a time (see [`Workload::times_wall_clock`])
    /// so concurrent points cannot skew each other's timings.
    ///
    /// Axes: `n` = output bits `m`, `k` = seed bits (`k < n`); `rounds`
    /// and `bandwidth` are ignored (pin to 1).
    PrgThroughput,
    /// Footnote 2 at scale: the toy-PRG coset family against uniform
    /// inputs under a `bandwidth`-bit masked-parity protocol, walked
    /// **exactly** by the engine (`bcc_core::engine`) through
    /// `bcc_core::ExactEstimator`. The estimate is the exact mixture
    /// TV, the noise floor is 0 (so any non-negative tolerance is met),
    /// and the recorded budget is the walk's reachable-node bound.
    ///
    /// Axes: `n` = processors (only `min(n, rounds)` rows are
    /// materialized — see [`Workload::RankDistance`] — and they share one
    /// support allocation). `k` = seed bits per processor (≤ 12: coset
    /// supports are enumerated). `rounds` = wide turns, `bandwidth` =
    /// message width `w` in `1..=16`; the complete `2^w`-ary tree to
    /// depth `rounds` must fit the exact engine's
    /// [`bcc_core::MAX_WIDE_NODES`] budget and the `u64` transcript
    /// packing.
    WideMessages {
        /// Family members (secrets `b`) drawn per point, from the point's
        /// own stream. Clamped to the `2^k` distinct secrets.
        members: usize,
    },
    /// [`Workload::WideMessages`] past the exact cliff: the same coset
    /// family under the same `w`-bit masked-parity protocol, but per
    /// point the backend is **routed** — the exact walk wherever the
    /// complete tree fits the engine's [`bcc_core::MAX_WIDE_NODES`]
    /// budget (`wide_walk_nodes(w, rounds) ≤ 2^26`), and the adaptive
    /// *sampler* ([`bcc_core::AdaptiveEstimator`] over
    /// `w`-bit-per-turn packed keys) exactly when it does not. In-budget
    /// records are exact (noise floor 0, budget = the reachable-node
    /// bound); past-budget records carry the sampler's honest
    /// `noise_floor()` — clamped to the TV bound 1 — its per-depth
    /// floors and `resolved_horizon`, and its settled per-side sample
    /// budget. Deep wide horizons have transcript supports that dwarf
    /// any sample budget, so under the default full-horizon target such
    /// points report `met_tolerance = false` at the cap, floor recorded,
    /// not hidden; under [`Precision::truncated_target`] they instead
    /// meet the tolerance at the deepest resolvable depth and say so.
    /// Both routes are deterministic from
    /// the point's coordinate-derived streams, so sweeps still resume
    /// bit-for-bit; the sampled route is pinned to the exact walk
    /// inside the budget by `crates/core/tests/differential.rs`.
    ///
    /// Axes: as [`Workload::WideMessages`], except the node budget no
    /// longer constrains the grid — only the `u64` transcript packing
    /// (`rounds × bandwidth ≤ 64`) does.
    WideMessagesSampled {
        /// Family members (secrets `b`) drawn per point, from the point's
        /// own stream. Clamped to the `2^k` distinct secrets.
        members: usize,
    },
}

impl Workload {
    /// The manifest tag naming this workload on disk.
    pub fn tag(&self) -> &'static str {
        match self {
            Workload::RankDistance { .. } => "rank_distance",
            Workload::FindClique => "find_clique",
            Workload::PrgThroughput => "prg_throughput",
            Workload::WideMessages { .. } => "wide_messages",
            Workload::WideMessagesSampled { .. } => "wide_messages_sampled",
        }
    }

    /// Whether this workload's estimate is a wall-clock measurement. The
    /// scheduler runs such points one at a time — timing chunks while
    /// other points compete for the same cores would corrupt every
    /// point's numbers.
    pub fn times_wall_clock(&self) -> bool {
        matches!(self, Workload::PrgThroughput)
    }

    /// The family members per point of a transcript-distance workload;
    /// `None` for the others.
    fn members(&self) -> Option<usize> {
        match *self {
            Workload::RankDistance { members }
            | Workload::WideMessages { members }
            | Workload::WideMessagesSampled { members } => Some(members),
            Workload::FindClique | Workload::PrgThroughput => None,
        }
    }
}

/// A complete, validated scenario specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    workload: Workload,
    grid: ParamGrid,
    precision: Precision,
}

impl Scenario {
    /// Starts a [`ScenarioBuilder`] for a named scenario. Names must be
    /// non-empty and drawn from `[A-Za-z0-9._-]` (they become directory
    /// names and manifest strings).
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            workload: None,
            grid: ParamGrid {
                n: Vec::new(),
                k: Vec::new(),
                rounds: vec![1],
                bandwidth: vec![1],
                seeds: vec![1],
            },
            precision: Precision {
                tolerance: 0.25,
                initial_samples: 1024,
                max_samples: 1 << 17,
                truncated_target: false,
            },
        }
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload under measurement.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The parameter grid.
    pub fn grid(&self) -> &ParamGrid {
        &self.grid
    }

    /// The precision target.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The default persisted-run directory, `target/lab/<name>` relative
    /// to the working directory.
    pub fn default_dir(&self) -> std::path::PathBuf {
        std::path::Path::new("target").join("lab").join(&self.name)
    }

    /// A canonical one-line JSON description of the full specification.
    /// Stored as the run manifest; a resumed run must present the same
    /// fingerprint, which is how the store refuses to mix records from
    /// different specs in one directory.
    ///
    /// A scenario with exact-walk cells also records the walk's frontier
    /// depth per bandwidth ([`bcc_core::adaptive_split_depth`]) as
    /// `walk_split_depths`. That depth is a constant of the bandwidth, so
    /// the field reads the same on every host; it stays so that existing
    /// fingerprints, and the run directories keyed by them, keep their
    /// bytes.
    pub fn fingerprint(&self) -> String {
        fn axis<T: Copy + Into<Value>>(cells: &[T]) -> Value {
            cells.iter().map(|&x| x.into()).collect()
        }
        let mut fields = vec![
            ("format", 1u32.into()),
            ("name", self.name.as_str().into()),
            ("workload", self.workload.tag().into()),
            ("members", self.workload.members().unwrap_or(0).into()),
            ("grid_n", axis(&self.grid.n)),
            ("grid_k", axis(&self.grid.k)),
            ("grid_rounds", axis(&self.grid.rounds)),
            ("grid_bandwidth", axis(&self.grid.bandwidth)),
            ("grid_seeds", axis(&self.grid.seeds)),
            ("tolerance", Value::float(self.precision.tolerance)),
            ("initial_samples", self.precision.initial_samples.into()),
            ("max_samples", self.precision.max_samples.into()),
        ];
        // Emitted only when set: legacy fingerprints stay byte-identical,
        // so existing run directories resume without a foreign-spec error.
        if self.precision.truncated_target {
            fields.push(("truncated_target", true.into()));
        }
        if self.pins_walk_depths() {
            let depths: Vec<u32> = self
                .grid
                .bandwidth
                .iter()
                .map(|&b| bcc_core::adaptive_split_depth(b))
                .collect();
            fields.push(("walk_split_depths", axis(&depths)));
        }
        Value::object(fields).to_string()
    }

    /// Whether this scenario's fingerprint records `walk_split_depths`:
    /// a wide-message scenario whose grid has at least one
    /// `(rounds, bandwidth)` cell inside the exact node budget (those
    /// cells take the exact walk). That is every
    /// [`Workload::WideMessages`] scenario, since the builder refuses its
    /// past-budget cells; an all-sampled
    /// [`Workload::WideMessagesSampled`] grid never recorded them. The
    /// depths are constants now, so this rule only keeps each
    /// fingerprint's bytes.
    fn pins_walk_depths(&self) -> bool {
        matches!(
            self.workload,
            Workload::WideMessages { .. } | Workload::WideMessagesSampled { .. }
        ) && self.grid.rounds.iter().any(|&rounds| {
            self.grid
                .bandwidth
                .iter()
                .any(|&b| wide_walk_nodes(b, rounds) <= MAX_WIDE_NODES)
        })
    }
}

/// Builds a [`Scenario`], validating the combination at
/// [`build`](ScenarioBuilder::build) time.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    workload: Option<Workload>,
    grid: ParamGrid,
    precision: Precision,
}

impl ScenarioBuilder {
    /// Sets the workload (required).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the `n` axis (required, non-empty).
    pub fn n(mut self, n: &[usize]) -> Self {
        self.grid.n = n.to_vec();
        self
    }

    /// Sets the `k` axis (required, non-empty).
    pub fn k(mut self, k: &[u32]) -> Self {
        self.grid.k = k.to_vec();
        self
    }

    /// Sets the `rounds` axis (defaults to `[1]`).
    pub fn rounds(mut self, rounds: &[u32]) -> Self {
        self.grid.rounds = rounds.to_vec();
        self
    }

    /// Sets the `bandwidth` axis (defaults to `[1]`).
    pub fn bandwidth(mut self, bandwidth: &[u32]) -> Self {
        self.grid.bandwidth = bandwidth.to_vec();
        self
    }

    /// Sets the replication-seed axis (defaults to `[1]`).
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.grid.seeds = seeds.to_vec();
        self
    }

    /// Sets the noise-floor tolerance (defaults to `0.25`).
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.precision.tolerance = tolerance;
        self
    }

    /// Sets the first batch's budget (defaults to `1024`).
    pub fn initial_samples(mut self, initial: usize) -> Self {
        self.precision.initial_samples = initial;
        self
    }

    /// Sets the hard per-point budget cap (defaults to `2^17`).
    pub fn max_samples(mut self, cap: usize) -> Self {
        self.precision.max_samples = cap;
        self
    }

    /// Switches the truncated-depth target on or off (defaults to off —
    /// see [`Precision::truncated_target`]). Only valid for the sampled
    /// distance workloads.
    pub fn truncated_target(mut self, on: bool) -> Self {
        self.precision.truncated_target = on;
        self
    }

    /// Validates and builds the scenario.
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec: a bad name, a missing workload, an
    /// empty axis, a precision budget of zero (or a cap below the initial
    /// budget, or a NaN tolerance), or grid values the workload cannot
    /// execute — `rounds × bandwidth` beyond [`MAX_TRANSCRIPT_TURNS`] or
    /// `k > 12` for [`Workload::RankDistance`], `k < 2` or `k > n` for
    /// [`Workload::FindClique`], `k ≥ n` for [`Workload::PrgThroughput`],
    /// or a `(rounds, bandwidth)` pair whose complete `2^bandwidth`-ary
    /// tree exceeds the exact wide engine's node budget for
    /// [`Workload::WideMessages`].
    pub fn build(self) -> Scenario {
        assert!(
            !self.name.is_empty()
                && self
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')),
            "scenario name {:?} must be non-empty [A-Za-z0-9._-]",
            self.name
        );
        let workload = self.workload.expect("scenario needs a workload");
        let grid = self.grid;
        assert!(!grid.n.is_empty(), "the n axis is empty");
        assert!(!grid.k.is_empty(), "the k axis is empty");
        assert!(!grid.rounds.is_empty(), "the rounds axis is empty");
        assert!(!grid.bandwidth.is_empty(), "the bandwidth axis is empty");
        assert!(!grid.seeds.is_empty(), "the seeds axis is empty");
        let precision = self.precision;
        assert!(precision.initial_samples > 0, "initial budget is zero");
        assert!(
            precision.max_samples >= precision.initial_samples,
            "budget cap {} below the initial budget {}",
            precision.max_samples,
            precision.initial_samples
        );
        assert!(!precision.tolerance.is_nan(), "tolerance is NaN");
        assert!(
            !precision.truncated_target
                || matches!(
                    workload,
                    Workload::RankDistance { .. } | Workload::WideMessagesSampled { .. }
                ),
            "the truncated-depth target only applies to the sampled distance \
             workloads (rank_distance, wide_messages_sampled), not {:?}",
            workload.tag()
        );

        // Every grid combination must be executable, so each axis value
        // is checked, not just the extremes.
        if let Some(members) = workload.members() {
            assert!(members > 0, "need at least one family member");
            for &k in &grid.k {
                assert!(
                    (1..=12).contains(&k),
                    "k = {k} outside 1..=12 (coset supports are enumerated)"
                );
            }
        }
        match workload {
            Workload::RankDistance { .. } => {
                for &rounds in &grid.rounds {
                    for &bandwidth in &grid.bandwidth {
                        let turns = rounds * bandwidth;
                        assert!(
                            (1..=MAX_TRANSCRIPT_TURNS).contains(&turns),
                            "rounds x bandwidth = {rounds} x {bandwidth} outside \
                             1..={MAX_TRANSCRIPT_TURNS} (transcripts pack into a u64)"
                        );
                    }
                }
            }
            Workload::FindClique => {
                let min_n = *grid.n.iter().min().unwrap();
                assert!(min_n >= 8, "find_clique needs n >= 8 (got {min_n})");
                for &k in &grid.k {
                    assert!(
                        k >= 2 && grid.n.iter().all(|&n| (k as usize) <= n),
                        "clique size k = {k} must satisfy 2 <= k <= n for every n"
                    );
                }
            }
            Workload::PrgThroughput => {
                for &k in &grid.k {
                    assert!(k >= 1, "need at least one seed bit");
                    assert!(
                        grid.n.iter().all(|&n| n > k as usize),
                        "output width n must exceed seed bits k = {k}"
                    );
                }
            }
            Workload::WideMessages { .. } | Workload::WideMessagesSampled { .. } => {
                let exact_only = matches!(workload, Workload::WideMessages { .. });
                for &rounds in &grid.rounds {
                    for &bandwidth in &grid.bandwidth {
                        assert!(
                            (1..=16).contains(&bandwidth),
                            "bandwidth = {bandwidth} outside 1..=16 (wide messages pack \
                             into a u64)"
                        );
                        assert!(
                            rounds >= 1 && u64::from(rounds) * u64::from(bandwidth) <= 64,
                            "rounds x bandwidth = {rounds} x {bandwidth} outside 1..=64 \
                             (wide transcripts pack into a u64)"
                        );
                        // The sampled-capable workload exists precisely to
                        // cross this budget: only the exact-only workload
                        // refuses past-budget cells.
                        let nodes = wide_walk_nodes(bandwidth, rounds);
                        assert!(
                            !exact_only || nodes <= MAX_WIDE_NODES,
                            "rounds = {rounds} at bandwidth = {bandwidth} reaches up to \
                             {nodes} tree nodes, beyond the exact wide engine's \
                             {MAX_WIDE_NODES}-node budget (use WideMessagesSampled to \
                             route such points to the sampler)"
                        );
                    }
                }
            }
        }
        Scenario {
            name: self.name,
            workload,
            grid,
            precision,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The manifest `truncated_target_is_fingerprinted_only_when_set`
    /// pins.
    const GOLDEN_FINGERPRINT: &str =
        "{\"format\":1,\"name\":\"ws\",\"workload\":\"wide_messages_sampled\",\"members\":2,\
         \"grid_n\":[1024,4096],\"grid_k\":[4],\"grid_rounds\":[6,14],\"grid_bandwidth\":[2],\
         \"grid_seeds\":[1,18446744073709551615],\"tolerance\":0.1,\"initial_samples\":1024,\
         \"max_samples\":131072,\"truncated_target\":true,\"walk_split_depths\":[3]}";

    fn tiny() -> Scenario {
        Scenario::builder("t")
            .workload(Workload::RankDistance { members: 2 })
            .n(&[64, 128])
            .k(&[4])
            .rounds(&[8, 12])
            .seeds(&[1, 2, 3])
            .build()
    }

    #[test]
    fn grid_enumerates_lexicographically_with_seed_fastest() {
        let s = tiny();
        let points = s.grid().points();
        assert_eq!(points.len(), 2 * 2 * 3);
        assert_eq!(s.grid().len(), points.len());
        assert_eq!(
            points[0],
            ScenarioPoint {
                n: 64,
                k: 4,
                rounds: 8,
                bandwidth: 1,
                seed: 1
            }
        );
        assert_eq!(points[1].seed, 2);
        assert_eq!(points[3].rounds, 12);
        assert_eq!(points[6].n, 128);
    }

    #[test]
    fn stream_roots_differ_across_coordinates_and_reproduce() {
        let points = tiny().grid().points();
        let roots: Vec<u64> = points.iter().map(|p| p.stream_root()).collect();
        let mut distinct = roots.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), roots.len(), "stream roots collide");
        assert_eq!(points[0].stream_root(), points[0].stream_root());
    }

    #[test]
    fn fingerprint_is_stable_and_spec_sensitive() {
        let a = tiny();
        assert_eq!(a.fingerprint(), tiny().fingerprint());
        let b = Scenario::builder("t")
            .workload(Workload::RankDistance { members: 3 })
            .n(&[64, 128])
            .k(&[4])
            .rounds(&[8, 12])
            .seeds(&[1, 2, 3])
            .build();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn over_long_transcripts_rejected() {
        let _ = Scenario::builder("t")
            .workload(Workload::RankDistance { members: 1 })
            .n(&[64])
            .k(&[4])
            .rounds(&[40])
            .bandwidth(&[2])
            .build();
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn zero_turn_grid_values_rejected_even_mixed_with_valid_ones() {
        // Per-value validation: a maxima-only check would accept this.
        let _ = Scenario::builder("t")
            .workload(Workload::RankDistance { members: 1 })
            .n(&[64])
            .k(&[4])
            .rounds(&[0, 8])
            .build();
    }

    #[test]
    #[should_panic(expected = "outside 1..=12")]
    fn zero_k_grid_values_rejected_even_mixed_with_valid_ones() {
        let _ = Scenario::builder("t")
            .workload(Workload::RankDistance { members: 1 })
            .n(&[64])
            .k(&[0, 6])
            .rounds(&[8])
            .build();
    }

    #[test]
    fn wide_grids_within_the_node_budget_build() {
        let s = Scenario::builder("w")
            .workload(Workload::WideMessages { members: 2 })
            .n(&[1024, 4096])
            .k(&[4, 6])
            .rounds(&[6, 8])
            .bandwidth(&[2])
            .seeds(&[1, 2])
            .build();
        assert_eq!(s.workload().tag(), "wide_messages");
        assert_eq!(s.grid().len(), 2 * 2 * 2 * 2);
    }

    #[test]
    #[should_panic(expected = "beyond the exact wide engine")]
    fn wide_grids_beyond_the_node_budget_rejected() {
        // 4-ary to depth 14 is ~2^28 potential nodes: every grid cell must
        // be executable, so the spec is refused at build time.
        let _ = Scenario::builder("w")
            .workload(Workload::WideMessages { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[14])
            .bandwidth(&[2])
            .build();
    }

    #[test]
    #[should_panic(expected = "outside 1..=16")]
    fn wide_bandwidth_outside_packing_rejected() {
        let _ = Scenario::builder("w")
            .workload(Workload::WideMessages { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[2])
            .bandwidth(&[17])
            .build();
    }

    #[test]
    fn wide_fingerprint_distinguishes_members_and_workload() {
        let build = |members| {
            Scenario::builder("w")
                .workload(Workload::WideMessages { members })
                .n(&[1024])
                .k(&[4])
                .rounds(&[6])
                .bandwidth(&[2])
                .build()
        };
        assert_ne!(build(2).fingerprint(), build(3).fingerprint());
        let rank = Scenario::builder("w")
            .workload(Workload::RankDistance { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[6])
            .bandwidth(&[2])
            .build();
        assert_ne!(build(2).fingerprint(), rank.fingerprint());
    }

    #[test]
    fn wide_fingerprint_pins_the_walk_frontier_depth() {
        // Wide fingerprints record the walk's frontier depth per
        // bandwidth, a constant, so their bytes stay as they were;
        // sampled workloads record none.
        let wide = Scenario::builder("w")
            .workload(Workload::WideMessages { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[2])
            .bandwidth(&[2, 3])
            .build();
        let pin = "\"walk_split_depths\":[3,2]";
        assert!(
            wide.fingerprint().contains(pin),
            "fingerprint {} missing {pin}",
            wide.fingerprint()
        );
        let rank = Scenario::builder("w")
            .workload(Workload::RankDistance { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[6])
            .bandwidth(&[2])
            .build();
        assert!(!rank.fingerprint().contains("walk_split_depths"));
    }

    #[test]
    fn sampled_wide_grids_may_cross_the_node_budget() {
        // The same grid the exact-only workload refuses (depth-14 4-ary
        // tree) builds under the sampled-capable workload; only the u64
        // packing constrains it.
        let s = Scenario::builder("ws")
            .workload(Workload::WideMessagesSampled { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[6, 14])
            .bandwidth(&[2])
            .build();
        assert_eq!(s.workload().tag(), "wide_messages_sampled");
        assert_eq!(s.grid().len(), 2);
    }

    #[test]
    #[should_panic(expected = "outside 1..=64")]
    fn sampled_wide_grids_still_respect_the_u64_packing() {
        let _ = Scenario::builder("ws")
            .workload(Workload::WideMessagesSampled { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[40])
            .bandwidth(&[2])
            .build();
    }

    #[test]
    fn sampled_wide_fingerprint_pins_depths_only_when_a_cell_routes_exact() {
        let build = |rounds: &[u32]| {
            Scenario::builder("ws")
                .workload(Workload::WideMessagesSampled { members: 2 })
                .n(&[1024])
                .k(&[4])
                .rounds(rounds)
                .bandwidth(&[2])
                .build()
        };
        // A straddling grid has exact-routed cells: recorded.
        assert!(build(&[6, 14]).fingerprint().contains("walk_split_depths"));
        // An all-sampled grid never recorded them.
        assert!(!build(&[14, 16]).fingerprint().contains("walk_split_depths"));
        // And the two workloads can never share a run directory.
        let exact = Scenario::builder("ws")
            .workload(Workload::WideMessages { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[6])
            .bandwidth(&[2])
            .build();
        let sampled = build(&[6]);
        assert_ne!(exact.fingerprint(), sampled.fingerprint());
    }

    #[test]
    fn truncated_target_is_fingerprinted_only_when_set() {
        let build = |truncated| {
            Scenario::builder("ws")
                .workload(Workload::WideMessagesSampled { members: 2 })
                .n(&[1024])
                .k(&[4])
                .rounds(&[14])
                .bandwidth(&[2])
                .truncated_target(truncated)
                .build()
        };
        // Off: byte-identical to a spec that never heard of the flag, so
        // existing run directories keep resuming.
        assert!(!build(false).fingerprint().contains("truncated_target"));
        assert!(build(true)
            .fingerprint()
            .contains("\"truncated_target\":true"));
        assert_ne!(build(false).fingerprint(), build(true).fingerprint());

        // The full manifest bytes with both optional fields set: a
        // straddling grid (round 6 routes exact, so the depth is pinned).
        let both = Scenario::builder("ws")
            .workload(Workload::WideMessagesSampled { members: 2 })
            .n(&[1024, 4096])
            .k(&[4])
            .rounds(&[6, 14])
            .bandwidth(&[2])
            .seeds(&[1, u64::MAX])
            .tolerance(0.1)
            .truncated_target(true)
            .build();
        assert_eq!(both.fingerprint(), GOLDEN_FINGERPRINT);
    }

    #[test]
    fn torn_manifests_are_refused() {
        let doc = GOLDEN_FINGERPRINT;
        for cut in 0..doc.len() {
            let kind = bcc_obs::json::parse(&doc[..cut]).unwrap_err().kind;
            assert_eq!(kind, bcc_obs::json::ErrorKind::UnexpectedEnd, "cut {cut}");
        }
    }

    #[test]
    #[should_panic(expected = "only applies to the sampled distance")]
    fn truncated_target_rejected_for_exact_workloads() {
        let _ = Scenario::builder("w")
            .workload(Workload::WideMessages { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[6])
            .bandwidth(&[2])
            .truncated_target(true)
            .build();
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn bad_names_rejected() {
        let _ = Scenario::builder("has space")
            .workload(Workload::FindClique)
            .n(&[64])
            .k(&[8])
            .build();
    }

    #[test]
    #[should_panic(expected = "2 <= k <= n")]
    fn oversized_clique_rejected() {
        let _ = Scenario::builder("t")
            .workload(Workload::FindClique)
            .n(&[16])
            .k(&[32])
            .build();
    }
}
