//! The unified execution backend for transcript-distance experiments.
//!
//! Every experiment in this workspace ultimately estimates the same
//! object: the depth profile of `‖P_family^{(t)} − P_baseline^{(t)}‖` for
//! a turn protocol, a decomposition family `{A_I}` and a baseline. Callers
//! in `bcc-prg`, `bcc-planted`, `bcc-lab` and `bcc-bench` ask an
//! [`Estimator`] instead of choosing among the exact walk
//! ([`crate::engine`]), the Monte-Carlo sampler ([`crate::sample`]) and
//! ad-hoc replay loops by hand:
//!
//! * [`ExactEstimator`] — the engine's exact walk, parallel by default
//!   (subtree fan-out over rayon, deterministic reduction), refused past
//!   the node budget [`crate::wide::MAX_WIDE_NODES`];
//! * [`AdaptiveEstimator`] — seeded Monte-Carlo over sorted packed-`u64`
//!   prefix keys (`w` bits per turn), with a budget that grows in batches
//!   until the noise floor meets a tolerance
//!   ([`AdaptiveEstimator::estimate_with_report`] says how it grew). A
//!   fixed budget of `s` samples per side is the one-batch run
//!   `AdaptiveEstimator::new(tolerance, s, s, seed)`.
//!
//! Both speak one transcript model, `BCAST(w)` turn protocols
//! ([`WideTurnProtocol`]), and return a [`DepthProfile`] over turns that
//! carries its [`Provenance`], so downstream code can ask for the
//! [`DepthProfile::noise_floor`] without knowing how the numbers were
//! produced. A `BCAST(1)` protocol is the width-1 case, such as a
//! [`FnProtocol`](bcc_congest::FnProtocol):
//!
//! ```
//! use bcc_congest::FnProtocol;
//! use bcc_core::exec::{AdaptiveEstimator, Estimator, ExactEstimator};
//! use bcc_core::ProductInput;
//!
//! let p = FnProtocol::new(2, 3, 6, |_, input, tr| (input >> (tr.len() / 2)) & 1 == 1);
//! let family = vec![ProductInput::uniform(2, 3)];
//! let baseline = ProductInput::uniform(2, 3);
//!
//! let exact = ExactEstimator::default().estimate_full(&p, &family, &baseline);
//! // A fixed budget: initial = cap, so exactly one batch of 4000 per side.
//! let sampled = AdaptiveEstimator::new(0.0, 4_000, 4_000, 1).estimate_full(&p, &family, &baseline);
//! assert!((exact.tv() - sampled.tv()).abs() <= sampled.noise_floor());
//! ```

use bcc_congest::wide::{WideTranscript, WideTurnProtocol};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use rayon::prelude::*;

use bcc_obs::{Class, Span};
use bcc_stats::smoothing;

use crate::engine::{assemble, SpeakerStats};
use crate::input::ProductInput;
use crate::sample::{
    check_key_packing, collect_sorted_wide_keys, merge_sorted_k_u64, merge_sorted_u64,
    sorted_depth_profile,
};
use crate::walk::exact_walk;
use crate::wide::validate_budget;

pub use crate::engine::ExecMode;
pub use bcc_stats::smoothing::TvEstimator;

/// Derives the seed of an independent child stream from a root seed and a
/// stream index (a SplitMix64 step and finalizer).
///
/// This is how every seeded fan-out in the workspace names its streams:
/// the [`AdaptiveEstimator`] gives side `i` of a family comparison the
/// stream `derive_seed(seed, i)`, and `bcc-lab` gives every scenario
/// point its own root the same way. Distinct `(root, stream)` pairs give
/// statistically independent ChaCha streams, and the derivation is pure,
/// so a consumer can be computed in any order — or skipped entirely —
/// without disturbing the others.
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    let mut z = root
        .wrapping_add(0x9E3779B97F4A7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B54A32D192ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// How a [`DepthProfile`]'s numbers were produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// The exact engine: zero statistical error.
    Exact,
    /// Monte-Carlo estimation.
    Sampled {
        /// Samples drawn per family member and for the baseline.
        samples_per_side: usize,
        /// Distinct transcripts observed across all sides.
        support_seen: usize,
        /// Distinct prefix groups in the mixture ∪ baseline union at
        /// each depth `0 ..= horizon` — the depth-resolved analogue of
        /// `support_seen` (whose value it reaches at the full horizon).
        support_by_depth: Vec<usize>,
        /// Per depth, the number of prefix groups whose **combined**
        /// multiplicity across both sides is exactly 1, counted on the
        /// mixture side — the Good–Turing unresolved-mass witnesses.
        mixture_singletons_by_depth: Vec<usize>,
        /// As above, counted on the baseline side.
        baseline_singletons_by_depth: Vec<usize>,
        /// Which TV estimator produced `mixture_tv_by_depth`.
        estimator: TvEstimator,
    },
}

/// The estimated (or exact) transcript-distance profile of a family
/// against a baseline, by prefix depth.
#[derive(Debug, Clone)]
pub struct DepthProfile {
    /// The number of turns walked or simulated.
    pub horizon: u32,
    /// `‖ avg_I P_I^{(t)} − P_base^{(t)} ‖` for `t = 0 ..= horizon`.
    pub mixture_tv_by_depth: Vec<f64>,
    /// The progress function `L_progress^{(t)} = E_I ‖P_I^{(t)} − P_base^{(t)}‖`.
    pub progress_by_depth: Vec<f64>,
    /// Final distance per family member.
    pub per_member_tv: Vec<f64>,
    /// Speaker consistent-set statistics per turn (exact runs only;
    /// empty for sampled runs).
    pub speaker_stats: Vec<SpeakerStats>,
    /// How the numbers were produced.
    pub provenance: Provenance,
}

impl DepthProfile {
    /// The final mixture distance.
    pub fn tv(&self) -> f64 {
        *self
            .mixture_tv_by_depth
            .last()
            .expect("depth profile includes depth 0")
    }

    /// The final progress value.
    pub fn progress(&self) -> f64 {
        *self
            .progress_by_depth
            .last()
            .expect("depth profile includes depth 0")
    }

    /// The per-turn increments of the progress function.
    pub fn progress_increments(&self) -> Vec<f64> {
        self.progress_by_depth
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect()
    }

    /// Whether the numbers are exact.
    pub fn is_exact(&self) -> bool {
        matches!(self.provenance, Provenance::Exact)
    }

    /// The statistical resolution of the estimate over the **whole**
    /// profile: `0` for exact runs; for sampled runs the worst per-depth
    /// floor, which (supports grow with depth) is
    /// [`DepthProfile::noise_floor_at`] at the full horizon — the
    /// plug-in histogram scale `sqrt(support / samples)` clamped to 1
    /// (TV is bounded by 1, so a floor above 1 says nothing a floor of
    /// exactly 1 does not). [`f64::INFINITY`] only for a sampled run
    /// with no samples at all. Distances below this are
    /// indistinguishable from zero.
    pub fn noise_floor(&self) -> f64 {
        match self.provenance {
            Provenance::Exact => 0.0,
            Provenance::Sampled { .. } => self.noise_floor_at(self.horizon),
        }
    }

    /// The depth-resolved noise floor at prefix depth `t`: the
    /// statistical resolution of `mixture_tv_by_depth[t]` alone. Exact
    /// runs resolve every depth perfectly (0). For plug-in sampled runs
    /// this is `min(1, sqrt(support_t / samples))`; for smoothed
    /// profiles ([`DepthProfile::smoothed`]) it is the Good–Turing scale
    /// — the fluctuation of the *resolved* support plus the singleton
    /// correction — never above the plug-in floor at the same depth.
    /// [`f64::INFINITY`] only when there are no samples.
    ///
    /// Floors are nondecreasing in `t` (a deeper prefix never has fewer
    /// distinct groups), so shallow depths of a profile whose full
    /// horizon saturated can still be honestly resolved.
    ///
    /// # Panics
    ///
    /// Panics if `t > horizon`.
    pub fn noise_floor_at(&self, t: u32) -> f64 {
        assert!(
            t <= self.horizon,
            "depth {t} beyond horizon {}",
            self.horizon
        );
        match &self.provenance {
            Provenance::Exact => 0.0,
            Provenance::Sampled {
                samples_per_side,
                support_by_depth,
                mixture_singletons_by_depth,
                baseline_singletons_by_depth,
                estimator,
                ..
            } => {
                if *samples_per_side == 0 {
                    return f64::INFINITY;
                }
                let support = support_by_depth[t as usize];
                let plugin = (support as f64 / *samples_per_side as f64).sqrt().min(1.0);
                match estimator {
                    TvEstimator::PlugIn => plugin,
                    TvEstimator::Smoothed => {
                        let n1 = mixture_singletons_by_depth[t as usize]
                            + baseline_singletons_by_depth[t as usize];
                        let resolved = support - n1;
                        smoothing::smoothed_floor(
                            resolved,
                            *samples_per_side,
                            self.singleton_correction_at(t),
                        )
                        .min(plugin)
                    }
                }
            }
        }
    }

    /// The deepest prefix depth whose noise floor meets `tolerance` —
    /// what the estimate honestly resolved, even when the full horizon
    /// saturated. Exact runs resolve everything (`horizon`); a sampled
    /// run too starved to resolve even depth 0 reports 0.
    pub fn resolved_horizon(&self, tolerance: f64) -> u32 {
        match self.provenance {
            Provenance::Exact => self.horizon,
            Provenance::Sampled { .. } => (0..=self.horizon)
                .rev()
                .find(|&t| self.noise_floor_at(t) <= tolerance)
                .unwrap_or(0),
        }
    }

    /// The Good–Turing singleton correction at depth `t`: the exact
    /// plug-in TV inflation contributed by combined singletons
    /// ([`smoothing::singleton_correction`] over the mixture's `m·N`
    /// draws and the baseline's `N`). Zero for exact runs.
    fn singleton_correction_at(&self, t: u32) -> f64 {
        match &self.provenance {
            Provenance::Exact => 0.0,
            Provenance::Sampled {
                samples_per_side,
                mixture_singletons_by_depth,
                baseline_singletons_by_depth,
                ..
            } => {
                let m = self.per_member_tv.len();
                smoothing::singleton_correction(
                    mixture_singletons_by_depth[t as usize],
                    m * samples_per_side,
                    baseline_singletons_by_depth[t as usize],
                    *samples_per_side,
                )
            }
        }
    }

    /// The Good–Turing smoothed view of this profile: every depth's
    /// mixture TV is corrected by exactly the plug-in inflation its
    /// combined singletons cause ([`smoothing::smoothed_tv`]), and the
    /// provenance is retagged [`TvEstimator::Smoothed`] so
    /// [`DepthProfile::noise_floor_at`] reports the smoothed scale. The
    /// progress function and per-member distances stay plug-in — only
    /// the headline mixture distance has a singleton decomposition.
    /// Exact profiles need no smoothing and come back unchanged.
    pub fn smoothed(&self) -> DepthProfile {
        let mut out = self.clone();
        if let Provenance::Sampled { estimator, .. } = &mut out.provenance {
            *estimator = TvEstimator::Smoothed;
        } else {
            return out;
        }
        for t in 0..=self.horizon {
            let correction = self.singleton_correction_at(t);
            out.mixture_tv_by_depth[t as usize] =
                smoothing::smoothed_tv(self.mixture_tv_by_depth[t as usize], correction);
        }
        out
    }
}

/// A strategy for estimating the depth profile of a family-vs-baseline
/// comparison. Implementations must honour `horizon` exactly: the profile
/// has `horizon + 1` entries for the prefix lengths `0 ..= horizon`.
pub trait Estimator {
    /// Estimates `‖ avg_I P_I^{(t)} − P_baseline^{(t)} ‖` for
    /// `t = 0 ..= horizon`, with the progress function and per-member
    /// distances.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, dimensions disagree with the
    /// protocol, or `horizon > protocol.horizon()`, plus each
    /// implementation's own limits (the exact walk's node budget, the
    /// samplers' 64-bit key packing).
    fn estimate<P: WideTurnProtocol + Sync + ?Sized>(
        &self,
        protocol: &P,
        members: &[ProductInput],
        baseline: &ProductInput,
        horizon: u32,
    ) -> DepthProfile;

    /// [`estimate`](Estimator::estimate) over the protocol's full horizon.
    fn estimate_full<P: WideTurnProtocol + Sync + ?Sized>(
        &self,
        protocol: &P,
        members: &[ProductInput],
        baseline: &ProductInput,
    ) -> DepthProfile {
        self.estimate(protocol, members, baseline, protocol.horizon())
    }

    /// Convenience for the two-distribution case (`{A}` vs `B`).
    fn estimate_pair<P: WideTurnProtocol + Sync + ?Sized>(
        &self,
        protocol: &P,
        a: &ProductInput,
        b: &ProductInput,
    ) -> DepthProfile {
        self.estimate_full(protocol, std::slice::from_ref(a), b)
    }
}

/// A protocol truncated to a shorter horizon (prefixes are protocols too:
/// message functions never look past the transcript they are given).
struct Truncated<'a, P: ?Sized> {
    inner: &'a P,
    horizon: u32,
}

impl<P: WideTurnProtocol + ?Sized> WideTurnProtocol for Truncated<'_, P> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn input_bits(&self) -> u32 {
        self.inner.input_bits()
    }

    fn width(&self) -> u32 {
        self.inner.width()
    }

    fn horizon(&self) -> u32 {
        self.horizon
    }

    fn speaker(&self, t: u32) -> usize {
        self.inner.speaker(t)
    }

    fn message(&self, proc: usize, input: u64, transcript: &WideTranscript) -> u64 {
        self.inner.message(proc, input, transcript)
    }
}

/// The exact engine ([`crate::engine`]) as an [`Estimator`] — the one
/// front door to the exact walk: a [`DepthProfile`] with
/// [`Provenance::Exact`] holding the mixture distance, the progress
/// function, the per-member distances and the speaker statistics, all
/// exactly.
///
/// This is the §3 framework as a computation. In particular the result
/// exhibits `L_real ≤ L_progress` (the triangle-inequality step) and the
/// per-turn progress increments that Lemma-format inequalities bound.
/// [`Estimator::estimate_pair`] covers the two-distribution case.
///
/// # Panics
///
/// Besides the [`Estimator::estimate`] conditions, panics if the
/// protocol's width is outside `1..=16` or the complete `2^w`-ary turn
/// tree to `horizon` could exceed [`crate::wide::MAX_WIDE_NODES`]
/// (`2^26`) nodes — at width 1, a horizon above 25 turns.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactEstimator {
    /// How subtree tasks execute; [`ExecMode::Parallel`] by default.
    pub mode: ExecMode,
}

impl ExactEstimator {
    /// An estimator running subtree tasks on the rayon pool.
    pub fn parallel() -> Self {
        ExactEstimator {
            mode: ExecMode::Parallel,
        }
    }

    /// An estimator running everything on the calling thread. Bitwise
    /// equal to [`ExactEstimator::parallel`] results, only slower.
    pub fn sequential() -> Self {
        ExactEstimator {
            mode: ExecMode::Sequential,
        }
    }
}

impl Estimator for ExactEstimator {
    fn estimate<P: WideTurnProtocol + Sync + ?Sized>(
        &self,
        protocol: &P,
        members: &[ProductInput],
        baseline: &ProductInput,
        horizon: u32,
    ) -> DepthProfile {
        assert!(
            horizon <= protocol.horizon(),
            "horizon {horizon} beyond the protocol's {}",
            protocol.horizon()
        );
        let truncated = Truncated {
            inner: protocol,
            horizon,
        };
        validate_budget(&truncated);
        assemble(
            &truncated,
            exact_walk(&truncated, members, baseline, self.mode),
        )
    }
}

/// Reads a whole [`DepthProfile`] off per-side *sorted* prefix-key
/// arrays — the shared back half of the samplers (a turn at width `w`
/// spans `bits_per_turn = w` key bits). The caller supplies the sorted
/// mixture histogram (the multiset union of every member's keys):
/// [`AdaptiveEstimator`] maintains it by merges across batches — a sorted
/// `u64` array is a pure function of its multiset, so any batch schedule
/// reaching the same budget produces a bitwise-identical profile; the
/// pair sampler [`crate::sample::sampled_comparison_with`] passes its one
/// side as the single member and as the mixture.
///
/// Each (side, baseline) pair is read in one merge pass that yields every
/// depth at once (`sample::sorted_depth_profile`): one pass per member
/// for the progress function, and one for the mixture that also counts
/// the union's support and singletons. Every depth sums its groups in
/// ascending order, as one merge per depth would, so the floats keep
/// their bits.
pub(crate) fn profile_from_sorted_sides(
    horizon: u32,
    bits_per_turn: u32,
    samples: usize,
    base_keys: &[u64],
    member_keys: &[&[u64]],
    mixture_keys: &[u64],
) -> DepthProfile {
    let m = member_keys.len();
    debug_assert_eq!(mixture_keys.len(), m * samples);
    let depths = horizon as usize + 1;
    let side_weight = 1.0 / samples as f64;
    let mut progress_by_depth = vec![0.0; depths];
    let mut per_member_tv = Vec::with_capacity(m);
    for keys in member_keys {
        let (tv_by_depth, _) = sorted_depth_profile(
            keys,
            base_keys,
            side_weight,
            side_weight,
            horizon,
            bits_per_turn,
        );
        for (slot, tv) in progress_by_depth.iter_mut().zip(&tv_by_depth) {
            *slot += tv / m as f64;
        }
        per_member_tv.push(tv_by_depth[horizon as usize]);
    }

    let mixture_weight = 1.0 / (m * samples) as f64;
    let (mixture_tv_by_depth, depth_stats) = sorted_depth_profile(
        mixture_keys,
        base_keys,
        mixture_weight,
        side_weight,
        horizon,
        bits_per_turn,
    );
    let support_seen = depth_stats.support[horizon as usize];

    DepthProfile {
        horizon,
        mixture_tv_by_depth,
        progress_by_depth,
        per_member_tv,
        speaker_stats: Vec::new(),
        provenance: Provenance::Sampled {
            samples_per_side: samples,
            support_seen,
            support_by_depth: depth_stats.support,
            mixture_singletons_by_depth: depth_stats.singletons_a,
            baseline_singletons_by_depth: depth_stats.singletons_b,
            estimator: TvEstimator::PlugIn,
        },
    }
}

/// How an [`AdaptiveEstimator`] run spent its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveReport {
    /// Seeded batches run before stopping (each extends the previous
    /// batch's sorted keys to a larger budget).
    pub batches: usize,
    /// The per-side budget of the final (returned) estimate.
    pub samples_per_side: usize,
    /// Transcripts actually simulated per side, summed over all batches.
    /// Batches merge incrementally, so this always equals
    /// `samples_per_side` — each transcript is drawn exactly once — where
    /// a from-scratch re-run per batch would have summed every
    /// intermediate budget (up to twice the final one).
    pub samples_drawn: usize,
    /// Whether the final noise floor met the requested tolerance (when
    /// `false`, the hard cap stopped the growth first).
    pub met_tolerance: bool,
}

/// Seeded Monte-Carlo estimation that grows its sample budget until the
/// noise floor meets a tolerance, as an [`Estimator`] — the sampler past
/// the exact walk's node budget.
///
/// Every family member and the baseline draw the same number of
/// transcripts, batched into sorted packed-`u64` histograms (no
/// per-sample hashing; keys pack `w` bits per turn,
/// [`crate::sample::wide_prefix_key`]), and the whole depth profile is
/// read off the sorted keys. The sampler has no node budget, only the key
/// packing limit `horizon × w ≤ 64`. The profile has `horizon + 1`
/// entries over turns (depth `t` is the TV after `t` messages, `t·w`
/// bits). Side `i` of the comparison (the baseline is side 0, member `i`
/// is side `i + 1`) draws from the independent ChaCha stream seeded by
/// [`derive_seed`]`(seed, i)`, so sides can be sampled in any order —
/// which is what lets [`ExecMode::Parallel`] fan them out over rayon while
/// staying bitwise identical to the sequential run.
///
/// Samples in seeded batches of geometrically growing budget — starting
/// at `initial_samples`, at least doubling each batch, and jumping
/// straight to the budget the observed support projects
/// (`support_seen / tolerance²`, or the required depth's support under a
/// [truncated target](AdaptiveEstimator::truncated_target)) when that is
/// larger — until [`DepthProfile::noise_floor`] (or the floor at the
/// required depth) is at most `tolerance` or the budget reaches
/// `max_samples_per_side`. A fixed budget of `s` per side is
/// `AdaptiveEstimator::new(tolerance, s, s, seed)`: the first batch
/// already reaches the cap, so exactly one runs, whatever the tolerance.
///
/// Batches are **incremental**: every side keeps its ChaCha stream and
/// its sorted key array alive across batches, a grown budget draws only
/// the *delta* of new transcripts, sorts that chunk, and merges it into
/// the side's keys (`O(total)` two-pointer merge). Total simulation work
/// is therefore exactly one × the final budget — each transcript is
/// drawn once. Because the continued stream draws the same sample
/// sequence a single batch would, the returned profile is **bitwise
/// identical** to the one-batch run at the final budget: an adaptive run
/// is exactly reproducible from its recorded sample count, which is what
/// lets `bcc-lab` resume interrupted sweeps bit-for-bit.
///
/// Big sweeps spend samples only where they are needed: a point whose
/// distances resolve at the first budget stops immediately, while a point
/// near the noise floor escalates toward the cap.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveEstimator {
    /// The target noise-floor half-width. Non-positive tolerances are
    /// allowed and simply spend the whole cap.
    pub tolerance: f64,
    /// The first batch's per-side budget.
    pub initial_samples: usize,
    /// The hard cap on the per-side budget.
    pub max_samples_per_side: usize,
    /// The root seed shared by every batch.
    pub seed: u64,
    /// How per-side sampling executes within each batch.
    pub mode: ExecMode,
    /// When set, the stopping rule and budget projection target the
    /// deepest **resolvable** prefix instead of the full horizon: the
    /// run stops once [`DepthProfile::noise_floor_at`] meets the
    /// tolerance at the deepest depth whose observed support the hard
    /// cap can resolve (`support_t ≤ tolerance² · max_samples_per_side`),
    /// and the support projection uses that depth's support instead of
    /// the full-horizon `support_seen` — so a saturated deep tail can
    /// no longer force the budget to the cap. Off by default: the legacy
    /// full-horizon rule is bitwise untouched.
    pub truncated_target: bool,
}

impl AdaptiveEstimator {
    /// An adaptive estimator growing from `initial_samples` per side
    /// toward `max_samples_per_side` until the noise floor is at most
    /// `tolerance`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_samples == 0`, if the cap is below the initial
    /// budget, or if `tolerance` is NaN.
    pub fn new(
        tolerance: f64,
        initial_samples: usize,
        max_samples_per_side: usize,
        seed: u64,
    ) -> Self {
        assert!(initial_samples > 0, "need at least one sample per side");
        assert!(
            max_samples_per_side >= initial_samples,
            "cap {max_samples_per_side} below the initial budget {initial_samples}"
        );
        assert!(!tolerance.is_nan(), "tolerance must not be NaN");
        AdaptiveEstimator {
            tolerance,
            initial_samples,
            max_samples_per_side,
            seed,
            mode: ExecMode::Parallel,
            truncated_target: false,
        }
    }

    /// Returns this estimator with the truncated-depth target switched
    /// on (see [`AdaptiveEstimator::truncated_target`]).
    pub fn with_truncated_target(mut self) -> Self {
        self.truncated_target = true;
        self
    }

    /// The deepest prefix depth the truncated target requires: the
    /// deepest depth whose observed support is resolvable within the
    /// hard cap (`support_t ≤ tolerance² · max_samples_per_side`).
    /// `None` when the target is a legacy full-horizon one, the
    /// tolerance is non-positive, or not even depth 0 qualifies.
    fn required_depth(&self, profile: &DepthProfile) -> Option<u32> {
        if !self.truncated_target || self.tolerance <= 0.0 {
            return None;
        }
        let Provenance::Sampled {
            ref support_by_depth,
            ..
        } = profile.provenance
        else {
            return None;
        };
        let resolvable = self.tolerance * self.tolerance * self.max_samples_per_side as f64;
        (0..=profile.horizon)
            .rev()
            .find(|&t| support_by_depth[t as usize] as f64 <= resolvable)
    }

    /// [`Estimator::estimate`] plus the [`AdaptiveReport`] saying how the
    /// budget grew and whether the tolerance was met. The profile is
    /// bitwise the one-batch run's at the final budget, which is what
    /// keeps `bcc-lab`'s sampled sweeps resumable bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, `horizon > protocol.horizon()`, the
    /// budget fields are inconsistent, or `horizon × width` exceeds the
    /// 64-bit key packing.
    pub fn estimate_with_report<P: WideTurnProtocol + Sync + ?Sized>(
        &self,
        protocol: &P,
        members: &[ProductInput],
        baseline: &ProductInput,
        horizon: u32,
    ) -> (DepthProfile, AdaptiveReport) {
        // Mirrors the constructor's checks: the fields are public.
        assert!(!members.is_empty(), "need at least one family member");
        assert!(
            horizon <= protocol.horizon(),
            "horizon {horizon} beyond the protocol's {}",
            protocol.horizon()
        );
        assert!(
            self.initial_samples > 0,
            "need at least one sample per side"
        );
        assert!(
            self.max_samples_per_side >= self.initial_samples,
            "cap {} below the initial budget {}",
            self.max_samples_per_side,
            self.initial_samples
        );
        check_key_packing(horizon, protocol.width());
        let truncated = Truncated {
            inner: protocol,
            horizon,
        };
        self.run_adaptive(&truncated, members, baseline)
    }

    /// The adaptive loop over a protocol already truncated to the
    /// requested horizon: grows the budget in seeded batches, each side's
    /// [`SideSampler`] drawing its next `delta` keys (sorted into its
    /// chunk and merged into its persistent key array).
    ///
    /// The mixture histogram is **also persistent**: each batch merges
    /// the member sides' freshly sorted chunks into one sorted delta and
    /// two-pointer-merges that into the accumulated mixture, so across a
    /// whole run the mixture costs merges only — the radix-sort work of
    /// the entire estimator is exactly the per-side chunk sorts, 1× the
    /// final budget per side (pinned by `crates/core/tests/work.rs` on the
    /// run's scoped `exec.keys_sorted`). The sorted mixture is a pure
    /// function of the key multiset, so the profile is bitwise the same
    /// whichever batch schedule reached the final budget.
    fn run_adaptive<'a, P: WideTurnProtocol + Sync + ?Sized>(
        &self,
        protocol: &P,
        members: &'a [ProductInput],
        baseline: &'a ProductInput,
    ) -> (DepthProfile, AdaptiveReport) {
        let (horizon, bits_per_turn) = (protocol.horizon(), protocol.width());
        // The scope is resolved once on the calling thread; side
        // extension below fans out over rayon, so all work counts are
        // gathered run-locally (in the samplers and in this frame) and
        // flushed coarsely at return — never through thread-locals on
        // worker threads.
        let obs = bcc_obs::current();
        let _run_span = Span::begin_for("exec.adaptive", obs.clone());
        let mut sides: Vec<SideSampler<'a>> = std::iter::once(baseline)
            .chain(members)
            .enumerate()
            .map(|(side, input)| SideSampler::new(input, derive_seed(self.seed, side as u64)))
            .collect();
        let mut mixture: Vec<u64> = Vec::new();
        let mut delta_mix: Vec<u64> = Vec::new();
        let mut merge_scratch: Vec<u64> = Vec::new();
        let mut mixture_merged = 0u64;

        let mut samples = self.initial_samples.min(self.max_samples_per_side);
        let mut batches = 0usize;
        let mut drawn = 0usize;
        loop {
            batches += 1;
            let batch_span = Span::begin_for("exec.adaptive_batch", obs.clone());
            let delta = samples.saturating_sub(drawn);
            let extend = |mut sampler: SideSampler<'a>| {
                sampler.extend(protocol, delta);
                sampler
            };
            sides = match self.mode {
                ExecMode::Parallel => sides.into_par_iter().map(extend).collect(),
                ExecMode::Sequential => sides.into_iter().map(extend).collect(),
            };
            drawn = samples;

            // Fold this batch's member chunks (already sorted by the side
            // samplers — no re-sort) into the persistent mixture: one
            // k-way heap merge writes each chunk key once, where a
            // pairwise fold would re-copy early chunks at every step.
            let chunk_refs: Vec<&[u64]> = sides[1..].iter().map(|s| s.chunk.as_slice()).collect();
            merge_sorted_k_u64(&chunk_refs, &mut delta_mix);
            merge_sorted_u64(&mixture, &delta_mix, &mut merge_scratch);
            std::mem::swap(&mut mixture, &mut merge_scratch);
            // Merge work: the k-way fold writes delta_mix once, the
            // two-pointer merge reads old mixture + delta_mix = the new
            // mixture's length.
            mixture_merged += (delta_mix.len() + mixture.len()) as u64;

            let member_refs: Vec<&[u64]> = sides[1..].iter().map(|s| s.keys.as_slice()).collect();
            let profile = profile_from_sorted_sides(
                horizon,
                bits_per_turn,
                samples,
                &sides[0].keys,
                &member_refs,
                &mixture,
            );
            drop(batch_span);
            // The truncated target asks only that the deepest
            // cap-resolvable prefix meet the tolerance; the default asks
            // the whole horizon to.
            let met = match self.required_depth(&profile) {
                Some(t_req) => profile.noise_floor_at(t_req) <= self.tolerance,
                None => profile.noise_floor() <= self.tolerance,
            };
            if met || samples >= self.max_samples_per_side {
                let report = AdaptiveReport {
                    batches,
                    samples_per_side: samples,
                    // Measured inside the samplers (each counts the
                    // transcripts it actually simulated), not derived
                    // from the budget — so a regression to re-drawing
                    // earlier samples per batch would show up here.
                    samples_drawn: sides[0].drawn,
                    met_tolerance: met,
                };
                if let Some(obs) = &obs {
                    obs.add("exec.runs", Class::Work, 1);
                    obs.add("exec.adaptive.batches", Class::Work, batches as u64);
                    // Every batch but the first follows one budget growth.
                    obs.add(
                        "exec.adaptive.budget_growths",
                        Class::Work,
                        batches as u64 - 1,
                    );
                    // Each drawn key is radix-sorted once, in its chunk.
                    let drawn: u64 = sides.iter().map(|s| s.drawn as u64).sum();
                    obs.add("exec.samples_drawn", Class::Work, drawn);
                    obs.add("exec.keys_sorted", Class::Work, drawn);
                    obs.add(
                        "exec.keys_merged",
                        Class::Work,
                        mixture_merged + sides.iter().map(|s| s.merged).sum::<u64>(),
                    );
                }
                return (profile, report);
            }
            // floor = sqrt(support / samples), so the support seen at this
            // budget projects the budget the tolerance needs. The support
            // itself can still grow, hence the loop; doubling guarantees
            // progress when the projection stalls. A truncated target
            // projects from the support at the deepest depth it actually
            // requires — the full-horizon support may be inflated by
            // depths no budget under the cap could ever resolve.
            let projected = match profile.provenance {
                Provenance::Sampled {
                    support_seen,
                    ref support_by_depth,
                    ..
                } if self.tolerance > 0.0 => {
                    let support = match self.required_depth(&profile) {
                        Some(t_req) => support_by_depth[t_req as usize],
                        None => support_seen,
                    };
                    (support as f64 / (self.tolerance * self.tolerance)).ceil() as usize
                }
                _ => usize::MAX,
            };
            samples = samples
                .saturating_mul(2)
                .max(projected)
                .min(self.max_samples_per_side);
            // A zero-length span doubles as a budget-growth event marker
            // in the trace timeline.
            drop(Span::begin_for("exec.budget_growth", obs.clone()));
        }
    }
}

/// One side's persistent sampling state across adaptive batches: the
/// input distribution it draws from, its derived ChaCha stream, its
/// accumulated sorted keys, and reusable chunk/merge buffers.
struct SideSampler<'a> {
    input: &'a ProductInput,
    rng: ChaCha12Rng,
    keys: Vec<u64>,
    chunk: Vec<u64>,
    scratch: Vec<u64>,
    /// Transcripts this side has actually simulated, counted at the
    /// draw site ([`AdaptiveReport::samples_drawn`]'s source of truth).
    /// Each chunk is sorted once, so this is also the side's radix-sort
    /// work (the scoped `exec.keys_sorted`).
    drawn: usize,
    /// Keys this side's incremental merges wrote (old keys + chunk per
    /// batch) — run-local source of the scoped `exec.keys_merged`.
    merged: u64,
}

impl<'a> SideSampler<'a> {
    fn new(input: &'a ProductInput, seed: u64) -> Self {
        SideSampler {
            input,
            rng: ChaCha12Rng::seed_from_u64(seed),
            keys: Vec::new(),
            chunk: Vec::new(),
            scratch: Vec::new(),
            drawn: 0,
            merged: 0,
        }
    }

    /// Draws `delta` more sorted keys of `protocol` from the continued
    /// stream into the chunk, and merges the chunk into the persistent
    /// sorted keys. A zero `delta` clears the chunk, so stale keys can
    /// never leak into the caller's mixture bookkeeping.
    fn extend<P: WideTurnProtocol + ?Sized>(&mut self, protocol: &P, delta: usize) {
        if delta == 0 {
            self.chunk.clear();
            return;
        }
        let input = self.input;
        collect_sorted_wide_keys(
            protocol,
            |r, inputs| input.sample_into(r, inputs),
            delta,
            &mut self.rng,
            &mut self.chunk,
        );
        self.drawn += self.chunk.len();
        merge_sorted_u64(&self.keys, &self.chunk, &mut self.scratch);
        std::mem::swap(&mut self.keys, &mut self.scratch);
        self.merged += self.keys.len() as u64;
    }
}

impl Estimator for AdaptiveEstimator {
    fn estimate<P: WideTurnProtocol + Sync + ?Sized>(
        &self,
        protocol: &P,
        members: &[ProductInput],
        baseline: &ProductInput,
        horizon: u32,
    ) -> DepthProfile {
        self.estimate_with_report(protocol, members, baseline, horizon)
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::RowSupport;
    use bcc_congest::FnProtocol;

    fn reveal_protocol(n: usize, bits: u32, horizon: u32) -> impl WideTurnProtocol {
        FnProtocol::new(n, bits, horizon, |_, input, tr| {
            (input >> (tr.len() as usize / 2)) & 1 == 1
        })
    }

    /// A fixed budget of `samples` per side: the first batch is already
    /// the cap, so exactly one runs.
    fn fixed(samples: usize, seed: u64) -> AdaptiveEstimator {
        AdaptiveEstimator::new(0.0, samples, samples, seed)
    }

    fn family() -> (Vec<ProductInput>, ProductInput) {
        let members = vec![
            ProductInput::new(vec![
                RowSupport::explicit(3, vec![1, 3, 5, 7]),
                RowSupport::uniform(3),
            ]),
            ProductInput::new(vec![
                RowSupport::uniform(3),
                RowSupport::explicit(3, vec![0, 2]),
            ]),
        ];
        (members, ProductInput::uniform(2, 3))
    }

    #[test]
    fn truncated_horizon_prefixes_the_full_profile() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        let full = ExactEstimator::default().estimate_full(&p, &members, &baseline);
        assert!(full.is_exact());
        assert_eq!(full.noise_floor(), 0.0);
        assert_eq!(full.speaker_stats.len(), 6, "one speaker entry per turn");
        let half = ExactEstimator::default().estimate(&p, &members, &baseline, 3);
        assert_eq!(half.horizon, 3);
        assert_eq!(half.mixture_tv_by_depth.len(), 4);
        for t in 0..=3 {
            assert!(
                (half.mixture_tv_by_depth[t] - full.mixture_tv_by_depth[t]).abs() < 1e-12,
                "depth {t}"
            );
        }
    }

    #[test]
    fn sampled_estimator_is_reproducible_and_close_to_exact() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        let exact = ExactEstimator::default().estimate_full(&p, &members, &baseline);
        let est = fixed(20_000, 0x5EED);
        let a = est.estimate_full(&p, &members, &baseline);
        let b = est.estimate_full(&p, &members, &baseline);
        assert_eq!(
            a.tv().to_bits(),
            b.tv().to_bits(),
            "seeded reruns must agree"
        );
        assert!(!a.is_exact());
        assert!(
            (a.tv() - exact.tv()).abs() <= a.noise_floor() + 0.02,
            "sampled {} vs exact {} (floor {})",
            a.tv(),
            exact.tv(),
            a.noise_floor()
        );
        // Structural invariants survive sampling.
        for t in 0..a.mixture_tv_by_depth.len() {
            assert!(a.mixture_tv_by_depth[t] <= a.progress_by_depth[t] + 1e-12);
        }
        let avg: f64 = a.per_member_tv.iter().sum::<f64>() / a.per_member_tv.len() as f64;
        assert!((a.progress() - avg).abs() < 1e-12);
    }

    #[test]
    fn sampled_profile_shape_matches_request() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        let profile = fixed(2_000, 1).estimate(&p, &members, &baseline, 4);
        assert_eq!(profile.horizon, 4);
        assert_eq!(profile.mixture_tv_by_depth.len(), 5);
        assert_eq!(profile.progress_by_depth.len(), 5);
        assert_eq!(profile.per_member_tv.len(), 2);
        assert!(profile.speaker_stats.is_empty());
        assert!(profile.noise_floor() > 0.0);
        assert!(profile.mixture_tv_by_depth[0].abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_sample_estimator_rejected() {
        let _ = fixed(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_sample_struct_literal_rejected_at_estimate() {
        // The fields are public, so the constructor check can be
        // bypassed; estimate() must re-check rather than emit NaNs.
        let p = reveal_protocol(2, 3, 4);
        let (members, baseline) = family();
        let est = AdaptiveEstimator {
            initial_samples: 0,
            max_samples_per_side: 0,
            ..fixed(1, 1)
        };
        let _ = est.estimate_full(&p, &members, &baseline);
    }

    #[test]
    fn sampled_parallel_matches_sequential_bitwise() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        let par = fixed(4_000, 9).estimate_full(&p, &members, &baseline);
        let seq = AdaptiveEstimator {
            mode: ExecMode::Sequential,
            ..fixed(4_000, 9)
        }
        .estimate_full(&p, &members, &baseline);
        for t in 0..par.mixture_tv_by_depth.len() {
            assert_eq!(
                par.mixture_tv_by_depth[t].to_bits(),
                seq.mixture_tv_by_depth[t].to_bits(),
                "mixture tv differs at depth {t}"
            );
            assert_eq!(
                par.progress_by_depth[t].to_bits(),
                seq.progress_by_depth[t].to_bits(),
                "progress differs at depth {t}"
            );
        }
        for i in 0..par.per_member_tv.len() {
            assert_eq!(
                par.per_member_tv[i].to_bits(),
                seq.per_member_tv[i].to_bits(),
                "member {i} differs"
            );
        }
        assert_eq!(par.provenance, seq.provenance);
    }

    #[test]
    fn derive_seed_separates_streams() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
        // The root itself is never a stream seed (side 0 is derived too).
        assert_ne!(derive_seed(7, 0), 7);
    }

    #[test]
    fn adaptive_stops_at_tolerance_and_matches_one_shot() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        let adaptive = AdaptiveEstimator::new(0.2, 100, 1 << 20, 0x5EED);
        let (profile, report) = adaptive.estimate_with_report(&p, &members, &baseline, 6);
        assert!(report.met_tolerance, "report: {report:?}");
        assert!(profile.noise_floor() <= 0.2);
        assert!(report.samples_per_side < 1 << 20, "cap should not bind");
        // The adaptive result is bitwise the single-batch estimate at the
        // final budget — the property sweep resumption relies on.
        let single = fixed(report.samples_per_side, 0x5EED).estimate_full(&p, &members, &baseline);
        assert_eq!(profile.tv().to_bits(), single.tv().to_bits());
        assert_eq!(profile.progress().to_bits(), single.progress().to_bits());
    }

    #[test]
    fn adaptive_is_deterministic_under_a_fixed_seed() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        let adaptive = AdaptiveEstimator::new(0.15, 64, 1 << 18, 42);
        let (a, ra) = adaptive.estimate_with_report(&p, &members, &baseline, 6);
        let (b, rb) = adaptive.estimate_with_report(&p, &members, &baseline, 6);
        assert_eq!(ra, rb);
        assert_eq!(a.tv().to_bits(), b.tv().to_bits());
    }

    #[test]
    fn adaptive_terminates_at_the_cap_when_tolerance_is_unreachable() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        // Tolerance no sampled run can meet: the cap must stop the growth.
        let adaptive = AdaptiveEstimator::new(1e-6, 50, 400, 3);
        let (profile, report) = adaptive.estimate_with_report(&p, &members, &baseline, 6);
        assert!(!report.met_tolerance);
        assert_eq!(report.samples_per_side, 400);
        assert!(profile.noise_floor() > 1e-6);
        match profile.provenance {
            Provenance::Sampled {
                samples_per_side, ..
            } => assert_eq!(samples_per_side, 400),
            Provenance::Exact => panic!("adaptive runs are sampled"),
        }
    }

    #[test]
    fn noise_floor_is_clamped_to_the_tv_bound() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        // A starved budget: the union support across three sides of 8
        // samples each exceeds the per-side budget, so the unclamped
        // plug-in scale sqrt(support / 8) would sit above 1 — vacuous
        // for a distance bounded by 1.
        let profile = fixed(8, 0xC1A).estimate_full(&p, &members, &baseline);
        let Provenance::Sampled {
            samples_per_side,
            support_seen,
            ..
        } = profile.provenance
        else {
            panic!("sampled run");
        };
        assert!(
            (support_seen as f64 / samples_per_side as f64).sqrt() > 1.0,
            "want a saturated support for this test: {support_seen} over {samples_per_side}"
        );
        assert_eq!(profile.noise_floor(), 1.0, "clamped, not saturated");
        for t in 0..=profile.horizon {
            assert!(profile.noise_floor_at(t) <= 1.0);
        }
    }

    #[test]
    fn zero_sample_provenance_floors_stay_infinite() {
        // Degenerate provenance (constructed directly; the estimators
        // reject samples == 0): the floors must be +inf, not NaN or a
        // clamped 1 pretending information exists.
        let profile = DepthProfile {
            horizon: 1,
            mixture_tv_by_depth: vec![0.0, 0.0],
            progress_by_depth: vec![0.0, 0.0],
            per_member_tv: vec![0.0],
            speaker_stats: Vec::new(),
            provenance: Provenance::Sampled {
                samples_per_side: 0,
                support_seen: 0,
                support_by_depth: vec![0, 0],
                mixture_singletons_by_depth: vec![0, 0],
                baseline_singletons_by_depth: vec![0, 0],
                estimator: TvEstimator::PlugIn,
            },
        };
        assert_eq!(profile.noise_floor(), f64::INFINITY);
        assert_eq!(profile.noise_floor_at(0), f64::INFINITY);
        assert_eq!(profile.resolved_horizon(0.5), 0);
    }

    #[test]
    fn depth_floors_are_monotone_and_bound_the_headline_floor() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        let profile = fixed(2_000, 0x0DD).estimate_full(&p, &members, &baseline);
        for t in 1..=profile.horizon {
            assert!(
                profile.noise_floor_at(t) >= profile.noise_floor_at(t - 1),
                "floors must be nondecreasing in depth"
            );
        }
        assert_eq!(
            profile.noise_floor(),
            profile.noise_floor_at(profile.horizon),
            "the headline floor is the deepest depth's"
        );
        // Depth 0 is a single group: essentially free to resolve.
        assert!(profile.noise_floor_at(0) < 0.05);
    }

    #[test]
    fn resolved_horizon_is_the_deepest_depth_meeting_the_tolerance() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        let profile = fixed(64, 0xFAB).estimate_full(&p, &members, &baseline);
        // Pick a tolerance strictly between the shallowest and deepest
        // floors so the resolved horizon is a proper prefix.
        let tol = (profile.noise_floor_at(0) + profile.noise_floor()) / 2.0;
        let resolved = profile.resolved_horizon(tol);
        assert!(resolved < profile.horizon, "want a truncating tolerance");
        for t in 0..=resolved {
            assert!(profile.noise_floor_at(t) <= tol);
        }
        assert!(profile.noise_floor_at(resolved + 1) > tol);
        // Exact profiles resolve everything.
        let exact = ExactEstimator::default().estimate_full(&p, &members, &baseline);
        assert_eq!(exact.resolved_horizon(0.0), exact.horizon);
    }

    #[test]
    fn smoothed_profiles_subtract_singletons_and_never_raise_the_floor() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        let plugin = fixed(64, 0x6007).estimate_full(&p, &members, &baseline);
        let smoothed = plugin.smoothed();
        let Provenance::Sampled { estimator, .. } = smoothed.provenance else {
            panic!("sampled run");
        };
        assert_eq!(
            estimator,
            TvEstimator::Smoothed,
            "provenance records the estimator"
        );
        for t in 0..=plugin.horizon {
            let i = t as usize;
            assert!(
                smoothed.mixture_tv_by_depth[i] <= plugin.mixture_tv_by_depth[i] + 1e-15,
                "smoothing only removes singleton inflation"
            );
            assert!(smoothed.mixture_tv_by_depth[i] >= 0.0);
            assert!(
                smoothed.noise_floor_at(t) <= plugin.noise_floor_at(t) + 1e-15,
                "the smoothed floor never exceeds the plug-in floor"
            );
        }
        // A partially resolved budget leaves the deepest depths
        // singleton-inflated: the smoothed floor there must be strictly
        // sharper than the plug-in one, not just no worse.
        assert!(smoothed.noise_floor() < plugin.noise_floor());
        // Exact profiles need no smoothing.
        let exact = ExactEstimator::default().estimate_full(&p, &members, &baseline);
        assert_eq!(
            exact.smoothed().mixture_tv_by_depth,
            exact.mixture_tv_by_depth
        );
    }

    #[test]
    fn truncated_target_meets_at_the_resolvable_prefix_with_less_budget() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        // A tolerance the full-horizon support cannot meet under this
        // cap, while a shallow prefix can: the legacy rule caps out
        // unmet, the truncated rule stops early and met.
        let legacy = AdaptiveEstimator::new(0.3, 32, 512, 0x77);
        let truncated = legacy.with_truncated_target();
        let (lp, lr) = legacy.estimate_with_report(&p, &members, &baseline, 6);
        let (tp, tr) = truncated.estimate_with_report(&p, &members, &baseline, 6);
        assert!(!lr.met_tolerance, "full-horizon target is unreachable here");
        assert_eq!(lr.samples_per_side, 512, "legacy spends the whole cap");
        assert!(lp.noise_floor() > 0.3);
        assert!(
            tr.met_tolerance,
            "the resolvable prefix meets the tolerance"
        );
        assert!(
            tr.samples_per_side < lr.samples_per_side,
            "truncated target must stop before the cap: {tr:?} vs {lr:?}"
        );
        assert!(tp.resolved_horizon(0.3) >= 1, "a nonempty prefix resolved");
        // The truncated run is still bitwise the single batch at its final
        // budget — truncation changes when to stop, never the numbers.
        let single = fixed(tr.samples_per_side, 0x77).estimate_full(&p, &members, &baseline);
        for t in 0..tp.mixture_tv_by_depth.len() {
            assert_eq!(
                tp.mixture_tv_by_depth[t].to_bits(),
                single.mixture_tv_by_depth[t].to_bits(),
                "depth {t}"
            );
        }
        assert_eq!(tp.provenance, single.provenance);
    }

    #[test]
    fn truncated_projection_never_regresses_the_projected_work() {
        // The budget-growth pin for the projection fix: the truncated
        // target projects from the support at the depth it requires, so
        // across a grid of tolerances it never spends more samples than
        // the legacy full-horizon rule (it may take *more, smaller*
        // growth steps — each growth is counted and cross-checked
        // against the report, but work is what must not regress).
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        for (i, tol) in [0.5, 0.3, 0.2, 0.1].into_iter().enumerate() {
            let legacy = AdaptiveEstimator::new(tol, 32, 1 << 12, 0xB0B ^ i as u64);
            let truncated = legacy.with_truncated_target();
            let growths_of = |est: &AdaptiveEstimator| {
                let registry = bcc_obs::Registry::new();
                let scope = registry.install();
                let (_, report) = est.estimate_with_report(&p, &members, &baseline, 6);
                drop(scope);
                (
                    registry
                        .snapshot()
                        .work_counter("exec.adaptive.budget_growths"),
                    report,
                )
            };
            let (legacy_growths, legacy_report) = growths_of(&legacy);
            let (trunc_growths, trunc_report) = growths_of(&truncated);
            assert_eq!(
                legacy_growths as usize,
                legacy_report.batches - 1,
                "tol {tol}: the growth counter must match the report"
            );
            assert_eq!(trunc_growths as usize, trunc_report.batches - 1);
            assert!(
                trunc_report.samples_per_side <= legacy_report.samples_per_side,
                "tol {tol}: truncated target budgeted more than legacy"
            );
            assert!(
                trunc_report.samples_drawn <= legacy_report.samples_drawn,
                "tol {tol}: truncated target drew more than legacy"
            );
        }
    }

    #[test]
    fn adaptive_with_zero_tolerance_spends_the_whole_cap() {
        let p = reveal_protocol(2, 3, 4);
        let (members, baseline) = family();
        let adaptive = AdaptiveEstimator::new(0.0, 32, 128, 5);
        let (_, report) = adaptive.estimate_with_report(&p, &members, &baseline, 4);
        assert_eq!(report.samples_per_side, 128);
        assert!(!report.met_tolerance);
        // Growth is geometric (with projection jumps), so the batch count
        // stays logarithmic in cap/initial.
        assert!(report.batches <= 4, "batches: {}", report.batches);
    }

    #[test]
    fn adaptive_incremental_work_is_one_x_final_budget() {
        // Force several batches (unreachable tolerance, cap binds): the
        // incremental merge must have simulated each transcript exactly
        // once — total draws equal the final budget, not the sum of all
        // intermediate budgets — while the profile stays bitwise the
        // single-batch run at that budget.
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        let adaptive = AdaptiveEstimator::new(1e-9, 64, 2048, 0xFEED);
        let (profile, report) = adaptive.estimate_with_report(&p, &members, &baseline, 6);
        assert!(report.batches > 1, "want a multi-batch run: {report:?}");
        assert_eq!(report.samples_per_side, 2048);
        assert_eq!(
            report.samples_drawn, report.samples_per_side,
            "incremental batches must not re-simulate earlier samples"
        );
        let (single, single_report) =
            fixed(2048, 0xFEED).estimate_with_report(&p, &members, &baseline, 6);
        assert_eq!(single_report.batches, 1, "initial = cap runs one batch");
        for t in 0..profile.mixture_tv_by_depth.len() {
            assert_eq!(
                profile.mixture_tv_by_depth[t].to_bits(),
                single.mixture_tv_by_depth[t].to_bits(),
                "depth {t}"
            );
            assert_eq!(
                profile.progress_by_depth[t].to_bits(),
                single.progress_by_depth[t].to_bits(),
                "depth {t}"
            );
        }
        assert_eq!(profile.per_member_tv, single.per_member_tv);
        assert_eq!(profile.provenance, single.provenance);
    }

    #[test]
    fn adaptive_incremental_parallel_matches_sequential_bitwise() {
        let p = reveal_protocol(2, 3, 6);
        let (members, baseline) = family();
        let par = AdaptiveEstimator::new(1e-9, 50, 1600, 21);
        let seq = AdaptiveEstimator {
            mode: ExecMode::Sequential,
            ..par
        };
        let (pp, rp) = par.estimate_with_report(&p, &members, &baseline, 6);
        let (sp, rs) = seq.estimate_with_report(&p, &members, &baseline, 6);
        assert_eq!(rp, rs);
        for t in 0..pp.mixture_tv_by_depth.len() {
            assert_eq!(
                pp.mixture_tv_by_depth[t].to_bits(),
                sp.mixture_tv_by_depth[t].to_bits(),
                "depth {t}"
            );
        }
        assert_eq!(pp.per_member_tv, sp.per_member_tv);
    }

    #[test]
    #[should_panic(expected = "below the initial budget")]
    fn adaptive_rejects_cap_below_initial() {
        let _ = AdaptiveEstimator::new(0.1, 100, 50, 1);
    }

    #[test]
    fn wide_sampled_estimator_is_reproducible_and_close_to_exact() {
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 3, 2, 6, |_, input, tr| (input >> (tr.len() % 2)) & 0b11);
        let (members, baseline) = family();
        let exact = ExactEstimator::default().estimate_full(&p, &members, &baseline);
        let est = fixed(20_000, 0x5EED);
        let a = est.estimate_full(&p, &members, &baseline);
        let b = est.estimate_full(&p, &members, &baseline);
        assert_eq!(
            a.tv().to_bits(),
            b.tv().to_bits(),
            "seeded reruns must agree"
        );
        assert!(!a.is_exact());
        assert!(
            (a.tv() - exact.tv()).abs() <= a.noise_floor() + 0.02,
            "sampled {} vs exact {} (floor {})",
            a.tv(),
            exact.tv(),
            a.noise_floor()
        );
        for t in 0..a.mixture_tv_by_depth.len() {
            assert!(a.mixture_tv_by_depth[t] <= a.progress_by_depth[t] + 1e-12);
        }
        let avg: f64 = a.per_member_tv.iter().sum::<f64>() / a.per_member_tv.len() as f64;
        assert!((a.progress() - avg).abs() < 1e-12);
    }

    #[test]
    fn wide_sampled_profile_shape_matches_request() {
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 3, 2, 6, |_, input, tr| (input >> (tr.len() % 2)) & 0b11);
        let (members, baseline) = family();
        let profile = fixed(2_000, 1).estimate(&p, &members, &baseline, 4);
        assert_eq!(profile.horizon, 4);
        assert_eq!(profile.mixture_tv_by_depth.len(), 5);
        assert_eq!(profile.progress_by_depth.len(), 5);
        assert_eq!(profile.per_member_tv.len(), 2);
        assert!(profile.speaker_stats.is_empty());
        assert!(profile.noise_floor() > 0.0);
        assert!(profile.mixture_tv_by_depth[0].abs() < 1e-12);
    }

    #[test]
    fn wide_sampled_parallel_matches_sequential_bitwise() {
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 3, 3, 5, |_, input, tr| (input >> (tr.len() % 2)) & 0b111);
        let (members, baseline) = family();
        let par = fixed(4_000, 9).estimate_full(&p, &members, &baseline);
        let seq = AdaptiveEstimator {
            mode: ExecMode::Sequential,
            ..fixed(4_000, 9)
        }
        .estimate_full(&p, &members, &baseline);
        for t in 0..par.mixture_tv_by_depth.len() {
            assert_eq!(
                par.mixture_tv_by_depth[t].to_bits(),
                seq.mixture_tv_by_depth[t].to_bits(),
                "mixture tv differs at depth {t}"
            );
            assert_eq!(
                par.progress_by_depth[t].to_bits(),
                seq.progress_by_depth[t].to_bits(),
                "progress differs at depth {t}"
            );
        }
        for i in 0..par.per_member_tv.len() {
            assert_eq!(
                par.per_member_tv[i].to_bits(),
                seq.per_member_tv[i].to_bits(),
                "member {i} differs"
            );
        }
        assert_eq!(par.provenance, seq.provenance);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_sample_wide_estimator_rejected() {
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 3, 2, 4, |_, input, _| input & 0b11);
        let (members, baseline) = family();
        let est = AdaptiveEstimator {
            initial_samples: 0,
            max_samples_per_side: 0,
            ..fixed(1, 1)
        };
        let _ = est.estimate_full(&p, &members, &baseline);
    }

    #[test]
    fn wide_adaptive_matches_one_shot_at_the_final_budget() {
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 3, 2, 6, |_, input, tr| (input >> (tr.len() % 2)) & 0b11);
        let (members, baseline) = family();
        // Unreachable tolerance, cap binds: forces a multi-batch run, the
        // regime where incremental merging could diverge from a single batch.
        let adaptive = AdaptiveEstimator::new(1e-9, 64, 2048, 0xFEED);
        let (profile, report) = adaptive.estimate_with_report(&p, &members, &baseline, 6);
        assert!(report.batches > 1, "want a multi-batch run: {report:?}");
        assert_eq!(report.samples_per_side, 2048);
        assert_eq!(
            report.samples_drawn, report.samples_per_side,
            "incremental batches must not re-simulate earlier samples"
        );
        let single = fixed(2048, 0xFEED).estimate_full(&p, &members, &baseline);
        for t in 0..profile.mixture_tv_by_depth.len() {
            assert_eq!(
                profile.mixture_tv_by_depth[t].to_bits(),
                single.mixture_tv_by_depth[t].to_bits(),
                "depth {t}"
            );
            assert_eq!(
                profile.progress_by_depth[t].to_bits(),
                single.progress_by_depth[t].to_bits(),
                "depth {t}"
            );
        }
        assert_eq!(profile.per_member_tv, single.per_member_tv);
        assert_eq!(profile.provenance, single.provenance);
    }

    #[test]
    fn wide_adaptive_stops_at_tolerance() {
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 3, 2, 4, |_, input, tr| (input >> (tr.len() % 2)) & 0b11);
        let (members, baseline) = family();
        let adaptive = AdaptiveEstimator::new(0.2, 100, 1 << 20, 0x5EED);
        let (profile, report) = adaptive.estimate_with_report(&p, &members, &baseline, 4);
        assert!(report.met_tolerance, "report: {report:?}");
        assert!(profile.noise_floor() <= 0.2);
        assert!(report.samples_per_side < 1 << 20, "cap should not bind");
    }

    #[test]
    fn wide_adaptive_parallel_matches_sequential_bitwise() {
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 3, 2, 6, |_, input, tr| (input >> (tr.len() % 2)) & 0b11);
        let (members, baseline) = family();
        let par = AdaptiveEstimator::new(1e-9, 50, 1600, 21);
        let seq = AdaptiveEstimator {
            mode: ExecMode::Sequential,
            ..par
        };
        let (pp, rp) = par.estimate_with_report(&p, &members, &baseline, 6);
        let (sp, rs) = seq.estimate_with_report(&p, &members, &baseline, 6);
        assert_eq!(rp, rs);
        for t in 0..pp.mixture_tv_by_depth.len() {
            assert_eq!(
                pp.mixture_tv_by_depth[t].to_bits(),
                sp.mixture_tv_by_depth[t].to_bits(),
                "depth {t}"
            );
        }
        assert_eq!(pp.per_member_tv, sp.per_member_tv);
    }

    #[test]
    #[should_panic(expected = "exceeds the u64 key packing")]
    fn wide_sampled_rejects_overflowing_packings() {
        use bcc_congest::wide::{WideTranscript, WideTurnProtocol};
        struct Overflowing;
        impl WideTurnProtocol for Overflowing {
            fn n(&self) -> usize {
                1
            }
            fn input_bits(&self) -> u32 {
                1
            }
            fn width(&self) -> u32 {
                16
            }
            fn horizon(&self) -> u32 {
                5
            }
            fn message(&self, _: usize, input: u64, _: &WideTranscript) -> u64 {
                input
            }
        }
        let a = ProductInput::uniform(1, 1);
        let _ = fixed(10, 1).estimate_full(&Overflowing, std::slice::from_ref(&a), &a);
    }

    #[test]
    fn wide_truncated_horizon_prefixes_the_full_profile() {
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 3, 2, 6, |_, input, tr| (input >> (tr.len() % 2)) & 0b11);
        let (members, baseline) = family();
        let full = ExactEstimator::default().estimate_full(&p, &members, &baseline);
        assert!(full.is_exact());
        assert_eq!(full.noise_floor(), 0.0);
        assert_eq!(full.speaker_stats.len(), 6, "one speaker entry per turn");
        let half = ExactEstimator::default().estimate(&p, &members, &baseline, 3);
        assert_eq!(half.horizon, 3);
        assert_eq!(half.mixture_tv_by_depth.len(), 4);
        for t in 0..=3 {
            assert!(
                (half.mixture_tv_by_depth[t] - full.mixture_tv_by_depth[t]).abs() < 1e-12,
                "depth {t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "beyond the protocol")]
    fn wide_over_long_horizon_rejected() {
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 3, 2, 4, |_, input, _| input & 0b11);
        let (members, baseline) = family();
        let _ = ExactEstimator::default().estimate(&p, &members, &baseline, 5);
    }

    #[test]
    #[should_panic(expected = "beyond the protocol")]
    fn over_long_horizon_rejected() {
        let p = reveal_protocol(2, 3, 4);
        let (members, baseline) = family();
        let _ = ExactEstimator::default().estimate(&p, &members, &baseline, 5);
    }

    #[test]
    fn exact_estimator_accepts_a_bit_protocol_at_the_node_budget() {
        // Width 1, horizon 25: 2^26 - 1 potential nodes, the deepest bit
        // walk the budget admits. The single input bit pins after one
        // turn, so the live tree is tiny.
        let p = FnProtocol::new(1, 1, 25, |_, input, _| input == 1);
        let a = ProductInput::uniform(1, 1);
        let profile = ExactEstimator::default().estimate_full(&p, std::slice::from_ref(&a), &a);
        assert_eq!(profile.horizon, 25);
        assert!(profile.tv().abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "beyond the 67108864-node budget")]
    fn exact_estimator_refuses_a_bit_protocol_past_the_node_budget() {
        // Horizon 26 prices 2^27 - 1 potential nodes: refused by the same
        // guard as every width, before any walking.
        let p = FnProtocol::new(1, 1, 26, |_, input, _| input == 1);
        let a = ProductInput::uniform(1, 1);
        let _ = ExactEstimator::default().estimate_full(&p, std::slice::from_ref(&a), &a);
    }
}
