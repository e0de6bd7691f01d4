//! The paper's analytic framework, made executable.
//!
//! Chen & Grossman's method (§3, "Abstract Framework") for proving that an
//! input distribution `A_pseudo` is indistinguishable from uniform by a
//! low-round `BCAST(1)` protocol:
//!
//! 1. **Decompose** `A_pseudo = (1/|I|) Σ_{I∈I} A_I` into *row-independent*
//!    distributions (each processor's input independent of the others once
//!    `I` — a clique `C`, a secret vector `b`, a secret matrix `M` — is
//!    fixed).
//! 2. **Track the progress function**
//!    `L_progress^{(t)} = E_I ‖P_I^{(t)} − P_rand^{(t)}‖`, which upper
//!    bounds the real distance `‖P_pseudo^{(t)} − P_rand^{(t)}‖` by the
//!    triangle inequality.
//! 3. **Bound the per-turn increase** via a statistical inequality on the
//!    speaker's *consistent input set* `D_p^{(t)}` (Lemma 1.9 plus a
//!    lemma in the "Required Lemma Format").
//!
//! Because row independence makes the transcript probability factorize,
//! every quantity in that outline is *exactly computable* for small
//! instances by walking the transcript tree once — that walk is
//! [`engine`]'s, run by [`exec::ExactEstimator`]. It returns the exact
//! distance, the per-turn progress function, and the consistent-set-size
//! statistics of Claims 2/4/6, all in one pass. [`sample`] provides the
//! Monte-Carlo sampling used beyond exact reach.
//!
//! There is one transcript model: the engine, the samplers and the
//! estimators all take `BCAST(w)` turn protocols
//! ([`bcc_congest::wide::WideTurnProtocol`]), and `BCAST(1)` is the
//! width-1 case (footnote 2 of the paper): a bit protocol is a
//! [`bcc_congest::FnProtocol`], which is a width-1 `WideTurnProtocol`.
//!
//! Input distributions enter as [`input::ProductInput`] — one uniform
//! support per processor ([`input::RowSupport`]); `bcc-planted` and
//! `bcc-prg` build these for the planted-clique and PRG families.
//!
//! Callers normally go through the unified execution backend in [`exec`]:
//! an [`exec::Estimator`] (the exact walk or the adaptive sampler, whose
//! one-batch form is the fixed-budget estimate) turns a
//! `(protocol, family, baseline)` query into a [`exec::DepthProfile`] over
//! the protocol's own horizon, so experiment code never chooses between the
//! engine and the sampler by hand. Every transcript distance in the crate
//! is a `DepthProfile` — the pair sampler for dependent-row inputs
//! ([`sample::sampled_comparison_with`]) and the seed-walk oracle
//! ([`engine::exact_mixture_comparison_reference`]) return one too.

#![forbid(unsafe_code)]

pub mod engine;
pub mod exec;
pub mod input;
pub mod sample;
pub mod walk;
pub mod wide;

pub use engine::exact_mixture_comparison_reference;
pub use exec::{
    derive_seed, AdaptiveEstimator, AdaptiveReport, DepthProfile, Estimator, ExactEstimator,
    Provenance,
};
pub use input::{ProductInput, RowSupport};
pub use sample::{radix_sort_u64, sampled_comparison_with, wide_prefix_key};
pub use walk::adaptive_split_depth;
pub use wide::{wide_walk_nodes, MAX_WIDE_NODES};
