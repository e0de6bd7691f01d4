//! Probability and information-theory toolkit for the Broadcast Congested
//! Clique reproduction.
//!
//! Everything the paper's analysis manipulates lives here:
//!
//! * [`dist`] — finite discrete distributions and **total-variation
//!   (statistical) distance** `‖D₁ − D₂‖ = ½ Σ |D₁(x) − D₂(x)|` (§2.1),
//!   including the chain-rule bound of Lemma 1.9;
//! * [`info`] — entropy, mutual information (with the KL form of
//!   Fact 2.1), KL divergence, Pinsker's inequality (Lemma 2.2), binary
//!   entropy and Fact 2.3;
//! * [`fourier`] — the Walsh–Hadamard transform on the Boolean cube and
//!   Parseval's identity (§2.2), which power the PRG analysis (Lemma 5.2);
//! * [`boolfn`] — truth-table Boolean functions `f : {0,1}^w → {0,1}` with
//!   the function families the lemma experiments evaluate (majority,
//!   threshold, parity, dictator, random);
//! * [`sampling`] — a running mean with its Hoeffding confidence radius,
//!   and value histograms, for the Monte-Carlo side of the experiments.

#![forbid(unsafe_code)]

pub mod boolfn;
pub mod chernoff;
pub mod dist;
pub mod fourier;
pub mod info;
pub mod sampling;

pub use boolfn::TruthTable;
pub use dist::{tv_bernoulli, Dist};
