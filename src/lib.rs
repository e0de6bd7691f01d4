//! # bcc — Broadcast Congested Clique: Planted Cliques and Pseudorandom Generators
//!
//! A reproduction of Chen & Grossman, *Broadcast Congested Clique: Planted
//! Cliques and Pseudorandom Generators* (PODC 2019, arXiv:1905.07780), as a
//! Rust workspace. This facade crate re-exports every member crate under one
//! name so that examples and downstream users can depend on a single crate.
//!
//! * [`f2`] — bit-packed F₂ linear algebra (vectors, matrices, rank, solving).
//! * [`stats`] — discrete distributions, statistical distance, information
//!   theory, Boolean Fourier analysis.
//! * [`congest`] — the Broadcast Congested Clique model: `BCAST(b)` rounds,
//!   transcripts, deterministic and randomized protocols.
//! * [`graphs`] — directed random graphs and the planted-clique input
//!   distributions `A_rand`, `A_C`, `A_k`.
//! * [`core`] — the paper's analytic framework: row-independent input
//!   families, the exact transcript-distribution engine, progress functions.
//! * [`prg`] — the pseudorandom generator that fools the model, the
//!   derandomization transform, Newman's theorem, and the seed-length attack.
//! * [`planted`] — planted-clique protocols (upper bounds) and the
//!   lower-bound experiments.
//! * [`lab`] — scenario-sweep orchestration: declarative parameter grids,
//!   adaptive-precision estimation, parallel scheduling and resumable
//!   JSONL run records.
//! * [`obs`] — observability: per-run registries of deterministic work
//!   counters and wall-clock spans, Chrome-trace emission (`BCC_TRACE`),
//!   and the `metrics.json` snapshots `lab` writes per sweep.
//!
//! # Quickstart
//!
//! ```
//! use bcc::prg::MatrixPrg;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Stretch k = 16 seed bits per processor to m = 64 pseudorandom bits.
//! let prg = MatrixPrg::new(8, 16, 64).unwrap();
//! let mut rng = StdRng::seed_from_u64(1);
//! let run = prg.run(&mut rng);
//! assert_eq!(run.outputs.len(), 8);
//! assert_eq!(run.outputs[0].len(), 64);
//! ```

#![forbid(unsafe_code)]

pub use bcc_congest as congest;
pub use bcc_core as core;
pub use bcc_f2 as f2;
pub use bcc_graphs as graphs;
pub use bcc_lab as lab;
pub use bcc_obs as obs;
pub use bcc_planted as planted;
pub use bcc_prg as prg;
pub use bcc_stats as stats;

/// README.md's Rust blocks, compiled and run as doctests so the README's
/// examples cannot go stale.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
