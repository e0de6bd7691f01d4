//! `bcc-lab` — scenario-sweep orchestration for the Chen & Grossman
//! reproduction.
//!
//! Every quantitative claim in the paper is a *family* of measurements —
//! a transcript distance, a success rate or a throughput as a function of
//! `(n, k, rounds, bandwidth, seed)`. This crate is the layer that runs
//! such families at scale instead of one hand-coded point at a time:
//!
//! 1. **Declare** what to measure: a [`Scenario`] names a [`Workload`]
//!    (protocol family + input distributions), a [`ParamGrid`] over the
//!    five shared axes, and a [`Precision`] target.
//! 2. **Estimate adaptively**: each point grows its sample budget in
//!    seeded batches (via [`bcc_core::AdaptiveEstimator`] for distance
//!    workloads) until the uncertainty half-width meets the scenario's
//!    tolerance or a hard cap binds — big sweeps spend samples only where
//!    distances are close.
//! 3. **Schedule in parallel**: points fan out over rayon; every point's
//!    randomness is derived purely from its own coordinates, so thread
//!    count and completion order cannot change a bit of the results.
//! 4. **Persist and resume**: completed points append to
//!    `records.jsonl` under `target/lab/<run-name>/` as they finish;
//!    re-running a half-written directory recomputes only the missing
//!    points and reproduces the interrupted run's estimates bit-for-bit.
//!
//! ```
//! use bcc_lab::{Scenario, Workload};
//!
//! let scenario = Scenario::builder("doc-sweep")
//!     .workload(Workload::RankDistance { members: 2 })
//!     .n(&[1024, 2048])
//!     .k(&[4])
//!     .rounds(&[8])
//!     .seeds(&[1, 2])
//!     .tolerance(0.35)
//!     .initial_samples(512)
//!     .max_samples(1 << 14)
//!     .build();
//! let result = scenario.sweep_ephemeral(); // `.sweep()` to persist
//! assert_eq!(result.records.len(), 4);
//! assert!(result.all_met_tolerance());
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod run;
pub mod scenario;
pub mod store;
pub mod sweep;

pub use analysis::{aggregate, render_json, render_text, write_aggregates, Aggregate};
pub use run::{decode_depth_floors, encode_depth_floors, run_point, PointRecord};
pub use scenario::{
    ParamGrid, Precision, Scenario, ScenarioBuilder, ScenarioPoint, Workload, MAX_TRANSCRIPT_TURNS,
};
pub use store::{decode_record, encode_record_deterministic, records_fingerprint, RunStore};
pub use sweep::{run_sweep, SweepResult};
