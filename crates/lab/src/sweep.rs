//! The parallel sweep scheduler: grid points out over rayon, records back
//! in canonical order.
//!
//! The scheduler enumerates the scenario's grid (the canonical
//! lexicographic order of [`crate::ParamGrid::points`]), subtracts every
//! point the run directory already has a valid record for, fans the rest
//! out over the rayon pool, and appends each record to the store the
//! moment its point completes. Because every point draws from streams
//! derived purely from its own coordinates, scheduling order —
//! interruption and resume history included — cannot change a single
//! bit of the estimates; the returned records are always in canonical
//! `point_id` order regardless of completion order. Sampled workloads
//! are additionally thread-count independent; the exact-walk workload's
//! floats depend on the walk's adaptive frontier depth, which the
//! manifest fingerprint pins (see [`crate::Scenario::fingerprint`]), so
//! a resume on a machine where that depth differs refuses instead of
//! mixing records.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Mutex;

use rayon::prelude::*;

use crate::run::{run_point, PointRecord};
use crate::scenario::Scenario;
use crate::store::RunStore;

/// The outcome of a sweep: every grid point's record, in canonical order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One record per grid point, ordered by `point_id`.
    pub records: Vec<PointRecord>,
    /// Points loaded from the run directory instead of recomputed.
    pub resumed: usize,
    /// Points computed by this invocation.
    pub computed: usize,
    /// Log lines the store dropped while compacting on open — torn
    /// tails of an interrupted run, foreign garbage, superseded
    /// duplicates. Zero for ephemeral sweeps and clean directories.
    pub healed: usize,
    /// The sweep's observability snapshot: deterministic work counters
    /// (walk/exec/kernel/lab) and wall-clock span histograms.
    /// Also written as `metrics.json` next to `records.jsonl` when the
    /// sweep persists.
    pub metrics: bcc_obs::Snapshot,
}

impl SweepResult {
    /// Whether every point's uncertainty met the scenario tolerance.
    pub fn all_met_tolerance(&self) -> bool {
        self.records.iter().all(|r| r.met_tolerance)
    }

    /// The worst per-point uncertainty in the sweep.
    pub fn max_noise_floor(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.noise_floor)
            .fold(0.0, f64::max)
    }

    /// Total adaptive budget spent (samples/trials/repetitions), summed
    /// over computed and resumed points alike.
    pub fn total_samples(&self) -> u64 {
        self.records.iter().map(|r| r.samples).sum()
    }
}

impl Scenario {
    /// Runs the sweep, persisting under [`Scenario::default_dir`]
    /// (`target/lab/<name>`), resuming any records already there.
    ///
    /// # Panics
    ///
    /// Panics on IO errors, or if the directory belongs to a different
    /// scenario (see [`run_sweep`]).
    pub fn sweep(&self) -> SweepResult {
        run_sweep(self, Some(&self.default_dir()))
    }

    /// Runs the sweep persisting under an explicit directory.
    pub fn sweep_in(&self, dir: &Path) -> SweepResult {
        run_sweep(self, Some(dir))
    }

    /// Runs the sweep without touching the filesystem.
    pub fn sweep_ephemeral(&self) -> SweepResult {
        run_sweep(self, None)
    }
}

/// Executes `scenario`, persisting to (and resuming from) `dir` when
/// given.
///
/// # Panics
///
/// Panics on IO errors, if `dir`'s manifest records a different scenario
/// fingerprint, or if a record on disk carries parameters that disagree
/// with the grid point of the same id (a corrupt or hand-edited log).
pub fn run_sweep(scenario: &Scenario, dir: Option<&Path>) -> SweepResult {
    let all: Vec<usize> = (0..scenario.grid().len()).collect();
    run_sweep_subset(scenario, dir, &all)
}

/// Executes only the grid points whose ids appear in `ids` — how a
/// shard of [`crate::cut_grid`] runs before [`crate::merge_shards`]. The
/// full-grid [`run_sweep`] is the `ids = 0..grid.len()` case; everything
/// else (manifest fingerprint check, torn-line healing, bit-for-bit
/// resume) is identical, so a shard directory is just an ordinary run
/// directory that happens to hold a contiguous slice of the grid. Records come back in canonical
/// `point_id` order restricted to `ids`; duplicate ids collapse.
///
/// # Panics
///
/// As [`run_sweep`], and if an id is out of grid range.
pub fn run_sweep_subset(scenario: &Scenario, dir: Option<&Path>, ids: &[usize]) -> SweepResult {
    // One registry per sweep. Points run on rayon workers, where the
    // caller's thread-local scope is invisible, so each point installs
    // this registry on its own worker thread for the duration of the
    // point. Work counters are integer adds — commutative — so the
    // totals are independent of scheduling.
    let registry = bcc_obs::Registry::new();
    let _sweep_span = registry.span("lab.sweep");

    let points = scenario.grid().points();
    let subset: BTreeSet<usize> = ids.iter().copied().collect();
    for &id in ids {
        assert!(
            id < points.len(),
            "subset id {id} beyond the {}-point grid",
            points.len()
        );
    }
    let (store, existing, healed) = match dir {
        Some(dir) => {
            let (store, existing) = RunStore::open(dir, scenario);
            let healed = store.healed_lines();
            (Some(Mutex::new(store)), existing, healed)
        }
        None => (None, std::collections::BTreeMap::new(), 0),
    };
    registry.add(
        "lab.store.healed_lines",
        bcc_obs::Class::Work,
        healed as u64,
    );
    // Resumed = records already on disk for points this invocation was
    // asked to run. A directory can legitimately hold records outside
    // the subset (e.g. a canonical store reopened for one slice); those
    // are validated below but neither counted nor returned.
    let resumed = subset.iter().filter(|id| existing.contains_key(id)).count();
    registry.add(
        "lab.store.resumed_records",
        bcc_obs::Class::Work,
        resumed as u64,
    );
    for (&id, record) in &existing {
        let point = points.get(id).unwrap_or_else(|| {
            panic!(
                "record for point {id} beyond the {}-point grid",
                points.len()
            )
        });
        assert!(
            record.matches(point),
            "record for point {id} carries parameters {record:?} that disagree with the grid"
        );
    }

    let pending: Vec<(usize, crate::ScenarioPoint)> = points
        .iter()
        .enumerate()
        .filter(|(id, _)| subset.contains(id) && !existing.contains_key(id))
        .map(|(id, point)| (id, *point))
        .collect();
    let computed = pending.len();
    registry.add("lab.points_computed", bcc_obs::Class::Work, computed as u64);
    let one_point = |&(id, point): &(usize, crate::ScenarioPoint)| {
        let _scope = registry.install();
        let _span = registry.span("lab.point");
        let record = run_point(scenario, id, &point);
        if let Some(store) = &store {
            store.lock().expect("store mutex poisoned").append(&record);
        }
        record
    };
    // Wall-clock workloads must not time their chunks while other points
    // compete for the same cores — their points run one at a time.
    let fresh: Vec<PointRecord> = if scenario.workload().times_wall_clock() {
        pending.iter().map(one_point).collect()
    } else {
        pending.par_iter().map(one_point).collect()
    };

    let mut by_id: std::collections::BTreeMap<usize, PointRecord> = existing
        .into_iter()
        .filter(|(id, _)| subset.contains(id))
        .collect();
    for record in fresh {
        by_id.insert(record.point_id, record);
    }
    let records: Vec<PointRecord> = by_id.into_values().collect();
    debug_assert_eq!(records.len(), subset.len());

    drop(_sweep_span);
    let metrics = registry.snapshot();
    if let Some(dir) = dir {
        let path = dir.join("metrics.json");
        std::fs::write(&path, metrics.to_json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        // The derived layer rides next to the raw log. A shard directory
        // gets a partial-grid table (its own slice); the canonical table
        // is rewritten by the merge over the full record set.
        crate::analysis::write_aggregates(dir, scenario, &records);
    }
    // Persist any trace events this sweep contributed (no-op unless
    // tracing was enabled via `BCC_TRACE` or `bcc_obs::trace::install`).
    if let Some(Err(e)) = bcc_obs::trace::flush() {
        // bcc-lint: allow(no-stray-printing, reason = "failure-path warning when the BCC_TRACE sink cannot be written; no data channel exists here")
        eprintln!("bcc-lab: could not flush trace: {e}");
    }

    SweepResult {
        records,
        resumed,
        computed,
        healed,
        metrics,
    }
}
