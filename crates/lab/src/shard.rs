//! Placement cannot change the bits: a grid cut into shards, each run as
//! an ordinary subset store, merges back into the one-process sweep.
//!
//! The claim rests on two facts. Every point derives its streams from
//! its own coordinates ([`crate::ScenarioPoint::stream_root`]), so which
//! thread, process or invocation runs a point cannot change its record.
//! And [`merge_shards`] concatenates shard stores only after verifying
//! them, into a directory that is an ordinary run directory of the whole
//! grid. The placement tests run the shards one after another and on
//! threads, tear and heal one of them, and require the merged records,
//! aggregates table and work counters to equal a single sweep's.
//!
//! Shards are *contiguous* ranges of the canonical point order, so the
//! shard records concatenated in shard order are already in canonical
//! order, and range coverage is interval arithmetic.

use std::ops::Range;
use std::path::{Path, PathBuf};

use bcc_obs::merge::merge_snapshots;
use bcc_obs::Snapshot;

use crate::run::PointRecord;
use crate::scenario::Scenario;
use crate::store::{read_run_dir, records_fingerprint, write_run_dir};

/// Cuts `0..grid_len` into `shards` contiguous ranges whose sizes differ
/// by at most one (the first `grid_len % shards` ranges take the extra
/// point). Shards beyond the point count are dropped, so every range is
/// non-empty.
///
/// # Panics
///
/// Panics if `grid_len` or `shards` is zero.
pub fn cut_grid(grid_len: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(grid_len > 0, "cannot shard an empty grid");
    assert!(shards > 0, "need at least one shard");
    let shards = shards.min(grid_len);
    let (base, extra) = (grid_len / shards, grid_len % shards);
    let mut end = 0;
    (0..shards)
        .map(|i| {
            let start = end;
            end += base + usize::from(i < extra);
            start..end
        })
        .collect()
}

/// Shard `id`'s run directory under the merged run directory `base`.
pub fn shard_dir(base: &Path, id: usize) -> PathBuf {
    base.join(format!("shard-{id}"))
}

/// Verifies the shard stores [`shard_dir`]`(base, id)` against `ranges`
/// and the `reported` record fingerprints (one per shard, in shard
/// order, as the subset runs returned them), then makes `base` a
/// complete run directory of the whole grid: `manifest.json`,
/// `records.jsonl`, the shards' summed `metrics.json`
/// ([`merge_snapshots`]) and `aggregates.json`. Returns every record in
/// canonical `point_id` order.
///
/// # Panics
///
/// Panics if a shard store is missing, carries a different scenario's
/// manifest, does not cover exactly its range, or disagrees with its
/// reported fingerprint, and if the ranges do not cover the grid in
/// order. Each of these means the merged run must not be trusted, and a
/// loud refusal beats a silently wrong concatenation.
pub fn merge_shards(
    scenario: &Scenario,
    base: &Path,
    ranges: &[Range<usize>],
    reported: &[u64],
) -> Vec<PointRecord> {
    assert_eq!(
        reported.len(),
        ranges.len(),
        "need exactly one reported fingerprint per shard"
    );
    let grid_len = scenario.grid().len();
    let expected_manifest = scenario.fingerprint();
    let mut records: Vec<PointRecord> = Vec::with_capacity(grid_len);
    let mut snapshots: Vec<Snapshot> = Vec::with_capacity(ranges.len());
    for (id, (range, &reported)) in ranges.iter().zip(reported).enumerate() {
        let dir = shard_dir(base, id);
        let (manifest, shard_records) = read_run_dir(&dir)
            .unwrap_or_else(|| panic!("shard {id} store {} is missing", dir.display()));
        assert!(
            manifest == expected_manifest,
            "shard {id} store {} belongs to a different scenario:\n  recorded: {manifest}\n  requested: {expected_manifest}",
            dir.display(),
        );
        assert!(
            shard_records.len() == range.len() && shard_records.keys().all(|p| range.contains(p)),
            "shard {id} store {} does not cover exactly points {range:?}: \
             {} valid records, ids {:?}",
            dir.display(),
            shard_records.len(),
            shard_records.keys().take(8).collect::<Vec<_>>(),
        );
        let disk_fingerprint = records_fingerprint(shard_records.values());
        assert!(
            disk_fingerprint == reported,
            "shard {id} store {} hashes to {disk_fingerprint:#018x} but its worker reported \
             {reported:#018x}: the store changed after completion",
            dir.display(),
        );
        let metrics_path = dir.join("metrics.json");
        let text = std::fs::read_to_string(&metrics_path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", metrics_path.display()));
        let snapshot = Snapshot::from_json(&text).unwrap_or_else(|| {
            panic!(
                "{} is not a bcc-metrics/v1 document",
                metrics_path.display()
            )
        });
        snapshots.push(snapshot);
        records.extend(shard_records.into_values());
    }
    assert!(
        records.len() == grid_len && records.iter().enumerate().all(|(i, r)| r.point_id == i),
        "shard ranges {ranges:?} do not cover the {grid_len}-point grid in order"
    );
    write_run_dir(base, &expected_manifest, &records);
    // Work counters sum to exactly a single sweep's: each point's work is
    // counted once, by the shard that computed it.
    let metrics_path = base.join("metrics.json");
    std::fs::write(&metrics_path, merge_snapshots(&snapshots).to_json())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", metrics_path.display()));
    // The records are bitwise the single sweep's, so the table is
    // byte-identical to the one that sweep writes.
    crate::analysis::write_aggregates(base, scenario, &records);
    records
}
