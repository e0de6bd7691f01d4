//! End-to-end tests of the sweep scheduler and the persisted-run
//! lifecycle: spec → scheduler → JSONL → interruption → resume.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use bcc_lab::{run_sweep, Scenario, Workload};

/// A fresh directory under the system temp dir (no tempfile crate in the
/// hermetic workspace); removed by the returned guard.
fn scratch_dir(tag: &str) -> (PathBuf, DirGuard) {
    // bcc-lint: allow(no-global-mutable-state, reason = "scratch-dir uniquifier for parallel test processes; never observed by estimates")
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bcc-lab-test-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    (dir.clone(), DirGuard(dir))
}

struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Rebuilds `half_dir` as the wreckage of a run killed mid-append: the
/// manifest, the first `keep` intact records, and a torn copy of the
/// next line.
fn tear_into(full_dir: &std::path::Path, half_dir: &std::path::Path, keep: usize) {
    std::fs::create_dir_all(half_dir).unwrap();
    std::fs::copy(
        full_dir.join("manifest.json"),
        half_dir.join("manifest.json"),
    )
    .unwrap();
    let log = std::fs::read_to_string(full_dir.join("records.jsonl")).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    let mut torn = lines[..keep].join("\n");
    torn.push('\n');
    torn.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(half_dir.join("records.jsonl"), torn).unwrap();
}

fn distance_scenario(name: &str) -> Scenario {
    Scenario::builder(name)
        .workload(Workload::RankDistance { members: 2 })
        .n(&[1024, 2048])
        .k(&[4])
        .rounds(&[8])
        .seeds(&[1, 2, 3])
        .tolerance(0.35)
        .initial_samples(256)
        .max_samples(1 << 14)
        .build()
}

#[test]
fn ephemeral_sweeps_are_bitwise_deterministic() {
    let scenario = distance_scenario("det");
    let a = scenario.sweep_ephemeral();
    let b = scenario.sweep_ephemeral();
    assert_eq!(a.records.len(), 6);
    assert_eq!(a.computed, 6);
    assert_eq!(a.resumed, 0);
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.point_id, rb.point_id);
        assert_eq!(
            ra.estimate.to_bits(),
            rb.estimate.to_bits(),
            "point {} estimate differs across reruns",
            ra.point_id
        );
        assert_eq!(ra.noise_floor.to_bits(), rb.noise_floor.to_bits());
        assert_eq!(ra.samples, rb.samples);
    }
}

#[test]
fn persisted_runs_resume_without_recomputation() {
    let scenario = distance_scenario("persist");
    let (dir, _guard) = scratch_dir("persist");
    let first = scenario.sweep_in(&dir);
    assert_eq!(first.computed, 6);
    assert!(dir.join("manifest.json").exists());
    let log = std::fs::read_to_string(dir.join("records.jsonl")).unwrap();
    assert_eq!(log.lines().count(), 6);

    let second = scenario.sweep_in(&dir);
    assert_eq!(second.computed, 0, "a complete run recomputes nothing");
    assert_eq!(second.resumed, 6);
    for (a, b) in first.records.iter().zip(&second.records) {
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.samples, b.samples);
    }
}

#[test]
fn interrupted_runs_resume_bit_for_bit() {
    let scenario = distance_scenario("resume");
    let (full_dir, _g1) = scratch_dir("resume-full");
    let full = scenario.sweep_in(&full_dir);

    // Simulate a run killed mid-write: keep the manifest, keep the first
    // three records, and leave a torn final line.
    let (half_dir, _g2) = scratch_dir("resume-half");
    tear_into(&full_dir, &half_dir, 3);

    let resumed = run_sweep(&scenario, Some(&half_dir));
    assert_eq!(resumed.resumed, 3, "three intact records are kept");
    assert_eq!(resumed.computed, 3, "torn + missing points recompute");
    assert_eq!(resumed.records.len(), full.records.len());
    for (a, b) in full.records.iter().zip(&resumed.records) {
        assert_eq!(a.point_id, b.point_id);
        assert_eq!(
            a.estimate.to_bits(),
            b.estimate.to_bits(),
            "point {} diverged across interruption",
            a.point_id
        );
        assert_eq!(a.noise_floor.to_bits(), b.noise_floor.to_bits());
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.met_tolerance, b.met_tolerance);
    }
    // The healed log holds every point exactly once.
    let healed = std::fs::read_to_string(half_dir.join("records.jsonl")).unwrap();
    let mut ids: Vec<usize> = healed
        .lines()
        .filter_map(bcc_lab::store::decode_record)
        .map(|r| r.point_id)
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
}

#[test]
fn wide_message_sweeps_persist_and_resume_bit_for_bit() {
    // The exact-engine workload through the full persisted lifecycle:
    // sweep, reopen (nothing recomputes), and a torn-log resume that must
    // reproduce the uninterrupted records exactly.
    let scenario = Scenario::builder("wide-resume")
        .workload(Workload::WideMessages { members: 2 })
        .n(&[1024, 4096])
        .k(&[4])
        .rounds(&[5])
        .bandwidth(&[2])
        .seeds(&[1, 2])
        .build();
    let (full_dir, _g1) = scratch_dir("wide-full");
    let full = scenario.sweep_in(&full_dir);
    assert_eq!(full.computed, 4);
    assert!(full.all_met_tolerance(), "exact points always meet");
    assert_eq!(full.max_noise_floor(), 0.0, "exact points have no noise");

    let again = scenario.sweep_in(&full_dir);
    assert_eq!(again.computed, 0);
    assert_eq!(again.resumed, 4);

    let (half_dir, _g2) = scratch_dir("wide-half");
    tear_into(&full_dir, &half_dir, 2);

    let resumed = run_sweep(&scenario, Some(&half_dir));
    assert_eq!(resumed.resumed, 2);
    assert_eq!(resumed.computed, 2);
    for (a, b) in full.records.iter().zip(&resumed.records) {
        assert_eq!(
            a.estimate.to_bits(),
            b.estimate.to_bits(),
            "wide point {} diverged across interruption",
            a.point_id
        );
        assert_eq!(a.samples, b.samples);
    }
}

#[test]
fn straddling_sampled_wide_sweeps_persist_and_resume_bit_for_bit() {
    // A grid that crosses the exact engine's node budget: rounds 5 routes
    // to the exact walk, rounds 14 (beyond the w = 2 boundary at 12) to
    // the adaptive wide sampler. The whole persisted lifecycle must hold
    // across the routing seam — including a torn-log resume whose
    // recomputed half contains points from *both* routes.
    let scenario = Scenario::builder("wide-sampled-resume")
        .workload(Workload::WideMessagesSampled { members: 2 })
        .n(&[1024])
        .k(&[4])
        .rounds(&[5, 14])
        .bandwidth(&[2])
        .seeds(&[1, 2])
        .tolerance(0.25)
        .initial_samples(256)
        .max_samples(1 << 12)
        .build();
    let (full_dir, _g1) = scratch_dir("wide-sampled-full");
    let full = scenario.sweep_in(&full_dir);
    assert_eq!(full.computed, 4);
    // The exact-routed points are noiseless; the sampled ones are not.
    let exact_records: Vec<_> = full.records.iter().filter(|r| r.rounds == 5).collect();
    let sampled_records: Vec<_> = full.records.iter().filter(|r| r.rounds == 14).collect();
    assert!(exact_records.iter().all(|r| r.noise_floor == 0.0));
    assert!(sampled_records.iter().all(|r| r.noise_floor > 0.0));
    assert!(
        sampled_records.iter().all(|r| r.samples <= 1 << 12),
        "sampled budgets are per-side samples, not node counts"
    );

    let again = scenario.sweep_in(&full_dir);
    assert_eq!(again.computed, 0);
    assert_eq!(again.resumed, 4);

    let (half_dir, _g2) = scratch_dir("wide-sampled-half");
    tear_into(&full_dir, &half_dir, 1);
    let resumed = run_sweep(&scenario, Some(&half_dir));
    assert_eq!(resumed.resumed, 1);
    assert_eq!(resumed.computed, 3);
    for (a, b) in full.records.iter().zip(&resumed.records) {
        assert_eq!(
            a.estimate.to_bits(),
            b.estimate.to_bits(),
            "point {} diverged across interruption",
            a.point_id
        );
        assert_eq!(a.noise_floor.to_bits(), b.noise_floor.to_bits());
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.met_tolerance, b.met_tolerance);
    }
}

#[test]
#[should_panic(expected = "different scenario")]
fn sampled_wide_directories_refuse_a_foreign_budget() {
    // The sample cap shapes every sampled record, so it is part of the
    // fingerprint: reopening a run directory with a different budget must
    // refuse rather than mix records computed under different caps.
    let (dir, _guard) = scratch_dir("wide-budget");
    let build = |max_samples: usize| {
        Scenario::builder("wide-budget")
            .workload(Workload::WideMessagesSampled { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[13])
            .bandwidth(&[2])
            .tolerance(0.25)
            .initial_samples(128)
            .max_samples(max_samples)
            .build()
    };
    build(1 << 10).sweep_in(&dir);
    build(1 << 11).sweep_in(&dir);
}

#[test]
#[should_panic(expected = "different scenario")]
fn directories_refuse_foreign_scenarios() {
    let (dir, _guard) = scratch_dir("foreign");
    let a = Scenario::builder("same-name")
        .workload(Workload::RankDistance { members: 2 })
        .n(&[1024])
        .k(&[4])
        .rounds(&[8])
        .initial_samples(64)
        .max_samples(256)
        .build();
    a.sweep_in(&dir);
    // Same name, different grid: the manifest must reject it.
    let b = Scenario::builder("same-name")
        .workload(Workload::RankDistance { members: 2 })
        .n(&[1024, 2048])
        .k(&[4])
        .rounds(&[8])
        .initial_samples(64)
        .max_samples(256)
        .build();
    b.sweep_in(&dir);
}

#[test]
fn find_clique_and_throughput_sweeps_run_end_to_end() {
    let clique = Scenario::builder("clique-smoke")
        .workload(Workload::FindClique)
        .n(&[128])
        .k(&[80])
        .tolerance(0.3)
        .initial_samples(4)
        .max_samples(8)
        .build()
        .sweep_ephemeral();
    assert_eq!(clique.records.len(), 1);
    assert!((0.0..=1.0).contains(&clique.records[0].estimate));

    let throughput = Scenario::builder("prg-smoke")
        .workload(Workload::PrgThroughput)
        .n(&[1024])
        .k(&[64])
        .tolerance(0.5)
        .initial_samples(16)
        .max_samples(64)
        .build()
        .sweep_ephemeral();
    assert_eq!(throughput.records.len(), 1);
    assert!(throughput.records[0].estimate > 0.0);
}

/// Placement parity: a grid cut into shards, each run as a subset store,
/// merges into a run directory bitwise equal to the single-process
/// sweep's — whether the shards ran one after another or on threads, and
/// after one of them was torn mid-line and healed.
mod placement {
    use std::collections::BTreeMap;
    use std::ops::Range;
    use std::path::Path;

    use bcc_lab::{
        cut_grid, merge_shards, records_fingerprint, run_sweep_subset, shard_dir, PointRecord,
        Scenario,
    };
    use bcc_obs::{Class, Snapshot};

    use super::{distance_scenario, scratch_dir, tear_into};

    /// Runs shard `id` of `ranges` into its store under `base` and returns
    /// the fingerprint the merge checks the store against.
    fn run_shard(s: &Scenario, base: &Path, ranges: &[Range<usize>], id: usize) -> u64 {
        let ids: Vec<usize> = ranges[id].clone().collect();
        let result = run_sweep_subset(s, Some(&shard_dir(base, id)), &ids);
        records_fingerprint(&result.records)
    }

    /// Runs every shard, one after another or each on its own thread.
    fn run_shards(s: &Scenario, base: &Path, ranges: &[Range<usize>], threaded: bool) -> Vec<u64> {
        if !threaded {
            return (0..ranges.len())
                .map(|id| run_shard(s, base, ranges, id))
                .collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ranges.len())
                .map(|id| scope.spawn(move || run_shard(s, base, ranges, id)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        })
    }

    /// Per-record bitwise comparison (sharper than the fingerprint alone
    /// when it fails): every field except the honest wall-clock one.
    fn assert_records_bitwise_equal(merged: &[PointRecord], reference: &[PointRecord]) {
        assert_eq!(records_fingerprint(merged), records_fingerprint(reference));
        assert_eq!(merged.len(), reference.len());
        for (m, r) in merged.iter().zip(reference) {
            assert_eq!(m.point_id, r.point_id);
            assert_eq!(
                m.estimate.to_bits(),
                r.estimate.to_bits(),
                "point {} estimate differs from the single-process run",
                m.point_id
            );
            assert_eq!(m.noise_floor.to_bits(), r.noise_floor.to_bits());
            assert_eq!(m.samples, r.samples);
            assert_eq!(m.met_tolerance, r.met_tolerance);
            assert_eq!(m.resolved_horizon, r.resolved_horizon);
            assert_eq!(m.depth_floors, r.depth_floors);
            assert_eq!(
                (m.n, m.k, m.rounds, m.bandwidth, m.seed),
                (r.n, r.k, r.rounds, r.bandwidth, r.seed)
            );
        }
    }

    /// The deterministic work a snapshot records: every work counter and
    /// work-class series.
    fn work(snapshot: &Snapshot) -> BTreeMap<String, Vec<u64>> {
        let counters = snapshot
            .work
            .iter()
            .map(|(name, value)| (name.clone(), vec![*value]));
        let series = snapshot
            .series
            .iter()
            .filter(|(_, class, _)| *class == Class::Work)
            .map(|(name, _, values)| (name.clone(), values.clone()));
        counters.chain(series).collect()
    }

    fn assert_placement_parity(threaded: bool) {
        let s = distance_scenario(if threaded {
            "placement-threads"
        } else {
            "placement-serial"
        });
        let reference = s.sweep_ephemeral();

        let (base, _guard) = scratch_dir("placement");
        let ranges = cut_grid(s.grid().len(), 3);
        let reported = run_shards(&s, &base, &ranges, threaded);
        let merged = merge_shards(&s, &base, &ranges, &reported);
        assert_records_bitwise_equal(&merged, &reference.records);

        // The merged metrics.json, read back from disk, reconciles with
        // the single sweep's: every point's work was counted exactly once.
        let text =
            std::fs::read_to_string(base.join("metrics.json")).expect("merge writes metrics");
        let metrics = Snapshot::from_json(&text).expect("merged metrics parse");
        let merged_work = work(&metrics);
        assert!(
            merged_work.contains_key("lab.points_computed")
                && merged_work.contains_key("exec.runs"),
            "the reconciliation must cover the sweep's own work counters"
        );
        assert_eq!(merged_work, work(&reference.metrics));

        // The merged directory is an ordinary run directory: re-running
        // the scenario over it resumes every point and computes none.
        let rerun = s.sweep_in(&base);
        assert_eq!(rerun.resumed, s.grid().len());
        assert_eq!(rerun.computed, 0);
        assert_records_bitwise_equal(&rerun.records, &reference.records);
    }

    #[test]
    fn shards_run_in_sequence_merge_to_the_single_process_sweep() {
        assert_placement_parity(false);
    }

    #[test]
    fn shards_run_on_threads_merge_to_the_single_process_sweep() {
        assert_placement_parity(true);
    }

    #[test]
    fn merged_aggregates_table_is_bitwise_the_single_process_sweeps() {
        let s = distance_scenario("placement-aggregates");
        let (single, _single_guard) = scratch_dir("placement-single");
        let _ = s.sweep_in(&single);
        let reference = std::fs::read_to_string(single.join("aggregates.json"))
            .expect("sweep writes aggregates");

        let (base, _guard) = scratch_dir("placement-merged");
        let ranges = cut_grid(s.grid().len(), 3);
        let reported = run_shards(&s, &base, &ranges, false);
        for id in 0..ranges.len() {
            // Each shard directory carries its own partial-grid table.
            assert!(shard_dir(&base, id).join("aggregates.json").exists());
        }
        let merged_records = merge_shards(&s, &base, &ranges, &reported);
        let merged =
            std::fs::read_to_string(base.join("aggregates.json")).expect("merge writes aggregates");
        assert_eq!(merged, reference, "derived tables must match byte for byte");
        assert!(
            merged.contains(&format!("{:016x}", records_fingerprint(&merged_records))),
            "the table is tied to the canonical records fingerprint"
        );
    }

    #[test]
    fn a_torn_shard_store_heals_and_still_merges_bitwise() {
        let s = distance_scenario("placement-heal");
        let reference = s.sweep_ephemeral();

        let (base, _guard) = scratch_dir("placement-heal");
        let ranges = cut_grid(s.grid().len(), 3);
        let mut reported = run_shards(&s, &base, &ranges, false);

        // Shard 0 dies mid-append: one record flushed, the next torn.
        let (intact, _intact_guard) = scratch_dir("placement-intact");
        std::fs::rename(shard_dir(&base, 0), &intact).unwrap();
        tear_into(&intact, &shard_dir(&base, 0), 1);

        let ids: Vec<usize> = ranges[0].clone().collect();
        let rerun = run_sweep_subset(&s, Some(&shard_dir(&base, 0)), &ids);
        assert!(rerun.healed >= 1, "the torn line must be healed");
        assert!(
            rerun.resumed >= 1,
            "the flushed record must resume, not recompute"
        );
        reported[0] = records_fingerprint(&rerun.records);

        let merged = merge_shards(&s, &base, &ranges, &reported);
        assert_records_bitwise_equal(&merged, &reference.records);
    }

    #[test]
    #[should_panic(expected = "belongs to a different scenario")]
    fn merge_refuses_a_shard_store_from_a_different_scenario() {
        let ours = distance_scenario("merge-ours");
        let foreign = distance_scenario("merge-foreign");
        let (base, _guard) = scratch_dir("merge-foreign");
        let ranges = cut_grid(ours.grid().len(), 2);
        let reported = run_shards(&foreign, &base, &ranges, false);
        let _ = merge_shards(&ours, &base, &ranges, &reported);
    }

    #[test]
    #[should_panic(expected = "does not cover exactly")]
    fn merge_refuses_an_incomplete_shard_store() {
        let s = distance_scenario("merge-short");
        let (base, _guard) = scratch_dir("merge-short");
        let ranges = cut_grid(s.grid().len(), 2);
        // Shard 1 is one point short of its range.
        let short = [ranges[0].clone(), ranges[1].start..ranges[1].end - 1];
        let reported = run_shards(&s, &base, &short, false);
        let _ = merge_shards(&s, &base, &ranges, &reported);
    }

    #[test]
    #[should_panic(expected = "worker reported")]
    fn merge_refuses_a_store_that_disagrees_with_the_reported_fingerprint() {
        let s = distance_scenario("merge-tamper");
        let (base, _guard) = scratch_dir("merge-tamper");
        let ranges = cut_grid(s.grid().len(), 2);
        let mut reported = run_shards(&s, &base, &ranges, false);
        reported[1] ^= 1;
        let _ = merge_shards(&s, &base, &ranges, &reported);
    }

    #[test]
    fn cut_covers_exactly_and_balances() {
        for grid_len in 1..40 {
            for shards in 1..10 {
                let ranges = cut_grid(grid_len, shards);
                assert_eq!(ranges.len(), shards.min(grid_len));
                let mut expect = 0;
                for range in &ranges {
                    assert_eq!(range.start, expect, "gap or overlap at shard start");
                    assert!(!range.is_empty(), "empty shard");
                    expect = range.end;
                }
                assert_eq!(expect, grid_len, "the cut does not cover the grid");
                let lens = ranges.iter().map(Range::len);
                let (min, max) = (lens.clone().min().unwrap(), lens.max().unwrap());
                assert!(max - min <= 1, "unbalanced: {ranges:?}");
            }
        }
    }

    #[test]
    fn larger_shards_come_first() {
        assert_eq!(cut_grid(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
    }

    #[test]
    fn shard_dirs_are_stable_names() {
        let base = Path::new("target/lab/run");
        assert_eq!(shard_dir(base, 3), Path::new("target/lab/run/shard-3"));
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn empty_grids_rejected() {
        let _ = cut_grid(0, 2);
    }
}

/// The distance workloads' records and routing counters, pinned: the
/// frontier-independent records (every `RankDistance` point, every
/// past-budget `WideMessagesSampled` point) by fingerprint literal, and
/// the in-budget routed points bitwise against the exact
/// `WideMessages` records of the same cells (whose low-order bits follow
/// the host's frontier depth, so they cannot be literals).
mod distance_pins {
    use bcc_lab::{
        records_fingerprint, PointRecord, Scenario, ScenarioBuilder, SweepResult, Workload,
    };

    /// The three counters of a sweep that say how its points were routed:
    /// `(lab.points_computed, lab.route_exact, lab.route_sampled)`.
    fn routing(result: &SweepResult) -> (u64, u64, u64) {
        let m = &result.metrics;
        (
            m.work_counter("lab.points_computed"),
            m.work_counter("lab.route_exact"),
            m.work_counter("lab.route_sampled"),
        )
    }

    fn wide_scenario(name: &str, workload: Workload, rounds: &[u32]) -> ScenarioBuilder {
        Scenario::builder(name)
            .workload(workload)
            .n(&[1024])
            .k(&[4])
            .rounds(rounds)
            .bandwidth(&[2])
            .seeds(&[1, 2])
            .tolerance(0.25)
            .initial_samples(128)
            .max_samples(1 << 10)
    }

    #[test]
    fn rank_distance_records_are_pinned() {
        let result = Scenario::builder("pin-rank")
            .workload(Workload::RankDistance { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[6, 8])
            .seeds(&[1, 2])
            .tolerance(0.35)
            .initial_samples(128)
            .max_samples(1 << 11)
            .build()
            .sweep_ephemeral();
        assert_eq!(records_fingerprint(&result.records), 0x052d_3fc3_3350_3d56);
        assert_eq!(routing(&result), (4, 0, 0));
    }

    #[test]
    fn routed_wide_records_are_pinned_and_replay_the_exact_workload() {
        // Rounds 4 fits the exact node budget at w = 2; rounds 13 does
        // not, so those points take the sampler under the truncated
        // target (per-depth floors and resolved horizon recorded).
        let routed = wide_scenario(
            "pin-wide-routed",
            Workload::WideMessagesSampled { members: 2 },
            &[4, 13],
        )
        .truncated_target(true)
        .build()
        .sweep_ephemeral();
        let exact = wide_scenario(
            "pin-wide-exact",
            Workload::WideMessages { members: 2 },
            &[4],
        )
        .build()
        .sweep_ephemeral();
        assert_eq!(routing(&routed), (4, 2, 2));
        assert_eq!(
            routing(&exact),
            (2, 0, 0),
            "only the routed workload counts routes"
        );

        let (in_budget, past_budget): (Vec<&PointRecord>, Vec<&PointRecord>) =
            routed.records.iter().partition(|r| r.rounds == 4);
        assert_eq!(
            records_fingerprint(past_budget.iter().copied()),
            0xffde_53ac_9776_77df
        );
        assert!(past_budget
            .iter()
            .all(|r| r.noise_floor > 0.0 && r.resolved_horizon > 0));

        assert_eq!(in_budget.len(), exact.records.len());
        for (r, e) in in_budget.iter().zip(&exact.records) {
            assert_eq!(
                (r.n, r.k, r.bandwidth, r.seed),
                (e.n, e.k, e.bandwidth, e.seed)
            );
            assert_eq!(r.estimate.to_bits(), e.estimate.to_bits());
            assert_eq!(r.noise_floor.to_bits(), e.noise_floor.to_bits());
            assert_eq!(r.samples, e.samples);
            assert_eq!(r.met_tolerance, e.met_tolerance);
            assert_eq!(r.depth_floors, e.depth_floors);
            // The exact walk resolves every depth; the exact-only
            // workload records no truncated target.
            assert_eq!((r.resolved_horizon, e.resolved_horizon), (4, 0));
        }
    }
}
