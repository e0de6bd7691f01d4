//! End-to-end tests of the sweep scheduler and the persisted-run
//! lifecycle: spec → scheduler → JSONL → interruption → resume.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bcc_lab::{records_fingerprint, run_sweep, PointRecord, Scenario, Workload};
use bcc_obs::Snapshot;

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
fn a_store_creates_its_log_with_the_first_record() {
    // Opening writes only the manifest; the first append creates the
    // log, and reopening checks the manifest and reads the log back.
    let (dir, _guard) = scratch_dir("lazy-log");
    let scenario = distance_scenario("lazy-log");
    let (store, existing) = bcc_lab::RunStore::open(&dir, &scenario);
    assert!(existing.is_empty());
    assert!(dir.join("manifest.json").exists());
    assert!(!dir.join("records.jsonl").exists());
    drop(store);
    let records = scenario.sweep_in(&dir).records;
    let (_, reopened) = bcc_lab::RunStore::open(&dir, &scenario);
    assert_eq!(reopened.len(), records.len());
    assert_records_bitwise_equal(&reopened.into_values().collect::<Vec<_>>(), &records);
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

/// Per-record bitwise comparison (sharper than the fingerprint alone
/// when it fails): every field except the honest wall-clock one.
fn assert_records_bitwise_equal(got: &[PointRecord], reference: &[PointRecord]) {
    assert_eq!(records_fingerprint(got), records_fingerprint(reference));
    assert_eq!(got.len(), reference.len());
    for (g, r) in got.iter().zip(reference) {
        assert_eq!(g.point_id, r.point_id);
        assert_eq!(
            g.estimate.to_bits(),
            r.estimate.to_bits(),
            "point {} estimate differs from the sweep run alone",
            g.point_id
        );
        assert_eq!(g.noise_floor.to_bits(), r.noise_floor.to_bits());
        assert_eq!(g.samples, r.samples);
        assert_eq!(g.met_tolerance, r.met_tolerance);
        assert_eq!(g.resolved_horizon, r.resolved_horizon);
        assert_eq!(g.depth_floors, r.depth_floors);
        assert_eq!(
            (g.n, g.k, g.rounds, g.bandwidth, g.seed),
            (r.n, r.k, r.rounds, r.bandwidth, r.seed)
        );
    }
}

/// The work vector a persisted sweep's `metrics.json` carries on disk.
fn work_on_disk(dir: &Path) -> Vec<(String, u64)> {
    let text = std::fs::read_to_string(dir.join("metrics.json")).expect("sweeps write metrics");
    let snapshot = Snapshot::from_json(&text).expect("metrics.json parses");
    snapshot.work_fingerprint()
}

#[test]
fn concurrent_sweeps_each_count_their_own_work() {
    // Two different distance scenarios: sampled rank points, and wide
    // points routed to the exact walk (rounds 4) and to the sampler
    // (rounds 13). Each sweep owns its registry, so running both at once
    // must neither move a record bit nor credit one sweep's work to the
    // other.
    let rank = distance_scenario("concurrent-rank");
    let wide = Scenario::builder("concurrent-wide")
        .workload(Workload::WideMessagesSampled { members: 2 })
        .n(&[1024])
        .k(&[4])
        .rounds(&[4, 13])
        .bandwidth(&[2])
        .seeds(&[1, 2])
        .tolerance(0.25)
        .initial_samples(128)
        .max_samples(1 << 10)
        .build();
    let scenarios = [&rank, &wide];

    let alone: Vec<_> = scenarios
        .iter()
        .map(|s| {
            let (dir, guard) = scratch_dir("alone");
            (s.sweep_in(&dir), dir, guard)
        })
        .collect();
    // Both sweeps leave the barrier together, so their points overlap.
    let start = std::sync::Barrier::new(scenarios.len());
    let together: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = scenarios
            .iter()
            .map(|&s| {
                let start = &start;
                scope.spawn(move || {
                    let (dir, guard) = scratch_dir("together");
                    start.wait();
                    (s.sweep_in(&dir), dir, guard)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread panicked"))
            .collect()
    });
    assert_ne!(
        alone[0].0.metrics.work_fingerprint(),
        alone[1].0.metrics.work_fingerprint(),
        "the two scenarios must do different work for the check to bite"
    );

    for ((reference, reference_dir, _), (result, dir, _)) in alone.iter().zip(&together) {
        assert_records_bitwise_equal(&result.records, &reference.records);
        let expected = reference.metrics.work_fingerprint();
        let covers = |name: &str| expected.iter().any(|(key, _)| key == name);
        assert!(
            covers("lab.points_computed") && covers("exec.runs"),
            "the comparison must cover the sweep's own work counters"
        );
        assert_eq!(result.metrics.work_fingerprint(), expected);
        assert_eq!(work_on_disk(dir), expected);
        assert_eq!(work_on_disk(reference_dir), expected);
    }
}

/// The distance workloads' records and routing counters, pinned: every
/// record by fingerprint literal, and the in-budget routed points bitwise
/// against the exact `WideMessages` records of the same cells.
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

        assert_eq!(
            records_fingerprint(in_budget.iter().copied()),
            0x0c14_22a6_b991_7638
        );
        assert_eq!(records_fingerprint(&exact.records), 0x398f_6fdd_31ce_03d6);
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
