//! Derived aggregate tables over a sweep's raw records.
//!
//! `records.jsonl` is the bitwise ground truth — append-only, resumable,
//! fingerprinted. This module is the *derived* layer on top: it collapses
//! the replication-seed axis per grid point `(n, k, rounds, bandwidth)`
//! into a mean estimate with a 95% confidence half-width, and persists
//! the table as `aggregates.json` next to the raw log (after sweeps, and
//! after [`crate::merge_shards`]). The table carries the records'
//! [`records_fingerprint`], tying
//! every derived number to the exact raw store it came from — a stale or
//! hand-edited table is detectable, never authoritative.
//!
//! Everything here is deterministic: groups live in a `BTreeMap`, the
//! seed axis is folded in canonical record order, and floats are written
//! with Rust's shortest-round-trip `Display`. Merged shard stores hold
//! byte-identical records, so they derive a byte-identical table.

use std::collections::BTreeMap;
use std::path::Path;

use bcc_obs::json::Value;

use crate::run::PointRecord;
use crate::scenario::Scenario;
use crate::store::records_fingerprint;

/// The schema tag written into every aggregates table.
const AGGREGATES_SCHEMA: &str = "bcc-aggregates/v1";

/// One grid point's statistics over its replication seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// The grid point's `n` coordinate.
    pub n: usize,
    /// The grid point's `k` coordinate.
    pub k: u32,
    /// The grid point's `rounds` coordinate.
    pub rounds: u32,
    /// The grid point's `bandwidth` coordinate.
    pub bandwidth: u32,
    /// How many seed replications the statistics fold over.
    pub seeds: usize,
    /// The mean headline estimate across seeds.
    pub mean_estimate: f64,
    /// The 95% confidence half-width of the mean (`1.96 · sd / √m`,
    /// sample standard deviation with `ddof = 1`); `0` for a single
    /// seed, where no spread is observable.
    pub ci95: f64,
    /// The worst per-seed uncertainty (noise floor / half-width) in the
    /// group. Can be infinite (a record may legitimately carry infinite
    /// uncertainty).
    pub max_noise_floor: f64,
    /// How many of the group's seeds met the scenario tolerance.
    pub met: usize,
    /// Total adaptive budget spent across the group's seeds.
    pub samples: u64,
    /// The deepest resolved horizon any seed recorded (`0` unless the
    /// scenario ran a truncated-depth target).
    pub max_resolved_horizon: u32,
}

/// Collapses the seed axis: one [`Aggregate`] per distinct
/// `(n, k, rounds, bandwidth)`, in lexicographic order. Records must be
/// in canonical `point_id` order (as every sweep and merge returns them)
/// so each group folds its seeds in a fixed order — that is what makes
/// the float sums bitwise reproducible.
pub fn aggregate(records: &[PointRecord]) -> Vec<Aggregate> {
    let mut groups: BTreeMap<(usize, u32, u32, u32), Vec<&PointRecord>> = BTreeMap::new();
    for r in records {
        groups
            .entry((r.n, r.k, r.rounds, r.bandwidth))
            .or_default()
            .push(r);
    }
    groups
        .into_iter()
        .map(|((n, k, rounds, bandwidth), group)| {
            let m = group.len();
            let mean = group.iter().map(|r| r.estimate).sum::<f64>() / m as f64;
            let ci95 = if m < 2 {
                0.0
            } else {
                let var = group
                    .iter()
                    .map(|r| (r.estimate - mean) * (r.estimate - mean))
                    .sum::<f64>()
                    / (m - 1) as f64;
                1.96 * (var / m as f64).sqrt()
            };
            Aggregate {
                n,
                k,
                rounds,
                bandwidth,
                seeds: m,
                mean_estimate: mean,
                ci95,
                max_noise_floor: group.iter().map(|r| r.noise_floor).fold(0.0, f64::max),
                met: group.iter().filter(|r| r.met_tolerance).count(),
                samples: group.iter().map(|r| r.samples).sum(),
                max_resolved_horizon: group.iter().map(|r| r.resolved_horizon).max().unwrap_or(0),
            }
        })
        .collect()
}

/// Serializes the aggregates table as one JSON document: the schema tag,
/// the scenario identity, the raw records' fingerprint, and one row per
/// grid point.
pub fn render_json(scenario: &Scenario, records: &[PointRecord]) -> String {
    let rows = aggregate(records)
        .iter()
        .map(|a| {
            Value::object([
                ("n", a.n.into()),
                ("k", a.k.into()),
                ("rounds", a.rounds.into()),
                ("bandwidth", a.bandwidth.into()),
                ("seeds", a.seeds.into()),
                ("mean_estimate", Value::float(a.mean_estimate)),
                ("ci95", Value::float(a.ci95)),
                ("max_noise_floor", Value::float_lenient(a.max_noise_floor)),
                ("met", a.met.into()),
                ("samples", a.samples.into()),
                ("max_resolved_horizon", a.max_resolved_horizon.into()),
            ])
        })
        .collect();
    let table = Value::object([
        ("schema", AGGREGATES_SCHEMA.into()),
        ("scenario", scenario.name().into()),
        ("workload", scenario.workload().tag().into()),
        (
            "records_fingerprint",
            format!("{:016x}", records_fingerprint(records)).into(),
        ),
        ("points", records.len().into()),
        ("rows", rows),
    ]);
    format!("{table}\n")
}

/// Writes `aggregates.json` into `dir`, via a sibling temp file renamed
/// over the target so a crash mid-write cannot leave a torn table.
///
/// # Panics
///
/// Panics on IO errors.
pub fn write_aggregates(dir: &Path, scenario: &Scenario, records: &[PointRecord]) {
    let text = render_json(scenario, records);
    let path = dir.join("aggregates.json");
    let tmp = dir.join("aggregates.json.tmp");
    std::fs::write(&tmp, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", tmp.display()));
    std::fs::rename(&tmp, &path).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// A plain-text table of the aggregates, for `lab_sweep -- --report`.
pub fn render_text(scenario: &Scenario, records: &[PointRecord]) -> String {
    let mut out = format!(
        "aggregates for {} ({}) over {} records, fingerprint {:016x}\n\
         {:>8} {:>4} {:>7} {:>3} {:>6} {:>13} {:>10} {:>10} {:>7} {:>10} {:>8}\n",
        scenario.name(),
        scenario.workload().tag(),
        records.len(),
        records_fingerprint(records),
        "n",
        "k",
        "rounds",
        "bw",
        "seeds",
        "mean",
        "ci95",
        "floor",
        "met",
        "samples",
        "horizon",
    );
    for a in aggregate(records) {
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "{:>8} {:>4} {:>7} {:>3} {:>6} {:>13.6} {:>10.6} {:>10.4} {:>5}/{:<1} {:>10} {:>8}\n",
                a.n,
                a.k,
                a.rounds,
                a.bandwidth,
                a.seeds,
                a.mean_estimate,
                a.ci95,
                a.max_noise_floor,
                a.met,
                a.seeds,
                a.samples,
                a.max_resolved_horizon,
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;

    /// `infinite_noise_floors_render_as_lenient_markers`'s document.
    const GOLDEN_AGGREGATES: &str =
        "{\"schema\":\"bcc-aggregates/v1\",\"scenario\":\"agg\",\"workload\":\"rank_distance\",\
     \"records_fingerprint\":\"6e7ae2fb09588d7b\",\"points\":2,\"rows\":[{\"n\":64,\"k\":4,\
     \"rounds\":8,\"bandwidth\":1,\"seeds\":2,\"mean_estimate\":0.4,\"ci95\":0.19599999999999995,\
     \"max_noise_floor\":\"inf\",\"met\":2,\"samples\":2048,\"max_resolved_horizon\":0}]}\n";

    fn record(point_id: usize, n: usize, seed: u64, estimate: f64) -> PointRecord {
        PointRecord {
            point_id,
            n,
            k: 4,
            rounds: 8,
            bandwidth: 1,
            seed,
            estimate,
            noise_floor: 0.05,
            samples: 1024,
            met_tolerance: true,
            resolved_horizon: 0,
            depth_floors: String::new(),
            wall_ms: 1.0,
        }
    }

    fn scenario() -> Scenario {
        Scenario::builder("agg")
            .workload(Workload::RankDistance { members: 2 })
            .n(&[64, 128])
            .k(&[4])
            .rounds(&[8])
            .seeds(&[1, 2, 3])
            .build()
    }

    #[test]
    fn aggregates_fold_the_seed_axis_per_grid_point() {
        let records = vec![
            record(0, 64, 1, 0.1),
            record(1, 64, 2, 0.2),
            record(2, 64, 3, 0.3),
            record(3, 128, 1, 0.4),
            record(4, 128, 2, 0.4),
            record(5, 128, 3, 0.4),
        ];
        let rows = aggregate(&records);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].n, 64);
        assert_eq!(rows[0].seeds, 3);
        assert!((rows[0].mean_estimate - 0.2).abs() < 1e-12);
        // sd = 0.1, ci = 1.96 * 0.1 / sqrt(3).
        assert!((rows[0].ci95 - 1.96 * 0.1 / 3f64.sqrt()).abs() < 1e-9);
        assert_eq!(rows[0].met, 3);
        assert_eq!(rows[0].samples, 3 * 1024);
        // Zero spread: the CI collapses (to float-rounding dust), no NaNs.
        assert!(rows[1].ci95 < 1e-9);
        assert!((rows[1].mean_estimate - 0.4).abs() < 1e-12);
    }

    #[test]
    fn single_seed_groups_report_zero_ci() {
        let rows = aggregate(&[record(0, 64, 1, 0.5)]);
        assert_eq!(rows[0].seeds, 1);
        assert_eq!(rows[0].ci95, 0.0);
    }

    #[test]
    fn rendered_json_ties_to_the_records_fingerprint_and_is_deterministic() {
        let records = vec![record(0, 64, 1, 0.1), record(1, 64, 2, 0.2)];
        let a = render_json(&scenario(), &records);
        let b = render_json(&scenario(), &records);
        assert_eq!(a, b, "byte-identical on identical records");
        assert!(a.contains("\"schema\":\"bcc-aggregates/v1\""));
        assert!(a.contains(&format!(
            "\"records_fingerprint\":\"{:016x}\"",
            records_fingerprint(&records)
        )));
        // A changed raw store changes the table's fingerprint.
        let mut tampered = records.clone();
        tampered[0].estimate = 0.9;
        assert_ne!(render_json(&scenario(), &tampered), a);
    }

    #[test]
    fn infinite_noise_floors_render_as_lenient_markers() {
        let mut r = record(0, 64, 1, 0.5);
        r.noise_floor = f64::INFINITY;
        let json = render_json(&scenario(), &[r, record(1, 64, 2, 0.1 + 0.2)]);
        assert!(json.contains("\"max_noise_floor\":\"inf\""));
        assert_eq!(json, GOLDEN_AGGREGATES);
    }

    #[test]
    fn torn_tables_are_refused() {
        let doc = GOLDEN_AGGREGATES.trim_end();
        for cut in 0..doc.len() {
            let kind = bcc_obs::json::parse(&doc[..cut]).unwrap_err().kind;
            assert_eq!(kind, bcc_obs::json::ErrorKind::UnexpectedEnd, "cut {cut}");
        }
    }

    #[test]
    fn written_tables_land_atomically_next_to_the_records() {
        let dir = std::env::temp_dir().join(format!("bcc-agg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let records = vec![record(0, 64, 1, 0.25)];
        write_aggregates(&dir, &scenario(), &records);
        let text = std::fs::read_to_string(dir.join("aggregates.json")).unwrap();
        assert_eq!(text, render_json(&scenario(), &records));
        assert!(!dir.join("aggregates.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn text_report_lists_every_grid_point() {
        let records = vec![record(0, 64, 1, 0.1), record(3, 128, 1, 0.4)];
        let text = render_text(&scenario(), &records);
        assert!(text.contains("bcc-aggregates") || text.contains("aggregates for agg"));
        assert_eq!(
            text.lines().count(),
            2 + 2,
            "header rows plus one per point"
        );
    }
}
