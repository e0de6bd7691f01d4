//! Persisted run directories: a manifest plus append-only JSONL records.
//!
//! A run directory holds two files:
//!
//! * `manifest.json` — the scenario's [`Scenario::fingerprint`], written
//!   once when the directory is created and required to match on every
//!   reopen, so records from different specs can never mix;
//! * `records.jsonl` — one JSON object per *completed* point,
//!   appended (and flushed) the moment the point finishes, in completion
//!   order.
//!
//! Resume reads `records.jsonl` back, compacts it to its valid lines (a
//! torn final line — the signature of a run killed mid-write — fails to
//! parse, is dropped from the file, and its point recomputes), skips
//! every point that already has a valid record, and recomputes the rest.
//! Because every point's randomness is derived from its own
//! coordinates ([`crate::ScenarioPoint::stream_root`]), the recomputed
//! estimates are bitwise the ones the interrupted run would have written.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use bcc_obs::json::{self, Value};

use crate::run::PointRecord;
use crate::scenario::Scenario;

/// An open run directory with an append handle on its record log.
#[derive(Debug)]
pub struct RunStore {
    log: BufWriter<File>,
    healed: usize,
}

impl RunStore {
    /// Opens (creating if needed) the run directory for `scenario`,
    /// returning the store and every valid record already on disk, by
    /// point id.
    ///
    /// # Panics
    ///
    /// Panics on IO errors, or if the directory's manifest was written by
    /// a different scenario specification.
    pub fn open(dir: &Path, scenario: &Scenario) -> (RunStore, BTreeMap<usize, PointRecord>) {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create run directory {}: {e}", dir.display()));
        let manifest_path = dir.join("manifest.json");
        let fingerprint = scenario.fingerprint();
        if manifest_path.exists() {
            let mut found = String::new();
            File::open(&manifest_path)
                .and_then(|mut f| f.read_to_string(&mut found))
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest_path.display()));
            assert!(
                found.trim() == fingerprint,
                "run directory {} belongs to a different scenario:\n  recorded: {}\n  requested: {}",
                dir.display(),
                found.trim(),
                fingerprint
            );
        } else {
            std::fs::write(&manifest_path, format!("{fingerprint}\n"))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", manifest_path.display()));
        }

        let log_path = dir.join("records.jsonl");
        let mut healed = 0;
        let existing = if log_path.exists() {
            let mut text = String::new();
            File::open(&log_path)
                .and_then(|mut f| f.read_to_string(&mut text))
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", log_path.display()));
            let records = parse_records(&text);
            // Lines the compaction drops: torn tails, foreign garbage and
            // superseded duplicates alike — the log's healed-line count.
            healed = text.lines().filter(|l| !l.trim().is_empty()).count() - records.len();
            // Compact: rewrite exactly the valid records, one per line, in
            // point order. This heals a torn final line (which would
            // otherwise glue onto the next append) and drops duplicates.
            let compacted = encode_log(records.values());
            if compacted != text {
                replace_log(dir, compacted);
            }
            records
        } else {
            BTreeMap::new()
        };
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .unwrap_or_else(|e| panic!("cannot open {} for append: {e}", log_path.display()));
        (
            RunStore {
                log: BufWriter::new(log),
                healed,
            },
            existing,
        )
    }

    /// How many log lines [`RunStore::open`] dropped while compacting:
    /// torn final lines from an interrupted run, foreign garbage, and
    /// superseded duplicate records.
    pub fn healed_lines(&self) -> usize {
        self.healed
    }

    /// Appends one completed point and flushes, so an interruption can
    /// lose at most the line being written (which resume detects as torn
    /// and recomputes).
    ///
    /// # Panics
    ///
    /// Panics on IO errors.
    pub fn append(&mut self, record: &PointRecord) {
        let line = encode_record(record);
        writeln!(self.log, "{line}").expect("cannot append run record");
        self.log.flush().expect("cannot flush run record");
    }
}

/// The shared deterministic prefix of both record encodings. The
/// depth-resolved fields ride at the end and only when populated
/// (truncated-depth targets): legacy records stay byte-identical, so
/// every pre-existing run directory keeps its exact log bytes and
/// fingerprint.
fn deterministic_fields(r: &PointRecord) -> Vec<(&'static str, Value)> {
    let mut fields = vec![
        ("point_id", r.point_id.into()),
        ("n", r.n.into()),
        ("k", r.k.into()),
        ("rounds", r.rounds.into()),
        ("bandwidth", r.bandwidth.into()),
        ("seed", r.seed.into()),
        ("estimate", Value::float(r.estimate)),
        // A point can legitimately record infinite uncertainty (e.g. a
        // single-repetition timing has no spread to estimate from).
        ("noise_floor", Value::float_lenient(r.noise_floor)),
        ("samples", r.samples.into()),
        ("met_tolerance", r.met_tolerance.into()),
    ];
    if r.resolved_horizon != 0 || !r.depth_floors.is_empty() {
        fields.push(("resolved_horizon", r.resolved_horizon.into()));
        fields.push(("depth_floors", r.depth_floors.as_str().into()));
    }
    fields
}

/// Serializes one record as a JSONL line (no trailing newline).
fn encode_record(r: &PointRecord) -> String {
    let mut fields = deterministic_fields(r);
    fields.push(("wall_ms", Value::float(r.wall_ms)));
    Value::object(fields).to_string()
}

/// Serializes one record *without* its `wall_ms` field — the record's
/// deterministic projection. Wall-clock per-point timing is the one
/// field resume never reproduces, so anything that must compare runs
/// bit-for-bit (the shard merge's fingerprint check, resume drills)
/// compares these lines instead of raw log bytes.
pub fn encode_record_deterministic(r: &PointRecord) -> String {
    Value::object(deterministic_fields(r)).to_string()
}

/// FNV-1a (64-bit) over the records' deterministic projections
/// ([`encode_record_deterministic`], newline-terminated) in the order
/// given. Two runs of the same grid — one sweep or merged shard stores,
/// resumed or one-shot — must produce equal fingerprints over their
/// records in canonical `point_id` order; that equality is what
/// [`crate::merge_shards`] has to preserve.
pub fn records_fingerprint<'a, I>(records: I) -> u64
where
    I: IntoIterator<Item = &'a PointRecord>,
{
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for record in records {
        for byte in encode_record_deterministic(record).bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= u64::from(b'\n');
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Reads a run directory without opening it for append: the manifest
/// fingerprint and every valid record by point id (torn or foreign
/// lines are skipped, not healed — this is [`crate::merge_shards`]'s
/// read-only view of a completed shard). `None` if the directory has no
/// manifest.
///
/// # Panics
///
/// Panics on IO errors other than the files not existing.
pub(crate) fn read_run_dir(dir: &Path) -> Option<(String, BTreeMap<usize, PointRecord>)> {
    let manifest_path = dir.join("manifest.json");
    if !manifest_path.exists() {
        return None;
    }
    let mut manifest = String::new();
    File::open(&manifest_path)
        .and_then(|mut f| f.read_to_string(&mut manifest))
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest_path.display()));
    let log_path = dir.join("records.jsonl");
    let records = if log_path.exists() {
        let mut text = String::new();
        File::open(&log_path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", log_path.display()));
        parse_records(&text)
    } else {
        BTreeMap::new()
    };
    Some((manifest.trim().to_string(), records))
}

/// Makes `dir` a run directory holding exactly `records`: writes
/// `manifest.json` and `records.jsonl` in the format [`RunStore`] uses.
///
/// # Panics
///
/// Panics on IO errors.
pub(crate) fn write_run_dir(dir: &Path, manifest: &str, records: &[PointRecord]) {
    let manifest_path = dir.join("manifest.json");
    std::fs::write(&manifest_path, format!("{manifest}\n"))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", manifest_path.display()));
    replace_log(dir, encode_log(records));
}

/// The record log holding `records`, one line each, in the order given.
fn encode_log<'a>(records: impl IntoIterator<Item = &'a PointRecord>) -> String {
    let mut log = String::new();
    for record in records {
        log.push_str(&encode_record(record));
        log.push('\n');
    }
    log
}

/// Replaces `dir/records.jsonl` with `log`. The log is written to a
/// sibling file and renamed over the old one, so a crash mid-write can
/// neither leave a half-written log nor destroy records already flushed.
fn replace_log(dir: &Path, log: String) {
    let tmp_path = dir.join("records.jsonl.tmp");
    let log_path = dir.join("records.jsonl");
    std::fs::write(&tmp_path, log)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", tmp_path.display()));
    std::fs::rename(&tmp_path, &log_path)
        .unwrap_or_else(|e| panic!("cannot finalize {}: {e}", log_path.display()));
}

/// Parses one JSONL line back into a record; `None` for torn or foreign
/// lines, and for lines whose integers do not fit their fields.
pub fn decode_record(line: &str) -> Option<PointRecord> {
    let record = json::parse(line).ok()?;
    let field = |key| record.get(key);
    let int = |key| field(key)?.as_u64();
    let small = |key| u32::try_from(int(key)?).ok();
    let float = |key| field(key)?.as_f64();
    Some(PointRecord {
        point_id: usize::try_from(int("point_id")?).ok()?,
        n: usize::try_from(int("n")?).ok()?,
        k: small("k")?,
        rounds: small("rounds")?,
        bandwidth: small("bandwidth")?,
        seed: int("seed")?,
        estimate: float("estimate")?,
        noise_floor: float("noise_floor")?,
        samples: int("samples")?,
        met_tolerance: field("met_tolerance")?.as_bool()?,
        // Depth-resolved fields are absent from legacy records: default,
        // don't refuse — old logs must keep decoding.
        resolved_horizon: match field("resolved_horizon") {
            Some(_) => small("resolved_horizon")?,
            None => 0,
        },
        depth_floors: match field("depth_floors") {
            Some(v) => v.as_str()?.to_string(),
            None => String::new(),
        },
        wall_ms: float("wall_ms")?,
    })
}

fn parse_records(text: &str) -> BTreeMap<usize, PointRecord> {
    let mut records = BTreeMap::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(record) = decode_record(line) {
            // Last write wins, though duplicates only arise from races
            // outside the scheduler.
            records.insert(record.point_id, record);
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `record_line_bytes_are_pinned`'s lines.
    const GOLDEN_LEGACY_RECORD: &str =
        "{\"point_id\":2,\"n\":1024,\"k\":6,\"rounds\":10,\"bandwidth\":1,\"seed\":3,\
         \"estimate\":2.125,\"noise_floor\":0.06,\"samples\":8192,\"met_tolerance\":true,\
         \"wall_ms\":12.75}";
    const GOLDEN_RECORD_DETERMINISTIC: &str =
        "{\"point_id\":5,\"n\":1024,\"k\":6,\"rounds\":10,\"bandwidth\":1,\
         \"seed\":18446744073709551615,\"estimate\":0.30000000000000004,\"noise_floor\":\"inf\",\
         \"samples\":8192,\"met_tolerance\":false,\"resolved_horizon\":4,\
         \"depth_floors\":\"0000000000000000-3fd0000000000000\"}";
    const GOLDEN_RECORD: &str = "{\"point_id\":5,\"n\":1024,\"k\":6,\"rounds\":10,\"bandwidth\":1,\
         \"seed\":18446744073709551615,\"estimate\":0.30000000000000004,\"noise_floor\":\"inf\",\
         \"samples\":8192,\"met_tolerance\":false,\"resolved_horizon\":4,\
         \"depth_floors\":\"0000000000000000-3fd0000000000000\",\"wall_ms\":12.75}";

    fn record(id: usize) -> PointRecord {
        PointRecord {
            point_id: id,
            n: 1024,
            k: 6,
            rounds: 10,
            bandwidth: 1,
            seed: 3,
            estimate: 0.125 + id as f64,
            noise_floor: 0.06,
            samples: 8192,
            met_tolerance: true,
            resolved_horizon: 0,
            depth_floors: String::new(),
            wall_ms: 12.75,
        }
    }

    #[test]
    fn records_round_trip_bitwise() {
        let r = record(5);
        let decoded = decode_record(&encode_record(&r)).expect("own encoding decodes");
        assert_eq!(decoded, r);
        assert_eq!(decoded.estimate.to_bits(), r.estimate.to_bits());
    }

    #[test]
    fn infinite_noise_floors_survive_the_round_trip() {
        let mut r = record(0);
        r.noise_floor = f64::INFINITY;
        let decoded = decode_record(&encode_record(&r)).expect("decodes");
        assert!(decoded.noise_floor.is_infinite());
    }

    #[test]
    fn deterministic_projection_drops_only_wall_ms() {
        let mut a = record(4);
        let mut b = record(4);
        a.wall_ms = 1.0;
        b.wall_ms = 9999.0;
        assert_eq!(
            encode_record_deterministic(&a),
            encode_record_deterministic(&b)
        );
        assert!(!encode_record_deterministic(&a).contains("wall_ms"));
        assert_eq!(records_fingerprint([&a]), records_fingerprint([&b]));
        b.samples += 1;
        assert_ne!(records_fingerprint([&a]), records_fingerprint([&b]));
    }

    #[test]
    fn depth_fields_are_emitted_only_when_populated() {
        // Legacy records (no truncated target) must keep their exact
        // bytes: the depth fields never appear, and the encoding is the
        // historical one.
        let legacy = record(1);
        let line = encode_record(&legacy);
        assert!(!line.contains("resolved_horizon"));
        assert!(!line.contains("depth_floors"));

        let mut truncated = record(1);
        truncated.resolved_horizon = 4;
        truncated.depth_floors = crate::run::encode_depth_floors(&[0.0, 0.25, 1.0]);
        let line = encode_record(&truncated);
        assert!(line.contains("\"resolved_horizon\":4"));
        assert!(line.contains("\"depth_floors\":\""));
        let decoded = decode_record(&line).expect("decodes");
        assert_eq!(decoded, truncated);
        // The deterministic projection carries them too: depth stats are
        // part of what sharded runs must reproduce bitwise.
        assert_ne!(
            records_fingerprint([&legacy]),
            records_fingerprint([&truncated])
        );

        // An exact-routed truncated cell: horizon without floors.
        let mut exact_routed = record(2);
        exact_routed.resolved_horizon = 10;
        let decoded = decode_record(&encode_record(&exact_routed)).expect("empty floors decode");
        assert_eq!(decoded, exact_routed);
    }

    #[test]
    fn record_line_bytes_are_pinned() {
        let legacy = record(2);
        let mut r = record(5);
        r.seed = u64::MAX;
        r.estimate = 0.1 + 0.2;
        r.noise_floor = f64::INFINITY;
        r.met_tolerance = false;
        r.resolved_horizon = 4;
        r.depth_floors = crate::run::encode_depth_floors(&[0.0, 0.25]);
        assert_eq!(encode_record(&legacy), GOLDEN_LEGACY_RECORD);
        assert_eq!(encode_record_deterministic(&r), GOLDEN_RECORD_DETERMINISTIC);
        assert_eq!(encode_record(&r), GOLDEN_RECORD);
        assert_eq!(records_fingerprint([&legacy, &r]), 0x8184_cffd_a5ff_6408);
    }

    #[test]
    fn legacy_lines_without_depth_fields_still_decode() {
        // A line written before the depth-resolved fields existed.
        let line = "{\"point_id\":7,\"n\":64,\"k\":4,\"rounds\":8,\"bandwidth\":1,\
                    \"seed\":3,\"estimate\":0.5,\"noise_floor\":0.1,\"samples\":128,\
                    \"met_tolerance\":true,\"wall_ms\":1.5}";
        let decoded = decode_record(line).expect("legacy decodes");
        assert_eq!(decoded.resolved_horizon, 0);
        assert!(decoded.depth_floors.is_empty());
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let (a, b) = (record(0), record(1));
        assert_eq!(records_fingerprint([&a, &b]), records_fingerprint([&a, &b]));
        assert_ne!(records_fingerprint([&a, &b]), records_fingerprint([&b, &a]));
        assert_ne!(records_fingerprint([&a]), records_fingerprint([&a, &b]));
    }

    #[test]
    fn torn_tails_are_dropped_and_earlier_lines_kept() {
        let mut text = String::new();
        for id in 0..3 {
            text.push_str(&encode_record(&record(id)));
            text.push('\n');
        }
        let full_line = encode_record(&record(3));
        text.push_str(&full_line[..full_line.len() / 2]); // torn write
        let parsed = parse_records(&text);
        assert_eq!(parsed.len(), 3);
        assert!(parsed.contains_key(&2));
        assert!(!parsed.contains_key(&3));

        // Every cut of a 3-record log keeps exactly its complete lines,
        // and the torn tail is refused as a torn write.
        let log = &text[..text.rfind('\n').unwrap() + 1];
        for cut in 0..log.len() {
            let prefix = &log[..cut];
            let tail = &prefix[prefix.rfind('\n').map_or(0, |i| i + 1)..];
            let complete = prefix.matches('\n').count() + usize::from(tail.ends_with('}'));
            assert_eq!(parse_records(prefix).len(), complete, "cut {cut}");
            if !tail.is_empty() && !tail.ends_with('}') {
                let err = json::parse(tail).expect_err(tail);
                assert_eq!(err.kind, json::ErrorKind::UnexpectedEnd, "{tail}");
            }
        }
    }

    #[test]
    fn torn_record_lines_are_refused() {
        for line in [
            GOLDEN_LEGACY_RECORD,
            GOLDEN_RECORD,
            GOLDEN_RECORD_DETERMINISTIC,
        ] {
            for cut in 0..line.len() {
                let kind = json::parse(&line[..cut]).unwrap_err().kind;
                assert_eq!(kind, json::ErrorKind::UnexpectedEnd, "cut {cut}");
                assert_eq!(decode_record(&line[..cut]), None);
            }
        }
    }

    #[test]
    fn out_of_range_integers_are_refused_not_narrowed() {
        let line = encode_record(&record(1));
        for (field, widened) in [
            ("\"k\":6", "\"k\":4294967302"),
            ("\"rounds\":10", "\"rounds\":4294967306"),
            ("\"bandwidth\":1", "\"bandwidth\":4294967297"),
        ] {
            let line = line.replace(field, widened);
            assert_eq!(decode_record(&line), None, "{widened} must not narrow");
            // The store drops the line as torn and keeps the others.
            let log = format!("{}\n{line}\n", encode_record(&record(0)));
            assert_eq!(parse_records(&log).keys().collect::<Vec<_>>(), [&0]);
        }
        let mut deep = record(1);
        deep.resolved_horizon = 4;
        let line = encode_record(&deep)
            .replace("\"resolved_horizon\":4", "\"resolved_horizon\":4294967300");
        assert_eq!(decode_record(&line), None);
    }
}
