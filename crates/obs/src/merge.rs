//! Merging per-shard metrics snapshots back into one report.
//!
//! Each shard store of a sweep holds its own `metrics.json`;
//! `bcc_lab::merge_shards` folds them into a single [`Snapshot`] with
//! the same schema and writes it into the merged run directory. The
//! fold is sound because every work metric is a commutative integer sum
//! by construction (the property the thread/kernel invariance tests
//! already rely on): summing per-shard work counters yields exactly the
//! counters a single-process sweep of the same grid records, so the
//! merged observability report is as placement-independent as the
//! records themselves. The process-global deltas (`global.*`,
//! `kernel.words.*`) are the exception: they reconcile only when nothing
//! else in the process runs at the same time. Wall-class values merge by
//! the same rules but stay scheduling-dependent, as always.
//!
//! [`Snapshot::from_json`] reads the crate's own `bcc-metrics/v1` output
//! through [`crate::json`]. It accepts keys in any order and ignores
//! unknown keys, so the format can grow without breaking shard merges
//! mid-migration.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::{Class, HistSummary, Snapshot, METRICS_SCHEMA};

impl Snapshot {
    /// Parses a `bcc-metrics/v1` document produced by
    /// [`Snapshot::to_json`]. `None` on malformed input, a foreign
    /// schema tag, or a value out of its field's range.
    pub fn from_json(text: &str) -> Option<Snapshot> {
        let doc = json::parse(text).ok()?;
        let mut schema_ok = false;
        let mut snapshot = Snapshot {
            work: Vec::new(),
            wall: Vec::new(),
            series: Vec::new(),
            spans: Vec::new(),
        };
        for (key, value) in doc.as_object()? {
            match key.as_str() {
                "schema" => schema_ok = value.as_str()? == METRICS_SCHEMA,
                "work" => snapshot.work = named(value, Value::as_u64)?,
                "wall" => snapshot.wall = named(value, Value::as_u64)?,
                "series" => {
                    let entries = named(value, series)?.into_iter();
                    snapshot.series = entries.map(|(name, (c, v))| (name, c, v)).collect();
                }
                "spans" => snapshot.spans = named(value, hist)?,
                _ => {}
            }
        }
        schema_ok.then_some(snapshot)
    }
}

/// `{"name":V,...}` → `(name, read(V))` pairs in document order.
fn named<T>(map: &Value, read: impl Fn(&Value) -> Option<T>) -> Option<Vec<(String, T)>> {
    map.as_object()?
        .iter()
        .map(|(name, v)| Some((name.clone(), read(v)?)))
        .collect()
}

fn u64s(values: &Value) -> Option<Vec<u64>> {
    values.as_array()?.iter().map(Value::as_u64).collect()
}

/// `{"class":"work","values":[..]}`.
fn series(entry: &Value) -> Option<(Class, Vec<u64>)> {
    let class = match entry.get("class")?.as_str()? {
        "work" => Class::Work,
        "wall" => Class::Wall,
        _ => return None,
    };
    Some((class, u64s(entry.get("values")?)?))
}

/// `{"count":N,"total_us":N,"max_us":N,"buckets":[[b,c],..]}`; a bucket
/// id must fit the `u32` it is stored as.
fn hist(entry: &Value) -> Option<HistSummary> {
    let field = |key| entry.get(key)?.as_u64();
    let buckets = entry
        .get("buckets")?
        .as_array()?
        .iter()
        .map(|pair| match u64s(pair)?.as_slice() {
            &[b, c] => Some((u32::try_from(b).ok()?, c)),
            _ => None,
        })
        .collect::<Option<_>>()?;
    Some(HistSummary {
        count: field("count")?,
        total: field("total_us")?,
        max: field("max_us")?,
        buckets,
    })
}

/// Folds snapshots into one: counters and series sum name-wise (work
/// and wall alike), and histograms merge their counts/totals/buckets and
/// take the max of maxes. The fold is commutative and associative, so
/// shard order cannot change a byte of the merged report.
pub fn merge_snapshots(parts: &[Snapshot]) -> Snapshot {
    let mut work: BTreeMap<String, u64> = BTreeMap::new();
    let mut wall: BTreeMap<String, u64> = BTreeMap::new();
    let mut series: BTreeMap<String, (Class, Vec<u64>)> = BTreeMap::new();
    let mut spans: BTreeMap<String, HistSummary> = BTreeMap::new();
    for part in parts {
        for (name, value) in &part.work {
            *work.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &part.wall {
            *wall.entry(name.clone()).or_insert(0) += value;
        }
        for (name, class, values) in &part.series {
            let slot = series
                .entry(name.clone())
                .or_insert_with(|| (*class, Vec::new()));
            debug_assert_eq!(slot.0, *class, "series class mismatch for {name}");
            if slot.1.len() < values.len() {
                slot.1.resize(values.len(), 0);
            }
            for (acc, v) in slot.1.iter_mut().zip(values) {
                *acc += v;
            }
        }
        for (name, h) in &part.spans {
            let slot = spans.entry(name.clone()).or_insert_with(|| HistSummary {
                count: 0,
                total: 0,
                max: 0,
                buckets: Vec::new(),
            });
            slot.count += h.count;
            slot.total = slot.total.saturating_add(h.total);
            slot.max = slot.max.max(h.max);
            let mut buckets: BTreeMap<u32, u64> = slot.buckets.iter().copied().collect();
            for &(b, c) in &h.buckets {
                *buckets.entry(b).or_insert(0) += c;
            }
            slot.buckets = buckets.into_iter().collect();
        }
    }
    Snapshot {
        work: work.into_iter().collect(),
        wall: wall.into_iter().collect(),
        series: series
            .into_iter()
            .map(|(name, (class, values))| (name, class, values))
            .collect(),
        spans: spans.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.add("lab.points_computed", Class::Work, 7);
        r.add("walk.chunks", Class::Wall, 3);
        r.add_at("walk.nodes_by_depth", Class::Work, 2, 4);
        r.record("lab.point", Class::Wall, 900);
        r.record("lab.point", Class::Wall, 0);
        r.snapshot()
    }

    #[test]
    fn json_round_trips_exactly() {
        let s = sample();
        let parsed = Snapshot::from_json(&s.to_json()).expect("own output parses");
        assert_eq!(parsed, s);
        // And the re-rendered JSON is byte-identical.
        assert_eq!(parsed.to_json(), s.to_json());
    }

    #[test]
    fn foreign_or_malformed_documents_are_refused() {
        assert!(Snapshot::from_json("{}").is_none());
        assert!(Snapshot::from_json("{\"schema\":\"other/v1\",\"work\":{}}").is_none());
        assert!(Snapshot::from_json("not json").is_none());
        let json = sample().to_json();
        assert!(Snapshot::from_json(&json[..json.len() - 2]).is_none());
    }

    #[test]
    fn unknown_top_level_keys_are_skipped() {
        // One snapshot only: the global.* deltas move when other tests
        // in this binary count concurrently, so two sample() calls are
        // not comparable.
        let s = sample();
        let json = s.to_json();
        for (key, future) in [
            ("future", "{\"nested\":[1,2,{\"x\":\"y\"}]}"),
            ("future", "1.5"),
            ("future", "-1"),
            ("future", "true"),
            ("future", "null"),
            // The retired string notes of older metrics.json files.
            ("notes", "{\"kernel.dispatch\":\"scalar\"}"),
        ] {
            let extended = format!("{},\"{key}\":{future}}}", &json[..json.len() - 1]);
            let parsed = Snapshot::from_json(&extended)
                .unwrap_or_else(|| panic!("document extended by {key}: {future} parses"));
            assert_eq!(parsed, s);
        }
    }

    #[test]
    fn out_of_range_bucket_ids_are_refused() {
        let json = sample().to_json();
        assert!(json.contains("\"buckets\":[[0,1],"));
        // Bucket 2^32 would narrow to bucket 0.
        let widened = json.replace("\"buckets\":[[0,1],", "\"buckets\":[[4294967296,1],");
        assert_eq!(Snapshot::from_json(&widened), None);
    }

    #[test]
    fn merge_sums_counters_and_series() {
        let a = Registry::new();
        a.add("x", Class::Work, 3);
        a.add_at("s", Class::Work, 0, 1);
        let b = Registry::new();
        b.add("x", Class::Work, 4);
        b.add("y", Class::Work, 1);
        b.add_at("s", Class::Work, 2, 5);
        let merged = merge_snapshots(&[a.snapshot(), b.snapshot()]);
        assert_eq!(merged.work_counter("x"), 7);
        assert_eq!(merged.work_counter("y"), 1);
        assert_eq!(merged.series_values("s"), &[1, 0, 5]);
    }

    #[test]
    fn merge_is_commutative() {
        let a = sample();
        let b = Registry::new();
        b.add("lab.points_computed", Class::Work, 2);
        b.add("y", Class::Work, 1);
        b.record("lab.point", Class::Wall, 70);
        let b = b.snapshot();
        let ab = merge_snapshots(&[a.clone(), b.clone()]);
        let ba = merge_snapshots(&[b, a]);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_combines_histograms() {
        let a = Registry::new();
        a.record("lab.point", Class::Wall, 900);
        let b = Registry::new();
        b.record("lab.point", Class::Wall, 0);
        b.record("lab.point", Class::Wall, 1000);
        let merged = merge_snapshots(&[a.snapshot(), b.snapshot()]);
        let (_, h) = &merged.spans[0];
        assert_eq!((h.count, h.total, h.max), (3, 1900, 1000));
        assert_eq!(h.buckets, vec![(0, 1), (10, 2)]);
    }

    #[test]
    fn merged_snapshot_round_trips_through_json() {
        let s = sample();
        let merged = merge_snapshots(&[s.clone(), s]);
        let parsed = Snapshot::from_json(&merged.to_json()).expect("parses");
        assert_eq!(parsed, merged);
    }
}
