//! Reading a persisted `metrics.json` back into a [`Snapshot`].
//!
//! Reports render from files on disk, not from a live process, so every
//! sweep's `metrics.json` must read back into the snapshot that wrote
//! it. [`Snapshot::from_json`] reads the crate's own `bcc-metrics/v2`
//! output through [`crate::json`]: work counters and work series, whose
//! values are identical at every pool size, and span histograms, which
//! are wall time. It accepts keys in any order and ignores unknown keys.
//! Like every reader in the workspace it is total: malformed input, a
//! `bcc-metrics/v1` file included, is a `None`, never a panic.

use crate::json::{self, Value};
use crate::{HistSummary, MetricName, Snapshot, METRICS_SCHEMA};

impl Snapshot {
    /// Parses a `bcc-metrics/v2` document produced by
    /// [`Snapshot::to_json`]. `None` on malformed input, a foreign
    /// schema tag, or a value out of its field's range.
    pub fn from_json(text: &str) -> Option<Snapshot> {
        let doc = json::parse(text).ok()?;
        let mut schema_ok = false;
        let mut snapshot = Snapshot {
            work: Vec::new(),
            series: Vec::new(),
            spans: Vec::new(),
        };
        for (key, value) in doc.as_object()? {
            match key.as_str() {
                "schema" => schema_ok = value.as_str()? == METRICS_SCHEMA,
                "work" => snapshot.work = named(value, Value::as_u64)?,
                "series" => snapshot.series = named(value, u64s)?,
                "spans" => snapshot.spans = named(value, hist)?,
                _ => {}
            }
        }
        schema_ok.then_some(snapshot)
    }
}

/// `{"name":V,...}` → `(name, read(V))` pairs in document order.
fn named<T>(map: &Value, read: impl Fn(&Value) -> Option<T>) -> Option<Vec<(MetricName, T)>> {
    map.as_object()?
        .iter()
        .map(|(name, v)| Some((MetricName::Owned(name.clone()), read(v)?)))
        .collect()
}

fn u64s(values: &Value) -> Option<Vec<u64>> {
    values.as_array()?.iter().map(Value::as_u64).collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.add("lab.points_computed", 7);
        r.add_at("walk.nodes_by_depth", 2, 4);
        r.record("lab.point", 900);
        r.record("lab.point", 0);
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
        let v1 = json.replace("bcc-metrics/v2", "bcc-metrics/v1");
        assert!(Snapshot::from_json(&v1).is_none());
        assert!(Snapshot::from_json(&json[..json.len() - 2]).is_none());
    }

    #[test]
    fn unknown_top_level_keys_are_skipped() {
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
}
