//! Reading a persisted `metrics.json` back into a [`Snapshot`].
//!
//! Reports render from files on disk, not from a live process, so every
//! sweep's `metrics.json` must read back into the snapshot that wrote
//! it. [`Snapshot::from_json`] reads the crate's own `bcc-metrics/v1`
//! output through [`crate::json`]. It accepts keys in any order and
//! ignores unknown keys, so files written by a newer or older version of
//! the format still read. Like every reader in the workspace it is
//! total: malformed input is a `None`, never a panic.

use crate::json::{self, Value};
use crate::{Class, HistSummary, MetricName, Snapshot, METRICS_SCHEMA};

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
fn named<T>(map: &Value, read: impl Fn(&Value) -> Option<T>) -> Option<Vec<(MetricName, T)>> {
    map.as_object()?
        .iter()
        .map(|(name, v)| Some((MetricName::Owned(name.clone()), read(v)?)))
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
