//! The committed output reference: per scenario fingerprint, a hash of
//! every record's deterministic projection and the sweep's full work
//! vector.
//!
//! A table is plain text, one block per (replication block, scenario):
//!
//! ```text
//! scenario <fnv64 of Scenario::fingerprint> class <c> name <name> records <records_fingerprint>
//! points <records_fingerprint of point 0> <... of point 1> ...
//! work <counter>=<value> <counter>=<value> ...
//! ```
//!
//! The key is the scenario fingerprint, which pins the exact walk's split
//! depths, so a host whose pool implies other depths finds no reference
//! instead of reporting false mismatches.

use bcc_lab::{records_fingerprint, PointRecord, Scenario};

use crate::workloads::Kind;

/// The committed table of one workload.
pub fn table(kind: Kind) -> &'static str {
    match kind {
        Kind::RankSampled => include_str!("../reference/rank_sampled.txt"),
        Kind::WideExact => include_str!("../reference/wide_exact.txt"),
        Kind::WideRouted => include_str!("../reference/wide_routed.txt"),
        Kind::FindClique => include_str!("../reference/find_clique.txt"),
    }
}

/// The reference of one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Per-point hash of the deterministic projection, in `point_id` order.
    pub points: Vec<u64>,
    /// The sweep's `Snapshot::work_fingerprint`.
    pub work: Vec<(String, u64)>,
}

/// FNV-1a (64-bit) of a string: the table key of a scenario fingerprint.
pub fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The hash a table stores for one record.
pub fn point_hash(record: &PointRecord) -> u64 {
    records_fingerprint([record])
}

/// Finds the entry for `scenario` in `text`; `None` when the table has no
/// block under its fingerprint (or the block is malformed).
pub fn lookup(text: &str, scenario: &Scenario) -> Option<Entry> {
    let key = format!("{:016x}", fnv(&scenario.fingerprint()));
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let mut words = line.split_whitespace();
        if words.next() != Some("scenario") || words.next() != Some(key.as_str()) {
            continue;
        }
        let points = lines
            .next()?
            .strip_prefix("points")?
            .split_whitespace()
            .map(|h| u64::from_str_radix(h, 16).ok())
            .collect::<Option<Vec<u64>>>()?;
        let work = lines
            .next()?
            .strip_prefix("work")?
            .split_whitespace()
            .map(|cell| {
                let (name, value) = cell.split_once('=')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect::<Option<Vec<_>>>()?;
        return Some(Entry { points, work });
    }
    None
}

/// Renders one block of a table.
pub fn render(
    class: u64,
    scenario: &Scenario,
    records: &[PointRecord],
    work: &[(String, u64)],
) -> String {
    let points: Vec<String> = records
        .iter()
        .map(|r| format!("{:016x}", point_hash(r)))
        .collect();
    let cells: Vec<String> = work.iter().map(|(n, v)| format!("{n}={v}")).collect();
    format!(
        "scenario {:016x} class {class} name {} records {:016x}\npoints {}\nwork {}\n",
        fnv(&scenario.fingerprint()),
        scenario.name(),
        records_fingerprint(records),
        points.join(" "),
        cells.join(" ")
    )
}

/// The counters on which two work vectors differ, as `name: old -> new`
/// lines (a missing counter reads as absent).
pub fn diff_work(committed: &[(String, u64)], current: &[(String, u64)]) -> Vec<String> {
    let old: std::collections::BTreeMap<&str, u64> =
        committed.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let new: std::collections::BTreeMap<&str, u64> =
        current.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let mut names: Vec<&str> = old.keys().chain(new.keys()).copied().collect();
    names.sort_unstable();
    names.dedup();
    let show = |v: Option<&u64>| v.map_or("absent".to_string(), u64::to_string);
    names
        .into_iter()
        .filter(|n| old.get(n) != new.get(n))
        .map(|n| format!("{n}: {} -> {}", show(old.get(n)), show(new.get(n))))
        .collect()
}
