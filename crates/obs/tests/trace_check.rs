//! Chrome-trace validator, reading through the workspace JSON codec.
//!
//! Three consumers:
//! - unit tests on literal strings pin the validator itself,
//! - `emitted_trace_parses_and_nests` generates a real trace through
//!   the span API (programmatic [`bcc_obs::trace::install`]) and
//!   validates it end to end,
//! - `validates_external_file` re-checks a trace produced by another
//!   process when `BCC_TRACE_CHECK=<path>` is set — the CI
//!   `trace-smoke` step points it at the file `lab_sweep --smoke`
//!   wrote under `BCC_TRACE` — together with the sweep directories
//!   beside it.

use std::collections::BTreeMap;
use std::path::Path;

use bcc_obs::json::{self, Value};
use bcc_obs::Snapshot;

/// One parsed trace event.
#[derive(Debug, Clone)]
struct Event {
    name: String,
    ph: String,
    ts: u64,
    dur: u64,
    tid: u64,
}

/// The `traceEvents` of a Chrome trace document. `Err` names what is
/// missing or malformed.
fn trace_events(text: &str) -> Result<Vec<Event>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("no traceEvents array")?;
    events
        .iter()
        .map(|e| {
            let string = |key| {
                e.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("event missing {key}"))
            };
            let number = |key| {
                e.get(key)
                    .and_then(Value::as_u64)
                    .ok_or(format!("event missing {key}"))
            };
            Ok(Event {
                name: string("name")?,
                ph: string("ph")?,
                ts: number("ts")?,
                dur: number("dur")?,
                tid: number("tid")?,
            })
        })
        .collect()
}

/// Validate that complete events nest properly per thread: sorted by
/// (ts asc, dur desc), every event either starts after the enclosing
/// span ended or ends within it. RAII span guards guarantee this by
/// construction; a violation means the writer (or a clock) is broken.
fn check_nesting(events: &[Event]) -> Result<(), String> {
    let mut by_tid: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events {
        if e.ph != "X" {
            return Err(format!("event {} has ph {:?}, want \"X\"", e.name, e.ph));
        }
        by_tid.entry(e.tid).or_default().push(e);
    }
    for (tid, mut evs) in by_tid {
        evs.sort_by_key(|e| (e.ts, std::cmp::Reverse(e.dur)));
        let mut stack: Vec<&Event> = Vec::new();
        for e in evs {
            while let Some(top) = stack.last() {
                if top.ts + top.dur <= e.ts {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                let (end, top_end) = (e.ts + e.dur, top.ts + top.dur);
                if end > top_end {
                    return Err(format!(
                        "tid {tid}: span {:?} [{}..{}] overlaps enclosing {:?} [{}..{}]",
                        e.name, e.ts, end, top.name, top.ts, top_end
                    ));
                }
            }
            stack.push(e);
        }
    }
    Ok(())
}

fn validate(text: &str) -> Result<Vec<Event>, String> {
    let events = trace_events(text)?;
    check_nesting(&events)?;
    Ok(events)
}

#[test]
fn validator_accepts_nested_and_rejects_overlap() {
    let good = r#"{"displayTimeUnit":"ms","traceEvents":[
        {"name":"outer","cat":"bcc","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
        {"name":"inner","cat":"bcc","ph":"X","ts":10,"dur":20,"pid":1,"tid":1},
        {"name":"sibling","cat":"bcc","ph":"X","ts":30,"dur":70,"pid":1,"tid":1},
        {"name":"other-thread","cat":"bcc","ph":"X","ts":5,"dur":500,"pid":1,"tid":2}
    ]}"#;
    let events = validate(good).expect("well-nested trace validates");
    assert_eq!(events.len(), 4);

    let overlapping = r#"{"traceEvents":[
        {"name":"a","ph":"X","ts":0,"dur":10,"tid":1},
        {"name":"b","ph":"X","ts":5,"dur":10,"tid":1}
    ]}"#;
    let err = validate(overlapping).expect_err("partial overlap must fail");
    assert!(err.contains("overlaps"), "got: {err}");

    assert!(validate("{\"traceEvents\":[]}")
        .expect("empty ok")
        .is_empty());
    assert!(validate("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
    assert!(validate("not json").is_err());
}

#[test]
fn emitted_trace_parses_and_nests() {
    let path = std::env::temp_dir().join(format!("bcc-trace-selftest-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    assert!(
        bcc_obs::trace::install(&path),
        "this test must be the first trace-sink user in the binary"
    );

    {
        let _outer = bcc_obs::span("selftest.outer");
        {
            let _inner = bcc_obs::span("selftest.inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let _tail = bcc_obs::span("selftest.tail");
    }
    std::thread::spawn(|| {
        let _worker = bcc_obs::span("selftest.worker");
        let _child = bcc_obs::span("selftest.worker_child");
        std::hint::black_box((0..1000).product::<u64>());
    })
    .join()
    .unwrap();

    bcc_obs::trace::flush()
        .expect("sink enabled")
        .expect("flush writes");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let events = validate(&text).expect("emitted trace is valid and nested");
    assert_eq!(events.len(), 5, "five spans emitted: {events:?}");
    let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    for want in [
        "selftest.outer",
        "selftest.inner",
        "selftest.tail",
        "selftest.worker",
        "selftest.worker_child",
    ] {
        assert!(names.contains(&want), "{want} missing from {names:?}");
    }
    // The spawned thread's spans carry a distinct tid.
    let main_tid = events
        .iter()
        .find(|e| e.name == "selftest.outer")
        .unwrap()
        .tid;
    let worker_tid = events
        .iter()
        .find(|e| e.name == "selftest.worker")
        .unwrap()
        .tid;
    assert_ne!(main_tid, worker_tid);
    // The sink's epoch predates the first span, so the first span to end
    // keeps its whole duration, and the span around it at least as much.
    let dur = |name: &str| events.iter().find(|e| e.name == name).unwrap().dur;
    let (inner, outer) = (dur("selftest.inner"), dur("selftest.outer"));
    assert!(
        inner >= 2_000,
        "inner span slept 2 ms but lasted {inner} us"
    );
    assert!(
        outer >= inner,
        "outer span {outer} us < inner span {inner} us"
    );
    let _ = std::fs::remove_file(&path);
}

/// CI hook: when `BCC_TRACE_CHECK` names a file (the trace another
/// process wrote under `BCC_TRACE`), parse and nesting-check it, then
/// check every sweep directory beside it ([`check_sweep_dir`]).
#[test]
fn validates_external_file() {
    let Some(path) = std::env::var_os("BCC_TRACE_CHECK") else {
        eprintln!("SKIP validates_external_file: BCC_TRACE_CHECK not set");
        return;
    };
    let path = Path::new(&path);
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let events = validate(&text).expect("external trace is valid and nested");
    assert!(
        !events.is_empty(),
        "external trace has no events — spans not wired?"
    );
    println!(
        "validated {} events across {} threads from {}",
        events.len(),
        events
            .iter()
            .map(|e| e.tid)
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        path.display()
    );

    let base = path.parent().unwrap_or(Path::new("."));
    let mut sweeps = 0;
    for entry in std::fs::read_dir(base).expect("list the trace's directory") {
        let dir = entry.expect("read a directory entry").path();
        if dir.join("metrics.json").is_file() {
            check_sweep_dir(&dir);
            sweeps += 1;
        }
    }
    assert!(sweeps > 0, "no sweep directory beside {}", path.display());
}

/// Checks one persisted sweep directory from its files alone:
/// `metrics.json` is `bcc-metrics/v2` (work counters and series, the
/// same at every pool size, and wall-time span histograms) and
/// re-renders byte-identically through [`Snapshot::from_json`], and
/// `aggregates.json` is
/// `bcc-aggregates/v1` whose `records_fingerprint` and `points` match
/// the directory's `records.jsonl`.
fn check_sweep_dir(dir: &Path) {
    let read = |name: &str| {
        let text = std::fs::read_to_string(dir.join(name)).expect(name);
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}/{name}: {e}", dir.display()));
        (text, doc)
    };
    let (metrics, doc) = read("metrics.json");
    assert_eq!(doc.get("schema"), Some(&"bcc-metrics/v2".into()));
    let snapshot = Snapshot::from_json(&metrics).expect("metrics.json is a snapshot");
    assert_eq!(snapshot.to_json(), metrics, "{}", dir.display());

    let (_, table) = read("aggregates.json");
    assert_eq!(table.get("schema"), Some(&"bcc-aggregates/v1".into()));
    // The records fingerprint is FNV-1a over each record's deterministic
    // projection (every field but `wall_ms`) plus a newline, in point
    // order.
    let log = std::fs::read_to_string(dir.join("records.jsonl")).expect("records.jsonl");
    let mut records: Vec<(u64, String)> = log
        .lines()
        .map(|line| {
            let record = json::parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            let id = record.get("point_id").and_then(Value::as_u64).expect(line);
            let fields = record.as_object().expect(line).iter();
            let projection = fields
                .filter(|(key, _)| key != "wall_ms")
                .cloned()
                .collect();
            (id, Value::Object(projection).to_string())
        })
        .collect();
    records.sort();
    records.dedup_by_key(|(id, _)| *id);
    assert_eq!(records.len(), log.lines().count(), "duplicate point ids");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in records
        .iter()
        .flat_map(|(_, line)| line.bytes().chain([b'\n']))
    {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let fingerprint = format!("{hash:016x}");
    assert_eq!(table.get("records_fingerprint"), Some(&fingerprint.into()));
    assert_eq!(table.get("points"), Some(&records.len().into()));
    println!("checked {} ({} records)", dir.display(), records.len());
}
