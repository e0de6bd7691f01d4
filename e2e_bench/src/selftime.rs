//! Per-layer self time from a `BCC_TRACE` Chrome trace, reconciled with
//! `threads × sweep wall`.
//!
//! The library's spans (`lab.sweep`, `lab.point`, `exec.adaptive`,
//! `exec.adaptive_batch`, `walk.exact`, `walk.chunk`, ...) are inclusive,
//! and a parent often just waits: every rayon call spawns fresh threads and
//! blocks its caller until they finish. Summing inclusive spans therefore
//! counts the same seconds several times. This module turns the trace into
//! shares that add up:
//!
//! 1. Per thread, spans nest (RAII), so each span's **self time** is its
//!    interval minus its direct children's.
//! 2. A thread whose whole traced lifetime lies inside a fan-out span of
//!    another thread (one of [`FAN_OUT`], the spans that wrap a rayon call)
//!    was spawned from the tightest such span; while it is alive, the
//!    spawning span's self time is **waiting**, not work. Other spans are
//!    never parents: a point that happens to outlast a sibling worker did
//!    not spawn it.
//! 3. The remaining (active) self time competes for `threads` cores: in
//!    every instant with `m` active spans, each is credited
//!    `min(1, threads / m)` and `max(0, threads − m)` goes to **idle**.
//!
//! Credited self time plus idle is then exactly `threads × wall` over the
//! `lab.sweep` windows.

use std::collections::BTreeMap;

/// The library spans that wrap a rayon fan-out (`bcc_lab::sweep`'s point
/// map, the exact walk's subtree tasks, the samplers' per-side draws).
pub const FAN_OUT: [&str; 4] = [
    "lab.sweep",
    "walk.exact",
    "exec.adaptive_batch",
    "exec.sampled",
];

/// One complete (`"ph":"X"`) trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Span name.
    pub name: String,
    /// Start, µs since the trace epoch.
    pub ts: u64,
    /// Duration, µs.
    pub dur: u64,
    /// Trace thread id.
    pub tid: u64,
}

impl Event {
    fn end(&self) -> u64 {
        self.ts + self.dur
    }
}

/// Parses the trace document `bcc_obs::trace::flush` writes.
pub fn parse(text: &str) -> Result<Vec<Event>, String> {
    let body = text
        .trim()
        .strip_prefix("{\"traceEvents\":[")
        .and_then(|s| s.strip_suffix("]}"))
        .ok_or("not a bcc Chrome trace document")?;
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split("},{")
        .map(|object| {
            let object = object.trim_start_matches('{').trim_end_matches('}');
            let (mut name, mut ts, mut dur, mut tid) = (None, None, None, None);
            for field in object.split(',') {
                let (key, value) = field
                    .split_once(':')
                    .ok_or_else(|| format!("malformed trace field {field:?}"))?;
                match key.trim_matches('"') {
                    "name" => name = Some(value.trim_matches('"').to_string()),
                    "ts" => ts = value.parse().ok(),
                    "dur" => dur = value.parse().ok(),
                    "tid" => tid = value.parse().ok(),
                    _ => {}
                }
            }
            match (name, ts, dur, tid) {
                (Some(name), Some(ts), Some(dur), Some(tid)) => Ok(Event { name, ts, dur, tid }),
                _ => Err(format!("trace event without name/ts/dur/tid: {object:?}")),
            }
        })
        .collect()
}

/// Where the `lab.sweep` windows' `threads × wall` went.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// The core count the windows are shared among.
    pub threads: usize,
    /// Summed `lab.sweep` window length, µs.
    pub wall_us: f64,
    /// Core time credited to each span name's active self time, µs.
    pub busy_us: BTreeMap<String, f64>,
    /// Self time each span name spent waiting on threads it spawned, µs.
    pub waiting_us: BTreeMap<String, f64>,
    /// Core time no span used, µs.
    pub idle_us: f64,
}

impl Attribution {
    /// `threads × wall`, µs.
    pub fn capacity_us(&self) -> f64 {
        self.threads as f64 * self.wall_us
    }

    /// Credited self time of `name`, µs (0 when it never ran).
    pub fn busy(&self, name: &str) -> f64 {
        self.busy_us.get(name).copied().unwrap_or(0.0)
    }

    /// All credited self time, µs.
    pub fn busy_total(&self) -> f64 {
        self.busy_us.values().sum()
    }

    /// `|busy + idle − threads × wall| / (threads × wall)`.
    pub fn reconcile_error(&self) -> f64 {
        let capacity = self.capacity_us();
        if capacity == 0.0 {
            return 0.0;
        }
        (self.busy_total() + self.idle_us - capacity).abs() / capacity
    }
}

/// A stretch of one span's self time.
struct Piece {
    start: u64,
    end: u64,
    name: usize,
    active: bool,
}

/// Attributes the `lab.sweep` windows of `events` over `threads` cores.
pub fn attribute(events: &[Event], threads: usize) -> Attribution {
    let threads = threads.max(1);
    let mut names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let index = |name: &str| names.binary_search(&name).expect("name collected above");

    let mut by_tid: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        by_tid.entry(e.tid).or_default().push(i);
    }
    // Each thread's spawner: the tightest fan-out span of another thread
    // that began before the thread's first span and outlived its last.
    let mut spawned: Vec<Vec<(u64, u64)>> = vec![Vec::new(); events.len()];
    for (&tid, ids) in &by_tid {
        let start = ids.iter().map(|&i| events[i].ts).min().unwrap_or(0);
        let end = ids.iter().map(|&i| events[i].end()).max().unwrap_or(0);
        let parent = (0..events.len())
            .filter(|&i| {
                let e = &events[i];
                e.tid != tid && e.ts < start && e.end() >= end && FAN_OUT.contains(&e.name.as_str())
            })
            .min_by_key(|&i| events[i].dur);
        if let Some(parent) = parent {
            spawned[parent].push((start, end));
        }
    }

    let mut pieces = Vec::new();
    for ids in by_tid.values_mut() {
        // Parents sort before the children they enclose.
        ids.sort_by_key(|&i| (events[i].ts, std::cmp::Reverse(events[i].dur)));
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); ids.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (slot, &i) in ids.iter().enumerate() {
            let e = &events[i];
            while let Some(&top) = stack.last() {
                let parent = &events[ids[top]];
                if e.ts >= parent.ts && e.end() <= parent.end() {
                    break;
                }
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                children[top].push((e.ts, e.end()));
            }
            stack.push(slot);
        }
        for (&i, kids) in ids.iter().zip(&children) {
            let e = &events[i];
            let name = index(&e.name);
            for (start, end) in subtract((e.ts, e.end()), kids) {
                let waiting = intersect_union((start, end), &spawned[i]);
                for &(s, t) in &waiting {
                    pieces.push(Piece {
                        start: s,
                        end: t,
                        name,
                        active: false,
                    });
                }
                for (s, t) in subtract((start, end), &waiting) {
                    pieces.push(Piece {
                        start: s,
                        end: t,
                        name,
                        active: true,
                    });
                }
            }
        }
    }

    let mut out = Attribution {
        threads,
        ..Attribution::default()
    };
    let mut busy = vec![0.0f64; names.len()];
    let mut waiting = vec![0.0f64; names.len()];
    for window in events.iter().filter(|e| e.name == "lab.sweep") {
        let (a, b) = (window.ts, window.end());
        out.wall_us += (b - a) as f64;
        // +1/−1 boundaries of the active pieces clipped to this window.
        let mut marks: Vec<(u64, i64, usize)> = Vec::new();
        for p in &pieces {
            let (s, t) = (p.start.max(a), p.end.min(b));
            if s >= t {
                continue;
            }
            if p.active {
                marks.push((s, 1, p.name));
                marks.push((t, -1, p.name));
            } else {
                waiting[p.name] += (t - s) as f64;
            }
        }
        marks.sort_unstable();
        let mut count = vec![0i64; names.len()];
        let (mut active, mut prev) = (0i64, a);
        for (t, delta, name) in marks.into_iter().chain([(b, 0, 0)]) {
            let dt = (t - prev) as f64;
            if dt > 0.0 {
                let share = (threads as f64 / active.max(1) as f64).min(1.0);
                for (slot, &c) in busy.iter_mut().zip(&count) {
                    *slot += dt * c as f64 * share;
                }
                out.idle_us += dt * (threads as i64 - active).max(0) as f64;
            }
            count[name] += delta;
            active += delta;
            prev = t;
        }
    }
    for (i, name) in names.iter().enumerate() {
        out.busy_us.insert(name.to_string(), busy[i]);
        out.waiting_us.insert(name.to_string(), waiting[i]);
    }
    out
}

/// `span` minus the union of `cuts`, as disjoint sorted intervals.
fn subtract(span: (u64, u64), cuts: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut cuts: Vec<(u64, u64)> = cuts.to_vec();
    cuts.sort_unstable();
    let mut out = Vec::new();
    let mut cursor = span.0;
    for (s, t) in cuts {
        if s > cursor {
            out.push((cursor, s.min(span.1)));
        }
        cursor = cursor.max(t);
        if cursor >= span.1 {
            break;
        }
    }
    if cursor < span.1 {
        out.push((cursor, span.1));
    }
    out.retain(|(s, t)| s < t);
    out
}

/// The part of `span` covered by the union of `lives`, as disjoint sorted
/// intervals.
fn intersect_union(span: (u64, u64), lives: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let uncovered = subtract(span, lives);
    subtract(span, &uncovered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, ts: u64, dur: u64, tid: u64) -> Event {
        Event {
            name: name.into(),
            ts,
            dur,
            tid,
        }
    }

    #[test]
    fn waiting_parents_give_their_time_to_spawned_threads() {
        // The main thread's sweep spawns two workers; worker 3's walk
        // waits 40 µs on a chunk thread, which the walk (a fan-out span),
        // not worker 2's enclosing point, is taken to have spawned.
        let events = vec![
            ev("lab.sweep", 0, 100, 1),
            ev("lab.point", 1, 99, 2),
            ev("lab.point", 1, 50, 3),
            ev("walk.exact", 5, 45, 3),
            ev("walk.chunk", 10, 40, 4),
        ];
        let a = attribute(&events, 2);
        assert_eq!(a.wall_us, 100.0);
        assert!(a.reconcile_error() < 1e-12);
        assert_eq!(a.busy("lab.sweep"), 1.0, "the sweep waits once workers run");
        assert_eq!(a.waiting_us["lab.sweep"], 99.0);
        assert_eq!(a.waiting_us["walk.exact"], 40.0);
        assert_eq!(a.busy("walk.chunk"), 40.0);
        assert_eq!(a.busy("walk.exact"), 5.0);
        // Worker 2's 99 µs plus worker 3's 4 + 1 µs outside its walk.
        assert_eq!(a.busy("lab.point"), 104.0);
        assert_eq!(a.idle_us, 50.0);
    }

    #[test]
    fn a_point_outlasting_a_sibling_worker_does_not_wait_on_it() {
        let events = vec![
            ev("lab.sweep", 0, 100, 1),
            ev("lab.point", 1, 98, 2),
            ev("lab.point", 2, 90, 3),
        ];
        let a = attribute(&events, 2);
        assert_eq!(a.waiting_us.get("lab.point"), Some(&0.0));
        assert_eq!(a.busy("lab.point"), 98.0 + 90.0);
    }

    #[test]
    fn oversubscribed_cores_are_shared() {
        let events = vec![
            ev("lab.sweep", 0, 10, 1),
            ev("a", 1, 9, 2),
            ev("b", 1, 9, 3),
            ev("c", 1, 9, 4),
            ev("d", 1, 9, 5),
        ];
        let a = attribute(&events, 2);
        assert_eq!(a.busy("a"), 4.5);
        assert_eq!(a.idle_us, 1.0);
        assert!(a.reconcile_error() < 1e-12);
    }

    #[test]
    fn parses_the_obs_trace_format() {
        let text = "{\"traceEvents\":[{\"name\":\"lab.sweep\",\"cat\":\"bcc\",\"ph\":\"X\",\
                    \"ts\":3,\"dur\":7,\"pid\":1,\"tid\":2},{\"name\":\"lab.point\",\"cat\":\"bcc\",\
                    \"ph\":\"X\",\"ts\":4,\"dur\":1,\"pid\":1,\"tid\":3}]}";
        let events = parse(text).expect("parses");
        assert_eq!(
            events,
            vec![ev("lab.sweep", 3, 7, 2), ev("lab.point", 4, 1, 3)]
        );
        assert!(parse("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
    }
}
