//! `bcc-obs` — observability for a bitwise-deterministic estimator.
//!
//! Every number this workspace produces is required to be bit-identical
//! across thread counts, F2 kernels, parallel/sequential execution and
//! sweep resumes. That constraint shapes the telemetry layer in two
//! ways:
//!
//! 1. **Observability must be invisible.** Enabling metrics or tracing
//!    cannot change a single output bit (pinned by the differential
//!    tests in `bcc-core`). Hence: no instrumentation on the data path,
//!    only counters beside it.
//! 2. **Work metrics are themselves deterministic.** The expensive
//!    loops (exact-walk nodes, live points priced, keys radix-sorted
//!    and merged, kernel words processed, samples drawn) are counted as
//!    integer totals that commute under any schedule, so the totals are
//!    identical across `RAYON_NUM_THREADS` values — which makes them a
//!    correctness oracle, not just a dashboard.
//!
//! The layer has three parts:
//!
//! - a [`Registry`] of named counters / series / log-bucketed
//!   histograms, split into [`Class::Work`] (deterministic) and
//!   [`Class::Wall`] (timings, scheduling artifacts). Registries are
//!   cheap `Arc` handles; [`Registry::install`] scopes one to the
//!   current thread so library code can attribute work to the active
//!   run via [`current`], and hot loops instead carry the handle (or a
//!   local tally flushed coarsely) across rayon spawns.
//! - [`span`] / [`Registry::span`]: RAII scoped timers that record
//!   wall-class duration histograms and, when `BCC_TRACE=<path>` (or
//!   [`trace::install`]) is set, emit Chrome-trace-event JSON viewable
//!   in `chrome://tracing` / Perfetto. With no registry installed and
//!   tracing off, a span is two branches and no clock read.
//! - process-wide work totals (keys sorted/merged, kernel words per
//!   method family) kept as relaxed atomics here so `bcc-f2` and
//!   `bcc-core` can count without depending on a scope being installed
//!   on their thread; a [`Snapshot`] reports them as deltas from the
//!   registry's creation time. Kernel-word counting is gated on any
//!   scope being active at all, so the per-word-op overhead is a single
//!   relaxed load when nobody is looking.
//!
//! Snapshots render as JSON ([`Snapshot::to_json`], the `metrics.json`
//! files `bcc-lab` writes next to each sweep's `records.jsonl`) or as a
//! text table ([`Snapshot::render_text`]). The crate also holds the
//! workspace's one JSON codec, [`json`], which every persisted artifact
//! is written and read through.

#![forbid(unsafe_code)]

pub mod json;
pub mod merge;
pub mod trace;

pub use merge::merge_snapshots;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use json::Value;

/// The schema tag of [`Snapshot::to_json`] documents.
const METRICS_SCHEMA: &str = "bcc-metrics/v1";

/// Which determinism contract a metric lives under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Deterministic work: integer totals that commute under any
    /// schedule and are therefore identical across thread counts and
    /// kernels. Safe to assert on in tests.
    Work,
    /// Wall-clock or scheduling-dependent: span timings, chunk counts,
    /// pool-slot reuse. Useful for profiling, never asserted equal.
    Wall,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Work => "work",
            Class::Wall => "wall",
        }
    }
}

// ---------------------------------------------------------------------------
// Process-wide work totals
// ---------------------------------------------------------------------------

static KEYS_SORTED: AtomicU64 = AtomicU64::new(0);
static KEYS_MERGED: AtomicU64 = AtomicU64::new(0);

/// F2 word-kernel method families, for per-family word totals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelFamily {
    /// Bulk boolean ops: `and`, `and_not`, `or`, `xor_in_place`.
    Boolean = 0,
    /// Reductions: `count_ones`, `dot`, `or_and_fold`.
    Reduce = 1,
    /// Masked filters: `filter_count`, `filter_into`, `filter_indices`,
    /// `ones_indices`.
    Filter = 2,
    /// Radix byte passes: `byte_histogram`, `byte_scatter` (unit: keys).
    Bytes = 3,
    /// Cross-word shifts: `extract_shifted`, `or_shifted_into`.
    Shift = 4,
}

const KERNEL_FAMILIES: usize = 5;
const KERNEL_FAMILY_NAMES: [&str; KERNEL_FAMILIES] =
    ["boolean", "reduce", "filter", "bytes", "shift"];

static KERNEL_WORDS: [AtomicU64; KERNEL_FAMILIES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// How many registry scopes are installed process-wide. Non-zero means
/// some run is observing, so the (hot) kernel-word counters engage.
static SCOPES_ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Add to the process-wide radix-sort key total. Always on: the callers
/// (`bcc_core::sample`) count whole slices per call, so the cost is one
/// relaxed add per sort, not per key.
#[inline]
pub fn add_keys_sorted(n: u64) {
    KEYS_SORTED.fetch_add(n, Ordering::Relaxed);
}

/// Add to the process-wide sorted-merge key total. Always on, like
/// [`add_keys_sorted`].
#[inline]
pub fn add_keys_merged(n: u64) {
    KEYS_MERGED.fetch_add(n, Ordering::Relaxed);
}

/// Process-wide total of keys submitted to the radix sorter.
#[inline]
fn keys_sorted_total() -> u64 {
    KEYS_SORTED.load(Ordering::Relaxed)
}

/// Process-wide total of keys flowing through sorted merges.
#[inline]
pub fn keys_merged_total() -> u64 {
    KEYS_MERGED.load(Ordering::Relaxed)
}

/// Count words processed by an F2 kernel method family. Gated on a
/// scope being active anywhere in the process: when nothing observes,
/// this is a single relaxed load and a predictable branch.
#[inline]
pub fn add_kernel_words(family: KernelFamily, words: u64) {
    if SCOPES_ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    KERNEL_WORDS[family as usize].fetch_add(words, Ordering::Relaxed);
}

#[derive(Clone, Copy, Debug)]
struct GlobalsBaseline {
    keys_sorted: u64,
    keys_merged: u64,
    kernel_words: [u64; KERNEL_FAMILIES],
}

impl GlobalsBaseline {
    fn now() -> Self {
        let mut kernel_words = [0u64; KERNEL_FAMILIES];
        for (slot, total) in kernel_words.iter_mut().zip(KERNEL_WORDS.iter()) {
            *slot = total.load(Ordering::Relaxed);
        }
        GlobalsBaseline {
            keys_sorted: keys_sorted_total(),
            keys_merged: keys_merged_total(),
            kernel_words,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

const HIST_BUCKETS: usize = 65;

#[derive(Clone, Debug, Default)]
struct HistData {
    count: u64,
    total: u64,
    max: u64,
    /// `buckets[b]` counts values whose bit length is `b` (so bucket
    /// `b` spans `[2^(b-1), 2^b)`; bucket 0 is exactly zero).
    buckets: Vec<u64>,
}

impl HistData {
    fn record(&mut self, value: u64) {
        self.count += 1;
        self.total = self.total.saturating_add(value);
        self.max = self.max.max(value);
        if self.buckets.is_empty() {
            self.buckets = vec![0; HIST_BUCKETS];
        }
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, (Class, u64)>,
    series: BTreeMap<&'static str, (Class, Vec<u64>)>,
    hists: BTreeMap<&'static str, (Class, HistData)>,
}

/// A per-run metrics registry: a cheap, cloneable `Arc` handle.
///
/// Flushes are coarse (once per walk chunk / estimator run / lab
/// point), so the interior is a plain mutex — there are no per-node or
/// per-word lock acquisitions anywhere.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
    baseline: GlobalsBaseline,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Create an empty registry. Process-wide totals observed so far
    /// become the baseline its [`Snapshot`] reports deltas against.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Mutex::new(Inner::default())),
            baseline: GlobalsBaseline::now(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `value` to the named counter.
    pub fn add(&self, name: &'static str, class: Class, value: u64) {
        let mut inner = self.lock();
        let slot = inner.counters.entry(name).or_insert((class, 0));
        debug_assert_eq!(slot.0, class, "metric class mismatch for {name}");
        slot.1 += value;
    }

    /// Add `value` at `index` of the named series (e.g. per-depth node
    /// counts). The series grows as needed.
    pub fn add_at(&self, name: &'static str, class: Class, index: usize, value: u64) {
        let mut inner = self.lock();
        let slot = inner.series.entry(name).or_insert((class, Vec::new()));
        debug_assert_eq!(slot.0, class, "metric class mismatch for {name}");
        if slot.1.len() <= index {
            slot.1.resize(index + 1, 0);
        }
        slot.1[index] += value;
    }

    /// Record one observation into the named log-bucketed histogram.
    pub fn record(&self, name: &'static str, class: Class, value: u64) {
        let mut inner = self.lock();
        let slot = inner
            .hists
            .entry(name)
            .or_insert((class, HistData::default()));
        debug_assert_eq!(slot.0, class, "metric class mismatch for {name}");
        slot.1.record(value);
    }

    /// Install this registry as the current scope on this thread; the
    /// returned guard uninstalls it on drop. Scopes nest (innermost
    /// wins). The guard is `!Send` — it must drop on the installing
    /// thread.
    pub fn install(&self) -> Scope {
        SCOPE_STACK.with(|stack| stack.borrow_mut().push(self.clone()));
        SCOPES_ACTIVE.fetch_add(1, Ordering::Relaxed);
        Scope {
            _not_send: PhantomData,
        }
    }

    /// Start a wall-clock span recorded into this registry (and into
    /// the trace sink when enabled), bypassing [`current`] — for code
    /// that carries a handle across worker threads.
    pub fn span(&self, name: &'static str) -> Span {
        Span::begin(name, Some(self.clone()))
    }

    /// Materialize everything recorded so far, plus process-global work
    /// totals as deltas from this registry's creation.
    ///
    /// The global deltas (`global.keys_*`, `kernel.words.*`) are exact
    /// per-run attributions only while no *other* run observes
    /// concurrently; the registry's own counters (flushed run-locally
    /// by walk/exec/lab) are exact always.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let mut work: Vec<(String, u64)> = Vec::new();
        let mut wall: Vec<(String, u64)> = Vec::new();
        for (name, (class, value)) in &inner.counters {
            match class {
                Class::Work => work.push((name.to_string(), *value)),
                Class::Wall => wall.push((name.to_string(), *value)),
            }
        }
        let globals = GlobalsBaseline::now();
        work.push((
            "global.keys_sorted".to_string(),
            globals.keys_sorted - self.baseline.keys_sorted,
        ));
        work.push((
            "global.keys_merged".to_string(),
            globals.keys_merged - self.baseline.keys_merged,
        ));
        for (i, family) in KERNEL_FAMILY_NAMES.iter().enumerate() {
            work.push((
                format!("kernel.words.{family}"),
                globals.kernel_words[i] - self.baseline.kernel_words[i],
            ));
        }
        work.sort();
        wall.sort();
        Snapshot {
            work,
            wall,
            series: inner
                .series
                .iter()
                .map(|(name, (class, values))| (name.to_string(), *class, values.clone()))
                .collect(),
            spans: inner
                .hists
                .iter()
                .map(|(name, (_, h))| {
                    (
                        name.to_string(),
                        HistSummary {
                            count: h.count,
                            total: h.total,
                            max: h.max,
                            buckets: h
                                .buckets
                                .iter()
                                .enumerate()
                                .filter(|(_, &c)| c > 0)
                                .map(|(b, &c)| (b as u32, c))
                                .collect(),
                        },
                    )
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

thread_local! {
    static SCOPE_STACK: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard from [`Registry::install`]; uninstalls the scope on drop.
pub struct Scope {
    _not_send: PhantomData<*const ()>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        SCOPE_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        SCOPES_ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The registry installed innermost on this thread, if any.
///
/// Resolution is thread-local on purpose: library entry points resolve
/// the scope once on the calling thread and carry the handle into any
/// rayon region themselves (thread-locals do not cross work-stealing
/// spawns).
pub fn current() -> Option<Registry> {
    SCOPE_STACK.with(|stack| stack.borrow().last().cloned())
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII wall-clock span. Records a duration histogram entry (µs) into
/// its registry and a Chrome trace event when tracing is enabled; with
/// neither active it never reads the clock.
pub struct Span {
    name: &'static str,
    registry: Option<Registry>,
    start: Option<Instant>,
    traced: bool,
}

impl Span {
    /// Start a span against an explicit (optional) registry handle —
    /// for code that resolved [`current`] once at its entry point and
    /// carries the handle through worker threads itself.
    pub fn begin_for(name: &'static str, registry: Option<Registry>) -> Span {
        Span::begin(name, registry)
    }

    fn begin(name: &'static str, registry: Option<Registry>) -> Span {
        let traced = trace::enabled();
        let start = if traced || registry.is_some() {
            Some(Instant::now())
        } else {
            None
        };
        Span {
            name,
            registry,
            start,
            traced,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        if let Some(registry) = &self.registry {
            let us = end.saturating_duration_since(start).as_micros() as u64;
            registry.record(self.name, Class::Wall, us);
        }
        if self.traced {
            trace::record(self.name, start, end);
        }
    }
}

/// Start a span against the scope installed on this thread (no-op
/// timing-wise if none is installed and tracing is off).
pub fn span(name: &'static str) -> Span {
    Span::begin(name, current())
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Summary of one duration histogram (all values in µs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub total: u64,
    /// Largest observed value.
    pub max: u64,
    /// Non-empty log2 buckets as `(bit_length, count)` pairs; bucket
    /// `b` spans `[2^(b-1), 2^b)` and bucket 0 is exactly zero.
    pub buckets: Vec<(u32, u64)>,
}

/// A point-in-time materialization of a [`Registry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Deterministic work counters (sorted by name), including the
    /// process-global deltas (`global.*`, `kernel.words.*`).
    pub work: Vec<(String, u64)>,
    /// Wall-class counters — scheduling artifacts, never asserted on.
    pub wall: Vec<(String, u64)>,
    /// Indexed series, e.g. per-depth node counts.
    pub series: Vec<(String, Class, Vec<u64>)>,
    /// Span duration histograms (µs).
    pub spans: Vec<(String, HistSummary)>,
}

impl Snapshot {
    /// Value of a work counter, 0 when absent.
    pub fn work_counter(&self, name: &str) -> u64 {
        self.work
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Values of a series, empty when absent.
    pub fn series_values(&self, name: &str) -> &[u64] {
        self.series
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(&[], |(_, _, v)| v.as_slice())
    }

    /// The deterministic work counters only, as sorted `(name, value)`
    /// pairs — the exact set the thread/kernel invariance tests compare.
    pub fn work_fingerprint(&self) -> Vec<(String, u64)> {
        let mut out = self.work.clone();
        for (name, class, values) in &self.series {
            if *class == Class::Work {
                for (i, v) in values.iter().enumerate() {
                    out.push((format!("{name}[{i}]"), *v));
                }
            }
        }
        out.sort();
        out
    }

    /// Render as a `bcc-metrics/v1` JSON document.
    pub fn to_json(&self) -> String {
        let counters = |pairs: &[(String, u64)]| {
            Value::object(
                pairs
                    .iter()
                    .map(|(name, v)| (name.as_str(), Value::from(*v))),
            )
        };
        let series = self.series.iter().map(|(name, class, values)| {
            let values = values.iter().map(|&v| Value::from(v)).collect();
            (
                name.as_str(),
                Value::object([("class", class.label().into()), ("values", values)]),
            )
        });
        let spans = self.spans.iter().map(|(name, h)| {
            let buckets = h
                .buckets
                .iter()
                .map(|&(b, c)| [Value::from(b), Value::from(c)].into_iter().collect())
                .collect();
            (
                name.as_str(),
                Value::object([
                    ("count", h.count.into()),
                    ("total_us", h.total.into()),
                    ("max_us", h.max.into()),
                    ("buckets", buckets),
                ]),
            )
        });
        Value::object([
            ("schema", METRICS_SCHEMA.into()),
            ("work", counters(&self.work)),
            ("wall", counters(&self.wall)),
            ("series", Value::object(series)),
            ("spans", Value::object(spans)),
        ])
        .to_string()
    }

    /// Render as an aligned text table (the `--report` mode).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .work
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.wall.iter().map(|(n, _)| n.len()))
            .chain(self.spans.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        if !self.work.is_empty() {
            out.push_str("work (deterministic):\n");
            for (name, value) in &self.work {
                out.push_str(&format!("  {name:<width$}  {value}\n"));
            }
        }
        if !self.wall.is_empty() {
            out.push_str("wall (scheduling-dependent):\n");
            for (name, value) in &self.wall {
                out.push_str(&format!("  {name:<width$}  {value}\n"));
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for (name, h) in &self.spans {
                out.push_str(&format!(
                    "  {name:<width$}  count {:<8} total {:.3}ms  max {:.3}ms\n",
                    h.count,
                    h.total as f64 / 1_000.0,
                    h.max as f64 / 1_000.0
                ));
            }
        }
        for (name, class, values) in &self.series {
            out.push_str(&format!("series {name} ({}): {values:?}\n", class.label()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `metrics_json_bytes_are_pinned`'s document.
    const GOLDEN_METRICS: &str =
        "{\"schema\":\"bcc-metrics/v1\",\"work\":{\"global.keys_sorted\":18446744073709551615,\
     \"odd \\\"name\\\"\":12},\"wall\":{\"walk.chunks\":3},\"series\":{\"walk.nodes_by_depth\":\
     {\"class\":\"work\",\"values\":[1,0,4]},\"lab.busy\":{\"class\":\"wall\",\"values\":[]}},\
     \"spans\":{\"lab.point\":{\"count\":2,\"total_us\":900,\"max_us\":900,\
     \"buckets\":[[0,1],[10,1]]}}}";

    #[test]
    fn counters_series_and_hists_round_trip() {
        let r = Registry::new();
        r.add("walk.nodes", Class::Work, 5);
        r.add("walk.nodes", Class::Work, 7);
        r.add("walk.chunks", Class::Wall, 3);
        r.add_at("walk.nodes_by_depth", Class::Work, 2, 4);
        r.add_at("walk.nodes_by_depth", Class::Work, 0, 1);
        r.record("lab.point", Class::Wall, 900);
        r.record("lab.point", Class::Wall, 0);
        let s = r.snapshot();
        assert_eq!(s.work_counter("walk.nodes"), 12);
        assert_eq!(s.series_values("walk.nodes_by_depth"), &[1, 0, 4]);
        assert_eq!(s.wall, vec![("walk.chunks".to_string(), 3)]);
        let (_, hist) = &s.spans[0];
        assert_eq!((hist.count, hist.total, hist.max), (2, 900, 900));
        // 900 has bit length 10 (512..1024); the zero lands in bucket 0.
        assert_eq!(hist.buckets, vec![(0, 1), (10, 1)]);
        let json = s.to_json();
        assert!(json.starts_with("{\"schema\":\"bcc-metrics/v1\""));
        assert!(json.contains("\"walk.nodes\":12"));
        assert!(json.contains("\"values\":[1,0,4]"));
        let text = s.render_text();
        assert!(text.contains("walk.nodes"));
        assert!(text.contains("lab.point"));
    }

    #[test]
    fn metrics_json_bytes_are_pinned() {
        let s = Snapshot {
            work: vec![
                ("global.keys_sorted".into(), u64::MAX),
                ("odd \"name\"".into(), 12),
            ],
            wall: vec![("walk.chunks".into(), 3)],
            series: vec![
                ("walk.nodes_by_depth".into(), Class::Work, vec![1, 0, 4]),
                ("lab.busy".into(), Class::Wall, vec![]),
            ],
            spans: vec![(
                "lab.point".into(),
                HistSummary {
                    count: 2,
                    total: 900,
                    max: 900,
                    buckets: vec![(0, 1), (10, 1)],
                },
            )],
        };
        assert_eq!(s.to_json(), GOLDEN_METRICS);
    }

    #[test]
    fn torn_metrics_documents_are_refused() {
        for cut in 0..GOLDEN_METRICS.len() {
            let torn = &GOLDEN_METRICS[..cut];
            let kind = json::parse(torn).unwrap_err().kind;
            assert_eq!(kind, json::ErrorKind::UnexpectedEnd, "cut {cut}");
            assert_eq!(Snapshot::from_json(torn), None);
        }
    }

    #[test]
    fn install_scopes_nest_and_pop() {
        assert!(current().is_none());
        let outer = Registry::new();
        let _g0 = outer.install();
        outer.add("outer.mark", Class::Work, 1);
        {
            let inner = Registry::new();
            let _g1 = inner.install();
            current().expect("inner installed").add("x", Class::Work, 1);
            assert_eq!(inner.snapshot().work_counter("x"), 1);
        }
        current()
            .expect("outer restored")
            .add("outer.mark", Class::Work, 1);
        assert_eq!(outer.snapshot().work_counter("outer.mark"), 2);
        drop(_g0);
        assert!(current().is_none());
    }

    #[test]
    fn global_deltas_are_relative_to_registry_creation() {
        add_keys_sorted(100);
        let r = Registry::new();
        add_keys_sorted(42);
        add_keys_merged(7);
        assert_eq!(r.snapshot().work_counter("global.keys_sorted"), 42);
        assert_eq!(r.snapshot().work_counter("global.keys_merged"), 7);
    }

    #[test]
    fn kernel_words_only_count_under_a_scope() {
        // No scope installed by this thread — but another test may have
        // one active concurrently, so only assert the scoped direction.
        let r = Registry::new();
        let _g = r.install();
        add_kernel_words(KernelFamily::Boolean, 11);
        add_kernel_words(KernelFamily::Bytes, 5);
        let s = r.snapshot();
        assert!(s.work_counter("kernel.words.boolean") >= 11);
        assert!(s.work_counter("kernel.words.bytes") >= 5);
    }

    #[test]
    fn work_fingerprint_flattens_series() {
        let r = Registry::new();
        r.add("a", Class::Work, 1);
        r.add_at("s", Class::Work, 1, 9);
        let fp = r.snapshot().work_fingerprint();
        assert!(fp.contains(&("a".to_string(), 1)));
        assert!(fp.contains(&("s[0]".to_string(), 0)));
        assert!(fp.contains(&("s[1]".to_string(), 9)));
    }
}
