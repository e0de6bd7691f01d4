//! `bcc-obs` — observability for a bitwise-deterministic estimator.
//!
//! Every number this workspace produces is required to be bit-identical
//! across rayon pool sizes, F2 kernels and sweep resumes. That constraint shapes the telemetry layer in two
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
//! A metric's kind fixes its contract. Counters ([`Registry::add`]) and
//! series ([`Registry::add_at`]) are work: identical at every pool size,
//! kernel and resume, and asserted equal in tests. Span histograms are
//! wall time: recorded only by [`Span`], never asserted equal.
//!
//! The layer has three parts:
//!
//! - a [`Registry`] of named counters, series and log-bucketed span
//!   histograms. Registries are cheap `Arc` handles;
//!   [`Registry::install`] scopes one to the current thread so library
//!   code can attribute work to the active run via [`current`], and hot
//!   loops instead carry the handle (or a local tally flushed coarsely)
//!   across rayon spawns.
//! - [`span`] / [`Span::begin_for`]: RAII scoped timers that record
//!   duration histograms and, when `BCC_TRACE=<path>` (or
//!   [`trace::install`]) is set, emit Chrome-trace-event JSON viewable
//!   in `chrome://tracing` / Perfetto. With no registry installed and
//!   tracing off, a span is two branches and no clock read.
//! - per-thread kernel-word tallies (per F2 method family), so `bcc-f2`
//!   counts without a handle: [`add_kernel_words`] adds to a plain
//!   thread-local cell, and the words go to the registry installed
//!   innermost on that thread (none: nowhere). Fan-outs install their
//!   run's handle on each worker task. Every other work counter, sort
//!   and merge work included, is tallied run-locally by its owner and
//!   flushed into that run's registry.
//!
//! Snapshots render as JSON ([`Snapshot::to_json`], the `metrics.json`
//! files `bcc-lab` writes next to each sweep's `records.jsonl`) or as a
//! text table ([`Snapshot::render_text`]). The crate also holds the
//! workspace's one JSON codec, [`json`], which every persisted artifact
//! is written and read through.

#![forbid(unsafe_code)]

pub mod json;
pub mod read;
pub mod trace;

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use json::Value;

/// The schema tag of [`Snapshot::to_json`] documents.
const METRICS_SCHEMA: &str = "bcc-metrics/v2";

// ---------------------------------------------------------------------------
// Per-thread kernel-word tallies
// ---------------------------------------------------------------------------

/// F2 word-kernel method families, for per-family word totals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelFamily {
    /// Bulk boolean ops: `and`, `and_not`, `or`, `xor_in_place`.
    Boolean = 0,
    /// Reductions: `count_ones`, `dot`, `or_and_fold`.
    Reduce = 1,
    /// Masked filters: `filter_count`, `filter_into`, `filter_indices`,
    /// `ones_indices`, `compress_into`.
    Filter = 2,
    /// Radix byte passes: `byte_histogram`, `byte_scatter` (unit: keys).
    Bytes = 3,
    /// Cross-word shifts: `extract_shifted`, `or_shifted_into`.
    Shift = 4,
}

/// The work counter of each [`KernelFamily`], in discriminant order.
const KERNEL_WORD_KEYS: [&str; 5] = [
    "kernel.words.boolean",
    "kernel.words.reduce",
    "kernel.words.filter",
    "kernel.words.bytes",
    "kernel.words.shift",
];

thread_local! {
    /// Words this thread's kernel calls made since they were last
    /// credited; only the owning thread touches them, so plain cells.
    static PENDING_WORDS: [Cell<u64>; 5] = const { [const { Cell::new(0) }; 5] };
}

/// Count words processed by an F2 kernel method family. They go to the
/// registry installed innermost on this thread, or nowhere if none is.
#[inline]
pub fn add_kernel_words(family: KernelFamily, words: usize) {
    PENDING_WORDS.with(|pending| {
        let tally = &pending[family as usize];
        tally.set(tally.get() + words as u64);
    });
}

/// Takes this thread's pending kernel words and credits them to the
/// registry installed innermost on it, which was innermost for all of
/// them (its scope stack changes only after a credit), or drops them.
fn credit_kernel_words() {
    let words = PENDING_WORDS.with(|pending| pending.each_ref().map(Cell::take));
    if let Some(registry) = current() {
        for (key, words) in KERNEL_WORD_KEYS.into_iter().zip(words) {
            registry.add(key, words);
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
    counters: BTreeMap<&'static str, u64>,
    series: BTreeMap<&'static str, Vec<u64>>,
    hists: BTreeMap<&'static str, HistData>,
}

/// A per-run metrics registry: a cheap, cloneable `Arc` handle.
///
/// Flushes are coarse (once per walk chunk / estimator run / lab
/// point), so the interior is a plain mutex — there are no per-node or
/// per-word lock acquisitions anywhere.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Create an empty registry; its `kernel.words.*` counters start at 0.
    pub fn new() -> Self {
        let mut inner = Inner::default();
        for key in KERNEL_WORD_KEYS {
            inner.counters.insert(key, 0);
        }
        Registry {
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `value` to the named work counter.
    pub fn add(&self, name: &'static str, value: u64) {
        *self.lock().counters.entry(name).or_insert(0) += value;
    }

    /// Add `value` at `index` of the named work series (e.g. per-depth
    /// node counts). The series grows as needed.
    pub fn add_at(&self, name: &'static str, index: usize, value: u64) {
        let mut inner = self.lock();
        let series = inner.series.entry(name).or_default();
        if series.len() <= index {
            series.resize(index + 1, 0);
        }
        series[index] += value;
    }

    /// Record one span duration (µs) into the named log-bucketed
    /// histogram.
    pub(crate) fn record(&self, name: &'static str, value: u64) {
        self.lock().hists.entry(name).or_default().record(value);
    }

    /// Install this registry as the current scope on this thread; the
    /// returned guard uninstalls it on drop. Scopes nest (innermost
    /// wins, kernel words included). The guard is `!Send` — it must drop
    /// on the installing thread.
    pub fn install(&self) -> Scope {
        credit_kernel_words();
        SCOPE_STACK.with(|stack| stack.borrow_mut().push(self.clone()));
        Scope {
            _not_send: PhantomData,
        }
    }

    /// Materialize everything recorded so far. Kernel words reach a
    /// registry when the scope that counted them changes on their
    /// thread; this thread's pending words are credited first, so a
    /// snapshot taken under this registry's own scope includes them.
    pub fn snapshot(&self) -> Snapshot {
        credit_kernel_words();
        let inner = self.lock();
        // Every vector at its exact length: callers keep snapshots.
        Snapshot {
            work: inner
                .counters
                .iter()
                .map(|(&name, &value)| (Cow::Borrowed(name), value))
                .collect(),
            series: inner
                .series
                .iter()
                .map(|(&name, values)| (Cow::Borrowed(name), values.clone()))
                .collect(),
            spans: inner
                .hists
                .iter()
                .map(|(&name, h)| {
                    let filled = h.buckets.iter().enumerate().filter(|(_, &c)| c > 0);
                    let mut buckets = Vec::with_capacity(filled.clone().count());
                    buckets.extend(filled.map(|(b, &c)| (b as u32, c)));
                    let summary = HistSummary {
                        count: h.count,
                        total: h.total,
                        max: h.max,
                        buckets,
                    };
                    (Cow::Borrowed(name), summary)
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
        credit_kernel_words();
        SCOPE_STACK.with(|stack| stack.borrow_mut().pop());
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
            registry.record(self.name, us);
        }
        if self.traced {
            trace::record(self.name, start, end);
        }
    }
}

/// Start a span against the scope installed on this thread (no-op
/// timing-wise if none is installed and tracing is off).
pub fn span(name: &'static str) -> Span {
    Span::begin_for(name, current())
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

/// A metric's name in a [`Snapshot`]: the `&'static str` it was
/// recorded under, borrowed, or owned when parsed back from JSON. A
/// sweep's snapshot lives as long as its result, so borrowing spares
/// one allocation per metric.
pub type MetricName = Cow<'static, str>;

/// A point-in-time materialization of a [`Registry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Work counters (sorted by name), including the five
    /// `kernel.words.*` totals.
    pub work: Vec<(MetricName, u64)>,
    /// Indexed work series, e.g. per-depth node counts.
    pub series: Vec<(MetricName, Vec<u64>)>,
    /// Span duration histograms (µs): wall time, never asserted equal.
    pub spans: Vec<(MetricName, HistSummary)>,
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
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// Every work counter and series element (`name[i]`), as sorted
    /// `(name, value)` pairs — the exact set the thread/kernel invariance
    /// tests compare.
    pub fn work_fingerprint(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .work
            .iter()
            .map(|(name, value)| (name.to_string(), *value))
            .collect();
        for (name, values) in &self.series {
            for (i, v) in values.iter().enumerate() {
                out.push((format!("{name}[{i}]"), *v));
            }
        }
        out.sort();
        out
    }

    /// Render as a `bcc-metrics/v2` JSON document.
    pub fn to_json(&self) -> String {
        let work = self
            .work
            .iter()
            .map(|(name, v)| (name.as_ref(), Value::from(*v)));
        let series = self.series.iter().map(|(name, values)| {
            (
                name.as_ref(),
                values.iter().map(|&v| Value::from(v)).collect(),
            )
        });
        let spans = self.spans.iter().map(|(name, h)| {
            let buckets = h
                .buckets
                .iter()
                .map(|&(b, c)| [Value::from(b), Value::from(c)].into_iter().collect())
                .collect();
            (
                name.as_ref(),
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
            ("work", Value::object(work)),
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
            .chain(self.spans.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        if !self.work.is_empty() {
            out.push_str("work (deterministic):\n");
            for (name, value) in &self.work {
                out.push_str(&format!("  {name:<width$}  {value}\n"));
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans (wall time):\n");
            for (name, h) in &self.spans {
                out.push_str(&format!(
                    "  {name:<width$}  count {:<8} total {:.3}ms  max {:.3}ms\n",
                    h.count,
                    h.total as f64 / 1_000.0,
                    h.max as f64 / 1_000.0
                ));
            }
        }
        for (name, values) in &self.series {
            out.push_str(&format!("series {name}: {values:?}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `metrics_json_bytes_are_pinned`'s document.
    const GOLDEN_METRICS: &str =
        "{\"schema\":\"bcc-metrics/v2\",\"work\":{\"global.keys_sorted\":18446744073709551615,\
     \"odd \\\"name\\\"\":12},\"series\":{\"walk.nodes_by_depth\":[1,0,4]},\
     \"spans\":{\"lab.point\":{\"count\":2,\"total_us\":900,\"max_us\":900,\
     \"buckets\":[[0,1],[10,1]]}}}";

    #[test]
    fn counters_series_and_hists_round_trip() {
        let r = Registry::new();
        r.add("walk.nodes", 5);
        r.add("walk.nodes", 7);
        r.add_at("walk.nodes_by_depth", 2, 4);
        r.add_at("walk.nodes_by_depth", 0, 1);
        r.record("lab.point", 900);
        r.record("lab.point", 0);
        let s = r.snapshot();
        assert_eq!(s.work_counter("walk.nodes"), 12);
        assert_eq!(s.series_values("walk.nodes_by_depth"), &[1, 0, 4]);
        let (_, hist) = &s.spans[0];
        assert_eq!((hist.count, hist.total, hist.max), (2, 900, 900));
        // 900 has bit length 10 (512..1024); the zero lands in bucket 0.
        assert_eq!(hist.buckets, vec![(0, 1), (10, 1)]);
        let json = s.to_json();
        assert!(json.starts_with("{\"schema\":\"bcc-metrics/v2\""));
        assert!(json.contains("\"walk.nodes\":12"));
        assert!(json.contains("\"walk.nodes_by_depth\":[1,0,4]"));
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
            series: vec![("walk.nodes_by_depth".into(), vec![1, 0, 4])],
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
        outer.add("outer.mark", 1);
        {
            let inner = Registry::new();
            let _g1 = inner.install();
            current().expect("inner installed").add("x", 1);
            assert_eq!(inner.snapshot().work_counter("x"), 1);
        }
        current().expect("outer restored").add("outer.mark", 1);
        assert_eq!(outer.snapshot().work_counter("outer.mark"), 2);
        drop(_g0);
        assert!(current().is_none());
    }

    #[test]
    fn snapshots_list_only_their_own_counters_and_kernel_words() {
        let mut kernel_words_at_zero = KERNEL_WORD_KEYS.map(|key| (MetricName::from(key), 0));
        kernel_words_at_zero.sort();
        assert_eq!(Registry::new().snapshot().work, kernel_words_at_zero);
        let r = Registry::new();
        r.add("own.mark", 1);
        // Sort work outside any run: sort and merge work is counted only
        // by the run that owns it, and the radix passes' kernel words by
        // the scope installed on their thread, so none of it reaches
        // this registry.
        let mut keys: Vec<u64> = (0..1_000u64).rev().map(|k| k << 40).collect();
        bcc_core::radix_sort_u64(&mut keys);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        let mut expected = kernel_words_at_zero.to_vec();
        expected.push(("own.mark".into(), 1));
        expected.sort();
        assert_eq!(r.snapshot().work, expected);
    }

    #[test]
    fn kernel_words_only_count_under_a_scope() {
        add_kernel_words(KernelFamily::Boolean, 100);
        let r = Registry::new();
        let _g = r.install();
        add_kernel_words(KernelFamily::Boolean, 11);
        add_kernel_words(KernelFamily::Bytes, 5);
        let s = r.snapshot();
        assert_eq!(s.work_counter("kernel.words.boolean"), 11);
        assert_eq!(s.work_counter("kernel.words.bytes"), 5);
    }

    #[test]
    fn kernel_words_reach_only_the_scope_innermost_on_their_thread() {
        let first = Registry::new();
        let _g = first.install();
        add_kernel_words(KernelFamily::Reduce, 3);
        std::thread::scope(|s| {
            s.spawn(|| add_kernel_words(KernelFamily::Reduce, 100));
            s.spawn(|| {
                let second = Registry::new();
                let _g = second.install();
                add_kernel_words(KernelFamily::Reduce, 40);
                assert_eq!(second.snapshot().work_counter("kernel.words.reduce"), 40);
            });
        });
        {
            let nested = Registry::new();
            let _g = nested.install();
            add_kernel_words(KernelFamily::Reduce, 7);
            assert_eq!(nested.snapshot().work_counter("kernel.words.reduce"), 7);
        }
        {
            // A fan-out that runs its task on the calling thread installs
            // the same handle again; its words still count once.
            let _again = first.install();
            add_kernel_words(KernelFamily::Reduce, 10);
        }
        add_kernel_words(KernelFamily::Reduce, 2);
        assert_eq!(first.snapshot().work_counter("kernel.words.reduce"), 15);
    }

    #[test]
    fn work_fingerprint_flattens_series() {
        let r = Registry::new();
        r.add("a", 1);
        r.add_at("s", 1, 9);
        let fp = r.snapshot().work_fingerprint();
        assert!(fp.contains(&("a".to_string(), 1)));
        assert!(fp.contains(&("s[0]".to_string(), 0)));
        assert!(fp.contains(&("s[1]".to_string(), 9)));
    }
}
