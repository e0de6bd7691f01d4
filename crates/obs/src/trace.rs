//! Chrome-trace-event sink behind `BCC_TRACE=<path>`.
//!
//! Spans buffer complete events (`"ph":"X"`) in memory; [`flush`]
//! rewrites the target file with everything recorded so far, so a
//! caller can flush after every sweep and still end with one valid
//! JSON document. Open the file in `chrome://tracing` or
//! <https://ui.perfetto.dev>.
//!
//! The sink is process-global: either the `BCC_TRACE` environment
//! variable (read once, at first use) or an [`install`] call names the
//! output path; once a path is set it cannot be redirected (spans may
//! already reference it from other threads), but a process whose
//! environment left tracing off can still [`install`] later.
//!
//! Timestamps are µs since a process-wide epoch taken when tracing turns
//! on (the `BCC_TRACE` read or the [`install`] call), before any traced
//! span starts, so every span keeps its whole duration. Both `ts` and
//! the span's end are floored to the same µs clock, so
//! per-thread RAII nesting survives integer truncation exactly — the
//! property `crates/obs/tests/trace_check.rs` validates.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

use crate::json::Value;

struct Event {
    name: &'static str,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
}

static ENV_INIT: Once = Once::new();
static PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
/// Set exactly when tracing is on.
static EPOCH: OnceLock<Instant> = OnceLock::new();
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Reads `BCC_TRACE` exactly once for the process's lifetime.
fn ensure_env() {
    ENV_INIT.call_once(|| {
        if let Some(p) = std::env::var_os("BCC_TRACE") {
            if !p.is_empty() {
                turn_on(
                    &mut PATH.lock().unwrap_or_else(|e| e.into_inner()),
                    p.into(),
                );
            }
        }
    });
}

/// Sets the sink path, then turns tracing on by taking the epoch: a span
/// that sees tracing on starts after the epoch.
fn turn_on(slot: &mut Option<PathBuf>, path: PathBuf) {
    *slot = Some(path);
    EPOCH.get_or_init(Instant::now);
}

fn path() -> Option<PathBuf> {
    ensure_env();
    PATH.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Programmatically enable tracing to `path` (the in-process
/// alternative to setting `BCC_TRACE` before launch). Returns `false`
/// if a sink path is already set — by the environment or an earlier
/// call — which cannot be redirected.
pub fn install(path: &Path) -> bool {
    ensure_env();
    let mut guard = PATH.lock().unwrap_or_else(|e| e.into_inner());
    if guard.is_some() {
        return false;
    }
    turn_on(&mut guard, path.to_path_buf());
    true
}

/// Is the trace sink enabled? (Reads the `BCC_TRACE` decision on first
/// call; a later [`install`] can still turn tracing on.)
#[inline]
pub fn enabled() -> bool {
    ensure_env();
    EPOCH.get().is_some()
}

/// Record one complete span event. Called by `Span::drop`; `start` and
/// `end` are floored against the shared epoch so nesting survives
/// truncation.
pub(crate) fn record(name: &'static str, start: Instant, end: Instant) {
    let Some(&epoch) = EPOCH.get() else { return };
    let ts_us = start.saturating_duration_since(epoch).as_micros() as u64;
    let end_us = end.saturating_duration_since(epoch).as_micros() as u64;
    let tid = TID.with(|t| *t);
    let mut events = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
    events.push(Event {
        name,
        ts_us,
        dur_us: end_us.saturating_sub(ts_us),
        tid,
    });
}

/// Number of events buffered so far (0 when disabled).
pub fn event_count() -> usize {
    EVENTS.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Rewrite the trace file with every event recorded so far. Returns
/// the path written, or `None` when tracing is disabled. Safe to call
/// repeatedly; the last flush wins with a superset of earlier ones.
pub fn flush() -> Option<std::io::Result<PathBuf>> {
    let path = path()?;
    let out = render(&EVENTS.lock().unwrap_or_else(|e| e.into_inner()));
    Some(std::fs::write(&path, out).map(|()| path))
}

/// The trace document for `events`: one complete (`"ph":"X"`) event
/// each, in recording order.
fn render(events: &[Event]) -> String {
    let events = events
        .iter()
        .map(|e| {
            Value::object([
                ("name", e.name.into()),
                ("cat", "bcc".into()),
                ("ph", "X".into()),
                ("ts", e.ts_us.into()),
                ("dur", e.dur_us.into()),
                ("pid", 1u32.into()),
                ("tid", e.tid.into()),
            ])
        })
        .collect();
    Value::object([("traceEvents", events)]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `trace_bytes_are_pinned`'s document.
    const GOLDEN_TRACE: &str =
        "{\"traceEvents\":[{\"name\":\"lab.sweep\",\"cat\":\"bcc\",\"ph\":\"X\",\"ts\":0,\
     \"dur\":1500,\"pid\":1,\"tid\":1},{\"name\":\"walk.chunk\",\"cat\":\"bcc\",\"ph\":\"X\",\
     \"ts\":20,\"dur\":18446744073709551615,\"pid\":1,\"tid\":7}]}";

    #[test]
    fn trace_bytes_are_pinned() {
        let events = [
            Event {
                name: "lab.sweep",
                ts_us: 0,
                dur_us: 1_500,
                tid: 1,
            },
            Event {
                name: "walk.chunk",
                ts_us: 20,
                dur_us: u64::MAX,
                tid: 7,
            },
        ];
        assert_eq!(render(&events), GOLDEN_TRACE);
        assert_eq!(render(&[]), "{\"traceEvents\":[]}");
    }

    #[test]
    fn torn_traces_are_refused() {
        for cut in 0..GOLDEN_TRACE.len() {
            let kind = crate::json::parse(&GOLDEN_TRACE[..cut]).unwrap_err().kind;
            assert_eq!(kind, crate::json::ErrorKind::UnexpectedEnd, "cut {cut}");
        }
    }
}
