//! Observability layer for the SRDA reproduction: hierarchical span
//! timers, a metrics registry, and per-iteration solver telemetry.
//!
//! The paper's claims are quantitative — SRDA-LSQR is `O(k·c·ms)` with a
//! ~9× max speedup over LDA at `m = n` — so the reproduction instruments
//! itself: every fit can emit a span tree covering its wall time, a
//! registry of counters/gauges/histograms (including the flam complexity
//! counters), and the full per-iteration residual trajectory of every
//! LSQR solve. The whole layer is dependency-free.
//!
//! ## The `Recorder` handle
//!
//! Everything hangs off a [`Recorder`], a `Copy` handle that is threaded
//! through `SrdaConfig`, the kernel `Executor`, and the solver control
//! structs. A **disabled** recorder (the default) is a null pointer: every
//! instrumentation call is a branch on `Option::<&_>::is_some()` and
//! nothing else, so hot loops keep their uninstrumented cost. An
//! **enabled** recorder points at a registry allocated once per recording
//! session and intentionally leaked (`Box::leak`) — that is what makes the
//! handle `Copy` and lets it cross `std::thread::scope` boundaries without
//! reference-counting traffic in kernels. A process creates a handful of
//! recorders (one per CLI run, one per bench, one per test), so the leak
//! is bounded and deliberate.
//!
//! ## Determinism contract
//!
//! Instrumentation only *observes* solver state; it never perturbs the
//! float sequence. Telemetry recorded by the serial and threaded backends
//! is therefore bitwise identical — `tests/telemetry_golden.rs` locks
//! this down against committed residual-bit snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod report;
pub mod span;
pub mod telemetry;

pub use metrics::{Counter, Histogram};
pub use report::{HistogramSnapshot, ObsReport, SpanRecord, TraceSnapshot};
pub use span::SpanGuard;
pub use telemetry::{IterationRecord, SolverTrace};

use metrics::HistogramInner;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Environment variable that turns recording on for code paths that build
/// their recorder via [`Recorder::from_env`] (the config defaults): any
/// value other than `0`/`false`/empty enables it. This is how
/// `scripts/ci.sh` runs the whole test suite traced.
pub const TRACE_ENV: &str = "SRDA_TRACE";

/// The shared state behind an enabled [`Recorder`].
///
/// Public only so `Recorder` can expose a `&'static` to it; construct via
/// [`Recorder::new_enabled`].
pub struct RecorderInner {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, u64>>, // f64 bit patterns
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
    traces: Mutex<Vec<Arc<telemetry::TraceInner>>>,
}

impl RecorderInner {
    fn new() -> Self {
        RecorderInner {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            traces: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn push_span(&self, path: String, start: Instant, end: Instant, thread: u64) {
        let rec = SpanRecord {
            path,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            thread,
        };
        self.spans.lock().expect("span log poisoned").push(rec);
    }
}

/// A `Copy` handle to the observability registry; disabled by default.
///
/// See the crate docs for the enable/disable contract. All methods are
/// safe to call from any thread.
#[derive(Clone, Copy, Default)]
pub struct Recorder {
    inner: Option<&'static RecorderInner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl PartialEq for Recorder {
    fn eq(&self, other: &Self) -> bool {
        match (self.inner, other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            _ => false,
        }
    }
}

impl Eq for Recorder {}

// sequential per-thread ids: ThreadId::as_u64 is unstable, and the span
// log only needs a stable small integer to distinguish workers
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static THREAD_TAG: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's small stable tag used in span records.
pub fn thread_tag() -> u64 {
    THREAD_TAG.with(|t| *t)
}

impl Recorder {
    /// The no-op handle: every call is a null check.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Allocate a fresh recording session. The backing registry lives for
    /// the rest of the process (see the crate docs on the deliberate
    /// leak), which is what makes the handle `Copy`.
    pub fn new_enabled() -> Self {
        Recorder {
            inner: Some(Box::leak(Box::new(RecorderInner::new()))),
        }
    }

    /// Enabled iff the environment variable [`TRACE_ENV`] is set to a
    /// truthy value; this is the default recorder in every fit config, so
    /// `SRDA_TRACE=1 cargo test` traces the entire suite.
    pub fn from_env() -> Self {
        match std::env::var(TRACE_ENV) {
            Ok(v) if !v.is_empty() && v != "0" && v != "false" => Self::new_enabled(),
            _ => Self::disabled(),
        }
    }

    /// Is this handle recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a wall-time span; it records itself when the guard drops.
    /// Disabled recorders return an inert guard without evaluating any
    /// formatting (use the [`span!`] macro to also skip the `format!`).
    pub fn span(&self, path: impl Into<String>) -> SpanGuard {
        match self.inner {
            Some(inner) => SpanGuard::active(inner, path.into()),
            None => SpanGuard::inactive(),
        }
    }

    /// Resolve (creating on first use) the monotonic counter `name`.
    /// Returns an inert handle when disabled.
    pub fn counter(&self, name: &str) -> Counter {
        match self.inner {
            Some(inner) => {
                let mut map = inner.counters.lock().expect("counter map poisoned");
                let cell = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                    .clone();
                Counter::active(cell)
            }
            None => Counter::inactive(),
        }
    }

    /// One-shot counter increment (resolves the handle each call; prefer
    /// [`Recorder::counter`] in loops).
    pub fn add(&self, name: &str, n: u64) {
        if self.inner.is_some() {
            self.counter(name).add(n);
        }
    }

    /// Set the gauge `name` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = self.inner {
            inner
                .gauges
                .lock()
                .expect("gauge map poisoned")
                .insert(name.to_string(), value.to_bits());
        }
    }

    /// Resolve (creating on first use) the fixed-bucket histogram `name`.
    /// `bounds` are ascending inclusive upper bucket bounds; observations
    /// above the last bound land in an overflow bucket. Bounds passed on
    /// later calls for an existing histogram are ignored.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        match self.inner {
            Some(inner) => {
                let mut map = inner.histograms.lock().expect("histogram map poisoned");
                let h = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramInner::new(bounds)))
                    .clone();
                Histogram::active(h)
            }
            None => Histogram::inactive(),
        }
    }

    /// Open a solver telemetry channel labelled `label` (e.g.
    /// `"fit/response[3]/lsqr"`). Returns `None` when disabled so solver
    /// loops pay exactly one branch.
    pub fn solver_trace(&self, label: impl Into<String>) -> Option<SolverTrace> {
        let inner = self.inner?;
        let trace = SolverTrace::new(label.into());
        inner
            .traces
            .lock()
            .expect("trace list poisoned")
            .push(trace.shared());
        Some(trace)
    }

    /// Snapshot everything recorded so far into a plain-data report.
    /// Returns an empty report for a disabled recorder.
    pub fn snapshot(&self) -> ObsReport {
        let Some(inner) = self.inner else {
            return ObsReport::default();
        };
        ObsReport {
            spans: inner.spans.lock().expect("span log poisoned").clone(),
            counters: inner
                .counters
                .lock()
                .expect("counter map poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .lock()
                .expect("gauge map poisoned")
                .iter()
                .map(|(k, bits)| (k.clone(), f64::from_bits(*bits)))
                .collect(),
            histograms: inner
                .histograms
                .lock()
                .expect("histogram map poisoned")
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            traces: inner
                .traces
                .lock()
                .expect("trace list poisoned")
                .iter()
                .map(|t| t.snapshot())
                .collect(),
        }
    }
}

/// Open a span on a recorder, skipping the `format!` entirely when the
/// recorder is disabled: `span!(rec, "fit/response[{j}]/lsqr")`.
#[macro_export]
macro_rules! span {
    ($rec:expr, $($fmt:tt)+) => {
        if $rec.is_enabled() {
            $rec.span(format!($($fmt)+))
        } else {
            $crate::SpanGuard::inactive()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        let _g = r.span("fit");
        r.add("c", 5);
        r.gauge("g", 1.0);
        r.histogram("h", &[1.0]).observe(0.5);
        assert!(r.solver_trace("t").is_none());
        let rep = r.snapshot();
        assert!(rep.spans.is_empty());
        assert!(rep.counters.is_empty());
    }

    #[test]
    fn spans_counters_gauges_roundtrip() {
        let r = Recorder::new_enabled();
        {
            let _fit = r.span("fit");
            let _inner = span!(r, "fit/response[{}]/lsqr", 3);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        r.add("flam.fit", 41);
        r.add("flam.fit", 1);
        r.gauge("alpha", 0.5);
        r.gauge("alpha", 1.5);
        let rep = r.snapshot();
        assert_eq!(rep.spans.len(), 2);
        assert!(rep.spans.iter().any(|s| s.path == "fit/response[3]/lsqr"));
        assert_eq!(rep.counters["flam.fit"], 42);
        assert_eq!(rep.gauges["alpha"], 1.5);
        // the outer span covers the inner one
        let fit = rep.spans.iter().find(|s| s.path == "fit").unwrap();
        let inner = rep.spans.iter().find(|s| s.path != "fit").unwrap();
        assert!(fit.dur_ns >= inner.dur_ns);
    }

    #[test]
    fn recorder_equality_is_identity() {
        let a = Recorder::new_enabled();
        let b = Recorder::new_enabled();
        let a2 = a;
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(Recorder::disabled(), Recorder::disabled());
        assert_ne!(a, Recorder::disabled());
    }

    #[test]
    fn solver_trace_reaches_snapshot() {
        let r = Recorder::new_enabled();
        let t = r.solver_trace("fit/response[0]/lsqr").unwrap();
        t.set_solver("lsqr", 1.0);
        t.set_backend("serial");
        t.iteration(1, 0.5, 0.25);
        t.iteration(2, 0.25, 0.125);
        t.governor_check();
        let rep = r.snapshot();
        assert_eq!(rep.traces.len(), 1);
        let tr = &rep.traces[0];
        assert_eq!(tr.label, "fit/response[0]/lsqr");
        assert_eq!(tr.solver, "lsqr");
        assert_eq!(tr.iterations.len(), 2);
        assert_eq!(tr.governor_checks, 1);
    }
}
