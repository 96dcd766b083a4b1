//! Solver telemetry: the per-iteration state of an LSQR run.
//!
//! Each solve that runs under an enabled recorder gets its own channel
//! ([`SolverTrace`]), so concurrent response solves never contend on a
//! shared structure. The channel records exactly the quantities the solver
//! already computes — the damped residual norm and the `‖Aᵀr‖` estimate —
//! plus the damping in effect, the execution backend, and how many
//! governor checks the loop made.
//! Because nothing here feeds back into the solver, a traced run is
//! bitwise identical to an untraced one, and (by the kernel determinism
//! contract) serial and threaded backends produce identical telemetry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One iteration of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// 1-based iteration number (matches `LsqrResult::iterations`).
    pub iteration: usize,
    /// Damped residual `‖[r; damp·x]‖` estimate.
    pub residual: f64,
    /// The `‖Aᵀr̄‖` estimate `α·|c·φ̄|` from the second Paige-Saunders
    /// rule.
    pub atr_norm: f64,
}

#[derive(Default)]
struct TraceMeta {
    solver: String,
    backend: String,
    damp: f64,
}

/// Shared state of one telemetry channel.
pub(crate) struct TraceInner {
    label: String,
    meta: Mutex<TraceMeta>,
    iterations: Mutex<Vec<IterationRecord>>,
    governor_checks: AtomicU64,
}

impl TraceInner {
    pub(crate) fn snapshot(&self) -> crate::report::TraceSnapshot {
        let meta = self.meta.lock().expect("trace meta poisoned");
        crate::report::TraceSnapshot {
            label: self.label.clone(),
            solver: meta.solver.clone(),
            backend: meta.backend.clone(),
            damp: meta.damp,
            governor_checks: self.governor_checks.load(Ordering::Relaxed),
            iterations: self
                .iterations
                .lock()
                .expect("trace iterations poisoned")
                .clone(),
        }
    }
}

/// A per-solve telemetry channel handed out by
/// [`crate::Recorder::solver_trace`]. Cheap to clone; all clones feed the
/// same channel.
#[derive(Clone)]
pub struct SolverTrace {
    inner: Arc<TraceInner>,
}

impl SolverTrace {
    pub(crate) fn new(label: String) -> Self {
        SolverTrace {
            inner: Arc::new(TraceInner {
                label,
                meta: Mutex::new(TraceMeta::default()),
                iterations: Mutex::new(Vec::new()),
                governor_checks: AtomicU64::new(0),
            }),
        }
    }

    pub(crate) fn shared(&self) -> Arc<TraceInner> {
        self.inner.clone()
    }

    /// The label this channel was opened with.
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// Record the solver name and damping only — called by the solver
    /// itself, which does not know what backend its operator runs on.
    pub fn set_solver(&self, solver: &str, damp: f64) {
        let mut meta = self.inner.meta.lock().expect("trace meta poisoned");
        meta.solver = solver.to_string();
        meta.damp = damp;
    }

    /// Record the execution backend only — called by the fit driver,
    /// which owns the executor the solver's operator runs on.
    pub fn set_backend(&self, backend: &str) {
        let mut meta = self.inner.meta.lock().expect("trace meta poisoned");
        meta.backend = backend.to_string();
    }

    /// Record one completed iteration.
    #[inline]
    pub fn iteration(&self, iteration: usize, residual: f64, atr_norm: f64) {
        self.inner
            .iterations
            .lock()
            .expect("trace iterations poisoned")
            .push(IterationRecord {
                iteration,
                residual,
                atr_norm,
            });
    }

    /// Record one governor budget/cancellation check.
    #[inline]
    pub fn governor_check(&self) {
        self.inner.governor_checks.fetch_add(1, Ordering::Relaxed);
    }

    /// The residual column of the recorded iterations, in order.
    pub fn residuals(&self) -> Vec<f64> {
        self.inner
            .iterations
            .lock()
            .expect("trace iterations poisoned")
            .iter()
            .map(|r| r.residual)
            .collect()
    }

    /// The recorded iterations, in order.
    pub fn iterations(&self) -> Vec<IterationRecord> {
        self.inner
            .iterations
            .lock()
            .expect("trace iterations poisoned")
            .clone()
    }

    /// Governor checks recorded so far.
    pub fn governor_checks(&self) -> u64 {
        self.inner.governor_checks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_accumulates_in_order() {
        let t = SolverTrace::new("r0".into());
        t.set_solver("lsqr", 0.5);
        t.set_backend("serial");
        for i in 1..=3 {
            t.iteration(i, 1.0 / i as f64, 0.5 / i as f64);
        }
        t.governor_check();
        t.governor_check();
        assert_eq!(t.label(), "r0");
        assert_eq!(t.residuals(), vec![1.0, 0.5, 1.0 / 3.0]);
        assert_eq!(t.governor_checks(), 2);
        let snap = t.shared().snapshot();
        assert_eq!(snap.solver, "lsqr");
        assert_eq!(snap.backend, "serial");
        assert_eq!(snap.damp, 0.5);
        assert_eq!(snap.iterations.len(), 3);
        assert_eq!(snap.iterations[2].iteration, 3);
    }

    #[test]
    fn clones_share_the_channel() {
        let t = SolverTrace::new("x".into());
        let t2 = t.clone();
        t.iteration(1, 1.0, 1.0);
        t2.iteration(2, 0.5, 0.5);
        assert_eq!(t.iterations().len(), 2);
    }
}
