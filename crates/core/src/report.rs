//! What happened during a fit — the robustness ledger.
//!
//! Every `Srda::fit_*` entry point records how each of the `c − 1`
//! response problems was actually solved, every recovery action the
//! ridge ladder took (see `srda_solvers::ridge`), and any warnings
//! raised along the way. The report travels with the returned
//! [`crate::SrdaModel`] (via `SrdaModel::fit_report`), so a fit that
//! silently degraded — jittered ridge, LSQR fallback, stagnated
//! iterations — is always distinguishable from a clean one.

pub use srda_solvers::{CertStatus, RecoveryAction, SolveCertificate};
use srda_solvers::{Interrupt, StopReason};

/// How one response (one column of `Ȳ`) was solved.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseSolver {
    /// Direct normal-equations solve, no recovery.
    Direct,
    /// Direct solve that needed `jitter` extra diagonal loading.
    DirectJittered {
        /// Extra diagonal loading added on top of the configured `α`.
        jitter: f64,
    },
    /// Damped LSQR engaged as a *fallback* after the direct solves
    /// failed.
    LsqrFallback,
    /// Damped LSQR as the *configured* solver.
    Lsqr {
        /// Iterations this response consumed.
        iterations: usize,
        /// Why the solve stopped.
        stop: StopReason,
    },
}

/// Diagnostics from one `Srda::fit_*` call.
#[derive(Debug, Clone, Default)]
pub struct FitReport {
    /// Human-readable descriptions of every breakdown, recovery, and
    /// anomaly. Empty for a clean fit.
    pub warnings: Vec<String>,
    /// Recovery actions the fallback chain took, in order. Empty for a
    /// clean fit.
    pub recoveries: Vec<RecoveryAction>,
    /// How each response problem was solved (length `c − 1`). For
    /// direct solves the factorization is shared, so all entries match.
    pub responses: Vec<ResponseSolver>,
    /// Condition-number estimate of the factored Gram matrix (squared
    /// ratio of extreme Cholesky diagonal entries); `None` when no
    /// factorization succeeded (pure LSQR fits and fallbacks).
    pub condition_estimate: Option<f64>,
    /// Set when the fit's `RunGovernor` stopped the run early — the
    /// report then describes the *partial* fit (see
    /// `Srda::fit_*_outcome`). `None` for a run-to-completion fit.
    pub interrupt: Option<Interrupt>,
    /// What the input-sanitization pass quarantined before the fit saw
    /// the data, when one ran (see `srda-data`'s `sanitize` module; the
    /// CLI `train` pipeline fills this in). `None` when no sanitization
    /// ran.
    pub quarantine: Option<QuarantineSummary>,
    /// Per-response solution certificates (one per solved response, in
    /// response order) — backward error, condition estimate, refinement
    /// steps, and the certification verdict. Empty when the fit path
    /// predates certification or solved nothing.
    pub certificates: Vec<SolveCertificate>,
    /// Largest backward error across [`FitReport::certificates`];
    /// `None` when no certificates were recorded.
    pub worst_backward_error: Option<f64>,
}

/// Counts of what a pre-fit sanitization pass removed or repaired. The
/// full row/column lists live in `srda-data`'s `SanitizeReport`; this is
/// the summary that travels with the fitted model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineSummary {
    /// Rows dropped for containing NaN/±Inf cells.
    pub non_finite_rows: usize,
    /// NaN/±Inf cells overwritten with 0 (impute policy).
    pub imputed_cells: usize,
    /// Exact-duplicate rows dropped (first occurrence kept).
    pub duplicate_rows: usize,
    /// Rows dropped because their class fell below the size floor.
    pub small_class_rows: usize,
    /// Classes removed entirely (empty or below the size floor).
    pub dropped_classes: usize,
    /// Constant (zero-variance) feature columns dropped.
    pub constant_features: usize,
}

impl QuarantineSummary {
    /// `true` when sanitization ran but found nothing to quarantine.
    pub fn is_noop(&self) -> bool {
        self.non_finite_rows == 0
            && self.imputed_cells == 0
            && self.duplicate_rows == 0
            && self.small_class_rows == 0
            && self.dropped_classes == 0
            && self.constant_features == 0
    }
}

impl FitReport {
    /// `true` when the fit needed no recovery, raised no warnings, ran to
    /// completion, and (if sanitization ran) nothing was quarantined.
    pub fn clean(&self) -> bool {
        self.warnings.is_empty()
            && self.recoveries.is_empty()
            && self.interrupt.is_none()
            && self.quarantine.as_ref().is_none_or(|q| q.is_noop())
    }

    /// Recompute [`FitReport::worst_backward_error`] from the current
    /// certificate list. Call after appending certificates directly.
    pub(crate) fn refresh_certificate_summary(&mut self) {
        self.worst_backward_error = srda_solvers::worst_backward_error(&self.certificates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_report_is_clean() {
        let r = FitReport::default();
        assert!(r.clean());
        assert!(r.responses.is_empty());
        assert!(r.condition_estimate.is_none());
        assert!(r.interrupt.is_none());
        assert!(r.quarantine.is_none());
    }

    #[test]
    fn interrupted_report_is_not_clean() {
        let r = FitReport {
            interrupt: Some(Interrupt::Cancelled),
            ..FitReport::default()
        };
        assert!(!r.clean());
    }

    #[test]
    fn quarantine_summary_affects_clean() {
        let noop = FitReport {
            quarantine: Some(QuarantineSummary::default()),
            ..FitReport::default()
        };
        assert!(noop.clean(), "a no-op sanitize pass must stay clean");
        let dirty = FitReport {
            quarantine: Some(QuarantineSummary {
                duplicate_rows: 3,
                ..QuarantineSummary::default()
            }),
            ..FitReport::default()
        };
        assert!(!dirty.clean());
    }
}
