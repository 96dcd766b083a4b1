//! Spectral Regression Discriminant Analysis — the paper's §III.
//!
//! Training is the paper's two-step reduction:
//!
//! 1. **Responses** ([`crate::responses`]): the `c − 1` closed-form
//!    eigenvectors `ȳ_k` of the class-affinity matrix `W` (Theorem 1 says
//!    any `a` with `X̄ᵀa = ȳ` is an LDA projective direction).
//! 2. **Regularized least squares** (Eqn 19): for each response, solve
//!    `ã_k = argmin Σᵢ (ãᵀx̃ᵢ − ȳ_k,i)² + α‖ã‖²` where `x̃ = [x; 1]` is the
//!    bias-augmented sample, so the data is never explicitly centered
//!    (§III.B's trick — essential for sparse input).
//!
//! The solver is pluggable ([`SrdaSolver`]):
//!
//! * [`SrdaSolver::NormalEquations`] — one Cholesky of the smaller of
//!   `X̃ᵀX̃ + αI` (Eqn 20) or `X̃X̃ᵀ + αI` (Eqn 21), reused for all `c − 1`
//!   right-hand sides. Always faster than LDA (paper Table I, max ×9).
//! * [`SrdaSolver::Lsqr`] — matrix-free damped LSQR; `O(k·c·ms)` time and
//!   `O(ms)` memory on sparse data. This is the *linear time* of the title.
//!   Through an operator whose block products are native (a
//!   [`srda_sparse::DiskCsr`]), the responses run in lockstep panels
//!   (`panel_width`), so each LSQR iteration passes over the data once per
//!   panel, not once per response.

use crate::checkpoint::{
    CompletedResponse, FitCheckpoint, FitFingerprint, PanelColumn, FIT_CHECKPOINT_FILE,
};
use crate::labels::ClassIndex;
use crate::model::Embedding;
use crate::report::{FitReport, RecoveryAction, ResponseSolver};
use crate::responses;
use crate::{Result, SrdaError};
use srda_linalg::{flam, ExecPolicy, Executor, LinalgError, Mat};
use srda_obs::{Counter, Recorder, SolverTrace};
use srda_solvers::checkpoint::{CheckpointError, ProblemFingerprint};
use srda_solvers::lsqr::{lsqr_panel, LsqrConfig, PanelControls};
use srda_solvers::{
    certify_operator_block, AugmentedOp, ExecCsr, ExecDense, Interrupt, LinearOperator,
    RidgeSystem, RunGovernor, SolveCertificate, StopReason,
};
use srda_sparse::CsrMatrix;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// How SRDA's `c − 1` ridge problems are solved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SrdaSolver {
    /// Direct solve via one Cholesky factorization of the smaller normal
    /// equation form (primal Eqn 20 when `n ≤ m`, dual Eqn 21 when
    /// `n > m`). On sparse input the dual Gram matrix is built directly
    /// from the sparse rows (never densifying the data).
    NormalEquations,
    /// Iterative LSQR with damping `√α`. The paper's configuration for
    /// 20Newsgroups is `max_iter = 15`; they report "20 iterations are
    /// enough" in general. `tol = 0` runs exactly `max_iter` iterations.
    Lsqr {
        /// Iteration cap per response.
        max_iter: usize,
        /// Relative residual stopping tolerance (0 disables).
        tol: f64,
    },
}

/// Configuration for [`Srda`].
#[derive(Debug, Clone)]
pub struct SrdaConfig {
    /// Ridge parameter `α > 0` controlling shrinkage (paper §IV uses 1).
    pub alpha: f64,
    /// Ridge-solve engine.
    pub solver: SrdaSolver,
    /// Optional cap (bytes) on any dense scratch this fit may allocate.
    /// Exceeding it returns [`SrdaError::MemoryBudgetExceeded`] instead of
    /// allocating — the guard that reproduces the paper's out-of-memory
    /// dashes in Tables IX/X.
    pub memory_budget_bytes: Option<usize>,
    /// Ignored. The LSQR responses are solved in lockstep panels, one
    /// block product pair per iteration for the whole panel, which
    /// replaced the thread-per-response solve this field used to select.
    #[deprecated(note = "ignored: LSQR responses are solved in lockstep panels")]
    pub parallel_responses: bool,
    /// Execution backend for the hot kernels inside a fit (Gram builds,
    /// matrix products, operator applications). Defaults to
    /// [`ExecPolicy::from_env`], so setting `SRDA_THREADS=N` threads an
    /// otherwise-unchanged program; all backends are bitwise identical.
    pub exec: ExecPolicy,
    /// Run governor: wall-clock/iteration budgets and cooperative
    /// cancellation. When set, every iterative loop and every expensive
    /// factorization boundary checks it; an exhausted budget stops the
    /// fit with a typed [`FitOutcome::Interrupted`] (or
    /// [`SrdaError::Interrupted`] from the plain `fit_*` entry points) —
    /// never a garbage model. The governor only *observes* solver state
    /// between iterations, so a governed fit that runs to completion is
    /// bitwise identical to an ungoverned one.
    pub governor: Option<RunGovernor>,
    /// Persist resumable state for LSQR fits: the checkpoint file
    /// (`srda-fit.ckpt`) goes into `dir`, refreshed every `every`
    /// iterations and on interrupt. Only the [`SrdaSolver::Lsqr`] paths
    /// checkpoint; direct solves record a warning and proceed.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume an interrupted LSQR fit from this checkpoint file. The
    /// checkpoint's fingerprint (data shape, labels, `α`, iteration cap,
    /// tolerance) must match the current fit exactly; the resumed
    /// trajectory is bitwise identical to the uninterrupted one.
    pub resume_from: Option<PathBuf>,
    /// Observability sink: when enabled, the fit emits a hierarchical
    /// span tree, registry counters (including the `flam.fit` complexity
    /// count), and per-iteration solver telemetry into this recorder.
    /// Defaults to [`Recorder::from_env`], so `SRDA_TRACE=1` instruments
    /// an otherwise-unchanged program; the disabled recorder is a no-op
    /// handle and instrumentation never perturbs the float sequence.
    pub recorder: Recorder,
}

/// Where and how often a fit persists resumable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory the checkpoint file ([`FIT_CHECKPOINT_FILE`]) is
    /// written into (created if missing).
    pub dir: PathBuf,
    /// Refresh the checkpoint every `every` LSQR iterations. `0` writes
    /// only when an interrupt lands.
    pub every: usize,
}

impl Default for SrdaConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        SrdaConfig {
            alpha: 1.0,
            solver: SrdaSolver::NormalEquations,
            memory_budget_bytes: None,
            parallel_responses: false,
            exec: ExecPolicy::from_env(),
            governor: None,
            checkpoint: None,
            resume_from: None,
            recorder: Recorder::from_env(),
        }
    }
}

impl SrdaConfig {
    /// The paper's sparse-data configuration: LSQR with a fixed iteration
    /// count (15 for their 20Newsgroups runs) and `α = 1`.
    pub fn lsqr_default() -> Self {
        SrdaConfig {
            alpha: 1.0,
            solver: SrdaSolver::Lsqr {
                max_iter: 15,
                tol: 0.0,
            },
            ..SrdaConfig::default()
        }
    }
}

/// What a governed fit produced: a complete model, or the partial state
/// of a budget-interrupted run.
#[derive(Debug, Clone)]
pub enum FitOutcome {
    /// The fit ran to completion.
    Complete(SrdaModel),
    /// The governor stopped the fit before all responses were solved.
    Interrupted(InterruptedFit),
}

impl FitOutcome {
    /// Unwrap the model, turning an interrupt into
    /// [`SrdaError::Interrupted`].
    pub fn into_model(self) -> Result<SrdaModel> {
        match self {
            FitOutcome::Complete(m) => Ok(m),
            FitOutcome::Interrupted(i) => Err(i.into_error()),
        }
    }
}

/// The partial state of a fit the [`RunGovernor`] stopped early.
#[derive(Debug, Clone)]
pub struct InterruptedFit {
    /// Which budget fired.
    pub reason: Interrupt,
    /// The ledger up to the interrupt (`report.interrupt` is set).
    pub report: FitReport,
    /// Response columns solved before the interrupt that a resume keeps:
    /// every column before the interrupted panel, plus the panel's
    /// finished columns when the state of its running ones was captured
    /// (a governor interrupt, or periodic checkpoints).
    pub responses_completed: usize,
    /// Total response columns the fit needed (`c − 1`).
    pub total_responses: usize,
    /// LSQR iterations spent before the interrupt.
    pub iterations: usize,
    /// Where the resumable checkpoint was written, when a
    /// [`CheckpointPolicy`] was configured.
    pub checkpoint: Option<PathBuf>,
}

impl InterruptedFit {
    /// The error the plain `fit_*` entry points surface for this state.
    pub fn into_error(self) -> SrdaError {
        SrdaError::Interrupted {
            reason: self.reason,
            responses_completed: self.responses_completed,
            checkpoint: self.checkpoint,
        }
    }
}

/// The SRDA estimator. Construct with a config, then call
/// [`Srda::fit_dense`] or [`Srda::fit_sparse`].
#[derive(Debug, Clone)]
pub struct Srda {
    config: SrdaConfig,
}

/// A fitted SRDA model.
#[derive(Debug, Clone)]
pub struct SrdaModel {
    embedding: Embedding,
    n_classes: usize,
    alpha: f64,
    /// Total LSQR iterations across responses (0 for direct solves).
    lsqr_iterations: usize,
    /// Robustness ledger: what the fit actually did (see [`FitReport`]).
    fit_report: FitReport,
}

/// The data a fit's normal equations are built from. A fit through any
/// other operator has none, so only LSQR fits it.
pub(crate) enum Design<'a> {
    /// Dense samples as rows; the direct path reads `X̃ = [X | 1]` from
    /// `X` in place, the bias lane added by the kernels.
    Dense(&'a Mat),
    /// Sparse samples as rows, never densified.
    Sparse(&'a CsrMatrix),
    /// Matrix-free: nothing to build a Gram matrix from.
    Operator,
}

/// Iteration cap of the ridge ladder's last rung, damped LSQR.
const FALLBACK_MAX_ITER: usize = 500;
/// Relative residual tolerance of the ridge ladder's last rung.
const FALLBACK_TOL: f64 = 1e-10;

impl Srda {
    /// Create an estimator with the given configuration.
    pub fn new(config: SrdaConfig) -> Self {
        Srda { config }
    }

    /// Convenience: default configuration (`α = 1`, normal equations).
    pub fn default_dense() -> Self {
        Srda::new(SrdaConfig::default())
    }

    /// The configuration this estimator was built with.
    pub fn config(&self) -> &SrdaConfig {
        &self.config
    }

    /// The kernel executor this fit will run on; it carries the config's
    /// recorder so kernel-dispatch counters land in the same registry.
    pub(crate) fn executor(&self) -> Executor {
        Executor::with_recorder(self.config.exec, self.config.recorder)
    }

    /// Fit on dense data (`x`: samples as rows) with labels `y`. A
    /// governed fit whose budget runs out surfaces as
    /// [`SrdaError::Interrupted`]; use [`Srda::fit_dense_outcome`] to get
    /// the partial state instead.
    pub fn fit_dense(&self, x: &Mat, y: &[usize]) -> Result<SrdaModel> {
        self.fit_dense_outcome(x, y)?.into_model()
    }

    /// Fit on dense data, returning a [`FitOutcome`] so an interrupted
    /// run hands back its partial state (and checkpoint path) instead of
    /// an error.
    pub fn fit_dense_outcome(&self, x: &Mat, y: &[usize]) -> Result<FitOutcome> {
        let op = ExecDense::new(x, self.executor());
        self.fit_design(Design::Dense(x), &AugmentedOp::new(&op), y, "fit_dense")
    }

    /// Fit on sparse data without ever densifying it. A governed fit
    /// whose budget runs out surfaces as [`SrdaError::Interrupted`]; use
    /// [`Srda::fit_sparse_outcome`] to get the partial state instead.
    pub fn fit_sparse(&self, x: &CsrMatrix, y: &[usize]) -> Result<SrdaModel> {
        self.fit_sparse_outcome(x, y)?.into_model()
    }

    /// Fit on sparse data, returning a [`FitOutcome`] so an interrupted
    /// run hands back its partial state (and checkpoint path) instead of
    /// an error.
    pub fn fit_sparse_outcome(&self, x: &CsrMatrix, y: &[usize]) -> Result<FitOutcome> {
        let op = ExecCsr::new(x, self.executor());
        self.fit_design(Design::Sparse(x), &AugmentedOp::new(&op), y, "fit_sparse")
    }

    /// Fit through any [`LinearOperator`] — including
    /// [`srda_sparse::DiskCsr`], which realizes the paper's closing claim
    /// that SRDA still applies "with some reasonable disk I/O" when the
    /// data does not fit in memory: LSQR touches the operator only through
    /// `X·u` / `Xᵀ·v`, each one sequential scan of the on-disk non-zeros.
    ///
    /// Only the LSQR solver works matrix-free, so this returns an error
    /// for [`SrdaSolver::NormalEquations`]. The operator is wrapped with
    /// the §III.B bias column automatically (pass the *raw* data operator).
    pub fn fit_operator<A: LinearOperator + ?Sized>(
        &self,
        x: &A,
        y: &[usize],
    ) -> Result<SrdaModel> {
        self.fit_operator_outcome(x, y)?.into_model()
    }

    /// [`Srda::fit_operator`], returning a [`FitOutcome`] so an
    /// interrupted run hands back its partial state (and checkpoint
    /// path) instead of an error.
    pub fn fit_operator_outcome<A: LinearOperator + ?Sized>(
        &self,
        x: &A,
        y: &[usize],
    ) -> Result<FitOutcome> {
        self.fit_design(Design::Operator, &AugmentedOp::new(x), y, "fit_operator")
    }

    /// Run `f` under the top-level `fit` span, streaming the flam it
    /// spends into the registry counter `flam.fit`. With a disabled
    /// recorder this is one branch and a direct call.
    pub(crate) fn instrumented_fit<T>(&self, f: impl FnOnce() -> T) -> T {
        let rec = self.config.recorder;
        if !rec.is_enabled() {
            return f();
        }
        rec.gauge("fit.alpha", self.config.alpha);
        // the span opens inside the flam scope, so it times the fit and
        // not the set-up of its own instrumentation
        let timed = || {
            let _span = rec.span("fit");
            f()
        };
        match rec.counter("flam.fit").cell() {
            Some(cell) => flam::scoped(cell, timed),
            None => timed(),
        }
    }

    /// The labelled fit through `op`, the bias-augmented `X̃ = [X | 1]`:
    /// the class responses of `y` (§III.A), then [`Srda::fit_responses`].
    fn fit_design(
        &self,
        design: Design<'_>,
        op: &dyn LinearOperator,
        y: &[usize],
        name: &'static str,
    ) -> Result<FitOutcome> {
        self.instrumented_fit(|| {
            if op.nrows() != y.len() {
                return Err(SrdaError::ShapeMismatch {
                    op: name,
                    expected: op.nrows(),
                    got: y.len(),
                });
            }
            let prepare = srda_obs::span!(self.config.recorder, "fit/prepare");
            let index = ClassIndex::new(y)?;
            let ybar = responses::generate(&index);
            prepare.finish();
            self.fit_responses(design, op, &ybar, y)
        })
    }

    /// Solve the ridge problem (Eqn 19) of every column of `ybar` with the
    /// configured solver: the ridge ladder over `design`'s normal
    /// equations, or LSQR through `op` (`X̃ = [X | 1]`). `labels` only feed
    /// the checkpoint fingerprint, so a fit that neither checkpoints nor
    /// resumes may pass none.
    pub(crate) fn fit_responses(
        &self,
        design: Design<'_>,
        op: &dyn LinearOperator,
        ybar: &Mat,
        labels: &[usize],
    ) -> Result<FitOutcome> {
        match self.config.solver {
            SrdaSolver::NormalEquations => self.fit_direct(design, op, ybar),
            SrdaSolver::Lsqr { max_iter, tol } => self.fit_lsqr(op, ybar, labels, max_iter, tol),
        }
    }

    /// The normal-equation fit: the ridge ladder over the design's Gram
    /// matrix (see `srda_solvers::ridge`), whose last rung is damped LSQR
    /// through `op` and the response loop. Direct solves have no
    /// resumable state, so they neither resume nor checkpoint.
    fn fit_direct(
        &self,
        design: Design<'_>,
        op: &dyn LinearOperator,
        ybar: &Mat,
    ) -> Result<FitOutcome> {
        let rec = self.config.recorder;
        // the whole normal-equation fit; the ladder's stages nest inside
        let _span = srda_obs::span!(rec, "fit/ridge");
        let gram_span = srda_obs::span!(rec, "fit/gram");
        // silently ignoring `resume_from` would hide a misconfiguration
        if self.config.resume_from.is_some() {
            return Err(SrdaError::Checkpoint(CheckpointError::Mismatch(
                "resume requires the LSQR solver; this fit is configured \
                 for normal equations"
                    .into(),
            )));
        }
        let k = ybar.ncols();
        let mut report = FitReport::default();
        self.warn_checkpoint_unsupported(&mut report);
        let system = match design {
            Design::Dense(x) => {
                let (need, context) = dense_system_bytes(x);
                if let Some(budget) = self.config.memory_budget_bytes.filter(|&b| need > b) {
                    return Err(SrdaError::MemoryBudgetExceeded {
                        needed_bytes: need,
                        budget_bytes: budget,
                        context,
                    });
                }
                Some(RidgeSystem::dense(x, ybar, self.executor())?)
            }
            // a declined memory budget is a recovery (matrix-free LSQR),
            // not a fatal error: the warning records exactly why
            Design::Sparse(x) => {
                let budget = self.config.memory_budget_bytes.unwrap_or(usize::MAX);
                match RidgeSystem::sparse(x, ybar, budget, self.executor()) {
                    Ok(system) => Some(system),
                    Err(decline) => {
                        report.warnings.push(format!(
                            "sparse dual Gram declined: {decline}; \
                             falling back to matrix-free LSQR"
                        ));
                        None
                    }
                }
            }
            Design::Operator => {
                return Err(SrdaError::InvalidLabels {
                    context: "fit_operator requires the LSQR solver (matrix-free)".into(),
                })
            }
        };
        gram_span.finish();
        if let Some(mut system) = system {
            let outcome = system.solve_ladder(self.config.alpha, self.config.governor.as_ref())?;
            // one direct attempt plus one per jitter retry
            rec.add("ladder.attempts", 1 + outcome.actions.len() as u64);
            report.warnings.extend(outcome.warnings);
            report.recoveries.extend(outcome.actions);
            if let Some(reason) = outcome.interrupted {
                report.interrupt = Some(reason);
                return Ok(FitOutcome::Interrupted(InterruptedFit {
                    reason,
                    report,
                    responses_completed: 0,
                    total_responses: k,
                    iterations: 0,
                    checkpoint: None,
                }));
            }
            if let Some((solved, jitter)) = outcome.value {
                report.condition_estimate = Some(solved.cond);
                report.certificates = solved.certificates;
                let solver = if jitter > 0.0 {
                    ResponseSolver::DirectJittered { jitter }
                } else {
                    ResponseSolver::Direct
                };
                report.responses = vec![solver; k];
                return Ok(FitOutcome::Complete(self.finish(solved.weights, 0, report)));
            }
            report.warnings.push(
                "every rung failed factorization or certification; \
                 weights computed by damped LSQR"
                    .into(),
            );
        }
        // the last rung never forms the Gram matrix, so the breakdowns
        // above cannot recur; rank deficiency yields the minimum-norm
        // solution
        report.recoveries.push(RecoveryAction::LsqrFallback);
        rec.add("ladder.lsqr_fallback", 1);
        let ctl = ResponseControls {
            fallback: true,
            ..ResponseControls::default()
        };
        let (max_iter, tol) = (FALLBACK_MAX_ITER, FALLBACK_TOL);
        self.solve_lsqr_responses_controlled(op, ybar, max_iter, tol, report, &ctl)
    }

    /// Incrementally refit on an **updated** sparse dataset (e.g. the old
    /// corpus plus freshly labeled documents), warm-starting each response
    /// solve from `previous`'s weights.
    ///
    /// LSQR converges geometrically from its start point, so when the data
    /// change is small the correction is tiny and far fewer iterations are
    /// needed than a cold [`Srda::fit_sparse`] — the spectral-regression
    /// answer to IDR/QR's incremental-update selling point. The class
    /// count and feature count must match `previous`; `tol` should be
    /// non-zero so the solver can stop early (that is the whole point).
    /// A warm start is not resumable, so the fit writes no checkpoint.
    pub fn fit_sparse_incremental(
        &self,
        x: &CsrMatrix,
        y: &[usize],
        previous: &SrdaModel,
        max_iter: usize,
        tol: f64,
    ) -> Result<SrdaModel> {
        if x.nrows() != y.len() {
            return Err(SrdaError::ShapeMismatch {
                op: "fit_sparse_incremental",
                expected: x.nrows(),
                got: y.len(),
            });
        }
        let prev = previous.embedding();
        if prev.n_features() != x.ncols() {
            return Err(SrdaError::ShapeMismatch {
                op: "fit_sparse_incremental (features)",
                expected: prev.n_features(),
                got: x.ncols(),
            });
        }
        let index = ClassIndex::new(y)?;
        if index.n_classes() != previous.n_classes() {
            return Err(SrdaError::InvalidLabels {
                context: format!(
                    "class count changed: {} -> {}",
                    previous.n_classes(),
                    index.n_classes()
                ),
            });
        }
        let mut report = FitReport::default();
        self.warn_checkpoint_unsupported(&mut report);
        let outcome = self.instrumented_fit(|| -> Result<FitOutcome> {
            let prepare = srda_obs::span!(self.config.recorder, "fit/prepare");
            let ybar = responses::generate(&index);
            // each response starts from its column of the previous [W; bᵀ]
            let starts = [prev.weights().as_slice(), prev.bias()].concat();
            let starts = Mat::from_vec(x.ncols() + 1, ybar.ncols(), starts)
                .expect("the previous model has n × k weights and k biases");
            prepare.finish();
            let ctl = ResponseControls {
                x0: Some(&starts),
                ..ResponseControls::default()
            };
            let op = ExecCsr::new(x, self.executor());
            let op = AugmentedOp::new(&op);
            self.solve_lsqr_responses_controlled(&op, &ybar, max_iter, tol, report, &ctl)
        });
        outcome?.into_model()
    }

    /// Record that a configured checkpoint policy is ignored because the
    /// fit does not run the configured (checkpointable) LSQR solver.
    fn warn_checkpoint_unsupported(&self, report: &mut FitReport) {
        if self.config.checkpoint.is_some() {
            report.warnings.push(
                "checkpointing is only supported for LSQR fits; \
                 no checkpoint was written"
                    .into(),
            );
        }
    }

    /// The configured LSQR solver through `op`: governed, checkpointable
    /// and resumable.
    fn fit_lsqr(
        &self,
        op: &dyn LinearOperator,
        ybar: &Mat,
        labels: &[usize],
        max_iter: usize,
        tol: f64,
    ) -> Result<FitOutcome> {
        let (alpha, n, k) = (self.config.alpha, op.ncols() - 1, ybar.ncols());
        // the fingerprint binds persisted state to this exact problem; it
        // is only needed when state crosses the process boundary
        let want_ckpt = self.config.checkpoint.is_some() || self.config.resume_from.is_some();
        let fingerprint =
            want_ckpt.then(|| FitFingerprint::new(op.nrows(), n, k, alpha, max_iter, tol, labels));
        let resume = match &self.config.resume_from {
            Some(path) => {
                let ckpt = FitCheckpoint::read(path)?;
                ckpt.fingerprint
                    .ensure_matches(fingerprint.as_ref().expect("fingerprint exists on resume"))?;
                check_resume_layout(&ckpt, op, ybar, max_iter, tol, alpha)?;
                Some(ckpt)
            }
            None => None,
        };
        let ckpt_path = match &self.config.checkpoint {
            Some(policy) => {
                std::fs::create_dir_all(&policy.dir).map_err(|e| {
                    SrdaError::Checkpoint(CheckpointError::Io(format!(
                        "creating checkpoint dir {}: {e}",
                        policy.dir.display()
                    )))
                })?;
                Some((policy.dir.join(FIT_CHECKPOINT_FILE), policy.every))
            }
            None => None,
        };
        let ctl = ResponseControls {
            checkpoint: ckpt_path.as_ref().map(|(p, every)| (p.as_path(), *every)),
            resume,
            fingerprint,
            ..ResponseControls::default()
        };
        let report = FitReport::default();
        self.solve_lsqr_responses_controlled(op, ybar, max_iter, tol, report, &ctl)
    }

    /// The model of the weights `w_aug` = `[W; bᵀ]` (`(n + 1) × (c − 1)`).
    fn finish(&self, w_aug: Mat, lsqr_iterations: usize, mut fit_report: FitReport) -> SrdaModel {
        fit_report.refresh_certificate_summary();
        let rec = self.config.recorder;
        if rec.is_enabled() {
            if let Some(worst) = fit_report.worst_backward_error {
                rec.gauge("fit.worst_backward_error", worst);
                let suspect = fit_report
                    .certificates
                    .iter()
                    .filter(|c| c.is_suspect())
                    .count();
                rec.gauge("fit.certificates.suspect", suspect as f64);
            }
        }
        // split [W; bᵀ] into the weight matrix and the intercept row; the
        // weights keep the buffer, so W is never copied
        let (n, k) = (w_aug.nrows() - 1, w_aug.ncols());
        let mut weights = w_aug.into_vec();
        let bias = weights.split_off(n * k);
        let weights = Mat::from_vec(n, k, weights).expect("split shapes always consistent");
        SrdaModel {
            embedding: Embedding::new(weights, bias).expect("split shapes always consistent"),
            n_classes: k + 1,
            alpha: self.config.alpha,
            lsqr_iterations,
            fit_report,
        }
    }
}

/// Fail the fit when an LSQR response diverged: its weight column is
/// garbage (LSQR resets it to zero), so the fit fails loudly instead of
/// returning a silently broken model — this is how a poisoned right-hand
/// side or a failing disk operator surfaces to the caller.
fn ensure_converging(stop: StopReason) -> Result<()> {
    if stop == StopReason::Diverged {
        return Err(SrdaError::Linalg(LinalgError::NonFinite {
            context: "LSQR response solve (diverged: non-finite input or operator output)",
        }));
    }
    Ok(())
}

/// Fold one finished LSQR response and its certificate into the fit
/// report (call [`ensure_converging`] first).
///
/// Every recorded response gets a post-hoc `SolveCertificate` (see
/// `srda_solvers::certify_operator`): a pure function of the final
/// iterate, so serial/threaded and fresh/resumed runs record bitwise-equal
/// certificates. A Suspect verdict only warns when a tolerance was
/// requested — a fixed-iteration run (`tol = 0`, the paper's sparse
/// configuration) is *expected* to stop wherever its budget ends, and the
/// certificate already records how far that was.
fn record_lsqr_response(
    report: &mut FitReport,
    j: usize,
    iterations: usize,
    stop: StopReason,
    residual_norm: f64,
    tol: f64,
    cert: SolveCertificate,
) {
    match stop {
        StopReason::Stagnated => report.warnings.push(format!(
            "response {j}: LSQR stagnated after {iterations} iterations (residual {residual_norm:.3e})"
        )),
        StopReason::MaxIterations if tol > 0.0 => report.warnings.push(format!(
            "response {j}: LSQR hit the iteration cap ({iterations}) before reaching tol"
        )),
        StopReason::Interrupted(_) => {
            unreachable!("interrupted responses are handled before recording")
        }
        _ => {}
    }
    if cert.is_suspect() && tol > 0.0 {
        report.warnings.push(format!(
            "response {j}: LSQR solution failed certification \
             (relative NE residual {:.3e})",
            cert.backward_error
        ));
    }
    report.certificates.push(cert);
    report
        .responses
        .push(ResponseSolver::Lsqr { iterations, stop });
}

/// The bytes of the matrix `RidgeSystem::dense` materializes for `x`
/// (`m × n`), and what it is: the `(n+1)²` primal Gram when `n < m`, else
/// the `m²` dual Gram. Both branches read `X` in place.
fn dense_system_bytes(x: &Mat) -> (usize, &'static str) {
    let m = x.nrows();
    if x.ncols() < m {
        let n1 = x.ncols() + 1;
        (
            n1.saturating_mul(n1).saturating_mul(8),
            "primal Gram matrix",
        )
    } else {
        (m.saturating_mul(m).saturating_mul(8), "dual Gram matrix")
    }
}

/// The widest lockstep panel a fit of `k` responses solves through the
/// (augmented, `m × (n+1)`) operator `op`. A panel shares its passes over
/// the data only when the block products are native
/// ([`LinearOperator::shares_block_passes`]); through any other operator
/// every panel is one response. Otherwise it is the largest `p ≥ 1` whose
/// lockstep state — `w`, `v` and `Aᵀu` at `(n+1) × p` each, plus `u` and
/// `A·v` at `m × p` — fits in the `(n+1) × k` weight matrix the fit
/// allocates anyway: `(3(n+1) + 2m)·p ≤ (n+1)·k`. That bounds `p` by
/// `k/3`, so for `k ≤ 5` every panel is one response, exactly the
/// one-at-a-time solve.
fn panel_width<A: LinearOperator + ?Sized>(op: &A, k: usize) -> usize {
    if !op.shares_block_passes() {
        return 1;
    }
    // in u128, so no data shape can overflow the products
    let (cols, m) = (op.ncols() as u128, op.nrows() as u128);
    let p = cols * k as u128 / (3 * cols + 2 * m).max(1);
    usize::try_from(p).map_or(1, |p| p.max(1))
}

/// The columns `cols` as `⌈len/p_max⌉` contiguous panels of near-equal
/// width (wider ones first).
fn lsqr_panels(cols: Range<usize>, p_max: usize) -> Vec<Range<usize>> {
    let k = cols.len();
    let count = k.div_ceil(p_max);
    let mut start = cols.start;
    (0..count)
        .map(|i| {
            let width = k / count + usize::from(i < k % count);
            start += width;
            start - width..start
        })
        .collect()
}

/// Check that a fingerprint-verified checkpoint describes a state this
/// fit can resume: the completed columns and the interrupted panel's
/// entries fit in the `k` responses, every iterate has the operator's
/// width, and the running columns share one iteration and belong to their
/// own right-hand sides. The panel layout is not checked: each column's
/// trajectory is its own, so a fit resumes from any layout, including one
/// written through an operator with another panel width.
fn check_resume_layout(
    ckpt: &FitCheckpoint,
    op: &dyn LinearOperator,
    ybar: &Mat,
    max_iter: usize,
    tol: f64,
    alpha: f64,
) -> Result<()> {
    let corrupt = |what: &str| {
        Err(SrdaError::Checkpoint(CheckpointError::Corrupt(format!(
            "checkpoint contents inconsistent with its fingerprint: {what}"
        ))))
    };
    let start = ckpt.completed.len();
    if start + ckpt.panel.len() > ybar.ncols() {
        return corrupt("more responses than the fit has");
    }
    let mut iteration = None;
    for (j, col) in (start..).zip(&ckpt.panel) {
        if let PanelColumn::Running(state) = col {
            if *iteration.get_or_insert(state.iteration) != state.iteration {
                return corrupt("running columns stopped at different iterations");
            }
            let own = ProblemFingerprint::new(
                op.nrows(),
                op.ncols(),
                alpha.sqrt(),
                tol,
                max_iter,
                &ybar.col(j),
            );
            state.fingerprint.ensure_matches(&own)?;
        }
    }
    let widths_ok = ckpt.completed.iter().all(|c| c.x.len() == op.ncols())
        && ckpt.panel.iter().all(|col| match col {
            PanelColumn::Done(c) => c.x.len() == op.ncols(),
            PanelColumn::Running(s) => s.x.len() == op.ncols(),
        });
    if !widths_ok {
        return corrupt("iterate width differs from the data");
    }
    Ok(())
}

/// Routes a panel's block products through its `apply`/`apply_t` spans
/// and the `lsqr.operator_passes` counter.
struct PanelOp<'a> {
    inner: &'a dyn LinearOperator,
    recorder: Recorder,
    panel: usize,
    passes: &'a Counter,
}

impl LinearOperator for PanelOp<'_> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply_into(x, y)
    }
    fn apply_t_into(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply_t_into(x, y)
    }
    fn apply_block_into(&self, x: &[f64], p: usize, y: &mut [f64]) {
        let _span = srda_obs::span!(self.recorder, "fit/lsqr/panel[{}]/apply", self.panel);
        self.passes.inc();
        self.inner.apply_block_into(x, p, y);
    }
    fn apply_t_block_into(&self, x: &[f64], p: usize, y: &mut [f64]) {
        let _span = srda_obs::span!(self.recorder, "fit/lsqr/panel[{}]/apply_t", self.panel);
        self.passes.inc();
        self.inner.apply_t_block_into(x, p, y);
    }
    fn shares_block_passes(&self) -> bool {
        self.inner.shares_block_passes()
    }
}

/// Columns `cols` of the row-major matrix `a` as a row-major block.
fn block_of(a: &Mat, cols: Range<usize>) -> Vec<f64> {
    a.rows_iter()
        .flat_map(|row| &row[cols.clone()])
        .copied()
        .collect()
}

impl PanelOp<'_> {
    /// Certify the finished responses `cols` of `w` against their
    /// right-hand sides in `ybar`: three block products for the whole
    /// panel, timed by the panel's `certify` span.
    fn certify(&self, ybar: &Mat, w: &Mat, cols: Range<usize>, damp: f64) -> Vec<SolveCertificate> {
        let _span = srda_obs::span!(self.recorder, "fit/lsqr/panel[{}]/certify", self.panel);
        self.passes.add(3);
        certify_operator_block(
            self.inner,
            &block_of(ybar, cols.clone()),
            &block_of(w, cols.clone()),
            cols.len(),
            damp,
        )
    }
}

/// Persistence and warm starts for the response panels.
#[derive(Default)]
struct ResponseControls<'a> {
    /// Checkpoint file and refresh period, when persistence is on.
    checkpoint: Option<(&'a Path, usize)>,
    /// Persisted state to continue from (already verified by
    /// [`check_resume_layout`]).
    resume: Option<FitCheckpoint>,
    /// Problem identity; `Some` exactly when `checkpoint` or `resume` is.
    fingerprint: Option<FitFingerprint>,
    /// Warm starts: column `j` of this `(n+1) × k` matrix starts response
    /// `j` (a warm fit neither checkpoints nor resumes).
    x0: Option<&'a Mat>,
    /// The loop is the ridge ladder's last rung, and its responses say so.
    fallback: bool,
}

/// Called by LSQR every `checkpoint_every` iterations with the panel's
/// state.
type CheckpointWriter<'a> = Box<dyn Fn(&[PanelColumn]) + 'a>;

impl Srda {
    /// Solve the `c − 1` damped least-squares problems with lockstep LSQR,
    /// one panel ([`panel_width`]) after another: each lockstep iteration
    /// makes one block product pair for the whole panel, and every response
    /// keeps the trajectory it would have alone. This is every LSQR solve of
    /// a fit's responses: the configured solver, the ridge ladder's last rung
    /// and warm-started refits. The responses' outcomes are appended to
    /// `report`. A diverged response fails the whole fit (see
    /// [`ensure_converging`]); a governor interrupt returns the partial state
    /// instead, and writes it, the interrupted panel's per-column state
    /// included, to the checkpoint file when there is one. A finished fit
    /// removes that file, so a later run cannot "resume" a done fit.
    fn solve_lsqr_responses_controlled(
        &self,
        op: &dyn LinearOperator,
        ybar: &Mat,
        max_iter: usize,
        tol: f64,
        mut report: FitReport,
        ctl: &ResponseControls<'_>,
    ) -> Result<FitOutcome> {
        let rec = self.config.recorder;
        let cfg = LsqrConfig {
            damp: self.config.alpha.sqrt(),
            max_iter,
            tol,
        };
        let k = ybar.ncols();
        let p_max = panel_width(op, k);
        // a resumed fit keeps the checkpoint's layout up to its interrupted
        // panel: the completed columns (only certified here), that panel,
        // then the rest in fresh panels
        let (start, carried_len) = ctl
            .resume
            .as_ref()
            .map_or((0, 0), |c| (c.completed.len(), c.panel.len()));
        let mut panels = lsqr_panels(0..start, p_max);
        let first = panels.len();
        if carried_len > 0 {
            panels.push(start..start + carried_len);
        }
        panels.extend(lsqr_panels(start + carried_len..k, p_max));
        let passes = rec.counter("lsqr.operator_passes");
        let panel_op = |panel| PanelOp {
            inner: op,
            recorder: rec,
            panel,
            passes: &passes,
        };
        let mut w = Mat::zeros(op.ncols(), k);
        let mut total_iters = 0;
        // the columns of every finished panel, kept for checkpoints
        let mut completed: Vec<CompletedResponse> = Vec::new();
        let mut carried: Vec<PanelColumn> = Vec::new();
        if let Some(ckpt) = &ctl.resume {
            for (j, c) in ckpt.completed.iter().enumerate() {
                w.set_col(j, &c.x);
                total_iters += c.iterations;
            }
            // the certificate is a pure function of the persisted iterate, so
            // recomputing it reproduces the original run's value bitwise (any
            // suspect-warning text rides in ckpt.warnings)
            for (i, cols) in panels[..first].iter().enumerate() {
                let certs = panel_op(i).certify(ybar, &w, cols.clone(), cfg.damp);
                report.certificates.extend(certs);
            }
            report
                .responses
                .extend(ckpt.completed.iter().map(|c| ResponseSolver::Lsqr {
                    iterations: c.iterations,
                    stop: c.stop,
                }));
            report.warnings.extend(ckpt.warnings.iter().cloned());
            completed = ckpt.completed.clone();
            carried = ckpt.panel.clone();
        }

        for (i, cols) in panels.iter().enumerate().skip(first) {
            let _span = srda_obs::span!(rec, "fit/lsqr/panel[{i}]");
            // columns a resumed panel had already finished stay as they were
            let mut before: Vec<Option<CompletedResponse>> = vec![None; cols.len()];
            let mut resume = Vec::new();
            for (pos, col) in std::mem::take(&mut carried).into_iter().enumerate() {
                match col {
                    PanelColumn::Done(c) => {
                        w.set_col(cols.start + pos, &c.x);
                        before[pos] = Some(c);
                    }
                    PanelColumn::Running(state) => resume.push(state),
                }
            }
            let run: Vec<usize> = cols
                .clone()
                .filter(|j| before[j - cols.start].is_none())
                .collect();
            let rhs: Vec<Vec<f64>> = run.iter().map(|&j| ybar.col(j)).collect();
            let rhs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
            let traces: Vec<Option<SolverTrace>> = run
                .iter()
                .map(|j| {
                    let t = rec.solver_trace(format!("fit/response[{j}]/lsqr"));
                    if let Some(t) = &t {
                        t.set_backend(self.executor().backend_name());
                    }
                    t
                })
                .collect();
            let telemetry: Vec<Option<&SolverTrace>> = traces.iter().map(Option::as_ref).collect();
            let starts: Vec<Vec<f64>> = ctl
                .x0
                .map_or_else(Vec::new, |x0| run.iter().map(|&j| x0.col(j)).collect());
            let starts: Vec<&[f64]> = starts.iter().map(Vec::as_slice).collect();
            // the whole panel's state, with the columns finished before this
            // run in their places
            let merge = |state: Vec<PanelColumn>| -> Vec<PanelColumn> {
                let mut state = state.into_iter();
                before
                    .iter()
                    .map(|b| match b {
                        Some(c) => PanelColumn::Done(c.clone()),
                        None => state.next().expect("one state per running column"),
                    })
                    .collect()
            };
            // periodic writer: the finished panels plus this panel's state,
            // refreshed from inside the lockstep loop
            let writer: Option<CheckpointWriter> = match (ctl.checkpoint, ctl.fingerprint) {
                (Some((path, every)), Some(fp)) if every > 0 => {
                    let completed = completed.clone();
                    let warnings = report.warnings.clone();
                    let path = path.to_path_buf();
                    Some(Box::new(move |state: &[PanelColumn]| {
                        let snapshot = FitCheckpoint {
                            fingerprint: fp,
                            completed: completed.clone(),
                            panel: merge(state.to_vec()),
                            warnings: warnings.clone(),
                        };
                        // periodic persistence is best-effort: a full disk
                        // must not kill an otherwise-healthy fit (the
                        // interrupt-time write below is the one that reports
                        // failures)
                        let _ = snapshot.write_atomic(&path);
                    }))
                }
                _ => None,
            };
            let controls = PanelControls {
                governor: self.config.governor.as_ref(),
                resume: (!resume.is_empty()).then_some(resume.as_slice()),
                checkpoint_every: ctl.checkpoint.map_or(0, |(_, every)| every),
                on_checkpoint: writer.as_deref(),
                telemetry: &telemetry,
                x0: ctl.x0.map(|_| starts.as_slice()),
            };
            let panel_op = panel_op(i);
            let results = lsqr_panel(&panel_op, &rhs, w.as_mut_slice(), k, &run, &cfg, &controls);

            // the panel in column order: (iterations, stop, residual) of the
            // columns finished before this run and of this run's columns
            let mut from_run = results.iter();
            let ends: Vec<(usize, StopReason, f64)> = before
                .iter()
                .map(|b| match b {
                    Some(c) => (c.iterations, c.stop, c.residual_norm),
                    None => {
                        let r = from_run.next().expect("one result per running column");
                        (r.iterations, r.stop, r.residual_norm)
                    }
                })
                .collect();
            total_iters += ends.iter().map(|e| e.0).sum::<usize>();
            for &(_, stop, _) in &ends {
                ensure_converging(stop)?;
            }
            if let Some(reason) = results.iter().find_map(|r| match r.stop {
                StopReason::Interrupted(reason) => Some(reason),
                _ => None,
            }) {
                let mut state = Vec::with_capacity(run.len());
                for (&j, r) in run.iter().zip(&results) {
                    state.push(match (&r.stop, &r.checkpoint) {
                        (StopReason::Interrupted(_), Some(s)) => {
                            PanelColumn::Running((**s).clone())
                        }
                        (StopReason::Interrupted(_), None) => continue,
                        _ => PanelColumn::Done(CompletedResponse {
                            x: w.col(j),
                            iterations: r.iterations,
                            stop: r.stop,
                            residual_norm: r.residual_norm,
                        }),
                    });
                }
                // without every running column's state (a kill with no
                // governor or periodic checkpoints), the panel restarts from
                // scratch on resume, its finished columns included
                let panel = if state.len() == run.len() {
                    merge(state)
                } else {
                    Vec::new()
                };
                let kept = panel
                    .iter()
                    .filter(|c| matches!(c, PanelColumn::Done(_)))
                    .count();
                let mut checkpoint = None;
                if let (Some((path, _)), Some(fingerprint)) = (ctl.checkpoint, ctl.fingerprint) {
                    let warnings = report.warnings.clone();
                    let state = FitCheckpoint {
                        fingerprint,
                        completed,
                        panel,
                        warnings,
                    };
                    state.write_atomic(path)?;
                    checkpoint = Some(path.to_path_buf());
                }
                report.interrupt = Some(reason);
                report.refresh_certificate_summary();
                if ctl.fallback {
                    report.responses.fill(ResponseSolver::LsqrFallback);
                }
                return Ok(FitOutcome::Interrupted(InterruptedFit {
                    reason,
                    report,
                    responses_completed: cols.start + kept,
                    total_responses: k,
                    iterations: total_iters,
                    checkpoint,
                }));
            }

            let certs = panel_op.certify(ybar, &w, cols.clone(), cfg.damp);
            for ((j, (iterations, stop, residual)), cert) in cols.clone().zip(ends).zip(certs) {
                record_lsqr_response(&mut report, j, iterations, stop, residual, tol, cert);
                if ctl.fingerprint.is_some() {
                    completed.push(CompletedResponse {
                        x: w.col(j),
                        iterations,
                        stop,
                        residual_norm: residual,
                    });
                }
            }
        }
        if let Some((path, _)) = ctl.checkpoint {
            let _ = std::fs::remove_file(path);
        }
        if ctl.fallback {
            report.responses.fill(ResponseSolver::LsqrFallback);
        }
        Ok(FitOutcome::Complete(self.finish(w, total_iters, report)))
    }
}

impl SrdaModel {
    /// The learned embedding (`n_features → c − 1` dimensions).
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// Number of classes seen at fit time.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Ridge parameter used at fit time.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Total LSQR iterations spent (0 when the direct solver was used).
    pub fn lsqr_iterations(&self) -> usize {
        self.lsqr_iterations
    }

    /// The robustness ledger for the fit that produced this model: every
    /// recovery taken, per-response solver outcomes, warnings, and the
    /// Gram-matrix condition estimate. [`FitReport::clean`] is `true`
    /// when nothing went wrong.
    pub fn fit_report(&self) -> &FitReport {
        &self.fit_report
    }

    /// Record what a pre-fit quarantine pass (`srda-data`'s `sanitize`)
    /// did to the training data, so the ledger travels with the model:
    /// a fit on repaired data is not [`FitReport::clean`] unless the
    /// repair was a no-op.
    pub fn attach_quarantine(&mut self, quarantine: crate::report::QuarantineSummary) {
        self.fit_report.quarantine = Some(quarantine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian-ish blobs in 3-D.
    fn blobs() -> (Mat, Vec<usize>) {
        let x = Mat::from_rows(&[
            vec![0.0, 0.1, -0.1],
            vec![0.1, -0.1, 0.0],
            vec![-0.1, 0.0, 0.1],
            vec![0.05, 0.05, 0.0],
            vec![4.0, 4.1, 3.9],
            vec![4.1, 3.9, 4.0],
            vec![3.9, 4.0, 4.1],
            vec![4.0, 4.0, 4.0],
        ])
        .unwrap();
        let y = vec![0, 0, 0, 0, 1, 1, 1, 1];
        (x, y)
    }

    /// Three classes, 4-D, enough samples to be over-determined.
    fn three_blobs() -> (Mat, Vec<usize>) {
        let centers = [
            [0.0, 0.0, 0.0, 0.0],
            [5.0, 0.0, 5.0, 0.0],
            [0.0, 5.0, 0.0, 5.0],
        ];
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for (k, c) in centers.iter().enumerate() {
            for s in 0..6 {
                let noise = |d: usize| {
                    let x = ((k * 31 + s * 7 + d * 13) as f64 * 12.9898).sin() * 43758.5453;
                    (x - x.floor() - 0.5) * 0.3
                };
                rows.push((0..4).map(|d| c[d] + noise(d)).collect::<Vec<_>>());
                y.push(k);
            }
        }
        (Mat::from_rows(&rows).unwrap(), y)
    }

    fn class_compactness(z: &Mat, y: &[usize]) -> (f64, f64) {
        // (avg within-class dist, avg between-class centroid dist)
        let ci = ClassIndex::new(y).unwrap();
        let (centroids, _) = srda_linalg::stats::class_means(z, y, ci.n_classes()).unwrap();
        let mut within = 0.0;
        for (i, &k) in y.iter().enumerate() {
            within += srda_linalg::vector::dist2_sq(z.row(i), centroids.row(k)).sqrt();
        }
        within /= y.len() as f64;
        let mut between = 0.0;
        let mut pairs = 0;
        for a in 0..ci.n_classes() {
            for b in (a + 1)..ci.n_classes() {
                between += srda_linalg::vector::dist2_sq(centroids.row(a), centroids.row(b)).sqrt();
                pairs += 1;
            }
        }
        (within, between / pairs as f64)
    }

    #[test]
    fn separates_two_blobs() {
        let (x, y) = blobs();
        let model = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
        assert_eq!(model.embedding().n_components(), 1);
        let z = model.embedding().transform_dense(&x).unwrap();
        let (within, between) = class_compactness(&z, &y);
        assert!(
            between > 10.0 * within,
            "within {within}, between {between}"
        );
    }

    #[test]
    fn three_classes_give_two_components() {
        let (x, y) = three_blobs();
        let model = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
        assert_eq!(model.embedding().n_components(), 2);
        assert_eq!(model.n_classes(), 3);
        let z = model.embedding().transform_dense(&x).unwrap();
        let (within, between) = class_compactness(&z, &y);
        assert!(between > 5.0 * within);
    }

    #[test]
    fn lsqr_matches_normal_equations() {
        let (x, y) = three_blobs();
        let ne = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
        let it = Srda::new(SrdaConfig {
            solver: SrdaSolver::Lsqr {
                max_iter: 300,
                tol: 0.0,
            },
            ..SrdaConfig::default()
        })
        .fit_dense(&x, &y)
        .unwrap();
        assert!(it.lsqr_iterations() > 0);
        let w1 = ne.embedding().weights();
        let w2 = it.embedding().weights();
        assert!(
            w1.approx_eq(w2, 1e-6 * w1.max_abs().max(1.0)),
            "max diff {}",
            w1.sub(w2).unwrap().max_abs()
        );
        for (b1, b2) in ne.embedding().bias().iter().zip(it.embedding().bias()) {
            assert!((b1 - b2).abs() < 1e-6);
        }
    }

    #[test]
    fn sparse_path_matches_dense_path() {
        let (x, y) = three_blobs();
        let xs = CsrMatrix::from_dense(&x, 0.0);
        for solver in [
            SrdaSolver::NormalEquations,
            SrdaSolver::Lsqr {
                max_iter: 300,
                tol: 0.0,
            },
        ] {
            let cfg = SrdaConfig {
                solver,
                ..SrdaConfig::default()
            };
            let md = Srda::new(cfg.clone()).fit_dense(&x, &y).unwrap();
            let ms = Srda::new(cfg).fit_sparse(&xs, &y).unwrap();
            let wd = md.embedding().weights();
            let ws = ms.embedding().weights();
            assert!(
                wd.approx_eq(ws, 1e-6 * wd.max_abs().max(1.0)),
                "{solver:?}: max diff {}",
                wd.sub(ws).unwrap().max_abs()
            );
        }
    }

    #[test]
    fn high_dimensional_small_sample() {
        // n ≫ m: the singular regime that breaks plain LDA; SRDA must be
        // fine (dual normal equations / ridge make it well-posed)
        let m = 10;
        let n = 200;
        let x = Mat::from_fn(m, n, |i, j| {
            let base = if i < 5 { 0.0 } else { 3.0 };
            let h = ((i * 131 + j * 37) as f64 * 12.9898).sin() * 43758.5453;
            base + (h - h.floor() - 0.5)
        });
        let y: Vec<usize> = (0..m).map(|i| usize::from(i >= 5)).collect();
        let model = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
        let z = model.embedding().transform_dense(&x).unwrap();
        let (within, between) = class_compactness(&z, &y);
        assert!(between > 3.0 * within, "within {within} between {between}");
    }

    #[test]
    fn alpha_zero_limit_interpolates_training_responses() {
        // Corollary 3: with linearly independent samples and α → 0 the
        // embedding collapses each training class to a single point.
        let (x, y) = three_blobs(); // 18 samples in 4-D: NOT independent
                                    // make them independent by embedding into high dimension
        let hi = x
            .hcat(&Mat::from_fn(18, 30, |i, j| {
                let h = ((i * 17 + j * 29) as f64 * 78.233).sin() * 43758.5453;
                (h - h.floor() - 0.5) * 2.0
            }))
            .unwrap();
        let model = Srda::new(SrdaConfig {
            alpha: 1e-10,
            ..SrdaConfig::default()
        })
        .fit_dense(&hi, &y)
        .unwrap();
        let z = model.embedding().transform_dense(&hi).unwrap();
        let (within, between) = class_compactness(&z, &y);
        assert!(
            within < 1e-6 * between,
            "classes did not collapse: within {within}, between {between}"
        );
    }

    #[test]
    fn label_length_mismatch_rejected() {
        let (x, _) = blobs();
        let err = Srda::default_dense().fit_dense(&x, &[0, 1]);
        assert!(matches!(err, Err(SrdaError::ShapeMismatch { .. })));
    }

    #[test]
    fn single_class_rejected() {
        let (x, _) = blobs();
        assert!(Srda::default_dense().fit_dense(&x, &[0; 8]).is_err());
    }

    #[test]
    fn memory_budget_enforced_dense() {
        let (x, y) = blobs();
        let cfg = SrdaConfig {
            memory_budget_bytes: Some(16),
            ..SrdaConfig::default()
        };
        let err = Srda::new(cfg).fit_dense(&x, &y);
        assert!(matches!(err, Err(SrdaError::MemoryBudgetExceeded { .. })));
    }

    #[test]
    fn memory_budget_counts_what_the_dense_branch_builds() {
        // tall (60 × 4): the primal Gram is 5 × 5 = 200 bytes, while the
        // augmented copy it no longer builds would be 60 · 5 · 8 = 2400
        let (m, n) = (60, 4);
        let x = Mat::from_fn(m, n, |i, j| {
            let shift = if j == i % 3 { 3.0 } else { 0.0 };
            shift + ((i * 7 + j * 3) as f64 * 0.37).sin()
        });
        let y: Vec<usize> = (0..m).map(|i| i % 3).collect();
        let fit = |budget| {
            Srda::new(SrdaConfig {
                memory_budget_bytes: Some(budget),
                ..SrdaConfig::default()
            })
            .fit_dense(&x, &y)
        };
        assert!(fit(1000).is_ok(), "200-byte Gram under a 1000-byte budget");
        match fit(199) {
            Err(SrdaError::MemoryBudgetExceeded {
                needed_bytes: 200,
                budget_bytes: 199,
                context: "primal Gram matrix",
            }) => {}
            other => panic!("primal Gram over budget: {other:?}"),
        }
        // wide (8 × 40, blobs): the dual Gram is 8 · 8 words, and the
        // augmented copy it no longer builds would be 8 · 41 more
        let (xw, yw) = blobs();
        let wide = Mat::from_fn(8, 40, |i, j| xw[(i, j % xw.ncols())] + j as f64 * 0.01);
        let need = 8 * 8 * 8;
        let refused = Srda::new(SrdaConfig {
            memory_budget_bytes: Some(need - 1),
            ..SrdaConfig::default()
        })
        .fit_dense(&wide, &yw);
        match refused {
            Err(SrdaError::MemoryBudgetExceeded {
                needed_bytes,
                context: "dual Gram matrix",
                ..
            }) => assert_eq!(needed_bytes, need),
            other => panic!("dual fit over budget: {other:?}"),
        }
        let fits = Srda::new(SrdaConfig {
            memory_budget_bytes: Some(need),
            ..SrdaConfig::default()
        })
        .fit_dense(&wide, &yw);
        assert!(fits.is_ok(), "{:?}", fits.err());
    }

    #[test]
    fn memory_budget_enforced_sparse_dual() {
        let (x, y) = blobs();
        let xs = CsrMatrix::from_dense(&x, 0.0);
        let cfg = SrdaConfig {
            memory_budget_bytes: Some(16),
            ..SrdaConfig::default()
        };
        // the 8×8 dual Gram needs 512 bytes; a 16-byte budget declines it
        // and the fit recovers matrix-free, recording exactly why
        let model = Srda::new(cfg).fit_sparse(&xs, &y).unwrap();
        let rep = model.fit_report();
        assert!(!rep.clean());
        assert!(rep.recoveries.contains(&RecoveryAction::LsqrFallback));
        assert!(
            rep.warnings
                .iter()
                .any(|w| w.contains("512 bytes") && w.contains("16 bytes")),
            "decline warning must name needed vs budget bytes: {:?}",
            rep.warnings
        );
        assert!(rep
            .responses
            .iter()
            .all(|s| *s == ResponseSolver::LsqrFallback));
        // the recovered model must still separate the blobs
        let z = model.embedding().transform_dense(&x).unwrap();
        let (within, between) = class_compactness(&z, &y);
        assert!(
            between > 10.0 * within,
            "within {within}, between {between}"
        );
        // LSQR path needs no dense scratch, so the same budget is clean
        let cfg2 = SrdaConfig {
            memory_budget_bytes: Some(16),
            ..SrdaConfig::lsqr_default()
        };
        let m2 = Srda::new(cfg2).fit_sparse(&xs, &y).unwrap();
        assert!(m2.fit_report().clean());
    }

    #[test]
    fn threaded_exec_matches_serial_bitwise() {
        // the executor refactor's contract: any backend / thread count
        // produces bit-identical models
        let (x, y) = three_blobs();
        let xs = CsrMatrix::from_dense(&x, 0.0);
        for solver in [
            SrdaSolver::NormalEquations,
            SrdaSolver::Lsqr {
                max_iter: 60,
                tol: 0.0,
            },
        ] {
            let serial = SrdaConfig {
                solver,
                exec: ExecPolicy::serial(),
                ..SrdaConfig::default()
            };
            let threaded = SrdaConfig {
                solver,
                exec: ExecPolicy::threaded(4),
                ..SrdaConfig::default()
            };
            let md_s = Srda::new(serial.clone()).fit_dense(&x, &y).unwrap();
            let md_t = Srda::new(threaded.clone()).fit_dense(&x, &y).unwrap();
            assert!(md_s
                .embedding()
                .weights()
                .approx_eq(md_t.embedding().weights(), 0.0));
            assert_eq!(md_s.embedding().bias(), md_t.embedding().bias());
            let ms_s = Srda::new(serial).fit_sparse(&xs, &y).unwrap();
            let ms_t = Srda::new(threaded).fit_sparse(&xs, &y).unwrap();
            assert!(ms_s
                .embedding()
                .weights()
                .approx_eq(ms_t.embedding().weights(), 0.0));
        }
    }

    #[test]
    fn transform_unseen_data() {
        let (x, y) = blobs();
        let model = Srda::default_dense().fit_dense(&x, &y).unwrap();
        // points near each blob center map near the respective embeddings
        let test = Mat::from_rows(&[vec![0.02, 0.0, 0.02], vec![4.05, 4.0, 3.95]]).unwrap();
        let zt = model.embedding().transform_dense(&test).unwrap();
        let z = model.embedding().transform_dense(&x).unwrap();
        let d0 = (zt[(0, 0)] - z[(0, 0)]).abs();
        let d1 = (zt[(0, 0)] - z[(4, 0)]).abs();
        assert!(d0 < d1);
    }

    #[test]
    fn larger_alpha_shrinks_weights() {
        let (x, y) = three_blobs();
        let norm = |alpha: f64| {
            let m = Srda::new(SrdaConfig {
                alpha,
                ..SrdaConfig::default()
            })
            .fit_dense(&x, &y)
            .unwrap();
            m.embedding().weights().frobenius_norm()
        };
        assert!(norm(0.01) > norm(1.0));
        assert!(norm(1.0) > norm(100.0));
    }

    #[test]
    fn incremental_refit_matches_cold_fit() {
        let (x, y) = three_blobs();
        let xs = CsrMatrix::from_dense(&x, 0.0);
        // initial model on 4 of the 6 samples per class
        let head: Vec<usize> = (0..y.len()).filter(|i| i % 6 < 4).collect();
        let yh: Vec<usize> = head.iter().map(|&i| y[i]).collect();
        let prev = Srda::new(SrdaConfig::lsqr_default())
            .fit_sparse(&xs.select_rows(&head), &yh)
            .unwrap();
        // refit on everything, warm-started
        let srda = Srda::new(SrdaConfig::default());
        let warm = srda
            .fit_sparse_incremental(&xs, &y, &prev, 500, 1e-10)
            .unwrap();
        let cold = Srda::new(SrdaConfig {
            solver: SrdaSolver::Lsqr {
                max_iter: 500,
                tol: 1e-10,
            },
            ..SrdaConfig::default()
        })
        .fit_sparse(&xs, &y)
        .unwrap();
        let w1 = warm.embedding().weights();
        let w2 = cold.embedding().weights();
        assert!(
            w1.approx_eq(w2, 1e-5 * w2.max_abs().max(1.0)),
            "max diff {}",
            w1.sub(w2).unwrap().max_abs()
        );
    }

    #[test]
    fn incremental_refit_saves_iterations_on_small_updates() {
        let (x, y) = three_blobs();
        let xs = CsrMatrix::from_dense(&x, 0.0);
        // model on all but the last sample per class
        let head: Vec<usize> = (0..y.len()).filter(|i| i % 6 != 5).collect();
        let yh: Vec<usize> = head.iter().map(|&i| y[i]).collect();
        let prev = Srda::new(SrdaConfig {
            solver: SrdaSolver::Lsqr {
                max_iter: 400,
                tol: 1e-10,
            },
            ..SrdaConfig::default()
        })
        .fit_sparse(&xs.select_rows(&head), &yh)
        .unwrap();
        let srda = Srda::new(SrdaConfig::default());
        let warm = srda
            .fit_sparse_incremental(&xs, &y, &prev, 400, 1e-8)
            .unwrap();
        let cold = Srda::new(SrdaConfig {
            solver: SrdaSolver::Lsqr {
                max_iter: 400,
                tol: 1e-8,
            },
            ..SrdaConfig::default()
        })
        .fit_sparse(&xs, &y)
        .unwrap();
        assert!(
            warm.lsqr_iterations() <= cold.lsqr_iterations(),
            "warm {} vs cold {}",
            warm.lsqr_iterations(),
            cold.lsqr_iterations()
        );
    }

    #[test]
    fn incremental_refit_runs_the_traced_response_loop_and_writes_no_checkpoint() {
        let (x, y) = three_blobs();
        let xs = CsrMatrix::from_dense(&x, 0.0);
        let prev = Srda::new(SrdaConfig::lsqr_default())
            .fit_sparse(&xs, &y)
            .unwrap();
        let plain = Srda::new(SrdaConfig::default())
            .fit_sparse_incremental(&xs, &y, &prev, 50, 1e-10)
            .unwrap();
        let dir = scratch("warm");
        let rec = Recorder::new_enabled();
        let warm = Srda::new(SrdaConfig {
            checkpoint: Some(CheckpointPolicy {
                dir: dir.clone(),
                every: 1,
            }),
            recorder: rec,
            ..SrdaConfig::default()
        })
        .fit_sparse_incremental(&xs, &y, &prev, 50, 1e-10)
        .unwrap();
        // a warm start is not resumable: the policy only earns a warning
        assert!(warm
            .fit_report()
            .warnings
            .iter()
            .any(|w| w.contains("checkpointing")));
        assert!(!dir.join(FIT_CHECKPOINT_FILE).exists());
        assert_eq!(
            bits(plain.embedding().weights()),
            bits(warm.embedding().weights())
        );
        let report = rec.snapshot();
        assert!(report.spans.iter().all(|s| s.path.starts_with("fit")));
        assert!(report.spans.iter().any(|s| s.path == "fit/lsqr/panel[1]"));
        let labels: Vec<&str> = report.traces.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels, ["fit/response[0]/lsqr", "fit/response[1]/lsqr"]);
        assert_eq!(warm.fit_report().certificates.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_refit_validates_compatibility() {
        let (x, y) = three_blobs();
        let xs = CsrMatrix::from_dense(&x, 0.0);
        let prev = Srda::new(SrdaConfig::lsqr_default())
            .fit_sparse(&xs, &y)
            .unwrap();
        let srda = Srda::new(SrdaConfig::default());
        // wrong feature count
        let bad = CsrMatrix::zeros(6, 2);
        assert!(srda
            .fit_sparse_incremental(&bad, &[0, 0, 1, 1, 2, 2], &prev, 10, 0.0)
            .is_err());
        // changed class count
        let y2: Vec<usize> = y.iter().map(|&k| k.min(1)).collect();
        assert!(srda
            .fit_sparse_incremental(&xs, &y2, &prev, 10, 0.0)
            .is_err());
    }

    #[test]
    fn fit_operator_matches_fit_sparse() {
        let (x, y) = three_blobs();
        let xs = CsrMatrix::from_dense(&x, 0.0);
        let cfg = SrdaConfig {
            solver: SrdaSolver::Lsqr {
                max_iter: 80,
                tol: 0.0,
            },
            ..SrdaConfig::default()
        };
        let direct = Srda::new(cfg.clone()).fit_sparse(&xs, &y).unwrap();
        let via_op = Srda::new(cfg).fit_operator(&xs, &y).unwrap();
        assert!(direct
            .embedding()
            .weights()
            .approx_eq(via_op.embedding().weights(), 0.0));
    }

    #[test]
    fn fit_operator_rejects_direct_solver() {
        let (x, y) = three_blobs();
        let xs = CsrMatrix::from_dense(&x, 0.0);
        assert!(Srda::new(SrdaConfig::default())
            .fit_operator(&xs, &y)
            .is_err());
    }

    #[test]
    fn out_of_core_fit_through_disk_operator() {
        // the paper's "reasonable disk I/O" claim, end to end
        let (x, y) = three_blobs();
        let xs = CsrMatrix::from_dense(&x, 0.0);
        let dir = std::env::temp_dir().join("srda_out_of_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.srdacsr");
        srda_sparse::disk::write_csr(&path, &xs).unwrap();
        let disk = srda_sparse::DiskCsr::open(&path).unwrap();

        let cfg = SrdaConfig {
            solver: SrdaSolver::Lsqr {
                max_iter: 80,
                tol: 0.0,
            },
            ..SrdaConfig::default()
        };
        let from_disk = Srda::new(cfg.clone()).fit_operator(&disk, &y).unwrap();
        let in_memory = Srda::new(cfg).fit_sparse(&xs, &y).unwrap();
        assert!(from_disk
            .embedding()
            .weights()
            .approx_eq(in_memory.embedding().weights(), 1e-12));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[allow(deprecated)]
    fn parallel_responses_match_sequential() {
        let (x, y) = three_blobs();
        let seq = Srda::new(SrdaConfig {
            solver: SrdaSolver::Lsqr {
                max_iter: 50,
                tol: 0.0,
            },
            parallel_responses: false,
            ..SrdaConfig::default()
        })
        .fit_dense(&x, &y)
        .unwrap();
        let par = Srda::new(SrdaConfig {
            solver: SrdaSolver::Lsqr {
                max_iter: 50,
                tol: 0.0,
            },
            parallel_responses: true,
            ..SrdaConfig::default()
        })
        .fit_dense(&x, &y)
        .unwrap();
        // the deprecated flag is ignored: the same lockstep fit, bit for bit
        assert!(seq
            .embedding()
            .weights()
            .approx_eq(par.embedding().weights(), 0.0));
        assert_eq!(seq.lsqr_iterations(), par.lsqr_iterations());
    }

    /// An operator of a given shape that only answers
    /// [`panel_width`]'s questions.
    struct Shape {
        m: usize,
        cols: usize,
        shared: bool,
    }

    impl LinearOperator for Shape {
        fn nrows(&self) -> usize {
            self.m
        }
        fn ncols(&self) -> usize {
            self.cols
        }
        fn apply_into(&self, _: &[f64], _: &mut [f64]) {
            unreachable!("a shape has no products")
        }
        fn apply_t_into(&self, _: &[f64], _: &mut [f64]) {
            unreachable!("a shape has no products")
        }
        fn shares_block_passes(&self) -> bool {
            self.shared
        }
    }

    #[test]
    fn panel_width_keeps_the_lockstep_state_within_the_weight_matrix() {
        let width = |m, cols, k| {
            panel_width(
                &Shape {
                    m,
                    cols,
                    shared: true,
                },
                k,
            )
        };
        let widths = |cols: Range<usize>, p| {
            lsqr_panels(cols, p)
                .iter()
                .map(|r| r.len())
                .collect::<Vec<_>>()
        };
        // the 20NG disk workload: 5500 × (26214 + 1), 19 responses
        assert_eq!(width(5500, 26215, 19), 5);
        assert_eq!(widths(0..19, 5), vec![5, 5, 5, 4]);
        // a PIE-shaped LSQR fit, taller than wide: 1496 × 1025, 67
        // responses; the state is 11 · (3·1025 + 2·1496) = 66,737 doubles
        // against a 68,675-double weight matrix
        assert_eq!(width(1496, 1025, 67), 11);
        assert_eq!(widths(0..67, 11), vec![10, 10, 10, 10, 9, 9, 9]);
        // a tall corpus: the u and A·v blocks alone outgrow the weights
        assert_eq!(width(1_000_000, 26215, 19), 1);
        // no panels through an operator whose blocks are per column
        let dense = Shape {
            m: 10,
            cols: 10_000,
            shared: false,
        };
        assert_eq!(panel_width(&dense, 19), 1);
        for m in [0, 1, 7, 100, 1496, 5500, 1_000_000] {
            for cols in [1, 2, 50, 1025, 26215] {
                for k in 1..40 {
                    let p = width(m, cols, k);
                    let state = |p: usize| (3 * cols + 2 * m) * p;
                    assert!(p == 1 || state(p) <= cols * k, "{m} × {cols}, k = {k}");
                    assert!(state(p + 1) > cols * k, "{m} × {cols}, k = {k}: not widest");
                    assert!(k > 5 || p == 1);
                }
            }
        }
        assert!(lsqr_panels(3..3, 2).is_empty());
        for (cols, p) in [(0..19, 5), (5..19, 5), (0..7, 2), (2..7, 2), (4..200, 9)] {
            let panels = lsqr_panels(cols.clone(), p);
            assert_eq!(panels.first().unwrap().start, cols.start);
            assert_eq!(panels.last().unwrap().end, cols.end);
            assert!(panels.windows(2).all(|w| w[0].end == w[1].start));
            assert!(panels.windows(2).all(|w| w[0].len() >= w[1].len()));
            assert!(panels
                .iter()
                .all(|r| r.len() <= p && r.len() + 1 >= panels[0].len()));
        }
    }

    /// A dense matrix that claims shared block passes, so a unit test
    /// runs lockstep panels without a file. Its block products are the
    /// per-column defaults: bitwise what a native block product gives.
    struct Panelled<'a>(&'a Mat);

    impl LinearOperator for Panelled<'_> {
        fn nrows(&self) -> usize {
            self.0.nrows()
        }
        fn ncols(&self) -> usize {
            self.0.ncols()
        }
        fn apply_into(&self, x: &[f64], y: &mut [f64]) {
            LinearOperator::apply_into(self.0, x, y)
        }
        fn apply_t_into(&self, x: &[f64], y: &mut [f64]) {
            LinearOperator::apply_t_into(self.0, x, y)
        }
        fn shares_block_passes(&self) -> bool {
            true
        }
    }

    /// Eight classes of two samples in 80-D: 7 responses. Wide enough
    /// (81 ≥ 4 · 16) for panels of 2, 2, 2, 1 through [`Panelled`].
    fn eight_wide() -> (Mat, Vec<usize>) {
        let x = Mat::from_fn(16, 80, |i, d| {
            let h = ((i * 13 + d * 7) as f64 * 12.9898).sin() * 43758.5453;
            ((i / 2 + d) % 4) as f64 + (h - h.floor() - 0.5) * 0.5
        });
        (x, (0..16).map(|i| i / 2).collect())
    }

    #[test]
    fn lockstep_fit_records_panel_spans_and_operator_passes() {
        let (x, y) = eight_wide();
        let fit = |panelled: bool| {
            let rec = Recorder::new_enabled();
            let srda = Srda::new(SrdaConfig {
                solver: SrdaSolver::Lsqr {
                    max_iter: 12,
                    tol: 0.0,
                },
                recorder: rec,
                ..SrdaConfig::default()
            });
            let model = if panelled {
                srda.fit_operator(&Panelled(&x), &y)
            } else {
                srda.fit_dense(&x, &y)
            };
            (model.unwrap(), rec.snapshot())
        };
        // panels of 2, 2, 2, 1 where the passes are shared; one response
        // per panel through the in-memory matrix
        for (panelled, widths) in [(true, vec![2, 2, 2, 1]), (false, vec![1; 7])] {
            let (model, report) = fit(panelled);
            // per panel: one start-up product, two per iteration, three
            // to certify
            assert_eq!(
                report.counters["lsqr.operator_passes"],
                widths.len() as u64 * (1 + 2 * 12 + 3)
            );
            for i in 0..widths.len() {
                for child in ["", "/apply", "/apply_t", "/certify"] {
                    let path = format!("fit/lsqr/panel[{i}]{child}");
                    assert!(report.spans.iter().any(|s| s.path == path), "{path}");
                }
            }
            let past = format!("fit/lsqr/panel[{}]", widths.len());
            assert!(!report.spans.iter().any(|s| s.path == past), "{past}");
            let labels: Vec<&str> = report.traces.iter().map(|t| t.label.as_str()).collect();
            let want: Vec<String> = (0..7).map(|j| format!("fit/response[{j}]/lsqr")).collect();
            assert_eq!(labels, want);
            assert!(report.traces.iter().all(|t| t.iterations.len() == 12));
            assert_eq!(model.lsqr_iterations(), 7 * 12);
        }
        // the same model either way, bit for bit
        let (a, _) = fit(true);
        let (b, _) = fit(false);
        assert_eq!(bits(a.embedding().weights()), bits(b.embedding().weights()));
        assert_eq!(a.embedding().bias(), b.embedding().bias());
    }

    #[test]
    fn paper_config_constructors() {
        let c = SrdaConfig::lsqr_default();
        assert_eq!(c.alpha, 1.0);
        assert!(matches!(c.solver, SrdaSolver::Lsqr { max_iter: 15, .. }));
    }

    #[test]
    fn clean_fits_report_clean() {
        let (x, y) = three_blobs();
        let direct = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
        let rep = direct.fit_report();
        assert!(rep.clean());
        assert_eq!(rep.responses.len(), 2);
        assert!(rep.responses.iter().all(|s| *s == ResponseSolver::Direct));
        assert!(rep.condition_estimate.unwrap() >= 1.0);

        let iterative = Srda::new(SrdaConfig::lsqr_default())
            .fit_dense(&x, &y)
            .unwrap();
        let rep = iterative.fit_report();
        assert!(rep.clean());
        assert!(rep.condition_estimate.is_none());
        assert!(rep
            .responses
            .iter()
            .all(|s| matches!(s, ResponseSolver::Lsqr { iterations, .. } if *iterations > 0)));
    }

    #[test]
    fn rank_deficient_dense_fit_recovers_with_warning() {
        // an all-zero feature with α = 0 makes the augmented Gram matrix
        // singular — this fit used to return Err(NotPositiveDefinite);
        // the fallback chain must now produce a usable model plus a
        // recorded warning
        let (x, y) = blobs();
        let x_bad = x.hcat(&Mat::zeros(8, 1)).unwrap();
        let cfg = SrdaConfig {
            alpha: 0.0,
            ..SrdaConfig::default()
        };
        let model = Srda::new(cfg).fit_dense(&x_bad, &y).unwrap();
        let rep = model.fit_report();
        assert!(!rep.clean());
        assert!(!rep.warnings.is_empty());
        assert!(!rep.recoveries.is_empty());
        assert!(rep.responses.iter().all(|s| *s != ResponseSolver::Direct));
        let w = model.embedding().weights();
        assert!(w.as_slice().iter().all(|v| v.is_finite()));
        // the recovered model still separates the classes
        let z = model.embedding().transform_dense(&x_bad).unwrap();
        let (within, between) = class_compactness(&z, &y);
        assert!(
            between > 10.0 * within,
            "within {within}, between {between}"
        );
    }

    #[test]
    fn fit_rejects_non_finite_labels_data() {
        // a NaN row in the data must surface as an error from the LSQR
        // path, never as a NaN-filled model
        let (mut x, y) = blobs();
        x[(3, 1)] = f64::NAN;
        let err = Srda::new(SrdaConfig::lsqr_default()).fit_dense(&x, &y);
        assert!(matches!(err, Err(SrdaError::Linalg(_))), "{err:?}");
    }

    // ---- run governor / checkpoint / resume -------------------------

    use srda_solvers::{CancelToken, RunBudget};

    /// Fresh scratch directory for a checkpoint test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srda-gov-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn governed_lsqr_interrupt_then_resume_is_bitwise_identical() {
        let (x, y) = three_blobs(); // 3 classes → 2 responses × 15 iters
        let baseline = Srda::new(SrdaConfig::lsqr_default())
            .fit_dense(&x, &y)
            .unwrap();

        let dir = scratch("mid");
        // interrupt mid-way through the FIRST response
        let cfg = SrdaConfig {
            governor: Some(RunGovernor::with_budget(RunBudget::with_iter_cap(7))),
            checkpoint: Some(CheckpointPolicy {
                dir: dir.clone(),
                every: 0,
            }),
            ..SrdaConfig::lsqr_default()
        };
        let outcome = Srda::new(cfg).fit_dense_outcome(&x, &y).unwrap();
        let interrupted = match outcome {
            FitOutcome::Interrupted(i) => i,
            FitOutcome::Complete(_) => panic!("iter cap 7 must interrupt a 30-iteration fit"),
        };
        assert_eq!(interrupted.reason, Interrupt::IterBudgetExhausted);
        assert_eq!(interrupted.responses_completed, 0);
        assert_eq!(interrupted.total_responses, 2);
        assert!(interrupted.report.interrupt.is_some());
        let ckpt = interrupted.checkpoint.expect("checkpoint must be written");
        assert!(ckpt.exists());

        // resume with the SAME data/config → bitwise-identical model
        let resumed = Srda::new(SrdaConfig {
            resume_from: Some(ckpt.clone()),
            ..SrdaConfig::lsqr_default()
        })
        .fit_dense(&x, &y)
        .unwrap();
        assert_eq!(
            bits(baseline.embedding().weights()),
            bits(resumed.embedding().weights()),
            "resumed trajectory must match the uninterrupted one bit for bit"
        );
        assert_eq!(baseline.embedding().bias(), resumed.embedding().bias());
        assert_eq!(baseline.lsqr_iterations(), resumed.lsqr_iterations());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupt_between_responses_resumes_bitwise() {
        let (x, y) = three_blobs();
        let baseline = Srda::new(SrdaConfig::lsqr_default())
            .fit_dense(&x, &y)
            .unwrap();

        // tol = 0 → the first response consumes exactly 15 iterations, so
        // a cap of 15 fires at the very first tick of response 2
        let dir = scratch("between");
        let cfg = SrdaConfig {
            governor: Some(RunGovernor::with_budget(RunBudget::with_iter_cap(15))),
            checkpoint: Some(CheckpointPolicy {
                dir: dir.clone(),
                every: 0,
            }),
            ..SrdaConfig::lsqr_default()
        };
        let outcome = Srda::new(cfg).fit_dense_outcome(&x, &y).unwrap();
        let interrupted = match outcome {
            FitOutcome::Interrupted(i) => i,
            FitOutcome::Complete(_) => panic!("cap 15 must stop before response 2"),
        };
        assert_eq!(interrupted.responses_completed, 1);
        let ckpt = interrupted.checkpoint.unwrap();

        let resumed = Srda::new(SrdaConfig {
            resume_from: Some(ckpt),
            ..SrdaConfig::lsqr_default()
        })
        .fit_dense(&x, &y)
        .unwrap();
        assert_eq!(
            bits(baseline.embedding().weights()),
            bits(resumed.embedding().weights())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_checkpoints_are_removed_after_a_completed_fit() {
        let (x, y) = three_blobs();
        let dir = scratch("cleanup");
        let cfg = SrdaConfig {
            checkpoint: Some(CheckpointPolicy {
                dir: dir.clone(),
                every: 3,
            }),
            ..SrdaConfig::lsqr_default()
        };
        let model = Srda::new(cfg).fit_dense(&x, &y).unwrap();
        assert!(model.fit_report().interrupt.is_none());
        assert!(
            !dir.join(FIT_CHECKPOINT_FILE).exists(),
            "a completed fit must not leave a stale checkpoint behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Interrupt the eight-class fit (through [`Panelled`] or the dense
    /// matrix) at `cap` column-iterations and return its checkpoint.
    fn eight_wide_checkpoint(panelled: bool, cap: usize, tag: &str) -> (PathBuf, PathBuf) {
        let (x, y) = eight_wide();
        let dir = scratch(tag);
        let srda = Srda::new(SrdaConfig {
            governor: Some(RunGovernor::with_budget(RunBudget::with_iter_cap(cap))),
            checkpoint: Some(CheckpointPolicy {
                dir: dir.clone(),
                every: 0,
            }),
            ..SrdaConfig::lsqr_default()
        });
        let outcome = if panelled {
            srda.fit_operator_outcome(&Panelled(&x), &y)
        } else {
            srda.fit_dense_outcome(&x, &y)
        };
        match outcome.unwrap() {
            FitOutcome::Interrupted(i) => (i.checkpoint.unwrap(), dir),
            FitOutcome::Complete(_) => panic!("{cap} of 105 iterations must interrupt"),
        }
    }

    #[test]
    fn resume_rejects_a_checkpoint_that_does_not_fit_the_responses() {
        let (x, y) = eight_wide();
        // cap 20 lands in panel 0 after 10 iterations of both columns
        let (path, dir) = eight_wide_checkpoint(true, 20, "layout");
        let good = FitCheckpoint::read(&path).unwrap();
        assert!(good.completed.is_empty());
        assert_eq!(good.panel.len(), 2);
        let done = CompletedResponse {
            x: vec![0.0; 81],
            iterations: 15,
            stop: StopReason::MaxIterations,
            residual_norm: 1.0,
        };
        // the running states now sit on responses 1 and 2
        let mut shifted = good.clone();
        shifted.completed.push(done.clone());
        let mut too_many = good.clone();
        too_many.completed = vec![done; 6];
        let mut wrong_rhs = good.clone();
        wrong_rhs.panel.swap(0, 1);
        let mut narrow_iterate = good;
        narrow_iterate.completed.push(CompletedResponse {
            x: vec![0.0; 80],
            iterations: 15,
            stop: StopReason::MaxIterations,
            residual_norm: 1.0,
        });
        narrow_iterate.panel.clear();
        for bad in [shifted, too_many, wrong_rhs, narrow_iterate] {
            bad.write_atomic(&path).unwrap();
            let err = Srda::new(SrdaConfig {
                resume_from: Some(path.clone()),
                ..SrdaConfig::lsqr_default()
            })
            .fit_operator(&Panelled(&x), &y);
            assert!(matches!(err, Err(SrdaError::Checkpoint(_))), "{err:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_continues_a_checkpoint_written_with_other_panel_widths() {
        let (x, y) = eight_wide();
        let baseline = Srda::new(SrdaConfig::lsqr_default())
            .fit_dense(&x, &y)
            .unwrap();
        // caps 35 and 50 stop mid-panel in both layouts: panels of two
        // stop columns 2 and 3 together, one at a time stops column 2
        // (35) or 3 (50) with the columns before it done
        for (written_panelled, cap) in [(true, 50), (false, 35), (true, 35), (false, 50)] {
            let tag = format!("relayout-{written_panelled}-{cap}");
            let (path, dir) = eight_wide_checkpoint(written_panelled, cap, &tag);
            let srda = Srda::new(SrdaConfig {
                resume_from: Some(path),
                ..SrdaConfig::lsqr_default()
            });
            // resume through the other layout
            let resumed = if written_panelled {
                srda.fit_dense(&x, &y)
            } else {
                srda.fit_operator(&Panelled(&x), &y)
            }
            .unwrap();
            assert_eq!(
                bits(baseline.embedding().weights()),
                bits(resumed.embedding().weights()),
                "{tag}"
            );
            assert_eq!(baseline.embedding().bias(), resumed.embedding().bias());
            assert_eq!(baseline.lsqr_iterations(), resumed.lsqr_iterations());
            let cert_bits = |m: &SrdaModel| -> Vec<u64> {
                m.fit_report()
                    .certificates
                    .iter()
                    .map(|c| c.backward_error.to_bits())
                    .collect()
            };
            assert_eq!(cert_bits(&baseline), cert_bits(&resumed), "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn lsqr_interrupt_without_checkpoint_policy_has_no_checkpoint() {
        let (x, y) = three_blobs();
        let cfg = SrdaConfig {
            governor: Some(RunGovernor::with_budget(RunBudget::with_iter_cap(3))),
            ..SrdaConfig::lsqr_default()
        };
        match Srda::new(cfg).fit_dense_outcome(&x, &y).unwrap() {
            FitOutcome::Interrupted(i) => {
                assert_eq!(i.reason, Interrupt::IterBudgetExhausted);
                assert!(i.checkpoint.is_none(), "no CheckpointPolicy, no checkpoint");
                assert_eq!(i.responses_completed, 0);
            }
            FitOutcome::Complete(_) => panic!("3 iterations cannot finish 2×15"),
        }
    }

    #[test]
    fn resume_against_different_data_is_a_typed_checkpoint_error() {
        let (x, y) = three_blobs();
        let dir = scratch("mismatch");
        let cfg = SrdaConfig {
            governor: Some(RunGovernor::with_budget(RunBudget::with_iter_cap(5))),
            checkpoint: Some(CheckpointPolicy {
                dir: dir.clone(),
                every: 0,
            }),
            ..SrdaConfig::lsqr_default()
        };
        let outcome = Srda::new(cfg).fit_dense_outcome(&x, &y).unwrap();
        let ckpt = match outcome {
            FitOutcome::Interrupted(i) => i.checkpoint.unwrap(),
            FitOutcome::Complete(_) => panic!("must interrupt"),
        };

        // different data (blobs: 2 classes, 3 features) → fingerprint mismatch
        let (x2, y2) = blobs();
        let err = Srda::new(SrdaConfig {
            resume_from: Some(ckpt.clone()),
            ..SrdaConfig::lsqr_default()
        })
        .fit_dense(&x2, &y2);
        assert!(matches!(err, Err(SrdaError::Checkpoint(_))), "{err:?}");

        // same data, different alpha → also a mismatch
        let err = Srda::new(SrdaConfig {
            alpha: 2.0,
            resume_from: Some(ckpt),
            ..SrdaConfig::lsqr_default()
        })
        .fit_dense(&x, &y);
        assert!(matches!(err, Err(SrdaError::Checkpoint(_))), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn normal_equations_fit_honors_the_governor() {
        let (x, y) = blobs();
        let exhausted = RunGovernor::with_budget(RunBudget::with_iter_cap(0));
        let cfg = SrdaConfig {
            governor: Some(exhausted.clone()),
            ..SrdaConfig::default()
        };
        match Srda::new(cfg.clone()).fit_dense_outcome(&x, &y).unwrap() {
            FitOutcome::Interrupted(i) => {
                assert_eq!(i.reason, Interrupt::IterBudgetExhausted);
                assert!(i.checkpoint.is_none());
            }
            FitOutcome::Complete(_) => panic!("zero budget must interrupt a direct fit"),
        }
        // the plain entry point surfaces the same state as a typed error
        let err = Srda::new(cfg).fit_dense(&x, &y);
        assert!(matches!(err, Err(SrdaError::Interrupted { .. })), "{err:?}");

        // sparse direct path too
        let xs = CsrMatrix::from_dense(&x, 0.0);
        let cfg = SrdaConfig {
            governor: Some(RunGovernor::with_budget(RunBudget::with_iter_cap(0))),
            ..SrdaConfig::default()
        };
        let err = Srda::new(cfg).fit_sparse(&xs, &y);
        assert!(matches!(err, Err(SrdaError::Interrupted { .. })), "{err:?}");
    }

    #[test]
    fn cancellation_stops_a_governed_fit() {
        let (x, y) = three_blobs();
        let token = CancelToken::new();
        let governor = RunGovernor::new(RunBudget::unbounded(), token.clone());
        token.cancel();
        let cfg = SrdaConfig {
            governor: Some(governor),
            ..SrdaConfig::lsqr_default()
        };
        match Srda::new(cfg).fit_dense_outcome(&x, &y).unwrap() {
            FitOutcome::Interrupted(i) => assert_eq!(i.reason, Interrupt::Cancelled),
            FitOutcome::Complete(_) => panic!("cancelled token must interrupt"),
        }
    }

    #[test]
    fn checkpoint_policy_with_direct_solver_warns_and_completes() {
        let (x, y) = blobs();
        let dir = scratch("direct");
        let cfg = SrdaConfig {
            checkpoint: Some(CheckpointPolicy {
                dir: dir.clone(),
                every: 1,
            }),
            ..SrdaConfig::default()
        };
        let model = Srda::new(cfg).fit_dense(&x, &y).unwrap();
        assert!(model
            .fit_report()
            .warnings
            .iter()
            .any(|w| w.contains("checkpointing")));
        assert!(!dir.join(FIT_CHECKPOINT_FILE).exists());
        // resume is an LSQR-only feature: asking a direct fit to resume
        // is a configuration error, not a silent cold start
        let err = Srda::new(SrdaConfig {
            resume_from: Some(dir.join(FIT_CHECKPOINT_FILE)),
            ..SrdaConfig::default()
        })
        .fit_dense(&x, &y);
        assert!(matches!(err, Err(SrdaError::Checkpoint(_))), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn governed_fit_that_finishes_matches_ungoverned_bitwise() {
        let (x, y) = three_blobs();
        for cfg in [SrdaConfig::lsqr_default(), SrdaConfig::default()] {
            let plain = Srda::new(cfg.clone()).fit_dense(&x, &y).unwrap();
            let governed = Srda::new(SrdaConfig {
                governor: Some(RunGovernor::with_budget(RunBudget::with_iter_cap(10_000))),
                ..cfg
            })
            .fit_dense(&x, &y)
            .unwrap();
            assert_eq!(
                bits(plain.embedding().weights()),
                bits(governed.embedding().weights()),
                "governance must only observe, never perturb the trajectory"
            );
            assert!(governed.fit_report().clean());
        }
    }
}
