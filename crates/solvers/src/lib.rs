//! # srda-solvers
//!
//! Regularized least-squares machinery for the SRDA reproduction.
//!
//! SRDA reduces LDA to `c − 1` ridge-regression problems
//! `min ‖Xᵀa − ȳ‖² + α‖a‖²` (paper Eqn 14/19). This crate provides every
//! way the paper solves them:
//!
//! * [`operator::LinearOperator`] — the minimal matrix-free interface
//!   (`A·v` and `Aᵀ·v`) that iterative solvers need. Implemented for dense
//!   [`srda_linalg::Mat`], sparse [`srda_sparse::CsrMatrix`], and two
//!   wrappers: [`operator::AugmentedOp`] (appends the implicit bias column
//!   of the paper's §III.B trick without copying the data) and
//!   [`operator::CenteredOp`] (applies `X − 1μᵀ` implicitly, never
//!   densifying a sparse matrix).
//! * [`lsqr`](mod@lsqr) — the LSQR algorithm of Paige & Saunders (ACM TOMS 1982)
//!   with damping `√α`, the paper's linear-time engine (§III.C.2).
//! * [`ridge`] — direct solvers: primal normal equations
//!   `(XᵀX + αI)a = Xᵀȳ` via Cholesky, and the dual form
//!   `(XXᵀ + αI)u = ȳ, a = Xᵀu` (paper Eqn 21) that is cheaper when
//!   `n > m`. [`RidgeSystem`] is SRDA's bias-augmented problem, dense or
//!   sparse, with its recovery ladder: on `Singular`/non-finite breakdown
//!   *or a failed solution certificate* it retries with bounded
//!   escalating diagonal jitter, reporting every recovery step it took,
//!   before the caller falls back to damped LSQR.
//! * [`certificate`] — machine-checkable [`SolveCertificate`]s: a
//!   backward error × condition estimate forward-error bound for direct
//!   solves (with iterative refinement as the repair step) and a
//!   post-hoc normal-equation-residual certificate for matrix-free
//!   solves.
//! * [`governor`] — wall-clock/iteration budgets and cooperative
//!   cancellation ([`RunGovernor`]/[`CancelToken`]), checked inside every
//!   iterative loop and before every expensive factorization attempt.
//! * [`checkpoint`] — CRC-guarded, atomically-written solver state
//!   ([`LsqrCheckpoint`]) that resumes an interrupted solve to a
//!   bitwise-identical trajectory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
pub mod checkpoint;
pub mod governor;
pub mod lsqr;
pub mod operator;
pub mod ridge;

pub use certificate::{
    certify_operator, certify_operator_block, certify_spd_solve, certify_spd_solves,
    worst_backward_error, CertStatus, SolveCertificate, CERTIFY_BOUND, CERTIFY_RESIDUAL,
};
pub use checkpoint::{CheckpointError, LsqrCheckpoint, ProblemFingerprint};
pub use governor::{CancelToken, Interrupt, RunBudget, RunGovernor};
pub use lsqr::{
    lsqr, lsqr_controlled, lsqr_panel, CompletedResponse, LsqrConfig, LsqrResult, PanelColumn,
    PanelControls, PanelResult, SolveControls, StopReason,
};
pub use operator::{AugmentedOp, CenteredOp, ExecCsr, ExecDense, LinearOperator};
pub use ridge::{
    factor_ladder_governed, DirectSolve, LadderOutcome, RecoveryAction, RidgeForm, RidgeSolver,
    RidgeSystem,
};
