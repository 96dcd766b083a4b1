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
//! * [`lsqr`] — the LSQR algorithm of Paige & Saunders (ACM TOMS 1982)
//!   with damping `√α`, the paper's linear-time engine (§III.C.2).
//! * [`cgls`] — conjugate-gradient on the regularized normal equations,
//!   a second iterative engine used for cross-checks and ablations.
//! * [`ridge`] — direct solvers: primal normal equations
//!   `(XᵀX + αI)a = Xᵀȳ` via Cholesky, and the dual form
//!   `(XXᵀ + αI)u = ȳ, a = Xᵀu` (paper Eqn 21) that is cheaper when
//!   `n > m`. An `auto` entry point picks the smaller system.
//! * [`robust`] — a fault-tolerant wrapper around the direct solvers:
//!   on `Singular`/non-finite breakdown *or a failed solution
//!   certificate* it retries with bounded escalating diagonal jitter and
//!   finally falls back to damped LSQR, reporting every recovery step it
//!   took.
//! * [`certificate`] — machine-checkable [`SolveCertificate`]s: a
//!   backward error × condition estimate forward-error bound for direct
//!   solves (with iterative refinement as the repair step) and a
//!   post-hoc normal-equation-residual certificate for matrix-free
//!   solves.
//! * [`governor`] — wall-clock/iteration budgets and cooperative
//!   cancellation ([`RunGovernor`]/[`CancelToken`]), checked inside every
//!   iterative loop and before every expensive factorization attempt.
//! * [`checkpoint`] — CRC-guarded, atomically-written solver state
//!   ([`LsqrCheckpoint`]/`CglsCheckpoint`) that resumes an interrupted
//!   solve to a bitwise-identical trajectory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
pub mod cgls;
pub mod checkpoint;
pub mod governor;
pub mod lsqr;
pub mod operator;
pub mod ridge;
pub mod robust;

pub use certificate::{
    certify_operator, certify_operator_block, certify_spd_solve, certify_spd_solves,
    worst_backward_error, CertStatus, SolveCertificate, CERTIFY_BOUND, CERTIFY_RESIDUAL,
};
pub use checkpoint::{CglsCheckpoint, CheckpointError, LsqrCheckpoint, ProblemFingerprint};
pub use governor::{CancelToken, Interrupt, RunBudget, RunGovernor};
pub use lsqr::{
    lsqr, lsqr_controlled, lsqr_panel, lsqr_warm, lsqr_warm_governed, CompletedResponse,
    LsqrConfig, LsqrResult, PanelColumn, PanelControls, PanelResult, SolveControls, StopReason,
};
pub use operator::{AugmentedOp, CenteredOp, ExecCsr, ExecDense, LinearOperator};
pub use ridge::{RidgeForm, RidgeSolver};
pub use robust::{
    factor_ladder, factor_ladder_governed, LadderOutcome, RecoveryAction, RobustConfig,
    RobustOutcome, RobustRidge, RobustSolveReport, SolverUsed,
};
