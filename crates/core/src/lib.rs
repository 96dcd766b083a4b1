//! # srda — Spectral Regression Discriminant Analysis
//!
//! A from-scratch Rust reproduction of
//!
//! > Deng Cai, Xiaofei He, Jiawei Han.
//! > *Training Linear Discriminant Analysis in Linear Time.* ICDE 2008.
//!
//! ## What this crate provides
//!
//! * [`Srda`] — the paper's contribution. LDA recast as `c − 1` regularized
//!   least-squares problems via spectral graph analysis (Theorem 1), with
//!   three interchangeable solvers: direct normal equations (Eqn 20), the
//!   dual normal equations for `n > m` (Eqn 21), and LSQR for linear-time
//!   training on large sparse data (§III.C.2). Dense
//!   ([`srda_linalg::Mat`]) and sparse ([`srda_sparse::CsrMatrix`]) inputs
//!   are both first-class.
//! * [`Lda`] — classical LDA solved exactly as the paper's §II-A: SVD of
//!   the centered data by the cross-product trick, then a `c × c`
//!   eigenproblem.
//! * [`Rlda`] — regularized LDA: the generalized problem
//!   `S_b a = λ (S_t + αI) a` solved in the SVD basis.
//! * [`IdrQr`] — the IDR/QR baseline (Ye, Li, Xiong, Park, Janardan,
//!   Kumar; KDD 2004): QR of the class-centroid matrix, then a reduced
//!   `c × c` discriminant problem.
//! * [`Embedding`] — the common output: an affine map `x ↦ Wᵀx + b` into
//!   the (at most `c − 1`)-dimensional discriminant subspace.
//!
//! ## Quick start
//!
//! ```
//! use srda::{Srda, SrdaConfig};
//! use srda_linalg::Mat;
//!
//! // 6 samples, 2 features, 2 classes
//! let x = Mat::from_rows(&[
//!     vec![0.0, 0.1], vec![0.1, 0.0], vec![-0.1, 0.0],
//!     vec![5.0, 5.1], vec![5.1, 5.0], vec![4.9, 5.0],
//! ]).unwrap();
//! let y = vec![0, 0, 0, 1, 1, 1];
//!
//! let model = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
//! let z = model.embedding().transform_dense(&x).unwrap();
//! assert_eq!(z.shape(), (6, 1)); // c − 1 = 1 discriminant direction
//! // same-class samples embed close together, different classes far apart
//! assert!((z[(0, 0)] - z[(1, 0)]).abs() < (z[(0, 0)] - z[(3, 0)]).abs());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// index-based loops are the clearest way to write the numeric kernels here
#![allow(clippy::needless_range_loop)]

pub mod checkpoint;
pub mod error;
pub mod idr_qr;
pub mod labels;
pub mod lda;
pub mod model;
pub mod report;
pub mod responses;
pub mod rlda;
pub mod srda;

pub use checkpoint::{
    CompletedResponse, FitCheckpoint, FitFingerprint, PanelColumn, FIT_CHECKPOINT_FILE,
};
pub use error::SrdaError;
pub use idr_qr::{IdrQr, IdrQrConfig};
pub use labels::ClassIndex;
pub use lda::{Lda, LdaConfig};
pub use model::Embedding;
pub use report::{
    CertStatus, FitReport, QuarantineSummary, RecoveryAction, ResponseSolver, SolveCertificate,
};
pub use rlda::{Rlda, RldaConfig};
pub use srda::{
    CheckpointPolicy, FitOutcome, InterruptedFit, Srda, SrdaConfig, SrdaModel, SrdaSolver,
};
pub use srda_linalg::{ExecPolicy, Executor};
pub use srda_obs::{IterationRecord, ObsReport, Recorder, SolverTrace, TRACE_ENV};
pub use srda_solvers::{CancelToken, CheckpointError, Interrupt, RunBudget, RunGovernor};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SrdaError>;
