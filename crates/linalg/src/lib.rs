//! # srda-linalg
//!
//! Dense linear-algebra substrate for the SRDA reproduction
//! (Cai, He, Han, *Training Linear Discriminant Analysis in Linear Time*,
//! ICDE 2008).
//!
//! The paper's algorithms require a specific, fairly small set of dense
//! kernels and factorizations, all of which are implemented here from
//! scratch:
//!
//! * [`Mat`] — a row-major dense `f64` matrix with the usual algebra
//!   ([`ops`]: products, Gram matrices, norms) and data-science helpers
//!   ([`stats`]: column means, centering).
//! * [`qr`] — Householder QR (thin and full), used by the IDR/QR baseline
//!   and by least-squares solvers.
//! * [`eigen`] — symmetric eigendecomposition via Householder
//!   tridiagonalization + implicit-shift QL, the workhorse behind the
//!   paper's *cross-product* SVD.
//! * [`svd`] — singular value decomposition two ways: the cross-product
//!   method the paper analyzes in §II-B (eigendecompose the smaller Gram
//!   matrix, recover the other side), which every LDA/RLDA fit runs, and
//!   one-sided Jacobi as a high-accuracy cross-check.
//! * [`cholesky`] — SPD factorization used to solve SRDA's regularized
//!   normal equations (Eqn 18/20 of the paper), with a Hager 1-norm
//!   condition estimator for solution certification. It can factor in
//!   place, over the lower triangle of a buffer whose upper triangle holds
//!   the matrix, which [`symmetric`] then reads back row by row.
//! * [`refine`] — backward errors of computed solutions (a proven upper
//!   bound from one plain residual product, or a compensated estimate) and
//!   fixed-precision iterative refinement (compensated residuals +
//!   correction solves against the existing factor), the measuring and
//!   repair steps of the certified-solve pipeline.
//! * [`gram_schmidt`] — modified Gram-Schmidt with reorthogonalization,
//!   used verbatim by SRDA's response-generation step (§III.B step 1).
//! * [`flam`] — global operation counters measuring *flam* (one addition
//!   plus one multiplication, after Stewart), the unit the paper's Table I
//!   uses; lets the benchmark harness verify complexity claims empirically.
//!
//! All routines are pure Rust with no external BLAS/LAPACK dependency; the
//! hot kernels are written so LLVM can autovectorize them (contiguous
//! row-major inner loops, `chunks_exact`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// index-based loops are the clearest way to write the numeric kernels here
#![allow(clippy::needless_range_loop)]

pub mod cholesky;
pub mod eigen;
pub mod error;
#[cfg(feature = "failpoints")]
pub mod failpoint;
pub mod flam;
pub mod gram_schmidt;
pub mod io;
pub mod matrix;
pub mod matrix_ops;
pub mod ops;
pub mod qr;
pub mod refine;
pub mod stats;
pub mod svd;
pub mod symmetric;
pub mod triangular;
pub mod tridiagonal;
pub mod vector;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use matrix::Mat;
pub use qr::Qr;
pub use svd::Svd;
pub use symmetric::Symmetric;

// Execution backend: re-exported so downstream crates (solvers, core, cli)
// can name policies without depending on srda-kernels directly.
pub use srda_kernels::{ExecPolicy, Executor};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
