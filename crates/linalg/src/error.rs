//! Error type shared by all factorizations and solvers in this crate.

use std::fmt;

/// Errors produced by dense linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Rows of the offending matrix.
        rows: usize,
        /// Columns of the offending matrix.
        cols: usize,
    },
    /// Cholesky factorization hit a non-positive pivot: the input is not
    /// (numerically) positive definite.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// Value of the failing pivot.
        value: f64,
    },
    /// A triangular solve hit an exactly-zero pivot.
    Singular {
        /// Index of the zero pivot.
        pivot: usize,
    },
    /// An iterative routine exhausted its iteration budget before
    /// converging to the requested tolerance.
    NoConvergence {
        /// Name of the algorithm that failed to converge.
        algorithm: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// The input contained NaN or infinity where finite values are required.
    NonFinite {
        /// Description of where the non-finite value was found.
        context: &'static str,
    },
    /// A dimension argument was invalid (e.g. empty matrix where data is
    /// required, or a requested rank exceeding the matrix size).
    InvalidDimension {
        /// Description of the invalid argument.
        context: &'static str,
    },
    /// A solve completed without raising an error but failed its a
    /// posteriori quality certificate: the forward-error bound
    /// `cond_estimate × backward_error` stayed above the certification
    /// threshold even after iterative refinement. Retryable: recovery
    /// ladders treat this like a factorization failure and escalate.
    CertificationFailed {
        /// The forward-error bound that exceeded the threshold.
        error_bound: f64,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} is {value:e}"
            ),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular: zero pivot at index {pivot}")
            }
            LinalgError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
            LinalgError::NonFinite { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
            LinalgError::InvalidDimension { context } => {
                write!(f, "invalid dimension: {context}")
            }
            LinalgError::CertificationFailed { error_bound } => write!(
                f,
                "solution failed certification: error bound {error_bound:e} above threshold"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn display_not_positive_definite() {
        let e = LinalgError::NotPositiveDefinite {
            pivot: 3,
            value: -1.0,
        };
        assert!(e.to_string().contains("positive definite"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&LinalgError::Singular { pivot: 0 });
    }

    #[test]
    fn display_certification_failed_mentions_bound() {
        let e = LinalgError::CertificationFailed { error_bound: 1e-3 };
        let s = e.to_string();
        assert!(s.contains("certification"));
        assert!(s.contains("1e-3"));
    }

    #[test]
    fn display_no_convergence_mentions_algorithm() {
        let e = LinalgError::NoConvergence {
            algorithm: "ql",
            iterations: 30,
        };
        assert!(e.to_string().contains("ql"));
        assert!(e.to_string().contains("30"));
    }
}
