//! Error type for discriminant-analysis training and transformation.

use std::fmt;

/// Errors produced when fitting or applying discriminant models.
#[derive(Debug, Clone, PartialEq)]
pub enum SrdaError {
    /// Labels are inconsistent with the data (wrong length, empty class,
    /// fewer than two classes, ...).
    InvalidLabels {
        /// Human-readable description.
        context: String,
    },
    /// Operand shapes are incompatible (e.g. transforming data whose
    /// feature count differs from the training data's).
    ShapeMismatch {
        /// Operation name.
        op: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Dimension actually supplied.
        got: usize,
    },
    /// A required densification or allocation would exceed the configured
    /// memory budget. This mirrors the paper's Tables IX/X, where LDA,
    /// RLDA, and IDR/QR "can not be applied as the size of training set
    /// increases due to the memory limit".
    MemoryBudgetExceeded {
        /// Bytes the operation would need.
        needed_bytes: usize,
        /// The configured budget.
        budget_bytes: usize,
        /// What was being allocated.
        context: &'static str,
    },
    /// An underlying linear-algebra routine failed.
    Linalg(srda_linalg::LinalgError),
    /// An underlying sparse-matrix routine failed.
    Sparse(srda_sparse::SparseError),
    /// The fit's [`srda_solvers::RunGovernor`] stopped the run (deadline,
    /// iteration budget, or cooperative cancellation) before it finished.
    /// **Not a numerical failure**: when `checkpoint` is set the partial
    /// state was persisted and the fit can be resumed to a
    /// bitwise-identical trajectory. Callers that want the partial state
    /// in-process should use the `fit_*_outcome` entry points instead.
    Interrupted {
        /// Which budget fired.
        reason: srda_solvers::Interrupt,
        /// Response columns fully solved before the interrupt.
        responses_completed: usize,
        /// Where the resumable fit checkpoint was written, if anywhere.
        checkpoint: Option<std::path::PathBuf>,
    },
    /// A fit checkpoint could not be written, read, or applied (I/O
    /// failure, corruption, or a fingerprint mismatch between the
    /// checkpoint and the current data/configuration).
    Checkpoint(srda_solvers::CheckpointError),
    /// An input row handed to inference (`transform`/`predict`) contains
    /// NaN or ±Inf. Embeddings are affine maps, so a non-finite input can
    /// only produce a non-finite (garbage) output; it is rejected up
    /// front instead.
    NonFiniteInput {
        /// Operation name.
        op: &'static str,
        /// Index of the first offending row.
        row: usize,
    },
}

impl fmt::Display for SrdaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SrdaError::InvalidLabels { context } => write!(f, "invalid labels: {context}"),
            SrdaError::ShapeMismatch { op, expected, got } => {
                write!(f, "shape mismatch in {op}: expected {expected}, got {got}")
            }
            SrdaError::MemoryBudgetExceeded {
                needed_bytes,
                budget_bytes,
                context,
            } => write!(
                f,
                "memory budget exceeded in {context}: need {needed_bytes} bytes, budget {budget_bytes}"
            ),
            SrdaError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            SrdaError::Sparse(e) => write!(f, "sparse matrix error: {e}"),
            SrdaError::Interrupted {
                reason,
                responses_completed,
                checkpoint,
            } => {
                write!(f, "fit interrupted ({reason}) after {responses_completed} completed responses")?;
                match checkpoint {
                    Some(p) => write!(f, "; resumable checkpoint at {}", p.display()),
                    None => write!(f, "; no checkpoint written"),
                }
            }
            SrdaError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            SrdaError::NonFiniteInput { op, row } => {
                write!(f, "non-finite input to {op}: row {row} contains NaN or Inf")
            }
        }
    }
}

impl std::error::Error for SrdaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SrdaError::Linalg(e) => Some(e),
            SrdaError::Sparse(e) => Some(e),
            SrdaError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<srda_solvers::CheckpointError> for SrdaError {
    fn from(e: srda_solvers::CheckpointError) -> Self {
        SrdaError::Checkpoint(e)
    }
}

impl From<srda_linalg::LinalgError> for SrdaError {
    fn from(e: srda_linalg::LinalgError) -> Self {
        SrdaError::Linalg(e)
    }
}

impl From<srda_sparse::SparseError> for SrdaError {
    fn from(e: srda_sparse::SparseError) -> Self {
        SrdaError::Sparse(e)
    }
}

/// Probe a fit's optional governor at a coarse stage boundary, turning a
/// fired budget into [`SrdaError::Interrupted`]. Used by the eigen-based
/// fits (LDA/RLDA), whose stages are not resumable — `checkpoint` is
/// always `None` for them.
pub(crate) fn check_governor(
    governor: Option<&srda_solvers::RunGovernor>,
) -> Result<(), SrdaError> {
    if let Some(gov) = governor {
        if let Some(reason) = gov.probe() {
            return Err(SrdaError::Interrupted {
                reason,
                responses_completed: 0,
                checkpoint: None,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = SrdaError::InvalidLabels {
            context: "class 3 is empty".into(),
        };
        assert!(e.to_string().contains("class 3"));
        let m = SrdaError::MemoryBudgetExceeded {
            needed_bytes: 100,
            budget_bytes: 10,
            context: "centering",
        };
        assert!(m.to_string().contains("100"));
    }

    #[test]
    fn interrupted_display_names_reason_and_checkpoint() {
        let e = SrdaError::Interrupted {
            reason: srda_solvers::Interrupt::DeadlineExceeded,
            responses_completed: 2,
            checkpoint: Some(std::path::PathBuf::from("/tmp/fit.ckpt")),
        };
        let s = e.to_string();
        assert!(s.contains("wall-clock"), "{s}");
        assert!(s.contains("2 completed responses"), "{s}");
        assert!(s.contains("/tmp/fit.ckpt"), "{s}");
        let none = SrdaError::Interrupted {
            reason: srda_solvers::Interrupt::Cancelled,
            responses_completed: 0,
            checkpoint: None,
        };
        assert!(none.to_string().contains("no checkpoint"), "{none}");
    }

    #[test]
    fn non_finite_input_display() {
        let e = SrdaError::NonFiniteInput {
            op: "transform_dense",
            row: 7,
        };
        assert!(e.to_string().contains("row 7"));
    }

    #[test]
    fn from_linalg_preserves_source() {
        let inner = srda_linalg::LinalgError::Singular { pivot: 2 };
        let e: SrdaError = inner.clone().into();
        assert_eq!(e, SrdaError::Linalg(inner));
        assert!(std::error::Error::source(&e).is_some());
    }
}
