//! Regularized LDA (RLDA) — the eigen-based regularized baseline.
//!
//! Solves the generalized problem `S_b a = λ (S_t + αI) a` (Friedman-style
//! Tikhonov regularization of the scatter; the paper's §IV.B comparator).
//! With the thin SVD `X̄ = U Σ Vᵀ` of the centered data, restricting
//! `a = V q` to the row space (the orthogonal complement contributes
//! nothing to `S_b`) reduces the problem to
//!
//! ```text
//! Σ H Hᵀ Σ q = λ (Σ² + αI) q
//! ```
//!
//! with the same tiny `H` as classical LDA. Substituting
//! `p = (Σ² + αI)^{1/2} q` symmetrizes it; the `r × c` matrix
//! `G = (Σ² + αI)^{-1/2} Σ H` then gives the answer through the usual
//! `c × c` cross-product eigenproblem — same asymptotics as LDA, but a
//! stable, shrunk estimate in the small-sample regime.

use crate::labels::ClassIndex;
use crate::lda::{class_sum_matrix, recover_left_eigvecs};
use crate::model::Embedding;
use crate::{Result, SrdaError};
use srda_linalg::ops::{matmul_exec, matvec_t_exec, scale_rows};
use srda_linalg::stats::centered;
use srda_linalg::{ExecPolicy, Executor, Mat, Svd};
use srda_obs::Recorder;

/// Configuration for [`Rlda`].
#[derive(Debug, Clone)]
pub struct RldaConfig {
    /// Tikhonov parameter `α > 0` (the paper's experiments use 1).
    pub alpha: f64,
    /// Relative SVD rank-truncation tolerance.
    pub rank_tol: f64,
    /// Relative eigenvalue cut for the reduced problem.
    pub eig_tol: f64,
    /// Optional memory budget in bytes (same guard as LDA's — RLDA also
    /// needs the dense centered matrix and singular factors; the paper
    /// notes RLDA's memory situation "is even worse").
    pub memory_budget_bytes: Option<usize>,
    /// Execution backend for the dense back-projection products
    /// (defaults to [`ExecPolicy::from_env`]).
    pub exec: ExecPolicy,
    /// Optional run governor, probed at the fit's stage boundaries
    /// (before the SVD and before the reduced eigenproblem). RLDA's
    /// stages are not resumable, so an interrupt surfaces as
    /// [`SrdaError::Interrupted`] with no checkpoint.
    pub governor: Option<srda_solvers::RunGovernor>,
    /// Observability sink (spans + kernel-dispatch counters); defaults to
    /// [`Recorder::from_env`], so `SRDA_TRACE=1` instruments the fit.
    pub recorder: Recorder,
}

impl Default for RldaConfig {
    fn default() -> Self {
        RldaConfig {
            alpha: 1.0,
            rank_tol: 1e-10,
            eig_tol: 1e-9,
            memory_budget_bytes: None,
            exec: ExecPolicy::from_env(),
            governor: None,
            recorder: Recorder::from_env(),
        }
    }
}

/// Regularized Linear Discriminant Analysis.
#[derive(Debug, Clone, Default)]
pub struct Rlda {
    config: RldaConfig,
}

impl Rlda {
    /// Create an estimator with the given configuration.
    pub fn new(config: RldaConfig) -> Self {
        Rlda { config }
    }

    /// Fit on dense data (samples as rows).
    pub fn fit_dense(&self, x: &Mat, y: &[usize]) -> Result<Embedding> {
        let _fit_span = srda_obs::span!(self.config.recorder, "fit");
        if x.nrows() != y.len() {
            return Err(SrdaError::ShapeMismatch {
                op: "rlda fit_dense",
                expected: x.nrows(),
                got: y.len(),
            });
        }
        let index = ClassIndex::new(y)?;
        let (m, n) = x.shape();

        if let Some(budget) = self.config.memory_budget_bytes {
            let t = m.min(n);
            // centered copy + both singular factors ("even worse" than LDA)
            let needed = (m * n + m * t + n * t) * 8;
            if needed > budget {
                return Err(SrdaError::MemoryBudgetExceeded {
                    needed_bytes: needed,
                    budget_bytes: budget,
                    context: "RLDA centered data + singular factors",
                });
            }
        }

        crate::error::check_governor(self.config.governor.as_ref())?;
        let (xc, mu) = centered(x);
        let svd = Svd::cross_product(&xc, self.config.rank_tol)?;
        let r = svd.rank();
        if r == 0 {
            return Embedding::new(Mat::zeros(n, 0), vec![]);
        }

        // G = (Σ² + αI)^{-1/2} Σ H
        crate::error::check_governor(self.config.governor.as_ref())?;
        let h = class_sum_matrix(&svd.u, &index);
        let damp: Vec<f64> = svd
            .s
            .iter()
            .map(|&s| s / (s * s + self.config.alpha).sqrt())
            .collect();
        let mut g = h;
        scale_rows(&mut g, &damp);

        let (b, _lambdas) = recover_left_eigvecs(&g, self.config.eig_tol)?;

        // a = V (Σ² + αI)^{-1/2} p-block: undo the symmetrizing change of
        // variables, then map back to feature space
        let undo: Vec<f64> = svd
            .s
            .iter()
            .map(|&s| 1.0 / (s * s + self.config.alpha).sqrt())
            .collect();
        let exec = Executor::with_recorder(self.config.exec, self.config.recorder);
        let mut qb = b;
        scale_rows(&mut qb, &undo);
        let weights = matmul_exec(&svd.v, &qb, &exec)?;

        let bias: Vec<f64> = {
            let wmu = matvec_t_exec(&weights, &mu, &exec)?;
            wmu.iter().map(|v| -v).collect()
        };
        Embedding::new(weights, bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lda::Lda;

    fn blobs(m_per: usize, n: usize, sep: f64) -> (Mat, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for k in 0..3usize {
            for s in 0..m_per {
                let noise = |d: usize| {
                    let x = ((k * 97 + s * 13 + d * 7) as f64 * 12.9898).sin() * 43758.5453;
                    (x - x.floor() - 0.5) * 0.5
                };
                rows.push(
                    (0..n)
                        .map(|d| if d % 3 == k { sep } else { 0.0 } + noise(d))
                        .collect::<Vec<_>>(),
                );
                y.push(k);
            }
        }
        (Mat::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn produces_c_minus_1_components() {
        let (x, y) = blobs(8, 6, 4.0);
        let emb = Rlda::default().fit_dense(&x, &y).unwrap();
        assert_eq!(emb.n_components(), 2);
    }

    #[test]
    fn separates_classes() {
        let (x, y) = blobs(8, 6, 6.0);
        let emb = Rlda::default().fit_dense(&x, &y).unwrap();
        let z = emb.transform_dense(&x).unwrap();
        let (cent, _) = srda_linalg::stats::class_means(&z, &y, 3).unwrap();
        let mut within = 0.0;
        for (i, &k) in y.iter().enumerate() {
            within += srda_linalg::vector::dist2_sq(z.row(i), cent.row(k)).sqrt();
        }
        within /= y.len() as f64;
        let between = srda_linalg::vector::dist2_sq(cent.row(0), cent.row(1)).sqrt();
        assert!(between > 3.0 * within);
    }

    #[test]
    fn generalized_regularized_equation_holds() {
        // verify S_b a = λ (S_t + αI) a for the returned directions
        let alpha = 0.8;
        let (x, y) = blobs(6, 5, 4.0);
        let emb = Rlda::new(RldaConfig {
            alpha,
            ..RldaConfig::default()
        })
        .fit_dense(&x, &y)
        .unwrap();
        let (xc, _) = centered(&x);
        let mut st = srda_linalg::ops::gram(&xc);
        st.add_to_diag(alpha);
        let (cent, counts) = srda_linalg::stats::class_means(&x, &y, 3).unwrap();
        let mu = srda_linalg::stats::col_means(&x);
        let n = x.ncols();
        let mut sb = Mat::zeros(n, n);
        for k in 0..3 {
            let mut d = cent.row(k).to_vec();
            for (di, &mi) in d.iter_mut().zip(&mu) {
                *di -= mi;
            }
            for i in 0..n {
                for j in 0..n {
                    sb[(i, j)] += counts[k] as f64 * d[i] * d[j];
                }
            }
        }
        for q in 0..emb.n_components() {
            let a = emb.weights().col(q);
            let sba = srda_linalg::ops::matvec(&sb, &a).unwrap();
            let sta = srda_linalg::ops::matvec(&st, &a).unwrap();
            let lambda = srda_linalg::vector::dot(&a, &sba) / srda_linalg::vector::dot(&a, &sta);
            for i in 0..n {
                assert!(
                    (sba[i] - lambda * sta[i]).abs()
                        < 1e-6 * sba.iter().fold(0.0f64, |m2, v| m2.max(v.abs())).max(1e-12),
                    "component {q} fails at coord {i}"
                );
            }
        }
    }

    #[test]
    fn alpha_to_zero_recovers_lda_subspace() {
        // full-rank, well-posed case: RLDA(α→0) spans the LDA subspace
        let (x, y) = blobs(10, 4, 5.0);
        let lda = Lda::default().fit_dense(&x, &y).unwrap();
        let rlda = Rlda::new(RldaConfig {
            alpha: 1e-10,
            ..RldaConfig::default()
        })
        .fit_dense(&x, &y)
        .unwrap();
        // compare the subspaces via principal angles: the projection of
        // each normalized LDA direction onto the RLDA span must be ~1
        let wl = lda.weights();
        let wr = rlda.weights();
        // orthonormalize RLDA's columns
        let cols: Vec<Vec<f64>> = (0..wr.ncols()).map(|j| wr.col(j)).collect();
        let basis = srda_linalg::gram_schmidt::orthonormalize(&cols, 1e-10);
        for j in 0..wl.ncols() {
            let mut a = wl.col(j);
            srda_linalg::vector::normalize(&mut a);
            let proj_sq: f64 = basis
                .iter()
                .map(|b| srda_linalg::vector::dot(b, &a).powi(2))
                .sum();
            assert!(proj_sq > 1.0 - 1e-5, "direction {j}: proj² = {proj_sq}");
        }
    }

    #[test]
    fn handles_singular_small_sample_case() {
        // m ≪ n where plain LDA is ill-posed
        let (x, y) = blobs(3, 40, 3.0);
        let emb = Rlda::default().fit_dense(&x, &y).unwrap();
        assert!(emb.n_components() >= 1);
        assert!(emb.weights().is_finite());
    }

    #[test]
    fn stronger_regularization_shrinks_solution_scale() {
        let (x, y) = blobs(4, 20, 3.0);
        let norm = |alpha: f64| {
            Rlda::new(RldaConfig {
                alpha,
                ..RldaConfig::default()
            })
            .fit_dense(&x, &y)
            .unwrap()
            .weights()
            .frobenius_norm()
        };
        assert!(norm(1e-4) > norm(1e2));
    }

    #[test]
    fn memory_budget_guard() {
        let (x, y) = blobs(4, 8, 3.0);
        let cfg = RldaConfig {
            memory_budget_bytes: Some(64),
            ..RldaConfig::default()
        };
        assert!(matches!(
            Rlda::new(cfg).fit_dense(&x, &y),
            Err(SrdaError::MemoryBudgetExceeded { .. })
        ));
    }
}
