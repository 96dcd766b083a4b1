//! Classical LDA, solved exactly as the paper's §II-A prescribes.
//!
//! The generalized eigenproblem `S_b a = λ S_t a` is reduced through the
//! thin SVD of the centered data `X̄ = U Σ Vᵀ` (computed by the
//! cross-product method — "the most efficient SVD decomposition algorithm"
//! in the paper's words — which also resolves the singularity of `S_t` when
//! `n > m`). In the SVD basis the problem becomes an eigenproblem of
//! `H Hᵀ` where `H` is the tiny `r × c` matrix of (scaled) class sums of
//! singular-vector rows (Eqn 11); its eigenvectors are recovered from the
//! `c × c` problem `HᵀH`, and mapped back through `U Σ⁻¹`.
//!
//! Cost: `O(mnt + t³)` flam and `O(mn + mt + nt)` memory with
//! `t = min(m, n)` — the Table I row that SRDA beats.

use crate::labels::ClassIndex;
use crate::model::Embedding;
use crate::{Result, SrdaError};
use srda_linalg::ops::{matmul, matmul_exec, matvec_t_exec, scale_rows};
use srda_linalg::stats::centered;
use srda_linalg::svd::Svd;
use srda_linalg::{ExecPolicy, Executor, Mat, SymmetricEigen};
use srda_obs::Recorder;

/// Configuration for classical [`Lda`].
#[derive(Debug, Clone)]
pub struct LdaConfig {
    /// Relative tolerance for discarding small singular values of the
    /// centered data (the SVD preprocessing that guarantees a stable
    /// solution).
    pub rank_tol: f64,
    /// Relative tolerance for discarding near-zero eigenvalues of the
    /// reduced between-class problem (caps components at `c − 1`).
    pub eig_tol: f64,
    /// Optional memory budget in bytes; centering densifies the data, so
    /// on large sparse corpora this guard trips exactly where the paper's
    /// Tables IX/X report LDA "can not be applied".
    pub memory_budget_bytes: Option<usize>,
    /// Execution backend for the dense back-projection products
    /// (defaults to [`ExecPolicy::from_env`]).
    pub exec: ExecPolicy,
    /// Optional run governor, probed at the stage boundaries of the fit
    /// (before the SVD and before the back-projection). LDA's stages are
    /// not resumable, so an interrupt surfaces as
    /// [`SrdaError::Interrupted`] with no checkpoint.
    pub governor: Option<srda_solvers::RunGovernor>,
    /// Observability sink (spans + kernel-dispatch counters); defaults to
    /// [`Recorder::from_env`], so `SRDA_TRACE=1` instruments the fit.
    pub recorder: Recorder,
}

impl Default for LdaConfig {
    fn default() -> Self {
        LdaConfig {
            rank_tol: 1e-10,
            eig_tol: 1e-9,
            memory_budget_bytes: None,
            exec: ExecPolicy::from_env(),
            governor: None,
            recorder: Recorder::from_env(),
        }
    }
}

/// Classical Linear Discriminant Analysis (SVD-stabilized).
#[derive(Debug, Clone, Default)]
pub struct Lda {
    config: LdaConfig,
}

impl Lda {
    /// Create an estimator with the given configuration.
    pub fn new(config: LdaConfig) -> Self {
        Lda { config }
    }

    /// Fit on dense data (samples as rows). Returns the embedding onto the
    /// discriminant directions (at most `c − 1` components).
    pub fn fit_dense(&self, x: &Mat, y: &[usize]) -> Result<Embedding> {
        let _fit_span = srda_obs::span!(self.config.recorder, "fit");
        if x.nrows() != y.len() {
            return Err(SrdaError::ShapeMismatch {
                op: "lda fit_dense",
                expected: x.nrows(),
                got: y.len(),
            });
        }
        let index = ClassIndex::new(y)?;
        let (m, n) = x.shape();

        // LDA's working set: the centered copy plus the smaller singular
        // factor — the `mn + mt + nt` of Table I. Budget-check the
        // dominant term.
        if let Some(budget) = self.config.memory_budget_bytes {
            let t = m.min(n);
            let needed = (m * n + m * t + n * t) * 8;
            if needed > budget {
                return Err(SrdaError::MemoryBudgetExceeded {
                    needed_bytes: needed,
                    budget_bytes: budget,
                    context: "LDA centered data + singular factors",
                });
            }
        }

        // Step 1 (§II-B): thin SVD of the centered data via cross-product.
        crate::error::check_governor(self.config.governor.as_ref())?;
        let (xc, mu) = centered(x);
        let svd = Svd::cross_product(&xc, self.config.rank_tol)?;
        let r = svd.rank();
        if r == 0 {
            // all samples identical: no discriminant directions exist
            return Embedding::new(Mat::zeros(n, 0), vec![]);
        }

        // Step 2: the reduced between-class eigenproblem. H is r × c with
        // column k = (1/√m_k) Σ_{i ∈ class k} (row i of U).
        let h = class_sum_matrix(&svd.u, &index);

        // eig of HᵀH (c × c), recover eigenvectors of HHᵀ
        let (b, _lambdas) = recover_left_eigvecs(&h, self.config.eig_tol)?;

        // Step 3: map back, A = V Σ⁻¹ B (n × q).
        crate::error::check_governor(self.config.governor.as_ref())?;
        let exec = Executor::with_recorder(self.config.exec, self.config.recorder);
        let mut sb = b;
        let inv_s: Vec<f64> = svd.s.iter().map(|v| 1.0 / v).collect();
        scale_rows(&mut sb, &inv_s);
        let weights = matmul_exec(&svd.v, &sb, &exec)?;

        // center at transform time: f(x) = Wᵀ(x − μ)
        let bias: Vec<f64> = {
            let wmu = matvec_t_exec(&weights, &mu, &exec)?;
            wmu.iter().map(|v| -v).collect()
        };
        Embedding::new(weights, bias)
    }
}

/// `H` (Eqn 11): `r × c`, column `k` is the scaled class sum
/// `(1/√m_k) Σ_{i∈k} uᵢ` of rows of the left singular factor.
pub(crate) fn class_sum_matrix(u: &Mat, index: &ClassIndex) -> Mat {
    let r = u.ncols();
    let c = index.n_classes();
    let mut h = Mat::zeros(r, c);
    for k in 0..c {
        let scale = 1.0 / (index.counts()[k] as f64).sqrt();
        for &i in index.members(k) {
            let row = u.row(i);
            for (j, &v) in row.iter().enumerate() {
                h[(j, k)] += v * scale;
            }
        }
    }
    h
}

/// Given `H` (`r × c`), eigendecompose `HᵀH` (cheap) and recover the
/// eigenvectors of `HHᵀ` for eigenvalues above `tol · λ_max`:
/// `B = H P Λ^{-1/2}`. Returns `(B, λ)` with columns/entries sorted by
/// descending eigenvalue. This is the cross-product recovery trick the
/// paper describes right after Eqn 11.
pub(crate) fn recover_left_eigvecs(h: &Mat, tol: f64) -> Result<(Mat, Vec<f64>)> {
    let g = srda_linalg::ops::gram(h); // HᵀH, c × c
    let eig = SymmetricEigen::factor(&g)?;
    let lmax = eig.values.first().copied().unwrap_or(0.0).max(0.0);
    let keep: Vec<usize> = eig
        .values
        .iter()
        .enumerate()
        .filter(|(_, &l)| l > tol * lmax && l > 0.0)
        .map(|(i, _)| i)
        .collect();
    let p = eig.vectors.select_cols(&keep);
    let lambdas: Vec<f64> = keep.iter().map(|&i| eig.values[i]).collect();
    let mut b = matmul(h, &p)?;
    let inv_sqrt: Vec<f64> = lambdas.iter().map(|l| 1.0 / l.sqrt()).collect();
    srda_linalg::ops::scale_cols(&mut b, &inv_sqrt);
    Ok((b, lambdas))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs3(sep: f64) -> (Mat, Vec<usize>) {
        let centers = [[0.0, 0.0, 0.0], [sep, 0.0, sep], [0.0, sep, sep]];
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for (k, c) in centers.iter().enumerate() {
            for s in 0..8 {
                let noise = |d: usize| {
                    let x = ((k * 53 + s * 11 + d * 3) as f64 * 12.9898).sin() * 43758.5453;
                    (x - x.floor() - 0.5) * 0.4
                };
                rows.push((0..3).map(|d| c[d] + noise(d)).collect::<Vec<_>>());
                y.push(k);
            }
        }
        (Mat::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn produces_c_minus_1_components() {
        let (x, y) = blobs3(6.0);
        let emb = Lda::default().fit_dense(&x, &y).unwrap();
        assert_eq!(emb.n_components(), 2);
        assert_eq!(emb.n_features(), 3);
    }

    #[test]
    fn separates_classes() {
        let (x, y) = blobs3(8.0);
        let emb = Lda::default().fit_dense(&x, &y).unwrap();
        let z = emb.transform_dense(&x).unwrap();
        let (cent, _) = srda_linalg::stats::class_means(&z, &y, 3).unwrap();
        let mut min_between = f64::INFINITY;
        for a in 0..3 {
            for b in (a + 1)..3 {
                min_between =
                    min_between.min(srda_linalg::vector::dist2_sq(cent.row(a), cent.row(b)).sqrt());
            }
        }
        let mut max_within = 0.0f64;
        for (i, &k) in y.iter().enumerate() {
            max_within =
                max_within.max(srda_linalg::vector::dist2_sq(z.row(i), cent.row(k)).sqrt());
        }
        assert!(
            min_between > 2.0 * max_within,
            "between {min_between} within {max_within}"
        );
    }

    #[test]
    fn generalized_eigen_equation_holds() {
        // verify S_b a = λ S_t a for the returned directions
        let (x, y) = blobs3(5.0);
        let emb = Lda::default().fit_dense(&x, &y).unwrap();
        let (xc, _) = centered(&x);
        let st = srda_linalg::ops::gram(&xc);
        // S_b from class centroids
        let index = ClassIndex::new(&y).unwrap();
        let (cent, counts) = srda_linalg::stats::class_means(&x, &y, 3).unwrap();
        let mu = srda_linalg::stats::col_means(&x);
        let mut sb = Mat::zeros(3, 3);
        for k in 0..3 {
            let mut d = cent.row(k).to_vec();
            for (di, &mi) in d.iter_mut().zip(&mu) {
                *di -= mi;
            }
            for i in 0..3 {
                for j in 0..3 {
                    sb[(i, j)] += counts[k] as f64 * d[i] * d[j];
                }
            }
        }
        let _ = index;
        for q in 0..emb.n_components() {
            let a = emb.weights().col(q);
            let sba = srda_linalg::ops::matvec(&sb, &a).unwrap();
            let sta = srda_linalg::ops::matvec(&st, &a).unwrap();
            // λ = aᵀS_b a / aᵀS_t a
            let lambda = srda_linalg::vector::dot(&a, &sba) / srda_linalg::vector::dot(&a, &sta);
            for i in 0..3 {
                assert!(
                    (sba[i] - lambda * sta[i]).abs() < 1e-6 * sba[i].abs().max(1.0),
                    "component {q}: S_b a ≠ λ S_t a at {i}"
                );
            }
        }
    }

    #[test]
    fn training_bias_centers_embedding() {
        let (x, y) = blobs3(5.0);
        let emb = Lda::default().fit_dense(&x, &y).unwrap();
        let z = emb.transform_dense(&x).unwrap();
        // centered training data must embed with zero mean
        let zmu = srda_linalg::stats::col_means(&z);
        for v in zmu {
            assert!(v.abs() < 1e-8);
        }
    }

    #[test]
    fn degenerate_all_identical_samples() {
        let x = Mat::filled(6, 4, 2.5);
        let y = vec![0, 0, 0, 1, 1, 1];
        let emb = Lda::default().fit_dense(&x, &y).unwrap();
        assert_eq!(emb.n_components(), 0);
    }

    #[test]
    fn n_larger_than_m_singular_case() {
        // 6 samples in 50-D: S_t singular; SVD route must still work
        let x = Mat::from_fn(6, 50, |i, j| {
            let base = if i < 3 { 0.0 } else { 4.0 };
            let h = ((i * 7 + j * 3) as f64 * 78.233).sin() * 43758.5453;
            base + (h - h.floor() - 0.5)
        });
        let y = vec![0, 0, 0, 1, 1, 1];
        let emb = Lda::default().fit_dense(&x, &y).unwrap();
        assert_eq!(emb.n_components(), 1);
        let z = emb.transform_dense(&x).unwrap();
        // classes fully separated on the training set (guaranteed when
        // samples are linearly independent)
        let max0 = (0..3).map(|i| z[(i, 0)]).fold(f64::MIN, f64::max);
        let min1 = (3..6).map(|i| z[(i, 0)]).fold(f64::MAX, f64::min);
        let gap = (min1 - max0).abs();
        assert!(gap > 0.0);
    }

    #[test]
    fn memory_budget_guard() {
        let (x, y) = blobs3(5.0);
        let cfg = LdaConfig {
            memory_budget_bytes: Some(64),
            ..LdaConfig::default()
        };
        assert!(matches!(
            Lda::new(cfg).fit_dense(&x, &y),
            Err(SrdaError::MemoryBudgetExceeded { .. })
        ));
    }

    #[test]
    fn label_mismatch_rejected() {
        let (x, _) = blobs3(5.0);
        assert!(Lda::default().fit_dense(&x, &[0, 1]).is_err());
    }
}
