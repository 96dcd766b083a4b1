//! Singular value decomposition, two ways.
//!
//! * [`Svd::cross_product`] — the method the paper itself analyzes in §II-B:
//!   eigendecompose the *smaller* Gram matrix (`AAᵀ` if `m ≤ n`, else
//!   `AᵀA`) and recover the other singular-vector set via
//!   `V = Aᵀ·U·Σ⁻¹` / `U = A·V·Σ⁻¹`. This is what makes classical LDA cost
//!   `mnt + t³` flam, the baseline SRDA beats.
//! * [`Svd::jacobi`] — one-sided Jacobi. Slower but accurate to full working
//!   precision even for small singular values; used as a cross-check oracle
//!   in tests and available for callers who need the extra accuracy.
//!
//! Both return a rank-truncated thin SVD `A = U·diag(σ)·Vᵀ` with σ sorted
//! descending and σᵢ > tol·σ₁.

use crate::eigen::SymmetricEigen;
use crate::error::LinalgError;
use crate::matrix::Mat;
use crate::ops::{gram, gram_t, matmul, matmul_transa};
use crate::{flam, Result};

/// Default relative tolerance for rank truncation.
pub const DEFAULT_RANK_TOL: f64 = 1e-10;

/// A thin, rank-truncated SVD `A = U·diag(s)·Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (`m × r`).
    pub u: Mat,
    /// Singular values, descending, all `> tol·s[0]`.
    pub s: Vec<f64>,
    /// Right singular vectors (`n × r`).
    pub v: Mat,
}

impl Svd {
    /// Numerical rank (number of retained singular values).
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// Reconstruct `U·diag(s)·Vᵀ` (tests / diagnostics).
    pub fn reconstruct(&self) -> Result<Mat> {
        let mut us = self.u.clone();
        crate::ops::scale_cols(&mut us, &self.s);
        crate::ops::matmul_transb(&us, &self.v)
    }

    /// SVD via eigendecomposition of the smaller cross-product (Gram)
    /// matrix — "the most efficient SVD decomposition algorithm (i.e.
    /// cross-product)" per the paper, at the price of squaring the
    /// condition number. `tol` is the relative rank-truncation threshold
    /// on singular values (pass [`DEFAULT_RANK_TOL`] when unsure).
    pub fn cross_product(a: &Mat, tol: f64) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Ok(Svd {
                u: Mat::zeros(m, 0),
                s: vec![],
                v: Mat::zeros(n, 0),
            });
        }
        if m <= n {
            // eig of A·Aᵀ (m×m) gives U; V = Aᵀ·U·Σ⁻¹
            let g = gram_t(a);
            let eig = SymmetricEigen::factor(&g)?;
            let (s, keep) = sv_from_eigs(&eig.values, tol);
            let u = eig.vectors.select_cols(&keep);
            // V = Aᵀ U Σ⁻¹
            let mut v = matmul_transa(a, &u)?;
            let inv_s: Vec<f64> = s.iter().map(|x| 1.0 / x).collect();
            crate::ops::scale_cols(&mut v, &inv_s);
            flam::add((m * n * s.len()) as u64);
            Ok(Svd { u, s, v })
        } else {
            // eig of AᵀA (n×n) gives V; U = A·V·Σ⁻¹
            let g = gram(a);
            let eig = SymmetricEigen::factor(&g)?;
            let (s, keep) = sv_from_eigs(&eig.values, tol);
            let v = eig.vectors.select_cols(&keep);
            let mut u = matmul(a, &v)?;
            let inv_s: Vec<f64> = s.iter().map(|x| 1.0 / x).collect();
            crate::ops::scale_cols(&mut u, &inv_s);
            flam::add((m * n * s.len()) as u64);
            Ok(Svd { u, s, v })
        }
    }

    /// One-sided Jacobi SVD: iteratively orthogonalizes column pairs with
    /// plane rotations. Accurate for small singular values (no squaring of
    /// the condition number) but asymptotically slower than
    /// [`Svd::cross_product`].
    pub fn jacobi(a: &Mat, tol: f64) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Ok(Svd {
                u: Mat::zeros(m, 0),
                s: vec![],
                v: Mat::zeros(n, 0),
            });
        }
        if m < n {
            // work on the transpose and swap factors back
            let svd_t = Svd::jacobi(&a.transpose(), tol)?;
            return Ok(Svd {
                u: svd_t.v,
                s: svd_t.s,
                v: svd_t.u,
            });
        }

        // column-major working copies for contiguous column access
        let mut cols: Vec<Vec<f64>> = (0..n).map(|j| a.col(j)).collect();
        let mut vcols: Vec<Vec<f64>> = (0..n)
            .map(|j| {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                e
            })
            .collect();

        const MAX_SWEEPS: usize = 60;
        let eps = f64::EPSILON * (m as f64).sqrt();
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            let mut off = 0.0f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                    for i in 0..m {
                        let (x, y) = (cols[p][i], cols[q][i]);
                        app += x * x;
                        aqq += y * y;
                        apq += x * y;
                    }
                    flam::add(3 * m as u64);
                    let denom = (app * aqq).sqrt();
                    if denom == 0.0 || apq.abs() <= eps * denom {
                        continue;
                    }
                    off = off.max(apq.abs() / denom);
                    // Jacobi rotation zeroing the (p,q) entry of the Gram
                    let zeta = (aqq - app) / (2.0 * apq);
                    let t = if zeta >= 0.0 {
                        1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
                    } else {
                        -1.0 / (-zeta + (1.0 + zeta * zeta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    flam::add(2 * (m + n) as u64);
                    for i in 0..m {
                        let (x, y) = (cols[p][i], cols[q][i]);
                        cols[p][i] = c * x - s * y;
                        cols[q][i] = s * x + c * y;
                    }
                    for i in 0..n {
                        let (x, y) = (vcols[p][i], vcols[q][i]);
                        vcols[p][i] = c * x - s * y;
                        vcols[q][i] = s * x + c * y;
                    }
                }
            }
            if off <= eps {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(LinalgError::NoConvergence {
                algorithm: "one-sided Jacobi SVD",
                iterations: MAX_SWEEPS,
            });
        }

        // singular values = column norms; sort descending, truncate
        let mut order: Vec<(usize, f64)> = cols
            .iter()
            .enumerate()
            .map(|(j, c)| (j, crate::vector::norm2(c)))
            .collect();
        order.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let smax = order.first().map(|x| x.1).unwrap_or(0.0);
        let kept: Vec<(usize, f64)> = order
            .into_iter()
            .filter(|(_, s)| *s > tol * smax && *s > 0.0)
            .collect();

        let r = kept.len();
        let mut u = Mat::zeros(m, r);
        let mut v = Mat::zeros(n, r);
        let mut s = Vec::with_capacity(r);
        for (k, &(j, sj)) in kept.iter().enumerate() {
            s.push(sj);
            let inv = 1.0 / sj;
            for i in 0..m {
                u[(i, k)] = cols[j][i] * inv;
            }
            for i in 0..n {
                v[(i, k)] = vcols[j][i];
            }
        }
        Ok(Svd { u, s, v })
    }
}

/// Convert descending eigenvalues of a Gram matrix to singular values,
/// returning the kept values and the indices to keep.
fn sv_from_eigs(eigs: &[f64], tol: f64) -> (Vec<f64>, Vec<usize>) {
    let max = eigs.first().copied().unwrap_or(0.0).max(0.0);
    let smax = max.sqrt();
    let mut s = Vec::new();
    let mut keep = Vec::new();
    for (i, &l) in eigs.iter().enumerate() {
        if l <= 0.0 {
            continue;
        }
        let sv = l.sqrt();
        if sv > tol * smax {
            s.push(sv);
            keep.push(i);
        }
    }
    (s, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul_transa;

    fn test_mat(m: usize, n: usize) -> Mat {
        // deterministic hash noise: full rank with probability ~1
        Mat::from_fn(m, n, |i, j| {
            let x = (i as f64 * 12.9898 + j as f64 * 78.233).sin() * 43758.5453;
            x - x.floor() - 0.5
        })
    }

    fn check_svd(a: &Mat, svd: &Svd, tol: f64) {
        // reconstruction
        let recon = svd.reconstruct().unwrap();
        assert!(
            recon.approx_eq(a, tol),
            "reconstruction error {}",
            recon.sub(a).unwrap().max_abs()
        );
        // orthonormal columns
        let r = svd.rank();
        let utu = matmul_transa(&svd.u, &svd.u).unwrap();
        assert!(utu.approx_eq(&Mat::identity(r), 1e-8));
        let vtv = matmul_transa(&svd.v, &svd.v).unwrap();
        assert!(vtv.approx_eq(&Mat::identity(r), 1e-8));
        // descending
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn cross_product_tall() {
        let a = test_mat(10, 4);
        let svd = Svd::cross_product(&a, DEFAULT_RANK_TOL).unwrap();
        assert_eq!(svd.rank(), 4);
        check_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn cross_product_wide() {
        let a = test_mat(4, 10);
        let svd = Svd::cross_product(&a, DEFAULT_RANK_TOL).unwrap();
        assert_eq!(svd.rank(), 4);
        check_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn jacobi_tall_and_wide() {
        for (m, n) in [(9, 5), (5, 9)] {
            let a = test_mat(m, n);
            let svd = Svd::jacobi(&a, DEFAULT_RANK_TOL).unwrap();
            assert_eq!(svd.rank(), 5);
            check_svd(&a, &svd, 1e-10);
        }
    }

    #[test]
    fn methods_agree_on_singular_values() {
        let a = test_mat(8, 6);
        let s1 = Svd::cross_product(&a, DEFAULT_RANK_TOL).unwrap().s;
        let s2 = Svd::jacobi(&a, DEFAULT_RANK_TOL).unwrap().s;
        assert_eq!(s1.len(), s2.len());
        for (x, y) in s1.iter().zip(&s2) {
            assert!((x - y).abs() < 1e-8 * s1[0], "{x} vs {y}");
        }
    }

    #[test]
    fn rank_deficient_truncation() {
        // rank-2: third column is a combination of the first two
        let base = test_mat(8, 2);
        let third: Vec<f64> = (0..8).map(|i| base[(i, 0)] + 2.0 * base[(i, 1)]).collect();
        let a = base.hcat(&Mat::from_vec(8, 1, third).unwrap()).unwrap();
        for svd in [
            Svd::cross_product(&a, 1e-8).unwrap(),
            Svd::jacobi(&a, 1e-8).unwrap(),
        ] {
            assert_eq!(svd.rank(), 2);
            check_svd(&a, &svd, 1e-8);
        }
    }

    #[test]
    fn known_diagonal_case() {
        let a = Mat::from_diag(&[3.0, 0.0, 5.0]);
        let svd = Svd::cross_product(&a, 1e-12).unwrap();
        assert_eq!(svd.rank(), 2);
        assert!((svd.s[0] - 5.0).abs() < 1e-10);
        assert!((svd.s[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn empty_and_degenerate() {
        let svd = Svd::cross_product(&Mat::zeros(0, 3), 1e-10).unwrap();
        assert_eq!(svd.rank(), 0);
        let svd2 = Svd::jacobi(&Mat::zeros(3, 3), 1e-10).unwrap();
        assert_eq!(svd2.rank(), 0);
    }

    #[test]
    fn single_column() {
        let a = Mat::from_vec(4, 1, vec![3.0, 0.0, 4.0, 0.0]).unwrap();
        let svd = Svd::jacobi(&a, 1e-12).unwrap();
        assert_eq!(svd.rank(), 1);
        assert!((svd.s[0] - 5.0).abs() < 1e-12);
        check_svd(&a, &svd, 1e-12);
    }

    #[test]
    fn jacobi_more_accurate_on_tiny_singular_values() {
        // graded matrix with σ spanning many orders of magnitude
        let d = [1.0, 1e-3, 1e-6];
        let a = Mat::from_diag(&d);
        let j = Svd::jacobi(&a, 1e-12).unwrap();
        assert_eq!(j.rank(), 3);
        assert!((j.s[2] - 1e-6).abs() / 1e-6 < 1e-10);
    }

    #[test]
    fn svd_of_orthogonal_matrix_has_unit_singular_values() {
        let raw = test_mat(5, 5);
        let q = crate::qr::Qr::factor(&raw).unwrap().q_thin();
        let svd = Svd::jacobi(&q, 1e-12).unwrap();
        for s in &svd.s {
            assert!((s - 1.0).abs() < 1e-10);
        }
    }
}
