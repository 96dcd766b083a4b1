//! Householder QR factorization.
//!
//! Used by the IDR/QR baseline (QR of the centered-centroid matrix is its
//! first and defining step) and as a robust least-squares oracle in tests.
//! The factorization is "thin": for an `m × n` input with `m ≥ n` it
//! produces `Q` (`m × n`, orthonormal columns) and `R` (`n × n`, upper
//! triangular) with `A = Q·R`.

use crate::error::LinalgError;
use crate::matrix::Mat;
use crate::{flam, Result};

/// A computed Householder QR factorization.
///
/// Internally stores the Householder vectors packed below the diagonal of a
/// working copy, LAPACK-style; `q_thin`/`apply_qt` materialize what callers
/// need.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factors: R on and above the diagonal, Householder vectors
    /// (with implicit unit leading entry) below.
    packed: Mat,
    /// Scalar `tau` of each reflector `H = I − τ·v·vᵀ`.
    taus: Vec<f64>,
}

impl Qr {
    /// Factor an `m × n` matrix with `m ≥ n`.
    pub fn factor(a: &Mat) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::InvalidDimension {
                context: "qr: requires nrows >= ncols (thin QR)",
            });
        }
        flam::add((m * n * n) as u64);
        let mut w = a.clone();
        let mut taus = Vec::with_capacity(n);

        for k in 0..n {
            // Build the reflector annihilating w[k+1.., k] below w[k, k].
            let mut norm_sq = 0.0;
            for i in k..m {
                let v = w[(i, k)];
                norm_sq += v * v;
            }
            let alpha = w[(k, k)];
            let norm = norm_sq.sqrt();
            if norm == 0.0 {
                // column already zero: identity reflector
                taus.push(0.0);
                continue;
            }
            // choose sign to avoid cancellation
            let beta = if alpha >= 0.0 { -norm } else { norm };
            let v0 = alpha - beta;
            let tau = -v0 / beta; // τ = (β − α)/β with the sign convention above
                                  // normalize so the leading entry of v is 1
            let inv_v0 = 1.0 / v0;
            for i in (k + 1)..m {
                w[(i, k)] *= inv_v0;
            }
            w[(k, k)] = beta;
            taus.push(tau);

            // apply H = I − τ v vᵀ to the trailing columns
            for j in (k + 1)..n {
                let mut dot = w[(k, j)];
                for i in (k + 1)..m {
                    dot += w[(i, k)] * w[(i, j)];
                }
                let t = tau * dot;
                w[(k, j)] -= t;
                for i in (k + 1)..m {
                    let vik = w[(i, k)];
                    w[(i, j)] -= t * vik;
                }
            }
        }
        Ok(Qr { packed: w, taus })
    }

    /// Rows of the factored matrix.
    pub fn nrows(&self) -> usize {
        self.packed.nrows()
    }

    /// Columns of the factored matrix.
    pub fn ncols(&self) -> usize {
        self.packed.ncols()
    }

    /// The `n × n` upper-triangular factor `R`.
    pub fn r(&self) -> Mat {
        let n = self.ncols();
        let mut r = Mat::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r[(i, j)] = self.packed[(i, j)];
            }
        }
        r
    }

    /// The thin orthonormal factor `Q` (`m × n`).
    pub fn q_thin(&self) -> Mat {
        let (m, n) = self.packed.shape();
        flam::add((m * n * n) as u64);
        // Start from the first n columns of I, apply reflectors in reverse.
        let mut q = Mat::zeros(m, n);
        for j in 0..n {
            q[(j, j)] = 1.0;
        }
        for k in (0..n).rev() {
            let tau = self.taus[k];
            if tau == 0.0 {
                continue;
            }
            for j in 0..n {
                let mut dot = q[(k, j)];
                for i in (k + 1)..m {
                    dot += self.packed[(i, k)] * q[(i, j)];
                }
                let t = tau * dot;
                q[(k, j)] -= t;
                for i in (k + 1)..m {
                    let vik = self.packed[(i, k)];
                    q[(i, j)] -= t * vik;
                }
            }
        }
        q
    }

    /// Apply `Qᵀ` to a vector of length `m`, in place.
    pub fn apply_qt(&self, b: &mut [f64]) -> Result<()> {
        let (m, n) = self.packed.shape();
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                op: "qr apply_qt",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        flam::add((2 * m * n) as u64);
        for k in 0..n {
            let tau = self.taus[k];
            if tau == 0.0 {
                continue;
            }
            let mut dot = b[k];
            for i in (k + 1)..m {
                dot += self.packed[(i, k)] * b[i];
            }
            let t = tau * dot;
            b[k] -= t;
            for i in (k + 1)..m {
                b[i] -= t * self.packed[(i, k)];
            }
        }
        Ok(())
    }

    /// Minimum-norm residual least-squares solve: `argmin ‖A·x − b‖₂` for a
    /// full-column-rank `A`.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.ncols();
        let mut work = b.to_vec();
        self.apply_qt(&mut work)?;
        let mut x = work[..n].to_vec();
        crate::triangular::solve_upper_inplace(&self.r(), &mut x)?;
        Ok(x)
    }

    /// Numerical rank of `R` with tolerance `tol` relative to the largest
    /// diagonal magnitude.
    pub fn rank(&self, tol: f64) -> usize {
        let diag = self.r().diag();
        let max = diag.iter().fold(0.0f64, |m, d| m.max(d.abs()));
        if max == 0.0 {
            return 0;
        }
        diag.iter().filter(|d| d.abs() > tol * max).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{matmul, matmul_transa, matvec};

    fn tall() -> Mat {
        Mat::from_fn(7, 4, |i, j| ((i * 5 + j * 3) % 11) as f64 - 4.0)
    }

    #[test]
    fn qr_reconstructs() {
        let a = tall();
        let qr = Qr::factor(&a).unwrap();
        let recon = matmul(&qr.q_thin(), &qr.r()).unwrap();
        assert!(recon.approx_eq(&a, 1e-10));
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let qr = Qr::factor(&tall()).unwrap();
        let q = qr.q_thin();
        let qtq = matmul_transa(&q, &q).unwrap();
        assert!(qtq.approx_eq(&Mat::identity(4), 1e-12));
    }

    #[test]
    fn r_is_upper_triangular() {
        let qr = Qr::factor(&tall()).unwrap();
        let r = qr.r();
        for i in 0..4 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn square_factorization() {
        let a = Mat::from_rows(&[vec![4.0, 1.0], vec![3.0, 2.0]]).unwrap();
        let qr = Qr::factor(&a).unwrap();
        let recon = matmul(&qr.q_thin(), &qr.r()).unwrap();
        assert!(recon.approx_eq(&a, 1e-12));
    }

    #[test]
    fn wide_rejected() {
        assert!(Qr::factor(&Mat::zeros(2, 3)).is_err());
    }

    #[test]
    fn least_squares_exact_system() {
        let a = Mat::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0], vec![0.0, 0.0]]).unwrap();
        let qr = Qr::factor(&a).unwrap();
        let x = qr.solve_least_squares(&[3.0, 4.0, 100.0]).unwrap();
        // residual on the third row is unavoidable; x should fit first two
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = tall();
        let b: Vec<f64> = (0..7).map(|i| (i as f64 * 0.7).sin()).collect();
        let qr = Qr::factor(&a).unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        // normal equations oracle: AᵀA x = Aᵀ b
        let g = crate::ops::gram(&a);
        let atb = crate::ops::matvec_t(&a, &b).unwrap();
        let x2 = crate::Cholesky::factor(&g).unwrap().solve(&atb).unwrap();
        for (u, v) in x.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn apply_qt_preserves_norm() {
        let a = tall();
        let qr = Qr::factor(&a).unwrap();
        let b: Vec<f64> = (0..7).map(|i| (i as f64) - 3.0).collect();
        let norm_before = crate::vector::norm2(&b);
        let mut w = b.clone();
        qr.apply_qt(&mut w).unwrap();
        let norm_after = crate::vector::norm2(&w);
        assert!((norm_before - norm_after).abs() < 1e-12);
    }

    #[test]
    fn rank_detects_deficiency() {
        // third column = first + second
        let a = Mat::from_fn(6, 3, |i, j| match j {
            0 => i as f64,
            1 => (i * i) as f64 / 10.0,
            _ => i as f64 + (i * i) as f64 / 10.0,
        });
        let qr = Qr::factor(&a).unwrap();
        assert_eq!(qr.rank(1e-10), 2);
        let full = Qr::factor(&tall()).unwrap();
        assert_eq!(full.rank(1e-10), 4);
    }

    #[test]
    fn zero_column_handled() {
        let mut a = tall();
        for i in 0..7 {
            a[(i, 2)] = 0.0;
        }
        let qr = Qr::factor(&a).unwrap();
        let recon = matmul(&qr.q_thin(), &qr.r()).unwrap();
        assert!(recon.approx_eq(&a, 1e-10));
    }

    #[test]
    fn qt_then_solve_matches_matvec() {
        // checks consistency: A x = Q R x, so Qᵀ A x = R x
        let a = tall();
        let qr = Qr::factor(&a).unwrap();
        let x = [1.0, -1.0, 0.5, 2.0];
        let mut ax = matvec(&a, &x).unwrap();
        qr.apply_qt(&mut ax).unwrap();
        let rx = matvec(&qr.r(), &x).unwrap();
        for i in 0..4 {
            assert!((ax[i] - rx[i]).abs() < 1e-10);
        }
        for v in &ax[4..] {
            assert!(v.abs() < 1e-10);
        }
    }
}
