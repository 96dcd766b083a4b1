//! Matrix products and matrix-vector kernels.
//!
//! Since the execution-backend refactor these are thin shims over
//! [`srda_kernels`]: each product has an `*_exec` variant taking an
//! [`Executor`], and the historical free functions delegate to it with the
//! serial executor, so existing callers keep bit-identical results. The
//! kernels are blocked for cache locality — the Gram and `Aᵀ·B` products
//! in register tiles over packed panels, the rest in row panels — and,
//! on a threaded [`Executor`], row-partitioned across
//! scoped threads with a fixed deterministic reduction order, so neither
//! the blocking nor the backend changes the numbers, only the wall-clock.
//! The `*_augmented_exec` products read the bias-augmented `[A | 1]`
//! without materializing it, bitwise and flam for flam the products of
//! the materialized matrix. `flam` accounting stays here in the shims,
//! unchanged from the serial era, so operation counts measure *algorithm*
//! cost, not backend shape.

use crate::error::LinalgError;
use crate::matrix::Mat;
use crate::{flam, Result};
use srda_kernels::{dense, Executor};

/// General product `C = A·B`.
pub fn matmul(a: &Mat, b: &Mat) -> Result<Mat> {
    matmul_exec(a, b, &Executor::serial())
}

/// General product `C = A·B` on the given executor.
pub fn matmul_exec(a: &Mat, b: &Mat, exec: &Executor) -> Result<Mat> {
    if a.ncols() != b.nrows() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
    flam::add((m * k * n) as u64);
    let mut c = Mat::zeros(m, n);
    dense::gemm(exec, a.as_slice(), m, k, b.as_slice(), n, c.as_mut_slice());
    Ok(c)
}

/// Product with the left operand transposed: `C = Aᵀ·B` without forming `Aᵀ`.
pub fn matmul_transa(a: &Mat, b: &Mat) -> Result<Mat> {
    matmul_transa_exec(a, b, &Executor::serial())
}

/// `C = Aᵀ·B` on the given executor.
pub fn matmul_transa_exec(a: &Mat, b: &Mat, exec: &Executor) -> Result<Mat> {
    if a.nrows() != b.nrows() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_transa",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
    flam::add((m * k * n) as u64);
    let mut c = Mat::zeros(k, n);
    dense::gemm_transa(exec, a.as_slice(), m, k, b.as_slice(), n, c.as_mut_slice());
    Ok(c)
}

/// `C = [A | 1]ᵀ·B` on the given executor: `(k + 1) × n`, the last row
/// holding the column sums of `B`. Bitwise, and flam for flam,
/// [`matmul_transa_exec`] of the materialized `[A | 1]`
/// ([`Mat::append_constant_col`]), which it never builds.
pub fn matmul_transa_augmented_exec(a: &Mat, b: &Mat, exec: &Executor) -> Result<Mat> {
    if a.nrows() != b.nrows() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_transa",
            lhs: (a.nrows(), a.ncols() + 1),
            rhs: b.shape(),
        });
    }
    let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
    flam::add((m * (k + 1) * n) as u64);
    let mut c = Mat::zeros(k + 1, n);
    dense::gemm_transa_augmented(exec, a.as_slice(), m, k, b.as_slice(), n, c.as_mut_slice());
    Ok(c)
}

/// Product with the right operand transposed: `C = A·Bᵀ` without forming `Bᵀ`.
pub fn matmul_transb(a: &Mat, b: &Mat) -> Result<Mat> {
    matmul_transb_exec(a, b, &Executor::serial())
}

/// `C = A·Bᵀ` on the given executor.
pub fn matmul_transb_exec(a: &Mat, b: &Mat, exec: &Executor) -> Result<Mat> {
    if a.ncols() != b.ncols() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_transb",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k, n) = (a.nrows(), a.ncols(), b.nrows());
    flam::add((m * k * n) as u64);
    let mut c = Mat::zeros(m, n);
    dense::gemm_transb(exec, a.as_slice(), m, k, b.as_slice(), n, c.as_mut_slice());
    Ok(c)
}

/// Gram matrix `AᵀA` (`ncols × ncols`), exploiting symmetry: only the upper
/// triangle is computed, then mirrored.
pub fn gram(a: &Mat) -> Mat {
    gram_exec(a, &Executor::serial())
}

/// Gram matrix `AᵀA` on the given executor.
pub fn gram_exec(a: &Mat, exec: &Executor) -> Mat {
    let (m, n) = a.shape();
    flam::add((m * n * (n + 1) / 2) as u64);
    let mut g = Mat::zeros(n, n);
    dense::gram(exec, a.as_slice(), m, n, g.as_mut_slice());
    g
}

/// The upper triangle, diagonal included, of the Gram matrix
/// `[A | 1]ᵀ[A | 1]` (`(ncols + 1)²`) on the given executor; the strict
/// lower triangle is unspecified. Bitwise, and flam for flam, the upper
/// triangle of [`gram_exec`] of the materialized `[A | 1]`
/// ([`Mat::append_constant_col`]), which it never builds.
pub fn gram_augmented_upper_exec(a: &Mat, exec: &Executor) -> Mat {
    let (m, n) = a.shape();
    flam::add((m * (n + 1) * (n + 2) / 2) as u64);
    let mut g = Mat::zeros(n + 1, n + 1);
    dense::gram_augmented_upper(exec, a.as_slice(), m, n, g.as_mut_slice());
    g
}

/// Outer Gram matrix `AAᵀ` (`nrows × nrows`), exploiting symmetry.
pub fn gram_t(a: &Mat) -> Mat {
    gram_t_exec(a, &Executor::serial())
}

/// Outer Gram matrix `AAᵀ` on the given executor.
pub fn gram_t_exec(a: &Mat, exec: &Executor) -> Mat {
    let mut g = gram_t_upper_exec(a, exec);
    dense::mirror_upper(g.as_mut_slice(), a.nrows());
    g
}

/// The upper triangle, diagonal included, of [`gram_t_exec`]; the strict
/// lower triangle is left zero.
pub fn gram_t_upper_exec(a: &Mat, exec: &Executor) -> Mat {
    let (m, n) = a.shape();
    flam::add((n * m * (m + 1) / 2) as u64);
    let mut g = Mat::zeros(m, m);
    dense::gram_t_upper(exec, a.as_slice(), m, n, g.as_mut_slice());
    g
}

/// Matrix-vector product `y = A·x`.
pub fn matvec(a: &Mat, x: &[f64]) -> Result<Vec<f64>> {
    matvec_exec(a, x, &Executor::serial())
}

/// Matrix-vector product `y = A·x` on the given executor.
pub fn matvec_exec(a: &Mat, x: &[f64], exec: &Executor) -> Result<Vec<f64>> {
    if a.ncols() != x.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "matvec",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    flam::add((a.nrows() * a.ncols()) as u64);
    let mut y = vec![0.0; a.nrows()];
    dense::matvec(exec, a.as_slice(), a.nrows(), a.ncols(), x, &mut y);
    Ok(y)
}

/// Transposed matrix-vector product `y = Aᵀ·x`, computed without forming
/// `Aᵀ` (accumulates `y += xᵢ · rowᵢ(A)`).
pub fn matvec_t(a: &Mat, x: &[f64]) -> Result<Vec<f64>> {
    matvec_t_exec(a, x, &Executor::serial())
}

/// Transposed matrix-vector product `y = Aᵀ·x` on the given executor.
pub fn matvec_t_exec(a: &Mat, x: &[f64], exec: &Executor) -> Result<Vec<f64>> {
    if a.nrows() != x.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "matvec_t",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    flam::add((a.nrows() * a.ncols()) as u64);
    let mut y = vec![0.0; a.ncols()];
    dense::matvec_t(exec, a.as_slice(), a.nrows(), a.ncols(), x, &mut y);
    Ok(y)
}

/// `y = A·x` into a caller-provided buffer (no allocation) on the given
/// executor. `y.len()` must equal `a.nrows()`.
pub fn matvec_into_exec(a: &Mat, x: &[f64], y: &mut [f64], exec: &Executor) -> Result<()> {
    if a.ncols() != x.len() || a.nrows() != y.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "matvec_into",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    flam::add((a.nrows() * a.ncols()) as u64);
    dense::matvec(exec, a.as_slice(), a.nrows(), a.ncols(), x, y);
    Ok(())
}

/// `y = Aᵀ·x` into a caller-provided buffer (no allocation) on the given
/// executor. `y.len()` must equal `a.ncols()`.
pub fn matvec_t_into_exec(a: &Mat, x: &[f64], y: &mut [f64], exec: &Executor) -> Result<()> {
    if a.nrows() != x.len() || a.ncols() != y.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "matvec_t_into",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    flam::add((a.nrows() * a.ncols()) as u64);
    dense::matvec_t(exec, a.as_slice(), a.nrows(), a.ncols(), x, y);
    Ok(())
}

/// Scale the columns of `a` in place by `d`: `A ← A·diag(d)`.
pub fn scale_cols(a: &mut Mat, d: &[f64]) {
    debug_assert_eq!(a.ncols(), d.len());
    flam::add((a.nrows() * a.ncols()) as u64);
    for i in 0..a.nrows() {
        for (aij, &dj) in a.row_mut(i).iter_mut().zip(d) {
            *aij *= dj;
        }
    }
}

/// Scale the rows of `a` in place by `d`: `A ← diag(d)·A`.
pub fn scale_rows(a: &mut Mat, d: &[f64]) {
    debug_assert_eq!(a.nrows(), d.len());
    flam::add((a.nrows() * a.ncols()) as u64);
    for (i, &di) in d.iter().enumerate() {
        for aij in a.row_mut(i) {
            *aij *= di;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_a() -> Mat {
        Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap()
    }

    #[test]
    fn matmul_hand_checked() {
        let a = small_a(); // 3x2
        let b = Mat::from_rows(&[vec![7.0, 8.0, 9.0], vec![10.0, 11.0, 12.0]]).unwrap(); // 2x3
        let c = matmul(&a, &b).unwrap();
        let expect = Mat::from_rows(&[
            vec![27.0, 30.0, 33.0],
            vec![61.0, 68.0, 75.0],
            vec![95.0, 106.0, 117.0],
        ])
        .unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = small_a();
        let c = matmul(&a, &Mat::identity(2)).unwrap();
        assert!(c.approx_eq(&a, 0.0));
        let c2 = matmul(&Mat::identity(3), &a).unwrap();
        assert!(c2.approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_shape_errors() {
        let a = small_a();
        assert!(matmul(&a, &a).is_err());
    }

    #[test]
    fn transa_matches_explicit_transpose() {
        let a = small_a();
        let b = Mat::from_fn(3, 4, |i, j| (i + 2 * j) as f64);
        let c1 = matmul_transa(&a, &b).unwrap();
        let c2 = matmul(&a.transpose(), &b).unwrap();
        assert!(c1.approx_eq(&c2, 1e-12));
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        let a = small_a();
        let b = Mat::from_fn(5, 2, |i, j| (3 * i + j) as f64);
        let c1 = matmul_transb(&a, &b).unwrap();
        let c2 = matmul(&a, &b.transpose()).unwrap();
        assert!(c1.approx_eq(&c2, 1e-12));
    }

    #[test]
    fn gram_matches_ata() {
        let a = Mat::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let g = gram(&a);
        let explicit = matmul_transa(&a, &a).unwrap();
        assert!(g.approx_eq(&explicit, 1e-12));
        // symmetry
        assert!(g.approx_eq(&g.transpose(), 0.0));
    }

    #[test]
    fn gram_t_matches_aat() {
        let a = Mat::from_fn(4, 6, |i, j| ((i * 5 + j) % 7) as f64 - 3.0);
        let g = gram_t(&a);
        let explicit = matmul_transb(&a, &a).unwrap();
        assert!(g.approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn matvec_hand_checked() {
        let a = small_a();
        let y = matvec(&a, &[1.0, -1.0]).unwrap();
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
        assert!(matvec(&a, &[1.0]).is_err());
    }

    #[test]
    fn matvec_t_matches_transpose() {
        let a = small_a();
        let x = [1.0, 2.0, 3.0];
        let y1 = matvec_t(&a, &x).unwrap();
        let y2 = matvec(&a.transpose(), &x).unwrap();
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12);
        }
        assert!(matvec_t(&a, &[1.0]).is_err());
    }

    #[test]
    fn scaling_rows_and_cols() {
        let mut a = Mat::filled(2, 3, 1.0);
        scale_cols(&mut a, &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        let mut b = Mat::filled(2, 3, 1.0);
        scale_rows(&mut b, &[2.0, 5.0]);
        assert_eq!(b.row(0), &[2.0, 2.0, 2.0]);
        assert_eq!(b.row(1), &[5.0, 5.0, 5.0]);
    }

    #[test]
    fn matmul_associativity_numerically() {
        let a = Mat::from_fn(3, 4, |i, j| (i as f64 + 1.0) * (j as f64 - 1.5));
        let b = Mat::from_fn(4, 2, |i, j| (i as f64 - 2.0) * (j as f64 + 0.5));
        let c = Mat::from_fn(2, 3, |i, j| 0.25 * (i + j) as f64);
        let left = matmul(&matmul(&a, &b).unwrap(), &c).unwrap();
        let right = matmul(&a, &matmul(&b, &c).unwrap()).unwrap();
        assert!(left.approx_eq(&right, 1e-10));
    }

    #[test]
    fn flam_counts_products() {
        let a = Mat::zeros(10, 20);
        let b = Mat::zeros(20, 30);
        let ((), used) = crate::flam::measure(|| {
            let _ = matmul(&a, &b).unwrap();
        });
        assert_eq!(used, 10 * 20 * 30);
    }

    #[test]
    fn gram_and_transa_flam_counts_are_pinned() {
        // `core.fit_flam` and the Table I reproductions read these counts
        let a = Mat::from_fn(37, 11, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let b = Mat::from_fn(37, 6, |i, j| ((i + 4 * j) % 7) as f64 - 3.0);
        let exec = Executor::threaded(3);
        let (_, used) = crate::flam::measure(|| gram_exec(&a, &exec));
        assert_eq!(used, 37 * 11 * 12 / 2);
        let (_, used) = crate::flam::measure(|| matmul_transa_exec(&a, &b, &exec).unwrap());
        assert_eq!(used, 37 * 11 * 6);
        // the augmented forms count, and compute, what the materialized
        // `[A | 1]` does
        let xa = a.append_constant_col(1.0);
        let (want, want_flam) = crate::flam::measure(|| gram_exec(&xa, &exec));
        let (got, flam) = crate::flam::measure(|| gram_augmented_upper_exec(&a, &exec));
        for i in 0..want.nrows() {
            assert_eq!(got.row(i)[i..], want.row(i)[i..], "row {i}");
        }
        assert_eq!(flam, want_flam);
        let (want, want_flam) =
            crate::flam::measure(|| matmul_transa_exec(&xa, &b, &exec).unwrap());
        let (got, flam) =
            crate::flam::measure(|| matmul_transa_augmented_exec(&a, &b, &exec).unwrap());
        assert!(got.approx_eq(&want, 0.0));
        assert_eq!(flam, want_flam);
        assert!(matmul_transa_augmented_exec(&a, &Mat::zeros(36, 2), &exec).is_err());
    }

    #[test]
    fn exec_variants_match_serial_bitwise() {
        // Shapes straddling the block size (64) and thread counts larger
        // than the row count: every backend must agree exactly.
        let a = Mat::from_fn(67, 33, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let b = Mat::from_fn(33, 70, |i, j| ((i * 5 + j * 11) % 9) as f64 - 4.0);
        let bt = Mat::from_fn(70, 33, |i, j| ((i * 3 + j * 7) % 11) as f64 - 5.0);
        let x: Vec<f64> = (0..33).map(|j| j as f64 * 0.25 - 4.0).collect();
        let xt: Vec<f64> = (0..67)
            .map(|i| if i % 5 == 0 { 0.0 } else { i as f64 * 0.125 })
            .collect();
        for &t in &[2usize, 3, 8, 1000] {
            let exec = Executor::threaded(t);
            assert!(matmul_exec(&a, &b, &exec)
                .unwrap()
                .approx_eq(&matmul(&a, &b).unwrap(), 0.0));
            assert!(matmul_transa_exec(&a, &a, &exec)
                .unwrap()
                .approx_eq(&matmul_transa(&a, &a).unwrap(), 0.0));
            assert!(matmul_transb_exec(&a, &bt, &exec)
                .unwrap()
                .approx_eq(&matmul_transb(&a, &bt).unwrap(), 0.0));
            assert!(gram_exec(&a, &exec).approx_eq(&gram(&a), 0.0));
            assert!(gram_t_exec(&a, &exec).approx_eq(&gram_t(&a), 0.0));
            assert_eq!(matvec_exec(&a, &x, &exec).unwrap(), matvec(&a, &x).unwrap());
            assert_eq!(
                matvec_t_exec(&a, &xt, &exec).unwrap(),
                matvec_t(&a, &xt).unwrap()
            );
        }
    }
}
