//! Triangular solves (forward and back substitution).
//!
//! Used by the Cholesky solver, and directly by SRDA's
//! normal-equations path: after one Cholesky factorization `XᵀX + αI = RᵀR`
//! the `c − 1` response systems are each solved with one forward and one
//! back substitution (the `cn²` term in the paper's cost analysis).

use crate::error::LinalgError;
use crate::matrix::Mat;
use crate::{flam, Result};

/// Solve `L·x = b` for lower-triangular `L` (entries above the diagonal are
/// ignored). `b` is overwritten with the solution.
pub fn solve_lower_inplace(l: &Mat, b: &mut [f64]) -> Result<()> {
    let n = check_square(l, b.len())?;
    flam::add((n * n / 2) as u64);
    for i in 0..n {
        let row = l.row(i);
        let mut acc = b[i];
        for j in 0..i {
            acc -= row[j] * b[j];
        }
        let d = row[i];
        if d == 0.0 {
            return Err(LinalgError::Singular { pivot: i });
        }
        b[i] = acc / d;
    }
    Ok(())
}

/// Solve `U·x = b` for upper-triangular `U` (entries below the diagonal are
/// ignored). `b` is overwritten with the solution.
pub fn solve_upper_inplace(u: &Mat, b: &mut [f64]) -> Result<()> {
    let n = check_square(u, b.len())?;
    flam::add((n * n / 2) as u64);
    for i in (0..n).rev() {
        let row = u.row(i);
        let mut acc = b[i];
        for j in (i + 1)..n {
            acc -= row[j] * b[j];
        }
        let d = row[i];
        if d == 0.0 {
            return Err(LinalgError::Singular { pivot: i });
        }
        b[i] = acc / d;
    }
    Ok(())
}

/// Solve `Lᵀ·x = b` where `L` is stored lower-triangular (avoids forming
/// the transpose; this is the second half of a Cholesky solve).
pub fn solve_lower_transpose_inplace(l: &Mat, b: &mut [f64]) -> Result<()> {
    let n = check_square(l, b.len())?;
    flam::add((n * n / 2) as u64);
    for i in (0..n).rev() {
        let d = l[(i, i)];
        if d == 0.0 {
            return Err(LinalgError::Singular { pivot: i });
        }
        b[i] /= d;
        let bi = b[i];
        // subtract column i of L (below the diagonal) scaled by x_i
        for j in 0..i {
            b[j] -= l[(i, j)] * bi;
        }
    }
    Ok(())
}

fn check_square(a: &Mat, blen: usize) -> Result<usize> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    if a.nrows() != blen {
        return Err(LinalgError::ShapeMismatch {
            op: "triangular solve",
            lhs: a.shape(),
            rhs: (blen, 1),
        });
    }
    Ok(a.nrows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matvec;

    #[test]
    fn lower_solve_roundtrip() {
        let l = Mat::from_rows(&[
            vec![2.0, 0.0, 0.0],
            vec![1.0, 3.0, 0.0],
            vec![4.0, -1.0, 5.0],
        ])
        .unwrap();
        let x_true = [1.0, -2.0, 0.5];
        let mut b = matvec(&l, &x_true).unwrap();
        solve_lower_inplace(&l, &mut b).unwrap();
        for (a, e) in b.iter().zip(&x_true) {
            assert!((a - e).abs() < 1e-13);
        }
    }

    #[test]
    fn upper_solve_roundtrip() {
        let u = Mat::from_rows(&[
            vec![3.0, 1.0, -2.0],
            vec![0.0, 2.0, 4.0],
            vec![0.0, 0.0, -1.0],
        ])
        .unwrap();
        let x_true = [0.5, 2.0, -3.0];
        let mut b = matvec(&u, &x_true).unwrap();
        solve_upper_inplace(&u, &mut b).unwrap();
        for (a, e) in b.iter().zip(&x_true) {
            assert!((a - e).abs() < 1e-13);
        }
    }

    #[test]
    fn lower_transpose_solve_matches_explicit() {
        let l = Mat::from_rows(&[
            vec![2.0, 0.0, 0.0],
            vec![1.0, 3.0, 0.0],
            vec![4.0, -1.0, 5.0],
        ])
        .unwrap();
        let x_true = [1.0, 2.0, 3.0];
        let lt = l.transpose();
        let mut b1 = matvec(&lt, &x_true).unwrap();
        solve_lower_transpose_inplace(&l, &mut b1).unwrap();
        for (a, e) in b1.iter().zip(&x_true) {
            assert!((a - e).abs() < 1e-13);
        }
    }

    #[test]
    fn zero_pivot_is_singular() {
        let l = Mat::from_rows(&[vec![1.0, 0.0], vec![2.0, 0.0]]).unwrap();
        let mut b = vec![1.0, 1.0];
        assert!(matches!(
            solve_lower_inplace(&l, &mut b),
            Err(LinalgError::Singular { pivot: 1 })
        ));
    }

    #[test]
    fn shape_checks() {
        let l = Mat::identity(3);
        let mut short = vec![1.0, 2.0];
        assert!(solve_lower_inplace(&l, &mut short).is_err());
        let rect = Mat::zeros(2, 3);
        let mut b = vec![1.0, 2.0];
        assert!(solve_upper_inplace(&rect, &mut b).is_err());
    }
}
