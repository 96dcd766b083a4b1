//! Row access to a symmetric matrix stored in full or as its upper
//! triangle.
//!
//! A direct ridge solve keeps its normal equations the way LAPACK's
//! `dpotrf` does: the Gram matrix's strict upper triangle in one `n × n`
//! buffer, its (shifted) diagonal in a separate vector, and the Cholesky
//! factor written over the lower triangle of the same buffer
//! ([`Cholesky::factor_in_place`](crate::Cholesky::factor_in_place)).
//! [`Symmetric`] reads such a matrix, or a plain full one, row by row:
//! every row holds the same values in the same ascending column order
//! either way, so the certification screen, the compensated residuals and
//! refinement ([`refine`](crate::refine)) compute the same bits from both.

use crate::error::LinalgError;
use crate::matrix::Mat;
use crate::{flam, ops, Result};
use srda_kernels::{dense, Executor};

/// A symmetric matrix, read by rows.
#[derive(Debug, Clone, Copy)]
pub enum Symmetric<'a> {
    /// Every entry stored: both triangles are read.
    Full(&'a Mat),
    /// LAPACK's `uplo = 'U'` with a separate diagonal: `a_ij` is
    /// `upper[i][j]` for `j > i`, `upper[j][i]` for `j < i` and `diag[i]`
    /// for `j = i`. The diagonal and the strict lower triangle of `upper`
    /// are never read, so they may hold a Cholesky factor.
    Upper {
        /// The `n × n` buffer whose strict upper triangle is read.
        upper: &'a Mat,
        /// The `n` diagonal entries.
        diag: &'a [f64],
    },
}

impl<'a> From<&'a Mat> for Symmetric<'a> {
    fn from(a: &'a Mat) -> Self {
        Symmetric::Full(a)
    }
}

impl<'a> Symmetric<'a> {
    /// The matrix whose strict upper triangle is `upper`'s and whose
    /// diagonal is `diag`.
    ///
    /// # Panics
    /// If `upper` is not `diag.len()` square.
    pub fn upper(upper: &'a Mat, diag: &'a [f64]) -> Self {
        let n = diag.len();
        assert_eq!(upper.shape(), (n, n), "upper storage must be n × n");
        Symmetric::Upper { upper, diag }
    }

    /// `(rows, cols)`; a [`Full`](Symmetric::Full) matrix reports its own
    /// shape, square or not.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            Symmetric::Full(a) => a.shape(),
            Symmetric::Upper { diag, .. } => (diag.len(), diag.len()),
        }
    }

    /// Row `i` in ascending column order: borrowed from a
    /// [`Full`](Symmetric::Full) matrix, gathered into `scratch` from
    /// upper storage.
    pub fn row<'s>(&'s self, i: usize, scratch: &'s mut Vec<f64>) -> &'s [f64] {
        match *self {
            Symmetric::Full(a) => a.row(i),
            Symmetric::Upper { upper, diag } => {
                let n = diag.len();
                scratch.resize(n, 0.0);
                for (j, s) in scratch[..i].iter_mut().enumerate() {
                    *s = upper[(j, i)];
                }
                scratch[i] = diag[i];
                scratch[i + 1..].copy_from_slice(&upper.row(i)[i + 1..]);
                scratch
            }
        }
    }

    /// `Σ_j |a_ij|` for every row `i`, summed in ascending `j`. Upper
    /// storage is swept row by row and each strict-upper entry is added to
    /// both of its rows, which meets every row's terms in that same order.
    pub fn abs_row_sums(&self) -> Vec<f64> {
        match *self {
            Symmetric::Full(a) => (0..a.nrows())
                .map(|i| a.row(i).iter().map(|v| v.abs()).sum())
                .collect(),
            Symmetric::Upper { upper, diag } => {
                let mut sums = vec![0.0f64; diag.len()];
                for (i, d) in diag.iter().enumerate() {
                    let (head, below) = sums.split_at_mut(i + 1);
                    let mut sum = head[i] + d.abs();
                    for (t, v) in below.iter_mut().zip(&upper.row(i)[i + 1..]) {
                        let v = v.abs();
                        sum += v;
                        *t += v;
                    }
                    head[i] = sum;
                }
                sums
            }
        }
    }

    /// `max |a_ij|`, ignoring NaN as [`Mat::max_abs`] does.
    pub fn max_abs(&self) -> f64 {
        match *self {
            Symmetric::Full(a) => a.max_abs(),
            Symmetric::Upper { upper, diag } => {
                let strict = (0..diag.len()).flat_map(|i| &upper.row(i)[i + 1..]);
                diag.iter().chain(strict).fold(0.0, |m, &x| m.max(x.abs()))
            }
        }
    }

    /// `A·X` on `exec`: bitwise, and flam for flam, [`ops::matmul_exec`]
    /// of the full matrix.
    pub fn matmul_exec(&self, x: &Mat, exec: &Executor) -> Result<Mat> {
        match *self {
            Symmetric::Full(a) => ops::matmul_exec(a, x, exec),
            Symmetric::Upper { upper, diag } => {
                let n = diag.len();
                if x.nrows() != n {
                    return Err(LinalgError::ShapeMismatch {
                        op: "matmul",
                        lhs: (n, n),
                        rhs: x.shape(),
                    });
                }
                let k = x.ncols();
                flam::add((n * n * k) as u64);
                let mut c = Mat::zeros(n, k);
                dense::gemm_sym_upper(
                    exec,
                    upper.as_slice(),
                    diag,
                    x.as_slice(),
                    k,
                    c.as_mut_slice(),
                );
                Ok(c)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full symmetric matrix and its upper storage, with the storage's
    /// diagonal and strict lower triangle poisoned.
    fn pair(n: usize) -> (Mat, Mat, Vec<f64>) {
        let full = Mat::from_fn(n, n, |i, j| {
            let (a, b) = (i.min(j) as f64, i.max(j) as f64);
            ((a * 1.7 + b * 0.3).sin() * 1e3).fract() - if (i + j) % 7 == 0 { 3.0 } else { 0.0 }
        });
        let diag = full.diag();
        let upper = Mat::from_fn(n, n, |i, j| if j > i { full[(i, j)] } else { f64::NAN });
        (full, upper, diag)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn upper_storage_reads_as_the_full_matrix() {
        for n in [0usize, 1, 2, 9, 70] {
            let (full, upper, diag) = pair(n);
            let (f, u) = (Symmetric::from(&full), Symmetric::upper(&upper, &diag));
            assert_eq!(u.shape(), (n, n));
            let mut scratch = Vec::new();
            for i in 0..n {
                assert_eq!(
                    bits(u.row(i, &mut scratch)),
                    bits(f.row(i, &mut Vec::new()))
                );
            }
            assert_eq!(bits(&u.abs_row_sums()), bits(&f.abs_row_sums()));
            assert_eq!(u.max_abs().to_bits(), f.max_abs().to_bits());
            let x = Mat::from_fn(n, 3, |i, j| (i as f64 - j as f64 * 2.5) * 0.1);
            let exec = Executor::threaded(2);
            let (want, want_flam) = flam::measure(|| f.matmul_exec(&x, &exec).unwrap());
            let (got, got_flam) = flam::measure(|| u.matmul_exec(&x, &exec).unwrap());
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
            assert_eq!(got_flam, want_flam);
        }
    }

    #[test]
    fn upper_product_checks_its_shape() {
        let (_, upper, diag) = pair(4);
        let u = Symmetric::upper(&upper, &diag);
        assert!(u
            .matmul_exec(&Mat::zeros(3, 2), &Executor::serial())
            .is_err());
    }
}
