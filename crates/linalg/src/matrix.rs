//! The dense, row-major `f64` matrix type used throughout the workspace.

use crate::error::LinalgError;
use crate::Result;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense matrix of `f64` in row-major order.
///
/// Row-major layout is chosen deliberately: the SRDA data convention in this
/// workspace stores **samples as rows**, so per-sample access (`row(i)`) is a
/// contiguous slice — the access pattern that dominates regression solvers
/// and Gram-matrix formation.
///
/// ```
/// use srda_linalg::Mat;
///
/// let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.row(0), &[1.0, 2.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Create a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Mat {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Create a square matrix with `diag` on its diagonal.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Mat::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Build a matrix by evaluating `f(row, col)` at each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Build a matrix from a slice of equal-length row vectors.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Mat::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::InvalidDimension {
                    context: "from_rows: rows have differing lengths",
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Mat {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Build a matrix from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidDimension {
                context: "from_vec: data length != rows * cols",
            });
        }
        Ok(Mat { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix, returning its row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Overwrite column `j` with the entries of `v`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        debug_assert_eq!(v.len(), self.rows);
        for (i, &x) in v.iter().enumerate() {
            self.data[i * self.cols + j] = x;
        }
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Return the transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                for i in ib..(ib + B).min(self.rows) {
                    for j in jb..(jb + B).min(self.cols) {
                        t.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        t
    }

    /// Extract the sub-matrix of the given rows (in order).
    pub fn select_rows(&self, idx: &[usize]) -> Mat {
        let mut out = Mat::zeros(idx.len(), self.cols);
        for (k, &i) in idx.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Extract the sub-matrix of the given columns (in order).
    pub fn select_cols(&self, idx: &[usize]) -> Mat {
        let mut out = Mat::zeros(self.rows, idx.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (k, &j) in idx.iter().enumerate() {
                dst[k] = src[j];
            }
        }
        out
    }

    /// Extract the contiguous block `[r0, r1) × [c0, c1)`.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Mat {
        debug_assert!(r0 <= r1 && r1 <= self.rows);
        debug_assert!(c0 <= c1 && c1 <= self.cols);
        let mut out = Mat::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            out.row_mut(i - r0).copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Horizontally concatenate `self` and `other` (`[self | other]`).
    pub fn hcat(&self, other: &Mat) -> Result<Mat> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hcat",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        Ok(out)
    }

    /// Vertically concatenate `self` on top of `other`.
    pub fn vcat(&self, other: &Mat) -> Result<Mat> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vcat",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Mat {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Append a constant column (the paper's §III.B bias-absorption trick:
    /// "append a new element 1 to each x").
    pub fn append_constant_col(&self, value: f64) -> Mat {
        let mut out = Mat::zeros(self.rows, self.cols + 1);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols] = value;
        }
        out
    }

    /// Copy of the main diagonal.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).collect()
    }

    /// Add `alpha` to each diagonal entry in place (ridge shift `A + αI`).
    pub fn add_to_diag(&mut self, alpha: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += alpha;
        }
    }

    /// Multiply every entry by `s` in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Return `self * s` as a new matrix.
    pub fn scaled(&self, s: f64) -> Mat {
        let mut m = self.clone();
        m.scale_inplace(s);
        m
    }

    /// Entry-wise sum `self + other`.
    pub fn add(&self, other: &Mat) -> Result<Mat> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Entry-wise difference `self - other`.
    pub fn sub(&self, other: &Mat) -> Result<Mat> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with(&self, other: &Mat, op: &'static str, f: impl Fn(f64, f64) -> f64) -> Result<Mat> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Frobenius norm `sqrt(Σ aᵢⱼ²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (`max |aᵢⱼ|`), 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// True if `|self - other|` is entry-wise within `tol`.
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Symmetrize in place: `A ← (A + Aᵀ)/2`. Cleans up rounding drift
    /// before handing a Gram matrix to the symmetric eigensolver.
    pub fn symmetrize(&mut self) {
        debug_assert!(self.is_square());
        let n = self.rows;
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (self.data[i * n + j] + self.data[j * n + i]);
                self.data[i * n + j] = avg;
                self.data[j * n + i] = avg;
            }
        }
    }

    /// Estimated memory footprint in bytes (used by the memory-budget guard
    /// that reproduces the paper's "can not be applied due to memory limit"
    /// entries in Tables IX/X).
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for i in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(max_show) {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(max_show) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_show {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Mat::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Mat::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Mat::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Mat::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Mat::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn indexing_row_major() {
        let m = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.col(1), vec![2., 5.]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::from_fn(5, 7, |i, j| (i * 7 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (7, 5));
        assert_eq!(t[(3, 2)], m[(2, 3)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_large_blocked() {
        let m = Mat::from_fn(67, 43, |i, j| (i as f64) * 1000.0 + j as f64);
        let t = m.transpose();
        for i in 0..67 {
            for j in 0..43 {
                assert_eq!(t[(j, i)], m[(i, j)]);
            }
        }
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Mat::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let r = m.select_rows(&[2, 0]);
        assert_eq!(r.row(0), m.row(2));
        assert_eq!(r.row(1), m.row(0));
        let c = m.select_cols(&[3, 1]);
        assert_eq!(c.col(0), m.col(3));
        assert_eq!(c.col(1), m.col(1));
    }

    #[test]
    fn block_extraction() {
        let m = Mat::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let b = m.block(1, 3, 2, 5);
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        assert_eq!(b[(1, 2)], m[(2, 4)]);
    }

    #[test]
    fn hcat_vcat() {
        let a = Mat::filled(2, 2, 1.0);
        let b = Mat::filled(2, 3, 2.0);
        let h = a.hcat(&b).unwrap();
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h[(0, 1)], 1.0);
        assert_eq!(h[(0, 4)], 2.0);

        let c = Mat::filled(3, 2, 4.0);
        let v = a.vcat(&c).unwrap();
        assert_eq!(v.shape(), (5, 2));
        assert_eq!(v[(4, 1)], 4.0);

        assert!(a.hcat(&c).is_err());
        assert!(a.vcat(&b).is_err());
    }

    #[test]
    fn append_constant_col_bias_trick() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let aug = a.append_constant_col(1.0);
        assert_eq!(aug.shape(), (2, 3));
        assert_eq!(aug.row(0), &[1.0, 2.0, 1.0]);
        assert_eq!(aug.row(1), &[3.0, 4.0, 1.0]);
    }

    #[test]
    fn diag_ops() {
        let mut m = Mat::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(m.diag(), vec![1.0, 2.0, 3.0]);
        m.add_to_diag(0.5);
        assert_eq!(m.diag(), vec![1.5, 2.5, 3.5]);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn arithmetic() {
        let a = Mat::filled(2, 2, 3.0);
        let b = Mat::filled(2, 2, 1.0);
        assert_eq!(a.add(&b).unwrap(), Mat::filled(2, 2, 4.0));
        assert_eq!(a.sub(&b).unwrap(), Mat::filled(2, 2, 2.0));
        assert_eq!(a.scaled(2.0), Mat::filled(2, 2, 6.0));
        assert!(a.add(&Mat::zeros(3, 3)).is_err());
    }

    #[test]
    fn norms() {
        let m = Mat::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn symmetrize_averages() {
        let mut m = Mat::from_rows(&[vec![1.0, 2.0], vec![4.0, 5.0]]).unwrap();
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m[(0, 0)], 1.0);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Mat::filled(2, 2, 1.0);
        let mut b = a.clone();
        b[(0, 0)] = 1.0 + 1e-10;
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-12));
        assert!(!a.approx_eq(&Mat::zeros(2, 3), 1.0));
    }

    #[test]
    fn finite_detection() {
        let mut m = Mat::zeros(2, 2);
        assert!(m.is_finite());
        m[(1, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn set_col_overwrites_one_column() {
        let mut m = Mat::zeros(2, 3);
        m.set_col(0, &[7.0, 8.0]);
        assert_eq!(m.row(1), &[8.0, 0.0, 0.0]);
        assert_eq!(m[(0, 0)], 7.0);
    }

    #[test]
    fn empty_matrix_behaviour() {
        let m = Mat::zeros(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.frobenius_norm(), 0.0);
        assert_eq!(m.max_abs(), 0.0);
        let r = Mat::from_rows(&[]).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn debug_format_does_not_panic() {
        let m = Mat::from_fn(10, 10, |i, j| (i + j) as f64);
        let s = format!("{m:?}");
        assert!(s.contains("Mat 10x10"));
        assert!(s.contains("..."));
    }
}
