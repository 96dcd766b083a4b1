//! Compressed sparse row storage and the `O(nnz)` kernels SRDA relies on.

use crate::{Result, SparseError};
use srda_kernels::sparse::CsrView;
use srda_kernels::Executor;
use srda_linalg::{flam, Mat};

/// Why a budgeted densification (e.g. [`CsrMatrix::gram_t_dense_checked`])
/// declined: the dense output would need more bytes than the budget allows.
///
/// Carried as an error value (rather than a bare `None`) so fit pipelines
/// can surface the exact numbers in their reports when they fall back to an
/// iterative solver — the paper's "LDA cannot be applied due to the memory
/// limit" dashes, made auditable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GramBudgetExceeded {
    /// Bytes the dense output would occupy (`u128`: cannot overflow even
    /// for absurd shapes).
    pub needed_bytes: u128,
    /// The configured budget in bytes.
    pub budget_bytes: usize,
}

impl std::fmt::Display for GramBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dense Gram matrix needs {} bytes but the memory budget is {} bytes",
            self.needed_bytes, self.budget_bytes
        )
    }
}

impl std::error::Error for GramBudgetExceeded {}

/// A compressed-sparse-row matrix of `f64`.
///
/// Invariants (checked by [`CsrMatrix::from_raw_parts`]):
/// * `indptr.len() == nrows + 1`, `indptr[0] == 0`, monotone non-decreasing,
///   `indptr[nrows] == indices.len() == values.len()`;
/// * within each row, column indices are strictly increasing and `< ncols`.
///
/// The paper's LSQR path needs only [`CsrMatrix::matvec`] and
/// [`CsrMatrix::matvec_t`], each one pass over the non-zeros — that is the
/// entire reason SRDA trains in linear time on text data.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Construct from raw CSR arrays, validating every structural invariant.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if indptr.len() != rows + 1 {
            return Err(SparseError::InvalidStructure {
                context: "indptr length must be nrows + 1",
            });
        }
        if indptr[0] != 0 || *indptr.last().unwrap() != indices.len() {
            return Err(SparseError::InvalidStructure {
                context: "indptr must start at 0 and end at nnz",
            });
        }
        if indices.len() != values.len() {
            return Err(SparseError::InvalidStructure {
                context: "indices and values must have equal length",
            });
        }
        for w in indptr.windows(2) {
            if w[0] > w[1] {
                return Err(SparseError::InvalidStructure {
                    context: "indptr must be monotone non-decreasing",
                });
            }
        }
        for r in 0..rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for (k, &c) in row.iter().enumerate() {
                if c >= cols {
                    return Err(SparseError::InvalidStructure {
                        context: "column index out of bounds",
                    });
                }
                if k > 0 && row[k - 1] >= c {
                    return Err(SparseError::InvalidStructure {
                        context: "column indices must be strictly increasing within a row",
                    });
                }
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// An empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: vec![],
            values: vec![],
        }
    }

    /// Convert a dense matrix, dropping entries with `|x| <= threshold`.
    pub fn from_dense(a: &Mat, threshold: f64) -> Self {
        let (m, n) = a.shape();
        let mut indptr = Vec::with_capacity(m + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in 0..m {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v.abs() > threshold {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: m,
            cols: n,
            indptr,
            indices,
            values,
        }
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Non-zeros in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Average non-zeros per row — the paper's `s` parameter in the
    /// `O(kcms)` sparse-SRDA cost.
    pub fn avg_row_nnz(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.rows as f64
        }
    }

    /// Fill fraction `nnz / (rows·cols)`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// The `(column, value)` pairs of row `i`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.indptr[i]..self.indptr[i + 1];
        self.indices[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Value at `(i, j)` (binary search within the row; 0.0 if absent).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let row = &self.indices[self.indptr[i]..self.indptr[i + 1]];
        match row.binary_search(&j) {
            Ok(k) => self.values[self.indptr[i] + k],
            Err(_) => 0.0,
        }
    }

    /// Borrowed raw-slice view for the `srda-kernels` layer.
    fn view(&self) -> CsrView<'_> {
        CsrView {
            rows: self.rows,
            cols: self.cols,
            indptr: &self.indptr,
            indices: &self.indices,
            values: &self.values,
        }
    }

    /// `y = A·x` in one pass over the non-zeros.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        self.matvec_exec(x, &Executor::serial())
    }

    /// `y = A·x` on the given executor (row-parallel under the threaded
    /// backend; results are identical on every backend).
    pub fn matvec_exec(&self, x: &[f64], exec: &Executor) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(SparseError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        flam::add(self.nnz() as u64);
        let mut y = vec![0.0; self.rows];
        srda_kernels::sparse::csr_matvec(exec, self.view(), x, &mut y);
        Ok(y)
    }

    /// `y = A·x` into a caller-provided buffer (no allocation) on the
    /// given executor. `y.len()` must equal `nrows()`.
    pub fn matvec_into_exec(&self, x: &[f64], y: &mut [f64], exec: &Executor) -> Result<()> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(SparseError::ShapeMismatch {
                op: "matvec_into",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        flam::add(self.nnz() as u64);
        srda_kernels::sparse::csr_matvec(exec, self.view(), x, y);
        Ok(())
    }

    /// `y = Aᵀ·x` in one pass over the non-zeros (scatter form; no
    /// transposed copy is materialized).
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        self.matvec_t_exec(x, &Executor::serial())
    }

    /// `y = Aᵀ·x` into a caller-provided buffer (no allocation) on the
    /// given executor. `y.len()` must equal `ncols()`.
    pub fn matvec_t_into_exec(&self, x: &[f64], y: &mut [f64], exec: &Executor) -> Result<()> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(SparseError::ShapeMismatch {
                op: "matvec_t_into",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        flam::add(self.nnz() as u64);
        srda_kernels::sparse::csr_matvec_t(exec, self.view(), x, y);
        Ok(())
    }

    /// `y = Aᵀ·x` on the given executor. Executed as a deterministic block
    /// reduction (fixed block size shared with the dense kernel), so the
    /// result is identical for every backend and thread count.
    pub fn matvec_t_exec(&self, x: &[f64], exec: &Executor) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(SparseError::ShapeMismatch {
                op: "matvec_t",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        flam::add(self.nnz() as u64);
        let mut y = vec![0.0; self.cols];
        srda_kernels::sparse::csr_matvec_t(exec, self.view(), x, &mut y);
        Ok(y)
    }

    /// Dense `m × p` product `A·B` (used when projecting sparse data through
    /// a learned dense embedding; cost `O(nnz · p)`).
    pub fn matmul_dense(&self, b: &Mat) -> Result<Mat> {
        self.matmul_dense_exec(b, &Executor::serial())
    }

    /// Dense product `A·B` on the given executor (row-parallel).
    pub fn matmul_dense_exec(&self, b: &Mat, exec: &Executor) -> Result<Mat> {
        if self.cols != b.nrows() {
            return Err(SparseError::ShapeMismatch {
                op: "matmul_dense",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        let p = b.ncols();
        flam::add((self.nnz() * p) as u64);
        let mut out = Mat::zeros(self.rows, p);
        srda_kernels::sparse::csr_matmul_dense(
            exec,
            self.view(),
            b.as_slice(),
            p,
            out.as_mut_slice(),
        );
        Ok(out)
    }

    /// Extract the sub-matrix of the given rows (in order). `O(output nnz)`.
    pub fn select_rows(&self, idx: &[usize]) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(idx.len() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for &i in idx {
            let span = self.indptr[i]..self.indptr[i + 1];
            indices.extend_from_slice(&self.indices[span.clone()]);
            values.extend_from_slice(&self.values[span]);
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: idx.len(),
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Transposed copy, still in CSR (i.e. CSR of `Aᵀ`). `O(nnz + cols)`.
    pub fn transpose(&self) -> CsrMatrix {
        // counting sort by column
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for i in 0..self.rows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let c = self.indices[k];
                let pos = next[c];
                next[c] += 1;
                indices[pos] = i;
                values[pos] = self.values[k];
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Materialize as a dense matrix. Refuses (returns `None`) if the dense
    /// form would exceed `budget_bytes` — this guard is how the benchmark
    /// harness reproduces the paper's "LDA can not be applied as the size of
    /// training set increases due to the memory limit" entries.
    pub fn to_dense_bounded(&self, budget_bytes: usize) -> Option<Mat> {
        let need = self.rows.checked_mul(self.cols)?.checked_mul(8)?;
        if need > budget_bytes {
            return None;
        }
        let mut out = Mat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let row = out.row_mut(i);
            for k in self.indptr[i]..self.indptr[i + 1] {
                row[self.indices[k]] = self.values[k];
            }
        }
        Some(out)
    }

    /// Materialize as a dense matrix with no budget check.
    pub fn to_dense(&self) -> Mat {
        self.to_dense_bounded(usize::MAX)
            .expect("unbounded to_dense cannot fail")
    }

    /// Normalize every row to unit L2 norm in place (zero rows untouched) —
    /// the preprocessing the paper applies to 20Newsgroups term-frequency
    /// vectors.
    pub fn normalize_rows_l2(&mut self) {
        for i in 0..self.rows {
            let span = self.indptr[i]..self.indptr[i + 1];
            let norm = self.values[span.clone()]
                .iter()
                .map(|v| v * v)
                .sum::<f64>()
                .sqrt();
            if norm > 0.0 {
                for v in &mut self.values[span] {
                    *v /= norm;
                }
            }
        }
    }

    /// Column means (`1/m · Σ rows`) without densifying.
    pub fn col_means(&self) -> Vec<f64> {
        let mut mu = vec![0.0; self.cols];
        for (k, &c) in self.indices.iter().enumerate() {
            mu[c] += self.values[k];
        }
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f64;
            for v in &mut mu {
                *v *= inv;
            }
        }
        mu
    }

    /// Dense outer Gram matrix `A·Aᵀ` (`m × m`), accumulated column by
    /// column from a transposed copy of the pattern — `Σ_k nnz(col k)²/2`
    /// multiply-adds, never densifying `A`. Returns `None` if the `m × m`
    /// output would exceed `budget_bytes` (the Tables IX/X memory guard).
    /// Prefer [`CsrMatrix::gram_t_dense_checked`], which reports the
    /// decline reason instead of swallowing it.
    pub fn gram_t_dense_bounded(&self, budget_bytes: usize) -> Option<Mat> {
        self.gram_t_dense_checked(budget_bytes).ok()
    }

    /// Like [`CsrMatrix::gram_t_dense_bounded`], but a decline carries the
    /// exact needed-vs-budget byte counts for fit-report surfacing.
    pub fn gram_t_dense_checked(
        &self,
        budget_bytes: usize,
    ) -> std::result::Result<Mat, GramBudgetExceeded> {
        self.gram_t_dense_checked_exec(budget_bytes, &Executor::serial())
    }

    /// Budgeted dense outer Gram on the given executor
    /// ([`srda_kernels::sparse::csr_gram_t`]): the upper triangle of
    /// [`CsrMatrix::gram_t_upper_checked_exec`], mirrored into the lower.
    pub fn gram_t_dense_checked_exec(
        &self,
        budget_bytes: usize,
        exec: &Executor,
    ) -> std::result::Result<Mat, GramBudgetExceeded> {
        let mut g = self.gram_t_upper_checked_exec(budget_bytes, exec)?;
        srda_kernels::dense::mirror_upper(g.as_mut_slice(), self.rows);
        Ok(g)
    }

    /// The upper triangle, diagonal included, of the budgeted dense outer
    /// Gram ([`srda_kernels::sparse::csr_gram_t_upper`]); the strict lower
    /// triangle is left zero. The budget is charged the whole `m × m`
    /// matrix. A column-major copy of the pattern (O(nnz + cols) extra
    /// memory, freed on return) is built once; each upper-triangle row `i`
    /// then adds `a_ik·a_jk` for the rows `j ≥ i` of every column `k` it
    /// touches, in ascending `k`. Each entry is bitwise the sorted-merge
    /// dot of rows `i` and `j`, and the rows are block-parallel under the
    /// threaded backend with identical numerics on every backend.
    pub fn gram_t_upper_checked_exec(
        &self,
        budget_bytes: usize,
        exec: &Executor,
    ) -> std::result::Result<Mat, GramBudgetExceeded> {
        let need = self.rows as u128 * self.rows as u128 * 8;
        if need > budget_bytes as u128 {
            return Err(GramBudgetExceeded {
                needed_bytes: need,
                budget_bytes,
            });
        }
        flam::add((self.rows * self.nnz().max(1)) as u64 / 2);
        let mut g = Mat::zeros(self.rows, self.rows);
        srda_kernels::sparse::csr_gram_t_upper(exec, self.view(), g.as_mut_slice());
        Ok(g)
    }

    /// Estimated memory footprint in bytes of the CSR arrays.
    pub fn memory_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooBuilder;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 1.0).unwrap();
        b.push(0, 2, 2.0).unwrap();
        b.push(2, 0, 3.0).unwrap();
        b.push(2, 1, 4.0).unwrap();
        b.build()
    }

    #[test]
    fn raw_parts_validation() {
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1, 1], vec![0], vec![1.0]).is_ok());
        // bad indptr length
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // indptr not ending at nnz
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1, 2], vec![0], vec![1.0]).is_err());
        // decreasing indptr
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1, 0], vec![0], vec![1.0]).is_err());
        // column out of range
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // unsorted columns within a row
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        // duplicate column within a row
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let d = a.to_dense();
        let x = [1.0, -1.0, 2.0];
        let ys = a.matvec(&x).unwrap();
        let yd = srda_linalg::ops::matvec(&d, &x).unwrap();
        assert_eq!(ys, yd);
    }

    #[test]
    fn matvec_t_matches_dense() {
        let a = sample();
        let d = a.to_dense();
        let x = [1.0, 2.0, -1.0];
        let ys = a.matvec_t(&x).unwrap();
        let yd = srda_linalg::ops::matvec_t(&d, &x).unwrap();
        assert_eq!(ys, yd);
    }

    #[test]
    fn matvec_shape_checks() {
        let a = sample();
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.matvec_t(&[1.0]).is_err());
    }

    #[test]
    fn matmul_dense_matches() {
        let a = sample();
        let b = Mat::from_fn(3, 2, |i, j| (i + j) as f64);
        let prod = a.matmul_dense(&b).unwrap();
        let expect = srda_linalg::ops::matmul(&a.to_dense(), &b).unwrap();
        assert!(prod.approx_eq(&expect, 1e-14));
        assert!(a.matmul_dense(&Mat::zeros(2, 2)).is_err());
    }

    #[test]
    fn get_and_row_entries() {
        let a = sample();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 1), 4.0);
        let entries: Vec<_> = a.row_entries(2).collect();
        assert_eq!(entries, vec![(0, 3.0), (1, 4.0)]);
        assert_eq!(a.row_entries(1).count(), 0);
    }

    #[test]
    fn stats() {
        let a = sample();
        assert_eq!(a.nnz(), 4);
        assert!((a.avg_row_nnz() - 4.0 / 3.0).abs() < 1e-15);
        assert!((a.density() - 4.0 / 9.0).abs() < 1e-15);
        assert_eq!(a.row_nnz(1), 0);
    }

    #[test]
    fn select_rows_subset() {
        let a = sample();
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s.get(0, 1), 4.0);
        assert_eq!(s.get(1, 2), 2.0);
        assert_eq!(s.nnz(), 4);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = sample();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(2, 0), 2.0);
        let tt = t.transpose();
        assert_eq!(tt, a);
        // transpose matches dense transpose
        assert!(t.to_dense().approx_eq(&a.to_dense().transpose(), 0.0));
    }

    #[test]
    fn dense_roundtrip() {
        let d = Mat::from_fn(4, 5, |i, j| {
            if (i + j) % 3 == 0 {
                (i * j) as f64
            } else {
                0.0
            }
        });
        let s = CsrMatrix::from_dense(&d, 0.0);
        assert!(s.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn gram_t_matches_dense_oracle() {
        let a = sample();
        let g = a.gram_t_dense_bounded(usize::MAX).unwrap();
        let expect = srda_linalg::ops::gram_t(&a.to_dense());
        assert!(g.approx_eq(&expect, 1e-14));
        // budget guard
        assert!(a.gram_t_dense_bounded(8).is_none());
    }

    #[test]
    fn gram_t_checked_reports_decline_reason() {
        let a = sample(); // 3x3 -> dense Gram needs 3*3*8 = 72 bytes
        let err = a.gram_t_dense_checked(8).unwrap_err();
        assert_eq!(err.needed_bytes, 72);
        assert_eq!(err.budget_bytes, 8);
        let msg = err.to_string();
        assert!(msg.contains("72 bytes") && msg.contains("8 bytes"), "{msg}");
        assert!(a.gram_t_dense_checked(72).is_ok());
    }

    #[test]
    fn exec_products_match_serial_bitwise() {
        // Large enough to straddle block boundaries; thread counts beyond
        // the row count must also agree exactly.
        let d = Mat::from_fn(130, 37, |i, j| {
            if (i * 13 + j * 7) % 3 == 0 {
                ((i * 5 + j) % 17) as f64 - 8.0
            } else {
                0.0
            }
        });
        let a = CsrMatrix::from_dense(&d, 0.0);
        let x: Vec<f64> = (0..37).map(|j| j as f64 * 0.5 - 9.0).collect();
        let xt: Vec<f64> = (0..130)
            .map(|i| if i % 4 == 0 { 0.0 } else { i as f64 * 0.01 })
            .collect();
        let b = Mat::from_fn(37, 6, |i, j| (i as f64 - j as f64) * 0.25);
        let serial = srda_kernels::Executor::serial();
        for &t in &[2usize, 4, 512] {
            let exec = srda_kernels::Executor::threaded(t);
            assert_eq!(
                a.matvec_exec(&x, &exec).unwrap(),
                a.matvec_exec(&x, &serial).unwrap()
            );
            assert_eq!(
                a.matvec_t_exec(&xt, &exec).unwrap(),
                a.matvec_t_exec(&xt, &serial).unwrap()
            );
            assert!(a
                .matmul_dense_exec(&b, &exec)
                .unwrap()
                .approx_eq(&a.matmul_dense_exec(&b, &serial).unwrap(), 0.0));
            assert!(a
                .gram_t_dense_checked_exec(usize::MAX, &exec)
                .unwrap()
                .approx_eq(
                    &a.gram_t_dense_checked_exec(usize::MAX, &serial).unwrap(),
                    0.0
                ));
        }
    }

    #[test]
    fn memory_guard_refuses_large_densification() {
        let a = sample();
        assert!(a.to_dense_bounded(8).is_none()); // 3*3*8 = 72 bytes needed
        assert!(a.to_dense_bounded(72).is_some());
    }

    #[test]
    fn row_normalization() {
        let mut a = sample();
        a.normalize_rows_l2();
        let n0 = (a.get(0, 0).powi(2) + a.get(0, 2).powi(2)).sqrt();
        assert!((n0 - 1.0).abs() < 1e-14);
        // empty row untouched
        assert_eq!(a.row_nnz(1), 0);
    }

    #[test]
    fn col_means_match_dense() {
        let a = sample();
        let mu = a.col_means();
        let dense_mu = srda_linalg::stats::col_means(&a.to_dense());
        assert_eq!(mu, dense_mu);
    }

    #[test]
    fn zeros_constructor() {
        let z = CsrMatrix::zeros(3, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.matvec(&[1.0; 4]).unwrap(), vec![0.0; 3]);
    }
}
