//! Blocked CSR kernels over raw index/value slices.
//!
//! `srda-sparse` owns the validated `CsrMatrix` type; this module only sees
//! the raw triple (`indptr`, `indices`, `values`) through a borrowed
//! [`CsrView`], so the kernels stay dependency-free while the structural
//! invariants (sorted, in-bounds column indices) are enforced upstream.

use crate::Executor;

/// Borrowed view of a CSR matrix.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row pointers, length `rows + 1`.
    pub indptr: &'a [usize],
    /// Column indices, sorted strictly increasing within each row.
    pub indices: &'a [usize],
    /// Non-zero values, parallel to `indices`.
    pub values: &'a [f64],
}

impl<'a> CsrView<'a> {
    /// Row `i`'s column indices and values, as two slices of equal length.
    #[inline]
    fn row(&self, i: usize) -> (&'a [usize], &'a [f64]) {
        let span = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[span.clone()], &self.values[span])
    }
}

/// `y = A·x`: row-parallel gather, one pass over the non-zeros.
///
/// Per-row accumulation order is the stored (ascending-column) order, same
/// as the historical serial loop, so results are backend-invariant.
pub fn csr_matvec(exec: &Executor, a: CsrView<'_>, x: &[f64], y: &mut [f64]) {
    exec.note_kernel("kernel.csr.matvec");
    debug_assert_eq!(x.len(), a.cols);
    debug_assert_eq!(y.len(), a.rows);
    debug_assert_eq!(a.indptr.len(), a.rows + 1);
    exec.for_each_row_block(y, 1, |first, block| {
        for (off, yv) in block.iter_mut().enumerate() {
            let (cols, vals) = a.row(first + off);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            *yv = acc;
        }
    });
}

/// `y = Aᵀ·x`: scatter form, executed as a deterministic block reduction.
///
/// Rows are grouped into fixed blocks of [`crate::REDUCE_BLOCK_ROWS`]
/// (shared with the dense `matvec_t`, so sparse-vs-dense equality tests
/// stay exact) and per-block partials are summed in ascending block order
/// on every backend. Rows with `x[i] == 0.0` are skipped.
pub fn csr_matvec_t(exec: &Executor, a: CsrView<'_>, x: &[f64], y: &mut [f64]) {
    exec.note_kernel("kernel.csr.matvec_t");
    debug_assert_eq!(x.len(), a.rows);
    debug_assert_eq!(y.len(), a.cols);
    debug_assert_eq!(a.indptr.len(), a.rows + 1);
    y.fill(0.0);
    exec.reduce_row_blocks(a.rows, y, |start, len, partial| {
        for (i, &xi) in x.iter().enumerate().take(start + len).skip(start) {
            if xi == 0.0 {
                continue;
            }
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                partial[j] += v * xi;
            }
        }
    });
}

/// Dense product `C = A·B` with `A` sparse (`m × n`) and `B` dense row-major
/// (`n × p`); row-parallel over `C`.
pub fn csr_matmul_dense(exec: &Executor, a: CsrView<'_>, b: &[f64], p: usize, c: &mut [f64]) {
    exec.note_kernel("kernel.csr.matmul_dense");
    debug_assert_eq!(b.len(), a.cols * p);
    debug_assert_eq!(c.len(), a.rows * p);
    exec.for_each_row_block(c, p.max(1), |first, block| {
        block.fill(0.0);
        for (off, crow) in block.chunks_mut(p.max(1)).enumerate() {
            let (cols, vals) = a.row(first + off);
            for (&j, &v) in cols.iter().zip(vals) {
                let brow = &b[j * p..(j + 1) * p];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += v * bv;
                }
            }
        }
    });
}

/// Dense outer Gram `G = A·Aᵀ` (`m × m`): [`csr_gram_t_upper`] with the
/// lower triangle mirrored afterwards.
pub fn csr_gram_t(exec: &Executor, a: CsrView<'_>, g: &mut [f64]) {
    let m = a.rows;
    csr_gram_t_upper(exec, a, g);
    crate::dense::mirror_upper(g, m);
}

/// The upper triangle, diagonal included, of the dense outer Gram
/// `G = A·Aᵀ` (`m × m`) by column-accumulated products, row-block-parallel;
/// the strict lower triangle of `g` is not written.
///
/// A column-major copy of the pattern is built once (O(nnz + cols)). Row
/// `i` of the upper triangle is then accumulated in place: for each stored
/// `a_ik`, in ascending `k`, the products `a_ik·a_jk` are added into
/// `g[i][j]` for the rows `j ≥ i` of column `k`. Every `g[i][j]` therefore
/// receives exactly the products a sorted-merge dot of rows `i` and `j`
/// would form, in the same ascending-`k` order, starting from `+0.0` — the
/// result is bitwise identical to that merge (stored zeros included), but
/// the work is `Σ_k nnz(col k)²/2` branch-free updates instead of `m²/2`
/// row intersections.
pub fn csr_gram_t_upper(exec: &Executor, a: CsrView<'_>, g: &mut [f64]) {
    exec.note_kernel("kernel.csr.gram_t");
    let m = a.rows;
    debug_assert_eq!(g.len(), m * m);
    let t = ColumnMajor::of(a);
    exec.for_each_row_block(g, m.max(1), |first, block| {
        for (off, grow) in block.chunks_mut(m.max(1)).enumerate() {
            let i = first + off;
            let upper = &mut grow[i..];
            upper.fill(0.0);
            for p in a.indptr[i]..a.indptr[i + 1] {
                let v = a.values[p];
                // `slot[p]` is row i's own place in its column, so the
                // range below is exactly the rows j ≥ i of column k.
                let end = t.colptr[a.indices[p] + 1];
                for q in t.slot[p]..end {
                    upper[t.rows[q] - i] += v * t.values[q];
                }
            }
        }
    });
}

/// Column-major (CSC) copy of a CSR pattern, rows ascending within each
/// column, plus the CSC position of every CSR entry.
struct ColumnMajor {
    colptr: Vec<usize>,
    rows: Vec<usize>,
    values: Vec<f64>,
    /// `slot[p]` is where CSR entry `p` landed in `rows`/`values`.
    slot: Vec<usize>,
}

impl ColumnMajor {
    fn of(a: CsrView<'_>) -> Self {
        let nnz = a.indptr[a.rows];
        let mut colptr = vec![0usize; a.cols + 1];
        for &k in &a.indices[..nnz] {
            colptr[k + 1] += 1;
        }
        for k in 0..a.cols {
            colptr[k + 1] += colptr[k];
        }
        let mut next = colptr[..a.cols].to_vec();
        let mut rows = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut slot = vec![0usize; nnz];
        for i in 0..a.rows {
            for p in a.indptr[i]..a.indptr[i + 1] {
                let q = &mut next[a.indices[p]];
                rows[*q] = i;
                values[*q] = a.values[p];
                slot[p] = *q;
                *q += 1;
            }
        }
        ColumnMajor {
            colptr,
            rows,
            values,
            slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random-ish CSR plus its dense image, for oracle checks.
    fn sample(rows: usize, cols: usize, seed: u64) -> (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).max(1);
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        let mut dense = vec![0.0; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(3) {
                    let v = (state % 100) as f64 / 10.0 - 5.0;
                    indices.push(j);
                    values.push(v);
                    dense[i * cols + j] = v;
                }
            }
            indptr.push(indices.len());
        }
        (indptr, indices, values, dense)
    }

    /// The historical sorted-merge outer Gram, kept as the bitwise oracle
    /// for [`csr_gram_t`].
    fn csr_gram_t_merge(a: CsrView<'_>, g: &mut [f64]) {
        let m = a.rows;
        for i in 0..m {
            for j in i..m {
                let (mut p, endp) = (a.indptr[i], a.indptr[i + 1]);
                let (mut q, endq) = (a.indptr[j], a.indptr[j + 1]);
                let mut acc = 0.0;
                while p < endp && q < endq {
                    match a.indices[p].cmp(&a.indices[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            acc += a.values[p] * a.values[q];
                            p += 1;
                            q += 1;
                        }
                    }
                }
                g[i * m + j] = acc;
                g[j * m + i] = acc;
            }
        }
    }

    /// CSR with empty rows, stored `±0.0`, and values of mixed magnitude
    /// (so a reordered sum would differ in the last bits).
    fn awkward_csr(rows: usize, cols: usize, seed: u64) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut indptr = vec![0usize];
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        for i in 0..rows {
            if i % 5 != 3 {
                for j in 0..cols {
                    let r = next();
                    if r % 4 == 0 {
                        let v = match r % 11 {
                            0 => 0.0,
                            1 => -0.0,
                            _ => ((r >> 20) % 2001) as f64 / 7.0 - 142.0,
                        };
                        indices.push(j);
                        values.push(v * [1.0, 1e-9, 3e7][(r % 3) as usize]);
                    }
                }
            }
            indptr.push(indices.len());
        }
        (indptr, indices, values)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn csr_gram_t_is_bitwise_the_sorted_merge() {
        for &(rows, cols, seed) in &[
            (0usize, 4usize, 1u64),
            (1, 1, 2),
            (9, 1, 3),
            (40, 1, 4),
            (33, 7, 5),
            (130, 40, 6),
            (70, 300, 7),
        ] {
            let (indptr, indices, values) = awkward_csr(rows, cols, seed);
            let view = CsrView {
                rows,
                cols,
                indptr: &indptr,
                indices: &indices,
                values: &values,
            };
            let mut expect = vec![0.0; rows * rows];
            csr_gram_t_merge(view, &mut expect);
            for t in [1usize, 2, 3, 64] {
                // stale output must be overwritten, not accumulated into
                let mut g = vec![f64::NAN; rows * rows];
                csr_gram_t(&Executor::threaded(t), view, &mut g);
                assert_eq!(bits(&g), bits(&expect), "{rows}x{cols} t={t}");
            }
        }
    }

    #[test]
    fn csr_gram_t_keeps_the_sign_of_stored_zeros() {
        // rows 0 and 1 meet only in stored zeros: the merge forms
        // 0.0 + (-0.0·5.0) = +0.0, and (−0.0)·(−0.0) on the diagonal.
        let indptr = [0usize, 2, 3, 3];
        let indices = [0usize, 2, 2];
        let values = [-0.0, 3.0, 0.0];
        let view = CsrView {
            rows: 3,
            cols: 3,
            indptr: &indptr,
            indices: &indices,
            values: &values,
        };
        let mut expect = vec![0.0; 9];
        csr_gram_t_merge(view, &mut expect);
        let mut g = vec![1.0; 9];
        csr_gram_t(&Executor::serial(), view, &mut g);
        assert_eq!(bits(&g), bits(&expect));
    }

    #[test]
    fn csr_matvec_pair_matches_dense_kernels() {
        for &rows in &[5usize, 1024, 1500] {
            let cols = 13;
            let (indptr, indices, values, dense) = sample(rows, cols, rows as u64);
            let view = CsrView {
                rows,
                cols,
                indptr: &indptr,
                indices: &indices,
                values: &values,
            };
            let x: Vec<f64> = (0..cols).map(|j| j as f64 - 4.0).collect();
            let xt: Vec<f64> = (0..rows)
                .map(|i| if i % 7 == 0 { 0.0 } else { i as f64 * 0.01 })
                .collect();
            for &t in &[1usize, 2, 4, 4096] {
                let exec = Executor::threaded(t);
                let mut y = vec![0.0; rows];
                csr_matvec(&exec, view, &x, &mut y);
                let mut yd = vec![0.0; rows];
                crate::dense::matvec(&Executor::serial(), &dense, rows, cols, &x, &mut yd);
                assert_eq!(y, yd, "matvec rows={rows} t={t}");

                let mut yt = vec![0.0; cols];
                csr_matvec_t(&exec, view, &xt, &mut yt);
                let mut ytd = vec![0.0; cols];
                crate::dense::matvec_t(&Executor::serial(), &dense, rows, cols, &xt, &mut ytd);
                assert_eq!(yt, ytd, "matvec_t rows={rows} t={t}");
            }
        }
    }

    #[test]
    fn csr_gram_t_and_matmul_dense_match_oracles() {
        let (rows, cols, p) = (17, 11, 5);
        let (indptr, indices, values, dense) = sample(rows, cols, 42);
        let view = CsrView {
            rows,
            cols,
            indptr: &indptr,
            indices: &indices,
            values: &values,
        };
        let b: Vec<f64> = (0..cols * p).map(|i| (i as f64 * 0.3).cos()).collect();
        let serial = {
            let mut g = vec![0.0; rows * rows];
            csr_gram_t(&Executor::serial(), view, &mut g);
            let mut c = vec![0.0; rows * p];
            csr_matmul_dense(&Executor::serial(), view, &b, p, &mut c);
            (g, c)
        };
        // oracle: dense gram_t
        for i in 0..rows {
            for j in 0..rows {
                let mut acc = 0.0;
                for k in 0..cols {
                    acc += dense[i * cols + k] * dense[j * cols + k];
                }
                assert!((serial.0[i * rows + j] - acc).abs() <= 1e-10);
            }
        }
        for &t in &[2usize, 3, 64] {
            let exec = Executor::threaded(t);
            let mut g = vec![0.0; rows * rows];
            csr_gram_t(&exec, view, &mut g);
            assert_eq!(g, serial.0, "gram_t t={t}");
            let mut c = vec![0.0; rows * p];
            csr_matmul_dense(&exec, view, &b, p, &mut c);
            assert_eq!(c, serial.1, "matmul_dense t={t}");
        }
    }
}
