//! The matrix-free operator interface and its implementations.
//!
//! LSQR touches the data only through `A·v` and `Aᵀ·u`. The paper leans on
//! this twice: it is why sparse data stays sparse (§III.C.2), and why even
//! out-of-core data "can still be applied with some reasonable disk I/O".
//! Everything the SRDA core needs from a data matrix is captured here.

use srda_linalg::{Executor, Mat};
use srda_sparse::CsrMatrix;

/// A linear operator `A : ℝⁿ → ℝᵐ` exposed through its two matrix-vector
/// products.
pub trait LinearOperator {
    /// Number of rows `m` (samples, in the SRDA convention).
    fn nrows(&self) -> usize;
    /// Number of columns `n` (features).
    fn ncols(&self) -> usize;
    /// `y = A·x` into a caller-provided buffer (`x.len() == ncols()`,
    /// `y.len() == nrows()`) — what the LSQR inner loop calls once
    /// per iteration. Every entry of `y` is overwritten.
    fn apply_into(&self, x: &[f64], y: &mut [f64]);
    /// `y = Aᵀ·x` into a caller-provided buffer (`x.len() == nrows()`,
    /// `y.len() == ncols()`).
    fn apply_t_into(&self, x: &[f64], y: &mut [f64]);
    /// `y = A·x` into a fresh vector: [`LinearOperator::apply_into`] on a
    /// zeroed buffer.
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows()];
        self.apply_into(x, &mut y);
        y
    }
    /// `y = Aᵀ·x` into a fresh vector: [`LinearOperator::apply_t_into`] on
    /// a zeroed buffer.
    fn apply_t(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.ncols()];
        self.apply_t_into(x, &mut y);
        y
    }
    /// `Y = A·X` for a row-major `ncols() × p` block `X`, into the
    /// row-major `nrows() × p` block `Y`.
    ///
    /// Each column of `Y` must be bitwise [`LinearOperator::apply_into`]
    /// of the matching column of `X`: lockstep LSQR
    /// ([`crate::lsqr::lsqr_panel`]) relies on it to keep every column's
    /// trajectory that of a single-vector solve. The default makes one
    /// `apply_into` per column (directly, with no gather, when `p = 1`);
    /// operators that stream their data override it to make one pass.
    fn apply_block_into(&self, x: &[f64], p: usize, y: &mut [f64]) {
        if p == 1 {
            return self.apply_into(x, y);
        }
        per_column(x, p, y, |xc, yc| self.apply_into(xc, yc));
    }
    /// `Y = Aᵀ·X` for a row-major `nrows() × p` block `X`, into the
    /// row-major `ncols() × p` block `Y`; the column contract of
    /// [`LinearOperator::apply_block_into`] holds for
    /// [`LinearOperator::apply_t_into`].
    fn apply_t_block_into(&self, x: &[f64], p: usize, y: &mut [f64]) {
        if p == 1 {
            return self.apply_t_into(x, y);
        }
        per_column(x, p, y, |xc, yc| self.apply_t_into(xc, yc));
    }
    /// Whether a block product is one pass over the data whatever its
    /// width — `true` only where the block products are native, as for
    /// [`srda_sparse::DiskCsr`]. Lockstep fits solve their responses in
    /// panels only through such operators; with the per-column defaults a
    /// panel would share nothing and only add the gathers and scatters.
    fn shares_block_passes(&self) -> bool {
        false
    }
}

/// Apply the single-vector product `f` to each column of the row-major
/// block `x` (`p` columns), scattering each result into the matching
/// column of `y`.
fn per_column(x: &[f64], p: usize, y: &mut [f64], mut f: impl FnMut(&[f64], &mut [f64])) {
    if p == 0 {
        return;
    }
    let mut xc = vec![0.0; x.len() / p];
    let mut yc = vec![0.0; y.len() / p];
    for j in 0..p {
        for (xi, row) in xc.iter_mut().zip(x.chunks_exact(p)) {
            *xi = row[j];
        }
        f(&xc, &mut yc);
        for (row, yi) in y.chunks_exact_mut(p).zip(&yc) {
            row[j] = *yi;
        }
    }
}

impl LinearOperator for Mat {
    fn nrows(&self) -> usize {
        Mat::nrows(self)
    }
    fn ncols(&self) -> usize {
        Mat::ncols(self)
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        srda_linalg::ops::matvec_into_exec(self, x, y, &Executor::serial())
            .expect("operator shape invariant");
    }
    fn apply_t_into(&self, x: &[f64], y: &mut [f64]) {
        srda_linalg::ops::matvec_t_into_exec(self, x, y, &Executor::serial())
            .expect("operator shape invariant");
    }
}

impl LinearOperator for CsrMatrix {
    fn nrows(&self) -> usize {
        CsrMatrix::nrows(self)
    }
    fn ncols(&self) -> usize {
        CsrMatrix::ncols(self)
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into_exec(x, y, &Executor::serial())
            .expect("operator shape invariant");
    }
    fn apply_t_into(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_t_into_exec(x, y, &Executor::serial())
            .expect("operator shape invariant");
    }
}

/// A dense matrix routed through a specific [`Executor`]: identical
/// numerics to the `Mat` operator impl on every backend, with the products
/// row-parallel on a threaded executor.
pub struct ExecDense<'a> {
    mat: &'a Mat,
    exec: Executor,
}

impl<'a> ExecDense<'a> {
    /// Wrap `mat` so its operator products run on `exec`.
    pub fn new(mat: &'a Mat, exec: Executor) -> Self {
        ExecDense { mat, exec }
    }
}

impl LinearOperator for ExecDense<'_> {
    fn nrows(&self) -> usize {
        self.mat.nrows()
    }
    fn ncols(&self) -> usize {
        self.mat.ncols()
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        srda_linalg::ops::matvec_into_exec(self.mat, x, y, &self.exec)
            .expect("operator shape invariant");
    }
    fn apply_t_into(&self, x: &[f64], y: &mut [f64]) {
        srda_linalg::ops::matvec_t_into_exec(self.mat, x, y, &self.exec)
            .expect("operator shape invariant");
    }
}

/// A CSR matrix routed through a specific [`Executor`]; see [`ExecDense`].
pub struct ExecCsr<'a> {
    csr: &'a CsrMatrix,
    exec: Executor,
}

impl<'a> ExecCsr<'a> {
    /// Wrap `csr` so its operator products run on `exec`.
    pub fn new(csr: &'a CsrMatrix, exec: Executor) -> Self {
        ExecCsr { csr, exec }
    }
}

impl LinearOperator for ExecCsr<'_> {
    fn nrows(&self) -> usize {
        self.csr.nrows()
    }
    fn ncols(&self) -> usize {
        self.csr.ncols()
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.csr
            .matvec_into_exec(x, y, &self.exec)
            .expect("operator shape invariant");
    }
    fn apply_t_into(&self, x: &[f64], y: &mut [f64]) {
        self.csr
            .matvec_t_into_exec(x, y, &self.exec)
            .expect("operator shape invariant");
    }
}

/// Out-of-core operator: the paper's "reasonable disk I/O" mode. Each
/// product — a block product included, whatever its width — is one
/// sequential scan of the on-disk non-zeros; only the row pointers stay
/// resident.
///
/// An operator has no error channel, so a mid-solve disk failure is
/// signalled by returning an all-NaN product.
/// [`crate::lsqr`](mod@crate::lsqr) rejects non-finite operator output
/// and stops with [`crate::StopReason::Diverged`], which the fit layer
/// converts into a proper error — the failure surfaces to the caller
/// instead of aborting the process or leaking NaN into a model.
impl LinearOperator for srda_sparse::DiskCsr {
    fn nrows(&self) -> usize {
        srda_sparse::DiskCsr::nrows(self)
    }
    fn ncols(&self) -> usize {
        srda_sparse::DiskCsr::ncols(self)
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.apply_block_into(x, 1, y);
    }
    fn apply_t_into(&self, x: &[f64], y: &mut [f64]) {
        self.apply_t_block_into(x, 1, y);
    }
    fn apply_block_into(&self, x: &[f64], p: usize, y: &mut [f64]) {
        if self.matmul_into(x, p, y).is_err() {
            y.fill(f64::NAN);
        }
    }
    fn apply_t_block_into(&self, x: &[f64], p: usize, y: &mut [f64]) {
        if self.matmul_t_into(x, p, y).is_err() {
            y.fill(f64::NAN);
        }
    }
    fn shares_block_passes(&self) -> bool {
        true
    }
}

/// Wraps an operator as `[A | 1]`: a virtual all-ones last column.
///
/// This is the paper's bias-absorption trick (§III.B) in matrix-free form:
/// the augmented solution vector is `[a; b]` with `b` the intercept, and no
/// augmented copy of the data is ever materialized.
pub struct AugmentedOp<'a, A: LinearOperator + ?Sized> {
    inner: &'a A,
}

impl<'a, A: LinearOperator + ?Sized> AugmentedOp<'a, A> {
    /// Wrap `inner` with a virtual constant-1 column appended.
    pub fn new(inner: &'a A) -> Self {
        AugmentedOp { inner }
    }
}

impl<A: LinearOperator + ?Sized> LinearOperator for AugmentedOp<'_, A> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols() + 1
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols());
        let (head, bias) = x.split_at(x.len() - 1);
        self.inner.apply_into(head, y);
        let b = bias[0];
        if b != 0.0 {
            for yi in y.iter_mut() {
                *yi += b;
            }
        }
    }
    fn apply_t_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.nrows());
        debug_assert_eq!(y.len(), self.ncols());
        let (head, bias) = y.split_at_mut(self.inner.ncols());
        self.inner.apply_t_into(x, head);
        bias[0] = x.iter().sum();
    }
    fn apply_block_into(&self, x: &[f64], p: usize, y: &mut [f64]) {
        if p == 1 {
            return self.apply_into(x, y);
        }
        debug_assert_eq!(x.len(), self.ncols() * p);
        // the bias coefficients are the block's last row
        let (head, bias) = x.split_at(self.inner.ncols() * p);
        self.inner.apply_block_into(head, p, y);
        for row in y.chunks_exact_mut(p.max(1)) {
            for (yi, &b) in row.iter_mut().zip(bias) {
                if b != 0.0 {
                    *yi += b;
                }
            }
        }
    }
    fn apply_t_block_into(&self, x: &[f64], p: usize, y: &mut [f64]) {
        if p == 1 {
            return self.apply_t_into(x, y);
        }
        debug_assert_eq!(x.len(), self.nrows() * p);
        debug_assert_eq!(y.len(), self.ncols() * p);
        let (head, bias) = y.split_at_mut(self.inner.ncols() * p);
        self.inner.apply_t_block_into(x, p, head);
        // -0.0 is the identity `Iterator::sum` folds from, so each column
        // sums bitwise like `apply_t_into`'s `x.iter().sum()`
        bias.fill(-0.0);
        for row in x.chunks_exact(p.max(1)) {
            for (s, xi) in bias.iter_mut().zip(row) {
                *s += xi;
            }
        }
    }
    fn shares_block_passes(&self) -> bool {
        self.inner.shares_block_passes()
    }
}

/// Wraps an operator as the implicitly centered matrix `X − 1·μᵀ`.
///
/// `(X − 1μᵀ)·v = X·v − (μᵀv)·1` and `(X − 1μᵀ)ᵀ·u = Xᵀ·u − (1ᵀu)·μ`, so
/// centering costs one extra rank-one correction per product and a sparse
/// `X` is never densified. This is the alternative to the bias trick that
/// DESIGN.md's ablation benches compare against.
pub struct CenteredOp<'a, A: LinearOperator + ?Sized> {
    inner: &'a A,
    mu: Vec<f64>,
}

impl<'a, A: LinearOperator + ?Sized> CenteredOp<'a, A> {
    /// Wrap `inner`, subtracting the row `mu` from every virtual row.
    /// Panics if `mu.len() != inner.ncols()`.
    pub fn new(inner: &'a A, mu: Vec<f64>) -> Self {
        assert_eq!(mu.len(), inner.ncols(), "mean length must match ncols");
        CenteredOp { inner, mu }
    }
}

impl<A: LinearOperator + ?Sized> LinearOperator for CenteredOp<'_, A> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply_into(x, y);
        let shift = srda_linalg::vector::dot(&self.mu, x);
        for yi in y.iter_mut() {
            *yi -= shift;
        }
    }
    fn apply_t_into(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply_t_into(x, y);
        let s: f64 = x.iter().sum();
        srda_linalg::vector::axpy(-s, &self.mu, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srda_sparse::CooBuilder;

    fn dense() -> Mat {
        Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap()
    }

    #[test]
    fn dense_operator_matches_kernels() {
        let a = dense();
        let y = LinearOperator::apply(&a, &[1.0, -1.0]);
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
        let yt = LinearOperator::apply_t(&a, &[1.0, 0.0, 1.0]);
        assert_eq!(yt, vec![6.0, 8.0]);
    }

    #[test]
    fn sparse_operator_matches_dense() {
        let d = dense();
        let mut b = CooBuilder::new(3, 2);
        for i in 0..3 {
            for j in 0..2 {
                b.push(i, j, d[(i, j)]).unwrap();
            }
        }
        let s = b.build();
        let x = [0.5, -2.0];
        assert_eq!(LinearOperator::apply(&s, &x), LinearOperator::apply(&d, &x));
        let u = [1.0, 2.0, 3.0];
        assert_eq!(
            LinearOperator::apply_t(&s, &u),
            LinearOperator::apply_t(&d, &u)
        );
    }

    #[test]
    fn augmented_matches_explicit_column() {
        let a = dense();
        let aug = AugmentedOp::new(&a);
        assert_eq!(aug.ncols(), 3);
        assert_eq!(aug.nrows(), 3);
        let explicit = a.append_constant_col(1.0);
        let x = [1.0, -0.5, 2.0];
        assert_eq!(aug.apply(&x), LinearOperator::apply(&explicit, &x));
        let u = [0.5, 1.5, -1.0];
        assert_eq!(aug.apply_t(&u), LinearOperator::apply_t(&explicit, &u));
    }

    #[test]
    fn augmented_zero_bias_shortcut() {
        let a = dense();
        let aug = AugmentedOp::new(&a);
        let x = [1.0, 1.0, 0.0];
        assert_eq!(aug.apply(&x), LinearOperator::apply(&a, &[1.0, 1.0]));
    }

    #[test]
    fn centered_matches_explicit_centering() {
        let a = dense();
        let mu = srda_linalg::stats::col_means(&a);
        let centered_explicit = srda_linalg::stats::center_rows(&a, &mu);
        let op = CenteredOp::new(&a, mu);
        let x = [2.0, -1.0];
        let y1 = op.apply(&x);
        let y2 = LinearOperator::apply(&centered_explicit, &x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12);
        }
        let u = [1.0, -2.0, 0.5];
        let t1 = op.apply_t(&u);
        let t2 = LinearOperator::apply_t(&centered_explicit, &u);
        for (x1, x2) in t1.iter().zip(&t2) {
            assert!((x1 - x2).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "mean length")]
    fn centered_checks_mu_length() {
        let a = dense();
        let _ = CenteredOp::new(&a, vec![0.0; 5]);
    }

    #[test]
    fn apply_into_matches_apply_for_all_operators() {
        let a = dense();
        let mu = srda_linalg::stats::col_means(&a);
        let mut b = CooBuilder::new(3, 2);
        for i in 0..3 {
            for j in 0..2 {
                b.push(i, j, a[(i, j)]).unwrap();
            }
        }
        let s = b.build();
        let centered = CenteredOp::new(&a, mu);
        let aug = AugmentedOp::new(&a);
        let exec_d = ExecDense::new(&a, Executor::threaded(3));
        let exec_s = ExecCsr::new(&s, Executor::threaded(3));

        fn check<A: LinearOperator + ?Sized>(op: &A, label: &str) {
            let x: Vec<f64> = (0..op.ncols()).map(|j| j as f64 * 0.5 - 1.0).collect();
            let u: Vec<f64> = (0..op.nrows()).map(|i| 1.5 - i as f64).collect();
            let mut y = vec![f64::NAN; op.nrows()];
            op.apply_into(&x, &mut y);
            assert_eq!(y, op.apply(&x), "{label} apply_into");
            let mut yt = vec![f64::NAN; op.ncols()];
            op.apply_t_into(&u, &mut yt);
            assert_eq!(yt, op.apply_t(&u), "{label} apply_t_into");
        }
        check(&a, "dense");
        check(&s, "sparse");
        check(&centered, "centered");
        check(&aug, "augmented");
        check(&exec_d, "exec-dense");
        check(&exec_s, "exec-sparse");
    }

    #[test]
    fn block_products_match_per_column_products_for_all_operators() {
        let a = dense();
        let mu = srda_linalg::stats::col_means(&a);
        let s = srda_sparse::CsrMatrix::from_dense(&a, 0.0);
        let centered = CenteredOp::new(&a, mu);
        let aug = AugmentedOp::new(&s);
        let path = std::env::temp_dir().join(format!("srda-op-block-{}.bin", std::process::id()));
        srda_sparse::disk::write_csr(&path, &s).unwrap();
        let disk = srda_sparse::DiskCsr::open(&path).unwrap();
        let aug_disk = AugmentedOp::new(&disk);

        fn check(op: &dyn LinearOperator, label: &str) {
            for p in [1usize, 2, 3] {
                let x: Vec<f64> = (0..op.ncols() * p)
                    .map(|i| (i as f64 * 0.7).sin())
                    .collect();
                // a zero bias row in one column exercises the b = 0 shortcut
                let u: Vec<f64> = (0..op.nrows() * p)
                    .map(|i| if i % p == 1 { 0.0 } else { 1.5 - i as f64 })
                    .collect();
                let mut y = vec![f64::NAN; op.nrows() * p];
                let mut yt = vec![f64::NAN; op.ncols() * p];
                op.apply_block_into(&x, p, &mut y);
                op.apply_t_block_into(&u, p, &mut yt);
                for j in 0..p {
                    let col =
                        |v: &[f64]| -> Vec<f64> { v.iter().skip(j).step_by(p).copied().collect() };
                    let mut want = vec![f64::NAN; op.nrows()];
                    op.apply_into(&col(&x), &mut want);
                    let mut want_t = vec![f64::NAN; op.ncols()];
                    op.apply_t_into(&col(&u), &mut want_t);
                    let bits = |v: Vec<f64>| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(col(&y)),
                        bits(want),
                        "{label} A·X, p = {p}, column {j}"
                    );
                    assert_eq!(
                        bits(col(&yt)),
                        bits(want_t),
                        "{label} Aᵀ·X, p = {p}, column {j}"
                    );
                }
            }
        }
        check(&a, "dense");
        check(&s, "sparse");
        check(&centered, "centered");
        check(&aug, "augmented");
        check(&disk, "disk");
        check(&aug_disk, "augmented disk");
        // only the file shares one pass between the columns of a block
        assert!(disk.shares_block_passes() && aug_disk.shares_block_passes());
        assert!(![&a as &dyn LinearOperator, &s, &centered, &aug]
            .iter()
            .any(|op| op.shares_block_passes()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn exec_operators_match_plain_operators() {
        let a = dense();
        let x = [0.5, -2.0];
        let u = [1.0, 2.0, 3.0];
        for &t in &[1usize, 2, 8] {
            let op = ExecDense::new(&a, Executor::threaded(t));
            assert_eq!(op.apply(&x), LinearOperator::apply(&a, &x));
            assert_eq!(op.apply_t(&u), LinearOperator::apply_t(&a, &u));
        }
    }

    #[test]
    fn operators_compose() {
        // centered then augmented: the usual dense-SRDA configuration
        let a = dense();
        let mu = srda_linalg::stats::col_means(&a);
        let centered = CenteredOp::new(&a, mu.clone());
        let both = AugmentedOp::new(&centered);
        assert_eq!(both.ncols(), 3);
        let explicit = srda_linalg::stats::center_rows(&a, &mu).append_constant_col(1.0);
        let x = [1.0, 2.0, 3.0];
        let y1 = both.apply(&x);
        let y2 = LinearOperator::apply(&explicit, &x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12);
        }
    }
}
