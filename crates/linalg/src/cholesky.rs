//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! This is the factorization behind SRDA's normal-equations solver: the
//! paper (§III.C.1) factors `XXᵀ + αI = RᵀR` once (`n³/6` flam) and then
//! back-solves for every response vector (`cn²` flam). We store the lower
//! factor `L` with `A = L·Lᵀ`, which is the same object transposed.

use crate::error::LinalgError;
use crate::matrix::Mat;
use crate::triangular;
use crate::{flam, Result};

/// A computed Cholesky factorization `A = L·Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Mat,
    /// ‖A‖₁ of the factored matrix, captured at factor time (from the lower
    /// triangle plus symmetry) so the Hager condition estimate needs no
    /// access to `A` afterwards.
    norm1: f64,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; the strict upper triangle is
    /// ignored (callers may pass a matrix whose upper triangle is stale).
    /// Fails with [`LinalgError::NotPositiveDefinite`] if a pivot is
    /// non-positive — for SRDA this never happens when `α > 0` because the
    /// ridge shift makes the Gram matrix strictly positive definite.
    ///
    /// Each entry is the dot-product recurrence
    /// `l_ij = (a_ij − Σ_{k<j} l_ik·l_jk) / l_jj`, summed in ascending `k`,
    /// and the factor and any pivot failure are bitwise those of the plain
    /// row-by-row loop. The loop is scheduled in tiles of eight rows whose
    /// entries run as independent chains over a packed copy of the tile
    /// (see `factor_lower`), which keeps the `n³/6` flam but lets the
    /// chains overlap instead of running one serial subtract chain per
    /// entry.
    pub fn factor(a: &Mat) -> Result<Self> {
        #[cfg(feature = "failpoints")]
        if crate::failpoint::should_fail("cholesky.singular") {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: 0,
                value: -1.0,
            });
        }
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        let n = a.nrows();
        flam::add((n * n * n / 6) as u64);
        // ‖A‖₁ from the lower triangle + symmetry (the strict upper triangle
        // may be stale, so it must not be read): column j collects |a_ij| for
        // i ≥ j directly and |a_ij| for i < j via its mirror a_ji.
        let mut col_sums = vec![0.0f64; n];
        for i in 0..n {
            let row = a.row(i);
            for j in 0..=i {
                let v = row[j].abs();
                col_sums[j] += v;
                if i != j {
                    col_sums[i] += v;
                }
            }
        }
        let norm1 = col_sums.iter().fold(0.0f64, |m, &v| m.max(v));
        let l = factor_lower(a)?;
        Ok(Cholesky { l, norm1 })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Mat {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Solve `A·x = b`, overwriting `b` with `x`.
    pub fn solve_inplace(&self, b: &mut [f64]) -> Result<()> {
        triangular::solve_lower_inplace(&self.l, b)?;
        triangular::solve_lower_transpose_inplace(&self.l, b)
    }

    /// Solve `A·x = b`, returning a fresh solution vector.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_inplace(&mut x)?;
        Ok(x)
    }

    /// Solve `A·X = B` for a matrix of right-hand sides (columns of `B`).
    /// This is SRDA's multi-response solve: one factorization amortized
    /// across `c − 1` systems.
    ///
    /// Each direction sweeps `L` once for all `k` columns, on a row-major
    /// working copy padded to whole `SOLVE_COLS`-wide lanes: a register
    /// tile of `SOLVE_ROWS` rows × one lane runs over every `L` entry left
    /// (forward) or below (backward) its rows. Every column keeps the exact
    /// operation order of [`solve_inplace`](Self::solve_inplace), and the
    /// result, a [`LinalgError::Singular`] pivot and the flam count
    /// (`k · 2·⌊n²/2⌋`) are those of `k` single solves.
    pub fn solve_mat(&self, b: &Mat) -> Result<Mat> {
        if b.nrows() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve_mat",
                lhs: (self.dim(), self.dim()),
                rhs: b.shape(),
            });
        }
        let (n, k) = b.shape();
        let mut x = Mat::zeros(n, k);
        if k == 0 {
            return Ok(x);
        }
        // the first column's forward sweep stops at the first zero pivot
        if let Some(pivot) = (0..n).find(|&i| self.l[(i, i)] == 0.0) {
            flam::add((n * n / 2) as u64);
            return Err(LinalgError::Singular { pivot });
        }
        flam::add((k * 2 * (n * n / 2)) as u64);
        let lanes = k.div_ceil(SOLVE_COLS);
        let mut w = vec![[0.0; SOLVE_COLS]; n * lanes];
        for (i, row) in w.chunks_exact_mut(lanes).enumerate() {
            row.as_flattened_mut()[..k].copy_from_slice(b.row(i));
        }
        let tiled = n - n % SOLVE_ROWS;
        for i0 in (0..tiled).step_by(SOLVE_ROWS) {
            forward_rows::<SOLVE_ROWS>(&self.l, &mut w, lanes, i0);
        }
        for i0 in tiled..n {
            forward_rows::<1>(&self.l, &mut w, lanes, i0);
        }
        for i0 in (tiled..n).rev() {
            backward_rows::<1>(&self.l, &mut w, lanes, i0);
        }
        for i0 in (0..tiled).step_by(SOLVE_ROWS).rev() {
            backward_rows::<SOLVE_ROWS>(&self.l, &mut w, lanes, i0);
        }
        for (i, row) in w.chunks_exact(lanes).enumerate() {
            x.row_mut(i).copy_from_slice(&row.as_flattened()[..k]);
        }
        Ok(x)
    }

    /// log-determinant of `A` (`2·Σ log Lᵢᵢ`), handy for model-selection
    /// criteria.
    pub fn log_det(&self) -> f64 {
        self.l.diag().iter().map(|d| d.ln()).sum::<f64>() * 2.0
    }

    /// 1-norm condition-number estimate `κ₁(A) ≈ ‖A‖₁·‖A⁻¹‖₁` via Hager's
    /// algorithm (the LINPACK/LAPACK `gecon` scheme). `‖A‖₁` was captured at
    /// factor time; `‖A⁻¹‖₁` is estimated by maximizing `‖A⁻¹x‖₁` over the
    /// unit 1-norm ball with at most five solve-powered gradient steps
    /// (`A` is symmetric, so `A⁻ᵀ = A⁻¹` and one solve routine serves both
    /// directions). Cost is O(n²) per step against the O(n³/6) factorization.
    /// The estimate is a lower bound on κ₁ that is almost always within a
    /// small factor of it — reliable enough to gate solution certification,
    /// unlike the O(n) diagonal heuristic kept as
    /// [`condition_lower_bound`](Self::condition_lower_bound).
    pub fn condition_estimate(&self) -> f64 {
        let n = self.dim();
        if n == 0 {
            return 1.0;
        }
        // Hager: x starts at the barycenter e/n; each step solves y = A⁻¹x,
        // probes the subgradient via z = A⁻¹·sign(y), and restarts from the
        // coordinate vector where |z| peaks until no improvement is possible.
        let mut x = vec![1.0 / n as f64; n];
        let mut inv_est = 0.0f64;
        for _ in 0..5 {
            let mut y = x.clone();
            if self.solve_inplace(&mut y).is_err() {
                return f64::INFINITY;
            }
            let est: f64 = y.iter().map(|v| v.abs()).sum();
            if !est.is_finite() {
                return f64::INFINITY;
            }
            if est > inv_est {
                inv_est = est;
            }
            // ξ = sign(y) (sign(0) = +1), z = A⁻ᵀξ = A⁻¹ξ
            let mut z: Vec<f64> = y
                .iter()
                .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
                .collect();
            if self.solve_inplace(&mut z).is_err() {
                return f64::INFINITY;
            }
            let mut j = 0;
            let mut z_inf = 0.0f64;
            for (i, &v) in z.iter().enumerate() {
                if v.abs() > z_inf {
                    z_inf = v.abs();
                    j = i;
                }
            }
            let ztx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
            if !z_inf.is_finite() {
                return f64::INFINITY;
            }
            if z_inf <= ztx {
                break;
            }
            x.iter_mut().for_each(|v| *v = 0.0);
            x[j] = 1.0;
        }
        let kappa = (self.norm1 * inv_est).max(1.0);
        #[cfg(feature = "failpoints")]
        if crate::failpoint::should_fail("cond.inflate") {
            // Simulate a catastrophically ill-conditioned matrix so the
            // certification layer sees an inflated error bound. The factor
            // dwarfs any honest κ of the small test fixtures, so even an
            // ε-level backward error fails the certification bound.
            return kappa * 1e14;
        }
        kappa
    }

    /// Cheap 2-norm condition-number *lower bound* from the factor diagonal:
    /// `(max Lᵢᵢ / min Lᵢᵢ)²`. O(n) and free of extra solves, but it only
    /// sees the diagonal of `L`: for matrices whose ill-conditioning lives in
    /// the off-diagonal coupling (e.g. the second-difference matrix, or any
    /// near-singular matrix with a flat diagonal) the ratio stays small while
    /// the true κ grows without bound — it *lies low*, never high. Use it as
    /// a quick screen; use [`condition_estimate`](Self::condition_estimate)
    /// (Hager) when the number gates a decision.
    pub fn condition_lower_bound(&self) -> f64 {
        let diag = self.l.diag();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for d in diag {
            lo = lo.min(d);
            hi = hi.max(d);
        }
        if lo <= 0.0 || !lo.is_finite() {
            return f64::INFINITY;
        }
        let r = hi / lo;
        r * r
    }
}

/// Right-hand sides in one register tile of [`Cholesky::solve_mat`].
const SOLVE_COLS: usize = 8;
/// Rows of `L` in one register tile of [`Cholesky::solve_mat`].
const SOLVE_ROWS: usize = 2;

/// Rows `i0..i0 + R` of `L·Y = B`, on the row-major working copy `w`
/// (`lanes` lanes per row) whose rows above `i0` are solved. Row `i` is
/// `b_i − Σ_{j<i} l_ij·y_j` subtracted in ascending `j`, then divided by
/// `l_ii`: the order of [`triangular::solve_lower_inplace`].
fn forward_rows<const R: usize>(l: &Mat, w: &mut [[f64; SOLVE_COLS]], lanes: usize, i0: usize) {
    let (done, rest) = w.split_at_mut(i0 * lanes);
    let l_rows: [&[f64]; R] = std::array::from_fn(|t| &l.row(i0 + t)[..i0 + R]);
    for c in 0..lanes {
        let mut acc: [[f64; SOLVE_COLS]; R] = std::array::from_fn(|t| rest[t * lanes + c]);
        for j in 0..i0 {
            let y = &done[j * lanes + c];
            for (at, lt) in acc.iter_mut().zip(&l_rows) {
                let ltj = lt[j];
                for (v, &yv) in at.iter_mut().zip(y) {
                    *v -= ltj * yv;
                }
            }
        }
        for t in 0..R {
            for s in 0..t {
                let (lts, ys) = (l_rows[t][i0 + s], acc[s]);
                for (v, &yv) in acc[t].iter_mut().zip(&ys) {
                    *v -= lts * yv;
                }
            }
            let d = l_rows[t][i0 + t];
            acc[t].iter_mut().for_each(|v| *v /= d);
        }
        for (t, at) in acc.into_iter().enumerate() {
            rest[t * lanes + c] = at;
        }
    }
}

/// Rows `i0..i0 + R` of `Lᵀ·X = Y`, on the working copy `w` whose rows
/// below `i0 + R` are solved. Row `j` subtracts `l_ij·x_i` for `i`
/// descending, then is divided by `l_jj`: the order of
/// [`triangular::solve_lower_transpose_inplace`].
fn backward_rows<const R: usize>(l: &Mat, w: &mut [[f64; SOLVE_COLS]], lanes: usize, i0: usize) {
    let (head, solved) = w.split_at_mut((i0 + R) * lanes);
    let block = &mut head[i0 * lanes..];
    // l_ij for the block's columns j, rows i below it: gathered once, not
    // once per lane
    let l_cols: Vec<[f64; R]> = (i0 + R..l.nrows())
        .map(|i| std::array::from_fn(|t| l[(i, i0 + t)]))
        .collect();
    for c in 0..lanes {
        let mut acc: [[f64; SOLVE_COLS]; R] = std::array::from_fn(|t| block[t * lanes + c]);
        for (off, li) in l_cols.iter().enumerate().rev() {
            let x = &solved[off * lanes + c];
            for (at, &lit) in acc.iter_mut().zip(li) {
                for (v, &xv) in at.iter_mut().zip(x) {
                    *v -= lit * xv;
                }
            }
        }
        for t in (0..R).rev() {
            for s in (t + 1..R).rev() {
                let (lst, xs) = (l[(i0 + s, i0 + t)], acc[s]);
                for (v, &xv) in acc[t].iter_mut().zip(&xs) {
                    *v -= lst * xv;
                }
            }
            let d = l[(i0 + t, i0 + t)];
            acc[t].iter_mut().for_each(|v| *v /= d);
        }
        for (t, at) in acc.into_iter().enumerate() {
            block[t * lanes + c] = at;
        }
    }
}

/// Rows of `L` computed together by [`factor_lower`].
const ROW_TILE: usize = 8;

/// The lower Cholesky factor of `a` (lower triangle read only).
///
/// Every entry is the textbook dot-product (Cholesky–Crout) recurrence
/// `l_ij = (a_ij − Σ_{k<j} l_ik·l_jk) / l_jj`, with the sum subtracted in
/// ascending `k` — the same floating-point operations, in the same order,
/// as the plain row-by-row loop, so the factor and any
/// [`LinalgError::NotPositiveDefinite`] pivot and value are bitwise those
/// of that loop. Only the schedule differs: rows are taken [`ROW_TILE`] at
/// a time, and for every column `j` left of the tile the tile's entries of
/// columns `j` and `j + 1` run as sixteen independent chains over one
/// packed copy of the tile's rows. Each `l_jk` load then feeds eight chains
/// and the chains overlap in the pipeline, where the plain loop runs one
/// serial subtract chain per entry. The diagonal block and the last
/// `n mod 8` rows use the plain loop.
fn factor_lower(a: &Mat) -> Result<Mat> {
    let n = a.nrows();
    let mut l = Mat::zeros(n, n);
    // panel[k·ROW_TILE + t] = l_{i0+t, k}: the tile's finished columns,
    // interleaved so one k is one contiguous load.
    let mut panel = vec![0.0; ROW_TILE * n];
    let tiled = n - n % ROW_TILE;
    for i0 in (0..tiled).step_by(ROW_TILE) {
        let (done, rest) = l.as_mut_slice().split_at_mut(i0 * n);
        let mut put = |j: usize, col: [f64; ROW_TILE], panel: &mut [f64]| {
            for (t, &v) in col.iter().enumerate() {
                rest[t * n + j] = v;
                panel[j * ROW_TILE + t] = v;
            }
        };
        let a_col = |j: usize| std::array::from_fn(|t| a[(i0 + t, j)]);
        // i0 is a multiple of the (even) tile height, so the columns left
        // of the tile pair up exactly
        for j in (0..i0).step_by(2) {
            let (r0, r1) = (&done[j * n..], &done[(j + 1) * n..]);
            let (mut c0, mut c1): ([f64; ROW_TILE], [f64; ROW_TILE]) = (a_col(j), a_col(j + 1));
            for (k, pk) in panel[..j * ROW_TILE].chunks_exact(ROW_TILE).enumerate() {
                let (x0, x1) = (r0[k], r1[k]);
                for t in 0..ROW_TILE {
                    c0[t] -= pk[t] * x0;
                    c1[t] -= pk[t] * x1;
                }
            }
            c0 = c0.map(|v| v / r0[j]);
            put(j, c0, &mut panel);
            // column j + 1 still owes its k = j term, last in its sum
            for t in 0..ROW_TILE {
                c1[t] -= c0[t] * r1[j];
            }
            put(j + 1, c1.map(|v| v / r1[j + 1]), &mut panel);
        }
        for i in i0..i0 + ROW_TILE {
            for j in i0..=i {
                place_entry(a, &mut l, i, j)?;
            }
        }
    }
    for i in tiled..n {
        for j in 0..=i {
            place_entry(a, &mut l, i, j)?;
        }
    }
    Ok(l)
}

/// One step of the plain row-by-row loop: `l_ij` from the finished
/// prefixes of rows `i` and `j`, with the pivot check on the diagonal.
fn place_entry(a: &Mat, l: &mut Mat, i: usize, j: usize) -> Result<()> {
    let mut acc = a[(i, j)];
    let (ri, rj) = (l.row(i), l.row(j));
    for k in 0..j {
        acc -= ri[k] * rj[k];
    }
    if i == j {
        if acc <= 0.0 || !acc.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: i,
                value: acc,
            });
        }
        l[(i, i)] = acc.sqrt();
    } else {
        l[(i, j)] = acc / l[(j, j)];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{gram, matmul, matmul_transb, matvec};

    fn spd(n: usize) -> Mat {
        // AᵀA + I is SPD for any A
        let a = Mat::from_fn(n + 2, n, |i, j| ((i * 13 + j * 7) % 11) as f64 / 11.0 - 0.4);
        let mut g = gram(&a);
        g.add_to_diag(1.0);
        g
    }

    /// The plain row-by-row dot-product loop, kept as the bitwise oracle
    /// for the row-tiled [`factor_lower`].
    fn factor_unblocked(a: &Mat) -> Result<Mat> {
        let n = a.nrows();
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                place_entry(a, &mut l, i, j)?;
            }
        }
        Ok(l)
    }

    /// SPD matrix with a wide, irregular spectrum, so rounding differs
    /// between summation orders.
    fn rough_spd(n: usize, seed: u64) -> Mat {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let a = Mat::from_fn(n + 3, n, |_, j| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * (1.0 + j as f64).powi(2)
        });
        let mut g = gram(&a);
        g.add_to_diag(1e-3);
        g
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tiled_factor_is_bitwise_the_unblocked_loop() {
        let sizes = (0..40).chain([63, 64, 65, 66, 67, 129, 130]);
        for (seed, n) in sizes.enumerate() {
            let a = rough_spd(n, seed as u64 + 1);
            let expect = factor_unblocked(&a).unwrap();
            let got = Cholesky::factor(&a).unwrap();
            assert_eq!(bits(got.l()), bits(&expect), "n = {n}");
        }
    }

    #[test]
    fn tiled_factor_fails_at_the_same_pivot_with_the_same_value() {
        // Break positive definiteness at every position of a row tile
        // (and in the untiled tail) by pulling one diagonal entry down.
        for n in [5usize, 8, 11, 23] {
            for bad in 0..n {
                let mut a = rough_spd(n, 100 + bad as u64);
                let shift = a[(bad, bad)] * 2.0;
                a[(bad, bad)] -= shift;
                let expect = factor_unblocked(&a).unwrap_err();
                let got = Cholesky::factor(&a).unwrap_err();
                match (got, expect) {
                    (
                        LinalgError::NotPositiveDefinite { pivot: p, value: v },
                        LinalgError::NotPositiveDefinite { pivot: q, value: w },
                    ) => {
                        assert_eq!(p, q, "n = {n}, bad = {bad}");
                        assert_eq!(v.to_bits(), w.to_bits(), "n = {n}, bad = {bad}");
                    }
                    other => panic!("unexpected errors {other:?}"),
                }
            }
        }
        // NaN in the lower triangle surfaces at the same pivot too
        let mut a = rough_spd(13, 7);
        a[(9, 2)] = f64::NAN;
        let got = Cholesky::factor(&a).unwrap_err();
        let expect = factor_unblocked(&a).unwrap_err();
        assert_eq!(format!("{got:?}"), format!("{expect:?}"));
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd(8);
        let ch = Cholesky::factor(&a).unwrap();
        let recon = matmul_transb(ch.l(), ch.l()).unwrap();
        assert!(recon.approx_eq(&a, 1e-10));
    }

    #[test]
    fn l_is_lower_triangular() {
        let ch = Cholesky::factor(&spd(6)).unwrap();
        for i in 0..6 {
            for j in (i + 1)..6 {
                assert_eq!(ch.l()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn solve_roundtrip() {
        let a = spd(10);
        let ch = Cholesky::factor(&a).unwrap();
        let x_true: Vec<f64> = (0..10).map(|i| (i as f64) - 4.5).collect();
        let b = matvec(&a, &x_true).unwrap();
        let x = ch.solve(&b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_mat_matches_columnwise() {
        let a = spd(7);
        let ch = Cholesky::factor(&a).unwrap();
        let b = Mat::from_fn(7, 3, |i, j| (i as f64 + 1.0) * (j as f64 - 1.0));
        let x = ch.solve_mat(&b).unwrap();
        let recon = matmul(&a, &x).unwrap();
        assert!(recon.approx_eq(&b, 1e-9));
    }

    /// The historical one-column-at-a-time loop of
    /// [`Cholesky::solve_mat`], kept as the bitwise oracle for the
    /// whole-panel sweeps.
    fn solve_mat_columnwise(ch: &Cholesky, b: &Mat) -> Result<Mat> {
        let mut x = Mat::zeros(b.nrows(), b.ncols());
        let mut col = vec![0.0; b.nrows()];
        for j in 0..b.ncols() {
            for i in 0..b.nrows() {
                col[i] = b[(i, j)];
            }
            ch.solve_inplace(&mut col)?;
            x.set_col(j, &col);
        }
        Ok(x)
    }

    #[test]
    fn panel_solve_is_bitwise_the_columnwise_loop_and_counts_its_flam() {
        let shapes = [
            (0, 0),
            (0, 3),
            (1, 1),
            (5, 0),
            (9, 1),
            (17, 9),
            (33, 13),
            (66, 4),
        ];
        for (seed, &(n, k)) in shapes.iter().enumerate() {
            let ch = Cholesky::factor(&rough_spd(n, seed as u64 + 11)).unwrap();
            let mut state = seed as u64 * 977 + 3;
            let mut b = Mat::from_fn(n, k, |i, j| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3;
                // stored ±0.0 and an all-zero column
                if j == 1 || (i + j) % 5 == 0 {
                    if i % 2 == 0 {
                        0.0
                    } else {
                        -0.0
                    }
                } else {
                    v
                }
            });
            if n > 2 && k > 3 {
                b[(n / 2, 2)] = f64::INFINITY;
                b[(1, 3)] = f64::NAN;
            }
            let (expect, want_flam) = flam::measure(|| solve_mat_columnwise(&ch, &b).unwrap());
            let (got, flam) = flam::measure(|| ch.solve_mat(&b).unwrap());
            assert_eq!(bits(&got), bits(&expect), "n = {n}, k = {k}");
            assert_eq!(got.shape(), (n, k));
            assert_eq!(flam, want_flam, "n = {n}, k = {k}");
            assert_eq!(flam, (k * 2 * (n * n / 2)) as u64);
        }
    }

    #[test]
    fn panel_solve_reports_the_columnwise_singular_pivot() {
        for (n, zeros) in [(6usize, vec![3usize]), (9, vec![7, 2]), (4, vec![0])] {
            let mut ch = Cholesky::factor(&rough_spd(n, n as u64)).unwrap();
            for &z in &zeros {
                ch.l[(z, z)] = 0.0;
            }
            let b = Mat::from_fn(n, 3, |i, j| (i + 2 * j) as f64);
            let (expect, want_flam) = flam::measure(|| solve_mat_columnwise(&ch, &b).unwrap_err());
            let (got, flam) = flam::measure(|| ch.solve_mat(&b).unwrap_err());
            assert_eq!(format!("{got:?}"), format!("{expect:?}"));
            let first = *zeros.iter().min().unwrap();
            assert!(matches!(got, LinalgError::Singular { pivot } if pivot == first));
            assert_eq!(flam, want_flam);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(Cholesky::factor(&Mat::zeros(2, 3)).is_err());
    }

    #[test]
    fn ignores_upper_triangle() {
        let mut a = spd(5);
        let ch1 = Cholesky::factor(&a).unwrap();
        // poison the strict upper triangle
        for i in 0..5 {
            for j in (i + 1)..5 {
                a[(i, j)] = f64::NAN;
            }
        }
        let ch2 = Cholesky::factor(&a).unwrap();
        assert!(ch1.l().approx_eq(ch2.l(), 0.0));
    }

    #[test]
    fn log_det_of_identity_is_zero() {
        let ch = Cholesky::factor(&Mat::identity(4)).unwrap();
        assert!(ch.log_det().abs() < 1e-14);
    }

    #[test]
    fn log_det_of_diag() {
        let ch = Cholesky::factor(&Mat::from_diag(&[2.0, 3.0])).unwrap();
        assert!((ch.log_det() - 6.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn one_by_one() {
        let ch = Cholesky::factor(&Mat::from_diag(&[9.0])).unwrap();
        assert_eq!(ch.l()[(0, 0)], 3.0);
        assert_eq!(ch.solve(&[18.0]).unwrap(), vec![2.0]);
    }

    #[test]
    fn condition_estimate_tracks_diagonal_spread() {
        // identity: perfectly conditioned
        let ch = Cholesky::factor(&Mat::identity(5)).unwrap();
        assert!((ch.condition_estimate() - 1.0).abs() < 1e-14);
        // diag(100, 1): κ₁ = 100 exactly, and Hager is exact on diagonals
        let ch = Cholesky::factor(&Mat::from_diag(&[100.0, 1.0])).unwrap();
        assert!((ch.condition_estimate() - 100.0).abs() < 1e-10);
    }

    #[test]
    fn condition_lower_bound_matches_diag_ratio() {
        let ch = Cholesky::factor(&Mat::identity(5)).unwrap();
        assert!((ch.condition_lower_bound() - 1.0).abs() < 1e-14);
        // diag(100, 1): L = diag(10, 1), ratio² = 100
        let ch = Cholesky::factor(&Mat::from_diag(&[100.0, 1.0])).unwrap();
        assert!((ch.condition_lower_bound() - 100.0).abs() < 1e-10);
    }

    #[test]
    fn hager_sees_off_diagonal_ill_conditioning_the_diag_ratio_misses() {
        // Second-difference matrix tridiag(-1, 2, -1), n = 20: the true
        // κ₁ = ‖A‖₁·‖A⁻¹‖₁ = 4 · 55 = 220, but the Cholesky diagonal is
        // nearly flat (√2 decaying toward 1), so the diag-ratio bound
        // reports ~2. Hager must recover the real magnitude.
        let n = 20;
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let ch = Cholesky::factor(&a).unwrap();
        let lower = ch.condition_lower_bound();
        let hager = ch.condition_estimate();
        assert!(lower < 10.0, "diag ratio lies low: {lower}");
        assert!(hager > 50.0, "Hager should see the coupling: {hager}");
        assert!(
            hager <= 220.0 * (1.0 + 1e-10),
            "κ₁ estimate is a lower bound: {hager}"
        );
    }

    #[test]
    fn condition_estimates_on_empty_and_scalar() {
        let ch = Cholesky::factor(&Mat::from_diag(&[4.0])).unwrap();
        assert!((ch.condition_estimate() - 1.0).abs() < 1e-14);
        assert!((ch.condition_lower_bound() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn solve_mat_shape_check() {
        let ch = Cholesky::factor(&Mat::identity(3)).unwrap();
        assert!(ch.solve_mat(&Mat::zeros(4, 2)).is_err());
    }
}
