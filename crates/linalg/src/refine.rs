//! Backward errors of computed solutions, and fixed-precision iterative
//! refinement for Cholesky solves.
//!
//! The classic Wilkinson/Higham loop: given a factorization of `A` and a
//! computed solution `x₀` of `A·x = b`, repeat
//!
//! ```text
//!   r ← b − A·x        (residual in compensated arithmetic)
//!   d ← A⁻¹ r          (one cheap solve against the existing factor)
//!   x ← x + d
//! ```
//!
//! until the normwise relative backward error
//! `η(x) = ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` reaches the working-precision
//! floor, the correction stops shrinking (stagnation), or the step budget
//! runs out. Each step costs one `O(n²)` residual plus one `O(n²)`
//! back-substitution against the already-computed factor — negligible next
//! to the `O(n³/6)` factorization — and in fixed precision it restores
//! backward stability even when the factorization itself was computed from
//! a worryingly conditioned matrix (Higham, *Accuracy and Stability of
//! Numerical Algorithms*, ch. 12).
//!
//! Refinement needs an accurate residual, so the residual is accumulated
//! with an Ogita–Rump compensated dot (exact `mul_add` product errors +
//! Neumaier summation), giving close to twice-working-precision residuals
//! without any extended type. It runs one right-hand side at a time: on
//! well-posed fits the bound below certifies every response (all 67 of a
//! PIE-shaped fit, with three to four orders of margin), so only columns
//! of ill-conditioned systems pay for a compensated pass, and batching
//! them would speed up nothing a fit spends time on.
//!
//! *Accepting* a solution needs only an upper bound on `η`, not its
//! accurate value: [`backward_error_bounds`] takes one plain product
//! `A·X` on an [`Executor`] and adds a rigorous allowance for its rounding
//! (the `xPORFS` approach; Higham §7.1), with a fraction of the
//! compensated residual's arithmetic: two flops per term instead of more
//! than a dozen.
//!
//! Every routine here takes its matrix as a [`Symmetric`]: a full `&Mat`,
//! or the upper storage that [`Cholesky::factor_in_place`] leaves above the
//! factor it writes. Both read the same rows in the same order, so they
//! give the same bits.

use crate::cholesky::Cholesky;
use crate::error::LinalgError;
use crate::matrix::Mat;
use crate::symmetric::Symmetric;
use crate::{flam, Result};
use srda_kernels::Executor;

/// Outcome of [`refine_solve`]: how many correction steps ran and the best
/// backward error achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineReport {
    /// Number of correction steps applied (0 if `x` was already at the
    /// working-precision floor).
    pub steps: usize,
    /// Normwise relative backward error of the returned `x` (the best
    /// iterate seen, not necessarily the last).
    pub backward_error: f64,
    /// The backward error reached the working-precision target.
    pub converged: bool,
    /// The correction norm stopped contracting before the target was met
    /// (the textbook signal that refinement cannot help further — usually
    /// because `κ(A)·ε ≳ 1`).
    pub stagnated: bool,
}

/// Normwise relative backward error
/// `η(x) = ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` of a candidate solution.
///
/// This is the Rigal–Gaches quantity: the size of the smallest relative
/// perturbation `(ΔA, Δb)` for which `x` solves `(A+ΔA)·x = b+Δb` exactly.
/// A backward-stable solve keeps it near machine epsilon regardless of
/// conditioning; values far above that mean the *solve itself* misbehaved.
/// A full `a` must have both triangles valid; upper storage
/// ([`Symmetric::Upper`]) gives the same bits.
pub fn backward_error<'a>(a: impl Into<Symmetric<'a>>, b: &[f64], x: &[f64]) -> f64 {
    let a = a.into();
    let mut r = vec![0.0; a.shape().0];
    residual(a, b, x, &mut r);
    eta(a_inf_norm(a), inf_norm(&r), inf_norm(x), inf_norm(b))
}

/// A rigorous upper bound `η̄ ≥ η` on [`backward_error`] of every column
/// of `x`, from one plain product `A·X` on `exec` instead of compensated
/// residuals. A column gets `+∞` where no finite bound is proven: a NaN or
/// infinite entry, an overflow, a `0/0` (`x = 0`, `b = 0`) or a
/// denominator below `2⁻⁹⁷⁰`. `A·X` sums every entry in one fixed order
/// whatever the executor's thread count, so the bounds are bitwise serial
/// ≡ threaded; one call counts `n²·k` flam, as `k` calls of
/// [`backward_error`] do.
///
/// With `u = 2⁻⁵³`, `γₖ = ku/(1 − ku)`, computed `Ĝ = fl‖A‖∞` (row sums in
/// order, then their max), exact `X = ‖x‖∞`, `B = ‖b‖∞`, the residual
/// `r̂ = fl(b − fl(A·x))` with `R̂ = ‖r̂‖∞`, and `d = fl(fl(Ĝ·X) + B)`,
///
/// ```text
///   η̄ = fl( fl(R̂ + fl(γ̄·d)) / d ),   γ̄ = 2(n + 8)·u.
/// ```
///
/// **Proof that `η̄ ≥ η`**, for `d ≥ 2⁻⁹⁷⁰`, `η̄` finite and
/// `1 ≤ n ≤ 2²⁶` (an `n × n` matrix past that has 2⁵² entries, more than
/// any memory holds). Let `τ = 2⁻¹⁰⁷⁵` bound the absolute error of one
/// underflowing product; sums and differences carry no underflow error
/// (they are exact in the subnormal range), and a finite `R̂`, `Ĝ` and `d`
/// mean nothing overflowed, because an infinity never turns finite again.
///
/// 1. *Norm.* A sum of `n` non-negative terms is computed to within a
///    factor `1 ± γₙ₋₁`, so `‖A‖∞ ≥ Ĝ/(1 + γₙ₋₁)`.
/// 2. *Product.* Entry `i` of `fl(A·x)` is `+0` plus at most `n` rounded
///    products in order, so `|fl(A·x)ᵢ − (A·x)ᵢ| ≤ γₙ·Σⱼ|aᵢⱼ||xⱼ| + 2nτ
///    ≤ γₙ‖A‖∞X + 2nτ` (Higham, Lemma 3.1 and §3.1; skipped zero entries
///    are exact products).
/// 3. *Residual.* `r̂ᵢ = (bᵢ − fl(A·x)ᵢ)(1 + δ)` with `|δ| ≤ u`, so
///    `‖b − A·x‖∞ ≤ R̂/(1 − u) + γₙ‖A‖∞X + 2nτ`.
/// 4. *Denominator.* `d ≤ (ĜX + B)(1 + u)² + 2τ` and `2τ ≤ 4u²·d`, so by 1
///    the true `D = ‖A‖∞X + B ≥ d/F` with
///    `F = (1 + u)²(1 + γₙ₋₁)/(1 − 4u²)`. Since `γₙ‖A‖∞X ≤ γₙD` and
///    `2nτ/d ≤ 4nu²`, with `ρ = R̂/d`:
///    `η ≤ ρF/(1 − u) + 4nu²F + γₙ`.
/// 5. *Evaluation.* `γ̄` is exact (an integer times a power of two) and
///    `γ̄·d ≥ 2⁻¹⁰¹⁹` does not underflow, so each of the three roundings
///    loses at most a factor `1 − u`: `η̄ ≥ ρ(1 − u)² + γ̄(1 − u)³`.
/// 6. *Both regimes.* `|b − A·x| ≤ |b| + |A||x|` gives `η ≤ 1`, so if
///    `ρ(1 − u)² ≥ 1` then `η̄ ≥ 1 ≥ η`. Otherwise `ρ < (1 − u)⁻²`, and
///    `η̄ − η ≥ γ̄(1 − u)³ − (F/(1 − u)³ − 1) − 4nu²F − γₙ`. For
///    `n ≤ 2²⁶` every `γₖ` here is at most `ku(1 + 2⁻²⁶)`, so
///    `F/(1 − u)³ − 1 ≤ (n + 4)u(1 + 2⁻²⁴)` and the subtracted terms sum
///    to at most `(2n + 14)u`, while `γ̄(1 − u)³ ≥ (2n + 15)u`. ∎
///
/// `γ̄` is about twice the product's `γₙ`: the second half covers the
/// relative roundings of the norm, the denominator and the final
/// division, which step 6 charges at the largest `ρ` they can meet. Where
/// `η` matters (`ρ ≪ 1`) those are negligible, and `η̄ ≈ ρ + γ̄` exceeds
/// the compensated `η` by about `2nu`.
pub fn backward_error_bounds<'a>(
    a: impl Into<Symmetric<'a>>,
    b: &Mat,
    x: &Mat,
    exec: &Executor,
) -> Result<Vec<f64>> {
    let a = a.into();
    let n = a.shape().0;
    if a.shape() != (n, n) || b.shape() != x.shape() || b.nrows() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "backward_error_bounds",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let k = b.ncols();
    if k == 0 {
        return Ok(Vec::new());
    }
    let ax = a.matmul_exec(x, exec)?;
    let mut r_inf = vec![0.0f64; k];
    let rows = b
        .as_slice()
        .chunks_exact(k)
        .zip(ax.as_slice().chunks_exact(k));
    for (b_row, ax_row) in rows {
        for ((m, bi), yi) in r_inf.iter_mut().zip(b_row).zip(ax_row) {
            *m = max_nan(*m, (bi - yi).abs());
        }
    }
    let a_inf = a_inf_norm(a);
    // 2(n + 8)·2⁻⁵³, exactly
    let gamma = (n + 8) as f64 * f64::EPSILON;
    let col = |v: &[f64], j: usize| inf_norm(v.iter().skip(j).step_by(k));
    Ok((0..k)
        .map(|j| {
            let d = a_inf * col(x.as_slice(), j) + col(b.as_slice(), j);
            if d < MIN_BOUND_SCALE {
                return f64::INFINITY;
            }
            // a NaN `d` makes a NaN bound, rejected here
            let bound = (r_inf[j] + gamma * d) / d;
            if bound.is_finite() {
                bound
            } else {
                f64::INFINITY
            }
        })
        .collect())
}

/// Smallest denominator [`backward_error_bounds`] bounds over: `2⁻⁹⁷⁰`,
/// which keeps `γ̄·d` normal and the products' underflow below `4u²·d`.
const MIN_BOUND_SCALE: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// Refine a computed solution of `A·x = b` in place against an existing
/// Cholesky factor of `A` (or of a nearby matrix — refinement against a
/// jittered factor still contracts as long as the factor is a reasonable
/// preconditioner for `A`).
///
/// A full `a` must have both triangles valid, unlike [`Cholesky::factor`]
/// which reads only the lower triangle. Upper storage
/// ([`Symmetric::Upper`]) is read only above its diagonal, like
/// [`Cholesky::factor_in_place`], so `chol` may be the factor written over
/// its lower triangle. On return `x` holds the best iterate seen — the
/// backward error of the output is never worse than that of the input,
/// even when refinement stagnates or diverges (the loop tracks and
/// restores the best candidate).
pub fn refine_solve<'a>(
    chol: &Cholesky,
    a: impl Into<Symmetric<'a>>,
    b: &[f64],
    x: &mut [f64],
    max_steps: usize,
) -> Result<RefineReport> {
    let a = a.into();
    let (n, cols) = a.shape();
    if n != cols {
        return Err(LinalgError::NotSquare { rows: n, cols });
    }
    if b.len() != n || x.len() != n || chol.dim() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "refine_solve",
            lhs: (n, n),
            rhs: (b.len(), x.len()),
        });
    }
    let a_inf = a_inf_norm(a);
    let b_inf = inf_norm(b);
    let mut r = vec![0.0; n];
    residual(a, b, x, &mut r);
    let mut best_eta = eta(a_inf, inf_norm(&r), inf_norm(x.iter()), b_inf);
    // Working-precision target: a backward-stable solve lands at O(n·ε).
    let target = (n as f64 * f64::EPSILON).max(4.0 * f64::EPSILON);
    if best_eta <= target {
        return Ok(RefineReport {
            steps: 0,
            backward_error: best_eta,
            converged: true,
            stagnated: false,
        });
    }
    #[cfg(feature = "failpoints")]
    if crate::failpoint::should_fail("refine.stagnate") {
        // Simulate refinement that cannot make progress: report immediate
        // stagnation so the certification layer must escalate instead.
        return Ok(RefineReport {
            steps: 0,
            backward_error: best_eta,
            converged: false,
            stagnated: true,
        });
    }
    let mut best_x = x.to_vec();
    let mut prev_d_inf = f64::INFINITY;
    let mut steps = 0;
    let mut converged = false;
    let mut stagnated = false;
    for _ in 0..max_steps {
        let mut d = r.clone();
        chol.solve_inplace(&mut d)?;
        let d_inf = inf_norm(&d);
        if !d_inf.is_finite() {
            stagnated = true;
            break;
        }
        for (xi, di) in x.iter_mut().zip(&d) {
            *xi += di;
        }
        steps += 1;
        residual(a, b, x, &mut r);
        let eta_now = eta(a_inf, inf_norm(&r), inf_norm(x.iter()), b_inf);
        if eta_now < best_eta {
            best_eta = eta_now;
            best_x.copy_from_slice(x);
        }
        if eta_now <= target {
            converged = true;
            break;
        }
        // Correction norms of a working refinement contract by ~κ·ε per
        // step; a step shrinking by less than half signals stagnation.
        if d_inf >= 0.5 * prev_d_inf {
            stagnated = true;
            break;
        }
        prev_d_inf = d_inf;
    }
    x.copy_from_slice(&best_x);
    Ok(RefineReport {
        steps,
        backward_error: best_eta,
        converged,
        stagnated,
    })
}

/// `‖A‖∞` (max absolute row sum).
fn a_inf_norm(a: Symmetric<'_>) -> f64 {
    a.abs_row_sums().into_iter().fold(0.0f64, max_nan)
}

/// `‖v‖∞`, folded in order with [`max_nan`]: NaN if any entry is NaN.
fn inf_norm<'a>(v: impl IntoIterator<Item = &'a f64>) -> f64 {
    v.into_iter().fold(0.0f64, |m, &v| max_nan(m, v.abs()))
}

/// `f64::max` for the norm folds, except that NaN wins: `f64::max`
/// returns the other operand, so a NaN residual would fold to a finite
/// (even zero) norm and certify a NaN solution. On non-NaN operands it
/// returns the bits `f64::max` returns (the folds only see `+0` and up).
fn max_nan(m: f64, v: f64) -> f64 {
    if v > m || v.is_nan() {
        v
    } else {
        m
    }
}

/// `η = ‖r‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`, with the 0/0 case defined as 0.
fn eta(a_inf: f64, r_inf: f64, x_inf: f64, b_inf: f64) -> f64 {
    let denom = a_inf * x_inf + b_inf;
    if r_inf == 0.0 {
        0.0
    } else if denom == 0.0 || !r_inf.is_finite() {
        f64::INFINITY
    } else {
        r_inf / denom
    }
}

/// `r = b − A·x`. Each entry is an Ogita–Rump compensated sum over
/// ascending `j`: every product adds its exact rounding error (`mul_add`),
/// and the running sum uses Neumaier's branch. Costs ~4× a naive residual
/// but keeps ~2× working precision, which is what makes fixed-precision
/// refinement converge.
fn residual(a: Symmetric<'_>, b: &[f64], x: &[f64], r: &mut [f64]) {
    let n = a.shape().0;
    debug_assert!(b.len() == n && x.len() == n && r.len() == n);
    flam::add((n * n) as u64);
    let mut scratch = Vec::new();
    for (i, ri) in r.iter_mut().enumerate() {
        let mut sum = b[i];
        let mut comp = 0.0f64;
        for (&aij, &xj) in a.row(i, &mut scratch).iter().zip(x) {
            let a = -aij;
            let p = a * xj;
            let e = a.mul_add(xj, -p);
            let s = sum + p;
            comp += if sum.abs() >= p.abs() {
                (sum - s) + p
            } else {
                (p - s) + sum
            };
            sum = s;
            comp += e;
        }
        *ri = sum + comp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matvec;

    /// Hilbert matrix: the canonical ill-conditioned SPD test case.
    fn hilbert(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| 1.0 / (i as f64 + j as f64 + 1.0))
    }

    /// [`backward_error`] of every column of `x` against the matching
    /// column of `b`.
    fn backward_errors<'a>(a: impl Into<Symmetric<'a>>, b: &Mat, x: &Mat) -> Vec<f64> {
        let a = a.into();
        (0..b.ncols())
            .map(|j| backward_error(a, &b.col(j), &x.col(j)))
            .collect()
    }

    /// xorshift64 stream of values with random sign, mantissa and a binary
    /// exponent in `[-e, e]`, plus stored `±0.0`.
    fn wide_values(seed: u64, e: i32) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 23 {
                0 => 0.0,
                1 => -0.0,
                _ => {
                    let m = 1.0 + (state >> 12) as f64 / (1u64 << 52) as f64;
                    let ex = ((state >> 3) % (2 * e as u64 + 1)) as i32 - e;
                    let sign = if state & 4 == 0 { 1.0 } else { -1.0 };
                    sign * m * 2f64.powi(ex)
                }
            }
        }
    }

    #[test]
    fn bounds_never_fall_below_the_compensated_backward_error() {
        let (ser, par) = (Executor::serial(), Executor::threaded(3));
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        // finite bounds seen below and above η = 1e-8
        let (mut small, mut large) = (0, 0);
        for seed in 0..40u64 {
            let mut v = wide_values(seed + 1, 470);
            let n = 1 + (seed as usize * 7) % 70;
            let k = 1 + (seed as usize * 5) % 9;
            let mut a = Mat::from_fn(n, n, |_, _| v());
            let mut b = Mat::from_fn(n, k, |_, _| v());
            // near-solutions, so the small-η regime is exercised too
            let mut x = Mat::from_fn(n, k, |_, _| v());
            if seed % 2 == 0 {
                a = Mat::from_fn(n, n, |i, j| {
                    if i == j {
                        4.0
                    } else {
                        0.5 / (1 + i + j) as f64
                    }
                });
                x = Mat::from_fn(n, k, |i, j| 2f64.powi(((i * 3 + j) % 40) as i32 - 20));
                b = crate::ops::matmul(&a, &x).unwrap();
                x[(0, 0)] *= 1.0 + 1e-9;
            }
            // one edge case per column, cycling with the seed
            for j in 0..k {
                let i = (seed as usize + j) % n;
                match (seed as usize + j) % 9 {
                    0 => x[(i, j)] = 4e-320,
                    1 => a[(i, (i + 1) % n)] = 1e300,
                    2 => (0..n).for_each(|r| b[(r, j)] = 0.0),
                    3 => x[(i, j)] = f64::NAN,
                    4 => x[(i, j)] = f64::INFINITY,
                    5 => b[(i, j)] = f64::NEG_INFINITY,
                    6 => (0..n).for_each(|r| (b[(r, j)], x[(r, j)]) = (0.0, 0.0)),
                    7 => x[(i, j)] *= 1e-310,
                    _ => {}
                }
            }
            let etas = backward_errors(&a, &b, &x);
            let (bounds, flam_b) =
                flam::measure(|| backward_error_bounds(&a, &b, &x, &ser).unwrap());
            let (_, flam_e) = flam::measure(|| backward_errors(&a, &b, &x));
            assert_eq!(flam_b, flam_e);
            let threaded = backward_error_bounds(&a, &b, &x, &par).unwrap();
            assert_eq!(bits(&bounds), bits(&threaded), "seed {seed}");
            for j in 0..k {
                let (eta, bound) = (etas[j], bounds[j]);
                assert!(bound >= eta, "seed {seed} col {j}: η̄ {bound:e} < η {eta:e}");
                assert!(!bound.is_nan(), "seed {seed} col {j}");
                if bound.is_finite() {
                    *if eta < 1e-8 { &mut small } else { &mut large } += 1;
                }
                if (0..n).any(|i| x[(i, j)].is_nan()) {
                    assert_eq!(bound, f64::INFINITY, "seed {seed} col {j}: NaN solution");
                }
            }
        }
        assert!(small >= 20 && large >= 20, "{small} small, {large} large");
    }

    #[test]
    fn bounds_are_tight_on_accurate_solutions() {
        let n = 40;
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                4.0
            } else {
                0.5 / (1 + i + j) as f64
            }
        });
        let b = Mat::from_fn(n, 3, |i, j| ((i * 3 + j) as f64 * 0.37).sin());
        let x = Cholesky::factor(&a).unwrap().solve_mat(&b).unwrap();
        let etas = backward_errors(&a, &b, &x);
        let bounds = backward_error_bounds(&a, &b, &x, &Executor::serial()).unwrap();
        for (eta, bound) in etas.iter().zip(&bounds) {
            assert!(*bound >= *eta && *bound <= 4.0 * (n + 8) as f64 * f64::EPSILON);
        }
        assert!(backward_error_bounds(&a, &b, &Mat::zeros(n, 2), &Executor::serial()).is_err());
    }

    #[test]
    fn upper_storage_certifies_and_refines_bitwise_like_the_full_matrix() {
        // Hilbert(10) plus a shift: refinement takes several steps
        let n = 10;
        let mut a = hilbert(n);
        a.add_to_diag(1e-12);
        let x_true = Mat::from_fn(n, 3, |i, j| ((i * 3 + j) as f64 * 0.37).sin());
        let b = crate::ops::matmul(&a, &x_true).unwrap();
        let mut x = Cholesky::factor(&a).unwrap().solve_mat(&b).unwrap();
        // perturbed, so there is something to refine
        x.as_mut_slice().iter_mut().for_each(|v| *v *= 1.0 + 1e-7);
        // the in-place layout: factor below, matrix above, diagonal apart
        let diag = a.diag();
        let upper = Mat::from_fn(n, n, |i, j| if j > i { a[(i, j)] } else { f64::NAN });
        let chol = Cholesky::factor_in_place(upper, &diag).unwrap();
        let sym = Symmetric::upper(chol.l(), &diag);
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let exec = Executor::threaded(2);
        assert_eq!(
            bits(&backward_error_bounds(sym, &b, &x, &exec).unwrap()),
            bits(&backward_error_bounds(&a, &b, &x, &exec).unwrap())
        );
        assert_eq!(
            bits(&backward_errors(sym, &b, &x)),
            bits(&backward_errors(&a, &b, &x))
        );
        let full_chol = Cholesky::factor(&a).unwrap();
        for j in 0..3 {
            let (mut xf, mut xu) = (x.col(j), x.col(j));
            let rf = refine_solve(&full_chol, &a, &b.col(j), &mut xf, 5).unwrap();
            let ru = refine_solve(&chol, sym, &b.col(j), &mut xu, 5).unwrap();
            assert!(rf.steps > 0, "column {j} should need refinement");
            assert_eq!(rf, ru);
            assert_eq!(bits(&xu), bits(&xf));
        }
    }

    #[test]
    fn exact_solution_needs_no_steps() {
        let a = Mat::from_diag(&[2.0, 4.0]);
        let chol = Cholesky::factor(&a).unwrap();
        let mut x = vec![3.0, 0.5];
        let b = vec![6.0, 2.0];
        let rep = refine_solve(&chol, &a, &b, &mut x, 5).unwrap();
        assert_eq!(rep.steps, 0);
        assert!(rep.converged);
        assert_eq!(rep.backward_error, 0.0);
        assert_eq!(x, vec![3.0, 0.5]);
    }

    #[test]
    fn refinement_reduces_backward_error_on_hilbert() {
        let n = 10;
        let mut a = hilbert(n);
        a.add_to_diag(1e-10);
        let chol = Cholesky::factor(&a).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 4.0).collect();
        let b = matvec(&a, &x_true).unwrap();
        // Deliberately perturb the solve so there is something to refine.
        let mut x = chol.solve(&b).unwrap();
        for v in x.iter_mut() {
            *v *= 1.0 + 1e-7;
        }
        let before = backward_error(&a, &b, &x);
        assert!(before > 1e-12, "perturbed start must be bad: {before:e}");
        let rep = refine_solve(&chol, &a, &b, &mut x, 5).unwrap();
        assert!(rep.steps >= 1);
        assert!(rep.backward_error < before);
        assert!(
            rep.backward_error <= 1e-12,
            "refined η = {:e}",
            rep.backward_error
        );
        // the report matches the returned iterate
        let after = backward_error(&a, &b, &x);
        assert!((after - rep.backward_error).abs() <= after.max(1e-300) * 1e-6 + 1e-18);
    }

    #[test]
    fn never_returns_a_worse_iterate() {
        // Extremely ill-conditioned: refinement may stagnate, but the
        // returned x must never have a larger backward error than the input.
        let n = 12;
        let mut a = hilbert(n);
        a.add_to_diag(1e-14);
        let chol = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut x = chol.solve(&b).unwrap();
        let before = backward_error(&a, &b, &x);
        let rep = refine_solve(&chol, &a, &b, &mut x, 8).unwrap();
        let after = backward_error(&a, &b, &x);
        assert!(after <= before * (1.0 + 1e-12) + f64::EPSILON);
        assert!(rep.backward_error.is_finite());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = Mat::from_diag(&[1.0, 2.0]);
        let chol = Cholesky::factor(&a).unwrap();
        let mut x = vec![0.0; 3];
        assert!(refine_solve(&chol, &a, &[1.0, 2.0], &mut x, 3).is_err());
    }

    #[test]
    fn zero_rhs_certifies_trivially() {
        let a = Mat::from_diag(&[1.0, 2.0]);
        let chol = Cholesky::factor(&a).unwrap();
        let mut x = vec![0.0, 0.0];
        let rep = refine_solve(&chol, &a, &[0.0, 0.0], &mut x, 3).unwrap();
        assert!(rep.converged);
        assert_eq!(rep.backward_error, 0.0);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn stagnate_failpoint_reports_immediate_stagnation() {
        use crate::failpoint;
        let n = 10;
        let mut a = hilbert(n);
        a.add_to_diag(1e-10);
        let chol = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = vec![1.0; n];
        let mut x = chol.solve(&b).unwrap();
        for v in x.iter_mut() {
            *v *= 1.0 + 1e-6; // make the start bad enough to need refinement
        }
        failpoint::reset();
        failpoint::arm("refine.stagnate", 1);
        let rep = refine_solve(&chol, &a, &b, &mut x, 5).unwrap();
        failpoint::reset();
        assert_eq!(rep.steps, 0);
        assert!(rep.stagnated);
        assert!(!rep.converged);
    }
}
