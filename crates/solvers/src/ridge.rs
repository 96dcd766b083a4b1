//! Direct (factorization-based) ridge regression, and the recovery ladder
//! every direct SRDA solve walks.
//!
//! Solves `min ‖X·w − y‖² + α‖w‖²` for one or many right-hand sides:
//!
//! * **primal** — Cholesky of `XᵀX + αI` (`n × n`); the textbook normal
//!   equations of the paper's Eqn 20. Best when `n ≤ m`.
//! * **dual** — Cholesky of `XXᵀ + αI` (`m × m`) and `w = Xᵀu` — the
//!   paper's Eqn 21 route for `n > m`. For `α > 0` the two are *exactly*
//!   equivalent via the push-through identity
//!   `(XᵀX + αI)⁻¹Xᵀ = Xᵀ(XXᵀ + αI)⁻¹`.
//! * **auto** — picks whichever Gram matrix is smaller, the choice the
//!   paper's cost analysis (§III.C.1) prescribes.
//!
//! The key amortization: the factorization is done **once** and reused for
//! all `c − 1` SRDA responses, so the per-response cost is only the
//! triangular solves.
//!
//! [`RidgeSystem`] is SRDA's problem (Eqn 19) on the bias-augmented data
//! `X̃ = [X | 1]`, dense or sparse. Its Gram matrix and right-hand sides
//! are built once; [`RidgeSystem::solve_ladder`] then walks a bounded
//! escalation ladder over them instead of failing the fit on the first
//! breakdown:
//!
//! 1. **Direct** — shift the diagonal by `α`, factor, solve, certify,
//!    back-project. This is the paper's fast path and the only rung that
//!    runs when nothing goes wrong.
//! 2. **Jittered retries** — on a retryable breakdown (a failed
//!    factorization, a non-finite solution, or a certificate that stays
//!    [`Suspect`](crate::certificate::CertStatus::Suspect) after
//!    refinement), shift by `α + jitter` instead, escalating ×10 for at
//!    most three attempts. Extra diagonal loading lowers κ, which is
//!    exactly what shrinks a failed forward-error bound.
//! 3. **LSQR** — when every rung fails, the caller solves matrix-free with
//!    damped LSQR, which never forms the Gram matrix (srda-core runs it
//!    through its response loop).
//!
//! Every step taken is recorded in the [`LadderOutcome`]. The ladder never
//! loops, and non-retryable errors (shape mismatches, invalid dimensions)
//! propagate immediately.
//!
//! **Memory.** A [`RidgeSystem`] holds one `n × n` buffer, laid out as
//! LAPACK's `dpotrf` keeps a matrix: the Gram builders write only its
//! upper triangle, the diagonal is kept apart (each rung shifts a copy),
//! and [`Cholesky::factor_in_place`] writes `L` over the lower triangle.
//! The certificates read the Gram matrix back through
//! [`Symmetric::Upper`], which yields the same rows in the same order as
//! the mirrored matrix, so factor, weights and certificate bits do not
//! depend on the layout. That buffer is the whole dense working set of a
//! direct solve, the figure the memory-budget guard charges, and the
//! system records its size as the `ridge.working_bytes` gauge. A failed
//! factorization or certification leaves the upper triangle untouched for
//! the next rung. A dual form releases the buffer before it back-projects
//! `W̃ = X̃ᵀU`, so the weights never coexist with it; if those weights are
//! non-finite, the next rung rebuilds the Gram matrix bitwise.

use crate::certificate::{certify_spd_solves, SolveCertificate};
use crate::governor::{Interrupt, RunGovernor};
use srda_linalg::ops::{
    gram, gram_augmented_upper_exec, gram_t, gram_t_upper_exec, matmul_transa,
    matmul_transa_augmented_exec,
};
use srda_linalg::{Cholesky, Executor, LinalgError, Mat, Result, Symmetric};
use srda_sparse::{CsrMatrix, GramBudgetExceeded};

/// Jittered re-factorizations before the ladder gives up on direct solves.
const MAX_JITTER_RETRIES: usize = 3;
/// Escalation between consecutive jitter attempts; also `α`'s multiplier
/// for the first one.
const JITTER_FACTOR: f64 = 10.0;
/// Iterative-refinement steps a failing certificate gets before its rung
/// counts as broken down.
const MAX_REFINE_STEPS: usize = 3;

/// Which normal-equation form a [`RidgeSolver`] factored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RidgeForm {
    /// `XᵀX + αI` (`n × n`).
    Primal,
    /// `XXᵀ + αI` (`m × m`).
    Dual,
}

/// A factored ridge problem ready to solve for many right-hand sides.
#[derive(Debug, Clone)]
pub struct RidgeSolver {
    chol: Cholesky,
    form: RidgeForm,
}

impl RidgeSolver {
    /// Factor the primal normal equations `XᵀX + αI`.
    pub fn primal(x: &Mat, alpha: f64) -> Result<Self> {
        let mut g = gram(x);
        g.add_to_diag(alpha);
        Ok(RidgeSolver {
            chol: Cholesky::factor(&g)?,
            form: RidgeForm::Primal,
        })
    }

    /// Factor the dual normal equations `XXᵀ + αI` (paper Eqn 21).
    pub fn dual(x: &Mat, alpha: f64) -> Result<Self> {
        let mut k = gram_t(x);
        k.add_to_diag(alpha);
        Ok(RidgeSolver {
            chol: Cholesky::factor(&k)?,
            form: RidgeForm::Dual,
        })
    }

    /// Factor whichever form is smaller (`n ≤ m` → primal, else dual).
    pub fn auto(x: &Mat, alpha: f64) -> Result<Self> {
        if x.ncols() <= x.nrows() {
            Self::primal(x, alpha)
        } else {
            Self::dual(x, alpha)
        }
    }

    /// Which form was factored.
    pub fn form(&self) -> RidgeForm {
        self.form
    }

    /// Solve for a matrix of responses `Y` (`m × k`, one column per
    /// right-hand side), returning the weights `W` (`n × k`).
    ///
    /// `x` must be the same matrix passed at factorization time (the
    /// factorization stores only the Gram matrix, so the data is needed
    /// again to form `XᵀY` / back-project the dual solution).
    pub fn solve(&self, x: &Mat, y: &Mat) -> Result<Mat> {
        match self.form {
            // W = (XᵀX + αI)⁻¹ Xᵀ Y
            RidgeForm::Primal => self.chol.solve_mat(&matmul_transa(x, y)?),
            // U = (XXᵀ + αI)⁻¹ Y ; W = Xᵀ U
            RidgeForm::Dual => matmul_transa(x, &self.chol.solve_mat(y)?),
        }
    }
}

/// How a [`RidgeSystem`] turns the solution of its factored system into
/// the weights `W̃`.
#[derive(Debug)]
enum BackProjection<'a> {
    /// Primal form: the solution is `W̃`.
    None,
    /// Dense dual form: `W̃ = X̃ᵀU`, read from `X` with the bias lane
    /// added by the kernel.
    Dense(&'a Mat),
    /// Sparse dual form: `W̃ = X̃ᵀU` as `XᵀU` by sparse transpose products
    /// plus the column sums of `U` for the bias row.
    Sparse(&'a CsrMatrix),
}

/// SRDA's ridge problem `min ‖X̃W − Ȳ‖² + α‖W‖²` (Eqn 19) on
/// `X̃ = [X | 1]`, in the normal-equation form a direct solve factors.
///
/// The Gram matrix and the right-hand sides are built once, and the whole
/// solve holds one `n × n` buffer (module docs): every rung of
/// [`RidgeSystem::solve_ladder`] only shifts the diagonal it factors.
#[derive(Debug)]
pub struct RidgeSystem<'a> {
    /// The one `n × n` buffer: the Gram matrix's strict upper triangle,
    /// with the last rung's factor below it. `None` once a dual solve has
    /// released it before back-projecting.
    buffer: Option<Mat>,
    /// The unshifted diagonal of the Gram matrix.
    diag: Vec<f64>,
    /// Right-hand sides of the factored system: `X̃ᵀȲ` (primal) or `Ȳ`
    /// (dual).
    rhs: Mat,
    back: BackProjection<'a>,
    exec: Executor,
}

/// What a successful rung of [`RidgeSystem::solve_ladder`] produced.
#[derive(Debug, Clone)]
pub struct DirectSolve {
    /// The weights `W̃` (`(n + 1) × k`, the bias in the last row).
    pub weights: Mat,
    /// One certificate per response, against the factored system.
    pub certificates: Vec<SolveCertificate>,
    /// Hager condition estimate of the factored Gram matrix, shared by
    /// every certificate.
    pub cond: f64,
}

impl<'a> RidgeSystem<'a> {
    /// Build the smaller normal-equation form of `X̃ = [X | 1]`, as
    /// [`RidgeSolver::auto`] picks it, reading `X` in place: the primal
    /// Gram `X̃ᵀX̃` and `X̃ᵀȲ` when `n + 1 ≤ m`, with the bias lane added by
    /// the kernels, else the dual Gram `X̃X̃ᵀ = XXᵀ + 1`. Only the upper
    /// triangle is built.
    pub fn dense(x: &'a Mat, ybar: &Mat, exec: Executor) -> Result<Self> {
        if x.ncols() < x.nrows() {
            let rhs = matmul_transa_augmented_exec(x, ybar, &exec)?;
            Ok(Self::new(
                gram_augmented_upper_exec(x, &exec),
                rhs,
                BackProjection::None,
                exec,
            ))
        } else {
            let back = BackProjection::Dense(x);
            Ok(Self::new(back.dual_gram(&exec), ybar.clone(), back, exec))
        }
    }

    /// Build the dual Gram `X̃X̃ᵀ = XXᵀ + 1` from sparse row intersections,
    /// never densifying `X`. A Gram matrix larger than `budget_bytes` is
    /// declined, and the caller solves matrix-free instead.
    pub fn sparse(
        x: &'a CsrMatrix,
        ybar: &Mat,
        budget_bytes: usize,
        exec: Executor,
    ) -> std::result::Result<Self, GramBudgetExceeded> {
        let mut k = x.gram_t_upper_checked_exec(budget_bytes, &exec)?;
        add_bias_upper(&mut k);
        Ok(Self::new(k, ybar.clone(), BackProjection::Sparse(x), exec))
    }

    /// Take the Gram buffer, record its size as the `ridge.working_bytes`
    /// gauge, and keep its diagonal apart.
    fn new(buffer: Mat, rhs: Mat, back: BackProjection<'a>, exec: Executor) -> Self {
        let n = buffer.nrows();
        exec.recorder()
            .gauge("ridge.working_bytes", (n * n * size_of::<f64>()) as f64);
        RidgeSystem {
            diag: buffer.diag(),
            buffer: Some(buffer),
            rhs,
            back,
            exec,
        }
    }

    /// The Gram buffer, rebuilt if a dual solve released it.
    fn take_buffer(&mut self) -> Mat {
        match self.buffer.take() {
            Some(buffer) => buffer,
            None => self.back.dual_gram(&self.exec),
        }
    }

    /// The first jitter rung's extra diagonal loading: `10α`, or, at
    /// `α = 0`, `1e-10·max(max|G|, 1)` of the unshifted Gram matrix `G`.
    fn jitter_base(&mut self, alpha: f64) -> f64 {
        if alpha > 0.0 {
            alpha * JITTER_FACTOR
        } else {
            let buffer = self.take_buffer();
            let max = Symmetric::upper(&buffer, &self.diag).max_abs();
            self.buffer = Some(buffer);
            1e-10 * max.max(1.0)
        }
    }

    /// One rung: factor the Gram matrix with its diagonal `d + shift` (`d`
    /// the unshifted diagonal) in place, solve, certify every response
    /// with up to three refinement steps, and back-project. A Suspect
    /// certificate is a [`LinalgError::CertificationFailed`] and
    /// non-finite weights a [`LinalgError::NonFinite`], both retryable.
    ///
    /// The buffer outlives every failure before the back-projection, so
    /// the next rung factors the same upper triangle. A dual form then
    /// releases it, so the weights `X̃ᵀU` never coexist with the Gram
    /// matrix; a later rung (after non-finite weights) rebuilds it
    /// bitwise.
    fn solve(&mut self, shift: f64) -> Result<DirectSolve> {
        let rec = self.exec.recorder();
        let factor_span = srda_obs::span!(rec, "fit/factor");
        let buffer = self.take_buffer();
        let shifted: Vec<f64> = self.diag.iter().map(|d| d + shift).collect();
        let chol = match Cholesky::factor_in_place(buffer, &shifted) {
            Ok(chol) => chol,
            Err((e, buffer)) => {
                self.buffer = Some(buffer);
                return Err(e);
            }
        };
        factor_span.finish();
        let solved = self.solve_factored(&chol, &shifted);
        let buffer = chol.into_storage();
        let (sol, certificates, cond) = match solved {
            Ok(solved) => solved,
            Err(e) => {
                self.buffer = Some(buffer);
                return Err(e);
            }
        };
        // the primal solution is the weights; a dual form releases the
        // buffer before the weights `X̃ᵀU` are allocated
        match self.back {
            BackProjection::None => self.buffer = Some(buffer),
            BackProjection::Dense(_) | BackProjection::Sparse(_) => drop(buffer),
        }
        let _span = srda_obs::span!(rec, "fit/backsub");
        let weights = self.back.project(sol, &self.exec)?;
        #[cfg(feature = "failpoints")]
        let weights = {
            let mut weights = weights;
            if srda_linalg::failpoint::should_fail("ridge.weights") {
                if let Some(v) = weights.as_mut_slice().first_mut() {
                    *v = f64::NAN;
                }
            }
            weights
        };
        if !weights.as_slice().iter().all(|v| v.is_finite()) {
            return Err(LinalgError::NonFinite {
                context: "ridge solution",
            });
        }
        Ok(DirectSolve {
            weights,
            certificates,
            cond,
        })
    }

    /// Solve and certify against a factor written over the Gram buffer,
    /// whose upper triangle and `shifted` diagonal are the factored matrix.
    fn solve_factored(
        &self,
        chol: &Cholesky,
        shifted: &[f64],
    ) -> Result<(Mat, Vec<SolveCertificate>, f64)> {
        let rec = self.exec.recorder();
        let backsub_span = srda_obs::span!(rec, "fit/backsub");
        let mut sol = chol.solve_mat(&self.rhs)?;
        backsub_span.finish();
        let certify_span = srda_obs::span!(rec, "fit/certify");
        let cond = chol.condition_estimate();
        let certificates = certify_spd_solves(
            chol,
            Symmetric::upper(chol.l(), shifted),
            cond,
            &self.rhs,
            &mut sol,
            MAX_REFINE_STEPS,
            &self.exec,
        )?;
        certify_span.finish();
        if let Some(bad) = certificates.iter().find(|c| c.is_suspect()) {
            return Err(LinalgError::CertificationFailed {
                error_bound: bad.error_bound(),
            });
        }
        Ok((sol, certificates, cond))
    }

    /// Walk rungs 1 and 2 of the ladder (module docs) for ridge `alpha`,
    /// probing `governor` before every factorization.
    pub fn solve_ladder(
        &mut self,
        alpha: f64,
        governor: Option<&RunGovernor>,
    ) -> Result<LadderOutcome<DirectSolve>> {
        let base = self.jitter_base(alpha);
        factor_ladder_governed(
            alpha,
            base,
            MAX_JITTER_RETRIES,
            JITTER_FACTOR,
            "direct solve",
            governor,
            |jitter| self.solve(alpha + jitter),
        )
    }
}

impl BackProjection<'_> {
    /// The weights `W̃` from the solution `sol` of the factored system.
    fn project(&self, sol: Mat, exec: &Executor) -> Result<Mat> {
        match self {
            BackProjection::None => Ok(sol),
            BackProjection::Dense(x) => matmul_transa_augmented_exec(x, &sol, exec),
            BackProjection::Sparse(x) => {
                let n = x.ncols();
                let mut w = Mat::zeros(n + 1, sol.ncols());
                for j in 0..sol.ncols() {
                    let uj = sol.col(j);
                    let wj = x
                        .matvec_t_exec(&uj, exec)
                        .expect("U has one row per sample");
                    for (i, v) in wj.into_iter().enumerate() {
                        w[(i, j)] = v;
                    }
                    w[(n, j)] = uj.iter().sum();
                }
                Ok(w)
            }
        }
    }

    /// The upper triangle of the dual Gram `X̃X̃ᵀ = XXᵀ + 1`. Each entry of
    /// `XXᵀ` is one ascending dot product, so adding 1 afterwards is
    /// bitwise the last step of the dot over `X̃`. Deterministic, so a
    /// rebuild is bitwise the first build.
    fn dual_gram(&self, exec: &Executor) -> Mat {
        let mut g = match self {
            BackProjection::None => unreachable!("the primal form keeps its Gram matrix"),
            BackProjection::Dense(x) => {
                // count `X̃X̃ᵀ`'s flam, as `gram_t_exec` of `X̃` does: the
                // bias lane adds one per upper-triangle entry
                let m = x.nrows();
                srda_linalg::flam::add((m * (m + 1) / 2) as u64);
                gram_t_upper_exec(x, exec)
            }
            BackProjection::Sparse(x) => x
                .gram_t_upper_checked_exec(usize::MAX, exec)
                .expect("an unlimited budget never declines"),
        };
        add_bias_upper(&mut g);
        g
    }
}

/// Add the bias column's contribution, 1, to every entry of the upper
/// triangle, diagonal included.
fn add_bias_upper(g: &mut Mat) {
    for i in 0..g.nrows() {
        g.row_mut(i)[i..].iter_mut().for_each(|v| *v += 1.0);
    }
}

/// One recovery step a fit took.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// A re-factorization with `jitter` extra diagonal loading was
    /// attempted (successfully or not — see the paired warning).
    JitterRetry {
        /// Extra diagonal loading used for this attempt.
        jitter: f64,
    },
    /// The damped LSQR fallback was engaged.
    LsqrFallback,
}

/// Is this an error the jitter ladder can plausibly fix with more
/// diagonal loading? Certification failures are retryable: extra diagonal
/// loading lowers κ, which is exactly what shrinks the failed
/// forward-error bound.
fn retryable(e: &LinalgError) -> bool {
    matches!(
        e,
        LinalgError::NotPositiveDefinite { .. }
            | LinalgError::Singular { .. }
            | LinalgError::NonFinite { .. }
            | LinalgError::CertificationFailed { .. }
    )
}

/// Outcome of one [`factor_ladder_governed`] walk: the surviving attempt
/// (if any) plus the paper trail accumulated along the way.
#[derive(Debug, Clone)]
pub struct LadderOutcome<T> {
    /// The successful attempt's value and the extra diagonal loading that
    /// made it succeed (`0.0` for the plain direct attempt); `None` when
    /// every attempt broke down retryably.
    pub value: Option<(T, f64)>,
    /// One [`RecoveryAction::JitterRetry`] per jittered attempt, in order.
    pub actions: Vec<RecoveryAction>,
    /// Human-readable breakdown/recovery descriptions, in order.
    pub warnings: Vec<String>,
    /// `Some(reason)` when a [`RunGovernor`] stopped the ladder between
    /// attempts; `value` is `None` in that case.
    pub interrupted: Option<Interrupt>,
}

/// Walk the direct → escalating-jitter factorization ladder.
///
/// `attempt` receives the **total** extra diagonal loading to apply:
/// `0.0` for the direct try, then `base_jitter * jitter_factor^(k−1)` for
/// retry `k ∈ 1..=max_retries`. Retryable breakdowns are recorded and
/// escalated; any other error propagates immediately. Each attempt is an
/// O(n³) stage, so the governor's budget is probed (without consuming an
/// iteration) before every one; an interrupt ends the walk with
/// [`LadderOutcome::interrupted`] set and no value.
pub fn factor_ladder_governed<T>(
    alpha: f64,
    base_jitter: f64,
    max_retries: usize,
    jitter_factor: f64,
    what: &str,
    governor: Option<&RunGovernor>,
    mut attempt: impl FnMut(f64) -> Result<T>,
) -> Result<LadderOutcome<T>> {
    let mut out = LadderOutcome {
        value: None,
        actions: Vec::new(),
        warnings: Vec::new(),
        interrupted: None,
    };
    if let Some(reason) = governor.and_then(|g| g.probe()) {
        out.interrupted = Some(reason);
        return Ok(out);
    }
    match attempt(0.0) {
        Ok(v) => {
            out.value = Some((v, 0.0));
            return Ok(out);
        }
        Err(e) if retryable(&e) => out
            .warnings
            .push(format!("{what} failed (α = {alpha:e}): {e}")),
        Err(e) => return Err(e),
    }
    for retry in 1..=max_retries {
        if let Some(reason) = governor.and_then(|g| g.probe()) {
            out.interrupted = Some(reason);
            out.warnings.push(format!(
                "recovery ladder stopped before retry {retry}: {reason}"
            ));
            return Ok(out);
        }
        let jitter = base_jitter * jitter_factor.powi(retry as i32 - 1);
        out.actions.push(RecoveryAction::JitterRetry { jitter });
        match attempt(jitter) {
            Ok(v) => {
                out.warnings.push(format!(
                    "recovered with diagonal jitter {jitter:e} on retry {retry}"
                ));
                out.value = Some((v, jitter));
                return Ok(out);
            }
            Err(e) if retryable(&e) => out.warnings.push(format!(
                "jitter retry {retry} (jitter {jitter:e}) failed: {e}"
            )),
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srda_linalg::ops::matvec;

    fn noise_mat(m: usize, n: usize) -> Mat {
        Mat::from_fn(m, n, |i, j| {
            let x = (i as f64 * 91.17 + j as f64 * 13.73).sin() * 43758.5453;
            x - x.floor() - 0.5
        })
    }

    fn solve_vec(solver: &RidgeSolver, x: &Mat, y: &[f64]) -> Vec<f64> {
        let ym = Mat::from_vec(y.len(), 1, y.to_vec()).unwrap();
        solver.solve(x, &ym).unwrap().col(0)
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn primal_solves_normal_equations() {
        let x = noise_mat(12, 5);
        let y: Vec<f64> = (0..12).map(|i| (i as f64 * 0.8).sin()).collect();
        let alpha = 0.4;
        let solver = RidgeSolver::primal(&x, alpha).unwrap();
        let w = solve_vec(&solver, &x, &y);
        // verify (XᵀX + αI)w = Xᵀy
        let mut g = gram(&x);
        g.add_to_diag(alpha);
        let lhs = matvec(&g, &w).unwrap();
        let rhs = srda_linalg::ops::matvec_t(&x, &y).unwrap();
        for (a, b) in lhs.iter().zip(&rhs) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn primal_and_dual_agree() {
        // the push-through identity must hold exactly for α > 0
        for (m, n) in [(12, 5), (5, 12), (8, 8)] {
            let x = noise_mat(m, n);
            let y = Mat::from_fn(m, 2, |i, j| ((i + j) as f64 * 0.37).cos());
            let alpha = 0.25;
            let wp = RidgeSolver::primal(&x, alpha)
                .unwrap()
                .solve(&x, &y)
                .unwrap();
            let wd = RidgeSolver::dual(&x, alpha).unwrap().solve(&x, &y).unwrap();
            assert!(
                wp.approx_eq(&wd, 1e-8),
                "primal/dual mismatch for {m}x{n}: {}",
                wp.sub(&wd).unwrap().max_abs()
            );
        }
    }

    #[test]
    fn auto_picks_smaller_side() {
        let tall = noise_mat(20, 5);
        assert_eq!(
            RidgeSolver::auto(&tall, 1.0).unwrap().form(),
            RidgeForm::Primal
        );
        let wide = noise_mat(5, 20);
        assert_eq!(
            RidgeSolver::auto(&wide, 1.0).unwrap().form(),
            RidgeForm::Dual
        );
    }

    #[test]
    fn multi_rhs_matches_single_rhs() {
        let x = noise_mat(10, 6);
        let y = Mat::from_fn(10, 3, |i, j| (i as f64 - j as f64) * 0.2);
        let solver = RidgeSolver::auto(&x, 0.5).unwrap();
        let w = solver.solve(&x, &y).unwrap();
        for j in 0..3 {
            let wj = solve_vec(&solver, &x, &y.col(j));
            for (a, b) in w.col(j).iter().zip(&wj) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn alpha_zero_requires_full_rank_primal() {
        // full column rank: OK with α = 0
        let x = noise_mat(12, 4);
        assert!(RidgeSolver::primal(&x, 0.0).is_ok());
        // rank-deficient (an all-zero feature): fails without regularization
        let col = noise_mat(12, 1);
        let x_bad = col.hcat(&Mat::zeros(12, 1)).unwrap();
        assert!(RidgeSolver::primal(&x_bad, 0.0).is_err());
        // ...but succeeds with it
        assert!(RidgeSolver::primal(&x_bad, 1e-6).is_ok());
    }

    #[test]
    fn larger_alpha_shrinks_solution() {
        let x = noise_mat(15, 6);
        let y: Vec<f64> = (0..15).map(|i| (i as f64 * 0.29).sin()).collect();
        let norm = |alpha: f64| {
            let w = solve_vec(&RidgeSolver::primal(&x, alpha).unwrap(), &x, &y);
            srda_linalg::vector::norm2(&w)
        };
        let n_small = norm(1e-3);
        let n_mid = norm(1.0);
        let n_big = norm(100.0);
        assert!(
            n_small > n_mid && n_mid > n_big,
            "{n_small} {n_mid} {n_big}"
        );
    }

    #[test]
    fn dual_handles_high_dimensional_data() {
        // n ≫ m: the regime where the paper's Eqn 21 saves the day
        let x = noise_mat(6, 200);
        let y: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let solver = RidgeSolver::dual(&x, 0.1).unwrap();
        let w = solve_vec(&solver, &x, &y);
        assert_eq!(w.len(), 200);
        // residual should be small: 6 equations, 200 unknowns, mild ridge
        let fit = matvec(&x, &w).unwrap();
        for (a, b) in fit.iter().zip(&y) {
            assert!((a - b).abs() < 0.3, "{a} vs {b}");
        }
    }

    #[test]
    fn certified_rungs_are_bitwise_the_plain_solve_on_clean_problems() {
        use crate::certificate::CertStatus;
        // tall → primal, wide → dual; X̃ = [X | 1] on both sides
        for (m, n) in [(12, 5), (5, 12)] {
            let x = noise_mat(m, n);
            let y = Mat::from_fn(m, 2, |i, j| ((i + j) as f64 * 0.37).cos());
            let xa = x.append_constant_col(1.0);
            let plain = RidgeSolver::auto(&xa, 0.25)
                .unwrap()
                .solve(&xa, &y)
                .unwrap();
            let mut system = RidgeSystem::dense(&x, &y, Executor::serial()).unwrap();
            let solved = system.solve(0.25).unwrap();
            assert_eq!(solved.certificates.len(), 2);
            for c in &solved.certificates {
                assert_eq!(c.certified, CertStatus::Certified);
                assert_eq!(c.refinement_steps, 0);
                assert_eq!(c.cond_estimate, solved.cond);
                assert!(c.cond_estimate >= 1.0);
            }
            assert_eq!(bits(&solved.weights), bits(&plain), "{m}x{n}");
            // a later rung starts from the saved diagonal, not the last one
            system.solve(7.0).unwrap();
            assert_eq!(bits(&system.solve(0.25).unwrap().weights), bits(&plain));
        }
    }

    #[test]
    fn sparse_system_matches_the_dense_dual_system() {
        let x = Mat::from_fn(6, 14, |i, j| {
            if (i + 2 * j) % 3 == 0 {
                (i as f64 * 0.7 + j as f64 * 0.3).sin()
            } else {
                0.0
            }
        });
        let y = Mat::from_fn(6, 2, |i, j| ((i * 2 + j) as f64 * 0.41).cos());
        let csr = CsrMatrix::from_dense(&x, 0.0);
        let dense = RidgeSystem::dense(&x, &y, Executor::serial())
            .unwrap()
            .solve(0.5)
            .unwrap();
        let sparse = RidgeSystem::sparse(&csr, &y, usize::MAX, Executor::serial())
            .unwrap()
            .solve(0.5)
            .unwrap();
        assert!(dense.weights.approx_eq(&sparse.weights, 1e-12));
        // a budget below the 6 × 6 Gram matrix declines it
        let declined = RidgeSystem::sparse(&csr, &y, 6 * 6 * 8 - 1, Executor::serial());
        assert_eq!(declined.unwrap_err().needed_bytes, 6 * 6 * 8);
    }

    #[test]
    fn threaded_executor_matches_serial_bitwise() {
        let x = noise_mat(40, 17);
        let y = Mat::from_fn(40, 3, |i, j| ((i + 3 * j) as f64 * 0.21).sin());
        let serial = RidgeSystem::dense(&x, &y, Executor::serial())
            .unwrap()
            .solve_ladder(0.3, None)
            .unwrap();
        let (ws, _) = serial.value.unwrap();
        for t in [2, 4, 9] {
            let out = RidgeSystem::dense(&x, &y, Executor::threaded(t))
                .unwrap()
                .solve_ladder(0.3, None)
                .unwrap();
            assert!(out.actions.is_empty() && out.warnings.is_empty());
            let (wt, jitter) = out.value.unwrap();
            assert_eq!(jitter, 0.0);
            assert_eq!(bits(&ws.weights), bits(&wt.weights), "threads = {t}");
        }
    }

    #[test]
    fn jitter_base_scales_with_alpha_or_the_gram_matrix() {
        let x = noise_mat(15, 6);
        let y = Mat::from_fn(15, 1, |i, _| i as f64);
        let mut system = RidgeSystem::dense(&x, &y, Executor::serial()).unwrap();
        assert_eq!(system.jitter_base(0.01), 0.1);
        // α = 0: 1e-10 of the largest Gram entry, which the bias column
        // makes at least m = 15
        let base = system.jitter_base(0.0);
        assert_eq!(base, 1e-10 * gram(&x.append_constant_col(1.0)).max_abs());
        assert!(base >= 15e-10);
    }

    #[test]
    fn the_factor_is_written_over_the_gram_buffer() {
        // tall → primal, which keeps its buffer after the solve
        let x = noise_mat(30, 9);
        let y = Mat::from_fn(30, 2, |i, j| ((i + 5 * j) as f64 * 0.3).sin());
        let mut system = RidgeSystem::dense(&x, &y, Executor::serial()).unwrap();
        let ptr = system.buffer.as_ref().unwrap().as_slice().as_ptr();
        let gram_upper = |m: &Mat| -> Vec<u64> {
            (0..m.nrows())
                .flat_map(|i| m.row(i)[i + 1..].iter().map(|v| v.to_bits()))
                .collect()
        };
        let upper = gram_upper(system.buffer.as_ref().unwrap());
        system.solve_ladder(0.5, None).unwrap().value.unwrap();
        let buffer = system.buffer.as_ref().unwrap();
        assert_eq!(buffer.as_slice().as_ptr(), ptr);
        assert_eq!(gram_upper(buffer), upper);
    }

    #[test]
    fn a_retry_after_a_breakdown_is_bitwise_a_fresh_rung() {
        // an all-zero feature makes the unshifted primal Gram singular, so
        // the direct rung breaks down part-way through the factor and
        // leaves a partial L below the Gram matrix
        let x = noise_mat(20, 5).hcat(&Mat::zeros(20, 1)).unwrap();
        let y = Mat::from_fn(20, 2, |i, j| ((i * 2 + j) as f64 * 0.41).cos());
        let out = RidgeSystem::dense(&x, &y, Executor::serial())
            .unwrap()
            .solve_ladder(0.0, None)
            .unwrap();
        let (solved, jitter) = out.value.expect("a jittered rung factors");
        assert!(
            out.warnings[0].contains("not positive definite"),
            "{:?}",
            out.warnings
        );
        assert_eq!(out.actions, vec![RecoveryAction::JitterRetry { jitter }]);
        let fresh = RidgeSystem::dense(&x, &y, Executor::serial())
            .unwrap()
            .solve(jitter)
            .unwrap();
        assert_eq!(bits(&solved.weights), bits(&fresh.weights));
        assert_eq!(solved.cond.to_bits(), fresh.cond.to_bits());
        assert_eq!(solved.certificates, fresh.certificates);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn non_finite_dual_weights_retry_on_a_rebuilt_gram_matrix() {
        use srda_linalg::failpoint;
        // wide → dual, dense and sparse: both release the buffer before
        // back-projecting, so the retry rebuilds it
        let x = noise_mat(6, 14);
        let csr = CsrMatrix::from_dense(&x, 0.0);
        let y = Mat::from_fn(6, 2, |i, j| ((i * 2 + j) as f64 * 0.41).cos());
        let alpha = 0.5;
        let systems = || {
            [
                RidgeSystem::dense(&x, &y, Executor::serial()).unwrap(),
                RidgeSystem::sparse(&csr, &y, usize::MAX, Executor::serial()).unwrap(),
            ]
        };
        for (mut system, mut fresh) in systems().into_iter().zip(systems()) {
            failpoint::reset();
            failpoint::arm("ridge.weights", 1);
            let out = system.solve_ladder(alpha, None).unwrap();
            assert_eq!(failpoint::fired("ridge.weights"), 1);
            failpoint::reset();
            let jitter = alpha * JITTER_FACTOR;
            assert_eq!(out.actions, vec![RecoveryAction::JitterRetry { jitter }]);
            let non_finite = LinalgError::NonFinite {
                context: "ridge solution",
            };
            assert_eq!(
                out.warnings,
                vec![
                    format!("direct solve failed (α = {alpha:e}): {non_finite}"),
                    format!("recovered with diagonal jitter {jitter:e} on retry 1"),
                ]
            );
            let (solved, got) = out.value.unwrap();
            assert_eq!(got, jitter);
            let want = fresh.solve(alpha + jitter).unwrap();
            assert_eq!(bits(&solved.weights), bits(&want.weights));
            assert_eq!(solved.certificates, want.certificates);
        }
    }

    #[test]
    fn near_collinear_escalates_on_certification_not_breakdown() {
        // Seven columns that differ from a shared one by 1e-6-sized noise
        // make κ(X̃ᵀX̃) ≈ 5e13 with no scaling to exploit. The factorization
        // *succeeds*, the backward error is already at the floor (so
        // refinement has nothing to repair), and κ·η fails the bound: the
        // ladder must escalate via CertificationFailed and land on a
        // jittered, certified solve.
        let m = 16;
        let n = 7;
        let base = noise_mat(m, n + 1);
        let x = Mat::from_fn(m, n, |i, j| {
            base[(i, 0)] + 1e-6 * j as f64 * base[(i, j + 1)]
        });
        let y = Mat::from_fn(m, 1, |i, _| ((i as f64) * 0.4).cos());
        // the un-certified direct factorization itself does not break down
        assert!(RidgeSolver::primal(&x.append_constant_col(1.0), 0.0).is_ok());
        let out = RidgeSystem::dense(&x, &y, Executor::serial())
            .unwrap()
            .solve_ladder(0.0, None)
            .unwrap();
        let (solved, jitter) = out.value.expect("a jittered rung certifies");
        assert!(jitter > 0.0, "expected jitter escalation");
        assert!(out
            .warnings
            .iter()
            .any(|w| w.contains("failed certification")));
        assert!(solved.certificates.iter().all(|c| !c.is_suspect()));
        assert!(solved.weights.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn shape_mismatch_propagates_without_a_retry() {
        // a right-hand side with the wrong row count is a caller bug, not
        // a numerical breakdown: no rung may retry it
        let x = noise_mat(10, 14);
        let y_bad = Mat::from_fn(9, 1, |i, _| i as f64);
        let mut system = RidgeSystem::dense(&x, &y_bad, Executor::serial()).unwrap();
        let err = system.solve_ladder(0.1, None).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }), "{err:?}");
        // the primal form meets it while building X̃ᵀȲ
        let tall = noise_mat(10, 4);
        let err = RidgeSystem::dense(&tall, &y_bad, Executor::serial()).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn governed_ladder_with_spent_budget_interrupts_before_factoring() {
        use crate::governor::RunBudget;
        let x = noise_mat(10, 4);
        let y = Mat::from_fn(10, 1, |i, _| i as f64 * 0.1);
        let g = RunGovernor::with_budget(RunBudget::with_max_wall(std::time::Duration::ZERO));
        let out = RidgeSystem::dense(&x, &y, Executor::serial())
            .unwrap()
            .solve_ladder(0.5, Some(&g))
            .unwrap();
        assert_eq!(out.interrupted, Some(Interrupt::DeadlineExceeded));
        assert!(out.value.is_none());
        assert!(out.actions.is_empty());
    }

    #[test]
    fn ladder_escalates_and_records_schedule() {
        let mut calls = Vec::new();
        let out = factor_ladder_governed(0.5, 2.0, 3, 10.0, "unit factor", None, |j| {
            calls.push(j);
            if j < 100.0 {
                Err(LinalgError::Singular { pivot: 0 })
            } else {
                Ok(j)
            }
        })
        .unwrap();
        // total jitter per attempt: direct, then base · factor^(k−1)
        assert_eq!(calls, vec![0.0, 2.0, 20.0, 200.0]);
        assert_eq!(out.value, Some((200.0, 200.0)));
        assert_eq!(out.actions.len(), 3);
        assert_eq!(out.warnings.len(), 4); // direct fail + 2 retry fails + recovery
        assert!(out.warnings[0].starts_with("unit factor failed (α = 5e-1)"));
        assert!(out.warnings.last().unwrap().contains("on retry 3"));
    }

    #[test]
    fn ladder_exhaustion_returns_no_value() {
        let out = factor_ladder_governed(1.0, 10.0, 2, 10.0, "unit factor", None, |_| {
            Err::<(), _>(LinalgError::Singular { pivot: 1 })
        })
        .unwrap();
        assert!(out.value.is_none());
        assert_eq!(out.actions.len(), 2);
        assert_eq!(out.warnings.len(), 3);
    }

    #[test]
    fn ladder_propagates_non_retryable_errors() {
        let err = factor_ladder_governed(1.0, 10.0, 3, 10.0, "unit factor", None, |_| {
            Err::<(), _>(LinalgError::ShapeMismatch {
                op: "unit",
                lhs: (1, 1),
                rhs: (2, 2),
            })
        })
        .unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn governed_ladder_stops_between_retries() {
        use crate::governor::{CancelToken, RunBudget};
        let token = CancelToken::new();
        let g = RunGovernor::new(RunBudget::unbounded(), token.clone());
        let mut calls = 0usize;
        let out = factor_ladder_governed(0.5, 2.0, 3, 10.0, "unit factor", Some(&g), |_| {
            calls += 1;
            // cancel lands while the first attempt is "running"
            token.cancel();
            Err::<(), _>(LinalgError::Singular { pivot: 0 })
        })
        .unwrap();
        assert_eq!(calls, 1, "no retry after cancellation");
        assert_eq!(out.interrupted, Some(Interrupt::Cancelled));
        assert!(out.value.is_none());
        assert!(out
            .warnings
            .iter()
            .any(|w| w.contains("stopped before retry")));
    }
}
