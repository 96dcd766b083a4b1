//! Machine-checkable solution-quality certificates.
//!
//! Every ridge solve in the workspace — direct Cholesky, damped LSQR,
//! or a ladder-recovered hybrid — can produce a [`SolveCertificate`]
//! answering the question the error *type* cannot: "the solve returned
//! finite numbers, but are they any good?". The certificate pairs an a
//! posteriori backward error with a condition estimate, so their product
//! bounds the relative forward error (Higham, ch. 7):
//!
//! ```text
//!   ‖x − x*‖ / ‖x*‖  ≲  κ(A) · η(x)
//! ```
//!
//! * **Direct path** — η is the normwise Rigal–Gaches backward error of the
//!   factored system, κ is the Hager 1-norm estimate captured by
//!   [`srda_linalg::Cholesky`]. A plain residual product plus a rigorous
//!   rounding allowance bounds η from above for every response at once;
//!   a response whose bound already certifies is accepted with it. The
//!   rest get compensated residuals, and where their η still fails,
//!   fixed-precision iterative refinement ([`srda_linalg::refine`]) is
//!   attempted against the existing factor before declaring the solution
//!   [`Suspect`].
//! * **Matrix-free path** — the certificate is computed *post hoc* from the
//!   final iterate with three operator applies: the relative
//!   normal-equation residual `‖Aᵀ(b − A·x) − δ²·x‖ / ‖Aᵀb‖` (the same
//!   quantity behind Paige–Saunders' `‖Aᵀr‖` stopping rule) plus a
//!   Rayleigh-quotient condition probe. Because it is a pure function of
//!   the final `x`, certificates are bitwise identical between serial and
//!   threaded backends and between fresh and checkpoint-resumed solves.
//!
//! [`Suspect`]: CertStatus::Suspect

use crate::operator::LinearOperator;
use srda_linalg::{refine, vector, Cholesky, Executor, Mat, Result, Symmetric};

/// Forward-error-bound acceptance threshold for direct solves: a solution
/// is certified when `cond_estimate × backward_error ≤ CERTIFY_BOUND`,
/// i.e. its estimated relative forward error is at most 1 part in 10⁴ —
/// far tighter than anything a downstream classifier margin can detect,
/// while still letting the backward-stable-but-ill-conditioned regime
/// (κ·ε ≳ 10⁻⁴) escalate.
pub const CERTIFY_BOUND: f64 = 1e-4;

/// Residual acceptance threshold for matrix-free certificates: the
/// relative normal-equation residual of a converged damped LSQR run
/// (default tol 1e-10) sits orders of magnitude below this; anything above
/// it means the iteration stopped early or stalled.
pub const CERTIFY_RESIDUAL: f64 = 1e-6;

/// Certification verdict attached to a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertStatus {
    /// The solution met the acceptance bound as computed — no repair was
    /// needed.
    Certified,
    /// The solution met the bound only after iterative refinement.
    Refined,
    /// The solution failed the bound even after refinement (or the
    /// certificate itself was non-finite). Downstream layers must escalate
    /// or warn.
    Suspect,
}

/// A posteriori quality certificate for one linear-system solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveCertificate {
    /// Normwise relative backward error of the returned solution (direct:
    /// Rigal–Gaches η; matrix-free: relative normal-equation residual).
    pub backward_error: f64,
    /// Condition estimate of the solved system (direct: Hager κ₁;
    /// matrix-free: Rayleigh-quotient probe of `(σ²+δ²)/δ²`, or `+∞` when
    /// `δ = 0` leaves the spectrum unbounded below).
    pub cond_estimate: f64,
    /// Refinement steps applied before the verdict (0 on the matrix-free
    /// path, which repairs by escalation instead).
    pub refinement_steps: usize,
    /// The verdict.
    pub certified: CertStatus,
}

impl SolveCertificate {
    /// The forward-error bound `cond_estimate × backward_error` (NaN-free:
    /// a zero backward error yields 0 even against an infinite κ).
    pub fn error_bound(&self) -> f64 {
        if self.backward_error == 0.0 {
            0.0
        } else {
            self.cond_estimate * self.backward_error
        }
    }

    /// Whether this certificate demands escalation.
    pub fn is_suspect(&self) -> bool {
        self.certified == CertStatus::Suspect
    }
}

/// Worst (largest) backward error across a set of certificates; NaN is
/// treated as `+∞` (a non-finite certificate is the worst possible).
/// `None` for an empty set.
pub fn worst_backward_error(certs: &[SolveCertificate]) -> Option<f64> {
    certs
        .iter()
        .map(|c| {
            if c.backward_error.is_nan() {
                f64::INFINITY
            } else {
                c.backward_error
            }
        })
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

/// Certify (and, when the bound fails, refine in place) one solution of
/// the SPD system `G·x = b` against its existing Cholesky factor: the
/// one-column call of [`certify_spd_solves`], on the serial executor.
pub fn certify_spd_solve(
    chol: &Cholesky,
    g: &Mat,
    cond_estimate: f64,
    b: &[f64],
    x: &mut [f64],
    max_refine_steps: usize,
) -> Result<SolveCertificate> {
    let b = Mat::from_vec(b.len(), 1, b.to_vec())?;
    let mut xm = Mat::from_vec(x.len(), 1, x.to_vec())?;
    let exec = Executor::serial();
    let mut cert =
        certify_spd_solves(chol, g, cond_estimate, &b, &mut xm, max_refine_steps, &exec)?;
    x.copy_from_slice(xm.as_slice());
    Ok(cert.pop().expect("one certificate per column"))
}

/// Certify every column of `x` (`n × k`, refined in place) as a solution
/// of the SPD system `G·x = b` for the matching column of `b`: SRDA's
/// `c − 1` responses certified as one multi-right-hand-side system.
///
/// `g` must be the matrix that was factored (with any diagonal shift
/// already applied — certificates always describe the system that was
/// actually solved): a full `&Mat`, or the upper storage a
/// [`Cholesky::factor_in_place`] left above `chol`'s own factor
/// ([`Symmetric::Upper`]), which gives the same certificates bit for bit. `cond_estimate` is computed once per factorization by
/// the caller ([`Cholesky::condition_estimate`] costs a handful of O(n²)
/// solves) and shared across the certificates.
///
/// Two stages:
///
/// 1. **Screen.** One plain product `G·X` on `exec` gives every column a
///    proven upper bound `η̄ ≥ η` ([`refine::backward_error_bounds`]). A
///    column with a finite `η̄` and `κ·η̄ ≤` [`CERTIFY_BOUND`] is
///    [`Certified`](CertStatus::Certified) as is, and its certificate
///    carries `η̄`.
/// 2. **Compensated path.** The other columns (non-finite entries, `η = 0`,
///    or a bound too loose for their `κ`) are taken one at a time: a
///    compensated backward error ([`refine::backward_error`]), which
///    certifies the column if its `η` meets the bound, else refinement
///    against `chol`. The screen decides every response of the
///    benchmark's normal-equation fits, so this path serves only the few
///    columns of ill-conditioned systems and is not batched.
///
/// The screen certifies a column only where `κ·η ≤ κ·η̄` already meets the
/// bound, so the verdicts, refinement steps and refined columns are those
/// of running stage 2 on every column; only a screened certificate's
/// `backward_error` differs (the bound instead of the estimate). A column
/// left as is keeps its bits. Both stages' products sum in a fixed order,
/// so the certificates do not depend on `exec`'s thread count. When its
/// recorder is on, the counters `certify.screened` and
/// `certify.compensated` count the columns each stage decided.
pub fn certify_spd_solves<'a>(
    chol: &Cholesky,
    g: impl Into<Symmetric<'a>>,
    cond_estimate: f64,
    b: &Mat,
    x: &mut Mat,
    max_refine_steps: usize,
    exec: &Executor,
) -> Result<Vec<SolveCertificate>> {
    let g = g.into();
    let mut certs: Vec<Option<SolveCertificate>> = refine::backward_error_bounds(g, b, x, exec)?
        .into_iter()
        .map(|bound| screened(bound, cond_estimate))
        .collect();
    let rest: Vec<usize> = (0..certs.len()).filter(|&j| certs[j].is_none()).collect();
    let rec = exec.recorder();
    rec.add("certify.screened", (certs.len() - rest.len()) as u64);
    rec.add("certify.compensated", rest.len() as u64);
    for j in rest {
        let eta = refine::backward_error(g, &b.col(j), &x.col(j));
        certs[j] = Some(match certified_as_is(eta, cond_estimate) {
            Some(cert) => cert,
            None => refine_column(chol, g, cond_estimate, b, x, j, max_refine_steps)?,
        });
    }
    Ok(certs.into_iter().flatten().collect())
}

/// The certificate of a column whose proven bound `η̄` already meets the
/// acceptance bound, or `None` if it takes the compensated path.
fn screened(bound: f64, cond_estimate: f64) -> Option<SolveCertificate> {
    (bound.is_finite() && cond_estimate * bound <= CERTIFY_BOUND).then_some(SolveCertificate {
        backward_error: bound,
        cond_estimate,
        refinement_steps: 0,
        certified: CertStatus::Certified,
    })
}

/// Refine column `j` of `x` in place and certify the result.
fn refine_column(
    chol: &Cholesky,
    g: Symmetric<'_>,
    cond_estimate: f64,
    b: &Mat,
    x: &mut Mat,
    j: usize,
    max_refine_steps: usize,
) -> Result<SolveCertificate> {
    let mut col = x.col(j);
    let rep = refine::refine_solve(chol, g, &b.col(j), &mut col, max_refine_steps)?;
    if rep.steps > 0 {
        x.set_col(j, &col);
    }
    Ok(after_refinement(rep, cond_estimate))
}

/// The certificate of a solution whose first backward error already meets
/// the bound, or `None` if it needs refinement.
fn certified_as_is(eta: f64, cond_estimate: f64) -> Option<SolveCertificate> {
    (eta == 0.0 || cond_estimate * eta <= CERTIFY_BOUND).then_some(SolveCertificate {
        backward_error: eta,
        cond_estimate,
        refinement_steps: 0,
        certified: CertStatus::Certified,
    })
}

fn after_refinement(rep: refine::RefineReport, cond_estimate: f64) -> SolveCertificate {
    let bound = cond_estimate * rep.backward_error;
    let certified = if bound.is_finite() && bound <= CERTIFY_BOUND {
        CertStatus::Refined
    } else {
        CertStatus::Suspect
    };
    SolveCertificate {
        backward_error: rep.backward_error,
        cond_estimate,
        refinement_steps: rep.steps,
        certified,
    }
}

/// Post-hoc certificate for a damped least-squares solution
/// `min ‖A·x − b‖² + δ²‖x‖²` computed by any iterative solver.
///
/// Three operator applies: `‖Aᵀ(b − A·x) − δ²·x‖ / ‖Aᵀb‖` is the relative
/// residual of the damped normal equations (zero at the exact minimizer),
/// and `(‖A·x‖²/‖x‖² + δ²)/δ²` is a Rayleigh-quotient probe of the normal
/// matrix's condition number using the solution itself as the probe
/// direction. Deterministic in `x`: bitwise-equal solutions (serial vs
/// threaded, fresh vs resumed) get bitwise-equal certificates.
pub fn certify_operator<Op: LinearOperator + ?Sized>(
    op: &Op,
    b: &[f64],
    x: &[f64],
    damp: f64,
) -> SolveCertificate {
    certify_operator_block(op, b, x, 1, damp)
        .pop()
        .expect("one certificate per column")
}

/// [`certify_operator`] for every column of a panel: `b` is the row-major
/// `nrows × p` block of right-hand sides and `x` the row-major `ncols × p`
/// block of solutions. The three operator applies are block products, so
/// a streaming operator makes three passes over its data for the whole
/// panel. The norms run row by row with one accumulator per column, so
/// each certificate, and the flam counted, are bitwise those of
/// [`certify_operator`] on that column.
pub fn certify_operator_block<Op: LinearOperator + ?Sized>(
    op: &Op,
    b: &[f64],
    x: &[f64],
    p: usize,
    damp: f64,
) -> Vec<SolveCertificate> {
    let (m, n) = (op.nrows(), op.ncols());
    let all = vec![true; p];
    let mut s = vec![0.0; n * p];
    op.apply_t_block_into(b, p, &mut s);
    let denom = vector::col_norms2_robust(&s, p, &all);
    let mut ax = vec![0.0; m * p];
    op.apply_block_into(x, p, &mut ax);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ti)| bi - ti).collect();
    op.apply_t_block_into(&r, p, &mut s);
    let d2 = damp * damp;
    for (si, xi) in s.iter_mut().zip(x) {
        *si -= d2 * xi;
    }
    let s_norm = vector::col_norms2_robust(&s, p, &all);
    let x_norm = vector::col_norms2_robust(x, p, &all);
    // ‖A·x‖ is only needed, and only counted, where ‖x‖ is a usable scale
    let probe: Vec<bool> = x_norm.iter().map(|v| *v != 0.0 && v.is_finite()).collect();
    let ax_norm = vector::col_norms2_robust(&ax, p, &probe);
    (0..p)
        .map(|j| {
            let rho = if s_norm[j] == 0.0 {
                0.0
            } else if denom[j] == 0.0 || !s_norm[j].is_finite() {
                f64::INFINITY
            } else {
                s_norm[j] / denom[j]
            };
            let cond_estimate = if !probe[j] {
                1.0
            } else {
                let sigma_sq = {
                    let q = ax_norm[j] / x_norm[j];
                    q * q
                };
                if d2 > 0.0 {
                    (sigma_sq + d2) / d2
                } else {
                    f64::INFINITY
                }
            };
            let certified = if rho.is_finite() && rho <= CERTIFY_RESIDUAL {
                CertStatus::Certified
            } else {
                CertStatus::Suspect
            };
            SolveCertificate {
                backward_error: rho,
                cond_estimate,
                refinement_steps: 0,
                certified,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use srda_linalg::ops::{self, matvec};

    fn hilbert(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| 1.0 / (i as f64 + j as f64 + 1.0))
    }

    #[test]
    fn well_conditioned_solve_is_certified_untouched() {
        let mut g = Mat::from_fn(4, 4, |i, j| if i == j { 3.0 } else { 0.5 });
        g.add_to_diag(0.0);
        let chol = Cholesky::factor(&g).unwrap();
        let cond = chol.condition_estimate();
        let b = vec![1.0, -2.0, 0.5, 3.0];
        let x0 = chol.solve(&b).unwrap();
        let mut x = x0.clone();
        let cert = certify_spd_solve(&chol, &g, cond, &b, &mut x, 3).unwrap();
        assert_eq!(cert.certified, CertStatus::Certified);
        assert_eq!(cert.refinement_steps, 0);
        assert!(cert.error_bound() <= CERTIFY_BOUND);
        // bitwise untouched on the certified path
        for (a, b) in x.iter().zip(&x0) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn ill_conditioned_solve_refines_or_escalates() {
        let n = 12;
        let mut g = hilbert(n);
        g.add_to_diag(1e-13);
        let chol = Cholesky::factor(&g).unwrap();
        let cond = chol.condition_estimate();
        assert!(
            cond > 1e10,
            "Hilbert(12)+1e-13·I should be seen as bad: {cond:e}"
        );
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin()).collect();
        let b = matvec(&g, &x_true).unwrap();
        let mut x = chol.solve(&b).unwrap();
        let cert = certify_spd_solve(&chol, &g, cond, &b, &mut x, 5).unwrap();
        // whatever the verdict, the certificate must be honest: the reported
        // backward error matches the returned iterate
        let eta = refine::backward_error(&g, &b, &x);
        assert!((eta - cert.backward_error).abs() <= eta.max(1e-300) * 1e-6 + 1e-18);
        assert_ne!(
            cert.certified,
            CertStatus::Certified,
            "κ·η = {:e} cannot pass the bound without refinement",
            cond * eta
        );
    }

    /// The compensated-only rule every column took before the screen:
    /// compensated backward errors of all columns, then refinement of
    /// those that fail. The oracle for [`certify_spd_solves`].
    fn certify_compensated(
        chol: &Cholesky,
        g: &Mat,
        cond: f64,
        b: &Mat,
        x: &mut Mat,
        steps: usize,
    ) -> Vec<SolveCertificate> {
        (0..b.ncols())
            .map(|j| {
                let eta = refine::backward_error(g, &b.col(j), &x.col(j));
                certified_as_is(eta, cond)
                    .unwrap_or_else(|| refine_column(chol, g.into(), cond, b, x, j, steps).unwrap())
            })
            .collect()
    }

    fn cert_bits(c: &SolveCertificate) -> (u64, u64, usize, CertStatus) {
        (
            c.backward_error.to_bits(),
            c.cond_estimate.to_bits(),
            c.refinement_steps,
            c.certified,
        )
    }

    fn mat_bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// What the screen decided on one system.
    #[derive(Default)]
    struct Tally {
        screened: u64,
        compensated: u64,
        verdicts: Vec<CertStatus>,
    }

    /// Certifies `x0` against `g` four ways — [`certify_spd_solves`] on a
    /// recording serial executor and on four threads, the one-column
    /// [`certify_spd_solve`] per column, and the compensated-only oracle —
    /// and asserts that the first three are bitwise equal, and that they
    /// match the oracle in every verdict, refinement step, condition
    /// estimate and refined bit. A backward error may differ only on a
    /// screened column, where it must bound the oracle's from above.
    fn matches_the_compensated_oracle(g: &Mat, b: &Mat, x0: &Mat, steps: usize) -> Tally {
        let chol = Cholesky::factor(g).unwrap();
        let cond = chol.condition_estimate();
        let rec = srda_obs::Recorder::new_enabled();
        let serial = Executor::with_recorder(srda_linalg::ExecPolicy::serial(), rec);
        let mut x = x0.clone();
        let (certs, flam_s) = srda_linalg::flam::measure(|| {
            certify_spd_solves(&chol, g, cond, b, &mut x, steps, &serial).unwrap()
        });
        let mut xt = x0.clone();
        let threaded =
            certify_spd_solves(&chol, g, cond, b, &mut xt, steps, &Executor::threaded(4));
        let mut xc = x0.clone();
        let (per_column, flam_c) = srda_linalg::flam::measure(|| {
            (0..b.ncols())
                .map(|j| {
                    let mut col = xc.col(j);
                    let cert = certify_spd_solve(&chol, g, cond, &b.col(j), &mut col, steps);
                    xc.set_col(j, &col);
                    cert.unwrap()
                })
                .collect::<Vec<_>>()
        });
        let bits: Vec<_> = certs.iter().map(cert_bits).collect();
        assert_eq!(
            bits,
            threaded.unwrap().iter().map(cert_bits).collect::<Vec<_>>()
        );
        assert_eq!(bits, per_column.iter().map(cert_bits).collect::<Vec<_>>());
        assert_eq!(flam_s, flam_c);
        assert_eq!(mat_bits(&x), mat_bits(&xt));
        assert_eq!(mat_bits(&x), mat_bits(&xc));

        let mut xo = x0.clone();
        let expect = certify_compensated(&chol, g, cond, b, &mut xo, steps);
        assert_eq!(mat_bits(&x), mat_bits(&xo), "refined columns");
        let counters = rec.snapshot().counters;
        let tally = Tally {
            screened: counters.get("certify.screened").copied().unwrap_or(0),
            compensated: counters.get("certify.compensated").copied().unwrap_or(0),
            verdicts: certs.iter().map(|c| c.certified).collect(),
        };
        assert_eq!(tally.screened + tally.compensated, b.ncols() as u64);
        let mut moved = 0;
        for (j, (c, e)) in certs.iter().zip(&expect).enumerate() {
            let (cb, eb) = (cert_bits(c), cert_bits(e));
            assert_eq!((cb.1, cb.2, cb.3), (eb.1, eb.2, eb.3), "column {j}");
            if cb.0 != eb.0 {
                moved += 1;
                assert_eq!(
                    (c.certified, c.refinement_steps),
                    (CertStatus::Certified, 0)
                );
                assert!(
                    c.backward_error > e.backward_error,
                    "column {j}: {c:?} vs {e:?}"
                );
            }
        }
        assert!(
            moved <= tally.screened,
            "{moved} moved, {} screened",
            tally.screened
        );
        tally
    }

    /// Deterministic noise in [-0.5, 0.5), as in the integration fixtures.
    fn noise(i: usize, j: usize, a: f64, b: f64) -> f64 {
        let t = (i as f64 * a + j as f64 * b).sin() * 43758.5453;
        t - t.floor() - 0.5
    }

    /// The ridge system of `x` (`m × n`) as a fit factors it: the primal
    /// Gram `X̃ᵀX̃ + αI` of `X̃ = [X | 1]` with right-hand sides `X̃ᵀȲ` when
    /// `n + 1 ≤ m`, else the dual `X̃X̃ᵀ + αI` with `Ȳ`. `Ȳ` holds the
    /// centered indicators of the first `classes − 1` classes.
    fn ridge_fixture(x: &Mat, y: &[usize], classes: usize, alpha: f64) -> (Mat, Mat) {
        let m = x.nrows();
        let ybar = Mat::from_fn(m, classes - 1, |i, c| {
            let share = y.iter().filter(|&&l| l == c).count() as f64 / m as f64;
            f64::from(u8::from(y[i] == c)) - share
        });
        let xa = x.append_constant_col(1.0);
        let (mut g, rhs) = if x.ncols() < m {
            (ops::gram(&xa), ops::matmul_transa(&xa, &ybar).unwrap())
        } else {
            (ops::gram_t(&xa), ybar)
        };
        g.add_to_diag(alpha);
        (g, rhs)
    }

    /// `classes` classes of `per_class` samples in `dim` dimensions, each
    /// class shifted along its own coordinates (the fit-pin fixture).
    fn blobs(classes: usize, per_class: usize, dim: usize) -> (Mat, Vec<usize>) {
        let m = classes * per_class;
        let y: Vec<usize> = (0..m).map(|i| i / per_class).collect();
        let x = Mat::from_fn(m, dim, |i, d| {
            let shift = if d % classes == y[i] { 3.0 } else { 0.0 };
            shift + noise(i, d, 12.9898, 78.233)
        });
        (x, y)
    }

    #[test]
    fn screened_certification_matches_the_compensated_oracle() {
        let mut seen = Tally::default();
        let mut check = |g: &Mat, b: &Mat, x: &Mat| {
            let t = matches_the_compensated_oracle(g, b, x, 4);
            seen.screened += t.screened;
            seen.compensated += t.compensated;
            seen.verdicts.extend(t.verdicts);
        };
        // Hilbert(n) + shift·I, with every other column perturbed
        for (n, shift) in [(6, 1e-6), (10, 1e-10), (12, 1e-13), (12, 1e-14)] {
            let mut g = hilbert(n);
            g.add_to_diag(shift);
            let b = Mat::from_fn(n, 5, |i, j| ((i * 7 + j * 3) as f64 * 0.37).sin());
            let mut x = Cholesky::factor(&g).unwrap().solve_mat(&b).unwrap();
            for i in 0..n {
                x[(i, 1)] *= 1.0 + 1e-7;
                x[(i, 3)] += 1e-3 * if i % 2 == 0 { 1.0 } else { -1.0 };
            }
            check(&g, &b, &x);
        }
        // graded columns (κ ≈ 1e13, accurate solve) and near-collinear
        // ones (κ ≈ 5e13, no scaling to exploit), fitted at α = 0
        let y: Vec<usize> = (0..16).map(|i| i / 8).collect();
        let graded = Mat::from_fn(16, 7, |i, j| {
            noise(i, j, 91.17, 13.73) * 10f64.powi(-(j as i32))
        });
        let collinear = Mat::from_fn(16, 7, |i, j| {
            noise(i, 0, 91.17, 13.73) + 1e-6 * j as f64 * noise(i, j + 1, 91.17, 13.73)
        });
        // the pinned fits: dense primal and dual, sparse-patterned dual,
        // and the tiled primal and dual
        let (tall, y_tall) = blobs(3, 6, 4);
        let (wide, y_wide) = blobs(3, 2, 7);
        let (thin, y_thin) = blobs(3, 6, 30);
        let thin = Mat::from_fn(18, 30, |i, j| {
            if (i * 7 + j * 3) % 5 < 2 {
                thin[(i, j)]
            } else {
                0.0
            }
        });
        let (tiled, y_tiled) = blobs(10, 61, 44);
        let (tiled_dual, y_tiled_dual) = blobs(10, 53, 600);
        let systems = [
            (&graded, &y, 2, 0.0),
            (&collinear, &y, 2, 0.0),
            (&tall, &y_tall, 3, 1.0),
            (&wide, &y_wide, 3, 1.0),
            (&thin, &y_thin, 3, 1.0),
            (&tiled, &y_tiled, 10, 1.0),
            (&tiled_dual, &y_tiled_dual, 10, 1.0),
        ];
        for (x, y, classes, alpha) in systems {
            let (g, b) = ridge_fixture(x, y, classes, alpha);
            let sol = Cholesky::factor(&g).unwrap().solve_mat(&b).unwrap();
            check(&g, &b, &sol);
        }
        assert!(seen.screened > 0 && seen.compensated > 0);
        for want in [
            CertStatus::Certified,
            CertStatus::Refined,
            CertStatus::Suspect,
        ] {
            assert!(seen.verdicts.contains(&want), "no {want:?} column");
        }
    }

    #[test]
    fn oracle_holds_on_tiny_and_huge_entries_and_on_nan() {
        let n = 10;
        let mut g = Mat::from_fn(n, n, |i, j| {
            if i == j {
                4.0
            } else {
                0.3 / (1 + i + j) as f64
            }
        });
        g[(2, 7)] = 1e-170;
        g[(7, 2)] = 1e-170;
        let chol = Cholesky::factor(&g).unwrap();
        let b = Mat::from_fn(n, 6, |i, j| (i as f64 - j as f64) * 1e120);
        let mut x = chol.solve_mat(&b).unwrap();
        x[(4, 1)] *= 1.1; // refined
        let t = matches_the_compensated_oracle(&g, &b, &x, 3);
        assert!(
            t.verdicts.contains(&CertStatus::Refined),
            "{:?}",
            t.verdicts
        );
        // huge solutions and a NaN entry
        x[(0, 0)] = 1e200;
        x[(3, 5)] = f64::NAN;
        let t = matches_the_compensated_oracle(&g, &b, &x, 3);
        assert_eq!(t.verdicts[5], CertStatus::Suspect);
        // zero right-hand side and zero solution: η = 0, never screened
        let t = matches_the_compensated_oracle(&g, &Mat::zeros(n, 2), &Mat::zeros(n, 2), 3);
        assert_eq!((t.screened, t.compensated), (0, 2));
    }

    #[test]
    fn nan_solutions_are_suspect() {
        // f64::max skips NaN, so a NaN residual once folded to ‖r‖∞ = 0 and
        // an all-NaN solution certified with η = 0
        let g = Mat::from_fn(4, 4, |i, j| if i == j { 3.0 } else { 0.5 });
        let chol = Cholesky::factor(&g).unwrap();
        let cond = chol.condition_estimate();
        let b = vec![1.0, -2.0, 0.5, 3.0];
        for x0 in [vec![f64::NAN; 4], vec![0.5, f64::NAN, 0.0, 1.0]] {
            let mut x = x0.clone();
            let cert = certify_spd_solve(&chol, &g, cond, &b, &mut x, 3).unwrap();
            assert_eq!(cert.certified, CertStatus::Suspect, "{x0:?}");
            assert_eq!(cert.backward_error, f64::INFINITY, "{cert:?}");
        }
        let bm = Mat::from_fn(4, 3, |i, j| b[i] + j as f64);
        let mut x = chol.solve_mat(&bm).unwrap();
        for i in 0..4 {
            x[(i, 0)] = f64::NAN;
        }
        x[(2, 2)] = f64::NAN;
        let certs = certify_spd_solves(&chol, &g, cond, &bm, &mut x, 3, &Executor::serial());
        let certs = certs.unwrap();
        let verdicts: Vec<_> = certs.iter().map(|c| c.certified).collect();
        assert_eq!(
            verdicts,
            [
                CertStatus::Suspect,
                CertStatus::Certified,
                CertStatus::Suspect
            ]
        );
    }

    #[test]
    fn operator_certificate_accepts_exact_solutions() {
        let a = Mat::from_fn(6, 3, |i, j| ((i * 3 + j) as f64 * 0.41).cos());
        let damp = 0.5;
        // Solve the damped problem exactly via the primal normal equations.
        let solver = crate::ridge::RidgeSolver::primal(&a, damp * damp).unwrap();
        let y: Vec<f64> = (0..6).map(|i| (i as f64) - 2.0).collect();
        let x = solver
            .solve(&a, &Mat::from_vec(6, 1, y.clone()).unwrap())
            .unwrap()
            .col(0);
        let cert = certify_operator(&a, &y, &x, damp);
        assert_eq!(cert.certified, CertStatus::Certified);
        assert!(cert.backward_error <= 1e-12, "{:e}", cert.backward_error);
        assert!(cert.cond_estimate >= 1.0);
    }

    #[test]
    fn operator_certificate_rejects_garbage() {
        let a = Mat::from_fn(6, 3, |i, j| ((i * 3 + j) as f64 * 0.41).cos());
        let y: Vec<f64> = (0..6).map(|i| (i as f64) - 2.0).collect();
        let cert = certify_operator(&a, &y, &[100.0, -50.0, 25.0], 0.5);
        assert_eq!(cert.certified, CertStatus::Suspect);
        assert!(cert.backward_error > CERTIFY_RESIDUAL);
        let cert = certify_operator(&a, &y, &[f64::NAN, 0.0, 0.0], 0.5);
        assert_eq!(cert.certified, CertStatus::Suspect);
    }

    #[test]
    fn operator_certificate_is_deterministic() {
        let a = Mat::from_fn(5, 4, |i, j| ((i + 2 * j) as f64 * 0.13).sin());
        let y: Vec<f64> = (0..5).map(|i| (i as f64 * 0.9).cos()).collect();
        let x: Vec<f64> = (0..4).map(|i| (i as f64) * 0.25 - 0.4).collect();
        let c1 = certify_operator(&a, &y, &x, 0.3);
        let c2 = certify_operator(&a, &y, &x, 0.3);
        assert_eq!(c1.backward_error.to_bits(), c2.backward_error.to_bits());
        assert_eq!(c1.cond_estimate.to_bits(), c2.cond_estimate.to_bits());
    }

    #[test]
    fn worst_backward_error_picks_max_and_hates_nan() {
        let mk = |e: f64| SolveCertificate {
            backward_error: e,
            cond_estimate: 1.0,
            refinement_steps: 0,
            certified: CertStatus::Certified,
        };
        assert_eq!(worst_backward_error(&[]), None);
        assert_eq!(worst_backward_error(&[mk(1e-12), mk(3e-9)]), Some(3e-9));
        assert_eq!(
            worst_backward_error(&[mk(1e-12), mk(f64::NAN)]),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn error_bound_handles_zero_times_infinity() {
        let c = SolveCertificate {
            backward_error: 0.0,
            cond_estimate: f64::INFINITY,
            refinement_steps: 0,
            certified: CertStatus::Certified,
        };
        assert_eq!(c.error_bound(), 0.0);
    }
}
