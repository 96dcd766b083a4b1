//! Machine-checkable solution-quality certificates.
//!
//! Every ridge solve in the workspace — direct Cholesky, damped LSQR/CGLS,
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
//!   [`srda_linalg::Cholesky`]. If the bound fails, fixed-precision
//!   iterative refinement ([`srda_linalg::refine`]) is attempted against
//!   the existing factor before declaring the solution [`Suspect`].
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
use srda_linalg::{refine, vector, Cholesky, Mat, Result};

/// Forward-error-bound acceptance threshold for direct solves: a solution
/// is certified when `cond_estimate × backward_error ≤ CERTIFY_BOUND`,
/// i.e. its estimated relative forward error is at most 1 part in 10⁴ —
/// far tighter than anything a downstream classifier margin can detect,
/// while still letting the backward-stable-but-ill-conditioned regime
/// (κ·ε ≳ 10⁻⁴) escalate.
pub const CERTIFY_BOUND: f64 = 1e-4;

/// Residual acceptance threshold for matrix-free certificates: the
/// relative normal-equation residual of a converged damped LSQR/CGLS run
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
/// the SPD system `G·x = b` against its existing Cholesky factor.
///
/// `g` must be the full symmetric matrix that was factored (with any
/// diagonal shift already applied — certificates always describe the
/// system that was actually solved). `cond_estimate` is computed once per
/// factorization by the caller ([`Cholesky::condition_estimate`] costs a
/// handful of O(n²) solves) and shared across the `c − 1` response
/// certificates. When the initial forward-error bound is within
/// [`CERTIFY_BOUND`], `x` is left bitwise untouched.
pub fn certify_spd_solve(
    chol: &Cholesky,
    g: &Mat,
    cond_estimate: f64,
    b: &[f64],
    x: &mut [f64],
    max_refine_steps: usize,
) -> Result<SolveCertificate> {
    let eta = refine::backward_error(g, b, x);
    if let Some(cert) = certified_as_is(eta, cond_estimate) {
        return Ok(cert);
    }
    let rep = refine::refine_solve(chol, g, b, x, max_refine_steps)?;
    Ok(after_refinement(rep, cond_estimate))
}

/// [`certify_spd_solve`] for every column of `x` (`n × k`, refined in
/// place) against the matching column of `b`: SRDA's `c − 1` responses
/// certified as one multi-right-hand-side system.
///
/// The backward errors of all columns come from one pass over `g`
/// ([`refine::backward_errors`]); only columns that fail the bound are
/// refined, one at a time, exactly as [`certify_spd_solve`] would. The
/// certificates, the refined columns and the flam counted are bitwise
/// those of calling [`certify_spd_solve`] on each column in turn.
pub fn certify_spd_solves(
    chol: &Cholesky,
    g: &Mat,
    cond_estimate: f64,
    b: &Mat,
    x: &mut Mat,
    max_refine_steps: usize,
) -> Result<Vec<SolveCertificate>> {
    let etas = refine::backward_errors(g, b, x)?;
    let mut certs = Vec::with_capacity(etas.len());
    for (j, eta) in etas.into_iter().enumerate() {
        if let Some(cert) = certified_as_is(eta, cond_estimate) {
            certs.push(cert);
            continue;
        }
        let mut col = x.col(j);
        let rep = refine::refine_solve(chol, g, &b.col(j), &mut col, max_refine_steps)?;
        if rep.steps > 0 {
            x.set_col(j, &col);
        }
        certs.push(after_refinement(rep, cond_estimate));
    }
    Ok(certs)
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
    use srda_linalg::ops::matvec;

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

    /// Runs `certify_spd_solves` and the per-column `certify_spd_solve`
    /// loop it replaces on the same inputs, asserting bitwise-equal
    /// certificates, refined solutions and flam; returns the verdicts.
    fn batched_matches_per_column(
        g: &Mat,
        cond: f64,
        b: &Mat,
        x0: &Mat,
        steps: usize,
    ) -> Vec<CertStatus> {
        let chol = Cholesky::factor(g).unwrap();
        let mut xb = x0.clone();
        let (certs, flam_b) = srda_linalg::flam::measure(|| {
            certify_spd_solves(&chol, g, cond, b, &mut xb, steps).unwrap()
        });
        let mut xc = x0.clone();
        let (expect, flam_c) = srda_linalg::flam::measure(|| {
            (0..b.ncols())
                .map(|j| {
                    let mut col = xc.col(j);
                    let cert = certify_spd_solve(&chol, g, cond, &b.col(j), &mut col, steps);
                    let cert = cert.unwrap();
                    if cert.refinement_steps > 0 {
                        xc.set_col(j, &col);
                    }
                    cert
                })
                .collect::<Vec<_>>()
        });
        let cert_bits = |c: &SolveCertificate| {
            (
                c.backward_error.to_bits(),
                c.cond_estimate.to_bits(),
                c.refinement_steps,
                c.certified,
            )
        };
        assert_eq!(
            certs.iter().map(cert_bits).collect::<Vec<_>>(),
            expect.iter().map(cert_bits).collect::<Vec<_>>()
        );
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&xb), bits(&xc));
        assert_eq!(flam_b, flam_c);
        certs.iter().map(|c| c.certified).collect()
    }

    #[test]
    fn batched_certification_is_bitwise_the_per_column_loop() {
        let n = 12;
        let mut seen = Vec::new();
        // A well-conditioned system whose perturbed columns refine, and
        // Hilbert(12) + 1e-14·I, on which some columns stay Suspect.
        let well = Mat::from_fn(n, n, |i, j| {
            if i == j {
                4.0
            } else {
                0.5 / (1 + i + j) as f64
            }
        });
        let mut bad = hilbert(n);
        bad.add_to_diag(1e-14);
        for (g, k) in [(well, 9usize), (bad, 17)] {
            let chol = Cholesky::factor(&g).unwrap();
            let cond = chol.condition_estimate();
            let b = Mat::from_fn(n, k, |i, j| ((i * 7 + j * 3) as f64 * 0.37).sin());
            let mut x = chol.solve_mat(&b).unwrap();
            for j in (1..k).step_by(2) {
                for i in 0..n {
                    x[(i, j)] += 1e-3 * (j as f64) * if i % 2 == 0 { 1.0 } else { -1.0 };
                }
            }
            seen.extend(batched_matches_per_column(&g, cond, &b, &x, 4));
        }
        for want in [
            CertStatus::Certified,
            CertStatus::Refined,
            CertStatus::Suspect,
        ] {
            assert!(seen.contains(&want), "no {want:?} column among {seen:?}");
        }
    }

    #[test]
    fn batched_certification_matches_outside_the_split_range_and_on_nan() {
        let n = 10;
        let mut g = Mat::from_fn(n, n, |i, j| {
            if i == j {
                4.0
            } else {
                0.3 / (1 + i + j) as f64
            }
        });
        g[(2, 7)] = 1e-170; // below the split range: row 2 takes mul_add
        g[(7, 2)] = 1e-170;
        let chol = Cholesky::factor(&g).unwrap();
        let cond = chol.condition_estimate();
        let b = Mat::from_fn(n, 6, |i, j| (i as f64 - j as f64) * 1e120);
        let mut x = chol.solve_mat(&b).unwrap();
        x[(4, 1)] *= 1.1; // refined
        let verdicts = batched_matches_per_column(&g, cond, &b, &x, 3);
        assert!(verdicts.contains(&CertStatus::Refined), "{verdicts:?}");
        // huge solutions (outside the split range) and a NaN entry
        x[(0, 0)] = 1e200;
        x[(3, 5)] = f64::NAN;
        batched_matches_per_column(&g, cond, &b, &x, 3);
        // zero right-hand side and zero solution: η = 0
        batched_matches_per_column(&g, cond, &Mat::zeros(n, 2), &Mat::zeros(n, 2), 3);
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
        let certs = certify_spd_solves(&chol, &g, cond, &bm, &mut x, 3).unwrap();
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
