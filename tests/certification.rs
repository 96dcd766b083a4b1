//! Adversarial battery for the solution-certification subsystem.
//!
//! The claims under test, end to end:
//!
//! 1. **Hilbert fixture (acceptance criterion)** — on `H₁₂ + 1e-12·I`
//!    the direct Cholesky path *succeeds* while its solution is
//!    untrustworthy (forward error and certified error bound both far
//!    above 1e-8); the certified pipeline keeps the backward error at the
//!    working-precision floor (≤ 1e-12) and escalates until a rung
//!    certifies.
//! 2. **Fit-level escalation** — a near-collinear dataset makes the fit's
//!    first factorization fail *certification* (not factorization), and
//!    the `FitReport` records the escalation plus certified certificates
//!    for the accepted rung. A graded-spectrum dataset, whose κ is as
//!    large but whose direct solve is accurate, certifies without
//!    escalating.
//! 3. **Determinism** — certificates are bitwise identical between the
//!    serial and threaded backends, on every solver path.
//! 4. **Monotonicity** — iterative refinement never returns an iterate
//!    with a larger backward error than its input, across conditioning
//!    regimes and perturbation sizes.
//! 5. **Coverage** — every fit path (dense NE, sparse dual NE, dense
//!    LSQR, sparse LSQR, matrix-free operator) records one certificate
//!    per response and a `worst_backward_error` summary, exported as
//!    `srda-obs` gauges, and a direct fit counts the responses its
//!    screen and its compensated path decided.

use srda::{CertStatus, ExecPolicy, Recorder, ResponseSolver, Srda, SrdaConfig, SrdaSolver};
use srda_linalg::ops::matvec;
use srda_linalg::{refine, Cholesky, Mat};
use srda_solvers::certify_spd_solve;
use srda_sparse::CsrMatrix;

/// Hilbert matrix: the canonical ill-conditioned SPD fixture.
fn hilbert(n: usize) -> Mat {
    Mat::from_fn(n, n, |i, j| 1.0 / (i as f64 + j as f64 + 1.0))
}

/// Deterministic noise in [-0.5, 0.5).
fn noise(i: usize, j: usize) -> f64 {
    let t = (i as f64 * 91.17 + j as f64 * 13.73).sin() * 43758.5453;
    t - t.floor() - 0.5
}

/// Three classes, 4-D, well-separated — 2 responses, benign conditioning.
fn three_blobs() -> (Mat, Vec<usize>) {
    let centers = [
        [0.0, 0.0, 0.0, 0.0],
        [5.0, 0.0, 5.0, 0.0],
        [0.0, 5.0, 0.0, 5.0],
    ];
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for (k, c) in centers.iter().enumerate() {
        for s in 0..6 {
            rows.push(
                (0..4)
                    .map(|d| c[d] + noise(k * 31 + s * 7, d) * 0.3)
                    .collect::<Vec<_>>(),
            );
            y.push(k);
        }
    }
    (Mat::from_rows(&rows).unwrap(), y)
}

/// Columns scaled by `10⁻ʲ`: κ of the Gram matrix is astronomical, but
/// only because of the scaling — Cholesky's error follows the condition
/// of the diagonally scaled matrix, so the direct solve is accurate.
fn graded(m: usize, n: usize) -> Mat {
    Mat::from_fn(m, n, |i, j| noise(i, j) * 10f64.powi(-(j as i32)))
}

/// Columns that differ from a shared one by `1e-6`-sized noise: the Gram
/// matrix factors fine, but κ ≈ 5e13 with no scaling to exploit, so
/// certification (not breakdown) drives the escalation.
fn near_collinear(m: usize, n: usize) -> Mat {
    Mat::from_fn(m, n, |i, j| noise(i, 0) + 1e-6 * j as f64 * noise(i, j + 1))
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &t| m.max(t.abs()))
}

/// Everything observable about a certificate, as bit patterns.
fn cert_bits(rep: &srda::FitReport) -> Vec<(u64, u64, usize, CertStatus)> {
    rep.certificates
        .iter()
        .map(|c| {
            (
                c.backward_error.to_bits(),
                c.cond_estimate.to_bits(),
                c.refinement_steps,
                c.certified,
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// 1. Hilbert acceptance fixture
// ---------------------------------------------------------------------

#[test]
fn hilbert_direct_solve_is_untrustworthy_until_escalation_certifies() {
    let n = 12;
    let alpha = 1e-12;
    let mut g = hilbert(n);
    g.add_to_diag(alpha);
    let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin()).collect();
    let b = matvec(&g, &x_true).unwrap();

    // The direct path alone: the factorization succeeds, but with
    // κ ≈ 2e12 the solution's forward error is garbage at the 1e-8 level
    // — and the certificate's error bound κ·η flags exactly that.
    let chol = Cholesky::factor(&g).unwrap();
    let cond = chol.condition_estimate();
    assert!(
        cond > 1e10,
        "κ(H₁₂ + 1e-12·I) must be seen as huge: {cond:e}"
    );
    let x_direct = chol.solve(&b).unwrap();
    let diff: Vec<f64> = x_direct.iter().zip(&x_true).map(|(a, b)| a - b).collect();
    let fwd_err = inf_norm(&diff) / inf_norm(&x_true);
    assert!(
        fwd_err > 1e-8,
        "the uncertified direct solve should be visibly wrong: {fwd_err:e}"
    );
    let eta_direct = refine::backward_error(&g, &b, &x_direct);
    assert!(
        cond * eta_direct > 1e-8,
        "the certificate must flag the direct solve: bound {:e}",
        cond * eta_direct
    );

    // The certified pipeline: refinement keeps η at the working-precision
    // floor (≤ 1e-12), and because κ·ε can never pass the forward-error
    // bound at this conditioning, the verdict demands escalation.
    let mut x = x_direct.clone();
    let cert = certify_spd_solve(&chol, &g, cond, &b, &mut x, 8).unwrap();
    assert!(
        cert.backward_error <= 1e-12,
        "certified-pipeline η = {:e}",
        cert.backward_error
    );
    assert_ne!(
        cert.certified,
        CertStatus::Certified,
        "κ·η = {:e} cannot be certified without escalation",
        cert.error_bound()
    );

    // Walk the ladder's jitter schedule (base α·10, ×10 per retry, 3
    // retries — the ridge ladder's constants): a rung must certify, and its
    // backward error must stay at the floor.
    let mut escalations = 0;
    let mut accepted = None;
    for retry in 1..=3 {
        let jitter = (alpha * 10.0) * 10f64.powi(retry - 1);
        let mut gk = hilbert(n);
        gk.add_to_diag(alpha + jitter);
        let cholk = Cholesky::factor(&gk).unwrap();
        let condk = cholk.condition_estimate();
        let mut xk = cholk.solve(&b).unwrap();
        escalations += 1;
        let ck = certify_spd_solve(&cholk, &gk, condk, &b, &mut xk, 8).unwrap();
        if !ck.is_suspect() {
            accepted = Some(ck);
            break;
        }
    }
    let accepted = accepted.expect("the jitter ladder must reach a certifiable rung");
    assert!(escalations >= 1, "escalation must be exercised");
    assert!(
        accepted.backward_error <= 1e-12,
        "escalated solve η = {:e}",
        accepted.backward_error
    );
    assert!(accepted.cond_estimate < cond, "jitter must lower κ");
}

// ---------------------------------------------------------------------
// 2. Fit-level escalation recorded in FitReport
// ---------------------------------------------------------------------

#[test]
fn near_collinear_fit_escalates_on_certification_and_reports_it() {
    // 7 near-collinear columns put κ(Gram) ≈ 1e13: far enough below
    // 1/(n·ε) that the factorization itself always succeeds, far enough
    // above the certification bound that the direct rung can never pass
    // κ·η ≤ 1e-4 — η is already at the working-precision floor, so
    // refinement cannot rescue it, and escalation is driven by the
    // certificate, not by a breakdown.
    let x = near_collinear(16, 7);
    let y: Vec<usize> = (0..16).map(|i| i / 8).collect();
    let model = Srda::new(SrdaConfig {
        alpha: 0.0,
        ..SrdaConfig::default()
    })
    .fit_dense(&x, &y)
    .unwrap();

    let rep = model.fit_report();
    assert!(
        !rep.clean(),
        "a certification escalation is not a clean fit"
    );
    assert!(
        rep.warnings
            .iter()
            .any(|w| w.contains("failed certification")),
        "warnings must say certification drove the ladder: {:?}",
        rep.warnings
    );
    assert!(!rep.recoveries.is_empty());
    assert!(
        rep.responses
            .iter()
            .all(|s| !matches!(s, ResponseSolver::Direct)),
        "the plain direct solve must not survive: {:?}",
        rep.responses
    );
    // the accepted rung's certificates are clean and at the precision floor
    assert!(!rep.certificates.is_empty());
    assert!(rep.certificates.iter().all(|c| !c.is_suspect()));
    let worst = rep
        .worst_backward_error
        .expect("certificates were recorded");
    assert!(worst <= 1e-12, "certified fit η = {worst:e}");
    let w = model.embedding().weights();
    assert!(w.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn graded_fit_certifies_without_escalation() {
    // κ(Gram) ≈ 1e13 from column scaling alone: the direct solve's
    // normwise backward error sits far below ε, κ·η passes the bound as
    // computed, and the certificate is right to accept it — the plain
    // direct solve survives, with no refinement and no escalation.
    let x = graded(16, 7);
    let y: Vec<usize> = (0..16).map(|i| i / 8).collect();
    let model = Srda::new(SrdaConfig {
        alpha: 0.0,
        ..SrdaConfig::default()
    })
    .fit_dense(&x, &y)
    .unwrap();
    let rep = model.fit_report();
    assert!(rep.clean(), "warnings: {:?}", rep.warnings);
    assert!(rep
        .responses
        .iter()
        .all(|s| matches!(s, ResponseSolver::Direct)));
    assert!(rep.condition_estimate.unwrap() > 1e10);
    assert!(!rep.certificates.is_empty());
    for c in &rep.certificates {
        assert_eq!(c.certified, CertStatus::Certified);
        assert_eq!(c.refinement_steps, 0);
    }
}

// ---------------------------------------------------------------------
// 3. Serial ≡ threaded certificate identity
// ---------------------------------------------------------------------

fn fit_dense_with(x: &Mat, y: &[usize], solver: SrdaSolver, exec: ExecPolicy) -> srda::SrdaModel {
    Srda::new(SrdaConfig {
        solver,
        exec,
        ..SrdaConfig::default()
    })
    .fit_dense(x, y)
    .unwrap()
}

#[test]
fn certificates_are_bitwise_identical_serial_vs_threaded() {
    let (x, y) = three_blobs();

    // direct normal-equations path
    let s = fit_dense_with(&x, &y, SrdaSolver::NormalEquations, ExecPolicy::serial());
    let t = fit_dense_with(&x, &y, SrdaSolver::NormalEquations, ExecPolicy::threaded(4));
    let base = cert_bits(s.fit_report());
    assert_eq!(base.len(), 2, "one certificate per response");
    assert_eq!(base, cert_bits(t.fit_report()), "NE path");

    // a primal system of 121 unknowns: the screen's product splits its
    // rows across the threads
    let wide = Mat::from_fn(300, 120, |i, j| {
        noise(i, j) + if j % 3 == i % 3 { 2.0 } else { 0.0 }
    });
    let labels: Vec<usize> = (0..300).map(|i| i % 3).collect();
    let s = fit_dense_with(
        &wide,
        &labels,
        SrdaSolver::NormalEquations,
        ExecPolicy::serial(),
    );
    let t = fit_dense_with(
        &wide,
        &labels,
        SrdaSolver::NormalEquations,
        ExecPolicy::threaded(4),
    );
    let base = cert_bits(s.fit_report());
    assert_eq!(base.len(), 2);
    assert_eq!(base, cert_bits(t.fit_report()), "121-unknown NE path");

    // LSQR path (fixed iteration budget, the paper's configuration)
    let lsqr = |exec| {
        fit_dense_with(
            &x,
            &y,
            SrdaSolver::Lsqr {
                max_iter: 40,
                tol: 0.0,
            },
            exec,
        )
    };
    let s = lsqr(ExecPolicy::serial());
    let t = lsqr(ExecPolicy::threaded(4));
    let base = cert_bits(s.fit_report());
    assert_eq!(base.len(), 2);
    assert_eq!(base, cert_bits(t.fit_report()), "LSQR path");

    // sparse dual path
    let xs = CsrMatrix::from_dense(&x, 0.0);
    let sparse = |exec| {
        Srda::new(SrdaConfig {
            exec,
            ..SrdaConfig::default()
        })
        .fit_sparse(&xs, &y)
        .unwrap()
    };
    let s = sparse(ExecPolicy::serial());
    let t = sparse(ExecPolicy::threaded(4));
    let base = cert_bits(s.fit_report());
    assert_eq!(base.len(), 2);
    assert_eq!(base, cert_bits(t.fit_report()), "sparse dual path");
}

// ---------------------------------------------------------------------
// 4. Refinement monotonicity across fixtures
// ---------------------------------------------------------------------

#[test]
fn refinement_never_increases_backward_error_across_fixtures() {
    for n in [6, 10, 12] {
        for shift in [1e-6, 1e-10, 1e-13] {
            let mut g = hilbert(n);
            g.add_to_diag(shift);
            let chol = match Cholesky::factor(&g) {
                Ok(c) => c,
                Err(_) => continue, // fixture too singular to factor at all
            };
            let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin()).collect();
            let b = matvec(&g, &x_true).unwrap();
            for perturb in [0.0, 1e-8, 1e-2] {
                let mut x = chol.solve(&b).unwrap();
                for v in x.iter_mut() {
                    *v *= 1.0 + perturb;
                }
                let before = refine::backward_error(&g, &b, &x);
                let rep = refine::refine_solve(&chol, &g, &b, &mut x, 6).unwrap();
                let after = refine::backward_error(&g, &b, &x);
                assert!(
                    after <= before * (1.0 + 1e-12) + f64::EPSILON,
                    "n={n} shift={shift:e} perturb={perturb:e}: \
                     η went {before:e} -> {after:e}"
                );
                // the report is honest about the returned iterate
                assert!(
                    (after - rep.backward_error).abs() <= after.max(1e-300) * 1e-6 + 1e-18,
                    "n={n}: reported {:e} vs actual {after:e}",
                    rep.backward_error
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 5. Every fit path records certificates + obs gauges
// ---------------------------------------------------------------------

#[test]
fn every_fit_path_records_certificates() {
    let (x, y) = three_blobs();
    let xs = CsrMatrix::from_dense(&x, 0.0);

    // dense direct (primal NE)
    let m = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
    let rep = m.fit_report();
    assert!(rep.clean());
    assert_eq!(rep.certificates.len(), 2);
    assert!(rep
        .certificates
        .iter()
        .all(|c| c.certified == CertStatus::Certified));
    assert!(rep.worst_backward_error.is_some());
    assert!(rep.condition_estimate.is_some());

    // sparse direct (dual NE)
    let m = Srda::new(SrdaConfig::default())
        .fit_sparse(&xs, &y)
        .unwrap();
    let rep = m.fit_report();
    assert!(rep.clean());
    assert_eq!(rep.certificates.len(), 2);
    assert!(rep
        .certificates
        .iter()
        .all(|c| c.certified == CertStatus::Certified));
    assert!(rep.responses.iter().all(|s| *s == ResponseSolver::Direct));

    // dense and sparse LSQR, converged to a real tolerance
    let lsqr_cfg = || SrdaConfig {
        solver: SrdaSolver::Lsqr {
            max_iter: 200,
            tol: 1e-10,
        },
        ..SrdaConfig::default()
    };
    let m = Srda::new(lsqr_cfg()).fit_dense(&x, &y).unwrap();
    let rep = m.fit_report();
    assert_eq!(rep.certificates.len(), 2);
    assert!(rep.certificates.iter().all(|c| !c.is_suspect()));
    assert!(rep.worst_backward_error.is_some());

    let m = Srda::new(lsqr_cfg()).fit_sparse(&xs, &y).unwrap();
    let rep = m.fit_report();
    assert_eq!(rep.certificates.len(), 2);
    assert!(rep.certificates.iter().all(|c| !c.is_suspect()));
}

#[test]
fn certification_summary_is_exported_as_gauges() {
    let (x, y) = three_blobs();
    let rec = Recorder::new_enabled();
    let model = Srda::new(SrdaConfig {
        recorder: rec,
        ..SrdaConfig::default()
    })
    .fit_dense(&x, &y)
    .unwrap();
    let snapshot = rec.snapshot();
    let worst = snapshot
        .gauges
        .get("fit.worst_backward_error")
        .copied()
        .expect("worst-backward-error gauge must be exported");
    assert_eq!(
        worst.to_bits(),
        model
            .fit_report()
            .worst_backward_error
            .expect("certificates recorded")
            .to_bits()
    );
    assert_eq!(snapshot.gauges.get("fit.certificates.suspect"), Some(&0.0));
    // every response was decided by the screen or the compensated path
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        counter("certify.screened") + counter("certify.compensated"),
        model.fit_report().certificates.len() as u64
    );
    assert_eq!(
        counter("certify.screened"),
        2,
        "benign responses are screened"
    );
}
