//! Deterministic fault injection for every recovery path in the fit
//! pipeline, driven through the `srda_linalg::failpoint` registry (the
//! `failpoints` feature is enabled for test builds by this package's
//! dev-dependencies; release builds contain none of it).
//!
//! Three recovery paths are exercised end to end:
//!
//! 1. **Jitter retry** — a forced `Cholesky::factor` failure makes the
//!    fit re-factor with escalating diagonal loading; the `FitReport`
//!    records the retry and the warning.
//! 2. **LSQR fallback** — when every factorization fails, the fit solves
//!    matrix-free with damped LSQR and says so.
//! 3. **Disk-I/O error surfacing** — an injected `DiskCsr` read failure
//!    poisons the matvec, LSQR stops with `Diverged`, and the fit
//!    returns an error instead of a NaN model.
//!
//! Failpoints are thread-local, so every test arms and resets its own
//! state and stays on one thread.

use srda::{Recorder, RecoveryAction, ResponseSolver, Srda, SrdaConfig, SrdaError, SrdaSolver};
use srda_linalg::failpoint;
use srda_linalg::Mat;
use srda_sparse::CsrMatrix;

/// Two well-separated blobs — small enough that every solver is exact.
fn blobs() -> (Mat, Vec<usize>) {
    let x = Mat::from_rows(&[
        vec![0.0, 0.1, -0.1],
        vec![0.1, -0.1, 0.0],
        vec![-0.1, 0.0, 0.1],
        vec![0.05, 0.05, 0.0],
        vec![4.0, 4.1, 3.9],
        vec![4.1, 3.9, 4.0],
        vec![3.9, 4.0, 4.1],
        vec![4.0, 4.0, 4.0],
    ])
    .unwrap();
    let y = vec![0, 0, 0, 0, 1, 1, 1, 1];
    (x, y)
}

/// Three classes in 4-D, `per_class` samples each: the fixture
/// `tests/telemetry_golden.rs` sizes its span-coverage fit with.
fn three_blobs(per_class: usize) -> (Mat, Vec<usize>) {
    let centers = [
        [0.0, 0.0, 0.0, 0.0],
        [5.0, 0.0, 5.0, 0.0],
        [0.0, 5.0, 0.0, 5.0],
    ];
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for (k, c) in centers.iter().enumerate() {
        for s in 0..per_class {
            let noise = |d: usize| {
                let x = ((k * 31 + s * 7 + d * 13) as f64 * 12.9898).sin() * 43758.5453;
                (x - x.floor() - 0.5) * 0.3
            };
            rows.push((0..4).map(|d| c[d] + noise(d)).collect::<Vec<_>>());
            y.push(k);
        }
    }
    (Mat::from_rows(&rows).unwrap(), y)
}

#[test]
fn ladder_spans_nest_under_fit_on_every_rung() {
    let (x, y) = three_blobs(120);
    let xs = CsrMatrix::from_dense(&x, 0.0);
    for sparse in [false, true] {
        // 0: the clean direct rung; 4: every factorization fails, so the
        // fit lands on the LSQR rung
        for forced in [0, 4] {
            failpoint::reset();
            failpoint::arm("cholesky.singular", forced);
            let rec = Recorder::new_enabled();
            let srda = Srda::new(SrdaConfig {
                recorder: rec,
                ..SrdaConfig::default()
            });
            let model = if sparse {
                srda.fit_sparse(&xs, &y)
            } else {
                srda.fit_dense(&x, &y)
            }
            .unwrap();
            failpoint::reset();
            let tag = format!("sparse = {sparse}, forced failures = {forced}");
            let report = rec.snapshot();
            for s in &report.spans {
                assert!(
                    s.path == "fit" || s.path.starts_with("fit/"),
                    "{tag}: span {} is outside fit",
                    s.path
                );
            }
            let coverage = report.span_coverage("fit").unwrap();
            assert!(coverage >= 0.95, "{tag}: span coverage {coverage:.3}");
            let has = |path: &str| report.spans.iter().any(|s| s.path == path);
            let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);
            assert!(has("fit/gram") && has("fit/factor"), "{tag}");
            if forced == 0 {
                assert!(has("fit/backsub") && has("fit/certify"), "{tag}");
                assert_eq!(counter("ladder.attempts"), 1, "{tag}");
                assert_eq!(counter("ladder.lsqr_fallback"), 0, "{tag}");
                assert!(report.traces.is_empty(), "{tag}");
                assert!(model.fit_report().clean(), "{tag}");
            } else {
                assert_eq!(counter("ladder.attempts"), 4, "{tag}");
                assert_eq!(counter("ladder.lsqr_fallback"), 1, "{tag}");
                assert!(
                    has("fit/lsqr/panel[0]") && has("fit/lsqr/panel[1]"),
                    "{tag}"
                );
                let labels: Vec<&str> = report.traces.iter().map(|t| t.label.as_str()).collect();
                assert_eq!(labels, ["fit/response[0]/lsqr", "fit/response[1]/lsqr"]);
                let rep = model.fit_report();
                assert!(rep
                    .responses
                    .iter()
                    .all(|s| *s == ResponseSolver::LsqrFallback));
            }
        }
    }
}

#[test]
fn a_jittered_rung_solves_the_problem_at_alpha_plus_ten_alpha() {
    // the first jitter rung loads 10α on top of α: its weights are the
    // clean fit's at 11α, whichever breakdown forced the retry
    let (x, y) = three_blobs(6);
    let xs = CsrMatrix::from_dense(&x, 0.0);
    let at = |alpha: f64| SrdaConfig {
        alpha,
        ..SrdaConfig::default()
    };
    for failure in ["cholesky.singular", "cond.inflate"] {
        for sparse in [false, true] {
            let fit = |cfg: SrdaConfig| {
                let srda = Srda::new(cfg);
                if sparse {
                    srda.fit_sparse(&xs, &y)
                } else {
                    srda.fit_dense(&x, &y)
                }
                .unwrap()
            };
            let oracle = fit(at(5.5));
            failpoint::reset();
            failpoint::arm(failure, 1);
            let jittered = fit(at(0.5));
            assert_eq!(failpoint::fired(failure), 1);
            failpoint::reset();
            let rep = jittered.fit_report();
            assert_eq!(
                rep.recoveries,
                [RecoveryAction::JitterRetry { jitter: 5.0 }]
            );
            assert!(rep.certificates.iter().all(|c| !c.is_suspect()));
            let (w, wo) = (jittered.embedding().weights(), oracle.embedding().weights());
            assert!(
                w.approx_eq(wo, 1e-10),
                "{failure}, sparse = {sparse}: {}",
                w.sub(wo).unwrap().max_abs()
            );
        }
    }
}

#[test]
fn forced_cholesky_failure_recovers_via_jitter_retry() {
    failpoint::reset();
    let (x, y) = blobs();
    // fail only the first factorization: the first jittered retry works
    failpoint::arm("cholesky.singular", 1);
    let model = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
    assert_eq!(failpoint::fired("cholesky.singular"), 1);
    failpoint::reset();

    let rep = model.fit_report();
    assert!(!rep.clean());
    assert!(
        rep.responses
            .iter()
            .all(|s| matches!(s, ResponseSolver::DirectJittered { jitter } if *jitter > 0.0)),
        "expected jittered responses, got {:?}",
        rep.responses
    );
    assert_eq!(rep.recoveries.len(), 1);
    assert!(matches!(
        rep.recoveries[0],
        RecoveryAction::JitterRetry { .. }
    ));
    assert!(rep.warnings.iter().any(|w| w.contains("recovered")));
    assert!(rep.condition_estimate.is_some());
    // the jittered model is a valid (more-regularized) SRDA model
    let w = model.embedding().weights();
    assert!(w.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn exhausted_jitter_retries_fall_back_to_lsqr() {
    failpoint::reset();
    let (x, y) = blobs();
    let clean = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();

    // direct attempt + all 3 jitter retries fail → matrix-free fallback
    failpoint::arm("cholesky.singular", 4);
    let model = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
    assert_eq!(failpoint::fired("cholesky.singular"), 4);
    failpoint::reset();

    let rep = model.fit_report();
    assert!(!rep.clean());
    assert!(rep
        .responses
        .iter()
        .all(|s| *s == ResponseSolver::LsqrFallback));
    assert_eq!(
        *rep.recoveries.last().unwrap(),
        RecoveryAction::LsqrFallback
    );
    assert!(rep.condition_estimate.is_none());
    // LSQR solves the same damped problem the direct path would have:
    // the fallback model must match the clean one
    let wf = model.embedding().weights();
    let wc = clean.embedding().weights();
    assert!(
        wf.approx_eq(wc, 1e-6 * wc.max_abs().max(1.0)),
        "fallback drifted from the clean solution by {}",
        wf.sub(wc).unwrap().max_abs()
    );
}

#[test]
fn sparse_dual_path_recovers_via_jitter_and_fallback() {
    failpoint::reset();
    let (x, y) = blobs();
    let xs = CsrMatrix::from_dense(&x, 0.0);
    let clean = Srda::new(SrdaConfig::default())
        .fit_sparse(&xs, &y)
        .unwrap();
    assert!(clean.fit_report().clean());

    // one forced failure → jittered retry
    failpoint::arm("cholesky.singular", 1);
    let jittered = Srda::new(SrdaConfig::default())
        .fit_sparse(&xs, &y)
        .unwrap();
    failpoint::reset();
    assert!(jittered
        .fit_report()
        .responses
        .iter()
        .all(|s| matches!(s, ResponseSolver::DirectJittered { .. })));

    // four forced failures → LSQR fallback, matching the clean weights
    failpoint::arm("cholesky.singular", 4);
    let fallback = Srda::new(SrdaConfig::default())
        .fit_sparse(&xs, &y)
        .unwrap();
    failpoint::reset();
    let rep = fallback.fit_report();
    assert!(rep
        .responses
        .iter()
        .all(|s| *s == ResponseSolver::LsqrFallback));
    assert!(rep.warnings.iter().any(|w| w.contains("damped LSQR")));
    let wf = fallback.embedding().weights();
    let wc = clean.embedding().weights();
    assert!(
        wf.approx_eq(wc, 1e-6 * wc.max_abs().max(1.0)),
        "sparse fallback drifted by {}",
        wf.sub(wc).unwrap().max_abs()
    );
}

#[test]
fn poisoned_condition_estimate_escalates_fit_ladder() {
    failpoint::reset();
    let (x, y) = blobs();
    // Poison only the first factorization's Hager estimate: the direct
    // solve succeeds numerically, but its certificate sees a κ inflated by
    // 1e14, fails the forward-error bound even after refinement, and the
    // ladder must escalate exactly as if the factorization had broken.
    failpoint::arm("cond.inflate", 1);
    let model = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
    assert_eq!(failpoint::fired("cond.inflate"), 1);
    failpoint::reset();

    let rep = model.fit_report();
    assert!(!rep.clean());
    assert!(
        rep.responses
            .iter()
            .all(|s| matches!(s, ResponseSolver::DirectJittered { jitter } if *jitter > 0.0)),
        "a suspect certificate must escalate to a jittered solve, got {:?}",
        rep.responses
    );
    assert_eq!(rep.recoveries.len(), 1);
    assert!(matches!(
        rep.recoveries[0],
        RecoveryAction::JitterRetry { .. }
    ));
    assert!(
        rep.warnings
            .iter()
            .any(|w| w.contains("failed certification")),
        "warnings: {:?}",
        rep.warnings
    );
    // the retry re-certified with an honest κ: no surviving suspects
    assert!(!rep.certificates.is_empty());
    assert!(rep.certificates.iter().all(|c| !c.is_suspect()));
    assert!(rep.worst_backward_error.is_some());
    let w = model.embedding().weights();
    assert!(w.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn stagnant_refinement_cannot_rescue_a_poisoned_certificate() {
    failpoint::reset();
    let (x, y) = blobs();
    let clean = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();

    // Poison every factorization's κ estimate AND force any refinement
    // attempt to stagnate immediately: no direct rung can certify, so the
    // fit must walk the whole ladder and land on the LSQR fallback — whose
    // post-hoc operator certificates are honest and pass.
    failpoint::arm("cond.inflate", 4);
    failpoint::arm("refine.stagnate", 100);
    let model = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
    assert_eq!(failpoint::fired("cond.inflate"), 4);
    failpoint::reset();

    let rep = model.fit_report();
    assert!(!rep.clean());
    assert!(rep
        .responses
        .iter()
        .all(|s| *s == ResponseSolver::LsqrFallback));
    assert_eq!(
        *rep.recoveries.last().unwrap(),
        RecoveryAction::LsqrFallback
    );
    assert!(
        rep.warnings
            .iter()
            .any(|w| w.contains("failed certification")),
        "warnings: {:?}",
        rep.warnings
    );
    assert!(rep.warnings.iter().any(|w| w.contains("damped LSQR")));
    // fallback certificates describe the matrix-free solves and are clean
    assert_eq!(rep.certificates.len(), rep.responses.len());
    assert!(rep.certificates.iter().all(|c| !c.is_suspect()));
    // the fallback solves the same damped problem: weights match the
    // clean fit
    let wf = model.embedding().weights();
    let wc = clean.embedding().weights();
    assert!(
        wf.approx_eq(wc, 1e-6 * wc.max_abs().max(1.0)),
        "fallback drifted from the clean solution by {}",
        wf.sub(wc).unwrap().max_abs()
    );
}

#[test]
fn disk_read_failure_surfaces_as_error_not_nan_model() {
    failpoint::reset();
    let (x, y) = blobs();
    let xs = CsrMatrix::from_dense(&x, 0.0);
    let dir = std::env::temp_dir().join("srda_fault_injection_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("train.srdacsr");
    srda_sparse::disk::write_csr(&path, &xs).unwrap();
    let disk = srda_sparse::DiskCsr::open(&path).unwrap();

    let srda = Srda::new(SrdaConfig {
        solver: SrdaSolver::Lsqr {
            max_iter: 30,
            tol: 0.0,
        },
        ..SrdaConfig::default()
    });
    // sanity: the healthy disk path works
    assert!(srda.fit_operator(&disk, &y).is_ok());

    failpoint::arm("diskcsr.read", 1);
    let err = srda.fit_operator(&disk, &y).unwrap_err();
    assert_eq!(failpoint::fired("diskcsr.read"), 1);
    failpoint::reset();
    // the injected I/O failure surfaces as a divergence error — never a
    // model with NaN (or silently zeroed) weights
    match &err {
        SrdaError::Linalg(inner) => {
            assert!(
                err.to_string().contains("diverged"),
                "unexpected error: {err} ({inner:?})"
            );
        }
        other => panic!("expected a Linalg divergence error, got {other:?}"),
    }

    // once the failpoint is disarmed the same handle fits fine again
    let model = srda.fit_operator(&disk, &y).unwrap();
    assert!(model.fit_report().clean());
    std::fs::remove_file(&path).ok();
}

#[test]
fn forced_lsqr_breakdown_fails_the_fit_loudly() {
    failpoint::reset();
    let (x, y) = blobs();
    failpoint::arm("lsqr.breakdown", 1);
    let err = Srda::new(SrdaConfig::lsqr_default())
        .fit_dense(&x, &y)
        .unwrap_err();
    assert_eq!(failpoint::fired("lsqr.breakdown"), 1);
    failpoint::reset();
    assert!(matches!(err, SrdaError::Linalg(_)), "{err:?}");
    assert!(err.to_string().contains("diverged"), "{err}");
}
