//! Property-based tests: every solver in this crate answers the same
//! question — `argmin ‖Ax − b‖² + α‖x‖²` — so on random well-posed inputs
//! they must all agree with the Cholesky oracle and with each other.

use srda_linalg::ops::{gram, matvec_t};
use srda_linalg::{Cholesky, Mat};
use srda_rng::{check, SplitMix64};
use srda_solvers::lsqr::{lsqr, LsqrConfig};
use srda_solvers::ridge::RidgeSolver;
use srda_solvers::{AugmentedOp, CenteredOp, LinearOperator};

const CASES: u32 = 48;

/// A random ridge problem: `A` is `m × n` with `m, n ∈ [2, 11]` and
/// entries in `[-3, 3)`, `b` likewise, `α ∈ [0.05, 4)`.
fn problem(rng: &mut SplitMix64) -> (Mat, Vec<f64>, f64) {
    let (m, n) = (rng.range(2..12), rng.range(2..12));
    let alpha = rng.uniform(0.05, 4.0);
    let a = Mat::from_fn(m, n, |_, _| rng.uniform(-3.0, 3.0));
    let b = (0..m).map(|_| rng.uniform(-3.0, 3.0)).collect();
    (a, b, alpha)
}

fn oracle(a: &Mat, b: &[f64], alpha: f64) -> Vec<f64> {
    let mut g = gram(a);
    g.add_to_diag(alpha);
    let atb = matvec_t(a, b).unwrap();
    Cholesky::factor(&g).unwrap().solve(&atb).unwrap()
}

#[test]
fn lsqr_matches_cholesky_oracle() {
    check(CASES, |rng| {
        let (a, b, alpha) = problem(rng);
        let r = lsqr(
            &a,
            &b,
            &LsqrConfig {
                damp: alpha.sqrt(),
                max_iter: 500,
                tol: 0.0,
            },
        );
        let want = oracle(&a, &b, alpha);
        let scale = srda_linalg::vector::norm2(&want).max(1.0);
        for (u, v) in r.x.iter().zip(&want) {
            assert!((u - v).abs() < 1e-6 * scale, "{u} vs {v}");
        }
    });
}

#[test]
fn primal_dual_equivalence() {
    check(CASES, |rng| {
        let (a, b, alpha) = problem(rng);
        let y = Mat::from_vec(b.len(), 1, b.clone()).unwrap();
        let wp = RidgeSolver::primal(&a, alpha)
            .unwrap()
            .solve(&a, &y)
            .unwrap();
        let wd = RidgeSolver::dual(&a, alpha).unwrap().solve(&a, &y).unwrap();
        assert!(
            wp.approx_eq(&wd, 1e-6 * wp.max_abs().max(1.0)),
            "max diff {}",
            wp.sub(&wd).unwrap().max_abs()
        );
    });
}

#[test]
fn augmented_operator_equals_explicit_column() {
    check(CASES, |rng| {
        let (a, b, _alpha) = problem(rng);
        let aug = AugmentedOp::new(&a);
        let explicit = a.append_constant_col(1.0);
        let x: Vec<f64> = (0..aug.ncols()).map(|i| (i as f64 * 0.83).sin()).collect();
        let y1 = aug.apply(&x);
        let y2 = LinearOperator::apply(&explicit, &x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-10);
        }
        let t1 = aug.apply_t(&b);
        let t2 = LinearOperator::apply_t(&explicit, &b);
        for (u, v) in t1.iter().zip(&t2) {
            assert!((u - v).abs() < 1e-10);
        }
    });
}

#[test]
fn centered_operator_equals_explicit_centering() {
    check(CASES, |rng| {
        let (a, b, _alpha) = problem(rng);
        let mu = srda_linalg::stats::col_means(&a);
        let centered = srda_linalg::stats::center_rows(&a, &mu);
        let op = CenteredOp::new(&a, mu);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.59).cos()).collect();
        let y1 = op.apply(&x);
        let y2 = LinearOperator::apply(&centered, &x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-9);
        }
        let t1 = op.apply_t(&b);
        let t2 = LinearOperator::apply_t(&centered, &b);
        for (u, v) in t1.iter().zip(&t2) {
            assert!((u - v).abs() < 1e-9);
        }
    });
}

#[test]
fn warm_start_converges_to_same_ridge_solution() {
    check(CASES, |rng| {
        let (a, b, alpha) = problem(rng);
        let cfg = LsqrConfig {
            damp: alpha.sqrt(),
            max_iter: 600,
            tol: 1e-13,
        };
        let cold = lsqr(&a, &b, &cfg);
        // arbitrary warm start — unique ridge minimum means same answer
        let x0: Vec<f64> = (0..a.ncols())
            .map(|i| (i as f64 * 0.77).sin() * 2.0)
            .collect();
        let mut warm = vec![0.0; a.ncols()];
        let ctl = srda_solvers::PanelControls {
            x0: Some(&[&x0]),
            ..Default::default()
        };
        srda_solvers::lsqr_panel(&a, &[&b], &mut warm, 1, &[0], &cfg, &ctl);
        let scale = srda_linalg::vector::norm2(&cold.x).max(1.0);
        for (u, v) in warm.iter().zip(&cold.x) {
            assert!((u - v).abs() < 1e-5 * scale, "{u} vs {v}");
        }
    });
}

#[test]
fn lsqr_through_sparse_equals_dense() {
    check(CASES, |rng| {
        let (a, b, alpha) = problem(rng);
        let s = srda_sparse::CsrMatrix::from_dense(&a, 0.5); // sparsify
        let ds = s.to_dense();
        let cfg = LsqrConfig {
            damp: alpha.sqrt(),
            max_iter: 300,
            tol: 0.0,
        };
        let r1 = lsqr(&s, &b, &cfg);
        let r2 = lsqr(&ds, &b, &cfg);
        for (u, v) in r1.x.iter().zip(&r2.x) {
            assert!((u - v).abs() < 1e-8);
        }
    });
}

/// Lockstep LSQR is, column by column, bitwise the single-vector solve —
/// iterate, iteration count, stop reason, residual trace and flam — and
/// the block certificate is bitwise the per-column one. Checked over every
/// operator kind the fit hands to a panel, with stopping tolerances that
/// make columns stop at different iterations and a zero right-hand side
/// that stops at once.
#[test]
fn lockstep_panel_matches_per_column_lsqr_bitwise() {
    use srda_solvers::certificate::{certify_operator, certify_operator_block};
    use srda_solvers::lsqr::{lsqr_panel, PanelControls};
    use srda_sparse::{disk, CsrMatrix, DiskCsr};

    let dir = std::env::temp_dir().join(format!("srda-lockstep-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    check(CASES, |rng| {
        let (m, n) = (rng.range(2..12), rng.range(2..12));
        let k = rng.range(1..12);
        let a = Mat::from_fn(m, n, |_, _| {
            if rng.below(3) == 0 {
                0.0
            } else {
                rng.uniform(-3.0, 3.0)
            }
        });
        let mut bs: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..m).map(|_| rng.uniform(-3.0, 3.0)).collect())
            .collect();
        let zero = rng.below(k);
        bs[zero].fill(0.0);
        let cfg = LsqrConfig {
            damp: rng.uniform(0.05, 2.0).sqrt(),
            max_iter: rng.range(1..30),
            tol: [0.0, 1e-4, 3e-2, 0.2][rng.below(4)],
        };

        let csr = CsrMatrix::from_dense(&a, 0.0);
        let path = dir.join(format!("case-{:016x}.srdacsr", rng.next_u64()));
        disk::write_csr(&path, &csr).unwrap();
        let on_disk = DiskCsr::open(&path).unwrap();
        let mu = srda_linalg::stats::col_means(&a);
        let centered = CenteredOp::new(&a, mu);
        let aug_csr = AugmentedOp::new(&csr);
        let aug_disk = AugmentedOp::new(&on_disk);
        let ops: [(&str, &dyn LinearOperator); 6] = [
            ("dense", &a),
            ("csr", &csr),
            ("disk", &on_disk),
            ("centered", &centered),
            ("augmented csr", &aug_csr),
            ("augmented disk", &aug_disk),
        ];
        for (label, op) in ops {
            let n_op = op.ncols();
            let rhs: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
            let cols: Vec<usize> = (0..k).collect();
            let mut x = vec![f64::NAN; n_op * k];
            let (panel, panel_flam) = srda_linalg::flam::measure(|| {
                lsqr_panel(op, &rhs, &mut x, k, &cols, &cfg, &PanelControls::default())
            });
            let (singles, single_flam) = srda_linalg::flam::measure(|| {
                bs.iter().map(|b| lsqr(op, b, &cfg)).collect::<Vec<_>>()
            });
            assert_eq!(panel_flam, single_flam, "{label}: flam");
            let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            for (j, (p, s)) in panel.iter().zip(&singles).enumerate() {
                let xj: Vec<f64> = x.iter().skip(j).step_by(k).copied().collect();
                assert_eq!(bits(&xj), bits(&s.x), "{label}: column {j} iterate");
                assert_eq!(p.iterations, s.iterations, "{label}: column {j} iterations");
                assert_eq!(p.stop, s.stop, "{label}: column {j} stop");
                assert_eq!(
                    bits(&p.residual_trace),
                    bits(&s.residual_trace),
                    "{label}: column {j} trace"
                );
                assert_eq!(
                    p.residual_norm.to_bits(),
                    s.residual_norm.to_bits(),
                    "{label}: column {j} residual"
                );
            }
            assert_eq!(
                singles[zero].stop,
                srda_solvers::StopReason::TrivialSolution
            );
            // a lone right-hand side written into one column of a wider
            // output, as a fit's one-response panels are
            let mut wide = vec![f64::NAN; n_op * (k + 1)];
            let lone = lsqr_panel(
                op,
                &rhs[k - 1..],
                &mut wide,
                k + 1,
                &[k],
                &cfg,
                &PanelControls::default(),
            );
            let col: Vec<f64> = wide.iter().skip(k).step_by(k + 1).copied().collect();
            assert_eq!(bits(&col), bits(&singles[k - 1].x), "{label}: lone column");
            assert_eq!(lone[0].iterations, singles[k - 1].iterations);
            let b_block: Vec<f64> = (0..m).flat_map(|i| bs.iter().map(move |b| b[i])).collect();
            let certs = certify_operator_block(op, &b_block, &x, k, cfg.damp);
            for (j, (c, s)) in certs.iter().zip(&singles).enumerate() {
                let want = certify_operator(op, &bs[j], &s.x, cfg.damp);
                assert_eq!(
                    (c.backward_error.to_bits(), c.cond_estimate.to_bits()),
                    (want.backward_error.to_bits(), want.cond_estimate.to_bits()),
                    "{label}: column {j} certificate"
                );
                assert_eq!(c.certified, want.certified, "{label}: column {j} verdict");
            }
        }
        std::fs::remove_file(&path).ok();
    });
    std::fs::remove_dir_all(&dir).ok();
}
