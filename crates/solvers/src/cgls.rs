//! CGLS: conjugate gradient applied to the regularized normal equations.
//!
//! Solves the same problem as [`crate::lsqr`](mod@crate::lsqr) — `min ‖Ax − b‖² + α‖x‖²` —
//! by running CG on `(AᵀA + αI)x = Aᵀb` without ever forming `AᵀA`. In
//! exact arithmetic CGLS and LSQR generate identical iterates; in floating
//! point LSQR is the more stable of the two, which is why the paper (and
//! our default) uses LSQR. CGLS is kept as an independent cross-check and
//! for the solver-ablation benchmark.

use crate::checkpoint::{CglsCheckpoint, ProblemFingerprint};
use crate::governor::{Interrupt, RunGovernor};
use crate::operator::LinearOperator;
use srda_linalg::vector;
use srda_obs::SolverTrace;

/// Configuration for a CGLS run.
#[derive(Debug, Clone)]
pub struct CglsConfig {
    /// Ridge parameter `α` (note: *not* squared, unlike LSQR's `damp`).
    pub alpha: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Stop when `‖Aᵀr − αx‖` falls below `tol` times its initial value.
    pub tol: f64,
}

impl Default for CglsConfig {
    fn default() -> Self {
        CglsConfig {
            alpha: 0.0,
            max_iter: 50,
            tol: 1e-12,
        }
    }
}

/// Outcome of a CGLS run.
#[derive(Debug, Clone)]
pub struct CglsResult {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final normal-equation residual norm `‖Aᵀ(b − Ax) − αx‖`.
    pub gradient_norm: f64,
    /// `Some(reason)` when a [`RunGovernor`] stopped the run early; the
    /// returned `x` is the last completed iterate and `checkpoint` carries
    /// the resumable state.
    pub interrupted: Option<Interrupt>,
    /// Resumable solver state, populated only on interruption.
    pub checkpoint: Option<Box<CglsCheckpoint>>,
}

/// Governance hooks for [`cgls_controlled`] (the CGLS analogue of
/// [`crate::lsqr::SolveControls`]). Defaults to an ungoverned solve.
#[derive(Clone, Copy, Default)]
pub struct CglsControls<'a> {
    /// Budget/cancellation authority, consulted every iteration.
    pub governor: Option<&'a RunGovernor>,
    /// Resume from a previously captured state (fingerprint must match;
    /// mismatch panics — validate first with
    /// [`ProblemFingerprint::ensure_matches`] for a typed error).
    pub resume: Option<&'a CglsCheckpoint>,
    /// Emit a checkpoint every N completed iterations (0 = never).
    pub checkpoint_every: usize,
    /// Periodic checkpoint sink.
    pub on_checkpoint: Option<&'a (dyn Fn(&CglsCheckpoint) + Sync)>,
    /// Telemetry channel for the per-iteration gradient-norm trajectory
    /// and governor checks. Pure observation: a traced run is bitwise
    /// identical to an untraced one.
    pub telemetry: Option<&'a SolverTrace>,
}

/// Run CGLS on `min ‖A·x − b‖² + α‖x‖²`.
pub fn cgls<A: LinearOperator + ?Sized>(a: &A, b: &[f64], cfg: &CglsConfig) -> CglsResult {
    cgls_controlled(a, b, cfg, &CglsControls::default())
}

/// [`cgls`] with run governance. Same determinism contract as
/// [`crate::lsqr::lsqr_controlled`]: governance observes state between
/// iterations without perturbing the float sequence, so interrupt +
/// resume replays bitwise-identically.
pub fn cgls_controlled<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    cfg: &CglsConfig,
    ctl: &CglsControls,
) -> CglsResult {
    assert_eq!(b.len(), a.nrows(), "rhs length must equal operator rows");
    if let Some(t) = ctl.telemetry {
        t.set_solver("cgls", cfg.alpha);
    }
    let n = a.ncols();

    let fingerprint = if ctl.resume.is_some()
        || ctl.governor.is_some()
        || (ctl.checkpoint_every > 0 && ctl.on_checkpoint.is_some())
    {
        // alpha rides in the fingerprint's damp slot
        Some(ProblemFingerprint::new(
            a.nrows(),
            n,
            cfg.alpha,
            cfg.tol,
            cfg.max_iter,
            b,
        ))
    } else {
        None
    };

    let mut x;
    let mut r;
    let mut p;
    let mut gamma;
    let gamma0;
    let start_iter;
    let mut s = vec![0.0; n];
    if let Some(ckpt) = ctl.resume {
        if let Err(e) = ckpt.fingerprint.ensure_matches(
            fingerprint
                .as_ref()
                .expect("fingerprint computed for resume"),
        ) {
            panic!("cgls resume: {e}");
        }
        assert_eq!(ckpt.x.len(), n, "checkpoint x length");
        assert_eq!(ckpt.r.len(), a.nrows(), "checkpoint r length");
        assert_eq!(ckpt.p.len(), n, "checkpoint p length");
        x = ckpt.x.clone();
        r = ckpt.r.clone();
        p = ckpt.p.clone();
        gamma = ckpt.gamma;
        gamma0 = ckpt.gamma0;
        start_iter = ckpt.iteration;
    } else {
        x = vec![0.0; n];
        r = b.to_vec(); // residual b − A·x (x = 0 initially)
        s = a.apply_t(&r); // gradient direction Aᵀr − αx (x = 0)
        p = s.clone();
        gamma = vector::dot(&s, &s);
        gamma0 = gamma;
        if gamma0 == 0.0 {
            return CglsResult {
                x,
                iterations: 0,
                gradient_norm: 0.0,
                interrupted: None,
                checkpoint: None,
            };
        }
        start_iter = 0;
    }

    let snapshot = |iteration: usize, x: &[f64], r: &[f64], p: &[f64], gamma: f64| CglsCheckpoint {
        fingerprint: fingerprint.expect("snapshot only taken when fingerprinted"),
        iteration,
        x: x.to_vec(),
        r: r.to_vec(),
        p: p.to_vec(),
        gamma,
        gamma0,
    };

    let mut iterations = start_iter;
    let mut interrupted = None;
    let mut interrupted_ckpt: Option<Box<CglsCheckpoint>> = None;
    // product buffer reused across iterations (see LinearOperator::apply_into)
    let mut q = vec![0.0; a.nrows()];
    for iter in start_iter..cfg.max_iter {
        if let Some(reason) = ctl.governor.and_then(|g| {
            if let Some(t) = ctl.telemetry {
                t.governor_check();
            }
            g.tick()
        }) {
            interrupted = Some(reason);
            iterations = iter;
            interrupted_ckpt = Some(Box::new(snapshot(iter, &x, &r, &p, gamma)));
            break;
        }
        iterations = iter + 1;
        a.apply_into(&p, &mut q);
        let delta = vector::dot(&q, &q) + cfg.alpha * vector::dot(&p, &p);
        if !delta.is_finite() {
            // overflow/NaN in the curvature term: `delta <= 0.0` is false
            // for NaN, so without this check a poisoned matvec would spin
            // to max_iter corrupting x. Stop on the last finite iterate.
            break;
        }
        if delta <= 0.0 {
            break; // p in the (numerical) null space; cannot progress
        }
        let step = gamma / delta;
        vector::axpy(step, &p, &mut x);
        vector::axpy(-step, &q, &mut r);

        // s = Aᵀr − αx
        a.apply_t_into(&r, &mut s);
        vector::axpy(-cfg.alpha, &x, &mut s);

        let gamma_new = vector::dot(&s, &s);
        if let Some(t) = ctl.telemetry {
            // the gradient norm is the only convergence quantity CGLS
            // tracks, so it fills both telemetry columns (pure read)
            t.iteration(iter + 1, gamma_new.sqrt(), gamma_new.sqrt());
        }
        if !gamma_new.is_finite() {
            // poisoned gradient: report it (gradient_norm = NaN/∞) instead
            // of iterating on garbage — the NaN would fail every further
            // convergence test and run to max_iter
            gamma = gamma_new;
            break;
        }
        if gamma_new.sqrt() <= cfg.tol * gamma0.sqrt() {
            gamma = gamma_new;
            break;
        }
        let beta = gamma_new / gamma;
        for (pi, si) in p.iter_mut().zip(&s) {
            *pi = si + beta * *pi;
        }
        gamma = gamma_new;
        // periodic checkpoint after the full iteration has landed
        if ctl.checkpoint_every > 0 && (iter + 1) % ctl.checkpoint_every == 0 {
            if let Some(cb) = ctl.on_checkpoint {
                cb(&snapshot(iter + 1, &x, &r, &p, gamma));
            }
        }
    }

    // a poisoned iterate must never be returned under a finite (stale)
    // gradient norm: downstream certificates key off gradient_norm
    if gamma.is_finite() && !x.iter().all(|t| t.is_finite()) {
        gamma = f64::NAN;
    }

    CglsResult {
        x,
        iterations,
        gradient_norm: gamma.sqrt(),
        interrupted,
        checkpoint: interrupted_ckpt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsqr::{lsqr, LsqrConfig};
    use srda_linalg::ops::{gram, matvec_t};
    use srda_linalg::{Cholesky, Mat};

    fn noise_mat(m: usize, n: usize) -> Mat {
        Mat::from_fn(m, n, |i, j| {
            let x = (i as f64 * 45.164 + j as f64 * 94.673).sin() * 43758.5453;
            x - x.floor() - 0.5
        })
    }

    fn ridge_oracle(a: &Mat, b: &[f64], alpha: f64) -> Vec<f64> {
        let mut g = gram(a);
        g.add_to_diag(alpha);
        let atb = matvec_t(a, b).unwrap();
        Cholesky::factor(&g).unwrap().solve(&atb).unwrap()
    }

    #[test]
    fn matches_direct_ridge() {
        let a = noise_mat(18, 7);
        let b: Vec<f64> = (0..18).map(|i| (i as f64 * 0.4).sin()).collect();
        let alpha = 0.9;
        let r = cgls(
            &a,
            &b,
            &CglsConfig {
                alpha,
                max_iter: 300,
                tol: 1e-14,
            },
        );
        let oracle = ridge_oracle(&a, &b, alpha);
        for (u, v) in r.x.iter().zip(&oracle) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn agrees_with_lsqr() {
        let a = noise_mat(25, 12);
        let b: Vec<f64> = (0..25).map(|i| (i as f64 * 0.23).cos()).collect();
        let alpha = 0.3;
        let r1 = cgls(
            &a,
            &b,
            &CglsConfig {
                alpha,
                max_iter: 400,
                tol: 1e-14,
            },
        );
        let r2 = lsqr(
            &a,
            &b,
            &LsqrConfig {
                damp: alpha.sqrt(),
                max_iter: 400,
                tol: 1e-14,
            },
        );
        for (u, v) in r1.x.iter().zip(&r2.x) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }

    #[test]
    fn zero_rhs() {
        let a = noise_mat(5, 4);
        let r = cgls(&a, &[0.0; 5], &CglsConfig::default());
        assert_eq!(r.iterations, 0);
        assert_eq!(r.x, vec![0.0; 4]);
    }

    #[test]
    fn unregularized_underdetermined_finds_a_solution() {
        let a = noise_mat(4, 10);
        let b = vec![1.0, -1.0, 2.0, 0.5];
        let r = cgls(
            &a,
            &b,
            &CglsConfig {
                alpha: 0.0,
                max_iter: 200,
                tol: 1e-13,
            },
        );
        // residual should be ~0 for a full-row-rank underdetermined system
        let ax = LinearOperator::apply(&a, &r.x);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn exact_arithmetic_terminates_in_n_iterations() {
        // CG theory: at most n iterations for an n-dim problem
        let a = noise_mat(12, 4);
        let b = vec![1.0; 12];
        let r = cgls(
            &a,
            &b,
            &CglsConfig {
                alpha: 0.1,
                max_iter: 100,
                tol: 1e-12,
            },
        );
        assert!(r.iterations <= 8, "took {} iterations", r.iterations);
    }

    #[test]
    fn nan_operator_stops_instead_of_spinning() {
        // NaN fails every comparison, so without explicit guards a
        // poisoned matvec would run to max_iter corrupting x
        let mut a = noise_mat(6, 3);
        a[(2, 1)] = f64::NAN;
        let r = cgls(
            &a,
            &[1.0; 6],
            &CglsConfig {
                alpha: 0.1,
                max_iter: 50,
                tol: 1e-12,
            },
        );
        assert!(
            r.iterations <= 1,
            "poisoned run must stop immediately, ran {}",
            r.iterations
        );
        // the poison is reported, never hidden behind a stale finite norm
        assert!(r.gradient_norm.is_nan());
        assert!(r.x.iter().all(|t| t.is_finite()));
    }

    #[test]
    #[should_panic(expected = "rhs length")]
    fn rhs_checked() {
        let a = noise_mat(4, 3);
        let _ = cgls(&a, &[1.0; 5], &CglsConfig::default());
    }

    #[test]
    fn governed_interrupt_then_resume_is_bitwise_identical() {
        use crate::governor::{RunBudget, RunGovernor};
        let a = noise_mat(22, 9);
        let b: Vec<f64> = (0..22).map(|i| (i as f64 * 0.31).sin()).collect();
        let cfg = CglsConfig {
            alpha: 0.2,
            max_iter: 30,
            tol: 0.0,
        };
        let full = cgls(&a, &b, &cfg);
        for k in [1usize, 4, 9] {
            let g = RunGovernor::with_budget(RunBudget::with_iter_cap(k));
            let partial = cgls_controlled(
                &a,
                &b,
                &cfg,
                &CglsControls {
                    governor: Some(&g),
                    ..Default::default()
                },
            );
            assert_eq!(partial.interrupted, Some(Interrupt::IterBudgetExhausted));
            assert_eq!(partial.iterations, k);
            let ckpt = partial
                .checkpoint
                .expect("interrupt must carry a checkpoint");
            // prove the serialized form, not just the in-memory state
            let ckpt = CglsCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
            let resumed = cgls_controlled(
                &a,
                &b,
                &cfg,
                &CglsControls {
                    resume: Some(&ckpt),
                    ..Default::default()
                },
            );
            assert_eq!(resumed.iterations, full.iterations, "interrupt at {k}");
            assert_eq!(resumed.interrupted, None);
            for (u, v) in resumed.x.iter().zip(&full.x) {
                assert_eq!(u.to_bits(), v.to_bits(), "{u} vs {v}");
            }
            assert_eq!(
                resumed.gradient_norm.to_bits(),
                full.gradient_norm.to_bits()
            );
        }
    }

    #[test]
    fn periodic_checkpoints_resume_identically() {
        let a = noise_mat(15, 6);
        let b: Vec<f64> = (0..15).map(|i| (i as f64 * 0.7).cos()).collect();
        let cfg = CglsConfig {
            alpha: 0.5,
            max_iter: 10,
            tol: 0.0,
        };
        let captured = std::sync::Mutex::new(Vec::new());
        let on_ckpt = |c: &CglsCheckpoint| captured.lock().unwrap().push(c.clone());
        let full = cgls_controlled(
            &a,
            &b,
            &cfg,
            &CglsControls {
                checkpoint_every: 4,
                on_checkpoint: Some(&on_ckpt),
                ..Default::default()
            },
        );
        let captured = captured.into_inner().unwrap();
        assert!(!captured.is_empty());
        for ckpt in &captured {
            let resumed = cgls_controlled(
                &a,
                &b,
                &cfg,
                &CglsControls {
                    resume: Some(ckpt),
                    ..Default::default()
                },
            );
            assert_eq!(resumed.iterations, full.iterations);
            for (u, v) in resumed.x.iter().zip(&full.x) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "cgls resume")]
    fn resume_against_different_problem_panics() {
        let a = noise_mat(8, 4);
        let b = vec![1.0; 8];
        let cfg = CglsConfig::default();
        let ckpt = CglsCheckpoint {
            fingerprint: ProblemFingerprint::new(8, 4, cfg.alpha, cfg.tol, cfg.max_iter, &[9.0; 8]),
            iteration: 1,
            x: vec![0.0; 4],
            r: vec![0.0; 8],
            p: vec![0.0; 4],
            gamma: 1.0,
            gamma0: 1.0,
        };
        let _ = cgls_controlled(
            &a,
            &b,
            &cfg,
            &CglsControls {
                resume: Some(&ckpt),
                ..Default::default()
            },
        );
    }
}
