//! End-to-end kill-and-resume determinism: a fit killed at an arbitrary
//! LSQR iteration (via the `lsqr.interrupt` failpoint — the same code
//! path an external cancellation takes) must, after resuming from its
//! checkpoint, produce **bitwise-identical** final weights to the fit
//! that was never interrupted — under both the serial and the threaded
//! kernel backend.
//!
//! Failpoints are thread-local, so the kill always lands on the main
//! thread: the response panels run on it one after another, and the
//! threaded backend here parallelizes *inside* the kernels, not across
//! responses.

use srda::{
    CheckpointPolicy, FitCheckpoint, FitOutcome, Interrupt, PanelColumn, Srda, SrdaConfig,
    SrdaSolver, FIT_CHECKPOINT_FILE,
};
use srda_linalg::{failpoint, ExecPolicy, Executor, Mat};
use srda_solvers::{certify_operator, lsqr, AugmentedOp, ExecDense, LinearOperator, LsqrConfig};
use srda_sparse::{disk, CsrMatrix, DiskCsr};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Three classes, 4-D, over-determined — 2 responses × 12 iterations.
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

fn lsqr_config(exec: ExecPolicy) -> SrdaConfig {
    SrdaConfig {
        alpha: 1.0,
        solver: SrdaSolver::Lsqr {
            max_iter: 12,
            tol: 0.0,
        },
        exec,
        ..SrdaConfig::default()
    }
}

fn weight_bits(m: &srda::SrdaModel) -> Vec<u64> {
    m.embedding()
        .weights()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Bit patterns of every per-response solution certificate: the
/// certificates are a pure function of the final iterates, so a resumed
/// fit must reproduce them exactly — including across the SRDACKP1
/// checkpoint round-trip, which persists no certificate state.
fn cert_bits(m: &srda::SrdaModel) -> Vec<(u64, u64, usize, srda::CertStatus)> {
    m.fit_report()
        .certificates
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

/// Kill the fit at global LSQR iteration `k`, resume it, and check the
/// final weights against the uninterrupted baseline, bit for bit.
fn kill_resume_roundtrip(exec: ExecPolicy, k: usize, tag: &str) {
    let (x, y) = three_blobs();
    let dir =
        std::env::temp_dir().join(format!("srda-kill-resume-{tag}-{k}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    failpoint::reset();
    let baseline = Srda::new(lsqr_config(exec)).fit_dense(&x, &y).unwrap();

    // kill exactly at the k-th iteration boundary
    failpoint::arm_after("lsqr.interrupt", k, 1);
    let killed = Srda::new(SrdaConfig {
        checkpoint: Some(CheckpointPolicy {
            dir: dir.clone(),
            every: 1,
        }),
        ..lsqr_config(exec)
    })
    .fit_dense_outcome(&x, &y)
    .unwrap();
    failpoint::reset();

    let interrupted = match killed {
        FitOutcome::Interrupted(i) => i,
        FitOutcome::Complete(_) => panic!("failpoint at iteration {k} must interrupt"),
    };
    assert_eq!(interrupted.reason, Interrupt::Cancelled);
    assert_eq!(interrupted.iterations, k, "killed at the exact iteration");
    let ckpt = interrupted
        .checkpoint
        .expect("checkpoint policy was configured");
    assert_eq!(ckpt, dir.join(FIT_CHECKPOINT_FILE));

    let resumed = Srda::new(SrdaConfig {
        resume_from: Some(ckpt.clone()),
        ..lsqr_config(exec)
    })
    .fit_dense(&x, &y)
    .unwrap();
    assert_eq!(
        weight_bits(&baseline),
        weight_bits(&resumed),
        "kill at iter {k} ({tag}): resume must be bitwise identical"
    );
    assert_eq!(baseline.embedding().bias(), resumed.embedding().bias());
    let base_certs = cert_bits(&baseline);
    assert_eq!(base_certs.len(), 2, "one certificate per response");
    assert_eq!(
        base_certs,
        cert_bits(&resumed),
        "kill at iter {k} ({tag}): certificates must survive resume bitwise"
    );
    assert_eq!(
        baseline.fit_report().worst_backward_error.map(f64::to_bits),
        resumed.fit_report().worst_backward_error.map(f64::to_bits)
    );
    // the resumed, completed fit cleans up its own checkpoint... only if
    // it also has a checkpoint policy; here it has none, so the file
    // simply remains for inspection
    assert!(ckpt.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_is_bitwise_deterministic_serial() {
    // k = 5: mid-response-0. k = 12: the boundary between responses.
    // k = 17: mid-response-1.
    for k in [5, 12, 17] {
        kill_resume_roundtrip(ExecPolicy::serial(), k, "serial");
    }
}

#[test]
fn kill_and_resume_is_bitwise_deterministic_threaded() {
    for k in [5, 12, 17] {
        kill_resume_roundtrip(ExecPolicy::threaded(4), k, "threaded");
    }
}

#[test]
fn serial_and_threaded_resumes_agree_with_each_other() {
    // the two backends are bitwise-identical by contract, so a fit
    // interrupted under serial may be resumed under threaded (and vice
    // versa) without changing the trajectory
    let (x, y) = three_blobs();
    let dir =
        std::env::temp_dir().join(format!("srda-cross-backend-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    failpoint::reset();
    let baseline = Srda::new(lsqr_config(ExecPolicy::serial()))
        .fit_dense(&x, &y)
        .unwrap();

    failpoint::arm_after("lsqr.interrupt", 9, 1);
    let killed = Srda::new(SrdaConfig {
        checkpoint: Some(CheckpointPolicy {
            dir: dir.clone(),
            every: 1,
        }),
        ..lsqr_config(ExecPolicy::serial())
    })
    .fit_dense_outcome(&x, &y)
    .unwrap();
    failpoint::reset();
    let ckpt = match killed {
        FitOutcome::Interrupted(i) => i.checkpoint.unwrap(),
        FitOutcome::Complete(_) => panic!("must interrupt"),
    };

    let resumed = Srda::new(SrdaConfig {
        resume_from: Some(ckpt),
        ..lsqr_config(ExecPolicy::threaded(4))
    })
    .fit_dense(&x, &y)
    .unwrap();
    assert_eq!(weight_bits(&baseline), weight_bits(&resumed));
    assert_eq!(
        cert_bits(&baseline),
        cert_bits(&resumed),
        "cross-backend resume must certify identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// lockstep panels: eight classes give seven responses. Through an operator
// whose block products share one pass over the data — the on-disk CSR, or
// an operator that says so — the fit solves them as panels of widths
// 2, 2, 2, 1; through the in-memory matrix, one response at a time. A kill
// anywhere — inside a panel, or between two — must resume to the
// uninterrupted model bit for bit, certificates and report included.
// ---------------------------------------------------------------------------

/// Eight classes of three samples in 120-D: 7 responses, and wide enough
/// (121 augmented columns ≥ 4 × 24 rows) for lockstep panels of two.
fn eight_blobs() -> (Mat, Vec<usize>) {
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for k in 0..8 {
        for s in 0..3 {
            let noise = |d: usize| {
                let x = ((k * 31 + s * 7 + d * 13) as f64 * 12.9898).sin() * 43758.5453;
                (x - x.floor() - 0.5) * 0.4
            };
            rows.push(
                (0..120)
                    .map(|d| ((k * 7 + d * 3) % 5) as f64 * 1.5 + noise(d))
                    .collect::<Vec<_>>(),
            );
            y.push(k);
        }
    }
    (Mat::from_rows(&rows).unwrap(), y)
}

/// α = 0.3, 12 iterations, tol 3e-3: see [`EIGHT_CLASS_ITERATIONS`].
fn eight_class_config(exec: ExecPolicy) -> SrdaConfig {
    SrdaConfig {
        alpha: 0.3,
        solver: SrdaSolver::Lsqr {
            max_iter: 12,
            tol: 3e-3,
        },
        exec,
        ..SrdaConfig::default()
    }
}

/// An in-memory operator on a given backend that claims shared block
/// passes, so the fit runs lockstep panels over (threaded) in-memory
/// kernels. Its block products are the per-column defaults, bitwise what
/// a native block product gives.
struct SharedPasses<'a>(ExecDense<'a>);

impl LinearOperator for SharedPasses<'_> {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn ncols(&self) -> usize {
        self.0.ncols()
    }
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        self.0.apply(x)
    }
    fn apply_t(&self, x: &[f64]) -> Vec<f64> {
        self.0.apply_t(x)
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.0.apply_into(x, y)
    }
    fn apply_t_into(&self, x: &[f64], y: &mut [f64]) {
        self.0.apply_t_into(x, y)
    }
    fn shares_block_passes(&self) -> bool {
        true
    }
}

/// Where the eight-class fit reads its data.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// The in-memory matrix, serial: one response per panel.
    Memory,
    /// An SRDACSR file through `DiskCsr`: panels of two.
    Disk,
    /// The matrix on the 4-thread backend behind [`SharedPasses`]:
    /// panels of two.
    Threaded,
}

/// Fit the eight classes from `source` under `cfg`.
fn fit_eight(source: Source, cfg: SrdaConfig) -> FitOutcome {
    let (x, y) = eight_blobs();
    let srda = Srda::new(cfg);
    match source {
        Source::Memory => srda.fit_dense_outcome(&x, &y),
        Source::Disk => {
            let path = std::env::temp_dir().join(format!(
                "srda-eight-blobs-{}-{}.srdacsr",
                std::process::id(),
                NEXT_FILE.fetch_add(1, Ordering::Relaxed)
            ));
            disk::write_csr(&path, &CsrMatrix::from_dense(&x, 0.0)).unwrap();
            let op = DiskCsr::open(&path).unwrap();
            let outcome = srda.fit_operator_outcome(&op, &y);
            std::fs::remove_file(&path).ok();
            outcome
        }
        Source::Threaded => {
            let op = SharedPasses(ExecDense::new(&x, Executor::threaded(4)));
            srda.fit_operator_outcome(&op, &y)
        }
    }
    .unwrap()
}

static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);

fn exec_of(source: Source) -> ExecPolicy {
    match source {
        Source::Threaded => ExecPolicy::threaded(4),
        _ => ExecPolicy::serial(),
    }
}

/// Iterations each response takes, `[7, 12 | 12, 11 | 12, 12 | 12]` in
/// panels of two: panels 0 and 1 each finish one column early, so an
/// interrupt there leaves a finished column beside a running one. The
/// panels take 19, 23, 24 and 12 column-iterations.
const EIGHT_CLASS_ITERATIONS: [usize; 7] = [7, 12, 12, 11, 12, 12, 12];

#[test]
fn lockstep_fit_equals_per_response_solves_bitwise() {
    let (x, y) = eight_blobs();
    let ybar = srda::responses::generate(&srda::ClassIndex::new(&y).unwrap());
    let op = AugmentedOp::new(&x);
    let cfg = LsqrConfig {
        damp: 0.3f64.sqrt(),
        max_iter: 12,
        tol: 3e-3,
    };
    for source in [Source::Memory, Source::Disk, Source::Threaded] {
        let model = fit_eight(source, eight_class_config(exec_of(source)))
            .into_model()
            .unwrap();
        let report = model.fit_report();
        let iterations: Vec<usize> = report
            .responses
            .iter()
            .map(|r| match r {
                srda::ResponseSolver::Lsqr { iterations, .. } => *iterations,
                other => panic!("unexpected solver {other:?}"),
            })
            .collect();
        assert_eq!(iterations, EIGHT_CLASS_ITERATIONS, "{source:?}");
        for j in 0..ybar.ncols() {
            let r = lsqr(&op, &ybar.col(j), &cfg);
            let (w, b) = (model.embedding().weights(), model.embedding().bias());
            let fitted: Vec<u64> = (0..x.ncols())
                .map(|i| w[(i, j)].to_bits())
                .chain([b[j].to_bits()])
                .collect();
            let alone: Vec<u64> = r.x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fitted, alone, "{source:?} response {j}");
            let cert = certify_operator(&op, &ybar.col(j), &r.x, cfg.damp);
            assert_eq!(
                report.certificates[j].backward_error.to_bits(),
                cert.backward_error.to_bits()
            );
            assert_eq!(
                report.certificates[j].cond_estimate.to_bits(),
                cert.cond_estimate.to_bits()
            );
        }
    }
}

/// How a lockstep fit is stopped.
#[derive(Clone, Copy, Debug)]
enum Kill {
    /// The `lsqr.interrupt` failpoint fires after this many column
    /// iterations have passed it.
    Failpoint(usize),
    /// A governor with this iteration cap.
    IterCap(usize),
}

/// Stop the eight-class fit from `source` with `kill`, resume it from its
/// checkpoint, and check the model, certificates and report against the
/// uninterrupted fit, bit for bit. `every` is the checkpoint period (0 =
/// only at the interrupt). Returns the interrupted state and its
/// checkpoint.
fn lockstep_kill_resume(
    source: Source,
    kill: Kill,
    every: usize,
) -> (srda::InterruptedFit, FitCheckpoint) {
    let config = || eight_class_config(exec_of(source));
    let dir = std::env::temp_dir().join(format!(
        "srda-lockstep-resume-{source:?}-{kill:?}-{every}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    failpoint::reset();
    let baseline = fit_eight(source, config()).into_model().unwrap();

    let mut cfg = SrdaConfig {
        checkpoint: Some(CheckpointPolicy {
            dir: dir.clone(),
            every,
        }),
        ..config()
    };
    match kill {
        Kill::Failpoint(k) => failpoint::arm_after("lsqr.interrupt", k, 1),
        Kill::IterCap(k) => {
            cfg.governor = Some(srda::RunGovernor::with_budget(
                srda::RunBudget::with_iter_cap(k),
            ))
        }
    }
    let killed = fit_eight(source, cfg);
    failpoint::reset();
    let interrupted = match killed {
        FitOutcome::Interrupted(i) => i,
        FitOutcome::Complete(_) => panic!("{kill:?} must interrupt"),
    };
    let ckpt = interrupted.checkpoint.clone().expect("checkpoint written");
    let state = FitCheckpoint::read(&ckpt).unwrap();
    // the count is what the checkpoint keeps
    let kept = state
        .panel
        .iter()
        .filter(|c| matches!(c, PanelColumn::Done(_)))
        .count();
    assert_eq!(
        interrupted.responses_completed,
        state.completed.len() + kept
    );

    let resumed = fit_eight(
        source,
        SrdaConfig {
            resume_from: Some(ckpt),
            ..config()
        },
    )
    .into_model()
    .unwrap();
    assert_eq!(weight_bits(&baseline), weight_bits(&resumed), "{kill:?}");
    assert_eq!(baseline.embedding().bias(), resumed.embedding().bias());
    assert_eq!(cert_bits(&baseline).len(), 7);
    assert_eq!(cert_bits(&baseline), cert_bits(&resumed), "{kill:?}");
    assert_eq!(baseline.lsqr_iterations(), resumed.lsqr_iterations());
    assert_eq!(
        baseline.fit_report().responses,
        resumed.fit_report().responses
    );
    assert_eq!(
        baseline.fit_report().warnings,
        resumed.fit_report().warnings
    );
    let _ = std::fs::remove_dir_all(&dir);
    (interrupted, state)
}

/// Kills across the panels `[7, 12 | 12, 11 | 12, 12 | 12]`; each check
/// is `(responses_completed, iterations)` at the interrupt.
fn lockstep_kills_resume_bitwise(source: Source) {
    let kill = |k| {
        let (i, _) = lockstep_kill_resume(source, k, 1);
        (i.responses_completed, i.iterations)
    };
    // panel 0, both columns running: the second tick of its fifth
    // iteration
    assert_eq!(kill(Kill::Failpoint(9)), (0, 8));
    // panel 0 after response 0 finished at 7: a finished column is kept
    // beside the running one
    assert_eq!(kill(Kill::Failpoint(16)), (1, 16));
    assert_eq!(kill(Kill::IterCap(16)), (1, 16));
    // between panels 0 and 1
    assert_eq!(kill(Kill::IterCap(19)), (2, 19));
    // panel 1 after response 3 finished at 11, response 2 running alone
    assert_eq!(kill(Kill::Failpoint(41)), (3, 41));
    assert_eq!(kill(Kill::IterCap(41)), (3, 41));
    // panel 3, the one-column panel
    assert_eq!(kill(Kill::Failpoint(70)), (6, 70));
    assert_eq!(kill(Kill::IterCap(71)), (6, 71));
}

#[test]
fn lockstep_kill_and_resume_is_bitwise_deterministic_on_disk() {
    lockstep_kills_resume_bitwise(Source::Disk);
}

#[test]
fn lockstep_kill_and_resume_is_bitwise_deterministic_threaded() {
    lockstep_kills_resume_bitwise(Source::Threaded);
}

#[test]
fn a_kill_that_captures_no_panel_state_restarts_the_panel() {
    // no governor and no periodic checkpoints: the failpoint kill in
    // panel 1 leaves no state of response 2, so the checkpoint keeps only
    // panel 0 and the count leaves out response 3, finished beside it
    let (i, state) = lockstep_kill_resume(Source::Disk, Kill::Failpoint(41), 0);
    assert_eq!((i.responses_completed, i.iterations), (2, 41));
    assert_eq!(state.completed.len(), 2);
    assert!(state.panel.is_empty());
}
