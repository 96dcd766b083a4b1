//! LSQR: iterative damped least squares (Paige & Saunders, ACM TOMS 1982).
//!
//! Solves `min ‖A·x − b‖² + damp²·‖x‖²` using only the products `A·v` and
//! `Aᵀ·u` — one of each per iteration, which on sparse data costs `O(nnz)`.
//! With `k` iterations and `c − 1` response vectors this is exactly the
//! paper's `O(kc·ms)` training cost, the headline "linear time" result.
//! The paper runs a fixed 15–20 iterations; [`LsqrConfig`] supports both a
//! hard iteration cap and standard residual-based stopping rules.
//! [`lsqr_panel`] runs several right-hand sides in lockstep, one block
//! product pair per iteration for all of them, each column bitwise its
//! single-vector solve; [`lsqr_controlled`] is its one-column case.

use crate::checkpoint::{LsqrCheckpoint, ProblemFingerprint};
use crate::governor::{Interrupt, RunGovernor};
use crate::operator::LinearOperator;
use srda_linalg::vector;
use srda_obs::SolverTrace;

/// Configuration for an LSQR run.
///
/// ## Contract
///
/// `damp` and `tol` must be **finite and non-negative**. [`lsqr_panel`]
/// (and so [`lsqr`]) validates this at entry and panics on violation — a
/// negative or NaN knob is a programming error in the caller, exactly like
/// a mismatched right-hand-side length, and silently accepting it
/// previously produced NaN-filled "solutions" with no diagnostic.
#[derive(Debug, Clone)]
pub struct LsqrConfig {
    /// Regularization: the solver minimizes `‖Ax − b‖² + damp²‖x‖²`.
    /// For SRDA's ridge parameter `α`, pass `damp = √α`.
    /// Must be finite and `>= 0`.
    pub damp: f64,
    /// Hard iteration cap. The paper: "In our experiments, 20 iterations
    /// are enough"; their 20Newsgroups runs use 15.
    pub max_iter: usize,
    /// Relative residual tolerance (`atol`/`btol` of the reference
    /// implementation, collapsed to one knob). Set to 0 to always run
    /// `max_iter` iterations. Must be finite and `>= 0`.
    pub tol: f64,
}

impl Default for LsqrConfig {
    fn default() -> Self {
        LsqrConfig {
            damp: 0.0,
            max_iter: 20,
            tol: 1e-10,
        }
    }
}

impl LsqrConfig {
    /// Enforce the documented contract; called by [`lsqr_panel`].
    fn validate(&self) {
        assert!(
            self.damp.is_finite() && self.damp >= 0.0,
            "LsqrConfig.damp must be finite and non-negative, got {}",
            self.damp
        );
        assert!(
            self.tol.is_finite() && self.tol >= 0.0,
            "LsqrConfig.tol must be finite and non-negative, got {}",
            self.tol
        );
    }
}

/// Iterations of no relative residual improvement tolerated before
/// declaring [`StopReason::Stagnated`] (only when `tol > 0`; `tol = 0`
/// means "run exactly `max_iter` iterations", which stagnation detection
/// must not override).
const STAGNATION_WINDOW: usize = 8;
/// Relative residual improvement below which an iteration counts as "no
/// progress" for stagnation purposes.
const STAGNATION_RTOL: f64 = 1e-12;

/// Why LSQR stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// `x = 0` was already the exact solution (`b = 0` or `Aᵀb = 0`).
    TrivialSolution,
    /// The residual tolerance was met.
    Converged,
    /// The iteration cap was hit.
    MaxIterations,
    /// A non-finite quantity appeared — in the right-hand side, in an
    /// operator product, or in the bidiagonalization recurrences. The
    /// returned `x` is the last finite iterate (possibly all zeros); it is
    /// **never** NaN-contaminated.
    Diverged,
    /// The damped residual made no relative progress for
    /// `STAGNATION_WINDOW` consecutive iterations (detected only when
    /// `tol > 0`): the iteration is wedged at its attainable floor and
    /// further matvecs are wasted work.
    Stagnated,
    /// The run's [`RunGovernor`] interrupted the solve (budget spent or
    /// cancellation requested) before it converged. The returned `x` is
    /// the last completed iterate and
    /// [`LsqrResult::checkpoint`] carries the full resumable state.
    /// **Not a failure**: resuming replays to a bitwise-identical
    /// trajectory.
    Interrupted(Interrupt),
}

/// The outcome of an LSQR run.
#[derive(Debug, Clone)]
pub struct LsqrResult {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final estimate of `‖[r; damp·x]‖` (the damped residual norm).
    pub residual_norm: f64,
    /// Stopping cause.
    pub stop: StopReason,
    /// Damped-residual-norm trace, one entry per iteration (used by the
    /// `repro_lsqr_convergence` experiment to verify the "~20 iterations"
    /// claim). On a resumed run this is the *full* trace, pre-interrupt
    /// iterations included.
    pub residual_trace: Vec<f64>,
    /// The resumable solver state, populated only when the run stopped
    /// with [`StopReason::Interrupted`] under a governor. Feed it back via
    /// [`SolveControls::resume`] to continue bitwise-identically.
    pub checkpoint: Option<Box<LsqrCheckpoint>>,
}

/// Governance hooks for a controlled LSQR run ([`lsqr_controlled`]).
/// The default is a plain ungoverned solve — [`lsqr`] is exactly
/// `lsqr_controlled(a, b, cfg, &SolveControls::default())`, and the
/// trajectory is bit-for-bit unchanged by governance: the governor and
/// checkpoint hooks only *observe* state between iterations, never
/// perturb the float sequence.
#[derive(Clone, Copy, Default)]
pub struct SolveControls<'a> {
    /// Budget/cancellation authority, consulted at the top of every
    /// iteration. `None` means never interrupt.
    pub governor: Option<&'a RunGovernor>,
    /// Resume from a previously captured state instead of a cold start.
    /// The checkpoint's fingerprint must match this problem (shape,
    /// `damp`/`tol`/`max_iter` bits, and right-hand side CRC) — a
    /// mismatch is a caller bug and panics; validate first with
    /// [`ProblemFingerprint::ensure_matches`] where a typed error is
    /// needed.
    pub resume: Option<&'a LsqrCheckpoint>,
    /// Emit a checkpoint every N completed iterations (0 = never).
    pub checkpoint_every: usize,
    /// Where periodic checkpoints go (e.g. an atomic file write). Called
    /// synchronously between iterations.
    pub on_checkpoint: Option<&'a (dyn Fn(&LsqrCheckpoint) + Sync)>,
    /// Telemetry channel for the per-iteration trajectory (damped residual,
    /// `‖Aᵀr‖` estimate, governor checks). Records only quantities the
    /// loop already computes, so a traced run is bitwise identical to an
    /// untraced one.
    pub telemetry: Option<&'a SolverTrace>,
}

impl std::fmt::Debug for SolveControls<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveControls")
            .field("governor", &self.governor.is_some())
            .field("resume", &self.resume.map(|c| c.iteration))
            .field("checkpoint_every", &self.checkpoint_every)
            .field("on_checkpoint", &self.on_checkpoint.is_some())
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

/// Run LSQR on `min ‖A·x − b‖² + damp²‖x‖²`.
///
/// ```
/// use srda_linalg::Mat;
/// use srda_solvers::lsqr::{lsqr, LsqrConfig};
///
/// // consistent 2×2 system: x = [1, 2]
/// let a = Mat::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]).unwrap();
/// let r = lsqr(&a, &[2.0, 6.0], &LsqrConfig::default());
/// assert!((r.x[0] - 1.0).abs() < 1e-8);
/// assert!((r.x[1] - 2.0).abs() < 1e-8);
/// ```
pub fn lsqr<A: LinearOperator + ?Sized>(a: &A, b: &[f64], cfg: &LsqrConfig) -> LsqrResult {
    lsqr_controlled(a, b, cfg, &SolveControls::default())
}

/// [`lsqr`] with run governance: budget/cancellation checks at every
/// iteration boundary, periodic checkpoint emission, and resume from a
/// prior [`LsqrCheckpoint`]. It is the one-column [`lsqr_panel`].
///
/// ## Determinism contract
///
/// Governance never changes the float sequence. For any interrupt point
/// `k`, running to `k`, checkpointing, and resuming to completion yields
/// the same `x` **bit for bit** as the uninterrupted run — the checkpoint
/// captures the complete iteration state, floats round-trip exactly, and
/// the loop body is untouched. This is asserted by the
/// `resume_*_bitwise_identical` tests below and relied on by
/// `SrdaModel`'s fit resume.
pub fn lsqr_controlled<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    cfg: &LsqrConfig,
    ctl: &SolveControls,
) -> LsqrResult {
    assert_eq!(b.len(), a.nrows(), "rhs length must equal operator rows");
    let mut x = vec![0.0; a.ncols()];
    let telemetry = [ctl.telemetry];
    let forward = ctl.on_checkpoint.map(|cb| {
        move |cols: &[PanelColumn]| {
            if let [PanelColumn::Running(state)] = cols {
                cb(state);
            }
        }
    });
    let panel = PanelControls {
        governor: ctl.governor,
        resume: ctl.resume.map(std::slice::from_ref),
        checkpoint_every: ctl.checkpoint_every,
        on_checkpoint: forward.as_ref().map(|f| f as &PanelCheckpointFn),
        telemetry: &telemetry,
        x0: None,
    };
    let r = lsqr_panel(a, &[b], &mut x, 1, &[0], cfg, &panel)
        .pop()
        .expect("one result per right-hand side");
    LsqrResult {
        x,
        iterations: r.iterations,
        residual_norm: r.residual_norm,
        stop: r.stop,
        residual_trace: r.residual_trace,
        checkpoint: r.checkpoint,
    }
}

/// A response column whose solve has finished.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedResponse {
    /// The solved column (length `ncols` of the operator).
    pub x: Vec<f64>,
    /// Iterations the solve consumed.
    pub iterations: usize,
    /// Why it stopped (never `Interrupted`: an interrupted column is
    /// [`PanelColumn::Running`]).
    pub stop: StopReason,
    /// Final estimate of the damped residual norm.
    pub residual_norm: f64,
}

/// One column of a panel's resumable state.
#[derive(Debug, Clone, PartialEq)]
pub enum PanelColumn {
    /// The column stopped before the snapshot.
    Done(CompletedResponse),
    /// The column is still iterating; resume it from this state.
    Running(LsqrCheckpoint),
}

/// A receiver of a panel's periodic state ([`PanelControls::on_checkpoint`]).
pub type PanelCheckpointFn<'a> = dyn Fn(&[PanelColumn]) + 'a;

/// Governance hooks for [`lsqr_panel`]: the panel form of
/// [`SolveControls`], with one resume state and one telemetry channel per
/// column.
#[derive(Clone, Copy, Default)]
pub struct PanelControls<'a> {
    /// Budget/cancellation authority. It is ticked once per running column
    /// at the top of every lockstep iteration, in column order, so an
    /// iteration budget still counts column-iterations. Any interrupt
    /// stops the whole panel at that boundary.
    pub governor: Option<&'a RunGovernor>,
    /// Resume every column from its state: one per right-hand side, all
    /// captured at the same iteration. A state whose fingerprint does not
    /// match its column panics, as in [`SolveControls::resume`].
    pub resume: Option<&'a [LsqrCheckpoint]>,
    /// Emit the panel's state every N lockstep iterations (0 = never).
    pub checkpoint_every: usize,
    /// Where periodic states go: one [`PanelColumn`] per right-hand side,
    /// emitted while at least one column is still running.
    pub on_checkpoint: Option<&'a PanelCheckpointFn<'a>>,
    /// One telemetry channel per right-hand side (empty for none).
    pub telemetry: &'a [Option<&'a SolverTrace>],
    /// Start every column from its `x0` (one per right-hand side) instead
    /// of zero — e.g. the weights of a closely related earlier problem,
    /// when refitting after appending samples. A warm start is not
    /// resumable: it takes no `resume` states and emits no checkpoints.
    pub x0: Option<&'a [&'a [f64]]>,
}

/// How one column of a [`lsqr_panel`] solve ended. The fields mean what
/// they mean on [`LsqrResult`]; the iterate is in the caller's output
/// block.
#[derive(Debug, Clone)]
pub struct PanelResult {
    /// Iterations this column performed.
    pub iterations: usize,
    /// Final estimate of the damped residual norm.
    pub residual_norm: f64,
    /// Stopping cause.
    pub stop: StopReason,
    /// Damped-residual-norm trace, one entry per iteration.
    pub residual_trace: Vec<f64>,
    /// The resumable state, when the panel was interrupted under a
    /// governor.
    pub checkpoint: Option<Box<LsqrCheckpoint>>,
}

/// Lockstep LSQR: solve `min ‖A·xⱼ − bⱼ‖² + damp²‖xⱼ‖²` for every
/// right-hand side `bⱼ` of a panel at once.
///
/// Each iteration makes one block product pair `A·V`, `Aᵀ·U` for all
/// running columns — for a [`srda_sparse::DiskCsr`] that is one scan of
/// the file per product instead of one per column. It is **not**
/// block-Krylov: every column keeps its own Golub–Kahan recurrence,
/// Paige–Saunders scalars, stopping rules and finiteness checks, the block
/// products sum each column as the single-vector products do
/// ([`LinearOperator::apply_block_into`]), and the vector updates and
/// norms run row by row with one accumulator per column. So each column's
/// iterate, iteration count, stop reason and residual trace are bitwise
/// those of [`lsqr_controlled`] on that column alone. A column that stops
/// leaves the lockstep state, and the products shrink to the columns
/// still running.
///
/// Column `j`'s iterate is written to `x[i·ldx + xcols[j]]` for
/// `i < ncols`; `b` and `xcols` have one entry per right-hand side.
pub fn lsqr_panel<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[&[f64]],
    x: &mut [f64],
    ldx: usize,
    xcols: &[usize],
    cfg: &LsqrConfig,
    ctl: &PanelControls,
) -> Vec<PanelResult> {
    assert_eq!(
        xcols.len(),
        b.len(),
        "one output column per right-hand side"
    );
    match ctl.x0 {
        Some(x0) => warm_panel(a, b, x0, x, ldx, xcols, cfg, ctl),
        None => cold_panel(a, b, x, ldx, xcols, cfg, ctl),
    }
}

/// [`lsqr_panel`] from `x = 0`.
fn cold_panel<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[&[f64]],
    x: &mut [f64],
    ldx: usize,
    xcols: &[usize],
    cfg: &LsqrConfig,
    ctl: &PanelControls,
) -> Vec<PanelResult> {
    let p = b.len();
    if p == 1 && ldx > 1 {
        // a lone right-hand side iterates on a contiguous x, so every
        // update takes the flat loop; it lands in its column at the end
        let mut xs = vec![0.0; a.ncols()];
        let results = cold_panel(a, b, &mut xs, 1, &[0], cfg, ctl);
        for (i, xi) in xs.into_iter().enumerate() {
            x[i * ldx + xcols[0]] = xi;
        }
        return results;
    }
    for bj in b {
        assert_eq!(bj.len(), a.nrows(), "rhs length must equal operator rows");
    }
    cfg.validate();
    let tel = |pos: usize| ctl.telemetry.get(pos).copied().flatten();
    for pos in 0..p {
        if let Some(t) = tel(pos) {
            t.set_solver("lsqr", cfg.damp);
        }
    }
    let (m, n) = (a.nrows(), a.ncols());
    for i in 0..n {
        for &c in xcols {
            x[i * ldx + c] = 0.0;
        }
    }
    let mut done: Vec<Option<PanelResult>> = vec![None; p];

    // the fingerprint (an O(m) CRC of b) is only needed when state may
    // cross a run boundary: resuming, emitting checkpoints, or running
    // under a governor that could interrupt
    let keep_state = ctl.resume.is_some()
        || ctl.governor.is_some()
        || (ctl.checkpoint_every > 0 && ctl.on_checkpoint.is_some());
    let mut cols = Vec::with_capacity(p);
    for (pos, bj) in b.iter().enumerate() {
        // reject a poisoned right-hand side before any work: a NaN here
        // would otherwise propagate through every recurrence below
        if !bj.iter().all(|v| v.is_finite()) {
            done[pos] = Some(Column::default().result(StopReason::Diverged, 0, None));
            continue;
        }
        cols.push(Column {
            pos,
            fingerprint: keep_state
                .then(|| ProblemFingerprint::new(m, n, cfg.damp, cfg.tol, cfg.max_iter, bj)),
            // stagnation tracking (active only when tol > 0)
            best_res: f64::INFINITY,
            ..Column::default()
        });
    }
    let q = cols.len();
    let mut st = Lockstep {
        cols,
        u: vec![0.0; m * q],
        av: vec![0.0; m * q],
        v: vec![0.0; n * q],
        w: vec![0.0; n * q],
        atu: vec![0.0; n * q],
    };

    let start_iter = match ctl.resume {
        Some(states) => {
            assert_eq!(states.len(), p, "one resume state per right-hand side");
            st.load(states, x, ldx, xcols);
            states.first().map_or(0, |s| s.iteration)
        }
        None => {
            st.start(a, b, cfg.max_iter, &mut done);
            0
        }
    };

    let mut iter = start_iter;
    while iter < cfg.max_iter && !st.cols.is_empty() {
        // governance first: the state here is exactly the end-of-previous-
        // iteration state, so the snapshot taken on interrupt resumes at
        // `iter` with nothing lost and nothing repeated
        let mut interrupt = None;
        for col in &st.cols {
            if let Some(g) = ctl.governor {
                if let Some(t) = tel(col.pos) {
                    t.governor_check();
                }
                interrupt = g.tick();
            }
            #[cfg(feature = "failpoints")]
            if interrupt.is_none() && srda_linalg::failpoint::should_fail("lsqr.interrupt") {
                // deterministic kill switch for resume tests: behaves
                // exactly like an external cancellation landing here
                interrupt = Some(Interrupt::Cancelled);
            }
            if interrupt.is_some() {
                break;
            }
        }
        if let Some(reason) = interrupt {
            for jj in 0..st.cols.len() {
                let state = st.cols[jj]
                    .fingerprint
                    .map(|fp| Box::new(st.snapshot(jj, fp, iter, x, ldx, xcols)));
                let col = &st.cols[jj];
                done[col.pos] = Some(col.result(StopReason::Interrupted(reason), iter, state));
            }
            st.cols.clear();
            break;
        }
        #[cfg(feature = "failpoints")]
        {
            // simulate a non-finite operator product surfacing here
            let ends: Vec<_> = st
                .cols
                .iter()
                .map(|_| {
                    srda_linalg::failpoint::should_fail("lsqr.breakdown")
                        .then_some((StopReason::Diverged, iter))
                })
                .collect();
            st.retire(&ends, &mut done);
        }
        for col in &mut st.cols {
            col.iterations = iter + 1;
        }
        let diverged = Some((StopReason::Diverged, iter));

        // continue the bidiagonalization: β·u = A·v − α·u. A bad product
        // (NaN/∞ from the operator) stops its column before the poison
        // reaches x; it is checked on the raw product so the breakdown is
        // attributed to the operator, and norm2_robust is the backstop
        // for overflow in the recombination.
        if !st.cols.is_empty() {
            a.apply_block_into(&st.v, st.cols.len(), &mut st.av);
        }
        st.retire(&non_finite_cols(&st.av, st.cols.len(), iter), &mut done);
        let q = st.cols.len();
        if q == 0 {
            break;
        }
        let alphas: Vec<f64> = st.cols.iter().map(|c| c.alpha).collect();
        sub_scaled_cols(&mut st.u, &st.av, &alphas);
        let betas = vector::col_norms2_robust(&st.u, q, &vec![true; q]);
        let ends: Vec<_> = betas
            .iter()
            .map(|b| if b.is_finite() { None } else { diverged })
            .collect();
        for (col, &beta) in st.cols.iter_mut().zip(&betas) {
            col.beta = beta;
        }
        st.retire(&ends, &mut done);
        let q = st.cols.len();
        if q == 0 {
            break;
        }
        normalize_cols(
            &mut st.u,
            &st.cols.iter().map(|c| c.beta).collect::<Vec<_>>(),
        );

        // α·v = Aᵀ·u − β·v
        a.apply_t_block_into(&st.u, q, &mut st.atu);
        st.retire(&non_finite_cols(&st.atu, q, iter), &mut done);
        let q = st.cols.len();
        if q == 0 {
            break;
        }
        let betas: Vec<f64> = st.cols.iter().map(|c| c.beta).collect();
        sub_scaled_cols(&mut st.v, &st.atu, &betas);
        let alphas = vector::col_norms2_robust(&st.v, q, &vec![true; q]);
        let ends: Vec<_> = alphas
            .iter()
            .map(|a| if a.is_finite() { None } else { diverged })
            .collect();
        for (col, &alpha) in st.cols.iter_mut().zip(&alphas) {
            col.alpha = alpha;
        }
        st.retire(&ends, &mut done);
        if st.cols.is_empty() {
            break;
        }
        normalize_cols(
            &mut st.v,
            &st.cols.iter().map(|c| c.alpha).collect::<Vec<_>>(),
        );

        let ends: Vec<_> = st
            .cols
            .iter_mut()
            .map(|c| c.rotate(cfg.damp, iter))
            .collect();
        st.retire(&ends, &mut done);
        let q = st.cols.len();
        if q == 0 {
            break;
        }

        // update x and the search direction w; a lone column with a
        // contiguous iterate runs as a flat loop
        let xc: Vec<usize> = st.cols.iter().map(|c| xcols[c.pos]).collect();
        if let ([col], 1) = (st.cols.as_slice(), ldx) {
            let xs = &mut x[xc[0]..xc[0] + n];
            for ((xi, wi), vi) in xs.iter_mut().zip(&mut st.w).zip(&st.v) {
                *xi += col.t1 * *wi;
                *wi = vi + col.t2 * *wi;
            }
        } else {
            for (i, (wrow, vrow)) in
                st.w.chunks_exact_mut(q)
                    .zip(st.v.chunks_exact(q))
                    .enumerate()
            {
                let xrow = &mut x[i * ldx..];
                for (jj, col) in st.cols.iter().enumerate() {
                    let xi = &mut xrow[xc[jj]];
                    *xi += col.t1 * wrow[jj];
                    wrow[jj] = vrow[jj] + col.t2 * wrow[jj];
                }
            }
        }

        let ends: Vec<_> = st
            .cols
            .iter_mut()
            .map(|c| c.check(cfg, iter, tel(c.pos)))
            .collect();
        st.retire(&ends, &mut done);

        if st.cols.is_empty() {
            break;
        }
        // periodic checkpoint, after every recurrence of this iteration
        // has landed — the snapshot resumes at `iter + 1`
        if ctl.checkpoint_every > 0 && (iter + 1) % ctl.checkpoint_every == 0 {
            if let Some(cb) = ctl.on_checkpoint {
                if let Some(state) = st.panel_state(&done, iter + 1, x, ldx, xcols) {
                    cb(&state);
                }
            }
        }
        iter += 1;
    }
    let ends: Vec<_> = st
        .cols
        .iter()
        .map(|c| Some((StopReason::MaxIterations, c.iterations)))
        .collect();
    st.retire(&ends, &mut done);

    let mut results: Vec<PanelResult> = done
        .into_iter()
        .map(|r| r.expect("every column ends"))
        .collect();
    // belt and braces: whatever path got here, a non-finite x never leaves
    // this function (the checks above should make this unreachable)
    for (r, &c) in results.iter_mut().zip(xcols) {
        if !(0..n).all(|i| x[i * ldx + c].is_finite()) {
            for i in 0..n {
                x[i * ldx + c] = 0.0;
            }
            r.stop = StopReason::Diverged;
            r.residual_norm = f64::INFINITY;
        }
    }
    results
}

/// One running column's Paige–Saunders scalars and bookkeeping.
#[derive(Default)]
struct Column {
    /// Position of the column in the panel.
    pos: usize,
    fingerprint: Option<ProblemFingerprint>,
    alpha: f64,
    beta: f64,
    phibar: f64,
    rhobar: f64,
    anorm_sq: f64,
    b_norm: f64,
    best_res: f64,
    no_improve: usize,
    trace: Vec<f64>,
    iterations: usize,
    /// This iteration's rotation outputs, read after the block update.
    psi: f64,
    c: f64,
    t1: f64,
    t2: f64,
}

impl Column {
    /// The two plane rotations of one iteration, after `alpha`/`beta` are
    /// this iteration's. Returns an end when the column must stop before
    /// its iterate is updated.
    fn rotate(&mut self, damp: f64, iter: usize) -> Option<(StopReason, usize)> {
        // eliminate the damping term with a first rotation
        let rhobar1 = self.rhobar.hypot(damp);
        if rhobar1 == 0.0 {
            // total breakdown: the bidiagonalization has terminated and
            // there is no damping — x is already the exact LS solution
            return Some((StopReason::Converged, iter));
        }
        let c1 = self.rhobar / rhobar1;
        let s1 = damp / rhobar1;
        self.psi = s1 * self.phibar;
        self.phibar *= c1;

        // eliminate the subdiagonal with a second rotation
        let rho = rhobar1.hypot(self.beta);
        self.c = rhobar1 / rho;
        let s = self.beta / rho;
        let theta = s * self.alpha;
        self.rhobar = -self.c * self.alpha;
        let phi = self.c * self.phibar;
        self.phibar *= s;

        // never update x with non-finite step coefficients (overflowing
        // recurrences surface here)
        self.t1 = phi / rho;
        self.t2 = -theta / rho;
        if !self.t1.is_finite() || !self.t2.is_finite() {
            return Some((StopReason::Diverged, iter));
        }
        None
    }

    /// Record the damped residual of the iteration just completed and
    /// apply the stopping rules.
    fn check(
        &mut self,
        cfg: &LsqrConfig,
        iter: usize,
        telemetry: Option<&SolverTrace>,
    ) -> Option<(StopReason, usize)> {
        let (alpha, beta, phibar, psi) = (self.alpha, self.beta, self.phibar, self.psi);
        let converged = Some((StopReason::Converged, iter + 1));
        // ‖[r; damp·x]‖ ≈ √(φ̄² + ψ²) accumulated; the ψ terms are
        // orthogonal between iterations, so track their running square sum.
        // The squares overflow once φ̄ nears √f64::MAX; only then is the
        // scaled `hypot` used, so every finite trajectory keeps the bits
        // of the plain form.
        let mut damped_res = (phibar * phibar + psi * psi).sqrt();
        if damped_res == f64::INFINITY {
            damped_res = phibar.hypot(psi);
        }
        self.trace.push(damped_res);
        if let Some(t) = telemetry {
            // pure reads of already-computed state; `alpha * (c * phibar).abs()`
            // is exactly the `arnorm` the second stopping rule derives below,
            // so recording cannot perturb the float sequence
            t.iteration(iter + 1, damped_res, alpha * (self.c * phibar).abs());
        }

        // phibar carries a sign (the rotations propagate the sign of
        // rhobar); only its magnitude estimates the residual norm.
        if cfg.tol > 0.0 && phibar.abs() <= cfg.tol * self.b_norm {
            return converged;
        }
        // second Paige-Saunders rule, decisive for inconsistent systems:
        // ‖Aᵀr̄‖ = α·|c·φ̄| must vanish at the LS solution even though the
        // residual itself does not
        self.anorm_sq += alpha * alpha + beta * beta + cfg.damp * cfg.damp;
        let arnorm = alpha * (self.c * phibar).abs();
        if cfg.tol > 0.0
            && arnorm <= cfg.tol * self.anorm_sq.sqrt() * damped_res.max(f64::MIN_POSITIVE)
        {
            return converged;
        }
        if alpha == 0.0 || beta == 0.0 {
            // bidiagonalization breakdown: the Krylov space is exhausted,
            // so the current x is the exact (damped) LS solution
            return converged;
        }
        // stagnation: the residual floor has been reached but neither
        // tolerance rule fires (e.g. tol below the attainable accuracy);
        // cut the run instead of burning matvecs to no effect
        if cfg.tol > 0.0 {
            if damped_res < self.best_res * (1.0 - STAGNATION_RTOL) {
                self.best_res = damped_res;
                self.no_improve = 0;
            } else {
                self.no_improve += 1;
                if self.no_improve >= STAGNATION_WINDOW {
                    return Some((StopReason::Stagnated, iter + 1));
                }
            }
        }
        None
    }

    /// The column's outcome when it stops with `stop` after `iterations`.
    fn result(
        &self,
        stop: StopReason,
        iterations: usize,
        checkpoint: Option<Box<LsqrCheckpoint>>,
    ) -> PanelResult {
        PanelResult {
            iterations,
            residual_norm: if stop == StopReason::Diverged {
                f64::INFINITY
            } else {
                *self.trace.last().unwrap_or(&self.phibar.abs())
            },
            stop,
            residual_trace: self.trace.clone(),
            checkpoint,
        }
    }
}

/// The lockstep state of a panel's running columns: the Golub–Kahan
/// vectors as row-major blocks with one column per entry of `cols`.
struct Lockstep {
    cols: Vec<Column>,
    /// `u` and the product `A·v`, `m × q`.
    u: Vec<f64>,
    av: Vec<f64>,
    /// `v`, the search directions `w` and the product `Aᵀ·u`, `n × q`.
    v: Vec<f64>,
    w: Vec<f64>,
    atu: Vec<f64>,
}

impl Lockstep {
    /// Golub–Kahan initialization of every column from its right-hand
    /// side; columns for which `x = 0` is already the answer, or whose
    /// start breaks down, end here.
    fn start<A: LinearOperator + ?Sized>(
        &mut self,
        a: &A,
        b: &[&[f64]],
        max_iter: usize,
        done: &mut [Option<PanelResult>],
    ) {
        let q = self.cols.len();
        if q == 0 {
            return;
        }
        for (i, urow) in self.u.chunks_exact_mut(q).enumerate() {
            for (ui, col) in urow.iter_mut().zip(&self.cols) {
                *ui = b[col.pos][i];
            }
        }
        let betas = vector::col_norms2_robust(&self.u, q, &vec![true; q]);
        let mut ends = Vec::with_capacity(q);
        for (col, &beta) in self.cols.iter_mut().zip(&betas) {
            // phibar = beta is also the residual of x = 0
            col.phibar = beta;
            ends.push(if beta == 0.0 {
                Some((StopReason::TrivialSolution, 0))
            } else if !beta.is_finite() {
                // finite entries but overflowing norm: treat as breakdown
                Some((StopReason::Diverged, 0))
            } else {
                None
            });
        }
        self.retire(&ends, done);
        let q = self.cols.len();
        if q == 0 {
            return;
        }
        normalize_cols(
            &mut self.u,
            &self.cols.iter().map(|c| c.phibar).collect::<Vec<_>>(),
        );

        a.apply_t_block_into(&self.u, q, &mut self.v);
        // check the raw operator output so a poisoned product surfaces as
        // a breakdown before the NaN reaches the iteration state
        self.retire(&non_finite_cols(&self.v, q, 0), done);
        let q = self.cols.len();
        if q == 0 {
            return;
        }
        let alphas = vector::col_norms2_robust(&self.v, q, &vec![true; q]);
        let mut ends = Vec::with_capacity(q);
        for (col, &alpha) in self.cols.iter_mut().zip(&alphas) {
            col.alpha = alpha;
            ends.push(if !alpha.is_finite() {
                Some((StopReason::Diverged, 0))
            } else if alpha == 0.0 {
                // b is orthogonal to the range of A: x = 0 is optimal
                Some((StopReason::TrivialSolution, 0))
            } else {
                None
            });
        }
        self.retire(&ends, done);
        if self.cols.is_empty() {
            return;
        }
        normalize_cols(
            &mut self.v,
            &self.cols.iter().map(|c| c.alpha).collect::<Vec<_>>(),
        );
        self.w.clone_from(&self.v);
        for col in &mut self.cols {
            col.rhobar = col.alpha;
            col.b_norm = col.phibar;
            // running Frobenius-norm estimate of the damped bidiagonal
            // (Paige & Saunders' ANORM), for the ‖Aᵀr‖-based stopping rule
            col.anorm_sq = col.alpha * col.alpha;
            col.trace = Vec::with_capacity(max_iter);
        }
    }

    /// Load every running column's state from its checkpoint.
    fn load(&mut self, states: &[LsqrCheckpoint], x: &mut [f64], ldx: usize, xcols: &[usize]) {
        let q = self.cols.len();
        let (m, n) = (self.u.len() / q.max(1), self.v.len() / q.max(1));
        let iteration = states.first().map_or(0, |s| s.iteration);
        for (jj, col) in self.cols.iter_mut().enumerate() {
            let ckpt = &states[col.pos];
            if let Err(e) = ckpt.fingerprint.ensure_matches(
                col.fingerprint
                    .as_ref()
                    .expect("fingerprint computed for resume"),
            ) {
                panic!("lsqr resume: {e}");
            }
            assert_eq!(ckpt.u.len(), m, "checkpoint u length");
            assert_eq!(ckpt.v.len(), n, "checkpoint v length");
            assert_eq!(ckpt.w.len(), n, "checkpoint w length");
            assert_eq!(ckpt.x.len(), n, "checkpoint x length");
            assert_eq!(
                ckpt.iteration, iteration,
                "panel states share one iteration"
            );
            scatter(&mut self.u, q, jj, &ckpt.u);
            scatter(&mut self.v, q, jj, &ckpt.v);
            scatter(&mut self.w, q, jj, &ckpt.w);
            for (i, &xi) in ckpt.x.iter().enumerate() {
                x[i * ldx + xcols[col.pos]] = xi;
            }
            col.alpha = ckpt.alpha;
            col.phibar = ckpt.phibar;
            col.rhobar = ckpt.rhobar;
            col.anorm_sq = ckpt.anorm_sq;
            col.b_norm = ckpt.b_norm;
            col.best_res = ckpt.best_res;
            col.no_improve = ckpt.no_improve;
            col.trace = ckpt.residual_trace.clone();
            col.iterations = ckpt.iteration;
        }
    }

    /// Move the columns with an end out of the lockstep state and into
    /// `done`, compacting the blocks onto the columns still running.
    fn retire(&mut self, ends: &[Option<(StopReason, usize)>], done: &mut [Option<PanelResult>]) {
        if ends.iter().all(Option::is_none) {
            return;
        }
        let q = self.cols.len();
        let keep: Vec<bool> = ends.iter().map(Option::is_none).collect();
        for block in [
            &mut self.u,
            &mut self.av,
            &mut self.v,
            &mut self.w,
            &mut self.atu,
        ] {
            compact(block, q, &keep);
        }
        for (col, end) in std::mem::take(&mut self.cols).into_iter().zip(ends) {
            match end {
                None => self.cols.push(col),
                Some((stop, iterations)) => {
                    done[col.pos] = Some(col.result(*stop, *iterations, None))
                }
            }
        }
    }

    /// Capture running column `jj`'s end-of-iteration state as a
    /// resumable checkpoint. Every field the next iteration reads is here;
    /// `beta` is not, because each iteration recomputes it from scratch
    /// before first use.
    fn snapshot(
        &self,
        jj: usize,
        fingerprint: ProblemFingerprint,
        iteration: usize,
        x: &[f64],
        ldx: usize,
        xcols: &[usize],
    ) -> LsqrCheckpoint {
        let q = self.cols.len();
        let col = &self.cols[jj];
        LsqrCheckpoint {
            fingerprint,
            iteration,
            x: gather(x, ldx, xcols[col.pos], self.v.len() / q),
            w: gather(&self.w, q, jj, self.w.len() / q),
            u: gather(&self.u, q, jj, self.u.len() / q),
            v: gather(&self.v, q, jj, self.v.len() / q),
            alpha: col.alpha,
            phibar: col.phibar,
            rhobar: col.rhobar,
            anorm_sq: col.anorm_sq,
            b_norm: col.b_norm,
            best_res: col.best_res,
            no_improve: col.no_improve,
            residual_trace: col.trace.clone(),
        }
    }

    /// The whole panel's resumable state after `iteration` iterations,
    /// or `None` if no running column carries a fingerprint.
    fn panel_state(
        &self,
        done: &[Option<PanelResult>],
        iteration: usize,
        x: &[f64],
        ldx: usize,
        xcols: &[usize],
    ) -> Option<Vec<PanelColumn>> {
        let n = self.v.len() / self.cols.len().max(1);
        let mut running = self.cols.iter().enumerate().peekable();
        let mut state = Vec::with_capacity(done.len());
        for (pos, r) in done.iter().enumerate() {
            state.push(match r {
                Some(r) => PanelColumn::Done(CompletedResponse {
                    x: gather(x, ldx, xcols[pos], n),
                    iterations: r.iterations,
                    stop: r.stop,
                    residual_norm: r.residual_norm,
                }),
                None => {
                    let (jj, col) = running.next().expect("a column is done or running");
                    PanelColumn::Running(self.snapshot(
                        jj,
                        col.fingerprint?,
                        iteration,
                        x,
                        ldx,
                        xcols,
                    ))
                }
            });
        }
        Some(state)
    }
}

/// Column `j` of the row-major block `a` with row stride `ld`.
fn gather(a: &[f64], ld: usize, j: usize, rows: usize) -> Vec<f64> {
    (0..rows).map(|i| a[i * ld + j]).collect()
}

/// Write `col` into column `j` of the row-major block `a` (`q` columns).
fn scatter(a: &mut [f64], q: usize, j: usize, col: &[f64]) {
    for (row, &c) in a.chunks_exact_mut(q).zip(col) {
        row[j] = c;
    }
}

/// A `Diverged` end after `iterations` for each column of the row-major
/// block `a` (`q` columns) holding a non-finite entry.
fn non_finite_cols(a: &[f64], q: usize, iterations: usize) -> Vec<Option<(StopReason, usize)>> {
    let mut ok = vec![true; q];
    if q == 1 {
        ok[0] = a.iter().all(|v| v.is_finite());
    } else if q > 1 {
        for row in a.chunks_exact(q) {
            for (f, v) in ok.iter_mut().zip(row) {
                *f &= v.is_finite();
            }
        }
    }
    ok.into_iter()
        .map(|ok| (!ok).then_some((StopReason::Diverged, iterations)))
        .collect()
}

/// Divide each column of the row-major block `a` by its (finite) norm,
/// leaving zero-norm columns alone: per column, exactly what
/// `vector::scale(1.0 / norm, column)` computes and counts.
fn normalize_cols(a: &mut [f64], norms: &[f64]) {
    if let &[norm] = norms {
        if norm > 0.0 {
            vector::scale(1.0 / norm, a);
        }
        return;
    }
    let q = norms.len();
    let inv: Vec<f64> = norms
        .iter()
        .map(|&s| if s > 0.0 { 1.0 / s } else { 1.0 })
        .collect();
    let scaled = norms.iter().filter(|&&s| s > 0.0).count();
    srda_linalg::flam::add((a.len() / q * scaled) as u64);
    for row in a.chunks_exact_mut(q) {
        for (v, s) in row.iter_mut().zip(&inv) {
            *v *= s;
        }
    }
}

/// `a ← b − c·a` over row-major blocks with one coefficient per column
/// (`c.len()` columns): per column, the update single-vector LSQR makes.
/// A lone column runs as a flat loop.
fn sub_scaled_cols(a: &mut [f64], b: &[f64], c: &[f64]) {
    if let &[c] = c {
        for (ai, bi) in a.iter_mut().zip(b) {
            *ai = bi - c * *ai;
        }
        return;
    }
    let q = c.len();
    for (ar, br) in a.chunks_exact_mut(q).zip(b.chunks_exact(q)) {
        for ((ai, bi), ci) in ar.iter_mut().zip(br).zip(c) {
            *ai = bi - ci * *ai;
        }
    }
}

/// Keep, in place, the columns of the row-major block `a` (`q` columns)
/// whose `keep` flag is set.
fn compact(a: &mut Vec<f64>, q: usize, keep: &[bool]) {
    let rows = a.len() / q;
    let mut dst = 0;
    for i in 0..rows {
        for (j, &k) in keep.iter().enumerate() {
            if k {
                a[dst] = a[i * q + j];
                dst += 1;
            }
        }
    }
    a.truncate(dst);
}

/// Internal operator `[A; damp·I]` used by the warm-start path: stacking
/// the ridge term as explicit rows turns the damped problem into a plain
/// least-squares problem whose right-hand side can carry an `x₀` offset.
struct DampedStackOp<'a, A: LinearOperator + ?Sized> {
    inner: &'a A,
    damp: f64,
}

impl<A: LinearOperator + ?Sized> LinearOperator for DampedStackOp<'_, A> {
    fn nrows(&self) -> usize {
        self.inner.nrows() + self.inner.ncols()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let (top, bottom) = y.split_at_mut(self.inner.nrows());
        self.inner.apply_into(x, top);
        for (bi, xi) in bottom.iter_mut().zip(x) {
            *bi = self.damp * xi;
        }
    }
    fn apply_t_into(&self, x: &[f64], y: &mut [f64]) {
        let (top, bottom) = x.split_at(self.inner.nrows());
        self.inner.apply_t_into(top, y);
        for (yi, bi) in y.iter_mut().zip(bottom) {
            *yi += self.damp * bi;
        }
    }
    // The block forms keep the inner operator's own (possibly one-pass)
    // block products; row-major blocks stack like vectors.
    fn apply_block_into(&self, x: &[f64], p: usize, y: &mut [f64]) {
        let (top, bottom) = y.split_at_mut(self.inner.nrows() * p);
        self.inner.apply_block_into(x, p, top);
        for (bi, xi) in bottom.iter_mut().zip(x) {
            *bi = self.damp * xi;
        }
    }
    fn apply_t_block_into(&self, x: &[f64], p: usize, y: &mut [f64]) {
        let (top, bottom) = x.split_at(self.inner.nrows() * p);
        self.inner.apply_t_block_into(top, p, y);
        for (yi, bi) in y.iter_mut().zip(bottom) {
            *yi += self.damp * bi;
        }
    }
    fn shares_block_passes(&self) -> bool {
        self.inner.shares_block_passes()
    }
}

/// [`lsqr_panel`] from the starts `x0`: each column solves the equivalent
/// stacked least-squares problem for its correction `d`,
///
/// ```text
/// min ‖ [A; damp·I]·d − [b − A·x0; −damp·x0] ‖²,   x = x0 + d
/// ```
///
/// with `damp = 0` (the damping is inside the stacked operator). With a
/// good `x0` the correction is small and LSQR needs far fewer iterations
/// than a cold start for the same residual. A non-finite `x0` or `b`
/// poisons its stacked right-hand side, so that column stops
/// [`StopReason::Diverged`] with `x = 0` before any iteration — a poisoned
/// previous model must not smuggle its NaNs into the new one.
#[allow(clippy::too_many_arguments)]
fn warm_panel<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[&[f64]],
    x0: &[&[f64]],
    x: &mut [f64],
    ldx: usize,
    xcols: &[usize],
    cfg: &LsqrConfig,
    ctl: &PanelControls,
) -> Vec<PanelResult> {
    let (m, n, p) = (a.nrows(), a.ncols(), b.len());
    assert_eq!(x0.len(), p, "one x0 per right-hand side");
    assert!(ctl.resume.is_none(), "a warm start is not resumable");
    for (bj, x0j) in b.iter().zip(x0) {
        assert_eq!(bj.len(), m, "rhs length must equal operator rows");
        assert_eq!(x0j.len(), n, "x0 length must equal operator cols");
    }
    cfg.validate();
    // A·X0 for the whole panel in one block product
    let starts: Vec<f64> = (0..n).flat_map(|i| x0.iter().map(move |c| c[i])).collect();
    let mut ax0 = vec![0.0; m * p];
    a.apply_block_into(&starts, p, &mut ax0);
    let rhs: Vec<Vec<f64>> = (0..p)
        .map(|j| {
            let ax0j = ax0.iter().skip(j).step_by(p);
            let mut r: Vec<f64> = b[j].iter().zip(ax0j).map(|(bi, ai)| bi - ai).collect();
            r.extend(x0[j].iter().map(|v| -cfg.damp * v));
            r
        })
        .collect();
    let rhs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
    let stacked = DampedStackOp {
        inner: a,
        damp: cfg.damp,
    };
    let inner_cfg = LsqrConfig {
        damp: 0.0,
        ..cfg.clone()
    };
    let inner_ctl = PanelControls {
        on_checkpoint: None,
        ..*ctl
    };
    let mut results = cold_panel(&stacked, &rhs, x, ldx, xcols, &inner_cfg, &inner_ctl);
    for (j, r) in results.iter_mut().enumerate() {
        // the correction problem's state means nothing outside this call
        r.checkpoint = None;
        if r.stop != StopReason::Diverged {
            for (i, x0i) in x0[j].iter().enumerate() {
                x[i * ldx + xcols[j]] += x0i;
            }
        }
        if let Some(t) = ctl.telemetry.get(j).copied().flatten() {
            t.set_solver("lsqr", cfg.damp);
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use srda_linalg::ops::{gram, matvec, matvec_t};
    use srda_linalg::{Cholesky, Mat};

    fn noise_mat(m: usize, n: usize) -> Mat {
        Mat::from_fn(m, n, |i, j| {
            let x = (i as f64 * 12.9898 + j as f64 * 78.233).sin() * 43758.5453;
            x - x.floor() - 0.5
        })
    }

    /// A warm-started solve: the one-column [`lsqr_panel`] from `x0`.
    fn warm_start_governed(
        a: &Mat,
        b: &[f64],
        x0: &[f64],
        cfg: &LsqrConfig,
        governor: Option<&RunGovernor>,
    ) -> LsqrResult {
        let mut x = vec![0.0; a.ncols()];
        let ctl = PanelControls {
            governor,
            x0: Some(&[x0]),
            ..PanelControls::default()
        };
        let r = lsqr_panel(a, &[b], &mut x, 1, &[0], cfg, &ctl)
            .pop()
            .unwrap();
        LsqrResult {
            x,
            iterations: r.iterations,
            residual_norm: r.residual_norm,
            stop: r.stop,
            residual_trace: r.residual_trace,
            checkpoint: r.checkpoint,
        }
    }

    fn warm_start(a: &Mat, b: &[f64], x0: &[f64], cfg: &LsqrConfig) -> LsqrResult {
        warm_start_governed(a, b, x0, cfg, None)
    }

    fn ridge_oracle(a: &Mat, b: &[f64], alpha: f64) -> Vec<f64> {
        let mut g = gram(a);
        g.add_to_diag(alpha);
        let atb = matvec_t(a, b).unwrap();
        Cholesky::factor(&g).unwrap().solve(&atb).unwrap()
    }

    #[test]
    fn solves_consistent_square_system() {
        let a = noise_mat(6, 6);
        let x_true: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let b = matvec(&a, &x_true).unwrap();
        let r = lsqr(
            &a,
            &b,
            &LsqrConfig {
                damp: 0.0,
                max_iter: 200,
                tol: 1e-14,
            },
        );
        for (u, v) in r.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn huge_but_finite_rhs_does_not_overflow_the_norms() {
        // entries near √(f64::MAX): dot(b, b) overflows to ∞ but the
        // scaled norm2_robust stays finite, so the solve proceeds instead
        // of reporting a spurious breakdown
        let a = noise_mat(8, 3);
        let big = f64::MAX.sqrt() * 0.5;
        let b = vec![big; 8];
        let r = lsqr(
            &a,
            &b,
            &LsqrConfig {
                damp: 0.1,
                max_iter: 60,
                tol: 1e-10,
            },
        );
        assert!(
            !matches!(r.stop, StopReason::Diverged),
            "stop = {:?}",
            r.stop
        );
        assert!(r.x.iter().all(|t| t.is_finite()));
        assert!(r.residual_norm.is_finite());
    }

    #[test]
    fn overdetermined_matches_normal_equations() {
        let a = noise_mat(20, 5);
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).sin()).collect();
        let r = lsqr(
            &a,
            &b,
            &LsqrConfig {
                damp: 0.0,
                max_iter: 100,
                tol: 1e-14,
            },
        );
        let oracle = ridge_oracle(&a, &b, 0.0);
        for (u, v) in r.x.iter().zip(&oracle) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn damped_solution_matches_ridge_oracle() {
        let alpha: f64 = 0.7;
        let a = noise_mat(15, 8);
        let b: Vec<f64> = (0..15).map(|i| (i as f64 * 0.9).cos()).collect();
        let r = lsqr(
            &a,
            &b,
            &LsqrConfig {
                damp: alpha.sqrt(),
                max_iter: 200,
                tol: 1e-14,
            },
        );
        let oracle = ridge_oracle(&a, &b, alpha);
        for (u, v) in r.x.iter().zip(&oracle) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn underdetermined_with_damping() {
        // n > m: exactly SRDA's hard case; ridge makes it well-posed
        let alpha: f64 = 0.5;
        let a = noise_mat(6, 20);
        let b: Vec<f64> = (0..6).map(|i| 1.0 + i as f64).collect();
        let r = lsqr(
            &a,
            &b,
            &LsqrConfig {
                damp: alpha.sqrt(),
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
    fn zero_rhs_is_trivial() {
        let a = noise_mat(5, 3);
        let r = lsqr(&a, &[0.0; 5], &LsqrConfig::default());
        assert_eq!(r.stop, StopReason::TrivialSolution);
        assert_eq!(r.x, vec![0.0; 3]);
    }

    #[test]
    fn rhs_orthogonal_to_range_is_trivial() {
        // A has only a first column; b orthogonal to it
        let a = Mat::from_vec(2, 1, vec![1.0, 0.0]).unwrap();
        let r = lsqr(&a, &[0.0, 5.0], &LsqrConfig::default());
        assert_eq!(r.stop, StopReason::TrivialSolution);
        assert_eq!(r.x, vec![0.0]);
        assert!((r.residual_norm - 5.0).abs() < 1e-14);
    }

    #[test]
    fn max_iter_respected() {
        let a = noise_mat(30, 25);
        let b = vec![1.0; 30];
        let r = lsqr(
            &a,
            &b,
            &LsqrConfig {
                damp: 0.0,
                max_iter: 3,
                tol: 0.0,
            },
        );
        assert_eq!(r.iterations, 3);
        assert_eq!(r.stop, StopReason::MaxIterations);
        assert_eq!(r.residual_trace.len(), 3);
    }

    #[test]
    fn residual_trace_is_monotone_nonincreasing() {
        let a = noise_mat(25, 10);
        let b: Vec<f64> = (0..25).map(|i| (i as f64).sin()).collect();
        let r = lsqr(
            &a,
            &b,
            &LsqrConfig {
                damp: 0.1,
                max_iter: 30,
                tol: 0.0,
            },
        );
        for w in r.residual_trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "residual increased: {w:?}");
        }
    }

    #[test]
    fn converges_quickly_on_well_conditioned_problems() {
        // the paper's claim: ~20 iterations suffice in practice
        let a = noise_mat(60, 30);
        let b: Vec<f64> = (0..60).map(|i| (i as f64 * 0.17).sin()).collect();
        let r = lsqr(
            &a,
            &b,
            &LsqrConfig {
                damp: 1.0,
                max_iter: 20,
                tol: 0.0,
            },
        );
        let oracle = ridge_oracle(&a, &b, 1.0);
        let mut err = 0.0f64;
        let mut norm = 0.0f64;
        for (u, v) in r.x.iter().zip(&oracle) {
            err += (u - v) * (u - v);
            norm += v * v;
        }
        assert!(
            err.sqrt() / norm.sqrt() < 1e-4,
            "relative error {} too large after 20 iterations",
            err.sqrt() / norm.sqrt()
        );
    }

    #[test]
    fn works_through_sparse_operator() {
        let d = noise_mat(12, 7);
        let s = srda_sparse::CsrMatrix::from_dense(&d, 0.2); // thin it out
        let ds = s.to_dense();
        let b: Vec<f64> = (0..12).map(|i| (i as f64 * 0.51).cos()).collect();
        let cfg = LsqrConfig {
            damp: 0.3,
            max_iter: 200,
            tol: 1e-14,
        };
        let r_sparse = lsqr(&s, &b, &cfg);
        let r_dense = lsqr(&ds, &b, &cfg);
        for (u, v) in r_sparse.x.iter().zip(&r_dense.x) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "rhs length")]
    fn rhs_length_checked() {
        let a = noise_mat(4, 3);
        let _ = lsqr(&a, &[1.0; 3], &LsqrConfig::default());
    }

    #[test]
    fn warm_start_matches_cold_solution() {
        let alpha: f64 = 0.6;
        let a = noise_mat(16, 7);
        let b: Vec<f64> = (0..16).map(|i| (i as f64 * 0.53).sin()).collect();
        let cfg = LsqrConfig {
            damp: alpha.sqrt(),
            max_iter: 400,
            tol: 1e-13,
        };
        let cold = lsqr(&a, &b, &cfg);
        // warm start from an arbitrary point still converges to the same
        // unique ridge solution
        let x0: Vec<f64> = (0..7).map(|i| (i as f64) - 3.0).collect();
        let warm = warm_start(&a, &b, &x0, &cfg);
        for (u, v) in warm.x.iter().zip(&cold.x) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }

    #[test]
    fn warm_start_from_exact_solution_converges_instantly() {
        let alpha: f64 = 0.4;
        let a = noise_mat(12, 5);
        let b: Vec<f64> = (0..12).map(|i| (i as f64 * 0.71).cos()).collect();
        let oracle = ridge_oracle(&a, &b, alpha);
        let cfg = LsqrConfig {
            damp: alpha.sqrt(),
            max_iter: 100,
            tol: 1e-10,
        };
        let warm = warm_start(&a, &b, &oracle, &cfg);
        assert!(
            warm.iterations <= 3,
            "took {} iterations from the exact solution",
            warm.iterations
        );
        for (u, v) in warm.x.iter().zip(&oracle) {
            assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn warm_start_near_solution_needs_fewer_iterations() {
        let alpha: f64 = 0.5;
        let a = noise_mat(40, 20);
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).sin()).collect();
        let oracle = ridge_oracle(&a, &b, alpha);
        // perturb the oracle slightly: the "previous model" after a small
        // data update
        let x0: Vec<f64> = oracle.iter().map(|v| v * 1.02 + 1e-3).collect();
        let cfg = LsqrConfig {
            damp: alpha.sqrt(),
            max_iter: 200,
            tol: 1e-8,
        };
        let cold = lsqr(&a, &b, &cfg);
        let warm = warm_start(&a, &b, &x0, &cfg);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    #[should_panic(expected = "x0 length")]
    fn warm_start_x0_length_checked() {
        let a = noise_mat(4, 3);
        let _ = warm_start(&a, &[1.0; 4], &[0.0; 2], &LsqrConfig::default());
    }

    #[test]
    #[should_panic(expected = "damp must be finite and non-negative")]
    fn negative_damp_rejected() {
        let a = noise_mat(4, 3);
        let _ = lsqr(
            &a,
            &[1.0; 4],
            &LsqrConfig {
                damp: -0.5,
                ..LsqrConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "tol must be finite and non-negative")]
    fn nan_tol_rejected() {
        let a = noise_mat(4, 3);
        let _ = lsqr(
            &a,
            &[1.0; 4],
            &LsqrConfig {
                tol: f64::NAN,
                ..LsqrConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "damp must be finite and non-negative")]
    fn warm_start_validates_config_too() {
        let a = noise_mat(4, 3);
        let _ = warm_start(
            &a,
            &[1.0; 4],
            &[0.0; 3],
            &LsqrConfig {
                damp: f64::INFINITY,
                ..LsqrConfig::default()
            },
        );
    }

    #[test]
    fn non_finite_rhs_flags_diverged_with_zero_x() {
        let a = noise_mat(5, 3);
        let mut b = vec![1.0; 5];
        b[2] = f64::NAN;
        let r = lsqr(&a, &b, &LsqrConfig::default());
        assert_eq!(r.stop, StopReason::Diverged);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.x, vec![0.0; 3]);
        let mut b2 = vec![1.0; 5];
        b2[0] = f64::INFINITY;
        let r2 = lsqr(&a, &b2, &LsqrConfig::default());
        assert_eq!(r2.stop, StopReason::Diverged);
    }

    /// An operator whose forward product emits NaN — the "bad matvec"
    /// scenario (e.g. corrupted data read mid-solve).
    struct PoisonOp {
        m: usize,
        n: usize,
    }

    impl crate::operator::LinearOperator for PoisonOp {
        fn nrows(&self) -> usize {
            self.m
        }
        fn ncols(&self) -> usize {
            self.n
        }
        fn apply_into(&self, _x: &[f64], y: &mut [f64]) {
            y.fill(f64::NAN);
        }
        fn apply_t_into(&self, x: &[f64], y: &mut [f64]) {
            y.fill(x.iter().sum());
        }
    }

    #[test]
    fn nan_matvec_flags_diverged_and_never_emits_nan_x() {
        let op = PoisonOp { m: 4, n: 3 };
        let r = lsqr(&op, &[1.0; 4], &LsqrConfig::default());
        assert_eq!(r.stop, StopReason::Diverged);
        assert!(
            r.x.iter().all(|v| v.is_finite()),
            "x contaminated: {:?}",
            r.x
        );
        assert!(r.residual_norm.is_infinite());
    }

    #[test]
    fn warm_start_with_damp_zero_matches_ls_oracle() {
        // damp = 0: the stacked ridge rows vanish; plain warm-started LS
        let a = noise_mat(20, 5);
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.43).sin()).collect();
        let x0: Vec<f64> = (0..5).map(|i| 0.3 * i as f64 - 1.0).collect();
        let cfg = LsqrConfig {
            damp: 0.0,
            max_iter: 300,
            tol: 1e-14,
        };
        let r = warm_start(&a, &b, &x0, &cfg);
        assert!(r.x.iter().all(|v| v.is_finite()));
        let oracle = ridge_oracle(&a, &b, 0.0);
        for (u, v) in r.x.iter().zip(&oracle) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }

    #[test]
    fn warm_start_rejects_non_finite_x0() {
        let a = noise_mat(6, 4);
        let b = vec![1.0; 6];
        let mut x0 = vec![0.0; 4];
        x0[1] = f64::NAN;
        let r = warm_start(&a, &b, &x0, &LsqrConfig::default());
        assert_eq!(r.stop, StopReason::Diverged);
        assert_eq!(r.iterations, 0);
        assert!(
            r.x.iter().all(|v| v.is_finite()),
            "x contaminated: {:?}",
            r.x
        );
    }

    #[test]
    fn stagnation_detected_when_tol_is_unattainable() {
        // inconsistent overdetermined system with damping: the damped
        // residual has a strictly positive floor, and tol = 1e-300 can
        // never be met — without stagnation detection this would burn all
        // 500 iterations at the floor
        let a = noise_mat(20, 5);
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.77).cos()).collect();
        let r = lsqr(
            &a,
            &b,
            &LsqrConfig {
                damp: 0.3,
                max_iter: 500,
                tol: 1e-300,
            },
        );
        assert_eq!(r.stop, StopReason::Stagnated, "stopped as {:?}", r.stop);
        assert!(r.iterations < 100, "ran {} iterations", r.iterations);
        // the iterate at the floor is still the correct damped solution
        let oracle = ridge_oracle(&a, &b, 0.09);
        for (u, v) in r.x.iter().zip(&oracle) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn tol_zero_disables_stagnation_detection() {
        // the paper's fixed-iteration mode must run exactly max_iter even
        // when the residual is flat
        let a = noise_mat(20, 5);
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.77).cos()).collect();
        let r = lsqr(
            &a,
            &b,
            &LsqrConfig {
                damp: 0.3,
                max_iter: 60,
                tol: 0.0,
            },
        );
        assert_eq!(r.iterations, 60);
        assert_eq!(r.stop, StopReason::MaxIterations);
    }

    fn assert_bitwise_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (u, v)) in a.iter().zip(b).enumerate() {
            assert_eq!(u.to_bits(), v.to_bits(), "entry {i}: {u} vs {v}");
        }
    }

    #[test]
    fn governed_interrupt_then_resume_is_bitwise_identical() {
        use crate::governor::{RunBudget, RunGovernor};
        let alpha: f64 = 0.3;
        let a = noise_mat(30, 12);
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.29).sin()).collect();
        let cfg = LsqrConfig {
            damp: alpha.sqrt(),
            max_iter: 40,
            tol: 0.0,
        };
        let full = lsqr(&a, &b, &cfg);
        assert_eq!(full.stop, StopReason::MaxIterations);
        for k in [1usize, 3, 7, 20, 39] {
            let g = RunGovernor::with_budget(RunBudget::with_iter_cap(k));
            let ctl = SolveControls {
                governor: Some(&g),
                ..Default::default()
            };
            let partial = lsqr_controlled(&a, &b, &cfg, &ctl);
            assert_eq!(
                partial.stop,
                StopReason::Interrupted(Interrupt::IterBudgetExhausted)
            );
            assert_eq!(partial.iterations, k);
            assert_eq!(partial.residual_trace.len(), k);
            let ckpt = partial
                .checkpoint
                .expect("interrupt must carry a checkpoint");
            // round-trip through the on-disk byte format to prove the
            // serialized state, not just the in-memory one, is exact
            let ckpt = LsqrCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
            let resume_ctl = SolveControls {
                resume: Some(&ckpt),
                ..Default::default()
            };
            let resumed = lsqr_controlled(&a, &b, &cfg, &resume_ctl);
            assert_eq!(resumed.stop, full.stop, "interrupt at {k}");
            assert_eq!(resumed.iterations, full.iterations);
            assert_bitwise_eq(&resumed.x, &full.x);
            assert_bitwise_eq(&resumed.residual_trace, &full.residual_trace);
        }
    }

    #[test]
    fn resume_with_convergence_rules_active_is_bitwise_identical() {
        use crate::governor::{RunBudget, RunGovernor};
        let a = noise_mat(25, 10);
        let b: Vec<f64> = (0..25).map(|i| (i as f64 * 0.41).cos()).collect();
        let cfg = LsqrConfig {
            damp: 0.5,
            max_iter: 200,
            tol: 1e-12,
        };
        let full = lsqr(&a, &b, &cfg);
        assert_eq!(full.stop, StopReason::Converged);
        let k = full.iterations / 2;
        let g = RunGovernor::with_budget(RunBudget::with_iter_cap(k));
        let partial = lsqr_controlled(
            &a,
            &b,
            &cfg,
            &SolveControls {
                governor: Some(&g),
                ..Default::default()
            },
        );
        let ckpt = partial.checkpoint.unwrap();
        let resumed = lsqr_controlled(
            &a,
            &b,
            &cfg,
            &SolveControls {
                resume: Some(&ckpt),
                ..Default::default()
            },
        );
        assert_eq!(resumed.stop, StopReason::Converged);
        assert_eq!(resumed.iterations, full.iterations);
        assert_bitwise_eq(&resumed.x, &full.x);
    }

    #[test]
    fn periodic_checkpoints_are_emitted_and_each_resumes_identically() {
        let a = noise_mat(20, 8);
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.61).sin()).collect();
        let cfg = LsqrConfig {
            damp: 0.2,
            max_iter: 12,
            tol: 0.0,
        };
        let captured = std::sync::Mutex::new(Vec::new());
        let on_ckpt = |c: &LsqrCheckpoint| captured.lock().unwrap().push(c.clone());
        let full = lsqr_controlled(
            &a,
            &b,
            &cfg,
            &SolveControls {
                checkpoint_every: 3,
                on_checkpoint: Some(&on_ckpt),
                ..Default::default()
            },
        );
        let captured = captured.into_inner().unwrap();
        assert_eq!(
            captured.iter().map(|c| c.iteration).collect::<Vec<_>>(),
            vec![3, 6, 9, 12]
        );
        for ckpt in &captured {
            let resumed = lsqr_controlled(
                &a,
                &b,
                &cfg,
                &SolveControls {
                    resume: Some(ckpt),
                    ..Default::default()
                },
            );
            assert_eq!(resumed.iterations, full.iterations);
            assert_bitwise_eq(&resumed.x, &full.x);
        }
    }

    #[test]
    fn resume_past_max_iter_returns_checkpoint_state() {
        let a = noise_mat(10, 5);
        let b = vec![1.0; 10];
        let cfg = LsqrConfig {
            damp: 0.1,
            max_iter: 6,
            tol: 0.0,
        };
        // a periodic checkpoint lands exactly on the final iteration, so
        // resuming from it has nothing left to do
        let captured = std::sync::Mutex::new(Vec::new());
        let on_ckpt = |c: &LsqrCheckpoint| captured.lock().unwrap().push(c.clone());
        let full = lsqr_controlled(
            &a,
            &b,
            &cfg,
            &SolveControls {
                checkpoint_every: 6,
                on_checkpoint: Some(&on_ckpt),
                ..Default::default()
            },
        );
        assert_eq!(full.iterations, 6);
        let ckpt = captured.into_inner().unwrap().pop().unwrap();
        assert_eq!(ckpt.iteration, 6);
        let resumed = lsqr_controlled(
            &a,
            &b,
            &cfg,
            &SolveControls {
                resume: Some(&ckpt),
                ..Default::default()
            },
        );
        assert_eq!(resumed.iterations, 6);
        assert_eq!(resumed.stop, StopReason::MaxIterations);
        assert_bitwise_eq(&resumed.x, &ckpt.x);
    }

    #[test]
    #[should_panic(expected = "lsqr resume")]
    fn resume_against_different_rhs_panics() {
        let a = noise_mat(10, 5);
        let b = vec![1.0; 10];
        let cfg = LsqrConfig::default();
        let ckpt = LsqrCheckpoint {
            fingerprint: ProblemFingerprint::new(
                10,
                5,
                cfg.damp,
                cfg.tol,
                cfg.max_iter,
                &[2.0; 10],
            ),
            iteration: 1,
            x: vec![0.0; 5],
            w: vec![0.0; 5],
            u: vec![0.0; 10],
            v: vec![0.0; 5],
            alpha: 1.0,
            phibar: 1.0,
            rhobar: 1.0,
            anorm_sq: 1.0,
            b_norm: 1.0,
            best_res: f64::INFINITY,
            no_improve: 0,
            residual_trace: vec![1.0],
        };
        let _ = lsqr_controlled(
            &a,
            &b,
            &cfg,
            &SolveControls {
                resume: Some(&ckpt),
                ..Default::default()
            },
        );
    }

    #[test]
    fn governed_warm_start_interrupts_without_checkpoint() {
        use crate::governor::RunBudget;
        let a = noise_mat(16, 7);
        let b: Vec<f64> = (0..16).map(|i| (i as f64 * 0.53).sin()).collect();
        let x0 = vec![0.1; 7];
        let cfg = LsqrConfig {
            damp: 0.3,
            max_iter: 50,
            tol: 0.0,
        };
        let g = RunGovernor::with_budget(RunBudget::with_iter_cap(4));
        let r = warm_start_governed(&a, &b, &x0, &cfg, Some(&g));
        assert_eq!(
            r.stop,
            StopReason::Interrupted(Interrupt::IterBudgetExhausted)
        );
        assert!(
            r.checkpoint.is_none(),
            "warm starts must not leak stacked-problem checkpoints"
        );
        assert!(r.x.iter().all(|v| v.is_finite()));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn interrupt_failpoint_kills_at_iteration_k_and_resume_matches() {
        srda_linalg::failpoint::reset();
        let a = noise_mat(24, 9);
        let b: Vec<f64> = (0..24).map(|i| (i as f64 * 0.37).cos()).collect();
        let cfg = LsqrConfig {
            damp: 0.4,
            max_iter: 30,
            tol: 0.0,
        };
        let full = lsqr(&a, &b, &cfg);
        // let k iterations pass, then fire: the kill lands at the top of
        // iteration k, after k completed iterations
        let k = 5;
        srda_linalg::failpoint::arm_after("lsqr.interrupt", k, 1);
        // a governor must be present for the solve to compute the
        // fingerprint a checkpoint needs — an unbounded one never
        // interrupts on its own, so the failpoint is the only kill source
        let g = crate::governor::RunGovernor::unbounded();
        let partial = lsqr_controlled(
            &a,
            &b,
            &cfg,
            &SolveControls {
                governor: Some(&g),
                ..Default::default()
            },
        );
        srda_linalg::failpoint::reset();
        assert_eq!(partial.stop, StopReason::Interrupted(Interrupt::Cancelled));
        assert_eq!(partial.iterations, k);
        let ckpt = partial.checkpoint.unwrap();
        assert_eq!(ckpt.iteration, k);
        let resumed = lsqr_controlled(
            &a,
            &b,
            &cfg,
            &SolveControls {
                resume: Some(&ckpt),
                ..Default::default()
            },
        );
        assert_eq!(resumed.iterations, full.iterations);
        assert_bitwise_eq(&resumed.x, &full.x);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn breakdown_failpoint_forces_diverged() {
        srda_linalg::failpoint::reset();
        let a = noise_mat(10, 4);
        let b = vec![1.0; 10];
        srda_linalg::failpoint::arm("lsqr.breakdown", 1);
        let r = lsqr(&a, &b, &LsqrConfig::default());
        assert_eq!(r.stop, StopReason::Diverged);
        assert!(r.x.iter().all(|v| v.is_finite()));
        assert_eq!(srda_linalg::failpoint::fired("lsqr.breakdown"), 1);
        srda_linalg::failpoint::reset();
        // and with nothing armed the same problem solves normally
        let r2 = lsqr(&a, &b, &LsqrConfig::default());
        assert_ne!(r2.stop, StopReason::Diverged);
    }
}
