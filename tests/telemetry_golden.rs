//! Golden-trajectory lock on the solver telemetry channel.
//!
//! The observability layer promises two things these tests pin down:
//!
//! 1. **Telemetry is a pure read.** The per-iteration residual / ‖Aᵀr‖
//!    values a [`SolverTrace`] records are the exact floats the solver's
//!    stopping rules already computed — so the trajectory is reproducible
//!    bit for bit, run over run, and is committed here as golden `u64`
//!    bit patterns. A golden mismatch means either the solver's float
//!    sequence changed (a real numerical change that must be reviewed) or
//!    telemetry started perturbing/duplicating work (a bug outright).
//! 2. **Telemetry is backend-independent.** The serial and threaded
//!    kernel backends produce bitwise-identical trajectories, so a trace
//!    captured in production (threaded) can be replayed/diffed against a
//!    serial debug run.
//!
//! To regenerate the goldens after an *intentional* numerical change:
//!
//! ```text
//! cargo test --test telemetry_golden -- --ignored --nocapture
//! ```
//!
//! and paste the printed arrays over the `GOLDEN_*` constants below.

use srda::{Recorder, Srda, SrdaConfig, SrdaModel, SrdaSolver};
use srda_linalg::{ExecPolicy, Mat};
use srda_obs::IterationRecord;

/// Three classes, 4-D, deterministic sin-based noise (same generator
/// family as `tests/governor_resume.rs`): 2 responses × 12 iterations.
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

fn lsqr_config(exec: ExecPolicy, rec: Recorder) -> SrdaConfig {
    SrdaConfig {
        alpha: 1.0,
        solver: SrdaSolver::Lsqr {
            max_iter: 12,
            tol: 0.0,
        },
        exec,
        recorder: rec,
        ..SrdaConfig::default()
    }
}

/// One recorded telemetry channel: (label, solver, backend, iterations).
type TraceChannel = (String, String, String, Vec<IterationRecord>);

/// Fit the 18×4 LSQR problem and return (model, telemetry per response).
fn traced_fit(exec: ExecPolicy) -> (SrdaModel, Vec<TraceChannel>) {
    let (x, y) = three_blobs(6);
    let rec = Recorder::new_enabled();
    let model = Srda::new(lsqr_config(exec, rec)).fit_dense(&x, &y).unwrap();
    let traces = rec
        .snapshot()
        .traces
        .iter()
        .map(|t| {
            (
                t.label.clone(),
                t.solver.clone(),
                t.backend.clone(),
                t.iterations.clone(),
            )
        })
        .collect();
    (model, traces)
}

fn weight_bits(m: &SrdaModel) -> Vec<u64> {
    m.embedding()
        .weights()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn bits(records: &[IterationRecord], field: impl Fn(&IterationRecord) -> f64) -> Vec<u64> {
    records.iter().map(|r| field(r).to_bits()).collect()
}

// ---------------------------------------------------------------------------
// committed goldens (see module docs for the regeneration recipe)
// ---------------------------------------------------------------------------

/// `fit/response[0]/lsqr` damped-residual trajectory, 12 iterations.
const GOLDEN_LSQR_RES_R0: &[u64] = &[
    0x3fea05a14bebe064,
    0x3fd4a48bcf11f744,
    0x3fa0d09edb8b5381,
    0x3fa056d820d36905,
    0x3f50ffd69c63683d,
    0x3ef5838f14f9bbf0,
    0x3dc3232fd00fff2b,
    0x3d4083e4985d9d3b,
    0x3d12b3f7671f1634,
    0x3bae4a3761796971,
    0x3b4a3a9ce4689f5a,
    0x3b49f33d86912177,
];

/// `fit/response[0]/lsqr` ‖Aᵀr‖-estimate trajectory, 12 iterations.
const GOLDEN_LSQR_ATR_R0: &[u64] = &[
    0x40000731773d0c8a,
    0x3ffe4d455640c1a8,
    0x3f6e899b65453f00,
    0x3f11511d41d9f70f,
    0x3dc32b3b0a5b3c15,
    0x3d40922385e865c8,
    0x3d1477d311f10d5b,
    0x3bc75f60d737b6ca,
    0x3b66992baf79652e,
    0x3b7bb2b6645f1144,
    0x3afb25ce8db79614,
    0x3a2d999f2bffe451,
];

/// `fit/response[1]/lsqr` damped-residual trajectory, 12 iterations.
const GOLDEN_LSQR_RES_R1: &[u64] = &[
    0x3fafa1e4482a6a74,
    0x3f9761f9a9e3250c,
    0x3f96346bb8879add,
    0x3f685e4cb2d288f2,
    0x3f4fe2735b3b43c2,
    0x3ef0af082f1b3418,
    0x3de2ecc1a4346030,
    0x3d5244dbf74bfdf6,
    0x3c779205f6563891,
    0x3badeaebba6d4e23,
    0x3b40596743fbd8db,
    0x3b403996b6ffbb29,
];

#[test]
fn lsqr_telemetry_matches_committed_golden() {
    let (_, traces) = traced_fit(ExecPolicy::serial());
    assert_eq!(traces.len(), 2, "c − 1 = 2 telemetry channels");

    let (label0, solver0, backend0, iters0) = &traces[0];
    assert_eq!(label0, "fit/response[0]/lsqr");
    assert_eq!(solver0, "lsqr");
    assert_eq!(backend0, "serial");
    assert_eq!(bits(iters0, |r| r.residual), GOLDEN_LSQR_RES_R0);
    assert_eq!(bits(iters0, |r| r.atr_norm), GOLDEN_LSQR_ATR_R0);
    // iteration numbers are 1-based and contiguous
    let nums: Vec<usize> = iters0.iter().map(|r| r.iteration).collect();
    assert_eq!(nums, (1..=iters0.len()).collect::<Vec<_>>());

    let (label1, _, _, iters1) = &traces[1];
    assert_eq!(label1, "fit/response[1]/lsqr");
    assert_eq!(bits(iters1, |r| r.residual), GOLDEN_LSQR_RES_R1);
}

#[test]
fn telemetry_identical_serial_vs_threaded() {
    let (m_serial, t_serial) = traced_fit(ExecPolicy::serial());
    let (m_par, t_par) = traced_fit(ExecPolicy::threaded(4));

    // the model itself is bitwise identical across backends ...
    assert_eq!(weight_bits(&m_serial), weight_bits(&m_par));

    // ... and so is every recorded trajectory. Only the backend tag may
    // differ (that is the point of recording it).
    assert_eq!(t_serial.len(), t_par.len());
    for ((l_s, s_s, b_s, i_s), (l_p, s_p, b_p, i_p)) in t_serial.iter().zip(&t_par) {
        assert_eq!(l_s, l_p);
        assert_eq!(s_s, s_p);
        assert_eq!(b_s, "serial");
        assert_eq!(b_p, "threaded");
        assert_eq!(
            bits(i_s, |r| r.residual),
            bits(i_p, |r| r.residual),
            "residual trajectory diverged between backends on {l_s}"
        );
        assert_eq!(
            bits(i_s, |r| r.atr_norm),
            bits(i_p, |r| r.atr_norm),
            "‖Aᵀr‖ trajectory diverged between backends on {l_s}"
        );
    }
}

#[test]
fn traced_fit_is_bitwise_identical_to_untraced() {
    let (x, y) = three_blobs(6);
    let untraced = Srda::new(lsqr_config(ExecPolicy::serial(), Recorder::disabled()))
        .fit_dense(&x, &y)
        .unwrap();
    let (traced, _) = traced_fit(ExecPolicy::serial());
    assert_eq!(weight_bits(&untraced), weight_bits(&traced));
}

#[test]
fn ungoverned_solve_reports_zero_governor_checks() {
    let (x, y) = three_blobs(6);
    let rec = Recorder::new_enabled();
    Srda::new(lsqr_config(ExecPolicy::serial(), rec))
        .fit_dense(&x, &y)
        .unwrap();
    let report = rec.snapshot();
    assert!(!report.traces.is_empty());
    for t in &report.traces {
        assert_eq!(t.governor_checks, 0, "no governor was installed");
    }
}

/// Acceptance criterion: on a moderate LSQR fit, the child spans under
/// `fit` (prepare + per-response solves) account for ≥ 95% of the fit's
/// wall time — i.e. the span tree actually covers where time goes.
#[test]
fn fit_span_children_cover_95_percent_of_fit() {
    let (x, y) = three_blobs(120); // 360 × 4, 2 responses × 60 iterations
    let rec = Recorder::new_enabled();
    let cfg = SrdaConfig {
        solver: SrdaSolver::Lsqr {
            max_iter: 60,
            tol: 0.0,
        },
        ..lsqr_config(ExecPolicy::serial(), rec)
    };
    Srda::new(cfg).fit_dense(&x, &y).unwrap();
    let report = rec.snapshot();
    let coverage = report
        .span_coverage("fit")
        .expect("fit span must be recorded");
    assert!(
        coverage >= 0.95,
        "span coverage {coverage:.3} < 0.95 — fit wall time is leaking \
         outside the instrumented phases"
    );
}

/// Regeneration helper (never runs by default): prints the current
/// trajectories in the exact format of the `GOLDEN_*` constants.
#[test]
#[ignore = "golden regeneration helper; run with --ignored --nocapture"]
fn print_goldens() {
    let hex = |bits: Vec<u64>| {
        bits.iter()
            .map(|b| format!("0x{b:016x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let (_, traces) = traced_fit(ExecPolicy::serial());
    for (label, _, _, iters) in &traces {
        println!("// {label}");
        println!("res: &[{}];", hex(bits(iters, |r| r.residual)));
        println!("atr: &[{}];", hex(bits(iters, |r| r.atr_norm)));
    }
}
