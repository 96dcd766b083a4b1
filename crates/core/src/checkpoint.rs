//! Fit-level checkpoint: resume an interrupted multi-response SRDA fit.
//!
//! The solver-level [`LsqrCheckpoint`] captures one response solve; an
//! SRDA fit solves its `c − 1` responses in panels, each panel in lockstep
//! (see `srda::lsqr_panels`). A [`FitCheckpoint`] records the response
//! columns of every finished panel (weights, iteration counts, stop
//! reasons, accumulated warnings) plus the state of each column of the
//! panel that was interrupted — finished, or its in-flight solver state —
//! so `Srda` can resume and produce a **bitwise-identical** model to the
//! uninterrupted run.
//!
//! The file is a [`srda_sparse::frame`] record, like `srda-solvers`'
//! checkpoint: a magic header (`SRDAFCK2`), a little-endian payload, and
//! a CRC-32 trailer, written via atomic rename so a crash mid-write never
//! leaves a torn checkpoint behind. The fingerprint binds the state to the exact
//! problem — data shape, response count, `α`, iteration cap, tolerance,
//! and a CRC of the labels — and also lets the CLI `resume` subcommand
//! reconstruct the training configuration without re-specifying it.

use srda_solvers::checkpoint::{CheckpointError, LsqrCheckpoint};
use srda_solvers::StopReason;
pub use srda_solvers::{CompletedResponse, PanelColumn};
use srda_sparse::crc32::crc32;
use srda_sparse::frame::{self, Reader, Writer};
use std::path::Path;

/// Magic bytes opening every fit-checkpoint file (version 2, the panel
/// layout).
pub const FIT_CHECKPOINT_MAGIC: &[u8; 8] = b"SRDAFCK2";

/// Magic bytes of the version-1 layout (one in-flight response), which
/// this build no longer reads.
const FIT_CHECKPOINT_MAGIC_V1: &[u8; 8] = b"SRDAFCK1";

/// File name a fit writes inside its configured checkpoint directory.
pub const FIT_CHECKPOINT_FILE: &str = "srda-fit.ckpt";

/// Identity of the fit a checkpoint belongs to. Resuming against data or
/// a configuration that differs in any field is refused — silently mixing
/// trajectories from two different problems would corrupt the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitFingerprint {
    /// Training samples `m`.
    pub nrows: u64,
    /// Raw feature count `n` (before bias augmentation).
    pub ncols: u64,
    /// Response columns `c − 1`.
    pub n_responses: u64,
    /// Bit pattern of the ridge parameter `α`.
    pub alpha_bits: u64,
    /// Per-response LSQR iteration cap.
    pub max_iter: u64,
    /// Bit pattern of the LSQR stopping tolerance.
    pub tol_bits: u64,
    /// CRC-32 over the label vector (little-endian `u64`s).
    pub labels_crc: u32,
}

impl FitFingerprint {
    /// Fingerprint the fit of `m × n` data with labels `y` under the
    /// given LSQR configuration.
    pub fn new(
        nrows: usize,
        ncols: usize,
        n_responses: usize,
        alpha: f64,
        max_iter: usize,
        tol: f64,
        y: &[usize],
    ) -> Self {
        let mut label_bytes = Vec::with_capacity(y.len() * 8);
        for &label in y {
            label_bytes.extend_from_slice(&(label as u64).to_le_bytes());
        }
        FitFingerprint {
            nrows: nrows as u64,
            ncols: ncols as u64,
            n_responses: n_responses as u64,
            alpha_bits: alpha.to_bits(),
            max_iter: max_iter as u64,
            tol_bits: tol.to_bits(),
            labels_crc: crc32(&label_bytes),
        }
    }

    /// The ridge parameter the checkpointed fit was configured with.
    pub fn alpha(&self) -> f64 {
        f64::from_bits(self.alpha_bits)
    }

    /// The stopping tolerance the checkpointed fit was configured with.
    pub fn tol(&self) -> f64 {
        f64::from_bits(self.tol_bits)
    }

    /// Verify this (persisted) fingerprint matches the current problem.
    pub fn ensure_matches(&self, current: &FitFingerprint) -> Result<(), CheckpointError> {
        if self == current {
            return Ok(());
        }
        let what = if (self.nrows, self.ncols) != (current.nrows, current.ncols) {
            format!(
                "data shape changed: checkpoint {}x{}, current {}x{}",
                self.nrows, self.ncols, current.nrows, current.ncols
            )
        } else if self.labels_crc != current.labels_crc {
            "label vector changed since the checkpoint was written".to_string()
        } else if self.n_responses != current.n_responses {
            format!(
                "response count changed: checkpoint {}, current {}",
                self.n_responses, current.n_responses
            )
        } else {
            format!(
                "fit configuration changed: checkpoint (alpha {}, max_iter {}, tol {}), \
                 current (alpha {}, max_iter {}, tol {})",
                self.alpha(),
                self.max_iter,
                self.tol(),
                current.alpha(),
                current.max_iter,
                current.tol()
            )
        };
        Err(CheckpointError::Mismatch(what))
    }
}

/// The resumable state of an interrupted SRDA fit.
#[derive(Debug, Clone, PartialEq)]
pub struct FitCheckpoint {
    /// Which fit this state belongs to.
    pub fingerprint: FitFingerprint,
    /// The response columns of every finished panel, in order (responses
    /// `0..len`); `len` is always a panel boundary.
    pub completed: Vec<CompletedResponse>,
    /// One entry per column of the panel that starts at response
    /// `completed.len()`, when the interrupt landed inside it; empty when
    /// it landed before the panel started.
    pub panel: Vec<PanelColumn>,
    /// Warnings accumulated before the interrupt, so the resumed fit's
    /// report matches the uninterrupted run's exactly.
    pub warnings: Vec<String>,
}

// ---------------------------------------------------------------------------
// binary encoding: a `srda_sparse::frame` record tagged SRDAFCK2
// ---------------------------------------------------------------------------

fn stop_code(stop: StopReason) -> u8 {
    match stop {
        StopReason::TrivialSolution => 0,
        StopReason::Converged => 1,
        StopReason::MaxIterations => 2,
        StopReason::Diverged => 3,
        StopReason::Stagnated => 4,
        // interrupted responses are not "completed"; their state is a
        // running panel column. Encoding one would be a bug upstream.
        StopReason::Interrupted(_) => {
            unreachable!("interrupted responses must not be recorded as completed")
        }
    }
}

fn decode_stop(code: u8) -> Result<StopReason, CheckpointError> {
    Ok(match code {
        0 => StopReason::TrivialSolution,
        1 => StopReason::Converged,
        2 => StopReason::MaxIterations,
        3 => StopReason::Diverged,
        4 => StopReason::Stagnated,
        other => {
            return Err(CheckpointError::Corrupt(format!(
                "unknown stop-reason code {other}"
            )))
        }
    })
}

fn write_completed(w: &mut Writer, c: &CompletedResponse) {
    w.f64s(&c.x);
    w.u64(c.iterations as u64);
    w.u8(stop_code(c.stop));
    w.f64(c.residual_norm);
}

fn read_completed(r: &mut Reader) -> Result<CompletedResponse, CheckpointError> {
    Ok(CompletedResponse {
        x: r.f64s()?,
        iterations: r.usize()?,
        stop: decode_stop(r.u8()?)?,
        residual_norm: r.f64()?,
    })
}

impl FitCheckpoint {
    /// Serialize to the sealed `SRDAFCK2` byte format: the fingerprint,
    /// the completed columns, then the interrupted panel's columns, each
    /// tagged 0 (finished: `x`, iterations, stop code, residual) or 1
    /// (running: a
    /// nested `SRDACKP1` LSQR checkpoint), then the warnings.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(FIT_CHECKPOINT_MAGIC);
        let fp = &self.fingerprint;
        w.u64(fp.nrows);
        w.u64(fp.ncols);
        w.u64(fp.n_responses);
        w.u64(fp.alpha_bits);
        w.u64(fp.max_iter);
        w.u64(fp.tol_bits);
        w.u32(fp.labels_crc);
        w.u64(self.completed.len() as u64);
        for c in &self.completed {
            write_completed(&mut w, c);
        }
        w.u64(self.panel.len() as u64);
        for col in &self.panel {
            match col {
                PanelColumn::Done(c) => {
                    w.u8(0);
                    write_completed(&mut w, c);
                }
                PanelColumn::Running(ckpt) => {
                    w.u8(1);
                    w.bytes(&ckpt.to_bytes());
                }
            }
        }
        w.u64(self.warnings.len() as u64);
        for warning in &self.warnings {
            w.bytes(warning.as_bytes());
        }
        w.finish()
    }

    /// Parse and CRC-verify the sealed byte format. A version-1
    /// (`SRDAFCK1`) checkpoint is refused with
    /// [`CheckpointError::Mismatch`]: its single in-flight response does
    /// not describe a lockstep panel.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.starts_with(FIT_CHECKPOINT_MAGIC_V1) {
            return Err(CheckpointError::Mismatch(
                "SRDAFCK1 checkpoint from an earlier version: fits now resume \
                 from SRDAFCK2 panel checkpoints; rerun the fit"
                    .into(),
            ));
        }
        let mut r = Reader::open(bytes, FIT_CHECKPOINT_MAGIC)?;
        let fingerprint = FitFingerprint {
            nrows: r.u64()?,
            ncols: r.u64()?,
            n_responses: r.u64()?,
            alpha_bits: r.u64()?,
            max_iter: r.u64()?,
            tol_bits: r.u64()?,
            labels_crc: r.u32()?,
        };
        // every entry takes at least 17 bytes, so a count the record
        // cannot hold fails on its first missing entry
        let n_completed = r.usize()?;
        let mut completed = Vec::with_capacity(n_completed.min(1024));
        for _ in 0..n_completed {
            completed.push(read_completed(&mut r)?);
        }
        let n_panel = r.usize()?;
        let mut panel = Vec::with_capacity(n_panel.min(1024));
        for _ in 0..n_panel {
            panel.push(match r.u8()? {
                0 => PanelColumn::Done(read_completed(&mut r)?),
                1 => PanelColumn::Running(LsqrCheckpoint::from_bytes(r.bytes()?)?),
                other => {
                    return Err(CheckpointError::Corrupt(format!(
                        "bad panel column marker {other}"
                    )))
                }
            });
        }
        let n_warn = r.usize()?;
        let mut warnings = Vec::with_capacity(n_warn.min(1024));
        for _ in 0..n_warn {
            warnings.push(r.str()?);
        }
        r.finish()?;
        Ok(FitCheckpoint {
            fingerprint,
            completed,
            panel,
            warnings,
        })
    }

    /// Write to `path` atomically with [`frame::write_atomic`]: readers
    /// only ever observe a complete, CRC-valid checkpoint.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        frame::write_atomic(path, &self.to_bytes())
            .map_err(|e| CheckpointError::Io(format!("writing {}: {e}", path.display())))
    }

    /// Read and verify a checkpoint file.
    pub fn read(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("reading {}: {e}", path.display())))?;
        FitCheckpoint::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srda_solvers::checkpoint::ProblemFingerprint;

    fn sample() -> FitCheckpoint {
        let fp = FitFingerprint::new(20, 5, 2, 1.0, 30, 1e-8, &[0, 0, 1, 1, 2]);
        let solver_fp = ProblemFingerprint::new(20, 6, 1.0, 1e-8, 30, &[1.0, -2.0, 0.5]);
        FitCheckpoint {
            fingerprint: fp,
            completed: vec![CompletedResponse {
                x: vec![1.0, -0.0, 3.5e-12, f64::MAX, 2.0, -7.0],
                iterations: 17,
                stop: StopReason::Converged,
                residual_norm: 0.125,
            }],
            panel: vec![PanelColumn::Running(LsqrCheckpoint {
                fingerprint: solver_fp,
                iteration: 9,
                x: vec![0.25; 6],
                w: vec![-1.5; 6],
                u: vec![0.125; 20],
                v: vec![2.0; 6],
                alpha: 0.75,
                phibar: -0.5,
                rhobar: 1.25,
                anorm_sq: 42.0,
                b_norm: 3.0,
                best_res: 0.01,
                no_improve: 2,
                residual_trace: vec![1.0, 0.5, 0.1],
            })],
            warnings: vec!["response 0: LSQR stagnated after 17 iterations".into()],
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let c = sample();
        let back = FitCheckpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(c, back);
        // -0.0 must survive with its sign bit
        assert_eq!(back.completed[0].x[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let c = FitCheckpoint {
            fingerprint: FitFingerprint::new(3, 2, 1, 0.5, 10, 0.0, &[0, 1, 1]),
            completed: vec![],
            panel: vec![],
            warnings: vec![],
        };
        assert_eq!(FitCheckpoint::from_bytes(&c.to_bytes()).unwrap(), c);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            FitCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
        let good = sample().to_bytes();
        assert!(FitCheckpoint::from_bytes(&good[..good.len() - 1]).is_err());
        assert!(FitCheckpoint::from_bytes(b"SRDACKP1nope").is_err());
    }

    #[test]
    fn fingerprint_mismatch_names_the_difference() {
        let a = FitFingerprint::new(20, 5, 2, 1.0, 30, 0.0, &[0, 1]);
        let shape = FitFingerprint::new(21, 5, 2, 1.0, 30, 0.0, &[0, 1]);
        let labels = FitFingerprint::new(20, 5, 2, 1.0, 30, 0.0, &[1, 0]);
        let config = FitFingerprint::new(20, 5, 2, 2.0, 30, 0.0, &[0, 1]);
        assert!(a.ensure_matches(&a).is_ok());
        let msg = |e: CheckpointError| e.to_string();
        assert!(msg(a.ensure_matches(&shape).unwrap_err()).contains("shape"));
        assert!(msg(a.ensure_matches(&labels).unwrap_err()).contains("label"));
        assert!(msg(a.ensure_matches(&config).unwrap_err()).contains("configuration"));
    }

    #[test]
    fn atomic_write_and_read() {
        let dir = std::env::temp_dir().join("srda_fit_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fit.ckpt");
        let c = sample();
        c.write_atomic(&path).unwrap();
        assert_eq!(FitCheckpoint::read(&path).unwrap(), c);
        // overwrite must also be atomic and leave no temp litter
        c.write_atomic(&path).unwrap();
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains("tmp")
            })
            .collect();
        assert!(litter.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_accessors_recover_floats() {
        let fp = FitFingerprint::new(8, 3, 1, 0.125, 50, 1e-10, &[0, 1]);
        assert_eq!(fp.alpha(), 0.125);
        assert_eq!(fp.tol(), 1e-10);
        assert_eq!(fp.max_iter, 50);
    }
}
