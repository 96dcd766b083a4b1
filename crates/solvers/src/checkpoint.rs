//! Serializable solver checkpoints: the full running state of an LSQR
//! solve, CRC-guarded on disk and written atomically through
//! [`srda_sparse::frame`].
//!
//! ## Why the whole bidiagonalization state
//!
//! LSQR's iterate `x_k` alone is *not* enough to resume a run: restarting
//! from `x_k` (a warm start) builds a fresh Krylov space and follows a
//! different — if eventually convergent — trajectory. The governor's
//! contract is stronger: a resumed run must be **bitwise identical** to an
//! uninterrupted one. That requires every quantity the next iteration
//! reads: the Golub-Kahan vectors `u`, `v`, the search direction `w`, the
//! iterate `x`, the scalar recurrences (`alpha`, `phibar`, `rhobar`,
//! `anorm_sq`), the stopping-rule state (`b_norm`, `best_res`,
//! `no_improve`) and the residual trace. All of it is captured here, and
//! nothing else is needed.
//!
//! ## File format (`SRDACKP1`)
//!
//! A [`srda_sparse::frame`] record:
//!
//! ```text
//! magic      8 bytes  b"SRDACKP1"
//! kind       1 byte   1 = LSQR (2, a retired CGLS record, is refused)
//! payload    ...      the fields in to_bytes() order
//! crc32      4 bytes  CRC-32/IEEE of magic+kind+payload
//! ```
//!
//! Floats are stored as their raw bits, so a round trip is exact —
//! including negative zeros and the signs the LSQR rotations propagate
//! through `phibar`/`rhobar`.

use srda_sparse::crc32::Crc32;
use srda_sparse::frame::{self, FrameError, Reader, Writer};
use std::path::Path;

/// Magic prefix of every checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"SRDACKP1";

const KIND_LSQR: u8 = 1;

/// What went wrong reading or writing a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem-level failure (message carries the OS error).
    Io(String),
    /// The bytes are not a valid checkpoint: bad magic, truncation, or a
    /// CRC mismatch.
    Corrupt(String),
    /// The checkpoint is valid but belongs to a different problem
    /// (dimensions, config, or right-hand side differ).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(m) => write!(f, "checkpoint I/O error: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Identity of the problem a checkpoint belongs to. Resuming against a
/// different operator shape, solver config, or right-hand side would
/// silently produce garbage; the fingerprint turns that into a typed
/// [`CheckpointError::Mismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProblemFingerprint {
    /// Operator rows.
    pub nrows: u64,
    /// Operator columns.
    pub ncols: u64,
    /// Raw bits of the damping parameter (bit-exact comparison).
    pub damp_bits: u64,
    /// Raw bits of the tolerance.
    pub tol_bits: u64,
    /// The iteration cap the run was started with.
    pub max_iter: u64,
    /// CRC-32 of the right-hand side bytes (little-endian f64s).
    pub rhs_crc: u32,
}

impl ProblemFingerprint {
    /// Fingerprint for a problem of shape `nrows × ncols` with the given
    /// solver knobs and right-hand side.
    pub fn new(
        nrows: usize,
        ncols: usize,
        damp: f64,
        tol: f64,
        max_iter: usize,
        b: &[f64],
    ) -> Self {
        let mut crc = Crc32::new();
        for v in b {
            crc.update(&v.to_le_bytes());
        }
        ProblemFingerprint {
            nrows: nrows as u64,
            ncols: ncols as u64,
            damp_bits: damp.to_bits(),
            tol_bits: tol.to_bits(),
            max_iter: max_iter as u64,
            rhs_crc: crc.finish(),
        }
    }

    /// Check this fingerprint against the problem about to be resumed.
    pub fn ensure_matches(&self, current: &ProblemFingerprint) -> Result<(), CheckpointError> {
        if self == current {
            return Ok(());
        }
        let what = if (self.nrows, self.ncols) != (current.nrows, current.ncols) {
            format!(
                "operator shape {}×{} differs from checkpointed {}×{}",
                current.nrows, current.ncols, self.nrows, self.ncols
            )
        } else if self.rhs_crc != current.rhs_crc {
            "right-hand side differs from the checkpointed run".to_string()
        } else {
            "solver configuration (damp/tol/max_iter) differs from the checkpointed run".to_string()
        };
        Err(CheckpointError::Mismatch(what))
    }
}

/// The complete mid-run state of an LSQR solve (see the module docs for
/// why every field is required).
#[derive(Debug, Clone, PartialEq)]
pub struct LsqrCheckpoint {
    /// Which problem this state belongs to.
    pub fingerprint: ProblemFingerprint,
    /// Iterations completed when the snapshot was taken.
    pub iteration: usize,
    /// Current iterate.
    pub x: Vec<f64>,
    /// Search direction.
    pub w: Vec<f64>,
    /// Left Golub-Kahan vector (length `nrows`).
    pub u: Vec<f64>,
    /// Right Golub-Kahan vector (length `ncols`).
    pub v: Vec<f64>,
    /// Bidiagonalization scalar α.
    pub alpha: f64,
    /// Rotated residual estimate φ̄ (sign-carrying).
    pub phibar: f64,
    /// Rotated diagonal ρ̄ (sign-carrying).
    pub rhobar: f64,
    /// Running ‖A‖² estimate for the second stopping rule.
    pub anorm_sq: f64,
    /// ‖b‖ at the start of the run.
    pub b_norm: f64,
    /// Best damped residual seen (stagnation detector).
    pub best_res: f64,
    /// Consecutive no-improvement iterations (stagnation detector).
    pub no_improve: usize,
    /// Damped-residual trace up to `iteration`.
    pub residual_trace: Vec<f64>,
}

// ---------------------------------------------------------------------------
// binary encoding: a `srda_sparse::frame` record tagged SRDACKP1
// ---------------------------------------------------------------------------

impl From<FrameError> for CheckpointError {
    fn from(e: FrameError) -> Self {
        CheckpointError::Corrupt(e.0)
    }
}

fn enc_fingerprint(w: &mut Writer, fp: &ProblemFingerprint) {
    w.u64(fp.nrows);
    w.u64(fp.ncols);
    w.u64(fp.damp_bits);
    w.u64(fp.tol_bits);
    w.u64(fp.max_iter);
    w.u32(fp.rhs_crc);
}

fn dec_fingerprint(r: &mut Reader) -> Result<ProblemFingerprint, CheckpointError> {
    Ok(ProblemFingerprint {
        nrows: r.u64()?,
        ncols: r.u64()?,
        damp_bits: r.u64()?,
        tol_bits: r.u64()?,
        max_iter: r.u64()?,
        rhs_crc: r.u32()?,
    })
}

impl LsqrCheckpoint {
    /// Serialize to the `SRDACKP1` byte format (CRC appended).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(CHECKPOINT_MAGIC);
        w.u8(KIND_LSQR);
        enc_fingerprint(&mut w, &self.fingerprint);
        w.u64(self.iteration as u64);
        w.f64s(&self.x);
        w.f64s(&self.w);
        w.f64s(&self.u);
        w.f64s(&self.v);
        w.f64(self.alpha);
        w.f64(self.phibar);
        w.f64(self.rhobar);
        w.f64(self.anorm_sq);
        w.f64(self.b_norm);
        w.f64(self.best_res);
        w.u64(self.no_improve as u64);
        w.f64s(&self.residual_trace);
        w.finish()
    }

    /// Parse bytes produced by [`LsqrCheckpoint::to_bytes`]: magic and
    /// CRC are verified, and a record of any other kind is a
    /// [`CheckpointError::Mismatch`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(bytes, CHECKPOINT_MAGIC)?;
        let kind = r.u8()?;
        if kind != KIND_LSQR {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint kind {kind} is not an LSQR checkpoint"
            )));
        }
        let ckpt = LsqrCheckpoint {
            fingerprint: dec_fingerprint(&mut r)?,
            iteration: r.usize()?,
            x: r.f64s()?,
            w: r.f64s()?,
            u: r.f64s()?,
            v: r.f64s()?,
            alpha: r.f64()?,
            phibar: r.f64()?,
            rhobar: r.f64()?,
            anorm_sq: r.f64()?,
            b_norm: r.f64()?,
            best_res: r.f64()?,
            no_improve: r.usize()?,
            residual_trace: r.f64s()?,
        };
        r.finish()?;
        Ok(ckpt)
    }

    /// Write atomically to `path` with [`frame::write_atomic`].
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        frame::write_atomic(path, &self.to_bytes())
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))
    }

    /// Read and validate a checkpoint file.
    pub fn read(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fp() -> ProblemFingerprint {
        ProblemFingerprint::new(
            7,
            4,
            0.5f64.sqrt(),
            1e-10,
            20,
            &[1.0, -2.5, 0.0, 3.25, -0.0, 9.0, 1e-300],
        )
    }

    fn sample_lsqr() -> LsqrCheckpoint {
        LsqrCheckpoint {
            fingerprint: sample_fp(),
            iteration: 3,
            x: vec![1.5, -2.25, 0.0, -0.0],
            w: vec![0.125, 3.0, -1.0, 2.0],
            u: vec![0.1; 7],
            v: vec![-0.5, 0.25, 0.75, 1.0],
            alpha: 1.75,
            phibar: -0.001953125,
            rhobar: -2.5,
            anorm_sq: 42.0,
            b_norm: 9.5,
            best_res: 0.25,
            no_improve: 2,
            residual_trace: vec![3.0, 1.0, 0.25],
        }
    }

    #[test]
    fn lsqr_roundtrip_is_exact() {
        let ckpt = sample_lsqr();
        let back = LsqrCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back, ckpt);
        // sign of zero survives (PartialEq on f64 can't see it)
        assert_eq!(back.x[3].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut bytes = sample_lsqr().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        match LsqrCheckpoint::from_bytes(&bytes) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_lsqr().to_bytes();
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                LsqrCheckpoint::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} undetected"
            );
        }
    }

    #[test]
    fn wrong_kind_is_mismatch() {
        // A well-formed record of kind 2: right magic and CRC, refused on
        // the kind byte alone.
        let mut w = Writer::new(CHECKPOINT_MAGIC);
        w.u8(2);
        enc_fingerprint(&mut w, &sample_fp());
        match LsqrCheckpoint::from_bytes(&w.finish()) {
            Err(CheckpointError::Mismatch(_)) => {}
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_lsqr().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            LsqrCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn fingerprint_mismatch_reports_what_differs() {
        let fp = sample_fp();
        let mut other = fp;
        other.nrows = 99;
        let err = fp.ensure_matches(&other).unwrap_err();
        assert!(matches!(&err, CheckpointError::Mismatch(m) if m.contains("shape")));
        let mut other = fp;
        other.rhs_crc ^= 1;
        let err = fp.ensure_matches(&other).unwrap_err();
        assert!(matches!(&err, CheckpointError::Mismatch(m) if m.contains("right-hand side")));
        let mut other = fp;
        other.damp_bits ^= 1;
        let err = fp.ensure_matches(&other).unwrap_err();
        assert!(matches!(&err, CheckpointError::Mismatch(m) if m.contains("configuration")));
        assert!(fp.ensure_matches(&fp).is_ok());
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("srda-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("solve.ckpt");
        let ckpt = sample_lsqr();
        ckpt.write_atomic(&path).unwrap();
        let back = LsqrCheckpoint::read(&path).unwrap();
        assert_eq!(back, ckpt);
        // overwrite in place (the rename path, not create)
        let mut ckpt2 = ckpt.clone();
        ckpt2.iteration = 9;
        ckpt2.write_atomic(&path).unwrap();
        assert_eq!(LsqrCheckpoint::read(&path).unwrap().iteration, 9);
        // no tmp litter
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_missing_file_is_io_error() {
        let path = Path::new("/nonexistent-dir-srda/x.ckpt");
        assert!(matches!(
            LsqrCheckpoint::read(path),
            Err(CheckpointError::Io(_))
        ));
    }
}
