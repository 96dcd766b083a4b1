//! Persistence round-trips across crates: trained models survive the CLI
//! model file (`SRDAMDL1`) and sparse matrices survive the out-of-core
//! `SRDACSR2` file intact and keep producing identical predictions; the
//! checkpoint formats (`SRDACKP1`, `SRDAFCK2`) keep their exact bytes and
//! reject every corruption, and a version-1 `SRDAFCK1` fit checkpoint and
//! a kind-2 (CGLS) `SRDACKP1` record are refused with a typed error.

use srda::{Embedding, Srda, SrdaConfig};
use srda_cli::model_file::{SavedModel, FORMAT_VERSION, MODEL_MAGIC};
use srda_data::{mnist_like, per_class_split};
use srda_sparse::DiskCsr;

/// A model file holding `emb` (two classes, centroids at the origin).
fn saved(emb: &Embedding) -> SavedModel {
    SavedModel {
        version: FORMAT_VERSION,
        n_classes: 2,
        alpha: 1.0,
        embedding: emb.clone(),
        centroids: srda_linalg::Mat::zeros(2, emb.n_components()),
    }
}

#[test]
fn trained_embedding_roundtrips_through_the_model_file() {
    let data = mnist_like(0.05, 1);
    let sp = per_class_split(&data.labels, 8, 0);
    let tr = data.select(&sp.train);
    let model = Srda::new(SrdaConfig::default())
        .fit_dense(&tr.x, &tr.labels)
        .unwrap();
    let emb = model.embedding();

    let back = SavedModel::from_bytes(&saved(emb).to_bytes()).unwrap();
    assert_eq!(emb, &back.embedding);

    // identical behaviour after the round-trip
    let z1 = emb.transform_dense(&tr.x).unwrap();
    let z2 = back.embedding.transform_dense(&tr.x).unwrap();
    assert!(z1.approx_eq(&z2, 0.0));
}

#[test]
fn sparse_matrix_roundtrips_through_disk_csr() {
    let data = srda_data::newsgroups_like(0.01, 2);
    let dir = std::env::temp_dir().join(format!("srda_serialization_csr_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("x.srdacsr");
    srda_sparse::disk::write_csr(&path, &data.x).unwrap();
    let back = DiskCsr::open(&path).unwrap().to_csr().unwrap();
    assert_eq!(data.x, back);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_file_bytes_are_deterministic() {
    // the CLI's kill-and-resume smoke compares model files with `cmp`, so
    // equal models must encode to equal bytes, raw float bits included
    let emb = Embedding::new(srda_linalg::Mat::identity(2), vec![0.5, -0.0]).unwrap();
    let bytes = saved(&emb).to_bytes();
    assert_eq!(&bytes[..8], MODEL_MAGIC);
    assert_eq!(bytes, saved(&emb.clone()).to_bytes());
    let back = SavedModel::from_bytes(&bytes).unwrap();
    assert_eq!(back.embedding.bias()[1].to_bits(), (-0.0f64).to_bits());
    assert_eq!(back.to_bytes(), bytes);
}

#[test]
fn model_persistence_workflow() {
    // the README's suggested save/load workflow: train, save to a file,
    // load in a "new process", predict
    let dir = std::env::temp_dir().join(format!("srda_serialization_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.srda");

    let data = mnist_like(0.05, 3);
    let sp = per_class_split(&data.labels, 8, 0);
    let tr = data.select(&sp.train);
    let te = data.select(&sp.test);
    let model = Srda::new(SrdaConfig::default())
        .fit_dense(&tr.x, &tr.labels)
        .unwrap();
    saved(model.embedding()).save(&path).unwrap();

    let loaded = SavedModel::load(&path).unwrap();
    let z1 = model.embedding().transform_dense(&te.x).unwrap();
    let z2 = loaded.embedding.transform_dense(&te.x).unwrap();
    assert!(z1.approx_eq(&z2, 0.0));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// checkpoint corruption: the binary `SRDACKP1` (solver state) and
// `SRDAFCK2` (fit state) formats are CRC-32 sealed, so *every* single-bit
// flip anywhere in the file — magic, kind tag, payload, or the CRC
// trailer itself — must be rejected with a typed error, never parsed
// into silently-wrong resume state.
// ---------------------------------------------------------------------------

use srda::{CompletedResponse, FitCheckpoint, FitFingerprint, PanelColumn};
use srda_solvers::{LsqrCheckpoint, ProblemFingerprint, StopReason};

/// A small but fully-populated LSQR checkpoint (every field non-trivial,
/// so flips in any region hit live data).
fn sample_lsqr_checkpoint() -> LsqrCheckpoint {
    let b = vec![1.0, -2.0, 3.5, 0.25];
    LsqrCheckpoint {
        fingerprint: ProblemFingerprint::new(4, 3, 0.5, 1e-8, 20, &b),
        iteration: 7,
        x: vec![0.1, -0.2, 0.3],
        w: vec![1.5, 2.5, -3.5],
        u: vec![0.4, 0.3, 0.2, 0.1],
        v: vec![-1.0, 0.0, 1.0],
        alpha: 1.25,
        phibar: -0.75,
        rhobar: 2.0,
        anorm_sq: 42.0,
        b_norm: 4.25,
        best_res: 0.125,
        no_improve: 2,
        residual_trace: vec![1.0, 0.5, 0.25, 0.2, 0.19, 0.15, 0.125],
    }
}

fn sample_fit_checkpoint() -> FitCheckpoint {
    let y = vec![0usize, 0, 1, 1, 2, 2];
    FitCheckpoint {
        fingerprint: FitFingerprint::new(6, 3, 2, 1.0, 15, 1e-10, &y),
        completed: vec![CompletedResponse {
            x: vec![0.25, -0.5, 0.75, 0.125],
            iterations: 9,
            stop: StopReason::Converged,
            residual_norm: 0.375,
        }],
        panel: vec![
            PanelColumn::Done(CompletedResponse {
                x: vec![-1.25, 0.5, 2.0, -0.0],
                iterations: 4,
                stop: StopReason::Stagnated,
                residual_norm: 1.5,
            }),
            PanelColumn::Running(sample_lsqr_checkpoint()),
        ],
        warnings: vec!["response 0: solution near breakdown".to_string()],
    }
}

/// Flip every bit of `bytes` in turn and assert `parse` rejects each
/// corrupted copy (and accepts the original).
fn assert_every_bit_flip_rejected<T>(
    bytes: &[u8],
    parse: impl Fn(&[u8]) -> Result<T, srda::CheckpointError>,
) {
    assert!(parse(bytes).is_ok(), "pristine bytes must parse");
    let mut corrupt = bytes.to_vec();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            corrupt[byte] ^= 1 << bit;
            assert!(
                parse(&corrupt).is_err(),
                "bit flip at byte {byte} bit {bit} was not detected \
                 ({} bytes total)",
                bytes.len()
            );
            corrupt[byte] ^= 1 << bit; // restore
        }
    }
    assert_eq!(corrupt, bytes, "harness must leave the buffer pristine");
}

#[test]
fn lsqr_checkpoint_rejects_every_single_bit_flip() {
    let ckpt = sample_lsqr_checkpoint();
    let bytes = ckpt.to_bytes();
    assert_eq!(&bytes[..8], b"SRDACKP1");
    assert_eq!(LsqrCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
    assert_every_bit_flip_rejected(&bytes, LsqrCheckpoint::from_bytes);
}

#[test]
fn fit_checkpoint_rejects_every_single_bit_flip() {
    let ckpt = sample_fit_checkpoint();
    let bytes = ckpt.to_bytes();
    assert_eq!(&bytes[..8], b"SRDAFCK2");
    assert_eq!(FitCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
    assert_every_bit_flip_rejected(&bytes, FitCheckpoint::from_bytes);
}

#[test]
fn truncated_checkpoints_are_rejected() {
    // every strict prefix fails too — a torn write can drop a tail, not
    // just flip bits
    let bytes = sample_fit_checkpoint().to_bytes();
    for len in 0..bytes.len() {
        assert!(
            FitCheckpoint::from_bytes(&bytes[..len]).is_err(),
            "prefix of {len} bytes parsed"
        );
    }
    let bytes = sample_lsqr_checkpoint().to_bytes();
    for len in 0..bytes.len() {
        assert!(
            LsqrCheckpoint::from_bytes(&bytes[..len]).is_err(),
            "prefix of {len} bytes parsed"
        );
    }
}

// ---------------------------------------------------------------------------
// fixed bytes: the checkpoint formats are on-disk contracts (a checkpoint
// written by one build must resume in the next), so small fixtures are
// pinned to their exact bytes: SRDACKP1 to what the original hand-rolled
// encoders produced, SRDAFCK2 to what its encoder produced when the panel
// layout replaced SRDAFCK1.
// ---------------------------------------------------------------------------

fn tiny_lsqr() -> LsqrCheckpoint {
    LsqrCheckpoint {
        fingerprint: ProblemFingerprint::new(2, 2, 0.5, 1e-8, 10, &[1.0, -2.0]),
        iteration: 3,
        x: vec![0.5, -0.0],
        w: vec![1.25],
        u: vec![-0.75, 2.0],
        v: vec![3.0],
        alpha: 1.5,
        phibar: -0.25,
        rhobar: 2.5,
        anorm_sq: 7.0,
        b_norm: 2.25,
        best_res: 0.125,
        no_improve: 1,
        residual_trace: vec![1.0, 0.5],
    }
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let lsqr = tiny_lsqr();
    let fit = FitCheckpoint {
        fingerprint: FitFingerprint::new(4, 1, 2, 1.0, 10, 1e-8, &[0, 1, 2, 0]),
        completed: vec![CompletedResponse {
            x: vec![0.75, -2.0],
            iterations: 10,
            stop: StopReason::MaxIterations,
            residual_norm: 0.5,
        }],
        panel: vec![PanelColumn::Running(tiny_lsqr())],
        warnings: vec!["w".to_string()],
    };
    let lsqr_bytes = unhex(LSQR_HEX);
    let fit_bytes = unhex(FIT_HEX);
    assert_eq!(lsqr.to_bytes(), lsqr_bytes);
    assert_eq!(fit.to_bytes(), fit_bytes);
    // and the pinned bytes still decode to the fixtures
    assert_eq!(LsqrCheckpoint::from_bytes(&lsqr_bytes).unwrap(), lsqr);
    assert_eq!(FitCheckpoint::from_bytes(&fit_bytes).unwrap(), fit);
}

const LSQR_HEX: &str = concat!(
    "53524441434b50310102000000000000000200000000000000000000000000e0",
    "3f3a8c30e28e79453e0a000000000000007f0a1b960300000000000000020000",
    "0000000000000000000000e03f00000000000000800100000000000000000000",
    "000000f43f0200000000000000000000000000e8bf0000000000000040010000",
    "00000000000000000000000840000000000000f83f000000000000d0bf000000",
    "00000004400000000000001c400000000000000240000000000000c03f010000",
    "00000000000200000000000000000000000000f03f000000000000e03f06a9f0",
    "b2",
);

/// A kind-2 `SRDACKP1` record, a CGLS solver state as the retired CGLS
/// encoder wrote it: valid magic and CRC, refused on its kind byte.
const CGLS_HEX: &str = concat!(
    "53524441434b503102020000000000000001000000000000009a9999999999b9",
    "3f000000000000000005000000000000006b179ffd0200000000000000010000",
    "0000000000000000000000f8bf0200000000000000000000000000d03f000000",
    "000000008001000000000000000000000000000040000000000000b03f000000",
    "0000003040c86f323c",
);

const FIT_HEX: &str = concat!(
    "5352444146434b32040000000000000001000000000000000200000000000000",
    "000000000000f03f0a000000000000003a8c30e28e79453ee9158f1f01000000",
    "000000000200000000000000000000000000e83f00000000000000c00a000000",
    "0000000002000000000000e03f010000000000000001e1000000000000005352",
    "4441434b50310102000000000000000200000000000000000000000000e03f3a",
    "8c30e28e79453e0a000000000000007f0a1b9603000000000000000200000000",
    "000000000000000000e03f000000000000008001000000000000000000000000",
    "00f43f0200000000000000000000000000e8bf00000000000000400100000000",
    "0000000000000000000840000000000000f83f000000000000d0bf0000000000",
    "0004400000000000001c400000000000000240000000000000c03f0100000000",
    "0000000200000000000000000000000000f03f000000000000e03f06a9f0b201",
    "00000000000000010000000000000077e4a19977",
);

/// An `SRDAFCK1` fit checkpoint (one completed response, one in flight)
/// as the version-1 encoder wrote it; the panel layout refuses it.
const FIT_V1_HEX: &str = concat!(
    "5352444146434b31040000000000000001000000000000000200000000000000",
    "000000000000f03f0a000000000000003a8c30e28e79453ee9158f1f01000000",
    "000000000200000000000000000000000000e83f00000000000000c00a000000",
    "000000000201e10000000000000053524441434b503101020000000000000002",
    "00000000000000000000000000e03f3a8c30e28e79453e0a000000000000007f",
    "0a1b9603000000000000000200000000000000000000000000e03f0000000000",
    "0000800100000000000000000000000000f43f02000000000000000000000000",
    "00e8bf0000000000000040010000000000000000000000000008400000000000",
    "00f83f000000000000d0bf00000000000004400000000000001c400000000000",
    "000240000000000000c03f010000000000000002000000000000000000000000",
    "00f03f000000000000e03f06a9f0b20100000000000000010000000000000077",
    "027ccac6",
);

#[test]
fn version_1_fit_checkpoints_are_rejected_with_a_typed_error() {
    let err = FitCheckpoint::from_bytes(&unhex(FIT_V1_HEX)).unwrap_err();
    assert!(
        matches!(err, srda::CheckpointError::Mismatch(ref m) if m.contains("SRDAFCK1")),
        "{err}"
    );
}

#[test]
fn cgls_checkpoints_are_refused_with_a_typed_error() {
    let err = LsqrCheckpoint::from_bytes(&unhex(CGLS_HEX)).unwrap_err();
    assert!(
        matches!(err, srda::CheckpointError::Mismatch(ref m) if m.contains("kind 2")),
        "{err}"
    );
}
