//! Bit pins on the ridge fit paths that no golden covered before: clean
//! normal-equation fits (dense primal, dense dual, sparse dual), an
//! incremental warm-started refit, and spectral regression in both modes.
//!
//! Each pin is the `u64` bit pattern of the weights, then the bias, then
//! (for SRDA models) four words per certificate — backward error,
//! condition estimate, refinement steps, verdict — and the fit's condition
//! estimate. A mismatch means the float sequence of that fit changed.
//!
//! The two `*_tiled` pins are dense fits large enough to cross every
//! boundary of the dense product kernels: more than two 256-row packing
//! chunks (and not a whole number of them), a bias-augmented width `n + 1`
//! that is a multiple of neither tile side, and nine responses. Their
//! words are too many to list, so each is pinned as its length and a
//! 64-bit FNV-1a digest of the words' little-endian bytes.
//!
//! The LDA/RLDA pin covers the cross-product SVD on both Gram sides: a
//! tall fixture (`m > n`, eigendecomposes `X̄ᵀX̄`) and a wide one
//! (`m ≤ n`, eigendecomposes `X̄X̄ᵀ`), each fitted by `Lda::default()` and
//! `Rlda::default()`, and each fit pinned as a length and digest.
//!
//! The disk pin is an LSQR fit through [`DiskCsr`], pinned the same way.
//! Its file puts rows across and exactly on the scan's 4,096-entry chunk
//! boundaries and starts and ends with an empty row, and its 39 responses
//! run in lockstep panels of ten and nine columns that shrink as columns
//! converge (the block products see widths 10, 9, 8, 6, 5, 4, 3, 2, 1).
//!
//! To regenerate after an *intentional* numerical change:
//!
//! ```text
//! cargo test --test fit_bits -- --ignored --nocapture
//! ```

use srda::{
    AffinityGraph, CertStatus, Embedding, Lda, Rlda, SpectralRegression, SpectralRegressionConfig,
    Srda, SrdaConfig, SrdaModel,
};
use srda_linalg::Mat;
use srda_sparse::{disk, CooBuilder, CsrMatrix, DiskCsr};

/// Deterministic noise in [-0.5, 0.5).
fn noise(i: usize, j: usize) -> f64 {
    let t = (i as f64 * 12.9898 + j as f64 * 78.233).sin() * 43758.5453;
    t - t.floor() - 0.5
}

/// `classes` classes of `per_class` samples in `dim` dimensions, each
/// class shifted along its own coordinates.
fn blobs(classes: usize, per_class: usize, dim: usize) -> (Mat, Vec<usize>) {
    let m = classes * per_class;
    let y: Vec<usize> = (0..m).map(|i| i / per_class).collect();
    let x = Mat::from_fn(m, dim, |i, d| {
        let shift = if d % classes == y[i] { 3.0 } else { 0.0 };
        shift + noise(i, d)
    });
    (x, y)
}

/// Zero out most entries, so a sparse fit sees a real sparsity pattern.
fn thin(x: &Mat) -> CsrMatrix {
    let t = Mat::from_fn(x.nrows(), x.ncols(), |i, j| {
        if (i * 7 + j * 3) % 5 < 2 {
            x[(i, j)]
        } else {
            0.0
        }
    });
    CsrMatrix::from_dense(&t, 0.0)
}

fn embedding_bits(e: &Embedding) -> Vec<u64> {
    e.weights()
        .as_slice()
        .iter()
        .chain(e.bias())
        .map(|v| v.to_bits())
        .collect()
}

fn model_bits(m: &SrdaModel) -> Vec<u64> {
    let mut out = embedding_bits(m.embedding());
    for c in &m.fit_report().certificates {
        let verdict = match c.certified {
            CertStatus::Certified => 0,
            CertStatus::Refined => 1,
            CertStatus::Suspect => 2,
        };
        out.extend([
            c.backward_error.to_bits(),
            c.cond_estimate.to_bits(),
            c.refinement_steps as u64,
            verdict,
        ]);
    }
    out.extend(m.fit_report().condition_estimate.map(f64::to_bits));
    out
}

fn dense_primal() -> Vec<u64> {
    let (x, y) = blobs(3, 6, 4);
    model_bits(&Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap())
}

fn dense_dual() -> Vec<u64> {
    let (x, y) = blobs(3, 2, 7);
    model_bits(&Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap())
}

/// 610 × 44 primal fit: `X̃ᵀX̃` is 45 × 45, ten classes.
fn dense_primal_tiled() -> Vec<u64> {
    let (x, y) = blobs(10, 61, 44);
    model_bits(&Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap())
}

/// 530 × 600 dual fit: the back-projection `X̃ᵀU` sums over 530 rows.
fn dense_dual_tiled() -> Vec<u64> {
    let (x, y) = blobs(10, 53, 600);
    model_bits(&Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap())
}

/// `Lda::default()` then `Rlda::default()` on a tall 48 × 7 fixture, then
/// both on a wide 12 × 20 one, each as a length and digest.
fn lda_and_rlda() -> Vec<(usize, u64)> {
    [blobs(4, 12, 7), blobs(3, 4, 20)]
        .iter()
        .flat_map(|(x, y)| {
            [
                Lda::default().fit_dense(x, y).unwrap(),
                Rlda::default().fit_dense(x, y).unwrap(),
            ]
        })
        .map(|e| digest(&embedding_bits(&e)))
        .collect()
}

/// Word count and FNV-1a digest of `bits`.
fn digest(bits: &[u64]) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in bits.iter().flat_map(|b| b.to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (bits.len(), h)
}

/// Entries per read of the disk scan (`srda_sparse::disk`).
const DISK_CHUNK: usize = 4096;

/// A short, wide 40-class file: 200 × 1500, empty first and last rows, a
/// row ending exactly on the first chunk boundary and rows straddling the
/// later ones.
fn disk_fixture() -> (CsrMatrix, Vec<usize>) {
    let (classes, m, n) = (40, 200, 1500);
    let y: Vec<usize> = (0..m).map(|i| i / (m / classes)).collect();
    let mut lens: Vec<usize> = (0..m)
        .map(|i| {
            if i == 0 || i == m - 1 {
                0
            } else {
                30 + (i * 37) % 61
            }
        })
        .collect();
    // shorten the row that crosses the first boundary to end on it
    let mut end = 0;
    for len in &mut lens {
        if end < DISK_CHUNK && end + *len > DISK_CHUNK {
            *len = DISK_CHUNK - end;
        }
        end += *len;
    }
    let mut b = CooBuilder::new(m, n);
    for (i, &len) in lens.iter().enumerate() {
        for t in 0..len {
            let j = (i * 131 + t * 53) % n;
            let shift = if j % classes == y[i] { 3.0 } else { 0.0 };
            b.push(i, j, shift + noise(i, j)).unwrap();
        }
    }
    (b.build(), y)
}

/// The 40-class fixture fitted by LSQR through a [`DiskCsr`] file.
fn disk_lsqr() -> Vec<u64> {
    let (x, y) = disk_fixture();
    let path = std::env::temp_dir().join(format!("srda-fit-bits-{}.srdacsr", std::process::id()));
    disk::write_csr(&path, &x).unwrap();
    let op = DiskCsr::open(&path).unwrap();
    let cfg = SrdaConfig {
        solver: srda::SrdaSolver::Lsqr {
            max_iter: 60,
            tol: 1e-4,
        },
        ..SrdaConfig::lsqr_default()
    };
    let model = Srda::new(cfg).fit_operator(&op, &y).unwrap();
    std::fs::remove_file(&path).ok();
    model_bits(&model)
}

#[test]
fn disk_fixture_crosses_the_chunk_boundaries() {
    let (x, _) = disk_fixture();
    let ends: Vec<usize> = (0..x.nrows())
        .scan(0, |end, i| {
            *end += x.row_nnz(i);
            Some(*end)
        })
        .collect();
    assert_eq!(x.row_nnz(0), 0);
    assert_eq!(x.row_nnz(x.nrows() - 1), 0);
    assert!(x.nnz() > 2 * DISK_CHUNK);
    assert!(
        ends.contains(&DISK_CHUNK),
        "a row ends on the first boundary"
    );
    assert!(
        !ends.contains(&(2 * DISK_CHUNK)),
        "a row straddles the second boundary"
    );
}

fn sparse_dual() -> Vec<u64> {
    let (x, y) = blobs(3, 3, 8);
    let model = Srda::new(SrdaConfig::default())
        .fit_sparse(&thin(&x), &y)
        .unwrap();
    model_bits(&model)
}

fn incremental() -> Vec<u64> {
    let (x, y) = blobs(3, 6, 4);
    let xs = thin(&x);
    let head: Vec<usize> = (0..y.len()).filter(|i| i % 6 < 4).collect();
    let yh: Vec<usize> = head.iter().map(|&i| y[i]).collect();
    let prev = Srda::new(SrdaConfig::lsqr_default())
        .fit_sparse(&xs.select_rows(&head), &yh)
        .unwrap();
    let warm = Srda::new(SrdaConfig::default())
        .fit_sparse_incremental(&xs, &y, &prev, 40, 1e-10)
        .unwrap();
    let mut out = model_bits(&warm);
    out.push(warm.lsqr_iterations() as u64);
    out
}

fn spectral(lsqr_iterations: Option<usize>) -> Vec<u64> {
    let (x, y) = blobs(3, 4, 5);
    let sr = SpectralRegression::new(SpectralRegressionConfig {
        n_components: 2,
        alpha: 0.5,
        lsqr_iterations,
        ..SpectralRegressionConfig::default()
    });
    embedding_bits(&sr.fit_dense(&x, &AffinityGraph::supervised(&y)).unwrap())
}

// ---------------------------------------------------------------------------
// committed pins (see module docs for the regeneration recipe)
// ---------------------------------------------------------------------------

const PIN_DENSE_PRIMAL: &[u64] = &[
    0x3fa4e964fac56f23,
    0xbf8a60bdce83fc38,
    0xbfa93a80b63ef89e,
    0x3fb8d324ac3efca0,
    0xbfa7f30b4c310621,
    0xbfb66185562bf2ae,
    0x3fb1d778b2e02d29,
    0x3f81e6dfe853e7d0,
    0xbf85b4b026754333,
    0xbf2986861a04c0a4,
    0x3c833d58cc6fdd4a,
    0x4063f09c037e0609,
    0x0000000000000000,
    0x0000000000000000,
    0x3c6b7464585bb64f,
    0x4063f09c037e0609,
    0x0000000000000000,
    0x0000000000000000,
    0x4063f09c037e0609,
];
const PIN_DENSE_DUAL: &[u64] = &[
    0x3fae3da476e6c8a0,
    0xbf9835f78710f5f4,
    0xbfa7d64fa6c5de46,
    0x3fb446f8e8df4e7e,
    0xbfa7dee90da079f6,
    0xbfb8d19db8e0e1e9,
    0x3fa85533e491bb90,
    0xbf70040ea242b6a0,
    0xbfa282c218dc98a4,
    0x3fb3eae5009b3d6b,
    0xbfaa08a24b5270c0,
    0xbfad53c515d03130,
    0x3fb0de4cb5581d16,
    0x3f70f59e3532ebd4,
    0xbf82a5abc72b082a,
    0x3f732ba89b60ccc8,
    0x3c92e2bd7ea27fac,
    0x4054077832715008,
    0x0000000000000000,
    0x0000000000000000,
    0x3c927787b714dd53,
    0x4054077832715008,
    0x0000000000000000,
    0x0000000000000000,
    0x4054077832715008,
];
const PIN_DENSE_PRIMAL_TILED: (usize, u64) = (442, 0xf31aeb575f8279be);
const PIN_DENSE_DUAL_TILED: (usize, u64) = (5446, 0xa3d00be929ce991f);
const PIN_LDA_RLDA: &[(usize, u64)] = &[
    (24, 0xde5fbc777cde3e3d),
    (24, 0x00d9846a9a15a68b),
    (63, 0x9423bf1efd95475c),
    (42, 0x354839d50f34a468),
];
const PIN_DISK_LSQR: (usize, u64) = (58695, 0xc045d2f3bac841e9);
const PIN_SPARSE_DUAL: &[u64] = &[
    0x3fbe460295bdc687,
    0x3f51bf8720628bd0,
    0xbfb59a1046ed66c0,
    0x3f98cf0692faca50,
    0xbfb81838a499f614,
    0xbfb78742aa0cc565,
    0xbf9de259c2a85351,
    0x3f713a9db9704228,
    0xbf9779e9e7e6a539,
    0x3fbf34c75cf2fc1e,
    0xbfb263079fab4374,
    0xbfb8ecf7e4b85b1a,
    0x3fc409114f9b99d2,
    0x3f874d7d7cf846c8,
    0xbfb0f639167e2c28,
    0x3fc03ffc4f713d00,
    0x3f97c6d7413258ca,
    0xbf9b733246945398,
    0x3c77e85d70649e27,
    0x40461b8f495e5ec9,
    0x0000000000000000,
    0x0000000000000000,
    0x3c6a289d5cb8bc3f,
    0x40461b8f495e5ec9,
    0x0000000000000000,
    0x0000000000000000,
    0x40461b8f495e5ec9,
];
const PIN_INCREMENTAL: &[u64] = &[
    0x3fb4d8bfe355059a,
    0xbf84e530fee938d8,
    0xbfab04b623181613,
    0x3fb5ff912dd33a26,
    0xbfa946d5e69d4916,
    0xbfb6915fb60bf7bc,
    0x3fb0d6261364587b,
    0x3f8a3702442eb5dd,
    0xbf8b10edc07f3150,
    0xbf63379b8ac7e8a7,
    0x3ca38848de9c5a0d,
    0x404018468c113ce2,
    0x0000000000000000,
    0x0000000000000000,
    0x3c9b5193a1b9ea2c,
    0x403e9391d48fb4f1,
    0x0000000000000000,
    0x0000000000000000,
    0x000000000000000a,
];
const PIN_SPECTRAL_DIRECT: &[u64] = &[
    0x3faf820d6f1ab817,
    0xbfa159fde2779b96,
    0xbfa57e5b455958cc,
    0x3fb230d260589767,
    0xbfb2d7e0f49ca3b7,
    0xbfbb698fdbf10dc6,
    0x3fafa75b8981cbe6,
    0x3f980ff9419dbd87,
    0xbf99d54a87445a77,
    0x3fa7f6b63d1915dc,
    0x3f8d2ea698725883,
    0x3f4ae90626308dc5,
];
const PIN_SPECTRAL_LSQR: &[u64] = &[
    0x3faf820d6f1ab816,
    0xbfa159fde2779b5c,
    0xbfa57e5b455958e6,
    0x3fb230d260589763,
    0xbfb2d7e0f49ca3b9,
    0xbfbb698fdbf10dc8,
    0x3fafa75b8981cbf1,
    0x3f980ff9419dbd17,
    0xbf99d54a87445a45,
    0x3fa7f6b63d1915ea,
    0x3f8d2ea69872589c,
    0x3f4ae90626308d1e,
];

#[test]
fn dense_primal_fit_keeps_its_bits() {
    assert_eq!(dense_primal(), PIN_DENSE_PRIMAL);
}

#[test]
fn dense_dual_fit_keeps_its_bits() {
    assert_eq!(dense_dual(), PIN_DENSE_DUAL);
}

#[test]
fn tiled_dense_primal_fit_keeps_its_bits() {
    assert_eq!(digest(&dense_primal_tiled()), PIN_DENSE_PRIMAL_TILED);
}

#[test]
fn tiled_dense_dual_fit_keeps_its_bits() {
    assert_eq!(digest(&dense_dual_tiled()), PIN_DENSE_DUAL_TILED);
}

#[test]
fn lda_and_rlda_fits_keep_their_bits() {
    assert_eq!(lda_and_rlda(), PIN_LDA_RLDA);
}

#[test]
fn disk_lsqr_fit_keeps_its_bits() {
    assert_eq!(digest(&disk_lsqr()), PIN_DISK_LSQR);
}

#[test]
fn sparse_dual_fit_keeps_its_bits() {
    assert_eq!(sparse_dual(), PIN_SPARSE_DUAL);
}

#[test]
fn incremental_refit_keeps_its_bits() {
    assert_eq!(incremental(), PIN_INCREMENTAL);
}

#[test]
fn spectral_regression_keeps_its_bits() {
    assert_eq!(spectral(None), PIN_SPECTRAL_DIRECT);
    assert_eq!(spectral(Some(20)), PIN_SPECTRAL_LSQR);
}

/// Regeneration helper (never runs by default): prints every pin in the
/// exact format of the `PIN_*` constants.
#[test]
#[ignore = "pin regeneration helper; run with --ignored --nocapture"]
fn print_pins() {
    let pins = [
        ("PIN_DENSE_PRIMAL", dense_primal()),
        ("PIN_DENSE_DUAL", dense_dual()),
        ("PIN_SPARSE_DUAL", sparse_dual()),
        ("PIN_INCREMENTAL", incremental()),
        ("PIN_SPECTRAL_DIRECT", spectral(None)),
        ("PIN_SPECTRAL_LSQR", spectral(Some(20))),
    ];
    for (name, bits) in pins {
        println!("const {name}: &[u64] = &[");
        for b in bits {
            println!("    0x{b:016x},");
        }
        println!("];");
    }
    for (name, bits) in [
        ("PIN_DENSE_PRIMAL_TILED", dense_primal_tiled()),
        ("PIN_DENSE_DUAL_TILED", dense_dual_tiled()),
        ("PIN_DISK_LSQR", disk_lsqr()),
    ] {
        let (len, h) = digest(&bits);
        println!("const {name}: (usize, u64) = ({len}, 0x{h:016x});");
    }
    println!("const PIN_LDA_RLDA: &[(usize, u64)] = &[");
    for (len, h) in lda_and_rlda() {
        println!("    ({len}, 0x{h:016x}),");
    }
    println!("];");
}
