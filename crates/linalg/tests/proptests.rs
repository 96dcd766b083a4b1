//! Property-based tests for the dense linear-algebra substrate.
//!
//! These check algebraic identities on randomized inputs rather than
//! hand-picked cases: transpose involution, product/transpose interplay,
//! factorization reconstruction, solver correctness against residuals.

use srda_linalg::ops::{
    gram, gram_exec, gram_t_exec, matmul, matmul_exec, matmul_transa, matmul_transa_exec,
    matmul_transb, matmul_transb_exec, matvec, matvec_exec, matvec_t, matvec_t_exec,
};
use srda_linalg::{Cholesky, Executor, Mat, Qr, SymmetricEigen};
use srda_rng::{check, SplitMix64};

const CASES: u32 = 64;

/// An `m × n` matrix with entries in `[-10, 10)`.
fn mat_shaped(rng: &mut SplitMix64, m: usize, n: usize) -> Mat {
    Mat::from_fn(m, n, |_, _| rng.uniform(-10.0, 10.0))
}

/// A matrix with dimensions in `[1, max_dim]` and entries in `[-10, 10)`.
fn mat(rng: &mut SplitMix64, max_dim: usize) -> Mat {
    let (m, n) = (rng.range(1..max_dim + 1), rng.range(1..max_dim + 1));
    mat_shaped(rng, m, n)
}

/// A square matrix with side in `[1, max_dim]`.
fn square(rng: &mut SplitMix64, max_dim: usize) -> Mat {
    let n = rng.range(1..max_dim + 1);
    mat_shaped(rng, n, n)
}

#[test]
fn transpose_is_involution() {
    check(CASES, |rng| {
        let a = mat(rng, 12);
        assert_eq!(a.transpose().transpose(), a);
    });
}

#[test]
fn transpose_swaps_entries() {
    check(CASES, |rng| {
        let a = mat(rng, 10);
        let t = a.transpose();
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                assert_eq!(t[(j, i)], a[(i, j)]);
            }
        }
    });
}

#[test]
fn matmul_transpose_identity() {
    check(CASES, |rng| {
        // (A·B)ᵀ = Bᵀ·Aᵀ on compatible shapes
        let (m, k, n) = (rng.range(1..9), rng.range(1..9), rng.range(1..9));
        let a = mat_shaped(rng, m, k);
        let b = mat_shaped(rng, k, n);
        let ab_t = matmul(&a, &b).unwrap().transpose();
        let bt_at = matmul(&b.transpose(), &a.transpose()).unwrap();
        assert!(ab_t.approx_eq(&bt_at, 1e-9));
    });
}

#[test]
fn trans_variants_consistent() {
    check(CASES, |rng| {
        let a = mat(rng, 8);
        // AᵀA via three routes agree
        let g = gram(&a);
        let via_transa = matmul_transa(&a, &a).unwrap();
        let explicit = matmul(&a.transpose(), &a).unwrap();
        assert!(g.approx_eq(&via_transa, 1e-9));
        assert!(g.approx_eq(&explicit, 1e-9));
        // AAᵀ
        let via_transb = matmul_transb(&a, &a).unwrap();
        let explicit2 = matmul(&a, &a.transpose()).unwrap();
        assert!(via_transb.approx_eq(&explicit2, 1e-9));
    });
}

#[test]
fn matvec_is_matmul_with_column() {
    check(CASES, |rng| {
        let a = mat(rng, 10);
        let seed = rng.below(1000) as u64;
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| ((seed + i as u64) as f64 * 0.7).sin())
            .collect();
        let y = matvec(&a, &x).unwrap();
        let xm = Mat::from_vec(x.len(), 1, x.clone()).unwrap();
        let ym = matmul(&a, &xm).unwrap();
        for i in 0..a.nrows() {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-9);
        }
        // transpose route
        let yt = matvec_t(&a, &y).unwrap();
        let yt2 = matvec(&a.transpose(), &y).unwrap();
        for (u, v) in yt.iter().zip(&yt2) {
            assert!((u - v).abs() < 1e-9);
        }
    });
}

#[test]
fn cholesky_solves_spd_systems() {
    check(CASES, |rng| {
        let a = mat(rng, 8);
        let shift = rng.uniform(0.5, 5.0);
        // G = AᵀA + shift·I is SPD
        let mut g = gram(&a);
        g.add_to_diag(shift);
        let ch = Cholesky::factor(&g).unwrap();
        let x_true: Vec<f64> = (0..g.nrows()).map(|i| (i as f64 * 0.3).cos()).collect();
        let b = matvec(&g, &x_true).unwrap();
        let x = ch.solve(&b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6);
        }
    });
}

#[test]
fn qr_reconstructs_and_q_orthonormal() {
    check(CASES, |rng| {
        // tall or square: m ≥ n
        let n = rng.range(1..11);
        let m = rng.range(n..11);
        let a = mat_shaped(rng, m, n);
        let qr = Qr::factor(&a).unwrap();
        let q = qr.q_thin();
        let recon = matmul(&q, &qr.r()).unwrap();
        assert!(recon.approx_eq(&a, 1e-8));
        let qtq = matmul_transa(&q, &q).unwrap();
        assert!(qtq.approx_eq(&Mat::identity(a.ncols()), 1e-9));
    });
}

#[test]
fn symmetric_eigen_reconstructs() {
    check(CASES, |rng| {
        let a = square(rng, 8);
        let mut s = a.add(&a.transpose()).unwrap();
        s.scale_inplace(0.5);
        let eg = SymmetricEigen::factor(&s).unwrap();
        let vd = matmul(&eg.vectors, &Mat::from_diag(&eg.values)).unwrap();
        let recon = matmul_transb(&vd, &eg.vectors).unwrap();
        assert!(
            recon.approx_eq(&s, 1e-7 * s.max_abs().max(1.0)),
            "max err {}",
            recon.sub(&s).unwrap().max_abs()
        );
        // trace is preserved by similarity transforms
        let trace: f64 = s.diag().iter().sum();
        let eig_sum: f64 = eg.values.iter().sum();
        assert!((trace - eig_sum).abs() < 1e-7 * trace.abs().max(1.0));
    });
}

#[test]
fn svd_reconstructs() {
    check(CASES, |rng| {
        let a = mat(rng, 9);
        let svd = srda_linalg::Svd::jacobi(&a, 1e-12).unwrap();
        let recon = svd.reconstruct().unwrap();
        assert!(recon.approx_eq(&a, 1e-8 * a.max_abs().max(1.0)));
        // Frobenius norm equals the l2 norm of the singular values
        let fro = a.frobenius_norm();
        let s_norm = svd.s.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((fro - s_norm).abs() < 1e-8 * fro.max(1.0));
    });
}

#[test]
fn gram_schmidt_output_is_orthonormal() {
    check(CASES, |rng| {
        let a = mat(rng, 8);
        let rows: Vec<Vec<f64>> = (0..a.nrows()).map(|i| a.row(i).to_vec()).collect();
        let basis = srda_linalg::gram_schmidt::orthonormalize(&rows, 1e-10);
        for (i, u) in basis.iter().enumerate() {
            for (j, v) in basis.iter().enumerate() {
                let d = srda_linalg::vector::dot(u, v);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-8);
            }
        }
        assert!(basis.len() <= a.nrows().min(a.ncols()));
    });
}

#[test]
fn two_svd_methods_agree() {
    check(CASES, |rng| {
        let a = mat(rng, 9);
        let j = srda_linalg::Svd::jacobi(&a, 1e-11).unwrap();
        let c = srda_linalg::Svd::cross_product(&a, 1e-6).unwrap();
        let smax = j.s.first().copied().unwrap_or(0.0).max(1e-300);
        // cross-product agrees on the values above its √ε noise floor
        for (x, y) in c.s.iter().zip(&j.s) {
            if *y > 1e-5 * smax {
                assert!((x - y).abs() < 1e-5 * smax, "{x} vs {y}");
            }
        }
        let recon = j.reconstruct().unwrap();
        assert!(recon.approx_eq(&a, 1e-8 * a.max_abs().max(1.0)));
    });
}

#[test]
fn exec_backends_match_serial_oracle_bitwise() {
    check(CASES, |rng| {
        let a = mat(rng, 9);
        let b = mat(rng, 9);
        let threads = rng.range(2..9);
        // every execution backend must produce bit-for-bit the serial
        // result: row partitioning keeps per-element summation order
        // identical, so `approx_eq(_, 0.0)` (exact equality) is the bar.
        // `threads` routinely exceeds nrows here — small matrices are the
        // interesting edge for the partitioner.
        let ser = Executor::serial();
        let par = Executor::threaded(threads);
        assert!(gram_exec(&a, &ser).approx_eq(&gram_exec(&a, &par), 0.0));
        assert!(gram_t_exec(&a, &ser).approx_eq(&gram_t_exec(&a, &par), 0.0));
        assert!(matmul_transa_exec(&a, &a, &ser)
            .unwrap()
            .approx_eq(&matmul_transa_exec(&a, &a, &par).unwrap(), 0.0));
        assert!(matmul_transb_exec(&a, &a, &ser)
            .unwrap()
            .approx_eq(&matmul_transb_exec(&a, &a, &par).unwrap(), 0.0));
        if a.ncols() == b.nrows() {
            assert!(matmul_exec(&a, &b, &ser)
                .unwrap()
                .approx_eq(&matmul_exec(&a, &b, &par).unwrap(), 0.0));
        }
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.7).sin()).collect();
        assert_eq!(
            matvec_exec(&a, &x, &ser).unwrap(),
            matvec_exec(&a, &x, &par).unwrap()
        );
        let z: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 1.3).cos()).collect();
        assert_eq!(
            matvec_t_exec(&a, &z, &ser).unwrap(),
            matvec_t_exec(&a, &z, &par).unwrap()
        );
    });
}

#[test]
fn exec_serial_matches_plain_ops() {
    check(CASES, |rng| {
        let a = mat(rng, 9);
        // the blocked serial backend must agree with the naive reference
        // implementations up to floating-point reassociation
        let ser = Executor::serial();
        let tol = 1e-9 * a.max_abs().max(1.0).powi(2) * a.nrows() as f64;
        assert!(gram_exec(&a, &ser).approx_eq(&gram(&a), tol));
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.7).sin()).collect();
        let y_exec = matvec_exec(&a, &x, &ser).unwrap();
        let y_ref = matvec(&a, &x).unwrap();
        for (u, v) in y_exec.iter().zip(&y_ref) {
            assert!((u - v).abs() < 1e-9 * a.max_abs().max(1.0) * a.ncols() as f64);
        }
    });
}

#[test]
fn exec_block_edges_cover_non_divisible_shapes() {
    check(CASES, |rng| {
        let (m, n, threads) = (rng.range(1..70), rng.range(1..6), rng.range(1..9));
        // row counts straddling block/thread-chunk boundaries (the chunk
        // size is ⌈m / threads⌉, so uneven trailing blocks are common):
        // the full output must be written, no row skipped or doubled
        let a = Mat::from_vec(m, n, (0..m * n).map(|k| k as f64 * 0.25 + 1.0).collect()).unwrap();
        let x: Vec<f64> = (0..n).map(|j| 1.0 + j as f64).collect();
        let ser = matvec_exec(&a, &x, &Executor::serial()).unwrap();
        let par = matvec_exec(&a, &x, &Executor::threaded(threads)).unwrap();
        assert_eq!(&ser, &par);
        for (i, v) in ser.iter().enumerate() {
            let expect: f64 = (0..n).map(|j| a[(i, j)] * x[j]).sum();
            assert!((v - expect).abs() < 1e-9 * expect.abs().max(1.0), "row {i}");
        }
    });
}

#[test]
fn csv_roundtrip_preserves_matrix() {
    check(CASES, |rng| {
        let a = mat(rng, 10);
        let text = srda_linalg::io::write_csv(&a, ',');
        let back = srda_linalg::io::read_csv(&text, ',').unwrap();
        assert!(a.approx_eq(&back, 0.0));
    });
}

#[test]
fn hcat_block_roundtrip() {
    check(CASES, |rng| {
        // two matrices with the same row count
        let (m, na, nb) = (rng.range(1..9), rng.range(1..9), rng.range(1..9));
        let a = mat_shaped(rng, m, na);
        let b = mat_shaped(rng, m, nb);
        let h = a.hcat(&b).unwrap();
        let left = h.block(0, h.nrows(), 0, a.ncols());
        let right = h.block(0, h.nrows(), a.ncols(), h.ncols());
        assert_eq!(left, a);
        assert_eq!(right, b);
    });
}
