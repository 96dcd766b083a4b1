//! Property-based tests: CSR kernels must agree with their dense oracles on
//! arbitrary sparsity patterns.

use srda_rng::{check, SplitMix64};
use srda_sparse::{io, CooBuilder, CsrMatrix};

const CASES: u32 = 128;

/// Random triplets in a shape of at most 9×9, possibly with duplicates,
/// summed into a CSR matrix.
fn random_csr(rng: &mut SplitMix64) -> (usize, usize, usize, CsrMatrix) {
    let (m, n) = (rng.range(1..10), rng.range(1..10));
    let triplets = rng.range(0..30);
    let mut b = CooBuilder::new(m, n);
    for _ in 0..triplets {
        let (r, c) = (rng.below(m), rng.below(n));
        b.push(r, c, rng.uniform(-5.0, 5.0)).unwrap();
    }
    (m, n, triplets, b.build())
}

#[test]
fn dense_roundtrip() {
    check(CASES, |rng| {
        let (_, _, _, s) = random_csr(rng);
        let d = s.to_dense();
        let s2 = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(&s, &s2);
    });
}

#[test]
fn matvec_agrees_with_dense() {
    check(CASES, |rng| {
        let (m, n, _, s) = random_csr(rng);
        let seed = rng.below(100) as u64;
        let d = s.to_dense();
        let x: Vec<f64> = (0..n)
            .map(|i| ((seed + i as u64) as f64 * 0.91).sin())
            .collect();
        let ys = s.matvec(&x).unwrap();
        let yd = srda_linalg::ops::matvec(&d, &x).unwrap();
        for (a, b) in ys.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-10);
        }
        let xt: Vec<f64> = (0..m)
            .map(|i| ((seed + i as u64) as f64 * 0.37).cos())
            .collect();
        let yst = s.matvec_t(&xt).unwrap();
        let ydt = srda_linalg::ops::matvec_t(&d, &xt).unwrap();
        for (a, b) in yst.iter().zip(&ydt) {
            assert!((a - b).abs() < 1e-10);
        }
    });
}

#[test]
fn exec_backends_match_serial_bitwise() {
    check(CASES, |rng| {
        // threaded CSR kernels must be bit-identical to serial — same
        // per-row summation order, rows merely partitioned across threads
        // (threads > nrows is common here and must degrade gracefully)
        let (m, n, _, s) = random_csr(rng);
        let threads = rng.range(2..12);
        let ser = srda_linalg::Executor::serial();
        let par = srda_linalg::Executor::threaded(threads);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.91).sin()).collect();
        assert_eq!(
            s.matvec_exec(&x, &ser).unwrap(),
            s.matvec_exec(&x, &par).unwrap()
        );
        let xt: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).cos()).collect();
        assert_eq!(
            s.matvec_t_exec(&xt, &ser).unwrap(),
            s.matvec_t_exec(&xt, &par).unwrap()
        );
        let b =
            srda_linalg::Mat::from_vec(n, 2, (0..2 * n).map(|k| (k as f64 * 0.11).sin()).collect())
                .unwrap();
        assert!(s
            .matmul_dense_exec(&b, &ser)
            .unwrap()
            .approx_eq(&s.matmul_dense_exec(&b, &par).unwrap(), 0.0));
        let g_ser = s.gram_t_dense_checked_exec(usize::MAX, &ser).unwrap();
        let g_par = s.gram_t_dense_checked_exec(usize::MAX, &par).unwrap();
        assert!(g_ser.approx_eq(&g_par, 0.0));
    });
}

#[test]
fn transpose_is_involution_and_matches_dense() {
    check(CASES, |rng| {
        let (m, n, _, s) = random_csr(rng);
        let t = s.transpose();
        assert_eq!(t.shape(), (n, m));
        assert_eq!(&t.transpose(), &s);
        assert!(t.to_dense().approx_eq(&s.to_dense().transpose(), 0.0));
    });
}

#[test]
fn select_rows_matches_dense() {
    check(CASES, |rng| {
        let (m, _, _, s) = random_csr(rng);
        let idx: Vec<usize> = (0..m).rev().step_by(2).collect();
        let sub = s.select_rows(&idx);
        let dense_sub = s.to_dense().select_rows(&idx);
        assert!(sub.to_dense().approx_eq(&dense_sub, 0.0));
    });
}

#[test]
fn io_roundtrip() {
    check(CASES, |rng| {
        let (m, n, _, s) = random_csr(rng);
        let labels: Vec<usize> = (0..m).map(|i| i % 3).collect();
        let data = io::LabeledSparse { x: s, labels };
        let text = io::write(&data);
        let back = io::parse(&text, n).unwrap();
        assert_eq!(back, data);
    });
}

#[test]
fn nnz_bounds() {
    check(CASES, |rng| {
        let (m, n, triplets, s) = random_csr(rng);
        assert!(s.nnz() <= triplets);
        assert!(s.nnz() <= m * n);
        assert!(s.density() <= 1.0);
    });
}

#[test]
fn normalize_rows_gives_unit_norms() {
    check(CASES, |rng| {
        let (m, _, _, mut s) = random_csr(rng);
        s.normalize_rows_l2();
        for i in 0..m {
            let norm_sq: f64 = s.row_entries(i).map(|(_, v)| v * v).sum();
            if s.row_nnz(i) > 0 {
                assert!((norm_sq.sqrt() - 1.0).abs() < 1e-10);
            }
        }
    });
}
