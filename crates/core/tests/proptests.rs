//! Property-based tests of the paper's invariants on randomized inputs.

use srda::{ClassIndex, Srda, SrdaConfig, SrdaSolver};
use srda_linalg::{vector, Mat};
use srda_rng::{check, SplitMix64};

const CASES: u32 = 40;

/// A random labeled dataset: `c ∈ [2, 4]` classes, `m = c + [6, 13]`
/// samples, `n ∈ [2, 7]` features in `[-4, 4)`, every class non-empty.
fn dataset(rng: &mut SplitMix64) -> (Mat, Vec<usize>) {
    let (c, m_extra, n) = (rng.range(2..5), rng.range(6..14), rng.range(2..8));
    let m = c + m_extra;
    let x = Mat::from_fn(m, n, |_, _| rng.uniform(-4.0, 4.0));
    let mut labels: Vec<usize> = (0..m).map(|_| rng.below(c)).collect();
    // force every class to appear
    for (k, l) in labels.iter_mut().enumerate().take(c) {
        *l = k;
    }
    (x, labels)
}

#[test]
fn responses_always_orthonormal_and_centered() {
    check(CASES, |rng| {
        let (_, y) = dataset(rng);
        let index = ClassIndex::new(&y).unwrap();
        let r = srda::responses::generate(&index);
        assert_eq!(r.ncols(), index.n_classes() - 1);
        for i in 0..r.ncols() {
            // unit norm, zero mean
            assert!((vector::norm2(&r.col(i)) - 1.0).abs() < 1e-10);
            assert!(vector::sum(&r.col(i)).abs() < 1e-10);
            for j in (i + 1)..r.ncols() {
                assert!(vector::dot(&r.col(i), &r.col(j)).abs() < 1e-10);
            }
        }
        // constant within class
        for j in 0..r.ncols() {
            let col = r.col(j);
            for k in 0..index.n_classes() {
                let mem = index.members(k);
                for &i in mem {
                    assert!((col[i] - col[mem[0]]).abs() < 1e-10);
                }
            }
        }
    });
}

#[test]
fn srda_is_invariant_to_sample_order() {
    check(CASES, |rng| {
        let (x, y) = dataset(rng);
        let model1 = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
        // reverse the samples
        let idx: Vec<usize> = (0..x.nrows()).rev().collect();
        let xr = x.select_rows(&idx);
        let yr: Vec<usize> = idx.iter().map(|&i| y[i]).collect();
        let model2 = Srda::new(SrdaConfig::default())
            .fit_dense(&xr, &yr)
            .unwrap();
        // responses may flip sign/order under permutation, but the spanned
        // discriminant subspace is permutation-invariant: compare spans
        let w1 = model1.embedding().weights();
        let w2 = model2.embedding().weights();
        if w1.ncols() != w2.ncols() {
            return;
        }
        let cols: Vec<Vec<f64>> = (0..w2.ncols()).map(|j| w2.col(j)).collect();
        let basis = srda_linalg::gram_schmidt::orthonormalize(&cols, 1e-10);
        if basis.len() != w2.ncols() {
            return;
        }
        for j in 0..w1.ncols() {
            let mut a = w1.col(j);
            let norm = vector::normalize(&mut a);
            if norm <= 1e-10 {
                return;
            }
            let proj: f64 = basis.iter().map(|b| vector::dot(b, &a).powi(2)).sum();
            assert!(
                proj > 1.0 - 1e-6,
                "direction {} leaves the span: {}",
                j,
                proj
            );
        }
    });
}

#[test]
fn lsqr_converges_to_normal_equations() {
    check(CASES, |rng| {
        let (x, y) = dataset(rng);
        let ne = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
        let it = Srda::new(SrdaConfig {
            solver: SrdaSolver::Lsqr {
                max_iter: 600,
                tol: 0.0,
            },
            ..SrdaConfig::default()
        })
        .fit_dense(&x, &y)
        .unwrap();
        let w1 = ne.embedding().weights();
        let w2 = it.embedding().weights();
        assert!(
            w1.approx_eq(w2, 1e-5 * w1.max_abs().max(1.0)),
            "max diff {}",
            w1.sub(w2).unwrap().max_abs()
        );
    });
}

#[test]
fn sparse_and_dense_fits_agree() {
    check(CASES, |rng| {
        let (x, y) = dataset(rng);
        let xs = srda_sparse::CsrMatrix::from_dense(&x, 0.0);
        let md = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
        let ms = Srda::new(SrdaConfig::default())
            .fit_sparse(&xs, &y)
            .unwrap();
        let wd = md.embedding().weights();
        let ws = ms.embedding().weights();
        assert!(
            wd.approx_eq(ws, 1e-6 * wd.max_abs().max(1.0)),
            "max diff {}",
            wd.sub(ws).unwrap().max_abs()
        );
    });
}

#[test]
fn embedding_dimension_is_c_minus_1() {
    check(CASES, |rng| {
        let (x, y) = dataset(rng);
        let c = y.iter().max().unwrap() + 1;
        let model = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
        assert_eq!(model.embedding().n_components(), c - 1);
        assert_eq!(model.embedding().n_features(), x.ncols());
        assert!(model.embedding().weights().is_finite());
    });
}

#[test]
fn transform_is_affine() {
    check(CASES, |rng| {
        let (x, y) = dataset(rng);
        let s = rng.uniform(0.5, 2.0);
        // f(a·u + (1−a)·v) = a·f(u) + (1−a)·f(v) for affine f
        let model = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
        let emb = model.embedding();
        let u = x.row(0);
        let v = x.row(1);
        let a = s / 2.0;
        let mix: Vec<f64> = u
            .iter()
            .zip(v)
            .map(|(p, q)| a * p + (1.0 - a) * q)
            .collect();
        let fu = emb.transform_row(u).unwrap();
        let fv = emb.transform_row(v).unwrap();
        let fmix = emb.transform_row(&mix).unwrap();
        for i in 0..fu.len() {
            let expect = a * fu[i] + (1.0 - a) * fv[i];
            assert!((fmix[i] - expect).abs() < 1e-8 * expect.abs().max(1.0));
        }
    });
}

#[test]
fn heavier_regularization_never_grows_weights() {
    check(CASES, |rng| {
        let (x, y) = dataset(rng);
        let norm = |alpha: f64| {
            Srda::new(SrdaConfig {
                alpha,
                ..SrdaConfig::default()
            })
            .fit_dense(&x, &y)
            .unwrap()
            .embedding()
            .weights()
            .frobenius_norm()
        };
        let n1 = norm(0.1);
        let n2 = norm(10.0);
        assert!(n2 <= n1 + 1e-9, "{n2} > {n1}");
    });
}
