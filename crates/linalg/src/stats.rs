//! Data-matrix statistics: column means, centering, per-class aggregation.
//!
//! The workspace convention is **samples as rows**: an `m × n` data matrix
//! holds `m` samples with `n` features. Centering subtracts the global mean
//! row — the operation that turns the paper's `X` into `X̄` (and the
//! operation SRDA's bias-absorption trick exists to avoid on sparse data).

use crate::matrix::Mat;
use crate::{flam, Result};

/// Mean of each column (the global sample mean `μ` when rows are samples).
pub fn col_means(a: &Mat) -> Vec<f64> {
    let (m, n) = a.shape();
    flam::add((m * n) as u64);
    let mut mu = vec![0.0; n];
    for i in 0..m {
        for (s, &x) in mu.iter_mut().zip(a.row(i)) {
            *s += x;
        }
    }
    if m > 0 {
        let inv = 1.0 / m as f64;
        for s in &mut mu {
            *s *= inv;
        }
    }
    mu
}

/// Return a centered copy: each row has `mu` subtracted.
pub fn center_rows(a: &Mat, mu: &[f64]) -> Mat {
    let (m, n) = a.shape();
    debug_assert_eq!(n, mu.len());
    flam::add((m * n) as u64);
    let mut out = a.clone();
    for i in 0..m {
        for (x, &mj) in out.row_mut(i).iter_mut().zip(mu) {
            *x -= mj;
        }
    }
    out
}

/// Center a matrix by its own column means; returns `(centered, means)`.
pub fn centered(a: &Mat) -> (Mat, Vec<f64>) {
    let mu = col_means(a);
    (center_rows(a, &mu), mu)
}

/// Mean row of each class. `labels[i] ∈ 0..n_classes` assigns row `i`.
/// Returns an `n_classes × n` matrix of centroids plus per-class counts.
pub fn class_means(a: &Mat, labels: &[usize], n_classes: usize) -> Result<(Mat, Vec<usize>)> {
    let (m, n) = a.shape();
    debug_assert_eq!(labels.len(), m);
    flam::add((m * n) as u64);
    let mut centroids = Mat::zeros(n_classes, n);
    let mut counts = vec![0usize; n_classes];
    for (i, &k) in labels.iter().enumerate() {
        debug_assert!(k < n_classes, "label out of range");
        counts[k] += 1;
        for (c, &x) in centroids.row_mut(k).iter_mut().zip(a.row(i)) {
            *c += x;
        }
    }
    for (k, &cnt) in counts.iter().enumerate() {
        if cnt > 0 {
            let inv = 1.0 / cnt as f64;
            for c in centroids.row_mut(k) {
                *c *= inv;
            }
        }
    }
    Ok((centroids, counts))
}

/// Normalize every row to unit L2 norm (rows that are exactly zero are left
/// untouched). This is the normalization the paper applies to the
/// 20Newsgroups term-frequency vectors.
pub fn normalize_rows_l2(a: &mut Mat) {
    for i in 0..a.nrows() {
        crate::vector::normalize(a.row_mut(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Mat {
        Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0], vec![5.0, 4.0]]).unwrap()
    }

    #[test]
    fn col_means_basic() {
        assert_eq!(col_means(&data()), vec![3.0, 4.0]);
        assert_eq!(col_means(&Mat::zeros(0, 3)), vec![0.0; 3]);
    }

    #[test]
    fn centering_zeroes_means() {
        let (c, mu) = centered(&data());
        assert_eq!(mu, vec![3.0, 4.0]);
        let new_mu = col_means(&c);
        for v in new_mu {
            assert!(v.abs() < 1e-14);
        }
        assert_eq!(c.row(0), &[-2.0, -2.0]);
    }

    #[test]
    fn class_means_two_classes() {
        let a = data();
        let (cent, counts) = class_means(&a, &[0, 1, 1], 2).unwrap();
        assert_eq!(counts, vec![1, 2]);
        assert_eq!(cent.row(0), &[1.0, 2.0]);
        assert_eq!(cent.row(1), &[4.0, 5.0]);
    }

    #[test]
    fn class_means_empty_class_is_zero() {
        let a = data();
        let (cent, counts) = class_means(&a, &[0, 0, 0], 2).unwrap();
        assert_eq!(counts, vec![3, 0]);
        assert_eq!(cent.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn row_normalization() {
        let mut a = Mat::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]).unwrap();
        normalize_rows_l2(&mut a);
        assert!((crate::vector::norm2(a.row(0)) - 1.0).abs() < 1e-14);
        assert_eq!(a.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn centering_is_idempotent() {
        let (c1, _) = centered(&data());
        let (c2, mu2) = centered(&c1);
        assert!(c1.approx_eq(&c2, 1e-14));
        for v in mu2 {
            assert!(v.abs() < 1e-14);
        }
    }
}
