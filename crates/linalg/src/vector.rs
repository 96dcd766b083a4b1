//! Vector kernels: dot products, norms, axpy-style updates.
//!
//! These are the innermost loops of every solver in the workspace (LSQR in
//! particular is built almost entirely from them), so they are written as
//! plain contiguous-slice loops that LLVM reliably autovectorizes. Each
//! kernel reports its leading-order cost to the [`crate::flam`] counter.

use crate::flam;

/// Dot product `xᵀy`. Panics in debug builds on length mismatch.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    flam::add(x.len() as u64);
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow/underflow
/// for extreme magnitudes (the same guard LSQR's reference implementation
/// uses).
pub fn norm2(x: &[f64]) -> f64 {
    flam::add(x.len() as u64);
    let max = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if max == 0.0 || !max.is_finite() {
        return if max == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let mut acc = 0.0;
    for &v in x {
        let s = v / max;
        acc += s * s;
    }
    max * acc.sqrt()
}

/// Euclidean norm with full non-finite propagation: any NaN entry yields
/// NaN and any ±∞ entry yields +∞, instead of the silent answers [`norm2`]
/// can produce (its overflow guard folds magnitudes with `f64::max`, which
/// *ignores* NaN — an all-NaN vector comes back as 0.0). On finite input
/// this delegates to [`norm2`] and is bit-for-bit identical to it, so it is
/// safe to substitute into solvers whose trajectories are locked by golden
/// tests.
///
/// Use this in iterative solvers and orthogonalization loops where a
/// poisoned vector must surface as a detectable non-finite norm rather
/// than a plausible-looking number.
pub fn norm2_robust(x: &[f64]) -> f64 {
    for &v in x {
        if v.is_nan() {
            return f64::NAN;
        }
    }
    norm2(x)
}

/// [`norm2_robust`] of every column of the row-major block `a` (`q`
/// columns) whose `want` flag is set; the other columns read 0 and cost
/// nothing. The block is read row by row with one accumulator per column,
/// so each norm, and the flam counted, are bitwise those of
/// [`norm2_robust`] on that column.
pub fn col_norms2_robust(a: &[f64], q: usize, want: &[bool]) -> Vec<f64> {
    debug_assert_eq!(want.len(), q);
    match q {
        0 => return Vec::new(),
        1 => return vec![if want[0] { norm2_robust(a) } else { 0.0 }],
        _ => {}
    }
    let rows = a.len() / q;
    let mut nan = vec![false; q];
    let mut max = vec![0.0f64; q];
    for row in a.chunks_exact(q) {
        for ((&v, m), n) in row.iter().zip(&mut max).zip(&mut nan) {
            *n |= v.is_nan();
            *m = m.max(v.abs());
        }
    }
    let mut acc = vec![0.0f64; q];
    for row in a.chunks_exact(q) {
        for ((&v, &m), s) in row.iter().zip(&max).zip(&mut acc) {
            let t = v / m;
            *s += t * t;
        }
    }
    (0..q)
        .map(|j| {
            if !want[j] {
                0.0
            } else if nan[j] {
                f64::NAN
            } else {
                flam::add(rows as u64);
                if max[j] == 0.0 {
                    0.0
                } else if !max[j].is_finite() {
                    f64::INFINITY
                } else {
                    max[j] * acc[j].sqrt()
                }
            }
        })
        .collect()
}

/// Sum of entries.
pub fn sum(x: &[f64]) -> f64 {
    flam::add(x.len() as u64);
    x.iter().sum()
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        sum(x) / x.len() as f64
    }
}

/// `y ← y + a·x`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    flam::add(x.len() as u64);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x ← s·x`.
#[inline]
pub fn scale(s: f64, x: &mut [f64]) {
    flam::add(x.len() as u64);
    for xi in x {
        *xi *= s;
    }
}

/// Normalize `x` to unit Euclidean norm in place; returns the original norm.
/// Leaves a zero vector untouched and returns 0.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Squared Euclidean distance `‖x − y‖₂²`.
pub fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    flam::add(x.len() as u64);
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y) {
        let d = a - b;
        acc += d * d;
    }
    acc
}

/// Index of the minimum entry (first on ties); `None` for an empty slice.
pub fn argmin(x: &[f64]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v < x[best] {
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm2_matches_pythagoras() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn norm2_no_overflow_for_huge_entries() {
        let big = 1e200;
        let n = norm2(&[big, big]);
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-14);
    }

    #[test]
    fn norm2_no_underflow_for_tiny_entries() {
        let tiny = 1e-200;
        let n = norm2(&[tiny, tiny]);
        assert!(n > 0.0);
        assert!((n - tiny * std::f64::consts::SQRT_2).abs() / n < 1e-14);
    }

    #[test]
    fn norm2_robust_bitwise_matches_norm2_on_finite_input() {
        let xs: Vec<Vec<f64>> = vec![
            vec![],
            vec![0.0, 0.0],
            vec![3.0, 4.0],
            vec![1e200, -1e200, 3.5],
            vec![1e-300, 2e-300],
        ];
        for x in &xs {
            assert_eq!(norm2_robust(x).to_bits(), norm2(x).to_bits());
        }
    }

    #[test]
    fn norm2_robust_survives_entries_near_sqrt_max() {
        // entries ~1.3e154: a naive sum-of-squares (dot(x, x)) overflows,
        // the scaled norm must not.
        let big = f64::MAX.sqrt() * 0.99;
        let x = vec![big, -big, big];
        assert!(dot(&x, &x).is_infinite(), "naive path should overflow");
        let n = norm2_robust(&x);
        assert!(n.is_finite());
        assert!((n - big * 3.0f64.sqrt()).abs() / n < 1e-14);
    }

    #[test]
    fn col_norms_match_per_column_norms_bitwise() {
        let cols: Vec<Vec<f64>> = vec![
            vec![3.0, -4.0, 0.5, 1e-3],
            vec![0.0, -0.0, 0.0, 0.0],
            vec![1e200, -1e200, 3.5, 2.0],
            vec![1.0, f64::NAN, 2.0, 0.0],
            vec![1.0, f64::INFINITY, 2.0, 0.0],
            vec![1e-300, 2e-300, -3e-300, 0.1],
        ];
        let q = cols.len();
        let block: Vec<f64> = (0..4)
            .flat_map(|i| cols.iter().map(move |c| c[i]))
            .collect();
        let want: Vec<bool> = (0..q).map(|j| j != 5).collect();
        let (norms, cost) = flam::measure(|| col_norms2_robust(&block, q, &want));
        let (expect, expect_cost) = flam::measure(|| {
            cols.iter()
                .zip(&want)
                .map(|(c, &w)| if w { norm2_robust(c) } else { 0.0 })
                .collect::<Vec<_>>()
        });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&norms), bits(&expect));
        assert_eq!(cost, expect_cost);
        assert_eq!(
            col_norms2_robust(&block[..4], 1, &[true]),
            vec![norm2_robust(&block[..4])]
        );
    }

    #[test]
    fn norm2_robust_propagates_non_finite() {
        // norm2's max-scan ignores NaN: an all-NaN vector reads as 0.0.
        assert_eq!(norm2(&[f64::NAN, f64::NAN]), 0.0);
        assert!(norm2_robust(&[f64::NAN, f64::NAN]).is_nan());
        assert!(norm2_robust(&[1.0, f64::NAN, 2.0]).is_nan());
        assert_eq!(norm2_robust(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(norm2_robust(&[f64::NEG_INFINITY, 2.0]), f64::INFINITY);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_and_normalize() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);

        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn distances() {
        assert_eq!(dist2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn arg_extrema() {
        assert_eq!(argmin(&[3.0, 1.0, 2.0]), Some(1));
        assert_eq!(argmin(&[]), None);
        // first wins on ties
        assert_eq!(argmin(&[1.0, 1.0]), Some(0));
    }

    #[test]
    fn mean_and_sum() {
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
