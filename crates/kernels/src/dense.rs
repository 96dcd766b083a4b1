//! Blocked dense kernels over row-major `&[f64]` slices.
//!
//! Conventions: a matrix argument is a slice of length `rows * cols` in
//! row-major order, with the dimensions passed explicitly. Output slices
//! must be sized by the caller and are fully overwritten (they do not need
//! to be zeroed unless documented otherwise).
//!
//! Per-element summation order is pinned down in each kernel's docs; it is
//! identical across backends and matches the historical serial loops in
//! `srda_linalg::ops`, which is what makes the executor refactor invisible
//! to existing bit-level regression tests.
//!
//! [`gram`] and [`gemm_transa`] (and their `_augmented` forms, which read
//! `[a | 1]` without building it) share one register-tile kernel: each
//! pass packs 256 rows of the right operand into 8-wide column panels and
//! sweeps 2 × 8 tiles of the output over them, the tile held in locals and
//! reloaded from the output between passes, so every entry keeps the
//! historical ascending-row sum. The threads split the output rows in
//! whole tiles of near-equal work. The other kernels work in row panels of
//! 64 rows (the crate's row-block constant).

use crate::Executor;

/// Column-tile width for the `p` (inner/shared) dimension of [`gemm`].
/// Per-element addition order stays `p`-ascending for every tile size, so
/// this is purely a cache-locality knob.
const GEMM_P_TILE: usize = 64;

/// `c = a * b` where `a` is `m x k`, `b` is `k x n`, `c` is `m x n`.
///
/// Row-parallel over `c` with a tiled sweep of the shared dimension.
/// Each `c[i][j]` accumulates `a[i][p] * b[p][j]` for `p` ascending,
/// skipping `a[i][p] == 0.0` — the exact order of the classic ikj loop.
/// `c` need not be zeroed.
pub fn gemm(exec: &Executor, a: &[f64], m: usize, k: usize, b: &[f64], n: usize, c: &mut [f64]) {
    exec.note_kernel("kernel.dense.gemm");
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    exec.for_each_row_block(c, n.max(1), |first, block| {
        block.fill(0.0);
        let mut pt = 0;
        while pt < k {
            let pe = (pt + GEMM_P_TILE).min(k);
            for (r, crow) in block.chunks_mut(n.max(1)).enumerate() {
                let arow = &a[(first + r) * k..(first + r + 1) * k];
                for (p, &aip) in arow.iter().enumerate().take(pe).skip(pt) {
                    if aip == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += aip * bv;
                    }
                }
            }
            pt = pe;
        }
    });
}

/// `c = a^T * b` where `a` is `m x k`, `b` is `m x n`, `c` is `k x n`.
///
/// `c[i][j]` is `+0.0` plus `a[r][i] * b[r][j]` for `r` ascending (one
/// multiply, then one add), skipping `a[r][i] == 0.0` — the historical
/// outer-product order, run by the register-tile kernel (module docs).
pub fn gemm_transa(
    exec: &Executor,
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    c: &mut [f64],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    exec.note_kernel("kernel.dense.gemm_transa");
    atb(exec, Operand::plain(a, k), Some(Operand::plain(b, n)), m, c);
}

/// [`gemm_transa`] of the bias-augmented `[a | 1]`: `c` is `(k + 1) x n`
/// and its last row holds the column sums of `b`. Bitwise the product of
/// the materialized `[a | 1]` (`1.0 * v` is exact), without building it.
pub fn gemm_transa_augmented(
    exec: &Executor,
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    c: &mut [f64],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), (k + 1) * n);
    exec.note_kernel("kernel.dense.gemm_transa");
    atb(
        exec,
        Operand::augmented(a, k),
        Some(Operand::plain(b, n)),
        m,
        c,
    );
}

/// `c = a * b^T` where `a` is `m x k`, `b` is `n x k`, `c` is `m x n`.
///
/// Row-parallel over `c`; each element is a single-accumulator dot product
/// over `p` ascending, matching the historical row-dot loop.
pub fn gemm_transb(
    exec: &Executor,
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    c: &mut [f64],
) {
    exec.note_kernel("kernel.dense.gemm_transb");
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    exec.for_each_row_block(c, n.max(1), |first, block| {
        for (off, crow) in block.chunks_mut(n.max(1)).enumerate() {
            let arow = &a[(first + off) * k..(first + off + 1) * k];
            for (j, cv) in crow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *cv = acc;
            }
        }
    });
}

/// Gram matrix `g = a^T * a` where `a` is `m x n`, `g` is `n x n`.
///
/// The register-tile kernel (module docs) computes the tiles that touch
/// the upper triangle; `g[i][j]` (`j >= i`) is `+0.0` plus
/// `a[r][i] * a[r][j]` for `r` ascending, skipping `a[r][i] == 0.0` — the
/// historical order. The lower triangle is mirrored afterwards.
pub fn gram(exec: &Executor, a: &[f64], m: usize, n: usize, g: &mut [f64]) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(g.len(), n * n);
    exec.note_kernel("kernel.dense.gram");
    atb(exec, Operand::plain(a, n), None, m, g);
    mirror_upper(g, n);
}

/// [`gram`] of the bias-augmented `[a | 1]`: `g` is `(n + 1) x (n + 1)`.
/// Bitwise the Gram matrix of the materialized `[a | 1]`, without
/// building it.
pub fn gram_augmented(exec: &Executor, a: &[f64], m: usize, n: usize, g: &mut [f64]) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(g.len(), (n + 1) * (n + 1));
    exec.note_kernel("kernel.dense.gram");
    atb(exec, Operand::augmented(a, n), None, m, g);
    mirror_upper(g, n + 1);
}

/// Outer Gram matrix `g = a * a^T` where `a` is `m x n`, `g` is `m x m`.
///
/// Row-block-parallel over the upper triangle; each element is a
/// single-accumulator dot product of two data rows (the historical
/// order). The lower triangle is mirrored afterwards.
pub fn gram_t(exec: &Executor, a: &[f64], m: usize, n: usize, g: &mut [f64]) {
    exec.note_kernel("kernel.dense.gram_t");
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(g.len(), m * m);
    exec.for_each_row_block(g, m.max(1), |first, block| {
        for (off, grow) in block.chunks_mut(m.max(1)).enumerate() {
            let i = first + off;
            let arow = &a[i * n..(i + 1) * n];
            for (j, gv) in grow.iter_mut().enumerate().skip(i) {
                let brow = &a[j * n..(j + 1) * n];
                let mut acc = 0.0;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *gv = acc;
            }
        }
    });
    mirror_upper(g, m);
}

/// `y = a * x` where `a` is `m x n`; row-parallel single-accumulator dots.
pub fn matvec(exec: &Executor, a: &[f64], m: usize, n: usize, x: &[f64], y: &mut [f64]) {
    exec.note_kernel("kernel.dense.matvec");
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), m);
    exec.for_each_row_block(y, 1, |first, block| {
        for (off, yv) in block.iter_mut().enumerate() {
            let arow = &a[(first + off) * n..(first + off + 1) * n];
            let mut acc = 0.0;
            for (&av, &xv) in arow.iter().zip(x) {
                acc += av * xv;
            }
            *yv = acc;
        }
    });
}

/// `y = a^T * x` where `a` is `m x n`.
///
/// This is a reduction over the `m` data rows, executed via
/// [`Executor::reduce_row_blocks`]: rows are grouped into fixed blocks of
/// [`crate::REDUCE_BLOCK_ROWS`] whose partials are summed in ascending
/// block order on every backend. Rows with `x[i] == 0.0` are skipped, as
/// in the historical scatter loop.
pub fn matvec_t(exec: &Executor, a: &[f64], m: usize, n: usize, x: &[f64], y: &mut [f64]) {
    exec.note_kernel("kernel.dense.matvec_t");
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), m);
    debug_assert_eq!(y.len(), n);
    y.fill(0.0);
    exec.reduce_row_blocks(m, y, |start, len, partial| {
        for i in start..start + len {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            let arow = &a[i * n..(i + 1) * n];
            for (pv, &av) in partial.iter_mut().zip(arow) {
                *pv += xi * av;
            }
        }
    });
}

/// Copy the upper triangle of an `n x n` row-major matrix into the lower.
fn mirror_upper(g: &mut [f64], n: usize) {
    for i in 1..n {
        for j in 0..i {
            g[i * n + j] = g[j * n + i];
        }
    }
}

/// Rows of the shared dimension packed per pass of [`atb`].
const CHUNK_ROWS: usize = 256;
/// Rows of `c` in one register tile.
const MR: usize = 2;
/// Columns of `c` in one register tile: the width of a packed panel.
const NR: usize = 8;

/// A row-major matrix with `cols` columns, read as `[data | 1]` when
/// `ones` is set.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f64],
    cols: usize,
    ones: bool,
}

impl<'a> Operand<'a> {
    fn plain(data: &'a [f64], cols: usize) -> Self {
        Self {
            data,
            cols,
            ones: false,
        }
    }

    fn augmented(data: &'a [f64], cols: usize) -> Self {
        Self {
            data,
            cols,
            ones: true,
        }
    }

    fn width(&self) -> usize {
        self.cols + usize::from(self.ones)
    }

    /// Columns `j0..j0 + out.len()` of row `r` into `out`, `0.0` past the
    /// last column.
    fn read(&self, r: usize, j0: usize, out: &mut [f64]) {
        let real = self.cols.saturating_sub(j0).min(out.len());
        if real > 0 {
            let at = r * self.cols + j0;
            out[..real].copy_from_slice(&self.data[at..at + real]);
        }
        for (j, o) in (j0 + real..).zip(&mut out[real..]) {
            *o = if self.ones && j == self.cols {
                1.0
            } else {
                0.0
            };
        }
    }
}

/// `c = aᵀb` for `a` (`m × ka`) and `b` (`m × nb`), `c` row-major
/// `ka × nb`. Without `b` it is the Gram matrix `aᵀa`, of which only the
/// tiles that touch the upper triangle are computed (the rest of `c` is
/// left `0.0`), and `a`'s columns are read from `b`'s packed panels.
///
/// Each pass packs [`CHUNK_ROWS`] rows of `b` into [`NR`]-wide column
/// panels, then sweeps every [`MR`] × [`NR`] tile of `c` over them with
/// the tile held in locals, reloading it from `c` between passes. So every
/// entry is `+0.0` plus `a[r][i]·b[r][j]` over ascending `r`, whatever the
/// tile shape, chunk length or thread count. The threads split the rows
/// of `c` in whole tiles of near-equal work ([`span_ends`]), and each
/// packs its own panels.
fn atb(exec: &Executor, a: Operand<'_>, b: Option<Operand<'_>>, m: usize, c: &mut [f64]) {
    let upper = b.is_none();
    let b = b.unwrap_or(a);
    let nb = b.width();
    let ends = span_ends(a.width(), nb, upper, exec.threads());
    let panels = nb.div_ceil(NR);
    exec.for_each_row_span(c, nb, &ends, |first, span| {
        span.fill(0.0);
        let rows = span.len() / nb;
        // panels left of the span's first row hold only lower-triangle tiles
        let q0 = if upper { first / NR } else { 0 };
        let mut pack = Vec::with_capacity(CHUNK_ROWS.min(m) * (panels - q0) * NR);
        let mut a_rows = vec![[0.0; MR]; CHUNK_ROWS.min(m)];
        for r0 in (0..m).step_by(CHUNK_ROWS) {
            let h = CHUNK_ROWS.min(m - r0);
            let finite = pack_panels(b, r0..r0 + h, q0..panels, &mut pack);
            let (pack, _) = pack.as_chunks::<NR>();
            for i0 in (0..rows).step_by(MR) {
                let mr = MR.min(rows - i0);
                let q_lo = if upper { (first + i0) / NR } else { 0 };
                if upper {
                    // MR divides NR and the span starts on a whole tile,
                    // so the tile's columns sit inside one panel
                    let at = (first + i0) % NR;
                    let panel = &pack[(q_lo - q0) * h..(q_lo - q0 + 1) * h];
                    for (dst, src) in a_rows[..h].iter_mut().zip(panel) {
                        dst.copy_from_slice(&src[at..at + MR]);
                    }
                } else {
                    for (r, dst) in a_rows[..h].iter_mut().enumerate() {
                        a.read(r0 + r, first + i0, dst);
                    }
                }
                for q in q_lo..panels {
                    let j0 = q * NR;
                    let nr = NR.min(nb - j0);
                    let mut acc = [[0.0; NR]; MR];
                    for (t, row) in acc.iter_mut().enumerate().take(mr) {
                        let at = (i0 + t) * nb + j0;
                        row[..nr].copy_from_slice(&span[at..at + nr]);
                    }
                    let b_rows = &pack[(q - q0) * h..(q - q0 + 1) * h];
                    if finite {
                        tile::<false>(&a_rows[..h], b_rows, &mut acc);
                    } else {
                        tile::<true>(&a_rows[..h], b_rows, &mut acc);
                    }
                    for (t, row) in acc.iter().enumerate().take(mr) {
                        let at = (i0 + t) * nb + j0;
                        span[at..at + nr].copy_from_slice(&row[..nr]);
                    }
                }
            }
        }
    });
}

/// Where [`atb`]'s `parts` thread spans over the `rows` rows of its
/// `rows × nb` output end: whole [`MR`]-row tiles, cut where the work done
/// reaches each `1/parts` share. A tile row sweeps every column from its
/// own panel on in the Gram (`upper`), so the upper triangle's first half
/// of rows holds about ¾ of the work; otherwise every tile row sweeps all
/// `nb` columns. One part is one span of every row.
fn span_ends(rows: usize, nb: usize, upper: bool, parts: usize) -> Vec<usize> {
    let tiles = rows.div_ceil(MR);
    let work = |t: usize| if upper { nb - t * MR / NR * NR } else { nb };
    let total: usize = (0..tiles).map(work).sum();
    let mut ends = Vec::with_capacity(parts);
    let mut done = 0;
    for t in 0..tiles.saturating_sub(1) {
        done += work(t);
        if ends.len() + 1 < parts && done * parts >= total * (ends.len() + 1) {
            ends.push((t + 1) * MR);
        }
    }
    ends.push(rows);
    ends
}

/// Pack rows `rows` of `b`'s column panels `panels` into `pack`, panel
/// after panel, `NR` values per row; reports whether every packed value is
/// finite.
fn pack_panels(
    b: Operand<'_>,
    rows: std::ops::Range<usize>,
    panels: std::ops::Range<usize>,
    pack: &mut Vec<f64>,
) -> bool {
    pack.clear();
    for q in panels {
        for r in rows.clone() {
            let at = pack.len();
            pack.resize(at + NR, 0.0);
            b.read(r, q * NR, &mut pack[at..]);
        }
    }
    pack.iter().all(|v| v.is_finite())
}

/// `acc[t][u] += a[r][t] * b[r][u]` for every row `r`, in order.
///
/// `SKIP` skips the products of `a[r][t] == 0.0`, as the historical loops
/// do. When every `b` value is finite each skipped product is `±0.0`, and
/// adding it is a no-op: an accumulator that starts at `+0.0` never
/// becomes `-0.0` (in round-to-nearest, `x + y` is `-0.0` only when both
/// are), and `x + ±0.0 = x` for every other `x`, NaN included. So the
/// skip-free instantiation is bitwise the same there, and `SKIP` is
/// needed only for panels holding an infinity or NaN, where `0 · ∞` would
/// be NaN.
#[inline(always)]
fn tile<const SKIP: bool>(a: &[[f64; MR]], b: &[[f64; NR]], acc: &mut [[f64; NR]; MR]) {
    let mut c = *acc;
    for (ar, br) in a.iter().zip(b) {
        for (ct, &at) in c.iter_mut().zip(ar) {
            if SKIP && at == 0.0 {
                continue;
            }
            for (cv, &bv) in ct.iter_mut().zip(br) {
                *cv += at * bv;
            }
        }
    }
    *acc = c;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(a: &[f64], m: usize, k: usize, b: &[f64], n: usize) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn mat(m: usize, n: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-random fill with some exact zeros so the
        // zero-skip paths are exercised.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..m * n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = (state % 2000) as f64 / 100.0 - 10.0;
                if state.is_multiple_of(11) {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    /// The historical row-block outer-product loop of [`gemm_transa`],
    /// kept as the bitwise oracle for the tile kernel.
    fn gemm_transa_oracle(
        exec: &Executor,
        a: &[f64],
        m: usize,
        k: usize,
        b: &[f64],
        n: usize,
        c: &mut [f64],
    ) {
        exec.for_each_row_block(c, n.max(1), |first, block| {
            block.fill(0.0);
            for r in 0..m {
                let arow = &a[r * k..(r + 1) * k];
                let brow = &b[r * n..(r + 1) * n];
                for (off, crow) in block.chunks_mut(n.max(1)).enumerate() {
                    let ari = arow[first + off];
                    if ari == 0.0 {
                        continue;
                    }
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += ari * bv;
                    }
                }
            }
        });
    }

    /// The historical row-block loop of [`gram`], kept as the bitwise
    /// oracle for the tile kernel.
    fn gram_oracle(exec: &Executor, a: &[f64], m: usize, n: usize, g: &mut [f64]) {
        exec.for_each_row_block(g, n.max(1), |first, block| {
            block.fill(0.0);
            for r in 0..m {
                let arow = &a[r * n..(r + 1) * n];
                for (off, grow) in block.chunks_mut(n.max(1)).enumerate() {
                    let i = first + off;
                    let ari = arow[i];
                    if ari == 0.0 {
                        continue;
                    }
                    for (gv, &av) in grow[i..].iter_mut().zip(&arow[i..]) {
                        *gv += ari * av;
                    }
                }
            }
        });
        mirror_upper(g, n);
    }

    /// `[a | 1]` materialized, for the oracles.
    fn with_ones(a: &[f64], m: usize, k: usize) -> Vec<f64> {
        (0..m)
            .flat_map(|r| a[r * k..(r + 1) * k].iter().copied().chain([1.0]))
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// xorshift64 stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// An `m x n` matrix with random signs and magnitudes across ±40
    /// binary orders, stored `±0.0` entries, all-zero rows, and — when
    /// `poison` — a few `±inf`/NaN entries, each in its own row chunk.
    fn rough(m: usize, n: usize, seed: u64, poison: bool) -> Vec<f64> {
        let mut next = stream(seed);
        let mut a: Vec<f64> = (0..m * n)
            .map(|_| {
                let u = next();
                match u % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => {
                        let mant = (u >> 11) as f64 / (1u64 << 53) as f64 + 0.5;
                        let sign = if u & 1 == 0 { 1.0 } else { -1.0 };
                        sign * mant * 2f64.powi((u >> 3) as i32 % 81 - 40)
                    }
                }
            })
            .collect();
        for r in 0..m {
            if next().is_multiple_of(9) {
                a[r * n..(r + 1) * n].fill(if r % 2 == 0 { 0.0 } else { -0.0 });
            }
        }
        if poison && m > 0 && n > 0 {
            for (c, bad) in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN]
                .into_iter()
                .enumerate()
            {
                let r = (c * CHUNK_ROWS + next() as usize % CHUNK_ROWS).min(m - 1);
                a[r * n + next() as usize % n] = bad;
            }
        }
        a
    }

    #[test]
    fn tile_kernels_are_bitwise_the_historical_loops() {
        let mut next = stream(41);
        let executors = [1usize, 2, 3, 4].map(Executor::threaded);
        let oracle = Executor::serial();
        for case in 0..48u64 {
            // every fourth case spans more than two row chunks and ends in
            // a ragged one; widths are ragged against MR and NR
            let m = match case % 4 {
                0 => 2 * CHUNK_ROWS + 1 + next() as usize % CHUNK_ROWS,
                1 => next() as usize % 3,
                _ => 1 + next() as usize % (CHUNK_ROWS + 40),
            };
            let (k, n) = (next() as usize % 23, 1 + next() as usize % 21);
            let poison = case % 3 == 0;
            let a = rough(m, k, 2 * case + 1, poison);
            let b = rough(m, n, 2 * case + 2, poison && case % 2 == 0);
            let ka = with_ones(&a, m, k);

            let mut want_g = vec![0.0; k * k];
            gram_oracle(&oracle, &a, m, k, &mut want_g);
            let mut want_ga = vec![0.0; (k + 1) * (k + 1)];
            gram_oracle(&oracle, &ka, m, k + 1, &mut want_ga);
            let mut want_c = vec![0.0; k * n];
            gemm_transa_oracle(&oracle, &a, m, k, &b, n, &mut want_c);
            let mut want_ca = vec![0.0; (k + 1) * n];
            gemm_transa_oracle(&oracle, &ka, m, k + 1, &b, n, &mut want_ca);

            for exec in &executors {
                let what = format!("case {case}: m={m} k={k} n={n}, {} threads", exec.threads());
                let mut g = vec![f64::NAN; k * k];
                gram(exec, &a, m, k, &mut g);
                assert_eq!(bits(&g), bits(&want_g), "gram, {what}");
                let mut ga = vec![f64::NAN; (k + 1) * (k + 1)];
                gram_augmented(exec, &a, m, k, &mut ga);
                assert_eq!(bits(&ga), bits(&want_ga), "gram_augmented, {what}");
                let mut c = vec![f64::NAN; k * n];
                gemm_transa(exec, &a, m, k, &b, n, &mut c);
                assert_eq!(bits(&c), bits(&want_c), "gemm_transa, {what}");
                let mut ca = vec![f64::NAN; (k + 1) * n];
                gemm_transa_augmented(exec, &a, m, k, &b, n, &mut ca);
                assert_eq!(bits(&ca), bits(&want_ca), "gemm_transa_augmented, {what}");
            }
        }
    }

    #[test]
    fn gram_spans_are_whole_tiles_of_near_equal_work() {
        // the columns one tile row sweeps: the Gram's from its own panel on
        let swept = |i: usize, nb: usize, upper: bool| if upper { nb - i / NR * NR } else { nb };
        for (rows, parts) in [
            (500, 2),
            (1025, 3),
            (1000, 4),
            (19, 4),
            (3, 4),
            (1, 2),
            (64, 1),
        ] {
            for upper in [true, false] {
                let ends = span_ends(rows, rows, upper, parts);
                let what = format!("{rows} rows, {parts} parts, upper {upper}: {ends:?}");
                assert_eq!(ends.last(), Some(&rows), "{what}");
                assert!(ends.len() <= parts, "{what}");
                assert!(ends.windows(2).all(|w| w[0] < w[1]), "{what}");
                assert!(ends[..ends.len() - 1].iter().all(|e| e % MR == 0), "{what}");
                let work = |r: std::ops::Range<usize>| -> usize {
                    r.step_by(MR).map(|i| swept(i, rows, upper)).sum()
                };
                let total = work(0..rows);
                let mut first = 0;
                for &end in &ends {
                    // each span is within one tile row of its share
                    let share = total / ends.len();
                    assert!(work(first..end).abs_diff(share) <= rows, "{what}");
                    first = end;
                }
                if rows.div_ceil(MR) >= parts {
                    assert_eq!(ends.len(), parts, "{what}");
                }
            }
        }
        // the Gram's first half of rows holds about three quarters of the
        // work, so its first span is well short of half the rows
        let ends = span_ends(1000, 1000, true, 2);
        assert!((280..300).contains(&ends[0]), "{ends:?}");
        assert_eq!(span_ends(1000, 1000, false, 2), [500, 1000]);
    }

    #[test]
    fn skipping_zero_products_matters_only_next_to_non_finite_values() {
        // 0 · inf is NaN: the historical loops skip a[r][i] == 0.0, and
        // the tile kernel must too wherever the other factor is not finite
        let (m, k, n) = (3, 2, 2);
        let a = [0.0, 1.0, -0.0, 2.0, 0.0, 3.0];
        let b = [f64::INFINITY, 1.0, 2.0, f64::NAN, 4.0, 5.0];
        let mut want = vec![0.0; k * n];
        gemm_transa_oracle(&Executor::serial(), &a, m, k, &b, n, &mut want);
        assert_eq!(&want[..2], &[0.0, 0.0]);
        let mut c = vec![0.0; k * n];
        gemm_transa(&Executor::serial(), &a, m, k, &b, n, &mut c);
        assert_eq!(bits(&c), bits(&want));
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn gemm_matches_naive_and_is_backend_invariant() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 9, 13), (70, 65, 67)] {
            let a = mat(m, k, 1);
            let b = mat(k, n, 2);
            let naive = naive_gemm(&a, m, k, &b, n);
            let mut serial = vec![0.0; m * n];
            gemm(&Executor::serial(), &a, m, k, &b, n, &mut serial);
            assert_close(&serial, &naive, 1e-12);
            for &t in &[2usize, 4, 100] {
                let mut th = vec![0.0; m * n];
                gemm(&Executor::threaded(t), &a, m, k, &b, n, &mut th);
                assert_eq!(serial, th, "m={m} k={k} n={n} t={t}");
            }
        }
    }

    #[test]
    fn transposed_products_match_naive() {
        let (m, k, n) = (23, 11, 17);
        let a = mat(m, k, 3);
        let b = mat(m, n, 4);
        let mut c = vec![0.0; k * n];
        gemm_transa(&Executor::threaded(3), &a, m, k, &b, n, &mut c);
        let mut naive = vec![0.0; k * n];
        for r in 0..m {
            for i in 0..k {
                for j in 0..n {
                    naive[i * n + j] += a[r * k + i] * b[r * n + j];
                }
            }
        }
        assert_close(&c, &naive, 1e-12);

        let bt = mat(n, k, 5);
        let mut c2 = vec![0.0; m * n];
        gemm_transb(&Executor::threaded(3), &a, m, k, &bt, n, &mut c2);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i * k + p] * bt[j * k + p];
                }
                assert!((c2[i * n + j] - acc).abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn gram_kernels_match_naive_and_are_symmetric() {
        let (m, n) = (29, 21);
        let a = mat(m, n, 6);
        let mut g = vec![0.0; n * n];
        gram(&Executor::threaded(4), &a, m, n, &mut g);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for r in 0..m {
                    acc += a[r * n + i] * a[r * n + j];
                }
                assert!((g[i * n + j] - acc).abs() <= 1e-10, "({i},{j})");
                assert_eq!(g[i * n + j], g[j * n + i]);
            }
        }
        let mut gt = vec![0.0; m * m];
        gram_t(&Executor::threaded(4), &a, m, n, &mut gt);
        for i in 0..m {
            for j in 0..m {
                let mut acc = 0.0;
                for p in 0..n {
                    acc += a[i * n + p] * a[j * n + p];
                }
                assert!((gt[i * m + j] - acc).abs() <= 1e-10, "({i},{j})");
                assert_eq!(gt[i * m + j], gt[j * m + i]);
            }
        }
    }

    #[test]
    fn matvec_pair_matches_naive_across_reduce_blocks() {
        // m spans one and several REDUCE_BLOCK_ROWS blocks.
        for &m in &[7usize, 1024, 1025, 2600] {
            let n = 19;
            let a = mat(m, n, 7);
            let x = mat(n, 1, 8);
            let xt = mat(m, 1, 9);
            let mut y = vec![0.0; m];
            matvec(&Executor::threaded(4), &a, m, n, &x, &mut y);
            for i in 0..m {
                let mut acc = 0.0;
                for j in 0..n {
                    acc += a[i * n + j] * x[j];
                }
                assert!((y[i] - acc).abs() <= 1e-9 * acc.abs().max(1.0));
            }
            let mut yt_serial = vec![0.0; n];
            matvec_t(&Executor::serial(), &a, m, n, &xt, &mut yt_serial);
            let mut naive = vec![0.0; n];
            for i in 0..m {
                for j in 0..n {
                    naive[j] += xt[i] * a[i * n + j];
                }
            }
            assert_close(&yt_serial, &naive, 1e-7);
            for &t in &[2usize, 3, 8, 5000] {
                let mut yt = vec![0.0; n];
                matvec_t(&Executor::threaded(t), &a, m, n, &xt, &mut yt);
                assert_eq!(yt_serial, yt, "m={m} t={t}");
            }
        }
    }
}
