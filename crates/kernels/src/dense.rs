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
//! sweeps tiles of the output over them, the tile held in locals and
//! reloaded from the output between passes, so every entry keeps the
//! historical ascending-row sum. The threads split the output rows in
//! whole 4-row steps of near-equal work. The other kernels work in row
//! panels of 64 rows (the crate's row-block constant).
//!
//! The tile kernel has two instantiations, and the first call picks one
//! for the life of the process ([`tile_isa`]):
//!
//! * **AVX2**, when `is_x86_feature_detected!("avx2")` reports it: 4 × 8
//!   tiles, compiled with `#[target_feature(enable = "avx2")]`, whose 32
//!   sums fill eight 256-bit accumulators.
//! * **Baseline**, on every other CPU: 2 × 8 tiles at the build's target
//!   (SSE2 on x86-64), eight 128-bit accumulators. A 4 × 8 tile there
//!   would spill, and a 2 × 8 tile on AVX2 leaves its adds latency-bound.
//!
//! The two give the same bits. The tile shape never changes which
//! products an entry sums or in what order, and each lane of a vector
//! multiply or add is one IEEE-754 operation, rounded as the scalar one
//! would be. `fma` is not enabled, and Rust never contracts `a * b + c`
//! into a fused multiply-add, so no product skips its rounding. The one
//! caveat is Rust's: a NaN sum's sign and payload are unspecified, so when
//! both operands are NaN either may survive. The dispatch module is the
//! crate's only `unsafe` code: one call of the AVX2 instantiation, right
//! after the feature check.

use crate::Executor;
use std::ops::Range;

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
    gemm_tiles(exec, &RowMajor { a, k }, k, b, n, c);
}

/// [`gemm`] with a symmetric `k x k` left operand stored as LAPACK's
/// `uplo = 'U'`: `a[i][p]` is `upper[i][p]` for `p > i`, `upper[p][i]`
/// for `p < i` and `diag[i]` on the diagonal, so neither the diagonal nor
/// the strict lower triangle of `upper` is read. Each `c[i][j]` is bitwise
/// the [`gemm`] entry of the full symmetric matrix: every row block meets
/// its rows one tile of the shared dimension at a time, as in [`gemm`].
/// A tile wholly right of the diagonal is read in place; any other is
/// first copied out of `upper` row by row, the part left of the diagonal
/// transposed on the way.
pub fn gemm_sym_upper(
    exec: &Executor,
    upper: &[f64],
    diag: &[f64],
    b: &[f64],
    n: usize,
    c: &mut [f64],
) {
    exec.note_kernel("kernel.dense.gemm");
    let k = diag.len();
    debug_assert_eq!(upper.len(), k * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), k * n);
    gemm_tiles(exec, &SymUpper { upper, diag }, k, b, n, c);
}

/// Tiles of a left operand of [`gemm_tiles`].
trait LeftTiles: Sync {
    /// Rows `rows` × columns `cols` of the operand, row-major, and its row
    /// stride: borrowed in place or copied into `scratch`.
    fn tile<'s>(
        &'s self,
        rows: Range<usize>,
        cols: Range<usize>,
        scratch: &'s mut Vec<f64>,
    ) -> (&'s [f64], usize);
}

/// A row-major matrix with `k` columns.
struct RowMajor<'a> {
    a: &'a [f64],
    k: usize,
}

impl LeftTiles for RowMajor<'_> {
    fn tile<'s>(
        &'s self,
        rows: Range<usize>,
        cols: Range<usize>,
        _: &'s mut Vec<f64>,
    ) -> (&'s [f64], usize) {
        (&self.a[rows.start * self.k + cols.start..], self.k)
    }
}

/// The symmetric matrix of [`gemm_sym_upper`].
struct SymUpper<'a> {
    upper: &'a [f64],
    diag: &'a [f64],
}

impl LeftTiles for SymUpper<'_> {
    fn tile<'s>(
        &'s self,
        rows: Range<usize>,
        cols: Range<usize>,
        scratch: &'s mut Vec<f64>,
    ) -> (&'s [f64], usize) {
        let (n, w) = (self.diag.len(), cols.len());
        if cols.start >= rows.end {
            // wholly right of the diagonal: a[i][p] = upper[i][p] in place
            return (&self.upper[rows.start * n + cols.start..], n);
        }
        scratch.resize(rows.len() * w, 0.0);
        // a[i][p] = upper[p][i] left of the diagonal: row p of `upper`
        // read contiguously and written down column p of the tile
        for p in cols.clone() {
            let below = rows.start.max(p + 1)..rows.end;
            let src = self.upper[p * n..(p + 1) * n]
                .get(below.clone())
                .unwrap_or(&[]);
            for (i, &v) in below.zip(src) {
                scratch[(i - rows.start) * w + p - cols.start] = v;
            }
        }
        // the diagonal and a[i][p] = upper[i][p] right of it
        for i in rows.clone() {
            let row = &mut scratch[(i - rows.start) * w..(i - rows.start + 1) * w];
            if cols.contains(&i) {
                row[i - cols.start] = self.diag[i];
            }
            let from = cols.start.max(i + 1);
            if from < cols.end {
                row[from - cols.start..]
                    .copy_from_slice(&self.upper[i * n + from..i * n + cols.end]);
            }
        }
        (scratch, w)
    }
}

/// The loop of [`gemm`] over any [`LeftTiles`] with `k` columns.
fn gemm_tiles(exec: &Executor, a: &impl LeftTiles, k: usize, b: &[f64], n: usize, c: &mut [f64]) {
    exec.for_each_row_block(c, n.max(1), |first, block| {
        block.fill(0.0);
        let rows = first..first + block.len() / n.max(1);
        let mut scratch = Vec::new();
        let mut pt = 0;
        while pt < k {
            let pe = (pt + GEMM_P_TILE).min(k);
            let (tile, stride) = a.tile(rows.clone(), pt..pe, &mut scratch);
            for (r, crow) in block.chunks_mut(n.max(1)).enumerate() {
                let seg = &tile[r * stride..r * stride + pe - pt];
                for (p, &aip) in (pt..pe).zip(seg) {
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
    atb(
        exec,
        Operand::plain(a, k),
        Some(Operand::plain(b, n)),
        m,
        c,
        TilePath::Host,
    );
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
        TilePath::Host,
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
    atb(exec, Operand::plain(a, n), None, m, g, TilePath::Host);
    mirror_upper(g, n);
}

/// The upper triangle, diagonal included, of the Gram matrix of the
/// bias-augmented `[a | 1]`: `g` is `(n + 1) x (n + 1)`, and its strict
/// lower triangle is left unspecified. Bitwise the upper triangle of
/// [`gram`] of the materialized `[a | 1]`, without building it.
pub fn gram_augmented_upper(exec: &Executor, a: &[f64], m: usize, n: usize, g: &mut [f64]) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(g.len(), (n + 1) * (n + 1));
    exec.note_kernel("kernel.dense.gram");
    atb(exec, Operand::augmented(a, n), None, m, g, TilePath::Host);
}

/// Outer Gram matrix `g = a * a^T` where `a` is `m x n`, `g` is `m x m`:
/// [`gram_t_upper`] with the lower triangle mirrored afterwards.
pub fn gram_t(exec: &Executor, a: &[f64], m: usize, n: usize, g: &mut [f64]) {
    gram_t_upper(exec, a, m, n, g);
    mirror_upper(g, m);
}

/// The upper triangle, diagonal included, of the outer Gram matrix
/// `a * a^T`; the strict lower triangle of `g` is not written.
///
/// Row-block-parallel over the upper triangle; each element is a
/// single-accumulator dot product of two data rows (the historical
/// order).
pub fn gram_t_upper(exec: &Executor, a: &[f64], m: usize, n: usize, g: &mut [f64]) {
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
pub fn mirror_upper(g: &mut [f64], n: usize) {
    for i in 1..n {
        for j in 0..i {
            g[i * n + j] = g[j * n + i];
        }
    }
}

/// Rows of the shared dimension packed per pass of [`atb`].
const CHUNK_ROWS: usize = 256;
/// Columns of `c` in one register tile: the width of a packed panel.
const NR: usize = 8;
/// Rows of `c` in one register tile of the baseline instantiation.
const MR_BASELINE: usize = 2;
/// Rows of `c` in one register tile of the AVX2 instantiation.
const MR_AVX2: usize = 4;
/// Thread spans of [`atb`] start on multiples of this many rows: the
/// larger tile height, so both instantiations share one span plan.
const SPAN_ROWS: usize = MR_AVX2;

/// Which instantiation of [`atb`]'s register tile may run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TilePath {
    /// The 2 × 8 tile at the build's baseline instruction set, which only
    /// the tests force on a CPU with AVX2.
    #[cfg_attr(not(test), allow(dead_code))]
    Baseline,
    /// The widest instantiation this CPU runs: the 4 × 8 AVX2 tile when
    /// the CPU has AVX2, else the baseline.
    Host,
}

/// The instantiation of the register-tile kernel behind [`gram`],
/// [`gram_augmented_upper`], [`gemm_transa`] and
/// [`gemm_transa_augmented`] on this CPU: `"avx2"` or `"baseline"`.
pub fn tile_isa() -> &'static str {
    if dispatch::has_avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

/// The run-time choice between the two instantiations of [`atb`]'s span
/// kernel: the crate's one `unsafe` call.
#[allow(unsafe_code)]
mod dispatch {
    use super::{Atb, TilePath, MR_BASELINE};

    /// Whether this CPU runs AVX2, detected on the first call.
    pub(super) fn has_avx2() -> bool {
        static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX2.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx2") {
                return true;
            }
            false
        })
    }

    /// [`Atb::span`] on `path`'s instantiation.
    pub(super) fn span(path: TilePath, job: &Atb<'_>, first: usize, out: &mut [f64]) {
        match path {
            #[cfg(target_arch = "x86_64")]
            TilePath::Host if has_avx2() => {
                // SAFETY: `span_avx2` requires only the `avx2` target
                // feature, and `has_avx2` has just seen
                // `is_x86_feature_detected!("avx2")` report it on this CPU.
                unsafe { span_avx2(job, first, out) }
            }
            _ => job.span::<MR_BASELINE>(first, out),
        }
    }

    /// [`Atb::span`] with the 4 × 8 tile, compiled for AVX2: eight `ymm`
    /// accumulators. `fma` stays off, and Rust never contracts a multiply
    /// and an add, so each product and sum is still one IEEE operation.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn span_avx2(job: &Atb<'_>, first: usize, out: &mut [f64]) {
        job.span::<{ super::MR_AVX2 }>(first, out);
    }
}

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
/// The threads split the rows of `c` at [`span_ends`], and each span runs
/// [`Atb::span`] on the tile `path` picks (module docs).
fn atb(
    exec: &Executor,
    a: Operand<'_>,
    b: Option<Operand<'_>>,
    m: usize,
    c: &mut [f64],
    path: TilePath,
) {
    let upper = b.is_none();
    let job = Atb {
        a,
        b: b.unwrap_or(a),
        m,
        upper,
    };
    let nb = job.b.width();
    let ends = span_ends(a.width(), nb, upper, exec.threads());
    exec.for_each_row_span(c, nb, &ends, |first, span| {
        dispatch::span(path, &job, first, span);
    });
}

/// One [`atb`] product, shared by its thread spans.
struct Atb<'a> {
    a: Operand<'a>,
    b: Operand<'a>,
    m: usize,
    upper: bool,
}

impl Atb<'_> {
    /// Rows `first..` of `c` into `span`, in `MR` × [`NR`] tiles.
    ///
    /// Each pass packs [`CHUNK_ROWS`] rows of `b` into `NR`-wide column
    /// panels, then sweeps every tile of the span over them with the tile
    /// held in locals, reloading it from `span` between passes. So every
    /// entry is `+0.0` plus `a[r][i]·b[r][j]` over ascending `r`, whatever
    /// the tile shape, chunk length or span.
    #[inline(always)]
    fn span<const MR: usize>(&self, first: usize, span: &mut [f64]) {
        // A span starts on a whole span step and a tile on a whole tile of
        // it, so a Gram tile's `MR` columns sit inside one packed panel.
        const {
            assert!(NR.is_multiple_of(MR) && SPAN_ROWS.is_multiple_of(MR));
        }
        debug_assert!(first.is_multiple_of(SPAN_ROWS));
        let Atb { a, b, m, upper } = *self;
        let nb = b.width();
        let panels = nb.div_ceil(NR);
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
                        tile::<MR, false>(&a_rows[..h], b_rows, &mut acc);
                    } else {
                        tile::<MR, true>(&a_rows[..h], b_rows, &mut acc);
                    }
                    for (t, row) in acc.iter().enumerate().take(mr) {
                        let at = (i0 + t) * nb + j0;
                        span[at..at + nr].copy_from_slice(&row[..nr]);
                    }
                }
            }
        }
    }
}

/// Where [`atb`]'s `parts` thread spans over the `rows` rows of its
/// `rows × nb` output end: whole [`SPAN_ROWS`] steps, cut where the work
/// done reaches each `1/parts` share. A tile row sweeps every column from
/// its own panel on in the Gram (`upper`), so the upper triangle's first
/// half of rows holds about ¾ of the work; otherwise every tile row sweeps
/// all `nb` columns. One part is one span of every row.
fn span_ends(rows: usize, nb: usize, upper: bool, parts: usize) -> Vec<usize> {
    // a step's rows share one panel, so they sweep the same columns
    const { assert!(NR.is_multiple_of(SPAN_ROWS)) };
    let steps = rows.div_ceil(SPAN_ROWS);
    let work = |t: usize| {
        if upper {
            nb - t * SPAN_ROWS / NR * NR
        } else {
            nb
        }
    };
    let total: usize = (0..steps).map(work).sum();
    let mut ends = Vec::with_capacity(parts);
    let mut done = 0;
    for t in 0..steps.saturating_sub(1) {
        done += work(t);
        if ends.len() + 1 < parts && done * parts >= total * (ends.len() + 1) {
            ends.push((t + 1) * SPAN_ROWS);
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
    rows: Range<usize>,
    panels: Range<usize>,
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
fn tile<const MR: usize, const SKIP: bool>(
    a: &[[f64; MR]],
    b: &[[f64; NR]],
    acc: &mut [[f64; NR]; MR],
) {
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

    /// The bit patterns of `v`, every NaN as one: Rust leaves the sign and
    /// payload of a NaN that arithmetic returns unspecified, and the
    /// optimizer may commute `acc + a·b`, so when both operands are NaN
    /// which one survives can differ between two instantiations of the
    /// same loop (the 2 × 8 tile already differs from the historical loop
    /// there). Every other bit, and where the NaNs are, must match.
    fn value_bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
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
                gram_augmented_upper(exec, &a, m, k, &mut ga);
                mirror_upper(&mut ga, k + 1);
                assert_eq!(bits(&ga), bits(&want_ga), "gram_augmented_upper, {what}");
                let mut c = vec![f64::NAN; k * n];
                gemm_transa(exec, &a, m, k, &b, n, &mut c);
                assert_eq!(bits(&c), bits(&want_c), "gemm_transa, {what}");
                let mut ca = vec![f64::NAN; (k + 1) * n];
                gemm_transa_augmented(exec, &a, m, k, &b, n, &mut ca);
                assert_eq!(bits(&ca), bits(&want_ca), "gemm_transa_augmented, {what}");
            }
        }
    }

    /// The products of the four entry points on `path`, through [`atb`]
    /// with the operands each one passes: [`gram`] and
    /// [`gram_augmented_upper`] (both mirrored), [`gemm_transa`] and
    /// [`gemm_transa_augmented`].
    fn entry_products(
        exec: &Executor,
        path: TilePath,
        a: &[f64],
        m: usize,
        k: usize,
        b: &[f64],
        n: usize,
    ) -> [Vec<f64>; 4] {
        let (x, xa, y) = (
            Operand::plain(a, k),
            Operand::augmented(a, k),
            Operand::plain(b, n),
        );
        let mut g = vec![f64::NAN; k * k];
        atb(exec, x, None, m, &mut g, path);
        mirror_upper(&mut g, k);
        let mut ga = vec![f64::NAN; (k + 1) * (k + 1)];
        atb(exec, xa, None, m, &mut ga, path);
        mirror_upper(&mut ga, k + 1);
        let mut c = vec![f64::NAN; k * n];
        atb(exec, x, Some(y), m, &mut c, path);
        let mut ca = vec![f64::NAN; (k + 1) * n];
        atb(exec, xa, Some(y), m, &mut ca, path);
        [g, ga, c, ca]
    }

    #[test]
    fn host_tile_is_bitwise_the_baseline_tile() {
        if !dispatch::has_avx2() {
            eprintln!("no AVX2 on this CPU: the wide tile path was not exercised");
        }
        let oracle = Executor::serial();
        let names = [
            "gram",
            "gram_augmented_upper",
            "gemm_transa",
            "gemm_transa_augmented",
        ];
        let mut case = 0;
        // m across the 256-row chunk; output heights k and k + 1 leave
        // remainders against both tile heights, and every width is ragged
        // against NR
        for m in [255, 256, 257, 700] {
            for (k, n) in [(13, 19), (10, 6), (34, 11)] {
                for poison in [false, true] {
                    case += 1;
                    let a = rough(m, k, 3 * case, poison);
                    let b = rough(m, n, 3 * case + 1, poison);
                    let ka = with_ones(&a, m, k);
                    let mut want = [
                        vec![0.0; k * k],
                        vec![0.0; (k + 1) * (k + 1)],
                        vec![0.0; k * n],
                        vec![0.0; (k + 1) * n],
                    ];
                    gram_oracle(&oracle, &a, m, k, &mut want[0]);
                    gram_oracle(&oracle, &ka, m, k + 1, &mut want[1]);
                    gemm_transa_oracle(&oracle, &a, m, k, &b, n, &mut want[2]);
                    gemm_transa_oracle(&oracle, &ka, m, k + 1, &b, n, &mut want[3]);
                    for threads in [1, 3] {
                        let exec = Executor::threaded(threads);
                        let host = entry_products(&exec, TilePath::Host, &a, m, k, &b, n);
                        let base = entry_products(&exec, TilePath::Baseline, &a, m, k, &b, n);
                        for (i, name) in names.iter().enumerate() {
                            let what = format!(
                                "{name}: m={m} k={k} n={n}, poison {poison}, {threads} threads"
                            );
                            let base_bits = value_bits(&base[i]);
                            assert_eq!(base_bits, value_bits(&want[i]), "baseline, {what}");
                            assert_eq!(value_bits(&host[i]), base_bits, "host, {what}");
                        }
                    }
                }
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
                assert!(
                    ends[..ends.len() - 1].iter().all(|e| e % SPAN_ROWS == 0),
                    "{what}"
                );
                let work = |r: std::ops::Range<usize>| -> usize {
                    r.step_by(SPAN_ROWS).map(|i| swept(i, rows, upper)).sum()
                };
                let total = work(0..rows);
                let mut first = 0;
                for &end in &ends {
                    // each span is within one span step of its share
                    let share = total / ends.len();
                    assert!(work(first..end).abs_diff(share) <= rows, "{what}");
                    first = end;
                }
                if rows.div_ceil(SPAN_ROWS) >= parts {
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
    fn symmetric_upper_gemm_is_bitwise_the_full_gemm() {
        // sizes straddling the shared-dimension tile and the row block
        for (case, &(k, n)) in [(0, 3), (1, 1), (9, 4), (64, 5), (65, 2), (131, 7)]
            .iter()
            .enumerate()
        {
            let case = case as u64;
            let full = {
                let mut g = rough(k, k, 40 + case, case % 2 == 1);
                mirror_upper(&mut g, k);
                g
            };
            let b = rough(k, n, 50 + case, false);
            let diag: Vec<f64> = (0..k).map(|i| full[i * k + i]).collect();
            // the diagonal and the strict lower triangle must not be read
            let mut upper = full.clone();
            for i in 0..k {
                upper[i * k..i * k + i + 1].fill(f64::NAN);
            }
            let mut want = vec![0.0; k * n];
            gemm(&Executor::serial(), &full, k, k, &b, n, &mut want);
            for t in [1usize, 2, 5] {
                let mut got = vec![f64::NAN; k * n];
                gemm_sym_upper(&Executor::threaded(t), &upper, &diag, &b, n, &mut got);
                assert_eq!(bits(&got), bits(&want), "k={k} n={n} t={t}");
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
