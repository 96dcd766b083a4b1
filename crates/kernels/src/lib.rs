//! Execution backend for the SRDA reproduction.
//!
//! Every hot kernel in the workspace — dense GEMM/Gram products in
//! `srda-linalg`, CSR products in `srda-sparse`, and the operator loops in
//! `srda-solvers` — routes through this crate. It provides a single
//! [`Executor`] abstraction with two backends, chosen by
//! [`ExecPolicy::n_threads`]:
//!
//! * serial (`n_threads ≤ 1`) — single-threaded, cache-blocked loops.
//! * threaded (`n_threads > 1`) — the same blocked loops fanned out over
//!   `std::thread::scope` with the output partitioned into disjoint
//!   row blocks (no locks, no unsafe).
//!
//! Determinism contract: for a fixed input, every kernel in this crate
//! produces results that are equal for any backend and any thread count.
//! Row-partitioned kernels get this for free (each output element is
//! computed by exactly one chunk, in the same per-element summation order
//! as the serial loop). Reduction kernels (`matvec_t` and its CSR twin)
//! accumulate per-block partials over a *fixed* block size
//! ([`REDUCE_BLOCK_ROWS`], independent of the thread count) and sum the
//! partials in ascending block order, so the floating-point addition
//! sequence is identical on every backend.
//!
//! The crate is deliberately dependency-free and slice-based (row-major
//! `&[f64]` plus explicit dimensions; raw CSR triples) so that both
//! `srda-linalg` and `srda-sparse` can sit on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod sparse;

pub use srda_obs::Recorder;

/// Fixed row-block size for reduction kernels (`matvec_t` and the CSR
/// equivalent). This is a *determinism* constant, not a tuning knob: the
/// partial-sum grouping must not depend on the thread count, otherwise
/// serial and threaded results would diverge in the last bits. Inputs
/// with at most this many rows take the single-block path, which is
/// bit-identical to the historical serial scatter loop.
pub const REDUCE_BLOCK_ROWS: usize = 1024;

/// Row-block granularity of [`Executor::for_each_row_block`]: the output
/// row panels of `dense::{gemm, gemm_transb, gram_t, matvec}` and
/// `sparse::{csr_matvec, csr_matmul_dense, csr_gram_t}`.
/// `dense::{gram, gemm_transa}` and their `_augmented` forms do not read
/// it: their register tiles split the output into one span per thread.
/// Purely a performance constant: results are identical for every
/// positive value.
const ROW_BLOCK: usize = 64;

/// Execution policy threaded through `SrdaConfig` and the CLI: how many
/// worker threads the kernels fan out over. One (the default) is the
/// serial backend; more than one is the threaded backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker threads; at most 1 means serial.
    pub n_threads: usize,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self { n_threads: 1 }
    }
}

impl ExecPolicy {
    /// Serial policy (the default).
    pub fn serial() -> Self {
        Self::default()
    }

    /// Threaded policy with `n_threads` workers (clamped to at least 1).
    pub fn threaded(n_threads: usize) -> Self {
        Self {
            n_threads: n_threads.max(1),
        }
    }

    /// Build a policy from the `SRDA_THREADS` environment variable.
    ///
    /// Unset, unparsable, `0`, or `1` all mean serial; `N > 1` selects the
    /// threaded backend with `N` workers. Because every kernel is
    /// deterministic across backends, flipping this variable never changes
    /// numerical results — only wall-clock time.
    pub fn from_env() -> Self {
        match std::env::var("SRDA_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 1 => Self::threaded(n),
                _ => Self::serial(),
            },
            Err(_) => Self::serial(),
        }
    }
}

/// Executes kernels according to an [`ExecPolicy`].
///
/// `Executor` is `Copy` and cheap to pass by reference; it owns no threads
/// (workers are scoped per call via `std::thread::scope`). It also carries
/// the observability [`Recorder`] handle — disabled by default, in which
/// case every instrumentation point in the kernels is a single branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Executor {
    policy: ExecPolicy,
    recorder: Recorder,
}

impl Executor {
    /// Executor for the given policy, with recording disabled.
    pub fn new(policy: ExecPolicy) -> Self {
        Self {
            policy,
            recorder: Recorder::disabled(),
        }
    }

    /// Executor for the given policy that reports kernel-call counters to
    /// `recorder`.
    pub fn with_recorder(policy: ExecPolicy, recorder: Recorder) -> Self {
        Self { policy, recorder }
    }

    /// Single-threaded executor (compatibility surface for the old
    /// free-function kernels).
    pub fn serial() -> Self {
        Self::new(ExecPolicy::serial())
    }

    /// Threaded executor with `n_threads` workers.
    pub fn threaded(n_threads: usize) -> Self {
        Self::new(ExecPolicy::threaded(n_threads))
    }

    /// Executor configured from the environment: policy from `SRDA_THREADS`
    /// (see [`ExecPolicy::from_env`]) and recorder from `SRDA_TRACE`
    /// (see [`Recorder::from_env`]).
    pub fn from_env() -> Self {
        Self::with_recorder(ExecPolicy::from_env(), Recorder::from_env())
    }

    /// The observability handle this executor reports to.
    pub fn recorder(&self) -> Recorder {
        self.recorder
    }

    /// Short backend name for telemetry (`"serial"` / `"threaded"`).
    pub fn backend_name(&self) -> &'static str {
        if self.threads() > 1 {
            "threaded"
        } else {
            "serial"
        }
    }

    /// Bump the kernel-call counter `name` by one. A single branch when
    /// recording is disabled; kernels call this once per entry, so the
    /// enabled cost (a map lookup) is amortized over a blocked sweep.
    #[inline]
    pub(crate) fn note_kernel(&self, name: &str) {
        self.recorder.add(name, 1);
    }

    /// Effective worker count: `n_threads`, and at least 1.
    pub fn threads(&self) -> usize {
        self.policy.n_threads.max(1)
    }

    /// Partition `out` (row-major, `row_width` values per row) into
    /// contiguous blocks of at most `ROW_BLOCK` (64) rows and invoke
    /// `f(first_row, block)` on each. Blocks are distributed contiguously
    /// over the worker threads; since each output row belongs to exactly
    /// one block, the result is independent of the thread count.
    pub fn for_each_row_block<F>(&self, out: &mut [f64], row_width: usize, f: F)
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        if out.is_empty() || row_width == 0 {
            return;
        }
        debug_assert_eq!(out.len() % row_width, 0);
        let rows = out.len() / row_width;
        let bs = ROW_BLOCK;
        let n_blocks = rows.div_ceil(bs);
        let t = self.threads().min(n_blocks);
        if t <= 1 {
            let mut row0 = 0;
            for block in out.chunks_mut(bs * row_width) {
                f(row0, block);
                row0 += block.len() / row_width;
            }
            return;
        }
        let base = n_blocks / t;
        let rem = n_blocks % t;
        std::thread::scope(|s| {
            let mut rest = out;
            let mut row0 = 0;
            for k in 0..t {
                let nb = base + usize::from(k < rem);
                let rows_here = (nb * bs).min(rows - row0);
                let (span, tail) = rest.split_at_mut(rows_here * row_width);
                rest = tail;
                let fref = &f;
                let first = row0;
                s.spawn(move || {
                    let mut r0 = first;
                    for block in span.chunks_mut(bs * row_width) {
                        fref(r0, block);
                        r0 += block.len() / row_width;
                    }
                });
                row0 += rows_here;
            }
        });
    }

    /// Split `out` (row-major, `row_width` values per row) at the
    /// ascending row boundaries `ends` — the last one the row count — and
    /// invoke `f(first_row, span)` on each span, one worker thread per
    /// span; a single span runs on the calling thread. Kernels whose rows
    /// cost unequal work choose the boundaries themselves (see
    /// `dense::atb`).
    pub fn for_each_row_span<F>(&self, out: &mut [f64], row_width: usize, ends: &[usize], f: F)
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        debug_assert_eq!(ends.last().copied().unwrap_or(0) * row_width, out.len());
        if out.is_empty() {
            return;
        }
        if let [_] = ends {
            f(0, out);
            return;
        }
        std::thread::scope(|s| {
            let mut rest = out;
            let mut first = 0;
            for &end in ends {
                let (span, tail) = rest.split_at_mut((end - first) * row_width);
                rest = tail;
                let fref = &f;
                s.spawn(move || fref(first, span));
                first = end;
            }
        });
    }

    /// Deterministic block reduction over `n_rows` input rows.
    ///
    /// `f(start_row, len, partial)` must *accumulate* the contribution of
    /// input rows `start_row..start_row + len` into `partial` (provided
    /// zeroed). `out` must be zeroed by the caller.
    ///
    /// Rows are grouped into fixed blocks of [`REDUCE_BLOCK_ROWS`] and the
    /// per-block partials are summed into `out` in ascending block order —
    /// on *every* backend — so the floating-point result is identical for
    /// any thread count. With a single block (the common case for
    /// paper-sized row counts on the transpose-apply path), `f` writes
    /// straight into `out`, which reproduces the historical serial scatter
    /// loop bit-for-bit.
    pub fn reduce_row_blocks<F>(&self, n_rows: usize, out: &mut [f64], f: F)
    where
        F: Fn(usize, usize, &mut [f64]) + Sync,
    {
        if n_rows == 0 || out.is_empty() {
            return;
        }
        let n_blocks = n_rows.div_ceil(REDUCE_BLOCK_ROWS);
        if n_blocks == 1 {
            f(0, n_rows, out);
            return;
        }
        let t = self.threads().min(n_blocks);
        if t <= 1 {
            // Same partial-then-add sequence as the threaded path so the
            // two backends agree bit-for-bit.
            let mut partial = vec![0.0; out.len()];
            for b in 0..n_blocks {
                let start = b * REDUCE_BLOCK_ROWS;
                let len = REDUCE_BLOCK_ROWS.min(n_rows - start);
                partial.fill(0.0);
                f(start, len, &mut partial);
                for (o, p) in out.iter_mut().zip(&partial) {
                    *o += *p;
                }
            }
            return;
        }
        let mut partials: Vec<Vec<f64>> = Vec::new();
        partials.resize_with(n_blocks, || vec![0.0; out.len()]);
        let base = n_blocks / t;
        let rem = n_blocks % t;
        std::thread::scope(|s| {
            let mut rest: &mut [Vec<f64>] = &mut partials;
            let mut b0 = 0;
            for k in 0..t {
                let nb = base + usize::from(k < rem);
                let (span, tail) = rest.split_at_mut(nb);
                rest = tail;
                let fref = &f;
                let first = b0;
                s.spawn(move || {
                    for (off, partial) in span.iter_mut().enumerate() {
                        let b = first + off;
                        let start = b * REDUCE_BLOCK_ROWS;
                        let len = REDUCE_BLOCK_ROWS.min(n_rows - start);
                        fref(start, len, partial);
                    }
                });
                b0 += nb;
            }
        });
        for partial in &partials {
            for (o, p) in out.iter_mut().zip(partial) {
                *o += *p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_from_threads() {
        for (n, threads, name) in [(0, 1, "serial"), (1, 1, "serial"), (4, 4, "threaded")] {
            let exec = Executor::threaded(n);
            assert_eq!(exec.threads(), threads);
            assert_eq!(exec.backend_name(), name);
        }
        assert_eq!(ExecPolicy::threaded(4).n_threads, 4);
    }

    #[test]
    fn row_blocks_cover_every_row_once() {
        for &threads in &[1usize, 2, 3, 8, 33] {
            for &rows in &[1usize, 2, 7, 64, 65, 200] {
                let mut out = vec![0.0; rows * 3];
                let exec = Executor::threaded(threads);
                exec.for_each_row_block(&mut out, 3, |first, block| {
                    for (r, row) in block.chunks_mut(3).enumerate() {
                        for v in row.iter_mut() {
                            *v += (first + r) as f64 + 1.0;
                        }
                    }
                });
                for (i, row) in out.chunks(3).enumerate() {
                    assert!(row.iter().all(|&v| v == i as f64 + 1.0), "row {i}");
                }
            }
        }
    }

    #[test]
    fn reduce_blocks_deterministic_across_backends() {
        // 2500 rows -> 3 fixed blocks; contributions chosen so naive
        // accumulation order differs across groupings in the last bits.
        let n_rows = 2500;
        let contrib: Vec<f64> = (0..n_rows)
            .map(|i| (i as f64 * 0.37).sin() * 1e8 + 1e-8 * i as f64)
            .collect();
        let run = |exec: Executor| {
            let mut out = vec![0.0; 4];
            exec.reduce_row_blocks(n_rows, &mut out, |start, len, partial| {
                for c in &contrib[start..start + len] {
                    for (j, p) in partial.iter_mut().enumerate() {
                        *p += c * (j as f64 + 1.0);
                    }
                }
            });
            out
        };
        let serial = run(Executor::serial());
        for &t in &[2usize, 3, 4, 16, 5000] {
            assert_eq!(serial, run(Executor::threaded(t)), "t = {t}");
        }
    }

    #[test]
    fn reduce_single_block_matches_direct_accumulation() {
        let n_rows = 100; // < REDUCE_BLOCK_ROWS: single block, direct write
        let mut direct = vec![0.0; 2];
        for i in 0..n_rows {
            direct[0] += i as f64 * 0.1;
            direct[1] += i as f64 * 0.2;
        }
        let mut out = vec![0.0; 2];
        Executor::threaded(8).reduce_row_blocks(n_rows, &mut out, |start, len, partial| {
            for i in start..start + len {
                partial[0] += i as f64 * 0.1;
                partial[1] += i as f64 * 0.2;
            }
        });
        assert_eq!(direct, out);
    }
}
