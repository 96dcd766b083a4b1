//! Execution-backend microbenchmark: naive loops vs the blocked serial
//! backend vs the threaded backend, on paper-shaped workloads.
//!
//! Emits `BENCH_kernels.json` (path overridable as the first argument)
//! with per-kernel wall times, speedups and the blocked serial kernel's
//! Gflam/s (its `srda_linalg::flam` count over its best time), plus a
//! determinism check: the threaded backend must be bitwise-identical to
//! serial. `cholesky_solve_mat` has no threaded variant; its row times
//! the per-column solves as `naive` and checks the whole-panel solve
//! bitwise against them. `certify_spd` times the per-column compensated
//! backward errors of PIE's 67 responses, the loop a column the screen
//! cannot certify takes, as `naive` against the screen's rounding-error
//! bounds, both on the upper-triangle storage a fit certifies from, in
//! interleaved pairs; it reports the medians and the quartiles of the
//! per-pair `naive / serial` ratio, checks the bounds bitwise against the
//! screen of the full matrix, and checks that every bound is at least the
//! compensated value. The `disk_matmul` / `disk_matmul_t` rows time a
//! `p = 5` block product through `DiskCsr` on a 20NG-shaped SRDACSR file
//! against the historical per-entry scan (`naive`), report ns per stored
//! non-zero, and check the block product bitwise against `p` per-column
//! `matvec` / `matvec_t` passes (they too have no threaded variant).
//! `cholesky_factor` times `Cholesky::factor`, which copies its input into
//! a fresh buffer, as `naive` against `Cholesky::factor_in_place` on PIE's
//! primal system, checks the two factors bitwise, and reports the heap
//! bytes each call allocates beyond its input, counted by this binary's
//! global allocator. The `dense_gram` and `dense_gemm_transa` rows record
//! which instantiation of the register-tile kernel ran (`"isa"`:
//! `"avx2"` or `"baseline"`). `recorder_overhead` compares a disabled
//! recorder with an enabled one on a fixed 700 × 350 Gram in interleaved
//! pairs and reports the median per-pair ratio − 1, with its quartiles,
//! as `rel_delta`.
//!
//! Knobs:
//! * `SRDA_BENCH_THREADS` — thread count for the threaded variant
//!   (default 4; on a single-core container the threaded numbers
//!   honestly show the scheduling overhead instead of a speedup).
//! * `SRDA_BENCH_SCALE` — scale factor in `(0, 1]` for the workload
//!   shapes (default 1.0), so CI smoke runs can finish quickly.

use srda::Recorder;
use srda_kernels::dense::tile_isa;
use srda_linalg::ops::{gram_exec, matmul_exec, matmul_transa_exec};
use srda_linalg::{flam, refine, Cholesky, ExecPolicy, Executor, Mat, Symmetric};
use srda_sparse::{disk, CsrMatrix, DiskCsr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator, counting the bytes it hands out.
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// only an atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(grown as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the heap bytes allocated while it ran.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATED.load(Ordering::Relaxed) - before)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Deterministic pseudo-random value in [-0.5, 0.5).
fn noise(seed: usize) -> f64 {
    let x = (seed as f64 * 12.9898).sin() * 43758.5453;
    x - x.floor() - 0.5
}

fn dense(m: usize, n: usize, seed: usize) -> Mat {
    let mut a = Mat::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            a[(i, j)] = noise(seed + i * n + j);
        }
    }
    a
}

/// CSR matrix with roughly `per_row` nonzeros per row.
fn sparse(m: usize, n: usize, per_row: usize, seed: usize) -> CsrMatrix {
    let mut indptr = Vec::with_capacity(m + 1);
    let mut indices = Vec::new();
    let mut data = Vec::new();
    indptr.push(0);
    for i in 0..m {
        let mut cols: Vec<usize> = (0..per_row)
            .map(|k| {
                let u = noise(seed + i * per_row + k) + 0.5;
                ((u * n as f64) as usize).min(n - 1)
            })
            .collect();
        cols.sort_unstable();
        cols.dedup();
        for &j in &cols {
            indices.push(j);
            data.push(noise(seed + 31 * (i + j)) + 1.0);
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_parts(m, n, indptr, indices, data).unwrap()
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = f();
    for _ in 0..reps {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, out)
}

/// Wall time of one call of `f`, in seconds.
fn time_once<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64()
}

/// Interleaved pairs of the recorder-overhead probe and the
/// `certify_spd` row.
const PAIRS: usize = 25;

/// Wall times of `run_a` and `run_b` in `PAIRS` interleaved pairs, after
/// one untimed warm-up run of each. The two runs of a pair swap order
/// every pair, so neither side always runs second on a warm cache. A load
/// spike on a shared host slows both runs of a pair and cancels in its
/// ratio, where a best-of-reps per side, taken at different moments, does
/// not.
fn interleaved(mut run_a: impl FnMut() -> f64, mut run_b: impl FnMut() -> f64) -> Paired {
    run_a();
    run_b();
    let pairs: Vec<(f64, f64)> = (0..PAIRS)
        .map(|i| {
            if i % 2 == 0 {
                let a = run_a();
                (a, run_b())
            } else {
                let b = run_b();
                (run_a(), b)
            }
        })
        .collect();
    Paired::from_pairs(&pairs)
}

/// The summary of interleaved `(a, b)` pairs of times.
struct Paired {
    /// median `a` time, in seconds
    a: f64,
    /// median `b` time, in seconds
    b: f64,
    /// first quartile, median and third quartile of the per-pair ratio
    /// `b / a`
    ratio: [f64; 3],
}

impl Paired {
    fn from_pairs(pairs: &[(f64, f64)]) -> Paired {
        let quartiles = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            let n = v.len();
            [v[n / 4], v[n / 2], v[3 * n / 4]]
        };
        Paired {
            a: quartiles(pairs.iter().map(|p| p.0).collect())[1],
            b: quartiles(pairs.iter().map(|p| p.1).collect())[1],
            ratio: quartiles(pairs.iter().map(|&(a, b)| b / a.max(1e-12)).collect()),
        }
    }
}

struct Row {
    kernel: &'static str,
    shape: String,
    naive: f64,
    serial: f64,
    threaded: f64,
    identical: bool,
    /// flam of one blocked serial call
    flam: u64,
    /// stored non-zeros one call reads once each (the mat-vec and disk
    /// rows), for ns per entry
    nnz: Option<usize>,
    /// heap bytes one `naive` and one blocked serial call allocate beyond
    /// their input (the factor rows)
    allocated: Option<(u64, u64)>,
    /// the register-tile instantiation that ran (the `atb` rows)
    isa: Option<&'static str>,
    /// quartiles of the per-pair `naive / serial` ratio, for a row timed
    /// in interleaved pairs; its speedup is their median
    paired: Option<[f64; 3]>,
}

impl Row {
    /// `naive / serial`: the median per-pair ratio for a paired row, else
    /// the ratio of the two best times.
    fn speedup(&self) -> f64 {
        self.paired
            .map_or(self.naive / self.serial.max(1e-12), |[_, median, _]| median)
    }
}

fn naive_gram(a: &Mat) -> Mat {
    let (m, n) = a.shape();
    let mut g = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut s = 0.0;
            for r in 0..m {
                s += a[(r, i)] * a[(r, j)];
            }
            g[(i, j)] = s;
        }
    }
    g
}

fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
    let (m, k) = a.shape();
    let n = b.ncols();
    let mut c = Mat::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for p in 0..k {
                s += a[(i, p)] * b[(p, j)];
            }
            c[(i, j)] = s;
        }
    }
    c
}

fn naive_matmul_transa(a: &Mat, b: &Mat) -> Mat {
    let (m, k) = a.shape();
    let n = b.ncols();
    let mut c = Mat::zeros(k, n);
    for i in 0..k {
        for j in 0..n {
            let mut s = 0.0;
            for r in 0..m {
                s += a[(r, i)] * b[(r, j)];
            }
            c[(i, j)] = s;
        }
    }
    c
}

fn naive_csr_matvec(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    (0..a.nrows())
        .map(|i| a.row_entries(i).map(|(j, v)| v * x[j]).sum())
        .collect()
}

/// The historical `DiskCsr` scan over an SRDACSR file: 4,096-entry
/// chunks, every entry handed to `visit(row, col, value)` after a
/// row-advance check.
struct NaiveDiskScan {
    reader: BufReader<File>,
    indptr: Vec<u64>,
    nnz: usize,
    buf: Vec<u8>,
}

impl NaiveDiskScan {
    const CHUNK: usize = 4096;
    const ENTRY: usize = 16;

    fn open(path: &Path) -> NaiveDiskScan {
        let mut reader = BufReader::new(File::open(path).expect("open SRDACSR file"));
        let mut head = [0u8; 40];
        reader.read_exact(&mut head).expect("read header");
        let word = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().unwrap());
        let (rows, nnz) = (word(8) as usize, word(24) as usize);
        let mut bytes = vec![0u8; 8 * (rows + 1)];
        reader.read_exact(&mut bytes).expect("read row pointers");
        let indptr = bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        NaiveDiskScan {
            reader,
            indptr,
            nnz,
            buf: vec![0u8; Self::CHUNK * Self::ENTRY],
        }
    }

    fn scan(&mut self, mut visit: impl FnMut(usize, usize, f64)) {
        let data = 40 + 8 * self.indptr.len() as u64;
        self.reader.seek(SeekFrom::Start(data)).expect("seek");
        let mut row = 0usize;
        let mut seen_in_row = 0u64;
        let mut row_len = self.indptr.get(1).map_or(0, |end| end - self.indptr[0]);
        let mut remaining = self.nnz;
        while remaining > 0 {
            let take = remaining.min(Self::CHUNK);
            let bytes = take * Self::ENTRY;
            self.reader
                .read_exact(&mut self.buf[..bytes])
                .expect("read");
            for entry in self.buf[..bytes].chunks_exact(Self::ENTRY) {
                while seen_in_row == row_len {
                    row += 1;
                    seen_in_row = 0;
                    row_len = self.indptr[row + 1] - self.indptr[row];
                }
                let col = u64::from_le_bytes(entry[..8].try_into().unwrap()) as usize;
                let val = f64::from_bits(u64::from_le_bytes(entry[8..].try_into().unwrap()));
                visit(row, col, val);
                seen_in_row += 1;
            }
            remaining -= take;
        }
    }

    /// The historical `Y = A·X` closure.
    fn matmul(&mut self, rows: usize, x: &[f64], p: usize) -> Vec<f64> {
        let mut y = vec![0.0; rows * p];
        self.scan(|r, c, v| {
            let xr = &x[c * p..(c + 1) * p];
            for (yi, xi) in y[r * p..(r + 1) * p].iter_mut().zip(xr) {
                *yi += v * xi;
            }
        });
        y
    }

    /// The historical `Y = Aᵀ·X` closure.
    fn matmul_t(&mut self, cols: usize, x: &[f64], p: usize) -> Vec<f64> {
        let mut y = vec![0.0; cols * p];
        self.scan(|r, c, v| {
            let xr = &x[r * p..(r + 1) * p];
            for (yi, xi) in y[c * p..(c + 1) * p].iter_mut().zip(xr) {
                *yi += v * xi;
            }
        });
        y
    }
}

/// Column `j` of the row-major `p`-wide block `x`.
fn column(x: &[f64], p: usize, j: usize) -> Vec<f64> {
    x.iter().skip(j).step_by(p).copied().collect()
}

/// Whether each column of the `p`-wide block `y` is bitwise `single` of
/// the same column of `x`.
fn columns_match(x: &[f64], y: &[f64], p: usize, single: impl Fn(&[f64]) -> Vec<f64>) -> bool {
    let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
    (0..p).all(|j| bits(&column(y, p, j)) == bits(&single(&column(x, p, j))))
}

/// Nanoseconds per stored non-zero of a `secs`-long pass over `nnz`.
fn ns_per(secs: f64, nnz: usize) -> f64 {
    secs * 1e9 / nnz.max(1) as f64
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let threads = env_usize("SRDA_BENCH_THREADS", 4);
    let scale = env_f64("SRDA_BENCH_SCALE", 1.0).clamp(0.01, 1.0);
    let sc = |d: usize| ((d as f64 * scale) as usize).max(8);
    let serial = Executor::serial();
    let par = Executor::threaded(threads);
    let reps = 3;

    let mut rows: Vec<Row> = Vec::new();

    // dense Gram AᵀA: the normal-equations hot spot (Eqn 20)
    {
        let (m, n) = (sc(1000), sc(500));
        let a = dense(m, n, 1);
        let (t_naive, g0) = time_best(reps, || naive_gram(&a));
        let (t_serial, g1) = time_best(reps, || gram_exec(&a, &serial));
        let (t_par, g2) = time_best(reps, || gram_exec(&a, &par));
        rows.push(Row {
            kernel: "dense_gram",
            shape: format!("{m}x{n}"),
            naive: t_naive,
            serial: t_serial,
            threaded: t_par,
            identical: g1.as_slice() == g2.as_slice() && g0.shape() == g1.shape(),
            flam: flam::measure(|| gram_exec(&a, &serial)).1,
            nnz: None,
            allocated: None,
            isa: Some(tile_isa()),
            paired: None,
        });
    }

    // dense GEMM: embedding back-projection W = V·Q
    {
        let (m, k, n) = (sc(800), sc(400), sc(200));
        let a = dense(m, k, 2);
        let b = dense(k, n, 3);
        let (t_naive, c0) = time_best(reps, || naive_matmul(&a, &b));
        let (t_serial, c1) = time_best(reps, || matmul_exec(&a, &b, &serial).unwrap());
        let (t_par, c2) = time_best(reps, || matmul_exec(&a, &b, &par).unwrap());
        rows.push(Row {
            kernel: "dense_gemm",
            shape: format!("{m}x{k}x{n}"),
            naive: t_naive,
            serial: t_serial,
            threaded: t_par,
            identical: c1.as_slice() == c2.as_slice() && c0.shape() == c1.shape(),
            flam: flam::measure(|| matmul_exec(&a, &b, &serial)).1,
            nnz: None,
            allocated: None,
            isa: None,
            paired: None,
        });
    }

    // dense AᵀB: the primal right-hand sides X̃ᵀȲ on PIE's shape, on the
    // Gram's register tile
    {
        let (m, k, n) = (sc(1500), sc(1000), sc(67));
        let a = dense(m, k, 10);
        let b = dense(m, n, 11);
        let (t_naive, c0) = time_best(reps, || naive_matmul_transa(&a, &b));
        let (t_serial, c1) = time_best(reps, || matmul_transa_exec(&a, &b, &serial).unwrap());
        let (t_par, c2) = time_best(reps, || matmul_transa_exec(&a, &b, &par).unwrap());
        rows.push(Row {
            kernel: "dense_gemm_transa",
            shape: format!("{m}x{k}x{n}"),
            naive: t_naive,
            serial: t_serial,
            threaded: t_par,
            identical: c1.as_slice() == c2.as_slice() && c0.shape() == c1.shape(),
            flam: flam::measure(|| matmul_transa_exec(&a, &b, &serial)).1,
            nnz: None,
            allocated: None,
            isa: Some(tile_isa()),
            paired: None,
        });
    }

    // sparse mat-vec: the LSQR inner loop on 20NG-shaped data (§III.C.2)
    {
        let (m, n, per_row) = (sc(20_000), sc(40_000), 60);
        let a = sparse(m, n, per_row, 4);
        let x: Vec<f64> = (0..n).map(|j| noise(7 + j)).collect();
        let (t_naive, y0) = time_best(reps, || naive_csr_matvec(&a, &x));
        let (t_serial, y1) = time_best(reps, || a.matvec_exec(&x, &serial).unwrap());
        let (t_par, y2) = time_best(reps, || a.matvec_exec(&x, &par).unwrap());
        rows.push(Row {
            kernel: "csr_matvec",
            shape: format!("{m}x{n} nnz={}", a.nnz()),
            naive: t_naive,
            serial: t_serial,
            threaded: t_par,
            identical: y1 == y2 && y0.len() == y1.len(),
            flam: flam::measure(|| a.matvec_exec(&x, &serial)).1,
            nnz: Some(a.nnz()),
            allocated: None,
            isa: None,
            paired: None,
        });
    }

    // sparse dual Gram XXᵀ: the n > m dual path (Eqn 21)
    {
        let (m, n, per_row) = (sc(1_500), sc(40_000), 60);
        let a = sparse(m, n, per_row, 5);
        let budget = usize::MAX;
        let (t_serial, g1) = time_best(reps, || {
            a.gram_t_dense_checked_exec(budget, &serial).unwrap()
        });
        let (t_par, g2) = time_best(reps, || a.gram_t_dense_checked_exec(budget, &par).unwrap());
        rows.push(Row {
            kernel: "csr_gram_t",
            shape: format!("{m}x{n} nnz={}", a.nnz()),
            naive: t_serial, // no separate naive variant: serial IS the baseline
            serial: t_serial,
            threaded: t_par,
            identical: g1.as_slice() == g2.as_slice(),
            flam: flam::measure(|| a.gram_t_dense_checked_exec(budget, &serial)).1,
            nnz: None,
            allocated: None,
            isa: None,
            paired: None,
        });
    }

    // Cholesky solve of the c − 1 responses: PIE's primal system (n + 1 =
    // 1025 unknowns, 68 classes). Naive is one forward and one backward
    // substitution per column.
    {
        let (n, k) = (sc(1025), sc(68));
        let a = dense(n + 200, n, 6);
        let mut g = gram_exec(&a, &serial);
        g.add_to_diag(1.0);
        let chol = Cholesky::factor(&g).unwrap();
        let b = dense(n, k, 7);
        let (t_naive, x0) = time_best(reps, || {
            let mut x = Mat::zeros(n, k);
            for j in 0..k {
                let mut col = b.col(j);
                chol.solve_inplace(&mut col).unwrap();
                x.set_col(j, &col);
            }
            x
        });
        let (t_serial, x1) = time_best(reps, || chol.solve_mat(&b).unwrap());
        let bits = |x: &Mat| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        rows.push(Row {
            kernel: "cholesky_solve_mat",
            shape: format!("{n} k={k}"),
            naive: t_naive,
            serial: t_serial,
            threaded: t_serial,
            identical: bits(&x0) == bits(&x1),
            flam: flam::measure(|| chol.solve_mat(&b)).1,
            nnz: None,
            allocated: None,
            isa: None,
            paired: None,
        });
    }

    // Cholesky factorization of PIE's primal system (n + 1 = 1025): the
    // allocating entry point, which copies its input into a fresh n × n
    // buffer, against the in-place one, which writes L below the upper
    // triangle it reads. Both run the same body, so the factors must agree
    // bitwise and the times differ by the copy.
    {
        let n = sc(1025);
        let a = dense(n + 200, n, 16);
        let mut g = gram_exec(&a, &serial);
        g.add_to_diag(1.0);
        let diag = g.diag();
        let (t_naive, full) = time_best(reps, || Cholesky::factor(&g).unwrap());
        // a fresh copy of the input per call, made outside the timing
        let (mut t_in_place, mut in_place) = (f64::INFINITY, None);
        for _ in 0..=reps {
            let input = g.clone();
            let t = Instant::now();
            let chol = Cholesky::factor_in_place(input, &diag).unwrap();
            t_in_place = t_in_place.min(t.elapsed().as_secs_f64());
            in_place = Some(chol);
        }
        let in_place = in_place.expect("at least one call");
        let lower = |m: &Mat| {
            (0..n)
                .flat_map(|i| m.row(i)[..=i].iter().map(|v| v.to_bits()))
                .collect::<Vec<_>>()
        };
        let (_, allocating_bytes) = allocated_by(|| Cholesky::factor(&g).unwrap());
        let input = g.clone();
        let (_, in_place_bytes) = allocated_by(|| Cholesky::factor_in_place(input, &diag).unwrap());
        rows.push(Row {
            kernel: "cholesky_factor",
            shape: format!("{n}"),
            naive: t_naive,
            serial: t_in_place,
            threaded: t_in_place,
            identical: lower(full.l()) == lower(in_place.l()),
            flam: flam::measure(|| Cholesky::factor_in_place(g.clone(), &diag)).1,
            nnz: None,
            allocated: Some((allocating_bytes, in_place_bytes)),
            isa: None,
            paired: None,
        });
    }

    // certification of the c − 1 responses on PIE's primal system: the
    // compensated backward error of each column in turn (`naive`, what a
    // column the screen leaves costs) against the screen's plain product
    // and rounding bound, both as a fit runs them: on the upper storage
    // the in-place factor leaves. The screen must be bitwise serial ≡
    // threaded and the screen of the full matrix, and bound every
    // compensated backward error from above.
    {
        let (n, k) = (sc(1025), sc(67));
        let a = dense(n + 200, n, 14);
        let mut g = gram_exec(&a, &serial);
        g.add_to_diag(1.0);
        let b = dense(n, k, 15);
        let x = Cholesky::factor(&g).unwrap().solve_mat(&b).unwrap();
        let diag = g.diag();
        let stored = Symmetric::upper(&g, &diag);
        let compensated = || {
            (0..k)
                .map(|j| refine::backward_error(stored, &b.col(j), &x.col(j)))
                .collect::<Vec<_>>()
        };
        let screen = |exec: &Executor| refine::backward_error_bounds(stored, &b, &x, exec).unwrap();
        let timed = interleaved(|| time_once(|| screen(&serial)), || time_once(compensated));
        let (etas, e1) = (compensated(), screen(&serial));
        let (t_par, e2) = time_best(reps, || screen(&par));
        let full = refine::backward_error_bounds(&g, &b, &x, &serial).unwrap();
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        rows.push(Row {
            kernel: "certify_spd",
            shape: format!("{n} k={k}"),
            naive: timed.b,
            serial: timed.a,
            threaded: t_par,
            identical: bits(&e1) == bits(&e2)
                && bits(&e1) == bits(&full)
                && e1.iter().zip(&etas).all(|(u, e)| u >= e),
            flam: flam::measure(|| screen(&serial)).1,
            nnz: None,
            allocated: None,
            isa: None,
            paired: Some(timed.ratio),
        });
    }

    // DiskCsr block products at the lockstep panel width of the disk fit
    // (p = 5): the out-of-core LSQR pass (§III.C.2) on a 20NG-shaped file
    {
        let (m, n, per_row, p) = (sc(18_846), sc(26_214), 70, 5);
        let a = sparse(m, n, per_row, 8);
        let path = std::env::temp_dir().join(format!("srda-bench-{}.srdacsr", std::process::id()));
        disk::write_csr(&path, &a).expect("write SRDACSR file");
        let d = DiskCsr::open(&path).expect("open SRDACSR file");
        let mut naive = NaiveDiskScan::open(&path);
        let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        let shape = format!("{m}x{n} nnz={} p={p}", a.nnz());
        let flam = (a.nnz() * p) as u64;

        let x: Vec<f64> = (0..n * p).map(|i| noise(11 + i)).collect();
        let (t_naive, y0) = time_best(reps, || naive.matmul(m, &x, p));
        let (t_block, y1) = time_best(reps, || {
            let mut y = vec![0.0; m * p];
            d.matmul_into(&x, p, &mut y).unwrap();
            y
        });
        rows.push(Row {
            kernel: "disk_matmul",
            shape: shape.clone(),
            naive: t_naive,
            serial: t_block,
            threaded: t_block,
            identical: bits(&y0) == bits(&y1)
                && columns_match(&x, &y1, p, |xj| d.matvec(xj).unwrap()),
            flam,
            nnz: Some(a.nnz()),
            allocated: None,
            isa: None,
            paired: None,
        });

        let u: Vec<f64> = (0..m * p).map(|i| noise(13 + i)).collect();
        let (t_naive, y0) = time_best(reps, || naive.matmul_t(n, &u, p));
        let (t_block, y1) = time_best(reps, || {
            let mut y = vec![0.0; n * p];
            d.matmul_t_into(&u, p, &mut y).unwrap();
            y
        });
        rows.push(Row {
            kernel: "disk_matmul_t",
            shape,
            naive: t_naive,
            serial: t_block,
            threaded: t_block,
            identical: bits(&y0) == bits(&y1)
                && columns_match(&u, &y1, p, |uj| d.matvec_t(uj).unwrap()),
            flam,
            nnz: Some(a.nnz()),
            allocated: None,
            isa: None,
            paired: None,
        });
        std::fs::remove_file(&path).ok();
    }

    // recorder overhead: the same kernel through a disabled-recorder
    // executor and an enabled one, timed in interleaved pairs. Each pair
    // gives one enabled/disabled ratio; rel_delta is the median ratio − 1,
    // with its quartiles. The disabled path must be a near-no-op (the <2% CI gate
    // lives in scripts/ci.sh). Deliberately NOT scaled by
    // SRDA_BENCH_SCALE: a micro-sized Gram turns the comparison into timer
    // noise, and the fixed shape costs only ~0.2s.
    let (overhead, obs_json) = {
        let a = dense(700, 350, 9);
        let off = Executor::with_recorder(ExecPolicy::serial(), Recorder::disabled());
        let rec = Recorder::new_enabled();
        let on = Executor::with_recorder(ExecPolicy::serial(), rec);
        let overhead = interleaved(
            || time_once(|| gram_exec(&a, &off)),
            || {
                time_once(|| {
                    let _span = rec.span("bench/gram");
                    gram_exec(&a, &on)
                })
            },
        );
        (overhead, rec.snapshot().to_json())
    };

    // hand-formatted JSON: the format here is trivial
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    ));
    json.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let ns_per_nnz = r.nnz.map_or(String::new(), |nnz| {
            format!("\"ns_per_nnz\": {:.3}, ", ns_per(r.serial, nnz))
        });
        let allocated = r.allocated.map_or(String::new(), |(naive, serial)| {
            format!("\"naive_alloc_bytes\": {naive}, \"blocked_serial_alloc_bytes\": {serial}, ")
        });
        let isa = r
            .isa
            .map_or(String::new(), |isa| format!("\"isa\": \"{isa}\", "));
        let paired = r.paired.map_or(String::new(), |[q1, _, q3]| {
            format!("\"pairs\": {PAIRS}, \"speedup_q1\": {q1:.3}, \"speedup_q3\": {q3:.3}, ")
        });
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"naive_s\": {:.6}, \
             \"blocked_serial_s\": {:.6}, \"threaded_s\": {:.6}, \
             \"speedup_blocked_vs_naive\": {:.3}, \"speedup_threaded_vs_serial\": {:.3}, \
             \"flam\": {}, \"blocked_serial_gflam_per_s\": {:.3}, {}{}{}{}\"bitwise_identical\": {}}}{}\n",
            r.kernel,
            r.shape,
            r.naive,
            r.serial,
            r.threaded,
            r.speedup(),
            r.serial / r.threaded.max(1e-12),
            r.flam,
            r.flam as f64 / r.serial.max(1e-12) / 1e9,
            ns_per_nnz,
            allocated,
            isa,
            paired,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"recorder_overhead\": {{\"pairs\": {PAIRS}, \"disabled_s\": {:.6}, \
         \"enabled_s\": {:.6}, \"rel_delta\": {:.4}, \"rel_delta_q1\": {:.4}, \
         \"rel_delta_q3\": {:.4}}},\n",
        overhead.a,
        overhead.b,
        overhead.ratio[1] - 1.0,
        overhead.ratio[0] - 1.0,
        overhead.ratio[2] - 1.0
    ));
    // the same srda-obs-v1 schema the CLI's --metrics-out emits, from the
    // recorder the enabled-overhead pass ran under
    json.push_str("  \"obs\": ");
    json.push_str(obs_json.trim_end());
    json.push_str("\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark JSON");

    println!("wrote {out_path}");
    println!(
        "{:<18} {:>28} {:>10} {:>10} {:>10} {:>8} {:>7} {:>9}",
        "kernel", "shape", "naive(s)", "serial(s)", "par(s)", "Gflam/s", "ns/nnz", "bitwise"
    );
    for r in &rows {
        println!(
            "{:<18} {:>28} {:>10.4} {:>10.4} {:>10.4} {:>8.2} {:>7} {:>9}",
            r.kernel,
            r.shape,
            r.naive,
            r.serial,
            r.threaded,
            r.flam as f64 / r.serial.max(1e-12) / 1e9,
            r.nnz.map_or("-".to_string(), |nnz| format!(
                "{:.2}",
                ns_per(r.serial, nnz)
            )),
            r.identical
        );
    }
    for r in &rows {
        if let Some((naive, serial)) = r.allocated {
            println!(
                "{}: naive allocates {naive} B beyond its input, blocked serial {serial} B",
                r.kernel
            );
        }
    }
    println!(
        "recorder overhead: disabled {:.4}s, enabled {:.4}s, median of {PAIRS} pairs \
         {:+.2}% [{:+.2}%, {:+.2}%]",
        overhead.a,
        overhead.b,
        (overhead.ratio[1] - 1.0) * 100.0,
        (overhead.ratio[0] - 1.0) * 100.0,
        (overhead.ratio[2] - 1.0) * 100.0
    );
    if rows.iter().any(|r| !r.identical) {
        eprintln!("error: a kernel diverged from its bitwise reference");
        std::process::exit(1);
    }
}
