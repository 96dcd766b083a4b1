//! The working set of a normal-equation fit: one Gram-sized buffer.
//!
//! A direct fit builds the upper triangle of its Gram matrix and factors
//! it in place, writing the Cholesky factor below it, so the only
//! allocation of the Gram matrix's size is that one buffer. The
//! `ridge.working_bytes` gauge a trace records is its size, which is also
//! the figure the memory-budget guard charges.
//!
//! This file holds a single test: it installs a counting global allocator,
//! and a second test running alongside would add its own allocations to
//! the count.

use srda::{Recorder, Srda, SrdaConfig, SrdaError};
use srda_linalg::Mat;
use srda_sparse::CsrMatrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the allocations of one watched size.
struct Counting;

/// The allocation size being counted; 0 counts nothing.
static WATCHED: AtomicUsize = AtomicUsize::new(0);
/// Allocations of the watched size since it was set.
static SEEN: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn note(size: usize) {
        if size != 0 && size == WATCHED.load(Ordering::Relaxed) {
            SEEN.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// is two atomic operations.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, counting its allocations of exactly `bytes` bytes.
fn allocations_of<R>(bytes: usize, f: impl FnOnce() -> R) -> (R, usize) {
    SEEN.store(0, Ordering::Relaxed);
    WATCHED.store(bytes, Ordering::Relaxed);
    let out = f();
    WATCHED.store(0, Ordering::Relaxed);
    (out, SEEN.load(Ordering::Relaxed))
}

/// Three classes around shifted centres with deterministic noise, with
/// every fourth entry zero so the sparse copy is sparse.
fn blobs(m: usize, n: usize) -> (Mat, Vec<usize>) {
    let y: Vec<usize> = (0..m).map(|i| i % 3).collect();
    let x = Mat::from_fn(m, n, |i, j| {
        if (i + j) % 4 == 0 {
            return 0.0;
        }
        let v = ((i * 31 + j * 17) as f64 * 12.9898).sin() * 43758.5453;
        v - v.floor() - 0.5 + if j % 3 == y[i] { 2.0 } else { 0.0 }
    });
    (x, y)
}

fn traced(budget: Option<usize>) -> (Srda, Recorder) {
    let rec = Recorder::new_enabled();
    let config = SrdaConfig {
        recorder: rec,
        memory_budget_bytes: budget,
        ..SrdaConfig::default()
    };
    (Srda::new(config), rec)
}

/// The budget guard's figure for a dense fit of `x`: what a zero budget
/// reports as needed.
fn dense_guard_bytes(x: &Mat, y: &[usize]) -> usize {
    match traced(Some(0)).0.fit_dense(x, y) {
        Err(SrdaError::MemoryBudgetExceeded { needed_bytes, .. }) => needed_bytes,
        other => panic!("a zero budget must decline the Gram matrix: {other:?}"),
    }
}

#[test]
fn a_direct_fit_holds_one_gram_sized_buffer_and_the_gauge_reports_it() {
    // tall → primal (81 × 81 Gram), wide → dense dual (90 × 90 Gram): both
    // wider than the 64-wide tiles the certification product copies, so
    // only the Gram matrix itself has the Gram matrix's size
    for (what, m, n) in [("primal", 85, 80), ("dense dual", 90, 200)] {
        let (x, y) = blobs(m, n);
        let guard = dense_guard_bytes(&x, &y);
        let (srda, rec) = traced(None);
        let (model, seen) = allocations_of(guard, || srda.fit_dense(&x, &y).unwrap());
        assert!(model.fit_report().recoveries.is_empty(), "{what}");
        assert_eq!(seen, 1, "{what}: Gram-sized allocations in the fit");
        let gauge = rec.snapshot().gauges.get("ridge.working_bytes").copied();
        assert_eq!(gauge, Some(guard as f64), "{what}");
    }
    // sparse dual: the guard lives in the CSR Gram builder
    let (x, y) = blobs(90, 200);
    let csr = CsrMatrix::from_dense(&x, 0.0);
    let guard = csr.gram_t_dense_checked(0).unwrap_err().needed_bytes as usize;
    assert_eq!(guard, 90 * 90 * 8);
    let (srda, rec) = traced(None);
    let (model, seen) = allocations_of(guard, || srda.fit_sparse(&csr, &y).unwrap());
    assert!(model.fit_report().recoveries.is_empty());
    assert_eq!(seen, 1, "sparse dual: Gram-sized allocations in the fit");
    let gauge = rec.snapshot().gauges.get("ridge.working_bytes").copied();
    assert_eq!(gauge, Some(guard as f64));
}
