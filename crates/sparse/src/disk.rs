//! Out-of-core CSR storage — the paper's closing §III.C.2 claim made
//! concrete:
//!
//! > "Even \[if\] the data matrix is too large to be fit into the memory,
//! > SRDA can still be applied with some reasonable disk I/O. This is
//! > because in each iteration of LSQR, we only need to calculate two
//! > matrix-vector products in the form of Xu and Xᵀv, which can be easily
//! > implemented with X ... stored on the disk."
//!
//! [`DiskCsr`] keeps only the row-pointer array in memory (`8·(m+1)`
//! bytes) and streams the non-zeros from disk for every product — one
//! sequential pass per `matvec`/`matvec_t`, or per block product of any
//! width, which is exactly the access pattern LSQR needs.
//!
//! ## File format (`SRDACSR2`, little-endian)
//!
//! ```text
//! magic    8 bytes  "SRDACSR2"
//! rows     u64
//! cols     u64
//! nnz      u64
//! crc32    u32      CRC-32/IEEE of indptr ++ entries (see crate::crc32)
//! reserved u32      zero
//! indptr   (rows+1) × u64
//! entries  nnz × (u64 col, f64 value)   — interleaved, row-major
//! ```
//!
//! Interleaving the column/value pairs keeps both products a single
//! forward scan (no second seek stream).
//!
//! ## Integrity guarantees
//!
//! Training jobs can run for hours against one of these files, so
//! [`DiskCsr::open`] refuses anything it cannot fully trust rather than
//! letting corruption surface as silently-wrong products mid-solve:
//!
//! * the declared shape must match the file size **exactly** (catches
//!   truncated and over-long files before any data is read);
//! * row pointers must start at 0, be monotone non-decreasing, and end at
//!   `nnz`;
//! * every column index must be `< cols`;
//! * the CRC-32 over row pointers and entries must match the header.
//!
//! The column and CRC checks cost one extra sequential pass at open time —
//! the same I/O as a single LSQR iteration — and nothing afterwards.
//!
//! ## Products: one segment scan, exact-width lane kernels
//!
//! Every product (and [`DiskCsr::to_csr`]) reads the file through one
//! loop: it reads the entries in 4,096-entry (64 KiB) chunks and hands
//! each chunk over one **row segment** at a time, the run of one row's
//! entries inside that chunk. A row cut by a chunk boundary arrives as
//! two segments (more if it outgrows a chunk), in file order.
//!
//! The block products [`DiskCsr::matmul_into`] (`A·X`) and
//! [`DiskCsr::matmul_t_into`] (`Aᵀ·X`) of a `p`-column block run one
//! const-generic lane kernel per segment whose width is `p` exactly for
//! `p ≤ 8`; a wider block runs groups of 8 lanes and then one exact-width
//! remainder. `A·X` holds the row's sums in registers across a segment;
//! `Aᵀ·X` loads the row's coefficients once and scatters them into each
//! entry's column. A width that matches `p` matters: in three interleaved
//! runs on a 2-vCPU guest, a `p = 5` product run as 4 + 1 lanes took
//! 1.1–1.8× the time of the one 5-lane kernel.
//!
//! **Order.** Lanes never mix: each column of the block is its own chain
//! of `y += v·x` (a multiply, then an add, never fused) over the stored
//! entries in file order, starting from `+0.0`, and a straddling row's
//! second segment resumes from the sums its first segment stored. That is
//! the order of the historical per-entry scan and of the single-vector
//! products, so every column is bitwise [`DiskCsr::matvec`] /
//! [`DiskCsr::matvec_t`] of that column, whatever `p`, the lane grouping
//! or where the chunk boundaries fall (up to the sign and payload of a NaN
//! result, which Rust leaves unspecified). The unit test
//! `lane_kernels_are_bitwise_the_per_entry_scan` keeps the historical
//! per-entry scan as its oracle.

use crate::crc32::Crc32;
use crate::csr::CsrMatrix;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const MAGIC: &[u8; 8] = b"SRDACSR2";
/// Fixed-size header: magic + rows + cols + nnz + crc32 + reserved.
const HEADER_BYTES: u64 = 8 + 8 + 8 + 8 + 4 + 4;
/// Offset of the crc32 field within the header.
const CRC_OFFSET: u64 = 32;
/// Stream buffer size for the non-zero scan.
const CHUNK_ENTRIES: usize = 4096;
const ENTRY_BYTES: usize = 16; // u64 + f64

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The little-endian `u64` in `bytes[at..at + 8]`.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte field"))
}

/// Serialize a [`CsrMatrix`] into the on-disk format.
///
/// The checksum field is back-patched after the entries are streamed out,
/// so the write is one sequential pass plus one 4-byte seek.
pub fn write_csr(path: &Path, m: &CsrMatrix) -> io::Result<()> {
    let mut crc = Crc32::new();
    let mut header = Vec::with_capacity(HEADER_BYTES as usize);
    header.extend_from_slice(MAGIC);
    for field in [m.nrows(), m.ncols(), m.nnz()] {
        header.extend_from_slice(&(field as u64).to_le_bytes());
    }
    // crc placeholder (patched below), then the reserved word
    header.extend_from_slice(&[0u8; 8]);
    // rebuild indptr from row_nnz (the CSR internals stay private)
    let mut indptr = Vec::with_capacity(8 * (m.nrows() + 1));
    let mut acc = 0u64;
    indptr.extend_from_slice(&acc.to_le_bytes());
    for i in 0..m.nrows() {
        acc += m.row_nnz(i) as u64;
        indptr.extend_from_slice(&acc.to_le_bytes());
    }
    crc.update(&indptr);
    let mut f = BufWriter::new(File::create(path)?);
    f.write_all(&header)?;
    f.write_all(&indptr)?;
    let mut buf = Vec::with_capacity(CHUNK_ENTRIES * ENTRY_BYTES);
    for i in 0..m.nrows() {
        for (j, v) in m.row_entries(i) {
            buf.extend_from_slice(&(j as u64).to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
            if buf.len() >= CHUNK_ENTRIES * ENTRY_BYTES {
                crc.update(&buf);
                f.write_all(&buf)?;
                buf.clear();
            }
        }
    }
    crc.update(&buf);
    f.write_all(&buf)?;
    // patch the checksum into the header
    f.seek(SeekFrom::Start(CRC_OFFSET))?;
    f.write_all(&crc.finish().to_le_bytes())?;
    f.flush()
}

/// A sparse matrix resident on disk; only the row pointers live in memory.
pub struct DiskCsr {
    path: PathBuf,
    rows: usize,
    cols: usize,
    nnz: usize,
    indptr: Vec<u64>,
    data_offset: u64,
    /// Shared reader and chunk buffer, re-wound for every product (the
    /// products are sequential scans, so one buffered handle suffices).
    scanner: Mutex<Scanner>,
}

/// The file handle and the chunk buffer every scan reads through; both
/// live as long as the [`DiskCsr`], so a product allocates nothing.
struct Scanner {
    reader: BufReader<File>,
    buf: Vec<u8>,
}

impl std::fmt::Debug for DiskCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCsr")
            .field("path", &self.path)
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("nnz", &self.nnz)
            .finish()
    }
}

impl DiskCsr {
    /// Open a file written by [`write_csr`], loading only the header and
    /// row pointers, and fully validating the file (see the module docs
    /// for the guarantee list). The validation scan is one sequential
    /// pass over the non-zeros; afterwards products trust the file.
    pub fn open(path: &Path) -> io::Result<DiskCsr> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut f = BufReader::new(file);
        let mut magic = [0u8; 8];
        f.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not an SRDACSR2 file"));
        }
        let mut head = [0u8; 32];
        f.read_exact(&mut head)?;
        let rows = le_u64(&head, 0);
        let cols = le_u64(&head, 8);
        let nnz = le_u64(&head, 16);
        let stored_crc = u32::from_le_bytes(head[24..28].try_into().expect("4-byte field"));

        // shape sanity *before* trusting any derived size: all arithmetic
        // checked so a corrupt header cannot overflow into a bogus match
        let indptr_bytes_len = rows
            .checked_add(1)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(|| bad("header row count overflows"))?;
        let entry_bytes_len = nnz
            .checked_mul(ENTRY_BYTES as u64)
            .ok_or_else(|| bad("header nnz overflows"))?;
        let expected_len = HEADER_BYTES
            .checked_add(indptr_bytes_len)
            .and_then(|n| n.checked_add(entry_bytes_len))
            .ok_or_else(|| bad("header sizes overflow"))?;
        if file_len < expected_len {
            return Err(bad(format!(
                "truncated file: header declares {expected_len} bytes, found {file_len}"
            )));
        }
        if file_len > expected_len {
            return Err(bad(format!(
                "trailing bytes: header declares {expected_len} bytes, found {file_len}"
            )));
        }
        let rows = rows as usize;
        let cols = cols as usize;
        let nnz = nnz as usize;

        let mut crc = Crc32::new();
        let mut indptr_bytes = vec![0u8; indptr_bytes_len as usize];
        f.read_exact(&mut indptr_bytes)?;
        crc.update(&indptr_bytes);
        let indptr: Vec<u64> = (0..=rows).map(|i| le_u64(&indptr_bytes, 8 * i)).collect();
        if indptr[0] != 0 {
            return Err(bad("row pointers must start at 0"));
        }
        if indptr.windows(2).any(|w| w[1] < w[0]) {
            return Err(bad("row pointers are not monotone non-decreasing"));
        }
        if indptr[rows] as usize != nnz {
            return Err(bad("row pointers inconsistent with nnz"));
        }

        // validation pass over the entries: checksum + column bounds
        let mut buf = vec![0u8; CHUNK_ENTRIES * ENTRY_BYTES];
        let mut remaining = nnz;
        while remaining > 0 {
            let take = remaining.min(CHUNK_ENTRIES);
            let bytes = take * ENTRY_BYTES;
            f.read_exact(&mut buf[..bytes])?;
            crc.update(&buf[..bytes]);
            for entry in buf[..bytes].chunks_exact(ENTRY_BYTES) {
                let col = le_u64(entry, 0);
                if col as usize >= cols {
                    return Err(bad(format!(
                        "column index {col} out of bounds for {cols} columns"
                    )));
                }
            }
            remaining -= take;
        }
        let computed = crc.finish();
        if computed != stored_crc {
            return Err(bad(format!(
                "checksum mismatch: header says {stored_crc:#010x}, data hashes to {computed:#010x}"
            )));
        }

        let data_offset = HEADER_BYTES + indptr_bytes_len;
        Ok(DiskCsr {
            path: path.to_path_buf(),
            rows,
            cols,
            nnz,
            indptr,
            data_offset,
            scanner: Mutex::new(Scanner { reader: f, buf }),
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The file backing this matrix.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of RAM this handle keeps resident (row pointers + buffer).
    pub fn resident_bytes(&self) -> usize {
        self.indptr.len() * 8 + CHUNK_ENTRIES * ENTRY_BYTES
    }

    /// Stream the non-zeros in file order, one row segment at a time:
    /// `visit(row, segment)` receives each run of one row's entries that
    /// lies within one chunk read, so a row cut by a chunk boundary
    /// arrives as two (or more) consecutive segments and an empty row as
    /// none. This is the one loop every product, and [`DiskCsr::to_csr`],
    /// reads the file through.
    fn scan(&self, mut visit: impl FnMut(usize, &[[u8; ENTRY_BYTES]])) -> io::Result<()> {
        #[cfg(feature = "failpoints")]
        if srda_linalg::failpoint::should_fail("diskcsr.read") {
            return Err(io::Error::other(
                "injected I/O failure (failpoint diskcsr.read)",
            ));
        }
        // a panic mid-scan leaves only a file position and stale buffer
        // bytes behind, and every scan seeks first and overwrites what it
        // reads, so a poisoned lock is still safe to reuse
        let mut guard = self.scanner.lock().unwrap_or_else(|p| p.into_inner());
        let Scanner { reader, buf } = &mut *guard;
        reader.seek(SeekFrom::Start(self.data_offset))?;
        // `row` is the first row whose entries are not all visited yet;
        // `at` is the file index of the next entry to visit
        let mut row = 0usize;
        let mut at = 0usize;
        while at < self.nnz {
            let bytes = (self.nnz - at).min(CHUNK_ENTRIES) * ENTRY_BYTES;
            reader.read_exact(&mut buf[..bytes])?;
            let (mut entries, _) = buf[..bytes].as_chunks::<ENTRY_BYTES>();
            while !entries.is_empty() {
                // `at < nnz = indptr[rows]`, so this stops at a real row
                while self.indptr[row + 1] as usize <= at {
                    row += 1;
                }
                let in_chunk = (self.indptr[row + 1] as usize - at).min(entries.len());
                let (segment, rest) = entries.split_at(in_chunk);
                visit(row, segment);
                at += in_chunk;
                entries = rest;
            }
        }
        Ok(())
    }

    /// Run the lane kernel `k` over every row segment of one scan: lanes
    /// `0..p` in groups of [`LANES`], then one exact-width remainder, so
    /// a `p ≤ 8` block runs a single kernel exactly `p` wide.
    fn run_lanes<K: LaneKernel>(&self, p: usize, k: K) -> io::Result<()> {
        match p % LANES {
            0 => self.scan_lanes::<K, 0>(p, k),
            1 => self.scan_lanes::<K, 1>(p, k),
            2 => self.scan_lanes::<K, 2>(p, k),
            3 => self.scan_lanes::<K, 3>(p, k),
            4 => self.scan_lanes::<K, 4>(p, k),
            5 => self.scan_lanes::<K, 5>(p, k),
            6 => self.scan_lanes::<K, 6>(p, k),
            _ => self.scan_lanes::<K, 7>(p, k),
        }
    }

    /// [`DiskCsr::run_lanes`] for a block whose width leaves `R` lanes
    /// after its whole groups.
    fn scan_lanes<K: LaneKernel, const R: usize>(&self, p: usize, mut k: K) -> io::Result<()> {
        self.scan(|row, segment| {
            for lane in (0..p - R).step_by(LANES) {
                k.segment::<LANES>(row, segment, lane);
            }
            if R > 0 {
                k.segment::<R>(row, segment, p - R);
            }
        })
    }

    /// `y = A·x`, one sequential pass over the file.
    pub fn matvec(&self, x: &[f64]) -> io::Result<Vec<f64>> {
        let mut y = vec![0.0; self.rows];
        self.matmul_into(x, 1, &mut y)?;
        Ok(y)
    }

    /// `y = Aᵀ·x`, one sequential pass over the file.
    pub fn matvec_t(&self, x: &[f64]) -> io::Result<Vec<f64>> {
        let mut y = vec![0.0; self.cols];
        self.matmul_t_into(x, 1, &mut y)?;
        Ok(y)
    }

    /// `Y = A·X` for a row-major `cols × p` block `X` into the row-major
    /// `rows × p` block `Y`, in one sequential pass over the file.
    ///
    /// Each row segment runs one lane kernel per group of up to 8 lanes
    /// (see the module docs) that holds the row's sums in locals across
    /// the segment.
    /// Every entry still adds `v·x` (a multiply, then an add) to its
    /// column's sum in file order, starting from `+0.0`, and a row cut by
    /// a chunk boundary resumes from the sums its first segment stored,
    /// so each column of `Y` is bitwise the single-vector
    /// [`DiskCsr::matvec`] of that column, whatever `p`.
    pub fn matmul_into(&self, x: &[f64], p: usize, y: &mut [f64]) -> io::Result<()> {
        assert_eq!(x.len(), self.cols * p, "matvec length mismatch");
        assert_eq!(y.len(), self.rows * p, "matvec output length mismatch");
        y.fill(0.0);
        self.run_lanes(p, RowSums { x, p, y })
    }

    /// `Y = Aᵀ·X` for a row-major `rows × p` block `X` into the row-major
    /// `cols × p` block `Y`, in one sequential pass over the file.
    ///
    /// Each row segment loads the row's coefficients of a group of lanes
    /// once and scatters `v·x` into each entry's column of `Y`, entry by
    /// entry in file order, so each column is bitwise
    /// [`DiskCsr::matvec_t`] of that column.
    pub fn matmul_t_into(&self, x: &[f64], p: usize, y: &mut [f64]) -> io::Result<()> {
        assert_eq!(x.len(), self.rows * p, "matvec_t length mismatch");
        assert_eq!(y.len(), self.cols * p, "matvec_t output length mismatch");
        y.fill(0.0);
        self.run_lanes(p, Scatter { x, p, y })
    }

    /// Load the whole matrix back into memory (tests / small files).
    pub fn to_csr(&self) -> io::Result<CsrMatrix> {
        let mut b = crate::CooBuilder::with_capacity(self.rows, self.cols, self.nnz);
        let mut err = None;
        self.scan(|row, segment| {
            for entry in segment {
                let (col, value) = decode(entry);
                if let Err(e) = b.push(row, col, value) {
                    err.get_or_insert(e);
                }
            }
        })?;
        if err.is_some() {
            return Err(bad("entry out of declared bounds"));
        }
        Ok(b.build())
    }
}

/// The widest lane kernel: blocks wider than this run in groups of
/// `LANES` columns and then one exact-width remainder.
const LANES: usize = 8;

/// The column and value of one stored entry.
#[inline(always)]
fn decode(entry: &[u8; ENTRY_BYTES]) -> (usize, f64) {
    let word = u128::from_le_bytes(*entry);
    (word as u64 as usize, f64::from_bits((word >> 64) as u64))
}

/// One block product's work on a row segment: lanes `lane..lane + W` of
/// the row-major `p`-wide blocks, `W` a compile-time width so the lanes
/// live in registers.
trait LaneKernel {
    fn segment<const W: usize>(&mut self, row: usize, segment: &[[u8; ENTRY_BYTES]], lane: usize);
}

/// `Y = A·X`: the row's `W` sums in locals across the segment.
struct RowSums<'a> {
    x: &'a [f64],
    p: usize,
    y: &'a mut [f64],
}

impl LaneKernel for RowSums<'_> {
    #[inline(always)]
    fn segment<const W: usize>(&mut self, row: usize, segment: &[[u8; ENTRY_BYTES]], lane: usize) {
        let p = self.p;
        let sums = self.y[row * p + lane..]
            .first_chunk_mut::<W>()
            .expect("lane group within the row");
        let mut acc = *sums;
        for entry in segment {
            let (col, v) = decode(entry);
            let xc = self.x[col * p + lane..]
                .first_chunk::<W>()
                .expect("lane group within the row");
            for (a, xi) in acc.iter_mut().zip(xc) {
                *a += v * xi;
            }
        }
        *sums = acc;
    }
}

/// `Y = Aᵀ·X`: the row's `W` coefficients loaded once, scattered into
/// each entry's column.
struct Scatter<'a> {
    x: &'a [f64],
    p: usize,
    y: &'a mut [f64],
}

impl LaneKernel for Scatter<'_> {
    #[inline(always)]
    fn segment<const W: usize>(&mut self, row: usize, segment: &[[u8; ENTRY_BYTES]], lane: usize) {
        let p = self.p;
        let coef = *self.x[row * p + lane..]
            .first_chunk::<W>()
            .expect("lane group within the row");
        for entry in segment {
            let (col, v) = decode(entry);
            let yc = self.y[col * p + lane..]
                .first_chunk_mut::<W>()
                .expect("lane group within the row");
            for (yi, c) in yc.iter_mut().zip(&coef) {
                *yi += v * c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooBuilder;

    fn sample(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
        let mut b = CooBuilder::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let h = ((i * 31 + j * 17) as f64 * 12.9898 + seed as f64).sin() * 43758.5453;
                let v = h - h.floor() - 0.5;
                if v > 0.1 {
                    b.push(i, j, v).unwrap();
                }
            }
        }
        b.build()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("srda_diskcsr_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_through_disk() {
        let m = sample(23, 17, 1);
        let path = tmp("roundtrip.bin");
        write_csr(&path, &m).unwrap();
        let disk = DiskCsr::open(&path).unwrap();
        assert_eq!(disk.nrows(), 23);
        assert_eq!(disk.ncols(), 17);
        assert_eq!(disk.nnz(), m.nnz());
        assert_eq!(disk.to_csr().unwrap(), m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matvec_matches_in_memory() {
        let m = sample(40, 25, 2);
        let path = tmp("matvec.bin");
        write_csr(&path, &m).unwrap();
        let disk = DiskCsr::open(&path).unwrap();
        let x: Vec<f64> = (0..25).map(|i| (i as f64 * 0.31).sin()).collect();
        assert_eq!(disk.matvec(&x).unwrap(), m.matvec(&x).unwrap());
        let xt: Vec<f64> = (0..40).map(|i| (i as f64 * 0.17).cos()).collect();
        assert_eq!(disk.matvec_t(&xt).unwrap(), m.matvec_t(&xt).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repeated_products_rewind_correctly() {
        let m = sample(12, 9, 3);
        let path = tmp("rewind.bin");
        write_csr(&path, &m).unwrap();
        let disk = DiskCsr::open(&path).unwrap();
        let x = vec![1.0; 9];
        let first = disk.matvec(&x).unwrap();
        for _ in 0..3 {
            assert_eq!(disk.matvec(&x).unwrap(), first);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn handles_empty_rows_and_empty_matrix() {
        let mut b = CooBuilder::new(5, 4);
        b.push(2, 1, 7.0).unwrap();
        let m = b.build();
        let path = tmp("sparse_rows.bin");
        write_csr(&path, &m).unwrap();
        let disk = DiskCsr::open(&path).unwrap();
        assert_eq!(disk.to_csr().unwrap(), m);

        let empty = CsrMatrix::zeros(3, 3);
        let path2 = tmp("empty.bin");
        write_csr(&path2, &empty).unwrap();
        let disk2 = DiskCsr::open(&path2).unwrap();
        assert_eq!(disk2.matvec(&[1.0; 3]).unwrap(), vec![0.0; 3]);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn products_on_a_zero_row_file() {
        let path = tmp("zero_rows.bin");
        write_csr(&path, &CsrMatrix::zeros(0, 4)).unwrap();
        let disk = DiskCsr::open(&path).unwrap();
        assert_eq!(disk.matvec(&[1.0; 4]).unwrap(), Vec::<f64>::new());
        assert_eq!(disk.matvec_t(&[]).unwrap(), vec![0.0; 4]);
        assert_eq!(disk.to_csr().unwrap(), CsrMatrix::zeros(0, 4));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_products_match_per_column_products_bitwise() {
        let m = sample(31, 19, 4);
        let path = tmp("block.bin");
        write_csr(&path, &m).unwrap();
        let disk = DiskCsr::open(&path).unwrap();
        let p = 3;
        let x: Vec<f64> = (0..19 * p).map(|i| (i as f64 * 0.37).sin()).collect();
        let u: Vec<f64> = (0..31 * p).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut y = vec![f64::NAN; 31 * p];
        let mut yt = vec![f64::NAN; 19 * p];
        disk.matmul_into(&x, p, &mut y).unwrap();
        disk.matmul_t_into(&u, p, &mut yt).unwrap();
        for j in 0..p {
            let xj: Vec<f64> = x.iter().skip(j).step_by(p).copied().collect();
            let uj: Vec<f64> = u.iter().skip(j).step_by(p).copied().collect();
            let yj: Vec<u64> = y.iter().skip(j).step_by(p).map(|v| v.to_bits()).collect();
            let ytj: Vec<u64> = yt.iter().skip(j).step_by(p).map(|v| v.to_bits()).collect();
            let want: Vec<u64> = disk
                .matvec(&xj)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want_t: Vec<u64> = disk
                .matvec_t(&uj)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(yj, want, "column {j} of A·X");
            assert_eq!(ytj, want_t, "column {j} of Aᵀ·X");
        }
        std::fs::remove_file(&path).ok();
    }

    /// The historical per-entry scan, kept as the bitwise oracle for the
    /// lane kernels: `visit(row, col, value)` for every stored entry in
    /// file order, advancing the row entry by entry.
    fn scan_entries(disk: &DiskCsr, mut visit: impl FnMut(usize, usize, f64)) {
        let mut guard = disk.scanner.lock().unwrap();
        let Scanner { reader, buf } = &mut *guard;
        reader.seek(SeekFrom::Start(disk.data_offset)).unwrap();
        let mut row = 0usize;
        let mut seen_in_row = 0u64;
        let mut row_len = disk.indptr.get(1).map_or(0, |end| end - disk.indptr[0]);
        let mut remaining = disk.nnz;
        while remaining > 0 {
            let take = remaining.min(CHUNK_ENTRIES);
            let bytes = take * ENTRY_BYTES;
            reader.read_exact(&mut buf[..bytes]).unwrap();
            for entry in buf[..bytes].chunks_exact(ENTRY_BYTES) {
                while seen_in_row == row_len {
                    row += 1;
                    seen_in_row = 0;
                    row_len = disk.indptr[row + 1] - disk.indptr[row];
                }
                let col = le_u64(entry, 0) as usize;
                let val = f64::from_bits(le_u64(entry, 8));
                visit(row, col, val);
                seen_in_row += 1;
            }
            remaining -= take;
        }
    }

    /// The historical `A·X` closure over [`scan_entries`].
    fn oracle_matmul(disk: &DiskCsr, x: &[f64], p: usize) -> Vec<f64> {
        let mut y = vec![0.0; disk.nrows() * p];
        scan_entries(disk, |r, c, v| {
            let xr = &x[c * p..(c + 1) * p];
            for (yi, xi) in y[r * p..(r + 1) * p].iter_mut().zip(xr) {
                *yi += v * xi;
            }
        });
        y
    }

    /// The historical `Aᵀ·X` closure over [`scan_entries`].
    fn oracle_matmul_t(disk: &DiskCsr, x: &[f64], p: usize) -> Vec<f64> {
        let mut y = vec![0.0; disk.ncols() * p];
        scan_entries(disk, |r, c, v| {
            let xr = &x[r * p..(r + 1) * p];
            for (yi, xi) in y[c * p..(c + 1) * p].iter_mut().zip(xr) {
                *yi += v * xi;
            }
        });
        y
    }

    /// The bit patterns of `v`, every NaN as one: Rust leaves the sign
    /// and payload of a NaN that arithmetic returns unspecified, and the
    /// optimizer may commute an add, so which NaN operand of `acc + v·x`
    /// survives can differ between two builds of the same expression.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    /// Rows across, on and inside the chunk boundaries: empty first, last
    /// and middle rows, a row ending exactly on the first boundary, a row
    /// longer than a whole chunk (three segments), and stored `±0.0`,
    /// `±inf` and NaN among the values.
    fn segment_fixture() -> CsrMatrix {
        let (m, n) = (60, 4700);
        let mut lens: Vec<usize> = (0..m).map(|i| 50 + (i * 97) % 331).collect();
        lens[0] = 0;
        lens[m - 1] = 0;
        lens[17] = 0;
        lens[30] = 4500;
        // shorten the row that crosses the first boundary to end on it
        let mut end = 0;
        for len in &mut lens {
            if end < CHUNK_ENTRIES && end + *len > CHUNK_ENTRIES {
                *len = CHUNK_ENTRIES - end;
            }
            end += *len;
        }
        let mut indptr = vec![0];
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        for (i, &len) in lens.iter().enumerate() {
            // `len` distinct columns, ascending
            let mut cols: Vec<usize> = (0..len).map(|t| (i * 389 + t * 7) % n).collect();
            cols.sort_unstable();
            for (t, &j) in cols.iter().enumerate() {
                let h = ((i * 131 + j * 17) as f64 * 12.9898).sin() * 43758.5453;
                let v = match (i, t, (i + t) % 97) {
                    (5, 3, _) => f64::INFINITY,
                    (44, 10, _) => f64::NEG_INFINITY,
                    (45, 0, _) => f64::NAN,
                    (.., 0) => 0.0,
                    (.., 1) => -0.0,
                    _ => (h - h.floor() - 0.5) * 10f64.powi((t % 9) as i32 - 4),
                };
                indices.push(j);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts(m, n, indptr, indices, values).unwrap()
    }

    /// A `len × p` block of mixed-magnitude values with `±0.0` sprinkled
    /// in and a rare `±inf` or NaN (rare enough to leave most sums finite).
    fn block(len: usize, p: usize, seed: usize) -> Vec<f64> {
        (0..len * p)
            .map(|i| match ((i * 7 + seed) % 211, (i * 13 + seed) % 4007) {
                (_, 0) => f64::INFINITY,
                (_, 1) => f64::NEG_INFINITY,
                (_, 2) => f64::NAN,
                (0, _) => 0.0,
                (1, _) => -0.0,
                (r, _) => ((i + seed) as f64 * 0.37).sin() * 10f64.powi((r % 7) as i32 - 3),
            })
            .collect()
    }

    #[test]
    fn lane_kernels_are_bitwise_the_per_entry_scan() {
        let m = segment_fixture();
        let ends: Vec<usize> = (0..m.nrows())
            .scan(0, |end, i| {
                *end += m.row_nnz(i);
                Some(*end)
            })
            .collect();
        assert!(ends.contains(&CHUNK_ENTRIES), "a row ends on a boundary");
        assert!((0..m.nrows()).any(|i| m.row_nnz(i) > CHUNK_ENTRIES));
        assert!(m.nnz() > 3 * CHUNK_ENTRIES);
        let path = tmp("lanes.bin");
        write_csr(&path, &m).unwrap();
        let disk = DiskCsr::open(&path).unwrap();
        for p in 1..=11 {
            let x = block(m.ncols(), p, p);
            let u = block(m.nrows(), p, 3 * p);
            let mut y = vec![f64::NAN; m.nrows() * p];
            let mut yt = vec![f64::NAN; m.ncols() * p];
            disk.matmul_into(&x, p, &mut y).unwrap();
            disk.matmul_t_into(&u, p, &mut yt).unwrap();
            assert_eq!(bits(&y), bits(&oracle_matmul(&disk, &x, p)), "A·X, p = {p}");
            assert_eq!(
                bits(&yt),
                bits(&oracle_matmul_t(&disk, &u, p)),
                "Aᵀ·X, p = {p}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_foreign_files() {
        let path = tmp("garbage.bin");
        std::fs::write(&path, b"definitely not a matrix").unwrap();
        assert!(DiskCsr::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated_file() {
        let m = sample(20, 15, 5);
        let path = tmp("truncated.bin");
        write_csr(&path, &m).unwrap();
        let full = std::fs::read(&path).unwrap();
        // chop entries off the tail: every prefix must be rejected
        for keep in [full.len() - 1, full.len() - ENTRY_BYTES, full.len() / 2] {
            std::fs::write(&path, &full[..keep]).unwrap();
            let err = DiskCsr::open(&path).unwrap_err();
            assert!(
                err.to_string().contains("truncated"),
                "unexpected error for keep={keep}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_trailing_bytes() {
        let m = sample(8, 6, 6);
        let path = tmp("trailing.bin");
        write_csr(&path, &m).unwrap();
        let mut full = std::fs::read(&path).unwrap();
        full.extend_from_slice(&[0u8; 7]);
        std::fs::write(&path, &full).unwrap();
        let err = DiskCsr::open(&path).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corrupted_header() {
        let m = sample(10, 10, 7);
        let path = tmp("badheader.bin");
        write_csr(&path, &m).unwrap();
        let full = std::fs::read(&path).unwrap();
        // corrupt the nnz field (offset 24): size check must catch it
        let mut bad_nnz = full.clone();
        bad_nnz[24] ^= 0xFF;
        std::fs::write(&path, &bad_nnz).unwrap();
        assert!(DiskCsr::open(&path).is_err());
        // nnz = u64::MAX: the checked size arithmetic must not overflow
        let mut huge_nnz = full.clone();
        huge_nnz[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &huge_nnz).unwrap();
        assert!(DiskCsr::open(&path).is_err());
        // rows = u64::MAX likewise
        let mut huge_rows = full;
        huge_rows[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &huge_rows).unwrap();
        assert!(DiskCsr::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_flipped_data_bit() {
        let m = sample(15, 12, 8);
        let path = tmp("bitflip.bin");
        write_csr(&path, &m).unwrap();
        let full = std::fs::read(&path).unwrap();
        // flip one bit in the last value byte: only the CRC can catch this
        let mut flipped = full;
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let err = DiskCsr::open(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_non_monotone_indptr() {
        let m = sample(6, 5, 9);
        let path = tmp("badindptr.bin");
        write_csr(&path, &m).unwrap();
        let mut full = std::fs::read(&path).unwrap();
        // indptr starts at byte 40; make the second pointer huge
        full[48..56].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &full).unwrap();
        let err = DiskCsr::open(&path).unwrap_err();
        assert!(
            err.to_string().contains("monotone") || err.to_string().contains("nnz"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_out_of_bounds_column() {
        let mut b = CooBuilder::new(2, 3);
        b.push(0, 0, 1.0).unwrap();
        b.push(1, 2, 2.0).unwrap();
        let m = b.build();
        let path = tmp("badcol.bin");
        write_csr(&path, &m).unwrap();
        let mut full = std::fs::read(&path).unwrap();
        // first entry's column index lives right after indptr (40 + 3*8)
        let col_off = 40 + 3 * 8;
        full[col_off..col_off + 8].copy_from_slice(&99u64.to_le_bytes());
        // keep the CRC honest so the column check is what fires
        let mut crc = Crc32::new();
        crc.update(&full[40..]);
        full[32..36].copy_from_slice(&crc.finish().to_le_bytes());
        std::fs::write(&path, &full).unwrap();
        let err = DiskCsr::open(&path).unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
