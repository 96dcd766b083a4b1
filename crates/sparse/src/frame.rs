//! CRC-framed records: the one persistence layout shared by the solver
//! checkpoint (`SRDACKP1`), the fit checkpoint (`SRDAFCK2`) and the CLI
//! model file (`SRDAMDL1`).
//!
//! ## Layout
//!
//! ```text
//! magic    8 bytes  format tag, e.g. b"SRDACKP1"
//! payload  ...      fields in write order, little-endian:
//!                     u8 · u32 · u64 · f64 (raw IEEE bits)
//!                     f64 slice  = u64 length, then the values
//!                     byte slice = u64 length, then the bytes
//! crc32    u32      CRC-32/IEEE (see crate::crc32) of magic ++ payload
//! ```
//!
//! Floats are stored as their raw bits, so a round trip is exact, signed
//! zeros and NaN payloads included. Records carry no field names or
//! types: each format's writer and reader list the fields in the same
//! order, and [`Reader::finish`] rejects a record with bytes left over.
//!
//! ## Integrity
//!
//! [`Reader::open`] checks the magic and the CRC before any field is
//! read, so every single-bit flip and every truncation is rejected as a
//! [`FrameError`]. A length field is checked against the bytes that are
//! left before anything is allocated for it.
//!
//! [`write_atomic`] writes a record to a temporary file in the target's
//! directory, syncs it, renames it over the target and syncs the
//! directory, so a crash leaves either the old file or the new one.
//!
//! `SRDACSR2` ([`crate::disk`]) uses the same CRC but keeps its own
//! streaming reader and writer: a disk matrix is never held in memory.

use crate::crc32::crc32;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a record was rejected: wrong magic, CRC mismatch, truncation,
/// an implausible length, or bytes left after the last field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FrameError {}

/// Builds one record: the magic, then the fields in call order.
#[derive(Debug)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// Start a record with the 8-byte format tag.
    pub fn new(magic: &[u8; 8]) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(magic);
        Writer(buf)
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Append the raw bits of an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed `f64` slice.
    pub fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        self.0.reserve(8 * v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// Append a length-prefixed byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }

    /// Append the CRC of everything written and return the record.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.0);
        self.u32(crc);
        self.0
    }
}

/// Reads the fields of one verified record, in write order.
#[derive(Debug)]
pub struct Reader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Check the magic and the CRC of `record`, and position the reader
    /// at the first field.
    pub fn open(record: &'a [u8], magic: &[u8; 8]) -> Result<Self, FrameError> {
        let tag = String::from_utf8_lossy(magic);
        if record.len() < magic.len() + 4 {
            return Err(FrameError(format!(
                "file too short ({} bytes) to be an {tag} record",
                record.len()
            )));
        }
        if &record[..magic.len()] != magic {
            return Err(FrameError(format!("bad magic: not an {tag} file")));
        }
        let (body, crc_bytes) = record.split_at(record.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("split_at leaves 4 bytes"));
        let computed = crc32(body);
        if stored != computed {
            return Err(FrameError(format!(
                "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        Ok(Reader {
            payload: &body[magic.len()..],
            pos: 0,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let remaining = self.payload.len() - self.pos;
        if n > remaining {
            return Err(FrameError(format!(
                "truncated: wanted {n} bytes at payload offset {}, {remaining} left",
                self.pos
            )));
        }
        let s = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a `u64` that must fit in `usize`.
    pub fn usize(&mut self) -> Result<usize, FrameError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| FrameError(format!("value {v} exceeds usize")))
    }

    /// Read the raw bits of an `f64`.
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length prefix for `width`-byte items, refusing any length
    /// the rest of the record cannot hold.
    fn len(&mut self, width: usize) -> Result<usize, FrameError> {
        let n = self.u64()?;
        let remaining = (self.payload.len() - self.pos) as u64;
        if n.saturating_mul(width as u64) > remaining {
            return Err(FrameError(format!(
                "implausible length {n}: only {remaining} bytes left"
            )));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed `f64` slice.
    pub fn f64s(&mut self) -> Result<Vec<f64>, FrameError> {
        let n = self.len(8)?;
        let bytes = self.take(8 * n)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks of 8")))
            .collect())
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, FrameError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| FrameError("string field is not valid UTF-8".to_string()))
    }

    /// Require that every byte of the payload was read.
    pub fn finish(self) -> Result<(), FrameError> {
        let left = self.payload.len() - self.pos;
        if left != 0 {
            return Err(FrameError(format!("{left} trailing bytes after payload")));
        }
        Ok(())
    }
}

/// Write `bytes` to `path` atomically: a temporary file in the same
/// directory is written and synced, renamed over `path`, and the
/// directory is synced. Readers see the old file or the new one, never a
/// torn write; on error the temporary file is removed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    // pid + per-process counter: concurrent writers never share a temp file
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{}: not a file path", path.display()),
        )
    })?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let tmp = dir.join(format!(
        ".{}.tmp-{}-{}",
        file_name.to_string_lossy(),
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        sync_dir(&dir)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Make a rename inside `dir` durable.
#[cfg(unix)]
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Directories cannot be opened as files here; the rename is as durable
/// as the platform makes it.
#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> std::io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"SRDATST1";

    fn sample() -> Vec<u8> {
        let mut w = Writer::new(MAGIC);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64s(&[1.5, f64::NAN, -2.25]);
        w.bytes(b"warning");
        w.finish()
    }

    #[test]
    fn fields_roundtrip_exactly() {
        let bytes = sample();
        let mut r = Reader::open(&bytes, MAGIC).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        let v = r.f64s().unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], 1.5);
        assert_eq!(v[1].to_bits(), f64::NAN.to_bits());
        assert_eq!(r.str().unwrap(), "warning");
        r.finish().unwrap();
    }

    #[test]
    fn layout_is_magic_fields_crc() {
        let mut w = Writer::new(MAGIC);
        w.u32(1);
        w.f64s(&[2.0]);
        let bytes = w.finish();
        let mut want = MAGIC.to_vec();
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&1u64.to_le_bytes());
        want.extend_from_slice(&2.0f64.to_le_bytes());
        let crc = crc32(&want);
        want.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(bytes, want);
    }

    #[test]
    fn wrong_magic_and_leftovers_are_rejected() {
        let bytes = sample();
        let err = Reader::open(&bytes, b"SRDAXXX1").unwrap_err();
        assert!(err.0.contains("bad magic"), "{err}");
        let mut r = Reader::open(&bytes, MAGIC).unwrap();
        r.u8().unwrap();
        assert!(r.finish().unwrap_err().0.contains("trailing"));
    }

    #[test]
    fn implausible_lengths_fail_before_allocating() {
        let mut w = Writer::new(MAGIC);
        w.u64(u64::MAX); // a slice length no record can hold
        let bytes = w.finish();
        let err = Reader::open(&bytes, MAGIC).unwrap().f64s().unwrap_err();
        assert!(err.0.contains("implausible"), "{err}");
        let err = Reader::open(&bytes, MAGIC).unwrap().bytes().unwrap_err();
        assert!(err.0.contains("implausible"), "{err}");
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("srda-frame-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("record.bin")]);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(write_atomic(&dir.join("missing/x.bin"), b"x").is_err());
    }
}
