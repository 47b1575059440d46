//! Compact binary trace format (versioned + CRC-32 checksummed).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    b"FQDT"                     4 bytes
//! version  u16                         2 bytes
//! name     u32 length + UTF-8 bytes
//! count    u32 number of backups
//! backup*  label (u32 len + bytes), u64 chunk count,
//!          then per chunk: u64 fingerprint, u32 size
//! crc      u32 CRC-32 (IEEE) of everything before it
//! ```
//!
//! The format exists so generated datasets can be cached on disk and reloaded
//! by the experiment binaries without regeneration.

use std::fmt;
use std::io::{Read, Write};

use crate::{Backup, BackupSeries, ChunkRecord, Fingerprint};

const MAGIC: &[u8; 4] = b"FQDT";
const VERSION: u16 = 1;

/// Errors produced by trace (de)serialization.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// CRC mismatch: the file is corrupt or truncated.
    BadChecksum {
        /// Checksum stored in the file.
        expected: u32,
        /// Checksum computed over the payload read.
        actual: u32,
    },
    /// A length field exceeded sane bounds.
    LengthOverflow(u64),
    /// A label or name was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic => write!(f, "not a freqdedup trace file"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::BadChecksum { expected, actual } => write!(
                f,
                "trace checksum mismatch (expected {expected:#010x}, got {actual:#010x})"
            ),
            TraceIoError::LengthOverflow(n) => write!(f, "length field {n} exceeds limits"),
            TraceIoError::BadUtf8 => write!(f, "label is not valid utf-8"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC_TABLES[k][b]` is the CRC state after byte `b` followed
/// by `k` zero bytes — so eight message bytes are folded with eight
/// independent loads instead of eight dependent ones.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a fresh CRC computation.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ u64::from(crc);
            let [b0, b1, b2, b3, b4, b5, b6, b7] = word.to_le_bytes().map(usize::from);
            crc = t[7][b0]
                ^ t[6][b1]
                ^ t[5][b2]
                ^ t[4][b3]
                ^ t[3][b4]
                ^ t[2][b5]
                ^ t[1][b6]
                ^ t[0][b7];
        }
        for &b in words.remainder() {
            crc = t[0][usize::from(crc as u8 ^ b)] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Returns the checksum.
    #[must_use]
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

/// One-shot CRC-32.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

struct CrcWriter<W> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> CrcWriter<W> {
    fn write_all(&mut self, data: &[u8]) -> Result<(), TraceIoError> {
        self.crc.update(data);
        self.inner.write_all(data)?;
        Ok(())
    }

    fn write_u16(&mut self, v: u16) -> Result<(), TraceIoError> {
        self.write_all(&v.to_le_bytes())
    }

    fn write_u32(&mut self, v: u32) -> Result<(), TraceIoError> {
        self.write_all(&v.to_le_bytes())
    }

    fn write_u64(&mut self, v: u64) -> Result<(), TraceIoError> {
        self.write_all(&v.to_le_bytes())
    }

    fn write_str(&mut self, s: &str) -> Result<(), TraceIoError> {
        let len =
            u32::try_from(s.len()).map_err(|_| TraceIoError::LengthOverflow(s.len() as u64))?;
        self.write_u32(len)?;
        self.write_all(s.as_bytes())
    }
}

struct CrcReader<R> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> CrcReader<R> {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), TraceIoError> {
        self.inner.read_exact(buf)?;
        self.crc.update(buf);
        Ok(())
    }

    fn read_u16(&mut self) -> Result<u16, TraceIoError> {
        let mut b = [0u8; 2];
        self.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    fn read_u32(&mut self) -> Result<u32, TraceIoError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn read_u64(&mut self) -> Result<u64, TraceIoError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn read_str(&mut self) -> Result<String, TraceIoError> {
        let len = self.read_u32()? as usize;
        if len > 1 << 20 {
            return Err(TraceIoError::LengthOverflow(len as u64));
        }
        let mut buf = vec![0u8; len];
        self.read_exact(&mut buf)?;
        String::from_utf8(buf).map_err(|_| TraceIoError::BadUtf8)
    }
}

/// Serializes a series into `writer`.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] on write failure or
/// [`TraceIoError::LengthOverflow`] for absurd label lengths.
pub fn write_series<W: Write>(series: &BackupSeries, writer: W) -> Result<(), TraceIoError> {
    let mut w = CrcWriter {
        inner: writer,
        crc: Crc32::new(),
    };
    w.write_all(MAGIC)?;
    w.write_u16(VERSION)?;
    w.write_str(&series.name)?;
    let count = u32::try_from(series.len())
        .map_err(|_| TraceIoError::LengthOverflow(series.len() as u64))?;
    w.write_u32(count)?;
    for backup in series {
        w.write_str(&backup.label)?;
        w.write_u64(backup.len() as u64)?;
        for rec in backup {
            w.write_u64(rec.fp.value())?;
            w.write_u32(rec.size)?;
        }
    }
    let crc = w.crc.finalize();
    w.inner.write_all(&crc.to_le_bytes())?;
    Ok(())
}

/// Deserializes a series from `reader`, verifying magic, version and CRC.
///
/// # Errors
///
/// Returns the corresponding [`TraceIoError`] variant on malformed input.
pub fn read_series<R: Read>(reader: R) -> Result<BackupSeries, TraceIoError> {
    let mut r = CrcReader {
        inner: reader,
        crc: Crc32::new(),
    };
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let version = r.read_u16()?;
    if version != VERSION {
        return Err(TraceIoError::BadVersion(version));
    }
    let name = r.read_str()?;
    let count = r.read_u32()?;
    let mut series = BackupSeries::new(name);
    for _ in 0..count {
        let label = r.read_str()?;
        let n = r.read_u64()?;
        if n > 1 << 40 {
            return Err(TraceIoError::LengthOverflow(n));
        }
        let mut backup = Backup::new(label);
        backup.chunks.reserve(n as usize);
        for _ in 0..n {
            let fp = r.read_u64()?;
            let size = r.read_u32()?;
            backup.push(ChunkRecord::new(Fingerprint(fp), size));
        }
        series.push(backup);
    }
    let actual = r.crc.finalize();
    let mut crc_bytes = [0u8; 4];
    r.inner.read_exact(&mut crc_bytes)?;
    let expected = u32::from_le_bytes(crc_bytes);
    if expected != actual {
        return Err(TraceIoError::BadChecksum { expected, actual });
    }
    Ok(series)
}

/// Serializes a series to an in-memory byte vector.
#[must_use]
pub fn to_bytes(series: &BackupSeries) -> Vec<u8> {
    let mut buf = Vec::new();
    write_series(series, &mut buf).expect("in-memory write cannot fail");
    buf
}

/// Deserializes a series from a byte slice.
///
/// # Errors
///
/// See [`read_series`].
pub fn from_bytes(bytes: &[u8]) -> Result<BackupSeries, TraceIoError> {
    read_series(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> BackupSeries {
        let mut s = BackupSeries::new("unit");
        s.push(Backup::from_chunks(
            "b0",
            vec![
                ChunkRecord::new(1u64, 8192),
                ChunkRecord::new(2u64, 4096),
                ChunkRecord::new(1u64, 8192),
            ],
        ));
        s.push(Backup::from_chunks("b1", vec![ChunkRecord::new(3u64, 100)]));
        s
    }

    #[test]
    fn crc32_known_vector() {
        // Classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition: one table step per byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in data {
            crc = CRC_TABLES[0][usize::from(crc as u8 ^ b)] ^ (crc >> 8);
        }
        crc ^ 0xffff_ffff
    }

    #[test]
    fn slicing_equals_bytewise_at_every_length_offset_and_split() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for offset in 0..8 {
            for len in 0..=67 {
                let data = &buf[offset..offset + len];
                let want = crc32_bytewise(data);
                assert_eq!(crc32(data), want, "offset {offset} len {len}");
                for cut in 0..=len {
                    let mut c = Crc32::new();
                    c.update(&data[..cut]);
                    c.update(&data[cut..]);
                    assert_eq!(c.finalize(), want, "offset {offset} len {len} cut {cut}");
                }
            }
        }
    }

    #[test]
    fn round_trip() {
        let s = sample_series();
        let bytes = to_bytes(&s);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn round_trip_empty_series() {
        let s = BackupSeries::new("");
        let back = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = to_bytes(&sample_series());
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(TraceIoError::BadMagic)));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = to_bytes(&sample_series());
        bytes[4] = 99;
        assert!(matches!(
            from_bytes(&bytes),
            Err(TraceIoError::BadVersion(99))
        ));
    }

    #[test]
    fn rejects_corruption() {
        let mut bytes = to_bytes(&sample_series());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        match from_bytes(&bytes) {
            Err(TraceIoError::BadChecksum { .. }) => {}
            // Corruption in a length field may surface as a different error;
            // it must be an error either way.
            Err(_) => {}
            Ok(_) => panic!("corrupted trace deserialized successfully"),
        }
    }

    #[test]
    fn rejects_truncation() {
        let bytes = to_bytes(&sample_series());
        let truncated = &bytes[..bytes.len() - 1];
        assert!(from_bytes(truncated).is_err());
    }

    #[test]
    fn error_display_readable() {
        let e = TraceIoError::BadChecksum {
            expected: 1,
            actual: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains("checksum"));
    }
}
