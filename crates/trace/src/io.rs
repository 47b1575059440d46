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
//!
//! [`CrcWriter`] / [`CrcReader`] are the workspace's one checksummed codec:
//! every CRC-checked on-disk format (this one, the adversary tap's state and
//! registry, and the store's meta, snapshot, journal, container and recipe
//! files) is written and read through them. Readers obey unverified lengths
//! only through [`CrcReader::seq`] and [`CrcReader::bytes_into`], which never
//! reserve more than [`RESERVE_CAP`] ahead of the bytes actually read.

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
    /// The named field passed the checksum but contradicts the rest of
    /// the input.
    Malformed(&'static str),
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
            TraceIoError::Malformed(field) => write!(f, "malformed {field}"),
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

/// Most elements (or bytes) one length field may reserve before the data
/// it announces has arrived. Every length in these formats is read before
/// the trailing CRC can vouch for it, so it bounds a loop, never an
/// allocation: past this cap a buffer grows only as its bytes are read.
pub const RESERVE_CAP: usize = 1 << 20;

/// A decode failure of the shared [`CrcReader`] codec. `file` names what
/// was being read (a file name or format label) so each crate's error
/// type can be built from it by `From`.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure other than end of input.
    Io(std::io::Error),
    /// The input ended inside `field`.
    Truncated {
        /// What was being read.
        file: String,
        /// The field the input ended in.
        field: &'static str,
    },
    /// The leading magic bytes did not match.
    BadMagic {
        /// What was being read.
        file: String,
    },
    /// The format version is not the supported one.
    BadVersion {
        /// What was being read.
        file: String,
        /// The version found.
        version: u16,
    },
    /// The trailing CRC does not match the bytes before it.
    BadChecksum {
        /// What was being read.
        file: String,
        /// Checksum stored in the input.
        expected: u32,
        /// Checksum computed over the bytes read.
        actual: u32,
    },
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// What was being read.
        file: String,
        /// The offending field.
        field: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::Truncated { file, field } => write!(f, "{file}: input ends inside {field}"),
            CodecError::BadMagic { file } => write!(f, "{file}: bad magic"),
            CodecError::BadVersion { file, version } => {
                write!(f, "{file}: unsupported format version {version}")
            }
            CodecError::BadChecksum {
                file,
                expected,
                actual,
            } => write!(
                f,
                "{file}: checksum mismatch (expected {expected:#010x}, got {actual:#010x})"
            ),
            CodecError::BadUtf8 { file, field } => write!(f, "{file}: {field} is not utf-8"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for TraceIoError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(e) => TraceIoError::Io(e),
            CodecError::Truncated { file, field } => TraceIoError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("{file}: input ends inside {field}"),
            )),
            CodecError::BadMagic { .. } => TraceIoError::BadMagic,
            CodecError::BadVersion { version, .. } => TraceIoError::BadVersion(version),
            CodecError::BadChecksum {
                expected, actual, ..
            } => TraceIoError::BadChecksum { expected, actual },
            CodecError::BadUtf8 { .. } => TraceIoError::BadUtf8,
        }
    }
}

/// The checksummed little-endian writer every on-disk format of the
/// workspace is written with: fields go out in call order, and
/// [`Self::finish`] appends the CRC-32 of all of them. Every method fails
/// only with the inner writer's I/O error.
#[derive(Debug)]
pub struct CrcWriter<W> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> CrcWriter<W> {
    /// Starts a checksummed stream over `inner`.
    pub fn new(inner: W) -> Self {
        CrcWriter {
            inner,
            crc: Crc32::new(),
        }
    }

    /// Writes raw bytes.
    pub fn bytes(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.crc.update(data);
        self.inner.write_all(data)
    }

    /// Writes a format header: four magic bytes and a `u16` version.
    pub fn header(&mut self, magic: &[u8; 4], version: u16) -> std::io::Result<()> {
        self.bytes(magic)?;
        self.u16(version)
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) -> std::io::Result<()> {
        self.bytes(&[v])
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> std::io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> std::io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> std::io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    /// Writes a string as a `u32` byte length and its UTF-8 bytes.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] for a string of 4 GiB or more;
    /// any write failure of the inner writer.
    pub fn str(&mut self, s: &str) -> std::io::Result<()> {
        let len = u32::try_from(s.len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "string exceeds 4 GiB")
        })?;
        self.u32(len)?;
        self.bytes(s.as_bytes())
    }

    /// Returns the inner writer without a trailing CRC (for a bare header).
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// Appends the CRC-32 of everything written so far and returns the
    /// inner writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        let crc = self.crc.finalize();
        self.inner.write_all(&crc.to_le_bytes())?;
        Ok(self.inner)
    }
}

/// The checksummed little-endian reader mirroring [`CrcWriter`]. Every
/// read names its field: a short input is [`CodecError::Truncated`] at
/// that field, any other read failure [`CodecError::Io`].
#[derive(Debug)]
pub struct CrcReader<'a, R> {
    inner: R,
    crc: Crc32,
    file: &'a str,
}

impl<'a, R: Read> CrcReader<'a, R> {
    /// Starts a checksummed read of `inner`; `file` names it in errors.
    pub fn new(inner: R, file: &'a str) -> Self {
        CrcReader {
            inner,
            crc: Crc32::new(),
            file,
        }
    }

    fn fill(&mut self, buf: &mut [u8], field: &'static str) -> Result<(), CodecError> {
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                CodecError::Truncated {
                    file: self.file.to_string(),
                    field,
                }
            } else {
                CodecError::Io(e)
            }
        })
    }

    /// Reads exactly `buf.len()` bytes of `field`.
    pub fn bytes(&mut self, buf: &mut [u8], field: &'static str) -> Result<(), CodecError> {
        self.fill(buf, field)?;
        self.crc.update(buf);
        Ok(())
    }

    /// Reads and checks a format header written by [`CrcWriter::header`].
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMagic`] / [`CodecError::BadVersion`] for a foreign
    /// header, or a read error.
    pub fn expect_header(&mut self, magic: &[u8; 4], version: u16) -> Result<(), CodecError> {
        let mut found = [0u8; 4];
        self.bytes(&mut found, "magic")?;
        if &found != magic {
            return Err(CodecError::BadMagic {
                file: self.file.to_string(),
            });
        }
        match self.u16("version")? {
            v if v == version => Ok(()),
            v => Err(CodecError::BadVersion {
                file: self.file.to_string(),
                version: v,
            }),
        }
    }

    /// Reads one byte of `field`.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        let mut b = [0u8; 1];
        self.bytes(&mut b, field)?;
        Ok(b[0])
    }

    /// Reads a little-endian `u16` of `field`.
    pub fn u16(&mut self, field: &'static str) -> Result<u16, CodecError> {
        let mut b = [0u8; 2];
        self.bytes(&mut b, field)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a little-endian `u32` of `field`.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        let mut b = [0u8; 4];
        self.bytes(&mut b, field)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64` of `field`.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        let mut b = [0u8; 8];
        self.bytes(&mut b, field)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a string written by [`CrcWriter::str`].
    pub fn str(&mut self, field: &'static str) -> Result<String, CodecError> {
        let len = self.u32(field)?;
        let mut buf = Vec::new();
        self.bytes_into(&mut buf, u64::from(len), field)?;
        String::from_utf8(buf).map_err(|_| CodecError::BadUtf8 {
            file: self.file.to_string(),
            field,
        })
    }

    /// The length rule for raw bytes: appends `len` bytes of `field` to
    /// `buf`, growing it by at most [`RESERVE_CAP`] bytes ahead of what has
    /// arrived — a forged length costs the input's length plus one step.
    pub fn bytes_into(
        &mut self,
        buf: &mut Vec<u8>,
        len: u64,
        field: &'static str,
    ) -> Result<(), CodecError> {
        let mut left = len;
        while left > 0 {
            let step = left.min(RESERVE_CAP as u64) as usize;
            let start = buf.len();
            buf.resize(start + step, 0);
            self.bytes(&mut buf[start..], field)?;
            left -= step as u64;
        }
        Ok(())
    }

    /// The length rule for sequences: reads `count` items with `item`,
    /// reserving at most [`RESERVE_CAP`] of them up front, so a forged
    /// count grows the vector only as its items arrive.
    ///
    /// # Errors
    ///
    /// The first error `item` returns.
    pub fn seq<T, E>(
        &mut self,
        count: u64,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let mut out = Vec::with_capacity(count.min(RESERVE_CAP as u64) as usize);
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Reads the trailing CRC (not itself checksummed) and checks it
    /// against everything read so far.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadChecksum`] on a mismatch, or a read error.
    pub fn expect_crc(&mut self) -> Result<(), CodecError> {
        let actual = self.crc.finalize();
        let mut b = [0u8; 4];
        self.fill(&mut b, "trailing checksum")?;
        let expected = u32::from_le_bytes(b);
        if expected != actual {
            return Err(CodecError::BadChecksum {
                file: self.file.to_string(),
                expected,
                actual,
            });
        }
        Ok(())
    }
}

/// Serializes a series into `writer`.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] on write failure (a label of 4 GiB or more
/// included) or [`TraceIoError::LengthOverflow`] for more than `u32::MAX`
/// backups.
pub fn write_series<W: Write>(series: &BackupSeries, writer: W) -> Result<(), TraceIoError> {
    let mut w = CrcWriter::new(writer);
    w.header(MAGIC, VERSION)?;
    w.str(&series.name)?;
    let count = u32::try_from(series.len())
        .map_err(|_| TraceIoError::LengthOverflow(series.len() as u64))?;
    w.u32(count)?;
    for backup in series {
        w.str(&backup.label)?;
        w.u64(backup.len() as u64)?;
        for rec in backup {
            w.u64(rec.fp.value())?;
            w.u32(rec.size)?;
        }
    }
    w.finish()?;
    Ok(())
}

/// Deserializes a series from `reader`, verifying magic, version and CRC.
///
/// # Errors
///
/// Returns the corresponding [`TraceIoError`] variant on malformed input.
pub fn read_series<R: Read>(reader: R) -> Result<BackupSeries, TraceIoError> {
    let mut r = CrcReader::new(reader, "trace");
    r.expect_header(MAGIC, VERSION)?;
    let mut series = BackupSeries::new(r.str("series name")?);
    let count = r.u32("backup count")?;
    for _ in 0..count {
        let label = r.str("backup label")?;
        let n = r.u64("chunk count")?;
        let chunks = r.seq(n, |r| {
            let fp = r.u64("chunk fingerprint")?;
            Ok::<_, CodecError>(ChunkRecord::new(Fingerprint(fp), r.u32("chunk size")?))
        })?;
        series.push(Backup::from_chunks(label, chunks));
    }
    r.expect_crc()?;
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

    /// A valid one-backup series whose chunk count is forged to 2^40:
    /// typed error, no 16 TiB reservation.
    #[test]
    fn forged_chunk_count_is_a_typed_error() {
        let mut s = BackupSeries::new("s");
        s.push(Backup::from_chunks("b", vec![ChunkRecord::new(7u64, 64)]));
        let mut bytes = to_bytes(&s);
        // magic 4, version 2, name 4 + 1, backup count 4, label 4 + 1.
        let at = 20;
        assert_eq!(bytes[at..at + 8], 1u64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(from_bytes(&bytes), Err(TraceIoError::Io(_))));
    }

    #[test]
    fn short_read_grows_the_buffer_by_at_most_one_step() {
        let input = [0xabu8; 100];
        let mut r = CrcReader::new(&input[..], "unit");
        let mut buf = Vec::new();
        let err = r.bytes_into(&mut buf, u64::from(u32::MAX), "payload");
        assert!(matches!(
            err,
            Err(CodecError::Truncated {
                field: "payload",
                ..
            })
        ));
        assert!(
            buf.capacity() <= input.len() + RESERVE_CAP,
            "{}",
            buf.capacity()
        );

        let mut r = CrcReader::new(&input[..], "unit");
        let got = r.seq(u64::MAX, |r| r.u64("item"));
        assert!(matches!(
            got,
            Err(CodecError::Truncated { field: "item", .. })
        ));
    }

    #[test]
    fn codec_round_trips_every_field_and_checks_header_and_crc() {
        let mut w = CrcWriter::new(Vec::new());
        w.header(b"TEST", 3).unwrap();
        w.u8(1).unwrap();
        w.u16(2).unwrap();
        w.u32(3).unwrap();
        w.u64(4).unwrap();
        w.str("five").unwrap();
        let bytes = w.finish().unwrap();
        let mut r = CrcReader::new(&bytes[..], "unit");
        r.expect_header(b"TEST", 3).unwrap();
        assert_eq!(r.u8("a").unwrap(), 1);
        assert_eq!(r.u16("b").unwrap(), 2);
        assert_eq!(r.u32("c").unwrap(), 3);
        assert_eq!(r.u64("d").unwrap(), 4);
        assert_eq!(r.str("e").unwrap(), "five");
        r.expect_crc().unwrap();

        let mut r = CrcReader::new(&bytes[..], "unit");
        assert!(matches!(
            r.expect_header(b"TEST", 4),
            Err(CodecError::BadVersion { version: 3, .. })
        ));
        let mut r = CrcReader::new(&bytes[..], "unit");
        assert!(matches!(
            r.expect_header(b"TESS", 3),
            Err(CodecError::BadMagic { .. })
        ));
        let mut r = CrcReader::new(&bytes[..], "unit");
        r.expect_header(b"TEST", 3).unwrap();
        assert!(matches!(
            r.expect_crc(),
            Err(CodecError::BadChecksum { .. })
        ));
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
