//! The write-ahead journal: one append-only file of CRC-framed records,
//! shared by the store's `manifest.log` ([`crate::manifest`]) and the
//! service's `catalog.log`.
//!
//! ```text
//! header    magic (4) + version u16 (= 1)
//! record*   kind u8, payload length u32, payload, crc u32 over all three
//! ```
//!
//! The *valid prefix* ends at the first record cut short or failing its
//! CRC, the torn tail a crash leaves; what a record means is its owner's
//! business. A failed append leaves the file as the failure left it, as a
//! crash there would, and the next append first cuts the file back to the
//! valid length (failing if that cut fails), so no record ever lands
//! behind a tear. The catalog appends again after a failure (it answered
//! the failed operation `NOT_DURABLE`); the store's engine does not, as
//! its memory is then ahead of its files
//! ([`crate::persist::PersistError::Failed`]).

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use freqdedup_trace::io::{CodecError, CrcReader, CrcWriter};

use crate::fault::{FaultFile, IoPolicyHandle, PersistSite};
use crate::persist::{maybe_sync, maybe_sync_dir, FsyncPolicy, PersistError};

/// Bytes of a journal header: magic and version.
pub const HEADER_LEN: u64 = 6;
const VERSION: u16 = 1;

/// What tells one journal from another: its header magic and the fault
/// sites its writes consult.
#[derive(Debug)]
pub struct JournalFormat {
    /// Header magic.
    pub magic: &'static [u8; 4],
    /// The header write at creation.
    pub header_site: PersistSite,
    /// Each record write.
    pub append_site: PersistSite,
    /// The fsync after the header and after each record.
    pub sync_site: PersistSite,
}

/// One record of a journal's valid prefix: kind, payload, and the file
/// offset just past it.
pub type Frame = (u8, Vec<u8>, u64);

/// An open journal, appending records.
#[derive(Debug)]
pub struct Journal {
    /// Opened in append mode: a write lands at the end the last cut left.
    file: FaultFile,
    format: &'static JournalFormat,
    fsync: FsyncPolicy,
    io: IoPolicyHandle,
    /// Length of the valid prefix: where the next record goes.
    len: u64,
    /// Whether the file may hold bytes past `len` (a torn tail, a failed
    /// append, or records the owner dropped) for the next append to cut.
    torn: bool,
}

impl Journal {
    /// Creates the journal at `path`, header only, replacing any file
    /// there, and opens it for appending.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on a write or sync failure.
    pub fn create(
        path: &Path,
        format: &'static JournalFormat,
        fsync: FsyncPolicy,
        io: &IoPolicyHandle,
    ) -> Result<Journal, PersistError> {
        let mut file = FaultFile::new(File::create(path)?, io.clone(), format.header_site);
        let mut header = CrcWriter::new(Vec::with_capacity(HEADER_LEN as usize));
        header.header(format.magic, VERSION)?;
        file.write_all(&header.into_inner())?;
        io.check_sync(format.sync_site)?;
        maybe_sync(file.file(), fsync)?;
        io.check_sync(PersistSite::DirSync)?;
        maybe_sync_dir(path.parent().unwrap_or(Path::new(".")), fsync)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            file: FaultFile::new(file, io.clone(), format.append_site),
            format,
            fsync,
            io: io.clone(),
            len: HEADER_LEN,
            torn: false,
        })
    }

    /// Reads the valid prefix of the journal at `path` through a read-only
    /// handle.
    ///
    /// # Errors
    ///
    /// As [`Self::open`].
    pub fn scan(path: &Path, format: &JournalFormat) -> Result<Vec<Frame>, PersistError> {
        Ok(read_frames(&File::open(path)?, path, format)?.0)
    }

    /// Opens the journal at `path` and reads its valid prefix, writing
    /// nothing: the owner keeps a prefix of its frames and cuts the rest
    /// with [`Self::truncate`].
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the file is missing or unreadable,
    /// [`PersistError::Corrupt`] for a header cut short (it is written
    /// before any record), `BadMagic` / `BadVersion` for a foreign one.
    pub fn open(
        path: &Path,
        format: &'static JournalFormat,
        fsync: FsyncPolicy,
        io: &IoPolicyHandle,
    ) -> Result<(Journal, Vec<Frame>), PersistError> {
        let file = OpenOptions::new().read(true).append(true).open(path)?;
        let (records, len) = read_frames(&file, path, format)?;
        let (torn, io) = (len < file.metadata()?.len(), io.clone());
        let file = FaultFile::new(file, io.clone(), format.append_site);
        let journal = Journal {
            file,
            format,
            fsync,
            io,
            len,
            torn,
        };
        Ok((journal, records))
    }

    /// Length of the valid prefix, header included.
    #[must_use]
    pub fn valid_len(&self) -> u64 {
        self.len
    }

    /// Cuts the file back to `len` bytes (at most [`Self::valid_len`]) and
    /// syncs the cut; writes nothing when there is nothing to cut.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] when the cut or its sync fails.
    pub fn truncate(&mut self, len: u64) -> Result<(), PersistError> {
        if len < self.len {
            (self.len, self.torn) = (len, true);
        }
        self.cut_back()
    }

    /// Appends one record in one write and syncs it, after cutting any
    /// tail past the valid prefix. A failure leaves the file as it left
    /// it, for the next append to cut.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] when the cut, the write or the sync fails,
    /// or the payload is 4 GiB or more.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), PersistError> {
        let len = u32::try_from(payload.len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "record exceeds 4 GiB")
        })?;
        let mut w = CrcWriter::new(Vec::with_capacity(9 + payload.len()));
        w.u8(kind)?;
        w.u32(len)?;
        w.bytes(payload)?;
        let record = w.finish()?;
        self.cut_back()?;
        let written = (self.file.write_all(&record).map_err(PersistError::Io))
            .and_then(|()| self.io.check_sync(self.format.sync_site))
            .and_then(|()| maybe_sync(self.file.file(), self.fsync));
        match written {
            Ok(()) => self.len += record.len() as u64,
            Err(_) => self.torn = true,
        }
        written
    }

    /// Cuts the tail past the valid prefix, if there may be one.
    fn cut_back(&mut self) -> Result<(), PersistError> {
        if self.torn {
            self.file.file().set_len(self.len)?;
            maybe_sync(self.file.file(), self.fsync)?;
            self.torn = false;
        }
        Ok(())
    }
}

/// Reads the header and the valid prefix's frames from the start of
/// `file`, returning them with the prefix's length.
fn read_frames(
    file: &File,
    path: &Path,
    format: &JournalFormat,
) -> Result<(Vec<Frame>, u64), PersistError> {
    let name = path
        .file_name()
        .map_or("journal".into(), |n| n.to_string_lossy());
    let mut r = BufReader::new(file);
    (CrcReader::new(&mut r, &name).expect_header(format.magic, VERSION)).map_err(|e| match e {
        CodecError::Truncated { .. } => PersistError::Corrupt(format!("{name}: truncated header")),
        e => e.into(),
    })?;
    let (mut len, mut records) = (HEADER_LEN, Vec::new());
    while !r.fill_buf()?.is_empty() {
        let mut r = CrcReader::new(&mut r, &name);
        let record = (|| {
            let (kind, len) = (r.u8("record kind")?, r.u32("record length")?);
            let mut payload = Vec::new();
            r.bytes_into(&mut payload, u64::from(len), "record payload")?;
            r.expect_crc()?;
            Ok((kind, payload))
        })();
        match record {
            Ok((kind, payload)) => {
                len += 9 + payload.len() as u64;
                records.push((kind, payload, len));
            }
            // A read error is not a torn tail: calling it one would let the
            // owner cut committed records away.
            Err(CodecError::Io(e)) => return Err(e.into()),
            Err(_) => break,
        }
    }
    Ok((records, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FailAt, FailMode};

    static TEST: JournalFormat = JournalFormat {
        magic: b"TEST",
        header_site: PersistSite::ManifestHeader,
        append_site: PersistSite::ManifestAppend,
        sync_site: PersistSite::ManifestSync,
    };

    fn path(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("freqdedup-journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("test.log")
    }

    fn open(path: &Path) -> (Journal, Vec<(u8, Vec<u8>)>) {
        let (journal, frames) =
            Journal::open(path, &TEST, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        let frames = frames.into_iter().map(|(kind, payload, _)| (kind, payload));
        (journal, frames.collect())
    }

    fn done(path: &Path) {
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn frames_round_trip_with_their_end_offsets() {
        let path = path("round-trip");
        let mut j =
            Journal::create(&path, &TEST, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        j.append(1, b"abc").unwrap();
        j.append(7, b"").unwrap();
        assert_eq!(j.valid_len(), 6 + 12 + 9);
        drop(j);
        let (j, frames) =
            Journal::open(&path, &TEST, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        assert_eq!(frames, [(1, b"abc".to_vec(), 18), (7, Vec::new(), 27)]);
        assert_eq!(j.valid_len(), 27);
        assert_eq!(Journal::scan(&path, &TEST).unwrap(), frames);
        done(&path);
    }

    /// An append after a torn append, or after one whose sync failed,
    /// lands at the valid length: it survives reopen, and so do the
    /// records before it.
    #[test]
    fn append_after_a_failed_append_survives_reopen() {
        // The header's sync is the first at the sync site.
        for (site, skip, mode) in [
            (PersistSite::ManifestAppend, 1, FailMode::Torn),
            (PersistSite::ManifestAppend, 1, FailMode::Error),
            (PersistSite::ManifestSync, 2, FailMode::Error),
        ] {
            let path = path("after-tear");
            let io = IoPolicyHandle::new(FailAt::new(site, skip, mode));
            let mut j = Journal::create(&path, &TEST, FsyncPolicy::Never, &io).unwrap();
            j.append(1, b"first").unwrap();
            assert!(j.append(2, b"failed").is_err(), "{site:?} {mode:?}");
            j.append(3, b"third").unwrap();
            drop(j);
            let (_, frames) = open(&path);
            assert_eq!(
                frames,
                [(1, b"first".to_vec()), (3, b"third".to_vec())],
                "{site:?} {mode:?}"
            );
            done(&path);
        }
    }

    /// `open` writes nothing, even over a torn tail; `truncate` cuts the
    /// tail (or more), and the next append lands right after the cut.
    #[test]
    fn open_writes_nothing_and_truncate_cuts() {
        let path = path("truncate");
        let mut j =
            Journal::create(&path, &TEST, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        j.append(1, b"one").unwrap();
        j.append(2, b"two").unwrap();
        drop(j);
        let whole = std::fs::read(&path).unwrap();
        let torn = [&whole[..], &[2, 9, 0]].concat();
        std::fs::write(&path, &torn).unwrap();
        let (mut j, frames) = open(&path);
        assert_eq!(frames.len(), 2);
        assert_eq!(std::fs::read(&path).unwrap(), torn, "open wrote");
        j.truncate(j.valid_len()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), whole);
        j.truncate(18).unwrap();
        j.append(3, b"new").unwrap();
        drop(j);
        assert_eq!(open(&path).1, [(1, b"one".to_vec()), (3, b"new".to_vec())]);
        done(&path);
    }

    /// A header cut short is corruption; a foreign one keeps its variant.
    #[test]
    fn bad_header_fails_typed() {
        let path = path("header");
        Journal::create(&path, &TEST, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        let whole = std::fs::read(&path).unwrap();
        let none = IoPolicyHandle::none();
        std::fs::write(&path, &whole[..3]).unwrap();
        let opened = Journal::open(&path, &TEST, FsyncPolicy::Never, &none);
        assert!(matches!(opened, Err(PersistError::Corrupt(_))));
        std::fs::write(&path, b"TESX\x01\x00").unwrap();
        let opened = Journal::open(&path, &TEST, FsyncPolicy::Never, &none);
        assert!(matches!(opened, Err(PersistError::BadMagic { .. })));
        std::fs::remove_file(&path).unwrap();
        let opened = Journal::open(&path, &TEST, FsyncPolicy::Never, &none);
        assert!(matches!(opened, Err(PersistError::Io(_))));
        done(&path);
    }
}
