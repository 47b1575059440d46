//! The service's write-ahead catalog, `catalog.log` in the store root.
//!
//! One append-only journal records every operation the service acks:
//! each COMMIT-MANIFEST with its full `(fp, size)` stream, and each
//! DELETE-BACKUP, GC and REKEY with its ack. A record is appended, and
//! synced under the store's [`FsyncPolicy`], before the ack is written,
//! so an acked operation survives a crash. (The store cannot serve here:
//! each shard's recipe holds only its slice of a stream.) The
//! [`crate::tap::AdversaryTap`] is a fold over these records.
//!
//! The file is a [`Journal`], magic `FQCT`, with record kinds 1 commit,
//! 2 delete, 3 gc, 4 rekey and 5 imported registry entry. A commit
//! payload is op id, store backup id and timestamp (`u64` each), label,
//! chunk count `u32`, then fingerprint `u64` and size `u32` per chunk;
//! any other is op id and the [`AppliedCommit`] ack. A torn tail is cut
//! on open; a record that passes its CRC but does not parse fails it.

use std::path::Path;

use freqdedup_store::fault::{IoPolicyHandle, PersistSite};
use freqdedup_store::journal::{Journal, JournalFormat};
use freqdedup_store::persist::{FsyncPolicy, PersistError};
use freqdedup_trace::io::{CodecError, CrcReader, CrcWriter};
use freqdedup_trace::{Backup, ChunkRecord, Fingerprint};

use crate::server::CATALOG_FILE;
use crate::tap::AppliedCommit;

/// `catalog.log` as a [`Journal`]: its header and fault sites.
static FORMAT: JournalFormat = JournalFormat {
    magic: b"FQCT",
    header_site: PersistSite::CatalogAppend,
    append_site: PersistSite::CatalogAppend,
    sync_site: PersistSite::CatalogSync,
};
const KIND_COMMIT: u8 = 1;
/// Bytes of one chunk in a commit payload.
const CHUNK_BYTES: u64 = 12;

/// What a non-commit record records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// DELETE-BACKUP: the labelled manifest leaves the catalog.
    Delete = 2,
    /// A garbage-collection pass.
    Gc = 3,
    /// A committed rekey.
    Rekey = 4,
    /// A registry entry of a pre-catalog store (`tap.cids`), which did
    /// not keep the operation's kind.
    Imported = 5,
}

/// One catalog record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogRecord {
    /// A committed manifest.
    Commit {
        /// The client's operation id (0: not exactly-once).
        op_id: u64,
        /// The store's id for the backup's recipes.
        backup_id: u64,
        /// The retention timestamp the store recorded.
        timestamp: u64,
        /// Label and full logical `(fp, size)` stream.
        backup: Backup,
    },
    /// Any other acknowledged operation.
    Op {
        /// What the operation was.
        kind: OpKind,
        /// The client's operation id (0: not exactly-once).
        op_id: u64,
        /// The ack the client received.
        ack: AppliedCommit,
    },
}

impl CatalogRecord {
    /// The record's kind and payload.
    fn encode(&self) -> std::io::Result<(u8, Vec<u8>)> {
        let (label, chunks) = match self {
            CatalogRecord::Commit { backup, .. } => (&backup.label, backup.len()),
            CatalogRecord::Op { ack, .. } => (&ack.label, 0),
        };
        let len = 36 + label.len() + CHUNK_BYTES as usize * chunks;
        let mut w = CrcWriter::new(Vec::with_capacity(len));
        let kind = match self {
            CatalogRecord::Commit {
                op_id,
                backup_id,
                timestamp,
                backup,
            } => {
                for v in [*op_id, *backup_id, *timestamp] {
                    w.u64(v)?;
                }
                w.str(&backup.label)?;
                w.u32(backup.len() as u32)?;
                for rec in backup {
                    w.u64(rec.fp.value())?;
                    w.u32(rec.size)?;
                }
                KIND_COMMIT
            }
            CatalogRecord::Op { kind, op_id, ack } => {
                w.u64(*op_id)?;
                w.str(&ack.label)?;
                for v in [ack.chunks, ack.extra, ack.extra2] {
                    w.u64(v)?;
                }
                *kind as u8
            }
        };
        Ok((kind, w.into_inner()))
    }

    /// Parses the payload of a record whose frame and CRC checked out.
    fn decode(kind: u8, payload: &[u8]) -> Result<Self, PersistError> {
        let kinds = [OpKind::Delete, OpKind::Gc, OpKind::Rekey, OpKind::Imported];
        let op = kinds.into_iter().find(|&k| k as u8 == kind);
        if op.is_none() && kind != KIND_COMMIT {
            return Err(malformed(kind));
        }
        let mut r = CrcReader::new(payload, CATALOG_FILE);
        let parsed = (|| {
            let op_id = r.u64("op id")?;
            if let Some(kind) = op {
                let ack = AppliedCommit {
                    label: r.str("label")?,
                    chunks: r.u64("chunks")?,
                    extra: r.u64("extra")?,
                    extra2: r.u64("extra2")?,
                };
                let whole = payload.len() == 36 + ack.label.len();
                return Ok(whole.then_some(CatalogRecord::Op { kind, op_id, ack }));
            }
            let (backup_id, timestamp) = (r.u64("backup id")?, r.u64("timestamp")?);
            let label = r.str("label")?;
            let count = r.u32("chunk count")?;
            // The count must fill the rest of the payload exactly: a forged
            // one fails here, before anything is reserved for it.
            if u64::from(count) * CHUNK_BYTES != (payload.len() - 32 - label.len()) as u64 {
                return Ok(None);
            }
            let chunks = r.seq(u64::from(count), |r| {
                let fp = r.u64("fingerprint")?;
                Ok::<_, CodecError>(ChunkRecord::new(Fingerprint(fp), r.u32("size")?))
            })?;
            let backup = Backup::from_chunks(label, chunks);
            Ok::<_, CodecError>(Some(CatalogRecord::Commit {
                op_id,
                backup_id,
                timestamp,
                backup,
            }))
        })();
        parsed.ok().flatten().ok_or_else(|| malformed(kind))
    }
}

/// A record that passed its CRC but does not parse.
fn malformed(kind: u8) -> PersistError {
    PersistError::Corrupt(format!("catalog.log: malformed record of kind {kind}"))
}

/// The open journal, appending records.
#[derive(Debug)]
pub struct CatalogLog {
    journal: Journal,
}

impl CatalogLog {
    /// Opens the journal at `path` — creating it when the file is new or
    /// empty — and returns it with its records, its torn tail cut.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on an I/O failure, a bad header, or a
    /// record that passes its CRC but does not parse.
    pub fn open(
        path: &Path,
        fsync: FsyncPolicy,
        io: &IoPolicyHandle,
    ) -> Result<(CatalogLog, Vec<CatalogRecord>), PersistError> {
        let empty = match std::fs::metadata(path) {
            Ok(meta) => meta.len() == 0,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(e) => return Err(e.into()),
        };
        if empty {
            let journal = Journal::create(path, &FORMAT, fsync, io)?;
            return Ok((CatalogLog { journal }, Vec::new()));
        }
        let (mut journal, frames) = Journal::open(path, &FORMAT, fsync, io)?;
        let records = (frames.iter())
            .map(|(kind, payload, _)| CatalogRecord::decode(*kind, payload))
            .collect::<Result<Vec<_>, _>>()?;
        journal.truncate(journal.valid_len())?;
        Ok((CatalogLog { journal }, records))
    }

    /// Appends one record and syncs it (see [`Journal::append`]).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on a write or sync failure.
    pub fn append(&mut self, record: &CatalogRecord) -> Result<(), PersistError> {
        let (kind, payload) = record.encode()?;
        self.journal.append(kind, &payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("freqdedup-catalog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn none() -> IoPolicyHandle {
        IoPolicyHandle::none()
    }

    /// Bytes of `record` in the journal: kind, length, payload and CRC.
    fn framed_len(record: &CatalogRecord) -> usize {
        9 + record.encode().unwrap().1.len()
    }

    fn records() -> Vec<CatalogRecord> {
        vec![
            CatalogRecord::Commit {
                op_id: 7,
                backup_id: 1,
                timestamp: 1,
                backup: Backup::from_chunks(
                    "b",
                    vec![ChunkRecord::new(9u64, 64), ChunkRecord::new(3u64, 80)],
                ),
            },
            CatalogRecord::Op {
                kind: OpKind::Delete,
                op_id: 8,
                ack: AppliedCommit {
                    label: "b".into(),
                    chunks: 2,
                    extra: 144,
                    extra2: 0,
                },
            },
            CatalogRecord::Op {
                kind: OpKind::Gc,
                op_id: 0,
                ack: AppliedCommit {
                    label: String::new(),
                    chunks: 1,
                    extra: 144,
                    extra2: 5,
                },
            },
        ]
    }

    fn write(dir: &Path) -> Vec<u8> {
        let (mut log, none) =
            CatalogLog::open(&dir.join(CATALOG_FILE), FsyncPolicy::Never, &none()).unwrap();
        assert!(none.is_empty());
        for record in &records() {
            log.append(record).unwrap();
        }
        std::fs::read(dir.join(CATALOG_FILE)).unwrap()
    }

    #[test]
    fn records_round_trip() {
        let dir = dir("round-trip");
        write(&dir);
        let (_, back) =
            CatalogLog::open(&dir.join(CATALOG_FILE), FsyncPolicy::Never, &none()).unwrap();
        assert_eq!(back, records());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A tail cut anywhere inside the last record is dropped on open, the
    /// records before it survive, and the file is truncated back to them.
    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = dir("torn");
        let whole = write(&dir);
        let last = framed_len(records().last().unwrap());
        for cut in [1, last / 2, last - 1] {
            std::fs::write(dir.join(CATALOG_FILE), &whole[..whole.len() - cut]).unwrap();
            let (mut log, back) =
                CatalogLog::open(&dir.join(CATALOG_FILE), FsyncPolicy::Never, &none()).unwrap();
            assert_eq!(back, records()[..2], "cut {cut}");
            assert_eq!(
                std::fs::metadata(dir.join(CATALOG_FILE)).unwrap().len(),
                (whole.len() - last) as u64
            );
            // The next append lands right after the last whole record.
            log.append(&records()[2]).unwrap();
            assert_eq!(std::fs::read(dir.join(CATALOG_FILE)).unwrap(), whole);
        }
        // A flipped payload byte fails the CRC: a torn tail too.
        let mut flipped = whole.clone();
        let at = whole.len() - 6;
        flipped[at] ^= 0xff;
        std::fs::write(dir.join(CATALOG_FILE), &flipped).unwrap();
        assert_eq!(
            CatalogLog::open(&dir.join(CATALOG_FILE), FsyncPolicy::Never, &none())
                .unwrap()
                .1
                .len(),
            2
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A commit whose chunk count is forged to `u32::MAX` under a valid
    /// CRC fails typed, before any reservation for the count.
    #[test]
    fn forged_chunk_count_fails_typed() {
        let dir = dir("forged");
        let whole = write(&dir);
        let mut bytes = whole.clone();
        // header 6, kind 1, length 4, op id, backup id, timestamp 24, label 4 + 1.
        let at = 6 + 5 + 24 + 5;
        assert_eq!(bytes[at..at + 4], 2u32.to_le_bytes());
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let end = 6 + framed_len(&records()[0]);
        let crc = freqdedup_trace::io::crc32(&bytes[6..end - 4]);
        bytes[end - 4..end].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(dir.join(CATALOG_FILE), &bytes).unwrap();
        assert!(matches!(
            CatalogLog::open(&dir.join(CATALOG_FILE), FsyncPolicy::Never, &none()),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Any flipped header byte, or a header cut short, fails the open.
    #[test]
    fn bad_header_fails_typed() {
        let dir = dir("header");
        let whole = write(&dir);
        for at in 0..6 {
            let mut bad = whole.clone();
            bad[at] ^= 0xff;
            std::fs::write(dir.join(CATALOG_FILE), &bad).unwrap();
            assert!(
                CatalogLog::open(&dir.join(CATALOG_FILE), FsyncPolicy::Never, &none()).is_err(),
                "byte {at}"
            );
        }
        std::fs::write(dir.join(CATALOG_FILE), &whole[..3]).unwrap();
        assert!(matches!(
            CatalogLog::open(&dir.join(CATALOG_FILE), FsyncPolicy::Never, &none()),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
