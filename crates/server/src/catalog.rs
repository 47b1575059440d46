//! The service's state, kept write-ahead in `catalog.log` in the store
//! root: the live manifests with their store backup ids, the
//! exactly-once registry and the commit clock. Each acked COMMIT,
//! DELETE-BACKUP, GC and REKEY is one record, appended and synced under
//! the store's [`FsyncPolicy`] before the ack is written, so it survives
//! a crash. (The store cannot serve here: each shard's recipe holds only
//! its slice of a stream.) Every record, replayed or appended, also waits
//! in a pending list until [`crate::tap::AdversaryTap::catch_up`] folds
//! it: the adversary observes the catalog, it does not own it.
//!
//! The file is a [`Journal`], magic `FQCT`, with record kinds 1 commit,
//! 2 delete, 3 gc, 4 rekey and 5 imported registry entry. A commit
//! payload is op id, store backup id and timestamp (`u64` each), label,
//! chunk count `u32`, then fingerprint `u64` and size `u32` per chunk;
//! any other is op id and the [`AppliedCommit`] ack. A torn tail is cut
//! on open; a record that passes its CRC but does not parse fails it.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use freqdedup_store::fault::{IoPolicyHandle, PersistSite};
use freqdedup_store::journal::{Journal, JournalFormat};
use freqdedup_store::persist::{maybe_sync_dir, FsyncPolicy, PersistConfig, PersistError};
use freqdedup_trace::io::{self, CodecError, CrcReader, CrcWriter, TraceIoError};
use freqdedup_trace::{Backup, ChunkRecord, Fingerprint};

use crate::server::{ServeError, CATALOG_FILE, CIDS_FILE, TAP_FILE};

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

/// One entry of the applied-commit registry: the ack a nonzero operation
/// id produced, so a client replaying the operation after a lost ack gets
/// it again instead of a second application. COMMIT, DELETE-BACKUP, GC and
/// REKEY share it, each reading the counters its ack carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppliedCommit {
    /// The manifest label the operation named (empty for GC/REKEY).
    pub label: String,
    /// Primary ack counter: logical chunks for COMMIT-MANIFEST, chunk
    /// references released for DELETE-BACKUP, containers dropped for GC,
    /// the committed epoch for REKEY.
    pub chunks: u64,
    /// Secondary ack counter: logical bytes for DELETE-BACKUP, reclaimed
    /// bytes for GC, containers rewritten for REKEY; 0 for commits.
    pub extra: u64,
    /// Tertiary ack counter: moved chunks for GC; 0 otherwise.
    pub extra2: u64,
}

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
        backup: Arc<Backup>,
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
                for rec in &backup.chunks {
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
            let backup = Arc::new(Backup::from_chunks(label, chunks));
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

/// The service's acknowledged state and its journal.
#[derive(Debug, Default)]
pub struct Catalog {
    /// The journal records are appended to (`None`: an in-memory catalog).
    journal: Option<Journal>,
    /// Live manifests in commit order, with their store backup ids.
    live: Vec<(Arc<Backup>, u64)>,
    /// Exactly-once registry: nonzero operation ids already applied,
    /// with the ack the client should see on replay.
    applied: HashMap<u64, AppliedCommit>,
    /// COMMIT records, deleted manifests included: the commit clock and
    /// STATS `committed_backups`.
    commits: u64,
    /// Records the tap has not folded yet, in journal order.
    pending: Vec<CatalogRecord>,
    /// An unreadable pre-catalog registry at the import.
    warnings: u64,
}

impl Catalog {
    /// Opens the catalog of the store `persist` describes by replaying
    /// the `catalog.log` in its root (created empty when absent), which
    /// later [`Self::append`]s extend under the store's fsync and
    /// fault-injection policies. A pre-catalog store (`tap.fqdt`, maybe
    /// `tap.cids`, no journal) is imported first, once.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the journal fails to open, has a bad
    /// header or holds a record that passes its CRC but does not parse;
    /// [`ServeError::Tap`] when a pre-catalog `tap.fqdt` is corrupt.
    pub fn open(persist: &PersistConfig) -> Result<Catalog, ServeError> {
        let (dir, fsync, io) = (&persist.dir, persist.fsync, &persist.io);
        let path = dir.join(CATALOG_FILE);
        let mut catalog = Catalog::default();
        if !path.exists() && dir.join(TAP_FILE).exists() {
            catalog.warnings += import(dir, fsync, io)?;
        }
        let empty = match std::fs::metadata(&path) {
            Ok(meta) => meta.len() == 0,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(e) => return Err(PersistError::from(e).into()),
        };
        let journal = if empty {
            Journal::create(&path, &FORMAT, fsync, io)?
        } else {
            let (mut journal, frames) = Journal::open(&path, &FORMAT, fsync, io)?;
            for (kind, payload, _) in &frames {
                catalog.apply(CatalogRecord::decode(*kind, payload)?);
            }
            journal.truncate(journal.valid_len())?;
            journal
        };
        catalog.journal = Some(journal);
        Ok(catalog)
    }

    /// Appends `record` to the journal, when the catalog has one (see
    /// [`Journal::append`]), then applies it; returns its ack.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] when the append fails; the catalog is
    /// then unchanged.
    pub fn append(&mut self, record: CatalogRecord) -> Result<AppliedCommit, PersistError> {
        if let Some(journal) = &mut self.journal {
            let (kind, payload) = record.encode()?;
            journal.append(kind, &payload)?;
        }
        Ok(self.apply(record))
    }

    /// Applies one record and queues it for the tap: a COMMIT joins the
    /// live manifests (retiring an earlier one of the same label), a
    /// DELETE retires one, and a nonzero op id enters the registry.
    fn apply(&mut self, record: CatalogRecord) -> AppliedCommit {
        let (op_id, ack) = match &record {
            CatalogRecord::Commit {
                op_id,
                backup_id,
                backup,
                ..
            } => {
                self.commits += 1;
                self.live.retain(|(b, _)| b.label != backup.label);
                self.live.push((Arc::clone(backup), *backup_id));
                let (label, chunks) = (backup.label.clone(), backup.len() as u64);
                (
                    *op_id,
                    AppliedCommit {
                        label,
                        chunks,
                        extra: 0,
                        extra2: 0,
                    },
                )
            }
            CatalogRecord::Op { kind, op_id, ack } => {
                if *kind == OpKind::Delete {
                    self.live.retain(|(b, _)| b.label != ack.label);
                }
                (*op_id, ack.clone())
            }
        };
        if op_id != 0 {
            self.applied.insert(op_id, ack.clone());
        }
        self.pending.push(record);
        ack
    }

    /// The live manifest labelled `label` and its store backup id.
    #[must_use]
    pub fn live(&self, label: &str) -> Option<(&Arc<Backup>, u64)> {
        let (backup, id) = self.live.iter().find(|(b, _)| b.label == label)?;
        Some((backup, *id))
    }

    /// Whether `id` is the store backup id of a live manifest.
    #[must_use]
    pub fn is_live(&self, id: u64) -> bool {
        self.live.iter().any(|&(_, live)| live == id)
    }

    /// The store backup id the next COMMIT gets: the commit count plus
    /// one, skipping ids still live (an imported store's ids are label
    /// hashes).
    #[must_use]
    pub fn next_backup_id(&self) -> u64 {
        let mut id = self.commits + 1;
        while self.is_live(id) {
            id += 1;
        }
        id
    }

    /// COMMIT records in the catalog, deleted manifests included.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// The full applied registry (operation id → recorded ack).
    #[must_use]
    pub fn applied_commits(&self) -> &HashMap<u64, AppliedCommit> {
        &self.applied
    }

    /// Degraded-recovery warnings of [`Self::open`].
    #[must_use]
    pub fn warnings(&self) -> u64 {
        self.warnings
    }

    /// Records the tap has not folded yet, in journal order.
    #[must_use]
    pub fn pending(&self) -> &[CatalogRecord] {
        &self.pending
    }

    /// Takes the records the tap has not folded yet, in journal order.
    pub fn take_pending(&mut self) -> Vec<CatalogRecord> {
        std::mem::take(&mut self.pending)
    }
}

/// Imports a pre-catalog store into a new `catalog.log`: the `tap.fqdt`
/// manifests in their label order, under the label-hash ids the store
/// gave them then, followed by the `tap.cids` registry entries. The two
/// old files are removed once the journal is in place. Returns the
/// warnings: 1 when `tap.cids` exists but does not read.
fn import(dir: &Path, fsync: FsyncPolicy, io: &IoPolicyHandle) -> Result<u64, ServeError> {
    let file = std::fs::File::open(dir.join(TAP_FILE))?;
    let series = io::read_series(std::io::BufReader::new(file))?;
    let mut records: Vec<CatalogRecord> = (1..)
        .zip(series.backups)
        .map(|(timestamp, backup)| CatalogRecord::Commit {
            op_id: 0,
            backup_id: label_backup_id(&backup.label),
            timestamp,
            backup: Arc::new(backup),
        })
        .collect();
    let mut warnings = 0;
    match read_registry(&dir.join(CIDS_FILE)) {
        Ok(entries) => records.extend(entries.into_iter().map(|(op_id, ack)| CatalogRecord::Op {
            kind: OpKind::Imported,
            op_id,
            ack,
        })),
        Err(TraceIoError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(_) => warnings += 1,
    }
    // Written aside and renamed into place: a crash leaves either no
    // catalog (and the import runs again) or all of it.
    let tmp = dir.join("catalog.log.tmp");
    let mut journal = Journal::create(&tmp, &FORMAT, fsync, io)?;
    for record in &records {
        let (kind, payload) = record.encode()?;
        journal.append(kind, &payload)?;
    }
    std::fs::rename(&tmp, dir.join(CATALOG_FILE))?;
    maybe_sync_dir(dir, fsync)?;
    for old in [TAP_FILE, CIDS_FILE] {
        let _ = std::fs::remove_file(dir.join(old));
    }
    Ok(warnings)
}

/// The store backup id a pre-catalog server gave a label: its 64-bit
/// FNV-1a hash.
fn label_backup_id(label: &str) -> u64 {
    label.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Reads a pre-catalog registry: magic `FQCI`, version 2, entry count,
/// `(op id, chunks, extra, extra2, label)` entries, trailing CRC. Entries
/// come back sorted by id, id 0 dropped.
fn read_registry(path: &Path) -> Result<Vec<(u64, AppliedCommit)>, TraceIoError> {
    let file = std::fs::File::open(path)?;
    let mut r = CrcReader::new(std::io::BufReader::new(file), "tap.cids");
    r.expect_header(b"FQCI", 2)?;
    let count = r.u32("entry count")?;
    let mut entries = r.seq(u64::from(count), |r| {
        let id = r.u64("commit id")?;
        let entry = AppliedCommit {
            chunks: r.u64("chunks")?,
            extra: r.u64("extra")?,
            extra2: r.u64("extra2")?,
            label: r.str("label")?,
        };
        Ok::<_, CodecError>((id, entry))
    })?;
    r.expect_crc()?;
    entries.retain(|(id, _)| *id != 0);
    entries.sort_by_key(|(id, _)| *id);
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::AdversaryTap;
    use freqdedup_trace::BackupSeries;

    fn dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("freqdedup-catalog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Opens the catalog in `dir`; returns it with its replayed records.
    fn open(dir: &Path) -> Result<(Catalog, Vec<CatalogRecord>), ServeError> {
        let mut catalog = Catalog::open(&PersistConfig::new(dir).fsync(FsyncPolicy::Never))?;
        let records = catalog.take_pending();
        Ok((catalog, records))
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
                backup: Arc::new(Backup::from_chunks(
                    "b",
                    vec![ChunkRecord::new(9u64, 64), ChunkRecord::new(3u64, 80)],
                )),
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
        let (mut log, none) = open(dir).unwrap();
        assert!(none.is_empty());
        for record in records() {
            log.append(record).unwrap();
        }
        std::fs::read(dir.join(CATALOG_FILE)).unwrap()
    }

    #[test]
    fn records_round_trip() {
        let dir = dir("round-trip");
        write(&dir);
        let (_, back) = open(&dir).unwrap();
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
            let (mut log, back) = open(&dir).unwrap();
            assert_eq!(back, records()[..2], "cut {cut}");
            assert_eq!(
                std::fs::metadata(dir.join(CATALOG_FILE)).unwrap().len(),
                (whole.len() - last) as u64
            );
            // The next append lands right after the last whole record.
            log.append(records()[2].clone()).unwrap();
            assert_eq!(std::fs::read(dir.join(CATALOG_FILE)).unwrap(), whole);
        }
        // A flipped payload byte fails the CRC: a torn tail too.
        let mut flipped = whole.clone();
        let at = whole.len() - 6;
        flipped[at] ^= 0xff;
        std::fs::write(dir.join(CATALOG_FILE), &flipped).unwrap();
        assert_eq!(open(&dir).unwrap().1.len(), 2);
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
            open(&dir),
            Err(ServeError::Persist(PersistError::Corrupt(_)))
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
            assert!(open(&dir).is_err(), "byte {at}");
        }
        std::fs::write(dir.join(CATALOG_FILE), &whole[..3]).unwrap();
        assert!(matches!(
            open(&dir),
            Err(ServeError::Persist(PersistError::Corrupt(_)))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn backup(label: &str, fps: &[u64]) -> Backup {
        Backup::from_chunks(label, fps.iter().map(|&f| ChunkRecord::new(f, 8)).collect())
    }

    /// The catalog in `dir`, and the tap that folded its records.
    fn observed(dir: &Path) -> (Catalog, AdversaryTap) {
        let persist = PersistConfig::new(dir).fsync(FsyncPolicy::Never);
        let catalog = std::sync::Mutex::new(Catalog::open(&persist).unwrap());
        let mut tap = AdversaryTap::default();
        tap.catch_up(&catalog);
        (catalog.into_inner().unwrap(), tap)
    }

    /// A pre-catalog store is imported once, in label order, under the
    /// label-hash ids and with its registry; the old files go.
    #[test]
    fn pre_catalog_store_is_imported_once() {
        let dir = dir("import");
        let mut series = BackupSeries::new("tap");
        series.push(backup("m0", &[1, 2]));
        series.push(backup("m1", &[3]));
        std::fs::write(dir.join(TAP_FILE), io::to_bytes(&series)).unwrap();
        let (catalog, tap) = observed(&dir);
        assert_eq!(tap.series("tap").backups, series.backups);
        assert_eq!(catalog.live("m1").unwrap().1, label_backup_id("m1"));
        assert_eq!(catalog.warnings(), 0);
        assert!(dir.join(CATALOG_FILE).exists());
        assert!(!dir.join(TAP_FILE).exists());
        assert_eq!(observed(&dir).1.series("tap"), tap.series("tap"));

        // An unreadable registry costs a warning, not the import.
        std::fs::remove_file(dir.join(CATALOG_FILE)).unwrap();
        std::fs::write(dir.join(TAP_FILE), io::to_bytes(&series)).unwrap();
        std::fs::write(dir.join(CIDS_FILE), b"FQCI junk").unwrap();
        assert_eq!(observed(&dir).0.warnings(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `tap.fqdt` whose one backup claims 2^40 chunks fails the import
    /// typed instead of reserving 16 TiB, and writes no catalog.
    #[test]
    fn forged_pre_catalog_chunk_count_fails_typed() {
        let dir = dir("forged-import");
        let mut series = BackupSeries::new("tap");
        series.push(backup("b", &[7]));
        let mut bytes = io::to_bytes(&series);
        // magic 4, version 2, name "tap" 4 + 3, backup count 4, label 4 + 1.
        let at = 22;
        assert_eq!(bytes[at..at + 8], 1u64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        std::fs::write(dir.join(TAP_FILE), &bytes).unwrap();
        assert!(open(&dir).is_err());
        assert!(!dir.join(CATALOG_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
