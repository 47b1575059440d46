//! The write-ahead manifest journal and the index snapshot.
//!
//! ## Manifest journal (`manifest.log`)
//!
//! An append-only record of container lifecycle events. A container's log
//! file is written **and fsynced first**; the manifest record appended
//! afterwards is what *commits* the seal — a container file without a
//! manifest record is invisible to recovery. Each record carries its own
//! CRC, so a tail record torn by a crash is detected and dropped (the
//! journal is truncated back to its last good record on reopen).
//!
//! ```text
//! header    magic b"FQMJ" (4) + version u16 (= 1)
//! record*   kind u8 (1 = seal, 2 = delete, 3 = backup commit,
//!                    4 = backup delete, 5 = gc drop,
//!                    6 = rekey begin, 7 = rekey commit)
//!           payload length u32
//!           payload bytes
//!           crc u32 over kind + length + payload
//! ```
//!
//! Seal payload: container id `u32`, chunk count `u32`, data bytes `u64`.
//! Delete payload: container id `u32` (a legacy reserved kind — the
//! engine never emits one; GC drops use kind 5, which carries enough to
//! replay the drop's accounting without the dropped file).
//!
//! The lifecycle kinds follow the same write-ahead discipline as seals:
//! a backup's recipe file is durable *before* its commit record, a GC
//! victim's file is unlinked only *after* its drop record is durable, and
//! a rekey is an explicit begin/commit pair so a crash mid-rekey is
//! recognizable (begin without commit ⇒ resume the rewrite).
//!
//! ## Snapshot (`index.snap`)
//!
//! A point-in-time image of the engine's *derived* state — fingerprint
//! index entries, dedup/metadata counters, and the LRU cache order — taken
//! only at consistent points (after [`crate::engine::DedupEngine::finish`],
//! when the open container is empty). The snapshot is written to a
//! temporary file and atomically renamed, so it is always either the old
//! or the new complete image. Recovery loads the snapshot, then replays
//! the manifest events beyond `event_seq` into the index.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use freqdedup_trace::io::{CodecError, CrcReader, CrcWriter};

use crate::fault::{write_checked, FaultAction, FaultFile, IoPolicyHandle, PersistSite};
use crate::persist::{maybe_sync, maybe_sync_dir, FsyncPolicy, PersistError, LEGACY_INDEX_SHARDS};

pub(crate) const MANIFEST_FILE: &str = "manifest.log";
pub(crate) const SNAPSHOT_FILE: &str = "index.snap";
const MANIFEST_MAGIC: &[u8; 4] = b"FQMJ";
const MANIFEST_VERSION: u16 = 1;
const SNAPSHOT_MAGIC: &[u8; 4] = b"FQSN";
const SNAPSHOT_VERSION: u16 = 2;

const KIND_SEAL: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_BACKUP: u8 = 3;
const KIND_BACKUP_DELETE: u8 = 4;
const KIND_GC_DROP: u8 = 5;
const KIND_REKEY_BEGIN: u8 = 6;
const KIND_REKEY_COMMIT: u8 = 7;

/// One manifest journal event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ManifestEvent {
    /// A container was sealed and its log file made durable.
    Seal {
        /// Sealed container id.
        id: u32,
        /// Chunks in the container.
        chunk_count: u32,
        /// Data bytes in the container.
        data_bytes: u64,
    },
    /// A container was deleted (legacy reserved kind — never emitted; GC
    /// uses [`ManifestEvent::GcDrop`]).
    Delete {
        /// Deleted container id.
        id: u32,
    },
    /// A backup was committed: its recipe file is durable and its chunks
    /// now carry references.
    Backup {
        /// Backup id, chosen by the caller (the service's catalog issues
        /// one per commit).
        id: u64,
        /// Logical chunks in the backup.
        chunk_count: u32,
        /// Logical bytes in the backup.
        logical_bytes: u64,
        /// Caller-supplied commit timestamp.
        timestamp: u64,
    },
    /// A committed backup was deleted; the payload echoes its totals so
    /// replay can account the deletion after the recipe file is gone.
    BackupDelete {
        /// Backup id.
        id: u64,
        /// Logical chunks the backup held.
        chunk_count: u32,
        /// Logical bytes the backup held.
        logical_bytes: u64,
    },
    /// GC dropped a container (its live chunks were first re-sealed into
    /// fresh containers, committed by ordinary `Seal` records before this
    /// one). The payload carries the victim's totals and its dead subset
    /// so replay can reproduce the drop's accounting without the file.
    GcDrop {
        /// Dropped container id.
        id: u32,
        /// Chunks the container held.
        chunk_count: u32,
        /// Data bytes the container held.
        data_bytes: u64,
        /// Dead (unreferenced) chunks among them.
        dead_chunks: u32,
        /// Bytes of those dead chunks — the physically reclaimed amount.
        dead_bytes: u64,
    },
    /// A rekey to `epoch` started; live containers may now be a mix of
    /// old and new epochs until the matching commit.
    RekeyBegin {
        /// Target key epoch.
        epoch: u64,
    },
    /// A rekey to `epoch` finished: every live container is rewritten
    /// under the epoch key, and older epoch secrets no longer read
    /// anything.
    RekeyCommit {
        /// Committed key epoch.
        epoch: u64,
    },
}

/// The result of scanning a manifest journal: the valid event prefix and
/// the byte offset where it ends (everything after is a torn tail).
#[derive(Debug)]
pub struct ManifestScan {
    /// Valid events in journal order.
    pub events: Vec<ManifestEvent>,
    /// End offset of each valid record, index-aligned with `events`.
    pub record_ends: Vec<u64>,
    /// Byte length of the valid prefix (header included).
    pub valid_len: u64,
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

/// Whether `dir` contains an initialized manifest journal.
#[must_use]
pub fn manifest_exists(dir: &Path) -> bool {
    manifest_path(dir).exists()
}

/// Fsyncs the manifest journal (and snapshot, when present)
/// unconditionally — the graceful-close durability upgrade for
/// [`FsyncPolicy::Never`] stores (see `DedupEngine::close`).
pub(crate) fn sync_manifest_files(dir: &Path) -> Result<(), PersistError> {
    File::open(manifest_path(dir))?.sync_data()?;
    match File::open(snapshot_path(dir)) {
        Ok(file) => file.sync_data()?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    Ok(())
}

/// Scans the manifest journal under `dir`, tolerating a torn tail: the
/// scan stops at the first record that is truncated or fails its CRC, and
/// reports the valid prefix.
///
/// # Errors
///
/// Returns [`PersistError::Io`] when the journal is missing or unreadable,
/// [`PersistError::BadMagic`] / [`PersistError::BadVersion`] when the
/// header itself is foreign (a journal with a torn *header* is corrupt —
/// the header is written at creation time, before any data is accepted).
pub fn scan_manifest(dir: &Path) -> Result<ManifestScan, PersistError> {
    let mut r = BufReader::new(File::open(manifest_path(dir))?);
    CrcReader::new(&mut r, MANIFEST_FILE)
        .expect_header(MANIFEST_MAGIC, MANIFEST_VERSION)
        .map_err(|e| match e {
            // The header is written at creation, before any data is
            // accepted — a short header is corruption, not a torn tail.
            CodecError::Truncated { .. } => {
                PersistError::Corrupt("manifest.log: truncated header".to_string())
            }
            e => e.into(),
        })?;
    let mut events = Vec::new();
    let mut record_ends = Vec::new();
    let mut offset = 6u64;
    while !r.fill_buf()?.is_empty() {
        match read_record(&mut r) {
            Ok((event, len)) => {
                offset += len;
                events.push(event);
                record_ends.push(offset);
            }
            // A real read error is NOT a torn tail: classifying it as one
            // would let recovery truncate away durably committed records.
            Err(PersistError::Io(e)) => return Err(PersistError::Io(e)),
            // Truncation, CRC mismatch or tail garbage: drop the torn tail,
            // keep the prefix.
            Err(_) => break,
        }
    }
    Ok(ManifestScan {
        events,
        record_ends,
        valid_len: offset,
    })
}

/// Reads one record and its length in bytes. Any failure but
/// [`PersistError::Io`] is the torn-write signature.
fn read_record<R: Read>(r: R) -> Result<(ManifestEvent, u64), PersistError> {
    let mut r = CrcReader::new(r, MANIFEST_FILE);
    let kind = r.u8("record kind")?;
    let len = r.u32("record length")?;
    let event = match (kind, len) {
        (KIND_SEAL, 16) => ManifestEvent::Seal {
            id: r.u32("container id")?,
            chunk_count: r.u32("chunk count")?,
            data_bytes: r.u64("data bytes")?,
        },
        (KIND_DELETE, 4) => ManifestEvent::Delete {
            id: r.u32("container id")?,
        },
        (KIND_BACKUP, 28) => ManifestEvent::Backup {
            id: r.u64("backup id")?,
            chunk_count: r.u32("chunk count")?,
            logical_bytes: r.u64("logical bytes")?,
            timestamp: r.u64("timestamp")?,
        },
        (KIND_BACKUP_DELETE, 20) => ManifestEvent::BackupDelete {
            id: r.u64("backup id")?,
            chunk_count: r.u32("chunk count")?,
            logical_bytes: r.u64("logical bytes")?,
        },
        (KIND_GC_DROP, 28) => ManifestEvent::GcDrop {
            id: r.u32("container id")?,
            chunk_count: r.u32("chunk count")?,
            data_bytes: r.u64("data bytes")?,
            dead_chunks: r.u32("dead chunks")?,
            dead_bytes: r.u64("dead bytes")?,
        },
        (KIND_REKEY_BEGIN, 8) => ManifestEvent::RekeyBegin {
            epoch: r.u64("epoch")?,
        },
        (KIND_REKEY_COMMIT, 8) => ManifestEvent::RekeyCommit {
            epoch: r.u64("epoch")?,
        },
        _ => {
            return Err(PersistError::Torn {
                file: MANIFEST_FILE.to_string(),
                detail: format!("record of kind {kind} and length {len}"),
            })
        }
    };
    r.expect_crc()?;
    Ok((event, 1 + 4 + u64::from(len) + 4))
}

impl ManifestEvent {
    /// The event's journal record: kind, payload length, payload, and a
    /// CRC over all three.
    fn record(&self) -> std::io::Result<Vec<u8>> {
        let mut p = CrcWriter::new(Vec::with_capacity(28));
        let kind = match *self {
            ManifestEvent::Seal {
                id,
                chunk_count,
                data_bytes,
            } => {
                p.u32(id)?;
                p.u32(chunk_count)?;
                p.u64(data_bytes)?;
                KIND_SEAL
            }
            ManifestEvent::Delete { id } => {
                p.u32(id)?;
                KIND_DELETE
            }
            ManifestEvent::Backup {
                id,
                chunk_count,
                logical_bytes,
                timestamp,
            } => {
                p.u64(id)?;
                p.u32(chunk_count)?;
                p.u64(logical_bytes)?;
                p.u64(timestamp)?;
                KIND_BACKUP
            }
            ManifestEvent::BackupDelete {
                id,
                chunk_count,
                logical_bytes,
            } => {
                p.u64(id)?;
                p.u32(chunk_count)?;
                p.u64(logical_bytes)?;
                KIND_BACKUP_DELETE
            }
            ManifestEvent::GcDrop {
                id,
                chunk_count,
                data_bytes,
                dead_chunks,
                dead_bytes,
            } => {
                p.u32(id)?;
                p.u32(chunk_count)?;
                p.u64(data_bytes)?;
                p.u32(dead_chunks)?;
                p.u64(dead_bytes)?;
                KIND_GC_DROP
            }
            ManifestEvent::RekeyBegin { epoch } => {
                p.u64(epoch)?;
                KIND_REKEY_BEGIN
            }
            ManifestEvent::RekeyCommit { epoch } => {
                p.u64(epoch)?;
                KIND_REKEY_COMMIT
            }
        };
        let payload = p.into_inner();
        let mut w = CrcWriter::new(Vec::with_capacity(9 + payload.len()));
        w.u8(kind)?;
        w.u32(payload.len() as u32)?;
        w.bytes(&payload)?;
        w.finish()
    }
}

/// An open handle appending records to the manifest journal.
#[derive(Debug)]
pub struct ManifestWriter {
    file: File,
    policy: FsyncPolicy,
    io: IoPolicyHandle,
}

impl ManifestWriter {
    /// Creates a fresh journal (header only) under `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on write failure.
    pub fn create(
        dir: &Path,
        policy: FsyncPolicy,
        io: &IoPolicyHandle,
    ) -> Result<Self, PersistError> {
        let mut file = File::create(manifest_path(dir))?;
        let mut header = CrcWriter::new(Vec::with_capacity(6));
        header.header(MANIFEST_MAGIC, MANIFEST_VERSION)?;
        write_checked(
            &mut file,
            &header.into_inner(),
            io,
            PersistSite::ManifestHeader,
        )?;
        io.check_sync(PersistSite::ManifestSync)?;
        maybe_sync(&file, policy)?;
        io.check_sync(PersistSite::DirSync)?;
        maybe_sync_dir(dir, policy)?;
        Ok(ManifestWriter {
            file,
            policy,
            io: io.clone(),
        })
    }

    /// Reopens an existing journal for appending, first truncating it to
    /// `valid_len` (discarding any torn tail and any records the caller
    /// has rolled back).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on failure.
    pub fn reopen(
        dir: &Path,
        valid_len: u64,
        policy: FsyncPolicy,
        io: &IoPolicyHandle,
    ) -> Result<Self, PersistError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(manifest_path(dir))?;
        file.set_len(valid_len)?;
        maybe_sync(&file, policy)?;
        // Append mode would also work, but an explicit seek keeps the write
        // position unambiguous after the truncation.
        let mut file = file;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(ManifestWriter {
            file,
            policy,
            io: io.clone(),
        })
    }

    /// Appends (and per policy fsyncs) the record of `event`. Its
    /// write-ahead precondition is the caller's: a seal's container file,
    /// or a backup's recipe file, must already be durable. A
    /// [`ManifestEvent::Delete`] is a legacy kind recovery refuses.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on write failure.
    pub fn append(&mut self, event: ManifestEvent) -> Result<(), PersistError> {
        write_checked(
            &mut self.file,
            &event.record()?,
            &self.io,
            PersistSite::ManifestAppend,
        )?;
        self.io.check_sync(PersistSite::ManifestSync)?;
        maybe_sync(&self.file, self.policy)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// A point-in-time image of the engine's derived state, taken at a
/// consistent point (open container empty). Plain data — the engine
/// assembles and consumes it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Number of manifest journal events the snapshot reflects (events
    /// `0..event_seq` are fully accounted in every field below; recovery
    /// replays `events[event_seq..]`).
    pub event_seq: u64,
    /// Config echo: metadata entry size.
    pub entry_bytes: u64,
    /// [`crate::stats::StoreStats`] as its canonical array form.
    pub stats: [u64; 13],
    /// Engine-level container-prefetch byte counter.
    pub loading_bytes: u64,
    /// Engine-level container-prefetch op counter.
    pub loading_ops: u64,
    /// Index `[lookups, lookup_bytes, updates, update_bytes]`.
    pub index_counters: [u64; 4],
    /// Fingerprint → container id entries, sorted by fingerprint.
    pub index_entries: Vec<(u64, u32)>,
    /// Cache hit counter.
    pub cache_hits: u64,
    /// Cache miss counter.
    pub cache_misses: u64,
    /// Cache eviction counter.
    pub cache_evictions: u64,
    /// Cached fingerprints in least→most recently used order.
    pub cache_lru: Vec<u64>,
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// Removes the snapshot file (recovery calls this when discarding a
/// snapshot that describes lost state — leaving it on disk would let a
/// later recovery resurrect it after its container-id space is reused).
pub(crate) fn remove_snapshot(dir: &Path, policy: FsyncPolicy) -> Result<(), PersistError> {
    match std::fs::remove_file(snapshot_path(dir)) {
        Ok(()) => {
            maybe_sync_dir(dir, policy)?;
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Writes `snapshot` atomically (temp file + rename) under `dir`.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on write failure.
pub fn write_snapshot(
    dir: &Path,
    snapshot: &Snapshot,
    policy: FsyncPolicy,
    io: &IoPolicyHandle,
) -> Result<(), PersistError> {
    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let file = FaultFile::new(File::create(&tmp)?, io.clone(), PersistSite::SnapshotWrite);
    let mut w = CrcWriter::new(BufWriter::new(file));
    w.header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
    w.u64(snapshot.event_seq)?;
    w.u64(snapshot.entry_bytes)?;
    w.u32(LEGACY_INDEX_SHARDS)?;
    for &v in &snapshot.stats {
        w.u64(v)?;
    }
    w.u64(snapshot.loading_bytes)?;
    w.u64(snapshot.loading_ops)?;
    w.u32(LEGACY_INDEX_SHARDS)?;
    for &v in &snapshot.index_counters {
        w.u64(v)?;
    }
    w.u64(snapshot.index_entries.len() as u64)?;
    for &(fp, cid) in &snapshot.index_entries {
        w.u64(fp)?;
        w.u32(cid)?;
    }
    w.u64(snapshot.cache_hits)?;
    w.u64(snapshot.cache_misses)?;
    w.u64(snapshot.cache_evictions)?;
    w.u64(snapshot.cache_lru.len() as u64)?;
    for &fp in &snapshot.cache_lru {
        w.u64(fp)?;
    }
    let mut buf = w.finish()?;
    buf.flush()?;
    buf.get_ref()
        .maybe_sync(policy, PersistSite::SnapshotSync)?;
    drop(buf);
    if io.before_write(PersistSite::SnapshotRename, 0) != FaultAction::Proceed {
        return Err(PersistError::Injected {
            site: PersistSite::SnapshotRename,
        });
    }
    std::fs::rename(&tmp, snapshot_path(dir))?;
    io.check_sync(PersistSite::DirSync)?;
    maybe_sync_dir(dir, policy)?;
    Ok(())
}

/// Reads the snapshot under `dir`; `Ok(None)` when none has been written
/// yet.
///
/// # Errors
///
/// Returns [`PersistError::Torn`] on truncation/CRC failure (should be
/// impossible under the atomic-rename discipline — its presence means
/// outside interference), plus the usual magic/version errors.
pub fn read_snapshot(dir: &Path) -> Result<Option<Snapshot>, PersistError> {
    let file = match File::open(snapshot_path(dir)) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut r = CrcReader::new(BufReader::new(file), SNAPSHOT_FILE);
    r.expect_header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
    let mut snapshot = Snapshot {
        event_seq: r.u64("event_seq")?,
        entry_bytes: r.u64("entry_bytes")?,
        ..Snapshot::default()
    };
    let index_shards = r.u32("index_shards")?;
    for v in &mut snapshot.stats {
        *v = r.u64("stats")?;
    }
    snapshot.loading_bytes = r.u64("loading_bytes")?;
    snapshot.loading_ops = r.u64("loading_ops")?;
    // A store written while the index could be split carries one counter
    // row per split; their sum is the one index's counters.
    let rows = r.u32("index counter rows")?;
    if rows != index_shards {
        return Err(PersistError::Corrupt(format!(
            "index.snap: {rows} counter rows for {index_shards} index shards"
        )));
    }
    for _ in 0..rows {
        for v in &mut snapshot.index_counters {
            *v = v.wrapping_add(r.u64("index counters")?);
        }
    }
    let entries = r.u64("index entry count")?;
    snapshot.index_entries = r.seq(entries, |r| {
        Ok::<_, CodecError>((r.u64("entry fingerprint")?, r.u32("entry container")?))
    })?;
    snapshot.cache_hits = r.u64("cache hits")?;
    snapshot.cache_misses = r.u64("cache misses")?;
    snapshot.cache_evictions = r.u64("cache evictions")?;
    let cached = r.u64("cache entry count")?;
    snapshot.cache_lru = r.seq(cached, |r| r.u64("cache fingerprint"))?;
    r.expect_crc()?;
    Ok(Some(snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("freqdedup-manifest-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_round_trips_events() {
        let dir = tmp_dir("journal-rt");
        let mut w =
            ManifestWriter::create(&dir, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        let events = vec![
            ManifestEvent::Seal {
                id: 0,
                chunk_count: 4,
                data_bytes: 64,
            },
            ManifestEvent::Seal {
                id: 1,
                chunk_count: 2,
                data_bytes: 32,
            },
            ManifestEvent::Delete { id: 0 },
            ManifestEvent::Backup {
                id: 7,
                chunk_count: 6,
                logical_bytes: 96,
                timestamp: 1234,
            },
            ManifestEvent::BackupDelete {
                id: 7,
                chunk_count: 6,
                logical_bytes: 96,
            },
            ManifestEvent::GcDrop {
                id: 0,
                chunk_count: 4,
                data_bytes: 64,
                dead_chunks: 3,
                dead_bytes: 48,
            },
            ManifestEvent::RekeyBegin { epoch: 1 },
            ManifestEvent::RekeyCommit { epoch: 1 },
        ];
        for &event in &events {
            w.append(event).unwrap();
        }
        drop(w);
        let scan = scan_manifest(&dir).unwrap();
        assert_eq!(scan.events, events);
        assert_eq!(scan.record_ends.len(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_record_is_dropped() {
        let dir = tmp_dir("journal-torn");
        let mut w =
            ManifestWriter::create(&dir, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        w.append(ManifestEvent::Seal {
            id: 0,
            chunk_count: 4,
            data_bytes: 64,
        })
        .unwrap();
        w.append(ManifestEvent::Seal {
            id: 1,
            chunk_count: 2,
            data_bytes: 32,
        })
        .unwrap();
        drop(w);
        let path = dir.join(MANIFEST_FILE);
        let full = std::fs::read(&path).unwrap();
        // Truncate into the middle of the second record.
        let cut = full.len() - 7;
        std::fs::write(&path, &full[..cut]).unwrap();
        let scan = scan_manifest(&dir).unwrap();
        assert_eq!(scan.events.len(), 1, "only the first record survives");
        assert_eq!(
            scan.events[0],
            ManifestEvent::Seal {
                id: 0,
                chunk_count: 4,
                data_bytes: 64
            }
        );
        // Reopen truncates the garbage; a new append then scans cleanly.
        let mut w = ManifestWriter::reopen(
            &dir,
            scan.valid_len,
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        w.append(ManifestEvent::Seal {
            id: 1,
            chunk_count: 8,
            data_bytes: 128,
        })
        .unwrap();
        drop(w);
        let scan = scan_manifest(&dir).unwrap();
        assert_eq!(scan.events.len(), 2);
        assert_eq!(
            scan.events[1],
            ManifestEvent::Seal {
                id: 1,
                chunk_count: 8,
                data_bytes: 128
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_record_is_dropped() {
        let dir = tmp_dir("journal-bitflip");
        let mut w =
            ManifestWriter::create(&dir, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        w.append(ManifestEvent::Seal {
            id: 0,
            chunk_count: 4,
            data_bytes: 64,
        })
        .unwrap();
        w.append(ManifestEvent::Seal {
            id: 1,
            chunk_count: 2,
            data_bytes: 32,
        })
        .unwrap();
        drop(w);
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xff; // inside the second record's payload
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_manifest(&dir).unwrap();
        assert_eq!(scan.events.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_journal_scans_empty() {
        let dir = tmp_dir("journal-empty");
        let w = ManifestWriter::create(&dir, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        drop(w);
        let scan = scan_manifest(&dir).unwrap();
        assert!(scan.events.is_empty());
        assert_eq!(scan.valid_len, 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_is_io_error() {
        let dir = tmp_dir("journal-missing");
        assert!(matches!(scan_manifest(&dir), Err(PersistError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = tmp_dir("snap-rt");
        let snapshot = Snapshot {
            event_seq: 3,
            entry_bytes: 32,
            stats: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
            loading_bytes: 10,
            loading_ops: 11,
            index_counters: [1, 32, 2, 64],
            index_entries: vec![(5, 0), (9, 1), (u64::MAX, 2)],
            cache_hits: 12,
            cache_misses: 13,
            cache_evictions: 14,
            cache_lru: vec![9, 5],
        };
        write_snapshot(&dir, &snapshot, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some(snapshot.clone()));
        // Overwrite atomically with a newer image.
        let newer = Snapshot {
            event_seq: 4,
            ..snapshot
        };
        write_snapshot(&dir, &newer, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap().event_seq, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot written while the index could be split carries one
    /// counter row per split: they load as their sum, and a row count
    /// that disagrees with the split count is corruption.
    #[test]
    fn legacy_split_index_counters_load_as_their_sum() {
        let dir = tmp_dir("snap-legacy");
        for (rows, want) in [(2u32, Some([3, 96, 6, 192])), (3, None)] {
            let mut w = CrcWriter::new(Vec::new());
            w.header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION).unwrap();
            w.u64(0).unwrap(); // event_seq
            w.u64(32).unwrap(); // entry_bytes
            w.u32(2).unwrap(); // index_shards
            for _ in 0..13 + 2 {
                w.u64(0).unwrap(); // stats, loading bytes and ops
            }
            w.u32(rows).unwrap();
            for row in 0..u64::from(rows) {
                for v in [1, 32, 2, 64] {
                    w.u64(v * (row + 1)).unwrap();
                }
            }
            for _ in 0..5 {
                w.u64(0).unwrap(); // entries, cache counters, lru
            }
            std::fs::write(dir.join(SNAPSHOT_FILE), w.finish().unwrap()).unwrap();
            match (read_snapshot(&dir), want) {
                (Ok(Some(s)), Some(counters)) => assert_eq!(s.index_counters, counters),
                (Err(PersistError::Corrupt(_)), None) => {}
                (other, _) => panic!("{rows} rows: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_snapshot_is_none() {
        let dir = tmp_dir("snap-none");
        assert_eq!(read_snapshot(&dir).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_detected() {
        let dir = tmp_dir("snap-corrupt");
        write_snapshot(
            &dir,
            &Snapshot::default(),
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 9] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
