//! The write-ahead manifest journal and the index snapshot.
//!
//! ## Manifest journal (`manifest.log`)
//!
//! An append-only record of container lifecycle events, kept in a
//! [`crate::journal::Journal`] (header magic `FQMJ`). A container's log
//! file is written **and fsynced first**; the manifest record appended
//! afterwards is what *commits* the seal — a container file without a
//! manifest record is invisible to recovery. Each record carries its own
//! CRC, so a tail record torn by a crash is detected and dropped (the
//! journal is truncated back to its last good record on reopen).
//!
//! Each event's record kind and payload layout is one row of the
//! `event_codec!` table below; a record that passes its CRC but does not
//! decode as an event ends the valid prefix like a torn one. `Delete` is a
//! legacy reserved kind the engine never emits (GC drops carry enough to
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

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use freqdedup_trace::io::{CodecError, CrcReader, CrcWriter};

use crate::fault::{FaultAction, FaultFile, IoPolicyHandle, PersistSite};
use crate::journal::{Frame, Journal, JournalFormat, HEADER_LEN};
use crate::persist::{maybe_sync_dir, FsyncPolicy, PersistError, LEGACY_INDEX_SHARDS};

pub(crate) const MANIFEST_FILE: &str = "manifest.log";
pub(crate) const SNAPSHOT_FILE: &str = "index.snap";
const SNAPSHOT_MAGIC: &[u8; 4] = b"FQSN";
const SNAPSHOT_VERSION: u16 = 2;

/// `manifest.log` as a [`Journal`]: its header and fault sites.
static FORMAT: JournalFormat = JournalFormat {
    magic: b"FQMJ",
    header_site: PersistSite::ManifestHeader,
    append_site: PersistSite::ManifestAppend,
    sync_site: PersistSite::ManifestSync,
};

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

/// The valid event prefix of a manifest journal: the records up to the
/// first that is torn or does not decode as an event.
#[derive(Debug, Default)]
pub struct ManifestScan {
    /// Valid events in journal order.
    pub events: Vec<ManifestEvent>,
    /// End offset of each valid record, index-aligned with `events`.
    pub record_ends: Vec<u64>,
}

impl ManifestScan {
    /// Decodes a journal's frames up to the first that is not an event.
    fn decode(frames: Vec<Frame>) -> Self {
        let mut scan = ManifestScan::default();
        for (kind, payload, end) in frames {
            let Some(event) = ManifestEvent::decode(kind, &payload) else {
                break;
            };
            scan.events.push(event);
            scan.record_ends.push(end);
        }
        scan
    }

    /// Byte length of the valid prefix (header included).
    #[must_use]
    pub fn valid_len(&self) -> u64 {
        self.record_ends.last().copied().unwrap_or(HEADER_LEN)
    }
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
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

/// Scans the manifest journal under `dir` through a read-only handle.
///
/// # Errors
///
/// As [`ManifestWriter::open`].
pub fn scan_manifest(dir: &Path) -> Result<ManifestScan, PersistError> {
    let frames = Journal::scan(&manifest_path(dir), &FORMAT)?;
    Ok(ManifestScan::decode(frames))
}

/// Writes [`ManifestEvent`]'s record codec from one table: each event's
/// record kind, then its fields in payload order, each a `u32` or `u64`.
macro_rules! event_codec {
    ($($event:ident = $kind:literal { $($field:ident: $ty:ident),* })*) => {
        impl ManifestEvent {
            /// The event's record kind and payload.
            fn encode(&self) -> (u8, Vec<u8>) {
                let mut payload = Vec::with_capacity(28);
                let kind = match *self {
                    $(ManifestEvent::$event { $($field),* } => {
                        $(payload.extend_from_slice(&$field.to_le_bytes());)*
                        $kind
                    })*
                };
                (kind, payload)
            }

            /// Parses a record; `None` for a kind and payload length no
            /// event has.
            fn decode(kind: u8, payload: &[u8]) -> Option<Self> {
                let mut r = CrcReader::new(payload, MANIFEST_FILE);
                match kind {
                    $($kind if payload.len() == 0 $(+ std::mem::size_of::<$ty>())* => {
                        let event = ManifestEvent::$event {
                            $($field: r.$ty(stringify!($field)).ok()?),*
                        };
                        Some(event)
                    })*
                    _ => None,
                }
            }
        }
    };
}

event_codec! {
    Seal = 1 { id: u32, chunk_count: u32, data_bytes: u64 }
    Delete = 2 { id: u32 }
    Backup = 3 { id: u64, chunk_count: u32, logical_bytes: u64, timestamp: u64 }
    BackupDelete = 4 { id: u64, chunk_count: u32, logical_bytes: u64 }
    GcDrop = 5 { id: u32, chunk_count: u32, data_bytes: u64, dead_chunks: u32, dead_bytes: u64 }
    RekeyBegin = 6 { epoch: u64 }
    RekeyCommit = 7 { epoch: u64 }
}

/// The manifest journal, appending [`ManifestEvent`] records.
#[derive(Debug)]
pub struct ManifestWriter {
    journal: Journal,
}

impl ManifestWriter {
    /// Creates a fresh journal (header only) under `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on a write or sync failure.
    pub fn create(
        dir: &Path,
        policy: FsyncPolicy,
        io: &IoPolicyHandle,
    ) -> Result<Self, PersistError> {
        let journal = Journal::create(&manifest_path(dir), &FORMAT, policy, io)?;
        Ok(ManifestWriter { journal })
    }

    /// Opens the journal under `dir` and reads its valid event prefix,
    /// writing nothing; recovery then [`Self::truncate`]s the file to the
    /// prefix it keeps.
    ///
    /// # Errors
    ///
    /// As [`Journal::open`].
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        io: &IoPolicyHandle,
    ) -> Result<(Self, ManifestScan), PersistError> {
        let (journal, frames) = Journal::open(&manifest_path(dir), &FORMAT, policy, io)?;
        Ok((ManifestWriter { journal }, ManifestScan::decode(frames)))
    }

    /// Cuts the journal back to `valid_len` bytes (see [`Journal::truncate`]).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on failure.
    pub fn truncate(&mut self, valid_len: u64) -> Result<(), PersistError> {
        self.journal.truncate(valid_len)
    }

    /// Appends (and per policy fsyncs) the record of `event`. Its
    /// write-ahead precondition is the caller's: a seal's container file,
    /// or a backup's recipe file, must already be durable. A
    /// [`ManifestEvent::Delete`] is a legacy kind recovery refuses.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on a write or sync failure.
    pub fn append(&mut self, event: ManifestEvent) -> Result<(), PersistError> {
        let (kind, payload) = event.encode();
        self.journal.append(kind, &payload)
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
        // Reopen and truncate the garbage; a new append then scans cleanly.
        let (mut w, scan) =
            ManifestWriter::open(&dir, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        w.truncate(scan.valid_len()).unwrap();
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
        assert_eq!(scan.valid_len(), 6);
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
