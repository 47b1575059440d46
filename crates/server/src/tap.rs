//! The provider-side adversary tap.
//!
//! The paper's adversary models (§3) give the attacker the storage
//! provider's view: the logical, pre-deduplication order of ciphertext
//! chunks of each uploaded backup. In a real deployment this view is not
//! hypothetical — it is the provider's *own metadata*: the per-session
//! upload stream the service must read anyway, and the backup manifests
//! it must keep to serve restores. [`AdversaryTap`] records exactly that:
//! every session's observed `(fingerprint, size)` stream, segmented at
//! COMMIT-MANIFEST boundaries into ordinary [`Backup`]s, so
//! `LocalityAttack` / `AdvancedAttack` run **unchanged** against live
//! traffic.
//!
//! Because a session is one TCP connection handled start-to-finish by one
//! worker, each committed stream is byte-identical to the order the
//! client sent — concurrent sessions never interleave *within* a tapped
//! backup. [`AdversaryTap::series`] therefore returns a deterministic
//! representation (sorted by label) regardless of which client's commit
//! raced ahead, which is what makes live-traffic attack output
//! reproducible against offline ingest.
//!
//! The tap doubles as the service's manifest catalog: RESTORE-BACKUP is
//! served from it. That is the threat model in one line — the metadata
//! the provider needs in order to function *is* the leak.
//!
//! Since PR 6 the tap also keeps the adversary's **running attack
//! state**: a [`TapStreaming`] around one [`IncrementalStats`] — `COUNT`
//! is policy-free, so the same state serves both [`TiePolicy`] rankings —
//! folded forward on every [`AdversaryTap::record_commit`] in O(delta)
//! amortized — the attacker never rebuilds `COUNT` from the full tape.
//! The streaming state follows **commit order** (the order the provider
//! actually observed), and is bit-identical at every commit point to a
//! batch recompute over [`AdversaryTap::committed`]. It persists beside
//! the catalog (`tap.fqis` next to `tap.fqdt`), so a restarted tap
//! resumes the exact same state without replaying history; when only the
//! catalog survives, the state is rebuilt by replaying the label-sorted
//! series (deterministic, but equal to the live state only when commit
//! order matched label order — first-seen positions, which `StreamOrder`
//! ranks by, depend on it).

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use freqdedup_core::attacks::locality::LocalityParams;
use freqdedup_core::attacks::{self, AttackKind};
use freqdedup_core::counting::TiePolicy;
use freqdedup_core::{DenseStats, IncrementalStats, Inference};
use freqdedup_trace::io::{self, CodecError, CrcReader, CrcWriter, TraceIoError};
use freqdedup_trace::{Backup, BackupSeries};

/// Commits whose update latency [`TapStreaming`] remembers: the log is
/// diagnostic, so a long-lived server keeps the most recent ones only.
const UPDATE_LOG_CAP: usize = 1024;

/// The adversary's running attack state behind the tap: one
/// [`IncrementalStats`], folded once per commit and ranked under either
/// [`TiePolicy`], plus the per-commit update latency log.
///
/// Equality ([`PartialEq`]) compares the attack state only — the latency
/// log is diagnostic, is not persisted, and resets on restart.
#[derive(Clone, Debug, Default)]
pub struct TapStreaming {
    stats: IncrementalStats,
    /// Wall-clock cost of the last (at most [`UPDATE_LOG_CAP`])
    /// [`Self::commit`]s (one fold each), in microseconds, oldest first.
    /// Diagnostic only; not persisted.
    update_micros: Vec<u64>,
}

impl PartialEq for TapStreaming {
    fn eq(&self, other: &Self) -> bool {
        self.stats == other.stats
    }
}

impl Eq for TapStreaming {}

impl TapStreaming {
    /// Creates empty running state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one committed backup into the running state; returns the
    /// wall-clock cost in microseconds (also appended to
    /// [`Self::update_micros`]).
    pub fn commit(&mut self, backup: &Backup) -> u64 {
        let start = Instant::now();
        self.stats.commit(backup);
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        if self.update_micros.len() == UPDATE_LOG_CAP {
            self.update_micros.remove(0);
        }
        self.update_micros.push(micros);
        micros
    }

    /// The running state.
    #[must_use]
    pub fn stats(&self) -> &IncrementalStats {
        &self.stats
    }

    /// Update cost in microseconds of the most recent commits (at most
    /// 1 024, oldest first) since this state was constructed or loaded
    /// (restarts reset the log, not the state).
    #[must_use]
    pub fn update_micros(&self) -> &[u64] {
        &self.update_micros
    }

    /// Backups folded in so far.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.stats.commits()
    }

    /// Logical chunks folded in so far.
    #[must_use]
    pub fn logical_chunks(&self) -> u64 {
        self.stats.logical_chunks()
    }

    /// Rebuilds running state by replaying `committed` in the given
    /// order (the bootstrap path when no persisted state exists).
    #[must_use]
    pub fn rebuild(committed: &[Backup]) -> Self {
        let mut streaming = TapStreaming::new();
        for backup in committed {
            streaming.commit(backup);
        }
        streaming
    }

    /// Persists the running state (one CRC-checked blob).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on write failure.
    pub fn save(&self, path: &Path) -> Result<(), TraceIoError> {
        let file = std::fs::File::create(path)?;
        let mut writer = std::io::BufWriter::new(file);
        self.stats.write_to(&mut writer)?;
        use std::io::Write;
        writer.flush()?;
        Ok(())
    }

    /// Reloads state saved by [`Self::save`]. The result is
    /// bit-identical to the saved state (segment layout included); the
    /// latency log starts empty.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on read failure, corruption, or a file of
    /// another format version (the two-blob version 1 included).
    pub fn load(path: &Path) -> Result<Self, TraceIoError> {
        let file = std::fs::File::open(path)?;
        let stats = IncrementalStats::read_from(std::io::BufReader::new(file))?;
        Ok(TapStreaming {
            stats,
            update_micros: Vec::new(),
        })
    }
}

/// One entry of the applied-commit registry: what a nonzero commit ID
/// already produced, so a client replaying the same operation after a
/// mid-operation disconnect gets the recorded acknowledgement instead of
/// a second application. Since PR 8 the registry covers the lifecycle
/// operations too (DELETE-BACKUP, GC, REKEY), which reuse the generic
/// `extra` slots for their ack fields.
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

impl AppliedCommit {
    /// Entry for an ordinary manifest commit (the extra slots unused).
    #[must_use]
    pub fn manifest(label: String, chunks: u64) -> Self {
        AppliedCommit {
            label,
            chunks,
            extra: 0,
            extra2: 0,
        }
    }
}

/// One lifecycle operation as the provider-side adversary observes it.
/// Deletion and GC are *events the provider performs* — they are part of
/// the observable record exactly like uploads: an attacker watching the
/// service learns which manifests churn and how much physical space each
/// collection freed, even though the running frequency state never
/// un-counts what was already observed (the provider cannot unsee an
/// upload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// A committed manifest was deleted.
    Delete {
        /// The deleted manifest's label.
        label: String,
        /// Logical chunks the deleted manifest carried.
        chunks: u64,
    },
    /// A garbage-collection pass ran.
    Gc {
        /// Containers dropped by the pass.
        containers_dropped: u64,
        /// Physical bytes reclaimed.
        reclaimed_bytes: u64,
    },
    /// The store was re-encrypted under a new key epoch.
    Rekey {
        /// The epoch now in force.
        epoch: u64,
    },
}

/// Magic bytes of the applied-commit registry file (`tap.cids`).
const CIDS_MAGIC: &[u8; 4] = b"FQCI";
/// Format version of the registry file. Version 2 added the two `extra`
/// ack slots per entry (lifecycle-operation replays); version-1 files are
/// rejected, which the server degrades to "no replay-suppression window".
const CIDS_VERSION: u16 = 2;

/// Per-session observed ciphertext streams, segmented by commit.
#[derive(Clone, Debug, Default)]
pub struct AdversaryTap {
    /// Committed backups in commit order (racy across sessions; use
    /// [`Self::series`] for the deterministic view).
    committed: Vec<Backup>,
    /// Streams of sessions that disconnected without committing
    /// (observed but not restorable).
    abandoned: Vec<Backup>,
    /// Running attack state, folded forward on every commit.
    streaming: TapStreaming,
    /// Exactly-once registry: nonzero commit IDs that already committed,
    /// with the ack the client should see on replay.
    applied: HashMap<u64, AppliedCommit>,
    /// Lifecycle operations observed in order (deletions, GC passes,
    /// rekeys) — adversary observables, like the committed streams.
    lifecycle: Vec<LifecycleEvent>,
    /// Manifests deleted from the catalog since this tap was built or
    /// loaded (the running attack state still covers them — observation
    /// is irreversible).
    deleted_commits: u64,
    /// Logical chunks those deleted manifests carried.
    deleted_chunks: u64,
    /// Degraded-recovery events observed while loading persisted state
    /// (corrupt `tap.fqis` / `tap.cids` recovered by replay or reset).
    warnings: u64,
}

impl AdversaryTap {
    /// Creates an empty tap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one committed manifest stream, folding it into the
    /// running attack state (O(delta) amortized) before appending it to
    /// the catalog. Equivalent to [`Self::record_commit_id`] with commit
    /// ID 0 (no exactly-once tracking).
    pub fn record_commit(&mut self, backup: Backup) {
        self.record_commit_id(backup, 0);
    }

    /// [`Self::record_commit`] that additionally registers a nonzero
    /// `commit_id` in the applied-commit registry, making the commit
    /// idempotent: a later [`Self::applied`] lookup for the same ID
    /// returns the recorded ack instead of ingesting again. Commit ID 0
    /// opts out (the legacy non-resumable client path).
    pub fn record_commit_id(&mut self, backup: Backup, commit_id: u64) {
        if commit_id != 0 {
            self.applied.insert(
                commit_id,
                AppliedCommit::manifest(backup.label.clone(), backup.len() as u64),
            );
        }
        self.streaming.commit(&backup);
        self.committed.push(backup);
    }

    /// Registers a nonzero operation id in the applied registry without
    /// touching the catalog — the lifecycle operations' exactly-once
    /// path (the catalog change, if any, happens through
    /// [`Self::delete_backup`] / [`Self::record_gc`] /
    /// [`Self::record_rekey`]).
    pub fn record_applied(&mut self, commit_id: u64, entry: AppliedCommit) {
        if commit_id != 0 {
            self.applied.insert(commit_id, entry);
        }
    }

    /// Deletes every committed manifest with `label` from the catalog,
    /// recording the deletion as a lifecycle observable. Returns the
    /// total `(chunks, bytes)` the removed manifests carried, or `None`
    /// when no manifest matched. The running attack state keeps covering
    /// the deleted streams — the provider observed them; deletion cannot
    /// unobserve. A restarted tap rebuilds from the surviving catalog
    /// only.
    pub fn delete_backup(&mut self, label: &str) -> Option<(u64, u64)> {
        let mut chunks = 0u64;
        let mut bytes = 0u64;
        let mut removed = 0u64;
        self.committed.retain(|b| {
            if b.label == label {
                chunks += b.len() as u64;
                bytes += b.chunks.iter().map(|rec| u64::from(rec.size)).sum::<u64>();
                removed += 1;
                false
            } else {
                true
            }
        });
        if removed == 0 {
            return None;
        }
        self.deleted_commits += removed;
        self.deleted_chunks += chunks;
        self.lifecycle.push(LifecycleEvent::Delete {
            label: label.to_string(),
            chunks,
        });
        Some((chunks, bytes))
    }

    /// Records a garbage-collection pass as a lifecycle observable.
    pub fn record_gc(&mut self, containers_dropped: u64, reclaimed_bytes: u64) {
        self.lifecycle.push(LifecycleEvent::Gc {
            containers_dropped,
            reclaimed_bytes,
        });
    }

    /// Records a committed rekey as a lifecycle observable.
    pub fn record_rekey(&mut self, epoch: u64) {
        self.lifecycle.push(LifecycleEvent::Rekey { epoch });
    }

    /// Lifecycle operations observed so far, in order.
    #[must_use]
    pub fn lifecycle_events(&self) -> &[LifecycleEvent] {
        &self.lifecycle
    }

    /// Manifests deleted from the catalog since this tap was built or
    /// loaded.
    #[must_use]
    pub fn deleted_commits(&self) -> u64 {
        self.deleted_commits
    }

    /// Looks up a nonzero commit ID in the applied-commit registry.
    #[must_use]
    pub fn applied(&self, commit_id: u64) -> Option<&AppliedCommit> {
        self.applied.get(&commit_id)
    }

    /// The full applied-commit registry (commit ID → recorded ack).
    #[must_use]
    pub fn applied_commits(&self) -> &HashMap<u64, AppliedCommit> {
        &self.applied
    }

    /// Degraded-recovery warnings accumulated while loading persisted
    /// state (0 for a tap that loaded cleanly or was built in memory).
    #[must_use]
    pub fn warnings(&self) -> u64 {
        self.warnings
    }

    /// Records the un-committed tail stream of a closed session.
    pub fn record_abandoned(&mut self, backup: Backup) {
        if !backup.is_empty() {
            self.abandoned.push(backup);
        }
    }

    /// The committed backup with the given manifest label (most recent
    /// commit wins when a label was reused).
    #[must_use]
    pub fn backup(&self, label: &str) -> Option<&Backup> {
        self.committed.iter().rev().find(|b| b.label == label)
    }

    /// Number of committed manifests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// Whether nothing has been committed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }

    /// Committed backups in commit order (nondeterministic across
    /// concurrent sessions — prefer [`Self::series`] for analysis).
    #[must_use]
    pub fn committed(&self) -> &[Backup] {
        &self.committed
    }

    /// Un-committed session tails (observed traffic that never became a
    /// manifest).
    #[must_use]
    pub fn abandoned(&self) -> &[Backup] {
        &self.abandoned
    }

    /// Total logical chunks observed across committed manifests.
    #[must_use]
    pub fn observed_chunks(&self) -> u64 {
        self.committed.iter().map(|b| b.len() as u64).sum()
    }

    /// The adversary's running attack state (kept in lockstep with
    /// [`Self::committed`] by [`Self::record_commit`]).
    #[must_use]
    pub fn streaming(&self) -> &TapStreaming {
        &self.streaming
    }

    /// Whether the running state covers exactly what was observed: the
    /// committed catalog plus everything [`Self::delete_backup`] removed
    /// from it (the adversary's state never un-counts an observation).
    /// Always true for a tap built through [`Self::record_commit`] /
    /// [`Self::delete_backup`]; checked after a resume from separately
    /// persisted state.
    #[must_use]
    pub fn streaming_consistent(&self) -> bool {
        self.streaming.commits() == self.committed.len() as u64 + self.deleted_commits
            && self.streaming.logical_chunks() == self.observed_chunks() + self.deleted_chunks
    }

    /// Runs `kind` in ciphertext-only mode against the **running** state
    /// under both tie-break policies — the live mirror of
    /// [`attacks::run_ciphertext_only_both_policies`], with no
    /// ciphertext-side `COUNT`: one flatten of the running state
    /// ([`IncrementalStats::to_dense`]), one `COUNT` of `plain_aux`, then
    /// two crawls of the same flat tables. Bit-identical to a batch
    /// recompute over [`Self::committed`] at this commit point.
    #[must_use]
    pub fn streaming_inference_both_policies(
        &self,
        kind: AttackKind,
        plain_aux: &Backup,
        params: &LocalityParams,
    ) -> [(TiePolicy, Inference); 2] {
        let sc = self.streaming.stats().to_dense();
        let sm = DenseStats::full_par(plain_aux, params.par_config());
        attacks::run_ciphertext_only_with_stats_both_policies(kind, &sc, &sm, params)
    }

    /// The deterministic adversary view: committed backups **sorted by
    /// label** (commit order depends on client scheduling; label order
    /// does not). This is the series attacks and equivalence tests run
    /// on.
    #[must_use]
    pub fn series(&self, name: impl Into<String>) -> BackupSeries {
        let mut series = BackupSeries::new(name);
        let mut sorted = self.committed.clone();
        sorted.sort_by(|a, b| a.label.cmp(&b.label));
        for backup in sorted {
            series.push(backup);
        }
        series
    }

    /// The chunk-boundary observable: each committed backup's
    /// **chunk-length sequence** in upload order, label-sorted like
    /// [`Self::series`]. Returns `(label, lengths)` pairs.
    ///
    /// MLE is length-preserving, so these are the *plaintext* chunk
    /// lengths — the raw material of boundary-inference attacks on CDC
    /// (the provider learns where every client-side cut fell, and cut
    /// positions are a function of plaintext content). The sequences ride
    /// in the same `(fingerprint, size)` records the catalog already
    /// persists (`tap.fqdt`), so a reloaded tap exposes the identical
    /// observable.
    #[must_use]
    pub fn length_sequences(&self) -> Vec<(String, Vec<u32>)> {
        let mut sorted: Vec<&Backup> = self.committed.iter().collect();
        sorted.sort_by(|a, b| a.label.cmp(&b.label));
        sorted
            .into_iter()
            .map(|b| {
                (
                    b.label.clone(),
                    b.chunks.iter().map(|rec| rec.size).collect(),
                )
            })
            .collect()
    }

    /// Persists the deterministic view to the workspace trace format
    /// (used by the server to survive restarts: the tap is also the
    /// manifest catalog).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on write failure.
    pub fn save(&self, path: &Path) -> Result<(), TraceIoError> {
        let file = std::fs::File::create(path)?;
        let mut writer = std::io::BufWriter::new(file);
        io::write_series(&self.series("tap"), &mut writer)?;
        use std::io::Write;
        writer.flush()?;
        Ok(())
    }

    /// Persists the applied-commit registry (`tap.cids`): magic,
    /// version, entry count, `(commit_id, chunks, extra, extra2, label)`
    /// entries, and a
    /// trailing CRC-32 over everything before it. Like the catalog and
    /// the streaming state, the registry is written at graceful shutdown
    /// — a crash between commits loses at most the replay-suppression
    /// window, never store or catalog integrity.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on write failure.
    pub fn save_commit_ids(&self, path: &Path) -> Result<(), TraceIoError> {
        let mut w = CrcWriter::new(Vec::with_capacity(16 + self.applied.len() * 44));
        w.header(CIDS_MAGIC, CIDS_VERSION)?;
        w.u32(self.applied.len() as u32)?;
        // Sorted so the file is byte-deterministic for a given registry.
        let mut ids: Vec<_> = self.applied.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let entry = &self.applied[&id];
            w.u64(id)?;
            w.u64(entry.chunks)?;
            w.u64(entry.extra)?;
            w.u64(entry.extra2)?;
            w.str(&entry.label)?;
        }
        std::fs::write(path, w.finish()?)?;
        Ok(())
    }

    /// Merges a registry saved by [`Self::save_commit_ids`] into this
    /// tap; returns the number of entries loaded. Nothing is merged
    /// unless the whole file verifies.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on read failure, bad magic/version, CRC
    /// mismatch, or a malformed entry.
    pub fn load_commit_ids(&mut self, path: &Path) -> Result<usize, TraceIoError> {
        let file = std::fs::File::open(path)?;
        let mut r = CrcReader::new(std::io::BufReader::new(file), "tap.cids");
        r.expect_header(CIDS_MAGIC, CIDS_VERSION)?;
        let count = r.u32("entry count")?;
        let entries = r.seq(u64::from(count), |r| {
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
        let mut loaded = 0;
        for (id, entry) in entries {
            if id != 0 {
                self.applied.insert(id, entry);
                loaded += 1;
            }
        }
        Ok(loaded)
    }

    /// Reloads a tap saved by [`Self::save`] (abandoned streams are not
    /// persisted). The running attack state is **rebuilt by replaying**
    /// the reloaded catalog — deterministic, but O(history); prefer
    /// [`Self::load_resuming`] when the separately persisted state file
    /// exists.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on read failure or corruption.
    pub fn load(path: &Path) -> Result<Self, TraceIoError> {
        let committed = Self::load_catalog(path)?;
        let streaming = TapStreaming::rebuild(&committed);
        Ok(AdversaryTap {
            committed,
            streaming,
            ..AdversaryTap::default()
        })
    }

    /// Reloads a tap together with its persisted running attack state
    /// ([`TapStreaming::save`]) — the O(1)-replay resume path: the state
    /// comes back bit-identical to the one saved, with no history
    /// replay. Falls back to a replay rebuild when the persisted state
    /// does not cover the catalog (e.g. the two files are from different
    /// shutdowns), and — counting a [`Self::warnings`] degradation — when
    /// the state file is corrupt, truncated or of an older format version:
    /// the catalog is the source of truth, so a bad `tap.fqis` costs a
    /// replay, never an error.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] only when the **catalog** fails to read.
    pub fn load_resuming(path: &Path, stream_path: &Path) -> Result<Self, TraceIoError> {
        let committed = Self::load_catalog(path)?;
        let mut warnings = 0;
        let streaming = match TapStreaming::load(stream_path) {
            Ok(streaming) => Some(streaming),
            Err(TraceIoError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(_) => {
                warnings += 1;
                None
            }
        };
        let mut tap = AdversaryTap {
            streaming: streaming.unwrap_or_else(|| TapStreaming::rebuild(&committed)),
            committed,
            warnings,
            ..AdversaryTap::default()
        };
        if !tap.streaming_consistent() {
            tap.streaming = TapStreaming::rebuild(&tap.committed);
        }
        Ok(tap)
    }

    /// Reads the committed-backup catalog of a saved tap.
    fn load_catalog(path: &Path) -> Result<Vec<Backup>, TraceIoError> {
        let file = std::fs::File::open(path)?;
        let series = io::read_series(std::io::BufReader::new(file))?;
        Ok(series.backups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freqdedup_trace::ChunkRecord;

    fn backup(label: &str, fps: &[u64]) -> Backup {
        Backup::from_chunks(label, fps.iter().map(|&f| ChunkRecord::new(f, 8)).collect())
    }

    #[test]
    fn series_is_label_sorted_regardless_of_commit_order() {
        let mut a = AdversaryTap::new();
        a.record_commit(backup("b", &[1]));
        a.record_commit(backup("a", &[2]));
        let mut b = AdversaryTap::new();
        b.record_commit(backup("a", &[2]));
        b.record_commit(backup("b", &[1]));
        assert_eq!(a.series("t"), b.series("t"));
        assert_eq!(a.series("t").get(0).unwrap().label, "a");
    }

    #[test]
    fn label_lookup_prefers_latest() {
        let mut tap = AdversaryTap::new();
        tap.record_commit(backup("x", &[1]));
        tap.record_commit(backup("x", &[2, 3]));
        assert_eq!(tap.backup("x").unwrap().len(), 2);
        assert!(tap.backup("y").is_none());
        assert_eq!(tap.observed_chunks(), 3);
    }

    #[test]
    fn abandoned_streams_kept_separately() {
        let mut tap = AdversaryTap::new();
        tap.record_abandoned(backup("", &[]));
        tap.record_abandoned(backup("", &[9]));
        assert_eq!(tap.abandoned().len(), 1);
        assert!(tap.is_empty());
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("freqdedup-tap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tap.fqdt");
        let mut tap = AdversaryTap::new();
        tap.record_commit(backup("m1", &[1, 2, 1]));
        tap.record_commit(backup("m0", &[7]));
        tap.save(&path).unwrap();
        let back = AdversaryTap::load(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.series("t"), tap.series("t"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn length_sequences_are_label_sorted_and_survive_persistence() {
        let sized = |label: &str, sizes: &[u32]| {
            Backup::from_chunks(
                label,
                sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| ChunkRecord::new(1000 + i as u64, s))
                    .collect(),
            )
        };
        let mut tap = AdversaryTap::new();
        // Commit order differs from label order; sequences keep upload
        // order within each backup.
        tap.record_commit(sized("m1", &[4096, 100, 8192]));
        tap.record_commit(sized("m0", &[512, 512]));
        assert_eq!(
            tap.length_sequences(),
            vec![
                ("m0".to_string(), vec![512, 512]),
                ("m1".to_string(), vec![4096, 100, 8192]),
            ]
        );

        // The observable rides in the persisted catalog: a reloaded tap
        // exposes identical sequences.
        let dir = std::env::temp_dir().join(format!("freqdedup-taplens-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tap.fqdt");
        tap.save(&path).unwrap();
        let back = AdversaryTap::load(&path).unwrap();
        assert_eq!(back.length_sequences(), tap.length_sequences());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A catalog whose one backup claims 2^40 chunks fails typed on both
    /// load paths instead of reserving 16 TiB.
    #[test]
    fn forged_catalog_chunk_count_fails_typed() {
        let dir = std::env::temp_dir().join(format!("freqdedup-tapforged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tap.fqdt");
        let mut tap = AdversaryTap::new();
        tap.record_commit(backup("b", &[7]));
        tap.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // magic 4, version 2, name "tap" 4 + 3, backup count 4, label 4 + 1.
        let at = 22;
        assert_eq!(bytes[at..at + 8], 1u64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(AdversaryTap::load(&path).is_err());
        assert!(AdversaryTap::load_resuming(&path, &dir.join("tap.fqis")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_commit_keeps_streaming_in_lockstep() {
        let mut tap = AdversaryTap::new();
        tap.record_commit(backup("m0", &[1, 2, 1, 3]));
        tap.record_commit(backup("m1", &[2, 3, 9]));
        assert!(tap.streaming_consistent());
        assert_eq!(tap.streaming().commits(), 2);
        assert_eq!(tap.streaming().logical_chunks(), 7);
        assert_eq!(tap.streaming().update_micros().len(), 2);
        // The running state equals a batch recompute over the committed
        // tape.
        assert_eq!(
            tap.streaming().stats().to_dense(),
            DenseStats::full_series(tap.committed())
        );
    }

    #[test]
    fn update_latency_log_keeps_the_most_recent_commits() {
        let mut streaming = TapStreaming::new();
        let empty = backup("e", &[]);
        for _ in 0..=UPDATE_LOG_CAP {
            streaming.commit(&empty);
        }
        assert_eq!(streaming.commits(), UPDATE_LOG_CAP as u64 + 1);
        assert_eq!(streaming.update_micros().len(), UPDATE_LOG_CAP);
    }

    #[test]
    fn streaming_resume_is_bit_identical_and_fallback_replays() {
        let dir = std::env::temp_dir().join(format!("freqdedup-tapstream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tap_path = dir.join("tap.fqdt");
        let stream_path = dir.join("tap.fqis");
        let mut tap = AdversaryTap::new();
        // Commit order deliberately differs from label order.
        tap.record_commit(backup("m1", &[1, 2, 1, 3]));
        tap.record_commit(backup("m0", &[2, 3, 9]));
        tap.save(&tap_path).unwrap();
        tap.streaming().save(&stream_path).unwrap();

        // Resume path: exact state back, segment layout and all.
        let resumed = AdversaryTap::load_resuming(&tap_path, &stream_path).unwrap();
        assert_eq!(resumed.streaming(), tap.streaming());
        assert!(resumed.streaming_consistent());

        // Fallback path: consistent, but rebuilt from the label-sorted
        // catalog (same chunks and counts; first-seen orders differ from
        // the live state's here, since the labels were committed out of
        // order).
        let rebuilt = AdversaryTap::load(&tap_path).unwrap();
        assert!(rebuilt.streaming_consistent());
        assert_eq!(
            rebuilt.streaming().stats().freq().len(),
            tap.streaming().stats().freq().len()
        );
        assert_ne!(rebuilt.streaming(), tap.streaming());

        // A stale state file (one commit behind) triggers the replay
        // fallback instead of resuming inconsistent state.
        let mut newer = tap.clone();
        newer.record_commit(backup("m2", &[5]));
        newer.save(&tap_path).unwrap();
        let fell_back = AdversaryTap::load_resuming(&tap_path, &stream_path).unwrap();
        assert!(fell_back.streaming_consistent());
        assert_eq!(fell_back.streaming().commits(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_id_registry_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("freqdedup-tapcids-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tap.cids");
        let mut tap = AdversaryTap::new();
        tap.record_commit_id(backup("m0", &[1, 2]), 41);
        tap.record_commit_id(backup("m1", &[3]), 42);
        // Commit ID 0 opts out of the registry.
        tap.record_commit_id(backup("m2", &[4]), 0);
        assert_eq!(tap.applied(41).unwrap().chunks, 2);
        assert_eq!(tap.applied(42).unwrap().label, "m1");
        assert!(tap.applied(0).is_none());
        tap.save_commit_ids(&path).unwrap();

        // Lifecycle ops register through the same file with the extra
        // ack slots intact.
        tap.record_applied(
            50,
            AppliedCommit {
                label: "m0".into(),
                chunks: 2,
                extra: 16,
                extra2: 0,
            },
        );
        tap.save_commit_ids(&path).unwrap();

        let mut back = AdversaryTap::new();
        assert_eq!(back.load_commit_ids(&path).unwrap(), 3);
        assert_eq!(back.applied_commits(), tap.applied_commits());
        assert_eq!(back.applied(50).unwrap().extra, 16);

        // Any flipped byte fails the trailing CRC.
        let clean = std::fs::read(&path).unwrap();
        for at in [0, 6, clean.len() / 2, clean.len() - 1] {
            let mut bad = clean.clone();
            bad[at] ^= 0xff;
            std::fs::write(&path, &bad).unwrap();
            let err = AdversaryTap::new().load_commit_ids(&path);
            assert!(err.is_err(), "flip at {at} accepted");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_stream_state_falls_back_to_replay_with_warning() {
        let dir = std::env::temp_dir().join(format!("freqdedup-tapcorrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tap_path = dir.join("tap.fqdt");
        let stream_path = dir.join("tap.fqis");
        let mut tap = AdversaryTap::new();
        tap.record_commit(backup("a", &[1, 2, 1]));
        tap.record_commit(backup("b", &[2, 9]));
        tap.save(&tap_path).unwrap();
        tap.streaming().save(&stream_path).unwrap();
        let clean = std::fs::read(&stream_path).unwrap();

        // Corrupt the state file at several offsets (plus truncation, plus
        // each length field forged to its maximum — see the blob layout in
        // `IncrementalStats::write_to`): every variant must fall back to a
        // catalog replay whose state is bit-identical to a fresh rebuild,
        // with the warning counted.
        let mut variants: Vec<Vec<u8>> = vec![clean[..clean.len() / 3].to_vec(), b"junk".to_vec()];
        for at in [0, clean.len() / 2, clean.len() - 1] {
            let mut bad = clean.clone();
            bad[at] ^= 0xff;
            variants.push(bad);
        }
        let stats = tap.streaming().stats();
        let freq_len = 26 + 12 * stats.interner().len();
        let num_segments = freq_len + 4 + 4 * stats.freq().len();
        for (at, field) in [
            (freq_len, &u32::MAX.to_le_bytes()[..]),
            (num_segments, &u32::MAX.to_le_bytes()[..]),
            (num_segments + 12, &(1u64 << 40).to_le_bytes()[..]),
        ] {
            let mut bad = clean.clone();
            bad[at..at + field.len()].copy_from_slice(field);
            variants.push(bad);
        }
        // A neighbour id and a row id outside the interner, each under a
        // recomputed (valid) CRC: forged in the last entry of the left
        // side's first segment, so the keys stay sorted.
        let segment_len = num_segments + 12;
        let len0 = u64::from_le_bytes(clean[segment_len..segment_len + 8].try_into().unwrap());
        let last = segment_len + 8 + 16 * (len0 as usize - 1);
        let unique = stats.interner().len() as u32;
        for at in [last, last + 4] {
            let mut bad = clean.clone();
            bad[at..at + 4].copy_from_slice(&unique.to_le_bytes());
            let body = bad.len() - 4;
            let crc = io::crc32(&bad[..body]);
            bad[body..].copy_from_slice(&crc.to_le_bytes());
            variants.push(bad);
        }
        for (i, bad) in variants.iter().enumerate() {
            std::fs::write(&stream_path, bad).unwrap();
            let fell_back = AdversaryTap::load_resuming(&tap_path, &stream_path).unwrap();
            assert_eq!(fell_back.warnings(), 1, "variant {i}");
            assert!(fell_back.streaming_consistent(), "variant {i}");
            assert_eq!(
                fell_back.streaming(),
                &TapStreaming::rebuild(fell_back.committed()),
                "variant {i}"
            );
        }

        // A merely missing state file is the normal bootstrap, not a
        // degradation.
        std::fs::remove_file(&stream_path).unwrap();
        let boot = AdversaryTap::load_resuming(&tap_path, &stream_path).unwrap();
        assert_eq!(boot.warnings(), 0);
        assert!(boot.streaming_consistent());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deletion_shrinks_catalog_but_not_the_observed_state() {
        let mut tap = AdversaryTap::new();
        tap.record_commit(backup("keep", &[1, 2]));
        tap.record_commit(backup("gone", &[3, 4, 5]));
        tap.record_commit(backup("gone", &[6]));
        assert!(tap.delete_backup("missing").is_none());

        // Deleting a reused label removes every entry under it.
        let (chunks, bytes) = tap.delete_backup("gone").unwrap();
        assert_eq!(chunks, 4);
        assert_eq!(bytes, 4 * 8);
        assert_eq!(tap.len(), 1);
        assert!(tap.backup("gone").is_none());
        assert_eq!(tap.deleted_commits(), 2);

        // The running attack state still covers the deleted streams —
        // and the consistency check knows that.
        assert_eq!(tap.streaming().commits(), 3);
        assert_eq!(tap.streaming().logical_chunks(), 6);
        assert!(tap.streaming_consistent());

        // Deletion, GC and rekey all land in the observable record.
        tap.record_gc(2, 4096);
        tap.record_rekey(1);
        assert_eq!(
            tap.lifecycle_events(),
            &[
                LifecycleEvent::Delete {
                    label: "gone".into(),
                    chunks: 4
                },
                LifecycleEvent::Gc {
                    containers_dropped: 2,
                    reclaimed_bytes: 4096
                },
                LifecycleEvent::Rekey { epoch: 1 },
            ]
        );

        // A save/reload rebuilds from the surviving catalog only — the
        // restarted adversary state covers exactly what still exists.
        let dir = std::env::temp_dir().join(format!("freqdedup-tapdel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tap.fqdt");
        tap.save(&path).unwrap();
        let back = AdversaryTap::load(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.streaming().commits(), 1);
        assert!(back.streaming_consistent());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_inference_matches_batch_both_policies() {
        use freqdedup_core::attacks::run_ciphertext_only_series;
        let mut tap = AdversaryTap::new();
        tap.record_commit(backup("m0", &[101, 102, 101, 102, 103, 104]));
        tap.record_commit(backup("m1", &[102, 103, 104, 104]));
        let aux = backup("aux", &[1, 2, 1, 2, 3, 4, 2, 3, 4]);
        let params = LocalityParams::new(1, 1, 1000);
        for (policy, streamed) in
            tap.streaming_inference_both_policies(AttackKind::Locality, &aux, &params)
        {
            let batch = run_ciphertext_only_series(
                AttackKind::Locality,
                tap.committed(),
                &aux,
                &params.clone().tie_policy(policy),
            );
            let mut a: Vec<_> = streamed.iter().collect();
            let mut b: Vec<_> = batch.iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{policy:?}");
        }
    }
}
