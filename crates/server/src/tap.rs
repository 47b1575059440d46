//! The provider-side adversary tap.
//!
//! The paper's adversary models (§3) give the attacker the storage
//! provider's view: the logical, pre-deduplication order of ciphertext
//! chunks of each uploaded backup. In a real deployment this view is the
//! provider's *own metadata*: the manifests it must keep to serve
//! restores, its [`Catalog`]. [`AdversaryTap`] observes that catalog,
//! folding its records in journal order after the acks, and holds the
//! live manifests (shared with the catalog, not copied) as ordinary
//! [`Backup`]s, so `LocalityAttack` / `AdvancedAttack` run **unchanged**
//! against live traffic. The metadata the provider needs in order to
//! function *is* the leak.
//!
//! A session is one connection handled by one worker, so each committed
//! stream is byte-identical to the client's send order, and
//! [`AdversaryTap::series`] (sorted by label) is deterministic however
//! the sessions raced.
//!
//! The tap also keeps the adversary's **running attack state**: a
//! [`TapStreaming`] around one policy-free [`IncrementalStats`], folded
//! once per COMMIT record in O(delta) amortized and ranked under either
//! [`TiePolicy`]. It follows **commit order** and keeps deleted
//! manifests' contribution (the provider cannot unsee an upload), and it
//! is bit-identical to a batch recompute over the committed streams. One
//! [`AdversaryTap::catch_up`] builds it while serving and after a bind,
//! so after a graceful restart or a crash it equals a server that never
//! stopped; `tap.fqis` only caches it, so the first catch-up after a bind
//! folds just the records after the cached prefix.

use std::borrow::Borrow;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use freqdedup_core::attacks::locality::LocalityParams;
use freqdedup_core::attacks::{self, AttackKind};
use freqdedup_core::{DenseStats, IncrementalStats, Inference, TiePolicy};
use freqdedup_store::persist::{maybe_sync_dir, FsyncPolicy};
use freqdedup_trace::io::TraceIoError;
use freqdedup_trace::{Backup, BackupSeries};

use crate::catalog::{Catalog, CatalogRecord, OpKind};
use crate::server::lock_unpoisoned;

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

    /// Builds running state by folding `committed` in the given order —
    /// the batch oracle the live state is checked against.
    #[must_use]
    pub fn rebuild(committed: &[impl Borrow<Backup>]) -> Self {
        let mut streaming = TapStreaming::default();
        for backup in committed {
            streaming.commit(backup.borrow());
        }
        streaming
    }

    /// Saves the running state as the `tap.fqis` cache (one CRC-checked
    /// blob; [`AdversaryTap::open`] reads it back bit-identically), written
    /// aside, synced under `fsync`, and renamed into place: a crash leaves
    /// the old cache or the new one (after a power loss, only under
    /// [`FsyncPolicy::Always`]).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on a write or sync failure.
    pub fn save(&self, path: &Path, fsync: FsyncPolicy) -> Result<(), TraceIoError> {
        let tmp = path.with_extension("tmp");
        let mut writer = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        self.stats.write_to(&mut writer)?;
        let file = writer
            .into_inner()
            .map_err(std::io::IntoInnerError::into_error)?;
        if fsync == FsyncPolicy::Always {
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Best-effort, as every directory sync of the store.
        let _ = maybe_sync_dir(path.parent().unwrap_or(Path::new(".")), fsync);
        Ok(())
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

/// What the adversary has observed of the catalog: the fold of its
/// records, in journal order.
#[derive(Debug, Default)]
pub struct AdversaryTap {
    /// Live manifests in commit order (racy across sessions; use
    /// [`Self::series`] for the deterministic view). Labels are unique.
    committed: Vec<Arc<Backup>>,
    /// Running attack state, folded forward on every commit.
    streaming: TapStreaming,
    /// Lifecycle operations observed in order (deletions, GC passes,
    /// rekeys) — adversary observables, like the committed streams.
    lifecycle: Vec<LifecycleEvent>,
    /// COMMIT records folded, deleted manifests included.
    commits: u64,
    /// Logical chunks those records carried.
    commit_chunks: u64,
    /// An unusable `tap.fqis` cache at [`Self::open`].
    warnings: u64,
}

impl AdversaryTap {
    /// Opens the tap of a just-opened `catalog`. The `tap.fqis` cache at
    /// `cache`, when it covers a prefix of the journal, stands in for
    /// folding that prefix at the first [`Self::catch_up`]. A missing
    /// cache costs a full fold, and a corrupt, stale or
    /// ahead-of-the-journal one a full fold and a [`Self::warnings`].
    #[must_use]
    pub fn open(cache: &Path, catalog: &Catalog) -> Self {
        let mut tap = AdversaryTap::default();
        let stats = std::fs::File::open(cache)
            .map_err(TraceIoError::from)
            .and_then(|file| IncrementalStats::read_from(std::io::BufReader::new(file)));
        match stats {
            Ok(stats) if covers(&stats, catalog.pending()) => tap.streaming.stats = stats,
            Err(TraceIoError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            _ => tap.warnings += 1,
        }
        tap
    }

    /// Folds every record `catalog` has journaled since the last
    /// catch-up, in journal order. Called under the tap's lock, it holds
    /// the catalog's (tap → catalog, never the reverse) only to take the
    /// records, so the fold never holds up the service.
    pub fn catch_up(&mut self, catalog: &Mutex<Catalog>) {
        let records = lock_unpoisoned(catalog).take_pending();
        for record in records {
            self.apply(record);
        }
    }

    /// Folds one catalog record. A COMMIT joins the live manifests
    /// (retiring an earlier one of the same label) and the running attack
    /// state, unless a resumed cache already covers it; a DELETE retires a
    /// manifest but leaves the attack state (the provider cannot unsee an
    /// upload); and every operation bar commits and imported registry
    /// entries is a [`LifecycleEvent`].
    fn apply(&mut self, record: CatalogRecord) {
        match record {
            CatalogRecord::Commit { backup, .. } => {
                if self.streaming.commits() == self.commits {
                    self.streaming.commit(&backup);
                }
                self.commits += 1;
                self.commit_chunks += backup.len() as u64;
                self.committed.retain(|b| b.label != backup.label);
                self.committed.push(backup);
            }
            CatalogRecord::Op { kind, ack, .. } => {
                let event = match kind {
                    OpKind::Delete => {
                        self.committed.retain(|b| b.label != ack.label);
                        Some(LifecycleEvent::Delete {
                            label: ack.label,
                            chunks: ack.chunks,
                        })
                    }
                    OpKind::Gc => Some(LifecycleEvent::Gc {
                        containers_dropped: ack.chunks,
                        reclaimed_bytes: ack.extra,
                    }),
                    OpKind::Rekey => Some(LifecycleEvent::Rekey { epoch: ack.chunks }),
                    OpKind::Imported => None,
                };
                self.lifecycle.extend(event);
            }
        }
    }

    /// COMMIT records folded, deleted manifests included.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Lifecycle operations observed so far, in order.
    #[must_use]
    pub fn lifecycle_events(&self) -> &[LifecycleEvent] {
        &self.lifecycle
    }

    /// Degraded-recovery warnings of [`Self::open`].
    #[must_use]
    pub fn warnings(&self) -> u64 {
        self.warnings
    }

    /// Live manifests in commit order (nondeterministic across
    /// concurrent sessions — prefer [`Self::series`] for analysis).
    #[must_use]
    pub fn committed(&self) -> &[Arc<Backup>] {
        &self.committed
    }

    /// The adversary's running attack state: every COMMIT record folded
    /// so far, in journal order.
    #[must_use]
    pub fn streaming(&self) -> &TapStreaming {
        &self.streaming
    }

    /// Whether the running state covers exactly the COMMIT records folded
    /// — deleted manifests included, since observation is irreversible.
    /// Always true for a tap built by folding; checked after a resume
    /// from the `tap.fqis` cache.
    #[must_use]
    pub fn streaming_consistent(&self) -> bool {
        self.streaming.commits() == self.commits
            && self.streaming.logical_chunks() == self.commit_chunks
    }

    /// Runs `kind` in ciphertext-only mode against the **running** state
    /// under both tie-break policies — the live mirror of
    /// [`attacks::run_ciphertext_only_both_policies`], with no
    /// ciphertext-side `COUNT`: one flatten of the running state
    /// ([`IncrementalStats::to_dense`]), one `COUNT` of `plain_aux`, then
    /// two crawls of the same flat tables. Bit-identical to a batch
    /// recompute over every stream committed so far, in commit order.
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
        let mut backups: Vec<Backup> = self.committed.iter().map(|b| Backup::clone(b)).collect();
        backups.sort_by(|a, b| a.label.cmp(&b.label));
        let name = name.into();
        BackupSeries { name, backups }
    }

    /// The chunk-boundary observable: each committed backup's
    /// **chunk-length sequence** in upload order, label-sorted like
    /// [`Self::series`]. Returns `(label, lengths)` pairs.
    ///
    /// MLE is length-preserving, so these are the *plaintext* chunk
    /// lengths — the raw material of boundary-inference attacks on CDC
    /// (the provider learns where every client-side cut fell, and cut
    /// positions are a function of plaintext content). The sequences ride
    /// in the same `(fingerprint, size)` records `catalog.log` keeps, so a
    /// reopened tap exposes the identical observable.
    #[must_use]
    pub fn length_sequences(&self) -> Vec<(String, Vec<u32>)> {
        let sizes = |b: Backup| (b.label, b.chunks.iter().map(|rec| rec.size).collect());
        self.series("").backups.into_iter().map(sizes).collect()
    }
}

/// Whether a cached running state is a prefix of the journal: as many
/// commits as it has COMMIT records, carrying as many logical chunks over
/// its first `cache.commits()` of them.
fn covers(cache: &IncrementalStats, records: &[CatalogRecord]) -> bool {
    let prefix: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            CatalogRecord::Commit { backup, .. } => Some(backup.len() as u64),
            CatalogRecord::Op { .. } => None,
        })
        .take(usize::try_from(cache.commits()).unwrap_or(usize::MAX))
        .collect();
    prefix.len() as u64 == cache.commits() && prefix.iter().sum::<u64>() == cache.logical_chunks()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::AppliedCommit;
    use crate::server::STREAM_FILE;
    use freqdedup_store::persist::{PersistConfig, PersistError};
    use freqdedup_trace::io;
    use freqdedup_trace::ChunkRecord;

    /// A catalog and the tap observing it, as a server holds them: every
    /// append is followed by a catch-up.
    #[derive(Default)]
    struct Served {
        catalog: Mutex<Catalog>,
        tap: AdversaryTap,
    }

    impl Served {
        fn catalog(&mut self) -> &mut Catalog {
            self.catalog.get_mut().unwrap()
        }

        fn append(&mut self, record: CatalogRecord) -> Result<AppliedCommit, PersistError> {
            let ack = self.catalog().append(record)?;
            self.tap.catch_up(&self.catalog);
            Ok(ack)
        }
    }

    impl std::ops::Deref for Served {
        type Target = AdversaryTap;

        fn deref(&self) -> &AdversaryTap {
            &self.tap
        }
    }

    fn backup(label: &str, fps: &[u64]) -> Backup {
        Backup::from_chunks(label, fps.iter().map(|&f| ChunkRecord::new(f, 8)).collect())
    }

    /// Commits `b` through the journal, as the service does.
    fn commit(tap: &mut Served, b: Backup, op_id: u64) -> AppliedCommit {
        let record = CatalogRecord::Commit {
            op_id,
            backup_id: tap.catalog().next_backup_id(),
            timestamp: tap.catalog().commits() + 1,
            backup: Arc::new(b),
        };
        tap.append(record).unwrap()
    }

    fn op(kind: OpKind, op_id: u64, label: &str, chunks: u64, extra: u64) -> CatalogRecord {
        CatalogRecord::Op {
            kind,
            op_id,
            ack: AppliedCommit {
                label: label.into(),
                chunks,
                extra,
                extra2: 0,
            },
        }
    }

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("freqdedup-tap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn persist(dir: &Path) -> PersistConfig {
        PersistConfig::new(dir).fsync(FsyncPolicy::Never)
    }

    fn open(dir: &Path) -> Served {
        let catalog = Catalog::open(&persist(dir)).unwrap();
        let mut tap = AdversaryTap::open(&dir.join(STREAM_FILE), &catalog);
        let catalog = Mutex::new(catalog);
        tap.catch_up(&catalog);
        Served { catalog, tap }
    }

    #[test]
    fn series_is_label_sorted_regardless_of_commit_order() {
        let mut a = Served::default();
        commit(&mut a, backup("b", &[1]), 0);
        commit(&mut a, backup("a", &[2]), 0);
        let mut b = Served::default();
        commit(&mut b, backup("a", &[2]), 0);
        commit(&mut b, backup("b", &[1]), 0);
        assert_eq!(a.series("t"), b.series("t"));
        assert_eq!(a.series("t").get(0).unwrap().label, "a");
    }

    /// A reused label retires the older manifest from the catalog (and
    /// the new one gets its own store id), but both stay observed.
    #[test]
    fn label_reuse_retires_the_older_manifest() {
        let mut tap = Served::default();
        commit(&mut tap, backup("x", &[1]), 0);
        let first = tap.catalog().live("x").unwrap().1;
        commit(&mut tap, backup("x", &[2, 3]), 0);
        let (latest, id) = tap.catalog().live("x").unwrap();
        assert_eq!(latest.len(), 2);
        assert_ne!(id, first);
        assert!(!tap.catalog().is_live(first));
        assert!(tap.catalog().live("y").is_none());
        assert_eq!((tap.committed().len(), tap.committed()[0].len()), (1, 2));
        assert_eq!((tap.commits(), tap.streaming().logical_chunks()), (2, 3));
        assert!(tap.streaming_consistent());
    }

    #[test]
    fn length_sequences_are_label_sorted_and_survive_reopen() {
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
        let dir = test_dir("lens");
        let mut tap = open(&dir);
        // Commit order differs from label order; sequences keep upload
        // order within each backup.
        commit(&mut tap, sized("m1", &[4096, 100, 8192]), 0);
        commit(&mut tap, sized("m0", &[512, 512]), 0);
        assert_eq!(
            tap.length_sequences(),
            vec![
                ("m0".to_string(), vec![512, 512]),
                ("m1".to_string(), vec![4096, 100, 8192]),
            ]
        );
        assert_eq!(open(&dir).length_sequences(), tap.length_sequences());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn apply_keeps_streaming_in_lockstep() {
        let mut tap = Served::default();
        commit(&mut tap, backup("m0", &[1, 2, 1, 3]), 0);
        commit(&mut tap, backup("m1", &[2, 3, 9]), 0);
        assert!(tap.streaming_consistent());
        assert_eq!(tap.streaming().commits(), 2);
        assert_eq!(tap.streaming().logical_chunks(), 7);
        assert_eq!(tap.streaming().update_micros().len(), 2);
        // The running state equals a fresh fold of the committed tape.
        let mut fold = IncrementalStats::default();
        for b in tap.committed() {
            fold.commit(b);
        }
        assert_eq!(tap.streaming().stats().to_dense(), fold.to_dense());
    }

    #[test]
    fn update_latency_log_keeps_the_most_recent_commits() {
        let mut streaming = TapStreaming::default();
        let empty = backup("e", &[]);
        for _ in 0..=UPDATE_LOG_CAP {
            streaming.commit(&empty);
        }
        assert_eq!(streaming.commits(), UPDATE_LOG_CAP as u64 + 1);
        assert_eq!(streaming.update_micros().len(), UPDATE_LOG_CAP);
    }

    /// Reopening folds the journal in commit order — the live state, not a
    /// label-order replay — with or without the cache, and a cache that
    /// covers a prefix is resumed and only the tail folded.
    #[test]
    fn reopen_equals_the_live_state_and_resumes_a_prefix_cache() {
        let dir = test_dir("reopen");
        let cache = dir.join(STREAM_FILE);
        let mut tap = open(&dir);
        // Commit order deliberately differs from label order.
        commit(&mut tap, backup("m1", &[1, 2, 1, 3]), 0);
        commit(&mut tap, backup("m0", &[2, 3, 9]), 0);
        tap.streaming().save(&cache, FsyncPolicy::Never).unwrap();
        commit(&mut tap, backup("m2", &[5, 1]), 0);
        let rebuilt = TapStreaming::rebuild(tap.committed());
        assert_eq!(tap.streaming(), &rebuilt);

        // The cache is two commits behind: resumed, tail folded.
        let resumed = open(&dir);
        assert_eq!(resumed.warnings(), 0);
        assert_eq!(resumed.streaming(), tap.streaming());
        assert_eq!(resumed.streaming().update_micros().len(), 1);

        // No cache: the whole journal is folded, silently.
        std::fs::remove_file(&cache).unwrap();
        let folded = open(&dir);
        assert_eq!(
            (folded.warnings(), folded.streaming()),
            (0, tap.streaming())
        );
        assert_eq!(folded.commits(), 3);

        // A cache ahead of the journal, or one whose chunks disagree with
        // it, is ignored with a warning.
        let mut ahead = TapStreaming::rebuild(tap.committed());
        ahead.commit(&backup("m3", &[7]));
        let mut stale = TapStreaming::default();
        stale.commit(&backup("other", &[1, 2, 3]));
        for bad in [ahead, stale] {
            bad.save(&cache, FsyncPolicy::Never).unwrap();
            let reopened = open(&dir);
            assert_eq!(reopened.warnings(), 1);
            assert_eq!(reopened.streaming(), tap.streaming());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_cache_falls_back_to_a_full_fold_with_warning() {
        let dir = test_dir("corrupt");
        let cache = dir.join(STREAM_FILE);
        let mut tap = open(&dir);
        commit(&mut tap, backup("a", &[1, 2, 1]), 0);
        commit(&mut tap, backup("b", &[2, 9]), 0);
        tap.streaming().save(&cache, FsyncPolicy::Never).unwrap();
        let clean = std::fs::read(&cache).unwrap();

        // Corrupt the cache at several offsets (plus truncation, plus each
        // length field forged to its maximum — see the blob layout in
        // `IncrementalStats::write_to`): every variant must fall back to a
        // full fold, bit-identical to the live state, with the warning
        // counted.
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
            std::fs::write(&cache, bad).unwrap();
            let fell_back = open(&dir);
            assert_eq!(fell_back.warnings(), 1, "variant {i}");
            assert!(fell_back.streaming_consistent(), "variant {i}");
            assert_eq!(fell_back.streaming(), tap.streaming(), "variant {i}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deletion_shrinks_the_catalog_but_not_the_observed_state() {
        let dir = test_dir("delete");
        let mut tap = open(&dir);
        commit(&mut tap, backup("keep", &[1, 2]), 0);
        commit(&mut tap, backup("gone", &[3, 4, 5]), 0);
        tap.append(op(OpKind::Delete, 21, "gone", 3, 24)).unwrap();
        assert_eq!(tap.committed().len(), 1);
        assert!(tap.catalog().live("gone").is_none());
        assert_eq!(tap.catalog().applied_commits()[&21].extra, 24);

        // The running attack state still covers the deleted stream — and
        // the consistency check knows that.
        assert_eq!(tap.streaming().commits(), 2);
        assert_eq!(tap.streaming().logical_chunks(), 5);
        assert!(tap.streaming_consistent());

        // Deletion, GC and rekey all land in the observable record.
        tap.append(op(OpKind::Gc, 0, "", 2, 4096)).unwrap();
        tap.append(op(OpKind::Rekey, 0, "", 1, 8)).unwrap();
        let events = [
            LifecycleEvent::Delete {
                label: "gone".into(),
                chunks: 3,
            },
            LifecycleEvent::Gc {
                containers_dropped: 2,
                reclaimed_bytes: 4096,
            },
            LifecycleEvent::Rekey { epoch: 1 },
        ];
        assert_eq!(tap.lifecycle_events(), &events);

        // A reopened tap is the same fold: the deleted stream stays
        // counted, the events and the registry come back.
        let mut back = open(&dir);
        assert_eq!(back.committed().len(), 1);
        assert_eq!(back.commits(), 2);
        assert_eq!(back.streaming(), tap.streaming());
        assert_eq!(back.lifecycle_events(), &events);
        assert_eq!(
            back.catalog().applied_commits(),
            tap.catalog().applied_commits()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_inference_matches_batch_both_policies() {
        use freqdedup_core::attacks::run_ciphertext_only_series;
        let mut tap = Served::default();
        commit(&mut tap, backup("m0", &[101, 102, 101, 102, 103, 104]), 0);
        commit(&mut tap, backup("m1", &[102, 103, 104, 104]), 0);
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
