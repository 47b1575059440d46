//! The deduplication engine: DDFS's S1→S4 metadata workflow (§7.4.1).
//!
//! For every incoming (ciphertext) chunk `C`:
//!
//! * **S1** — check the in-memory fingerprint cache; a hit means duplicate.
//! * *(buffer)* — check the open, not-yet-sealed container (in-memory, free);
//!   DDFS keeps just-written chunks visible, otherwise duplicates arriving
//!   before the first flush would be stored twice.
//! * **S2** — miss the Bloom filter ⇒ definitely unique: update the Bloom
//!   filter and append `C` to the open container; when the container fills
//!   up it is sealed and its fingerprints are written to the on-disk index
//!   (*update access*).
//! * **S3** — Bloom hit may be a false positive: query the on-disk
//!   fingerprint index (*index access*); a miss stores `C` as in S2.
//! * **S4** — index hit: `C` is a duplicate; prefetch all fingerprints of
//!   its container into the cache (*loading access*), evicting
//!   least-recently-used entries when full.
//!
//! ## Durability
//!
//! With [`DedupConfig::persist`] set, the engine is backed by a directory:
//! every sealed container is written to its own [log file](crate::log) and
//! committed by a [manifest journal](crate::manifest) record, and
//! [`DedupEngine::close`] (or an interval policy applied at
//! [`DedupEngine::finish`]) writes an index + counters snapshot.
//! [`DedupEngine::open`] recovers the directory back into a running engine
//! — bit-identically after a clean close, and to the last consistent
//! sealed state after a crash (torn tail writes are detected and rolled
//! back). A failed durable write panics (fail-stop), and the engine then
//! refuses every later one until it is reopened ([`PersistError::Failed`]),
//! so a caller that catches the panic cannot append past the failure.
//! See `DESIGN.md` §7 for the format and the recovery invariant.
//!
//! ## Lifecycle
//!
//! Beyond append-only ingest, the engine manages the full storage
//! lifecycle (see [`crate::lifecycle`]): [`DedupEngine::commit_backup`]
//! records a backup recipe and takes per-chunk references,
//! [`DedupEngine::delete_backup`] releases them, [`DedupEngine::gc`]
//! rewrites live chunks out of mostly-dead containers and drops the rest,
//! and [`DedupEngine::rekey`] re-wraps containers under a new key epoch
//! (REED-style revocation). Every step is journaled through the manifest,
//! so the crash-recovery invariant extends across deletion, GC and rekey.

use std::collections::{BTreeMap, HashMap, HashSet};

use freqdedup_trace::{Backup, ChunkRecord, Fingerprint};

use crate::bloom::BloomFilter;
use crate::cache::FingerprintCache;
use crate::container::{Container, ContainerId, ContainerStore, PayloadMode};
use crate::fault::{FaultAction, PersistSite};
use crate::index::FingerprintIndex;
use crate::lifecycle::{
    self, DeleteReport, GcReport, LifecycleError, Recipe, RekeyReport, RetentionPolicy,
};
use crate::log;
use crate::manifest::{self, ManifestEvent, ManifestWriter, Snapshot};
use crate::persist::{self, FsyncPolicy, MetaKind, PersistConfig, PersistError, StoreMeta};
use crate::refcount::RefCounts;
use crate::stats::{MetadataAccess, StoreStats};

/// Engine configuration. Defaults follow the paper's prototype (§7.4.2):
/// 4 MB containers, 32-byte fingerprint metadata entries, 1% Bloom
/// false-positive rate, no persistence.
#[derive(Clone, Debug)]
pub struct DedupConfig {
    /// Container capacity in bytes.
    pub container_bytes: u64,
    /// Fingerprint cache capacity, in entries (bytes / entry_bytes).
    pub cache_entries: usize,
    /// Metadata entry size in bytes (32 in the paper).
    pub entry_bytes: u64,
    /// Expected number of distinct fingerprints (Bloom sizing).
    pub bloom_expected: u64,
    /// Bloom filter target false-positive rate.
    pub bloom_fp_rate: f64,
    /// Durable backing directory; `None` keeps the engine purely in-memory
    /// (the behaviour of every release before the persistence layer).
    pub persist: Option<PersistConfig>,
}

impl DedupConfig {
    /// The paper's configuration with a cache byte budget (512 MB or 4 GB in
    /// §7.4.2) and an expected fingerprint population for Bloom sizing.
    #[must_use]
    pub fn paper(cache_bytes: u64, bloom_expected: u64) -> Self {
        DedupConfig {
            container_bytes: 4 * 1024 * 1024,
            cache_entries: (cache_bytes / 32) as usize,
            entry_bytes: 32,
            bloom_expected,
            bloom_fp_rate: 0.01,
            persist: None,
        }
    }

    /// Sets the persistence backing (builder style).
    #[must_use]
    pub fn persist(mut self, persist: PersistConfig) -> Self {
        self.persist = Some(persist);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.container_bytes == 0 {
            return Err("container_bytes must be positive".into());
        }
        if self.entry_bytes == 0 {
            return Err("entry_bytes must be positive".into());
        }
        if self.bloom_expected == 0 {
            return Err("bloom_expected must be positive".into());
        }
        if !(self.bloom_fp_rate > 0.0 && self.bloom_fp_rate < 1.0) {
            return Err("bloom_fp_rate must be in (0, 1)".into());
        }
        Ok(())
    }

    /// The `store.meta` echo of this configuration for a single engine.
    fn meta(&self) -> StoreMeta {
        StoreMeta {
            kind: MetaKind::Engine,
            shards: 1,
            entry_bytes: self.entry_bytes,
            container_bytes: self.container_bytes,
        }
    }
}

impl Default for DedupConfig {
    fn default() -> Self {
        Self::paper(512 * 1024 * 1024, 10_000_000)
    }
}

/// How a chunk was classified by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkOutcome {
    /// Duplicate found in the fingerprint cache (S1).
    DuplicateCache,
    /// Duplicate found in the open container buffer.
    DuplicateBuffer,
    /// Duplicate confirmed by the on-disk index (S4).
    DuplicateIndex,
    /// Unique chunk, stored (S2/S3).
    Unique,
}

impl ChunkOutcome {
    /// Whether the chunk was a duplicate.
    #[must_use]
    pub fn is_duplicate(self) -> bool {
        !matches!(self, ChunkOutcome::Unique)
    }
}

/// What the store holds for one fingerprint
/// ([`DedupEngine::lookup_chunk`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkLookup<'a> {
    /// Stored with payload bytes (content mode), borrowed straight from
    /// the container extent.
    Payload(&'a [u8]),
    /// Stored metadata-only (trace mode): the store keeps no bytes.
    Metadata,
    /// Not stored.
    Missing,
}

/// The live persistence handles of a durable engine.
#[derive(Debug)]
struct PersistState {
    cfg: PersistConfig,
    manifest: ManifestWriter,
    seals_since_snapshot: u32,
    /// Total manifest journal events written (seals, backups, deletes, GC
    /// drops, rekey markers). Snapshots record this as their `event_seq`.
    events: u64,
    /// Set while a durable write is in flight and left set when it fails
    /// (the write panics). The engine's memory is then ahead of its files:
    /// a seal whose record failed still holds its container id, so the
    /// next seal's record would leave a gap recovery refuses. A failed
    /// engine writes nothing more until it is reopened.
    failed: bool,
}

impl PersistState {
    /// Starts a durable write, panicking when an earlier one failed; the
    /// engine is marked failed until [`Self::end_write`].
    fn begin_write(&mut self) {
        assert!(!self.failed, "persistent store: {}", PersistError::Failed);
        self.failed = true;
    }

    fn end_write(&mut self) {
        self.failed = false;
    }
}

/// The DDFS-like deduplication engine.
///
/// # Example
///
/// ```
/// use freqdedup_store::engine::{DedupConfig, DedupEngine};
/// use freqdedup_trace::ChunkRecord;
///
/// let mut engine = DedupEngine::new(DedupConfig::paper(1 << 20, 1000)).unwrap();
/// let a = engine.process(ChunkRecord::new(1u64, 4096));
/// let b = engine.process(ChunkRecord::new(1u64, 4096));
/// assert!(!a.is_duplicate());
/// assert!(b.is_duplicate());
/// engine.finish();
/// assert_eq!(engine.stats().unique_chunks, 1);
/// ```
#[derive(Debug)]
pub struct DedupEngine {
    config: DedupConfig,
    bloom: BloomFilter,
    cache: FingerprintCache,
    containers: ContainerStore,
    index: FingerprintIndex,
    loading_bytes: u64,
    loading_ops: u64,
    stats: StoreStats,
    refcounts: RefCounts,
    recipes: HashMap<u64, Recipe>,
    epoch: u64,
    pending_rekey: Option<u64>,
    epoch_keys: HashMap<u64, [u8; 32]>,
    persist: Option<PersistState>,
}

impl DedupEngine {
    /// Builds an engine from a validated configuration ([`Self::open`] with
    /// the error stringified — kept for source compatibility).
    ///
    /// # Errors
    ///
    /// Returns the display form of the [`Self::open`] error.
    pub fn new(config: DedupConfig) -> Result<Self, String> {
        Self::open(config).map_err(|e| e.to_string())
    }

    /// Opens an engine. With [`DedupConfig::persist`] unset this is a pure
    /// in-memory construction; with it set, the backing directory is
    /// created on first use and **recovered** on every later open — the
    /// engine resumes exactly where [`Self::close`] left it (or at the last
    /// consistent sealed state after a crash).
    ///
    /// # Errors
    ///
    /// * [`PersistError::InvalidConfig`] — [`DedupConfig::validate`] failed;
    /// * [`PersistError::ConfigMismatch`] — the directory was created under
    ///   an incompatible configuration;
    /// * [`PersistError::Corrupt`] / [`PersistError::Torn`] — the directory
    ///   violates the recovery invariant beyond the tolerated torn tail;
    /// * [`PersistError::Io`] — filesystem failure.
    pub fn open(config: DedupConfig) -> Result<Self, PersistError> {
        config.validate().map_err(PersistError::InvalidConfig)?;
        let mut engine = DedupEngine {
            bloom: BloomFilter::with_capacity(config.bloom_expected, config.bloom_fp_rate),
            cache: FingerprintCache::new(config.cache_entries),
            containers: ContainerStore::new(config.container_bytes),
            index: FingerprintIndex::with_entry_bytes(config.entry_bytes),
            loading_bytes: 0,
            loading_ops: 0,
            stats: StoreStats::default(),
            refcounts: RefCounts::new(),
            recipes: HashMap::new(),
            epoch: 0,
            pending_rekey: None,
            epoch_keys: HashMap::new(),
            persist: None,
            config,
        };
        let Some(pcfg) = engine.config.persist.clone() else {
            return Ok(engine);
        };
        // Derive the per-epoch container keys from the configured secrets
        // before recovery: recovery reads container logs, which may be
        // wrapped under a non-zero key epoch.
        for (epoch, secret) in &pcfg.keys {
            engine
                .epoch_keys
                .insert(*epoch, lifecycle::epoch_key(secret, *epoch));
        }
        std::fs::create_dir_all(&pcfg.dir)?;
        if pcfg.dir.join(manifest::MANIFEST_FILE).exists() {
            Self::recover(engine, pcfg)
        } else {
            // Fresh directory (or one that died between meta and manifest
            // creation, before any data was accepted): initialize it. An
            // existing meta must agree first — a sharded root, say, has a
            // meta but no top-level manifest, and blindly re-initializing
            // would clobber it.
            persist::ensure_meta(&pcfg.dir, &engine.config.meta(), pcfg.fsync, &pcfg.io)?;
            let manifest = ManifestWriter::create(&pcfg.dir, pcfg.fsync, &pcfg.io)?;
            engine.persist = Some(PersistState {
                cfg: pcfg,
                manifest,
                seals_since_snapshot: 0,
                events: 0,
                failed: false,
            });
            Ok(engine)
        }
    }

    /// Rebuilds a fresh `engine` from the persistent directory state.
    fn recover(mut engine: DedupEngine, pcfg: PersistConfig) -> Result<Self, PersistError> {
        let dir = pcfg.dir.clone();
        let meta = persist::read_meta(&dir)?;
        let want = engine.config.meta();
        if meta != want {
            return Err(PersistError::ConfigMismatch(format!(
                "directory was created as {meta:?}, opened as {want:?}"
            )));
        }

        // 1. The manifest journal is the authoritative event history: scan
        //    it (tolerating a torn tail record) and roll back the last
        //    event if its companion file (container log for a seal, recipe
        //    file for a backup commit) did not survive the crash. Only the
        //    *last* event may lack its file — write-ahead ordering makes a
        //    missing companion anywhere earlier hard corruption.
        let (mut manifest, mut scan) = ManifestWriter::open(&dir, pcfg.fsync, &pcfg.io)?;
        let companion = match scan.events.last().copied() {
            Some(ManifestEvent::Seal { id, .. }) => {
                let read = log::read_container(&dir, ContainerId(id), &engine.epoch_keys);
                Some((read.map(drop), log::container_path(&dir, ContainerId(id))))
            }
            Some(ManifestEvent::Backup { id, .. }) => {
                let read = lifecycle::read_recipe(&dir, id);
                Some((read.map(drop), lifecycle::recipe_path(&dir, id)))
            }
            _ => None,
        };
        let tolerable = |e: &PersistError| {
            matches!(e, PersistError::Torn { .. })
                || matches!(e, PersistError::Io(io) if io.kind() == std::io::ErrorKind::NotFound)
        };
        match companion {
            Some((Err(e), path)) if tolerable(&e) => {
                scan.events.pop();
                scan.record_ends.pop();
                let _ = std::fs::remove_file(path);
            }
            Some((Err(e), _)) => return Err(e),
            _ => {}
        }

        // 2. Fold the event history into the catalog shape: which seals
        //    exist (dense ids), which containers GC dropped, which backups
        //    are committed, and where the key epoch stands.
        let mut seal_info: Vec<(u32, u64)> = Vec::new(); // (chunk_count, data_bytes) by id
        let mut dropped: HashSet<u32> = HashSet::new();
        let mut committed: BTreeMap<u64, u64> = BTreeMap::new(); // backup id -> timestamp
        let mut epoch = 0u64;
        let mut pending_rekey: Option<u64> = None;
        for event in &scan.events {
            match *event {
                ManifestEvent::Seal {
                    id,
                    chunk_count,
                    data_bytes,
                } => {
                    if id as usize != seal_info.len() {
                        return Err(PersistError::Corrupt(format!(
                            "manifest seal ids not dense: expected {}, found {id}",
                            seal_info.len()
                        )));
                    }
                    seal_info.push((chunk_count, data_bytes));
                }
                ManifestEvent::Delete { id } => {
                    return Err(PersistError::Corrupt(format!(
                        "manifest records delete of container {id}, which this engine \
                         version never emits"
                    )));
                }
                ManifestEvent::Backup { id, timestamp, .. } => {
                    if committed.insert(id, timestamp).is_some() {
                        return Err(PersistError::Corrupt(format!(
                            "manifest commits backup {id} twice"
                        )));
                    }
                }
                ManifestEvent::BackupDelete { id, .. } => {
                    if committed.remove(&id).is_none() {
                        return Err(PersistError::Corrupt(format!(
                            "manifest deletes backup {id}, which is not committed at that point"
                        )));
                    }
                }
                ManifestEvent::GcDrop { id, .. } => {
                    if id as usize >= seal_info.len() || !dropped.insert(id) {
                        return Err(PersistError::Corrupt(format!(
                            "manifest drops container {id}, which is not live at that point"
                        )));
                    }
                }
                ManifestEvent::RekeyBegin { epoch: e } => pending_rekey = Some(e),
                ManifestEvent::RekeyCommit { epoch: e } => {
                    epoch = epoch.max(e);
                    if pending_rekey.is_some_and(|p| p <= epoch) {
                        pending_rekey = None;
                    }
                }
            }
        }
        if pending_rekey.is_some_and(|p| p <= epoch) {
            pending_rekey = None;
        }
        let n_seals = seal_info.len();

        // 3. Load the surviving container log files; dropped ids stay as
        //    holes. A lingering file under a dropped id (crash between the
        //    drop record and the unlink) is removed now. Torn reads here
        //    are hard corruption — tail tears were rolled back above.
        let mut slots: Vec<Option<Container>> = Vec::with_capacity(n_seals);
        for id in 0..n_seals {
            let cid = ContainerId(id as u32);
            if dropped.contains(&(id as u32)) {
                let _ = std::fs::remove_file(log::container_path(&dir, cid));
                slots.push(None);
                continue;
            }
            match log::read_container(&dir, cid, &engine.epoch_keys) {
                Ok(c) => slots.push(Some(c)),
                Err(PersistError::Torn { file, detail }) => {
                    return Err(PersistError::Corrupt(format!(
                        "{file}: torn write on a committed container ({detail})"
                    )));
                }
                Err(PersistError::Io(io)) if io.kind() == std::io::ErrorKind::NotFound => {
                    return Err(PersistError::Corrupt(format!(
                        "container {id} is committed by the manifest but its log file \
                         is missing"
                    )));
                }
                Err(other) => return Err(other),
            }
        }

        // 4. Truncate the manifest back to the validated event prefix and
        //    clear stray working files: interrupted rekey rewrites
        //    (`*.clog.tmp`) and recipe files with no committed backup.
        manifest.truncate(scan.valid_len())?;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(".clog.tmp") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        for id in lifecycle::scan_recipe_ids(&dir)? {
            if !committed.contains_key(&id) {
                lifecycle::remove_recipe(&dir, id);
            }
        }

        // 5. Restore the container catalog (payload mode from the recovered
        //    files; undecided when the store is still empty).
        let mode = slots.iter().flatten().next().map(|c| {
            if c.has_payload() {
                PayloadMode::Payload
            } else {
                PayloadMode::Metadata
            }
        });
        engine.containers = ContainerStore::restore(engine.config.container_bytes, mode, slots);

        // 6. Base state from the snapshot — but only when it does not claim
        //    events beyond the recovered prefix (a snapshot "from the
        //    future" relative to a torn store is discarded wholesale: its
        //    flow counters and cache image describe state that was lost).
        let snapshot = manifest::read_snapshot(&dir)?;
        let usable = match snapshot {
            Some(s) if s.event_seq <= scan.events.len() as u64 => Some(s),
            Some(_) => {
                // Snapshot "from the future": it describes events that did
                // not survive. Remove it — once the journal grows past that
                // point with new data, a later recovery could otherwise
                // adopt the stale image as a valid-looking base.
                manifest::remove_snapshot(&dir, pcfg.fsync)?;
                None
            }
            None => None,
        };
        let base_seq = match usable {
            Some(s) => {
                if s.entry_bytes != engine.config.entry_bytes {
                    return Err(PersistError::ConfigMismatch(
                        "snapshot was written under a different index configuration".into(),
                    ));
                }
                engine.stats = StoreStats::from_array(s.stats);
                engine.loading_bytes = s.loading_bytes;
                engine.loading_ops = s.loading_ops;
                for &(fp, cid) in &s.index_entries {
                    engine
                        .index
                        .restore_entry(Fingerprint(fp), ContainerId(cid));
                }
                engine.index.set_counters(s.index_counters);
                let lru: Vec<Fingerprint> = s.cache_lru.iter().map(|&fp| Fingerprint(fp)).collect();
                engine
                    .cache
                    .restore(&lru, s.cache_hits, s.cache_misses, s.cache_evictions);
                s.event_seq as usize
            }
            None => 0,
        };

        // 7. Replay events beyond the snapshot, mirroring the accounting of
        //    the live paths. Flow counters (logical chunks, duplicate hits,
        //    lookups) for the replayed span are not in the journal and stay
        //    at their snapshot values — see the recovery invariant in
        //    DESIGN.md §7. A replayed seal whose container was since GC
        //    dropped has no file: its index-update accounting is
        //    compensated so counters match a live engine's history.
        let mut seals_since_snapshot: u32 = 0;
        for event in &scan.events[base_seq..] {
            match *event {
                ManifestEvent::Seal {
                    id,
                    chunk_count,
                    data_bytes,
                } => {
                    seals_since_snapshot += 1;
                    engine.stats.containers_sealed += 1;
                    engine.stats.unique_chunks += u64::from(chunk_count);
                    engine.stats.unique_bytes += data_bytes;
                    let cid = ContainerId(id);
                    match engine.containers.get(cid) {
                        Some(c) => {
                            let fps = c.fingerprints.clone();
                            for fp in fps {
                                engine.index.insert(fp, cid);
                            }
                        }
                        None => engine.index.account_updates(u64::from(chunk_count)),
                    }
                }
                ManifestEvent::GcDrop {
                    id,
                    chunk_count,
                    data_bytes,
                    dead_chunks,
                    dead_bytes,
                } => {
                    engine.stats.unique_chunks -= u64::from(chunk_count);
                    engine.stats.unique_bytes -= data_bytes;
                    engine.stats.reclaimed_bytes += dead_bytes;
                    engine.stats.containers_dropped += 1;
                    let swept = engine.index.remove_container_entries(ContainerId(id));
                    for &fp in &swept {
                        engine.cache.remove(fp);
                    }
                    // When the drop's seal replayed without its file (gone),
                    // the dead entries were never inserted; account the
                    // removals the live engine performed anyway.
                    let missing = u64::from(dead_chunks).saturating_sub(swept.len() as u64);
                    engine.index.account_updates(missing);
                }
                ManifestEvent::BackupDelete {
                    chunk_count,
                    logical_bytes,
                    ..
                } => {
                    engine.stats.deleted_chunks += u64::from(chunk_count);
                    engine.stats.deleted_bytes += logical_bytes;
                }
                ManifestEvent::Backup { .. }
                | ManifestEvent::RekeyBegin { .. }
                | ManifestEvent::RekeyCommit { .. }
                | ManifestEvent::Delete { .. } => {}
            }
        }

        // 8. Rebuild the Bloom filter from every stored fingerprint — the
        //    bit array is insertion-order-independent, so this reproduces
        //    the filter of an engine that stored exactly these chunks.
        for container in engine.containers.iter() {
            for &fp in &container.fingerprints {
                engine.bloom.insert(fp);
            }
        }

        // 9. Rebuild backup recipes and the chunk reference counts from the
        //    committed set (write-ahead: every committed backup's recipe
        //    file is durable before its manifest record).
        for (&id, &timestamp) in &committed {
            let recipe = lifecycle::read_recipe(&dir, id)?;
            if recipe.timestamp != timestamp {
                return Err(PersistError::Corrupt(format!(
                    "recipe for backup {id} carries timestamp {}, manifest says {timestamp}",
                    recipe.timestamp
                )));
            }
            engine.refcounts.add_recipe(&recipe.chunks);
            engine.recipes.insert(id, recipe);
        }
        engine.epoch = epoch;
        engine.pending_rekey = pending_rekey;

        engine.persist = Some(PersistState {
            seals_since_snapshot,
            events: scan.events.len() as u64,
            cfg: pcfg,
            manifest,
            failed: false,
        });
        Ok(engine)
    }

    /// Processes one chunk without payload (trace-driven mode).
    ///
    /// # Panics
    ///
    /// Panics when the engine previously stored payload-bearing chunks
    /// (mixed-mode ingestion, see [`crate::container::PayloadMode`]), or —
    /// for a persistent engine — when a container/manifest write fails or
    /// an earlier durable write failed ([`PersistError::Failed`]).
    pub fn process(&mut self, record: ChunkRecord) -> ChunkOutcome {
        self.process_inner(record, None)
    }

    /// Processes one chunk storing its payload bytes (content mode).
    ///
    /// # Panics
    ///
    /// Debug-panics when `payload.len() != record.size`. Panics when the
    /// engine previously stored metadata-only chunks (mixed-mode
    /// ingestion), or — for a persistent engine — when a container/manifest
    /// write fails.
    pub fn process_with_payload(&mut self, record: ChunkRecord, payload: &[u8]) -> ChunkOutcome {
        self.process_inner(record, Some(payload))
    }

    fn process_inner(&mut self, record: ChunkRecord, payload: Option<&[u8]>) -> ChunkOutcome {
        self.stats.logical_chunks += 1;
        self.stats.logical_bytes += u64::from(record.size);

        // S1: fingerprint cache.
        if self.cache.lookup(record.fp) {
            self.stats.dup_cache_hits += 1;
            return ChunkOutcome::DuplicateCache;
        }

        // Open-container buffer (in-memory, not part of the accounted flow).
        if self.containers.open_contains(record.fp) {
            self.stats.dup_buffer_hits += 1;
            return ChunkOutcome::DuplicateBuffer;
        }

        // S2: Bloom filter.
        if !self.bloom.contains(record.fp) {
            self.store_unique(record, payload);
            return ChunkOutcome::Unique;
        }

        // S3: on-disk index (the Bloom hit may be a false positive).
        match self.index.lookup(record.fp) {
            None => {
                self.stats.bloom_false_positives += 1;
                self.store_unique(record, payload);
                ChunkOutcome::Unique
            }
            Some(container_id) => {
                // S4: duplicate — prefetch the container's fingerprints.
                self.stats.dup_index_hits += 1;
                let container = self
                    .containers
                    .get(container_id)
                    .expect("index points at sealed container");
                self.loading_bytes += self.config.entry_bytes * container.len() as u64;
                self.loading_ops += 1;
                // Clone is bounded by container size (≤ ~1k fingerprints).
                let fps = container.fingerprints.clone();
                self.cache.insert_container(&fps);
                ChunkOutcome::DuplicateIndex
            }
        }
    }

    fn store_unique(&mut self, record: ChunkRecord, payload: Option<&[u8]>) {
        self.stats.unique_chunks += 1;
        self.stats.unique_bytes += u64::from(record.size);
        self.bloom.insert(record.fp);
        let sealed = self
            .containers
            .append(record, payload)
            .unwrap_or_else(|e| panic!("DedupEngine: {e}"));
        if let Some(sealed_id) = sealed {
            self.on_sealed(sealed_id);
        }
    }

    fn on_sealed(&mut self, id: ContainerId) {
        self.stats.containers_sealed += 1;
        let fps = self
            .containers
            .get(id)
            .expect("just sealed")
            .fingerprints
            .clone();
        for fp in fps {
            self.index.insert(fp, id);
        }
        if let Some(p) = &mut self.persist {
            // Write-ahead ordering: the container file is made durable
            // first, then the manifest record commits the seal. Payload
            // containers are wrapped under the committed key epoch.
            p.begin_write();
            let container = self.containers.get(id).expect("just sealed");
            let key = (self.epoch > 0 && container.has_payload()).then(|| {
                self.epoch_keys
                    .get(&self.epoch)
                    .expect("committed epoch has a derived key")
            });
            log::write_container(
                &p.cfg.dir,
                container,
                self.epoch,
                key,
                p.cfg.fsync,
                &p.cfg.io,
            )
            .unwrap_or_else(|e| panic!("persistent store: container write failed: {e}"));
            p.manifest
                .append(ManifestEvent::Seal {
                    id: id.0,
                    chunk_count: container.len() as u32,
                    data_bytes: container.data_bytes,
                })
                .unwrap_or_else(|e| panic!("persistent store: manifest append failed: {e}"));
            p.events += 1;
            p.seals_since_snapshot += 1;
            p.end_write();
        }
    }

    /// Ingests a whole backup in logical order.
    pub fn ingest_backup(&mut self, backup: &Backup) {
        for &record in backup {
            self.process(record);
        }
    }

    /// Seals the open container and indexes its chunks. Call once after the
    /// final backup (the engine remains usable afterwards).
    ///
    /// For a persistent engine this is also the interval-snapshot point: a
    /// snapshot is written when [`PersistConfig::snapshot_every_seals`]
    /// containers have been sealed since the last one (`finish` is the
    /// first moment the open container is empty, which is what makes the
    /// snapshot image consistent).
    ///
    /// # Panics
    ///
    /// Panics when a persistent engine fails to write the container log,
    /// manifest record or snapshot.
    pub fn finish(&mut self) {
        if let Some(id) = self.containers.flush() {
            self.on_sealed(id);
        }
        let due = self.persist.as_ref().is_some_and(|p| {
            p.cfg.snapshot_every_seals > 0 && p.seals_since_snapshot >= p.cfg.snapshot_every_seals
        });
        if due {
            self.write_snapshot_now()
                .unwrap_or_else(|e| panic!("persistent store: snapshot write failed: {e}"));
        }
    }

    /// Seals the open container and writes a snapshot now (a durable
    /// checkpoint). No-op beyond [`Self::finish`] for in-memory engines.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on write failure, and
    /// [`PersistError::Failed`] when an earlier durable write failed.
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        if self.persist.as_ref().is_some_and(|p| p.failed) {
            return Err(PersistError::Failed);
        }
        if let Some(id) = self.containers.flush() {
            self.on_sealed(id);
        }
        self.write_snapshot_now()
    }

    /// Flushes, snapshots and consumes the engine: after `close` returns,
    /// [`Self::open`] on the same directory resumes bit-identically.
    ///
    /// A graceful close is also a **durability upgrade**: even under
    /// [`crate::persist::FsyncPolicy::Never`], every container log, the
    /// manifest journal, the snapshot and the directory entry are fsynced
    /// once here — so a SHUTDOWN / Ctrl-C path that reaches `close` never
    /// relies on crash recovery, regardless of the run-time fsync policy.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on write failure, and
    /// [`PersistError::Failed`] when an earlier durable write failed.
    pub fn close(mut self) -> Result<(), PersistError> {
        self.checkpoint()?;
        self.sync_for_close()
    }

    /// One-shot unconditional fsync of all persistence files (see
    /// [`Self::close`]). No-op for in-memory engines and under
    /// [`crate::persist::FsyncPolicy::Always`], where every write was
    /// already durable.
    fn sync_for_close(&self) -> Result<(), PersistError> {
        let Some(p) = &self.persist else {
            return Ok(());
        };
        if p.cfg.fsync == FsyncPolicy::Always {
            return Ok(());
        }
        let dir = &p.cfg.dir;
        for container in self.containers.iter() {
            let path = log::container_path(dir, container.id);
            std::fs::File::open(path)?.sync_data()?;
        }
        for &id in self.recipes.keys() {
            std::fs::File::open(lifecycle::recipe_path(dir, id))?.sync_data()?;
        }
        manifest::sync_manifest_files(dir)?;
        persist::maybe_sync_dir(dir, FsyncPolicy::Always)
    }

    fn write_snapshot_now(&mut self) -> Result<(), PersistError> {
        let Some(p) = &mut self.persist else {
            return Ok(());
        };
        if p.failed {
            return Err(PersistError::Failed);
        }
        debug_assert_eq!(
            self.containers.open_len(),
            0,
            "snapshot at an inconsistent point (open container not empty)"
        );
        let snapshot = Snapshot {
            event_seq: p.events,
            entry_bytes: self.config.entry_bytes,
            stats: self.stats.to_array(),
            loading_bytes: self.loading_bytes,
            loading_ops: self.loading_ops,
            index_counters: self.index.counters(),
            index_entries: self
                .index
                .sorted_entries()
                .into_iter()
                .map(|(fp, cid)| (fp.value(), cid.0))
                .collect(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            cache_lru: self
                .cache
                .lru_to_mru()
                .into_iter()
                .map(Fingerprint::value)
                .collect(),
        };
        manifest::write_snapshot(&p.cfg.dir, &snapshot, p.cfg.fsync, &p.cfg.io)?;
        p.seals_since_snapshot = 0;
        Ok(())
    }

    /// Commits a backup: seals the open container (so every referenced
    /// chunk is durable before the backup is), persists the recipe and the
    /// manifest record, and takes a reference on each chunk occurrence.
    ///
    /// `id` must be unique across committed, undeleted backups (servers use
    /// the client commit id, making retries detectable). `timestamp` is
    /// caller-supplied logical time for retention policies.
    ///
    /// # Errors
    ///
    /// [`LifecycleError::DuplicateBackup`] when `id` is already committed.
    ///
    /// # Panics
    ///
    /// Panics when a persistent engine fails to write the recipe file or
    /// manifest record (fail-stop, like the seal path).
    pub fn commit_backup(
        &mut self,
        id: u64,
        timestamp: u64,
        chunks: &[ChunkRecord],
    ) -> Result<(), LifecycleError> {
        if self.recipes.contains_key(&id) {
            return Err(LifecycleError::DuplicateBackup { id });
        }
        if let Some(cid) = self.containers.flush() {
            self.on_sealed(cid);
        }
        let recipe = Recipe {
            timestamp,
            chunks: chunks.to_vec(),
        };
        if let Some(p) = &mut self.persist {
            // Write-ahead ordering: recipe file durable first, then the
            // manifest record commits the backup.
            p.begin_write();
            lifecycle::write_recipe(&p.cfg.dir, id, &recipe, p.cfg.fsync, &p.cfg.io)
                .unwrap_or_else(|e| panic!("persistent store: recipe write failed: {e}"));
            p.manifest
                .append(ManifestEvent::Backup {
                    id,
                    chunk_count: recipe.len() as u32,
                    logical_bytes: recipe.logical_bytes(),
                    timestamp,
                })
                .unwrap_or_else(|e| panic!("persistent store: manifest append failed: {e}"));
            p.events += 1;
            p.end_write();
        }
        self.refcounts.add_recipe(&recipe.chunks);
        self.recipes.insert(id, recipe);
        Ok(())
    }

    /// Deletes a committed backup: releases its chunk references and
    /// journals the deletion. Chunk data is reclaimed later by [`Self::gc`]
    /// — deletion itself only moves bytes from *live* to *logically
    /// deleted* in the stats.
    ///
    /// # Errors
    ///
    /// [`LifecycleError::UnknownBackup`] when `id` is not committed.
    ///
    /// # Panics
    ///
    /// Panics when a persistent engine fails to journal the deletion.
    pub fn delete_backup(&mut self, id: u64) -> Result<DeleteReport, LifecycleError> {
        let Some(recipe) = self.recipes.remove(&id) else {
            return Err(LifecycleError::UnknownBackup { id });
        };
        let chunks_released = recipe.len() as u64;
        let logical_bytes = recipe.logical_bytes();
        if let Some(p) = &mut self.persist {
            // The journal record commits the deletion; removing the recipe
            // file afterwards is cleanup (recovery drops strays).
            p.begin_write();
            p.manifest
                .append(ManifestEvent::BackupDelete {
                    id,
                    chunk_count: chunks_released as u32,
                    logical_bytes,
                })
                .unwrap_or_else(|e| panic!("persistent store: manifest append failed: {e}"));
            p.events += 1;
            p.end_write();
            lifecycle::remove_recipe(&p.cfg.dir, id);
        }
        self.refcounts.release_recipe(&recipe.chunks);
        self.stats.deleted_chunks += chunks_released;
        self.stats.deleted_bytes += logical_bytes;
        Ok(DeleteReport {
            chunks_released,
            logical_bytes,
        })
    }

    /// Committed, undeleted backups as `(id, timestamp)`, sorted by id.
    #[must_use]
    pub fn committed_backups(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .recipes
            .iter()
            .map(|(&id, r)| (id, r.timestamp))
            .collect();
        v.sort_unstable();
        v
    }

    /// The recipe of a committed backup, if present.
    #[must_use]
    pub fn backup_recipe(&self, id: u64) -> Option<&Recipe> {
        self.recipes.get(&id)
    }

    /// Backup ids a retention policy would delete, given the caller's
    /// logical clock `now`.
    #[must_use]
    pub fn retention_victims(&self, policy: RetentionPolicy, now: u64) -> Vec<u64> {
        policy.victims(&self.committed_backups(), now)
    }

    /// Garbage-collects containers whose live fraction (chunks still
    /// referenced by a committed backup *and* owned in the index) is at or
    /// below `live_threshold_permille` (0 = only fully dead containers,
    /// 1000 = rewrite everything). Live chunks are copied into fresh
    /// containers through the ordinary store path — every move is sealed
    /// and manifest-committed *before* its source container is dropped, so
    /// a crash at any point leaves either the pre-move or post-move state.
    ///
    /// # Panics
    ///
    /// Panics when a persistent engine fails a container, manifest or
    /// directory write (fail-stop, like the seal path).
    pub fn gc(&mut self, live_threshold_permille: u32) -> GcReport {
        // Seal pending ingest so the scan sees only sealed containers.
        if let Some(cid) = self.containers.flush() {
            self.on_sealed(cid);
        }
        let mut report = GcReport::default();

        struct Victim {
            id: ContainerId,
            chunk_count: u32,
            data_bytes: u64,
            fingerprints: Vec<Fingerprint>,
            moves: Vec<(ChunkRecord, Option<Vec<u8>>)>,
            moved_bytes: u64,
        }
        // Phase 0: pick victims and copy out their live chunks (the victim
        // containers are about to be dropped).
        let mut victims: Vec<Victim> = Vec::new();
        for c in self.containers.iter() {
            report.containers_scanned += 1;
            let mut moves = Vec::new();
            let mut moved_bytes = 0u64;
            for (pos, &fp) in c.fingerprints.iter().enumerate() {
                let live = self.index.peek(fp) == Some(c.id) && self.refcounts.is_live(fp);
                if live {
                    let size = c.chunk_sizes()[pos];
                    moves.push((
                        ChunkRecord::new(fp, size),
                        c.chunk_payload(pos).map(<[u8]>::to_vec),
                    ));
                    moved_bytes += u64::from(size);
                }
            }
            if (moves.len() as u64) * 1000 > u64::from(live_threshold_permille) * (c.len() as u64) {
                continue; // healthy container, keep it
            }
            victims.push(Victim {
                id: c.id,
                chunk_count: c.len() as u32,
                data_bytes: c.data_bytes,
                fingerprints: c.fingerprints.clone(),
                moves,
                moved_bytes,
            });
        }

        // Phase 1: rewrite live chunks through the ordinary unique-store
        // path (stats, Bloom, index and durability behave exactly like
        // fresh data), then seal — every move is manifest-committed before
        // any source container is dropped.
        for v in &victims {
            for (record, payload) in &v.moves {
                self.store_unique(*record, payload.as_deref());
            }
        }
        if let Some(cid) = self.containers.flush() {
            self.on_sealed(cid);
        }

        // Phase 2: drop each victim — journal the drop, unlink the file,
        // then purge the dead index/cache entries (moved chunks already
        // point at their new container).
        for v in &victims {
            report.containers_dropped += 1;
            report.moved_chunks += v.moves.len() as u64;
            report.moved_bytes += v.moved_bytes;
            let dead_chunks_total = u64::from(v.chunk_count) - v.moves.len() as u64;
            let dead_bytes = v.data_bytes - v.moved_bytes;
            report.dead_chunks += dead_chunks_total;
            report.reclaimed_bytes += dead_bytes;
            // Index entries still mapping to the victim are exactly the
            // dead ones (moves re-pointed theirs in phase 1).
            let dead_fps: Vec<Fingerprint> = v
                .fingerprints
                .iter()
                .copied()
                .filter(|&fp| self.index.peek(fp) == Some(v.id))
                .collect();
            if let Some(p) = &mut self.persist {
                p.begin_write();
                p.manifest
                    .append(ManifestEvent::GcDrop {
                        id: v.id.0,
                        chunk_count: v.chunk_count,
                        data_bytes: v.data_bytes,
                        dead_chunks: dead_fps.len() as u32,
                        dead_bytes,
                    })
                    .unwrap_or_else(|e| panic!("persistent store: manifest append failed: {e}"));
                p.events += 1;
                let _ = std::fs::remove_file(log::container_path(&p.cfg.dir, v.id));
                persist::maybe_sync_dir(&p.cfg.dir, p.cfg.fsync)
                    .unwrap_or_else(|e| panic!("persistent store: directory sync failed: {e}"));
                p.end_write();
            }
            self.containers.remove(v.id);
            self.stats.unique_chunks -= u64::from(v.chunk_count);
            self.stats.unique_bytes -= v.data_bytes;
            self.stats.reclaimed_bytes += dead_bytes;
            self.stats.containers_dropped += 1;
            for fp in dead_fps {
                self.index.remove(fp);
                self.cache.remove(fp);
            }
        }

        // Phase 3: the Bloom filter cannot forget — rebuild it from the
        // live catalog so dropped fingerprints stop claiming duplicates.
        if !victims.is_empty() {
            let mut bloom =
                BloomFilter::with_capacity(self.config.bloom_expected, self.config.bloom_fp_rate);
            for c in self.containers.iter() {
                for &fp in &c.fingerprints {
                    bloom.insert(fp);
                }
            }
            self.bloom = bloom;
        }
        report
    }

    /// REED-style rekeying to the next epoch (or the pending one after a
    /// mid-rekey crash) under a fresh secret. See [`Self::rekey_to`].
    pub fn rekey(&mut self, new_secret: &[u8]) -> RekeyReport {
        let target = self.pending_rekey.unwrap_or(self.epoch + 1);
        self.rekey_to(target, new_secret)
    }

    /// Rewrites every live container under key epoch `target` derived from
    /// `secret`, preserving dedup structure (fingerprints, index, stats are
    /// untouched — only the at-rest wrapping changes). The sequence is
    /// journaled: `REKEY_BEGIN`, per-container rewrite via a temp file +
    /// atomic rename, then `REKEY_COMMIT`. After the commit, reads require
    /// the new epoch's secret; a crash mid-rekey leaves a pending epoch
    /// that [`Self::rekey`] resumes (idempotent — rewriting an
    /// already-rewritten container is harmless).
    ///
    /// No-op when `target` does not advance the committed epoch.
    ///
    /// # Panics
    ///
    /// Panics when a persistent engine fails a rewrite, rename or manifest
    /// append (fail-stop, like the seal path).
    pub fn rekey_to(&mut self, target: u64, secret: &[u8]) -> RekeyReport {
        if target <= self.epoch {
            return RekeyReport {
                epoch: self.epoch,
                containers_rewritten: 0,
            };
        }
        // Seal pending ingest: the rewrite pass walks only sealed
        // containers (sealed at the *old* epoch, rewritten just below).
        if let Some(cid) = self.containers.flush() {
            self.on_sealed(cid);
        }
        let key = lifecycle::epoch_key(secret, target);
        self.epoch_keys.insert(target, key);
        let mut rewritten = 0u64;
        if let Some(p) = &mut self.persist {
            p.begin_write();
            self.pending_rekey = Some(target);
            p.manifest
                .append(ManifestEvent::RekeyBegin { epoch: target })
                .unwrap_or_else(|e| panic!("persistent store: manifest append failed: {e}"));
            p.events += 1;
            for c in self.containers.iter() {
                let ckey = c.has_payload().then_some(&key);
                let tmp =
                    log::write_container_tmp(&p.cfg.dir, c, target, ckey, p.cfg.fsync, &p.cfg.io)
                        .unwrap_or_else(|e| panic!("persistent store: rekey rewrite failed: {e}"));
                if p.cfg.io.before_write(PersistSite::RekeyRename, 0) != FaultAction::Proceed {
                    panic!(
                        "persistent store: rekey rewrite failed: {}",
                        PersistError::Injected {
                            site: PersistSite::RekeyRename
                        }
                    );
                }
                std::fs::rename(&tmp, log::container_path(&p.cfg.dir, c.id))
                    .unwrap_or_else(|e| panic!("persistent store: rekey rewrite failed: {e}"));
                rewritten += 1;
            }
            persist::maybe_sync_dir(&p.cfg.dir, p.cfg.fsync)
                .unwrap_or_else(|e| panic!("persistent store: directory sync failed: {e}"));
            p.manifest
                .append(ManifestEvent::RekeyCommit { epoch: target })
                .unwrap_or_else(|e| panic!("persistent store: manifest append failed: {e}"));
            p.events += 1;
            p.end_write();
        }
        self.epoch = target;
        self.pending_rekey = None;
        RekeyReport {
            epoch: target,
            containers_rewritten: rewritten,
        }
    }

    /// The committed key epoch (0 = unkeyed container logs).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The target epoch of an interrupted rekey awaiting resume, if any.
    #[must_use]
    pub fn pending_rekey(&self) -> Option<u64> {
        self.pending_rekey
    }

    /// Per-chunk reference counts across committed backups (inspection).
    #[must_use]
    pub fn refcounts(&self) -> &RefCounts {
        &self.refcounts
    }

    /// Deduplication counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Metadata access totals (cumulative; subtract snapshots for
    /// per-backup deltas).
    #[must_use]
    pub fn metadata_access(&self) -> MetadataAccess {
        MetadataAccess {
            update_bytes: self.index.update_bytes(),
            index_bytes: self.index.lookup_bytes(),
            loading_bytes: self.loading_bytes,
        }
    }

    /// Number of container prefetch operations (S4 executions).
    #[must_use]
    pub fn loading_ops(&self) -> u64 {
        self.loading_ops
    }

    /// What the store holds for `fp`: one open-container check, then a
    /// single unaccounted index probe (`peek` — reads are not part of the
    /// paper's metadata-access model, so the lookup counters stay put).
    /// The in-container position scan runs only when the container stores
    /// payload bytes; a metadata-only container answers from the index
    /// hit alone.
    #[must_use]
    pub fn lookup_chunk(&self, fp: Fingerprint) -> ChunkLookup<'_> {
        if self.containers.open_contains(fp) {
            return self
                .containers
                .open_payload_of(fp)
                .map_or(ChunkLookup::Metadata, ChunkLookup::Payload);
        }
        let Some(container) = self.index.peek(fp).and_then(|id| self.containers.get(id)) else {
            return ChunkLookup::Missing;
        };
        if !container.has_payload() {
            return ChunkLookup::Metadata;
        }
        container
            .fingerprints
            .iter()
            .position(|&f| f == fp)
            .and_then(|position| container.chunk_payload(position))
            .map_or(ChunkLookup::Missing, ChunkLookup::Payload)
    }

    /// Reads back a stored chunk's payload (content mode only), borrowed
    /// straight from the container extent — no copy. Returns `None` for
    /// unknown fingerprints or metadata-only ingestion. Callers needing an
    /// owned buffer convert with `.map(<[u8]>::to_vec)`.
    #[must_use]
    pub fn read_chunk(&self, fp: Fingerprint) -> Option<&[u8]> {
        match self.lookup_chunk(fp) {
            ChunkLookup::Payload(bytes) => Some(bytes),
            ChunkLookup::Metadata | ChunkLookup::Missing => None,
        }
    }

    /// The fingerprint cache (inspection).
    #[must_use]
    pub fn cache(&self) -> &FingerprintCache {
        &self.cache
    }

    /// The container store (inspection).
    #[must_use]
    pub fn containers(&self) -> &ContainerStore {
        &self.containers
    }

    /// The fingerprint index (inspection).
    #[must_use]
    pub fn index(&self) -> &FingerprintIndex {
        &self.index
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &DedupConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::FsyncPolicy;
    use std::path::PathBuf;

    fn rec(fp: u64, size: u32) -> ChunkRecord {
        ChunkRecord::new(fp, size)
    }

    fn small_config(cache_entries: usize) -> DedupConfig {
        DedupConfig {
            container_bytes: 64,
            cache_entries,
            entry_bytes: 32,
            bloom_expected: 10_000,
            bloom_fp_rate: 0.01,
            persist: None,
        }
    }

    fn small_engine(cache_entries: usize) -> DedupEngine {
        DedupEngine::new(small_config(cache_entries)).unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("freqdedup-engine-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn unique_then_buffer_duplicate() {
        let mut e = small_engine(16);
        assert_eq!(e.process(rec(1, 16)), ChunkOutcome::Unique);
        // Still in the open container: buffer hit, not index.
        assert_eq!(e.process(rec(1, 16)), ChunkOutcome::DuplicateBuffer);
    }

    #[test]
    fn index_duplicate_after_seal_then_cache() {
        let mut e = small_engine(16);
        // Fill container (64 bytes) with 4×16B chunks, then one more to seal.
        for i in 0..4 {
            assert_eq!(e.process(rec(i, 16)), ChunkOutcome::Unique);
        }
        assert_eq!(e.process(rec(100, 16)), ChunkOutcome::Unique); // seals 0..4
        assert_eq!(e.stats().containers_sealed, 1);

        // fp 0 now only reachable via the index.
        assert_eq!(e.process(rec(0, 16)), ChunkOutcome::DuplicateIndex);
        // Prefetch brought neighbours into the cache: S1 hit now.
        assert_eq!(e.process(rec(1, 16)), ChunkOutcome::DuplicateCache);
        assert_eq!(e.process(rec(0, 16)), ChunkOutcome::DuplicateCache);
    }

    #[test]
    fn accounting_matches_workflow() {
        let mut e = small_engine(16);
        for i in 0..4 {
            e.process(rec(i, 16));
        }
        e.process(rec(100, 16)); // seal container of 4 chunks
        let m = e.metadata_access();
        assert_eq!(m.update_bytes, 4 * 32, "4 index entries written");
        assert_eq!(m.index_bytes, 0, "no index lookups yet");
        assert_eq!(m.loading_bytes, 0);

        e.process(rec(0, 16)); // S3 lookup + S4 load of 4 fps
        let m = e.metadata_access();
        assert_eq!(m.index_bytes, 32);
        assert_eq!(m.loading_bytes, 4 * 32);
        assert_eq!(e.loading_ops(), 1);
    }

    #[test]
    fn no_double_store() {
        let mut e = small_engine(4);
        let stream: Vec<u64> = vec![1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5];
        for f in stream {
            e.process(rec(f, 16));
        }
        e.finish();
        assert_eq!(e.stats().unique_chunks, 5);
        assert_eq!(e.stats().logical_chunks, 15);
        assert_eq!(e.stats().duplicates(), 10);
    }

    #[test]
    fn storage_saving_math() {
        let mut e = small_engine(16);
        for f in [1u64, 1, 1, 2] {
            e.process(rec(f, 100));
        }
        let s = e.stats();
        assert_eq!(s.logical_bytes, 400);
        assert_eq!(s.unique_bytes, 200);
        assert!((s.storage_saving() - 0.5).abs() < 1e-12);
        assert!((s.dedup_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn finish_indexes_tail_chunks() {
        let mut e = small_engine(16);
        e.process(rec(7, 16));
        e.finish();
        // After finish, the chunk is reachable via the index path.
        assert_eq!(e.process(rec(7, 16)), ChunkOutcome::DuplicateIndex);
    }

    #[test]
    fn payload_round_trip_through_engine() {
        let mut e = DedupEngine::new(DedupConfig {
            container_bytes: 32,
            cache_entries: 8,
            entry_bytes: 32,
            bloom_expected: 100,
            bloom_fp_rate: 0.01,
            persist: None,
        })
        .unwrap();
        e.process_with_payload(rec(1, 5), b"hello");
        e.process_with_payload(rec(2, 5), b"world");
        // Read from open container (borrowed, no copy).
        assert_eq!(e.read_chunk(Fingerprint(1)), Some(&b"hello"[..]));
        e.finish();
        // Read from sealed container via the index.
        assert_eq!(e.read_chunk(Fingerprint(2)), Some(&b"world"[..]));
        assert_eq!(e.read_chunk(Fingerprint(9)), None);
    }

    #[test]
    #[should_panic(expected = "mixed payload modes")]
    fn mixed_mode_ingestion_panics() {
        let mut e = small_engine(16);
        e.process(rec(1, 16));
        e.process_with_payload(rec(2, 5), b"hello");
    }

    #[test]
    fn ingest_backup_convenience() {
        let mut e = small_engine(16);
        let b = Backup::from_chunks("b", vec![rec(1, 8), rec(2, 8), rec(1, 8)]);
        e.ingest_backup(&b);
        assert_eq!(e.stats().logical_chunks, 3);
        assert_eq!(e.stats().unique_chunks, 2);
    }

    #[test]
    fn zero_cache_forces_index_path() {
        let mut e = small_engine(0);
        for i in 0..4 {
            e.process(rec(i, 16));
        }
        e.process(rec(100, 16)); // seal
        assert_eq!(e.process(rec(0, 16)), ChunkOutcome::DuplicateIndex);
        // Cache disabled: the same fp goes through the index again.
        assert_eq!(e.process(rec(0, 16)), ChunkOutcome::DuplicateIndex);
        assert!(e.metadata_access().loading_bytes >= 2 * 4 * 32);
    }

    #[test]
    fn invalid_config_rejected() {
        let c = DedupConfig {
            container_bytes: 0,
            ..DedupConfig::default()
        };
        assert!(DedupEngine::new(c).is_err());
        let c = DedupConfig {
            bloom_fp_rate: 0.0,
            ..DedupConfig::default()
        };
        assert!(DedupEngine::new(c).is_err());
    }

    #[test]
    fn locality_prefetch_reduces_index_traffic() {
        // Two interleaved ingest patterns of the same duplicate set: with
        // locality (sequential repeat) the cache prefetch absorbs most
        // lookups; shuffled access defeats the prefetch only when the cache
        // is too small to hold everything — here we check the sequential
        // case enjoys cache hits.
        let mut e = DedupEngine::new(DedupConfig {
            container_bytes: 1024,
            cache_entries: 1024,
            entry_bytes: 32,
            bloom_expected: 10_000,
            bloom_fp_rate: 0.01,
            persist: None,
        })
        .unwrap();
        for i in 0..1000u64 {
            e.process(rec(i, 16));
        }
        e.finish();
        for i in 0..1000u64 {
            e.process(rec(i, 16));
        }
        let s = e.stats();
        assert!(s.dup_cache_hits > 900, "cache hits {}", s.dup_cache_hits);
        assert!(s.dup_index_hits < 100, "index hits {}", s.dup_index_hits);
    }

    #[test]
    fn persistent_round_trip_is_bit_identical() {
        let dir = tmp_dir("round-trip");
        let pcfg = PersistConfig::new(&dir).fsync(FsyncPolicy::Never);
        let stream: Vec<ChunkRecord> = (0..300u64)
            .map(|i| rec((i % 90).wrapping_mul(0x9e37_79b9_7f4a_7c15), 16))
            .collect();

        // Reference: an engine that never restarts.
        let mut live = DedupEngine::new(small_config(16)).unwrap();
        for &r in &stream {
            live.process(r);
        }
        live.finish();

        // Durable twin: same stream, then close + reopen.
        let mut durable = DedupEngine::open(DedupConfig {
            persist: Some(pcfg.clone()),
            ..small_config(16)
        })
        .unwrap();
        for &r in &stream {
            durable.process(r);
        }
        durable.finish();
        let want_stats = durable.stats();
        durable.close().unwrap();

        let mut reopened = DedupEngine::open(DedupConfig {
            persist: Some(pcfg),
            ..small_config(16)
        })
        .unwrap();
        assert_eq!(reopened.stats(), want_stats);
        assert_eq!(reopened.stats(), live.stats());
        assert_eq!(reopened.metadata_access(), live.metadata_access());
        assert_eq!(
            reopened.index().sorted_entries(),
            live.index().sorted_entries()
        );
        assert_eq!(reopened.cache().lru_to_mru(), live.cache().lru_to_mru());

        // Subsequent ingest behaves identically on both.
        for &r in &stream {
            assert_eq!(reopened.process(r), live.process(r));
        }
        assert_eq!(reopened.stats(), live.stats());
        assert_eq!(reopened.metadata_access(), live.metadata_access());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_under_different_config_rejected() {
        let dir = tmp_dir("config-mismatch");
        let pcfg = PersistConfig::new(&dir).fsync(FsyncPolicy::Never);
        let e = DedupEngine::open(DedupConfig {
            persist: Some(pcfg.clone()),
            ..small_config(16)
        })
        .unwrap();
        e.close().unwrap();
        let err = DedupEngine::open(DedupConfig {
            container_bytes: 128, // was 64
            persist: Some(pcfg),
            ..small_config(16)
        })
        .unwrap_err();
        assert!(matches!(err, PersistError::ConfigMismatch(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed manifest append stops the engine's durable writes: later
    /// seals and commits panic, `close` refuses, and a reopen holds the
    /// sealed prefix. A record whose sync alone failed is whole and stays;
    /// appending the next seal after it would skip the failed seal's id.
    #[test]
    fn failed_manifest_append_stops_durable_writes_until_reopen() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        use crate::fault::{FailAt, FailMode};

        for site in [PersistSite::ManifestAppend, PersistSite::ManifestSync] {
            for mode in [FailMode::Error, FailMode::Torn] {
                let tag = format!("{site:?}-{mode:?}");
                let dir = tmp_dir(&format!("failed-{tag}"));
                let pcfg = PersistConfig::new(&dir).fsync(FsyncPolicy::Always);
                // Seal 2's record fails to write; the header's sync is the
                // first at ManifestSync, so there seal 1's record fails to
                // sync. Either way two seals are committed.
                let fail = FailAt::new(site, 2, mode);
                let fired = fail.fired();
                let mut e = DedupEngine::open(DedupConfig {
                    persist: Some(pcfg.clone().io_policy(fail)),
                    ..small_config(16)
                })
                .unwrap();
                // 24 unique 16-byte chunks, 4 per container: 5 or 6 seals.
                let mut panics = Vec::new();
                for i in 0..24u64 {
                    let processed = catch_unwind(AssertUnwindSafe(|| e.process(rec(i, 16))));
                    if let Err(panic) = processed {
                        panics.push(*panic.downcast::<String>().unwrap());
                    }
                }
                assert!(fired.load(std::sync::atomic::Ordering::SeqCst), "{tag}");
                assert!(panics.len() >= 3, "{tag}: {panics:?}");
                assert!(panics[0].contains("manifest append failed"), "{tag}");
                let refusal = format!("persistent store: {}", PersistError::Failed);
                assert!(panics[1..].iter().all(|p| *p == refusal), "{tag}");
                let commit = catch_unwind(AssertUnwindSafe(|| {
                    e.commit_backup(1, 1, &[rec(0, 16)]).unwrap();
                }));
                assert!(commit.is_err(), "{tag}: a commit after the failure");
                assert!(matches!(e.close(), Err(PersistError::Failed)), "{tag}");

                let r = DedupEngine::open(DedupConfig {
                    persist: Some(pcfg),
                    ..small_config(16)
                })
                .unwrap_or_else(|err| panic!("{tag}: reopen failed: {err}"));
                assert_eq!(r.containers().sealed_count(), 2, "{tag}");
                assert_eq!(r.stats().unique_chunks, 8, "{tag}");
                assert_eq!(r.index().len(), 8, "{tag}");
                assert!(r.committed_backups().is_empty(), "{tag}");
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn crash_without_close_recovers_sealed_prefix() {
        let dir = tmp_dir("no-close");
        let pcfg = PersistConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut e = DedupEngine::open(DedupConfig {
            persist: Some(pcfg.clone()),
            ..small_config(16)
        })
        .unwrap();
        // 9 unique 16-byte chunks: two sealed containers (4 chunks each)
        // plus one chunk left in the open container, then "crash" (drop).
        for i in 0..9u64 {
            e.process(rec(i, 16));
        }
        assert_eq!(e.stats().containers_sealed, 2);
        drop(e);

        let r = DedupEngine::open(DedupConfig {
            persist: Some(pcfg),
            ..small_config(16)
        })
        .unwrap();
        // The open-container chunk is gone; the sealed state survives.
        assert_eq!(r.stats().containers_sealed, 2);
        assert_eq!(r.stats().unique_chunks, 8);
        assert_eq!(r.stats().unique_bytes, 8 * 16);
        assert_eq!(r.index().len(), 8);
        assert_eq!(r.containers().sealed_count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
