//! Shard-parallel deduplication: N independent [`DedupEngine`]s partitioned
//! by fingerprint prefix.
//!
//! Cross-user dedup at "heavy traffic" scale cannot serialize a million-chunk
//! backup through one engine. [`ShardedDedupEngine`] range-partitions the
//! fingerprint space into `N` prefix shards (the same partition
//! [`crate::index::FingerprintIndex`] uses internally) and gives each shard a
//! complete engine — Bloom filter, cache, containers, index. Because a
//! fingerprint always routes to the same shard, every chunk still traverses
//! the exact S1→S4 workflow of §7.4.1 against the one engine that owns it:
//! [`ChunkOutcome`] semantics are unchanged, and duplicate detection is exact
//! (two identical chunks can never land in different shards).
//!
//! **Determinism.** The shard partition is a pure function of the
//! fingerprint, and [`ShardedDedupEngine::ingest_backup`] preserves the
//! stream order *within* each shard, so per-shard engine state — and
//! therefore the merged [`StoreStats`] / [`MetadataAccess`] totals — is
//! identical whether the shards are drained sequentially or by parallel
//! workers, at any thread count. What sharding itself changes versus a
//! single engine is only the container packing (each shard seals its own
//! containers) and hence the S1/S4 *split* of duplicate hits; the logical /
//! unique / duplicate totals are exactly those of the single-engine run.

use freqdedup_trace::par::{self, ParConfig};
use freqdedup_trace::{Backup, ChunkRecord, Fingerprint};

use crate::container::PayloadMode;
use crate::engine::{ChunkLookup, ChunkOutcome, DedupConfig, DedupEngine};
use crate::lifecycle::{DeleteReport, GcReport, LifecycleError, RekeyReport, RetentionPolicy};
use crate::persist::{self, MetaKind, PersistConfig, PersistError, StoreMeta};
use crate::stats::{MetadataAccess, StoreStats};

/// N fingerprint-prefix shards, each a full [`DedupEngine`].
#[derive(Debug)]
pub struct ShardedDedupEngine {
    engines: Vec<DedupEngine>,
}

impl ShardedDedupEngine {
    /// Builds `shards` engines from one aggregate configuration
    /// ([`Self::open`] with the error stringified — kept for source
    /// compatibility).
    ///
    /// `config.bloom_expected` and `config.cache_entries` are interpreted
    /// as the *total* memory budgets and divided across shards (rounded
    /// up), so the aggregate Bloom and fingerprint-cache footprints match
    /// a single-engine deployment with the same configuration — sharded
    /// vs. single-engine comparisons are resource-equal.
    ///
    /// # Errors
    ///
    /// Returns a message when `shards` is zero or the per-shard
    /// configuration fails [`DedupConfig::validate`].
    pub fn new(config: DedupConfig, shards: usize) -> Result<Self, String> {
        Self::open(config, shards).map_err(|e| e.to_string())
    }

    /// Opens a sharded engine. With [`DedupConfig::persist`] set, the
    /// directory holds a *sharded* `store.meta` plus one engine directory
    /// per prefix shard (`shard-NNN/`); each shard engine persists — and
    /// recovers — independently under its subdirectory, so parallel ingest
    /// never contends on a shared file.
    ///
    /// # Errors
    ///
    /// As [`DedupEngine::open`], plus [`PersistError::ConfigMismatch`]
    /// when the directory was created with a different shard count.
    pub fn open(config: DedupConfig, shards: usize) -> Result<Self, PersistError> {
        if shards == 0 {
            return Err(PersistError::InvalidConfig(
                "shard count must be positive".into(),
            ));
        }
        let per_shard = DedupConfig {
            bloom_expected: config.bloom_expected.div_ceil(shards as u64),
            cache_entries: config.cache_entries.div_ceil(shards),
            persist: None,
            ..config.clone()
        };
        if let Some(pcfg) = &config.persist {
            per_shard.validate().map_err(PersistError::InvalidConfig)?;
            std::fs::create_dir_all(&pcfg.dir)?;
            let meta = StoreMeta {
                kind: MetaKind::Sharded,
                shards: shards as u32,
                entry_bytes: config.entry_bytes,
                container_bytes: config.container_bytes,
            };
            persist::ensure_meta(&pcfg.dir, &meta, pcfg.fsync, &pcfg.io)?;
            let engines = (0..shards)
                .map(|i| {
                    let shard_dir = pcfg.dir.join(format!("shard-{i:03}"));
                    DedupEngine::open(DedupConfig {
                        persist: Some(PersistConfig {
                            dir: shard_dir,
                            ..pcfg.clone()
                        }),
                        ..per_shard.clone()
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ShardedDedupEngine { engines })
        } else {
            let engines = (0..shards)
                .map(|_| DedupEngine::open(per_shard.clone()))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ShardedDedupEngine { engines })
        }
    }

    /// Seals every shard and writes every shard's snapshot now (a durable
    /// checkpoint across the whole sharded store).
    ///
    /// # Errors
    ///
    /// Returns the first shard's [`PersistError`] on write failure.
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        for engine in &mut self.engines {
            engine.checkpoint()?;
        }
        Ok(())
    }

    /// Flushes, snapshots and consumes the sharded engine; a later
    /// [`Self::open`] on the same directory resumes bit-identically.
    ///
    /// # Errors
    ///
    /// Returns the first shard's [`PersistError`] on write failure.
    pub fn close(self) -> Result<(), PersistError> {
        for engine in self.engines {
            engine.close()?;
        }
        Ok(())
    }

    /// The prefix shard owning `fp` ([`Fingerprint::prefix_shard`] over
    /// this engine's shard count — the same partition
    /// [`crate::index::FingerprintIndex`] uses).
    #[must_use]
    pub fn shard_of(&self, fp: Fingerprint) -> usize {
        fp.prefix_shard(self.engines.len())
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// Processes one chunk on its owning shard (trace-driven mode).
    pub fn process(&mut self, record: ChunkRecord) -> ChunkOutcome {
        let shard = self.shard_of(record.fp);
        self.engines[shard].process(record)
    }

    /// Processes one chunk storing its payload bytes on its owning shard
    /// (content mode; the serving path of the network service).
    ///
    /// # Panics
    ///
    /// As [`DedupEngine::process_with_payload`] (mixed-mode ingestion or
    /// a persistent write failure).
    pub fn process_with_payload(&mut self, record: ChunkRecord, payload: &[u8]) -> ChunkOutcome {
        let shard = self.shard_of(record.fp);
        self.engines[shard].process_with_payload(record, payload)
    }

    /// Whether `fp` is stored at all — in its owning shard's sealed
    /// containers or still in that shard's open container.
    #[must_use]
    pub fn contains(&self, fp: Fingerprint) -> bool {
        self.lookup_chunk(fp) != ChunkLookup::Missing
    }

    /// Ingests a whole backup: the stream is partitioned by shard
    /// (preserving stream order within each shard), then the shards are
    /// drained by up to `par.resolve()` scoped workers, each owning its
    /// engine exclusively. Merged counters are independent of the thread
    /// count.
    pub fn ingest_backup(&mut self, backup: &Backup, par: ParConfig) {
        let mut streams: Vec<Vec<ChunkRecord>> = vec![Vec::new(); self.engines.len()];
        for &record in backup {
            streams[self.shard_of(record.fp)].push(record);
        }
        let mut work: Vec<(&mut DedupEngine, Vec<ChunkRecord>)> =
            self.engines.iter_mut().zip(streams).collect();
        par::par_for_each_mut(par.resolve(), &mut work, |_, (engine, stream)| {
            for &record in stream.iter() {
                engine.process(record);
            }
        });
    }

    /// Seals every shard's open container (call once after the final
    /// backup; the engine remains usable afterwards).
    pub fn finish(&mut self) {
        for engine in &mut self.engines {
            engine.finish();
        }
    }

    /// Commits a backup across all shards: the chunk stream is partitioned
    /// by owning shard and every shard commits its slice (possibly empty)
    /// under the same `id` / `timestamp`, so lifecycle state stays
    /// consistent store-wide.
    ///
    /// # Errors
    ///
    /// [`LifecycleError::DuplicateBackup`] when `id` is already committed.
    pub fn commit_backup(
        &mut self,
        id: u64,
        timestamp: u64,
        chunks: &[ChunkRecord],
    ) -> Result<(), LifecycleError> {
        if self.engines[0].backup_recipe(id).is_some() {
            return Err(LifecycleError::DuplicateBackup { id });
        }
        let mut streams: Vec<Vec<ChunkRecord>> = vec![Vec::new(); self.engines.len()];
        for &record in chunks {
            streams[self.shard_of(record.fp)].push(record);
        }
        for (engine, stream) in self.engines.iter_mut().zip(&streams) {
            engine.commit_backup(id, timestamp, stream)?;
        }
        Ok(())
    }

    /// Deletes a committed backup on every shard that holds it, merging
    /// the reports. A crash inside [`Self::commit_backup`] or this method
    /// leaves the id on only some shards; deleting it again finishes the
    /// job.
    ///
    /// # Errors
    ///
    /// [`LifecycleError::UnknownBackup`] when no shard holds `id`.
    pub fn delete_backup(&mut self, id: u64) -> Result<DeleteReport, LifecycleError> {
        let mut merged: Option<DeleteReport> = None;
        for engine in &mut self.engines {
            if let Ok(r) = engine.delete_backup(id) {
                let m = merged.get_or_insert_with(DeleteReport::default);
                m.chunks_released += r.chunks_released;
                m.logical_bytes += r.logical_bytes;
            }
        }
        merged.ok_or(LifecycleError::UnknownBackup { id })
    }

    /// Committed, undeleted backups as `(id, timestamp)`, sorted by id:
    /// every id any shard holds (all of them, unless a crash cut a commit
    /// or a delete short between shards).
    #[must_use]
    pub fn committed_backups(&self) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = self
            .engines
            .iter()
            .flat_map(DedupEngine::committed_backups)
            .collect();
        all.sort_unstable();
        all.dedup_by_key(|&mut (id, _)| id);
        all
    }

    /// Backup ids a retention policy would delete, given the caller's
    /// logical clock `now`.
    #[must_use]
    pub fn retention_victims(&self, policy: RetentionPolicy, now: u64) -> Vec<u64> {
        policy.victims(&self.committed_backups(), now)
    }

    /// Garbage-collects every shard (see [`DedupEngine::gc`]), merging the
    /// reports.
    pub fn gc(&mut self, live_threshold_permille: u32) -> GcReport {
        let mut merged = GcReport::default();
        for engine in &mut self.engines {
            merged += engine.gc(live_threshold_permille);
        }
        merged
    }

    /// Rekeys every shard to a common target epoch (the furthest any shard
    /// has begun — shards interrupted mid-rekey resume, shards already
    /// committed no-op), merging the reports. See [`DedupEngine::rekey_to`].
    pub fn rekey(&mut self, new_secret: &[u8]) -> RekeyReport {
        let committed = self
            .engines
            .iter()
            .map(DedupEngine::epoch)
            .max()
            .expect("at least one shard");
        let pending = self
            .engines
            .iter()
            .filter_map(DedupEngine::pending_rekey)
            .max();
        let lagging = self.engines.iter().any(|e| e.epoch() < committed);
        let target = match pending {
            Some(p) if p > committed => p,
            _ if lagging => committed,
            _ => committed + 1,
        };
        let mut rewritten = 0u64;
        for engine in &mut self.engines {
            rewritten += engine.rekey_to(target, new_secret).containers_rewritten;
        }
        RekeyReport {
            epoch: target,
            containers_rewritten: rewritten,
        }
    }

    /// The committed key epoch: the furthest any shard has committed (a
    /// crash mid-fanout can leave shards behind; [`Self::rekey`] converges
    /// them).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.engines
            .iter()
            .map(DedupEngine::epoch)
            .max()
            .unwrap_or(0)
    }

    /// The store's payload mode: the first shard's fixed
    /// [`ContainerStore::mode`](crate::container::ContainerStore::mode),
    /// or `None` before any shard stored a chunk. Every shard is fed the
    /// one mode its service accepts, so the first `Some` speaks for all.
    #[must_use]
    pub fn payload_mode(&self) -> Option<PayloadMode> {
        self.engines.iter().find_map(|e| e.containers().mode())
    }

    /// Deduplication counters merged across shards.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.engines.iter().map(DedupEngine::stats).sum()
    }

    /// Metadata access totals merged across shards.
    #[must_use]
    pub fn metadata_access(&self) -> MetadataAccess {
        self.engines.iter().map(DedupEngine::metadata_access).sum()
    }

    /// Total container prefetch operations (S4) across shards.
    #[must_use]
    pub fn loading_ops(&self) -> u64 {
        self.engines.iter().map(DedupEngine::loading_ops).sum()
    }

    /// What the owning shard holds for `fp`
    /// ([`DedupEngine::lookup_chunk`]: one unaccounted index probe).
    #[must_use]
    pub fn lookup_chunk(&self, fp: Fingerprint) -> ChunkLookup<'_> {
        self.engines[self.shard_of(fp)].lookup_chunk(fp)
    }

    /// Reads back a stored chunk's payload from its owning shard
    /// (content mode only; borrowed, like [`DedupEngine::read_chunk`]).
    #[must_use]
    pub fn read_chunk(&self, fp: Fingerprint) -> Option<&[u8]> {
        self.engines[self.shard_of(fp)].read_chunk(fp)
    }

    /// The per-shard engines, in shard order (inspection).
    #[must_use]
    pub fn shards(&self) -> &[DedupEngine] {
        &self.engines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fp: u64, size: u32) -> ChunkRecord {
        ChunkRecord::new(fp, size)
    }

    fn config() -> DedupConfig {
        DedupConfig {
            container_bytes: 256,
            cache_entries: 64,
            entry_bytes: 32,
            bloom_expected: 10_000,
            bloom_fp_rate: 0.01,
            persist: None,
        }
    }

    /// A spread-out fingerprint stream with duplicates (multiplicative
    /// hashing scatters values across the whole u64 space, so every shard
    /// gets traffic).
    fn stream(n: u64) -> Vec<ChunkRecord> {
        (0..n)
            .map(|i| rec((i % (n / 3).max(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15), 16))
            .collect()
    }

    #[test]
    fn routing_is_stable_and_exhaustive() {
        let e = ShardedDedupEngine::new(config(), 4).unwrap();
        assert_eq!(e.num_shards(), 4);
        for v in [0u64, 1, 1 << 62, 1 << 63, u64::MAX] {
            let s = e.shard_of(Fingerprint(v));
            assert!(s < 4);
            assert_eq!(s, e.shard_of(Fingerprint(v)));
        }
    }

    #[test]
    fn totals_match_single_engine() {
        // logical / unique / duplicate totals are partition-invariant.
        let records = stream(900);
        let backup = Backup::from_chunks("b", records.clone());

        let mut single = DedupEngine::new(config()).unwrap();
        for &r in &records {
            single.process(r);
        }
        single.finish();

        let mut sharded = ShardedDedupEngine::new(config(), 4).unwrap();
        sharded.ingest_backup(&backup, ParConfig::sequential());
        sharded.finish();

        let s1 = single.stats();
        let s4 = sharded.stats();
        assert_eq!(s1.logical_chunks, s4.logical_chunks);
        assert_eq!(s1.logical_bytes, s4.logical_bytes);
        assert_eq!(s1.unique_chunks, s4.unique_chunks);
        assert_eq!(s1.unique_bytes, s4.unique_bytes);
        assert_eq!(s1.duplicates(), s4.duplicates());
    }

    #[test]
    fn thread_count_does_not_change_state() {
        let backup = Backup::from_chunks("b", stream(1200));
        let mut reference: Option<(StoreStats, MetadataAccess, u64)> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut e = ShardedDedupEngine::new(config(), 4).unwrap();
            e.ingest_backup(&backup, ParConfig::with_threads(threads));
            e.finish();
            let got = (e.stats(), e.metadata_access(), e.loading_ops());
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "threads {threads}"),
            }
        }
    }

    #[test]
    fn parallel_ingest_equals_sequential_routing() {
        let records = stream(600);
        let backup = Backup::from_chunks("b", records.clone());

        let mut routed = ShardedDedupEngine::new(config(), 3).unwrap();
        for &r in &records {
            routed.process(r);
        }
        routed.finish();

        let mut parallel = ShardedDedupEngine::new(config(), 3).unwrap();
        parallel.ingest_backup(&backup, ParConfig::with_threads(3));
        parallel.finish();

        assert_eq!(routed.stats(), parallel.stats());
        assert_eq!(routed.metadata_access(), parallel.metadata_access());
    }

    #[test]
    fn outcome_semantics_preserved_per_shard() {
        let mut e = ShardedDedupEngine::new(config(), 2).unwrap();
        assert_eq!(e.process(rec(7, 16)), ChunkOutcome::Unique);
        assert_eq!(e.process(rec(7, 16)), ChunkOutcome::DuplicateBuffer);
        e.finish();
        assert_eq!(e.process(rec(7, 16)), ChunkOutcome::DuplicateIndex);
        assert_eq!(e.process(rec(7, 16)), ChunkOutcome::DuplicateCache);
    }

    #[test]
    fn payload_reads_route_to_owning_shard() {
        let mut e = ShardedDedupEngine::new(config(), 4).unwrap();
        let a = Fingerprint(1);
        let b = Fingerprint(u64::MAX / 2);
        let shard_a = e.shard_of(a);
        e.engines[shard_a].process_with_payload(rec(a.value(), 5), b"hello");
        let shard_b = e.shard_of(b);
        e.engines[shard_b].process_with_payload(rec(b.value(), 5), b"world");
        assert_eq!(e.read_chunk(a), Some(&b"hello"[..]));
        assert_eq!(e.read_chunk(b), Some(&b"world"[..]));
        assert_eq!(e.read_chunk(Fingerprint(999_999)), None);
    }

    #[test]
    fn payload_process_and_contains_route_to_owning_shard() {
        let mut e = ShardedDedupEngine::new(config(), 4).unwrap();
        let a = Fingerprint(3);
        let b = Fingerprint(u64::MAX / 3);
        assert_eq!(
            e.process_with_payload(rec(a.value(), 5), b"alpha"),
            ChunkOutcome::Unique
        );
        assert_eq!(
            e.process_with_payload(rec(b.value(), 4), b"beta"),
            ChunkOutcome::Unique
        );
        assert!(e
            .process_with_payload(rec(a.value(), 5), b"alpha")
            .is_duplicate());
        assert!(e.contains(a) && e.contains(b));
        assert!(!e.contains(Fingerprint(77)));
        e.finish();
        assert!(e.contains(a), "contains must survive sealing");
        assert_eq!(e.read_chunk(b), Some(&b"beta"[..]));
    }

    #[test]
    fn lookup_chunk_answers_without_touching_access_counters() {
        // Metadata mode: open and sealed containers both answer
        // `Metadata`, and no read moves the metadata-access totals.
        let mut e = ShardedDedupEngine::new(config(), 2).unwrap();
        e.process(rec(7, 16));
        assert_eq!(e.lookup_chunk(Fingerprint(7)), ChunkLookup::Metadata);
        e.finish();
        let before = (e.metadata_access(), e.stats());
        assert_eq!(e.lookup_chunk(Fingerprint(7)), ChunkLookup::Metadata);
        assert_eq!(e.lookup_chunk(Fingerprint(8)), ChunkLookup::Missing);
        assert_eq!(e.read_chunk(Fingerprint(7)), None);
        assert_eq!((e.metadata_access(), e.stats()), before);

        // Payload mode: the bytes, from the open container and after seal.
        let mut e = ShardedDedupEngine::new(config(), 2).unwrap();
        e.process_with_payload(rec(9, 3), b"abc");
        assert_eq!(
            e.lookup_chunk(Fingerprint(9)),
            ChunkLookup::Payload(&b"abc"[..])
        );
        e.finish();
        assert_eq!(
            e.lookup_chunk(Fingerprint(9)),
            ChunkLookup::Payload(&b"abc"[..])
        );
        assert_eq!(e.lookup_chunk(Fingerprint(10)), ChunkLookup::Missing);
    }

    #[test]
    fn delete_finishes_a_fan_out_a_crash_cut_short() {
        let mut e = ShardedDedupEngine::new(config(), 4).unwrap();
        let chunks: Vec<ChunkRecord> = (0..64u64).map(|i| rec(i << 58, 16)).collect();
        for &r in &chunks {
            e.process(r);
        }
        e.commit_backup(7, 1, &chunks).unwrap();
        // Shards 0 and 1 already let go of the backup, as after a crash
        // between shards: it is still listed, and deleting it again
        // releases the rest.
        let first = e.engines[0].delete_backup(7).unwrap().chunks_released
            + e.engines[1].delete_backup(7).unwrap().chunks_released;
        assert_eq!(first, 32);
        assert_eq!(e.committed_backups(), vec![(7, 1)]);
        let rest = e.delete_backup(7).unwrap();
        assert_eq!(first + rest.chunks_released, 64);
        assert!(e.committed_backups().is_empty());
        assert!(matches!(
            e.delete_backup(7),
            Err(LifecycleError::UnknownBackup { id: 7 })
        ));
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(ShardedDedupEngine::new(config(), 0).is_err());
    }

    #[test]
    fn memory_budgets_divided_across_shards() {
        let e = ShardedDedupEngine::new(config(), 4).unwrap();
        for shard in e.shards() {
            assert_eq!(shard.config().bloom_expected, 2500);
            assert_eq!(shard.config().cache_entries, 16);
        }
    }
}
