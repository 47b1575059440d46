//! Durable-store round-trip and crash-consistency suite.
//!
//! The contract under test (DESIGN.md §7):
//!
//! * **Clean round trip** — ingest → `close()` → `open()` resumes
//!   *bit-identically*: `StoreStats`, metadata-access counters, index
//!   contents, cache recency and all subsequent ingest outcomes equal
//!   those of an engine that never restarted. Holds for [`DedupEngine`]
//!   and [`ShardedDedupEngine`] at any worker thread count.
//! * **Torn tail** — truncating the last container log mid-record loses
//!   only that container: recovery rolls back to the last consistent
//!   sealed state and the store keeps working.
//!
//! Test directories live under `target/persist-test/` so CI can upload
//! them as an artifact when a test fails; they are removed on success.

use std::path::PathBuf;

use freqdedup::datasets::fsl::{generate, FslConfig};
use freqdedup::store::container::ContainerId;
use freqdedup::store::engine::{DedupConfig, DedupEngine};
use freqdedup::store::log::container_path;
use freqdedup::store::persist::{FsyncPolicy, PersistConfig, PersistError};
use freqdedup::store::sharded::ShardedDedupEngine;
use freqdedup::trace::par::ParConfig;
use freqdedup::trace::{Backup, ChunkRecord, Fingerprint};
use proptest::prelude::*;

/// A fresh directory under `target/persist-test/` (kept on panic so CI can
/// upload it, removed by [`done`] on success).
fn test_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from("target/persist-test").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn done(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}

fn config() -> DedupConfig {
    DedupConfig {
        container_bytes: 256,
        cache_entries: 64,
        entry_bytes: 32,
        bloom_expected: 100_000,
        bloom_fp_rate: 0.01,
        persist: None,
    }
}

fn persisted(dir: &PathBuf) -> DedupConfig {
    DedupConfig {
        persist: Some(PersistConfig::new(dir).fsync(FsyncPolicy::Never)),
        ..config()
    }
}

/// Full engine-state equality check between a recovered engine and its
/// never-restarted twin.
fn assert_engines_identical(reopened: &DedupEngine, live: &DedupEngine, what: &str) {
    assert_eq!(reopened.stats(), live.stats(), "{what}: stats");
    assert_eq!(
        reopened.metadata_access(),
        live.metadata_access(),
        "{what}: metadata access"
    );
    assert_eq!(reopened.loading_ops(), live.loading_ops(), "{what}: loads");
    assert_eq!(
        reopened.index().sorted_entries(),
        live.index().sorted_entries(),
        "{what}: index contents"
    );
    assert_eq!(
        reopened.cache().lru_to_mru(),
        live.cache().lru_to_mru(),
        "{what}: cache recency"
    );
    assert_eq!(
        reopened.containers().sealed_count(),
        live.containers().sealed_count(),
        "{what}: container count"
    );
    for id in 0..live.containers().sealed_count() {
        let cid = ContainerId(id as u32);
        let a = reopened.containers().get(cid).unwrap();
        let b = live.containers().get(cid).unwrap();
        assert_eq!(a.fingerprints, b.fingerprints, "{what}: container {id}");
        assert_eq!(a.chunk_sizes(), b.chunk_sizes(), "{what}: container {id}");
    }
}

proptest! {
    /// The acceptance property: ingest N backups → drop the engine →
    /// `open()` → state and all subsequent ingest results are
    /// bit-identical to a never-restarted engine.
    #[test]
    fn dedup_engine_round_trip_bit_identical(
        stream in prop::collection::vec((0u64..160, 8u32..64), 50..250),
        extra in prop::collection::vec((0u64..160, 8u32..64), 20..100),
    ) {
        let dir = test_dir("prop-engine");
        let records: Vec<ChunkRecord> = stream
            .iter()
            .map(|&(fp, size)| ChunkRecord::new(fp.wrapping_mul(0x9e37_79b9_7f4a_7c15), size))
            .collect();
        let extra: Vec<ChunkRecord> = extra
            .iter()
            .map(|&(fp, size)| ChunkRecord::new(fp.wrapping_mul(0x9e37_79b9_7f4a_7c15), size))
            .collect();

        let mut live = DedupEngine::new(config()).unwrap();
        for &r in &records {
            live.process(r);
        }
        live.finish();

        let mut durable = DedupEngine::open(persisted(&dir)).unwrap();
        for &r in &records {
            durable.process(r);
        }
        durable.finish();
        durable.close().unwrap();

        let mut reopened = DedupEngine::open(persisted(&dir)).unwrap();
        assert_engines_identical(&reopened, &live, "after reopen");

        // Subsequent ingest: every single outcome must agree.
        for &r in &extra {
            prop_assert_eq!(reopened.process(r), live.process(r));
        }
        reopened.finish();
        live.finish();
        assert_engines_identical(&reopened, &live, "after post-reopen ingest");
        done(&dir);
    }
}

#[test]
fn engine_survives_multi_session_backup_series() {
    // The weekly-snapshot scenario: one open → ingest → close session per
    // backup, compared against one long-lived engine that finishes at the
    // same per-backup boundaries.
    let dir = test_dir("multi-session");
    let series = generate(&FslConfig {
        backups: 5,
        ..FslConfig::scaled(400)
    });

    let mut live = DedupEngine::new(config()).unwrap();
    for backup in &series {
        live.ingest_backup(backup);
        live.finish();
    }

    for backup in &series {
        let mut session = DedupEngine::open(persisted(&dir)).unwrap();
        session.ingest_backup(backup);
        session.close().unwrap();
    }

    let reopened = DedupEngine::open(persisted(&dir)).unwrap();
    assert_engines_identical(&reopened, &live, "after 5 sessions");
    done(&dir);
}

#[test]
fn sharded_round_trip_bit_identical_across_threads() {
    let dir_base = test_dir("sharded-rt");
    let series = generate(&FslConfig {
        backups: 3,
        ..FslConfig::scaled(500)
    });
    let extra = series.latest().unwrap().clone();

    for threads in [1usize, 0] {
        let par = ParConfig::with_threads(threads);
        let dir = dir_base.join(format!("threads-{threads}"));

        let mut live = ShardedDedupEngine::new(config(), 4).unwrap();
        for backup in &series {
            live.ingest_backup(backup, par);
        }
        live.finish();

        let mut durable = ShardedDedupEngine::open(persisted(&dir), 4).unwrap();
        for backup in &series {
            durable.ingest_backup(backup, par);
        }
        durable.finish();
        durable.close().unwrap();

        let mut reopened = ShardedDedupEngine::open(persisted(&dir), 4).unwrap();
        assert_eq!(reopened.stats(), live.stats(), "threads {threads}: stats");
        assert_eq!(
            reopened.metadata_access(),
            live.metadata_access(),
            "threads {threads}: metadata access"
        );
        for (shard, (a, b)) in reopened.shards().iter().zip(live.shards()).enumerate() {
            assert_engines_identical(a, b, &format!("threads {threads}, shard {shard}"));
        }

        // Subsequent ingest after recovery matches the never-restarted run.
        reopened.ingest_backup(&extra, par);
        live.ingest_backup(&extra, par);
        reopened.finish();
        live.finish();
        assert_eq!(
            reopened.stats(),
            live.stats(),
            "threads {threads}: post-reopen stats"
        );
        assert_eq!(
            reopened.metadata_access(),
            live.metadata_access(),
            "threads {threads}: post-reopen metadata"
        );
    }
    done(&dir_base);
}

#[test]
fn payload_store_round_trips_chunk_bytes() {
    let dir = test_dir("payload");
    let chunks: Vec<(u64, Vec<u8>)> = (0..40u64)
        .map(|i| {
            let bytes: Vec<u8> = (0..(16 + (i % 17) as usize))
                .map(|j| (i as u8).wrapping_mul(31).wrapping_add(j as u8))
                .collect();
            (i.wrapping_mul(0x9e37_79b9_7f4a_7c15), bytes)
        })
        .collect();

    let mut engine = DedupEngine::open(persisted(&dir)).unwrap();
    for (fp, bytes) in &chunks {
        engine.process_with_payload(ChunkRecord::new(*fp, bytes.len() as u32), bytes);
    }
    engine.close().unwrap();

    let reopened = DedupEngine::open(persisted(&dir)).unwrap();
    for (fp, bytes) in &chunks {
        assert_eq!(
            reopened.read_chunk(Fingerprint(*fp)),
            Some(bytes.as_slice()),
            "payload of {fp:#x} after reopen"
        );
    }
    done(&dir);
}

#[test]
fn torn_container_log_recovers_last_sealed_prefix() {
    let dir = test_dir("torn-tail");
    // Distinct fingerprints, 16 bytes each, 256-byte containers → 16 chunks
    // per container. 96 chunks = 6 full containers.
    let records: Vec<ChunkRecord> = (0..96u64)
        .map(|i| ChunkRecord::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), 16))
        .collect();
    let mut engine = DedupEngine::open(persisted(&dir)).unwrap();
    for &r in &records {
        engine.process(r);
    }
    engine.close().unwrap();
    let full_stats = engine_stats_of(&dir);
    assert_eq!(full_stats.0, 6, "expected 6 sealed containers");

    // Tear the last container file mid-record.
    let last = container_path(&dir, ContainerId(5));
    let bytes = std::fs::read(&last).unwrap();
    std::fs::write(&last, &bytes[..bytes.len() / 2]).unwrap();

    let recovered = DedupEngine::open(persisted(&dir)).unwrap();
    // The close-time snapshot claimed 6 containers — state that no longer
    // exists. Recovery must discard AND delete it, or a later recovery
    // could resurrect it once container id 5 is re-sealed with new data.
    assert!(
        !dir.join("index.snap").exists(),
        "stale snapshot must be removed during rollback"
    );
    // Exactly the last consistent sealed state: containers 0..5.
    assert_eq!(recovered.containers().sealed_count(), 5);
    assert_eq!(recovered.stats().containers_sealed, 5);
    assert_eq!(recovered.stats().unique_chunks, 80);
    assert_eq!(recovered.stats().unique_bytes, 80 * 16);
    assert_eq!(recovered.index().len(), 80);

    // The recovered storage state equals a reference engine that ingested
    // only the first five containers' worth of the stream.
    let mut reference = DedupEngine::new(config()).unwrap();
    for &r in &records[..80] {
        reference.process(r);
    }
    reference.finish();
    assert_eq!(
        recovered.index().sorted_entries(),
        reference.index().sorted_entries(),
        "index equals the sealed-prefix reference"
    );
    for id in 0..5u32 {
        assert_eq!(
            recovered
                .containers()
                .get(ContainerId(id))
                .unwrap()
                .fingerprints,
            reference
                .containers()
                .get(ContainerId(id))
                .unwrap()
                .fingerprints,
            "container {id} contents"
        );
    }

    // The lost chunks are genuinely gone: re-ingesting them stores them
    // again, and the store keeps working durably afterwards.
    let mut recovered = recovered;
    for &r in &records[80..] {
        assert!(!recovered.process(r).is_duplicate(), "lost chunk {r:?}");
    }
    recovered.close().unwrap();
    let after = DedupEngine::open(persisted(&dir)).unwrap();
    assert_eq!(after.stats().unique_chunks, 96);
    assert_eq!(after.containers().sealed_count(), 6);
    done(&dir);
}

/// (sealed containers, unique chunks) as recorded on disk, via a scratch
/// reopen.
fn engine_stats_of(dir: &PathBuf) -> (usize, u64) {
    let e = DedupEngine::open(persisted(dir)).unwrap();
    (e.containers().sealed_count(), e.stats().unique_chunks)
}

#[test]
fn torn_manifest_tail_is_rolled_back() {
    let dir = test_dir("torn-manifest");
    let records: Vec<ChunkRecord> = (0..48u64)
        .map(|i| ChunkRecord::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), 16))
        .collect();
    let mut engine = DedupEngine::open(persisted(&dir)).unwrap();
    for &r in &records {
        engine.process(r);
    }
    engine.close().unwrap(); // 3 sealed containers

    // Tear the manifest inside its last record: the container file is
    // intact, but the seal was never committed.
    let manifest = dir.join("manifest.log");
    let bytes = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &bytes[..bytes.len() - 5]).unwrap();

    let recovered = DedupEngine::open(persisted(&dir)).unwrap();
    assert_eq!(recovered.containers().sealed_count(), 2);
    assert_eq!(recovered.stats().unique_chunks, 32);
    done(&dir);
}

#[test]
fn sharded_torn_shard_recovers_independently() {
    let dir = test_dir("sharded-torn");
    let series = generate(&FslConfig {
        backups: 2,
        ..FslConfig::scaled(400)
    });
    let mut engine = ShardedDedupEngine::open(persisted(&dir), 4).unwrap();
    for backup in &series {
        engine.ingest_backup(backup, ParConfig::sequential());
    }
    engine.close().unwrap();
    let before = {
        let e = ShardedDedupEngine::open(persisted(&dir), 4).unwrap();
        e.stats()
    };

    // Tear the tail container of the first shard that has one.
    let torn = (0..4u32)
        .find_map(|s| {
            let shard_dir = dir.join(format!("shard-{s:03}"));
            let mut last: Option<PathBuf> = None;
            for id in 0.. {
                let p = container_path(&shard_dir, ContainerId(id));
                if p.exists() {
                    last = Some(p);
                } else {
                    break;
                }
            }
            last
        })
        .expect("at least one shard sealed a container");
    let bytes = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() - 7]).unwrap();

    let recovered = ShardedDedupEngine::open(persisted(&dir), 4).unwrap();
    let after = recovered.stats();
    assert_eq!(
        after.containers_sealed,
        before.containers_sealed - 1,
        "exactly the torn container was rolled back"
    );
    assert!(after.unique_chunks < before.unique_chunks);
    // Aggregate invariant: recovered uniques equal what the containers hold.
    let stored: u64 = recovered
        .shards()
        .iter()
        .map(|e| e.containers().iter().map(|c| c.len() as u64).sum::<u64>())
        .sum();
    assert_eq!(after.unique_chunks, stored);
    done(&dir);
}

#[test]
fn resealed_container_id_wins_over_stale_snapshot() {
    // The full resurrection scenario: snapshot at seal 3 → tear container 2
    // → recovery rolls back to 2 seals (snapshot discarded + deleted) →
    // *different* data re-seals id 2 → crash without close → recovery must
    // reflect the new container 2, never the stale snapshot's image of it.
    let dir = test_dir("reseal");
    let old: Vec<ChunkRecord> = (0..48u64)
        .map(|i| ChunkRecord::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), 16))
        .collect();
    let mut engine = DedupEngine::open(persisted(&dir)).unwrap();
    for &r in &old {
        engine.process(r);
    }
    engine.close().unwrap(); // snapshot at seal_seq = 3

    let torn = container_path(&dir, ContainerId(2));
    let bytes = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() - 9]).unwrap();

    let mut recovered = DedupEngine::open(persisted(&dir)).unwrap();
    assert_eq!(recovered.containers().sealed_count(), 2);
    // Re-seal container id 2 with fresh fingerprints, crash without close.
    let new: Vec<ChunkRecord> = (1000..1016u64)
        .map(|i| ChunkRecord::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), 16))
        .collect();
    for &r in &new {
        recovered.process(r);
    }
    // A 17th chunk overflows the 256-byte capacity and seals the 16 above
    // as the new container 2; it itself stays in the open buffer and is
    // lost with the crash.
    recovered.process(ChunkRecord::new(u64::MAX, 16));
    assert_eq!(recovered.containers().sealed_count(), 3);
    drop(recovered);

    let after = DedupEngine::open(persisted(&dir)).unwrap();
    assert_eq!(after.containers().sealed_count(), 3);
    let c2 = after.containers().get(ContainerId(2)).unwrap();
    assert_eq!(
        c2.fingerprints,
        new.iter().map(|r| r.fp).collect::<Vec<_>>(),
        "container 2 must hold the re-sealed data, not the stale image"
    );
    for &r in &new {
        assert_eq!(
            after.index().peek(r.fp),
            Some(ContainerId(2)),
            "index must map the new fingerprints"
        );
    }
    for &r in &old[32..48] {
        assert_eq!(after.index().peek(r.fp), None, "old container 2 fps gone");
    }
    done(&dir);
}

#[test]
fn opening_sharded_root_as_plain_engine_is_rejected() {
    let dir = test_dir("root-kind");
    let sharded = ShardedDedupEngine::open(persisted(&dir), 2).unwrap();
    sharded.close().unwrap();
    // A sharded root has a store.meta but no top-level manifest; a plain
    // engine open must refuse rather than re-initialize over it.
    let err = DedupEngine::open(persisted(&dir)).unwrap_err();
    assert!(matches!(err, PersistError::ConfigMismatch(_)), "{err}");
    // The sharded store is untouched and still opens.
    ShardedDedupEngine::open(persisted(&dir), 2).unwrap();
    done(&dir);
}

#[test]
fn reopening_with_wrong_shard_count_is_rejected() {
    let dir = test_dir("shard-mismatch");
    let engine = ShardedDedupEngine::open(persisted(&dir), 4).unwrap();
    engine.close().unwrap();
    assert!(ShardedDedupEngine::open(persisted(&dir), 8).is_err());
    done(&dir);
}

// ---------------------------------------------------------------------------
// Fsync-failure injection matrix (PR 7)
// ---------------------------------------------------------------------------

/// The four durable-sync crash points the fsync matrix kills at.
const SYNC_SITES: [freqdedup::store::fault::PersistSite; 4] = [
    freqdedup::store::fault::PersistSite::ContainerSync,
    freqdedup::store::fault::PersistSite::ManifestSync,
    freqdedup::store::fault::PersistSite::SnapshotSync,
    freqdedup::store::fault::PersistSite::DirSync,
];

/// An fsync that fails (`FailMode::Error`, not a torn write) at each sync
/// site and occurrence index must surface as a typed error or a reported
/// ingest panic — never silent success — and recovery must come back to
/// exactly the last consistent sealed prefix, after which the store keeps
/// working durably.
#[test]
fn fsync_failure_matrix_recovers_to_sealed_prefix() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::Ordering;

    use freqdedup::store::fault::{CountingPolicy, FailAt, FailMode};

    let dir = test_dir("fsync-matrix");
    // Distinct fingerprints, 16 bytes each, 256-byte containers → exactly
    // 16 chunks per container, 96 chunks = 6 full containers (the same
    // geometry as the torn-tail tests, so the sealed prefix is computable).
    let records: Vec<ChunkRecord> = (0..96u64)
        .map(|i| ChunkRecord::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), 16))
        .collect();

    // Probe run: count how often each sync site fires during the workload
    // so the kill indices cover first / middle / last occurrence.
    let counting = CountingPolicy::new();
    let counts = counting.counts();
    {
        let cfg = DedupConfig {
            persist: Some(
                PersistConfig::new(dir.join("probe"))
                    .fsync(FsyncPolicy::Always)
                    .io_policy(counting),
            ),
            ..config()
        };
        let mut probe = DedupEngine::open(cfg).unwrap();
        for &r in &records {
            probe.process(r);
        }
        probe.close().unwrap();
    }
    let counts = counts.lock().unwrap().clone();

    for site in SYNC_SITES {
        let n = *counts.get(&site).unwrap_or(&0);
        assert!(n > 0, "probe run never hit {site:?}");
        let mut kill_at = vec![0, n / 2, n - 1];
        kill_at.dedup();
        for k in kill_at {
            let run_dir = dir.join(format!("{site:?}-k{k}"));
            let fail = FailAt::new(site, k, FailMode::Error);
            let fired = fail.fired();
            let cfg = DedupConfig {
                persist: Some(
                    PersistConfig::new(&run_dir)
                        .fsync(FsyncPolicy::Always)
                        .io_policy(fail),
                ),
                ..config()
            };

            let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), PersistError> {
                let mut engine = DedupEngine::open(cfg)?;
                for &r in &records {
                    engine.process(r);
                }
                engine.close()
            }));
            assert!(
                fired.load(Ordering::SeqCst),
                "{site:?} k{k}: injected fault never fired"
            );
            // A typed error or a reported ingest panic are both clean;
            // outright success means the fsync failure never bit.
            if let Ok(Ok(())) = outcome {
                panic!("{site:?} k{k}: succeeded despite an injected fsync failure");
            }

            // Recovery: a clean reopen rolls back to the last consistent
            // sealed prefix and matches a reference engine over it.
            let recovered = DedupEngine::open(persisted(&run_dir))
                .unwrap_or_else(|e| panic!("{site:?} k{k}: recovery failed: {e}"));
            let sealed = recovered.containers().sealed_count();
            assert!(sealed <= 6, "{site:?} k{k}: {sealed} sealed");
            assert_eq!(
                recovered.stats().unique_chunks,
                (sealed * 16) as u64,
                "{site:?} k{k}: stats match the sealed prefix"
            );
            let mut reference = DedupEngine::new(config()).unwrap();
            for &r in &records[..sealed * 16] {
                reference.process(r);
            }
            reference.finish();
            assert_eq!(
                recovered.index().sorted_entries(),
                reference.index().sorted_entries(),
                "{site:?} k{k}: index equals the sealed-prefix reference"
            );

            // The lost tail re-ingests and the store works durably again.
            let mut recovered = recovered;
            for &r in &records[sealed * 16..] {
                recovered.process(r);
            }
            recovered.close().unwrap();
            let after = DedupEngine::open(persisted(&run_dir)).unwrap();
            assert_eq!(after.stats().unique_chunks, 96, "{site:?} k{k}");
            assert_eq!(after.containers().sealed_count(), 6, "{site:?} k{k}");
        }
    }
    done(&dir);
}

/// The same fsync-failure matrix against [`ShardedDedupEngine`] at worker
/// thread counts 1 (sequential) and 0 (all cores): the shared fault
/// schedule kills whichever shard reaches the k-th sync first; whatever
/// the interleaving, recovery must satisfy the aggregate invariant
/// (recovered uniques equal what the containers hold) and a re-ingest
/// must restore the store to the fault-free reference.
#[test]
fn sharded_fsync_failure_matrix_recovers_across_threads() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::Ordering;

    use freqdedup::store::fault::{FailAt, FailMode};

    let dir = test_dir("sharded-fsync");
    let series = generate(&FslConfig {
        backups: 2,
        ..FslConfig::scaled(150)
    });
    let reference = {
        let mut e = ShardedDedupEngine::new(config(), 4).unwrap();
        for backup in &series {
            e.ingest_backup(backup, ParConfig::sequential());
        }
        e.finish();
        e.stats()
    };

    for threads in [1usize, 0] {
        let par = ParConfig::with_threads(threads);
        for site in SYNC_SITES {
            for k in [0u64, 5] {
                let tag = format!("{site:?}-t{threads}-k{k}");
                let run_dir = dir.join(&tag);
                let fail = FailAt::new(site, k, FailMode::Error);
                let fired = fail.fired();
                let cfg = DedupConfig {
                    persist: Some(
                        PersistConfig::new(&run_dir)
                            .fsync(FsyncPolicy::Always)
                            .io_policy(fail),
                    ),
                    ..config()
                };

                let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), PersistError> {
                    let mut engine = ShardedDedupEngine::open(cfg, 4)?;
                    for backup in &series {
                        engine.ingest_backup(backup, par);
                    }
                    engine.close()
                }));
                if !fired.load(Ordering::SeqCst) {
                    // k-th occurrence never happened (site fires fewer
                    // times in this workload): the run must have been a
                    // clean, complete success.
                    assert!(matches!(outcome, Ok(Ok(()))), "{tag}: unfired but failed");
                    continue;
                }
                assert!(
                    !matches!(outcome, Ok(Ok(()))),
                    "{tag}: succeeded despite an injected fsync failure"
                );

                let recovered = ShardedDedupEngine::open(persisted(&run_dir), 4)
                    .unwrap_or_else(|e| panic!("{tag}: recovery failed: {e}"));
                let stored: u64 = recovered
                    .shards()
                    .iter()
                    .map(|e| e.containers().iter().map(|c| c.len() as u64).sum::<u64>())
                    .sum();
                assert_eq!(
                    recovered.stats().unique_chunks,
                    stored,
                    "{tag}: recovered uniques equal container contents"
                );

                // Re-ingesting the series restores every lost chunk.
                let mut recovered = recovered;
                for backup in &series {
                    recovered.ingest_backup(backup, par);
                }
                recovered.close().unwrap();
                let after = ShardedDedupEngine::open(persisted(&run_dir), 4).unwrap();
                assert_eq!(
                    after.stats().unique_chunks,
                    reference.unique_chunks,
                    "{tag}: complete after re-ingest"
                );
                assert_eq!(after.stats().unique_bytes, reference.unique_bytes, "{tag}");
            }
        }
    }
    done(&dir);
}

#[test]
fn interval_snapshots_keep_crash_recovery_fresh() {
    let dir = test_dir("interval-snap");
    let cfg = DedupConfig {
        persist: Some(
            PersistConfig::new(&dir)
                .fsync(FsyncPolicy::Never)
                .snapshot_every_seals(1),
        ),
        ..config()
    };
    let mut engine = DedupEngine::open(cfg.clone()).unwrap();
    let backup: Backup = (0..64u64)
        .map(|i| ChunkRecord::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), 16))
        .collect();
    engine.ingest_backup(&backup);
    engine.finish(); // interval snapshot fires here
                     // Re-ingest (all duplicates), then crash without close: the duplicate
                     // flow counters since the snapshot are lost, the storage state is not.
    engine.ingest_backup(&backup);
    let stats_at_snapshot_point = {
        drop(engine);
        let r = DedupEngine::open(cfg).unwrap();
        r.stats()
    };
    assert_eq!(stats_at_snapshot_point.unique_chunks, 64);
    assert_eq!(stats_at_snapshot_point.logical_chunks, 64);
    assert_eq!(stats_at_snapshot_point.containers_sealed, 4);
    done(&dir);
}
