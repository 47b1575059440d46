//! Storage-lifecycle acceptance suite (DESIGN.md §13).
//!
//! Pins the three lifecycle guarantees end to end:
//!
//! * **Deletion equivalence** — delete a backup, GC, close, reopen: the
//!   store is equivalent to one that *never held* the deleted backup.
//!   Equivalence means byte-identical restores of every surviving backup,
//!   the same index fingerprint *set*, and equal `unique_chunks` /
//!   `unique_bytes` (the stored-byte footprint). Flow counters
//!   (`logical_chunks`, dup-hit split, containers sealed) necessarily
//!   differ — the held store really did ingest the victim — so they are
//!   deliberately *not* part of the equivalence relation.
//! * **Rekey transparency** — REED-style rekeying rewrites the at-rest
//!   wrapping only: dedup structure and stats are untouched, restores stay
//!   byte-identical under the new epoch secret, a reopen *without* the
//!   secret is refused (`WrongKey`), and identical content ingested after
//!   the rekey still fully deduplicates.
//! * **Cache/Bloom coherence after deletion** — once GC purges a
//!   fingerprint, neither the S1 cache nor the Bloom filter may claim it
//!   as a duplicate: re-ingesting it must store it again as unique.
//!   Property-tested across both engines and (for the sharded engine)
//!   ingest thread counts 1 and auto.
//!
//! Test directories live under `target/persist-test/` like the
//! persistence suite; removed on success, kept on panic for CI upload.

use std::collections::BTreeSet;
use std::path::PathBuf;

use freqdedup::store::engine::{DedupConfig, DedupEngine};
use freqdedup::store::persist::{FsyncPolicy, PersistConfig, PersistError};
use freqdedup::store::sharded::ShardedDedupEngine;
use freqdedup::trace::par::ParConfig;
use freqdedup::trace::{Backup, ChunkRecord, Fingerprint};
use proptest::prelude::*;

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

/// Deterministic chunk payload: the fingerprint bytes cycled to `size`.
fn chunk_bytes(fp: u64, size: u32) -> Vec<u8> {
    fp.to_le_bytes()
        .into_iter()
        .cycle()
        .take(size as usize)
        .collect()
}

/// A backup's chunk records over a fingerprint range, with varied sizes.
fn records(fps: std::ops::RangeInclusive<u64>) -> Vec<ChunkRecord> {
    fps.map(|fp| ChunkRecord::new(Fingerprint(fp), 16 + (fp % 3) as u32 * 8))
        .collect()
}

/// The index's fingerprint *set* (container assignments are layout, not
/// content — GC moves live chunks into fresh containers).
fn fp_set(engine: &DedupEngine) -> BTreeSet<Fingerprint> {
    engine
        .index()
        .sorted_entries()
        .into_iter()
        .map(|(fp, _)| fp)
        .collect()
}

fn sharded_fp_set(engine: &ShardedDedupEngine) -> BTreeSet<Fingerprint> {
    engine.shards().iter().flat_map(fp_set).collect()
}

/// Every record restores byte-identically from `read_chunk`.
macro_rules! assert_restores {
    ($engine:expr, $records:expr, $what:expr) => {
        for r in $records {
            let want = chunk_bytes(r.fp.value(), r.size);
            let got = $engine
                .read_chunk(r.fp)
                .unwrap_or_else(|| panic!("{}: chunk {:?} unreadable", $what, r.fp));
            assert_eq!(got, &want[..], "{}: chunk {:?} corrupted", $what, r.fp);
        }
    };
}

/// Ingest (with payloads) and commit one backup.
macro_rules! put_backup {
    ($engine:expr, $id:expr, $records:expr) => {
        for r in $records {
            $engine.process_with_payload(*r, &chunk_bytes(r.fp.value(), r.size));
        }
        $engine.commit_backup($id, $id, $records).unwrap();
    };
}

// ---------------------------------------------------------------------------
// Pin (a): delete → GC → reopen ≡ never-held store.
// ---------------------------------------------------------------------------

/// Backups 1/2/3 share boundary chunks; backup 2 is deleted. Chunks
/// 11..=17 are exclusive to the victim and must vanish; the shared
/// boundary chunks (8..=10 with backup 1, 18..=20 with backup 3) must
/// survive the GC rewrite.
const B1: std::ops::RangeInclusive<u64> = 1..=10;
const B2: std::ops::RangeInclusive<u64> = 8..=20;
const B3: std::ops::RangeInclusive<u64> = 18..=30;
const B2_EXCLUSIVE: std::ops::RangeInclusive<u64> = 11..=17;

#[test]
fn delete_gc_reopen_equals_never_held_store() {
    let dir = test_dir("lc-gc-equiv");
    let (b1, b2, b3) = (records(B1), records(B2), records(B3));

    let mut held = DedupEngine::open(persisted(&dir)).unwrap();
    put_backup!(held, 1, &b1);
    put_backup!(held, 2, &b2);
    put_backup!(held, 3, &b3);
    held.delete_backup(2).unwrap();
    let report = held.gc(1000);
    assert!(report.containers_dropped > 0, "GC dropped nothing");
    assert!(report.reclaimed_bytes > 0, "GC reclaimed nothing");
    assert!(report.moved_chunks > 0, "shared chunks should have moved");
    held.close().unwrap();

    let reopened = DedupEngine::open(persisted(&dir)).unwrap();

    let mut never = DedupEngine::new(config()).unwrap();
    put_backup!(never, 1, &b1);
    put_backup!(never, 3, &b3);
    never.finish();

    assert_eq!(reopened.committed_backups(), never.committed_backups());
    // The GC rewrite moved shared chunks between containers; the
    // survivors' recipes must still be the streams that were committed.
    assert_eq!(reopened.backup_recipe(1).unwrap().chunks, b1, "recipe 1");
    assert!(
        reopened.backup_recipe(2).is_none(),
        "deleted recipe survives"
    );
    assert_eq!(reopened.backup_recipe(3).unwrap().chunks, b3, "recipe 3");
    assert_restores!(&reopened, &b1, "held after delete+gc+reopen");
    assert_restores!(&reopened, &b3, "held after delete+gc+reopen");
    assert_restores!(&never, &b1, "never-held control");
    assert_restores!(&never, &b3, "never-held control");
    assert_eq!(fp_set(&reopened), fp_set(&never), "index fingerprint set");
    assert_eq!(
        reopened.stats().unique_chunks,
        never.stats().unique_chunks,
        "unique_chunks"
    );
    assert_eq!(
        reopened.stats().unique_bytes,
        never.stats().unique_bytes,
        "unique_bytes (stored footprint)"
    );
    for fp in B2_EXCLUSIVE {
        assert!(
            reopened.read_chunk(Fingerprint(fp)).is_none(),
            "victim-exclusive chunk {fp} still readable"
        );
        assert!(
            reopened.index().peek(Fingerprint(fp)).is_none(),
            "victim-exclusive chunk {fp} still indexed"
        );
    }
    done(&dir);
}

#[test]
fn sharded_delete_gc_reopen_equals_never_held_store() {
    let dir = test_dir("lc-gc-equiv-sharded");
    let (b1, b2, b3) = (records(B1), records(B2), records(B3));

    let mut held = ShardedDedupEngine::open(persisted(&dir), 2).unwrap();
    put_backup!(held, 1, &b1);
    put_backup!(held, 2, &b2);
    put_backup!(held, 3, &b3);
    held.delete_backup(2).unwrap();
    let report = held.gc(1000);
    assert!(report.containers_dropped > 0, "GC dropped nothing");
    held.close().unwrap();

    let reopened = ShardedDedupEngine::open(persisted(&dir), 2).unwrap();

    let mut never = ShardedDedupEngine::new(config(), 2).unwrap();
    put_backup!(never, 1, &b1);
    put_backup!(never, 3, &b3);
    never.finish();

    assert_eq!(reopened.committed_backups(), never.committed_backups());
    assert_restores!(&reopened, &b1, "sharded held");
    assert_restores!(&reopened, &b3, "sharded held");
    assert_eq!(
        sharded_fp_set(&reopened),
        sharded_fp_set(&never),
        "index fingerprint set"
    );
    assert_eq!(reopened.stats().unique_chunks, never.stats().unique_chunks);
    assert_eq!(reopened.stats().unique_bytes, never.stats().unique_bytes);
    for fp in B2_EXCLUSIVE {
        assert!(reopened.read_chunk(Fingerprint(fp)).is_none());
    }
    done(&dir);
}

// ---------------------------------------------------------------------------
// Pin (b): rekey preserves dedup and restores byte-identically.
// ---------------------------------------------------------------------------

#[test]
fn rekey_preserves_dedup_ratio_and_restores() {
    let dir = test_dir("lc-rekey");
    let secret = b"lifecycle-epoch-one";
    let base = records(100..=140);

    let mut engine = DedupEngine::open(persisted(&dir)).unwrap();
    // Two identical generations: dedup ratio exactly 2.0 going in.
    put_backup!(engine, 1, &base);
    put_backup!(engine, 2, &base);
    let before = engine.stats();
    assert_eq!(before.unique_chunks, base.len() as u64);
    assert_eq!(before.duplicates(), base.len() as u64);

    let report = engine.rekey(secret);
    assert_eq!(report.epoch, 1);
    assert!(report.containers_rewritten > 0, "nothing rewritten");
    assert_eq!(engine.epoch(), 1);
    // Rekeying changes the at-rest wrapping only — dedup structure,
    // counters and in-process reads are untouched.
    assert_eq!(engine.stats(), before, "rekey perturbed store stats");
    for id in [1, 2] {
        assert_eq!(
            engine.backup_recipe(id).unwrap().chunks,
            base,
            "recipe {id}"
        );
    }
    assert_restores!(&engine, &base, "post-rekey in-process");

    // A third identical generation still fully deduplicates under the new
    // epoch: the ratio the adversary (and the bill) sees is preserved.
    for r in &base {
        assert!(
            engine
                .process_with_payload(*r, &chunk_bytes(r.fp.value(), r.size))
                .is_duplicate(),
            "chunk {:?} re-stored after rekey — dedup ratio degraded",
            r.fp
        );
    }
    engine.commit_backup(3, 3, &base).unwrap();
    assert_eq!(engine.stats().unique_chunks, base.len() as u64);
    engine.close().unwrap();

    // Without the epoch secret the store must refuse to open, not decrypt
    // garbage.
    let err = match DedupEngine::open(persisted(&dir)) {
        Ok(_) => panic!("open without the epoch secret must fail"),
        Err(e) => e,
    };
    assert!(
        matches!(err, PersistError::WrongKey { epoch: 1 }),
        "unexpected error: {err:?}"
    );

    // With the secret: byte-identical restores and intact dedup state.
    let cfg = DedupConfig {
        persist: Some(
            PersistConfig::new(&dir)
                .fsync(FsyncPolicy::Never)
                .epoch_secret(1, secret.to_vec()),
        ),
        ..config()
    };
    let reopened = DedupEngine::open(cfg).unwrap();
    assert_eq!(reopened.epoch(), 1);
    assert_eq!(
        reopened.committed_backups(),
        vec![(1, 1), (2, 2), (3, 3)],
        "recipe catalog"
    );
    for id in [1, 2, 3] {
        assert_eq!(
            reopened.backup_recipe(id).unwrap().chunks,
            base,
            "recipe {id}"
        );
    }
    assert_restores!(&reopened, &base, "post-rekey reopen");
    assert_eq!(reopened.stats().unique_chunks, base.len() as u64);
    done(&dir);
}

/// `tests/fixtures/rekeyed-store-06fbb93` is a store directory written at
/// commit 06fbb93 — by the byte-at-a-time AES, CTR and CRC-32 that
/// `crates/crypto` keeps as its test oracle — through a REKEY: backup 1
/// (fingerprints 100..=120) went in at epoch 0 and was rewrapped, backup 2
/// (115..=130) was sealed at epoch 1. The word-oriented kernels must open
/// it and restore every byte.
#[test]
fn store_rekeyed_by_the_bytewise_cipher_opens_and_restores() {
    let dir = test_dir("lc-fixture");
    let fixture = PathBuf::from("tests/fixtures/rekeyed-store-06fbb93");
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let cfg = DedupConfig {
        persist: Some(
            PersistConfig::new(&dir)
                .fsync(FsyncPolicy::Never)
                .epoch_secret(1, b"fixture-epoch-one".to_vec()),
        ),
        bloom_expected: 1_000,
        ..config()
    };
    let engine = DedupEngine::open(cfg).unwrap();
    assert_eq!(engine.epoch(), 1);
    assert_eq!(engine.committed_backups(), vec![(1, 1), (2, 2)]);
    let stored: Vec<ChunkRecord> = (100..=130u64)
        .map(|fp| ChunkRecord::new(Fingerprint(fp), 16 + (fp % 7) as u32 * 13))
        .collect();
    assert_eq!(engine.stats().unique_chunks, stored.len() as u64);
    assert_restores!(&engine, &stored, "fixture written through REKEY at 06fbb93");
    done(&dir);
}

// ---------------------------------------------------------------------------
// Satellite: cache/Bloom coherence after deletion (both engines,
// sharded ingest at threads 1 and auto).
// ---------------------------------------------------------------------------

/// Fingerprints referenced only by the victim backup: these must be
/// purged everywhere once the victim is deleted and GC'd.
fn purged_set(live: &BTreeSet<Fingerprint>, victim: &[ChunkRecord]) -> BTreeSet<Fingerprint> {
    victim
        .iter()
        .map(|r| r.fp)
        .filter(|fp| !live.contains(fp))
        .collect()
}

/// After the purge, replay the victim stream and check every outcome:
/// surviving fingerprints must hit as duplicates, purged ones must come
/// back `Unique` on first occurrence (a duplicate there is a stale cache
/// or Bloom entry lying about dropped data).
macro_rules! assert_replay_coherent {
    ($engine:expr, $live:expr, $purged:expr, $replay:expr, $what:expr) => {
        let mut seen: BTreeSet<Fingerprint> = BTreeSet::new();
        for r in $replay {
            let dup_expected = $live.contains(&r.fp) || seen.contains(&r.fp);
            let outcome = $engine.process(*r);
            if dup_expected {
                assert!(
                    outcome.is_duplicate(),
                    "{}: surviving chunk {:?} re-stored",
                    $what,
                    r.fp
                );
            } else {
                assert!(
                    !outcome.is_duplicate(),
                    "{}: purged chunk {:?} claimed as duplicate ({:?}) — stale cache/Bloom",
                    $what,
                    r.fp,
                    outcome
                );
                seen.insert(r.fp);
            }
        }
        // Everything the replay touched is stored again.
        for fp in $purged {
            assert!(
                $engine.read_chunk(*fp).is_some() || $engine.stats().unique_chunks > 0,
                "{}: replayed chunk {:?} not re-stored",
                $what,
                fp
            );
        }
    };
}

fn mk_records(raw: &[(u64, u32)]) -> Vec<ChunkRecord> {
    raw.iter()
        .map(|&(fp, size)| {
            ChunkRecord::new(Fingerprint(fp.wrapping_mul(0x9e37_79b9_7f4a_7c15)), size)
        })
        .collect()
}

proptest! {
    /// Sequential engine: deleted-and-GC'd fingerprints never produce
    /// false duplicate hits from the cache or Bloom filter.
    #[test]
    fn deletion_coherence_sequential(
        survivor in prop::collection::vec((0u64..40, 8u32..64), 10..80),
        exclusive in prop::collection::vec((40u64..80, 8u32..64), 10..80),
        shared in prop::collection::vec((0u64..40, 8u32..64), 0..20),
    ) {
        let survivor = mk_records(&survivor);
        let mut victim = mk_records(&exclusive);
        victim.extend(mk_records(&shared));
        let live: BTreeSet<Fingerprint> = survivor.iter().map(|r| r.fp).collect();
        let purged = purged_set(&live, &victim);

        let mut engine = DedupEngine::new(config()).unwrap();
        for r in &survivor {
            engine.process(*r);
        }
        engine.commit_backup(1, 1, &survivor).unwrap();
        for r in &victim {
            engine.process(*r);
        }
        engine.commit_backup(2, 2, &victim).unwrap();

        engine.delete_backup(2).unwrap();
        engine.gc(1000);

        for fp in &purged {
            prop_assert!(!engine.cache().peek(*fp), "stale cache entry {fp:?}");
            prop_assert!(engine.index().peek(*fp).is_none(), "stale index entry {fp:?}");
            prop_assert!(engine.read_chunk(*fp).is_none(), "purged chunk {fp:?} readable");
        }
        assert_replay_coherent!(&mut engine, &live, &purged, &victim, "sequential");
    }

    /// Sharded engine at ingest thread counts 1 and auto: same coherence
    /// contract, exercised through the parallel ingest path.
    #[test]
    fn deletion_coherence_sharded(
        survivor in prop::collection::vec((0u64..40, 8u32..64), 10..80),
        exclusive in prop::collection::vec((40u64..80, 8u32..64), 10..80),
        shared in prop::collection::vec((0u64..40, 8u32..64), 0..20),
    ) {
        let survivor = mk_records(&survivor);
        let mut victim = mk_records(&exclusive);
        victim.extend(mk_records(&shared));
        let live: BTreeSet<Fingerprint> = survivor.iter().map(|r| r.fp).collect();
        let purged = purged_set(&live, &victim);

        for threads in [1usize, 0] {
            let mut engine = ShardedDedupEngine::new(config(), 2).unwrap();
            let par = ParConfig::with_threads(threads);
            engine.ingest_backup(&Backup::from_chunks("s", survivor.clone()), par);
            engine.commit_backup(1, 1, &survivor).unwrap();
            engine.ingest_backup(&Backup::from_chunks("v", victim.clone()), par);
            engine.commit_backup(2, 2, &victim).unwrap();

            engine.delete_backup(2).unwrap();
            engine.gc(1000);

            for fp in &purged {
                prop_assert!(!engine.contains(*fp), "threads {threads}: stale entry {fp:?}");
                for shard in engine.shards() {
                    prop_assert!(
                        shard.index().peek(*fp).is_none(),
                        "threads {threads}: stale index entry {fp:?}"
                    );
                    prop_assert!(
                        !shard.cache().peek(*fp),
                        "threads {threads}: stale cache entry {fp:?}"
                    );
                }
            }
            assert_replay_coherent!(
                &mut engine,
                &live,
                &purged,
                &victim,
                format!("sharded, threads {threads}")
            );
        }
    }
}
