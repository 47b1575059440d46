//! Byte pins for every CRC-checked on-disk format (DESIGN.md §7, §9).
//!
//! Each row writes a fixed, deterministic input through the public API and
//! compares the file's length and FNV-1a-64 digest with the values the
//! writers produced at commit b7d3758, before the eight formats were moved
//! onto the one codec in `freqdedup_trace::io` — except the `FQCT catalog`
//! row, pinned when `catalog.log` replaced the `tap.cids` registry (whose
//! writer is gone; the import still reads it). (A CRC-32 of a whole file
//! is useless as a pin here: every file ends in its own CRC, so it is the
//! constant CRC residue.) The legacy manifest `Delete` kind was never
//! written by the engine; its row pins the record bytes of the parent's
//! crate-private writer.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use freqdedup::core::IncrementalStats;
use freqdedup::server::catalog::{AppliedCommit, Catalog, CatalogRecord, OpKind};
use freqdedup::store::container::ContainerStore;
use freqdedup::store::engine::{DedupConfig, DedupEngine};
use freqdedup::store::fault::IoPolicyHandle;
use freqdedup::store::lifecycle::{epoch_key, recipe_path, write_recipe, Recipe};
use freqdedup::store::log::{container_path, write_container};
use freqdedup::store::manifest::{
    scan_manifest, write_snapshot, ManifestEvent, ManifestWriter, Snapshot,
};
use freqdedup::store::persist::{FsyncPolicy, PersistConfig};
use freqdedup::store::sharded::ShardedDedupEngine;
use freqdedup::trace::{io, Backup, BackupSeries, ChunkRecord, Fingerprint};

/// `(row, file length, FNV-1a-64 of the file)` as written at b7d3758 (the
/// `FQCT catalog` row: as written when the catalog was introduced).
const PINS: &[(&str, usize, u64)] = &[
    ("FQDT series", 112, 0xaf82_3833_5873_5240),
    ("FQIS state", 634, 0xe4e6_2b05_a386_ccb6),
    ("FQCT catalog", 312, 0x4fa8_4314_dfdd_3237),
    ("FQCL metadata epoch 0", 156, 0x6901_62c3_f14e_7547),
    ("FQCL metadata epoch 3", 156, 0x1f68_a9fd_662a_174c),
    ("FQCL payload epoch 0", 541, 0x384e_51f5_f211_683a),
    ("FQCL payload epoch 3", 541, 0xa9dc_7ebf_53f3_dad5),
    ("FQRC recipe", 162, 0x72f9_fcf1_a30d_6132),
    ("FQSN snapshot", 278, 0x8f32_0fa3_a838_37dd),
    ("FQMJ header", 6, 0x3627_0017_eb7b_692e),
    ("FQMJ seal", 25, 0x9618_08e9_eb61_b47e),
    ("FQMJ delete", 13, 0x8fd0_19e3_e0d4_c001),
    ("FQMJ backup", 37, 0x1cc0_a95c_ca71_6495),
    ("FQMJ backup delete", 29, 0x453c_63c9_ace8_052b),
    ("FQMJ gc drop", 37, 0xcca5_8816_3fed_1e73),
    ("FQMJ rekey begin", 17, 0x44e5_520d_4af1_0aaa),
    ("FQMJ rekey commit", 17, 0x24cf_3577_eab0_f59e),
    ("engine/container-00000004.clog", 328, 0x6d7b_7c08_7df8_88dc),
    ("engine/container-00000005.clog", 354, 0xa395_8cf3_cfe8_85c9),
    ("engine/container-00000006.clog", 360, 0xf3be_efcd_56f7_cca6),
    ("engine/container-00000007.clog", 128, 0xc232_a669_ea51_512f),
    ("engine/container-00000008.clog", 199, 0xa6a9_2049_6066_98f1),
    ("engine/index.snap", 466, 0xe319_fe05_72d7_02a6),
    ("engine/manifest.log", 516, 0xe994_457b_d8aa_02d7),
    (
        "engine/recipe-0000000000000002.rcp",
        222,
        0xfb25_4f12_eeaa_0ae9,
    ),
    ("engine/store.meta", 35, 0x9eb8_39c2_44b8_b8bd),
    ("FQSM sharded root", 35, 0xa443_f84c_328a_d16d),
];

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from("target/pin-test").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn chunk_bytes(fp: u64, size: u32) -> Vec<u8> {
    fp.to_le_bytes()
        .into_iter()
        .cycle()
        .take(size as usize)
        .collect()
}

fn records(fps: std::ops::RangeInclusive<u64>) -> Vec<ChunkRecord> {
    fps.map(|fp| ChunkRecord::new(Fingerprint(fp), 16 + (fp % 7) as u32 * 13))
        .collect()
}

fn backup(label: &str, fps: &[u64]) -> Backup {
    Backup::from_chunks(
        label,
        fps.iter()
            .map(|&f| ChunkRecord::new(f, 64 + ((f % 5) * 16) as u32))
            .collect(),
    )
}

fn persisted(dir: &Path) -> DedupConfig {
    DedupConfig {
        container_bytes: 256,
        cache_entries: 64,
        entry_bytes: 32,
        bloom_expected: 1_000,
        bloom_fp_rate: 0.01,
        persist: Some(PersistConfig::new(dir).fsync(FsyncPolicy::Never)),
    }
}

/// Every pinned row's bytes, written through the current code.
fn written() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let none = IoPolicyHandle::none();
    let never = FsyncPolicy::Never;

    let mut series = BackupSeries::new("pins");
    series.push(backup("b0", &[1, 2, 1]));
    series.push(backup("b1", &[3]));
    series.push(backup("b2", &[]));
    out.push(("FQDT series".into(), io::to_bytes(&series)));

    let mut stats = IncrementalStats::default();
    for b in [
        backup("b0", &[1, 2, 1, 2, 3, 4, 2, 3, 4]),
        backup("b1", &[2, 3, 4, 4, 9]),
        backup("b2", &[]),
        backup("b3", &[7]),
        backup("b4", &[9, 9, 9]),
        backup("b5", &[1, 9, 2, 7, 5, 5, 1]),
    ] {
        stats.commit(&b);
    }
    let mut blob = Vec::new();
    stats.write_to(&mut blob).unwrap();
    out.push(("FQIS state".into(), blob));

    let dir = test_dir("pin-files");
    let mut log = Catalog::open(&PersistConfig::new(&dir).fsync(never)).unwrap();
    for (i, b) in [backup("m0", &[1, 2]), backup("m1", &[3])]
        .into_iter()
        .enumerate()
    {
        log.append(CatalogRecord::Commit {
            op_id: 41 + i as u64,
            backup_id: 1 + i as u64,
            timestamp: 1 + i as u64,
            backup: Arc::new(b),
        })
        .unwrap();
    }
    for (kind, label, op_id) in [
        (OpKind::Delete, "m0", 50),
        (OpKind::Gc, "", 51),
        (OpKind::Rekey, "", 0),
        (OpKind::Imported, "m2", 52),
    ] {
        let ack = AppliedCommit {
            label: label.into(),
            chunks: 2,
            extra: 16,
            extra2: 3,
        };
        log.append(CatalogRecord::Op { kind, op_id, ack }).unwrap();
    }
    drop(log);
    out.push((
        "FQCT catalog".into(),
        std::fs::read(dir.join("catalog.log")).unwrap(),
    ));

    for (mode, payload) in [("metadata", false), ("payload", true)] {
        let mut store = ContainerStore::new(4096);
        for r in records(100..=106) {
            let bytes = chunk_bytes(r.fp.value(), r.size);
            store.append(r, payload.then_some(&bytes[..])).unwrap();
        }
        let id = store.flush().unwrap();
        let c = store.get(id).unwrap();
        for epoch in [0u64, 3] {
            let key = epoch_key(b"pin-secret", epoch);
            write_container(&dir, c, epoch, Some(&key), never, &none).unwrap();
            out.push((
                format!("FQCL {mode} epoch {epoch}"),
                std::fs::read(container_path(&dir, id)).unwrap(),
            ));
        }
    }

    let recipe = Recipe {
        timestamp: 77,
        chunks: records(100..=110),
    };
    write_recipe(&dir, 9, &recipe, never, &none).unwrap();
    out.push((
        "FQRC recipe".into(),
        std::fs::read(recipe_path(&dir, 9)).unwrap(),
    ));

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
    write_snapshot(&dir, &snapshot, never, &none).unwrap();
    out.push((
        "FQSN snapshot".into(),
        std::fs::read(dir.join("index.snap")).unwrap(),
    ));

    ManifestWriter::create(&dir, never, &none).unwrap();
    let header = std::fs::read(dir.join("manifest.log")).unwrap();
    out.push(("FQMJ header".into(), header.clone()));
    for (name, event) in [
        (
            "seal",
            ManifestEvent::Seal {
                id: 4,
                chunk_count: 7,
                data_bytes: 512,
            },
        ),
        ("delete", ManifestEvent::Delete { id: 4 }),
        (
            "backup",
            ManifestEvent::Backup {
                id: 9,
                chunk_count: 11,
                logical_bytes: 1024,
                timestamp: 77,
            },
        ),
        (
            "backup delete",
            ManifestEvent::BackupDelete {
                id: 9,
                chunk_count: 11,
                logical_bytes: 1024,
            },
        ),
        (
            "gc drop",
            ManifestEvent::GcDrop {
                id: 4,
                chunk_count: 7,
                data_bytes: 512,
                dead_chunks: 3,
                dead_bytes: 200,
            },
        ),
        ("rekey begin", ManifestEvent::RekeyBegin { epoch: 2 }),
        ("rekey commit", ManifestEvent::RekeyCommit { epoch: 2 }),
    ] {
        let mut w = ManifestWriter::create(&dir, never, &none).unwrap();
        w.append(event).unwrap();
        drop(w);
        let journal = std::fs::read(dir.join("manifest.log")).unwrap();
        assert_eq!(scan_manifest(&dir).unwrap().events, vec![event], "{name}");
        out.push((format!("FQMJ {name}"), journal[header.len()..].to_vec()));
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // A payload store through its whole lifecycle: every file it leaves.
    let dir = test_dir("pin-engine");
    let mut engine = DedupEngine::open(persisted(&dir)).unwrap();
    for (id, fps) in [(1, 100..=120), (2, 115..=130)] {
        let chunks = records(fps);
        for r in &chunks {
            engine.process_with_payload(*r, &chunk_bytes(r.fp.value(), r.size));
        }
        engine.commit_backup(id, id, &chunks).unwrap();
        engine.finish();
    }
    engine.delete_backup(1).unwrap();
    engine.gc(500);
    engine.rekey(b"pin-epoch-one");
    engine.close().unwrap();
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    for name in names {
        out.push((
            format!("engine/{name}"),
            std::fs::read(dir.join(&name)).unwrap(),
        ));
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = test_dir("pin-sharded");
    ShardedDedupEngine::open(persisted(&dir), 2)
        .unwrap()
        .close()
        .unwrap();
    out.push((
        "FQSM sharded root".into(),
        std::fs::read(dir.join("store.meta")).unwrap(),
    ));
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

#[test]
fn every_on_disk_format_keeps_its_parent_bytes() {
    let got: Vec<(String, usize, u64)> = written()
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), fnv64(&bytes)))
        .collect();
    let want: Vec<(String, usize, u64)> = PINS
        .iter()
        .map(|&(name, len, digest)| (name.to_string(), len, digest))
        .collect();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{} changed", w.0);
    }
    assert_eq!(got.len(), want.len(), "row set changed");
}
