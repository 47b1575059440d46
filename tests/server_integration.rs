//! Networked-service integration suite (loopback only, CI-safe).
//!
//! The contract under test (DESIGN.md §8):
//!
//! * **The transport shell** — torn, truncated, oversize and
//!   CRC-corrupted frames are rejected without taking the server down.
//!   What the session answers to each message (every message type, the
//!   HELLO gate, payload modes, restore frame shapes, exactly-once
//!   replays) is checked without a socket, in `session.rs`'s tests.
//! * **Live-traffic equivalence** — for a seeded series and client count
//!   ∈ {1, 4}, the adversary tap's deterministic view equals the offline
//!   series, its attack inference (both [`TiePolicy`] variants) is
//!   bit-identical to direct in-process ingest, and the served store's
//!   partition-invariant totals match a direct `ShardedDedupEngine` run.
//! * **Restart** — a server restarted on its store directory recovers
//!   per the PR 4 invariant (graceful shutdown checkpoints, so no crash
//!   recovery is needed), and clients resume to a verified restore —
//!   including a client that disconnected mid-backup without committing.
//!   A copy of the store directory taken right after an ack, with no
//!   shutdown (a crash image), binds to the same catalog, registry and
//!   adversary state: `catalog.log` is written ahead of every ack.
//! * **Streaming tap** (DESIGN.md §9) — for 1 and 4 interleaved clients,
//!   the tap's running incremental inference snapshotted after **every**
//!   commit equals a batch recompute of the committed prefix, and a
//!   restarted server resumes the incremental state from the `tap.fqis`
//!   cache bit-identically and keeps folding further commits; a
//!   `tap.fqis` of the previous format version (a committed fixture)
//!   costs one full fold of the catalog and is rewritten in the current
//!   one.
//!
//! Test directories (store dirs, server logs, tap traces) live under
//! `target/server-test/` so CI can upload them when a test fails; they
//! are removed on success.

use std::net::SocketAddr;
use std::path::PathBuf;

use freqdedup::core::attacks::locality::LocalityParams;
use freqdedup::core::attacks::{self, AttackKind};
use freqdedup::datasets::fsl::{generate, FslConfig};
use freqdedup::mle::trace_enc::DeterministicTraceEncryptor;
use freqdedup::server::client::{synthetic_payload, Client, ClientError};
use freqdedup::server::frame::{read_frame, write_frame};
use freqdedup::server::proto::{code, Message};
use freqdedup::server::server::{ServeSummary, Server, ServerConfig};
use freqdedup::store::engine::DedupConfig;
use freqdedup::store::persist::{FsyncPolicy, PersistConfig, PersistError};
use freqdedup::store::sharded::ShardedDedupEngine;
use freqdedup::trace::par::ParConfig;
use freqdedup::trace::{Backup, BackupSeries};

/// A fresh directory under `target/server-test/` (kept on panic so CI can
/// upload it, removed by [`done`] on success).
fn test_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from("target/server-test").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn done(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Small engine so containers actually seal during the tests.
fn small_engine() -> DedupConfig {
    DedupConfig {
        container_bytes: 4096,
        cache_entries: 1024,
        bloom_expected: 100_000,
        ..DedupConfig::default()
    }
}

/// Binds on an ephemeral loopback port and serves on a background
/// thread; the server stops when a client sends SHUTDOWN.
fn start(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<ServeSummary>) {
    let (addr, handle, _) = start_tapped(config);
    (addr, handle)
}

/// [`start`], plus a handle on the server's adversary tap.
fn start_tapped(
    config: ServerConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<ServeSummary>,
    freqdedup::server::server::TapView,
) {
    let server = Server::bind(config).expect("bind loopback server");
    let addr = server.local_addr().expect("local addr");
    let tap = server.tap_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle, tap)
}

/// A small seeded FSL-like series, fingerprint-space encrypted: returns
/// `(plaintext series, ciphertext series)` — clients upload ciphertext.
fn encrypted_series(backups: usize) -> (BackupSeries, BackupSeries) {
    let plain = generate(&FslConfig {
        users: 2,
        backups,
        ..FslConfig::scaled(400)
    });
    let enc = DeterministicTraceEncryptor::new(b"server-integration-secret");
    let mut cipher = BackupSeries::new(plain.name.clone());
    for backup in &plain {
        cipher.push(enc.encrypt_backup(backup).backup);
    }
    (plain, cipher)
}

// ---------------------------------------------------------------------------
// Protocol round trip
// ---------------------------------------------------------------------------

#[test]
fn torn_and_corrupt_frames_are_rejected() {
    let dir = test_dir("torn-frames");
    let (addr, handle) = start(ServerConfig {
        engine: small_engine(),
        log_file: Some(dir.join("server.log")),
        ..ServerConfig::default()
    });

    // Oversize length prefix: the server reports and drops the session.
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        use std::io::Write;
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.write_all(&0u32.to_le_bytes()).unwrap();
        let reply = Message::decode(&read_frame(&mut raw).unwrap().unwrap()).unwrap();
        assert!(matches!(reply, Message::ErrorResp { code: c, .. } if c == code::BAD_STATE));
        // ... and the connection is closed afterwards.
        assert!(matches!(read_frame(&mut raw), Ok(None) | Err(_)));
    }

    // CRC corruption: reported, connection dropped.
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Message::StatsReq.encode()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        use std::io::Write;
        raw.write_all(&bytes).unwrap();
        let reply = Message::decode(&read_frame(&mut raw).unwrap().unwrap()).unwrap();
        assert!(matches!(reply, Message::ErrorResp { code: c, .. } if c == code::BAD_STATE));
    }

    // A truncated frame (client dies mid-frame): the server just drops
    // the session; a fresh client still works.
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        use std::io::Write;
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Message::StatsReq.encode()).unwrap();
        raw.write_all(&bytes[..bytes.len() / 2]).unwrap();
        drop(raw);
    }

    // A well-framed but undecodable message: rejected, session continues.
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, &[0xee, 0x01, 0x02]).unwrap();
        let reply = Message::decode(&read_frame(&mut raw).unwrap().unwrap()).unwrap();
        assert!(matches!(reply, Message::ErrorResp { code: c, .. } if c == code::BAD_STATE));
        write_frame(
            &mut raw,
            &Message::Hello {
                version: freqdedup::server::proto::WIRE_VERSION,
                client: "recovered".into(),
            }
            .encode(),
        )
        .unwrap();
        let reply = Message::decode(&read_frame(&mut raw).unwrap().unwrap()).unwrap();
        assert!(matches!(reply, Message::HelloAck { .. }));
    }

    let mut client = Client::connect(addr, "closer").unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

// ---------------------------------------------------------------------------
// Batched restore
// ---------------------------------------------------------------------------

#[test]
fn restore_batches_equal_upload_at_every_cap_boundary() {
    let dir = test_dir("restore-batches");

    // Metadata mode: an empty backup, one full batch, and one record over
    // it (the frame shapes are `session::tests`'s).
    let (addr, handle) = start(ServerConfig {
        engine: small_engine(),
        log_file: Some(dir.join("metadata.log")),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr, "meta").unwrap();
    for n in [0u64, 1024, 1025] {
        let backup = Backup::from_chunks(
            format!("meta-{n}"),
            (0..n)
                .map(|i| freqdedup::trace::ChunkRecord::new(i % 300, 64 + (i % 7) as u32))
                .collect(),
        );
        client.upload_backup(&backup).unwrap();
        assert_eq!(client.commit(&backup.label).unwrap(), n);
        let restored = client.restore(&backup.label).unwrap();
        assert_eq!(restored.backup, backup, "{n} records");
        assert!(restored.payloads.is_none());
    }
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Payload mode: 100 chunks of 100 000 bytes, which the 4 MiB byte cap
    // splits into three batches; the bytes still come back exact.
    let (addr, handle) = start(ServerConfig {
        engine: DedupConfig {
            container_bytes: 4 << 20,
            ..small_engine()
        },
        log_file: Some(dir.join("payload.log")),
        ..ServerConfig::default()
    });
    let payload = |rec: &freqdedup::trace::ChunkRecord| synthetic_payload(rec.fp, rec.size);
    let big = Backup::from_chunks(
        "big",
        (0..100u64)
            .map(|i| freqdedup::trace::ChunkRecord::new(1000 + i % 35, 100_000))
            .collect(),
    );
    let mut client = Client::connect(addr, "payload").unwrap();
    client.upload_backup_payloads(&big, payload).unwrap();
    client.commit("big").unwrap();
    client.verify_restore(&big, Some(&payload)).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

/// A store that lost chunks its catalog still names (here: the catalog
/// of a longer-lived store laid over a store that only ever held a
/// prefix) fails the restore with the typed MISSING_CHUNK error — and the
/// session stays usable. The frames it ends with are `session::tests`'s.
#[test]
fn restore_of_a_lost_chunk_fails_typed_mid_stream() {
    use freqdedup::server::server::{CATALOG_FILE, STREAM_FILE};

    let dir = test_dir("restore-missing");
    let full = Backup::from_chunks(
        "full",
        (0..2500u64)
            .map(|i| freqdedup::trace::ChunkRecord::new(i, 32))
            .collect(),
    );
    let prefix = Backup::from_chunks("prefix", full.chunks[..1600].to_vec());
    let serve = |store: &str, log: &str| {
        start(ServerConfig {
            engine: DedupConfig {
                persist: Some(PersistConfig::new(dir.join(store)).fsync(FsyncPolicy::Never)),
                ..small_engine()
            },
            log_file: Some(dir.join(log)),
            ..ServerConfig::default()
        })
    };
    for (store, backup) in [("whole", &full), ("holed", &prefix)] {
        let (addr, handle) = serve(store, "setup.log");
        let mut c = Client::connect(addr, "setup").unwrap();
        c.upload_backup(backup).unwrap();
        c.commit(&backup.label).unwrap();
        c.shutdown().unwrap();
        handle.join().unwrap();
    }
    std::fs::copy(
        dir.join("whole").join(CATALOG_FILE),
        dir.join("holed").join(CATALOG_FILE),
    )
    .unwrap();
    std::fs::remove_file(dir.join("holed").join(STREAM_FILE)).unwrap();

    let (addr, handle) = serve("holed", "holed.log");
    let mut client = Client::connect(addr, "reader").unwrap();
    match client.restore("full") {
        Err(ClientError::Server { code: c, message }) => {
            assert_eq!(c, code::MISSING_CHUNK);
            assert!(message.contains("chunk 1600"), "{message}");
        }
        other => panic!("expected MISSING_CHUNK, got {other:?}"),
    }
    // The stream is still aligned: the same session keeps serving.
    assert!(client.stats().is_ok());
    client.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

// ---------------------------------------------------------------------------
// Live-traffic equivalence (the acceptance criterion)
// ---------------------------------------------------------------------------

/// N concurrent clients through the service produce a store + tap whose
/// attack inference is identical to the same backups ingested directly
/// into a `ShardedDedupEngine` — for both TiePolicy variants.
#[test]
fn concurrent_clients_equal_direct_ingest() {
    let (plain, cipher) = encrypted_series(5);
    let aux = plain.get(3).unwrap();
    let target_label = cipher.latest().unwrap().label.clone();
    let params = LocalityParams::new(2, 5, 50_000);

    // Offline reference: direct in-process ingest + attack.
    let mut direct = ShardedDedupEngine::new(small_engine(), 4).unwrap();
    for backup in &cipher {
        direct.ingest_backup(backup, ParConfig::sequential());
    }
    direct.finish();
    let direct_stats = direct.stats();
    let reference = attacks::run_ciphertext_only_both_policies(
        AttackKind::Locality,
        cipher.latest().unwrap(),
        aux,
        &params,
    );

    for clients in [1usize, 4] {
        let dir = test_dir(&format!("equivalence-{clients}"));
        let (addr, handle) = start(ServerConfig {
            workers: clients,
            engine: small_engine(),
            log_file: Some(dir.join("server.log")),
            ..ServerConfig::default()
        });

        // Round-robin the series over `clients` concurrent sessions.
        std::thread::scope(|scope| {
            for c in 0..clients {
                let cipher = &cipher;
                scope.spawn(move || {
                    let mut client = Client::connect(addr, &format!("client-{c}")).unwrap();
                    for (i, backup) in cipher.iter().enumerate() {
                        if i % clients == c {
                            client.upload_backup(backup).unwrap();
                            client.commit(&backup.label).unwrap();
                        }
                    }
                });
            }
        });

        // Read the tap back *from the concurrent run* before stopping:
        // RESTORE-BACKUP is served from the tap's manifest catalog, so
        // the restored stream is the tap's observed stream for that
        // label — it must be byte-identical to what the client sent,
        // regardless of how the concurrent sessions interleaved.
        let mut closer = Client::connect(addr, "closer").unwrap();
        let tap_backup = closer.restore(&target_label).unwrap().backup;
        let stats = closer.stats().unwrap();
        closer.shutdown().unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(
            summary.stats.committed_backups,
            cipher.len() as u64,
            "{clients} clients"
        );
        assert_eq!(tap_backup.chunks, cipher.latest().unwrap().chunks);

        // Store equivalence: the partition-invariant totals match direct
        // ingest (the dup-class split legitimately depends on arrival
        // interleaving; the logical/unique totals must not).
        assert_eq!(stats.logical_chunks, direct_stats.logical_chunks);
        assert_eq!(stats.logical_bytes, direct_stats.logical_bytes);
        assert_eq!(stats.unique_chunks, direct_stats.unique_chunks);
        assert_eq!(stats.unique_bytes, direct_stats.unique_bytes);

        // Attack equivalence, both tie policies: live tap vs offline.
        let live = attacks::run_ciphertext_only_both_policies(
            AttackKind::Locality,
            &tap_backup,
            aux,
            &params,
        );
        for ((policy, live_inf), (_, ref_inf)) in live.iter().zip(&reference) {
            let mut a: Vec<_> = live_inf.iter().collect();
            let mut b: Vec<_> = ref_inf.iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "policy {policy:?}, {clients} clients");
        }
        done(&dir);
    }
}

// ---------------------------------------------------------------------------
// Restart / resume
// ---------------------------------------------------------------------------

#[test]
fn restart_recovers_and_clients_resume_to_verified_restore() {
    let dir = test_dir("restart");
    let store_dir = dir.join("store");
    let persist_engine = || DedupConfig {
        persist: Some(PersistConfig::new(&store_dir).fsync(FsyncPolicy::Never)),
        ..small_engine()
    };
    let payload = |rec: &freqdedup::trace::ChunkRecord| synthetic_payload(rec.fp, rec.size);

    let (_, cipher) = encrypted_series(3);
    let b0 = cipher.get(0).unwrap();
    let b1 = cipher.get(1).unwrap();
    let b2 = cipher.get(2).unwrap();

    // ---- First server life: two clients, two committed backups, plus a
    // client that disconnects mid-backup without committing.
    let (addr, handle) = start(ServerConfig {
        engine: persist_engine(),
        log_file: Some(dir.join("server1.log")),
        ..ServerConfig::default()
    });
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut c = Client::connect(addr, "alpha").unwrap();
            c.upload_backup_payloads(b0, payload).unwrap();
            c.commit(&b0.label).unwrap();
        });
        scope.spawn(|| {
            let mut c = Client::connect(addr, "beta").unwrap();
            c.upload_backup_payloads(b1, payload).unwrap();
            c.commit(&b1.label).unwrap();
        });
        scope.spawn(|| {
            // Uploads half of b2 and vanishes mid-workload, never
            // committed.
            let mut c = Client::connect(addr, "gamma").unwrap();
            let half = Backup::from_chunks(b2.label.clone(), b2.chunks[..b2.len() / 2].to_vec());
            c.upload_backup_payloads(&half, payload).unwrap();
            // no commit — connection drops here
        });
    });
    let mut closer = Client::connect(addr, "closer").unwrap();
    let stats_before = closer.stats().unwrap();
    closer.shutdown().unwrap();
    let summary1 = handle.join().unwrap();
    assert_eq!(summary1.stats.committed_backups, 2);

    // ---- Second server life on the same directory: graceful shutdown
    // checkpointed, so recovery must be bit-identical (PR 4 invariant).
    let (addr, handle) = start(ServerConfig {
        engine: persist_engine(),
        log_file: Some(dir.join("server2.log")),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr, "alpha-again").unwrap();
    let stats_after = c.stats().unwrap();
    assert_eq!(stats_after.unique_chunks, stats_before.unique_chunks);
    assert_eq!(stats_after.unique_bytes, stats_before.unique_bytes);
    assert_eq!(
        stats_after.committed_backups, 2,
        "manifests survive restart"
    );

    // The interrupted client resumes: re-uploads the whole of b2 (the
    // first half deduplicates against the stored chunks) and commits.
    let resume = c.upload_backup_payloads(b2, payload).unwrap();
    assert!(
        resume.duplicate > 0,
        "resumed upload should dedup against the pre-restart half"
    );
    c.commit(&b2.label).unwrap();

    // Verified restores across the restart: pre-restart and resumed
    // backups both come back bit-for-bit.
    c.verify_restore(b0, Some(&payload)).unwrap();
    c.verify_restore(b1, Some(&payload)).unwrap();
    c.verify_restore(b2, Some(&payload)).unwrap();

    c.shutdown().unwrap();
    let summary2 = handle.join().unwrap();
    assert_eq!(summary2.stats.committed_backups, 3);
    done(&dir);
}

// ---------------------------------------------------------------------------
// Streaming tap (incremental attack engine behind live traffic)
// ---------------------------------------------------------------------------

/// N ∈ {1, 4} clients commit interleaved backups in a deterministic global
/// order (ticket lock); after **every** commit the tap's running streaming
/// inference (both tie policies) is snapshotted through
/// [`freqdedup::server::server::TapView`] and must equal a batch series
/// recompute of exactly the committed prefix. The server then restarts on
/// its store directory: the tap resumes its incremental state from
/// `tap.fqis` bit-identically — segment layout and merge counters
/// included — and keeps folding further commits with the same
/// per-commit equivalence.
#[test]
fn streaming_tap_snapshots_match_batch_and_survive_restart() {
    use std::sync::{Condvar, Mutex};

    let (plain, cipher) = encrypted_series(6);
    let aux = plain.get(3).unwrap();
    let params = LocalityParams::new(2, 5, 50_000);
    let tape: Vec<Backup> = cipher.iter().cloned().collect();
    // Four backups committed before the restart, two after it.
    let (first, rest) = tape.split_at(4);

    // Sorted inference snapshot vs the batch recompute of the committed
    // prefix, for one (policy, inference) pair.
    let check = |live: &[(freqdedup::core::TiePolicy, freqdedup::core::Inference); 2],
                 prefix: &[Backup],
                 ctx: &str| {
        for (policy, live_inf) in live {
            let batch = attacks::run_ciphertext_only_series(
                AttackKind::Locality,
                prefix,
                aux,
                &params.clone().tie_policy(*policy),
            );
            let mut a: Vec<_> = live_inf.iter().collect();
            let mut b: Vec<_> = batch.iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "policy {policy:?}, {ctx}");
        }
    };

    for clients in [1usize, 4] {
        let dir = test_dir(&format!("streaming-tap-{clients}"));
        let store_dir = dir.join("store");
        let persist_engine = || DedupConfig {
            persist: Some(PersistConfig::new(&store_dir).fsync(FsyncPolicy::Never)),
            ..small_engine()
        };

        // ---- First server life: interleaved commits in ticket order,
        // with a live snapshot check after every single commit.
        let server = Server::bind(ServerConfig {
            workers: clients,
            engine: persist_engine(),
            log_file: Some(dir.join("server1.log")),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let tap = server.tap_handle();
        let handle = std::thread::spawn(move || server.run().expect("serve"));

        let turn = (Mutex::new(0usize), Condvar::new());
        std::thread::scope(|scope| {
            for c in 0..clients {
                let (turn, tap, check, params) = (&turn, &tap, &check, &params);
                scope.spawn(move || {
                    let mut client = Client::connect(addr, &format!("stream-{c}")).unwrap();
                    for (i, backup) in first.iter().enumerate() {
                        if i % clients != c {
                            continue;
                        }
                        // Wait for this backup's globally-ordered turn, so
                        // the commit order (and therefore the streaming
                        // state) is deterministic across client counts.
                        let mut t = turn.0.lock().unwrap();
                        while *t != i {
                            t = turn.1.wait(t).unwrap();
                        }
                        drop(t);
                        client.upload_backup(backup).unwrap();
                        client.commit(&backup.label).unwrap();
                        // Mid-stream snapshot at this exact commit point.
                        let live = tap.with_tap(|t| {
                            assert!(t.streaming_consistent());
                            assert_eq!(t.committed().len(), i + 1);
                            t.streaming_inference_both_policies(AttackKind::Locality, aux, params)
                        });
                        check(
                            &live,
                            &first[..=i],
                            &format!("commit {i}, {clients} clients"),
                        );
                        *turn.0.lock().unwrap() += 1;
                        turn.1.notify_all();
                    }
                });
            }
        });
        let pre_restart = tap.with_tap(|t| t.streaming().clone());
        let mut closer = Client::connect(addr, "closer").unwrap();
        closer.shutdown().unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(summary.stats.committed_backups, first.len() as u64);

        // ---- Second life on the same directory: the tap resumes from
        // the persisted incremental state without replaying history.
        assert!(
            store_dir
                .join(freqdedup::server::server::STREAM_FILE)
                .exists(),
            "graceful shutdown must persist the incremental state"
        );
        let server = Server::bind(ServerConfig {
            workers: clients,
            engine: persist_engine(),
            log_file: Some(dir.join("server2.log")),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let tap = server.tap_handle();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        tap.with_tap(|t| {
            assert!(t.streaming_consistent());
            assert_eq!(
                t.streaming(),
                &pre_restart,
                "resumed incremental state must be bit-identical, {clients} clients"
            );
        });

        // The resumed state keeps folding commits with the same
        // per-commit batch equivalence over the whole tape so far.
        let mut client = Client::connect(addr, "resumer").unwrap();
        for (j, backup) in rest.iter().enumerate() {
            client.upload_backup(backup).unwrap();
            client.commit(&backup.label).unwrap();
            let committed = first.len() + j + 1;
            let live = tap.with_tap(|t| {
                assert!(t.streaming_consistent());
                t.streaming_inference_both_policies(AttackKind::Locality, aux, &params)
            });
            check(
                &live,
                &tape[..committed],
                &format!("post-restart commit {committed}, {clients} clients"),
            );
        }
        client.shutdown().unwrap();
        handle.join().unwrap();
        done(&dir);
    }
}

// ---------------------------------------------------------------------------
// Degraded recovery: corrupted incremental state (PR 7)
// ---------------------------------------------------------------------------

/// Corrupting the incremental tap state's cache (`tap.fqis`) at several
/// byte offsets must not take the server down: it binds, rebuilds the
/// streaming state by folding the whole catalog — bit-identical to the
/// live run's state, with inference (both tie policies) equal to a batch
/// recompute of the committed streams — and surfaces the degradation
/// through the `tap_warnings` STATS counter.
#[test]
fn corrupt_stream_state_degrades_to_catalog_replay() {
    let dir = test_dir("corrupt-fqis");
    let store_dir = dir.join("store");
    let persist_engine = || DedupConfig {
        persist: Some(PersistConfig::new(&store_dir).fsync(FsyncPolicy::Never)),
        ..small_engine()
    };
    let (plain, cipher) = encrypted_series(4);
    let aux = plain.get(2).unwrap();
    let params = LocalityParams::new(2, 5, 50_000);

    // First life: commit the series and snapshot the live inference.
    let server = Server::bind(ServerConfig {
        engine: persist_engine(),
        log_file: Some(dir.join("server1.log")),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let tap = server.tap_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let mut c = Client::connect(addr, "writer").unwrap();
    for backup in &cipher {
        c.upload_backup(backup).unwrap();
        c.commit(&backup.label).unwrap();
    }
    // What the catalog fold must reproduce bit-identically.
    let good = tap.with_tap(|t| t.streaming().clone());
    c.shutdown().unwrap();
    handle.join().unwrap();

    let stream_path = store_dir.join(freqdedup::server::server::STREAM_FILE);
    let pristine = std::fs::read(&stream_path).unwrap();
    assert!(pristine.len() > 16, "state file should be non-trivial");

    for offset in [0usize, pristine.len() / 2, pristine.len() - 1] {
        let mut bad = pristine.clone();
        bad[offset] ^= 0xff;
        std::fs::write(&stream_path, &bad).unwrap();

        let server = Server::bind(ServerConfig {
            engine: persist_engine(),
            log_file: Some(dir.join(format!("server-corrupt-{offset}.log"))),
            ..ServerConfig::default()
        })
        .expect("a corrupt tap.fqis must not prevent binding");
        let addr = server.local_addr().unwrap();
        let tap = server.tap_handle();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        tap.with_tap(|t| {
            assert!(t.streaming_consistent(), "offset {offset}");
            assert_eq!(
                t.streaming(),
                &good,
                "catalog replay must rebuild the state bit-identically, offset {offset}"
            );
            // The rebuilt state's inference equals a batch recompute over
            // the committed streams — the degraded path loses nothing
            // observable to the adversary.
            let live = t.streaming_inference_both_policies(AttackKind::Locality, aux, &params);
            for (policy, live_inf) in &live {
                let batch = attacks::run_ciphertext_only_series(
                    AttackKind::Locality,
                    t.committed(),
                    aux,
                    &params.clone().tie_policy(*policy),
                );
                let mut a: Vec<_> = live_inf.iter().collect();
                let mut b: Vec<_> = batch.iter().collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "policy {policy:?}, offset {offset}");
            }
        });
        let mut c = Client::connect(addr, "checker").unwrap();
        let stats = c.stats().unwrap();
        assert!(
            stats.tap_warnings >= 1,
            "degraded recovery must surface in STATS, offset {offset}"
        );
        c.shutdown().unwrap();
        handle.join().unwrap();
        // Graceful shutdown rewrote a clean tap.fqis; the next iteration
        // re-corrupts it from the pristine copy.
    }

    // A truncated file degrades the same way.
    std::fs::write(&stream_path, &pristine[..pristine.len() / 3]).unwrap();
    let server = Server::bind(ServerConfig {
        engine: persist_engine(),
        log_file: Some(dir.join("server-truncated.log")),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let tap = server.tap_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    tap.with_tap(|t| {
        assert!(t.streaming_consistent());
        assert_eq!(t.streaming(), &good);
    });
    let mut c = Client::connect(addr, "checker").unwrap();
    assert!(c.stats().unwrap().tap_warnings >= 1);
    c.shutdown().unwrap();
    handle.join().unwrap();

    // After the clean shutdown above, an intact file resumes silently.
    let (addr, handle) = start(ServerConfig {
        engine: persist_engine(),
        log_file: Some(dir.join("server-clean.log")),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr, "clean").unwrap();
    assert_eq!(c.stats().unwrap().tap_warnings, 0);
    c.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

/// Generation `g` of the tap fixture's plaintext: 160 chunks over a
/// 53-fingerprint pool with a few per-generation edits, sizes in five
/// block classes.
fn fixture_plain(g: u64) -> Backup {
    Backup::from_chunks(
        format!("gen-{g}"),
        (0..160u64)
            .map(|i| {
                let fp = if i % 17 == g {
                    100 + i
                } else {
                    (i * i + 3 * i) % 53 + 1
                };
                freqdedup::trace::ChunkRecord::new(fp, 64 + (fp % 5) as u32 * 16)
            })
            .collect(),
    )
}

/// `tests/fixtures/tap-v1-57bf155` is the `tap.fqdt` + `tap.fqis` pair a
/// tap wrote at commit 57bf155 after committing the ciphertexts of
/// [`fixture_plain`] generations 0–2 (fingerprint × 0x9E37_79B9_7F4A_7C15)
/// in label order: a version-1 state file, two blobs, a policy byte each.
/// A server bound on it must import the pre-catalog `tap.fqdt` into
/// `catalog.log` and fold it — never fail, never trust the old blobs —
/// arrive at the state a never-restarted tap holds, and write a one-blob
/// version-2 cache at shutdown that the next bind resumes without a fold.
#[test]
fn v1_stream_state_upgrades_by_catalog_replay() {
    use freqdedup::core::IncrementalStats;
    use freqdedup::server::server::{CATALOG_FILE, STREAM_FILE, TAP_FILE};
    use freqdedup::server::tap::TapStreaming;

    let dir = test_dir("fqis-upgrade");
    let store_dir = dir.join("store");
    std::fs::create_dir_all(&store_dir).unwrap();
    let fixture = PathBuf::from("tests/fixtures/tap-v1-57bf155");
    for file in [TAP_FILE, STREAM_FILE] {
        std::fs::copy(fixture.join(file), store_dir.join(file)).unwrap();
    }
    let v1 = std::fs::read(store_dir.join(STREAM_FILE)).unwrap();
    assert_eq!(&v1[..6], b"FQIS\x01\x00", "the fixture is a version-1 file");
    let bind = |log: &str| {
        Server::bind(ServerConfig {
            engine: DedupConfig {
                persist: Some(PersistConfig::new(&store_dir).fsync(FsyncPolicy::Never)),
                ..small_engine()
            },
            log_file: Some(dir.join(log)),
            ..ServerConfig::default()
        })
        .expect("an old tap.fqis must not prevent binding")
    };

    // What was committed, and the tap that never restarted.
    let cipher = |g: u64| {
        let plain = fixture_plain(g);
        let chunks = plain.chunks.iter().map(|rec| {
            freqdedup::trace::ChunkRecord::new(
                rec.fp.0.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                rec.size,
            )
        });
        Backup::from_chunks(plain.label.clone(), chunks.collect())
    };
    let committed: Vec<std::sync::Arc<Backup>> = (0..3).map(|g| cipher(g).into()).collect();
    let live = TapStreaming::rebuild(&committed);
    let aux = fixture_plain(3);
    let params = LocalityParams::new(1, 3, 1000);

    // ---- First bind: the catalog is imported, version 1 is refused and
    // the catalog folded.
    let server = bind("server-v1.log");
    let addr = server.local_addr().unwrap();
    let tap = server.tap_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    assert!(store_dir.join(CATALOG_FILE).exists());
    assert!(!store_dir.join(TAP_FILE).exists(), "imported once");
    tap.with_tap(|t| {
        assert_eq!(t.warnings(), 1, "the fold is a counted degradation");
        assert_eq!(t.committed(), committed);
        assert_eq!(t.streaming(), &live);
        let mut differ = Vec::new();
        for (policy, inferred) in
            t.streaming_inference_both_policies(AttackKind::Locality, &aux, &params)
        {
            let batch = attacks::run_ciphertext_only_series(
                AttackKind::Locality,
                t.committed(),
                &aux,
                &params.clone().tie_policy(policy),
            );
            let mut a: Vec<_> = inferred.iter().collect();
            let mut b: Vec<_> = batch.iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{policy:?}");
            differ.push(a);
        }
        assert_ne!(differ[0], differ[1], "the fixture tells the policies apart");
    });
    // One more commit whose label sorts first: from here on a label-order
    // replay and the live state (commit order) differ.
    let mut c = Client::connect(addr, "upgrader").unwrap();
    let late = Backup::from_chunks("first", cipher(4).chunks);
    c.upload_backup(&late).unwrap();
    c.commit(&late.label).unwrap();
    let pre_restart = tap.with_tap(|t| t.streaming().clone());
    assert!(c.stats().unwrap().tap_warnings >= 1);
    c.shutdown().unwrap();
    handle.join().unwrap();

    // ---- Shutdown wrote one version-2 blob.
    let v2 = std::fs::read(store_dir.join(STREAM_FILE)).unwrap();
    assert_eq!(&v2[..6], b"FQIS\x02\x00");
    let mut rest = v2.as_slice();
    assert_eq!(
        &IncrementalStats::read_from(&mut rest).unwrap(),
        pre_restart.stats()
    );
    assert!(rest.is_empty(), "one blob, nothing after it");

    // ---- Second bind resumes that blob: no warning, and the commit-order
    // state — what a fold of the journal gives, and a label-order replay
    // could not.
    let server = bind("server-v2.log");
    let addr = server.local_addr().unwrap();
    let tap = server.tap_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    tap.with_tap(|t| {
        assert_eq!(t.warnings(), 0);
        assert_eq!(t.streaming(), &pre_restart);
        assert_eq!(t.streaming(), &TapStreaming::rebuild(t.committed()));
        let mut by_label = t.committed().to_vec();
        by_label.sort_by(|a, b| a.label.cmp(&b.label));
        assert_ne!(t.streaming(), &TapStreaming::rebuild(&by_label));
    });
    let mut c = Client::connect(addr, "checker").unwrap();
    assert_eq!(c.stats().unwrap().tap_warnings, 0);
    c.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

/// `tests/fixtures/tap-v2-b7d3758` is the `tap.fqdt` + version-2
/// `tap.fqis` + `tap.cids` a server wrote at commit b7d3758 after client
/// "fixture" committed the ciphertexts of [`fixture_plain`] generations 2,
/// 0 and 1 — in that order, not label order — under commit ids 0x102,
/// 0x100 and 0x101, then ran GC under id 0x200 and REKEY (secret
/// `fixture-secret`) under id 0x300. A server bound on it imports the
/// pre-catalog files into `catalog.log` (manifests in label order),
/// resumes the saved state — a prefix of that catalog — without a fold,
/// and answers every recorded commit id with its recorded ack.
#[test]
fn tap_v2_fixture_resumes_without_replay_and_replays_recorded_acks() {
    use freqdedup::core::IncrementalStats;
    use freqdedup::server::client::GcSummary;
    use freqdedup::server::server::{CIDS_FILE, STREAM_FILE, TAP_FILE};
    use freqdedup::server::tap::TapStreaming;

    let dir = test_dir("fqis-v2-fixture");
    let store_dir = dir.join("store");
    std::fs::create_dir_all(&store_dir).unwrap();
    let fixture = PathBuf::from("tests/fixtures/tap-v2-b7d3758");
    for file in [TAP_FILE, STREAM_FILE, CIDS_FILE] {
        std::fs::copy(fixture.join(file), store_dir.join(file)).unwrap();
    }
    let saved =
        IncrementalStats::read_from(std::fs::File::open(fixture.join(STREAM_FILE)).unwrap())
            .unwrap();
    let server = Server::bind(ServerConfig {
        engine: DedupConfig {
            persist: Some(PersistConfig::new(&store_dir).fsync(FsyncPolicy::Never)),
            ..small_engine()
        },
        log_file: Some(dir.join("server.log")),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let tap = server.tap_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    tap.with_tap(|t| {
        assert_eq!(t.warnings(), 0);
        assert!(t.streaming_consistent());
        assert_eq!(t.streaming().stats(), &saved);
        assert_ne!(
            t.streaming(),
            &TapStreaming::rebuild(t.committed()),
            "a label-order replay could not have produced the resumed state"
        );
    });
    tap.with_catalog(|c| assert_eq!(c.applied_commits().len(), 5));

    let mut c = Client::connect(addr, "fixture").unwrap();
    for g in 0..3u64 {
        let label = format!("gen-{g}");
        assert_eq!(c.commit_with_id(&label, 0x100 + g).unwrap(), 160, "{label}");
    }
    assert_eq!(c.gc(500, 0x200).unwrap(), GcSummary::default());
    assert_eq!(c.rekey(b"fixture-secret", 0x300).unwrap(), (1, 8));
    let stats = c.stats().unwrap();
    assert_eq!(stats.logical_chunks, 0, "replays ingest nothing");
    assert_eq!(stats.tap_warnings, 0);
    c.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

/// A `tap.fqdt` that is valid but for one backup's chunk count, forged to
/// 2^40, is a typed bind failure: the count bounds a loop that runs off
/// the end of the file, never a reservation (at b7d3758 this aborted the
/// process on a 16 TiB allocation).
#[test]
fn forged_tap_catalog_fails_bind_typed() {
    use freqdedup::server::server::{ServeError, TAP_FILE};
    use freqdedup::trace::ChunkRecord;

    let dir = test_dir("forged-fqdt");
    let store_dir = dir.join("store");
    std::fs::create_dir_all(&store_dir).unwrap();
    let mut series = BackupSeries::new("s");
    series.push(Backup::from_chunks("b", vec![ChunkRecord::new(7u64, 64)]));
    let mut bytes = freqdedup::trace::io::to_bytes(&series);
    // magic 4, version 2, name 4 + 1, backup count 4, label 4 + 1.
    bytes[20..28].copy_from_slice(&(1u64 << 40).to_le_bytes());
    std::fs::write(store_dir.join(TAP_FILE), &bytes).unwrap();
    let bound = Server::bind(ServerConfig {
        engine: DedupConfig {
            persist: Some(PersistConfig::new(&store_dir).fsync(FsyncPolicy::Never)),
            ..small_engine()
        },
        log_file: Some(dir.join("server.log")),
        ..ServerConfig::default()
    });
    assert!(matches!(bound, Err(ServeError::Tap(_))));
    done(&dir);
}

// ---------------------------------------------------------------------------
// Exactly-once commits (PR 7)
// ---------------------------------------------------------------------------

/// The client-chosen commit id makes COMMIT-MANIFEST idempotent (its
/// replay within one server is `session::tests`'s): a session that dies
/// mid-upload after declaring its id is parked and its successor resumes
/// from the acked-batch watermark, whether or not the server has seen the
/// EOF yet, and the applied-commit registry survives a graceful restart
/// via `catalog.log`.
#[test]
fn commit_ids_are_exactly_once_across_reconnects() {
    use freqdedup::server::client::{ResilientClient, RetryOptions};
    use freqdedup::server::proto::ResumeState;

    let dir = test_dir("exactly-once");
    let store_dir = dir.join("store");
    let persist_engine = || DedupConfig {
        persist: Some(PersistConfig::new(&store_dir).fsync(FsyncPolicy::Never)),
        ..small_engine()
    };
    let (addr, handle) = start(ServerConfig {
        workers: 2,
        engine: persist_engine(),
        log_file: Some(dir.join("server1.log")),
        ..ServerConfig::default()
    });

    let backup = Backup::from_chunks(
        "eo-backup",
        (0..300u64)
            .map(|i| freqdedup::trace::ChunkRecord::new(i % 120, 64))
            .collect(),
    );

    // ---- Commit once under a client-chosen commit id.
    let mut c = Client::connect(addr, "once").unwrap();
    let (state, acked, chunks) = c.resume(7).unwrap();
    assert_eq!((state, acked, chunks), (ResumeState::Fresh, 0, 0));
    c.upload_backup(&backup).unwrap();
    assert_eq!(c.commit_with_id(&backup.label, 7).unwrap(), 300);
    drop(c);

    // ---- A session that declared its commit id and died mid-upload is
    // parked under the client name; the successor adopts the ingested
    // prefix and finishes without resending acked batches.
    let parked_backup = Backup::from_chunks(
        "parked-backup",
        (1000..1300u64)
            .map(|i| freqdedup::trace::ChunkRecord::new(i, 32))
            .collect(),
    );
    let half = Backup::from_chunks(
        parked_backup.label.clone(),
        parked_backup.chunks[..150].to_vec(),
    );
    let mut c1 = Client::connect(addr, "parker").unwrap().batch(50);
    assert_eq!(c1.resume(9).unwrap().0, ResumeState::Fresh);
    c1.upload_backup(&half).unwrap();
    drop(c1); // dies before COMMIT — the server parks the 3 acked batches

    // The successor's RESUME waits until the broken session has parked,
    // whether or not the server has seen the EOF yet.
    let mut c2 = Client::connect(addr, "parker").unwrap().batch(50);
    let (state, acked, _) = c2.resume(9).unwrap();
    assert_eq!(
        (state, acked),
        (ResumeState::InProgress, 3),
        "three 50-chunk batches were acked before the drop"
    );
    let tail = Backup::from_chunks(
        parked_backup.label.clone(),
        parked_backup.chunks[150..].to_vec(),
    );
    c2.upload_backup(&tail).unwrap();
    assert_eq!(c2.commit_with_id(&parked_backup.label, 9).unwrap(), 300);
    // The tap observed exactly the full stream, in order, once.
    let observed = c2.restore(&parked_backup.label).unwrap().backup;
    assert_eq!(observed.chunks, parked_backup.chunks);
    drop(c2);

    // ---- ResilientClient against a healthy server: one attempt, no
    // retries, same exactly-once path.
    let resilient_backup = Backup::from_chunks(
        "resilient-backup",
        (2000..2200u64)
            .map(|i| freqdedup::trace::ChunkRecord::new(i, 48))
            .collect(),
    );
    let mut rc = ResilientClient::new(addr.to_string(), "resilient", RetryOptions::default());
    assert_eq!(rc.upload_commit(&resilient_backup, 11).unwrap(), 200);
    assert_eq!(rc.report().attempts, 1);
    assert_eq!(rc.report().retries, 0);
    assert_eq!(rc.report().connects, 1);
    drop(rc);

    // ---- The applied-commit registry survives a graceful restart. The
    // store root holds the catalog and the tap cache, and no pre-catalog
    // file.
    let mut closer = Client::connect(addr, "closer").unwrap();
    closer.shutdown().unwrap();
    handle.join().unwrap();
    {
        use freqdedup::server::server::{CATALOG_FILE, CIDS_FILE, STREAM_FILE, TAP_FILE};
        assert!(store_dir.join(CATALOG_FILE).exists());
        assert!(store_dir.join(STREAM_FILE).exists());
        assert!(!store_dir.join(TAP_FILE).exists());
        assert!(!store_dir.join(CIDS_FILE).exists());
    }

    let (addr, handle) = start(ServerConfig {
        workers: 2,
        engine: persist_engine(),
        log_file: Some(dir.join("server2.log")),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr, "once").unwrap();
    let (state, _, chunks) = c.resume(7).unwrap();
    assert_eq!(
        (state, chunks),
        (ResumeState::Committed, 300),
        "commit ids survive restart"
    );
    let (state, _, chunks) = c.resume(9).unwrap();
    assert_eq!((state, chunks), (ResumeState::Committed, 300));
    let (state, _, chunks) = c.resume(11).unwrap();
    assert_eq!((state, chunks), (ResumeState::Committed, 200));
    c.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

/// A RESUME for a client whose earlier resumable session is still
/// running — connected and idle, its progress not yet parked — stops that
/// session and adopts its progress: the successor continues from the
/// acked batches instead of re-sending them, and the store ingests each
/// chunk once.
#[test]
fn resume_fences_a_running_session_and_adopts_its_progress() {
    use freqdedup::server::proto::ResumeState;

    let dir = test_dir("resume-fence");
    let (addr, handle) = start(ServerConfig {
        engine: small_engine(),
        log_file: Some(dir.join("server.log")),
        ..ServerConfig::default()
    });
    let backup = Backup::from_chunks(
        "fenced",
        (5000..5300u64)
            .map(|i| freqdedup::trace::ChunkRecord::new(i, 32))
            .collect(),
    );
    let part = |range: std::ops::Range<usize>| {
        Backup::from_chunks(backup.label.clone(), backup.chunks[range].to_vec())
    };

    // Session A declares commit id 9 and has three 50-chunk batches
    // acked, then idles with its connection open.
    let mut a = Client::connect(addr, "parker").unwrap().batch(50);
    assert_eq!(a.resume(9).unwrap().0, ResumeState::Fresh);
    a.upload_backup(&part(0..150)).unwrap();

    // Session B of the same client resumes the same upload.
    let mut b = Client::connect(addr, "parker").unwrap().batch(50);
    assert_eq!(b.resume(9).unwrap(), (ResumeState::InProgress, 3, 150));
    b.upload_backup(&part(150..300)).unwrap();
    assert_eq!(b.commit_with_id(&backup.label, 9).unwrap(), 300);
    assert_eq!(
        b.stats().unwrap().logical_chunks,
        300,
        "no chunk ingested twice"
    );
    assert_eq!(
        b.restore(&backup.label).unwrap().backup.chunks,
        backup.chunks
    );
    // The server closed the superseded session.
    assert!(a.stats().is_err());
    b.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

/// A content-mode upload through a proxy that cuts the connection after
/// the server has acked at least one payload batch: the resilient client
/// reconnects, RESUMEs, skips the acked batches, re-sends the rest with
/// their payloads, and commits. The restore returns every payload byte for
/// byte, and the store counts each chunk once.
#[test]
fn resumable_payload_upload_survives_a_cut_after_acked_batches() {
    use freqdedup::server::client::{ResilientClient, RetryOptions};
    use freqdedup::server::fault::{FaultPlan, FaultProxy, FaultSpec, NetFault};
    use std::time::Duration;

    const BATCH: usize = 40;
    let backup = Backup::from_chunks(
        "payload-resume",
        (0..400u64)
            .map(|i| freqdedup::trace::ChunkRecord::new(7000 + i % 300, 48 + (i % 5) as u32 * 16))
            .collect(),
    );
    let batches = backup.chunks.len().div_ceil(BATCH) as u64;
    // Frames per direction: HELLO, RESUME, one per batch, COMMIT. Replies
    // 2..2 + batches are the PUT acks.
    let frames = batches + 3;
    let first_cut = |spec: FaultSpec, conn: u64, direction: u64| {
        let mut plan = FaultPlan::for_connection(spec, conn, direction);
        (0..frames).find(|_| plan.next_event(64) == NetFault::Reset)
    };
    // A schedule that cuts the first connection while relaying a PUT ack
    // from the server (so at least one batch was ingested before the cut)
    // and never cuts a request nor the second connection.
    let spec = (0..100_000u64)
        .map(|seed| FaultSpec::quiet(seed).resets(100))
        .find(|&spec| {
            matches!(first_cut(spec, 0, 1), Some(j) if (2..2 + batches).contains(&j))
                && first_cut(spec, 0, 0).is_none()
                && first_cut(spec, 1, 0).is_none()
                && first_cut(spec, 1, 1).is_none()
        })
        .expect("a seed with one cut after an acked batch");

    let dir = test_dir("payload-resume");
    let (addr, handle) = start(ServerConfig {
        engine: small_engine(),
        log_file: Some(dir.join("server.log")),
        ..ServerConfig::default()
    });
    let proxy = FaultProxy::start(addr, spec).unwrap();
    let opts = RetryOptions {
        max_attempts: 4,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        op_timeout: Duration::from_secs(5),
        batch: BATCH,
    };
    let mut rc = ResilientClient::new(proxy.local_addr().to_string(), "payload-resume", opts);
    let payload_of = |r: &freqdedup::trace::ChunkRecord| synthetic_payload(r.fp, r.size);
    assert_eq!(
        rc.upload_commit_payloads(&backup, &payload_of, 21).unwrap(),
        400
    );
    let report = rc.report().clone();
    assert_eq!(
        proxy
            .counts()
            .resets
            .load(std::sync::atomic::Ordering::SeqCst),
        1
    );
    proxy.stop();
    assert_eq!((report.connects, report.retries), (2, 1), "{report:?}");
    assert!(
        (1..batches).contains(&report.batches_skipped),
        "the acked batches were skipped, the rest re-sent: {report:?}"
    );

    let mut c = Client::connect(addr, "verify").unwrap();
    let restored = c.restore(&backup.label).unwrap();
    assert_eq!(restored.backup.chunks, backup.chunks);
    let expected: Vec<Vec<u8>> = backup.chunks.iter().map(payload_of).collect();
    assert_eq!(restored.payloads, Some(expected), "payloads byte-identical");
    let stats = c.stats().unwrap();
    assert_eq!(stats.logical_chunks, 400, "each chunk counted once");
    assert_eq!(stats.unique_chunks, 300);
    c.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

/// The service never waits on the adversary: while another thread sits
/// inside `TapView::with_tap`, a client's COMMIT is acked and RESTORE,
/// STATS and RESUME are answered, each within a 2 s deadline. Once the
/// viewer lets go, the tap has folded the commit.
#[test]
fn acks_do_not_wait_on_a_held_tap() {
    use std::sync::Barrier;
    use std::time::Duration;

    use freqdedup::server::proto::ResumeState;
    use freqdedup::server::tap::TapStreaming;

    let dir = test_dir("tap-decoupled");
    let (addr, handle, tap) = start_tapped(ServerConfig {
        engine: small_engine(),
        log_file: Some(dir.join("server.log")),
        ..ServerConfig::default()
    });
    let backup = Backup::from_chunks(
        "decoupled",
        (0..200u64)
            .map(|i| freqdedup::trace::ChunkRecord::new(i % 70, 64))
            .collect(),
    );
    let mut c = Client::connect(addr, "decoupled").unwrap();
    c.set_op_timeout(Some(Duration::from_secs(2))).unwrap();
    assert_eq!(c.resume(5).unwrap().0, ResumeState::Fresh);
    c.upload_backup(&backup).unwrap();

    let (inside, release) = (Barrier::new(2), Barrier::new(2));
    let (commit, restore, stats, resume) = std::thread::scope(|scope| {
        let viewer = scope.spawn(|| {
            tap.with_tap(|_| {
                inside.wait();
                release.wait();
            });
        });
        inside.wait();
        // The viewer holds the tap until every reply is in.
        let results = (
            c.commit_with_id(&backup.label, 5),
            c.restore(&backup.label),
            c.stats(),
            c.resume(5),
        );
        release.wait();
        viewer.join().unwrap();
        results
    });
    assert_eq!(commit.unwrap(), 200, "COMMIT acked while the tap was held");
    assert_eq!(restore.unwrap().backup.chunks, backup.chunks);
    assert_eq!(stats.unwrap().committed_backups, 1);
    assert_eq!(resume.unwrap(), (ResumeState::Committed, 0, 200));
    tap.with_tap(|t| {
        assert_eq!(t.streaming().commits(), 1, "the commit was folded");
        assert!(t.streaming_consistent());
        assert_eq!(t.streaming(), &TapStreaming::rebuild(t.committed()));
    });
    c.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

// ---------------------------------------------------------------------------
// Storage lifecycle over the wire (PR 10)
// ---------------------------------------------------------------------------

/// DELETE-BACKUP, GC and REKEY round-trip the wire with exactly-once
/// semantics riding the commit-id registry, epoch fencing refuses reads
/// from sessions that negotiated before a rekey, and the whole lifecycle
/// state (deletion, registry entries, epoch, and the adversary state that
/// still counts the deleted stream) survives a graceful restart — a
/// restarted server needs the epoch secret to open the store at all.
#[test]
fn lifecycle_ops_round_trip_with_exactly_once_and_epoch_fencing() {
    let dir = test_dir("lifecycle-wire");
    let store_dir = dir.join("store");
    let secret = b"reed-epoch-secret";
    let persist_engine = || DedupConfig {
        persist: Some(PersistConfig::new(&store_dir).fsync(FsyncPolicy::Never)),
        ..small_engine()
    };
    let payload = |rec: &freqdedup::trace::ChunkRecord| synthetic_payload(rec.fp, rec.size);
    let mk = |label: &str, fps: std::ops::Range<u64>| {
        Backup::from_chunks(
            label,
            fps.map(|i| freqdedup::trace::ChunkRecord::new(i, 64))
                .collect(),
        )
    };
    // The victim shares boundary chunks with both survivors; 100..180 are
    // exclusive to it and must be physically reclaimed by GC.
    let keep_a = mk("keep-a", 0..100);
    let victim = mk("victim", 80..200);
    let keep_b = mk("keep-b", 180..260);

    let (addr, handle, tap) = start_tapped(ServerConfig {
        engine: persist_engine(),
        log_file: Some(dir.join("server1.log")),
        ..ServerConfig::default()
    });

    let mut c = Client::connect(addr, "lifecycle").unwrap();
    for b in [&keep_a, &victim, &keep_b] {
        c.upload_backup_payloads(b, payload).unwrap();
        c.commit(&b.label).unwrap();
    }

    // A session that negotiates *before* the rekey, to be fenced later.
    let mut stale = Client::connect(addr, "pre-rekey").unwrap();
    stale.verify_restore(&keep_a, Some(&payload)).unwrap();

    // ---- DELETE-BACKUP: releases the recipe, shrinks the tap catalog.
    // Its replays before a restart, and the refusals of a fresh delete
    // and of the empty REKEY secret, are `session::tests`'s.
    let (chunks, bytes) = c.delete_backup("victim", 21).unwrap();
    assert_eq!((chunks, bytes), (120, 120 * 64));

    // ---- GC: physically reclaims the victim-exclusive chunks.
    let summary = c.gc(1000, 22).unwrap();
    assert!(summary.containers_dropped > 0, "GC dropped nothing");
    assert!(
        summary.reclaimed_bytes >= 80 * 64,
        "exclusive chunks not reclaimed: {summary:?}"
    );
    // Survivors restore bit-for-bit; a reclaimed chunk is gone.
    c.verify_restore(&keep_a, Some(&payload)).unwrap();
    c.verify_restore(&keep_b, Some(&payload)).unwrap();
    assert!(c
        .get_chunk(freqdedup::trace::Fingerprint(150))
        .unwrap()
        .is_none());

    // ---- REKEY. What the provider has observed: the series and the running
    // inference (both tie policies), as sorted pairs.
    let params = LocalityParams::new(2, 5, 1000);
    let leaked = |t: &freqdedup::server::tap::AdversaryTap| {
        let inferred = t.streaming_inference_both_policies(AttackKind::Locality, &keep_a, &params);
        let pairs = inferred.map(|(policy, inference)| {
            let mut pairs: Vec<_> = inference.iter().collect();
            pairs.sort_unstable();
            (policy, pairs)
        });
        (t.series("observed"), pairs)
    };
    let before_rekey = tap.with_tap(leaked);
    let (epoch, rewritten) = c.rekey(secret, 23).unwrap();
    // Rekeying protects keys, not frequencies: the provider learns the
    // same after it as before, plus the rekey itself.
    tap.with_tap(|t| {
        assert_eq!(leaked(t), before_rekey, "a rekey changes no observable");
        assert_eq!(
            t.lifecycle_events().last(),
            Some(&freqdedup::server::tap::LifecycleEvent::Rekey { epoch })
        );
    });
    assert_eq!(epoch, 1);
    assert!(rewritten > 0, "rekey rewrote nothing");
    // The rekeying session reads on; the pre-rekey session is fenced.
    c.verify_restore(&keep_a, Some(&payload)).unwrap();
    match stale.restore("keep-a") {
        Err(ClientError::Server { code: cd, .. }) => assert_eq!(cd, code::STALE_EPOCH),
        other => panic!("expected STALE_EPOCH, got {other:?}"),
    }
    // The fence is per-session, not per-connection-slot: reconnecting
    // renegotiates at the current epoch and reads fine.
    drop(stale);
    let mut fresh = Client::connect(addr, "post-rekey").unwrap();
    fresh.verify_restore(&keep_b, Some(&payload)).unwrap();
    drop(fresh);

    let stats1 = c.stats().unwrap();
    assert_eq!(stats1.committed_backups, 3, "commit counter is monotonic");
    let observed = tap.with_tap(|t| t.streaming().clone());
    assert_eq!(observed.commits(), 3, "the deleted stream stays observed");
    c.shutdown().unwrap();
    handle.join().unwrap();

    // ---- Restart: the store now *requires* the epoch secret.
    assert!(
        Server::bind(ServerConfig {
            engine: persist_engine(),
            log_file: Some(dir.join("server-nokey.log")),
            ..ServerConfig::default()
        })
        .is_err(),
        "binding without the epoch secret must fail"
    );
    let (addr, handle, tap) = start_tapped(ServerConfig {
        engine: DedupConfig {
            persist: Some(
                PersistConfig::new(&store_dir)
                    .fsync(FsyncPolicy::Never)
                    .epoch_secret(1, secret.to_vec()),
            ),
            ..small_engine()
        },
        log_file: Some(dir.join("server2.log")),
        ..ServerConfig::default()
    });
    tap.with_tap(|t| assert_eq!(t.streaming(), &observed));
    let mut c = Client::connect(addr, "lifecycle").unwrap();
    // The commit clock does not wind back; the catalog shrank for good:
    // only the survivors are served.
    assert_eq!(c.stats().unwrap().committed_backups, 3);
    match c.restore("victim") {
        Err(ClientError::Server { code: cd, .. }) => assert_eq!(cd, code::UNKNOWN_LABEL),
        other => panic!("expected UNKNOWN_LABEL, got {other:?}"),
    }
    // The applied-op registry survived: all three lifecycle replays
    // return their recorded acks without touching the store.
    assert_eq!(c.delete_backup("victim", 21).unwrap(), (120, 120 * 64));
    assert_eq!(c.gc(1000, 22).unwrap(), summary);
    assert_eq!(c.rekey(secret, 23).unwrap(), (epoch, rewritten));
    // A fresh conservative GC pass finds nothing dead.
    let idle = c.gc(0, 31).unwrap();
    assert_eq!(idle.containers_dropped, 0);
    assert_eq!(idle.reclaimed_bytes, 0);
    // Restores still verify bit-for-bit under the new epoch.
    c.verify_restore(&keep_a, Some(&payload)).unwrap();
    c.verify_restore(&keep_b, Some(&payload)).unwrap();
    c.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

// ---------------------------------------------------------------------------
// The write-ahead catalog
// ---------------------------------------------------------------------------

/// Copies a store directory, shard subdirectories included.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// An acked COMMIT survives a crash. The store directory is copied right
/// after the ack, while the server still runs (a crash image: no
/// shutdown ever touched it), and a second server is bound on the copy.
/// It lists the backup in STATS, restores it, answers RESUME with
/// `Committed`, treats a resent COMMIT as a replay that changes no
/// counter, and holds the adversary state the live server held at the
/// ack, bit for bit.
#[test]
fn acked_commit_survives_a_crash_image() {
    use freqdedup::server::proto::ResumeState;

    let dir = test_dir("crash-image");
    let config = |store: &str, log: &str| ServerConfig {
        engine: DedupConfig {
            persist: Some(PersistConfig::new(dir.join(store)).fsync(FsyncPolicy::Always)),
            ..small_engine()
        },
        log_file: Some(dir.join(log)),
        ..ServerConfig::default()
    };
    let backup = Backup::from_chunks(
        "Jan 22",
        (0..300u64)
            .map(|i| freqdedup::trace::ChunkRecord::new(i % 120, 64))
            .collect(),
    );

    let (addr, handle, tap) = start_tapped(config("live", "live.log"));
    let mut c = Client::connect(addr, "crash").unwrap();
    assert_eq!(c.resume(7).unwrap().0, ResumeState::Fresh);
    c.upload_backup(&backup).unwrap();
    assert_eq!(c.commit_with_id(&backup.label, 7).unwrap(), 300);
    let at_ack = tap.with_tap(|t| t.streaming().clone());
    copy_dir(&dir.join("live"), &dir.join("image"));
    c.shutdown().unwrap();
    handle.join().unwrap();

    let (addr, handle, tap) = start_tapped(config("image", "image.log"));
    tap.with_tap(|t| assert_eq!(t.streaming(), &at_ack));
    let mut c = Client::connect(addr, "crash").unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.committed_backups, 1, "STATS after crash");
    assert_eq!(
        c.restore(&backup.label).unwrap().backup.chunks,
        backup.chunks,
        "RESTORE after crash"
    );
    assert_eq!(
        c.resume(7).unwrap(),
        (ResumeState::Committed, 0, 300),
        "RESUME 7 after crash"
    );
    assert_eq!(
        c.commit_with_id(&backup.label, 7).unwrap(),
        300,
        "replayed COMMIT 7 after crash"
    );
    assert_eq!(c.stats().unwrap(), stats, "a replay changes no counter");
    tap.with_tap(|t| assert_eq!(t.streaming(), &at_ack));
    c.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

/// The retention clock is the catalog's COMMIT count: commit three, delete
/// the first, restart and commit again, and the store's timestamps still
/// strictly increase (a clock seeded from the live count would reissue
/// the third one's).
#[test]
fn commit_clock_survives_a_delete_and_a_restart() {
    let dir = test_dir("commit-clock");
    let store_dir = dir.join("store");
    let config = |log: &str| ServerConfig {
        engine: DedupConfig {
            persist: Some(PersistConfig::new(&store_dir).fsync(FsyncPolicy::Never)),
            ..small_engine()
        },
        log_file: Some(dir.join(log)),
        ..ServerConfig::default()
    };
    let mk = |g: u64| {
        Backup::from_chunks(
            format!("gen-{g}"),
            (g * 10..g * 10 + 40)
                .map(|i| freqdedup::trace::ChunkRecord::new(i, 32))
                .collect(),
        )
    };
    let (addr, handle) = start(config("server1.log"));
    let mut c = Client::connect(addr, "clock").unwrap();
    for g in 0..3 {
        c.upload_backup(&mk(g)).unwrap();
        c.commit(&mk(g).label).unwrap();
    }
    c.delete_backup("gen-0", 0).unwrap();
    c.shutdown().unwrap();
    handle.join().unwrap();

    let (addr, handle) = start(config("server2.log"));
    let mut c = Client::connect(addr, "clock").unwrap();
    c.upload_backup(&mk(3)).unwrap();
    c.commit(&mk(3).label).unwrap();
    assert_eq!(c.stats().unwrap().committed_backups, 4);
    c.shutdown().unwrap();
    handle.join().unwrap();

    let engine = ShardedDedupEngine::open(config("unused.log").engine, 4).unwrap();
    let stamps: Vec<u64> = engine.committed_backups().iter().map(|&(_, t)| t).collect();
    assert_eq!(stamps.len(), 3);
    assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
    engine.close().unwrap();
    done(&dir);
}

/// A `catalog.log` whose header has a flipped byte is a typed bind
/// failure — a store error, like a foreign `manifest.log` — not an empty
/// catalog.
#[test]
fn corrupt_catalog_header_fails_bind_typed() {
    use freqdedup::server::server::{ServeError, CATALOG_FILE};

    let dir = test_dir("catalog-header");
    let store_dir = dir.join("store");
    let config = || ServerConfig {
        engine: DedupConfig {
            persist: Some(PersistConfig::new(&store_dir).fsync(FsyncPolicy::Never)),
            ..small_engine()
        },
        log_file: Some(dir.join("server.log")),
        ..ServerConfig::default()
    };
    let (addr, handle) = start(config());
    Client::connect(addr, "closer").unwrap().shutdown().unwrap();
    handle.join().unwrap();
    let path = store_dir.join(CATALOG_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[1] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Server::bind(config()),
        Err(ServeError::Persist(PersistError::BadMagic { .. }))
    ));
    done(&dir);
}

/// A COMMIT whose catalog append fails, at every catalog fault site in
/// both modes, is answered NOT_DURABLE and is not in the catalog: STATS
/// and RESTORE do not see it, a re-upload on the same server is acked
/// (its append first cuts the failed one's tail), and a rebind finds
/// exactly the acked records and no store backup outside them. A crash
/// image taken right after the failure rebinds too: a failed write left
/// no record or a torn one, so the bind releases the orphaned store
/// backup; a failed sync left a whole record, whose commit then stands.
#[test]
fn failed_catalog_append_is_not_durable_at_every_catalog_site() {
    use std::sync::atomic::Ordering;

    use freqdedup::server::catalog::{Catalog, CatalogRecord};
    use freqdedup::store::fault::{FailAt, FailMode, PersistSite, CATALOG_SITES};

    let dir = test_dir("catalog-faults");
    let mk = |label: &str, first: u64| {
        let chunks = (first..first + 40).map(|i| freqdedup::trace::ChunkRecord::new(i, 32));
        Backup::from_chunks(label, chunks.collect())
    };
    let (a, b) = (mk("a", 0), mk("b", 20));
    let persist = |store: &PathBuf| PersistConfig::new(store).fsync(FsyncPolicy::Never);
    let config = |persist: PersistConfig, log: PathBuf| ServerConfig {
        engine: DedupConfig {
            persist: Some(persist),
            ..small_engine()
        },
        log_file: Some(log),
        ..ServerConfig::default()
    };
    let unknown = |r: Result<_, ClientError>| matches!(r, Err(ClientError::Server { code: c, .. }) if c == code::UNKNOWN_LABEL);
    // Rebinds `store` cleanly and checks that the catalog commits exactly
    // `acked`, and that the store holds their backups and no other.
    let check = |store: &PathBuf, acked: &[&Backup], tag: &str| {
        let (addr, handle) = start(config(persist(store), store.with_extension("log")));
        let mut c = Client::connect(addr, "check").unwrap();
        let stats = c.stats().unwrap();
        assert_eq!(stats.committed_backups, acked.len() as u64, "{tag}");
        for backup in acked {
            let restored = c.restore(&backup.label).unwrap().backup;
            assert_eq!(restored.chunks, backup.chunks, "{tag}");
        }
        if acked.len() == 1 {
            assert!(unknown(c.restore("b")), "{tag}");
        }
        c.shutdown().unwrap();
        handle.join().unwrap();
        let records = Catalog::open(&persist(store)).unwrap().take_pending();
        let want: Vec<_> = (1..)
            .zip(acked)
            .map(|(id, &backup)| CatalogRecord::Commit {
                op_id: 0,
                backup_id: id,
                timestamp: id,
                backup: std::sync::Arc::new(backup.clone()),
            })
            .collect();
        assert_eq!(records, want, "{tag}");
        let engine = DedupConfig {
            persist: Some(persist(store)),
            ..small_engine()
        };
        let engine = ShardedDedupEngine::open(engine, ServerConfig::default().shards).unwrap();
        let ids: Vec<u64> = engine
            .committed_backups()
            .iter()
            .map(|&(id, _)| id)
            .collect();
        assert_eq!(ids, (1..=acked.len() as u64).collect::<Vec<_>>(), "{tag}");
        engine.close().unwrap();
    };

    for site in CATALOG_SITES {
        for mode in [FailMode::Error, FailMode::Torn] {
            let tag = format!("{site:?}-{mode:?}");
            let (store, image) = (dir.join(&tag), dir.join(format!("{tag}-image")));
            // A clean server creates the catalog, so the failing server's
            // bind writes nothing to it: the COMMIT's append is the first
            // operation at `site`.
            let (addr, handle) = start(config(persist(&store), dir.join(format!("{tag}-1.log"))));
            let mut c = Client::connect(addr, "faults").unwrap();
            c.upload_backup(&a).unwrap();
            assert_eq!(c.commit("a").unwrap(), 40, "{tag}");
            c.shutdown().unwrap();
            handle.join().unwrap();

            let fail = FailAt::new(site, 0, mode);
            let fired = fail.fired();
            let failing = persist(&store).io_policy(fail);
            let (addr, handle) = start(config(failing, dir.join(format!("{tag}-2.log"))));
            let mut c = Client::connect(addr, "faults").unwrap();
            c.upload_backup(&b).unwrap();
            match c.commit("b") {
                Err(ClientError::Server { code: c, .. }) => {
                    assert_eq!(c, code::NOT_DURABLE, "{tag}");
                }
                other => panic!("{tag}: {other:?}"),
            }
            assert!(fired.load(Ordering::SeqCst), "{tag}: fault never fired");
            assert_eq!(c.stats().unwrap().committed_backups, 1, "{tag}");
            assert!(unknown(c.restore("b")), "{tag}");
            copy_dir(&store, &image);
            c.upload_backup(&b).unwrap();
            assert_eq!(c.commit("b").unwrap(), 40, "{tag}: re-upload");
            c.shutdown().unwrap();
            handle.join().unwrap();

            check(&store, &[&a, &b], &tag);
            let image_acked: &[&Backup] = match site {
                PersistSite::CatalogSync => &[&a, &b],
                _ => &[&a],
            };
            check(&image, image_acked, &format!("{tag} image"));
        }
    }
    done(&dir);
}
