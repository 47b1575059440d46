//! Chaos suite: seeded fault schedules against the resilient client /
//! server stack, plus the persist crash-point matrix.
//!
//! The property under test (DESIGN.md §10): for **any** seeded fault
//! schedule, every client either completes its upload-and-commit with the
//! server's store and adversary-tap state exactly as if each batch had
//! been ingested once (bit-identical to a fault-free run when every
//! client succeeds), or surfaces a clean typed [`ClientError`] — there is
//! no third outcome: no panic, no hang, no double-ingest, no torn commit.
//!
//! Concretely, after every run — faulted or not:
//!
//! * every client thread returns `Ok(chunks)` or a typed error;
//! * the tap catalog's labels are unique, cover exactly the committed
//!   clients, and each committed stream is byte-identical to what its
//!   client sent;
//! * the applied-commit registry maps each successful commit id to its
//!   label and chunk count;
//! * the streaming tap state equals an O(history) batch rebuild of the
//!   commits in arrival order (the incremental-attack invariant);
//! * the store's logical totals are bounded by exactly-once accounting:
//!   at least the committed chunks, at most one ingest per client batch;
//! * when **all** clients succeed, store stats, the label-sorted catalog
//!   and the attack inference (both [`TiePolicy`] variants) are
//!   bit-identical to the fault-free baseline.
//!
//! The crash-point matrix (second half) kills a durable engine with an
//! injected failure at every [`PersistSite`], in both `Error` and `Torn`
//! mode, at the first and a middle occurrence, and asserts recovery
//! equals the sealed-prefix reference — or, for the two store-birth
//! sites, a typed refusal to open the never-valid directory.
//!
//! Test directories live under `target/chaos-test/` so CI can upload them
//! when a test fails; they are removed on success.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

use freqdedup::core::attacks::locality::LocalityParams;
use freqdedup::core::attacks::{self, AttackKind};
use freqdedup::server::catalog::AppliedCommit;
use freqdedup::server::client::{
    Client, ClientError, ResilienceReport, ResilientClient, RetryOptions,
};
use freqdedup::server::fault::{FaultProxy, FaultSpec};
use freqdedup::server::proto::ServerStats;
use freqdedup::server::server::{Server, ServerConfig};
use freqdedup::server::tap::TapStreaming;
use freqdedup::store::engine::{DedupConfig, DedupEngine};
use freqdedup::store::persist::{FsyncPolicy, PersistConfig, PersistError};
use freqdedup::trace::{Backup, ChunkRecord};

/// A fresh directory under `target/chaos-test/` (kept on panic so CI can
/// upload it, removed by [`done`] on success).
fn test_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from("target/chaos-test").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn done(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}

fn small_engine() -> DedupConfig {
    DedupConfig {
        container_bytes: 4096,
        cache_entries: 1024,
        bloom_expected: 100_000,
        ..DedupConfig::default()
    }
}

/// Chunks per client backup (6 batches of 40).
const CHUNKS_PER_CLIENT: u64 = 240;

/// Client `i`'s deterministic backup: overlapping fingerprint ranges so
/// cross-client dedup actually happens.
fn chaos_backup(i: usize) -> Backup {
    Backup::from_chunks(
        format!("chaos-{i}"),
        (0..CHUNKS_PER_CLIENT)
            .map(|j| ChunkRecord::new((j % 96) + (i as u64) * 48, 32))
            .collect(),
    )
}

fn chaos_commit_id(i: usize) -> u64 {
    0x1000 + i as u64
}

/// Everything one chaos run yields for cross-run comparison.
struct RunOutcome {
    /// Per client: `(index, upload result, resilience report)`.
    results: Vec<(usize, Result<u64, ClientError>, ResilienceReport)>,
    /// Tap catalog in arrival (commit) order.
    committed: Vec<Backup>,
    /// Applied-commit registry at shutdown.
    applied: HashMap<u64, AppliedCommit>,
    /// Server stats at shutdown.
    stats: ServerStats,
}

impl RunOutcome {
    fn ok_indices(&self) -> Vec<usize> {
        self.results
            .iter()
            .filter(|(_, r, _)| r.is_ok())
            .map(|(i, _, _)| *i)
            .collect()
    }

    fn all_ok(&self) -> bool {
        self.results.iter().all(|(_, r, _)| r.is_ok())
    }

    /// The catalog, label-sorted — the canonical deterministic view.
    fn sorted_catalog(&self) -> Vec<Backup> {
        let mut sorted = self.committed.clone();
        sorted.sort_by(|a, b| a.label.cmp(&b.label));
        sorted
    }
}

/// One full chaos run: a server (optionally behind a seeded fault proxy),
/// `clients` concurrent [`ResilientClient`] uploads with nonzero commit
/// ids, then tap/stats capture and graceful shutdown.
///
/// Panics when any *invariant* is violated; individual client failures
/// are returned, not panicked — they are a legal outcome under faults.
fn run_chaos(dir: &Path, tag: &str, clients: usize, spec: Option<FaultSpec>) -> RunOutcome {
    let server = Server::bind(ServerConfig {
        workers: clients.max(2),
        engine: small_engine(),
        log_file: Some(dir.join(format!("{tag}.log"))),
        ..ServerConfig::default()
    })
    .unwrap();
    let server_addr = server.local_addr().unwrap();
    let tap = server.tap_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let proxy = spec.map(|s| FaultProxy::start(server_addr, s).unwrap());
    let upload_addr = proxy.as_ref().map_or(server_addr, FaultProxy::local_addr);
    let opts = RetryOptions {
        max_attempts: 10,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(40),
        op_timeout: Duration::from_secs(5),
        batch: 40,
    };

    let results: Vec<(usize, Result<u64, ClientError>, ResilienceReport)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    scope.spawn(move || {
                        let backup = chaos_backup(i);
                        let mut rc = ResilientClient::new(
                            upload_addr.to_string(),
                            format!("chaos-client-{i}"),
                            opts,
                        );
                        let res = rc.upload_commit(&backup, chaos_commit_id(i));
                        (i, res, rc.report().clone())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no third outcome: client must not panic"))
                .collect()
        });

    if let Some(p) = proxy {
        let frames = p.counts().frames.load(std::sync::atomic::Ordering::SeqCst);
        assert!(frames > 0, "{tag}: proxy relayed no frames");
        p.stop();
    }

    // Streaming-tap invariant under one lock: the O(delta) running state
    // equals an O(history) rebuild of the arrival-order commit log.
    let committed: Vec<Backup> = tap.with_tap(|t| {
        assert!(t.streaming_consistent(), "{tag}: streaming inconsistent");
        assert_eq!(
            t.streaming(),
            &TapStreaming::rebuild(t.committed()),
            "{tag}: incremental state diverged from batch rebuild"
        );
        t.committed().iter().map(|b| Backup::clone(b)).collect()
    });
    let applied = tap.with_catalog(|c| c.applied_commits().clone());

    // Shutdown goes directly to the server, never through the proxy.
    let mut closer = Client::connect(server_addr, "closer").unwrap();
    let stats = closer.stats().unwrap();
    closer.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(
        summary.stats.committed_backups,
        committed.len() as u64,
        "{tag}"
    );

    let outcome = RunOutcome {
        results,
        committed,
        applied,
        stats,
    };
    assert_run_invariants(&outcome, clients, tag);
    outcome
}

/// The per-run chaos invariants that hold for any schedule and outcome.
fn assert_run_invariants(run: &RunOutcome, clients: usize, tag: &str) {
    // Every client completed fully or failed typed (Ok(chunks) is always
    // the full backup — a partial success is a protocol violation).
    for (i, res, report) in &run.results {
        match res {
            Ok(chunks) => assert_eq!(*chunks, CHUNKS_PER_CLIENT, "{tag}: client {i}"),
            Err(e) => {
                assert!(
                    matches!(e, ClientError::Exhausted { .. } | ClientError::Wire(_)),
                    "{tag}: client {i} failed outside the fault taxonomy: {e}"
                );
            }
        }
        assert!(report.attempts >= 1, "{tag}: client {i}");
    }

    // Catalog labels are unique and lie within the client label set.
    let labels: Vec<&str> = run.committed.iter().map(|b| b.label.as_str()).collect();
    let unique: HashSet<&str> = labels.iter().copied().collect();
    assert_eq!(unique.len(), labels.len(), "{tag}: duplicate commit labels");
    let all_labels: HashSet<String> = (0..clients).map(|i| chaos_backup(i).label).collect();
    for label in &labels {
        assert!(all_labels.contains(*label), "{tag}: foreign label {label}");
    }

    // Every successful client's stream was committed byte-identically,
    // exactly once, and registered under its commit id.
    for i in run.ok_indices() {
        let expected = chaos_backup(i);
        let committed = run
            .committed
            .iter()
            .find(|b| b.label == expected.label)
            .unwrap_or_else(|| panic!("{tag}: client {i} reported Ok but was never committed"));
        assert_eq!(committed.chunks, expected.chunks, "{tag}: client {i}");
        let entry = run
            .applied
            .get(&chaos_commit_id(i))
            .unwrap_or_else(|| panic!("{tag}: commit id of client {i} not registered"));
        assert_eq!(entry.label, expected.label, "{tag}: client {i}");
        assert_eq!(entry.chunks, CHUNKS_PER_CLIENT, "{tag}: client {i}");
    }

    // Exactly-once accounting bounds the store's logical totals: at least
    // every committed chunk, at most one ingest of each client batch —
    // replayed batches after lost acks must never be counted twice.
    let committed_chunks: u64 = run.committed.iter().map(|b| b.chunks.len() as u64).sum();
    let max_chunks = clients as u64 * CHUNKS_PER_CLIENT;
    assert!(
        run.stats.logical_chunks >= committed_chunks,
        "{tag}: committed chunks missing from the store"
    );
    assert!(
        run.stats.logical_chunks <= max_chunks,
        "{tag}: double-ingest — {} logical chunks for at most {max_chunks}",
        run.stats.logical_chunks
    );
    assert_eq!(
        run.stats.committed_backups,
        run.committed.len() as u64,
        "{tag}"
    );
}

/// The partition-invariant store totals that must be bit-identical to a
/// fault-free run when all clients succeed. The dup-class split
/// (cache/buffer/index hits) and seal boundaries legitimately depend on
/// arrival interleaving, and `sessions_served` grows with reconnects —
/// those are excluded, exactly as in the live-traffic equivalence suite.
fn store_stats(s: &ServerStats) -> [u64; 5] {
    [
        s.logical_chunks,
        s.logical_bytes,
        s.unique_chunks,
        s.unique_bytes,
        s.committed_backups,
    ]
}

/// Attack inference (both tie policies) over a label-sorted catalog, as
/// sorted `(ciphertext, plaintext)` pairs for comparison.
fn catalog_inference(catalog: &[Backup], aux: &Backup) -> [Vec<(u64, u64)>; 2] {
    use freqdedup::core::TiePolicy;
    let params = LocalityParams::new(2, 5, 50_000);
    [TiePolicy::StreamOrder, TiePolicy::KeyOrder].map(|policy| {
        let inf = attacks::run_ciphertext_only_series(
            AttackKind::Locality,
            catalog,
            aux,
            &params.clone().tie_policy(policy),
        );
        let mut pairs: Vec<(u64, u64)> = inf.iter().map(|(c, p)| (c.0, p.0)).collect();
        pairs.sort_unstable();
        pairs
    })
}

/// The chaos property across a pinned matrix of seeded network fault
/// schedules and client counts.
#[test]
fn seeded_network_chaos_has_no_third_outcome() {
    let dir = test_dir("net-chaos");
    let aux = chaos_backup(0);

    for clients in [1usize, 2, 4] {
        // Fault-free baseline for this client count.
        let baseline = run_chaos(&dir, &format!("baseline-{clients}"), clients, None);
        assert!(baseline.all_ok(), "baseline must succeed without faults");
        let baseline_inference = catalog_inference(&baseline.sorted_catalog(), &aux);

        // Full chaos (resets + partial frames + delays), pinned seeds:
        // clients may fail — the invariants must hold either way.
        for seed in [0x00C0_FFEEu64, 7, 0xDEAD_BEEF] {
            let tag = format!("chaos-{clients}-{seed:#x}");
            let run = run_chaos(&dir, &tag, clients, Some(FaultSpec::new(seed)));
            if run.all_ok() {
                assert_eq!(
                    store_stats(&run.stats),
                    store_stats(&baseline.stats),
                    "{tag}: stats vs fault-free"
                );
                assert_eq!(
                    run.sorted_catalog(),
                    baseline.sorted_catalog(),
                    "{tag}: catalog vs fault-free"
                );
                assert_eq!(
                    catalog_inference(&run.sorted_catalog(), &aux),
                    baseline_inference,
                    "{tag}: inference vs fault-free"
                );
            }
        }

        // Delay-only schedule: no connection ever dies, so every client
        // MUST succeed and match the baseline bit-identically — this
        // branch guarantees the all-Ok comparison is always exercised.
        let tag = format!("delays-{clients}");
        let run = run_chaos(
            &dir,
            &tag,
            clients,
            Some(FaultSpec::quiet(99).delays(200, 2)),
        );
        assert!(run.all_ok(), "{tag}: delays alone must not fail a client");
        assert_eq!(
            store_stats(&run.stats),
            store_stats(&baseline.stats),
            "{tag}"
        );
        assert_eq!(run.sorted_catalog(), baseline.sorted_catalog(), "{tag}");
        assert_eq!(
            catalog_inference(&run.sorted_catalog(), &aux),
            baseline_inference,
            "{tag}"
        );
    }

    // A reset-heavy schedule: failures are likely; the invariants (and
    // the no-double-ingest bound in particular) must still hold.
    let run = run_chaos(
        &dir,
        "reset-heavy",
        2,
        Some(FaultSpec::new(0xBAD_5EED).resets(150).partials(80)),
    );
    // Non-vacuity: with ~23% of frames cut, the retry/reconnect machinery
    // must actually have been exercised (an all-clean pass would mean the
    // proxy injected nothing and the suite tests nothing).
    let retries: u64 = run.results.iter().map(|(_, _, r)| r.retries).sum();
    assert!(
        retries > 0 || !run.all_ok(),
        "reset-heavy schedule exercised no retries and no failures"
    );
    done(&dir);
}

// ---------------------------------------------------------------------------
// Batched restore under faults and under shutdown
// ---------------------------------------------------------------------------

/// A restore through a seeded fault proxy is whole or typed: when the
/// schedule lets every frame of the exchange through, the backup comes
/// back exactly; when it cuts or tears any of them — a RESTORE-BATCH
/// frame in particular — the client fails with a typed wire error. Never
/// a hang, never a `RestoredBackup` short of the announced count. The
/// expected outcome of every connection is derived from the same
/// [`FaultPlan`] the proxy runs, so the property is checked per case,
/// not on aggregate.
#[test]
fn restore_through_cut_or_torn_batches_is_whole_or_typed() {
    use freqdedup::server::fault::{FaultPlan, NetFault};

    let dir = test_dir("restore-chaos");
    let server = Server::bind(ServerConfig {
        engine: small_engine(),
        log_file: Some(dir.join("server.log")),
        ..ServerConfig::default()
    })
    .unwrap();
    let server_addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    // 5 200 records: five full RESTORE-BATCH frames and a short sixth.
    let backup = Backup::from_chunks(
        "restore-chaos",
        (0..5200u64)
            .map(|j| ChunkRecord::new(j % 900, 32))
            .collect(),
    );
    let mut direct = Client::connect(server_addr, "uploader").unwrap();
    direct.upload_backup(&backup).unwrap();
    direct.commit(&backup.label).unwrap();

    // Frames of one proxied restore: HELLO + RESTORE-BACKUP upstream;
    // HELLO-ACK + RESTORE-HEADER + six batches downstream.
    const UP_FRAMES: usize = 2;
    const DOWN_FRAMES: usize = 2 + 6;
    let breaks = |fault: NetFault| matches!(fault, NetFault::Reset | NetFault::PartialThenReset(_));
    let (mut whole, mut cut_batches, mut torn_batches) = (0, 0, 0);
    for seed in [0x00C0_FFEEu64, 7, 0xDEAD_BEEF] {
        let spec = FaultSpec::new(seed).resets(60).partials(60);
        let proxy = FaultProxy::start(server_addr, spec).unwrap();
        for conn in 0..8u64 {
            let mut up = FaultPlan::for_connection(spec, conn, 0);
            let mut down = FaultPlan::for_connection(spec, conn, 1);
            let up_broken = (0..UP_FRAMES).any(|_| breaks(up.next_event(64)));
            let down_fault = (0..DOWN_FRAMES)
                .map(|_| down.next_event(64))
                .position(breaks);
            let tag = format!("seed {seed:#x} conn {conn}");

            let result = Client::connect(proxy.local_addr(), "restorer").and_then(|mut c| {
                c.set_op_timeout(Some(Duration::from_secs(5)))?;
                c.restore(&backup.label)
            });
            match result {
                Ok(restored) => {
                    assert!(!up_broken && down_fault.is_none(), "{tag}: survived a cut");
                    assert_eq!(restored.backup, backup, "{tag}: short or altered restore");
                    whole += 1;
                }
                Err(ClientError::Wire(_)) => {
                    assert!(
                        up_broken || down_fault.is_some(),
                        "{tag}: failed unprovoked"
                    );
                    if let (false, Some(frame @ 2..)) = (up_broken, down_fault) {
                        let mut replay = FaultPlan::for_connection(spec, conn, 1);
                        match (0..=frame).map(|_| replay.next_event(64)).last() {
                            Some(NetFault::Reset) => cut_batches += 1,
                            _ => torn_batches += 1,
                        }
                    }
                }
                Err(other) => panic!("{tag}: untyped outcome {other:?}"),
            }
        }
        proxy.stop();
    }
    // Non-vacuity: the pinned seeds exercise all three outcomes.
    assert!(
        whole > 0 && cut_batches > 0 && torn_batches > 0,
        "whole {whole}, cut batches {cut_batches}, torn batches {torn_batches}"
    );

    direct.shutdown().unwrap();
    handle.join().unwrap();
    done(&dir);
}

/// Graceful shutdown drains a session that is mid-restore: a reader that
/// has only taken the header when SHUTDOWN lands still receives every
/// announced record before the server closes the connection.
#[test]
fn shutdown_drains_a_session_mid_restore() {
    use freqdedup::server::client::synthetic_payload;
    use freqdedup::server::frame::{read_frame, write_frame};
    use freqdedup::server::proto::{Message, WIRE_VERSION};

    let dir = test_dir("restore-drain");
    let server = Server::bind(ServerConfig {
        engine: DedupConfig {
            container_bytes: 4 << 20,
            ..small_engine()
        },
        log_file: Some(dir.join("server.log")),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    // 480 records over 8 distinct 100 000-byte chunks: under 1 MiB in
    // the store, a 48 MB restore stream — far more than the loopback socket
    // buffers hold, so the session is blocked mid-stream, not finished,
    // while the reader sits on the header.
    let backup = Backup::from_chunks(
        "drain",
        (0..480u64)
            .map(|j| ChunkRecord::new(j % 8, 100_000))
            .collect(),
    );
    let mut writer = Client::connect(addr, "writer").unwrap().batch(64);
    writer
        .upload_backup_payloads(&backup, |rec| synthetic_payload(rec.fp, rec.size))
        .unwrap();
    writer.commit("drain").unwrap();

    let mut reader = std::net::TcpStream::connect(addr).unwrap();
    let mut call = |msg: Message| {
        write_frame(&mut reader, &msg.encode()).unwrap();
        Message::decode(&read_frame(&mut reader).unwrap().unwrap()).unwrap()
    };
    call(Message::Hello {
        version: WIRE_VERSION,
        client: "reader".into(),
    });
    let header = call(Message::RestoreBackup {
        label: "drain".into(),
    });
    assert!(matches!(header, Message::RestoreHeader { count: 480, .. }));

    writer.shutdown().unwrap();

    let mut records = Vec::new();
    while records.len() < backup.len() {
        match Message::decode(&read_frame(&mut reader).unwrap().unwrap()).unwrap() {
            Message::RestoreBatch { chunks, payloads } => {
                let payloads = payloads.expect("content-mode store");
                for (rec, bytes) in chunks.iter().zip(&payloads) {
                    assert_eq!(*bytes, synthetic_payload(rec.fp, rec.size));
                }
                records.extend(chunks);
            }
            other => panic!("mid-restore session was not drained: {other:?}"),
        }
    }
    assert_eq!(records, backup.chunks);
    // Drained, then closed at a frame boundary.
    assert!(read_frame(&mut reader).unwrap().is_none());
    handle.join().unwrap();
    done(&dir);
}

// ---------------------------------------------------------------------------
// Crash-point matrix: every persist site, both failure modes
// ---------------------------------------------------------------------------

/// Kills a durable engine at every [`PersistSite`] × `{Error, Torn}` ×
/// `{first, middle}` occurrence and asserts recovery lands on the
/// sealed-prefix reference (or a typed refusal for the two store-birth
/// sites whose directory was never a valid store).
#[test]
fn crash_point_matrix_recovers_at_every_persist_site() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::Ordering;

    use freqdedup::store::fault::{CountingPolicy, FailAt, FailMode, PersistSite, ALL_SITES};

    let dir = test_dir("crash-matrix");
    // 16-byte chunks, 256-byte containers → 16 chunks per container,
    // 96 chunks = 6 full containers (computable sealed prefix).
    let records: Vec<ChunkRecord> = (0..96u64)
        .map(|i| ChunkRecord::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), 16))
        .collect();
    let small = || DedupConfig {
        container_bytes: 256,
        cache_entries: 64,
        entry_bytes: 32,
        bloom_expected: 100_000,
        bloom_fp_rate: 0.01,
        persist: None,
    };
    let clean = |run_dir: &PathBuf| DedupConfig {
        persist: Some(PersistConfig::new(run_dir).fsync(FsyncPolicy::Never)),
        ..small()
    };

    // Probe: per-site operation counts for this exact workload.
    let counting = CountingPolicy::new();
    let counts = counting.counts();
    {
        let cfg = DedupConfig {
            persist: Some(
                PersistConfig::new(dir.join("probe"))
                    .fsync(FsyncPolicy::Always)
                    .io_policy(counting),
            ),
            ..small()
        };
        let mut probe = DedupEngine::open(cfg).unwrap();
        for &r in &records {
            probe.process(r);
        }
        probe.close().unwrap();
    }
    let counts = counts.lock().unwrap().clone();

    for site in ALL_SITES {
        // The recipe/rekey sites are only reached by lifecycle operations;
        // they get their own matrix below with a churn workload.
        if matches!(
            site,
            PersistSite::RecipeWrite
                | PersistSite::RecipeSync
                | PersistSite::RekeyWrite
                | PersistSite::RekeySync
                | PersistSite::RekeyRename
        ) {
            continue;
        }
        let n = *counts.get(&site).unwrap_or(&0);
        assert!(n > 0, "probe run never hit {site:?}");
        for mode in [FailMode::Error, FailMode::Torn] {
            let mut kill_at = vec![0, n / 2];
            kill_at.dedup();
            for k in kill_at {
                let tag = format!("{site:?}-{mode:?}-k{k}");
                let run_dir = dir.join(&tag);
                let fail = FailAt::new(site, k, mode);
                let fired = fail.fired();
                let cfg = DedupConfig {
                    persist: Some(
                        PersistConfig::new(&run_dir)
                            .fsync(FsyncPolicy::Always)
                            .io_policy(fail),
                    ),
                    ..small()
                };

                let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), PersistError> {
                    let mut engine = DedupEngine::open(cfg)?;
                    for &r in &records {
                        engine.process(r);
                    }
                    engine.close()
                }));
                assert!(fired.load(Ordering::SeqCst), "{tag}: fault never fired");
                // A typed error or a reported panic are both clean; outright
                // success means the fault never bit.
                if let Ok(Ok(())) = outcome {
                    panic!("{tag}: succeeded despite the injected fault");
                }

                match DedupEngine::open(clean(&run_dir)) {
                    Ok(recovered) => {
                        let sealed = recovered.containers().sealed_count();
                        assert!(sealed <= 6, "{tag}: {sealed} sealed");
                        assert_eq!(
                            recovered.stats().unique_chunks,
                            (sealed * 16) as u64,
                            "{tag}"
                        );
                        let mut reference = DedupEngine::new(small()).unwrap();
                        for &r in &records[..sealed * 16] {
                            reference.process(r);
                        }
                        reference.finish();
                        assert_eq!(
                            recovered.index().sorted_entries(),
                            reference.index().sorted_entries(),
                            "{tag}: index equals the sealed-prefix reference"
                        );
                        // The store keeps working durably after recovery.
                        let mut recovered = recovered;
                        for &r in &records[sealed * 16..] {
                            recovered.process(r);
                        }
                        recovered.close().unwrap();
                        let after = DedupEngine::open(clean(&run_dir)).unwrap();
                        assert_eq!(after.stats().unique_chunks, 96, "{tag}");
                    }
                    Err(e) => {
                        // Only the store-birth sites may leave a directory
                        // that was never a valid store; the refusal is
                        // typed, and wiping it restores service.
                        assert!(
                            matches!(site, PersistSite::MetaWrite | PersistSite::ManifestHeader),
                            "{tag}: recovery failed at a non-birth site: {e}"
                        );
                        std::fs::remove_dir_all(&run_dir).unwrap();
                        let fresh = DedupEngine::open(clean(&run_dir)).unwrap();
                        assert_eq!(fresh.containers().sealed_count(), 0, "{tag}");
                    }
                }
            }
        }
    }
    done(&dir);
}

// ---------------------------------------------------------------------------
// Lifecycle crash matrix: deletion, GC and rekey under injected crashes
// ---------------------------------------------------------------------------

/// Deterministic payload bytes for a chunk, derived from its fingerprint.
fn chunk_bytes(fp: u64, size: u32) -> Vec<u8> {
    fp.to_le_bytes()
        .into_iter()
        .cycle()
        .take(size as usize)
        .collect()
}

const CHAOS_EPOCH_SECRET: &[u8] = b"chaos-epoch-one";

/// Every committed backup must restore byte-identically — no chunk a
/// committed recipe references may dangle, whatever the crash point was.
fn assert_backups_restorable(engine: &freqdedup::store::engine::DedupEngine, tag: &str) {
    for (id, _ts) in engine.committed_backups() {
        let recipe = engine.backup_recipe(id).expect("listed backup").clone();
        for c in &recipe.chunks {
            let got = engine
                .read_chunk(c.fp)
                .unwrap_or_else(|| panic!("{tag}: backup {id} chunk {:?} dangles", c.fp));
            assert_eq!(
                got,
                &chunk_bytes(c.fp.value(), c.size)[..],
                "{tag}: backup {id} chunk {:?} bytes differ",
                c.fp
            );
        }
    }
}

/// Kills a durable engine running a churn workload — two overlapping
/// backup commits, a deletion, GC and a rekey — at every [`PersistSite`]
/// × `{Error, Torn}` × `{first, middle}` occurrence, then asserts the
/// reopened store is *consistent*: every surviving committed backup
/// restores byte-identically (never a dangling chunk reference), and the
/// interrupted lifecycle step can be re-run to completion.
#[test]
fn lifecycle_crash_matrix_recovers_at_every_persist_site() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::Ordering;

    use freqdedup::store::fault::{CountingPolicy, FailAt, FailMode, PersistSite, ALL_SITES};

    let dir = test_dir("lifecycle-crash");
    // 96 unique 16-byte chunks, 256-byte containers → 6 full containers.
    // Backup 1 owns chunks 0..64, backup 2 owns 32..96; deleting backup 1
    // makes containers 0 and 1 fully dead (GC drops them) while 2 and 3
    // stay fully live (GC keeps them).
    let records: Vec<ChunkRecord> = (0..96u64)
        .map(|i| ChunkRecord::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), 16))
        .collect();
    let small = || DedupConfig {
        container_bytes: 256,
        cache_entries: 64,
        entry_bytes: 32,
        bloom_expected: 100_000,
        bloom_fp_rate: 0.01,
        persist: None,
    };
    // Reopen config: fault-free, with the epoch-1 secret in the keychain
    // (required once the crash landed anywhere at or past REKEY_BEGIN).
    let clean = |run_dir: &PathBuf| DedupConfig {
        persist: Some(
            PersistConfig::new(run_dir)
                .fsync(FsyncPolicy::Never)
                .epoch_secret(1, CHAOS_EPOCH_SECRET),
        ),
        ..small()
    };

    let workload = |cfg: DedupConfig, records: &[ChunkRecord]| -> Result<(), PersistError> {
        let mut engine = DedupEngine::open(cfg)?;
        for &r in &records[..64] {
            engine.process_with_payload(r, &chunk_bytes(r.fp.value(), r.size));
        }
        engine.commit_backup(1, 100, &records[..64]).unwrap();
        for &r in &records[32..] {
            engine.process_with_payload(r, &chunk_bytes(r.fp.value(), r.size));
        }
        engine.commit_backup(2, 200, &records[32..]).unwrap();
        engine.delete_backup(1).unwrap();
        engine.gc(300);
        engine.rekey(CHAOS_EPOCH_SECRET);
        engine.close()
    };

    // Probe: per-site operation counts for this exact churn workload.
    let counting = CountingPolicy::new();
    let counts = counting.counts();
    workload(
        DedupConfig {
            persist: Some(
                PersistConfig::new(dir.join("probe"))
                    .fsync(FsyncPolicy::Always)
                    .io_policy(counting),
            ),
            ..small()
        },
        &records,
    )
    .unwrap();
    let counts = counts.lock().unwrap().clone();

    for site in ALL_SITES {
        let n = *counts.get(&site).unwrap_or(&0);
        assert!(n > 0, "churn probe never hit {site:?}");
        for mode in [FailMode::Error, FailMode::Torn] {
            let mut kill_at = vec![0, n / 2];
            kill_at.dedup();
            for k in kill_at {
                let tag = format!("lc-{site:?}-{mode:?}-k{k}");
                let run_dir = dir.join(&tag);
                let fail = FailAt::new(site, k, mode);
                let fired = fail.fired();
                let cfg = DedupConfig {
                    persist: Some(
                        PersistConfig::new(&run_dir)
                            .fsync(FsyncPolicy::Always)
                            .io_policy(fail),
                    ),
                    ..small()
                };

                let outcome = catch_unwind(AssertUnwindSafe(|| workload(cfg, &records)));
                assert!(fired.load(Ordering::SeqCst), "{tag}: fault never fired");
                if let Ok(Ok(())) = outcome {
                    panic!("{tag}: succeeded despite the injected fault");
                }

                match DedupEngine::open(clean(&run_dir)) {
                    Ok(mut engine) => {
                        // Pin (c): whatever the crash point, recovery lands
                        // on a consistent pre- or post-step state.
                        assert_backups_restorable(&engine, &tag);
                        // The interrupted step re-runs to completion.
                        if engine.backup_recipe(1).is_some() {
                            engine.delete_backup(1).unwrap();
                        }
                        engine.gc(300);
                        engine.rekey_to(1, CHAOS_EPOCH_SECRET);
                        assert_backups_restorable(&engine, &tag);
                        engine.close().unwrap();

                        let reopened = DedupEngine::open(clean(&run_dir)).unwrap();
                        assert_eq!(reopened.epoch(), 1, "{tag}: epoch after convergence");
                        assert_eq!(reopened.pending_rekey(), None, "{tag}");
                        assert_backups_restorable(&reopened, &tag);
                    }
                    Err(e) => {
                        assert!(
                            matches!(site, PersistSite::MetaWrite | PersistSite::ManifestHeader),
                            "{tag}: recovery failed at a non-birth site: {e}"
                        );
                        std::fs::remove_dir_all(&run_dir).unwrap();
                    }
                }
            }
        }
    }
    done(&dir);
}
