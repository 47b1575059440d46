//! A complete *networked* encrypted-deduplication workflow on loopback
//! (127.0.0.1 only — CI-safe), driven end-to-end from **raw file bytes**:
//!
//! 1. generate an evolving synthetic file tree and run the real client
//!    pipeline on every snapshot — gear-hash FastCDC chunking (parallel,
//!    bit-identical to sequential), convergent MLE encryption, ciphertext
//!    fingerprinting;
//! 2. start the dedup service on a durable store directory and have two
//!    clients concurrently upload the encrypted streams (batched,
//!    pipelined) and commit manifests;
//! 3. restart the server — graceful shutdown checkpointed everything, so
//!    recovery needs no crash repair — restore every backup and **decrypt
//!    it back to the original bytes** with the client-side key store,
//!    then upload one post-restart incremental snapshot;
//! 4. play the adversary: open the provider-side tap — a fold over the
//!    service's `catalog.log`, by the replay the server binds with — read
//!    the per-backup chunk-length sequences (the boundary-leakage
//!    observable that survives MLE), and run the locality attack against
//!    the live ciphertext traffic, scoring it against ground truth.
//!
//! Run with: `cargo run --release --example remote_backup`

use std::sync::Mutex;

use freqdedup::chunking::fastcdc::FastCdc;
use freqdedup::chunking::records_from_bytes;
use freqdedup::core::attacks::locality::LocalityParams;
use freqdedup::core::attacks::{self, AttackKind};
use freqdedup::core::metrics::score;
use freqdedup::datasets::synthetic::{label, SyntheticConfig, SyntheticSnapshots};
use freqdedup::mle::convergent::Convergent;
use freqdedup::mle::trace_enc::GroundTruth;
use freqdedup::server::catalog::Catalog;
use freqdedup::server::client::{Client, EncodedStream};
use freqdedup::server::server::{Server, ServerConfig};
use freqdedup::server::tap::AdversaryTap;
use freqdedup::store::engine::DedupConfig;
use freqdedup::store::persist::{FsyncPolicy, PersistConfig};
use freqdedup::trace::par::ParConfig;
use freqdedup::trace::Backup;

fn server_config(store_dir: &std::path::Path, log: &std::path::Path) -> ServerConfig {
    ServerConfig {
        workers: 4,
        shards: 4,
        engine: DedupConfig {
            container_bytes: 64 * 1024,
            persist: Some(PersistConfig::new(store_dir).fsync(FsyncPolicy::Never)),
            ..DedupConfig::paper(8 * 1024 * 1024, 1_000_000)
        },
        log_file: Some(log.to_path_buf()),
        ..ServerConfig::default()
    }
}

fn start(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<freqdedup::server::server::ServeSummary>,
) {
    let server = Server::bind(config).expect("bind loopback server");
    let addr = server.local_addr().expect("local addr");
    (
        addr,
        std::thread::spawn(move || server.run().expect("serve")),
    )
}

/// One snapshot pushed through the client-side pipeline: the raw bytes,
/// the encrypted upload stream, and the plaintext chunk records the
/// adversary will later be scored against.
struct Snapshot {
    data: Vec<u8>,
    stream: EncodedStream,
    plain: Backup,
}

fn encode_snapshot(
    snaps: &SyntheticSnapshots,
    chunker: &FastCdc,
    mle: &Convergent,
    par: ParConfig,
    truth: &mut GroundTruth,
) -> Snapshot {
    let name = label(snaps.snapshot_index());
    let mut data = Vec::new();
    for file in snaps.files() {
        data.extend_from_slice(&file.data);
    }
    let stream = EncodedStream::encode(&name, &data, chunker, mle, par).expect("mle encrypt");
    let plain = Backup::from_chunks(&name, records_from_bytes(&data, chunker));
    assert_eq!(stream.backup.len(), plain.len());
    for (c, p) in stream.backup.chunks.iter().zip(&plain.chunks) {
        assert_eq!(c.size, p.size, "MLE must be length-preserving");
        truth.record(c.fp, p.fp);
    }
    Snapshot {
        data,
        stream,
        plain,
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("freqdedup-remote-backup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store_dir = dir.join("store");

    // ---- Phase 0: the client pipeline on raw bytes. ----
    // An evolving synthetic file tree; every snapshot is chunked with
    // gear-hash FastCDC (paper 8 KB parameters, parallel) and encrypted
    // with convergent MLE. The server will only ever see ciphertext; the
    // ground truth stays with us for scoring the adversary at the end.
    let chunker = FastCdc::paper_8kb();
    let mle = Convergent::new();
    let par = ParConfig::auto();
    let mut truth = GroundTruth::new();
    let mut snaps = SyntheticSnapshots::new(SyntheticConfig::scaled(6 * 1024 * 1024));
    let mut snapshots = Vec::new();
    for i in 0..4 {
        if i > 0 {
            snaps.advance();
        }
        let snap = encode_snapshot(&snaps, &chunker, &mle, par, &mut truth);
        println!(
            "{}: {} files, {:.1} MiB -> {} chunks ({} unique ciphertexts, mean {} B)",
            snap.plain.label,
            snaps.files().len(),
            snap.data.len() as f64 / (1024.0 * 1024.0),
            snap.stream.backup.len(),
            snap.stream.unique_chunks(),
            snap.data.len() / snap.stream.backup.len().max(1),
        );
        snapshots.push(snap);
    }

    // ---- Phase 1: serve, two concurrent clients, commit 4 backups. ----
    let (addr, handle) = start(server_config(&store_dir, &dir.join("server1.log")));
    println!("\nserver up on {addr} (store: {})", store_dir.display());
    std::thread::scope(|scope| {
        for c in 0..2usize {
            let snapshots = &snapshots;
            scope.spawn(move || {
                let mut client = Client::connect(addr, &format!("client-{c}")).unwrap();
                for (i, snap) in snapshots.iter().enumerate() {
                    if i % 2 == c {
                        let up = client.upload_bytes(&snap.stream).unwrap();
                        client.commit(&snap.stream.backup.label).unwrap();
                        println!(
                            "client-{c}: committed {:?} — {} chunks ({} unique, {} dedup'd) in {} batches",
                            snap.stream.backup.label, up.chunks, up.unique, up.duplicate, up.batches
                        );
                    }
                }
            });
        }
    });
    let mut closer = Client::connect(addr, "closer").unwrap();
    let stats = closer.stats().unwrap();
    println!(
        "service: {} logical / {} unique chunks, {} containers sealed, {} manifests",
        stats.logical_chunks, stats.unique_chunks, stats.containers_sealed, stats.committed_backups
    );
    closer.shutdown().unwrap();
    let summary = handle.join().unwrap();
    println!(
        "graceful shutdown: drained {} sessions, checkpointed {} unique chunks",
        summary.sessions, summary.stats.unique_chunks
    );

    // ---- Phase 2: restart, decrypting restore, incremental upload. ----
    let (addr, handle) = start(server_config(&store_dir, &dir.join("server2.log")));
    println!("\nserver restarted on {addr} (recovered, no crash repair needed)");
    let mut client = Client::connect(addr, "client-0").unwrap();
    let recovered = client.stats().unwrap();
    assert_eq!(recovered.unique_chunks, stats.unique_chunks);
    for snap in &snapshots {
        let restored = client.restore(&snap.stream.backup.label).unwrap();
        let bytes = snap.stream.decode(&restored, &mle).unwrap();
        assert_eq!(
            bytes, snap.data,
            "restore must decrypt to the original bytes"
        );
        println!(
            "restored {:?} and decrypted it back to the original {} bytes",
            snap.stream.backup.label,
            bytes.len()
        );
    }
    snaps.advance();
    let latest = encode_snapshot(&snaps, &chunker, &mle, par, &mut truth);
    let up = client.upload_bytes(&latest.stream).unwrap();
    client.commit(&latest.stream.backup.label).unwrap();
    println!(
        "incremental {:?}: {} chunks, {:.1}% deduplicated against pre-restart state",
        latest.stream.backup.label,
        up.chunks,
        100.0 * up.duplicate as f64 / up.chunks.max(1) as f64
    );
    let restored = client.restore(&latest.stream.backup.label).unwrap();
    assert_eq!(latest.stream.decode(&restored, &mle).unwrap(), latest.data);
    snapshots.push(latest);
    client.shutdown().unwrap();
    handle.join().unwrap();

    // ---- Phase 3: the adversary reads its tap. ----
    // The provider's catalog sits beside the store; the tap folded from it
    // holds the observed per-session ciphertext streams — the exact §3
    // adversary view — as ordinary backups the attacks run on unchanged.
    // The chunk-length sequences are the boundary-leakage observable:
    // content-defined boundaries survive MLE byte for byte.
    let persist = PersistConfig::new(&store_dir).fsync(FsyncPolicy::Never);
    let catalog = Mutex::new(Catalog::open(&persist).unwrap());
    let mut tap = AdversaryTap::default();
    tap.catch_up(&catalog);
    let observed = tap.series("tapped");
    println!(
        "\nadversary tap: {} committed manifests, {} observed chunks",
        observed.len(),
        observed.logical_chunks()
    );
    for (name, lengths) in tap.length_sequences() {
        let total: u64 = lengths.iter().map(|&l| u64::from(l)).sum();
        println!(
            "  {name}: {} chunk lengths observed (sum {total} B, mean {} B)",
            lengths.len(),
            total / lengths.len().max(1) as u64
        );
    }
    let target = observed.latest().unwrap();
    let aux = &snapshots[2].plain; // the adversary's auxiliary: an older plaintext snapshot
    let params = LocalityParams::default();
    for (policy, inference) in
        attacks::run_ciphertext_only_both_policies(AttackKind::Locality, target, aux, &params)
    {
        let report = score(&inference, target, &truth);
        println!(
            "locality attack on live traffic ({policy:?} ties): \
             {}/{} unique ciphertext chunks inferred correctly — {:.1}% inference rate",
            report.correct,
            report.total_unique,
            100.0 * report.rate
        );
    }
    println!(
        "\n(the tap is the provider's own manifest catalog — serving restores and \
              leaking rankings are the same metadata)"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
