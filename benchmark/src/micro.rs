//! Single-layer measurements of a traced run: each times one public call of
//! one crate on this run's data, outside the rounds, so the rounds stay what
//! they are in an untraced run. Every time is the median of [`REPS`]
//! repetitions. A workload measures the kernels of the layers it uses and
//! reports 0 for the rest.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use freqdedup::chunking::chunk_stream_par;
use freqdedup::chunking::fastcdc::FastCdc;
use freqdedup::core::attacks::locality::LocalityParams;
use freqdedup::core::attacks::{self, AttackKind};
use freqdedup::core::par::ParConfig;
use freqdedup::crypto::ctr::Aes256Ctr;
use freqdedup::crypto::{hmac, sha256};
use freqdedup::mle::convergent::Convergent;
use freqdedup::server::client::{synthetic_payload, EncodedStream, RestoredBackup};
use freqdedup::server::frame::{read_frame, write_frame};
use freqdedup::server::proto::Message;
use freqdedup::store::fault::CountingPolicy;
use freqdedup::store::persist::{FsyncPolicy, PersistConfig};
use freqdedup::store::sharded::ShardedDedupEngine;
use freqdedup::trace::{io, Backup, BackupSeries};

use crate::stats::median;
use crate::workloads::{Input, Source, SHARDS};

const REPS: usize = 3;
const MIB: f64 = (1 << 20) as f64;

/// Median wall time of `f` in seconds over [`REPS`] calls.
fn time<T>(mut f: impl FnMut() -> T) -> f64 {
    let secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// Appends `names` as zeros: the kernels of a layer the workload does not use.
fn idle(out: &mut Vec<(&'static str, f64)>, names: &[&'static str]) {
    out.extend(names.iter().map(|name| (*name, 0.0)));
}

/// Measures the kernels of the layers `input`'s workload uses; the others
/// read 0. Returns `(metric name, value)` pairs, every kernel metric once.
///
/// # Panics
///
/// Panics when a scratch store under `dir` cannot be opened or closed: the
/// benchmark owns that directory, so a failure there is a broken run.
#[must_use]
pub fn measure(input: &Input, dir: &Path) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    match &input.source {
        Source::Bytes {
            snapshots,
            chunker,
            mle,
        } => {
            byte_kernels(&snapshots[0], chunker, mle, &mut out);
            idle(
                &mut out,
                &[
                    "crypto.hmac_kop_s",
                    "mle.trace_enc_kchunk_s",
                    "core.defense_encrypt_kchunk_s",
                    "core.defense_blowup",
                ],
            );
        }
        Source::Trace { enc, .. } => {
            idle(&mut out, &BYTE_KERNELS);
            out.push(("crypto.hmac_kop_s", hmac_kop_s()));
            let latest = input.plain.last().expect("series not empty");
            out.push((
                "mle.trace_enc_kchunk_s",
                latest.len() as f64 / 1e3 / time(|| enc.encrypt_backup(latest)),
            ));
            idle(
                &mut out,
                &["core.defense_encrypt_kchunk_s", "core.defense_blowup"],
            );
        }
        Source::Defended { scheme, ctx } => {
            idle(&mut out, &BYTE_KERNELS);
            out.push(("crypto.hmac_kop_s", hmac_kop_s()));
            idle(&mut out, &["mle.trace_enc_kchunk_s"]);
            let latest = input.plain.last().expect("series not empty");
            out.push((
                "core.defense_encrypt_kchunk_s",
                latest.len() as f64 / 1e3 / time(|| scheme.encrypt_backup(latest, ctx)),
            ));
            out.push((
                "core.defense_blowup",
                scheme.encrypt_backup(latest, ctx).backup.unique_count() as f64
                    / latest.unique_count() as f64,
            ));
        }
    }

    let mut series = BackupSeries::new("cipher");
    for backup in &input.cipher {
        series.push(backup.clone());
    }
    let kchunks = input.logical_chunks() as f64 / 1e3;
    let encoded = io::to_bytes(&series);
    out.push((
        "trace.write_kchunk_s",
        kchunks / time(|| io::to_bytes(&series)),
    ));
    out.push((
        "trace.read_kchunk_s",
        kchunks / time(|| io::from_bytes(&encoded).expect("own encoding parses")),
    ));

    // PUT batches as metadata mode sends them; payload mode's cost is per
    // byte and is the frame kernel's.
    if input.source.payload_mode() {
        idle(&mut out, &["server.proto_codec_kchunk_s"]);
    } else {
        let batch = Message::PutChunkBatch {
            seq: 1,
            chunks: input.cipher[0].chunks.iter().take(512).copied().collect(),
            payloads: None,
        };
        let batch_len = input.cipher[0].len().min(512);
        const CODEC_REPS: usize = 200;
        let codec_s = time(|| {
            for _ in 0..CODEC_REPS {
                black_box(Message::decode(&batch.encode()).expect("own encoding parses"));
            }
        });
        out.push((
            "server.proto_codec_kchunk_s",
            (CODEC_REPS * batch_len) as f64 / 1e3 / codec_s,
        ));
    }

    let params = LocalityParams::default();
    let (target, aux) = input.attack.pairs.last().expect("at least one pair");
    out.push((
        "core.tap_attack_s",
        time(|| {
            attacks::run_ciphertext_only_both_policies(AttackKind::Locality, target, aux, &params)
        }),
    ));

    store_kernels(input, dir, &mut out);
    out
}

/// Kernels of the layers only raw bytes reach.
const BYTE_KERNELS: [&str; 8] = [
    "chunking.fastcdc_mib_s",
    "chunking.chunks",
    "chunking.mean_chunk_bytes",
    "crypto.sha256_mib_s",
    "crypto.aes_ctr_mib_s",
    "mle.encode_mib_s",
    "mle.decode_mib_s",
    "server.frame_mib_s",
];

fn byte_kernels(
    bytes: &[u8],
    chunker: &FastCdc,
    mle: &Convergent,
    out: &mut Vec<(&'static str, f64)>,
) {
    let spans = chunk_stream_par(bytes, chunker, ParConfig::sequential());
    let chunking_s = time(|| chunk_stream_par(bytes, chunker, ParConfig::sequential()));
    out.push((
        "chunking.fastcdc_mib_s",
        bytes.len() as f64 / MIB / chunking_s,
    ));
    out.push(("chunking.chunks", spans.len() as f64));
    out.push((
        "chunking.mean_chunk_bytes",
        bytes.len() as f64 / spans.len() as f64,
    ));
    let sha_s = time(|| {
        for span in &spans {
            black_box(sha256::digest(&bytes[span.clone()]));
        }
    });
    out.push(("crypto.sha256_mib_s", bytes.len() as f64 / MIB / sha_s));
    let mut scratch = bytes.to_vec();
    let aes_s = time(|| {
        for span in &spans {
            Aes256Ctr::new(&[7; 32], &[0; 16]).apply_keystream(&mut scratch[span.clone()]);
        }
    });
    out.push(("crypto.aes_ctr_mib_s", bytes.len() as f64 / MIB / aes_s));

    let encode = || {
        EncodedStream::encode("micro", bytes, chunker, mle, ParConfig::sequential())
            .expect("convergent key derivation cannot fail")
    };
    let encode_s = time(encode);
    // The issue's definition: the MLE part of encode, net of chunking.
    out.push((
        "mle.encode_mib_s",
        bytes.len() as f64 / MIB / (encode_s - chunking_s).max(1e-9),
    ));
    let stream = encode();
    let restored = RestoredBackup {
        payloads: Some(
            stream
                .backup
                .chunks
                .iter()
                .map(|r| stream.payload(r))
                .collect(),
        ),
        backup: stream.backup.clone(),
    };
    let decode_s = time(|| stream.decode(&restored, mle).expect("own stream decodes"));
    out.push(("mle.decode_mib_s", bytes.len() as f64 / MIB / decode_s));

    let frame_payload = &bytes[..bytes.len().min(1 << 20)];
    let frame_s = time(|| {
        let mut wire = Vec::with_capacity(frame_payload.len() + 16);
        write_frame(&mut wire, frame_payload).expect("write to a Vec");
        read_frame(&mut wire.as_slice()).expect("own frame parses")
    });
    out.push((
        "server.frame_mib_s",
        frame_payload.len() as f64 / MIB / frame_s,
    ));
}

/// One keyed hash per unique fingerprint is what trace MLE and the defenses
/// cost the client.
fn hmac_kop_s() -> f64 {
    const HMACS: u64 = 20_000;
    let hmac_s = time(|| {
        for i in 0..HMACS {
            black_box(hmac::hmac_u64(b"fdbench-hmac-key", &i.to_le_bytes()));
        }
    });
    HMACS as f64 / 1e3 / hmac_s
}

/// The store driven directly, without the wire: point reads from memory
/// (payload mode), and a durable engine's write amplification, close and cold
/// open.
fn store_kernels(input: &Input, dir: &Path, out: &mut Vec<(&'static str, f64)>) {
    let payload_of = |rec: &freqdedup::trace::ChunkRecord| synthetic_payload(rec.fp, rec.size);

    if input.source.payload_mode() {
        let mut memory = ShardedDedupEngine::new(input.engine.clone(), SHARDS)
            .expect("benchmark engine config is valid");
        let mut seen = HashSet::new();
        let sample: Vec<_> = input.cipher[0]
            .chunks
            .iter()
            .filter(|rec| seen.insert(rec.fp))
            .take(1000)
            .copied()
            .collect();
        for rec in &sample {
            memory.process_with_payload(*rec, &payload_of(rec));
        }
        let read_s = time(|| {
            for rec in &sample {
                black_box(memory.read_chunk(rec.fp).expect("chunk stored above"));
            }
        });
        out.push(("store.read_chunk_us", read_s * 1e6 / sample.len() as f64));
    } else {
        idle(out, &["store.read_chunk_us"]);
    }

    let ingest = |engine: &mut ShardedDedupEngine, backup: &Backup| {
        if input.source.payload_mode() {
            for rec in backup {
                engine.process_with_payload(*rec, &payload_of(rec));
            }
        } else {
            engine.ingest_backup(backup, ParConfig::sequential());
        }
    };
    // A store can be closed once: every repetition fills its own.
    let (mut close_s, mut open_s) = (Vec::new(), Vec::new());
    let (mut amplification, mut writes) = (0.0, 0u64);
    for rep in 0..REPS {
        let dir = dir.join(format!("store-{rep}"));
        let counting = CountingPolicy::new();
        let counts = counting.counts();
        let config = input.engine.clone().persist(
            PersistConfig::new(&dir)
                .fsync(FsyncPolicy::Never)
                .io_policy(counting),
        );
        let mut durable =
            ShardedDedupEngine::open(config.clone(), SHARDS).expect("open fresh scratch store");
        for backup in &input.cipher {
            ingest(&mut durable, backup);
        }
        let unique_bytes = durable.stats().unique_bytes;
        let started = Instant::now();
        durable.close().expect("close scratch store");
        close_s.push(started.elapsed().as_secs_f64());
        amplification = dir_bytes(&dir) as f64 / unique_bytes as f64;
        let started = Instant::now();
        let reopened = ShardedDedupEngine::open(config, SHARDS).expect("reopen scratch store");
        open_s.push(started.elapsed().as_secs_f64());
        reopened.close().expect("close scratch store");
        writes = counts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
            .sum();
    }
    out.push(("store.close_s", median(&close_s)));
    out.push(("store.open_s", median(&open_s)));
    out.push(("store.disk_bytes_per_unique_byte", amplification));
    out.push(("store.persist_writes", writes as f64));
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .map(|entry| match entry.metadata() {
                Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
                Ok(meta) => meta.len(),
                Err(_) => 0,
            })
            .sum()
    })
}
