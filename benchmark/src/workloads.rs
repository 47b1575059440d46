//! The five workloads: what each one feeds the system, built from `--seed`.
//!
//! Every workload runs the same round (see [`crate::round`]): back up a series,
//! restore it, point-read it, restart the server, attack what the tap saw,
//! churn the store. They differ in the series, in how a backup is prepared on
//! the client, and in whether chunk bytes travel — which is what decides the
//! layer that does the work.
//!
//! The seed picks everything the *system* sees — MLE secret (so every
//! ciphertext fingerprint, shard, Bloom bit and index slot), scramble seed,
//! the byte values of the snapshots, point-read order, leaked pairs — but not
//! the statistical shape of the generated data, which stays that of the
//! generators' own master seeds: between generator seeds the share of unique
//! chunks moves by ±10 % (the shared pools are drawn once per seed), which
//! would drown any bound worth having.

use std::collections::HashSet;
use std::time::Instant;

use freqdedup::chunking::fastcdc::FastCdc;
use freqdedup::chunking::records_from_bytes;
use freqdedup::chunking::segment::SegmentParams;
use freqdedup::core::defense::{DefenseScheme, KeyContext, MinHashScrambleScheme};
use freqdedup::core::metrics;
use freqdedup::core::par::ParConfig;
use freqdedup::datasets::fsl::{self, FslConfig};
use freqdedup::datasets::synthetic::{SyntheticConfig, SyntheticSnapshots};
use freqdedup::datasets::util::SizeModel;
use freqdedup::mle::convergent::Convergent;
use freqdedup::mle::trace_enc::{DeterministicTraceEncryptor, EncryptedBackup, GroundTruth};
use freqdedup::server::client::EncodedStream;
use freqdedup::store::engine::DedupConfig;
use freqdedup::store::lifecycle::GcReport;
use freqdedup::store::sharded::ShardedDedupEngine;
use freqdedup::store::stats::{MetadataAccess, StoreStats};
use freqdedup::trace::{Backup, ChunkRecord, Fingerprint};

/// Fingerprint-prefix shards of every engine the benchmark opens.
pub const SHARDS: usize = 2;
/// Full compaction, as `perf_report --lifecycle` runs it: every container is
/// rewritten, so the work is the same whatever the dead fraction.
pub const GC_THRESHOLD_PERMILLE: u32 = 1000;
/// Share of the target's unique chunks leaked in known-plaintext mode.
pub const LEAKAGE: f64 = 0.0005;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BytesBackup,
    TraceBackup,
    DefendedBackup,
    MixedChurn,
    AttackSweep,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BytesBackup,
        Workload::TraceBackup,
        Workload::DefendedBackup,
        Workload::MixedChurn,
        Workload::AttackSweep,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BytesBackup => "bytes_backup",
            Workload::TraceBackup => "trace_backup",
            Workload::DefendedBackup => "defended_backup",
            Workload::MixedChurn => "mixed_churn",
            Workload::AttackSweep => "attack_sweep",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. One round of every workload takes 1.4-2.1 s at
/// [`Scale::FULL`], so a run of `run_seconds` has 9 to 16 timed rounds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `bytes_backup`: bytes of the first of its four snapshots.
    pub snapshot_bytes: usize,
    /// `trace_backup`, `defended_backup`: FSL chunks per user per backup.
    pub trace_chunks_per_user: usize,
    /// `mixed_churn`: FSL chunks per user per generation (payload mode).
    pub churn_chunks_per_user: usize,
    /// `mixed_churn`: mean chunk size. Small, so that a round moves a few MiB
    /// and the per-request cost under the engine lock is what is measured;
    /// `bytes_backup` is the workload for per-byte cost.
    pub churn_chunk_bytes: u32,
    /// `attack_sweep`: FSL chunks per user of the attacked pair.
    pub sweep_chunks_per_user: usize,
    /// `attack_sweep`: chunks per backup of the prefix of the pair it serves.
    /// Large enough that a service step takes tens of milliseconds: at 2 000
    /// chunks they took a few and read +-20 % from run to run.
    pub sweep_service_chunks: usize,
    /// Point reads per round (per reader loop in `mixed_churn`).
    pub reads: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        snapshot_bytes: 3 << 20,
        trace_chunks_per_user: 3_000,
        churn_chunks_per_user: 200,
        churn_chunk_bytes: 1024,
        sweep_chunks_per_user: 45_000,
        sweep_service_chunks: 10_000,
        reads: 1_000,
    };
    /// Seconds-fast sizes for `--smoke` and the crate's tests.
    pub const SMOKE: Scale = Scale {
        snapshot_bytes: 256 << 10,
        trace_chunks_per_user: 400,
        churn_chunks_per_user: 60,
        churn_chunk_bytes: 1024,
        sweep_chunks_per_user: 1_500,
        sweep_service_chunks: 500,
        reads: 50,
    };
}

/// How a plaintext backup becomes the stream the server sees.
pub enum Source {
    /// Raw snapshot bytes: FastCDC, convergent encryption, ciphertext bytes on
    /// the wire.
    Bytes {
        snapshots: Vec<Vec<u8>>,
        chunker: FastCdc,
        mle: Convergent,
    },
    /// Plaintext fingerprints through deterministic trace MLE; with `payload`
    /// the client also sends `synthetic_payload` bytes for every record.
    Trace {
        enc: DeterministicTraceEncryptor,
        payload: bool,
    },
    /// Plaintext fingerprints through a defense scheme, metadata only.
    Defended {
        scheme: Box<dyn DefenseScheme>,
        ctx: KeyContext,
    },
}

/// One backup prepared for upload.
pub enum Prepared {
    Bytes(EncodedStream),
    Trace(EncryptedBackup),
}

impl Prepared {
    /// The record stream the server (and its tap) will see.
    #[must_use]
    pub fn cipher(&self) -> &Backup {
        match self {
            Prepared::Bytes(stream) => &stream.backup,
            Prepared::Trace(enc) => &enc.backup,
        }
    }
}

impl Source {
    /// Span name of [`Self::prepare`].
    #[must_use]
    pub fn prepare_span(&self) -> &'static str {
        match self {
            Source::Bytes { .. } => "mle.encode",
            Source::Trace { .. } => "mle.trace_enc",
            Source::Defended { .. } => "core.defense_encrypt",
        }
    }

    /// The client-side work of backup `i`: chunk + encrypt + fingerprint for
    /// bytes, one keyed hash per unique fingerprint for traces.
    #[must_use]
    pub fn prepare(&self, i: usize, plain: &Backup) -> Prepared {
        match self {
            Source::Bytes {
                snapshots,
                chunker,
                mle,
            } => Prepared::Bytes(
                EncodedStream::encode(
                    &plain.label,
                    &snapshots[i],
                    chunker,
                    mle,
                    ParConfig::sequential(),
                )
                .expect("convergent key derivation cannot fail"),
            ),
            Source::Trace { enc, .. } => Prepared::Trace(enc.encrypt_backup(plain)),
            Source::Defended { scheme, ctx } => Prepared::Trace(scheme.encrypt_backup(plain, ctx)),
        }
    }

    /// Whether chunk bytes travel and are stored.
    #[must_use]
    pub fn payload_mode(&self) -> bool {
        match self {
            Source::Bytes { .. } => true,
            Source::Trace { payload, .. } => *payload,
            Source::Defended { .. } => false,
        }
    }
}

/// What the attack leg runs on: every backup of the series after the first
/// as a target, with its plaintext predecessor as auxiliary information.
/// Attacking all of them, not the latest alone, averages out how far the
/// crawl happens to get on one backup under one seed's tie-breaks.
pub struct AttackInput {
    /// `(ciphertext target, plaintext auxiliary)`, oldest target first.
    pub pairs: Vec<(Backup, Backup)>,
    /// Cipher → plain over every target, for scoring and leaked pairs.
    pub truth: GroundTruth,
    /// Pairs of the latest target leaked in known-plaintext mode.
    pub leaked: Vec<(Fingerprint, Fingerprint)>,
}

impl AttackInput {
    /// Logical chunks of all targets.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.pairs.iter().map(|(target, _)| target.len()).sum()
    }
}

/// The direct-engine replay of the cipher series: what the server's counters
/// must equal, and the source of the metadata-access metric.
pub struct Replay {
    /// Counters after the last commit — what a live server reports in STATS.
    pub live: StoreStats,
    pub access: MetadataAccess,
    /// What deleting the odd generations and compacting does.
    pub gc: GcReport,
    /// Wall time of the ingest part.
    pub ingest_s: f64,
}

/// Everything a round needs, built once per run from the seed.
pub struct Input {
    pub workload: Workload,
    pub source: Source,
    /// Plaintext-fingerprint backups `g0..`, oldest first.
    pub plain: Vec<Backup>,
    /// The cipher series the server must end up holding.
    pub cipher: Vec<Backup>,
    pub attack: AttackInput,
    /// Sized like the paper's Fig. 13: cache = 25 % of the unique plaintext
    /// fingerprints of the series.
    pub engine: DedupConfig,
    pub replay: Replay,
    /// Records of `g0` to point-read, in seeded order.
    pub reads: Vec<ChunkRecord>,
    /// Wall time of the dataset generator alone.
    pub generate_s: f64,
    /// Unique cipher fingerprints of the series.
    pub unique_chunks: u64,
}

impl Input {
    /// Indices deleted by the churn step (the odd generations).
    pub fn victims(&self) -> impl Iterator<Item = usize> {
        (1..self.plain.len()).step_by(2)
    }

    /// Indices the churn step keeps (the even generations).
    pub fn survivors(&self) -> impl Iterator<Item = usize> {
        (0..self.plain.len()).step_by(2)
    }

    /// Logical chunks of the whole series.
    #[must_use]
    pub fn logical_chunks(&self) -> u64 {
        self.cipher.iter().map(|b| b.len() as u64).sum()
    }
}

/// SplitMix64: the benchmark's own seeded stream (read order, sub-seeds).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn relabel(backups: impl IntoIterator<Item = Backup>) -> Vec<Backup> {
    // `g<i>` sorts in commit order, which is the order the tap's
    // label-sorted series must come back in.
    backups
        .into_iter()
        .enumerate()
        .map(|(i, b)| Backup::from_chunks(format!("g{i}"), b.chunks))
        .collect()
}

fn fsl_series(chunks_per_user: usize, backups: usize, chunk_bytes: u32) -> Vec<Backup> {
    let series = fsl::generate(&FslConfig {
        backups,
        size_model: SizeModel::Variable(chunk_bytes),
        ..FslConfig::scaled(chunks_per_user)
    });
    relabel(series.iter().cloned())
}

/// Builds the input of `workload` for `seed`.
#[must_use]
pub fn setup(workload: Workload, seed: u64, scale: &Scale) -> Input {
    let secret = format!("fdbench-mle-secret-{seed}");
    let trace_enc = || DeterministicTraceEncryptor::new(secret.as_bytes());
    let started = Instant::now();
    let (source, plain, big_pair) = match workload {
        Workload::BytesBackup => {
            // The tree keeps the generator's own master seed, as the FSL
            // series do, and for the same reason: between generator seeds
            // the file sizes and pattern draws move the dedup ratio and the
            // attack's reach by 20 %. The seed picks a byte substitution
            // applied to every snapshot: equal regions stay equal, every
            // byte, cut point, key and ciphertext changes.
            let mut state = SyntheticSnapshots::new(SyntheticConfig {
                snapshots: 4,
                ..SyntheticConfig::scaled(scale.snapshot_bytes)
            });
            let mut substitution: Vec<u8> = (0..=255).collect();
            let mut rng = SplitMix(seed);
            for i in (1..substitution.len()).rev() {
                substitution.swap(i, (rng.draw() % (i as u64 + 1)) as usize);
            }
            let snapshots: Vec<Vec<u8>> = (0..4)
                .map(|i| {
                    if i > 0 {
                        state.advance();
                    }
                    state
                        .files()
                        .iter()
                        .flat_map(|f| &f.data)
                        .map(|byte| substitution[usize::from(*byte)])
                        .collect()
                })
                .collect();
            let chunker = FastCdc::paper_8kb();
            let plain = snapshots
                .iter()
                .enumerate()
                .map(|(i, data)| {
                    Backup::from_chunks(format!("g{i}"), records_from_bytes(data, &chunker))
                })
                .collect();
            let source = Source::Bytes {
                snapshots,
                chunker,
                mle: Convergent::new(),
            };
            (source, plain, None)
        }
        Workload::TraceBackup => (
            Source::Trace {
                enc: trace_enc(),
                payload: false,
            },
            fsl_series(scale.trace_chunks_per_user, 5, 8192),
            None,
        ),
        Workload::DefendedBackup => (
            Source::Defended {
                scheme: Box::new(MinHashScrambleScheme::combined(
                    SegmentParams::paper_default(8192),
                    seed,
                )),
                ctx: KeyContext::new(secret.as_bytes(), seed),
            },
            fsl_series(scale.trace_chunks_per_user, 5, 8192),
            None,
        ),
        Workload::MixedChurn => (
            Source::Trace {
                enc: trace_enc(),
                payload: true,
            },
            fsl_series(scale.churn_chunks_per_user, 5, scale.churn_chunk_bytes),
            None,
        ),
        Workload::AttackSweep => {
            let pair = fsl_series(scale.sweep_chunks_per_user, 2, 8192);
            let service = pair
                .iter()
                .map(|b| {
                    let n = scale.sweep_service_chunks.min(b.len());
                    Backup::from_chunks(b.label.clone(), b.chunks[..n].to_vec())
                })
                .collect();
            (
                Source::Trace {
                    enc: trace_enc(),
                    payload: false,
                },
                service,
                Some(pair),
            )
        }
    };
    let generate_s = started.elapsed().as_secs_f64();

    let prepared: Vec<Prepared> = plain
        .iter()
        .enumerate()
        .map(|(i, b)| source.prepare(i, b))
        .collect();
    let cipher: Vec<Backup> = prepared.iter().map(|p| p.cipher().clone()).collect();

    let attack = match big_pair {
        // attack_sweep attacks the full pair, not the prefix it serves.
        Some(mut pair) => {
            let target = trace_enc().encrypt_backup(&pair[1]);
            attack_input(
                vec![(target.backup, pair.swap_remove(0))],
                target.truth,
                seed,
            )
        }
        None => {
            let mut truth = GroundTruth::new();
            for (p, plain) in prepared.iter().zip(&plain) {
                match p {
                    Prepared::Trace(enc) => truth.merge(&enc.truth),
                    // Same chunker on the same bytes: record i of the
                    // encoded stream is the ciphertext of plaintext chunk i.
                    Prepared::Bytes(stream) => {
                        for (c, p) in stream.backup.chunks.iter().zip(&plain.chunks) {
                            truth.record(c.fp, p.fp);
                        }
                    }
                }
            }
            let pairs = (1..cipher.len())
                .map(|i| (cipher[i].clone(), plain[i - 1].clone()))
                .collect();
            attack_input(pairs, truth, seed)
        }
    };

    // The store is sized from the plaintext series, so trace_backup and
    // defended_backup, which share theirs, run on the same configuration and
    // differ by the defense alone.
    let unique_plain: HashSet<Fingerprint> = plain.iter().flatten().map(|rec| rec.fp).collect();
    let engine = DedupConfig {
        cache_entries: (unique_plain.len() / 4).max(1),
        bloom_expected: (unique_plain.len() as u64).max(1024),
        ..DedupConfig::default()
    };
    let unique: HashSet<Fingerprint> = cipher.iter().flatten().map(|rec| rec.fp).collect();
    let replay = replay(&cipher, &engine);

    let mut rng = SplitMix(seed ^ 0x5ead_0fc0_de5e);
    let mut seen = HashSet::new();
    let firsts: Vec<ChunkRecord> = cipher[0]
        .chunks
        .iter()
        .filter(|rec| seen.insert(rec.fp))
        .copied()
        .collect();
    let reads = (0..scale.reads)
        .map(|_| firsts[(rng.draw() % firsts.len() as u64) as usize])
        .collect();

    Input {
        workload,
        source,
        plain,
        cipher,
        attack,
        engine,
        replay,
        reads,
        generate_s,
        unique_chunks: unique.len() as u64,
    }
}

fn attack_input(pairs: Vec<(Backup, Backup)>, truth: GroundTruth, seed: u64) -> AttackInput {
    let latest = &pairs.last().expect("a series has at least two backups").0;
    let leaked = metrics::leak_pairs(latest, &truth, LEAKAGE, seed);
    AttackInput {
        pairs,
        truth,
        leaked,
    }
}

/// Replays `cipher` into a fresh in-memory engine with the server's shard
/// count and configuration, then deletes the odd generations and compacts.
/// Payload bytes are left out: dedup decisions, container packing and the
/// counters depend on fingerprints and sizes only.
fn replay(cipher: &[Backup], config: &DedupConfig) -> Replay {
    let mut engine =
        ShardedDedupEngine::new(config.clone(), SHARDS).expect("benchmark engine config is valid");
    let mut ingest_s = 0.0;
    for (i, backup) in cipher.iter().enumerate() {
        let started = Instant::now();
        engine.ingest_backup(backup, ParConfig::sequential());
        ingest_s += started.elapsed().as_secs_f64();
        // A commit seals the open container, as the server's COMMIT does.
        engine
            .commit_backup(i as u64 + 1, i as u64 + 1, &backup.chunks)
            .expect("fresh backup ids");
    }
    let live = engine.stats();
    let access = engine.metadata_access();
    for i in (1..cipher.len()).step_by(2) {
        engine
            .delete_backup(i as u64 + 1)
            .expect("backup committed above");
    }
    let gc = engine.gc(GC_THRESHOLD_PERMILLE);
    Replay {
        live,
        access,
        gc,
        ingest_s,
    }
}
