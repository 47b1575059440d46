//! One round: the life of a tenant's store, played once against a fresh
//! server on a fresh directory.
//!
//! ```text
//! bind → back up the series → restore it → point reads → STATS
//!      → shutdown → re-bind (cold open) → attack every backup the tap saw
//!      → delete odd generations + GC + rekey → shutdown → re-bind with
//!        the epoch secret → survivors restore, deleted labels answer
//!        UNKNOWN_LABEL → shutdown
//! ```
//!
//! `mixed_churn` replaces the backup, restore and read steps by a writer
//! beside a reader. Every call into the repository is one span, one operation
//! in `attempted` and one timed *step*: a round pushes one sample per step, in
//! a fixed order, and `run::reduce` takes the median of each step over the
//! rounds before adding steps up, so interference that hits one step of one
//! round spoils that sample and not the round. Every comparison of an output
//! with what it must be is one more operation.

use std::fmt::Display;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use freqdedup::core::attacks::locality::LocalityParams;
use freqdedup::core::attacks::{self, AttackKind};
use freqdedup::core::dense::DenseStats;
use freqdedup::core::metrics::{self, Inference};
use freqdedup::core::par::shard_ranges;
use freqdedup::core::IncrementalStats;
use freqdedup::server::client::{synthetic_payload, Client, ClientError, RestoredBackup};
use freqdedup::server::proto::{code, ServerStats};
use freqdedup::server::server::{
    ServeError, ServeSummary, Server, ServerConfig, ShutdownHandle, TapView,
};
use freqdedup::store::persist::{FsyncPolicy, PersistConfig};
use freqdedup::trace::{Backup, Fingerprint};

use crate::spans::Tracer;
use crate::stats::percentile;
use crate::workloads::{Input, Prepared, Source, Workload, GC_THRESHOLD_PERMILLE, SHARDS};

/// Commits the streaming attack folds the target in as.
const STREAM_COMMITS: usize = 64;
/// Point reads a pass makes before it may stop early.
const MIN_READS: usize = 32;
/// Secret of the key epoch the churn step rekeys to.
const EPOCH_SECRET: &[u8] = b"fdbench-epoch-1";

/// A failed operation: the round cannot go on.
#[derive(Debug)]
pub struct Abort(pub String);

/// Operations attempted and failed, as the result line reports them.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("fdbench: CHECK FAILED: {}", what());
        }
    }

    /// Counts one call into the system.
    ///
    /// # Errors
    ///
    /// [`Abort`] when the call failed.
    pub fn op<T, E: Display>(&mut self, result: Result<T, E>, what: &str) -> Result<T, Abort> {
        self.attempted += 1;
        result.map_err(|e| {
            self.failed += 1;
            Abort(format!("{what}: {e}"))
        })
    }
}

/// Raw per-round numbers, keyed by name; `run::reduce` reduces them.
#[derive(Debug, Default)]
pub struct Samples {
    values: Vec<(&'static str, f64)>,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Every value pushed under `name`, in order.
    #[must_use]
    pub fn all(&self, name: &str) -> Vec<f64> {
        self.values
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    }

    pub fn clear(&mut self) {
        self.values.clear();
    }
}

/// A server running on its own thread.
struct Service {
    addr: std::net::SocketAddr,
    tap: TapView,
    stop: ShutdownHandle,
    thread: Option<JoinHandle<Result<ServeSummary, ServeError>>>,
}

impl Service {
    fn start(
        input: &Input,
        dir: &Path,
        epoch_secret: Option<&[u8]>,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(Service, f64), Abort> {
        let mut persist = PersistConfig::new(dir).fsync(FsyncPolicy::Never);
        if let Some(secret) = epoch_secret {
            persist = persist.epoch_secret(1, secret);
        }
        let config = ServerConfig {
            workers: 2,
            shards: SHARDS,
            engine: input.engine.clone().persist(persist),
            ..ServerConfig::default()
        };
        let (bound, bind_s) = tr.time("server.bind", |_| Server::bind(config));
        let server = tally.op(bound, "Server::bind")?;
        let addr = server
            .local_addr()
            .map_err(|e| Abort(format!("local_addr: {e}")))?;
        let service = Service {
            addr,
            tap: server.tap_handle(),
            stop: server.shutdown_handle(),
            thread: Some(std::thread::spawn(move || server.run())),
        };
        Ok((service, bind_s))
    }

    fn connect(
        &self,
        name: &str,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(Client, f64), Abort> {
        let (client, secs) = tr.time("server.connect", |_| Client::connect(self.addr, name));
        Ok((tally.op(client, "Client::connect")?, secs))
    }

    /// SHUTDOWN over `client`, then waits for `run()` to return.
    fn stop(
        mut self,
        client: &mut Client,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<f64, Abort> {
        let thread = self.thread.take().expect("service not stopped twice");
        let (result, secs) = tr.time("server.shutdown", |_| {
            client.shutdown().map_err(|e| e.to_string())?;
            thread
                .join()
                .map_err(|_| "server thread panicked".to_string())?
                .map_err(|e| e.to_string())
        });
        tally.op(result, "shutdown")?;
        Ok(secs)
    }
}

impl Drop for Service {
    /// An aborted round must not leave a server thread behind.
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.shutdown();
            let _ = thread.join();
        }
    }
}

fn sorted_pairs(inference: &Inference) -> Vec<(Fingerprint, Fingerprint)> {
    let mut pairs: Vec<_> = inference.iter().collect();
    pairs.sort_unstable();
    pairs
}

/// Everything a round borrows from the run.
pub struct RoundCtx<'a> {
    pub input: &'a Input,
    pub dir: &'a Path,
    pub tr: &'a mut Tracer,
    pub samples: &'a mut Samples,
    pub tally: &'a mut Tally,
    /// Every point-read latency of the run, in nanoseconds (for the p99).
    pub get_ns: &'a mut Vec<f64>,
}

/// Plays one round.
///
/// # Errors
///
/// [`Abort`] naming the first operation that failed.
pub fn play(ctx: RoundCtx<'_>) -> Result<(), Abort> {
    let RoundCtx {
        input,
        dir,
        tr,
        samples: s,
        tally,
        get_ns,
    } = ctx;
    let (result, round_s) = tr.time("round", |tr| -> Result<(), Abort> {
        let (service, bind_s) = Service::start(input, dir, None, tr, tally)?;
        s.push("bind_s", bind_s);
        let (mut client, connect_s) = service.connect("fdbench-writer", tr, tally)?;
        s.push("connect_us", connect_s * 1e6);

        let prepared = if input.workload == Workload::MixedChurn {
            mixed_phases(input, &service, &mut client, tr, s, tally, get_ns)?
        } else {
            let prepared = backup_phase(input, &mut client, 0, tr, s, tally)?;
            let (restored, _) = tr.time("phase.restore", |tr| {
                for (i, p) in prepared.iter().enumerate() {
                    let started = Instant::now();
                    let wire_s = restore_verified(input, &mut client, i, p, tr, tally)?;
                    s.push("restore_s", started.elapsed().as_secs_f64());
                    s.push("restore_wire_s", wire_s);
                }
                Ok(())
            });
            restored?;
            let (latencies, _) = tr.time("phase.reads", |tr| {
                point_reads(input, &mut client, None, tr, tally)
            });
            let latencies = latencies?;
            s.push("get_p50_ns", percentile(&latencies, 50.0));
            get_ns.extend(latencies);
            prepared
        };

        stats_check(input, &service, &mut client, tr, s, tally)?;

        s.push("shutdown_s", service.stop(&mut client, tr, tally)?);
        let (reopened, reopen_s) = tr.time("phase.reopen", |tr| {
            let (service, _) = Service::start(input, dir, None, tr, tally)?;
            let (mut client, _) = service.connect("fdbench-reopen", tr, tally)?;
            let (stats, _) = tr.time("server.stats", |_| client.stats());
            let stats = tally.op(stats, "STATS after re-bind")?;
            Ok((service, client, stats))
        });
        let (service, mut client, stats) = reopened?;
        s.push("reopen_s", reopen_s);
        tally.check(store_counters(&stats) == store_counters_of(input), || {
            format!("STATS after cold open {stats:?} != direct replay")
        });

        let (tape, _) = tr.time("server.tap_view", |_| {
            service.tap.with_tap(|tap| tap.series("tap"))
        });
        tr.time("bench.check", |_| {
            let same = tape.len() == input.cipher.len()
                && tape.iter().zip(&input.cipher).all(|(a, b)| a == b);
            tally.check(same, || {
                "tap series after cold open != uploaded cipher series".into()
            });
        });
        // The attack targets are the set-up's copy of the cipher series,
        // which the tap's series was just checked equal to (attack_sweep
        // attacks its full-size pair instead).
        tr.time("phase.attack", |tr| attack_phase(input, tr, s, tally));

        // The retention cycle, from the first request until the store
        // answers again under the new key.
        let (churned, _) = tr.time("phase.churn", |tr| {
            churn_phase(input, &mut client, tr, s, tally)?;
            let started = Instant::now();
            service.stop(&mut client, tr, tally)?;
            let (service, _) = Service::start(input, dir, Some(EPOCH_SECRET), tr, tally)?;
            let (mut client, _) = service.connect("fdbench-verify", tr, tally)?;
            let (stats, _) = tr.time("server.stats", |_| client.stats());
            tally.op(stats, "STATS under the new epoch")?;
            s.push("restart_s", started.elapsed().as_secs_f64());
            Ok((service, client))
        });
        let (service, mut client) = churned?;
        // What it must leave behind: survivors intact, deleted labels unknown.
        let (verified, _) = tr.time("phase.verify", |tr| {
            for i in input.survivors() {
                restore_verified(input, &mut client, i, &prepared[i], tr, tally)?;
            }
            for i in input.victims() {
                let label = &input.cipher[i].label;
                let (gone, _) = tr.time("server.restore", |_| client.restore(label));
                let refused = matches!(
                    gone,
                    Err(ClientError::Server { code, .. }) if code == code::UNKNOWN_LABEL
                );
                tally.check(refused, || {
                    format!("deleted {label} did not answer UNKNOWN_LABEL")
                });
            }
            service.stop(&mut client, tr, tally)
        });
        verified?;
        Ok(())
    });
    s.push("round_s", round_s);
    result
}

/// Prepares, uploads and commits backups `from..`; one `phase.backup`.
fn backup_phase(
    input: &Input,
    client: &mut Client,
    from: usize,
    tr: &mut Tracer,
    s: &mut Samples,
    tally: &mut Tally,
) -> Result<Vec<Prepared>, Abort> {
    tr.time("phase.backup", |tr| {
        input.plain[from..]
            .iter()
            .enumerate()
            .map(|(k, plain)| upload_one(input, client, from + k, plain, true, tr, s, tally))
            .collect()
    })
    .0
}

/// One backup from plaintext to COMMIT ack: three steps, pushed as samples
/// when `timed`.
#[allow(clippy::too_many_arguments)]
fn upload_one(
    input: &Input,
    client: &mut Client,
    i: usize,
    plain: &Backup,
    timed: bool,
    tr: &mut Tracer,
    s: &mut Samples,
    tally: &mut Tally,
) -> Result<Prepared, Abort> {
    let (prepared, prepare_s) = tr.time(input.source.prepare_span(), |_| {
        input.source.prepare(i, plain)
    });
    let cipher = prepared.cipher();
    let (summary, upload_s) = tr.time("server.upload", |_| match &prepared {
        Prepared::Bytes(stream) => client.upload_bytes(stream),
        Prepared::Trace(_) if input.source.payload_mode() => {
            client.upload_backup_payloads(cipher, |rec| synthetic_payload(rec.fp, rec.size))
        }
        Prepared::Trace(_) => client.upload_backup(cipher),
    });
    let summary = tally.op(summary, "upload")?;
    s.push("put_unique", summary.unique as f64);
    s.push("put_duplicate", summary.duplicate as f64);
    let (committed, commit_s) = tr.time("server.commit", |_| client.commit(&cipher.label));
    let committed = tally.op(committed, "COMMIT")?;
    if timed {
        s.push("prepare_s", prepare_s);
        s.push("upload_s", upload_s);
        s.push("commit_s", commit_s);
    }
    tally.check(committed == cipher.len() as u64, || {
        format!(
            "COMMIT {} acked {committed} chunks, sent {}",
            cipher.label,
            cipher.len()
        )
    });
    Ok(prepared)
}

/// RESTORE of backup `i` down to verified output: plaintext bytes for
/// `bytes_backup`, the record stream (and payload bytes in payload mode)
/// otherwise. Returns the wall time of the RESTORE call alone.
fn restore_verified(
    input: &Input,
    client: &mut Client,
    i: usize,
    prepared: &Prepared,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<f64, Abort> {
    let cipher = prepared.cipher();
    let (restored, wire_s) = tr.time("server.restore", |_| client.restore(&cipher.label));
    let restored: RestoredBackup = tally.op(restored, "RESTORE")?;
    match (prepared, &input.source) {
        (Prepared::Bytes(stream), Source::Bytes { snapshots, mle, .. }) => {
            let (bytes, _) = tr.time("mle.decode", |_| stream.decode(&restored, mle));
            let bytes = tally.op(bytes, "decode")?;
            tr.time("bench.check", |_| {
                tally.check(bytes == snapshots[i], || {
                    format!("restore {}: bytes differ from the snapshot", cipher.label)
                });
            });
        }
        _ => {
            tr.time("bench.check", |_| {
                let records = restored.backup.chunks == cipher.chunks;
                let payloads = !input.source.payload_mode()
                    || restored.payloads.as_ref().is_some_and(|payloads| {
                        payloads.len() == cipher.len()
                            && payloads
                                .iter()
                                .zip(&cipher.chunks)
                                .all(|(bytes, rec)| *bytes == synthetic_payload(rec.fp, rec.size))
                    });
                tally.check(records && payloads, || {
                    format!("restore {}: stream differs from the upload", cipher.label)
                });
            });
        }
    }
    Ok(wire_s)
}

/// GET-CHUNK for every record of `input.reads`; returns one latency sample,
/// in nanoseconds, per request. Stops early once `until` is set.
fn point_reads(
    input: &Input,
    client: &mut Client,
    until: Option<&AtomicBool>,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Vec<f64>, Abort> {
    let payload_mode = input.source.payload_mode();
    tr.time("server.get_chunk", |_| {
        let mut latencies_ns = Vec::with_capacity(input.reads.len());
        for (i, rec) in input.reads.iter().enumerate() {
            // Never fewer than MIN_READS: a median needs samples even when
            // the other side finishes first.
            if i >= MIN_READS && until.is_some_and(|done| done.load(Ordering::Acquire)) {
                break;
            }
            let started = Instant::now();
            let reply = client.get_chunk(rec.fp);
            latencies_ns.push(started.elapsed().as_nanos() as f64);
            let reply = tally.op(reply, "GET-CHUNK")?;
            // A payload store answers the bytes; a metadata store answers
            // "known, no bytes", which the client maps to None.
            let ok = match reply {
                Some(bytes) => payload_mode && bytes.len() == rec.size as usize,
                None => !payload_mode,
            };
            if !ok {
                tally.check(false, || format!("GET-CHUNK {}: wrong reply", rec.fp));
            }
        }
        Ok(latencies_ns)
    })
    .0
}

/// The store counters STATS carries, in one comparable tuple.
fn store_counters(stats: &ServerStats) -> [u64; 8] {
    [
        stats.logical_chunks,
        stats.logical_bytes,
        stats.unique_chunks,
        stats.unique_bytes,
        stats.dup_cache_hits,
        stats.dup_buffer_hits,
        stats.dup_index_hits,
        stats.containers_sealed,
    ]
}

fn store_counters_of(input: &Input) -> [u64; 8] {
    let live = &input.replay.live;
    [
        live.logical_chunks,
        live.logical_bytes,
        live.unique_chunks,
        live.unique_bytes,
        live.dup_cache_hits,
        live.dup_buffer_hits,
        live.dup_index_hits,
        live.containers_sealed,
    ]
}

/// STATS against the direct-engine replay, plus the tap's fold times (the
/// restart that follows resets that log).
fn stats_check(
    input: &Input,
    service: &Service,
    client: &mut Client,
    tr: &mut Tracer,
    s: &mut Samples,
    tally: &mut Tally,
) -> Result<(), Abort> {
    let (stats, _) = tr.time("server.stats", |_| client.stats());
    let stats = tally.op(stats, "STATS")?;
    tally.check(store_counters(&stats) == store_counters_of(input), || {
        format!("STATS {stats:?} != direct replay {:?}", input.replay.live)
    });
    tally.check(stats.tap_warnings == 0, || {
        format!("server reports {} tap warnings", stats.tap_warnings)
    });
    s.push(
        "stored_per_logical",
        stats.unique_bytes as f64 / stats.logical_bytes as f64,
    );
    let (folds, _) = tr.time("server.tap_view", |_| {
        service
            .tap
            .with_tap(|tap| tap.streaming().update_micros().to_vec())
    });
    for micros in folds {
        s.push("tap_fold_ms", micros as f64 / 1e3);
    }
    Ok(())
}

/// The attack step. The locality attack (batch and streaming) and the
/// advanced attack behind `leak_rate` run on every `(target, auxiliary)` pair
/// of the series, one step per pair; the other variants run on the latest
/// pair, where the streaming engine is also checked against the batch
/// recompute.
fn attack_phase(input: &Input, tr: &mut Tracer, s: &mut Samples, tally: &mut Tally) {
    let attack = &input.attack;
    let params = LocalityParams::default();
    let kp_params = LocalityParams::known_plaintext_default();
    // Cutting a target into the epochs it arrives as is the benchmark's work.
    let (mut epochs, _) = tr.time("bench.epochs", |_| -> Vec<Vec<Backup>> {
        attack
            .pairs
            .iter()
            .map(|(target, _)| {
                shard_ranges(target.len(), STREAM_COMMITS)
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| {
                        Backup::from_chunks(format!("epoch-{i:03}"), target.chunks[r].to_vec())
                    })
                    .collect()
            })
            .collect()
    });

    let mut pairs_locality = 0;
    for (target, aux) in &attack.pairs {
        let (inference, secs) = tr.time("core.locality", |_| {
            attacks::run_ciphertext_only(AttackKind::Locality, target, aux, &params)
        });
        s.push("locality_s", secs);
        pairs_locality += inference.len();
        let (_, secs) = tr.time("core.count", |_| {
            std::hint::black_box((
                DenseStats::full_with_policy(target, params.tie_policy),
                DenseStats::full_with_policy(aux, params.tie_policy),
            ));
        });
        s.push("count_s", secs);
    }
    s.push("pairs_locality", pairs_locality as f64);

    // The adversary's steady state: a target arrives as committed epochs,
    // each folded into the running COUNT/CSR state, then inference runs on
    // the segmented tables.
    let mut merged_entries = 0;
    let mut latest = None;
    for ((_, aux), epochs) in attack.pairs.iter().zip(&epochs) {
        let ((stats, streamed), _) = tr.time("core.stream", |_| {
            let mut stats = IncrementalStats::new(params.tie_policy);
            let started = Instant::now();
            let mut lap = started;
            for epoch in epochs {
                let receipt = stats.commit(epoch);
                let now = Instant::now();
                s.push("stream_commit_ms", (now - lap).as_secs_f64() * 1e3);
                lap = now;
                merged_entries += receipt.merged_entries;
            }
            s.push("stream_fold_s", (lap - started).as_secs_f64());
            let streamed =
                attacks::run_ciphertext_only_streaming(AttackKind::Locality, &stats, aux, &params);
            s.push("stream_infer_s", lap.elapsed().as_secs_f64());
            (stats, streamed)
        });
        latest = Some((stats, streamed));
    }
    let (latest_stats, latest_streamed) = latest.expect("at least one pair");
    let latest_epochs = epochs.pop().expect("at least one pair");
    s.push("merged_entries", merged_entries as f64);
    s.push(
        "csr_merges",
        (latest_stats.left().merges() + latest_stats.right().merges()) as f64,
    );

    let mut totals = (0, 0, 0);
    for (target, aux) in &attack.pairs {
        let (inference, secs) = tr.time("core.advanced", |_| {
            attacks::run_ciphertext_only(AttackKind::Advanced, target, aux, &params)
        });
        s.push("advanced_s", secs);
        let (report, secs) = tr.time("core.score", |_| {
            metrics::score(&inference, target, &attack.truth)
        });
        s.push("score_s", secs);
        totals = (
            totals.0 + report.correct,
            totals.1 + report.total_unique,
            totals.2 + inference.len(),
        );
    }
    s.push("pairs_advanced", totals.2 as f64);
    s.push("leak_rate", totals.0 as f64 / totals.1.max(1) as f64);

    let (target, aux) = attack.pairs.last().expect("at least one pair");
    let (basic, basic_s) = tr.time("core.basic", |_| {
        attacks::run_ciphertext_only(AttackKind::Basic, target, aux, &params)
    });
    s.push("basic_s", basic_s);
    s.push("pairs_basic", basic.len() as f64);
    let (_, kp_locality_s) = tr.time("core.kp_locality", |_| {
        attacks::run_known_plaintext(
            AttackKind::Locality,
            target,
            aux,
            &attack.leaked,
            &kp_params,
        )
    });
    s.push("kp_locality_s", kp_locality_s);
    let (_, kp_advanced_s) = tr.time("core.kp_advanced", |_| {
        attacks::run_known_plaintext(
            AttackKind::Advanced,
            target,
            aux,
            &attack.leaked,
            &kp_params,
        )
    });
    s.push("kp_advanced_s", kp_advanced_s);
    let (batch, series_s) = tr.time("core.batch_series", |_| {
        attacks::run_ciphertext_only_series(AttackKind::Locality, &latest_epochs, aux, &params)
    });
    s.push("series_s", series_s);
    tr.time("bench.check", |_| {
        tally.check(
            sorted_pairs(&latest_streamed) == sorted_pairs(&batch),
            || "streaming inference != batch series inference".into(),
        );
    });
}

/// Deletes the odd generations, compacts, rekeys; each a step timed from
/// request to ack.
fn churn_phase(
    input: &Input,
    client: &mut Client,
    tr: &mut Tracer,
    s: &mut Samples,
    tally: &mut Tally,
) -> Result<(), Abort> {
    for i in input.victims() {
        let label = &input.cipher[i].label;
        let (deleted, secs) = tr.time("server.delete", |_| client.delete_backup(label, 0));
        let (chunks, _) = tally.op(deleted, "DELETE-BACKUP")?;
        s.push("delete_s", secs);
        tally.check(chunks == input.cipher[i].len() as u64, || {
            format!("DELETE-BACKUP {label} released {chunks} references")
        });
    }
    let (gc, secs) = tr.time("server.gc", |_| client.gc(GC_THRESHOLD_PERMILLE, 0));
    let gc = tally.op(gc, "GC")?;
    s.push("gc_s", secs);
    let want = &input.replay.gc;
    tally.check(
        (gc.containers_dropped, gc.reclaimed_bytes, gc.moved_chunks)
            == (
                want.containers_dropped,
                want.reclaimed_bytes,
                want.moved_chunks,
            ),
        || format!("GC {gc:?} != direct replay {want:?}"),
    );
    s.push("gc_moved", gc.moved_chunks as f64);
    s.push("gc_reclaimed", gc.reclaimed_bytes as f64);
    s.push("containers_dropped", gc.containers_dropped as f64);
    let (rekeyed, secs) = tr.time("server.rekey", |_| client.rekey(EPOCH_SECRET, 0));
    let (epoch, rewritten) = tally.op(rekeyed, "REKEY")?;
    s.push("rekey_s", secs);
    tally.check(epoch == 1, || {
        format!("REKEY moved to epoch {epoch}, not 1")
    });
    s.push("containers_rewritten", rewritten as f64);
    Ok(())
}

/// `mixed_churn`: `g0` goes in alone, a reader measures point reads with the
/// store to itself, then the writer backs up `g1..` while the reader loops
/// restores of `g0` and point reads on its own connection. The reader's
/// session is closed before the caller's lifecycle steps: REKEY fences open
/// sessions.
fn mixed_phases(
    input: &Input,
    service: &Service,
    writer: &mut Client,
    tr: &mut Tracer,
    s: &mut Samples,
    tally: &mut Tally,
    get_ns: &mut Vec<f64>,
) -> Result<Vec<Prepared>, Abort> {
    let (seeded, _) = tr.time("phase.seed", |tr| {
        upload_one(input, writer, 0, &input.plain[0], false, tr, s, tally)
    });
    let g0 = seeded?;
    let (mut reader, _) = service.connect("fdbench-reader", tr, tally)?;
    let (alone, _) = tr.time("phase.solo", |tr| {
        restore_verified(input, &mut reader, 0, &g0, tr, tally)?;
        point_reads(input, &mut reader, None, tr, tally)
    });
    s.push("solo_get_p50_ns", percentile(&alone?, 50.0));

    // The writer on this thread, the reader on another; the span owns the
    // thread start and join, which are the benchmark's.
    let writer_done = AtomicBool::new(false);
    let (both, _) = tr.time("bench.fanout", |tr| {
        let mut side = tr.fork();
        let mut side_tally = Tally::default();
        let (rest, read) = std::thread::scope(|scope| {
            let read = scope.spawn(|| {
                side.time("phase.restore", |tr| {
                    // (seconds, wire seconds, ended before the writer did)
                    let mut restores: Vec<(f64, f64, bool)> = Vec::new();
                    let mut latencies = Vec::new();
                    loop {
                        let started = Instant::now();
                        let wire_s =
                            restore_verified(input, &mut reader, 0, &g0, tr, &mut side_tally)?;
                        restores.push((
                            started.elapsed().as_secs_f64(),
                            wire_s,
                            !writer_done.load(Ordering::Acquire),
                        ));
                        latencies.extend(point_reads(
                            input,
                            &mut reader,
                            Some(&writer_done),
                            tr,
                            &mut side_tally,
                        )?);
                        if writer_done.load(Ordering::Acquire) {
                            return Ok((restores, latencies));
                        }
                    }
                })
                .0
            });
            let rest = backup_phase(input, writer, 1, tr, s, tally);
            writer_done.store(true, Ordering::Release);
            let read = read
                .join()
                .unwrap_or_else(|_| Err(Abort("reader thread panicked".into())));
            (rest, read)
        });
        tr.adopt(side);
        tally.attempted += side_tally.attempted;
        tally.failed += side_tally.failed;
        Ok::<_, Abort>((rest?, read?))
    });
    let (rest, (restores, latencies)) = both?;
    drop(reader);
    // A restore that outlived the writer ran partly alone: it counts only
    // when no restore fit inside the writer's time.
    let contended = restores.iter().any(|r| r.2);
    for (secs, wire_s, _) in restores.iter().filter(|r| r.2 || !contended) {
        s.push("restore_s", *secs);
        s.push("restore_wire_s", *wire_s);
    }
    s.push("get_p50_ns", percentile(&latencies, 50.0));
    get_ns.extend(latencies);
    let mut prepared = vec![g0];
    prepared.extend(rest);
    Ok(prepared)
}
