//! One run of one workload: set-up, a warm-up round, timed rounds for the run
//! length, then every metric by name and the one-line JSON result.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::catalog::{END_TO_END, EXACT, PER_LAYER};
use crate::json::{self, Value};
use crate::report::{self, Rec};
use crate::round::{self, RoundCtx, Samples, Tally};
use crate::spans::{self, Tracer};
use crate::stats::{fastest, median, percentile, typical};
use crate::workloads::{self, Input, Scale, Workload};
use crate::{golden, micro, sys};

/// Arguments of a single run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of timed rounds.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub update_golden: bool,
    /// Scratch directory for store directories and traces.
    pub work_dir: PathBuf,
    pub golden: PathBuf,
}

/// The default scratch directory: `.work/` beside the crate's manifest.
#[must_use]
pub fn default_work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of the metric set the run was asked for.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Round count, sentinel times, trace path: what `run --all` stores
    /// beside the metrics.
    pub info: Value,
}

impl Outcome {
    /// The contract's result object.
    #[must_use]
    pub fn result_json(&self) -> Value {
        json::obj([
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                (*name).to_string(),
                                json::obj([
                                    ("value", Value::from(*value)),
                                    ("unit", Value::from(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Timed rounds a run never goes below, whatever `--seconds` says.
const MIN_ROUNDS: usize = 5;
const MIN_ROUNDS_SMOKE: usize = 2;
/// How far the calibration kernel may move before a run is flagged.
pub const SENTINEL_TOLERANCE: f64 = 0.25;

/// Removes the scratch directory of a run when it ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `args.workload` once.
///
/// # Errors
///
/// Returns a message when the scratch directory or the golden file cannot be
/// used; failures of the system under test are counted in the outcome
/// instead.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let sentinel_before = sys::sentinel_ms();
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };

    // Set-up, several times over: its time is a metric and one sample of it
    // would carry the noise of one allocation pattern.
    let mut setups: Vec<(f64, f64, f64)> = Vec::new();
    let mut total = 0.0;
    let input: Input = loop {
        let started = Instant::now();
        let input = workloads::setup(args.workload, args.seed, &scale);
        let secs = started.elapsed().as_secs_f64();
        setups.push((secs, input.generate_s, input.replay.ingest_s));
        total += secs;
        if setups.len() >= 3 && (total >= 2.0 || setups.len() >= 15) {
            break input;
        }
    };

    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let scratch = Scratch(args.work_dir.join(format!("run-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&scratch.0);

    let mut tr = Tracer::new();
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut get_ns: Vec<f64> = Vec::with_capacity(1 << 16);
    let min_rounds = if args.smoke {
        MIN_ROUNDS_SMOKE
    } else {
        MIN_ROUNDS
    };
    let mut aborted = false;
    let mut timed_from = Instant::now();
    let mut round = 0u32;
    loop {
        // Round 0 warms caches, the allocator and the page cache.
        tr.set_recording(args.trace);
        tr.set_round(round);
        let dir = scratch.0.join(format!("round-{round}"));
        let played = round::play(RoundCtx {
            input: &input,
            dir: &dir,
            tr: &mut tr,
            samples: &mut samples,
            tally: &mut tally,
            get_ns: &mut get_ns,
        });
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(abort) = played {
            eprintln!("fdbench: round {round} aborted: {}", abort.0);
            aborted = true;
            break;
        }
        if round == 0 {
            samples.clear();
            get_ns.clear();
            timed_from = Instant::now();
        }
        round += 1;
        let timed = round as usize - 1;
        let last_round_s = samples.all("round_s").last().copied().unwrap_or(0.0);
        if timed >= min_rounds
            && timed_from.elapsed().as_secs_f64() + last_round_s / 2.0 > args.seconds
        {
            break;
        }
    }
    tr.set_recording(false);
    let column = |pick: fn(&(f64, f64, f64)) -> f64| -> f64 {
        median(&setups.iter().map(pick).collect::<Vec<_>>())
    };
    let direct_ingest_s = column(|s| s.2);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut by_median: BTreeMap<&'static str, f64> = BTreeMap::new();
    if !aborted {
        reduce(
            &input,
            &samples,
            &get_ns,
            direct_ingest_s,
            (fastest, typical),
            &mut values,
            &mut tally,
        );
        // The same samples reduced by the median alone, kept beside every
        // result so that a result set shows what the choice of estimator
        // buys (see the README's calibration table).
        let mut checks = Tally::default();
        reduce(
            &input,
            &samples,
            &get_ns,
            direct_ingest_s,
            (median, median),
            &mut by_median,
            &mut checks,
        );
    }
    values.insert("setup_s", column(|s| s.0));
    values.insert("datasets.generate_s", column(|s| s.1));
    values.insert(
        "store.ingest_kchunk_s",
        input.logical_chunks() as f64 / 1e3 / direct_ingest_s,
    );

    let mut trace_path = None;
    if args.trace && !aborted {
        for (name, value) in micro::measure(&input, &scratch.0.join("micro")) {
            values.insert(name, value);
        }
        let recs: Vec<Rec> = tr.spans().iter().map(Rec::from).collect();
        let analysis = report::analyse(&recs);
        values.insert("trace.spans", recs.len() as f64);
        values.insert("trace.phase_coverage_min", analysis.min_coverage());
        tally.check(tr.dropped() == 0, || {
            format!("{} spans did not fit the trace buffer", tr.dropped())
        });
        // What recording costs a round, measured on the recorder: a round
        // records about a hundred spans of tens of nanoseconds each, which no
        // comparison of traced with untraced rounds on a shared box resolves.
        let spans_per_round = recs.len() as f64 / f64::from(round);
        values.insert(
            "trace_overhead",
            1.0 + spans::recording_cost_s() * spans_per_round / values["rounds.median_s"],
        );
        let path = args.work_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        trace_path = Some(path);
    }

    let sentinel_after = sys::sentinel_ms();
    values.insert("box.slowdown", sentinel_after / sentinel_before);
    values.insert("peak_rss_mib", sys::peak_rss_mib());

    // Pins: only the full-size inputs are pinned, and only for pinned seeds.
    let exact: Vec<(&str, f64)> = EXACT
        .iter()
        .filter_map(|name| values.get(name).map(|v| (*name, *v)))
        .collect();
    let mut pinned = "not pinned";
    if !args.smoke && !aborted {
        if args.update_golden {
            golden::update(&args.golden, args.workload.name(), args.seed, &exact)?;
            pinned = "updated";
        } else if let Some(mismatches) =
            golden::check(&args.golden, args.workload.name(), args.seed, &exact)?
        {
            pinned = "checked";
            tally.check(mismatches.is_empty(), || {
                format!("golden pins moved: {}", mismatches.join("; "))
            });
        }
    }

    let wanted: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = wanted
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().filter(|v| v.is_finite());
            tally.check(value.is_some() || aborted, || {
                format!("metric {name} was not measured")
            });
            (*name, value.unwrap_or(0.0), *unit)
        })
        .collect();
    let timed_rounds = (round as usize).saturating_sub(1);
    let info = json::obj([
        ("workload", Value::from(args.workload.name())),
        ("seed", Value::from(args.seed)),
        ("trace", Value::from(args.trace)),
        ("smoke", Value::from(args.smoke)),
        ("timed_rounds", Value::from(timed_rounds as u64)),
        ("setups", Value::from(setups.len() as u64)),
        ("get_chunk_samples", Value::from(get_ns.len() as u64)),
        ("sentinel_before_ms", Value::from(sentinel_before)),
        ("sentinel_after_ms", Value::from(sentinel_after)),
        (
            "sentinel_flagged",
            Value::from((sentinel_after / sentinel_before - 1.0).abs() > SENTINEL_TOLERANCE),
        ),
        ("golden", Value::from(pinned)),
        ("nproc", Value::from(sys::nproc() as u64)),
        (
            "by_median",
            Value::Obj(
                END_TO_END
                    .iter()
                    .filter_map(|(name, _)| {
                        Some(((*name).to_string(), Value::from(*by_median.get(name)?)))
                    })
                    .collect(),
            ),
        ),
        (
            "trace_file",
            trace_path.map_or(Value::Null, |p| Value::from(p.display().to_string())),
        ),
    ]);
    Ok(Outcome {
        correct: !aborted && tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
        info,
    })
}

/// What a step's samples over the rounds reduce to.
type Estimator = fn(&[f64]) -> f64;

/// Reduces the rounds' raw samples to the reported numbers. A time is the
/// sum, over the steps a round makes under one name, of what that step took
/// over the rounds: `computing` of its samples when the step only computes on
/// the calling thread ([`fastest`] for the reported numbers), `waiting` of them
/// when it waits for the server ([`typical`]). A
/// per-request latency is a percentile over pooled samples; everything that
/// must not vary is checked equal across rounds.
fn reduce(
    input: &Input,
    s: &Samples,
    get_ns: &[f64],
    direct_ingest_s: f64,
    (computing, waiting): (Estimator, Estimator),
    out: &mut BTreeMap<&'static str, f64>,
    tally: &mut Tally,
) {
    let rounds = s.all("round_s").len();
    let uneven = std::cell::RefCell::new(Vec::new());
    let steps = |name: &'static str, estimate: Estimator| -> f64 {
        let values = s.all(name);
        if values.is_empty() || !values.len().is_multiple_of(rounds) {
            uneven.borrow_mut().push(name);
            return f64::NAN;
        }
        let per_round = values.len() / rounds;
        (0..per_round)
            .map(|step| {
                let over_rounds: Vec<f64> = values
                    .iter()
                    .skip(step)
                    .step_by(per_round)
                    .copied()
                    .collect();
                estimate(&over_rounds)
            })
            .sum()
    };
    let computes = |name| steps(name, computing);
    let waits = |name| steps(name, waiting);
    let kchunks = |backups: &[freqdedup::trace::Backup]| {
        backups.iter().map(|b| b.len() as f64).sum::<f64>() / 1e3
    };

    // mixed_churn times the writer on g1.. and the reader on g0, as often as
    // it fits beside the writer; every other workload times each once.
    let mixed = input.workload == Workload::MixedChurn;
    let (prepare_s, upload_s, commit_s) =
        (computes("prepare_s"), waits("upload_s"), waits("commit_s"));
    let backup_s = prepare_s + upload_s + commit_s;
    out.insert(
        "backup_kchunk_s",
        kchunks(&input.cipher[usize::from(mixed)..]) / backup_s,
    );
    let (restore_kchunks, restore_s, restore_wire_s) = if mixed {
        (
            kchunks(&input.cipher[..1]),
            waiting(&s.all("restore_s")),
            waiting(&s.all("restore_wire_s")),
        )
    } else {
        (
            kchunks(&input.cipher),
            waits("restore_s"),
            waits("restore_wire_s"),
        )
    };
    out.insert("restore_kchunk_s", restore_kchunks / restore_s);
    let get_p50_ns = waits("get_p50_ns");
    out.insert("get_chunk_p50_us", get_p50_ns / 1e3);
    out.insert(
        "churn_s",
        waits("delete_s") + waits("gc_s") + waits("rekey_s") + waits("restart_s"),
    );
    out.insert("reopen_s", waits("reopen_s"));
    let attack_kchunks = input.attack.chunks() as f64 / 1e3;
    let locality_s = computes("locality_s");
    let stream_infer_s = computes("stream_infer_s");
    out.insert("attack_kchunk_s", attack_kchunks / locality_s);
    out.insert(
        "stream_attack_kchunk_s",
        attack_kchunks / (computes("stream_fold_s") + stream_infer_s),
    );

    out.insert("mle.encode_share", prepare_s / backup_s);
    out.insert("server.upload_s", upload_s);
    // Both sides cover the whole series, so the chunk counts cancel; the
    // writer of mixed_churn covers part of it and reports no ratio.
    out.insert(
        "server.wire_overhead_ratio",
        if mixed {
            0.0
        } else {
            (upload_s + commit_s) / direct_ingest_s
        },
    );
    let commit_ms: Vec<f64> = s.all("commit_s").iter().map(|secs| secs * 1e3).collect();
    out.insert("server.commit_ms_p50", percentile(&commit_ms, 50.0));
    out.insert("server.commit_ms_max", percentile(&commit_ms, 100.0));
    out.insert("server.restore_s", restore_wire_s);
    out.insert("server.bind_s", waits("bind_s"));
    out.insert("server.connect_us", waits("connect_us"));
    out.insert("server.shutdown_s", waits("shutdown_s"));
    let tap_fold_ms = s.all("tap_fold_ms");
    out.insert("server.tap_fold_ms_p50", percentile(&tap_fold_ms, 50.0));
    out.insert("server.tap_fold_ms_max", percentile(&tap_fold_ms, 100.0));
    out.insert("server.get_chunk_p99_us", percentile(get_ns, 99.0) / 1e3);
    out.insert("server.get_chunk_samples", get_ns.len() as f64);
    out.insert(
        "server.read_contention_ratio",
        if mixed {
            get_p50_ns / waits("solo_get_p50_ns")
        } else {
            0.0
        },
    );

    let count_s = computes("count_s");
    out.insert("core.count_s", count_s);
    out.insert("core.crawl_s", (locality_s - count_s).max(0.0));
    out.insert("core.basic_s", computes("basic_s"));
    out.insert("core.locality_s", locality_s);
    out.insert("core.advanced_s", computes("advanced_s"));
    out.insert("core.kp_locality_s", computes("kp_locality_s"));
    out.insert("core.kp_advanced_s", computes("kp_advanced_s"));
    out.insert("core.score_s", computes("score_s"));
    let stream_commit_ms = s.all("stream_commit_ms");
    out.insert(
        "core.stream_commit_ms_p50",
        percentile(&stream_commit_ms, 50.0),
    );
    out.insert(
        "core.stream_commit_ms_max",
        percentile(&stream_commit_ms, 100.0),
    );
    out.insert("core.stream_infer_s", stream_infer_s);
    // Streaming against the batch recompute on the same epochs: the latest
    // pair, which is the last streaming step of a round.
    let pairs = input.attack.pairs.len();
    let latest_infer: Vec<f64> = s
        .all("stream_infer_s")
        .iter()
        .skip(pairs - 1)
        .step_by(pairs)
        .copied()
        .collect();
    out.insert(
        "core.stream_vs_batch",
        computing(&latest_infer) / computes("series_s"),
    );
    out.insert("rounds.timed", rounds as f64);
    out.insert("rounds.median_s", median(&s.all("round_s")));
    tally.check(uneven.borrow().is_empty(), || {
        format!("steps without one sample per round: {:?}", uneven.borrow())
    });

    // Samples pushed once per upload: their sum per round, per round.
    let per_round_sums = |name: &str| -> Vec<f64> {
        s.all(name)
            .chunks(input.plain.len())
            .map(|round| round.iter().sum())
            .collect()
    };
    // A value every round must agree on.
    let mut exact = |name: &'static str, values: Vec<f64>| {
        let first = values[0];
        tally.check(
            values.iter().all(|v| v.to_bits() == first.to_bits()),
            || format!("{name} differs between rounds: {values:?}"),
        );
        out.insert(name, first);
    };
    exact("leak_rate", s.all("leak_rate"));
    exact("stored_per_logical", s.all("stored_per_logical"));
    exact("core.inferred_pairs_basic", s.all("pairs_basic"));
    exact("core.inferred_pairs_locality", s.all("pairs_locality"));
    exact("core.inferred_pairs_advanced", s.all("pairs_advanced"));
    exact("core.csr_merges", s.all("csr_merges"));
    exact("core.merged_entries", s.all("merged_entries"));
    exact("store.gc_moved_chunks", s.all("gc_moved"));
    exact("store.gc_reclaimed_bytes", s.all("gc_reclaimed"));
    exact("store.containers_dropped", s.all("containers_dropped"));
    exact("store.containers_rewritten", s.all("containers_rewritten"));
    exact("server.put_ack_unique", per_round_sums("put_unique"));
    exact("server.put_ack_duplicate", per_round_sums("put_duplicate"));

    let live = &input.replay.live;
    let access = &input.replay.access;
    out.insert(
        "metadata_bytes_per_chunk",
        access.total_bytes() as f64 / live.logical_chunks as f64,
    );
    out.insert("rounds.logical_chunks", input.logical_chunks() as f64);
    out.insert("rounds.unique_chunks", input.unique_chunks as f64);
    out.insert(
        "store.cache_hit_ratio",
        live.dup_cache_hits as f64 / live.logical_chunks as f64,
    );
    out.insert("store.loading_fraction", access.loading_fraction());
    out.insert(
        "store.bloom_false_positives",
        live.bloom_false_positives as f64,
    );
    out.insert("store.containers_sealed", live.containers_sealed as f64);
}

/// Prints the outcome: every metric by name with its unit, an info line, and
/// the result object as the last line.
pub fn print(outcome: &Outcome) {
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!("fdbench-info {}", outcome.info.to_line());
    println!("{}", outcome.result_json().to_line());
}
