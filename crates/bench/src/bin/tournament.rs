//! `tournament` — the leakage-vs-overhead frontier of every defense.
//!
//! Sweeps **every attack** (basic / locality / advanced, each under both
//! neighbour-table tie-break policies, batch *and* streaming) against
//! **every shipped [`DefenseScheme`]** on the synthetic FSL-like backup
//! pair, at 1M-chunk scale by default. Every defended stream travels the
//! real route: the scheme encrypts the target backup, the ciphertext is
//! uploaded through `freqdedup_server::client::Client` to a loopback
//! `Server` in epoch-sized commits, and the attacks read the provider's
//! `AdversaryTap` — batch via a series recompute over the committed tape,
//! streaming via the tap's running `IncrementalStats` — so the recorded
//! rates are what the provider-side adversary actually achieves.
//!
//! The roster (the frontier's rows):
//!
//! * `none` — [`NoDefense`], the baseline; its ciphertext stream is
//!   asserted **bit-identical** to the plain deterministic-MLE pipeline.
//! * `minhash`, `scramble`, `minhash-scramble` — the paper's §6–§7
//!   defenses on the trait.
//! * `ted@b` — TED-style tunable dedup at storage-blowup budgets
//!   1.25 / 1.5 / 2.0.
//! * `pfse@b` — partition-based frequency smoothing (8 partitions) at
//!   the same budgets.
//!
//! Per row the tournament records the measured storage blowup (unique
//! ciphertexts / unique plaintexts), encryption wall-clock, and the
//! inference rate per attack × policy; it asserts
//! streaming ≡ batch for every cell and — the acceptance bar — that TED
//! and PFSE at ≤2× blowup infer **strictly less** than `none` under the
//! locality attack on both policies.
//!
//! The sweep is deterministic end to end, so at the `--quick` size the
//! ten rows — blowup and all six rates — are additionally compared at
//! exact equality against [`QUICK_PINS`]: any drift is a correctness bug
//! in an attack or a defense, never noise, and exits non-zero naming the
//! scheme and the cell. Other sizes carry no pins (rates do not
//! normalize across chunk counts) and run the structural checks only.
//!
//! Flags: see [`USAGE`].

use std::sync::Arc;

use freqdedup_bench::cli;
use freqdedup_bench::harness::{self, build_pair, store_config, timed};
use freqdedup_core::attacks::locality::LocalityParams;
use freqdedup_core::attacks::{self, AttackKind};
use freqdedup_core::defense::prelude::*;
use freqdedup_core::metrics::{self, Inference};
use freqdedup_core::TiePolicy;
use freqdedup_mle::trace_enc::{DeterministicTraceEncryptor, EncryptedBackup};
use freqdedup_server::client::Client;
use freqdedup_server::server::{Server, ServerConfig, TapView};
use freqdedup_trace::{Backup, Fingerprint};

const USAGE: &str = "usage: tournament [--quick] [--chunks N]
  --quick     CI-sized run (~60k logical chunks per backup), pinned
  --chunks N  logical chunks per backup (default 1,000,000)
Runs every attack (basic/locality/advanced x both tie-break policies,
batch + streaming) against every defense scheme through the real
client -> server -> adversary-tap route and prints the leakage-vs-overhead
frontier. Exits non-zero unless NoDefense == plain MLE, streaming == batch,
budgets hold, TED/PFSE leak less than none under the locality attack and,
at the --quick size, every blowup and rate equals its pinned value.";

/// Commits per defended upload: enough boundaries to exercise the
/// streaming fold without drowning the run in connection setup.
const EPOCHS: usize = 8;
/// The tunable budgets swept for TED and PFSE (all within the 2x
/// acceptance ceiling).
const BUDGETS: [f64; 3] = [1.25, 1.5, 2.0];
/// PFSE partition count (the paper-shaped default).
const PARTITIONS: usize = 8;
/// Names of the cells [`Row::cells`] holds and [`QUICK_PINS`] pins.
const COLUMNS: [&str; 7] = [
    "blowup",
    "basic_stream",
    "basic_key",
    "locality_stream",
    "locality_key",
    "advanced_stream",
    "advanced_key",
];

fn sorted_pairs(inf: &Inference) -> Vec<(Fingerprint, Fingerprint)> {
    let mut v: Vec<_> = inf.iter().collect();
    v.sort_unstable();
    v
}

/// One frontier row: a scheme configuration with its measured overhead
/// and the inference rate per attack kind x tie-break policy.
struct Row {
    label: String,
    budget: Option<f64>,
    blowup: f64,
    encrypt_ms: f64,
    /// `rates[kind][policy]`, kinds in [`AttackKind::ALL`] order, policies in
    /// `[StreamOrder, KeyOrder]` order.
    rates: [[f64; 2]; 3],
}

impl Row {
    fn locality(&self) -> [f64; 2] {
        self.rates[1]
    }

    fn cells(&self) -> Cells<'_> {
        let mut cells = [(self.blowup * 1e4).round() as i64; 7];
        for (cell, rate) in cells[1..].iter_mut().zip(self.rates.as_flattened()) {
            *cell = (rate * 1e6).round() as i64;
        }
        (&self.label, cells)
    }
}

/// A row's scheme and its [`COLUMNS`] as integers: blowup in units of
/// 1e-4, the six inference rates in units of 1e-6 — the digits a pin
/// holds, so equality on them is exact.
type Cells<'a> = (&'a str, [i64; 7]);

/// The frontier at [`cli::QUICK_CHUNKS`], roster order. Recorded by this
/// binary; a change here is a change to an attack, a defense, the dataset
/// generator or the wire route, and has to be explained as one.
const QUICK_PINS: [Cells; 10] = [
    ("none", [10000, 374, 374, 186635, 31472, 691054, 690189]),
    ("minhash", [10927, 107, 107, 1883, 1220, 578759, 582269]),
    ("scramble", [10000, 374, 374, 23, 23, 75103, 75056]),
    (
        "minhash-scramble",
        [10927, 107, 107, 193, 813, 54396, 54396],
    ),
    ("ted@1.25", [11952, 39, 39, 802, 567, 593974, 596948]),
    ("pfse@1.25", [11153, 42, 42, 734, 2055, 618755, 630600]),
    ("ted@1.5", [14609, 16, 16, 544, 544, 457659, 457579]),
    ("pfse@1.5", [11153, 42, 42, 734, 2055, 618755, 630600]),
    ("ted@2", [14609, 16, 16, 544, 544, 457659, 457579]),
    ("pfse@2", [11153, 42, 42, 734, 2055, 618755, 630600]),
];

/// Every way `measured` differs from `pins`: one message per differing
/// cell, naming scheme and column, or per missing, extra or misplaced row.
fn pin_mismatches(measured: &[Cells], pins: &[Cells]) -> Vec<String> {
    let mut out = Vec::new();
    let (m, p) = (measured.len(), pins.len());
    if m != p {
        out.push(format!("{m} rows measured, {p} pinned"));
    }
    for ((scheme, cells), (pinned_scheme, pinned)) in measured.iter().zip(pins) {
        if scheme != pinned_scheme {
            out.push(format!(
                "row {scheme} measured where {pinned_scheme} is pinned"
            ));
            continue;
        }
        for (c, column) in COLUMNS.into_iter().enumerate() {
            if cells[c] != pinned[c] {
                let unit = if c == 0 { "e-4" } else { "e-6" };
                out.push(format!(
                    "{scheme} {column}: measured {}{unit}, pinned {}{unit}",
                    cells[c], pinned[c]
                ));
            }
        }
    }
    out
}

/// Uploads the defended ciphertext stream through the real wire stack —
/// one loopback client committing [`EPOCHS`] epoch manifests — and
/// returns the provider's tap plus the committed tape in commit order.
fn serve_and_tap(cipher: &Backup) -> (TapView, Vec<Arc<Backup>>) {
    let server = Server::bind(ServerConfig {
        workers: 1,
        engine: store_config(cipher.unique_count()),
        ..ServerConfig::default()
    })
    .expect("bind loopback tournament server");
    let addr = server.local_addr().expect("local addr");
    let tap = server.tap_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let mut client = Client::connect(addr, "tournament").expect("connect tournament client");
    for (i, range) in freqdedup_core::par::shard_ranges(cipher.chunks.len(), EPOCHS)
        .into_iter()
        .filter(|r| !r.is_empty())
        .enumerate()
    {
        let epoch = Backup::from_chunks(format!("epoch-{i:02}"), cipher.chunks[range].to_vec());
        client.upload_backup(&epoch).expect("upload epoch");
        client.commit(&epoch.label).expect("commit epoch");
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let tape = tap.with_tap(|t| {
        assert!(t.streaming_consistent(), "tap streaming state diverged");
        t.committed().to_vec()
    });
    assert_eq!(
        tape.iter().map(|b| b.len()).sum::<usize>(),
        cipher.len(),
        "tap lost chunks"
    );
    (tap, tape)
}

/// Runs one scheme through encryption, the wire route and the full
/// attack grid; returns the frontier row and the scheme's ciphertext.
fn run_scheme(
    label: &str,
    scheme: &dyn DefenseScheme,
    aux: &Backup,
    target: &Backup,
    ctx: &KeyContext,
    params: &LocalityParams,
) -> (Row, EncryptedBackup) {
    eprintln!("tournament: [{label}] encrypting + serving...");
    let (encrypt_ms, enc) = timed(|| scheme.encrypt_backup(target, ctx));
    assert_eq!(enc.backup.len(), target.len(), "scheme dropped chunks");
    let blowup = enc.backup.unique_count() as f64 / target.unique_count().max(1) as f64;
    if let Some(budget) = scheme.blowup_budget() {
        assert!(
            blowup <= budget + 1e-9,
            "[{label}] blowup {blowup:.4} exceeds budget {budget}"
        );
    }
    let (tap, tape) = serve_and_tap(&enc.backup);

    let mut rates = [[0.0f64; 2]; 3];
    for (k, kind) in AttackKind::ALL.iter().enumerate() {
        let streamed = tap.with_tap(|t| t.streaming_inference_both_policies(*kind, aux, params));
        for (policy, inferred) in streamed {
            let per_policy = params.clone().tie_policy(policy);
            let batch = attacks::run_ciphertext_only_series(*kind, &tape, aux, &per_policy);
            assert_eq!(
                sorted_pairs(&inferred),
                sorted_pairs(&batch),
                "[{label}] streaming {kind} under {policy:?} diverged from batch"
            );
            let report = metrics::score(&inferred, &enc.backup, &enc.truth);
            let p = usize::from(policy == TiePolicy::KeyOrder);
            rates[k][p] = report.rate;
            eprintln!(
                "tournament: [{label}] {kind}/{policy:?}: rate {:.4} ({}/{})",
                report.rate, report.correct, report.total_unique
            );
        }
    }
    let row = Row {
        label: label.to_string(),
        budget: scheme.blowup_budget(),
        blowup,
        encrypt_ms,
        rates,
    };
    (row, enc)
}

fn main() {
    let chunks = cli::parse_chunks(std::env::args().skip(1), USAGE);
    // Worker threads: auto. Every attack is bit-identical at any count.
    let params = harness::co_params().threads(0);
    let ctx = harness::key_context();

    eprintln!("tournament: generating pair (~{chunks} chunks per backup)...");
    let (aux, target) = build_pair(chunks);

    // The roster: every shipped scheme, tunables swept across BUDGETS.
    let mut roster: Vec<(String, Box<dyn DefenseScheme>)> = vec![
        ("none".into(), Box::new(NoDefense)),
        (
            "minhash".into(),
            Box::new(MinHashEncryption::new(harness::segment_params(8192))),
        ),
        (
            "scramble".into(),
            Box::new(ScrambleScheme::new(harness::segment_params(8192))),
        ),
        (
            "minhash-scramble".into(),
            Box::new(MinHashScrambleScheme::combined(
                harness::segment_params(8192),
                harness::DEFENSE_SEED,
            )),
        ),
    ];
    for budget in BUDGETS {
        roster.push((
            format!("ted@{budget}"),
            Box::new(TedScheme::new(budget).expect("valid TED budget")),
        ));
        roster.push((
            format!("pfse@{budget}"),
            Box::new(PartitionSmoothing::new(PARTITIONS, budget).expect("valid PFSE parameters")),
        ));
    }

    let mut rows = Vec::new();
    for (label, scheme) in &roster {
        let (row, enc) = run_scheme(label, scheme.as_ref(), &aux, &target, &ctx, &params);
        if label == "none" {
            // The acceptance pin: the trait baseline is bit-identical to
            // the pre-trait deterministic-MLE pipeline, stream and truth.
            let direct =
                DeterministicTraceEncryptor::new(harness::MLE_SECRET).encrypt_backup(&target);
            assert_eq!(
                enc.backup.chunks, direct.backup.chunks,
                "NoDefense diverged from the plain deterministic-MLE stream"
            );
            for rec in &direct.backup {
                assert_eq!(
                    enc.truth.plain_of(rec.fp),
                    direct.truth.plain_of(rec.fp),
                    "NoDefense ground truth diverged from the plain pipeline"
                );
            }
            eprintln!("tournament: [none] pinned bit-identical to the undefended pipeline");
        }
        rows.push(row);
    }

    // Acceptance bar: every tunable row at <=2x blowup must leak strictly
    // less than NoDefense under the locality attack, on both policies.
    let baseline = rows[0].locality();
    let mut failures = Vec::new();
    for row in rows.iter().filter(|r| {
        (r.label.starts_with("ted@") || r.label.starts_with("pfse@"))
            && r.budget.is_some_and(|b| b <= 2.0)
    }) {
        for (p, policy) in ["stream", "key"].into_iter().enumerate() {
            if row.locality()[p] >= baseline[p] {
                failures.push(format!(
                    "{} locality/{policy} rate {:.4} not below none's {:.4}",
                    row.label,
                    row.locality()[p],
                    baseline[p]
                ));
            }
        }
    }
    if chunks == cli::QUICK_CHUNKS {
        let measured: Vec<Cells> = rows.iter().map(Row::cells).collect();
        failures.extend(pin_mismatches(&measured, &QUICK_PINS));
    } else {
        eprintln!("tournament: no pins at this size, structural checks only");
    }

    println!(
        "  {:<18} {:>6} {:>7} {:>9} {:>8} {:>8} {:>8}",
        "scheme", "budget", "blowup", "enc ms", "basic", "locality", "advanced"
    );
    for r in &rows {
        println!(
            "  {:<18} {:>6} {:>7.3} {:>9.1} {:>8.4} {:>8.4} {:>8.4}",
            r.label,
            r.budget.map_or("-".into(), |b| format!("{b:.2}")),
            r.blowup,
            r.encrypt_ms,
            r.rates[0][0].max(r.rates[0][1]),
            r.rates[1][0].max(r.rates[1][1]),
            r.rates[2][0].max(r.rates[2][1]),
        );
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("tournament: FAIL — {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "tournament: all schemes within budget, streaming == batch everywhere, \
         TED/PFSE strictly below the undefended locality rate"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_table_passes_against_itself() {
        assert_eq!(pin_mismatches(&QUICK_PINS, &QUICK_PINS), [""; 0]);
    }

    #[test]
    fn one_unit_in_the_last_digit_fails_naming_scheme_and_column() {
        let mut measured = QUICK_PINS;
        measured[6].1[4] += 1;
        measured[1].1[0] -= 1;
        assert_eq!(
            pin_mismatches(&measured, &QUICK_PINS),
            [
                "minhash blowup: measured 10926e-4, pinned 10927e-4",
                "ted@1.5 locality_key: measured 545e-6, pinned 544e-6"
            ]
        );
    }

    #[test]
    fn missing_extra_or_misplaced_rows_fail() {
        assert_eq!(
            pin_mismatches(&QUICK_PINS[..9], &QUICK_PINS),
            ["9 rows measured, 10 pinned"]
        );
        let mut extra = QUICK_PINS.to_vec();
        extra.push(("ted@4", [0; 7]));
        assert_eq!(
            pin_mismatches(&extra, &QUICK_PINS),
            ["11 rows measured, 10 pinned"]
        );
        let mut swapped = QUICK_PINS;
        swapped.swap(0, 2);
        assert_eq!(
            pin_mismatches(&swapped, &QUICK_PINS),
            [
                "row scramble measured where none is pinned",
                "row none measured where scramble is pinned"
            ]
        );
    }

    #[test]
    fn a_row_quantizes_to_the_digits_a_pin_holds() {
        let row = Row {
            label: "x".into(),
            budget: None,
            blowup: 1.092_74,
            encrypt_ms: 0.0,
            rates: [[0.000_374_1, 0.000_373_9], [0.5, 0.25], [1.0, 0.0]],
        };
        let cells = [10927, 374, 374, 500_000, 250_000, 1_000_000, 0];
        assert_eq!(row.cells(), ("x", cells));
    }
}
