//! End-to-end checks of the `fdbench` binary at `--smoke` scale: it emits
//! exactly the names `BENCHMARK.json` declares, its exact metrics repeat
//! bit-for-bit, and a traced run's spans account for its phases.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use fdbench::catalog::{END_TO_END, EXACT, PER_LAYER, WORKLOADS};
use fdbench::json::{self, Value};
use fdbench::report;

const FDBENCH: &str = env!("CARGO_BIN_EXE_fdbench");

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `name → unit` of one of `BENCHMARK.json`'s metric lists.
fn declared(doc: &Value, list: &str) -> BTreeMap<String, String> {
    doc.get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Value::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    exit_ok: bool,
    correct: bool,
    failed: f64,
    /// `name → (value, unit)`
    metrics: BTreeMap<String, (f64, String)>,
    trace_file: Option<PathBuf>,
}

/// One smoke run, each in a scratch directory of its own so tests can run in
/// parallel.
fn smoke(workload: &str, trace: bool, tag: &str) -> Run {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{tag}"));
    let out = Command::new(FDBENCH)
        .args(["--workload", workload, "--smoke", "--seed", "1"])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("spawn fdbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}\n{stdout}"));
    let keys: Vec<&str> = result
        .as_obj()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let info = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fdbench-info "))
        .map(|text| json::parse(text).expect("info line parses"))
        .expect("an info line");
    Run {
        exit_ok: out.status.success(),
        correct: result.get("correct").and_then(Value::as_bool).unwrap(),
        failed: result.get("failed").and_then(Value::as_f64).unwrap(),
        metrics: result
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("metrics object")
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    (
                        m.get("value").and_then(Value::as_f64).expect("value"),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .expect("unit")
                            .to_string(),
                    ),
                )
            })
            .collect(),
        trace_file: info
            .get("trace_file")
            .and_then(Value::as_str)
            .map(PathBuf::from),
    }
}

fn units(run: &Run) -> BTreeMap<String, String> {
    run.metrics
        .iter()
        .map(|(name, (_, unit))| (name.clone(), unit.clone()))
        .collect()
}

fn exact_bits(run: &Run) -> Vec<(String, u64)> {
    run.metrics
        .iter()
        .filter(|(name, _)| EXACT.contains(&name.as_str()))
        .map(|(name, (value, _))| (name.clone(), value.to_bits()))
        .collect()
}

#[test]
fn catalog_and_benchmark_json_declare_the_same_names() {
    let doc = benchmark_json();
    let as_map = |list: &[(&str, &str)]| -> BTreeMap<String, String> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), as_map(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), as_map(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS.map(|(name, _)| name));
    assert_eq!(
        doc.get("paths").and_then(Value::as_arr),
        Some(&[Value::from("benchmark")][..])
    );
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!(ok(name, "_.-") && name.len() <= 64, "bad name {name}");
        assert!(ok(unit, "_/%.-") && unit.len() <= 16, "bad unit {unit}");
    }
    for name in EXACT {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is pinned but never reported"
        );
    }
}

/// Per workload: two untraced and two traced smoke runs.
fn check_workload(workload: &str) {
    let doc = benchmark_json();
    let a = smoke(workload, false, "a");
    let b = smoke(workload, false, "b");
    for run in [&a, &b] {
        assert!(
            run.exit_ok && run.correct && run.failed == 0.0,
            "{workload}"
        );
        assert_eq!(units(run), declared(&doc, "end_to_end"), "{workload}");
        for (name, (value, _)) in &run.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload}: {name} = {value}"
            );
        }
    }
    assert_eq!(
        exact_bits(&a),
        exact_bits(&b),
        "{workload}: exact metrics moved"
    );

    let c = smoke(workload, true, "c");
    let d = smoke(workload, true, "d");
    for run in [&c, &d] {
        assert!(
            run.exit_ok && run.correct && run.failed == 0.0,
            "{workload}"
        );
        assert_eq!(units(run), declared(&doc, "per_layer"), "{workload}");
        assert!(
            run.metrics.values().all(|(v, _)| v.is_finite()),
            "{workload}"
        );
        assert!(
            run.metrics["trace.phase_coverage_min"].0 >= report::MIN_COVERAGE,
            "{workload}: span-sum invariant"
        );
        // A layer's kernels are measured where the layer works and read 0
        // where it is idle.
        for (name, home) in [
            ("chunking.fastcdc_mib_s", "bytes_backup"),
            ("core.defense_blowup", "defended_backup"),
            ("server.read_contention_ratio", "mixed_churn"),
        ] {
            assert_eq!(
                run.metrics[name].0 > 0.0,
                workload == home,
                "{workload}: {name}"
            );
        }
    }
    assert_eq!(
        exact_bits(&c),
        exact_bits(&d),
        "{workload}: exact counts moved"
    );

    // The trace file says the same thing through `fdbench report`.
    let trace = c.trace_file.expect("a traced run names its trace file");
    let spans = report::parse_trace(&std::fs::read_to_string(&trace).expect("trace file"))
        .expect("trace parses");
    let analysis = report::analyse(&spans);
    assert!(analysis.rounds >= 1 && analysis.min_coverage() >= report::MIN_COVERAGE);
    for phase in [
        "round",
        "phase.backup",
        "phase.restore",
        "phase.attack",
        "phase.churn",
    ] {
        assert!(
            analysis.phases.contains_key(phase),
            "{workload}: no {phase}"
        );
    }
    let status = Command::new(FDBENCH)
        .arg("report")
        .arg(&trace)
        .output()
        .expect("spawn fdbench report");
    assert!(
        status.status.success(),
        "{workload}: report rejected the trace"
    );
}

#[test]
fn bytes_backup_smoke() {
    check_workload("bytes_backup");
}

#[test]
fn trace_backup_smoke() {
    check_workload("trace_backup");
}

#[test]
fn defended_backup_smoke() {
    check_workload("defended_backup");
}

#[test]
fn mixed_churn_smoke() {
    check_workload("mixed_churn");
}

#[test]
fn attack_sweep_smoke() {
    check_workload("attack_sweep");
}

/// A result set of one workload: `(seed, correct, flagged, leak_rate, churn_s)`.
fn write_set(path: &Path, runs: &[(u64, bool, bool, f64, f64)]) {
    let runs = runs
        .iter()
        .map(|(seed, correct, flagged, leak, churn)| {
            let metric = |v: f64| json::obj([("value", Value::from(v))]);
            json::obj([
                (
                    "info",
                    json::obj([
                        ("workload", Value::from("trace_backup")),
                        ("seed", Value::from(*seed)),
                        ("trace", Value::from(false)),
                        ("sentinel_flagged", Value::from(*flagged)),
                    ]),
                ),
                (
                    "result",
                    json::obj([
                        ("correct", Value::from(*correct)),
                        (
                            "metrics",
                            json::obj([("leak_rate", metric(*leak)), ("churn_s", metric(*churn))]),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    std::fs::write(path, json::obj([("runs", Value::Arr(runs))]).to_pretty()).expect("write set");
}

#[test]
fn compare_matches_seeds_and_counts_what_it_cannot_use() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (a, b, bounds) = (
        dir.join("set-a.json"),
        dir.join("set-b.json"),
        dir.join("bounds.json"),
    );
    std::fs::write(
        &bounds,
        r#"{"end_to_end": [
            {"name": "leak_rate", "unit": "ratio", "better": "lower", "bound": 0.25},
            {"name": "churn_s", "unit": "s", "better": "lower", "bound": 0.15}]}"#,
    )
    .expect("write bounds");
    let compare = |expect_bad: bool, needle: &str| {
        let (table, bad) = fdbench::compare::compare(&a, &b, &bounds).expect("sets load");
        assert_eq!(bad, expect_bad, "{table}");
        assert!(table.contains(needle), "no {needle:?} in\n{table}");
    };
    let base = [
        (1, true, false, 0.70, 1.00),
        (2, true, false, 0.72, 1.02),
        (3, true, false, 0.74, 0.98),
    ];
    write_set(&a, &base);
    // A flagged run followed by its clean re-run: the re-run counts.
    write_set(
        &b,
        &[
            (1, true, true, 0.70, 3.00),
            (1, true, false, 0.70, 1.01),
            (3, true, false, 0.74, 0.99),
            (2, true, false, 0.72, 1.00),
        ],
    );
    compare(false, "verdicts: {\"same\": 2}");
    // Within the bound of BENCHMARK.json, but not the same for seed 2.
    let mut moved = base;
    moved[1].3 = 0.73;
    write_set(&b, &moved);
    compare(true, "changed");
    // An incorrect run is not dropped silently.
    let mut broken = base;
    broken[2].1 = false;
    write_set(&b, &broken);
    compare(
        true,
        "0 incorrect and 0 with a moved calibration kernel in A, 1 and 0 in B, 1 with",
    );
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let out = Command::new(FDBENCH).args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
