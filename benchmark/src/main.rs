//! Command line of the benchmark. See [`USAGE`].

use std::path::PathBuf;
use std::process::ExitCode;

use fdbench::run::{self, RunArgs};
use fdbench::workloads::Workload;
use fdbench::{compare, golden, report, suite};

const USAGE: &str = "\
usage:
  fdbench [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                [--smoke] [--update-golden] [--work-dir DIR] [--golden FILE]
      Run one workload: set-up, a warm-up round, timed rounds for S seconds
      (default 20, never fewer than 5 rounds), then every metric by name and
      a one-line JSON result. --trace 0 prints the end-to-end metrics,
      --trace 1 the per-layer metrics and writes a span trace under the work
      directory. Default seed 1; hold-out seed 2017. Exit code 1 when an
      output was wrong or a golden pin moved.
  fdbench run --all [--runs K] --out FILE [--pair BINARY --pair-out FILE]
                [--seed N] [--seconds S] [--smoke]
      Every workload K times untraced (seeds N..N+K) and once traced, each in
      its own process, into one result set. With --pair, every run is made
      with this binary and with BINARY back to back, the one that goes first
      alternating, into two sets for `compare`; BINARY may be this one.
  fdbench report TRACE.jsonl
      Self time per span, layer shares per phase, unattributed residual.
  fdbench compare SET_A SET_B [--benchmark BENCHMARK.json]
      Medians, quartiles and a verdict per workload x end-to-end metric over
      the seeds both sets ran. Exit code 1 on any `worse`, `unresolved` or
      `changed`, and on any run that could not be used.
workloads: bytes_backup trace_backup defended_backup mixed_churn attack_sweep";

fn die(message: &str) -> ExitCode {
    eprintln!("fdbench: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("report") => return report_command(&argv[1..]),
        Some("compare") => return compare_command(&argv[1..]),
        Some("run") => {
            argv.remove(0);
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }

    let mut workload = None;
    let mut all = false;
    let mut runs = 5u64;
    let mut out: Option<PathBuf> = None;
    let mut pair: Option<PathBuf> = None;
    let mut pair_out: Option<PathBuf> = None;
    let mut args = RunArgs {
        workload: Workload::TraceBackup,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        update_golden: false,
        work_dir: run::default_work_dir(),
        golden: golden::default_path(),
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        let parsed = match flag.as_str() {
            "--workload" => value("a name").and_then(|v| {
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
                Ok(())
            }),
            "--seed" => value("an integer").and_then(|v| {
                args.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
                Ok(())
            }),
            "--seconds" => value("a number").and_then(|v| {
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad run length {v}"))?;
                Ok(())
            }),
            "--trace" => value("0 or 1").and_then(|v| {
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
                Ok(())
            }),
            "--runs" => value("an integer").and_then(|v| {
                runs = v
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or(format!("bad run count {v}"))?;
                Ok(())
            }),
            "--out" => value("a path").map(|v| out = Some(v.into())),
            "--pair" => value("a binary").map(|v| pair = Some(v.into())),
            "--pair-out" => value("a path").map(|v| pair_out = Some(v.into())),
            "--work-dir" => value("a path").map(|v| args.work_dir = v.into()),
            "--golden" => value("a path").map(|v| args.golden = v.into()),
            "--all" => {
                all = true;
                Ok(())
            }
            "--smoke" => {
                args.smoke = true;
                Ok(())
            }
            "--update-golden" => {
                args.update_golden = true;
                Ok(())
            }
            other => Err(format!("unknown argument {other}")),
        };
        if let Err(message) = parsed {
            return die(&message);
        }
    }

    if all {
        let Some(out) = out else {
            return die("run --all needs --out FILE");
        };
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => return die(&format!("current_exe: {e}")),
        };
        let mut sides = vec![suite::Side { exe, out }];
        match (pair, pair_out) {
            (Some(exe), Some(out)) => sides.push(suite::Side { exe, out }),
            (None, None) => {}
            _ => return die("--pair and --pair-out go together"),
        }
        return match suite::run_all(&args, runs, &sides) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(message) => {
                eprintln!("fdbench: {message}");
                ExitCode::from(1)
            }
        };
    }
    let Some(workload) = workload else {
        return die("--workload is required");
    };
    args.workload = workload;
    match run::run(&args) {
        Ok(outcome) => {
            run::print(&outcome);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("fdbench: {message}");
            ExitCode::from(1)
        }
    }
}

fn report_command(args: &[String]) -> ExitCode {
    let [path] = args else {
        return die("report takes one trace file");
    };
    let spans = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| report::parse_trace(&text))
    {
        Ok(spans) => spans,
        Err(message) => {
            eprintln!("fdbench: {path}: {message}");
            return ExitCode::from(1);
        }
    };
    let analysis = report::analyse(&spans);
    print!("{}", report::render(&analysis));
    if analysis.min_coverage() >= report::MIN_COVERAGE {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn compare_command(args: &[String]) -> ExitCode {
    let (sets, bounds) = match args {
        [a, b] => (
            [a, b],
            PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")),
        ),
        [a, b, flag, path] if flag == "--benchmark" => ([a, b], PathBuf::from(path)),
        _ => return die("compare takes two result sets"),
    };
    match compare::compare(sets[0].as_ref(), sets[1].as_ref(), &bounds) {
        Ok((table, bad)) => {
            print!("{table}");
            if bad {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => {
            eprintln!("fdbench: {message}");
            ExitCode::from(1)
        }
    }
}
