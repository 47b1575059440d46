//! `fdbench run --all`: every workload, several runs each, into one result
//! set — or into two, one per binary, when a second binary is given. Each run
//! is its own process, so peak memory and allocator state are per run and a
//! crash loses one run, not the set.
//!
//! The box drifts by tens of percent over minutes, so the order of runs is
//! what makes two sets comparable: repetitions are the outer loop and
//! workloads the inner one, and with two binaries the two runs of a workload
//! × seed are adjacent, the side that goes first alternating.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{self, Value};
use crate::run::RunArgs;
use crate::sys;
use crate::workloads::Workload;

/// A binary and the result set its runs go to.
pub struct Side {
    pub exe: PathBuf,
    pub out: PathBuf,
}

/// Runs one child process and parses its info line and result line.
fn child(exe: &Path, args: &RunArgs) -> Result<Value, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(&args.work_dir)
        .arg("--golden")
        .arg(&args.golden);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{}: no output", args.workload.name()))
        .and_then(json::parse)
        .map_err(|e| {
            format!(
                "{} seed {}: no result line ({e}); stderr: {}",
                args.workload.name(),
                args.seed,
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
    let info = lines
        .find_map(|line| line.strip_prefix("fdbench-info "))
        .and_then(|text| json::parse(text).ok())
        .unwrap_or(Value::Null);
    Ok(json::obj([
        ("info", info),
        (
            "exit_code",
            Value::from(f64::from(out.status.code().unwrap_or(-1))),
        ),
        ("result", result),
    ]))
}

fn flag(run: &Value, path: [&str; 2]) -> bool {
    run.get(path[0])
        .and_then(|v| v.get(path[1]))
        .and_then(Value::as_bool)
        .unwrap_or(false)
}

/// Runs every workload `runs` times untraced (seeds `seed..seed+runs`) and
/// once traced, with the binary of every side, and writes each side's set. A
/// run whose calibration kernel moved by more than the tolerance is kept,
/// marked, and run once more.
///
/// # Errors
///
/// Returns a message when a child produced no result or a set cannot be
/// written.
pub fn run_all(template: &RunArgs, runs: u64, sides: &[Side]) -> Result<bool, String> {
    let mut sets: Vec<Vec<Value>> = vec![Vec::new(); sides.len()];
    let mut all_correct = true;
    for k in 0..=runs {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            let args = RunArgs {
                workload,
                seed: template.seed + k.min(runs - 1),
                trace: k == runs,
                ..template.clone()
            };
            let mut order: Vec<usize> = (0..sides.len()).collect();
            if (k as usize + w) % 2 == 1 {
                order.reverse();
            }
            for side in order {
                let mut run = child(&sides[side].exe, &args)?;
                if flag(&run, ["info", "sentinel_flagged"]) {
                    eprintln!(
                        "fdbench: {} seed {}: the box moved during the run; running it once more",
                        workload.name(),
                        args.seed
                    );
                    sets[side].push(run);
                    run = child(&sides[side].exe, &args)?;
                }
                let correct = flag(&run, ["result", "correct"]);
                all_correct &= correct;
                eprintln!(
                    "fdbench: {} {} seed {} trace {}: {}",
                    sides[side].out.display(),
                    workload.name(),
                    args.seed,
                    u8::from(args.trace),
                    if correct { "ok" } else { "NOT CORRECT" }
                );
                sets[side].push(run);
            }
        }
    }
    for (side, set) in sides.iter().zip(sets) {
        let mut about = sys::describe();
        about.set("exe", Value::from(side.exe.display().to_string()));
        let doc = json::obj([("box", about), ("runs", Value::Arr(set))]);
        std::fs::write(&side.out, doc.to_pretty())
            .map_err(|e| format!("{}: {e}", side.out.display()))?;
    }
    Ok(all_correct)
}
