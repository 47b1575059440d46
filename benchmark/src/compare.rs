//! `fdbench compare <set-a> <set-b>`: for every workload × end-to-end metric,
//! both medians and quartiles and a verdict against the bounds of
//! `BENCHMARK.json`. Runs are matched by seed, so both sides saw the same
//! inputs.
//!
//! * `changed` — an exact metric ([`EXACT_END_TO_END`]) differs for some seed:
//!   behaviour changed, whatever the size of the difference;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — the spread exceeds the bound, unless every run of B beats
//!   every run of A. The spread is the interquartile range of the relative
//!   differences `(b − a) ÷ a` of the seed-matched pairs: `run --all --pair`
//!   makes the two runs of a pair back to back, so the box's drift over the
//!   hour a set takes — which moves every run of both sets alike, by more than
//!   any bound — cancels in a pair and does not count as spread;
//! * `better` — B wins at least nine tenths of the pairs (ties count for
//!   neither side) and the median of the pair differences is more than the
//!   spread;
//! * `same` — anything else.
//!
//! A run that cannot be used (incorrect, its calibration kernel moved and the
//! re-run's did too, or its seed is missing from the other set) and a workload
//! missing from one set are counted, printed, and fail the comparison like a
//! `worse`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use crate::catalog::EXACT_END_TO_END;
use crate::json::{self, Value};
use crate::stats::{median, quartiles};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
    Changed,
}

impl Verdict {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }

    fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Worse | Verdict::Unresolved | Verdict::Changed
        )
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the end-to-end metrics of a `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a message naming what is missing or malformed.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
}

/// The usable untraced runs of a result set: workload → seed → metric →
/// value, plus how many runs could not be used.
#[derive(Debug, Default)]
pub struct Set {
    pub runs: BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>,
    /// Final runs of a workload × seed that were not correct.
    pub incorrect: usize,
    /// Final runs of a workload × seed whose calibration kernel moved.
    pub flagged: usize,
}

/// Reads a result set. Of several runs of one workload × seed the last
/// counts: `run --all` repeats a run whose calibration kernel moved.
///
/// # Errors
///
/// Returns a message when the file is not a result set.
pub fn load_set(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no runs list", path.display()))?;
    // workload × seed → the last untraced run.
    let mut last: BTreeMap<(String, u64), &Value> = BTreeMap::new();
    for run in runs {
        let info = run.get("info");
        let (Some(workload), Some(seed), Some(false)) = (
            info.and_then(|i| i.get("workload")).and_then(Value::as_str),
            info.and_then(|i| i.get("seed")).and_then(Value::as_f64),
            info.and_then(|i| i.get("trace")).and_then(Value::as_bool),
        ) else {
            continue;
        };
        last.insert((workload.to_string(), seed as u64), run);
    }
    let mut set = Set::default();
    for ((workload, seed), run) in last {
        let flag = |path: [&str; 2]| {
            run.get(path[0])
                .and_then(|v| v.get(path[1]))
                .and_then(Value::as_bool)
        };
        if flag(["result", "correct"]) != Some(true) {
            set.incorrect += 1;
            continue;
        }
        if flag(["info", "sentinel_flagged"]) != Some(false) {
            set.flagged += 1;
            continue;
        }
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        set.runs.entry(workload).or_default().insert(seed, metrics);
    }
    Ok(set)
}

/// The verdict on one workload × metric; `a[i]` and `b[i]` ran the same seed.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    if EXACT_END_TO_END.contains(&bound.name.as_str()) {
        let same = a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        return if same {
            Verdict::Same
        } else {
            Verdict::Changed
        };
    }
    let (med_a, med_b) = (median(a), median(b));
    // How much better B is than A, in the metric's unit.
    let sign = if bound.higher_is_better { 1.0 } else { -1.0 };
    if sign * (med_b - med_a) < -bound.bound * med_a.abs() {
        return Verdict::Worse;
    }
    let beats = |y: f64, x: f64| sign * (y - x) > 0.0;
    if pair_spread(a, b) > bound.bound {
        let separated = b.iter().all(|y| a.iter().all(|x| beats(*y, *x)));
        return if separated {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let wins = a.iter().zip(b).filter(|(x, y)| beats(**y, **x)).count();
    let losses = a.iter().zip(b).filter(|(x, y)| beats(**x, **y)).count();
    let gain = sign * median(&pair_differences(a, b));
    if wins > 0 && wins * 10 >= (wins + losses) * 9 && gain > pair_spread(a, b) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `(b − a) ÷ |a|` of every seed-matched pair.
fn pair_differences(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter()
        .zip(b)
        .map(|(x, y)| (y - x) / x.abs().max(f64::MIN_POSITIVE))
        .collect()
}

/// Interquartile range of the pair differences.
#[must_use]
pub fn pair_spread(a: &[f64], b: &[f64]) -> f64 {
    let (q1, q3) = quartiles(&pair_differences(a, b));
    q3 - q1
}

/// Compares two result sets; returns the table as text and whether the
/// comparison failed (see the module documentation).
///
/// # Errors
///
/// Returns a message when a file cannot be used.
pub fn compare(a: &Path, b: &Path, bounds: &Path) -> Result<(String, bool), String> {
    let bounds = load_bounds(bounds)?;
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let mut out = String::new();
    let mut bad = set_a.incorrect + set_b.incorrect + set_a.flagged + set_b.flagged > 0;
    writeln!(
        out,
        "{:<16} {:<26} {:>12} {:>24} {:>12} {:>24} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "change", "spread"
    )
    .ok();
    let mut unpaired = 0;
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    let workloads: BTreeSet<&String> = set_a.runs.keys().chain(set_b.runs.keys()).collect();
    for workload in workloads {
        let (Some(runs_a), Some(runs_b)) = (set_a.runs.get(workload), set_b.runs.get(workload))
        else {
            writeln!(out, "{workload:<16} missing from one set").ok();
            bad = true;
            continue;
        };
        let seeds: Vec<u64> = runs_a
            .keys()
            .filter(|seed| runs_b.contains_key(seed))
            .copied()
            .collect();
        unpaired += runs_a.len() + runs_b.len() - 2 * seeds.len();
        if seeds.is_empty() {
            writeln!(out, "{workload:<16} no seed in both sets").ok();
            bad = true;
            continue;
        }
        for bound in &bounds {
            let column = |runs: &BTreeMap<u64, BTreeMap<String, f64>>| -> Option<Vec<f64>> {
                seeds
                    .iter()
                    .map(|seed| runs[seed].get(&bound.name).copied())
                    .collect()
            };
            let (Some(va), Some(vb)) = (column(runs_a), column(runs_b)) else {
                writeln!(out, "{workload:<16} {:<26} missing from a run", bound.name).ok();
                bad = true;
                continue;
            };
            let v = verdict(&va, &vb, bound);
            bad |= v.fails();
            *tally.entry(v.name()).or_default() += 1;
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            writeln!(
                out,
                "{workload:<16} {:<26} {:>12.5} {:>24} {:>12.5} {:>24} {:>+7.1}% {:>7.1}%  {} (n={}, bound {:.0}%)",
                bound.name,
                median(&va),
                format!("{:.5}..{:.5}", qa.0, qa.1),
                median(&vb),
                format!("{:.5}..{:.5}", qb.0, qb.1),
                100.0 * (median(&vb) - median(&va)) / median(&va).abs().max(f64::MIN_POSITIVE),
                100.0 * pair_spread(&va, &vb),
                v.name(),
                seeds.len(),
                bound.bound * 100.0
            )
            .ok();
        }
    }
    bad |= unpaired > 0;
    writeln!(out, "verdicts: {tally:?}").ok();
    writeln!(
        out,
        "runs not used: {} incorrect and {} with a moved calibration kernel in A, {} and {} in B, {} with a seed the other set lacks",
        set_a.incorrect, set_a.flagged, set_b.incorrect, set_b.flagged, unpaired
    )
    .ok();
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, higher: bool) -> Bound {
        Bound {
            name: name.into(),
            higher_is_better: higher,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_pairs() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &a, &bound("m", true)), Verdict::Same);
        let slower: Vec<f64> = a.iter().map(|v| v * 0.85).collect();
        assert_eq!(verdict(&a, &slower, &bound("m", true)), Verdict::Worse);
        assert_eq!(verdict(&a, &slower, &bound("m", false)), Verdict::Better);
        let faster: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&a, &faster, &bound("m", true)), Verdict::Better);
        // A higher median that loses two pairs of five is not a gain.
        let mixed = [103.0, 100.0, 102.0, 100.0, 102.5];
        assert_eq!(verdict(&a, &mixed, &bound("m", true)), Verdict::Same);
        // Pairs that disagree by more than the bound: cannot tell.
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&noisy, &a, &bound("m", true)), Verdict::Unresolved);
        // The same, but every run of B beats every run of A.
        let far = [185.0, 180.0, 190.0, 200.0, 170.0];
        assert_eq!(verdict(&noisy, &far, &bound("m", true)), Verdict::Better);
        // Both sets drift by a factor of two over the hour, pair by pair:
        // that is the box, and the pairs still agree.
        let drift: Vec<f64> = (0..5)
            .map(|i| 100.0 * (1.0 + 0.25 * f64::from(i)))
            .collect();
        let drifted: Vec<f64> = drift.iter().map(|v| v * 1.01).collect();
        assert_eq!(verdict(&drift, &drifted, &bound("m", false)), Verdict::Same);
    }

    #[test]
    fn an_exact_metric_may_not_move_at_all() {
        let a = [0.70, 0.71, 0.72];
        assert_eq!(verdict(&a, &a, &bound("leak_rate", false)), Verdict::Same);
        let b = [0.70, 0.71, 0.7200001];
        assert_eq!(
            verdict(&a, &b, &bound("leak_rate", false)),
            Verdict::Changed
        );
    }
}
