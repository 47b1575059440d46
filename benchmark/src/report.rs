//! `fdbench report <trace.jsonl>`: where the time of a traced run went.
//!
//! A span's *self time* is its duration minus the part of that interval its
//! child spans cover. A phase's time is attributed to layers by summing the
//! self time of every span below it under the span's layer (the part of its
//! name before the first dot); what the phase's own children do not cover is
//! the unattributed residual.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::spans::Span;

/// Share of a phase its child spans must cover.
pub const MIN_COVERAGE: f64 = 0.90;

/// A span as read back from a trace file.
#[derive(Clone, Debug)]
pub struct Rec {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u32,
}

impl Rec {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    fn is_phase(&self) -> bool {
        self.name == "round" || self.name.starts_with("phase.")
    }
}

impl From<&Span> for Rec {
    fn from(span: &Span) -> Self {
        Rec {
            name: span.name.to_string(),
            start_ns: span.start_ns,
            end_ns: span.end_ns,
            parent: span.parent.map(|p| p as usize),
            round: span.round,
        }
    }
}

/// Parses a JSONL trace.
///
/// # Errors
///
/// Returns the first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<Rec>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(n, line)| {
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let num = |key: &str| {
                v.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("line {}: missing {key}", n + 1))
            };
            Ok(Rec {
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {}: missing name", n + 1))?
                    .to_string(),
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
                parent: v.get("parent").and_then(Value::as_f64).map(|p| p as usize),
                round: num("round")? as u32,
            })
        })
        .collect()
}

/// What [`analyse`] finds in a trace (warm-up round 0 left out).
#[derive(Debug, Default)]
pub struct Analysis {
    /// Span name → (self nanoseconds, count).
    pub self_time: BTreeMap<String, (u64, u64)>,
    /// Phase name → its totals.
    pub phases: BTreeMap<String, Phase>,
    /// Recorded rounds after the warm-up.
    pub rounds: u64,
}

#[derive(Debug, Default)]
pub struct Phase {
    pub total_ns: u64,
    /// Self time of everything below the phase, by layer.
    pub layers: BTreeMap<String, u64>,
    /// The phase's own self time: not covered by any child span.
    pub residual_ns: u64,
    /// Smallest share of one instance covered by its children.
    pub min_coverage: f64,
}

impl Analysis {
    /// Smallest child coverage over every phase instance.
    #[must_use]
    pub fn min_coverage(&self) -> f64 {
        self.phases
            .values()
            .map(|p| p.min_coverage)
            .fold(1.0, f64::min)
    }
}

/// Nanoseconds of `span` covered by the union of `children`.
fn covered(span: &Rec, children: &[&Rec]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Computes self times, phase attribution and coverage.
#[must_use]
pub fn analyse(spans: &[Rec]) -> Analysis {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent.filter(|p| *p < spans.len()) {
            children[parent].push(id);
        }
    }
    let self_ns: Vec<u64> = spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let kids: Vec<&Rec> = children[id].iter().map(|c| &spans[*c]).collect();
            span.duration() - covered(span, &kids)
        })
        .collect();

    let mut out = Analysis::default();
    for (id, span) in spans.iter().enumerate() {
        if span.round == 0 {
            continue;
        }
        let entry = out.self_time.entry(span.name.clone()).or_default();
        entry.0 += self_ns[id];
        entry.1 += 1;
        if span.name == "round" {
            out.rounds += 1;
        }
        if !span.is_phase() {
            continue;
        }
        let phase = out.phases.entry(span.name.clone()).or_insert(Phase {
            min_coverage: 1.0,
            ..Phase::default()
        });
        phase.total_ns += span.duration();
        phase.residual_ns += self_ns[id];
        let coverage = 1.0 - self_ns[id] as f64 / span.duration().max(1) as f64;
        phase.min_coverage = phase.min_coverage.min(coverage);
        // Everything below the phase, nested phases' own residual included
        // under the pseudo-layer "phase".
        let mut stack = children[id].clone();
        while let Some(d) = stack.pop() {
            *phase
                .layers
                .entry(spans[d].layer().to_string())
                .or_default() += self_ns[d];
            stack.extend(&children[d]);
        }
    }
    out
}

/// Renders the analysis as the text `fdbench report` prints.
#[must_use]
pub fn render(analysis: &Analysis) -> String {
    let mut out = String::new();
    let ms = |ns: u64| ns as f64 / 1e6;
    let rounds = analysis.rounds.max(1);
    writeln!(
        out,
        "rounds recorded (warm-up excluded): {}",
        analysis.rounds
    )
    .ok();
    writeln!(
        out,
        "\nself time per span name (ms per round, calls per round)"
    )
    .ok();
    let mut by_self: Vec<_> = analysis.self_time.iter().collect();
    by_self.sort_by_key(|(_, (ns, _))| std::cmp::Reverse(*ns));
    for (name, (ns, count)) in by_self {
        writeln!(
            out,
            "  {name:<24} {:>10.3} ms  {:>7.1} calls",
            ms(*ns) / rounds as f64,
            *count as f64 / rounds as f64
        )
        .ok();
    }
    writeln!(
        out,
        "\nlayer shares per phase (share of the phase's wall time)"
    )
    .ok();
    for (name, phase) in &analysis.phases {
        writeln!(
            out,
            "  {name:<14} {:>9.3} ms/round  coverage min {:.3}",
            ms(phase.total_ns) / rounds as f64,
            phase.min_coverage
        )
        .ok();
        let mut layers: Vec<_> = phase.layers.iter().collect();
        layers.sort_by(|a, b| b.1.cmp(a.1));
        for (layer, ns) in layers {
            writeln!(
                out,
                "      {layer:<10} {:>6.1} %",
                100.0 * *ns as f64 / phase.total_ns.max(1) as f64
            )
            .ok();
        }
        writeln!(
            out,
            "      {:<10} {:>6.1} %",
            "(residual)",
            100.0 * phase.residual_ns as f64 / phase.total_ns.max(1) as f64
        )
        .ok();
    }
    let min = analysis.min_coverage();
    writeln!(
        out,
        "\nspan-sum invariant (children cover >= {:.0} % of every phase): {} (min {:.3})",
        MIN_COVERAGE * 100.0,
        if min >= MIN_COVERAGE {
            "ok"
        } else {
            "VIOLATED"
        },
        min
    )
    .ok();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, start: u64, end: u64, parent: Option<usize>) -> Rec {
        Rec {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            round: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec("round", 0, 100, None),
            rec("phase.backup", 0, 60, Some(0)),
            rec("mle.encode", 0, 30, Some(1)),
            rec("server.upload", 30, 55, Some(1)),
            // a second thread's span overlapping the phase
            rec("phase.restore", 10, 90, Some(0)),
            rec("server.restore", 10, 90, Some(4)),
        ];
        let a = analyse(&spans);
        assert_eq!(a.self_time["phase.backup"], (5, 1));
        assert_eq!(a.self_time["round"], (10, 1)); // 90..100 uncovered
        let backup = &a.phases["phase.backup"];
        assert_eq!(backup.layers["mle"], 30);
        assert_eq!(backup.layers["server"], 25);
        assert!((backup.min_coverage - 55.0 / 60.0).abs() < 1e-9);
        assert!(render(&a).contains("span-sum invariant"));
    }
}
