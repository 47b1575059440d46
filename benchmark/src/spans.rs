//! In-memory span recorder. The benchmark wraps every call into a layer in
//! [`Tracer::time`]; the wall time it returns feeds the metrics whether or not
//! spans are being recorded, so traced and untraced runs execute the same code
//! and differ only by one push into a pre-allocated buffer.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::{self, Value};

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`, `phase.<name>` or `round`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<u32>,
    /// Round the span belongs to (0 = warm-up).
    pub round: u32,
    /// 0 for the main client thread, 1 for the second connection.
    pub thread: u8,
}

/// Spans of one thread.
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u32,
    thread: u8,
    dropped: u64,
}

/// Spans a run may record before recording stops (about 60 per round).
const CAPACITY: usize = 1 << 14;

/// Seconds a recorded span costs beyond an unrecorded one: the median of
/// five timings of half a buffer of empty spans, recorded and not.
#[must_use]
pub fn recording_cost_s() -> f64 {
    const SPANS: usize = CAPACITY / 2;
    let per_span = |recording: bool| {
        let mut tr = Tracer::new();
        tr.set_recording(recording);
        let started = Instant::now();
        for _ in 0..SPANS {
            std::hint::black_box(tr.time("bench.probe", |_| ()));
        }
        started.elapsed().as_secs_f64() / SPANS as f64
    };
    let costs: Vec<f64> = (0..5)
        .map(|_| (per_span(true) - per_span(false)).max(0.0))
        .collect();
    crate::stats::median(&costs)
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer for the main thread. Nothing is recorded until
    /// [`Self::set_recording`].
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            recording: false,
            epoch: Instant::now(),
            spans: Vec::with_capacity(CAPACITY),
            stack: Vec::with_capacity(16),
            round: 0,
            thread: 0,
            dropped: 0,
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// A tracer for a second thread sharing this one's clock, round and
    /// recording state. Hand it back with [`Self::adopt`].
    #[must_use]
    pub fn fork(&self) -> Tracer {
        Tracer {
            recording: self.recording,
            epoch: self.epoch,
            spans: Vec::with_capacity(if self.recording { 256 } else { 0 }),
            stack: Vec::with_capacity(16),
            round: self.round,
            thread: self.thread + 1,
            dropped: 0,
        }
    }

    /// Merges a forked tracer's spans under the span currently open here.
    pub fn adopt(&mut self, child: Tracer) {
        let base = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.dropped += child.dropped;
        for mut span in child.spans {
            span.parent = span.parent.map(|p| p + base).or(parent);
            if self.spans.len() < CAPACITY {
                self.spans.push(span);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Runs `f`, returning its result and its wall time in seconds; records a
    /// span named `name` around it when recording is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let slot = if self.recording && self.spans.len() < CAPACITY {
            let id = self.spans.len() as u32;
            // Reserve the slot now so children can name it as their parent.
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                round: self.round,
                thread: self.thread,
            });
            self.stack.push(id);
            Some(id)
        } else {
            self.dropped += u64::from(self.recording);
            None
        };
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = slot {
            self.stack.pop();
            let span = &mut self.spans[id as usize];
            span.start_ns = (start - self.epoch).as_nanos() as u64;
            span.end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (out, (end - start).as_secs_f64())
    }

    /// Number of spans that did not fit the buffer.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the trace, one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = json::obj([
                ("id", Value::from(id as u64)),
                (
                    "parent",
                    span.parent
                        .map_or(Value::Null, |p| Value::from(u64::from(p))),
                ),
                ("name", Value::from(span.name)),
                ("start_ns", Value::from(span.start_ns)),
                ("end_ns", Value::from(span.end_ns)),
                ("round", Value::from(u64::from(span.round))),
                ("thread", Value::from(u64::from(span.thread))),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_adoption_keep_parents() {
        let mut tr = Tracer::new();
        tr.time("off", |_| ());
        assert!(tr.spans().is_empty(), "nothing recorded while off");
        tr.set_recording(true);
        tr.set_round(3);
        tr.time("round", |tr| {
            tr.time("phase.backup", |tr| {
                let mut side = tr.fork();
                side.time("server.restore", |side| side.time("bench.check", |_| ()));
                tr.adopt(side);
            });
        });
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("round", None),
                ("phase.backup", Some(0)),
                ("server.restore", Some(1)),
                ("bench.check", Some(2)),
            ]
        );
        assert!(tr.spans().iter().all(|s| s.round == 3));
        assert_eq!(tr.spans()[2].thread, 1);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
    }
}
