//! In-memory span log for the traced run.
//!
//! Every span is recorded from the benchmark's own code around a call
//! into a public function of the program: name, start and end (ns since
//! the log was created), the enclosing span, and the run id of the
//! repetition it belongs to. Spans stay in memory and are written out as
//! JSON lines when the benchmark ends.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span in its [`SpanLog`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Makes room for `n` more spans, so recording a tick never
    /// reallocates mid-run.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Records a finished span from two instants the caller already took
    /// (so a traced tick costs no extra clock reads).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            run,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, run: u32) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, run, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.offset(Instant::now());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover. Children are recorded on the same thread
    /// and never overlap, so the covered part is the sum of their
    /// durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut log = SpanLog::new();
        let t0 = log.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = log.record("rep", None, 0, at(0), at(10));
        log.record("tick", Some(root), 0, at(1), at(3));
        log.record("tick", Some(root), 0, at(4), at(7));
        let st = log.self_times();
        assert_eq!(st["rep"].self_ns, 5_000_000);
        assert_eq!(st["tick"].count, 2);
        assert_eq!(st["tick"].self_ns, 5_000_000);
    }
}
