//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans stay in memory while the run measures
//! and are written out once it ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

/// One thread's spans, timed against an origin shared by every tracer
/// of the run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// Records a span whose ends the caller timed, under `parent`, and
    /// returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: start.duration_since(self.origin),
            end: end.duration_since(self.origin),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Appends another tracer's spans (same origin), keeping parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Summed self time per span name, in milliseconds: each span's
    /// duration minus the part of it its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut self_time: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_time[parent] = self_time[parent].saturating_sub(span.end - span.start);
            }
        }
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_time) {
            *out.entry(span.name).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// Summed duration of the spans called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .sum()
    }

    /// Writes every span as one tab-separated line under a header:
    /// id, parent id (`-` for a root), request id, name, start and end in
    /// nanoseconds since the run's origin.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                span.request,
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        tracer.enter("outer", 1);
        tracer.time("inner", 1, || std::thread::sleep(Duration::from_millis(20)));
        tracer.exit();
        let own = tracer.self_ms();
        assert!(own["inner"] >= 20.0);
        assert!(own["outer"] < own["inner"], "{own:?}");
        assert_eq!(tracer.spans[1].parent, Some(0));
    }
}
