//! Per-request span tracing: RAII wall-clock timers feeding an
//! optional observer (phase histograms) and an optional span tree
//! (the `diagnostics.trace` wire block).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One closed span as recorded in flat form before tree assembly.
#[derive(Debug)]
struct Record {
    name: &'static str,
    parent: Option<usize>,
    micros: u64,
}

#[derive(Debug, Default)]
struct TraceState {
    records: Vec<Record>,
    /// Indices of currently-open spans, innermost last. New spans
    /// parent onto the top of this stack.
    stack: Vec<usize>,
}

#[derive(Debug, Default)]
struct TraceTree {
    state: Mutex<TraceState>,
    /// Latched by [`Tracer::record`]/span drops after `finish`; not
    /// an error, but keeps late closes from corrupting the stack.
    finished: AtomicBool,
}

type Observer = dyn Fn(&'static str, u64) + Send + Sync;

/// A per-request trace context. Cloning shares the underlying tree.
///
/// Two independent switches:
/// - an **observer** callback, invoked with `(name, micros)` every
///   time a live [`Span`] guard drops — the daemon points this at its
///   phase-duration histograms, so histograms fill even when no trace
///   was requested;
/// - a **tree**, enabled per request (`?trace=1` / `X-Trace: 1`),
///   collecting spans for [`Tracer::finish`].
///
/// [`Tracer::record`] inserts a span with an externally measured
/// duration (the generator's `Diagnostics` micros) into the tree
/// *without* invoking the observer, so phases measured by the
/// generator itself are never double-counted.
#[derive(Clone, Default)]
pub struct Tracer {
    tree: Option<Arc<TraceTree>>,
    observer: Option<Arc<Observer>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("tree", &self.tree.is_some())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl Tracer {
    /// A tracer with no tree and no observer; spans opened on it are
    /// pure no-ops.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer that collects a span tree when `collect_tree` is
    /// true. Chain [`Tracer::with_observer`] to also feed histograms.
    #[must_use]
    pub fn new(collect_tree: bool) -> Tracer {
        Tracer {
            tree: collect_tree.then(|| Arc::new(TraceTree::default())),
            observer: None,
        }
    }

    /// Attaches an observer invoked with `(span name, micros)` on
    /// every live span drop.
    #[must_use]
    pub fn with_observer(
        mut self,
        observer: impl Fn(&'static str, u64) + Send + Sync + 'static,
    ) -> Tracer {
        self.observer = Some(Arc::new(observer));
        self
    }

    /// True when this tracer is collecting a span tree.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.tree.is_some()
    }

    /// Opens a wall-clock span; it closes (and reports) when the
    /// returned guard drops.
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            tracer: self,
            name,
            started: Instant::now(),
            index: self.open(name),
        }
    }

    /// Inserts a span with an externally measured duration. The
    /// `children` closure runs with the span open, so nested
    /// `record`/`span` calls parent underneath it. The observer is
    /// *not* invoked (see type docs).
    pub fn record(&self, name: &'static str, micros: u64, children: impl FnOnce(&Tracer)) {
        let index = self.open(name);
        children(self);
        if let Some(index) = index {
            self.close(index, micros);
        }
    }

    fn open(&self, name: &'static str) -> Option<usize> {
        let tree = self.tree.as_ref()?;
        if tree.finished.load(Ordering::Relaxed) {
            return None;
        }
        let mut state = tree.state.lock().unwrap_or_else(PoisonError::into_inner);
        let parent = state.stack.last().copied();
        let index = state.records.len();
        state.records.push(Record {
            name,
            parent,
            micros: 0,
        });
        state.stack.push(index);
        Some(index)
    }

    fn close(&self, index: usize, micros: u64) {
        let Some(tree) = self.tree.as_ref() else {
            return;
        };
        let mut state = tree.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(record) = state.records.get_mut(index) {
            record.micros = micros;
        }
        state.stack.retain(|open| *open != index);
    }

    /// Assembles and returns the collected span tree (the roots, in
    /// open order). Returns an empty vec when tracing is off or no
    /// spans were recorded. Later spans are ignored.
    #[must_use]
    pub fn finish(&self) -> Vec<SpanNode> {
        let Some(tree) = self.tree.as_ref() else {
            return Vec::new();
        };
        tree.finished.store(true, Ordering::Relaxed);
        let state = tree.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); state.records.len()];
        let mut roots = Vec::new();
        for (index, record) in state.records.iter().enumerate() {
            match record.parent {
                Some(parent) => children[parent].push(index),
                None => roots.push(index),
            }
        }
        roots
            .into_iter()
            .map(|root| build_node(root, &state.records, &children))
            .collect()
    }
}

fn build_node(index: usize, records: &[Record], children: &[Vec<usize>]) -> SpanNode {
    SpanNode {
        name: records[index].name,
        micros: records[index].micros,
        children: children[index]
            .iter()
            .map(|child| build_node(*child, records, children))
            .collect(),
    }
}

/// RAII guard returned by [`Tracer::span`]; reports the span's
/// wall-clock duration when dropped.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; dropping it immediately records ~0µs"]
pub struct Span<'t> {
    tracer: &'t Tracer,
    name: &'static str,
    started: Instant,
    index: Option<usize>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let micros = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Some(observer) = &self.tracer.observer {
            observer(self.name, micros);
        }
        if let Some(index) = self.index {
            self.tracer.close(index, micros);
        }
    }
}

/// One node of an assembled span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (phase label).
    pub name: &'static str,
    /// Wall-clock (or externally measured) duration in microseconds.
    pub micros: u64,
    /// Child spans, in open order.
    pub children: Vec<SpanNode>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        {
            let _span = tracer.span("noop");
        }
        assert!(tracer.finish().is_empty());
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let tracer = Tracer::new(true);
        {
            let _request = tracer.span("request");
            {
                let _span = tracer.span("decode");
            }
            tracer.record("generate", 120, |t| {
                t.record("expand", 30, |_| {});
                t.record("search", 80, |_| {});
            });
        }
        let roots = tracer.finish();
        assert_eq!(roots.len(), 1);
        let request = &roots[0];
        assert_eq!(request.name, "request");
        let names: Vec<&str> = request.children.iter().map(|c| c.name).collect();
        assert_eq!(names, ["decode", "generate"]);
        let generate = &request.children[1];
        assert_eq!(generate.micros, 120);
        assert_eq!(
            generate.children[0],
            SpanNode {
                name: "expand",
                micros: 30,
                children: Vec::new()
            }
        );
        assert_eq!(generate.children[1].micros, 80);
    }

    #[test]
    fn observer_sees_live_spans_but_not_recorded_ones() {
        let seen = Arc::new(AtomicU64::new(0));
        let seen_in = Arc::clone(&seen);
        let tracer = Tracer::new(false).with_observer(move |name, _| {
            assert_eq!(name, "live");
            seen_in.fetch_add(1, Ordering::Relaxed);
        });
        {
            let _span = tracer.span("live");
        }
        tracer.record("synthesized", 10, |_| {});
        assert_eq!(seen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn finish_ignores_later_spans() {
        let tracer = Tracer::new(true);
        tracer.record("first", 5, |_| {});
        let roots = tracer.finish();
        assert_eq!(roots.len(), 1);
        tracer.record("late", 7, |_| {});
        assert_eq!(tracer.finish().len(), 1);
    }
}
