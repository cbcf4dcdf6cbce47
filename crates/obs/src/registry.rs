//! Lock-sharded metrics registry and the Prometheus text renderer.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of independent family-map shards. Instrument lookup hashes
/// the family name so unrelated families never contend on one lock.
const SHARDS: usize = 8;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move in either direction.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations (microseconds, in
/// this workspace). Buckets are per-bucket internally and rendered
/// cumulatively, Prometheus-style, with a trailing `+Inf` bucket plus
/// `_sum` and `_count` series.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing. The implicit
    /// `+Inf` bucket is `counts[bounds.len()]`.
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: bounds.to_vec(),
            counts,
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|bound| value <= *bound)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Cumulative counts per bound (same order as the constructor's
    /// bounds), plus the `+Inf` total last.
    #[must_use]
    pub fn cumulative(&self) -> Vec<u64> {
        let mut running = 0u64;
        self.counts
            .iter()
            .map(|c| {
                running += c.load(Ordering::Relaxed);
                running
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One metric family: shared metadata plus a child instrument per
/// distinct label set. `BTreeMap` keys give a deterministic render
/// order regardless of registration order.
#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    children: BTreeMap<Vec<(String, String)>, Instrument>,
}

/// Lock-sharded instrument registry.
///
/// `counter`/`gauge`/`histogram` are get-or-create: the first call
/// registers the family (name, help text, kind) and every call
/// returns a cheap `Arc` handle to the per-label-set instrument.
/// Updates through a handle touch only atomics; the shard mutexes
/// guard the family maps and are poison-tolerant.
#[derive(Debug, Default)]
pub struct Registry {
    shards: [Mutex<HashMap<String, Family>>; SHARDS],
}

/// Point-in-time copy of one family taken under the shard lock:
/// `(help, kind, children)`.
type FamilySnapshot = (String, Kind, Vec<(Vec<(String, String)>, Instrument)>);

fn fnv1a(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    fn shard(&self, name: &str) -> MutexGuard<'_, HashMap<String, Family>> {
        let idx = (fnv1a(name) % SHARDS as u64) as usize;
        self.shards[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        bounds: Option<&[u64]>,
    ) -> Instrument {
        let mut shard = self.shard(name);
        let family = shard.entry(name.to_owned()).or_insert_with(|| Family {
            help: help.to_owned(),
            kind,
            children: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric family `{name}` re-registered as {} (was {})",
            kind.as_str(),
            family.kind.as_str()
        );
        family
            .children
            .entry(own_labels(labels))
            .or_insert_with(|| match kind {
                Kind::Counter => Instrument::Counter(Arc::new(Counter::default())),
                Kind::Gauge => Instrument::Gauge(Arc::new(Gauge::default())),
                Kind::Histogram => {
                    Instrument::Histogram(Arc::new(Histogram::new(bounds.unwrap_or(&[]))))
                }
            })
            .clone()
    }

    /// Get-or-create the counter `name{labels}`.
    #[must_use]
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.instrument(name, help, Kind::Counter, labels, None) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked in instrument()"),
        }
    }

    /// Get-or-create the gauge `name{labels}`.
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.instrument(name, help, Kind::Gauge, labels, None) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked in instrument()"),
        }
    }

    /// Get-or-create the histogram `name{labels}` with the given
    /// inclusive bucket upper bounds (strictly increasing; the `+Inf`
    /// bucket is implicit). Bounds are fixed by the first
    /// registration of each child.
    #[must_use]
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Arc<Histogram> {
        match self.instrument(name, help, Kind::Histogram, labels, Some(bounds)) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked in instrument()"),
        }
    }

    /// Renders every registered family in the Prometheus text
    /// exposition format (version 0.0.4): families sorted by name,
    /// `# HELP` and `# TYPE` before the samples, label values
    /// escaped, histogram buckets cumulative with a `+Inf` bucket and
    /// `_sum`/`_count` series.
    #[must_use]
    pub fn render(&self) -> String {
        let mut families: BTreeMap<String, FamilySnapshot> = BTreeMap::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (name, family) in shard.iter() {
                let children = family
                    .children
                    .iter()
                    .map(|(labels, instrument)| (labels.clone(), instrument.clone()))
                    .collect();
                families.insert(name.clone(), (family.help.clone(), family.kind, children));
            }
        }

        let mut out = String::new();
        for (name, (help, kind, children)) in &families {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
            let _ = writeln!(out, "# TYPE {name} {}", kind.as_str());
            for (labels, instrument) in children {
                match instrument {
                    Instrument::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), c.get());
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), g.get());
                    }
                    Instrument::Histogram(h) => {
                        let cumulative = h.cumulative();
                        for (bound, count) in h.bounds.iter().zip(&cumulative) {
                            let le = bound.to_string();
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {count}",
                                render_labels(labels, Some(&le))
                            );
                        }
                        let total = cumulative.last().copied().unwrap_or(0);
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {total}",
                            render_labels(labels, Some("+Inf"))
                        );
                        let _ =
                            writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum());
                        let _ =
                            writeln!(out, "{name}_count{} {total}", render_labels(labels, None));
                    }
                }
            }
        }
        out
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (key, value) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{key}=\"{}\"", escape_label_value(value));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_with_metadata() {
        let registry = Registry::new();
        let hits = registry.counter("cache_hits_total", "Cache hits.", &[("tier", "memory")]);
        hits.add(3);
        registry
            .counter("cache_hits_total", "Cache hits.", &[("tier", "disk")])
            .inc();
        let gauge = registry.gauge("in_flight", "Requests in flight.", &[]);
        gauge.set(2);
        gauge.sub(1);
        let text = registry.render();
        assert!(text.contains("# HELP cache_hits_total Cache hits.\n"));
        assert!(text.contains("# TYPE cache_hits_total counter\n"));
        // BTreeMap order: disk before memory.
        let disk = text.find("cache_hits_total{tier=\"disk\"} 1").unwrap();
        let memory = text.find("cache_hits_total{tier=\"memory\"} 3").unwrap();
        assert!(disk < memory);
        assert!(text.contains("# TYPE in_flight gauge\n"));
        assert!(text.contains("\nin_flight 1\n"));
    }

    #[test]
    fn histogram_buckets_render_cumulative_and_sum_consistent() {
        let registry = Registry::new();
        let h = registry.histogram(
            "latency",
            "Latency.",
            &[("endpoint", "/x")],
            &[10, 100, 1000],
        );
        for value in [5, 7, 50, 5000] {
            h.observe(value);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 5062);
        assert_eq!(h.cumulative(), vec![2, 3, 3, 4]);
        let text = registry.render();
        assert!(text.contains("latency_bucket{endpoint=\"/x\",le=\"10\"} 2\n"));
        assert!(text.contains("latency_bucket{endpoint=\"/x\",le=\"100\"} 3\n"));
        assert!(text.contains("latency_bucket{endpoint=\"/x\",le=\"1000\"} 3\n"));
        assert!(text.contains("latency_bucket{endpoint=\"/x\",le=\"+Inf\"} 4\n"));
        assert!(text.contains("latency_sum{endpoint=\"/x\"} 5062\n"));
        assert!(text.contains("latency_count{endpoint=\"/x\"} 4\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry
            .counter(
                "odd_total",
                "Hostile\nhelp \\ text",
                &[("name", "a\"b\\c\nd")],
            )
            .inc();
        let text = registry.render();
        assert!(text.contains("# HELP odd_total Hostile\\nhelp \\\\ text\n"));
        assert!(text.contains("odd_total{name=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn handles_are_shared_across_lookups() {
        let registry = Registry::new();
        let a = registry.counter("shared_total", "Shared.", &[]);
        let b = registry.counter("shared_total", "Shared.", &[]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }
}
