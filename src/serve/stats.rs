//! The statistics table behind `GET /v1/stats` and the subsystem half
//! of `GET /metrics`.
//!
//! Each statistic is declared once, as one [`Stat`] row of [`STATS`]:
//! its `/v1/stats` block and key, how to read it from a [`Snapshot`],
//! and the Prometheus series it feeds, if any (family name, type,
//! labels and HELP text). The values stay in the atomics of the
//! subsystem that owns them — the connection engine's `ServerStats`,
//! the outcome cache, the replay registry, and the App's RTL cache,
//! endpoint counters and phase histograms. A request reads them once
//! into a [`Snapshot`] and renders the table from it: `/v1/stats` as one
//! JSON document, `/metrics` as a per-scrape [`Registry`] appended to
//! the App's own instruments.

use super::App;
use crate::cache::CacheStatsSnapshot;
use crate::daemon::{Json, ServerStatsSnapshot};
use crate::obs::Registry;
use crate::resume::StreamRegistrySnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// One read of the subsystems behind the table. The engine, cache and
/// replay-registry snapshots are copied here; App-owned counters are
/// read through `app` as each row renders.
pub(super) struct Snapshot<'a> {
    app: &'a App,
    uptime_seconds: u64,
    stats_seq: u64,
    server: ServerStatsSnapshot,
    cache: CacheStatsSnapshot,
    streams: StreamRegistrySnapshot,
}

impl Snapshot<'_> {
    /// Reads `app` and the subsystems it wires together; `stats_seq` is
    /// the `/v1/stats` sequence number this snapshot reports.
    pub(super) fn read(app: &App, stats_seq: u64) -> Snapshot<'_> {
        Snapshot {
            app,
            uptime_seconds: app.started.elapsed().as_secs(),
            stats_seq,
            server: app
                .server_stats
                .get()
                .map(|stats| stats.snapshot())
                .unwrap_or_default(),
            cache: app.cache.stats(),
            streams: app.streams.snapshot(),
        }
    }

    /// The `/v1/stats` document: every row, block by block, in table
    /// order. A row that reads as absent is left out.
    pub(super) fn to_json(&self) -> Json {
        let mut doc = Vec::new();
        for (block, stats) in STATS {
            let pairs = stats
                .iter()
                .filter_map(|stat| Some((stat.key.to_owned(), (stat.read)(self)?.to_json())));
            if block.is_empty() {
                doc.extend(pairs);
            } else {
                doc.push(((*block).to_owned(), Json::Object(pairs.collect())));
            }
        }
        Json::Object(doc)
    }

    /// A registry holding the series of every row that has one, for
    /// this scrape only. Absent rows emit no series: the disk-tier
    /// families exist only when a disk tier is configured. Rows without
    /// series are not read, so a scrape never registers the phase
    /// histograms the `timing` rows look up.
    pub(super) fn registry(&self) -> Registry {
        let registry = Registry::new();
        let rows = STATS.iter().flat_map(|(_, stats)| stats.iter());
        for stat in rows.filter(|stat| !stat.series.is_empty()) {
            let Some(value) = (stat.read)(self) else {
                continue;
            };
            let sample = value.sample();
            for series in stat.series {
                match series.kind {
                    Kind::Counter => registry
                        .counter(series.name, series.help, series.labels)
                        .add(sample),
                    Kind::Gauge => registry
                        .gauge(series.name, series.help, series.labels)
                        .set(i64::try_from(sample).unwrap_or(i64::MAX)),
                }
            }
        }
        registry
    }
}

/// A statistic's value: a count, or a flag (`/metrics` renders it as
/// 0 or 1).
#[derive(Debug, Clone, Copy)]
enum Value {
    Count(u64),
    Flag(bool),
}

impl Value {
    fn to_json(self) -> Json {
        match self {
            Value::Count(count) => Json::from(count),
            Value::Flag(flag) => Json::Bool(flag),
        }
    }

    fn sample(self) -> u64 {
        match self {
            Value::Count(count) => count,
            Value::Flag(flag) => u64::from(flag),
        }
    }
}

fn count(value: u64) -> Option<Value> {
    Some(Value::Count(value))
}

fn load(counter: &AtomicU64) -> Option<Value> {
    count(counter.load(Ordering::Relaxed))
}

fn len(entries: usize) -> Option<Value> {
    count(u64::try_from(entries).unwrap_or(u64::MAX))
}

/// The Prometheus type of a table series.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
}

/// One `/metrics` series: its family's name, type and HELP text, and
/// its labels.
#[derive(Debug, Clone, Copy)]
struct Series {
    name: &'static str,
    kind: Kind,
    help: &'static str,
    labels: &'static [(&'static str, &'static str)],
}

impl Series {
    const fn labeled(self, labels: &'static [(&'static str, &'static str)]) -> Series {
        Series { labels, ..self }
    }
}

const fn counter(name: &'static str, help: &'static str) -> Series {
    Series {
        name,
        kind: Kind::Counter,
        help,
        labels: &[],
    }
}

const fn gauge(name: &'static str, help: &'static str) -> Series {
    Series {
        name,
        kind: Kind::Gauge,
        help,
        labels: &[],
    }
}

/// One statistic: its `/v1/stats` key, its reader (`None` when the
/// statistic is absent), and the series it feeds.
struct Stat {
    key: &'static str,
    read: fn(&Snapshot<'_>) -> Option<Value>,
    series: &'static [Series],
}

const fn stat(
    key: &'static str,
    read: fn(&Snapshot<'_>) -> Option<Value>,
    series: &'static [Series],
) -> Stat {
    Stat { key, read, series }
}

// The families several rows feed, one labeled series per row.
const REJECTED: Series = counter(
    "marchgend_rejected_total",
    "Connections/requests turned away before dispatch, by reason (queue_full and \
     rate_limited answer 429; shutdown answers 503).",
);
const LIMITER_DECISIONS: Series = counter(
    "marchgend_limiter_decisions_total",
    "Per-peer rate limiter decisions by outcome (zero when no limiter is configured).",
);
const CACHE_HITS: Series = counter("marchgend_cache_hits_total", "Outcome cache hits by tier.");
const RTL_CACHE_TRAFFIC: &str = "RTL render cache traffic.";

/// Every statistic, grouped by `/v1/stats` block in document order; the
/// `""` block holds the top-level keys.
#[rustfmt::skip]
const STATS: &[(&str, &[Stat])] = &[
    ("", &[
        stat("uptime_seconds", |s| count(s.uptime_seconds), &[
            gauge("marchgend_uptime_seconds", "Seconds since process start.")]),
        stat("stats_seq", |s| count(s.stats_seq), &[]),
    ]),
    ("server", &[
        stat("connections", |s| count(s.server.connections), &[
            counter("marchgend_connections_total",
                    "TCP connections accepted, including ones later rejected.")]),
        stat("requests", |s| count(s.server.requests), &[
            counter("marchgend_requests_total",
                    "Requests fully parsed and dispatched to the application handler.")]),
        stat("in_flight", |s| count(s.server.in_flight), &[
            gauge("marchgend_in_flight",
                  "Requests currently being served (handler execution plus response write).")]),
        stat("rejected_queue_full", |s| count(s.server.rejected_queue_full), &[
            REJECTED.labeled(&[("reason", "queue_full")])]),
        stat("rejected_rate_limited", |s| count(s.server.rejected_rate_limited), &[
            REJECTED.labeled(&[("reason", "rate_limited")]),
            LIMITER_DECISIONS.labeled(&[("outcome", "reject")])]),
        stat("rate_limit_allowed", |s| count(s.server.rate_limit_allowed), &[
            LIMITER_DECISIONS.labeled(&[("outcome", "allow")])]),
        stat("rejected_shutdown", |s| count(s.server.rejected_shutdown), &[
            REJECTED.labeled(&[("reason", "shutdown")])]),
        stat("protocol_errors", |s| count(s.server.protocol_errors), &[
            counter("marchgend_protocol_errors_total",
                    "Requests rejected at the protocol layer (4xx before dispatch).")]),
        stat("streams", |s| count(s.server.streams), &[
            counter("marchgend_streams_started_total",
                    "Streaming responses started (each pins a worker for its duration).")]),
        stat("streams_active", |s| count(s.server.streams_active), &[
            gauge("marchgend_streams_active", "Streaming responses currently on the wire.")]),
    ]),
    ("cache", &[
        stat("memory_hits", |s| count(s.cache.memory_hits), &[
            CACHE_HITS.labeled(&[("tier", "memory")])]),
        stat("disk_hits", |s| count(s.cache.disk_hits), &[
            CACHE_HITS.labeled(&[("tier", "disk")])]),
        stat("hits", |s| count(s.cache.hits()), &[]),
        stat("misses", |s| count(s.cache.misses), &[
            counter("marchgend_cache_misses_total",
                    "Outcome cache misses (a generation was computed).")]),
        stat("inserts", |s| count(s.cache.inserts), &[
            counter("marchgend_cache_inserts_total", "Outcomes inserted into the cache.")]),
        stat("evictions", |s| count(s.cache.evictions), &[
            counter("marchgend_cache_evictions_total",
                    "Outcomes evicted from the in-memory LRU.")]),
        stat("coalesced", |s| count(s.cache.coalesced), &[
            counter("marchgend_cache_coalesced_total",
                    "Requests served by waiting on an identical in-flight computation \
                     (single-flight).")]),
        stat("key_mismatches", |s| count(s.cache.key_mismatches), &[
            counter("marchgend_cache_key_mismatches_total",
                    "128-bit key collisions detected by canonical-text comparison (each \
                     degraded to a recompute, never to serving foreign bytes).")]),
        stat("key_schema_stale", |s| count(s.cache.key_schema_stale), &[
            counter("marchgend_cache_key_schema_stale_total",
                    "Misses whose request still has a persisted entry under the previous \
                     cache key schema — recomputes forced by a schema bump, not a cold cache.")]),
        stat("resident", |s| len(s.app.cache.resident()), &[
            gauge("marchgend_cache_resident",
                  "Outcomes currently resident in the in-memory LRU.")]),
        // Disk-tier health reads as absent without a disk tier:
        // `disk_degraded: false` on a memory-only daemon would read as
        // "the disk is fine" when there is no disk.
        stat("disk_degraded", |s| s.cache.disk.map(|d| Value::Flag(d.degraded)), &[
            gauge("marchgend_cache_disk_degraded",
                  "1 while the disk tier is in degraded (memory-only) mode, else 0.")]),
        stat("disk_quarantined", |s| s.cache.disk.map(|d| Value::Count(d.quarantined)), &[
            counter("marchgend_cache_disk_quarantined_total",
                    "Corrupt disk entries quarantined instead of served.")]),
        stat("disk_write_failures", |s| s.cache.disk.map(|d| Value::Count(d.write_failures)), &[
            counter("marchgend_cache_disk_write_failures_total",
                    "Failed disk-tier writes (each pushes toward degraded mode).")]),
        stat("disk_probes", |s| s.cache.disk.map(|d| Value::Count(d.probes)), &[
            counter("marchgend_cache_disk_probes_total",
                    "Recovery probes issued while the disk tier was degraded.")]),
    ]),
    ("streams", &[
        stat("retained", |s| count(s.streams.retained), &[
            gauge("marchgend_stream_batches_retained",
                  "Batches currently resumable (running or within retention).")]),
        stat("started", |s| count(s.streams.started), &[
            counter("marchgend_stream_batches_started_total",
                    "Batch replay rings ever registered.")]),
        stat("resumed", |s| count(s.streams.resumed), &[
            counter("marchgend_stream_resumes_total", "Successful ?resume= re-attachments.")]),
        stat("expired", |s| count(s.streams.expired), &[
            counter("marchgend_stream_batches_expired_total",
                    "Completed batches dropped after their retention window.")]),
        stat("evicted", |s| count(s.streams.evicted), &[
            counter("marchgend_stream_batches_evicted_total",
                    "Batches dropped early because the registry hit its retention cap.")]),
        stat("frames_published", |s| count(s.streams.frames_published), &[
            counter("marchgend_stream_frames_published_total",
                    "Frames published into replay rings.")]),
        stat("frames_replayed", |s| count(s.streams.frames_replayed), &[
            counter("marchgend_stream_frames_replayed_total",
                    "Frames delivered to followers (ring replays and live tails alike).")]),
        stat("frames_dropped", |s| count(s.streams.frames_dropped), &[
            counter("marchgend_stream_frames_dropped_total",
                    "Frames evicted from a ring that outgrew its capacity.")]),
        stat("ring_frames", |s| count(s.streams.ring_frames), &[
            gauge("marchgend_stream_ring_frames",
                  "Frames currently held across every retained replay ring.")]),
    ]),
    ("rtl_cache", &[
        stat("hits", |s| load(&s.app.rtl_hits), &[
            counter("marchgend_rtl_cache_hits_total", RTL_CACHE_TRAFFIC)]),
        stat("misses", |s| load(&s.app.rtl_misses), &[
            counter("marchgend_rtl_cache_misses_total", RTL_CACHE_TRAFFIC)]),
        stat("resident", |s| len(s.app.rtl_cache.len()), &[
            gauge("marchgend_rtl_cache_resident",
                  "RTL bundles currently resident in the render cache.")]),
        stat("evictions", |s| count(s.app.rtl_cache.evictions()), &[
            counter("marchgend_rtl_cache_evictions_total", RTL_CACHE_TRAFFIC)]),
    ]),
    // Computed outcomes and their summed phase micros, read from the
    // phase histograms (one observation per computed outcome), plus
    // their wall time.
    ("timing", &[
        stat("computed", |s| count(s.app.metrics.phase("expand").count()), &[]),
        stat("expand_micros", |s| count(s.app.metrics.phase("expand").sum()), &[]),
        stat("search_micros", |s| count(s.app.metrics.phase("search").sum()), &[]),
        stat("verify_micros", |s| count(s.app.metrics.phase("verify").sum()), &[]),
        stat("wall_micros", |s| load(&s.app.wall_micros), &[]),
    ]),
    ("endpoints", &[
        stat("generate", |s| load(&s.app.generate_requests), &[]),
        stat("batch", |s| load(&s.app.batch_requests), &[]),
        stat("stream", |s| load(&s.app.stream_requests), &[]),
        stat("rtl", |s| load(&s.app.rtl_requests), &[]),
    ]),
];
