//! Std-only observability kit for the marchgen workspace.
//!
//! Two halves, both zero-dependency and thread-safe:
//!
//! - [`Registry`]: a lock-sharded metrics registry holding counters,
//!   gauges, and fixed-bucket histograms, rendered on demand in the
//!   Prometheus text exposition format (`# HELP`/`# TYPE` metadata,
//!   escaped label values, cumulative histogram buckets).
//! - [`Tracer`]: a lightweight per-request span API. [`Tracer::span`]
//!   returns an RAII guard that measures wall time and, on drop, feeds
//!   an optional observer callback (used to populate phase-duration
//!   histograms) and a span tree that [`Tracer::finish`] assembles for
//!   `diagnostics.trace` blocks.
//!
//! Instruments are cheap `Arc` handles over atomics; the shard locks
//! are taken only on get-or-create and at render time, never on the
//! increment hot path. Every lock acquisition is poison-tolerant, so a
//! panic inside a scrape handler cannot wedge the registry for later
//! scrapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod trace;

pub use registry::{Counter, Gauge, Histogram, Registry};
pub use trace::{Span, SpanNode, Tracer};
