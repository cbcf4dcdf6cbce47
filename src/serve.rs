//! The `marchgend` application: routing, codec glue, cache and batch
//! wiring, behind the [`daemon`](crate::daemon) connection engine.
//!
//! [`App`] is the engine's handler. The binary parses flags, builds the
//! [`OutcomeCache`], binds a [`Server`](crate::daemon::Server) whose
//! handler calls [`App::handle`], and hands the App the engine's
//! [`ServerStats`]; tests call [`App::handle`] in-process. The wire
//! format is exactly JSON schema v1 — the same documents
//! `marchgen --json` reads and writes.
//!
//! ```text
//! POST /v1/generate   one GenerateRequest  → one GenerateOutcome
//! POST /v1/batch      [GenerateRequest...] → [{"outcome"|"error"}...]
//! GET|POST /v1/stream [GenerateRequest...] → chunked JSON-lines progress frames
//!     ?resume=ID&from=N                    → replay + re-attach to a running batch
//! POST /v1/rtl        march or GenerateRequest → SystemVerilog BIST bundle
//! GET  /v1/health     liveness + version
//! GET  /v1/stats      server / cache / stream / per-phase timing counters (JSON)
//! GET  /metrics       the same counters as Prometheus text exposition
//! GET|POST /v1/failpoints  fault-injection admin (no-op without the feature)
//! POST /v1/shutdown   graceful drain and exit
//! ```
//!
//! ```
//! use marchgen::cache::OutcomeCache;
//! use marchgen::daemon::{Reply, Request};
//! use marchgen::serve::App;
//! use std::sync::Arc;
//!
//! let app = Arc::new(App::new(OutcomeCache::new(64)));
//! let request = Request {
//!     method: "GET".to_owned(),
//!     path: "/v1/health".to_owned(),
//!     headers: Vec::new(),
//!     body: Vec::new(),
//!     http10: false,
//!     request_id: "doc".to_owned(),
//! };
//! let Reply::Full(response) = app.handle(&request) else {
//!     panic!("health answers a buffered response");
//! };
//! assert_eq!(response.status, 200);
//! ```
//!
//! Observability (docs/OBSERVABILITY.md): every request feeds
//! per-endpoint counters and latency histograms plus per-phase duration
//! histograms in the App's lock-sharded registry. Statistics other
//! subsystems own — the engine, both caches, the replay registry — stay
//! in their own atomics and are declared once in a statistics table
//! that renders both `/v1/stats` and their `/metrics` series. A request
//! carrying `?trace=1` or `X-Trace: 1` additionally gets a span tree in
//! its response's `diagnostics.trace` block.
//!
//! Every `/v1/stream` batch is backed by a replay ring
//! ([`crate::resume`]): the first frame announces a `batch_id`, every
//! frame carries a monotone `seq`, and a client that loses its
//! connection mid-batch reconnects with `?resume=<batch_id>&from=<seq>`
//! to get the missed frames replayed byte-identically and then follow
//! live — the computation never restarts.

mod stats;

use crate::cache::{canonical_key_text, key_for_text, OutcomeCache, ShardedLru};
use crate::daemon::{
    FromJson, Json, Reply, Request, Response, ServerStats, StreamResponse, ToJson,
};
use crate::faults::FAULT_CLASS_LABELS;
use crate::obs::{Counter, Histogram, Registry, SpanNode, Tracer};
use crate::resume::{CompleteOnDrop, FollowError, StreamRegistry};
use crate::rtl::RtlOptions;
use crate::service::Batch;
use crate::{known, Diagnostics, GenerateOutcome, GenerateRequest, MarchTest};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Capacity of the `/v1/rtl` render cache, in entries. Deliberately
/// smaller than the outcome cache: one RTL bundle is a multi-kilobyte
/// source file, and re-rendering from a cached outcome is cheap — the
/// cache only has to absorb repeated fetches of the same bundle.
const RTL_CACHE_CAPACITY: usize = 256;

/// One rendered `/v1/rtl` bundle. The canonical key text is stored next
/// to the code so a 128-bit key collision degrades to a re-render, never
/// to serving another request's bytes — the same safety contract as
/// [`OutcomeCache`].
struct RtlEntry {
    canonical: String,
    test: String,
    complexity: usize,
    name: String,
    code: String,
}

impl RtlEntry {
    /// The response document — the `marchgen codegen --json` envelope
    /// plus the `cache_hit` bit.
    fn to_json(&self, cache_hit: bool) -> Json {
        Json::object([
            ("schema", Json::Int(1)),
            ("test", Json::Str(self.test.clone())),
            ("complexity", Json::from(self.complexity)),
            ("lang", Json::from("sv")),
            ("name", Json::from(self.name.as_str())),
            ("code", Json::from(self.code.as_str())),
            ("cache_hit", Json::Bool(cache_hit)),
        ])
    }
}

/// Bucket bounds for every duration histogram, µs: 100µs to 30s.
/// Generation runs span sub-millisecond cache hits to multi-second
/// pair-fault searches, so the grid is logarithmic-ish.
const DURATION_BUCKETS_MICROS: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000,
];

/// The per-phase duration histogram of `phase` — shared between the
/// tracer's observer (live spans: `request`, `decode`, `generate`,
/// `render`) and [`Metrics::record_outcome`] (generator phases measured
/// by the pipeline itself: `expand`, `search`, `solve`, `schedule`,
/// `verify`).
fn phase_histogram(registry: &Registry, phase: &str) -> Arc<Histogram> {
    registry.histogram(
        "marchgend_phase_duration_microseconds",
        "Duration of one request phase, microseconds, labeled by phase \
         (request/decode/generate/render are daemon wall time; \
         expand/search/solve/schedule/verify come from generator diagnostics \
         of computed, non-cache-hit outcomes).",
        &[("phase", phase)],
        DURATION_BUCKETS_MICROS,
    )
}

/// The App's own instruments: what it observes on the request path.
/// Statistics owned by other subsystems are not stored here — they are
/// read at snapshot time through the statistics table.
struct Metrics {
    registry: Arc<Registry>,
}

impl Metrics {
    fn new() -> Metrics {
        let metrics = Metrics {
            registry: Arc::new(Registry::new()),
        };
        metrics
            .registry
            .gauge(
                "marchgend_build_info",
                "Constant 1, labeled with the daemon version.",
                &[("version", env!("CARGO_PKG_VERSION"))],
            )
            .set(1);
        // Fixed label vocabularies: every series exists from the first
        // scrape (zeros, not gaps), and cardinality is bounded by the
        // taxonomy and the in-tree verification backends ("none" for
        // verification-disabled requests) rather than by traffic.
        for label in FAULT_CLASS_LABELS {
            let _ = metrics.fault_class_requests(label);
            for outcome in ["verified", "unverified"] {
                let _ = metrics.fault_class_verify(label, outcome);
            }
        }
        for backend in ["simulator", "widesim", "none"] {
            let _ = metrics.verifier_outcomes(backend);
        }
        metrics
    }

    fn phase(&self, phase: &str) -> Arc<Histogram> {
        phase_histogram(&self.registry, phase)
    }

    fn fault_class_requests(&self, fault_class: &str) -> Arc<Counter> {
        self.registry.counter(
            "marchgend_fault_class_requests_total",
            "Generation requests by fault class (one tick per distinct class in the request's \
             fault list; fixed label vocabulary).",
            &[("fault_class", fault_class)],
        )
    }

    fn fault_class_verify(&self, fault_class: &str, outcome: &str) -> Arc<Counter> {
        self.registry.counter(
            "marchgend_fault_class_verify_total",
            "Served generation outcomes by fault class and verification outcome \
             (verified|unverified; fixed label vocabulary).",
            &[("fault_class", fault_class), ("outcome", outcome)],
        )
    }

    fn verifier_outcomes(&self, backend: &str) -> Arc<Counter> {
        self.registry.counter(
            "marchgend_verifier_outcomes_total",
            "Computed outcomes by resolved verification backend (\"none\" when \
             verification was disabled).",
            &[("backend", backend)],
        )
    }

    /// One routed request: endpoint/status-class counter plus the
    /// handler-latency histogram. For streaming endpoints the latency
    /// covers handler setup, not body delivery (the engine's
    /// slow-request warning covers the write).
    fn observe_http(&self, endpoint: &'static str, status: u16, micros: u64) {
        self.registry
            .counter(
                "marchgend_http_requests_total",
                "Requests dispatched to the application router, by endpoint and status class.",
                &[("endpoint", endpoint), ("class", status_class(status))],
            )
            .inc();
        self.registry
            .histogram(
                "marchgend_http_request_duration_microseconds",
                "Handler wall time per endpoint, microseconds (streaming endpoints count \
                 handler setup, not body delivery).",
                &[("endpoint", endpoint)],
                DURATION_BUCKETS_MICROS,
            )
            .observe(micros);
    }

    /// Phase histograms + solver counters for one *computed*
    /// (non-cache-hit) outcome: one observation per phase per outcome.
    /// Cache hits contribute nothing. The `expand`, `search` and
    /// `verify` histograms are the source of `/v1/stats` `timing`.
    fn record_outcome(&self, diagnostics: &Diagnostics) {
        let (solve, schedule) = solve_schedule_split(diagnostics);
        self.phase("expand").observe(diagnostics.expand_micros);
        self.phase("search").observe(diagnostics.search_micros);
        self.phase("solve").observe(solve);
        self.phase("schedule").observe(schedule);
        self.phase("verify").observe(diagnostics.verify_micros);
        let verifier = if diagnostics.verifier.is_empty() {
            "none"
        } else {
            diagnostics.verifier.as_str()
        };
        self.verifier_outcomes(verifier).inc();
        let backend = if diagnostics.solver.is_empty() {
            "unknown"
        } else {
            diagnostics.solver.as_str()
        };
        self.registry
            .counter(
                "marchgend_solver_outcomes_total",
                "Computed outcomes by resolved ATSP solver backend.",
                &[("backend", backend)],
            )
            .inc();
        self.registry
            .counter(
                "marchgend_solver_iterations_total",
                "Improving local-search moves across computed outcomes, by backend.",
                &[("backend", backend)],
            )
            .add(diagnostics.solver_iterations);
        self.registry
            .counter(
                "marchgend_solver_restarts_total",
                "Local-search perturbation restarts across computed outcomes, by backend.",
                &[("backend", backend)],
            )
            .add(diagnostics.solver_restarts);
    }

    /// A per-request [`Tracer`]: its observer feeds the phase
    /// histograms on every live span drop; the span *tree* is
    /// collected only when the client asked for one.
    fn tracer(&self, collect_tree: bool) -> Tracer {
        let registry = Arc::clone(&self.registry);
        Tracer::new(collect_tree).with_observer(move |name, micros| {
            phase_histogram(&registry, name).observe(micros);
        })
    }
}

/// Splits `search_micros` into the shares reported as `solve` and
/// `schedule`. The names are older than what they measure: `solve` is
/// Σ `shard_micros`, the per-set planning time (Held–Karp tables, tour
/// enumeration *and* scheduling every tour into a packed candidate
/// record), clamped to the search wall time because sets planned on
/// different threads overlap; `schedule` is the remainder of the
/// search, which is combination enumeration, TP-set dedupe, and sorting
/// and deduping the records.
fn solve_schedule_split(diagnostics: &Diagnostics) -> (u64, u64) {
    let solve = diagnostics
        .shard_micros
        .iter()
        .sum::<u64>()
        .min(diagnostics.search_micros);
    (solve, diagnostics.search_micros - solve)
}

/// Synthesizes the generator's own phase timings (already measured by
/// the pipeline and reported in [`Diagnostics`]) as children of the
/// currently open span, so a traced request shows where the computed
/// time went: `expand`, `search` (→ `solve` + `schedule`), `verify`.
/// These go through [`Tracer::record`], which bypasses the observer —
/// [`Metrics::record_outcome`] already feeds the histograms.
fn record_phases(tracer: &Tracer, diagnostics: &Diagnostics) {
    let (solve, schedule) = solve_schedule_split(diagnostics);
    tracer.record("expand", diagnostics.expand_micros, |_| {});
    tracer.record("search", diagnostics.search_micros, |t| {
        t.record("solve", solve, |_| {});
        t.record("schedule", schedule, |_| {});
    });
    tracer.record("verify", diagnostics.verify_micros, |_| {});
}

/// Microseconds elapsed since `started`, saturating.
fn micros_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// `2xx`/`4xx`-style label value for the status-class counter.
fn status_class(status: u16) -> &'static str {
    match status / 100 {
        1 => "1xx",
        2 => "2xx",
        3 => "3xx",
        4 => "4xx",
        5 => "5xx",
        _ => "other",
    }
}

/// Stable `endpoint` label values — a fixed vocabulary, so hostile
/// paths cannot mint unbounded label sets.
fn endpoint_label(route_path: &str) -> &'static str {
    match route_path {
        "/v1/generate" => "/v1/generate",
        "/v1/batch" => "/v1/batch",
        "/v1/stream" => "/v1/stream",
        "/v1/rtl" => "/v1/rtl",
        "/v1/health" => "/v1/health",
        "/v1/stats" => "/v1/stats",
        "/v1/failpoints" => "/v1/failpoints",
        "/v1/shutdown" => "/v1/shutdown",
        "/metrics" => "/metrics",
        _ => "other",
    }
}

/// `true` when the client asked for a span tree in the response
/// (`?trace=1` or `X-Trace: 1`).
fn trace_requested(request: &Request) -> bool {
    request.query_param("trace") == Some("1")
        || request.header("x-trace").map(str::trim) == Some("1")
}

/// Injects the assembled span tree into the outcome document's
/// `diagnostics` object as its `trace` key (top-level fallback only if
/// a future document shape drops `diagnostics`).
fn attach_trace(doc: &mut Json, root: &SpanNode) {
    let trace = span_json(root);
    if let Json::Object(pairs) = doc {
        if let Some((_, Json::Object(diagnostics))) =
            pairs.iter_mut().find(|(key, _)| key == "diagnostics")
        {
            diagnostics.push(("trace".to_owned(), trace));
        } else {
            pairs.push(("trace".to_owned(), trace));
        }
    }
}

/// `{"name": ..., "micros": ..., "children": [...]}` — leaves omit
/// `children` (docs/WIRE_FORMAT.md).
fn span_json(node: &SpanNode) -> Json {
    let mut pairs = vec![
        ("name".to_owned(), Json::from(node.name)),
        ("micros".to_owned(), Json::from(node.micros)),
    ];
    if !node.children.is_empty() {
        pairs.push((
            "children".to_owned(),
            Json::array(node.children.iter().map(span_json).collect::<Vec<_>>()),
        ));
    }
    Json::Object(pairs)
}

/// Parses a request body as one JSON document. A body that is not UTF-8
/// and one that is not JSON both answer `400 invalid_json`.
fn parse_body(body: &[u8]) -> Result<Json, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "invalid_json", "body is not UTF-8"))?;
    Json::parse(text).map_err(|e| Response::error(400, "invalid_json", e.to_string()))
}

/// The application half of the daemon: routing, codec glue, cache and
/// batch wiring. Shared by every connection worker.
pub struct App {
    cache: OutcomeCache,
    batch: Batch,
    // Resumable `/v1/stream` batches: batch_id → replay ring.
    streams: StreamRegistry,
    // Wall time spent producing computed outcomes: per `/v1/generate`
    // or `/v1/rtl` request, and once per batch or stream call that
    // computed anything. The rest of `/v1/stats` `timing` is read from
    // the phase histograms.
    wall_micros: AtomicU64,
    generate_requests: AtomicU64,
    batch_requests: AtomicU64,
    stream_requests: AtomicU64,
    rtl_requests: AtomicU64,
    // `/v1/rtl` render cache: canonical (march ⊕ normalized RTL knobs)
    // key text → emitted SystemVerilog. Separate from the outcome cache
    // because the value is rendered source, not a generation outcome.
    rtl_cache: ShardedLru<Arc<RtlEntry>>,
    rtl_hits: AtomicU64,
    rtl_misses: AtomicU64,
    // The engine's counters, handed over right after bind (the server
    // owns their allocation); unset when the App runs without a server.
    server_stats: OnceLock<Arc<ServerStats>>,
    metrics: Metrics,
    // Process start, for `uptime_seconds`.
    started: Instant,
    // Monotone `/v1/stats` snapshot sequence: scrapers detect stale
    // snapshots (seq not advancing) and restarts (seq going backwards).
    stats_seq: AtomicU64,
}

impl App {
    /// An App serving from `cache` (memory-only, or with a disk tier),
    /// with the fault-class and verifier label vocabularies of
    /// `/metrics` registered at zero.
    #[must_use]
    pub fn new(cache: OutcomeCache) -> App {
        App {
            cache,
            batch: Batch::new(),
            streams: StreamRegistry::new(),
            wall_micros: AtomicU64::new(0),
            generate_requests: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
            stream_requests: AtomicU64::new(0),
            rtl_requests: AtomicU64::new(0),
            rtl_cache: ShardedLru::new(RTL_CACHE_CAPACITY),
            rtl_hits: AtomicU64::new(0),
            rtl_misses: AtomicU64::new(0),
            server_stats: OnceLock::new(),
            metrics: Metrics::new(),
            started: Instant::now(),
            stats_seq: AtomicU64::new(0),
        }
    }

    /// Hands the App the connection engine's counters
    /// ([`Server::stats`](crate::daemon::Server::stats)), read by
    /// `/v1/stats`, `/metrics` and the anti-oversubscription rule.
    /// Only the first call takes effect; until then those statistics
    /// read as zero.
    pub fn set_server_stats(&self, stats: Arc<ServerStats>) {
        let _ = self.server_stats.set(stats);
    }

    /// Routes one request. Takes the owning [`Arc`] (not a plain
    /// `&self`) because the streaming endpoint's producer outlives this
    /// call: it runs on the connection worker after the response head
    /// is on the wire, so it must carry its own strong reference.
    pub fn handle(self: &Arc<App>, request: &Request) -> Reply {
        let endpoint = endpoint_label(request.route_path());
        let started = Instant::now();
        let reply = self.route(request);
        let status = match &reply {
            Reply::Full(response) => response.status,
            Reply::Stream(stream) => stream.status,
        };
        self.metrics
            .observe_http(endpoint, status, micros_since(started));
        reply
    }

    fn route(self: &Arc<App>, request: &Request) -> Reply {
        // Routing matches on the path *without* its query string —
        // `/v1/stream?resume=...` still routes to the stream endpoint.
        match (request.method.as_str(), request.route_path()) {
            ("POST", "/v1/generate") => self.generate_endpoint(request).into(),
            ("POST", "/v1/batch") => self.batch_endpoint(&request.body).into(),
            ("POST", "/v1/rtl") => self.rtl_endpoint(&request.body).into(),
            // GET is accepted alongside POST so interactive clients
            // (curl without -d, browsers) can watch an empty-body
            // stream fail fast with a structured 400 instead of a
            // method error, and so resumption (which carries no body)
            // works from anything that can issue a plain GET.
            ("GET" | "POST", "/v1/stream") => self.stream_endpoint(request),
            ("GET" | "POST", "/v1/failpoints") => failpoints_endpoint(request).into(),
            ("GET", "/v1/health") => health_endpoint().into(),
            ("GET", "/v1/stats") => self.stats_endpoint().into(),
            ("GET", "/metrics") => self.metrics_endpoint().into(),
            ("POST", "/v1/shutdown") => {
                Response::json(&Json::object([("stopping", Json::Bool(true))]))
                    .with_shutdown()
                    .into()
            }
            (_, "/v1/generate" | "/v1/batch" | "/v1/rtl" | "/v1/shutdown") => Response::error(
                405,
                "method_not_allowed",
                format!("{} requires POST", request.route_path()),
            )
            .into(),
            (_, "/v1/health" | "/v1/stats" | "/metrics") => Response::error(
                405,
                "method_not_allowed",
                format!("{} requires GET", request.route_path()),
            )
            .into(),
            (_, "/v1/stream" | "/v1/failpoints") => Response::error(
                405,
                "method_not_allowed",
                format!("{} requires GET or POST", request.route_path()),
            )
            .into(),
            _ => Response::error(
                404,
                "not_found",
                format!("no endpoint {:?}; see /v1/health", request.path),
            )
            .into(),
        }
    }

    /// Decodes one request document; splits syntax (`400`) from schema
    /// (`422`) failures.
    fn decode_request(body: &[u8]) -> Result<GenerateRequest, Response> {
        let doc = parse_body(body)?;
        GenerateRequest::from_json(&doc)
            .map_err(|e| Response::error(422, "invalid_request", e.message))
    }

    /// Runs one decoded request through the shared outcome cache — the
    /// compute core of `/v1/generate` and the generated-test path of
    /// `/v1/rtl`. Applies the daemon's anti-oversubscription rule and
    /// books the outcome through [`App::record_served`]; failures come
    /// back as a ready-to-send 422.
    fn run_generate(
        &self,
        mut request: GenerateRequest,
        tracer: &Tracer,
    ) -> Result<GenerateOutcome, Response> {
        // Same anti-oversubscription rule as `Batch::run_workers`: an
        // auto-threaded request would plan its search partitions on one
        // thread per CPU inside a daemon that already runs one
        // connection worker per CPU. Pin it to a single search thread
        // whenever another request is being served concurrently (the
        // snapshot includes this request, so in-flight ≥ 2 means real
        // contention); a lone request keeps the full machine. Never
        // changes the outcome — the search is deterministic — or the
        // cache key.
        let contended = self
            .server_stats
            .get()
            .map(|stats| stats.snapshot().in_flight >= 2)
            .unwrap_or(false);
        if contended && request.search_threads == 0 {
            request = request.with_search_threads(1);
        }
        let classes = self.count_fault_classes(&request);
        let started = Instant::now();
        let generate_span = tracer.span("generate");
        match self.cache.get_or_compute(&request, crate::generate) {
            Ok(outcome) => {
                let wall = micros_since(started);
                if self.record_served(&classes, &outcome) {
                    self.wall_micros.fetch_add(wall, Ordering::Relaxed);
                    // Synthesize the pipeline's own phase timings under
                    // the still-open `generate` span. Cache hits get no
                    // phase children: their Diagnostics micros describe
                    // the *original* computation, not this request.
                    record_phases(tracer, &outcome.diagnostics);
                }
                drop(generate_span);
                Ok(outcome)
            }
            Err(error) => Err(Response::error(
                422,
                "generation_failed",
                error_chain(&error),
            )),
        }
    }

    fn generate_endpoint(&self, request: &Request) -> Response {
        self.generate_requests.fetch_add(1, Ordering::Relaxed);
        // Chaos site: a fault inside the handler itself, before any
        // decoding — exercises the engine's structured-error path.
        marchgen_failpoint::fail_point!("marchgend.generate", |msg: String| Response::error(
            500,
            "injected_fault",
            msg
        ));
        let tracer = self.metrics.tracer(trace_requested(request));
        let mut doc = {
            let _request_span = tracer.span("request");
            let decoded = {
                let _decode = tracer.span("decode");
                App::decode_request(&request.body)
            };
            let generate_request = match decoded {
                Ok(generate_request) => generate_request,
                Err(response) => return response,
            };
            match self.run_generate(generate_request, &tracer) {
                Ok(outcome) => {
                    let _render = tracer.span("render");
                    outcome.to_json()
                }
                Err(response) => return response,
            }
        };
        // The `request` span just closed; attach the assembled tree to
        // the outcome's diagnostics when the client asked for it.
        if let Some(root) = tracer.finish().into_iter().next() {
            attach_trace(&mut doc, &root);
        }
        Response::json(&doc)
    }

    /// `POST /v1/rtl`: compiles a March test into the synthesizable
    /// SystemVerilog BIST bundle (`marchgen::rtl::emit_sv` — pattern
    /// generator FSM, BIST wrapper, self-checking testbench). The body
    /// either names the test directly —
    /// `{"march": "March C-", "rtl": {...}}`, accepting a known-test
    /// name or March notation — or is a plain [`GenerateRequest`]
    /// document with an optional `"rtl"` sibling key, in which case the
    /// test is generated (through the shared outcome cache) and must
    /// verify before any RTL is emitted. Rendered bundles are cached by
    /// the canonical (march ⊕ normalized options) key, so repeated
    /// fetches of the same hardware are a string clone.
    fn rtl_endpoint(&self, body: &[u8]) -> Response {
        self.rtl_requests.fetch_add(1, Ordering::Relaxed);
        let doc = match parse_body(body) {
            Ok(doc) => doc,
            Err(response) => return response,
        };
        let options = match doc.get("rtl") {
            None => RtlOptions::default(),
            Some(node) => match RtlOptions::from_json(node) {
                Ok(options) => options,
                Err(e) => {
                    return Response::error(
                        422,
                        "invalid_request",
                        format!("\"rtl\": {}", e.message),
                    )
                }
            },
        };
        let options = options.normalize();
        let fragment = options.canonical_fragment();

        // Two ways to name the hardware under test: a march given
        // directly (validated, not re-generated), or a fault list the
        // generator turns into one. The canonical key text mirrors the
        // split so the two namespaces can never collide.
        let (test, canonical) = if let Some(node) = doc.get("march") {
            let Some(march) = node.as_str() else {
                return Response::error(
                    422,
                    "invalid_request",
                    "\"march\" must be a string (a known test name or March notation)",
                );
            };
            let parsed = known::by_name(march)
                .map(Ok)
                .unwrap_or_else(|| march.parse::<MarchTest>());
            let test = match parsed {
                Ok(test) => test,
                Err(e) => {
                    return Response::error(422, "invalid_request", format!("\"march\": {e}"))
                }
            };
            if let Err(e) = test.check_consistency() {
                return Response::error(
                    422,
                    "invalid_request",
                    format!("inconsistent march test: {e}"),
                );
            }
            let canonical = format!("rtl-direct/v1;march={};{fragment}", test.to_ascii());
            (test, canonical)
        } else {
            let request = match GenerateRequest::from_json(&doc) {
                Ok(request) => request,
                Err(e) => return Response::error(422, "invalid_request", e.message),
            };
            let canonical = format!("{};{fragment}", canonical_key_text(&request));
            let outcome = match self.run_generate(request, &Tracer::disabled()) {
                Ok(outcome) => outcome,
                Err(response) => return response,
            };
            if !outcome.verified {
                return Response::error(
                    422,
                    "generation_failed",
                    "generated test failed verification; refusing to emit unproven RTL",
                );
            }
            (outcome.test, canonical)
        };

        let key = key_for_text(&canonical);
        if let Some(entry) = self.rtl_cache.get(key) {
            if entry.canonical == canonical {
                self.rtl_hits.fetch_add(1, Ordering::Relaxed);
                return Response::json(&entry.to_json(true));
            }
        }
        self.rtl_misses.fetch_add(1, Ordering::Relaxed);
        let code = match crate::rtl::emit_sv(&test, &options) {
            Ok(code) => code,
            Err(e) => return Response::error(422, "invalid_request", e.to_string()),
        };
        let entry = Arc::new(RtlEntry {
            canonical,
            test: test.to_string(),
            complexity: test.complexity(),
            name: options.name.clone(),
            code,
        });
        self.rtl_cache.insert(key, Arc::clone(&entry));
        Response::json(&entry.to_json(false))
    }

    /// Decodes a batch document — a JSON array of request documents, or
    /// `{"requests": [...]}` — shared by `/v1/batch` and `/v1/stream`.
    /// Decode errors reject the whole document (the request itself is
    /// malformed); generation failures later stay per-item.
    fn decode_batch(body: &[u8]) -> Result<Vec<GenerateRequest>, Response> {
        let doc = parse_body(body)?;
        let items = doc
            .as_array()
            .or_else(|| doc.get("requests").and_then(Json::as_array))
            .ok_or_else(|| {
                Response::error(
                    422,
                    "invalid_request",
                    "batch body must be an array of requests (or {\"requests\": [...]})",
                )
            })?;
        let mut requests = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            match GenerateRequest::from_json(item) {
                Ok(request) => requests.push(request),
                Err(e) => {
                    return Err(Response::error(
                        422,
                        "invalid_request",
                        format!("request #{index}: {}", e.message),
                    ))
                }
            }
        }
        Ok(requests)
    }

    /// `POST /v1/batch`: a JSON array of request documents (or
    /// `{"requests": [...]}`), answered as an array of
    /// `{"outcome": ...}` / `{"error": ...}` entries in input order —
    /// one bad generation never poisons its neighbours (decode errors
    /// do reject the whole document: the request itself is malformed).
    fn batch_endpoint(&self, body: &[u8]) -> Response {
        self.batch_requests.fetch_add(1, Ordering::Relaxed);
        let requests = match App::decode_batch(body) {
            Ok(requests) => requests,
            Err(response) => return response,
        };
        let classes: Vec<_> = requests
            .iter()
            .map(|request| self.count_fault_classes(request))
            .collect();
        let started = Instant::now();
        let results = self.batch.run_cached(&self.cache, requests, |_| {});
        self.record_batch(&classes, &results, micros_since(started));
        let entries = results.iter().map(|result| match result {
            Ok(outcome) => Json::object([("outcome", outcome.to_json())]),
            Err(error) => Json::object([("error", Json::Str(error_chain(error)))]),
        });
        Response::json(&Json::array(entries.collect::<Vec<_>>()))
    }

    /// `GET|POST /v1/stream`: the same batch document as `/v1/batch`,
    /// answered as a chunked JSON-lines stream of
    /// [`BatchEvent`](crate::service::BatchEvent) frames
    /// (`started` / `item` / terminal `completed`) emitted while the
    /// batch runs — long-running requests report progress instead of a
    /// silent multi-second POST. Decode errors are answered *buffered*
    /// (400/422 with the usual structured body): the status line is
    /// already on the wire once streaming starts, so all validation
    /// happens first.
    ///
    /// Every stream is resumable: the batch runs on its own thread and
    /// *publishes* frames into a [`crate::resume::BatchStream`]
    /// replay ring, announced up front by a `{"event":"batch"}` frame
    /// carrying the `batch_id` token; every frame carries a monotone
    /// `seq`. This connection is merely the ring's first follower — a
    /// peer hanging up cancels nothing (the batch keeps feeding the
    /// ring and any coalesced cache waiters), and the client comes back
    /// via `?resume=<batch_id>&from=<seq>` ([`App::resume_stream`]).
    fn stream_endpoint(self: &Arc<App>, request: &Request) -> Reply {
        self.stream_requests.fetch_add(1, Ordering::Relaxed);
        if let Some(batch_id) = request.query_param("resume") {
            return self.resume_stream(batch_id, request.query_param("from"));
        }
        let requests = match App::decode_batch(&request.body) {
            Ok(requests) => requests,
            Err(response) => return response.into(),
        };
        let classes: Vec<_> = requests
            .iter()
            .map(|request| self.count_fault_classes(request))
            .collect();
        let app = Arc::clone(self);
        let stream = self.streams.begin();
        let request_id = request.request_id.clone();
        StreamResponse::new(move |sink| {
            stream.publish(|seq| {
                frame_line(
                    Json::object([
                        ("event", Json::from("batch")),
                        ("batch_id", Json::from(stream.id())),
                    ]),
                    seq,
                    &request_id,
                )
            });
            let produced = std::thread::scope(|scope| {
                let producer_stream = Arc::clone(&stream);
                let producer_request_id = request_id.clone();
                let producer = scope.spawn(move || {
                    // Completes the ring even if the batch panics, so
                    // followers (this connection and any resumers) are
                    // always released.
                    let _done = CompleteOnDrop(Arc::clone(&producer_stream));
                    let started = Instant::now();
                    let results = app.batch.run_cached(&app.cache, requests, |event| {
                        let doc = event.to_json();
                        producer_stream.publish(|seq| frame_line(doc, seq, &producer_request_id));
                    });
                    app.record_batch(&classes, &results, micros_since(started));
                });
                let followed = stream.follow(0, |line| sink.send(line.as_bytes()));
                // The batch always runs to completion — coalesced cache
                // waiters and future resumers depend on it — so a dead
                // peer merely stops this follower while the join waits.
                (producer.join(), followed)
            });
            let (ran, followed) = produced;
            if ran.is_err() {
                return Err(std::io::Error::other("stream batch producer panicked"));
            }
            match followed {
                Ok(()) => Ok(()),
                Err(FollowError::Io(error)) => Err(error),
                Err(FollowError::Gap { .. }) => Err(std::io::Error::other(
                    "stream client fell behind the replay ring",
                )),
            }
        })
        .into()
    }

    /// `GET /v1/stream?resume=<batch_id>&from=<seq>`: re-attaches to a
    /// live or recently-completed batch stream — frames still in the
    /// replay ring are resent byte-identically from `from`, then the
    /// follower tails live publishes to the terminal frame. Validation
    /// happens before the response head is written: a malformed `from`
    /// is a 422, an unknown/expired/evicted token a structured 404
    /// (`resume_unknown` — resubmit the batch), a start sequence that
    /// already left the ring a 410 (`resume_gap`).
    fn resume_stream(&self, batch_id: &str, from: Option<&str>) -> Reply {
        let from = match from.map_or(Ok(0), str::parse::<u64>) {
            Ok(from) => from,
            Err(_) => {
                return Response::error(
                    422,
                    "invalid_request",
                    "\"from\" must be a non-negative frame sequence number",
                )
                .into()
            }
        };
        let Some(stream) = self.streams.resume(batch_id) else {
            return Response::error(
                404,
                "resume_unknown",
                format!(
                    "no resumable batch {batch_id:?} (unknown, expired, or evicted); \
                     resubmit the batch"
                ),
            )
            .into();
        };
        if let Err(oldest) = stream.check_from(from) {
            return Response::error(
                410,
                "resume_gap",
                format!(
                    "frames before seq {oldest} have left the replay ring; \
                     resume with from={oldest} (accepting a gap) or resubmit the batch"
                ),
            )
            .into();
        }
        StreamResponse::new(move |sink| {
            match stream.follow(from, |line| sink.send(line.as_bytes())) {
                Ok(()) => Ok(()),
                Err(FollowError::Io(error)) => Err(error),
                // An eviction raced the check above; refuse to skip
                // frames silently — the truncated stream (no terminal
                // frame) tells the client to start over.
                Err(FollowError::Gap { oldest }) => Err(std::io::Error::other(format!(
                    "replay ring overtook the resume point (oldest retained seq {oldest})"
                ))),
            }
        })
        .into()
    }

    /// `GET /metrics`: the App's own registry in Prometheus text
    /// exposition format, followed by the statistics table's series,
    /// rendered from one snapshot of the subsystems that own them.
    fn metrics_endpoint(&self) -> Response {
        // Chaos site: a fault inside the scrape path itself — verifies
        // a panicking/failing exposition answers structured errors
        // without poisoning the registry for the next scrape.
        marchgen_failpoint::fail_point!("marchgend.metrics", |msg: String| Response::error(
            500,
            "injected_fault",
            msg
        ));
        self.metrics
            .registry
            .counter(
                "marchgend_metrics_scrapes_total",
                "Completed GET /metrics expositions.",
                &[],
            )
            .inc();
        let snapshot = stats::Snapshot::read(self, self.stats_seq.load(Ordering::Relaxed));
        let mut text = self.metrics.registry.render();
        text.push_str(&snapshot.registry().render());
        Response::text(text, "text/plain; version=0.0.4")
    }

    /// `GET /v1/stats`: the statistics table as one JSON document, read
    /// from one snapshot.
    fn stats_endpoint(&self) -> Response {
        let stats_seq = self.stats_seq.fetch_add(1, Ordering::Relaxed) + 1;
        Response::json(&stats::Snapshot::read(self, stats_seq).to_json())
    }

    /// Increments the per-`fault_class` request counters for one
    /// generation request: one tick per distinct class label in its
    /// fault list. The label set is the fixed [`FAULT_CLASS_LABELS`]
    /// vocabulary, so cardinality is bounded regardless of request
    /// contents. Returns those labels for [`App::record_served`].
    fn count_fault_classes(&self, request: &GenerateRequest) -> Vec<&'static str> {
        let mut classes: Vec<&'static str> = request
            .faults
            .iter()
            .map(crate::FaultModel::class_label)
            .collect();
        classes.sort_unstable();
        classes.dedup();
        for label in &classes {
            self.metrics.fault_class_requests(label).inc();
        }
        classes
    }

    /// Books one served generation outcome — the one place
    /// `/v1/generate`, `/v1/rtl`, `/v1/batch` and `/v1/stream` report
    /// to. Every outcome ticks the per-`fault_class` verification
    /// counters (cache hits included — the outcome is what the client
    /// received); a computed one also feeds the phase histograms and
    /// backend counters. Returns `true` when the outcome was computed.
    fn record_served(&self, classes: &[&'static str], outcome: &GenerateOutcome) -> bool {
        let verdict = if outcome.verified {
            "verified"
        } else {
            "unverified"
        };
        for label in classes {
            self.metrics.fault_class_verify(label, verdict).inc();
        }
        let computed = !outcome.diagnostics.cache_hit;
        if computed {
            self.metrics.record_outcome(&outcome.diagnostics);
        }
        computed
    }

    /// Books one batch or stream call: every successful item through
    /// [`App::record_served`], plus the call's shared wall time exactly
    /// once — and only when something was computed, so all-hit calls
    /// add no wall time.
    fn record_batch<E>(
        &self,
        classes: &[Vec<&'static str>],
        results: &[Result<GenerateOutcome, E>],
        wall: u64,
    ) {
        let mut computed = false;
        for (classes, result) in classes.iter().zip(results) {
            if let Ok(outcome) = result {
                computed |= self.record_served(classes, outcome);
            }
        }
        if computed {
            self.wall_micros.fetch_add(wall, Ordering::Relaxed);
        }
    }
}

/// Renders one stream frame: the event document plus the originating
/// request's `"request_id"` and the ring-assigned `"seq"` (appended in
/// that order, so the frame prefix clients already parse is unchanged
/// and `"seq"` stays the terminal key). The request id rides on every
/// frame because a resumed follower replays ring bytes verbatim and
/// never saw the original response headers — this is its only way to
/// correlate frames with the submitting request's access-log lines.
fn frame_line(mut doc: Json, seq: u64, request_id: &str) -> String {
    if let Json::Object(pairs) = &mut doc {
        pairs.push(("request_id".to_owned(), Json::from(request_id)));
        pairs.push(("seq".to_owned(), Json::from(seq)));
    }
    let mut line = doc.render();
    line.push('\n');
    line
}

/// `GET /v1/failpoints` lists armed fault-injection sites;
/// `POST /v1/failpoints` re-arms them with the same grammar as the
/// `MARCHGEND_FAILPOINTS` environment variable —
/// `{"config": "cache.disk.write=err(boom);daemon.socket.write=delay(50)"}`
/// merges sites (`site=off` disarms one), `{"clear": true}` disarms
/// everything. In a build without the `failpoints` cargo feature the
/// sites do not exist: GET reports `"enabled": false` and POST
/// answers 501 `failpoints_disabled`.
fn failpoints_endpoint(request: &Request) -> Response {
    if request.method == "GET" {
        return failpoints_table();
    }
    if !marchgen_failpoint::enabled() {
        return Response::error(
            501,
            "failpoints_disabled",
            "this build has no fault-injection sites; rebuild with --features failpoints",
        );
    }
    let doc = match parse_body(&request.body) {
        Ok(doc) => doc,
        Err(response) => return response,
    };
    if let Some(node) = doc.get("config") {
        let Some(config) = node.as_str() else {
            return Response::error(422, "invalid_request", "\"config\" must be a string");
        };
        if let Err(message) = marchgen_failpoint::configure(config) {
            return Response::error(422, "invalid_request", message);
        }
    } else if doc.get("clear").and_then(Json::as_bool) == Some(true) {
        marchgen_failpoint::clear();
    } else {
        return Response::error(
            422,
            "invalid_request",
            "body must be {\"config\": \"site=spec;...\"} or {\"clear\": true}",
        );
    }
    failpoints_table()
}

/// The `/v1/failpoints` response body: whether the build carries
/// injection sites at all, and which are currently armed.
fn failpoints_table() -> Response {
    Response::json(&Json::object([
        ("enabled", Json::Bool(marchgen_failpoint::enabled())),
        (
            "failpoints",
            Json::array(
                marchgen_failpoint::list()
                    .into_iter()
                    .map(|(name, spec)| {
                        Json::object([("name", Json::Str(name)), ("config", Json::Str(spec))])
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
    ]))
}

fn health_endpoint() -> Response {
    Response::json(&Json::object([
        ("status", Json::from("ok")),
        ("service", Json::from("marchgend")),
        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
        // The wire *document* schema (docs/WIRE_FORMAT.md), not the
        // cache KEY_SCHEMA — the two version independently.
        ("schema", Json::Int(1)),
    ]))
}

/// Flattens an error and its sources into one line.
fn error_chain(error: &dyn std::error::Error) -> String {
    let mut text = error.to_string();
    let mut source = error.source();
    while let Some(cause) = source {
        text.push_str(": ");
        text.push_str(&cause.to_string());
        source = cause.source();
    }
    text
}
