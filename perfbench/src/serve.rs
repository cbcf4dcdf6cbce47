//! `serve_warm`: two HTTP/1.1 keep-alive clients against a freshly
//! spawned `marchgend` whose memory cache holds the whole working set,
//! so the timed phase is cache hits only.

use crate::library;
use crate::pools::{self, Entry};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Args, HostTicks, Report, Tail, Timed, BLOCK_SECONDS};
use marchgen::cache::{canonical_key_text, key_for_text, OutcomeCache};
use marchgen::json::{FromJson, Json, ToJson};
use marchgen::{GenerateOutcome, GenerateRequest};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Concurrent closed-loop clients, each on its own keep-alive connection.
const CONNECTIONS: usize = 2;
/// The daemon's cache size, pinned so the working set always fits.
const CACHE_CAPACITY: usize = 4096;
/// Passes of the in-process probes over the working set.
const PROBE_PASSES: usize = 20;

/// One distinct request of the working set.
struct Item {
    entry: Entry,
    request: GenerateRequest,
    /// The request document, the HTTP body.
    body: String,
    /// The whole HTTP request.
    http: Vec<u8>,
    /// The cache's canonical key text.
    key: String,
}

/// Every entry of the three library pools, request bodies verbatim. The
/// seed orders the clients' shuffles, not the set's content, so every
/// seed measures the same bytes.
fn working_set() -> Result<Vec<Item>, String> {
    let mut keys = BTreeSet::new();
    let mut items = Vec::new();
    for entry in [
        pools::SEARCH_HEAVY,
        pools::VERIFY_WIDE,
        pools::VERIFY_NARROW,
    ]
    .concat()
    {
        let request = library::request(&entry)?;
        let body = request.to_json().render();
        let key = canonical_key_text(&request);
        if !keys.insert(key.clone()) {
            return Err(format!(
                "{:?} @{} repeats a cache key",
                entry.faults, entry.cells
            ));
        }
        items.push(Item {
            http: http_request("POST", "/v1/generate", body.as_bytes(), false),
            entry,
            request,
            body,
            key,
        });
    }
    assert!(
        items.len() <= CACHE_CAPACITY,
        "the working set fits the cache"
    );
    Ok(items)
}

fn http_request(method: &str, path: &str, body: &[u8], close: bool) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: marchgend\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{}\r\n",
        body.len(),
        if close { "connection: close\r\n" } else { "" }
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A `marchgend` child process.
struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
    pid: u32,
}

impl Daemon {
    fn spawn(binary: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--cache-capacity"])
            .arg(CACHE_CAPACITY.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            // The daemon logs one line per request to stderr; a pipe
            // nobody drains fills up and stalls it.
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
        };
        // Ready when it prints where it listens: a sleep wastes set-up
        // time or races the bind, and a connect poll adds its own delay.
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading marchgend stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("marchgend listening on http://")
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("marchgend did not start: {line:?}"))?;
        Ok(daemon)
    }

    /// `POST /v1/shutdown`, then wait for the process to end. Called
    /// after the timed phase's `/proc` samples, which need it alive, and
    /// after the client connections are closed, which frees the workers
    /// holding them.
    fn shut_down(mut self) -> Result<(), String> {
        let mut conn = Conn::open(self.addr)?;
        let response = conn.exchange(&http_request("POST", "/v1/shutdown", b"", true))?;
        let mut child = self.child.take().expect("running");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() && response.status == 200 => return Ok(()),
                Ok(Some(status)) => return Err(format!("marchgend exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("marchgend did not shut down".to_owned());
                }
            }
        }
    }
}

impl Drop for Daemon {
    /// On an early return, never leave a daemon behind.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One answered request with its client-side timestamps.
struct Exchange {
    status: u16,
    body: Vec<u8>,
    sent: Instant,
    first_byte: Instant,
    done: Instant,
    /// When the connection was found closed and reopened for this request.
    reconnected: Option<Instant>,
}

enum Failure {
    /// The server had closed the connection before answering.
    Closed,
    Other(String),
}

/// A keep-alive client connection.
struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let mut conn = Conn { addr, stream: None };
        conn.connect()?;
        Ok(conn)
    }

    fn connect(&mut self) -> Result<(), String> {
        let stream =
            TcpStream::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .map_err(|e| e.to_string())?;
        self.stream = Some(BufReader::with_capacity(1 << 16, stream));
        Ok(())
    }

    /// Sends one request and reads the whole response.
    ///
    /// The server closes each connection after 1024 requests without
    /// announcing it, and the replacement connection waits up to the 5 ms
    /// accept poll (2.97 ms on average on a shared 2-vCPU host). The
    /// reconnect happens inside the request that found the connection
    /// closed, so its latency carries the cost, and is counted.
    fn exchange(&mut self, request: &[u8]) -> Result<Exchange, String> {
        let sent = Instant::now();
        let mut reconnected = None;
        if self.stream.is_none() {
            reconnected = Some(sent);
            self.connect()?;
        }
        match self.attempt(request, sent) {
            Ok(mut exchange) => {
                exchange.reconnected = reconnected;
                Ok(exchange)
            }
            Err(Failure::Closed) if reconnected.is_none() => {
                let at = Instant::now();
                self.connect()?;
                let mut exchange =
                    self.attempt(request, sent)
                        .map_err(|failure| match failure {
                            Failure::Closed => "connection closed twice in a row".to_owned(),
                            Failure::Other(message) => message,
                        })?;
                exchange.reconnected = Some(at);
                Ok(exchange)
            }
            Err(Failure::Closed) => Err("connection closed on a fresh connect".to_owned()),
            Err(Failure::Other(message)) => {
                self.stream = None;
                Err(message)
            }
        }
    }

    fn attempt(&mut self, request: &[u8], sent: Instant) -> Result<Exchange, Failure> {
        let closed = |e: io::Error| match e.kind() {
            io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof => Failure::Closed,
            _ => Failure::Other(e.to_string()),
        };
        let reader = self.stream.as_mut().expect("connected");
        reader.get_mut().write_all(request).map_err(closed)?;
        if reader.fill_buf().map_err(closed)?.is_empty() {
            self.stream = None;
            return Err(Failure::Closed);
        }
        let first_byte = Instant::now();
        let malformed = |what: &str| Failure::Other(format!("malformed response: {what}"));
        let mut line = String::new();
        reader.read_line(&mut line).map_err(closed)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed("status line"))?;
        let mut length = None;
        let mut close = false;
        loop {
            line.clear();
            reader.read_line(&mut line).map_err(closed)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0; length.ok_or_else(|| malformed("no content-length"))?];
        reader.read_exact(&mut body).map_err(closed)?;
        let done = Instant::now();
        if close {
            self.stream = None;
        }
        Ok(Exchange {
            status,
            body,
            sent,
            first_byte,
            done,
            reconnected: None,
        })
    }
}

/// Sends each item once, both connections pulling from one queue, and
/// returns the response bodies in item order.
fn pass(conns: &mut [Conn], items: &[Item], order: &[usize]) -> Result<Vec<Vec<u8>>, String> {
    let next = AtomicUsize::new(0);
    let bodies: Mutex<Vec<Option<Vec<u8>>>> = Mutex::new(vec![None; items.len()]);
    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (next, bodies) = (&next, &bodies);
                scope.spawn(move || -> Result<(), String> {
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let exchange = conn.exchange(&items[i].http)?;
                        if exchange.status != 200 {
                            return Err(format!(
                                "{:?}: HTTP {}",
                                items[i].entry.faults, exchange.status
                            ));
                        }
                        bodies.lock().expect("no client panicked")[i] = Some(exchange.body);
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("client thread panicked"))
    })?;
    Ok(bodies
        .into_inner()
        .expect("no client panicked")
        .into_iter()
        .map(|b| b.expect("every item was sent"))
        .collect())
}

struct Warm {
    daemon: Daemon,
    conns: Vec<Conn>,
    /// The first warm (cache-hit) response body of each item.
    bodies: Vec<Vec<u8>>,
}

/// One set-up: spawn, wait for the listening line, prefill the cache over
/// the two client connections, then one warm pass whose bodies every
/// timed response is compared with.
fn set_up(binary: &Path, items: &[Item], seed: u64) -> Result<Warm, String> {
    let daemon = Daemon::spawn(binary)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let order = Rng::new(seed).shuffle(items.len());
    pass(&mut conns, items, &order)?;
    let bodies = pass(&mut conns, items, &order)?;
    Ok(Warm {
        daemon,
        conns,
        bodies,
    })
}

fn decode_outcome(body: &[u8]) -> Result<GenerateOutcome, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    GenerateOutcome::from_json(&doc).map_err(|e| e.to_string())
}

/// The oracle verdict of each warm body.
fn verdicts(items: &[Item], bodies: &[Vec<u8>]) -> Vec<Result<(), String>> {
    items
        .iter()
        .zip(bodies)
        .map(|(item, body)| {
            let verdict = decode_outcome(body)
                .and_then(|outcome| library::check(&item.entry, &item.request, &outcome));
            if let Err(why) = &verdict {
                eprintln!("check failed: {why}");
            }
            verdict
        })
        .collect()
}

/// What one client measured in the timed phase.
#[derive(Default)]
struct ClientRun {
    /// (completion offset from the phase start in s, latency in ms).
    completions: Vec<(f64, f64)>,
    failed: u64,
    rejected: u64,
    bytes: usize,
    reconnects: u64,
    reconnect_ms: f64,
    ttfb_ms: f64,
    body_ms: f64,
}

/// What a timed phase measured, with the per-layer readings of the
/// daemon taken around it.
struct Phase {
    timed: Timed,
    clients: ClientRun,
    tracer: Option<Tracer>,
    /// Cache hits the daemon counted during the phase.
    hits: u64,
    /// The daemon's threads at the end of the phase.
    threads: u64,
}

/// The timed phase: each client replays whole seeded shuffles of the
/// working set until `seconds` have passed and it has its half of the
/// tail percentile's samples. Every response must be a 200 whose body is
/// byte-identical to the warm one for its key. Meanwhile this thread
/// samples the daemon's CPU at every block boundary.
fn timed(
    warm: &mut Warm,
    items: &[Item],
    verdicts: &[Result<(), String>],
    seconds: f64,
    tail: Tail,
    (seed, origin): (u64, Option<Instant>),
) -> Result<Phase, String> {
    let pid = warm.daemon.pid;
    let cpu_s = || {
        stats::sample(pid)
            .map(|s| s.cpu_s)
            .map_err(|e| e.to_string())
    };
    let hits_before = cache_hits(&mut warm.conns[0])?;
    let bodies = &warm.bodies;
    let per_client = tail.min_requests().div_ceil(CONNECTIONS);
    let finished = AtomicUsize::new(0);
    let started = Instant::now();
    let mut marks = vec![(0.0, cpu_s()?, HostTicks::now()?)];
    let runs: Vec<(ClientRun, Option<Tracer>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = warm
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let finished = &finished;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ (0xC11E_u64 << (16 * c as u64)));
                    let mut tracer = origin.map(Tracer::new);
                    let mut run = ClientRun::default();
                    let mut id = (c as u64) << 48;
                    while started.elapsed().as_secs_f64() < seconds
                        || run.completions.len() < per_client
                    {
                        for i in rng.shuffle(items.len()) {
                            id += 1;
                            let sent = Instant::now();
                            let exchange = match conn.exchange(&items[i].http) {
                                Ok(exchange) => exchange,
                                Err(why) => {
                                    eprintln!("request failed: {why}");
                                    let done = started.elapsed().as_secs_f64();
                                    run.completions
                                        .push((done, sent.elapsed().as_secs_f64() * 1e3));
                                    run.failed += 1;
                                    continue;
                                }
                            };
                            run.completions.push((
                                (exchange.done - started).as_secs_f64(),
                                (exchange.done - exchange.sent).as_secs_f64() * 1e3,
                            ));
                            run.ttfb_ms +=
                                (exchange.first_byte - exchange.sent).as_secs_f64() * 1e3;
                            run.body_ms +=
                                (exchange.done - exchange.first_byte).as_secs_f64() * 1e3;
                            run.bytes += exchange.body.len();
                            if exchange.status != 200 {
                                run.rejected += 1;
                            }
                            if exchange.status != 200
                                || exchange.body != bodies[i]
                                || verdicts[i].is_err()
                            {
                                run.failed += 1;
                            }
                            if let Some(at) = exchange.reconnected {
                                run.reconnects += 1;
                                run.reconnect_ms += (exchange.first_byte - at).as_secs_f64() * 1e3;
                            }
                            if let Some(tracer) = tracer.as_mut() {
                                let root = tracer.record(
                                    "daemon.request",
                                    id,
                                    exchange.sent,
                                    exchange.done,
                                    None,
                                );
                                tracer.record(
                                    "daemon.ttfb",
                                    id,
                                    exchange.sent,
                                    exchange.first_byte,
                                    Some(root),
                                );
                                tracer.record(
                                    "daemon.body",
                                    id,
                                    exchange.first_byte,
                                    exchange.done,
                                    Some(root),
                                );
                                if let Some(at) = exchange.reconnected {
                                    tracer.record(
                                        "daemon.reconnect",
                                        id,
                                        at,
                                        exchange.first_byte,
                                        None,
                                    );
                                }
                            }
                        }
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    (run, tracer)
                })
            })
            .collect();
        while finished.load(Ordering::SeqCst) < CONNECTIONS {
            std::thread::sleep(Duration::from_millis(10));
            let at = started.elapsed().as_secs_f64();
            if at >= marks.len() as f64 * BLOCK_SECONDS {
                marks.push((at, cpu_s()?, HostTicks::now()?));
            }
        }
        Ok::<_, String>(
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect(),
        )
    })?;
    let wall_s = started.elapsed().as_secs_f64();
    let after = stats::sample(pid).map_err(|e| e.to_string())?;
    marks.push((wall_s, after.cpu_s, HostTicks::now()?));
    let hits_after = cache_hits(&mut warm.conns[0])?;

    let mut total = ClientRun::default();
    let mut tracer: Option<Tracer> = None;
    for (run, client_tracer) in runs {
        total.completions.extend(run.completions);
        total.failed += run.failed;
        total.rejected += run.rejected;
        total.bytes += run.bytes;
        total.reconnects += run.reconnects;
        total.reconnect_ms += run.reconnect_ms;
        total.ttfb_ms += run.ttfb_ms;
        total.body_ms += run.body_ms;
        if let Some(client_tracer) = client_tracer {
            match tracer.as_mut() {
                Some(into) => into.absorb(client_tracer),
                None => tracer = Some(client_tracer),
            }
        }
    }
    total.completions.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut blocks = Vec::new();
    let mut first = 0;
    for pair in marks.windows(2) {
        let (start, start_cpu, start_host) = pair[0];
        let (end, end_cpu, end_host) = pair[1];
        let last = first + total.completions[first..].partition_point(|&(done, _)| done < end);
        crate::Block {
            requests: first..last,
            wall_s: end - start,
            cpu_s: end_cpu - start_cpu,
            host: end_host.since(start_host),
        }
        .push(&mut blocks);
        first = last;
    }
    let timed = Timed {
        latencies_ms: total.completions.iter().map(|&(_, ms)| ms).collect(),
        blocks,
        failed: total.failed,
        wall_s,
        hwm_kib: after.hwm_kib,
        bytes: total.bytes,
    };
    Ok(Phase {
        timed,
        clients: total,
        tracer,
        hits: hits_after - hits_before,
        threads: after.threads,
    })
}

/// The daemon's cumulative cache hits, from `/v1/stats`. Asked on a
/// client connection: each of the daemon's workers serves one keep-alive
/// connection at a time, so with both held by the clients a third
/// connection would wait until one of them closes.
fn cache_hits(conn: &mut Conn) -> Result<u64, String> {
    let exchange = conn.exchange(&http_request("GET", "/v1/stats", b"", false))?;
    let text = String::from_utf8(exchange.body).map_err(|e| e.to_string())?;
    Json::parse(&text)
        .ok()
        .and_then(|doc| doc.get("cache")?.get("hits")?.as_int())
        .and_then(|hits| u64::try_from(hits).ok())
        .ok_or_else(|| format!("no cache.hits in /v1/stats: {text}"))
}

/// The untraced run.
pub fn run(args: &Args, tail: Tail) -> Result<Report, String> {
    let items = working_set()?;
    // Each set-up replaces the previous daemon; shutting one down is not
    // part of the next set-up's time.
    let mut current: Option<Warm> = None;
    let (setup_s, ()) = crate::repeat_set_up(|| {
        if let Some(Warm { daemon, conns, .. }) = current.take() {
            drop(conns);
            daemon.shut_down()?;
        }
        let started = Instant::now();
        current = Some(set_up(&args.marchgend, &items, args.seed)?);
        Ok((started.elapsed(), ()))
    })?;
    let mut warm = current.expect("set up at least once");
    let verdicts = verdicts(&items, &warm.bodies);
    let phase = timed(
        &mut warm,
        &items,
        &verdicts,
        args.seconds,
        tail,
        (args.seed, None),
    )?;
    let Warm { daemon, conns, .. } = warm;
    drop(conns);
    daemon.shut_down()?;
    let mut report = phase.timed.report(&setup_s, tail, items.len());
    report.record.push(("connections", Json::from(CONNECTIONS)));
    Ok(report)
}

/// The traced run: an untraced timed phase of half the run for the
/// overhead baseline, a traced one of the other half with client spans,
/// then in-process probes of decode, key,
/// lookup and encode on the same bytes against an `OutcomeCache` holding
/// the same outcomes.
pub fn run_traced(args: &Args, tail: Tail) -> Result<Report, String> {
    let items = working_set()?;
    let mut warm = set_up(&args.marchgend, &items, args.seed)?;
    let verdicts = verdicts(&items, &warm.bodies);
    let half = args.seconds / 2.0;
    let baseline = timed(&mut warm, &items, &verdicts, half, tail, (args.seed, None))?.timed;
    let Phase {
        timed: traced,
        clients,
        tracer,
        hits,
        threads,
    } = timed(
        &mut warm,
        &items,
        &verdicts,
        half,
        tail,
        (args.seed, Some(Instant::now())),
    )?;
    let Warm {
        daemon,
        conns,
        bodies,
    } = warm;
    drop(conns);
    daemon.shut_down()?;
    let mut tracer = tracer.expect("traced clients");

    let cache = OutcomeCache::new(CACHE_CAPACITY);
    let mut diagnostics_bytes = 0.0;
    for (item, body) in items.iter().zip(&bodies) {
        let outcome = decode_outcome(body)?;
        diagnostics_bytes += outcome.diagnostics.to_json().render().len() as f64;
        cache.insert(key_for_text(&item.key), &item.key, &outcome);
    }
    let mut probes = 0u64;
    let mut reencoded_differently = 0u64;
    for _ in 0..PROBE_PASSES {
        for (item, body) in items.iter().zip(&bodies) {
            probes += 1;
            let id = probes;
            let request = tracer.time("generator.decode", id, || {
                Json::parse(&item.body).and_then(|doc| GenerateRequest::from_json(&doc))
            });
            let request = request.map_err(|e| e.to_string())?;
            let (text, key) = tracer.time("cache.key", id, || {
                let text = canonical_key_text(&request);
                let key = key_for_text(&text);
                (text, key)
            });
            let outcome = tracer
                .time("cache.lookup", id, || cache.lookup(key, &text))
                .ok_or("probe cache miss")?;
            let encoded = tracer.time("generator.encode", id, || outcome.to_json().render());
            if encoded.as_bytes() != body.as_slice() {
                reencoded_differently += 1;
            }
        }
    }
    let path = args.spans_path();
    tracer
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let n = traced.latencies_ms.len() as f64;
    let own = tracer.self_ms();
    let probe_ms = |span: &str| own.get(span).copied().unwrap_or(0.0) / probes as f64;
    let ttfb_ms = clients.ttfb_ms / n;
    let in_process: f64 = [
        "generator.decode",
        "cache.key",
        "cache.lookup",
        "generator.encode",
    ]
    .iter()
    .map(|span| probe_ms(span))
    .sum();
    let metrics = BTreeMap::from([
        ("generator.decode_ms", probe_ms("generator.decode")),
        ("cache.key_ms", probe_ms("cache.key")),
        ("cache.lookup_ms", probe_ms("cache.lookup")),
        ("generator.encode_ms", probe_ms("generator.encode")),
        ("generator.outcome_bytes", traced.bytes as f64 / n),
        (
            "generator.diagnostics_bytes",
            diagnostics_bytes / items.len() as f64,
        ),
        ("daemon.ttfb_ms", ttfb_ms),
        ("daemon.body_ms", clients.body_ms / n),
        ("daemon.unattributed_ms", ttfb_ms - in_process),
        (
            "daemon.reconnects_per_1k",
            clients.reconnects as f64 * 1e3 / n,
        ),
        (
            "daemon.reconnect_ms",
            if clients.reconnects == 0 {
                0.0
            } else {
                clients.reconnect_ms / clients.reconnects as f64
            },
        ),
        ("daemon.threads", threads as f64),
        ("cache.hit_ratio", hits as f64 / n),
        ("daemon.rejected", clients.rejected as f64),
    ]);
    let untraced_ops = baseline.latencies_ms.len() as f64 / baseline.wall_s;
    let traced_ops = n / traced.wall_s;
    let mut record = crate::trace_record(untraced_ops, traced_ops, n as u64, items.len(), 0, &path);
    record.push(("probes", Json::from(probes)));
    record.push((
        "probe_reencoded_differently",
        Json::from(reencoded_differently),
    ));
    Ok(Report {
        correct: baseline.failed == 0 && traced.failed == 0,
        attempted: (baseline.latencies_ms.len() + traced.latencies_ms.len()) as u64,
        failed: baseline.failed + traced.failed,
        metrics,
        record,
    })
}
