//! The connection engine: accept loop, bounded queue, worker pool.
//!
//! Threading model (std-only, no async runtime — the generation core is
//! synchronous by design, so the daemon owns concurrency with plain
//! threads):
//!
//! * one accept loop blocks in `accept` and pushes connections into a
//!   **bounded** queue — when the queue is full the connection is
//!   answered `429`, which is the backpressure surface (the answer is
//!   written by a dedicated reject-drainer thread, so a misbehaving
//!   peer can never stall the accept loop itself);
//! * `workers` threads pop connections and serve them keep-alive,
//!   dispatching each parsed request to the application [`Handler`];
//! * graceful shutdown (a handler response flagged
//!   [`Response::with_shutdown`], or [`ShutdownSignal::trigger`]) stops
//!   the accept loop, drains queued connections with `503`, lets
//!   in-flight requests finish, and joins every thread before
//!   [`Server::run`] returns.

use crate::http::{next_request_id, read_request, ReadOutcome, Request, Response, StreamResponse};
use crate::limit::{RateDecision, RateLimiter};
use crate::stats::ServerStats;
use marchgen_failpoint::fail_point;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Most requests served on one keep-alive connection before it is
/// recycled; the last one's response says `connection: close`.
const MAX_KEEPALIVE_REQUESTS: usize = 1024;
/// How often the accept loop, blocked in `accept` until a connection
/// arrives, wakes to check for shutdown; also its back-off after an
/// accept error. It delays no connection: `accept` returns as soon as
/// one arrives.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Receive timeout of a served connection, set once when it is taken:
/// how often a worker parked at a request boundary checks the idle
/// limit and the shutdown flag. Inside a request a timed-out read is
/// retried until the request's deadline (see [`ConnReader`]).
const BOUNDARY_POLL: Duration = Duration::from_millis(100);
/// Most rejected connections queued for the reject drainer; beyond it
/// the socket is dropped unanswered (the peer sees a reset instead of
/// a structured `429` — better than backlogging the drainer behind a
/// flood).
const REJECT_QUEUE_CAPACITY: usize = 128;

/// What a [`Handler`] answers a request with: either a fully buffered
/// [`Response`] (the common case — small JSON documents) or a
/// [`StreamResponse`] whose body is produced incrementally while the
/// work runs (the `/v1/stream` case — chunked progress frames).
#[derive(Debug)]
pub enum Reply {
    /// A buffered response, serialized with `Content-Length`.
    Full(Response),
    /// An incremental response, serialized with
    /// `Transfer-Encoding: chunked` (raw + close for HTTP/1.0 peers).
    Stream(StreamResponse),
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply::Full(response)
    }
}

impl From<StreamResponse> for Reply {
    fn from(response: StreamResponse) -> Reply {
        Reply::Stream(response)
    }
}

/// The application half of the daemon: maps one parsed request to one
/// reply. Implementations must be thread-safe — workers call
/// concurrently. Plain functions and closures returning [`Response`]
/// (or anything `Into<Reply>`) implement it automatically.
pub trait Handler: Send + Sync {
    /// Produces the reply for `request`.
    fn handle(&self, request: &Request) -> Reply;
}

impl<F, R> Handler for F
where
    F: Fn(&Request) -> R + Send + Sync,
    R: Into<Reply>,
{
    fn handle(&self, request: &Request) -> Reply {
        self(request).into()
    }
}

/// Tunables of the connection engine.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections (`0` = one per available
    /// CPU).
    pub workers: usize,
    /// Bound of the accept queue; connections beyond it get `429`.
    pub queue_capacity: usize,
    /// Largest accepted request body, bytes; beyond it `413`.
    pub max_body_bytes: usize,
    /// Read deadline of one request: the whole request, body included,
    /// must arrive within this long of its first byte, however steadily
    /// the peer trickles bytes; a request that misses it is not served,
    /// and the connection closes. An idle keep-alive connection is also
    /// closed after this long without a request.
    pub read_timeout: Duration,
    /// Per-write socket timeout. A peer that stays connected but stops
    /// reading (zero TCP receive window) never produces a write error
    /// on its own, so without this bound a blocked response write — in
    /// particular a chunked `/v1/stream` body, whose producer holds the
    /// sink while the batch runs — would pin its worker forever. The
    /// timeout turns the stall into an error, which tears the
    /// connection down and frees the worker.
    pub write_timeout: Duration,
    /// Per-peer connection rate limit (token bucket keyed by peer IP);
    /// `None` disables limiting. Enforced in the accept loop, before
    /// the queue: an over-budget peer is answered `429` +
    /// `Retry-After` and never occupies a worker.
    pub rate_limit: Option<crate::limit::RateLimitConfig>,
    /// Threshold in milliseconds past which a served request earns a
    /// `slow request` warning line on stderr, measured from dispatch
    /// to the end of the response write (so a slow stream consumer
    /// counts too). `0` disables the warning.
    pub slow_request_millis: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            queue_capacity: 256,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            rate_limit: None,
            slow_request_millis: 1000,
        }
    }
}

/// A cloneable handle that triggers graceful shutdown from outside the
/// request path (signal handlers, tests).
#[derive(Debug, Clone)]
pub struct ShutdownSignal(Arc<AtomicBool>);

impl ShutdownSignal {
    /// Begins graceful shutdown; idempotent.
    pub fn trigger(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// `true` once shutdown has been requested.
    #[must_use]
    pub fn is_triggered(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A bound-and-listening service daemon; [`Server::run`] serves until
/// shutdown.
pub struct Server<H> {
    listener: TcpListener,
    config: ServerConfig,
    handler: H,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
}

impl<H: Handler> Server<H> {
    /// Binds `addr` (e.g. `"127.0.0.1:8378"`; port `0` picks a free
    /// one) and prepares the engine. Nothing is served until
    /// [`Server::run`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        handler: H,
    ) -> std::io::Result<Server<H>> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            config,
            handler,
            stats: Arc::new(ServerStats::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port `0`).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The live server counters (share with the handler so `/v1/stats`
    /// can report them).
    #[must_use]
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// A handle that triggers graceful shutdown from another thread.
    #[must_use]
    pub fn shutdown_signal(&self) -> ShutdownSignal {
        ShutdownSignal(Arc::clone(&self.shutdown))
    }

    /// Serves until shutdown is triggered, then drains and joins every
    /// worker. Accept errors are not fatal: the loop keeps serving.
    pub fn run(self) {
        let Server {
            listener,
            config,
            handler,
            stats,
            shutdown,
        } = self;
        let polling = !arm_accept_timeout(&listener);
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let queue: Mutex<VecDeque<TcpStream>> = Mutex::new(VecDeque::new());
        let available = Condvar::new();
        // Connections turned away at accept time (rate limit, queue
        // full) are answered off the accept thread: the write + drain
        // in `reject_connection` can stall on a misbehaving peer, and
        // the accept loop's stall radius is every future connection.
        let rejects: Mutex<VecDeque<(TcpStream, Response)>> = Mutex::new(VecDeque::new());
        let reject_available = Condvar::new();

        std::thread::scope(|scope| {
            // ---- reject drainer -----------------------------------------
            scope.spawn(|| loop {
                let next = {
                    let mut q = rejects.lock().expect("reject queue lock");
                    loop {
                        if let Some(next) = q.pop_front() {
                            break Some(next);
                        }
                        if shutdown.load(Ordering::SeqCst) {
                            break None;
                        }
                        q = reject_available
                            .wait_timeout(q, ACCEPT_POLL * 20)
                            .expect("reject queue lock")
                            .0;
                    }
                };
                let Some((stream, response)) = next else {
                    break;
                };
                if shutdown.load(Ordering::SeqCst) {
                    // Draining: each stalled peer in the backlog could
                    // cost up to the write timeout plus the drain
                    // deadline, serializing shutdown behind a reject
                    // flood. Drop the socket instead (the peer sees a
                    // reset — the same forfeit as queue overflow);
                    // shutdown then waits on at most the one reject
                    // already in flight.
                    continue;
                }
                reject_connection(stream, &response);
            });

            for _ in 0..workers {
                scope.spawn(|| loop {
                    let conn = {
                        let mut q = queue.lock().expect("accept queue lock");
                        loop {
                            if let Some(conn) = q.pop_front() {
                                break Some(conn);
                            }
                            if shutdown.load(Ordering::SeqCst) {
                                break None;
                            }
                            q = available
                                .wait_timeout(q, ACCEPT_POLL * 20)
                                .expect("accept queue lock")
                                .0;
                        }
                    };
                    let Some(stream) = conn else { break };
                    if shutdown.load(Ordering::SeqCst) {
                        // Drain: the connection was queued before the
                        // shutdown request — turn it away cleanly.
                        stats.shutdown_reject();
                        reject_connection(
                            stream,
                            &Response::error(503, "shutting_down", "server is shutting down")
                                .with_close(),
                        );
                        continue;
                    }
                    serve_connection(stream, &config, &handler, &stats, &shutdown);
                });
            }

            // ---- accept loop (this thread) ------------------------------
            let limiter = config.rate_limit.map(RateLimiter::new);
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        if polling {
                            // BSD-derived platforms hand out accepted
                            // sockets with the listener's O_NONBLOCK; the
                            // engine reads and writes blocking, with
                            // timeouts.
                            let _ = stream.set_nonblocking(false);
                        }
                        stats.connection();
                        if let Some(limiter) = &limiter {
                            if let RateDecision::Reject { retry_after } = limiter.check(peer.ip()) {
                                stats.rate_limited();
                                enqueue_reject(
                                    &rejects,
                                    &reject_available,
                                    stream,
                                    Response::error(
                                        429,
                                        "rate_limited",
                                        format!(
                                            "per-peer connection budget exhausted; retry in {retry_after}s"
                                        ),
                                    )
                                    .with_retry_after(retry_after)
                                    .with_close(),
                                );
                                continue;
                            }
                            stats.rate_allowed();
                        }
                        let mut q = queue.lock().expect("accept queue lock");
                        if q.len() >= config.queue_capacity {
                            drop(q);
                            stats.queue_full();
                            enqueue_reject(
                                &rejects,
                                &reject_available,
                                stream,
                                Response::error(
                                    429,
                                    "queue_full",
                                    "accept queue is full; retry with backoff",
                                )
                                .with_close(),
                            );
                        } else {
                            q.push_back(stream);
                            drop(q);
                            available.notify_one();
                        }
                    }
                    // No connection within ACCEPT_POLL: check shutdown.
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if polling {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
            available.notify_all();
            reject_available.notify_all();
        });
    }
}

/// Gives `accept` on `listener` a timeout of [`ACCEPT_POLL`], so the
/// accept loop blocks until a connection arrives yet sees a shutdown
/// request within `ACCEPT_POLL`. Linux applies a socket's receive
/// timeout (`SO_RCVTIMEO`) to `accept(2)` (socket(7)). std sets that
/// option only through a `TcpStream`, so it is set on a duplicate of
/// the listening descriptor, which shares the socket; accepted sockets
/// inherit it, so whoever reads one sets its own first.
///
/// Returns `false` where that does not hold: the listener is then
/// nonblocking, and the accept loop sleeps `ACCEPT_POLL` whenever no
/// connection is pending.
fn arm_accept_timeout(listener: &TcpListener) -> bool {
    #[cfg(target_os = "linux")]
    {
        let armed = listener.try_clone().and_then(|dup| {
            TcpStream::from(std::os::fd::OwnedFd::from(dup)).set_read_timeout(Some(ACCEPT_POLL))
        });
        if armed.is_ok() {
            return true;
        }
    }
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking mode");
    false
}

/// Hands a turned-away connection to the reject drainer. When the
/// drainer is itself backlogged (a reject flood) the socket is dropped
/// unanswered — the peer sees a reset instead of a structured `429`,
/// which beats serializing the flood through the accept loop.
fn enqueue_reject(
    queue: &Mutex<VecDeque<(TcpStream, Response)>>,
    available: &Condvar,
    stream: TcpStream,
    response: Response,
) {
    let mut q = queue.lock().expect("reject queue lock");
    if q.len() < REJECT_QUEUE_CAPACITY {
        q.push_back((stream, response));
        drop(q);
        available.notify_one();
    }
}

/// Answers a connection that is being turned away before dispatch
/// (queue full, rate limited, draining) and closes it cleanly. The
/// write-then-drain order matters: the peer has usually already sent
/// its request bytes, and dropping the socket with them unread would
/// RST and destroy the queued response before the client reads it.
///
/// Runs on the reject drainer (accept-time rejects) or a worker
/// (shutdown drain) — never on the accept thread — and is still
/// bounded tightly: an honest client reads the error and closes within
/// a round trip; a peer stalled or trickling at a deadline forfeits
/// clean delivery.
fn reject_connection(stream: TcpStream, response: &Response) {
    fail_point!("daemon.reject.drain");
    // The response is a small JSON document that fits the socket
    // buffer, so the write normally completes instantly; the timeout
    // only fires against a peer whose receive window is already full.
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = response.write_to(&mut &stream);
    // The drain's own receive timeout, in place of the listener's.
    let _ = stream.set_read_timeout(Some(BOUNDARY_POLL));
    drain_before_close(&mut ConnReader::new(&stream), Duration::from_millis(250));
}

/// Discards unread request bytes before a connection is dropped with
/// data still queued by the peer: without this, `close()` sends RST and
/// the kernel throws away the un-acknowledged response bytes. Bounded
/// in volume *and wall time* — the byte budget alone would let a peer
/// trickling one byte per receive timeout pin the calling thread for
/// hours, so `within` is the authoritative bound, kept by the reader's
/// deadline; a peer that is still sending when it expires simply loses
/// the clean close.
fn drain_before_close(reader: &mut ConnReader<'_>, within: Duration) {
    let _ = reader.stream.shutdown(std::net::Shutdown::Write);
    reader.deadline = Some(Instant::now() + within);
    let mut scratch = [0u8; 8192];
    let mut budget: usize = 4 << 20;
    while budget > 0 {
        match reader.read(&mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// `true` for the error a read returns when the socket's receive
/// timeout expires (`WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(error: &std::io::Error) -> bool {
    matches!(
        error.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads a connection whose socket carries the short [`BOUNDARY_POLL`]
/// receive timeout, so the timeout is set once per connection rather
/// than around every request. Without a deadline a timed-out read
/// returns its error: that is the request boundary, where the caller
/// checks the idle limit and the shutdown flag. With one, a timed-out
/// read is retried, and once the deadline has passed every read fails
/// with `TimedOut`, so a peer cannot stretch a request (or a drain)
/// past it by trickling bytes.
struct ConnReader<'a> {
    stream: &'a TcpStream,
    deadline: Option<Instant>,
}

impl<'a> ConnReader<'a> {
    fn new(stream: &'a TcpStream) -> ConnReader<'a> {
        ConnReader {
            stream,
            deadline: None,
        }
    }
}

impl Read for ConnReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
            {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            match self.stream.read(buf) {
                Err(e) if self.deadline.is_some() && is_timeout(&e) => {}
                result => return result,
            }
        }
    }
}

/// Balances [`ServerStats::dispatch_begin`] when dropped, so the
/// in-flight gauge falls on every exit path — including early returns
/// and panics while the response (or stream body) is being written.
struct InFlightGuard<'a>(&'a ServerStats);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.dispatch_end();
    }
}

/// Balances the active-streams gauge of [`ServerStats::stream_begin`]
/// once the stream body is off the wire (cleanly or not).
struct StreamGuard<'a>(&'a ServerStats);

impl Drop for StreamGuard<'_> {
    fn drop(&mut self) {
        self.0.stream_end();
    }
}

/// Writes one served request's stderr access line: peer, request
/// line, status and the correlation id echoed as `X-Request-Id`. The
/// line is formatted whole, newline included, and printed with one
/// `eprint!`, which is one `write(2)`: stderr is unbuffered, so
/// `eprintln!` with the parts as arguments writes each part on its own.
fn log_request(peer: &str, method: &str, path: &str, status: u16, id: &str) {
    let line = format!("marchgen-daemon: {peer} \"{method} {path}\" {status} id={id}\n");
    eprint!("{line}");
}

/// Stderr warning for a request that took longer than
/// [`ServerConfig::slow_request_millis`] from dispatch to the end of
/// the response write; `0` disables. Printed in one write, like
/// [`log_request`]'s line.
fn warn_slow_request(
    config: &ServerConfig,
    peer: &str,
    method: &str,
    path: &str,
    status: u16,
    id: &str,
    elapsed: Duration,
) {
    let threshold = config.slow_request_millis;
    if threshold == 0 {
        return;
    }
    let millis = elapsed.as_millis();
    if millis >= u128::from(threshold) {
        let line = format!(
            "marchgen-daemon: slow request: {peer} \"{method} {path}\" {status} id={id} \
             took {millis}ms (threshold {threshold}ms)\n"
        );
        eprint!("{line}");
    }
}

/// Serves one connection keep-alive until close, error, idle timeout or
/// the keep-alive cap, whose last response says `connection: close`.
///
/// The socket's receive timeout is set once, to [`BOUNDARY_POLL`]
/// (replacing the one it inherited from the listener), and reads go
/// through a [`ConnReader`]. Between requests a timed-out read returns,
/// so the worker notices a graceful shutdown within `BOUNDARY_POLL` even
/// while parked on an idle keep-alive connection, and closes one idle
/// for `read_timeout`. From a request's first byte the reader carries
/// that request's deadline, `read_timeout` later, and retries timed-out
/// reads until it passes.
fn serve_connection(
    stream: TcpStream,
    config: &ServerConfig,
    handler: &impl Handler,
    stats: &ServerStats,
    shutdown: &AtomicBool,
) {
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "-".to_owned(), |addr| addr.to_string());
    let _ = stream.set_nodelay(true);
    // A peer that stops reading but keeps the socket open never
    // produces a write error on its own; the write timeout turns the
    // stall into one. For a stream this unblocks the producer inside
    // `ChunkSink::send`, which marks the sink dead and lets the batch
    // finish — instead of the blocked send pinning this worker (and,
    // through the sink mutex, every batch worker) forever.
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_read_timeout(Some(BOUNDARY_POLL));
    let mut reader = BufReader::new(ConnReader::new(&stream));
    let mut writer = &stream;
    for nth in 1..=MAX_KEEPALIVE_REQUESTS {
        // ---- idle wait at the request boundary ---------------------
        let mut idle = Duration::ZERO;
        loop {
            match reader.fill_buf() {
                Ok([]) => return, // clean EOF between requests
                Ok(_) => break,   // bytes waiting — parse a request
                Err(e) if is_timeout(&e) => {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    idle += BOUNDARY_POLL;
                    if idle >= config.read_timeout {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
        reader.get_mut().deadline = Some(Instant::now() + config.read_timeout);
        let outcome = read_request(&mut reader, config.max_body_bytes);
        reader.get_mut().deadline = None;
        let request = match outcome {
            // I/O failures (including a missed deadline) end the connection.
            Err(_) | Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Reject(mut response)) => {
                stats.protocol_error();
                // The request never parsed far enough to carry an id;
                // generate one so even protocol rejects correlate with
                // the log line.
                let request_id = next_request_id();
                response.request_id = Some(request_id.clone());
                log_request(&peer, "-", "-", response.status, &request_id);
                let _ = response.write_to(&mut writer);
                // The reject may leave unread request bytes (e.g. a 413
                // body that was never read); closing now would RST and
                // destroy the queued response before the client reads
                // it. Signal FIN, then drain a bounded amount so the
                // error actually arrives. The deadline is looser than
                // the accept-loop's: stalling here pins one worker,
                // not the listener.
                drain_before_close(reader.get_mut(), Duration::from_secs(2));
                return;
            }
            Ok(ReadOutcome::Complete(request)) => request,
        };
        // Announce the keep-alive cap on the response it applies to, so
        // a client reconnects instead of sending into a closed socket.
        let close = request.wants_close() || nth == MAX_KEEPALIVE_REQUESTS;
        // Slow-request timing covers the handler *and* the response
        // write: a stream whose consumer reads slowly is slow from the
        // operator's point of view even when the handler returned fast.
        let dispatched = Instant::now();
        let (reply, _in_flight) = if shutdown.load(Ordering::SeqCst) {
            stats.shutdown_reject();
            let reply = Reply::Full(
                Response::error(503, "shutting_down", "server is shutting down").with_close(),
            );
            (reply, None)
        } else {
            stats.dispatch_begin();
            // The in-flight gauge covers the response write too — a
            // streaming reply occupies this worker long after the
            // handler returns, and `/v1/stats` must report that load.
            // The guard balances `dispatch_begin` on every exit path.
            let in_flight = InFlightGuard(stats);
            let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Chaos site: a panic injected here exercises the same
                // recovery path as a handler bug — the worker answers a
                // structured 500 and lives on.
                fail_point!("daemon.worker.dispatch");
                handler.handle(&request)
            }))
            .unwrap_or_else(|_| {
                Reply::Full(
                    Response::error(500, "handler_panic", "internal handler failure").with_close(),
                )
            });
            (reply, Some(in_flight))
        };
        match reply {
            Reply::Full(mut response) => {
                // Honor the client's `Connection: close` (and the cap)
                // in the advertised header, not just in behaviour.
                response.close = response.close || close;
                if response.request_id.is_none() {
                    response.request_id = Some(request.request_id.clone());
                }
                if response.shutdown {
                    shutdown.store(true, Ordering::SeqCst);
                }
                log_request(
                    &peer,
                    &request.method,
                    &request.path,
                    response.status,
                    &request.request_id,
                );
                let write_failed = response.write_to(&mut writer).is_err();
                warn_slow_request(
                    config,
                    &peer,
                    &request.method,
                    &request.path,
                    response.status,
                    &request.request_id,
                    dispatched.elapsed(),
                );
                if write_failed || response.close {
                    return;
                }
            }
            Reply::Stream(mut stream_response) => {
                stats.stream_begin();
                let _active = StreamGuard(stats);
                stream_response.close = stream_response.close || close;
                if stream_response.request_id.is_none() {
                    stream_response.request_id = Some(request.request_id.clone());
                }
                log_request(
                    &peer,
                    &request.method,
                    &request.path,
                    stream_response.status,
                    &request.request_id,
                );
                // The producer is application code running after the
                // response head is on the wire: a panic cannot be
                // turned into a 500 anymore, so it tears the
                // connection down instead — the truncated chunked body
                // (no terminal zero chunk) tells the client the stream
                // died.
                let status = stream_response.status;
                let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    stream_response.write_to(&mut writer, request.http10)
                }));
                warn_slow_request(
                    config,
                    &peer,
                    &request.method,
                    &request.path,
                    status,
                    &request.request_id,
                    dispatched.elapsed(),
                );
                match served {
                    Ok(Ok(true)) => {} // clean stream; keep the connection
                    _ => return,
                }
            }
        }
    }
}
