//! # marchgen-daemon
//!
//! A dependency-free HTTP/1.1 service front-end for the `marchgen`
//! workspace: `TcpListener` + worker-pool threading (no async runtime —
//! the offline-build constraint rules out tokio/hyper, and the
//! generation core is synchronous by design), a bounded accept queue
//! that owns backpressure, structured JSON errors with proper status
//! codes, live server counters and graceful shutdown.
//!
//! This crate is protocol only; it knows nothing about March tests. The
//! application (routing, the outcome cache, the batch layer) is the
//! `App` of the facade crate's `serve` module, which the `marchgend`
//! binary plugs in through the [`Handler`] trait:
//!
//! ```
//! use marchgen_daemon::{Handler, Request, Response, Server, ServerConfig};
//! use marchgen_json::Json;
//!
//! let handler = |request: &Request| match request.path.as_str() {
//!     "/v1/health" => Response::json(&Json::object([("status", Json::from("ok"))])),
//!     _ => Response::error(404, "not_found", "no such endpoint"),
//! };
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
//! let addr = server.local_addr().unwrap();
//! let stop = server.shutdown_signal();
//! let serving = std::thread::spawn(move || server.run());
//! // ... drive requests against `addr` ...
//! stop.trigger();
//! serving.join().unwrap();
//! ```
//!
//! Handlers answer with a [`Reply`]: either a buffered [`Response`]
//! (serialized with `Content-Length` — the common case) or a
//! [`StreamResponse`] whose body is produced frame-by-frame through a
//! [`ChunkSink`] while the work runs (serialized with
//! `Transfer-Encoding: chunked` — long-running progress streams).
//! Closures returning a plain [`Response`] keep working unchanged.
//!
//! Connection-level abuse is bounded twice: the bounded accept queue
//! (global backpressure) and an optional per-peer token-bucket
//! [`RateLimiter`] ([`ServerConfig::rate_limit`]) that answers
//! over-budget peers `429` + `Retry-After` before they reach a worker.
//!
//! Status codes emitted by the engine itself: `400` (malformed
//! protocol), `411` (chunked upload), `413` (oversized body), `429`
//! (accept queue full, or per-peer rate limit with a `Retry-After`
//! header), `431` (oversized headers), `500` (handler panic), `503`
//! (shutting down). Everything else is the handler's business.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod limit;
pub mod server;
pub mod stats;

pub use http::{reason, ChunkSink, ReadOutcome, Request, Response, StreamResponse};
pub use limit::{RateDecision, RateLimitConfig, RateLimiter};
pub use server::{Handler, Reply, Server, ServerConfig, ShutdownSignal};
pub use stats::{ServerStats, ServerStatsSnapshot};

// The JSON kit is part of this crate's API surface
// ([`Response::json`], error bodies), so re-export it: handlers build
// documents without naming another dependency.
pub use marchgen_json::{FromJson, Json, JsonError, ToJson};

#[cfg(test)]
mod tests {
    use super::*;
    use marchgen_json::Json;
    use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::sync::{Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// Serializes the tests that run a server: several time socket
    /// events in milliseconds, which a neighbour flooding the same CPUs
    /// (the firehose stream, the keep-alive cap's 1,024 exchanges) would
    /// blur.
    fn exclusive() -> MutexGuard<'static, ()> {
        static SERVERS: Mutex<()> = Mutex::new(());
        // A failed test poisons the lock but leaves nothing to repair.
        SERVERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn echo_handler(request: &Request) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/v1/health") => Response::json(&Json::object([("status", Json::from("ok"))])),
            ("POST", "/echo") => {
                Response::json(&Json::object([("len", Json::from(request.body.len()))]))
            }
            ("POST", "/v1/shutdown") => {
                Response::json(&Json::object([("stopping", Json::Bool(true))])).with_shutdown()
            }
            ("GET", "/panic") => panic!("handler exploded"),
            _ => Response::error(404, "not_found", "no such endpoint"),
        }
    }

    fn start() -> (
        std::net::SocketAddr,
        ShutdownSignal,
        std::thread::JoinHandle<()>,
    ) {
        start_with(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
    }

    fn start_with(
        config: ServerConfig,
    ) -> (
        std::net::SocketAddr,
        ShutdownSignal,
        std::thread::JoinHandle<()>,
    ) {
        let server = Server::bind("127.0.0.1:0", config, echo_handler).unwrap();
        let addr = server.local_addr().unwrap();
        let signal = server.shutdown_signal();
        let handle = std::thread::spawn(move || server.run());
        (addr, signal, handle)
    }

    /// Reads one `Content-Length`-framed response; returns its head
    /// (status line and headers) and its body.
    fn read_response(reader: &mut impl BufRead) -> (String, String) {
        let mut head = String::new();
        let mut length = 0;
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "EOF in {head:?}");
            if let Some(value) = line.strip_prefix("content-length: ") {
                length = value.trim().parse().unwrap();
            }
            head.push_str(&line);
            if line == "\r\n" {
                break;
            }
        }
        let mut body = vec![0; length];
        reader.read_exact(&mut body).unwrap();
        (head, String::from_utf8(body).unwrap())
    }

    fn roundtrip(addr: std::net::SocketAddr, wire: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(wire.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn end_to_end_over_real_sockets() {
        let _serial = exclusive();
        let (addr, signal, handle) = start();

        let health = roundtrip(addr, "GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");

        let echo = roundtrip(
            addr,
            "POST /echo HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd",
        );
        assert!(echo.contains("\"len\":4"), "{echo}");

        let missing = roundtrip(addr, "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        let panicked = roundtrip(addr, "GET /panic HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(panicked.starts_with("HTTP/1.1 500"), "{panicked}");

        // Keep-alive: two requests down one connection. Reads loop
        // until the body is complete — a response may arrive in several
        // TCP segments.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for _ in 0..2 {
            stream
                .write_all(b"GET /v1/health HTTP/1.1\r\n\r\n")
                .unwrap();
            let mut text = String::new();
            let mut chunk = [0u8; 512];
            while !text.contains("{\"status\":\"ok\"}") {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "connection closed early: {text:?}");
                text.push_str(&String::from_utf8_lossy(&chunk[..n]));
            }
            assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
            assert!(text.contains("connection: keep-alive"), "{text}");
        }

        signal.trigger();
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_endpoint_stops_the_server_and_rejects_latecomers() {
        let _serial = exclusive();
        let (addr, _signal, handle) = start();
        let reply = roundtrip(
            addr,
            "POST /v1/shutdown HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.contains("\"stopping\":true"), "{reply}");
        // The engine drains and exits on its own.
        handle.join().unwrap();
        // The port no longer accepts (or resets immediately).
        let late = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
        if let Ok(mut stream) = late {
            let _ = stream.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n");
            let mut buf = Vec::new();
            let _ = stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .and_then(|()| stream.read_to_end(&mut buf).map(|_| ()));
            let text = String::from_utf8_lossy(&buf);
            assert!(
                text.is_empty() || text.starts_with("HTTP/1.1 503"),
                "late request should see nothing or a 503, got {text:?}"
            );
        }
    }

    /// A handler mixing buffered and streaming replies: `/stream`
    /// emits three chunked frames, everything else stays buffered.
    fn mixed_handler(request: &Request) -> Reply {
        match request.path.as_str() {
            "/stream" => Reply::Stream(StreamResponse::new(|sink| {
                for i in 0..3u64 {
                    sink.send_json(&Json::object([("frame", Json::from(i))]))?;
                }
                Ok(())
            })),
            "/stream-panic" => Reply::Stream(StreamResponse::new(|sink| {
                sink.send(b"first\n")?;
                panic!("producer exploded mid-stream");
            })),
            _ => Reply::Full(Response::json(&Json::object([("ok", Json::Bool(true))]))),
        }
    }

    #[test]
    fn streaming_replies_are_chunked_and_keep_the_connection() {
        let _serial = exclusive();
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            mixed_handler,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let stats = server.stats();
        let signal = server.shutdown_signal();
        let handle = std::thread::spawn(move || server.run());

        // One keep-alive connection: stream, then a buffered request.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"GET /stream HTTP/1.1\r\n\r\n").unwrap();
        let mut text = String::new();
        let mut chunk = [0u8; 512];
        while !text.contains("0\r\n\r\n") {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed before terminal chunk: {text:?}");
            text.push_str(&String::from_utf8_lossy(&chunk[..n]));
        }
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("transfer-encoding: chunked"), "{text}");
        assert!(text.contains("connection: keep-alive"), "{text}");
        for i in 0..3 {
            assert!(text.contains(&format!("{{\"frame\":{i}}}")), "{text}");
        }

        // The connection survived the stream: a buffered request works.
        stream.write_all(b"GET /after HTTP/1.1\r\n\r\n").unwrap();
        let mut text = String::new();
        while !text.contains("{\"ok\":true}") {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "keep-alive after stream failed: {text:?}");
            text.push_str(&String::from_utf8_lossy(&chunk[..n]));
        }
        drop(stream);

        // A panicking producer tears the connection down without a
        // terminal chunk (the client sees a truncated chunked body).
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /stream-panic HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut wire = String::new();
        stream.read_to_string(&mut wire).unwrap();
        assert!(wire.starts_with("HTTP/1.1 200 OK"), "{wire}");
        assert!(!wire.ends_with("0\r\n\r\n"), "{wire}");

        signal.trigger();
        handle.join().unwrap();
        let snapshot = stats.snapshot();
        assert_eq!(snapshot.streams, 2, "both streams counted");
        assert_eq!(snapshot.streams_active, 0, "no stream left on the wire");
        assert_eq!(snapshot.in_flight, 0, "gauge balanced across streams");
    }

    /// A peer that opens a stream and then stops reading (zero TCP
    /// receive window, socket still open) must not pin its worker
    /// forever: the configured write timeout surfaces the stall as a
    /// send error, the producer stops, and the worker is freed for
    /// other connections.
    #[test]
    fn stalled_stream_reader_frees_its_worker() {
        let _serial = exclusive();
        fn firehose_handler(request: &Request) -> Reply {
            match request.path.as_str() {
                "/firehose" => Reply::Stream(StreamResponse::new(|sink| {
                    // Far more bytes than the loopback send + receive
                    // buffers hold, so an unread stream must block.
                    let frame = vec![b'x'; 64 * 1024];
                    for _ in 0..1024 {
                        sink.send(&frame)?;
                    }
                    Ok(())
                })),
                _ => Reply::Full(Response::json(&Json::object([("ok", Json::Bool(true))]))),
            }
        }
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                write_timeout: Duration::from_millis(200),
                ..ServerConfig::default()
            },
            firehose_handler,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let stats = server.stats();
        let signal = server.shutdown_signal();
        let handle = std::thread::spawn(move || server.run());

        // Open the stream and never read a byte from it.
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled
            .write_all(b"GET /firehose HTTP/1.1\r\n\r\n")
            .unwrap();

        // With a single worker this request can only be answered once
        // the stalled stream has been torn down by the write timeout —
        // a response here *is* the proof that the worker was freed.
        let ok = roundtrip(addr, "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");

        drop(stalled);
        signal.trigger();
        handle.join().unwrap();
        let snapshot = stats.snapshot();
        assert_eq!(snapshot.streams, 1);
        assert_eq!(snapshot.streams_active, 0, "stalled stream released");
        assert_eq!(snapshot.in_flight, 0);
    }

    #[test]
    fn per_peer_rate_limit_rejects_with_retry_after() {
        let _serial = exclusive();
        // Refill is 0.01 tokens/s: the bucket cannot regain a token
        // within any plausible test runtime, so the third connection is
        // deterministically over budget even on a stalled CI machine.
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                rate_limit: Some(crate::limit::RateLimitConfig::new(0.01, 2.0)),
                ..ServerConfig::default()
            },
            mixed_handler,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let stats = server.stats();
        let signal = server.shutdown_signal();
        let handle = std::thread::spawn(move || server.run());

        // The burst budget admits the first two connections.
        for _ in 0..2 {
            let ok = roundtrip(addr, "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
            assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        }
        // The third is over budget: 429 + Retry-After, never dispatched.
        let rejected = roundtrip(addr, "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(
            rejected.starts_with("HTTP/1.1 429 Too Many Requests"),
            "{rejected}"
        );
        assert!(rejected.contains("retry-after: "), "{rejected}");
        assert!(rejected.contains("\"code\":\"rate_limited\""), "{rejected}");

        signal.trigger();
        handle.join().unwrap();
        let snapshot = stats.snapshot();
        assert_eq!(snapshot.rejected_rate_limited, 1);
        assert_eq!(
            snapshot.rate_limit_allowed, 2,
            "both admitted decisions counted"
        );
        assert_eq!(snapshot.requests, 2, "the rejected connection never ran");
    }

    #[test]
    fn stats_count_requests_and_protocol_errors() {
        let _serial = exclusive();
        let (addr, signal, handle) = start();
        let server_stats = {
            // Rebind: grab stats before moving the server — use a fresh
            // server for precise counting instead.
            signal.trigger();
            handle.join().unwrap();
            let server = Server::bind(
                "127.0.0.1:0",
                ServerConfig {
                    workers: 1,
                    ..ServerConfig::default()
                },
                echo_handler,
            )
            .unwrap();
            let addr = server.local_addr().unwrap();
            let stats = server.stats();
            let signal = server.shutdown_signal();
            let handle = std::thread::spawn(move || server.run());
            let _ = roundtrip(addr, "GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n");
            let _ = roundtrip(addr, "BROKEN\r\n\r\n");
            signal.trigger();
            handle.join().unwrap();
            stats.snapshot()
        };
        assert_eq!(server_stats.requests, 1);
        assert_eq!(server_stats.protocol_errors, 1);
        assert_eq!(server_stats.connections, 2);
        assert_eq!(server_stats.in_flight, 0);
        let _ = addr;
    }

    /// The keep-alive cap is announced: the 1,024th response on one
    /// connection says `connection: close`, and then the server closes.
    #[test]
    fn the_last_response_before_the_keepalive_cap_says_close() {
        let _serial = exclusive();
        let (addr, signal, handle) = start();
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(&stream);
        for n in 1..=1024 {
            (&stream)
                .write_all(b"GET /v1/health HTTP/1.1\r\n\r\n")
                .unwrap();
            let (head, body) = read_response(&mut reader);
            assert!(head.starts_with("HTTP/1.1 200 OK"), "response {n}: {head}");
            assert_eq!(body, "{\"status\":\"ok\"}", "response {n}");
            let connection = if n < 1024 { "keep-alive" } else { "close" };
            assert!(
                head.contains(&format!("connection: {connection}\r\n")),
                "response {n}: {head}"
            );
        }
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "{rest:?}");
        signal.trigger();
        handle.join().unwrap();
    }

    /// An idle keep-alive connection is closed `read_timeout` after its
    /// last response, and not before.
    #[test]
    fn an_idle_keepalive_connection_closes_after_read_timeout() {
        let _serial = exclusive();
        let (addr, signal, handle) = start_with(ServerConfig {
            workers: 1,
            read_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(&stream);
        (&stream)
            .write_all(b"GET /v1/health HTTP/1.1\r\n\r\n")
            .unwrap();
        let (head, _) = read_response(&mut reader);
        assert!(head.contains("connection: keep-alive"), "{head}");
        let idle_from = Instant::now();
        assert_eq!(
            reader.read(&mut [0; 64]).unwrap(),
            0,
            "closed, not answered"
        );
        let idle = idle_from.elapsed();
        // The server's idle clock starts before this one, by the time
        // the response takes to arrive.
        assert!(
            (Duration::from_millis(400)..Duration::from_secs(2)).contains(&idle),
            "closed after {idle:?} idle"
        );
        signal.trigger();
        handle.join().unwrap();
    }

    /// `ShutdownSignal::trigger` ends `Server::run` promptly while a
    /// client holds an idle keep-alive connection and no new connection
    /// arrives to wake the accept loop.
    #[test]
    fn shutdown_signal_ends_run_while_a_client_idles() {
        let _serial = exclusive();
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            echo_handler,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let signal = server.shutdown_signal();
        let (done, finished) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            server.run();
            done.send(()).unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(&stream);
        (&stream)
            .write_all(b"GET /v1/health HTTP/1.1\r\n\r\n")
            .unwrap();
        let (head, _) = read_response(&mut reader);
        assert!(head.contains("connection: keep-alive"), "{head}");
        signal.trigger();
        finished
            .recv_timeout(Duration::from_secs(1))
            .expect("Server::run returns within 1 s of the trigger");
        handle.join().unwrap();
    }

    /// A rejected request's unread bytes are drained before the close,
    /// so the error arrives instead of a reset.
    #[test]
    fn rejected_requests_drain_and_deliver_their_response() {
        let _serial = exclusive();
        let (addr, signal, handle) = start_with(ServerConfig {
            workers: 1,
            max_body_bytes: 1024,
            ..ServerConfig::default()
        });
        let junk = "x".repeat(64 * 1024);
        for (wire, status, code) in [
            (
                format!("POST /echo HTTP/1.1\r\nContent-Length: 65536\r\n\r\n{junk}"),
                "413",
                "body_too_large",
            ),
            (format!("BROKEN\r\n{junk}"), "400", "bad_request_line"),
        ] {
            let reply = roundtrip(addr, &wire);
            assert!(reply.starts_with(&format!("HTTP/1.1 {status} ")), "{reply}");
            assert!(reply.contains("connection: close\r\n"), "{reply}");
            assert!(reply.contains(code), "{reply}");
        }
        signal.trigger();
        handle.join().unwrap();
    }

    /// The whole request must arrive within `read_timeout` of its first
    /// byte: a peer that trickles a header byte every 150 ms never lets
    /// a single read time out, and is still dropped at the deadline.
    #[test]
    fn a_trickled_request_is_dropped_at_its_deadline() {
        let _serial = exclusive();
        let (addr, signal, handle) = start_with(ServerConfig {
            workers: 1,
            read_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(150)))
            .unwrap();
        stream
            .write_all(b"GET /v1/health HTTP/1.1\r\nx-trickle: ")
            .unwrap();
        let first_byte = Instant::now();
        let dropped = loop {
            assert!(
                first_byte.elapsed() < Duration::from_secs(4),
                "still served after 4 s of trickling"
            );
            match stream.read(&mut [0; 64]) {
                Ok(0) => break first_byte.elapsed(),
                Ok(_) => panic!("a request past its deadline was answered"),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if stream.write_all(b"a").is_err() {
                        break first_byte.elapsed();
                    }
                }
                Err(_) => break first_byte.elapsed(), // reset
            }
        };
        assert!(
            (Duration::from_millis(450)..=Duration::from_secs(2)).contains(&dropped),
            "dropped after {dropped:?}"
        );
        signal.trigger();
        handle.join().unwrap();
    }

    /// A request that pauses mid-headers for longer than the
    /// connection's receive timeout, but well inside its deadline, is
    /// still served.
    #[test]
    fn a_request_pausing_mid_headers_is_served() {
        let _serial = exclusive();
        let (addr, signal, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"GET /v1/health HTTP/1.1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(250));
        stream.write_all(b"connection: close\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        signal.trigger();
        handle.join().unwrap();
    }

    /// The accept loop takes a connection as soon as it arrives: fresh
    /// connections to an idle server, each after a pause longer than
    /// the accept loop's shutdown poll, are answered without waiting
    /// for that poll.
    #[test]
    fn accept_wakes_on_connect() {
        let _serial = exclusive();
        let (addr, signal, handle) = start();
        let mut slow = Vec::new();
        for _ in 0..21 {
            std::thread::sleep(Duration::from_millis(20));
            let started = Instant::now();
            let reply = roundtrip(addr, "GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n");
            let took = started.elapsed();
            assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
            if took > Duration::from_micros(2500) {
                slow.push(took);
            }
        }
        assert!(slow.len() <= 5, "round trips over 2.5 ms: {slow:?}");
        signal.trigger();
        handle.join().unwrap();
    }
}
