//! Shared harnesses for the daemon suites.
//!
//! - [`Daemon`]: the real `marchgend` binary on a loopback port, driven
//!   over TCP — for what needs a socket or a process (framing, the
//!   engine's limits, shutdown, the disk cache across restarts, chaos
//!   drills).
//! - [`app`], [`call`] / [`serve`]: one request through
//!   [`App::handle`](marchgen::serve::App::handle) in-process — for what
//!   only checks response bodies, `/v1/stats` and `/metrics`.

use marchgen::cache::OutcomeCache;
use marchgen::daemon::{Reply, Request};
use marchgen::serve::App;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A spawned `marchgend`, killed on drop so a panicking test never
/// leaks one (an orphan keeps the harness's inherited stderr pipe open
/// and wedges piped test runs).
pub struct Daemon {
    pub child: Child,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon on `127.0.0.1:0` with extra flags, extra
    /// environment and the given stderr disposition, and scrapes the
    /// bound address from the stdout banner.
    pub fn spawn(args: &[&str], env: &[(&str, &str)], stderr: Stdio) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_marchgend"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .envs(env.iter().copied())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn marchgend");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .trim()
            .strip_prefix("marchgend listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_owned();
        Daemon { child, addr }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        stream
    }

    /// Sends `wire_request` verbatim on a fresh connection and returns
    /// the whole response, head included — for protocol shapes
    /// [`Daemon::request`] cannot produce and for reading headers.
    pub fn raw(&self, wire_request: &str) -> String {
        let mut stream = self.connect();
        stream
            .write_all(wire_request.as_bytes())
            .expect("send request");
        let mut wire = String::new();
        stream.read_to_string(&mut wire).expect("read response");
        wire
    }

    /// One HTTP exchange on a fresh connection: `(status, body)`.
    pub fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        let wire = self.raw(&format!(
            "{method} {path} HTTP/1.1\r\nhost: marchgend\r\nconnection: close\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        ));
        let body = wire
            .split_once("\r\n\r\n")
            .map(|(_, body)| body.to_owned())
            .unwrap_or_default();
        (status_of(&wire), body)
    }

    /// Opens one keep-alive connection for several exchanges. Latency
    /// comparisons ride this: a fresh connection also pays the
    /// handshake, the accept and the hand-off to a worker — comparable
    /// to the whole handling time of a cache hit in release builds —
    /// while on an established connection the serving worker is
    /// already parked on the socket and wakes on arrival.
    pub fn keepalive(&self) -> KeepAlive {
        let stream = self.connect();
        stream.set_nodelay(true).unwrap();
        KeepAlive {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            stream,
        }
    }

    /// `POST /v1/shutdown` (retried while a rate limit answers 429),
    /// then waits for the process to exit successfully.
    pub fn shutdown(mut self) {
        let mut attempt = 0;
        loop {
            match self.request("POST", "/v1/shutdown", "") {
                (200, body) => {
                    assert!(body.contains("\"stopping\":true"), "{body}");
                    break;
                }
                (429, _) if attempt < 60 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(600));
                }
                (status, body) => panic!("shutdown answered {status}: {body}"),
            }
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("poll daemon") {
                Some(status) => {
                    assert!(status.success(), "daemon exited with {status}");
                    return;
                }
                None if Instant::now() > deadline => {
                    panic!("daemon did not exit within the deadline after shutdown")
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Killing an already-exited child is a no-op.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The status code of a raw HTTP response.
pub fn status_of(wire: &str) -> u16 {
    wire.strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response {wire:?}"))
}

/// One persistent daemon connection (see [`Daemon::keepalive`]).
pub struct KeepAlive {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl KeepAlive {
    /// One HTTP exchange on the persistent connection; returns
    /// `(status, body)`. Responses are framed by `Content-Length`, so
    /// the connection stays usable for the next exchange.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        write!(
            self.stream,
            "{method} {path} HTTP/1.1\r\nhost: marchgend\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).expect("status");
        let status = status_of(&status_line);
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).expect("header");
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some(value) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = value.trim().parse().expect("content-length value");
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8(body).expect("utf-8 body"))
    }
}

/// A fresh App over a memory-only outcome cache.
pub fn app() -> Arc<App> {
    Arc::new(App::new(OutcomeCache::new(64)))
}

/// A request as the connection engine hands it to the App.
pub fn request(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
        http10: false,
        request_id: "req-test".to_owned(),
    }
}

/// Serves `request` through [`App::handle`] in-process: `(status,
/// body)`, with a streamed reply run to completion and its frames
/// returned as the body.
pub fn serve(app: &Arc<App>, request: &Request) -> (u16, String) {
    match app.handle(request) {
        Reply::Full(response) => (response.status, response.body),
        Reply::Stream(stream) => {
            let status = stream.status;
            let mut wire = Vec::new();
            // HTTP/1.0 framing: the frames follow the head unchunked.
            stream.write_to(&mut wire, true).expect("stream body");
            let wire = String::from_utf8(wire).expect("utf-8 stream");
            let (_, frames) = wire.split_once("\r\n\r\n").expect("stream head");
            (status, frames.to_owned())
        }
    }
}

/// [`request`] then [`serve`].
pub fn call(app: &Arc<App>, method: &str, path: &str, body: &str) -> (u16, String) {
    serve(app, &request(method, path, body))
}

/// Pulls an integer out of rendered JSON like `"misses":3` — enough for
/// asserting flat counter objects without a decoder.
pub fn counter(body: &str, name: &str) -> i64 {
    let pattern = format!("\"{name}\":");
    let start = body
        .find(&pattern)
        .unwrap_or_else(|| panic!("{name:?} not in {body}"))
        + pattern.len();
    body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{name:?} is not an integer in {body}"))
}

/// The integer value of one exact series (`name{labels}` as rendered)
/// of a Prometheus text exposition.
pub fn metric_value(exposition: &str, series: &str) -> i64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .map(|value| value.trim().parse().expect("integer sample"))
        .unwrap_or_else(|| panic!("series {series} not found in:\n{exposition}"))
}
