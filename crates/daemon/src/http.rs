//! A minimal, strict HTTP/1.1 codec over blocking streams.
//!
//! Scope is exactly what the service front-end needs: request-line +
//! header parsing with hard limits, `Content-Length` bodies (chunked
//! uploads are rejected — the wire format is small JSON documents),
//! keep-alive by default, and structured JSON error responses. Every
//! limit violation maps to a proper status code instead of a dropped
//! connection.
//!
//! Two response shapes exist. [`Response`] is the buffered one: the
//! whole body is assembled first and serialized with an explicit
//! `Content-Length`. [`StreamResponse`] is the incremental one: the
//! handler hands over a producer callback and the engine serializes
//! whatever it emits as `Transfer-Encoding: chunked` frames through a
//! [`ChunkSink`] — this is what feeds the daemon's `/v1/stream`
//! progress endpoint, where a multi-second batch reports per-item
//! completions as they happen instead of a silent buffered POST.

use marchgen_json::Json;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Longest accepted request line (method + path + version).
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted single header line.
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Longest client-supplied `X-Request-Id` honored verbatim; anything
/// longer (or carrying non-printable bytes) is replaced by a generated
/// id rather than echoed into logs and headers.
const MAX_REQUEST_ID: usize = 128;

static REQUEST_ID_SEQ: AtomicU64 = AtomicU64::new(0);

/// The process id, read once: `std::process::id` is a `getpid(2)` on
/// every call.
static PID: OnceLock<u32> = OnceLock::new();

/// A process-unique request id (`req-<pid>-<seq>`), used when the
/// client did not supply a usable `X-Request-Id`.
#[must_use]
pub fn next_request_id() -> String {
    format!(
        "req-{:x}-{:x}",
        PID.get_or_init(std::process::id),
        REQUEST_ID_SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// The path component as sent, query string included; route on
    /// [`Request::route_path`] and read parameters via
    /// [`Request::query_param`].
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// `true` when the request line said `HTTP/1.0`, whose connection
    /// default is close (1.1 defaults to keep-alive).
    pub http10: bool,
    /// The request's correlation id: the client's `X-Request-Id` header
    /// when it is printable ASCII of a sane length, otherwise generated
    /// (`req-<pid>-<seq>`). Echoed on every response and in the
    /// engine's log lines.
    pub request_id: String,
}

impl Request {
    /// First header value under `name` (case-insensitive). For headers
    /// where a duplicate changes framing (`Content-Length`,
    /// `Transfer-Encoding`) the parser rejects the request *before*
    /// this accessor can be reached with conflicting values — a request
    /// smuggled behind a proxy must never be served using whichever
    /// copy this happens to return.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Every value carried under `name` (case-insensitive), in order.
    #[must_use]
    pub fn header_values(&self, name: &str) -> Vec<&str> {
        self.headers
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// The path with any query string removed — what routing matches
    /// on (`/v1/stream?resume=x` routes as `/v1/stream`).
    #[must_use]
    pub fn route_path(&self) -> &str {
        match self.path.split_once('?') {
            Some((path, _)) => path,
            None => &self.path,
        }
    }

    /// The raw value of query parameter `name` (`?a=1&b=2` style).
    /// Values are returned byte-for-byte as sent — no percent-decoding;
    /// the service API's parameters (resume tokens, sequence numbers)
    /// are plain `[0-9a-z-]` text. A key without `=` yields `Some("")`.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let (_, query) = self.path.split_once('?')?;
        query.split('&').find_map(|pair| {
            let (key, value) = match pair.split_once('=') {
                Some((key, value)) => (key, value),
                None => (pair, ""),
            };
            (key == name).then_some(value)
        })
    }

    /// `true` when the connection should drop after this exchange: the
    /// client said `Connection: close`, or spoke HTTP/1.0 without
    /// opting into keep-alive (1.0's default is close).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(value) => value.eq_ignore_ascii_case("close"),
            None => self.http10,
        }
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (reason phrase derived).
    pub status: u16,
    /// Response body bytes.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Close the connection after sending (errors that leave the stream
    /// in an undefined position always close).
    pub close: bool,
    /// Ask the server to begin a graceful shutdown once this response
    /// is on the wire (used by the admin shutdown endpoint).
    pub shutdown: bool,
    /// When set, a `Retry-After: <seconds>` header is emitted — the
    /// standard companion of `429`/`503` answers telling well-behaved
    /// clients how long to back off before retrying.
    pub retry_after: Option<u64>,
    /// When set, an `X-Request-Id: <id>` header is emitted. Handlers
    /// normally leave this `None`; the connection engine stamps the
    /// request's id onto every response — including rejects — before
    /// serialization.
    pub request_id: Option<String>,
}

impl Response {
    /// A `200 OK` JSON response.
    #[must_use]
    pub fn json(doc: &Json) -> Response {
        Response {
            status: 200,
            body: doc.render(),
            content_type: "application/json",
            close: false,
            shutdown: false,
            retry_after: None,
            request_id: None,
        }
    }

    /// A `200 OK` plain-text response with an explicit content type —
    /// the Prometheus `/metrics` exposition
    /// (`text/plain; version=0.0.4`), for example.
    #[must_use]
    pub fn text(body: String, content_type: &'static str) -> Response {
        Response {
            status: 200,
            body,
            content_type,
            close: false,
            shutdown: false,
            retry_after: None,
            request_id: None,
        }
    }

    /// A structured JSON error: `{"error": {"status", "code", "message"}}`.
    #[must_use]
    pub fn error(status: u16, code: &str, message: impl Into<String>) -> Response {
        let doc = Json::object([(
            "error",
            Json::object([
                ("status", Json::Int(i64::from(status))),
                ("code", Json::from(code)),
                ("message", Json::Str(message.into())),
            ]),
        )]);
        Response {
            status,
            body: doc.render(),
            content_type: "application/json",
            // 4xx responses keep the connection when the stream is
            // still in sync; the parser overrides `close` when not.
            close: status >= 500,
            shutdown: false,
            retry_after: None,
            request_id: None,
        }
    }

    /// Builder-style: close the connection after this response.
    #[must_use]
    pub fn with_close(mut self) -> Response {
        self.close = true;
        self
    }

    /// Builder-style: trigger graceful server shutdown after sending.
    #[must_use]
    pub fn with_shutdown(mut self) -> Response {
        self.shutdown = true;
        self
    }

    /// Builder-style: advertise `Retry-After: seconds` (for `429`/`503`
    /// answers from the rate limiter and the drain path).
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u64) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// Builder-style: echo `id` as the `X-Request-Id` header.
    #[must_use]
    pub fn with_request_id(mut self, id: impl Into<String>) -> Response {
        self.request_id = Some(id.into());
        self
    }

    /// Serializes onto `stream` (HTTP/1.1, explicit `Content-Length`).
    /// The whole response is assembled in one buffer, sized up front for
    /// the head and the body, and written in one call, so it leaves as a
    /// single segment on unfragmented paths (one `send(2)` on a
    /// `TcpStream`).
    ///
    /// # Errors
    ///
    /// Propagates stream write failures.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        /// Room for the head besides its content type and request id:
        /// the fixed text, the longest status line and two 20-digit
        /// numbers.
        const HEAD_BYTES: usize = 192;
        let request_id = self.request_id.as_deref();
        let mut wire = String::with_capacity(
            HEAD_BYTES + self.content_type.len() + request_id.map_or(0, str::len) + self.body.len(),
        );
        let _ = write!(
            wire,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        );
        if let Some(seconds) = self.retry_after {
            let _ = write!(wire, "retry-after: {seconds}\r\n");
        }
        if let Some(id) = request_id {
            wire.push_str("x-request-id: ");
            wire.push_str(id);
            wire.push_str("\r\n");
        }
        wire.push_str(if self.close {
            "connection: close\r\n\r\n"
        } else {
            "connection: keep-alive\r\n\r\n"
        });
        wire.push_str(&self.body);
        stream.write_all(wire.as_bytes())?;
        stream.flush()
    }
}

/// The serializer side of a [`StreamResponse`]: the engine constructs
/// one over the connection and hands it to the producer callback, which
/// emits body frames through it. Each frame leaves as one
/// `Transfer-Encoding: chunked` chunk (flushed immediately, so clients
/// observe progress in real time); against an HTTP/1.0 peer — which
/// predates chunked encoding — frames are written raw and the body is
/// delimited by connection close instead.
pub struct ChunkSink<'a> {
    writer: &'a mut (dyn Write + Send),
    chunked: bool,
}

impl ChunkSink<'_> {
    /// Writes one body frame (one chunk) and flushes it to the wire.
    ///
    /// # Errors
    ///
    /// Propagates stream write failures — typically the peer hanging
    /// up mid-stream. Producers should treat an error as "nobody is
    /// listening" and stop emitting (already-running work may finish).
    pub fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        if frame.is_empty() {
            // An empty chunk would terminate the chunked body early.
            return Ok(());
        }
        // Chaos site: `delay(...)` models a slow peer / congested
        // socket, `err` models the peer hanging up mid-stream.
        marchgen_failpoint::fail_point!("daemon.socket.write", |msg: String| {
            Err(std::io::Error::other(msg))
        });
        if self.chunked {
            write!(self.writer, "{:x}\r\n", frame.len())?;
            self.writer.write_all(frame)?;
            self.writer.write_all(b"\r\n")?;
        } else {
            self.writer.write_all(frame)?;
        }
        self.writer.flush()
    }

    /// Renders `doc` and sends it as one newline-terminated frame —
    /// the JSON-lines convention of the `/v1/stream` wire format.
    ///
    /// # Errors
    ///
    /// Propagates stream write failures (see [`ChunkSink::send`]).
    pub fn send_json(&mut self, doc: &Json) -> std::io::Result<()> {
        let mut line = doc.render();
        line.push('\n');
        self.send(line.as_bytes())
    }
}

/// The producer callback of a [`StreamResponse`]: invoked exactly once
/// with the live [`ChunkSink`] after the response head is on the wire.
pub type StreamProducer = Box<dyn FnOnce(&mut ChunkSink<'_>) -> std::io::Result<()> + Send>;

/// An incremental response: status and headers are decided up front,
/// the body is produced frame-by-frame while the handler's work runs.
/// Built by handlers via [`StreamResponse::new`] and returned through
/// [`Reply::Stream`](crate::server::Reply); the connection engine owns
/// serialization (chunked framing, the terminal zero chunk, keep-alive
/// bookkeeping).
pub struct StreamResponse {
    /// Status code sent before the first frame (the producer cannot
    /// change it later — validate the request *before* streaming).
    pub status: u16,
    /// `Content-Type` header value; defaults to `application/x-ndjson`
    /// (one JSON document per line).
    pub content_type: &'static str,
    /// Close the connection after the stream completes instead of
    /// keeping it alive for the next request.
    pub close: bool,
    /// When set, an `X-Request-Id: <id>` header is emitted with the
    /// head; stamped by the connection engine like
    /// [`Response::request_id`].
    pub request_id: Option<String>,
    producer: StreamProducer,
}

impl StreamResponse {
    /// A `200` JSON-lines stream whose body is written by `producer`.
    #[must_use]
    pub fn new(
        producer: impl FnOnce(&mut ChunkSink<'_>) -> std::io::Result<()> + Send + 'static,
    ) -> StreamResponse {
        StreamResponse {
            status: 200,
            content_type: "application/x-ndjson",
            close: false,
            request_id: None,
            producer: Box::new(producer),
        }
    }

    /// Builder-style: close the connection once the stream completes.
    #[must_use]
    pub fn with_close(mut self) -> StreamResponse {
        self.close = true;
        self
    }

    /// Serializes the head, runs the producer, and terminates the body.
    /// `http10` selects the framing: chunked for HTTP/1.1, raw bytes +
    /// connection close for HTTP/1.0 (which predates chunked encoding).
    /// Returns `true` when the connection may be kept alive — only a
    /// chunked stream that completed without error keeps its framing
    /// synchronized.
    ///
    /// # Errors
    ///
    /// Propagates write failures from the head, the producer, or the
    /// terminal chunk; the connection must close in every error case.
    pub fn write_to(self, stream: &mut (impl Write + Send), http10: bool) -> std::io::Result<bool> {
        let close = self.close || http10;
        let connection = if close { "close" } else { "keep-alive" };
        let framing = if http10 {
            String::new()
        } else {
            "transfer-encoding: chunked\r\n".to_owned()
        };
        let request_id = match &self.request_id {
            Some(id) => format!("x-request-id: {id}\r\n"),
            None => String::new(),
        };
        write!(
            stream,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n{framing}{request_id}connection: {connection}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
        )?;
        stream.flush()?;
        let mut sink = ChunkSink {
            writer: stream,
            chunked: !http10,
        };
        (self.producer)(&mut sink)?;
        if !http10 {
            stream.write_all(b"0\r\n\r\n")?;
        }
        stream.flush()?;
        Ok(!close)
    }
}

impl std::fmt::Debug for StreamResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamResponse")
            .field("status", &self.status)
            .field("content_type", &self.content_type)
            .field("close", &self.close)
            .finish_non_exhaustive()
    }
}

/// Canonical reason phrases for the codes this daemon emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        411 => "Length Required",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The outcome of reading one request off a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, well-formed request.
    Complete(Request),
    /// The peer closed (or timed out) between requests — a normal
    /// keep-alive termination, nothing to answer.
    Closed,
    /// The request violated the protocol or a limit; answer with this
    /// response (already marked close) and drop the connection.
    Reject(Response),
}

fn reject(status: u16, code: &str, message: impl Into<String>) -> ReadOutcome {
    ReadOutcome::Reject(Response::error(status, code, message).with_close())
}

/// Reads one line terminated by `\n` (tolerating `\r\n`), bounded:
/// at most `limit` bytes may precede the `\n`, a `\r` included. The
/// reader's buffered bytes are scanned for the `\n` a run at a time and
/// consumed up to it, so bytes after the line stay buffered.
/// `Ok(None)` on clean EOF before any byte.
fn read_line(
    reader: &mut impl BufRead,
    limit: usize,
) -> std::io::Result<Option<Result<String, ()>>> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(if line.is_empty() { None } else { Some(Err(())) });
        }
        let room = limit - line.len();
        match available.iter().position(|&b| b == b'\n') {
            Some(end) if end <= room => {
                line.extend_from_slice(&available[..end]);
                reader.consume(end + 1);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Some(String::from_utf8(line).map_err(|_| ())));
            }
            // The byte after `room` more is not the `\n`: too long.
            _ if available.len() > room => {
                reader.consume(room + 1);
                return Ok(Some(Err(())));
            }
            _ => {
                let taken = available.len();
                line.extend_from_slice(available);
                reader.consume(taken);
            }
        }
    }
}

/// `true` when `name` is an RFC 9110 token (§5.6.2): one or more
/// visible ASCII characters other than delimiters. Whitespace before
/// the colon, a line that starts with whitespace (obsolete line
/// folding) and an empty name all fail (RFC 9112 §5.1).
fn is_token(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Reads and validates one request. `max_body` bounds the accepted
/// `Content-Length`; larger bodies are answered `413` without reading.
///
/// # Errors
///
/// Propagates underlying I/O failures (including read timeouts, which
/// the server layer treats as [`ReadOutcome::Closed`]).
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> std::io::Result<ReadOutcome> {
    // ---- request line ---------------------------------------------------
    let line = match read_line(reader, MAX_REQUEST_LINE)? {
        None => return Ok(ReadOutcome::Closed),
        Some(Err(())) => return Ok(reject(400, "bad_request_line", "unreadable request line")),
        Some(Ok(line)) => line,
    };
    let mut parts = line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => {
            (m.to_owned(), p.to_owned(), v)
        }
        _ => {
            return Ok(reject(
                400,
                "bad_request_line",
                format!("malformed request line {line:?}"),
            ))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Ok(reject(
            400,
            "bad_version",
            format!("unsupported protocol version {version:?}"),
        ));
    }

    // ---- headers --------------------------------------------------------
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_line(reader, MAX_HEADER_LINE)? {
            None => {
                return Ok(reject(
                    400,
                    "truncated_headers",
                    "connection closed mid-headers",
                ))
            }
            Some(Err(())) => {
                return Ok(reject(431, "oversized_header", "header line exceeds limit"))
            }
            Some(Ok(line)) => line,
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Ok(reject(
                431,
                "too_many_headers",
                "more headers than accepted",
            ));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Ok(reject(
                400,
                "bad_header",
                format!("malformed header {line:?}"),
            ));
        };
        // A name a proxy could read differently (`Content-Length : 5`,
        // a folded line) would frame the body on a length we never saw.
        if !is_token(name) {
            return Ok(reject(
                400,
                "bad_header",
                format!("header name {name:?} is not a token"),
            ));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let request_id = headers
        .iter()
        .find(|(n, _)| n == "x-request-id")
        .map(|(_, v)| v.as_str())
        .filter(|id| {
            !id.is_empty() && id.len() <= MAX_REQUEST_ID && id.bytes().all(|b| b.is_ascii_graphic())
        })
        .map_or_else(next_request_id, str::to_owned);
    let mut request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
        http10: version == "HTTP/1.0",
        request_id,
    };

    // ---- body -----------------------------------------------------------
    // Framing headers are checked for *conflicts first*: a request
    // carrying two Content-Length values (or Content-Length next to
    // Transfer-Encoding) is the classic smuggling shape behind a proxy
    // that resolves the ambiguity differently than we would. Serving it
    // using "the first matching header" silently picks a side; reject
    // the whole request instead.
    let lengths = request.header_values("content-length");
    if lengths.len() > 1 {
        return Ok(reject(
            400,
            "duplicate_content_length",
            format!(
                "{} content-length headers in one request; requests must carry at most one",
                lengths.len()
            ),
        ));
    }
    // Transfer-Encoding gets the same every-copy treatment: a proxy in
    // front joins repeated lines into one comma list ("identity,
    // chunked"), so inspecting only the first copy would let the
    // chunked rejection be bypassed by a duplicate header line.
    let encodings = request.header_values("transfer-encoding");
    if encodings.len() > 1 {
        return Ok(reject(
            400,
            "duplicate_transfer_encoding",
            format!(
                "{} transfer-encoding headers in one request; requests must carry at most one",
                encodings.len()
            ),
        ));
    }
    if !lengths.is_empty() && !encodings.is_empty() {
        return Ok(reject(
            400,
            "conflicting_framing",
            "content-length and transfer-encoding must not be combined",
        ));
    }
    if encodings
        .first()
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Ok(reject(
            411,
            "length_required",
            "chunked transfer encoding is not supported; send Content-Length",
        ));
    }
    let content_length = match lengths.first() {
        None => 0,
        Some(text) => match text.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Ok(reject(
                    400,
                    "bad_content_length",
                    format!("unparseable content-length {text:?}"),
                ))
            }
        },
    };
    if content_length > max_body {
        return Ok(reject(
            413,
            "body_too_large",
            format!("request body of {content_length} bytes exceeds the {max_body} byte limit"),
        ));
    }
    if content_length > 0 {
        let mut body = vec![0u8; content_length];
        if reader.read_exact(&mut body).is_err() {
            return Ok(reject(400, "truncated_body", "connection closed mid-body"));
        }
        request.body = body;
    }
    Ok(ReadOutcome::Complete(request))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};

    fn parse(text: &str) -> ReadOutcome {
        parse_bytes(text.as_bytes())
    }

    fn parse_bytes(bytes: &[u8]) -> ReadOutcome {
        read_request(&mut BufReader::new(bytes), 1024).unwrap()
    }

    /// A reader that hands out at most `step` bytes per `read`.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// What a parse decided, with a generated request id masked (each
    /// parse draws a new one).
    fn summary(outcome: &ReadOutcome) -> String {
        match outcome {
            ReadOutcome::Complete(request) => {
                let mut request = request.clone();
                if request.request_id.starts_with("req-") {
                    request.request_id = "req-*".to_owned();
                }
                format!("{request:?}")
            }
            other => format!("{other:?}"),
        }
    }

    /// Every request the tests of this module parse, good and bad.
    const CASES: &[&str] = &[
        "POST /v1/generate HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        "GET /v1/health HTTP/1.1\r\n\r\n",
        "GET /v1/stream?resume=b-12ab&from=7&flag HTTP/1.1\r\n\r\n",
        "GET /v1/health HTTP/1.1\r\nX-Request-Id: trace-41\r\n\r\n",
        "GET / HTTP/1.1\r\nX-Request-Id: has space\r\n\r\n",
        "",
        "POST /v1/generate HTTP/1.1\r\nContent-Length: 9999\r\n\r\n",
        "NOT A REQUEST\r\n\r\n",
        "GET missing-slash HTTP/1.1\r\n\r\n",
        "GET /x HTTP/3.0\r\n\r\n",
        "GET /x HTTP/1.1\r\nbroken header line\r\n\r\n",
        "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello",
        "POST /x HTTP/1.1\r\ncontent-length: 5\r\nCONTENT-LENGTH: 99\r\n\r\nhello",
        "POST /x HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\nhello",
        "POST /x HTTP/1.1\r\nTransfer-Encoding: identity\r\nTransfer-Encoding: chunked\r\n\r\n",
        "POST /x HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello",
        "GET /v1/health HTTP/1.1\r\nAccept: a\r\nACCEPT: b\r\n\r\n",
        "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        "GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        "GET /v1/health HTTP/1.1\nHost: x\n\n",
        "POST /x HTTP/1.1\nContent-Length: 2\r\n\nok",
        "GET /v1/health HTTP/1.1\r\nHost: x",
        "GET /v1/health HTTP/1.1\r",
    ];

    #[test]
    fn parses_a_post_with_body() {
        let outcome =
            parse("POST /v1/generate HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello");
        let ReadOutcome::Complete(req) = outcome else {
            panic!("expected a complete request, got {outcome:?}");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/generate");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
    }

    #[test]
    fn get_without_body() {
        let ReadOutcome::Complete(req) = parse("GET /v1/health HTTP/1.1\r\n\r\n") else {
            panic!("expected complete");
        };
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn route_path_and_query_params_split_correctly() {
        let ReadOutcome::Complete(req) =
            parse("GET /v1/stream?resume=b-12ab&from=7&flag HTTP/1.1\r\n\r\n")
        else {
            panic!("expected complete");
        };
        assert_eq!(req.path, "/v1/stream?resume=b-12ab&from=7&flag");
        assert_eq!(req.route_path(), "/v1/stream");
        assert_eq!(req.query_param("resume"), Some("b-12ab"));
        assert_eq!(req.query_param("from"), Some("7"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("missing"), None);
        let ReadOutcome::Complete(req) = parse("GET /v1/stream HTTP/1.1\r\n\r\n") else {
            panic!("expected complete");
        };
        assert_eq!(req.route_path(), "/v1/stream");
        assert_eq!(req.query_param("resume"), None);
    }

    #[test]
    fn client_request_ids_are_honored_or_replaced() {
        let ReadOutcome::Complete(req) =
            parse("GET /v1/health HTTP/1.1\r\nX-Request-Id: trace-41\r\n\r\n")
        else {
            panic!("expected complete");
        };
        assert_eq!(req.request_id, "trace-41");
        // Unusable ids (whitespace/control bytes, oversized, empty) are
        // replaced by a generated one rather than echoed verbatim into
        // headers and logs.
        for bad in [
            "X-Request-Id: has space\r\n".to_owned(),
            "X-Request-Id: \r\n".to_owned(),
            format!("X-Request-Id: {}\r\n", "x".repeat(200)),
        ] {
            let ReadOutcome::Complete(req) = parse(&format!("GET / HTTP/1.1\r\n{bad}\r\n")) else {
                panic!("expected complete");
            };
            assert!(req.request_id.starts_with("req-"), "{}", req.request_id);
        }
        // Absent header: generated, and unique per request.
        let parse_id = || match parse("GET / HTTP/1.1\r\n\r\n") {
            ReadOutcome::Complete(req) => req.request_id,
            other => panic!("expected complete, got {other:?}"),
        };
        let (a, b) = (parse_id(), parse_id());
        assert!(a.starts_with("req-"));
        assert_ne!(a, b);
    }

    #[test]
    fn responses_echo_the_request_id_header() {
        let mut wire = Vec::new();
        Response::error(404, "not_found", "no route")
            .with_request_id("trace-9")
            .write_to(&mut wire)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("x-request-id: trace-9\r\n"), "{text}");

        let mut wire = Vec::new();
        let mut stream = StreamResponse::new(|sink| sink.send(b"x\n"));
        stream.request_id = Some("trace-10".to_owned());
        stream.write_to(&mut wire, false).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("x-request-id: trace-10\r\n"), "{text}");
    }

    #[test]
    fn eof_before_bytes_is_a_clean_close() {
        assert!(matches!(parse(""), ReadOutcome::Closed));
    }

    #[test]
    fn oversized_body_rejects_with_413() {
        let outcome = parse("POST /v1/generate HTTP/1.1\r\nContent-Length: 9999\r\n\r\n");
        let ReadOutcome::Reject(resp) = outcome else {
            panic!("expected a reject");
        };
        assert_eq!(resp.status, 413);
        assert!(resp.close);
        assert!(resp.body.contains("body_too_large"));
    }

    #[test]
    fn garbage_rejects_with_400() {
        for bad in [
            "NOT A REQUEST\r\n\r\n",
            "GET missing-slash HTTP/1.1\r\n\r\n",
            "GET /x HTTP/3.0\r\n\r\n",
            "GET /x HTTP/1.1\r\nbroken header line\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            let outcome = parse(bad);
            let ReadOutcome::Reject(resp) = outcome else {
                panic!("{bad:?} should reject, got {outcome:?}");
            };
            assert_eq!(resp.status, 400, "{bad:?}");
        }
    }

    /// Duplicate `Content-Length` headers — equal or conflicting — are
    /// the request-smuggling shape: a proxy in front may frame the body
    /// with one copy while we frame it with the other. Reject with a
    /// structured 400 instead of serving whichever header comes first.
    #[test]
    fn duplicate_content_length_is_rejected() {
        for bad in [
            // conflicting values
            "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello",
            // equal values are rejected too: a smuggler controls both
            "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
            // case variations collapse onto the same header name
            "POST /x HTTP/1.1\r\ncontent-length: 5\r\nCONTENT-LENGTH: 99\r\n\r\nhello",
        ] {
            let outcome = parse(bad);
            let ReadOutcome::Reject(resp) = outcome else {
                panic!("{bad:?} should reject, got {outcome:?}");
            };
            assert_eq!(resp.status, 400, "{bad:?}");
            assert!(resp.close, "desynchronized stream must drop");
            assert!(
                resp.body.contains("duplicate_content_length"),
                "{}",
                resp.body
            );
        }
    }

    /// A header name must be a token (RFC 9110 §5.6.2). Whitespace
    /// before the colon, a line that starts with whitespace (obsolete
    /// folding), an empty name and a name with a space inside are all
    /// 400 `bad_header` (RFC 9112 §5.1): a proxy in front could drop
    /// such a line and frame the body as the next request.
    #[test]
    fn header_names_that_are_not_tokens_are_rejected() {
        for bad in [
            "POST /x HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\nContent-Length\t: 5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\n Content-Length: 5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\nHost: x\r\n\tContent-Length: 5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\n: x\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent Length: 5\r\n\r\nhello",
            "GET /x HTTP/1.1\r\nX-Trace(1): 1\r\n\r\n",
        ] {
            let outcome = parse(bad);
            let ReadOutcome::Reject(resp) = outcome else {
                panic!("{bad:?} should reject, got {outcome:?}");
            };
            assert_eq!(resp.status, 400, "{bad:?}");
            assert!(resp.close, "{bad:?}: the stream is out of sync");
            assert!(resp.body.contains("bad_header"), "{}", resp.body);
        }
        // Whitespace after the colon is the field's optional whitespace,
        // and every token character is a name character.
        for good in [
            "POST /x HTTP/1.1\r\nContent-Length:\t5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\nContent-Length:5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\nX-!#$%&'*+-.^_`|~09az: 1\r\nContent-Length: 5\r\n\r\nhello",
        ] {
            let outcome = parse(good);
            let ReadOutcome::Complete(req) = outcome else {
                panic!("{good:?} should parse, got {outcome:?}");
            };
            assert_eq!(req.body, b"hello", "{good:?}");
        }
    }

    /// Requests sent back to back in one buffer are read one at a time:
    /// each whole, its body taken by its own `Content-Length` and not
    /// by the next request's head.
    #[test]
    fn pipelined_requests_are_parsed_one_at_a_time() {
        let requests = [
            ("POST", "/a", "hello"),
            ("GET", "/b", ""),
            ("POST", "/c", "GET /d HTTP/1.1\r\n\r\n"),
        ];
        for count in [2, 3] {
            let wire: String = requests[..count]
                .iter()
                .map(|(method, path, body)| {
                    format!(
                        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                })
                .collect();
            let mut reader = BufReader::new(wire.as_bytes());
            for (method, path, body) in &requests[..count] {
                let outcome = read_request(&mut reader, 1024).unwrap();
                let ReadOutcome::Complete(req) = outcome else {
                    panic!("{path}: expected a complete request, got {outcome:?}");
                };
                assert_eq!((req.method.as_str(), req.path.as_str()), (*method, *path));
                assert_eq!(req.body, body.as_bytes(), "{path}");
            }
            assert!(matches!(
                read_request(&mut reader, 1024).unwrap(),
                ReadOutcome::Closed
            ));
        }
    }

    /// However the bytes arrive (1, 2 or 3 per `read`) and whatever the
    /// buffer holds (1 byte, 7 or the default), every request of this
    /// module parses exactly as it does from one whole buffer.
    #[test]
    fn heads_parse_the_same_however_the_bytes_arrive() {
        for case in CASES {
            let whole = summary(&parse(case));
            for step in [1, 2, 3] {
                for capacity in [1, 7, 8 * 1024] {
                    let trickle = Trickle {
                        bytes: case.as_bytes(),
                        step,
                    };
                    let outcome =
                        read_request(&mut BufReader::with_capacity(capacity, trickle), 1024)
                            .unwrap();
                    assert_eq!(
                        summary(&outcome),
                        whole,
                        "{case:?}: {step} bytes per read, capacity {capacity}"
                    );
                }
            }
        }
    }

    /// A line is the bytes before its `\n`, a `\r` included. A request
    /// line of exactly `MAX_REQUEST_LINE` bytes and a header line of
    /// exactly `MAX_HEADER_LINE` bytes are read; one byte more is 400
    /// `bad_request_line` or 431 `oversized_header`.
    #[test]
    fn line_limits_admit_exactly_their_length() {
        let request_line =
            |len: usize| format!("GET /{} HTTP/1.1", "a".repeat(len - "GET / HTTP/1.1".len()));
        let header_line = |len: usize| format!("X-Pad: {}", "b".repeat(len - "X-Pad: ".len()));
        for (crlf, end) in [(1, "\r\n"), (0, "\n")] {
            let exact = format!("{}{end}\r\n", request_line(MAX_REQUEST_LINE - crlf));
            let ReadOutcome::Complete(req) = parse(&exact) else {
                panic!("a request line of MAX_REQUEST_LINE bytes is read");
            };
            assert_eq!(
                req.path.len(),
                MAX_REQUEST_LINE - crlf - "GET  HTTP/1.1".len()
            );
            let over = format!("{}{end}\r\n", request_line(MAX_REQUEST_LINE - crlf + 1));
            let ReadOutcome::Reject(resp) = parse(&over) else {
                panic!("one byte over MAX_REQUEST_LINE rejects");
            };
            assert_eq!(resp.status, 400);
            assert!(resp.body.contains("bad_request_line"), "{}", resp.body);

            let exact = format!(
                "GET / HTTP/1.1\r\n{}{end}\r\n",
                header_line(MAX_HEADER_LINE - crlf)
            );
            let ReadOutcome::Complete(req) = parse(&exact) else {
                panic!("a header line of MAX_HEADER_LINE bytes is read");
            };
            assert_eq!(
                req.header("x-pad").map(str::len),
                Some(MAX_HEADER_LINE - crlf - "X-Pad: ".len())
            );
            let over = format!(
                "GET / HTTP/1.1\r\n{}{end}\r\n",
                header_line(MAX_HEADER_LINE - crlf + 1)
            );
            let ReadOutcome::Reject(resp) = parse(&over) else {
                panic!("one byte over MAX_HEADER_LINE rejects");
            };
            assert_eq!(resp.status, 431);
            assert!(resp.body.contains("oversized_header"), "{}", resp.body);
        }
    }

    /// Lines may end in a bare `\n`. A byte that is not UTF-8 makes the
    /// request line a 400 `bad_request_line` and a header line a 431
    /// `oversized_header`, as the line reader reports both failures the
    /// same way.
    #[test]
    fn bare_lf_lines_and_non_utf8_bytes_keep_their_answers() {
        let ReadOutcome::Complete(req) =
            parse("POST /x HTTP/1.1\nHost: x\nContent-Length: 2\n\nok")
        else {
            panic!("bare LF lines are read");
        };
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"ok");
        let ReadOutcome::Reject(resp) = parse_bytes(b"GET /\xff HTTP/1.1\r\n\r\n") else {
            panic!("a non-UTF-8 request line rejects");
        };
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("bad_request_line"), "{}", resp.body);
        let ReadOutcome::Reject(resp) = parse_bytes(b"GET / HTTP/1.1\r\nX-Bin: \xff\r\n\r\n")
        else {
            panic!("a non-UTF-8 header line rejects");
        };
        assert_eq!(resp.status, 431);
        assert!(resp.body.contains("oversized_header"), "{}", resp.body);
    }

    /// `Content-Length` combined with `Transfer-Encoding` (any value,
    /// chunked or identity) is the other smuggling vector: the two
    /// frame the body differently. Structured 400, not 411.
    #[test]
    fn content_length_with_transfer_encoding_is_rejected() {
        for bad in [
            "POST /x HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\nhello",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: identity\r\nContent-Length: 5\r\n\r\nhello",
        ] {
            let outcome = parse(bad);
            let ReadOutcome::Reject(resp) = outcome else {
                panic!("{bad:?} should reject, got {outcome:?}");
            };
            assert_eq!(resp.status, 400, "{bad:?}");
            assert!(resp.body.contains("conflicting_framing"), "{}", resp.body);
        }
    }

    /// Duplicate `Transfer-Encoding` lines must not bypass the chunked
    /// rejection: a front proxy joins them into one comma list, so a
    /// first-copy-only check ("identity") would desynchronize framing.
    #[test]
    fn duplicate_transfer_encoding_is_rejected() {
        let outcome = parse(
            "POST /x HTTP/1.1\r\nTransfer-Encoding: identity\r\nTransfer-Encoding: chunked\r\n\r\n",
        );
        let ReadOutcome::Reject(resp) = outcome else {
            panic!("expected reject");
        };
        assert_eq!(resp.status, 400);
        assert!(
            resp.body.contains("duplicate_transfer_encoding"),
            "{}",
            resp.body
        );
    }

    /// A comma-joined length list inside one header value is just as
    /// ambiguous and stays rejected through the number parser.
    #[test]
    fn comma_joined_content_length_is_rejected() {
        let outcome = parse("POST /x HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello");
        let ReadOutcome::Reject(resp) = outcome else {
            panic!("expected reject");
        };
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("bad_content_length"));
    }

    #[test]
    fn header_values_collects_every_copy() {
        let ReadOutcome::Complete(req) =
            parse("GET /v1/health HTTP/1.1\r\nAccept: a\r\nACCEPT: b\r\n\r\n")
        else {
            panic!("expected complete");
        };
        assert_eq!(req.header_values("accept"), vec!["a", "b"]);
        assert_eq!(req.header("accept"), Some("a"));
        assert!(req.header_values("cookie").is_empty());
    }

    #[test]
    fn chunked_uploads_are_rejected() {
        let outcome = parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        let ReadOutcome::Reject(resp) = outcome else {
            panic!("expected reject");
        };
        assert_eq!(resp.status, 411);
    }

    #[test]
    fn truncated_body_rejects() {
        let outcome = parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort");
        let ReadOutcome::Reject(resp) = outcome else {
            panic!("expected reject");
        };
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn http10_defaults_to_close_unless_keepalive_requested() {
        let ReadOutcome::Complete(req) = parse("GET /v1/health HTTP/1.0\r\n\r\n") else {
            panic!("expected complete");
        };
        assert!(req.http10);
        assert!(req.wants_close(), "HTTP/1.0 default is close");
        let ReadOutcome::Complete(req) =
            parse("GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        else {
            panic!("expected complete");
        };
        assert!(!req.wants_close(), "explicit keep-alive opts in");
        let ReadOutcome::Complete(req) = parse("GET /v1/health HTTP/1.1\r\n\r\n") else {
            panic!("expected complete");
        };
        assert!(!req.wants_close(), "HTTP/1.1 default is keep-alive");
    }

    #[test]
    fn connection_close_header_is_honored() {
        let ReadOutcome::Complete(req) =
            parse("GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n")
        else {
            panic!("expected complete");
        };
        assert!(req.wants_close());
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let mut wire = Vec::new();
        Response::json(&Json::object([("ok", Json::Bool(true))]))
            .write_to(&mut wire)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11"), "{text}");
        assert!(text.contains("connection: keep-alive"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");

        let mut wire = Vec::new();
        Response::error(429, "queue_full", "try later")
            .with_close()
            .write_to(&mut wire)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("connection: close"), "{text}");
        assert!(text.contains("\"code\":\"queue_full\""), "{text}");
    }

    #[test]
    fn retry_after_header_is_emitted_when_set() {
        let mut wire = Vec::new();
        Response::error(429, "rate_limited", "slow down")
            .with_retry_after(7)
            .with_close()
            .write_to(&mut wire)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("retry-after: 7\r\n"), "{text}");
        let mut wire = Vec::new();
        Response::error(429, "queue_full", "later")
            .write_to(&mut wire)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(!text.contains("retry-after"), "{text}");
    }

    #[test]
    fn stream_response_frames_as_chunked_and_keeps_alive() {
        let mut wire = Vec::new();
        let keep_alive = StreamResponse::new(|sink| {
            sink.send_json(&Json::object([("event", Json::from("started"))]))?;
            sink.send(b"")?; // empty frames are dropped, not terminal
            sink.send_json(&Json::object([("event", Json::from("completed"))]))
        })
        .write_to(&mut wire, false)
        .unwrap();
        assert!(keep_alive, "clean chunked stream may keep the connection");
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("transfer-encoding: chunked"), "{text}");
        assert!(
            text.contains("content-type: application/x-ndjson"),
            "{text}"
        );
        assert!(text.contains("connection: keep-alive"), "{text}");
        // Each frame is one sized chunk; the body ends with the
        // terminal zero chunk.
        let line = "{\"event\":\"started\"}\n";
        assert!(
            text.contains(&format!("{:x}\r\n{line}\r\n", line.len())),
            "{text}"
        );
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
    }

    #[test]
    fn stream_response_to_http10_writes_raw_and_closes() {
        let mut wire = Vec::new();
        let keep_alive = StreamResponse::new(|sink| sink.send(b"{\"ok\":true}\n"))
            .write_to(&mut wire, true)
            .unwrap();
        assert!(!keep_alive, "EOF-delimited bodies must close");
        let text = String::from_utf8(wire).unwrap();
        assert!(!text.contains("transfer-encoding"), "{text}");
        assert!(text.contains("connection: close"), "{text}");
        assert!(text.ends_with("{\"ok\":true}\n"), "{text}");
    }

    #[test]
    fn stream_response_propagates_producer_errors() {
        let mut wire = Vec::new();
        let result = StreamResponse::new(|sink| {
            sink.send(b"partial\n")?;
            Err(std::io::Error::other("peer went away"))
        })
        .write_to(&mut wire, false);
        assert!(result.is_err());
        let text = String::from_utf8(wire).unwrap();
        assert!(
            !text.ends_with("0\r\n\r\n"),
            "a failed stream must not be terminated cleanly: {text}"
        );
    }
}
