//! End-to-end smoke test of the `marchgend` binary over TCP: what
//! needs a socket or a process. The banner, keep-alive cold/warm
//! latency, the engine's 413 and request-smuggling 400s and the
//! `/v1/stats` counters only the engine moves (`protocol_errors`,
//! `in_flight`, `requests`), chunked `/v1/stream` framing and
//! resumption, the per-peer rate limiter, graceful shutdown and exit,
//! the disk cache shared across processes, the access and slow-request
//! lines, and one `write(2)` per request. Response bodies, `/v1/stats`
//! and `/metrics` as the App renders them are checked in-process by
//! `tests/serve_handlers.rs`.

#[allow(dead_code)]
mod common;

use common::{counter, status_of, Daemon};
use std::io::{BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const FAULTS: &str = r#"["SAF", "TF", "ADF", "CFin", "CFid"]"#;
const FAULTS_PERMUTED: &str = r#"["CFid", "ADF", "CFin", "TF", "SAF"]"#;

/// Strips the volatile diagnostics block out of a rendered outcome so
/// two outcomes can be compared byte-for-byte. Diagnostics is the only
/// field allowed to differ between a computed and a replayed outcome
/// (timings + the `cache_hit` stamp), and it renders as the trailing
/// `"diagnostics":{...}` member of the schema-v1 document.
fn without_diagnostics(outcome_json: &str) -> String {
    let start = outcome_json
        .find("\"diagnostics\"")
        .unwrap_or_else(|| panic!("no diagnostics in {outcome_json}"));
    outcome_json[..start].to_owned()
}

#[test]
fn daemon_smoke_generate_cache_stats_shutdown() {
    let cache_dir =
        std::env::temp_dir().join(format!("marchgend-smoke-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let daemon = Daemon::spawn(
        &[
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--max-body-bytes",
            "4096",
            "--workers",
            "2",
        ],
        &[],
        Stdio::inherit(),
    );

    // ---- health ---------------------------------------------------------
    let (status, body) = daemon.request("GET", "/v1/health", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // ---- first generate: a full computation -----------------------------
    // Cold and warm ride one keep-alive connection so the latency
    // comparison measures the daemon's handling time, not the connect,
    // accept and worker hand-off of a fresh connection (of the same
    // order as a whole cache hit in release builds).
    let mut latency_conn = daemon.keepalive();
    let request_doc = format!("{{\"faults\": {FAULTS}}}");
    let cold_started = Instant::now();
    let (status, cold_body) = latency_conn.request("POST", "/v1/generate", &request_doc);
    let cold_latency = cold_started.elapsed();
    assert_eq!(status, 200, "{cold_body}");
    assert!(cold_body.contains("\"complexity\":10"), "{cold_body}");
    assert!(cold_body.contains("\"verified\":true"), "{cold_body}");
    assert!(cold_body.contains("\"cache_hit\":false"), "{cold_body}");

    // ---- permuted repeat: served from cache, ≥10× faster ----------------
    // Warm latency is the minimum over a few repeats — the standard
    // noise-free estimator; the cold computation keeps its single
    // (pessimistic for the assertion) measurement.
    let permuted_doc = format!("{{\"faults\": {FAULTS_PERMUTED}}}");
    let mut warm_latency = Duration::MAX;
    let mut warm_body = String::new();
    for _ in 0..5 {
        let warm_started = Instant::now();
        let (status, body) = latency_conn.request("POST", "/v1/generate", &permuted_doc);
        warm_latency = warm_latency.min(warm_started.elapsed());
        assert_eq!(status, 200, "{body}");
        warm_body = body;
    }
    drop(latency_conn);
    assert!(warm_body.contains("\"cache_hit\":true"), "{warm_body}");
    assert_eq!(
        without_diagnostics(&cold_body),
        without_diagnostics(&warm_body),
        "replayed outcome must be byte-identical modulo diagnostics"
    );
    assert!(
        warm_latency * 10 <= cold_latency,
        "cache hit should be ≥10× faster: cold {cold_latency:?}, warm (min of 5) {warm_latency:?}"
    );

    // ---- daemon output ≡ CLI --json output (modulo diagnostics) ---------
    let cli = Command::new(env!("CARGO_BIN_EXE_marchgen"))
        .args(["generate", "SAF, TF, ADF, CFin, CFid", "--json"])
        .output()
        .expect("run marchgen CLI");
    assert!(cli.status.success());
    // The CLI pretty-prints; normalize both documents by stripping all
    // inter-token whitespace outside strings (schema-v1 strings in this
    // workload never contain spaces that matter to the comparison —
    // March notation uses NBSP-free separators — so plain whitespace
    // stripping is a faithful normalizer here).
    let normalize = |text: &str| -> String {
        without_diagnostics(text)
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect()
    };
    let cli_json = String::from_utf8(cli.stdout).unwrap();
    assert_eq!(
        normalize(&cli_json),
        normalize(&cold_body),
        "daemon and CLI must serve identical outcomes for the same request"
    );

    // ---- oversized body → 413, never dispatched -------------------------
    let oversized = format!("{{\"faults\": [{}]}}", "\"SAF\",".repeat(1000) + "\"SAF\"");
    assert!(oversized.len() > 4096);
    let (status, body) = daemon.request("POST", "/v1/generate", &oversized);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("body_too_large"), "{body}");

    // ---- batch: one hit, one fresh --------------------------------------
    let batch_doc = format!("[{{\"faults\": {FAULTS}}}, {{\"faults\": [\"SAF\"]}}]");
    let (status, batch_body) = daemon.request("POST", "/v1/batch", &batch_doc);
    assert_eq!(status, 200, "{batch_body}");

    // ---- request smuggling shapes are rejected with structured 400s -----
    let wire = daemon.raw(
        "POST /v1/generate HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\
         content-length: 16\r\ncontent-length: 3\r\n\r\n{\"faults\":[\"SAF\"]}",
    );
    assert_eq!(status_of(&wire), 400, "{wire}");
    assert!(wire.contains("duplicate_content_length"), "{wire}");
    let wire = daemon.raw(
        "POST /v1/generate HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\
         content-length: 16\r\ntransfer-encoding: chunked\r\n\r\n{\"faults\":[\"SAF\"]}",
    );
    assert_eq!(status_of(&wire), 400, "{wire}");
    assert!(wire.contains("conflicting_framing"), "{wire}");

    // ---- stats reflect all of the above ---------------------------------
    let (status, stats) = daemon.request("GET", "/v1/stats", "");
    assert_eq!(status, 200, "{stats}");
    assert!(counter(&stats, "hits") >= 2, "{stats}"); // permuted repeats + batch entry
    assert_eq!(counter(&stats, "inserts"), 2, "{stats}"); // 5-model list + batch's SAF
    assert!(counter(&stats, "misses") >= 2, "{stats}");
    assert!(counter(&stats, "computed") >= 2, "{stats}");
    assert!(counter(&stats, "generate") >= 4, "{stats}");
    assert_eq!(counter(&stats, "batch"), 1, "{stats}");
    // No colliding entries were encountered anywhere in the sequence.
    assert_eq!(counter(&stats, "key_mismatches"), 0, "{stats}");
    // The stats request itself is the one request in flight.
    assert_eq!(counter(&stats, "in_flight"), 1, "{stats}");
    assert!(counter(&stats, "requests") >= 8, "{stats}");
    // The oversized body and the two smuggling shapes were turned away
    // at the protocol layer.
    assert_eq!(counter(&stats, "protocol_errors"), 3, "{stats}");

    // ---- graceful shutdown ----------------------------------------------
    daemon.shutdown();

    // The persistent store survived: one file per cached problem.
    let entries = std::fs::read_dir(&cache_dir)
        .expect("cache dir exists")
        .count();
    assert_eq!(entries, 2, "one JSON file per cached outcome");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Splits one raw HTTP response into `(status, headers, body)` with the
/// chunked transfer coding decoded — the reader side of the daemon's
/// `/v1/stream` wire format.
fn dechunk(wire: &str) -> (u16, String, String) {
    let status = status_of(wire);
    let (head, mut rest) = wire
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {wire:?}"));
    if !head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        return (status, head.to_owned(), rest.to_owned());
    }
    let mut body = String::new();
    loop {
        let (size_line, after) = rest
            .split_once("\r\n")
            .unwrap_or_else(|| panic!("truncated chunk size in {rest:?}"));
        let size = usize::from_str_radix(size_line.trim(), 16)
            .unwrap_or_else(|_| panic!("bad chunk size {size_line:?}"));
        if size == 0 {
            break;
        }
        body.push_str(&after[..size]);
        rest = after[size..]
            .strip_prefix("\r\n")
            .unwrap_or_else(|| panic!("chunk of {size} not CRLF-terminated"));
    }
    (status, head.to_owned(), body)
}

/// The `/v1/stream` endpoint emits chunked JSON-lines progress frames
/// while a multi-item batch runs, and the per-peer token bucket answers
/// over-budget peers `429` + `Retry-After`; `/v1/stats` counts both.
#[test]
fn daemon_streams_progress_and_rate_limits_peers() {
    let daemon = Daemon::spawn(
        &["--workers", "2", "--rate-limit", "4", "--rate-burst", "40"],
        &[],
        Stdio::inherit(),
    );

    // ---- the stream: 3 items, 2 succeed, 1 fails ------------------------
    // Distinct fault lists (no in-batch dedupe), the empty list failing
    // generation — so the frame stream must show per-item successes AND
    // a failure, ending in the terminal totals.
    let body = r#"[{"faults": ["SAF"]}, {"faults": ["SAF", "TF"]}, {"faults": []}]"#;
    let wire = daemon.raw(&format!(
        "POST /v1/stream HTTP/1.1\r\nhost: marchgend\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    ));
    let (status, head, frames) = dechunk(&wire);
    assert_eq!(status, 200, "{wire}");
    assert!(
        head.to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "{head}"
    );
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: application/x-ndjson"),
        "{head}"
    );
    // Every response carries a request id (generated here — the client
    // sent none), and the id echoed on the head is the one the batch
    // announcement frame attributes the stream to.
    assert!(
        head.to_ascii_lowercase().contains("x-request-id: req-"),
        "{head}"
    );

    // A client-supplied id is echoed back verbatim instead.
    let tagged_wire = daemon.raw(
        "GET /v1/health HTTP/1.1\r\nhost: x\r\nx-request-id: chaos-cafe-42\r\n\
         connection: close\r\n\r\n",
    );
    assert!(
        tagged_wire
            .to_ascii_lowercase()
            .contains("x-request-id: chaos-cafe-42"),
        "{tagged_wire}"
    );
    let lines: Vec<&str> = frames.lines().collect();
    assert_eq!(
        lines.len(),
        8,
        "batch + started x3 + item x3 + completed: {frames}"
    );
    // Frame 0 announces the resumption token; every frame carries a
    // gapless monotone sequence number.
    assert!(
        lines[0].starts_with("{\"event\":\"batch\",\"batch_id\":\"b-"),
        "{frames}"
    );
    assert!(lines[0].contains("\"request_id\":\""), "{frames}");
    for (expected_seq, line) in lines.iter().enumerate() {
        assert!(
            line.ends_with(&format!(",\"seq\":{expected_seq}}}")),
            "{line}"
        );
    }
    // ≥ 3 distinct frame kinds besides the announcement: start, item,
    // terminal.
    assert!(
        lines
            .iter()
            .filter(|l| l.starts_with("{\"event\":\"started\""))
            .count()
            == 3,
        "{frames}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"event\":\"item\"")
            && l.contains("\"ok\":true")
            && l.contains("\"complexity\":")
            && l.contains("\"diagnostics\"")),
        "{frames}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"item\"") && l.contains("\"ok\":false")),
        "{frames}"
    );
    assert!(
        lines
            .last()
            .unwrap()
            .starts_with("{\"event\":\"completed\",\"total\":3,\"succeeded\":2,\"failed\":1"),
        "terminal frame is last: {frames}"
    );

    // ---- resumption: the replay is byte-identical -----------------------
    // The batch is complete but stays in the replay ring; re-attaching
    // from seq 0 must resend every frame exactly as first delivered.
    let batch_id = lines[0]
        .split_once("\"batch_id\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map(|(id, _)| id.to_owned())
        .expect("batch frame carries batch_id");
    let resume = |from: &str| {
        dechunk(&daemon.raw(&format!(
            "GET /v1/stream?resume={batch_id}&from={from} HTTP/1.1\r\nhost: marchgend\r\n\
             connection: close\r\n\r\n"
        )))
    };
    let (status, _, replayed) = resume("0");
    assert_eq!(status, 200, "{replayed}");
    assert_eq!(replayed, frames, "resumed replay must be byte-identical");

    // Resuming mid-stream replays only the tail, and the error paths
    // are structured: unknown tokens 404, malformed cursors 422.
    let (status, _, tail_frames) = resume("7");
    assert_eq!(status, 200, "{tail_frames}");
    assert_eq!(
        tail_frames.lines().collect::<Vec<_>>(),
        vec![*lines.last().unwrap()],
        "from=7 replays exactly the terminal frame"
    );
    let (status, body) = daemon.request("GET", "/v1/stream?resume=b-bogus&from=0", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"code\":\"resume_unknown\""), "{body}");
    let (status, body) = daemon.request(
        "GET",
        &format!("/v1/stream?resume={batch_id}&from=banana"),
        "",
    );
    assert_eq!(status, 422, "{body}");

    // ---- exhaust the per-peer bucket ------------------------------------
    // Burst 40 minus what the test already spent; hammering quick
    // health probes must hit a 429 with a Retry-After hint well within
    // the attempt budget.
    let mut rejected = None;
    for _ in 0..80 {
        let wire = daemon.raw("GET /v1/health HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n");
        if wire.starts_with("HTTP/1.1 429") {
            rejected = Some(wire);
            break;
        }
        assert!(wire.starts_with("HTTP/1.1 200"), "{wire}");
    }
    let rejected = rejected.expect("bucket of 40 must exhaust within 80 rapid probes");
    assert!(rejected.contains("\"code\":\"rate_limited\""), "{rejected}");
    let retry_after: u64 = rejected
        .to_ascii_lowercase()
        .split_once("retry-after: ")
        .map(|(_, rest)| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("429 must carry Retry-After: {rejected}"));
    assert!(retry_after >= 1, "{rejected}");

    // ---- stats count both, once the bucket refills ----------------------
    let stats = {
        let mut attempt = 0;
        loop {
            std::thread::sleep(Duration::from_millis(600));
            let (status, body) = daemon.request("GET", "/v1/stats", "");
            if status == 200 {
                break body;
            }
            attempt += 1;
            assert!(attempt < 60, "stats stayed rate-limited: {body}");
        }
    };
    // Server-side stream connections: the original batch plus the two
    // successful resume re-attachments (this finds the `server` block's
    // numeric `"streams"` counter, which renders before the stream
    // registry's `"streams"` object).
    assert_eq!(counter(&stats, "streams"), 3, "{stats}");
    // Endpoint hits include the two rejected resume attempts (404/422).
    assert_eq!(counter(&stats, "stream"), 5, "{stats}");
    // The stream-registry gauges: one retained batch, two resumes.
    assert_eq!(counter(&stats, "retained"), 1, "{stats}");
    assert_eq!(counter(&stats, "resumed"), 2, "{stats}");
    assert!(counter(&stats, "rejected_rate_limited") >= 1, "{stats}");

    // ---- graceful shutdown (retried while the bucket refills) -----------
    daemon.shutdown();
}

/// A fresh daemon pointed at a pre-warmed `--cache-dir` serves its very
/// first request from disk — memoization across processes.
#[test]
fn daemon_serves_from_a_prewarmed_disk_cache() {
    let cache_dir =
        std::env::temp_dir().join(format!("marchgend-smoke-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let dir_arg = cache_dir.to_str().unwrap().to_owned();

    let first = Daemon::spawn(&["--cache-dir", &dir_arg], &[], Stdio::inherit());
    let (status, _) = first.request("POST", "/v1/generate", r#"{"faults": ["SAF", "TF"]}"#);
    assert_eq!(status, 200);
    first.shutdown();

    let second = Daemon::spawn(&["--cache-dir", &dir_arg], &[], Stdio::inherit());
    let (status, body) = second.request("POST", "/v1/generate", r#"{"faults": ["TF", "SAF"]}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cache_hit\":true"), "{body}");
    let (_, stats) = second.request("GET", "/v1/stats", "");
    assert_eq!(counter(&stats, "disk_hits"), 1, "{stats}");
    second.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// `--slow-request-ms` warns on stderr when serving a request (handler
/// plus response write) takes at least the threshold; a 1ms threshold
/// makes a cold five-model generate slow.
#[test]
fn daemon_warns_on_slow_requests() {
    let mut daemon = Daemon::spawn(
        &["--workers", "2", "--slow-request-ms", "1"],
        &[],
        Stdio::piped(),
    );
    let stderr = daemon.child.stderr.take().expect("piped stderr");
    // Drain stderr concurrently so the daemon can never block on a full
    // pipe while we wait for it to exit.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        BufReader::new(stderr)
            .read_to_string(&mut text)
            .expect("read stderr");
        text
    });

    let (status, body) = daemon.request(
        "POST",
        "/v1/generate",
        &format!(r#"{{"faults": {FAULTS}}}"#),
    );
    assert_eq!(status, 200, "{body}");
    daemon.shutdown();

    let stderr_text = reader.join().expect("stderr reader");
    assert!(
        stderr_text.contains("slow request:"),
        "expected a slow-request warning on stderr, got:\n{stderr_text}"
    );
    // The access line (written before the response) and the warning
    // (after it) keep their exact shape, each a line of its own.
    let lines: Vec<&str> = stderr_text
        .lines()
        .filter(|line| line.contains("\"POST /v1/generate\" 200 id="))
        .collect();
    assert_eq!(lines.len(), 2, "{stderr_text}");
    let (peer, id) = lines[0]
        .strip_prefix("marchgen-daemon: ")
        .and_then(|rest| rest.split_once(" \"POST /v1/generate\" 200 id="))
        .unwrap_or_else(|| panic!("access line {:?}", lines[0]));
    assert!(
        peer.strip_prefix("127.0.0.1:")
            .is_some_and(|port| port.parse::<u16>().is_ok()),
        "{}",
        lines[0]
    );
    assert!(id.starts_with("req-") && !id.contains(' '), "{}", lines[0]);
    let took = lines[1]
        .strip_prefix(&format!(
            "marchgen-daemon: slow request: {peer} \"POST /v1/generate\" 200 id={id} took "
        ))
        .and_then(|rest| rest.strip_suffix("ms (threshold 1ms)"))
        .unwrap_or_else(|| panic!("slow-request line {:?}", lines[1]));
    assert!(took.parse::<u64>().is_ok_and(|ms| ms >= 1), "{}", lines[1]);
}

/// A served request costs one `write(2)`, its access line, formatted
/// whole and printed at once. Responses leave through `send(2)`, which
/// the kernel's per-process `syscw` count (`/proc/<pid>/io`) leaves
/// out, so over a run of keep-alive cache hits `syscw` counts the log.
#[test]
fn daemon_writes_each_access_line_in_one_write() {
    let daemon = Daemon::spawn(&["--workers", "2"], &[], Stdio::null());
    let io = format!("/proc/{}/io", daemon.child.id());
    let syscw = || -> Option<u64> {
        std::fs::read_to_string(&io)
            .ok()?
            .lines()
            .find_map(|line| line.strip_prefix("syscw:"))?
            .trim()
            .parse()
            .ok()
    };
    if syscw().is_none() {
        eprintln!("skipped: {io} cannot be read on this host");
        daemon.shutdown();
        return;
    }
    let mut conn = daemon.keepalive();
    let doc = r#"{"faults": ["SAF", "TF"]}"#;
    for expected in ["\"cache_hit\":false", "\"cache_hit\":true"] {
        let (status, body) = conn.request("POST", "/v1/generate", doc);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(expected), "{body}");
    }
    let requests = 200;
    let before = syscw().expect("syscw");
    for _ in 0..requests {
        let (status, body) = conn.request("POST", "/v1/generate", doc);
        assert_eq!(status, 200, "{body}");
    }
    let writes = syscw().expect("syscw") - before;
    let per_request = writes as f64 / f64::from(requests);
    assert!(
        per_request <= 1.05,
        "{writes} write(2) calls for {requests} cache hits ({per_request:.2} per request)"
    );
    drop(conn);
    daemon.shutdown();
}
