//! Chaos smoke tests: drive the real `marchgend` binary with failpoints
//! armed and assert the hardening contract — **no wrong outcome ever,
//! structured errors always, recovery once the fault clears**.
//!
//! Compiled (and meaningful) only with the `failpoints` cargo feature:
//!
//! ```text
//! cargo test --features failpoints --test chaos_smoke
//! ```
//!
//! Four fault families, each on its own daemon:
//!
//! * mid-stream connection loss → resume replays byte-identically with
//!   gapless sequence numbers through the terminal frame,
//! * injected disk-write failures → the cache flips to degraded
//!   (memory-only) mode, requests keep succeeding, and a backoff probe
//!   recovers the disk tier once the fault clears,
//! * an injected handler panic → one structured 500, daemon healthy
//!   after,
//! * slow / failing socket writes → streams stay frame-correct, and a
//!   killed stream is recovered via resumption instead of resubmission.

#![cfg(feature = "failpoints")]

#[allow(dead_code)]
mod common;

use common::Daemon;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::Stdio;
use std::time::Duration;

/// Arms failpoints through the admin endpoint.
fn arm(daemon: &Daemon, config: &str) {
    let (status, body) = daemon.request(
        "POST",
        "/v1/failpoints",
        &format!("{{\"config\": \"{config}\"}}"),
    );
    assert_eq!(status, 200, "arming {config:?}: {body}");
    assert!(body.contains("\"enabled\":true"), "{body}");
}

/// Disarms every failpoint through the admin endpoint.
fn disarm_all(daemon: &Daemon) {
    let (status, body) = daemon.request("POST", "/v1/failpoints", "{\"clear\": true}");
    assert_eq!(status, 200, "{body}");
}

/// A `/v1/stream` connection being read frame by frame.
struct StreamConn {
    reader: BufReader<TcpStream>,
}

impl StreamConn {
    /// Opens a fresh stream: POST with a batch body, or GET with a
    /// resume query. Panics unless the daemon answers 200 chunked.
    fn open(addr: &str, path: &str, body: Option<&str>) -> StreamConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let mut conn = StreamConn {
            reader: BufReader::new(stream),
        };
        match body {
            Some(body) => write!(
                conn.reader.get_mut(),
                "POST {path} HTTP/1.1\r\nhost: x\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            ),
            None => write!(
                conn.reader.get_mut(),
                "GET {path} HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n"
            ),
        }
        .expect("send stream request");
        let mut status_line = String::new();
        conn.reader.read_line(&mut status_line).expect("status");
        assert!(
            status_line.starts_with("HTTP/1.1 200"),
            "stream rejected: {status_line}"
        );
        loop {
            let mut header = String::new();
            conn.reader.read_line(&mut header).expect("header");
            if header.trim().is_empty() {
                break;
            }
        }
        conn
    }

    /// Reads the next frame line, tolerating mid-stream truncation
    /// (`None` on EOF or a broken chunk — exactly what an injected
    /// socket fault produces).
    fn next_frame(&mut self) -> Option<String> {
        // One frame is one chunk in this daemon; tolerate both a clean
        // terminal chunk and a torn connection.
        let mut size_line = String::new();
        if self.reader.read_line(&mut size_line).ok()? == 0 {
            return None;
        }
        let size = usize::from_str_radix(size_line.trim(), 16).ok()?;
        if size == 0 {
            return None;
        }
        let mut chunk = vec![0u8; size + 2]; // payload + CRLF
        self.reader.read_exact(&mut chunk).ok()?;
        let line = std::str::from_utf8(&chunk[..size]).ok()?.trim_end();
        Some(line.to_owned())
    }

    /// Drains the remaining frames until the stream ends.
    fn drain(&mut self) -> Vec<String> {
        let mut frames = Vec::new();
        while let Some(frame) = self.next_frame() {
            frames.push(frame);
        }
        frames
    }
}

/// Pulls `"batch_id":"…"` out of the announcement frame.
fn batch_id_of(frame: &str) -> String {
    frame
        .split_once("\"batch_id\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map(|(id, _)| id.to_owned())
        .unwrap_or_else(|| panic!("no batch_id in {frame}"))
}

/// Asserts frames carry the gapless sequence `start..` and end with the
/// terminal `completed` frame.
fn assert_sequenced(frames: &[String], start: u64) {
    assert!(!frames.is_empty(), "no frames");
    for (offset, frame) in frames.iter().enumerate() {
        let seq = start + offset as u64;
        assert!(
            frame.ends_with(&format!(",\"seq\":{seq}}}")),
            "expected seq {seq}: {frame}"
        );
    }
    assert!(
        frames
            .last()
            .unwrap()
            .starts_with("{\"event\":\"completed\""),
        "missing terminal frame: {frames:?}"
    );
}

/// A client that loses its connection mid-stream reconnects with the
/// resumption token and sees the missed frames replayed byte-for-byte,
/// in gapless sequence order, through the terminal frame — while the
/// batch itself never restarted.
#[test]
fn chaos_mid_stream_disconnect_resumes_byte_identical() {
    let daemon = Daemon::spawn(&["--workers", "2"], &[], Stdio::inherit());
    // Slow every socket write a little so the batch reliably outlives
    // the deliberately-early disconnect below.
    arm(&daemon, "daemon.socket.write=delay(20)");

    let body = r#"[{"faults": ["SAF"]}, {"faults": ["SAF", "TF"]}, {"faults": ["TF"]}]"#;
    let mut first = StreamConn::open(&daemon.addr, "/v1/stream", Some(body));
    let announcement = first.next_frame().expect("batch announcement frame");
    assert!(
        announcement.starts_with("{\"event\":\"batch\""),
        "{announcement}"
    );
    let batch_id = batch_id_of(&announcement);
    let mut seen = vec![announcement];
    seen.push(first.next_frame().expect("at least one progress frame"));
    // Hard disconnect, mid-batch.
    drop(first);

    // Reconnect from the start: the replay must begin with exactly the
    // frames already delivered, then continue to the terminal frame.
    let mut resumed = StreamConn::open(
        &daemon.addr,
        &format!("/v1/stream?resume={batch_id}&from=0"),
        None,
    );
    let frames = resumed.drain();
    assert!(frames.len() >= seen.len(), "{frames:?}");
    assert_eq!(
        &frames[..seen.len()],
        &seen[..],
        "replay must be byte-identical"
    );
    assert_sequenced(&frames, 0);
    assert!(
        frames
            .last()
            .unwrap()
            .contains("\"total\":3,\"succeeded\":3,\"failed\":0"),
        "{frames:?}"
    );

    // A second resume from a mid-stream cursor replays only the tail.
    let mut tail = StreamConn::open(
        &daemon.addr,
        &format!("/v1/stream?resume={batch_id}&from=2"),
        None,
    );
    let tail_frames = tail.drain();
    assert_eq!(&tail_frames[..], &frames[2..], "suffix replay");
    assert_sequenced(&tail_frames, 2);

    disarm_all(&daemon);
    daemon.shutdown();
}

/// Disk-write faults flip the cache into degraded (memory-only) mode:
/// requests keep succeeding, `/v1/stats` reports `disk_degraded`, and
/// once the fault clears a backoff probe restores the disk tier.
#[test]
fn chaos_disk_faults_degrade_then_recover() {
    let cache_dir =
        std::env::temp_dir().join(format!("marchgend-chaos-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let daemon = Daemon::spawn(
        &["--cache-dir", cache_dir.to_str().unwrap()],
        &[],
        Stdio::inherit(),
    );

    // Every disk write fails "persistently" from now on.
    arm(&daemon, "cache.disk.write=err(injected: disk full)");

    // The computation still succeeds — the memory tier serves it.
    let (status, body) = daemon.request("POST", "/v1/generate", r#"{"faults": ["SAF"]}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"verified\":true"), "{body}");
    let (_, stats) = daemon.request("GET", "/v1/stats", "");
    assert!(stats.contains("\"disk_degraded\":true"), "{stats}");
    assert!(!stats.contains("\"disk_write_failures\":0"), "{stats}");

    // The Prometheus view agrees: the injected fault shows up as failed
    // disk writes and the degraded-mode gauge flips to 1.
    let (status, metrics) = daemon.request("GET", "/metrics", "");
    assert_eq!(status, 200, "{metrics}");
    let write_failures: u64 = metrics
        .lines()
        .find_map(|line| line.strip_prefix("marchgend_cache_disk_write_failures_total "))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or_else(|| panic!("no disk write-failure counter in:\n{metrics}"));
    assert!(write_failures >= 1, "{metrics}");
    assert!(
        metrics.contains("marchgend_cache_disk_degraded 1"),
        "{metrics}"
    );

    // While degraded, further requests neither fail nor touch the disk;
    // the memory tier replays the outcome.
    let (status, body) = daemon.request("POST", "/v1/generate", r#"{"faults": ["SAF"]}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cache_hit\":true"), "{body}");

    // Clear the fault; after the 500ms initial backoff the next store
    // doubles as a recovery probe and the disk tier comes back.
    disarm_all(&daemon);
    std::thread::sleep(Duration::from_millis(700));
    let (status, body) = daemon.request("POST", "/v1/generate", r#"{"faults": ["TF"]}"#);
    assert_eq!(status, 200, "{body}");
    let (_, stats) = daemon.request("GET", "/v1/stats", "");
    assert!(stats.contains("\"disk_degraded\":false"), "{stats}");
    let persisted = std::fs::read_dir(&cache_dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert!(persisted >= 1, "recovered store must persist entries");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A corrupt cache entry on disk is quarantined (renamed aside, counted
/// in `/v1/stats`), never served, and never poisons the request.
#[test]
fn chaos_corrupt_disk_entries_are_quarantined() {
    let cache_dir =
        std::env::temp_dir().join(format!("marchgend-chaos-rot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let request_body = r#"{"faults": ["SAF", "TF"]}"#;

    let first = Daemon::spawn(
        &["--cache-dir", cache_dir.to_str().unwrap()],
        &[],
        Stdio::inherit(),
    );
    let (status, _) = first.request("POST", "/v1/generate", request_body);
    assert_eq!(status, 200);
    first.shutdown();

    // Rot every persisted entry.
    let mut rotted = 0;
    for entry in std::fs::read_dir(&cache_dir).expect("cache dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|x| x == "json") {
            std::fs::write(&path, b"{ not json at all").expect("corrupt entry");
            rotted += 1;
        }
    }
    assert!(rotted >= 1, "the first daemon must have persisted an entry");

    let second = Daemon::spawn(
        &["--cache-dir", cache_dir.to_str().unwrap()],
        &[],
        Stdio::inherit(),
    );
    let (status, body) = second.request("POST", "/v1/generate", request_body);
    assert_eq!(status, 200, "{body}");
    // Computed fresh — the rotted entry must not be served...
    assert!(body.contains("\"cache_hit\":false"), "{body}");
    let (_, stats) = second.request("GET", "/v1/stats", "");
    assert!(!stats.contains("\"disk_quarantined\":0"), "{stats}");
    // ...and it was renamed aside, not deleted, for post-mortems.
    let quarantined = std::fs::read_dir(&cache_dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "quarantined"))
        .count();
    assert_eq!(quarantined, rotted, "every rotted entry quarantined");
    second.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// An injected panic inside a handler produces one structured 500 and
/// leaves the daemon fully healthy; injected handler errors surface as
/// structured `injected_fault` responses. Both clear on their own
/// (count-limited specs) — the "fault clears, service recovers" path,
/// configured through the environment variable rather than the admin
/// endpoint.
#[test]
fn chaos_handler_panics_and_errors_stay_structured() {
    let daemon = Daemon::spawn(
        &[],
        &[(
            "MARCHGEND_FAILPOINTS",
            "marchgend.generate=1*panic(injected chaos panic)",
        )],
        Stdio::inherit(),
    );

    // First request trips the panic: a structured 500, not a hang or a
    // dropped connection.
    let (status, body) = daemon.request("POST", "/v1/generate", r#"{"faults": ["SAF"]}"#);
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"code\":\"handler_panic\""), "{body}");

    // The panic burned its one charge: the daemon serves normally.
    let (status, body) = daemon.request("POST", "/v1/generate", r#"{"faults": ["SAF"]}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"verified\":true"), "{body}");

    // Injected handler *errors* come back as structured 500s too.
    arm(&daemon, "marchgend.generate=2*err(injected handler fault)");
    for _ in 0..2 {
        let (status, body) = daemon.request("POST", "/v1/generate", r#"{"faults": ["TF"]}"#);
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("\"code\":\"injected_fault\""), "{body}");
    }
    let (status, _) = daemon.request("POST", "/v1/generate", r#"{"faults": ["TF"]}"#);
    assert_eq!(status, 200, "the error spec burns down and service resumes");

    // The admin endpoint reflects reality: after a clear, nothing is
    // armed (burned count-limited sites stay listed until cleared).
    disarm_all(&daemon);
    let (status, body) = daemon.request("GET", "/v1/failpoints", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"enabled\":true"), "{body}");
    assert!(body.contains("\"failpoints\":[]"), "{body}");
    daemon.shutdown();
}

/// A panic injected into the `/metrics` render path produces one
/// structured 500 and must not poison the registry: the very next
/// scrape succeeds with every family intact. (Registry locks recover
/// poisoned state instead of propagating it.)
#[test]
fn chaos_metrics_panic_does_not_poison_registry() {
    let daemon = Daemon::spawn(&[], &[], Stdio::inherit());

    // Baseline: a healthy scrape with the always-on families present.
    let (status, baseline) = daemon.request("GET", "/metrics", "");
    assert_eq!(status, 200, "{baseline}");
    assert!(baseline.contains("marchgend_build_info"), "{baseline}");

    arm(&daemon, "marchgend.metrics=1*panic(injected metrics panic)");
    let (status, body) = daemon.request("GET", "/metrics", "");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"code\":\"handler_panic\""), "{body}");

    // The panic burned its one charge and left the registry usable:
    // the next scrape renders the full catalog again.
    let (status, recovered) = daemon.request("GET", "/metrics", "");
    assert_eq!(status, 200, "{recovered}");
    for family in [
        "marchgend_build_info",
        "marchgend_http_requests_total",
        "marchgend_cache_misses_total",
        "marchgend_metrics_scrapes_total",
        "marchgend_uptime_seconds",
    ] {
        assert!(recovered.contains(family), "missing {family}:\n{recovered}");
    }
    // Injected handler *errors* on the same site surface structured too.
    arm(&daemon, "marchgend.metrics=1*err(injected metrics fault)");
    let (status, body) = daemon.request("GET", "/metrics", "");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"code\":\"injected_fault\""), "{body}");
    let (status, _) = daemon.request("GET", "/metrics", "");
    assert_eq!(status, 200, "the error spec burns down and scrapes resume");
    disarm_all(&daemon);
    daemon.shutdown();
}

/// Socket-write faults: slow writes keep streams frame-correct, and a
/// stream killed by a write fault is recovered through resumption — the
/// batch result is never lost and never recomputed.
#[test]
fn chaos_socket_faults_truncate_but_resume_recovers() {
    let daemon = Daemon::spawn(&["--workers", "2"], &[], Stdio::inherit());

    // Kill the next few stream writes: the client sees a torn stream.
    arm(&daemon, "daemon.socket.write=2*err(injected write fault)");
    let body = r#"[{"faults": ["SAF"]}, {"faults": ["TF"]}]"#;
    let mut torn = StreamConn::open(&daemon.addr, "/v1/stream", Some(body));
    let torn_frames = torn.drain();
    drop(torn);
    assert!(
        torn_frames.is_empty()
            || !torn_frames
                .last()
                .unwrap()
                .starts_with("{\"event\":\"completed\""),
        "the injected write fault must tear the stream: {torn_frames:?}"
    );

    // The batch finished server-side regardless; find it via stats and
    // resume it. (The torn client may not even have seen the batch_id.)
    disarm_all(&daemon);
    let (_, stats) = daemon.request("GET", "/v1/stats", "");
    assert!(stats.contains("\"retained\":1"), "{stats}");

    // Run a fresh slow stream end to end: delays must not corrupt
    // framing, and this stream's token then proves resumption works
    // after delay-type faults too.
    arm(&daemon, "daemon.socket.write=delay(15)");
    let mut slow = StreamConn::open(&daemon.addr, "/v1/stream", Some(body));
    let slow_frames = slow.drain();
    assert_sequenced(&slow_frames, 0);
    let batch_id = batch_id_of(&slow_frames[0]);
    disarm_all(&daemon);

    let mut replay = StreamConn::open(
        &daemon.addr,
        &format!("/v1/stream?resume={batch_id}&from=0"),
        None,
    );
    assert_eq!(replay.drain(), slow_frames, "byte-identical after faults");
    daemon.shutdown();
}
