//! `marchgend` — the long-running March-test generation service.
//!
//! A dependency-free HTTP/1.1 daemon (std `TcpListener` + worker pool,
//! no async runtime): the [`marchgen::daemon`] connection engine in
//! front of the [`marchgen::serve::App`] application, which wires the
//! content-addressed outcome cache (single-flight: concurrent identical
//! requests fund one computation) to [`marchgen::service::Batch`]. This
//! binary parses flags, builds the cache, binds the server and prints
//! the banner; the endpoints, the wire format and the metrics are the
//! App's (see [`marchgen::serve`]).
//!
//! ```text
//! marchgend --addr 127.0.0.1:8378 --cache-dir .marchgen-cache
//! ```

use marchgen::cache::OutcomeCache;
use marchgen::daemon::{RateLimitConfig, Request, Server, ServerConfig};
use marchgen::serve::App;
use std::process::ExitCode;
use std::sync::Arc;

#[path = "shared/args.rs"]
#[allow(dead_code)]
mod args;
use args::{take_option, take_str_option};

const USAGE: &str = "\
marchgend — HTTP service daemon for March test generation (JSON schema v1)

usage:
  marchgend [--addr HOST:PORT] [--cache-dir DIR] [--cache-capacity N]
            [--workers N] [--queue-capacity N] [--max-body-bytes N]
            [--rate-limit PER_SECOND] [--rate-burst N]
            [--slow-request-ms N]

  --addr            listen address (default 127.0.0.1:8378; port 0 picks
                    a free port — the bound address is printed on stdout)
  --cache-dir       persist outcomes as one JSON file per request hash;
                    shared across restarts and with `marchgen --cache-dir`
  --cache-capacity  in-memory LRU size, outcomes (default 4096)
  --workers         connection worker threads (default: one per CPU)
  --queue-capacity  bounded accept queue; beyond it clients get 429
                    (default 256)
  --max-body-bytes  largest accepted request body; beyond it 413
                    (default 1048576)
  --rate-limit      per-peer connection budget, connections/second
                    (fractions accepted; 0 = unlimited, the default).
                    Over-budget peers get 429 + Retry-After before
                    reaching a worker.
  --rate-burst      per-peer burst bucket size (default: 2x rate-limit,
                    at least 1); only meaningful with --rate-limit
  --slow-request-ms warn on stderr when serving a request (handler +
                    response write) takes at least this long
                    (default 1000; 0 disables)

endpoints: POST /v1/generate, POST /v1/batch, GET|POST /v1/stream
           (?resume=ID&from=N re-attaches to a running batch),
           POST /v1/rtl, GET /v1/health, GET /v1/stats, GET /metrics,
           GET|POST /v1/failpoints, POST /v1/shutdown
";

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return Ok(());
    }
    let addr = take_str_option(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:8378".to_owned());
    let cache_dir = take_str_option(&mut args, "--cache-dir")?;
    let cache_capacity = take_option(&mut args, "--cache-capacity")?.unwrap_or(4096);
    let mut config = ServerConfig::default();
    if let Some(workers) = take_option(&mut args, "--workers")? {
        config.workers = workers;
    }
    if let Some(queue) = take_option(&mut args, "--queue-capacity")? {
        config.queue_capacity = queue;
    }
    if let Some(max_body) = take_option(&mut args, "--max-body-bytes")? {
        config.max_body_bytes = max_body;
    }
    if let Some(millis) = take_option(&mut args, "--slow-request-ms")? {
        config.slow_request_millis = millis as u64;
    }
    let take_f64 = |args: &mut Vec<String>, name: &str| -> Result<Option<f64>, String> {
        match take_str_option(args, name)? {
            None => Ok(None),
            Some(text) => text
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .map(Some)
                .ok_or_else(|| format!("{name} needs a non-negative number, got {text:?}")),
        }
    };
    let rate_limit = take_f64(&mut args, "--rate-limit")?;
    let rate_burst = take_f64(&mut args, "--rate-burst")?;
    match rate_limit {
        // 0 (the default) disables limiting entirely.
        None | Some(0.0) => {
            if rate_burst.is_some() {
                return Err("--rate-burst needs --rate-limit".to_owned());
            }
        }
        Some(per_second) => {
            // Default burst: double the sustained rate, so short spikes
            // from a healthy client pool ride through while a sustained
            // overrun still hits the limit within a couple of seconds.
            let burst = rate_burst.unwrap_or(per_second * 2.0);
            config.rate_limit = Some(RateLimitConfig::new(per_second, burst));
        }
    }
    if !args.is_empty() {
        return Err(format!("unrecognized arguments {args:?}\n\n{USAGE}"));
    }

    let mut cache = OutcomeCache::new(cache_capacity);
    if let Some(dir) = &cache_dir {
        cache = cache
            .with_disk(dir)
            .map_err(|e| format!("cannot open cache dir {dir:?}: {e}"))?;
    }
    let app = Arc::new(App::new(cache));
    let handler_app = Arc::clone(&app);
    let server = Server::bind(addr.as_str(), config, move |request: &Request| {
        handler_app.handle(request)
    })
    .map_err(|e| format!("cannot bind {addr:?}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    app.set_server_stats(server.stats());

    // One parseable line on stdout: smoke tests and process managers
    // scrape the bound address from it (important with port 0). Writes
    // are fallible on purpose — a supervisor may close the pipe after
    // scraping, and a dead stdout must not kill a draining daemon.
    use std::io::Write as _;
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "marchgend listening on http://{bound}");
    let _ = stdout.flush();

    server.run();
    let _ = writeln!(stdout, "marchgend: drained and shut down");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
