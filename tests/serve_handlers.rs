//! The daemon's handlers in-process: requests go straight to
//! [`App::handle`], no socket and no process. These cases check what
//! the App answers — response bodies, the error taxonomy, routing, the
//! RTL endpoint, and `/v1/stats` against `/metrics`. What needs a
//! socket (framing, the engine's limits and counters, shutdown, the
//! disk cache across restarts) stays in `tests/daemon_smoke.rs`.

#[allow(dead_code)]
mod common;

use common::{app, call, counter, metric_value, request, serve};
use marchgen::json::Json;
use std::process::Command;

const FAULTS: &str = r#"["SAF", "TF", "ADF", "CFin", "CFid"]"#;

/// Health, the 400/422 split, the `verify_cells` bound, 404/405
/// routing, solver pass-through and batch order.
#[test]
fn daemon_answers_bodies_errors_and_routes() {
    let app = app();

    let (status, body) = call(&app, "GET", "/v1/health", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"schema\":1"), "{body}");

    // ---- malformed and invalid documents --------------------------------
    let (status, body) = call(&app, "POST", "/v1/generate", "{not json");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("invalid_json"), "{body}");
    let (status, body) = call(&app, "POST", "/v1/generate", "{\"faults\": [\"NOPE\"]}");
    assert_eq!(status, 422, "{body}");
    // `verify_cells` is bounded at the wire: sweep cost grows ~n³, so
    // an oversized memory is refused before any work is queued.
    let (status, body) = call(
        &app,
        "POST",
        "/v1/generate",
        r#"{"faults": ["CFin"], "verify_cells": 65}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert!(
        body.contains("invalid_request") && body.contains("verify_cells"),
        "{body}"
    );
    // So is `search_threads`: pass 2 of the search spawns up to that
    // many threads. The request is refused at decode; nothing runs.
    let (status, body) = call(
        &app,
        "POST",
        "/v1/generate",
        r#"{"faults": ["SAF"], "search_threads": 65}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert!(
        body.contains("invalid_request") && body.contains("search_threads"),
        "{body}"
    );
    let (status, _) = call(&app, "GET", "/v1/missing", "");
    assert_eq!(status, 404);
    let (status, _) = call(&app, "GET", "/v1/generate", "");
    assert_eq!(status, 405);

    // ---- every JSON endpoint answers a bad body the same way ------------
    let not_utf8 = |path: &str| {
        let mut bad = request("POST", path, "");
        bad.body = vec![b'{', 0xff, b'}'];
        serve(&app, &bad)
    };
    for path in ["/v1/generate", "/v1/rtl", "/v1/batch", "/v1/stream"] {
        assert_eq!(
            not_utf8(path),
            (
                400,
                r#"{"error":{"status":400,"code":"invalid_json","message":"body is not UTF-8"}}"#
                    .to_owned()
            ),
            "{path}"
        );
        assert_eq!(
            call(&app, "POST", path, "{not json"),
            call(&app, "POST", "/v1/generate", "{not json"),
            "{path}"
        );
    }

    // ---- solver pass-through: the wire format carries the request's
    // SolverChoice end-to-end and the outcome reports the backend ------
    let (status, body) = call(
        &app,
        "POST",
        "/v1/generate",
        r#"{"faults": ["SAF"], "solver": "local-search"}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"solver\":\"local-search\""), "{body}");
    assert!(body.contains("\"verified\":true"), "{body}");
    let (status, body) = call(
        &app,
        "POST",
        "/v1/generate",
        r#"{"faults": ["SAF"], "solver": "no-such-backend"}"#,
    );
    assert_eq!(status, 422, "unknown solver must fail generation: {body}");

    // ---- batch: one hit, one fresh, in input order ----------------------
    let (status, body) = call(&app, "POST", "/v1/generate", r#"{"faults": ["SAF"]}"#);
    assert_eq!(status, 200, "{body}");
    let batch_doc = format!("[{{\"faults\": {FAULTS}}}, {{\"faults\": [\"SAF\"]}}]");
    let (status, batch_body) = call(&app, "POST", "/v1/batch", &batch_doc);
    assert_eq!(status, 200, "{batch_body}");
    assert!(batch_body.starts_with("[{\"outcome\""), "{batch_body}");
    assert_eq!(batch_body.matches("\"outcome\"").count(), 2, "{batch_body}");
    let outcomes = Json::parse(&batch_body).expect("batch JSON");
    let complexity = |index: usize| {
        outcomes.as_array().expect("array")[index]
            .get("outcome")
            .and_then(|outcome| outcome.get("complexity"))
            .and_then(Json::as_int)
    };
    assert_eq!((complexity(0), complexity(1)), (Some(10), Some(4)));

    // SAF via local search, plain SAF, and the five-model list.
    let (status, stats) = call(&app, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{stats}");
    assert_eq!(counter(&stats, "inserts"), 3, "{stats}");
    assert_eq!(counter(&stats, "hits"), 1, "{stats}");
}

/// `POST /v1/rtl` serves the SystemVerilog BIST bundle for a march
/// given directly or generated from a fault list, caches rendered
/// bundles by the canonical (march ⊕ options) key, matches the CLI
/// byte-for-byte, and shows up in `/v1/stats`.
#[test]
fn daemon_serves_rtl_bundles() {
    let app = app();
    let code_of = |body: &str| -> (String, Json) {
        let doc = Json::parse(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"));
        let code = doc
            .get("code")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no \"code\" in {body}"))
            .to_owned();
        (code, doc)
    };

    // ---- direct march path: render, then replay from the RTL cache ------
    let rtl_doc = r#"{"march": "March C-", "rtl": {"name": "march_c_minus", "addr_width": 4}}"#;
    let (status, body) = call(&app, "POST", "/v1/rtl", rtl_doc);
    assert_eq!(status, 200, "{body}");
    let (cold_code, doc) = code_of(&body);
    assert_eq!(doc.get("schema").and_then(Json::as_int), Some(1));
    assert_eq!(doc.get("lang").and_then(Json::as_str), Some("sv"));
    assert_eq!(doc.get("complexity").and_then(Json::as_int), Some(10));
    assert!(body.contains("\"cache_hit\":false"), "{body}");
    assert!(
        cold_code.contains("module march_c_minus_patgen"),
        "{cold_code}"
    );
    assert!(
        cold_code.contains("module march_c_minus_bist"),
        "{cold_code}"
    );
    assert!(cold_code.contains("module march_c_minus_tb"), "{cold_code}");

    let (status, body) = call(&app, "POST", "/v1/rtl", rtl_doc);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cache_hit\":true"), "{body}");
    let (warm_code, _) = code_of(&body);
    assert_eq!(cold_code, warm_code, "replayed bundle must be identical");

    // ---- daemon bytes ≡ CLI bytes for the same march and options --------
    let cli = Command::new(env!("CARGO_BIN_EXE_marchgen"))
        .args([
            "codegen",
            "March C-",
            "--lang",
            "sv",
            "--name",
            "march_c_minus",
            "--addr-width",
            "4",
        ])
        .output()
        .expect("run marchgen CLI");
    assert!(cli.status.success());
    assert_eq!(
        String::from_utf8(cli.stdout).unwrap(),
        cold_code,
        "daemon and CLI must emit identical SystemVerilog"
    );

    // ---- generated path: fault list → verified test → RTL ---------------
    let gen_doc = format!("{{\"faults\": {FAULTS}, \"rtl\": {{\"testbench\": false}}}}");
    let (status, body) = call(&app, "POST", "/v1/rtl", &gen_doc);
    assert_eq!(status, 200, "{body}");
    let (gen_code, doc) = code_of(&body);
    assert_eq!(doc.get("complexity").and_then(Json::as_int), Some(10));
    assert!(body.contains("\"cache_hit\":false"), "{body}");
    assert!(gen_code.contains("module march_test_patgen"), "{gen_code}");
    assert!(!gen_code.contains("module march_test_tb"), "{gen_code}");
    let (status, body) = call(&app, "POST", "/v1/rtl", &gen_doc);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cache_hit\":true"), "{body}");

    // ---- failure modes map onto the shared error taxonomy ---------------
    let (status, body) = call(&app, "POST", "/v1/rtl", "{not json");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("invalid_json"), "{body}");
    let (status, body) = call(&app, "POST", "/v1/rtl", r#"{"march": 7}"#);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("invalid_request"), "{body}");
    let (status, body) = call(&app, "POST", "/v1/rtl", r#"{"march": "{ u(r0) }"}"#);
    assert_eq!(status, 422, "uninitialized read must be rejected: {body}");
    let (status, body) = call(
        &app,
        "POST",
        "/v1/rtl",
        r#"{"march": "MATS", "rtl": {"addr_width": "ten"}}"#,
    );
    assert_eq!(status, 422, "{body}");
    let (status, body) = call(&app, "GET", "/v1/rtl", "");
    assert_eq!(status, 405, "{body}");

    // ---- stats: endpoint counter + render-cache hit/miss ----------------
    let (status, stats) = call(&app, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{stats}");
    assert_eq!(counter(&stats, "rtl"), 8, "{stats}");
    let rtl_cache = stats
        .split_once("\"rtl_cache\":")
        .map(|(_, rest)| rest)
        .expect("rtl_cache block in stats");
    assert_eq!(counter(rtl_cache, "hits"), 2, "{stats}");
    assert_eq!(counter(rtl_cache, "misses"), 2, "{stats}");
    assert_eq!(counter(rtl_cache, "resident"), 2, "{stats}");
}

/// `/v1/stats` and `GET /metrics` render one statistics table: after a
/// cold/warm request pair they must agree on cache hit counts. The
/// stats document also carries `uptime_seconds` and a `stats_seq` that
/// increases monotonically across snapshots.
#[test]
fn daemon_stats_and_metrics_agree_on_cache_hits() {
    let app = app();

    let (status, _) = call(&app, "POST", "/v1/generate", r#"{"faults": ["SAF", "TF"]}"#);
    assert_eq!(status, 200);
    let (status, warm) = call(&app, "POST", "/v1/generate", r#"{"faults": ["TF", "SAF"]}"#);
    assert_eq!(status, 200);
    assert!(warm.contains("\"cache_hit\":true"), "{warm}");

    let (status, stats) = call(&app, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{stats}");
    assert!(stats.contains("\"uptime_seconds\":"), "{stats}");
    let first_seq = counter(&stats, "stats_seq");
    assert!(first_seq >= 1, "{stats}");
    let stats_hits = counter(&stats, "hits");
    assert!(stats_hits >= 1, "{stats}");

    let (status, metrics) = call(&app, "GET", "/metrics", "");
    assert_eq!(status, 200, "{metrics}");
    let metric_hits: i64 = ["memory", "disk"]
        .iter()
        .map(|tier| {
            metric_value(
                &metrics,
                &format!("marchgend_cache_hits_total{{tier=\"{tier}\"}}"),
            )
        })
        .sum();
    assert_eq!(
        metric_hits, stats_hits,
        "stats and metrics disagree on cache hits:\n{stats}\n---\n{metrics}"
    );

    let (status, stats) = call(&app, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{stats}");
    assert!(
        counter(&stats, "stats_seq") > first_seq,
        "stats_seq must increase monotonically: {stats}"
    );
}

/// The extended workload space passes through the handlers end-to-end:
/// dynamic and linked fault classes generate, echo their grammar tokens
/// in the response document, and tick the per-class counters — whose
/// fixed vocabulary exposes zero-valued series for classes never
/// requested.
#[test]
fn daemon_serves_extended_fault_classes_and_counts_them() {
    let app = app();

    let (status, body) = call(
        &app,
        "POST",
        "/v1/generate",
        r#"{"faults": ["SAF", "dRDF<0>", "LCF<1>"]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"verified\":true"), "{body}");
    assert!(body.contains("dRDF<0>"), "{body}");
    assert!(body.contains("LCF<1>"), "{body}");

    let (status, metrics) = call(&app, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for class in ["SAF", "dRDF", "LCF"] {
        assert_eq!(
            metric_value(
                &metrics,
                &format!("marchgend_fault_class_requests_total{{fault_class=\"{class}\"}}"),
            ),
            1,
            "request counter for {class}:\n{metrics}"
        );
        assert_eq!(
            metric_value(
                &metrics,
                &format!(
                    "marchgend_fault_class_verify_total\
                     {{fault_class=\"{class}\",outcome=\"verified\"}}"
                ),
            ),
            1,
            "verify counter for {class}:\n{metrics}"
        );
    }
    // Fixed vocabulary: a class never requested still has its series.
    assert_eq!(
        metric_value(
            &metrics,
            "marchgend_fault_class_requests_total{fault_class=\"dIRF\"}",
        ),
        0,
        "{metrics}"
    );
}
