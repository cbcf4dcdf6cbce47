//! The daemon's handlers in-process: requests go straight to
//! [`App::handle`], no socket and no process. These cases check what
//! the App answers — response bodies, the error taxonomy, routing, the
//! RTL endpoint, and `/v1/stats` against `/metrics`. What needs a
//! socket (framing, the engine's limits and counters, shutdown, the
//! disk cache across restarts) stays in `tests/daemon_smoke.rs`.

#[allow(dead_code)]
mod common;

use common::{app, call, counter, metric_value, request, serve};
use marchgen::json::{FromJson, Json, ToJson};
use marchgen::GenerateOutcome;
use marchgen_bench::TABLE3;
use std::process::Command;

const FAULTS: &str = r#"["SAF", "TF", "ADF", "CFin", "CFid"]"#;

/// `tour_cap` and `max_combinations` are bounded at the wire: pass 2
/// holds a candidate per scheduled tour, so a body under 100 bytes could
/// otherwise ask for gigabytes. A value past its bound is a 422
/// `invalid_request` that names the field and the bound, before any work
/// is queued; `SAF` at the bounds is answered.
#[test]
fn search_caps_are_bounded_at_the_wire() {
    let app = app();
    for (key, value, bound) in [
        ("tour_cap", 257, "256"),
        ("tour_cap", 1_048_576, "256"),
        ("max_combinations", 16_385, "16384"),
        ("max_combinations", 1_048_576, "16384"),
    ] {
        let body = format!(r#"{{"faults": ["SAF"], "{key}": {value}}}"#);
        let (status, answer) = call(&app, "POST", "/v1/generate", &body);
        assert_eq!(status, 422, "{body}: {answer}");
        assert!(
            answer.contains("invalid_request")
                && answer.contains(key)
                && answer.contains(&format!("at most {bound}")),
            "{body}: {answer}"
        );
    }
    for body in [
        r#"{"faults": ["SAF"], "tour_cap": 256}"#,
        r#"{"faults": ["SAF"], "max_combinations": 16384}"#,
        r#"{"faults": ["SAF"], "tour_cap": 256, "max_combinations": 16384}"#,
    ] {
        let (status, answer) = call(&app, "POST", "/v1/generate", body);
        assert_eq!(status, 200, "{body}: {answer}");
        let outcome = GenerateOutcome::from_json_str(&answer).unwrap();
        assert!(outcome.verified, "{body}");
        assert_eq!(outcome.complexity(), 4, "{body}");
    }
}

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
        r#"{"faults": ["SAF"], "solver": "branch-bound"}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"solver\":\"branch-bound\""), "{body}");
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

    // SAF via branch-and-bound, plain SAF, and the five-model list.
    let (status, stats) = call(&app, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{stats}");
    assert_eq!(counter(&stats, "inserts"), 3, "{stats}");
    assert_eq!(counter(&stats, "hits"), 1, "{stats}");

    // A retired backend name decodes as `auto`: it keys like plain SAF
    // and is answered from that entry, naming `auto`.
    let (status, body) = call(
        &app,
        "POST",
        "/v1/generate",
        r#"{"faults": ["SAF"], "solver": "local-search"}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"solver\":\"auto\""), "{body}");
    assert!(body.contains("\"cache_hit\":true"), "{body}");
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

/// A `/v1/generate` hit answers with the cache entry's stored document.
/// For the Table 3 rows and `ADF, CFin, CFst` (a document of over
/// 300 KB): the second response is exactly the first outcome
/// re-rendered with `cache_hit: true`; a traced hit still carries its
/// `request`/`decode`/`generate`/`render` span tree; a later
/// `/v1/batch` of the same requests replays the computed outcomes; and
/// `/v1/stats` counts every hit as a memory hit.
#[test]
fn generate_hits_replay_the_computed_outcome() {
    let app = app();
    let bodies: Vec<String> = TABLE3
        .iter()
        .map(|row| row.faults)
        .chain(["ADF, CFin, CFst"])
        .map(|faults| {
            let names: Vec<Json> = faults.split(", ").map(Json::from).collect();
            Json::object([("faults", Json::array(names))]).render()
        })
        .collect();

    let mut computed = Vec::new();
    for body in &bodies {
        let (status, first) = call(&app, "POST", "/v1/generate", body);
        assert_eq!(status, 200, "{first}");
        let outcome = GenerateOutcome::from_json_str(&first).expect("outcome document");
        assert!(!outcome.diagnostics.cache_hit, "{body}");
        let mut replay = outcome.clone();
        replay.diagnostics.cache_hit = true;
        let (status, second) = call(&app, "POST", "/v1/generate", body);
        assert_eq!(status, 200, "{second}");
        assert!(
            second == replay.to_json().render(),
            "{body}: the hit is not the replay"
        );
        computed.push((first.len(), outcome));
    }
    assert!(computed.last().unwrap().0 > 300_000, "the large document");

    for body in &bodies {
        let (status, traced) = call(&app, "POST", "/v1/generate?trace=1", body);
        assert_eq!(status, 200, "{traced}");
        let doc = Json::parse(&traced).expect("traced document");
        let diagnostics = doc.get("diagnostics").expect("diagnostics");
        assert_eq!(diagnostics.get("cache_hit"), Some(&Json::Bool(true)));
        let trace = diagnostics
            .get("trace")
            .expect("a traced hit carries its trace");
        assert_eq!(trace.get("name").and_then(Json::as_str), Some("request"));
        let spans: Vec<&str> = trace
            .get("children")
            .and_then(Json::as_array)
            .expect("request children")
            .iter()
            .map(|span| span.get("name").and_then(Json::as_str).expect("span name"))
            .collect();
        assert_eq!(spans, ["decode", "generate", "render"], "{body}");
    }

    let (status, replies) = call(
        &app,
        "POST",
        "/v1/batch",
        &format!("[{}]", bodies.join(",")),
    );
    assert_eq!(status, 200);
    let replies = Json::parse(&replies).expect("batch document");
    let replies = replies.as_array().expect("batch array");
    assert_eq!(replies.len(), computed.len());
    for (reply, (_, outcome)) in replies.iter().zip(&computed) {
        let mut replayed =
            GenerateOutcome::from_json(reply.get("outcome").expect("outcome entry")).unwrap();
        assert!(replayed.diagnostics.cache_hit);
        replayed.diagnostics.cache_hit = false;
        assert_eq!(&replayed, outcome);
    }

    let (status, stats) = call(&app, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{stats}");
    let stats = Json::parse(&stats).expect("stats document");
    let cache = stats.get("cache").expect("cache block");
    let read = |key: &str| cache.get(key).and_then(Json::as_int);
    let rows = i64::try_from(bodies.len()).unwrap();
    assert_eq!(read("memory_hits"), Some(3 * rows), "{stats:?}");
    assert_eq!(read("disk_hits"), Some(0));
    assert_eq!(read("misses"), Some(rows));
}

/// Appends `trace` to a document's `diagnostics` object and renders
/// it: what a traced answer used to be built as.
fn attach_then_render(mut document: Json, trace: Json) -> String {
    let Json::Object(members) = &mut document else {
        panic!("an outcome document is an object")
    };
    let Some((_, Json::Object(diagnostics))) = members.iter_mut().find(|(k, _)| k == "diagnostics")
    else {
        panic!("an outcome document has diagnostics")
    };
    diagnostics.push(("trace".to_owned(), trace));
    document.render()
}

/// A traced `/v1/generate` answer is the outcome document with the span
/// tree spliced in as the last member of `diagnostics`. For the Table 3
/// rows and `ADF, CFin, CFst`, on a miss and on a hit, it is byte for
/// byte the decoded outcome re-encoded with `trace` appended to its
/// diagnostics; a traced hit is also the stored document (the untraced
/// hit's body) with its own trace attached. Both trees time `decode`,
/// `generate` and `render` under `request`.
#[test]
fn traced_answers_splice_the_trace_into_the_document() {
    let app = app();
    for faults in TABLE3
        .iter()
        .map(|row| row.faults)
        .chain(["ADF, CFin, CFst"])
    {
        let names: Vec<Json> = faults.split(", ").map(Json::from).collect();
        let body = Json::object([("faults", Json::array(names))]).render();
        let (status, miss) = call(&app, "POST", "/v1/generate?trace=1", &body);
        assert_eq!(status, 200, "{miss}");
        let (status, hit) = call(&app, "POST", "/v1/generate?trace=1", &body);
        assert_eq!(status, 200, "{hit}");
        let (status, stored) = call(&app, "POST", "/v1/generate", &body);
        assert_eq!(status, 200, "{stored}");
        for (traced, cache_hit) in [(&miss, false), (&hit, true)] {
            let Json::Object(mut members) = Json::parse(traced).expect("traced document") else {
                panic!("{faults}: not an object")
            };
            let Some((key, Json::Object(mut diagnostics))) = members.pop() else {
                panic!("{faults}: the last member is not an object")
            };
            assert_eq!(key, "diagnostics", "{faults}");
            let (key, trace) = diagnostics.pop().expect("a diagnostics member");
            assert_eq!(key, "trace", "{faults}: trace is the last member");
            members.push(("diagnostics".to_owned(), Json::Object(diagnostics)));
            let outcome = GenerateOutcome::from_json(&Json::Object(members)).unwrap();
            assert_eq!(outcome.diagnostics.cache_hit, cache_hit, "{faults}");
            assert!(
                *traced == attach_then_render(outcome.to_json(), trace.clone()),
                "{faults}: the traced answer (cache hit {cache_hit}) is not attach-then-render"
            );
            assert_eq!(trace.get("name").and_then(Json::as_str), Some("request"));
            let spans: Vec<&str> = trace
                .get("children")
                .and_then(Json::as_array)
                .expect("request children")
                .iter()
                .map(|span| span.get("name").and_then(Json::as_str).expect("span name"))
                .collect();
            assert_eq!(spans, ["decode", "generate", "render"], "{faults}");
            if cache_hit {
                let expected = attach_then_render(Json::parse(&stored).unwrap(), trace);
                assert!(
                    *traced == expected,
                    "{faults}: the traced hit is not the stored document plus its trace"
                );
            }
        }
    }
}
