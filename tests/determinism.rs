//! Determinism of the in-request candidate search: the worker thread
//! count is a pure wall-clock knob. Running the same request on 1, 2 and
//! 8 search threads must yield **byte-identical** `GenerateOutcome` JSON
//! once the (inherently run-varying) wall-clock timings are normalized —
//! every other field, down to the per-set and per-sweep timing *counts*
//! and the candidate-complexity frontier, is exact. Likewise, swapping
//! the verification backend (packed `auto` / `scalar`) must never change
//! what the pipeline computes, only how fast.

#![cfg(feature = "serde")]

use marchgen::json::ToJson;
use marchgen::prelude::*;

/// Zeroes the wall-clock fields; everything else must match exactly.
/// The *number* of search shard timings is preserved — it equals the
/// unique TP set count — and so is the number of verify timings — one
/// per coverage sweep. Neither may depend on the thread count.
fn normalized_json(mut outcome: GenerateOutcome) -> String {
    outcome.diagnostics.expand_micros = 0;
    outcome.diagnostics.search_micros = 0;
    outcome.diagnostics.verify_micros = 0;
    outcome.diagnostics.shard_micros = vec![0; outcome.diagnostics.shard_micros.len()];
    outcome.diagnostics.verify_shard_micros =
        vec![0; outcome.diagnostics.verify_shard_micros.len()];
    outcome.to_json_pretty()
}

/// Additionally blanks `diagnostics.verifier`, the one field that
/// legitimately names the verification backend — for cross-backend
/// comparisons, where everything else, the number of verify timings
/// included (both backends time the same sweeps), must still match
/// byte-for-byte.
fn backend_normalized_json(mut outcome: GenerateOutcome) -> String {
    outcome.diagnostics.verifier = String::new();
    normalized_json(outcome)
}

/// The default `auto` verifier at 1, 2 and 8 search threads: the search
/// partitions run on worker threads, and the JSON is byte-identical.
#[test]
fn sharded_search_json_is_byte_identical_across_thread_counts() {
    for faults in [
        "SAF, TF",
        "SAF, TF, ADF, CFin",
        "CFid<u,1>, CFid<d,1>",
        "CFin, CFid",
    ] {
        let base = GenerateRequest::from_fault_list(faults)
            .unwrap()
            .with_check_redundancy(true);
        let reference = normalized_json(generate(&base.clone().with_search_threads(1)).unwrap());
        for threads in [2usize, 8] {
            let sharded =
                normalized_json(generate(&base.clone().with_search_threads(threads)).unwrap());
            assert_eq!(
                sharded, reference,
                "{faults}: {threads} search threads diverged from serial"
            );
        }
    }
}

/// The packed backend's verify phase is deterministic too: every
/// coverage sweep runs on the calling thread and records one timing, so
/// 1, 2 and 8 search threads produce byte-identical JSON — including the
/// length of `verify_shard_micros`.
#[test]
fn sharded_verify_json_is_byte_identical_across_thread_counts() {
    for faults in ["SAF, CFin", "SAF, TF, ADF, CFin", "CFin, CFid"] {
        let base = GenerateRequest::from_fault_list(faults)
            .unwrap()
            .with_verifier(VerifierChoice::Auto)
            .with_check_redundancy(true);
        let reference = normalized_json(generate(&base.clone().with_search_threads(1)).unwrap());
        for threads in [2usize, 8] {
            let sharded =
                normalized_json(generate(&base.clone().with_search_threads(threads)).unwrap());
            assert_eq!(
                sharded, reference,
                "{faults}: verify at {threads} search threads diverged from serial"
            );
        }
    }
}

/// The inexact local-search backend is deterministic too: its restart
/// RNG is fixed-seeded and per-instance, so outcomes (including the
/// solver iteration/restart diagnostics) are byte-identical across
/// search thread counts.
#[test]
fn local_search_solver_json_is_byte_identical_across_thread_counts() {
    use marchgen::SolverChoice;
    for faults in ["SAF, TF", "CFid<u,1>, CFid<d,1>", "CFin, CFid"] {
        let base = GenerateRequest::from_fault_list(faults)
            .unwrap()
            .with_solver(SolverChoice::LocalSearch)
            .with_check_redundancy(true);
        let reference = normalized_json(generate(&base.clone().with_search_threads(1)).unwrap());
        for threads in [2usize, 8] {
            let sharded =
                normalized_json(generate(&base.clone().with_search_threads(threads)).unwrap());
            assert_eq!(
                sharded, reference,
                "{faults}: local search with {threads} search threads diverged"
            );
        }
    }
}

/// The verifier backend is *not* supposed to leak into the outcome:
/// scalar and packed verification serialize identically once the
/// backend's name is blanked, with one verify timing per sweep on both.
#[test]
fn verifier_backend_does_not_change_outcome_json() {
    for faults in ["SAF, CFin", "CFid<u,0>, CFid<u,1>"] {
        let base = GenerateRequest::from_fault_list(faults)
            .unwrap()
            .with_check_redundancy(true);
        let scalar = backend_normalized_json(
            generate(&base.clone().with_verifier(VerifierChoice::Scalar)).unwrap(),
        );
        let packed = backend_normalized_json(generate(&base).unwrap());
        assert_eq!(packed, scalar, "{faults}");
    }
}
