//! Determinism of the in-request candidate search: the worker thread
//! count is a pure wall-clock knob. Running the same request on 1, 2 and
//! 8 search threads must yield **byte-identical** `GenerateOutcome` JSON
//! once the (inherently run-varying) wall-clock timings are normalized —
//! every other field, down to the per-set and per-sweep timing *counts*
//! and the candidate-complexity frontier, is exact. Likewise, verifying
//! with the scalar oracle instead of the packed backend must never change
//! what the pipeline computes, only how fast.

use marchgen::json::ToJson;
use marchgen::prelude::*;
use marchgen::{generate_with, SimVerifier};

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

/// The default request at 1, 2 and 8 search threads: the search
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

/// The branch-and-bound backend, which plans through the trait's
/// default per-set family solve rather than shared Held–Karp tables, is
/// deterministic too: outcomes are byte-identical across search thread
/// counts.
#[test]
fn branch_bound_solver_json_is_byte_identical_across_thread_counts() {
    use marchgen::SolverChoice;
    for faults in ["SAF, TF", "CFid<u,1>, CFid<d,1>", "CFin, CFid"] {
        let base = GenerateRequest::from_fault_list(faults)
            .unwrap()
            .with_solver(SolverChoice::BranchBound)
            .with_check_redundancy(true);
        let reference = normalized_json(generate(&base.clone().with_search_threads(1)).unwrap());
        for threads in [2usize, 8] {
            let sharded =
                normalized_json(generate(&base.clone().with_search_threads(threads)).unwrap());
            assert_eq!(
                sharded, reference,
                "{faults}: branch-and-bound with {threads} search threads diverged"
            );
        }
    }
}

/// The verifier backend is *not* supposed to leak into the outcome: the
/// scalar oracle, passed in through `generate_with`, and the packed
/// backend serialize identically once the backend's name is blanked,
/// with one verify timing per sweep on both.
#[test]
fn verifier_backend_does_not_change_outcome_json() {
    for faults in ["SAF, CFin", "CFid<u,0>, CFid<u,1>"] {
        let base = GenerateRequest::from_fault_list(faults)
            .unwrap()
            .with_check_redundancy(true);
        let oracle = SimVerifier::new(base.verify_cells);
        let scalar = generate_with(&base, &marchgen::atsp::AutoSolver, Some(&oracle)).unwrap();
        assert_eq!(scalar.diagnostics.verifier, "simulator", "{faults}");
        let packed = backend_normalized_json(generate(&base).unwrap());
        assert_eq!(packed, backend_normalized_json(scalar), "{faults}");
    }
}

/// Pass 2's output is pinned, not only its complexity: six
/// `search_heavy` lists whose TP sets reach the default `tour_cap`, at
/// 4 cells on one search thread, hash their normalized outcome JSON to
/// digests taken before tours were streamed into the scheduler. A
/// change of tie order, of the cut at `tour_cap` or of the packed
/// candidates' order that keeps every complexity still changes the
/// winning tour, the candidate frontier or a count, and so a digest.
#[test]
fn search_heavy_outcomes_match_their_pinned_digests() {
    for (faults, digest) in [
        ("SAF, TF, ADF, CFin", "dacc5d8b9801765bc0032b97b98222ee"),
        ("CFst, DRF", "91588cb83e068d77913b433c4e224082"),
        ("SOF, ADF, CFin", "4a78a894c9de2227a7c99b52dbe345fc"),
        ("ADF, CFin, dDRDF", "19c212d769f2bd02ca2a421b74fd076c"),
        ("ADF, CFin, DRDF", "260a66353808300151b24cef7aee370b"),
        ("CFst", "5ab70c7657b4d3f1b818ffa752464029"),
    ] {
        let request = GenerateRequest::from_fault_list(faults)
            .unwrap()
            .with_verify_cells(4)
            .with_search_threads(1);
        let json = normalized_json(generate(&request).unwrap());
        let got = marchgen::cache::key_for_text(&json).to_string();
        assert_eq!(got, digest, "{faults}");
    }
}
