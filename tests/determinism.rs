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

/// The requests whose cache keys are pinned: the Table 3 rows,
/// `ADF, CFin, CFst`, and requests with non-default knobs, repeated and
/// unsorted faults, clamped caps, a custom solver name and a retired
/// solver alias.
fn keyed_requests() -> Vec<(String, GenerateRequest)> {
    use marchgen::json::FromJson;
    use marchgen::tpg::StartPolicy;
    use marchgen::SolverChoice;
    let list = |faults: &str| GenerateRequest::from_fault_list(faults).unwrap();
    let mut requests: Vec<(String, GenerateRequest)> = marchgen_bench::TABLE3
        .iter()
        .map(|row| row.faults)
        .chain(["ADF, CFin, CFst"])
        .map(|faults| (faults.to_owned(), list(faults)))
        .collect();
    let mut clamped = list("CFin, SAF, SA0, TF<d>, CFin<u>");
    clamped.tour_cap = 0;
    clamped.max_combinations = 0;
    requests.extend([
        (
            "every knob".to_owned(),
            list("SAF, TF")
                .with_start_policy(StartPolicy::Free)
                .with_solver(SolverChoice::BranchBound)
                .with_tour_cap(7)
                .with_verify_cells(6)
                .with_compact(false)
                .with_check_redundancy(true)
                .with_max_combinations(9)
                .with_search_threads(3),
        ),
        (
            "no verification".to_owned(),
            list("CFid<u,1>, CFid<d,1>").with_verify_cells(0),
        ),
        (
            "extended classes".to_owned(),
            list("LCF, dDRDF, SOF, dIRF<1>").with_solver(SolverChoice::Heuristic),
        ),
        ("clamped".to_owned(), clamped),
        (
            "custom solver".to_owned(),
            list("SAF").with_solver(SolverChoice::from_key("my-solver")),
        ),
        (
            "retired alias".to_owned(),
            GenerateRequest::from_json_str(
                r#"{"faults": ["SAF", "CFst<1,0>", "SAF"], "solver": "held-karp"}"#,
            )
            .unwrap(),
        ),
    ]);
    requests
}

/// A disk entry is named by its request's key and holds the key text,
/// so a changed text orphans every stored entry. The keys of these
/// requests, and the keys they had under the previous schema tag, are
/// pinned to digests taken before the key text was built in place.
#[test]
fn cache_keys_match_their_pinned_digests() {
    use marchgen::cache::{canonical_key_text, key_for_text, previous_schema_key};
    let pinned = [
        (
            "SAF",
            "1c0b42d01a66ef3a31b8edc1d60070e7",
            "266152109a7f430bfc767847e8a249ac",
        ),
        (
            "SAF, TF",
            "baac5262e8e200e362994e5c297c7dad",
            "d39ea7f93f633b66d8ab13c5c59166ca",
        ),
        (
            "SAF, TF, ADF",
            "638708479418c2b0ace226acea1d9b92",
            "a2ff64fc931edb9cabbb08f80ffb85a9",
        ),
        (
            "SAF, TF, ADF, CFin",
            "83d1760c4f7225952f80c97b8fccd988",
            "403dada5cb87fee36c0729f5681cf9b7",
        ),
        (
            "SAF, TF, ADF, CFin, CFid",
            "3b37c91e20c1b35df67b5c6f1cc62228",
            "729f74cf9fd763ad31ed76a65ea1962f",
        ),
        (
            "CFid<u,1>, CFid<d,1>",
            "e751be839c24f5dcafa771ab059a5aa0",
            "e152413a2cdb8bc47438cb4d789e8487",
        ),
        (
            "ADF, CFin, CFst",
            "57b881f0b822595bff2d834a5c82656f",
            "96f06812def254c47b1858e985b0ccbc",
        ),
        (
            "every knob",
            "419a9fb2fa8b782081e365d3eb5b2f52",
            "28cb0db5b9ac5df8f611af38316ff1b3",
        ),
        (
            "no verification",
            "75bbbbcf36a5399944aa7ad97ba9e814",
            "6544bbc94e5e1b2afe6c4600b899cadb",
        ),
        (
            "extended classes",
            "21e2645dda6d8360f7d82443adda0fc9",
            "155b9e8bf8b0614cf8f15f2650b26038",
        ),
        (
            "clamped",
            "4f21338bc089ccca3cf81646b7f0575d",
            "0c22bfd83d5e91dc818cd21b27ceaf6e",
        ),
        (
            "custom solver",
            "d2bbcdbdc2fd272b3d93edfb9a5b9550",
            "9664f666adcf24457a7f805ea19558e9",
        ),
        (
            "retired alias",
            "5d6169b02acc1e711c401285cf9b8abc",
            "9a57340e5bdd3d9b83ff53c26ff24723",
        ),
    ];
    let requests = keyed_requests();
    assert_eq!(requests.len(), pinned.len());
    for ((name, request), (label, key, previous)) in requests.iter().zip(pinned) {
        assert_eq!(name, label);
        let got = key_for_text(&canonical_key_text(request)).to_string();
        let got_previous = previous_schema_key(request).to_string();
        assert_eq!(
            (got.as_str(), got_previous.as_str()),
            (key, previous),
            "{name}"
        );
    }
}
