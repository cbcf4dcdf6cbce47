//! Integration tests for the fault models beyond Table 3 — stuck-open,
//! data-retention and read faults (the extensions the paper's reference
//! [6] motivates) — and for pipeline configuration knobs.

use marchgen::prelude::*;
use marchgen::tpg::StartPolicy;

fn generate(list: &str) -> GenerateOutcome {
    marchgen::generate(&GenerateRequest::from_fault_list(list).expect("parses")).expect("generates")
}

#[test]
fn stuck_open_generates_a_verified_test() {
    let out = generate("SOF");
    assert!(out.verified, "{}", out.test);
    // Detection needs the read-write-read element shape; 3 accesses is
    // the floor (r, w, r after an initializing write element).
    assert!(out.test.complexity() >= 3, "{}", out.test);
}

#[test]
fn data_retention_generates_delay_elements() {
    let out = generate("DRF");
    assert!(out.verified, "{}", out.test);
    assert!(
        out.test.delay_count() >= 2,
        "two decay directions: {}",
        out.test
    );
}

#[test]
fn read_destructive_family() {
    for list in ["RDF", "DRDF", "IRF"] {
        let out = generate(list);
        assert!(out.verified, "{list}: {}", out.test);
    }
}

#[test]
fn state_coupling_generates() {
    let out = generate("CFst");
    assert!(out.verified, "{}", out.test);
    // March C- covers CFst at 10n; the generator must not do worse.
    assert!(out.test.complexity() <= 10, "{}", out.test);
}

#[test]
fn kitchen_sink_static_faults() {
    // Every non-delay, non-SOF model at once.
    let out = generate("SAF, TF, ADF, CFin, CFid, CFst, RDF, DRDF, IRF");
    assert!(out.verified, "{}", out.test);
    // March SS covers the simple static faults at 22n; ours targets a
    // subset and must stay well under.
    assert!(out.test.complexity() <= 22, "{}", out.test);
}

#[test]
fn full_catalog_with_retention_and_sof() {
    let out = generate("SAF, TF, SOF, ADF, CFin, CFid, DRF");
    assert!(out.verified, "{}", out.test);
    assert!(out.test.delay_count() >= 2, "{}", out.test);
}

#[test]
fn free_start_policy_is_never_better_than_uniform_on_table3() {
    for list in ["SAF", "SAF, TF", "CFid<u,1>, CFid<d,1>"] {
        let uniform = generate(list);
        let request = GenerateRequest::from_fault_list(list)
            .unwrap()
            .with_start_policy(StartPolicy::Free);
        let free = marchgen::generate(&request).unwrap();
        assert!(free.verified);
        // f.4.4's point: the uniform constraint does not hurt, and it is
        // what yields the minimal March complexity.
        assert!(
            uniform.test.complexity() <= free.test.complexity(),
            "{list}: uniform {} vs free {}",
            uniform.test,
            free.test
        );
    }
}

#[test]
fn verification_reports_cover_every_requested_model() {
    let models = parse_fault_list("SAF, TF, CFin").unwrap();
    let out = marchgen::generate(&GenerateRequest::new(models.clone())).unwrap();
    let report = out.report.expect("verification ran");
    assert_eq!(report.models.len(), models.len());
    assert!(report.complete());
    assert!(report.total_sites() > 0);
}

#[test]
fn generated_tests_also_verify_on_larger_memories() {
    // Verified on 4 cells during generation; spot-check on 6 cells.
    let out = generate("SAF, TF, CFin");
    let models = parse_fault_list("SAF, TF, CFin").unwrap();
    assert!(covers_all(&out.test, &models, 6), "{}", out.test);
}

#[test]
fn single_model_roundtrips() {
    // Each catalog family alone must generate and verify.
    for list in [
        "SA0",
        "SA1",
        "TF<u>",
        "TF<d>",
        "ADF<w>",
        "ADF<r>",
        "CFin<u>",
        "CFin<d>",
        "CFid<u,0>",
        "CFid<d,1>",
        "CFst<0,1>",
        "RDF<0>",
        "DRDF<1>",
        "IRF<0>",
        "DRF<1>",
    ] {
        let out = generate(list);
        assert!(out.verified, "{list}: {}", out.test);
        assert_eq!(out.non_redundant, Some(true), "{list}: {}", out.test);
    }
}
