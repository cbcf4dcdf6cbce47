//! Integration reproduction of the paper's **Table 3**: every row's fault
//! list must generate a March test with the published complexity,
//! verified complete by the fault simulator and non-redundant by both the
//! set-covering statement (§6) and operation-deletion analysis.

use marchgen::prelude::*;
use marchgen::sim::matrix::CoverageMatrix;
use marchgen::sim::redundancy;

struct Row {
    faults: &'static str,
    paper_complexity: usize,
    known_equivalent: Option<&'static str>,
}

fn rows() -> Vec<Row> {
    vec![
        Row {
            faults: "SAF",
            paper_complexity: 4,
            known_equivalent: Some("MATS"),
        },
        Row {
            faults: "SAF, TF",
            paper_complexity: 5,
            known_equivalent: Some("MATS+"),
        },
        Row {
            faults: "SAF, TF, ADF",
            paper_complexity: 6,
            known_equivalent: Some("MATS++"),
        },
        Row {
            faults: "SAF, TF, ADF, CFin",
            paper_complexity: 6,
            known_equivalent: Some("March X"),
        },
        Row {
            faults: "SAF, TF, ADF, CFin, CFid",
            paper_complexity: 10,
            known_equivalent: Some("March C-"),
        },
        // Row 6: the published 5n test covers the victim-forced-to-one
        // idempotent coupling subset; see DESIGN.md for the decoding.
        Row {
            faults: "CFid<u,1>, CFid<d,1>",
            paper_complexity: 5,
            known_equivalent: None,
        },
    ]
}

fn generate(faults: &str) -> (GenerateOutcome, Vec<FaultModel>) {
    let models = parse_fault_list(faults).expect("row parses");
    let outcome = marchgen::generate(&GenerateRequest::new(models.clone())).expect("row generates");
    (outcome, models)
}

#[test]
fn row1_saf_is_4n() {
    let (out, _) = generate("SAF");
    assert_eq!(out.test.complexity(), 4, "{}", out.test);
    assert!(out.verified);
}

#[test]
fn row2_saf_tf_is_5n() {
    let (out, _) = generate("SAF, TF");
    assert_eq!(out.test.complexity(), 5, "{}", out.test);
    assert!(out.verified);
}

#[test]
fn row3_saf_tf_adf_is_6n() {
    let (out, _) = generate("SAF, TF, ADF");
    assert_eq!(out.test.complexity(), 6, "{}", out.test);
    assert!(out.verified);
}

#[test]
fn row4_with_cfin_is_6n() {
    let (out, _) = generate("SAF, TF, ADF, CFin");
    assert_eq!(out.test.complexity(), 6, "{}", out.test);
    assert!(out.verified);
}

#[test]
fn row5_with_cfid_is_10n() {
    let (out, _) = generate("SAF, TF, ADF, CFin, CFid");
    assert_eq!(out.test.complexity(), 10, "{}", out.test);
    assert!(out.verified);
}

#[test]
fn row6_cfid_subset_is_5n() {
    let (out, _) = generate("CFid<u,1>, CFid<d,1>");
    assert_eq!(out.test.complexity(), 5, "{}", out.test);
    assert!(out.verified);
}

#[test]
fn all_rows_are_operationally_non_redundant() {
    for row in rows() {
        let (out, models) = generate(row.faults);
        assert_eq!(
            out.non_redundant,
            Some(true),
            "{}: {} has a deletable operation",
            row.faults,
            out.test
        );
        assert!(redundancy::is_non_redundant(&out.test, &models, 4));
    }
}

#[test]
fn all_rows_pass_the_section6_set_covering_statement() {
    for row in rows() {
        let (out, models) = generate(row.faults);
        let cm = CoverageMatrix::build(&out.test, &models, 4);
        assert!(
            cm.all_columns_covered(),
            "{}: {}\n{}",
            row.faults,
            out.test,
            cm
        );
        let verdict = cm.non_redundancy();
        assert!(
            verdict.minimum_cover == verdict.useful_blocks,
            "{}: set covering found a redundant block in {} ({} of {} needed)",
            row.faults,
            out.test,
            verdict.minimum_cover,
            verdict.useful_blocks
        );
    }
}

#[test]
fn generated_tests_match_known_equivalents() {
    for row in rows() {
        let Some(name) = row.known_equivalent else {
            continue;
        };
        let (out, models) = generate(row.faults);
        let known_test = known::by_name(name).expect("library test exists");
        assert_eq!(
            out.test.complexity(),
            known_test.complexity(),
            "{}: complexity differs from {name}",
            row.faults
        );
        if name == "MATS+" {
            // Classical theory: MATS+ covers SAF+AF but *not* TF (its
            // trailing w0 is never verified). The paper's row-2
            // "equivalent" is complexity-equivalence only; our verified
            // 5n test is strictly stronger. Recorded in EXPERIMENTS.md.
            assert!(
                !covers_all(&known_test, &models, 4),
                "MATS+ unexpectedly covers TF — simulator semantics drifted"
            );
        } else {
            // Rows 1, 3, 4, 5: the comparators genuinely cover their
            // fault lists — a cross-validation of the fault modelling.
            assert!(
                covers_all(&known_test, &models, 4),
                "{name} should cover {}",
                row.faults
            );
        }
    }
}

#[test]
fn paper_complexities_summary() {
    let got: Vec<usize> = rows()
        .iter()
        .map(|r| generate(r.faults).0.test.complexity())
        .collect();
    let want: Vec<usize> = rows().iter().map(|r| r.paper_complexity).collect();
    assert_eq!(got, want, "Table 3 complexity column");
}
