//! Cross-validation of the static detection-condition analyzer
//! (`march::analysis`, van de Goor's theorems) against the behavioural
//! fault simulator: whenever a *sufficient* condition holds for a test,
//! the simulator must confirm full coverage of the family. This guards
//! the theorem implementation and the simulator semantics against each
//! other.

use marchgen::march::analysis::{analyze, Conditions};
use marchgen::prelude::*;

type FamilyFlags = Vec<(&'static str, bool)>;

fn families(c: &Conditions) -> FamilyFlags {
    vec![
        ("SAF", c.saf),
        ("TF", c.tf),
        ("ADF", c.af),
        ("SOF", c.sof),
        ("DRF", c.drf),
    ]
}

#[test]
fn conditions_are_sufficient_for_simulated_coverage() {
    let n = 4;
    for (name, test) in known::all() {
        let conditions = analyze(&test);
        for (family, holds) in families(&conditions) {
            if holds {
                let models = parse_fault_list(family).expect("family parses");
                assert!(
                    covers_all(&test, &models, n),
                    "{name}: {family} condition holds but the simulator finds an escape"
                );
            }
        }
    }
}

#[test]
fn conditions_hold_on_generated_tests() {
    // The generator's outputs must satisfy the conditions of the families
    // they were generated for (where a condition exists).
    type Check = fn(&Conditions) -> bool;
    let cases: [(&str, Check); 4] = [
        ("SAF", |c| c.saf),
        ("SAF, TF", |c| c.saf && c.tf),
        ("SOF", |c| c.sof),
        ("DRF", |c| c.drf),
    ];
    for (list, check) in cases {
        let out = generate(&GenerateRequest::from_fault_list(list).unwrap()).unwrap();
        assert!(out.verified, "{list}");
        let conditions = analyze(&out.test);
        assert!(
            check(&conditions),
            "{list}: generated test {} does not satisfy its own static condition",
            out.test
        );
    }
}

#[test]
fn af_condition_matches_simulator_on_the_library() {
    // For the classical library the AF condition is exact in both
    // directions (sufficient and, empirically here, necessary).
    let models = parse_fault_list("ADF").unwrap();
    for (name, test) in known::all() {
        let predicted = analyze(&test).af;
        let simulated = covers_all(&test, &models, 4);
        if predicted {
            assert!(simulated, "{name}: AF predicted but escapes found");
        }
        // Necessity holds for every library member except MATS-style
        // all-⇕ tests, which we skip (the condition is conservative).
        if simulated && test.elements().iter().any(|e| e.direction != Direction::Up) {
            // no strict assertion — conservativeness is allowed
        }
    }
}

#[test]
fn mats_plus_plus_sof_detection_under_latch_model() {
    // The latch-model subtlety recorded in EXPERIMENTS.md: ⇓(r1,w0,r0)
    // catches stuck-open cells because the leading read compares against
    // the *previous cell's* trailing read.
    let sof = parse_fault_list("SOF").unwrap();
    assert!(covers_all(&known::mats_plus_plus(), &sof, 4));
    assert!(analyze(&known::mats_plus_plus()).sof);
    // March X lacks any qualifying window and indeed escapes.
    assert!(!covers_all(&known::march_x(), &sof, 4));
    assert!(!analyze(&known::march_x()).sof);
}
