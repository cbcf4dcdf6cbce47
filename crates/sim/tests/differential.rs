//! Differential tests: the packed sweep of [`marchgen_sim::widesim`] at
//! **every** supported width W ∈ {2, 4, 8}, and at the auto-selected
//! one, must agree **exactly** with the scalar behavioural simulator
//! ([`coverage`] / [`SimVerifier`]): same [`CoverageReport`]s (including
//! escape lists, in order), same compactions, same non-redundancy
//! verdicts, and — finest of all — the same per-scenario-lane mismatch
//! verdicts, so a disagreement on a *single* lane fails the build even
//! when the aggregated site verdicts happen to coincide. Coverage spans
//! the full extended fault catalog (`all_extended()`: classical +
//! dynamic + linked), the known-test library, and deterministic random
//! March tests from `marchgen-testkit`.

use marchgen_faults::{parse_fault_list, FaultModel};
use marchgen_march::{known, Direction, MarchElement, MarchOp, MarchTest};
use marchgen_model::{Bit, Tri};
use marchgen_sim::verify::{SimVerifier, Verifier, WideSimVerifier};
use marchgen_sim::{coverage, engine, widesim};
use marchgen_testkit::{run_cases, Rng};

/// A random *consistent* March test: reads always expect the value the
/// per-cell sequence currently holds, so `check_consistency` passes by
/// construction.
fn random_march(rng: &mut Rng) -> MarchTest {
    let directions = [Direction::Up, Direction::Down, Direction::Any];
    let elements = rng.range(1, 5);
    let mut cur = Tri::X;
    let mut out: Vec<MarchElement> = Vec::new();
    for _ in 0..elements {
        let dir = *rng.pick(&directions);
        let mut ops: Vec<MarchOp> = Vec::new();
        for _ in 0..rng.range(1, 4) {
            match rng.range(0, 4) {
                0 | 1 => {
                    let v = if rng.flip() { Bit::One } else { Bit::Zero };
                    ops.push(MarchOp::Write(v));
                    cur = Tri::from(v);
                }
                2 => {
                    if let Some(expect) = cur.bit() {
                        ops.push(MarchOp::Read(expect));
                    } else {
                        ops.push(MarchOp::Write(Bit::Zero));
                        cur = Tri::from(Bit::Zero);
                    }
                }
                _ => ops.push(MarchOp::Delay),
            }
        }
        out.push(MarchElement::new(dir, ops));
    }
    let test = MarchTest::new(out);
    assert_eq!(test.check_consistency(), Ok(()));
    test
}

/// Asserts the packed sweep at W = 2/4/8 and at auto width produces the
/// scalar engine's per-model coverage.
fn assert_matches_scalar(test: &MarchTest, model: FaultModel, n: usize, ctx: &str) {
    let scalar = coverage::model_coverage(test, model, n);
    assert_eq!(
        widesim::model_coverage_w::<2>(test, model, n),
        scalar,
        "widesim W=2 {ctx}"
    );
    assert_eq!(
        widesim::model_coverage_w::<4>(test, model, n),
        scalar,
        "widesim W=4 {ctx}"
    );
    assert_eq!(
        widesim::model_coverage_w::<8>(test, model, n),
        scalar,
        "widesim W=8 {ctx}"
    );
    assert_eq!(
        widesim::model_coverage(test, model, n),
        scalar,
        "widesim auto {ctx}"
    );
}

/// Asserts the packed sweep's per-resolution × per-scenario-lane
/// mismatch verdicts at W = 2/4/8 are the scalar engine's.
fn assert_lanes_match_scalar(test: &MarchTest, model: FaultModel, n: usize, ctx: &str) {
    let scalar = engine::lane_mismatches(test, model, n);
    assert_eq!(
        widesim::lane_mismatches_w::<2>(test, model, n),
        scalar,
        "widesim W=2 {ctx}"
    );
    assert_eq!(
        widesim::lane_mismatches_w::<4>(test, model, n),
        scalar,
        "widesim W=4 {ctx}"
    );
    assert_eq!(
        widesim::lane_mismatches_w::<8>(test, model, n),
        scalar,
        "widesim W=8 {ctx}"
    );
}

/// Every model of the extended taxonomy (classical + dynamic + linked)
/// × every known test: identical reports at every width, including
/// per-site escape lists.
#[test]
fn full_catalog_matches_on_known_tests() {
    let n = 4;
    let catalog = FaultModel::all_extended();
    for (name, test) in known::all() {
        for &model in &catalog {
            assert_matches_scalar(&test, model, n, &format!("{name} × {model}"));
        }
    }
}

/// Same sweep on a larger memory for a subset of tests, so multi-block
/// packing (pair faults at n = 6 → 240 lanes: two W = 2 blocks, one
/// W = 4 block) is exercised at every width.
#[test]
fn full_catalog_matches_on_larger_memory() {
    let n = 6;
    for (name, test) in [
        ("MATS", known::mats()),
        ("March C-", known::march_c_minus()),
        ("March G", known::march_g()),
    ] {
        for model in FaultModel::all_extended() {
            assert_matches_scalar(&test, model, n, &format!("{name} × {model} at n={n}"));
        }
    }
}

/// The finest observable: per-resolution × per-scenario-lane mismatch
/// verdicts must be identical between the scalar engine and the packed
/// engine at every width — over the whole extended catalog. A single
/// disagreeing lane fails this test even if the aggregated detection
/// verdicts agree.
#[test]
fn lane_verdicts_identical_across_backends() {
    let tests = [
        ("MATS+", known::mats_plus()),
        ("March C-", known::march_c_minus()),
        ("March SS", known::march_ss()),
    ];
    for n in [4usize, 6] {
        for (name, test) in &tests {
            for model in FaultModel::all_extended() {
                assert_lanes_match_scalar(test, model, n, &format!("{name} × {model} at n={n}"));
            }
        }
    }
}

/// Lane-level agreement on random March tests and random models.
#[test]
fn random_lane_verdicts_match_scalar() {
    let catalog = FaultModel::all_extended();
    run_cases("lane verdicts ≡ scalar on random tests", 32, |rng| {
        let test = random_march(rng);
        let n = rng.range(2, 6);
        let model = *rng.pick(&catalog);
        assert_lanes_match_scalar(&test, model, n, &format!("{test} × {model} at n={n}"));
    });
}

/// Deterministic random March tests, random fault subsets, random
/// memory sizes: reports and `covers_all` agree at every width.
#[test]
fn random_tests_match_scalar_reports() {
    let catalog = FaultModel::all_extended();
    run_cases("packed ≡ scalar on random tests", 48, |rng| {
        let test = random_march(rng);
        let n = rng.range(2, 6);
        let models: Vec<FaultModel> = (0..rng.range(1, 4)).map(|_| *rng.pick(&catalog)).collect();
        let scalar = coverage::coverage_report(&test, &models, n);
        let ctx = format!("{test} over {models:?} at n={n}");
        assert_eq!(
            widesim::coverage_report_w::<2>(&test, &models, n),
            scalar,
            "widesim W=2 {ctx}"
        );
        assert_eq!(
            widesim::coverage_report_w::<4>(&test, &models, n),
            scalar,
            "widesim W=4 {ctx}"
        );
        assert_eq!(
            widesim::coverage_report_w::<8>(&test, &models, n),
            scalar,
            "widesim W=8 {ctx}"
        );
        assert_eq!(
            widesim::coverage_report(&test, &models, n),
            scalar,
            "widesim auto {ctx}"
        );
        assert_eq!(
            widesim::covers_all(&test, &models, n),
            coverage::covers_all(&test, &models, n),
            "widesim {ctx}"
        );
    });
}

/// Both verifier backends agree on verification, compaction and
/// non-redundancy for the workloads the pipeline actually runs (Table 3
/// fault lists plus dynamic/linked extensions).
#[test]
fn verifier_backends_agree_on_compaction() {
    let n = 4;
    for list in [
        "SAF",
        "SAF, TF",
        "SAF, TF, ADF",
        "SAF, TF, ADF, CFin",
        "CFid<u,1>, CFid<d,1>",
        "CFin, CFid, CFst",
        "dRDF, dDRDF, dIRF",
        "SAF, dRDF<0>, LCF<1>",
        "LCF",
    ] {
        let models = parse_fault_list(list).unwrap();
        let scalar = SimVerifier::new(n);
        let packed = WideSimVerifier::new(n);
        for (name, test) in known::all() {
            let ctx = format!("{name} × {list}");
            assert_eq!(
                packed.verify(&test, &models),
                scalar.verify(&test, &models),
                "{ctx}"
            );
            assert_eq!(
                *packed.compact(&test, &models),
                *scalar.compact(&test, &models),
                "{ctx}"
            );
            assert_eq!(
                packed.is_non_redundant(&test, &models),
                scalar.is_non_redundant(&test, &models),
                "{ctx}"
            );
        }
    }
}

/// Random tests through both verifiers end to end (verify + compact),
/// including the sharded packed path at several worker counts.
#[test]
fn random_tests_match_through_verifier_trait() {
    let catalog = FaultModel::all_extended();
    run_cases("verifier backends ≡ on random tests", 24, |rng| {
        let test = random_march(rng);
        let n = rng.range(2, 5);
        let models: Vec<FaultModel> = (0..rng.range(1, 3)).map(|_| *rng.pick(&catalog)).collect();
        let scalar = SimVerifier::new(n);
        let expected = scalar.verify(&test, &models);
        let compacted = scalar.compact(&test, &models);
        let packed = WideSimVerifier::new(n);
        let ctx = format!("{test} over {models:?} at n={n}");
        assert_eq!(packed.verify(&test, &models), expected, "{ctx}");
        assert_eq!(*packed.compact(&test, &models), *compacted, "{ctx}");
        let workers = rng.range(1, 5);
        let run = packed.verify_sharded(&test, &models, workers);
        assert_eq!(run.report, expected, "sharded {ctx} at {workers} workers");
    });
}
