//! Integration reproduction of the paper's §3–§4 worked example, end to
//! end across the crates: fault list `{⟨↑,1⟩, ⟨↑,0⟩}` → TPs (f.2.3) →
//! TPG (Figure 4) → constrained ATSP (f.4.4) → GTS → March test (§4.3),
//! with every intermediate artifact checked against the paper's text.

use marchgen::faults::{catalog, requirements_for, TransitionDir};
use marchgen::generator::gts::Gts;
use marchgen::generator::schedule_tour;
use marchgen::model::{Bit, TwoCellMachine};
use marchgen::prelude::*;
use marchgen::tpg::{plan_tour, StartPolicy, Tpg};

fn example_tps() -> Vec<TestPattern> {
    // Order: TP1, TP2 from ⟨↑,0⟩; TP3, TP4 from ⟨↑,1⟩ (paper numbering).
    let mut tps = Vec::new();
    for list in ["CFid<u,0>", "CFid<u,1>"] {
        let models = parse_fault_list(list).expect("parses");
        for req in requirements_for(&models) {
            assert_eq!(req.cardinality(), 1, "CFid BFEs have a single TP");
            tps.push(req.alternatives[0]);
        }
    }
    tps
}

/// f.2.3: TP1 = (01, w1i, r1j), TP2 = (10, w1j, r1i),
/// TP3 = (00, w1i, r0j), TP4 = (00, w1j, r0i).
#[test]
fn test_patterns_match_f23() {
    let tps = example_tps();
    let printed: Vec<String> = tps.iter().map(|tp| tp.to_string()).collect();
    assert_eq!(
        printed,
        vec![
            "(01, w1i, r1j)",
            "(10, w1j, r1i)",
            "(00, w1i, r0j)",
            "(00, w1j, r0i)",
        ]
    );
}

/// Figure 2: the faulty machine differs from M0 by one bolded edge.
#[test]
fn figure2_machine_has_one_extra_edge() {
    let m0 = TwoCellMachine::fault_free();
    let machines = catalog::machines(FaultModel::CouplingIdempotent(TransitionDir::Up, Bit::Zero));
    assert_eq!(machines.len(), 2);
    for (label, m) in machines {
        assert_eq!(m0.diff(&m).len(), 1, "{label}");
        assert!(m.is_bfe(), "{label}");
    }
}

/// Figure 4: the TPG arc-weight multiset is {0×2, 1×4, 2×6}.
#[test]
fn figure4_weights() {
    let tpg = Tpg::new(example_tps());
    let mut weights: Vec<u32> = tpg.arcs().map(|(_, _, w)| w).collect();
    weights.sort_unstable();
    assert_eq!(weights, vec![0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]);
}

/// The §4 GTS: the paper's tour gives exactly
/// `w0i, w0j, w1i, r0j, w1j, r1i, w0i, w0j, w1j, r0i, w1i, r1j`.
#[test]
fn section4_gts_text() {
    let tps = example_tps();
    let tour = [tps[2], tps[1], tps[3], tps[0]];
    let gts = Gts::from_tour(&tour);
    assert_eq!(
        gts.to_string(),
        "w0i, w0j, w1i, r0j, w1j, r1i, w0i, w0j, w1j, r0i, w1i, r1j"
    );
}

/// All f.4.4-constrained optimal tours have 12 GTS operations, and each
/// schedules to an 8n March test.
#[test]
fn optimal_tours_schedule_to_8n() {
    let tps = example_tps();
    let tpg = Tpg::new(tps.clone());
    let plans = plan_tour(&tpg, StartPolicy::Uniform, 64);
    assert!(!plans.is_empty());
    let mut best = usize::MAX;
    for plan in plans {
        assert_eq!(plan.gts_ops, 12);
        let tour: Vec<TestPattern> = plan.order.iter().map(|&k| tps[k]).collect();
        let test = schedule_tour(&tour).expect("schedules");
        assert_eq!(test.check_consistency(), Ok(()));
        // Individual optimal tours may schedule a little above the
        // minimum (the pipeline keeps the best across all of them).
        assert!(
            test.complexity() <= 12,
            "tour scheduled unreasonably: {test}"
        );
        best = best.min(test.complexity());
    }
    assert_eq!(best, 8, "the best optimal tour realizes the paper's 8n");
}

/// The paper's final 8n test, via the full pipeline, with coverage
/// verified by simulation.
#[test]
fn pipeline_reproduces_8n() {
    let request = GenerateRequest::from_fault_list("CFid<u,0>, CFid<u,1>").expect("parses");
    let out = generate(&request).expect("generates");
    assert_eq!(out.test.complexity(), 8, "{}", out.test);
    assert!(out.verified);
    assert_eq!(out.non_redundant, Some(true));
    // The paper's concrete answer is among the optimal solutions; ours
    // must match it up to the free direction of the background element.
    let paper: MarchTest = "⇑(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1)"
        .parse()
        .unwrap();
    let models = parse_fault_list("CFid<u,0>, CFid<u,1>").unwrap();
    assert!(
        covers_all(&paper, &models, 4),
        "the paper's own test simulates clean"
    );
    assert_eq!(out.test.complexity(), paper.complexity());
}

/// The paper's 8n answer itself is operationally non-redundant.
#[test]
fn papers_8n_answer_is_non_redundant() {
    let paper: MarchTest = "⇑(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1)"
        .parse()
        .unwrap();
    let models = parse_fault_list("CFid<u,0>, CFid<u,1>").unwrap();
    assert!(marchgen::sim::redundancy::is_non_redundant(
        &paper, &models, 4
    ));
}
