//! Differential suite over the ATSP solver registry: on every Test
//! Pattern Graph the fault catalog produces (up to 12 TPs), every
//! registered backend must plan tours of the exact optimal cost —
//! with the exact solvers (and the brute-force oracle where it fits)
//! as the reference. The sole exception is the one-shot `heuristic`
//! construction, which is held to a never-below-and-within-one bound
//! instead (it exists as a fast upper bound, not a tour planner).
//!
//! This is the cross-check that keeps the `SolverChoice::Auto` policy
//! honest: above the exact threshold Auto trusts the local search, and
//! this suite pins the local search to the exact optimum on the whole
//! catalog range where both can run.

use marchgen::atsp::{AtspInstance, AtspSolver, SolveStats, SolverRegistry, Tour};
use marchgen::faults::{dedupe_subsumed, parse_fault_list, requirements_for, FaultModel};
use marchgen::generator::ClassCombinations;
use marchgen::prelude::TestPattern;
use marchgen::tpg::{plan_tour_with, plan_tour_with_stats, StartPolicy, TourFamily, Tpg};

/// Brute-force permutation oracle as an [`AtspSolver`], usable wherever
/// the instance (TPG + dummy node) stays within its 10-node cap.
struct BruteOracle;

impl AtspSolver for BruteOracle {
    fn name(&self) -> &str {
        "brute-oracle"
    }

    fn solve(&self, instance: &AtspInstance) -> Tour {
        marchgen::atsp::brute::solve(instance)
    }

    fn is_exact_for(&self, instance: &AtspInstance) -> bool {
        instance.len() <= 10
    }
}

/// The distinct post-subsumption TP sets (the memoized ATSP instances
/// the pipeline actually solves) of a fault list's first 64 class
/// combinations, in first-seen order, at most `max_sets` of them.
fn unique_tp_sets(faults: &str, max_sets: usize) -> Vec<Vec<TestPattern>> {
    let models = parse_fault_list(faults).expect("catalog lists parse");
    let requirements = requirements_for(&models);
    let limit = ClassCombinations::total(&requirements).min(64);
    let mut seen: Vec<Vec<TestPattern>> = Vec::new();
    for combo in ClassCombinations::range(&requirements, 0, limit) {
        let mut tps = dedupe_subsumed(&combo);
        tps.sort();
        if !seen.contains(&tps) {
            seen.push(tps);
        }
        if seen.len() >= max_sets {
            break;
        }
    }
    seen
}

/// The catalog workloads: every model of the extended taxonomy alone
/// (classical, dynamic and linked), plus the paper's Table 3
/// combinations, the §4 worked example and mixed extended lists.
fn catalog_fault_lists() -> Vec<String> {
    let mut lists: Vec<String> = FaultModel::all_extended()
        .iter()
        .map(|m| m.name())
        .collect();
    for combo in [
        "SAF",
        "SAF, TF",
        "SAF, TF, ADF",
        "SAF, TF, SOF, ADF",
        "SAF, TF, ADF, CFin",
        "SAF, TF, ADF, CFin, CFid",
        "CFid<u,0>, CFid<u,1>",
        "CFid<u,1>, CFid<d,1>",
        "CFin, CFid",
        "SAF, TF, DRF",
        "dRDF, dDRDF, dIRF",
        "SAF, TF, dRDF",
        "LCF",
        "CFid, LCF<1>",
    ] {
        lists.push(combo.to_owned());
    }
    lists
}

/// Every registered solver (and the brute oracle where it fits) agrees
/// on the optimal tour cost — measured as the best GTS operation count,
/// which differs from the raw ATSP objective only by a fixed per-TP
/// offset — for every catalog TPG with at most 12 nodes, under both
/// start policies.
#[test]
fn all_registered_solvers_agree_on_catalog_tpgs() {
    let registry = SolverRegistry::default();
    let mut instances = 0usize;
    // The same post-subsumption TP set recurs across many fault lists
    // (single models are subsets of the combinations); solve each
    // distinct set once.
    let mut sweep: Vec<(String, Vec<TestPattern>)> = Vec::new();
    for faults in catalog_fault_lists() {
        // A bounded, deterministic sample per list keeps the sweep's
        // wall-clock inside tier-1 budgets; the global dedupe below
        // still yields a diverse instance population.
        for tps in unique_tp_sets(&faults, 8) {
            if tps.is_empty() || tps.len() > 12 {
                continue;
            }
            if !sweep.iter().any(|(_, seen)| *seen == tps) {
                sweep.push((faults.clone(), tps));
            }
        }
    }
    for (faults, tps) in sweep {
        {
            let tpg = Tpg::new(tps);
            for policy in [StartPolicy::Uniform, StartPolicy::Free] {
                instances += 1;
                // Reference: the exact Held–Karp backend.
                let exact = plan_tour_with(
                    &tpg,
                    policy,
                    64,
                    registry.get("held-karp").expect("built-in").as_ref(),
                );
                let optimum = exact
                    .iter()
                    .map(|p| p.gts_ops)
                    .min()
                    .expect("catalog TPGs plan");
                for name in registry.names() {
                    let solver = registry.get(name).expect("registered");
                    let plans = plan_tour_with(&tpg, policy, 64, solver.as_ref());
                    let best = plans
                        .iter()
                        .map(|p| p.gts_ops)
                        .min()
                        .unwrap_or_else(|| panic!("{name} returned no plan ({faults})"));
                    if name == "heuristic" {
                        // The one-shot construction backend exists as a
                        // fast upper bound (it seeds branch-and-bound
                        // and the local search); it is optimal on
                        // almost — but provably not all — catalog TPGs.
                        // Its contract here: never below the optimum,
                        // and within one operation of it.
                        assert!(
                            best >= optimum && best <= optimum + 1,
                            "heuristic planned {best} ops vs optimum {optimum} \
                             on {faults:?} ({} TPs, {policy:?})",
                            tpg.len()
                        );
                        continue;
                    }
                    assert_eq!(
                        best,
                        optimum,
                        "{name} planned {best} ops vs optimum {optimum} \
                         on {faults:?} ({} TPs, {policy:?})",
                        tpg.len()
                    );
                }
                // The brute-force oracle double-checks the exact
                // backends themselves wherever it fits (TPG + dummy
                // within its 10-node cap).
                if tpg.len() < 10 {
                    let brute = plan_tour_with(&tpg, policy, 64, &BruteOracle);
                    let best = brute.iter().map(|p| p.gts_ops).min().expect("plans");
                    assert_eq!(best, optimum, "brute oracle disagrees on {faults:?}");
                }
            }
        }
    }
    assert!(
        instances >= 40,
        "the catalog sweep must exercise a real instance population, got {instances}"
    );
}

/// The full pipeline agrees too: for the paper's Table 3 workloads the
/// local-search backend produces a verified test of the same complexity
/// as the exact default.
#[test]
fn local_search_pipeline_matches_exact_on_table3_workloads() {
    use marchgen::{generate, GenerateRequest, SolverChoice};
    for faults in [
        "SAF",
        "SAF, TF",
        "CFid<u,0>, CFid<u,1>",
        "CFid<u,1>, CFid<d,1>",
    ] {
        let exact = generate(&GenerateRequest::from_fault_list(faults).unwrap()).unwrap();
        let local = generate(
            &GenerateRequest::from_fault_list(faults)
                .unwrap()
                .with_solver(SolverChoice::LocalSearch),
        )
        .unwrap();
        assert!(local.verified, "{faults}");
        assert_eq!(local.complexity(), exact.complexity(), "{faults}");
        assert_eq!(local.diagnostics.solver, "local-search");
    }
}

/// A strategy with its family solve stripped: every member goes through
/// the wrapped strategy's per-instance path (for Held–Karp, the `u64`
/// table), which is what the default `solve_family` does.
struct PerInstance<'a>(&'a dyn AtspSolver);

impl AtspSolver for PerInstance<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn solve(&self, instance: &AtspInstance) -> Tour {
        self.0.solve(instance)
    }

    fn is_exact_for(&self, instance: &AtspInstance) -> bool {
        self.0.is_exact_for(instance)
    }

    fn solve_all_optimal_with_stats(
        &self,
        instance: &AtspInstance,
        cap: usize,
    ) -> (Vec<Tour>, SolveStats) {
        self.0.solve_all_optimal_with_stats(instance, cap)
    }
}

/// Planning a list's TP sets as one family gives every set exactly the
/// plans (and solver statistics) `plan_tour_with_stats` gives its own
/// TPG, under both start policies and caps 1 and 64: with the
/// shared-table solvers (`auto`, `held-karp`) and with `local-search`,
/// which has no family override and so runs the trait's default. For
/// sets of at most 13 TPs, where the `u64` table stays small, the
/// per-set plans are also held to that table.
///
/// The lists are the catalog above (Table 3, the §4 example and every
/// extended model), four `search_heavy` lists, `ADF, CFin, CFst` (sets
/// of 10–14 TPs from one start TP, sharing a 17-node table) and
/// `SAF, TF, ADF, CFin, CFid, CFst` (sets of 12–18 TPs whose 19-node
/// union is cut into two tables, one set past `MAX_NODES`), each from
/// its first 64 class combinations.
#[test]
fn family_plans_match_per_set_plans() {
    let registry = SolverRegistry::default();
    let mut lists = catalog_fault_lists();
    for list in [
        "ADF, CFin",
        "CFst",
        "CFst, SAF, TF",
        "SAF, ADF, CFin, CFid<u,0>",
        "ADF, CFin, CFst",
        "SAF, TF, ADF, CFin, CFid, CFst",
    ] {
        lists.push(list.to_owned());
    }
    let max_nodes = marchgen::atsp::held_karp::MAX_NODES;
    let mut sets_checked = 0usize;
    let mut past_max_nodes = 0usize;
    let mut cut_unions = 0usize;
    for faults in &lists {
        let sets = unique_tp_sets(faults, usize::MAX);
        let mut union: Vec<TestPattern> = sets.iter().flatten().copied().collect();
        union.sort();
        union.dedup();
        let members: Vec<Vec<usize>> = sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|tp| union.binary_search(tp).expect("in the union"))
                    .collect()
            })
            .collect();
        // Every instance closes its tour through one dummy node.
        cut_unions += usize::from(union.len() + 1 > max_nodes);
        let union = Tpg::new(union);
        let family = TourFamily::new(&union);
        sets_checked += sets.len();
        past_max_nodes += sets.iter().filter(|set| set.len() + 1 > max_nodes).count();
        for name in ["auto", "held-karp", "local-search"] {
            let solver = registry.get(name).expect("built-in");
            for policy in [StartPolicy::Uniform, StartPolicy::Free] {
                for cap in [1, 64] {
                    let mut got = vec![None; sets.len()];
                    family.plan(
                        &members,
                        policy,
                        cap,
                        solver.as_ref(),
                        &mut |k, plans, stats| {
                            assert!(
                                got[k].replace((plans, stats)).is_none(),
                                "{k} visited twice"
                            );
                        },
                    );
                    for (set, got) in sets.iter().zip(got) {
                        let tpg = Tpg::new(set.clone());
                        let want = plan_tour_with_stats(&tpg, policy, cap, solver.as_ref());
                        let ctx = format!(
                            "{faults:?}, {} TPs, {name}, {policy:?}, cap {cap}",
                            set.len()
                        );
                        assert_eq!(got.as_ref(), Some(&want), "{ctx}");
                        if name != "local-search" && set.len() <= 13 {
                            let oracle = PerInstance(solver.as_ref());
                            let reference = plan_tour_with_stats(&tpg, policy, cap, &oracle);
                            assert_eq!(want, reference, "{ctx}: against the u64 table");
                        }
                    }
                }
            }
        }
    }
    assert!(sets_checked >= 300, "{sets_checked} sets");
    assert!(past_max_nodes > 0, "some set must exceed MAX_NODES");
    assert!(cut_unions > 0, "some union must exceed MAX_NODES");
}
