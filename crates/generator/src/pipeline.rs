//! The end-to-end generation pipeline (paper Sections 4–6): fault list →
//! requirements → class combinations → TPG/ATSP tours → March
//! construction → simulator verification → minimal verified test.
//!
//! The engine is the free function [`generate`] (and its
//! dependency-injected variants [`generate_with_registry`] /
//! [`generate_with`]), which maps a typed [`GenerateRequest`] to a typed
//! [`GenerateOutcome`].

use crate::outcome::{Diagnostics, GenerateOutcome};
use crate::request::{GenerateRequest, VerifierChoice};
use crate::schedule::schedule_tour;
use marchgen_atsp::{AtspSolver, SolveStats, SolverRegistry};
use marchgen_faults::{dedupe_subsumed, requirements_for, CoverageRequirement, TestPattern};
use marchgen_march::MarchTest;
use marchgen_sim::pool::run_indexed;
use marchgen_sim::{SimVerifier, Verifier, WideSimVerifier};
use marchgen_tpg::{StartPolicy, TourFamily, Tpg};
use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Why generation failed outright (verification shortfalls are reported
/// in [`GenerateOutcome::verified`] instead, with the best candidate
/// attached).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The fault list expanded to no coverage requirement.
    EmptyFaultList,
    /// No tour could be scheduled into a consistent March test.
    NoCandidate,
    /// The request named an ATSP solver the registry does not know.
    UnknownSolver(String),
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::EmptyFaultList => f.write_str("the fault list is empty"),
            GenerateError::NoCandidate => {
                f.write_str("no tour could be scheduled into a march test")
            }
            GenerateError::UnknownSolver(name) => {
                write!(f, "no ATSP solver registered under {name:?}")
            }
        }
    }
}

impl std::error::Error for GenerateError {}

/// Runs a request with the default solver registry and the built-in
/// simulator verifier — the standard entry point.
///
/// # Errors
///
/// [`GenerateError::EmptyFaultList`] for an empty expansion,
/// [`GenerateError::NoCandidate`] when no tour schedules (does not
/// happen for the built-in catalog), [`GenerateError::UnknownSolver`]
/// when the request names an unregistered solver.
pub fn generate(request: &GenerateRequest) -> Result<GenerateOutcome, GenerateError> {
    generate_with_registry(request, &SolverRegistry::default())
}

/// Runs a request resolving its
/// [`SolverChoice`](marchgen_atsp::SolverChoice) against a caller
/// registry (custom strategies included), verifying with the built-in
/// simulator.
///
/// # Errors
///
/// As [`generate`].
pub fn generate_with_registry(
    request: &GenerateRequest,
    registry: &SolverRegistry,
) -> Result<GenerateOutcome, GenerateError> {
    let solver = registry
        .resolve(&request.solver)
        .map_err(|e| GenerateError::UnknownSolver(e.name))?;
    let verifier = verifier_for(request);
    generate_with(request, solver.as_ref(), verifier.as_deref())
}

/// Resolves the request's [`VerifierChoice`] into a concrete backend
/// (`None` when `verify_cells == 0` disables verification): the packed
/// simulator for `Auto` — it supports every model of the extended
/// taxonomy, dynamic and linked classes included — and the scalar one
/// for `Scalar`.
#[must_use]
pub fn verifier_for(request: &GenerateRequest) -> Option<Box<dyn Verifier>> {
    if request.verify_cells == 0 {
        return None;
    }
    Some(match request.verifier {
        VerifierChoice::Auto => Box::new(WideSimVerifier::new(request.verify_cells)),
        VerifierChoice::Scalar => Box::new(SimVerifier::new(request.verify_cells)),
    })
}

/// The fully dependency-injected engine: explicit solver strategy and
/// optional verification backend. `None` for `verifier` skips
/// verification, compaction and the redundancy check, exactly like
/// `verify_cells == 0`.
///
/// # Errors
///
/// [`GenerateError::EmptyFaultList`] / [`GenerateError::NoCandidate`];
/// this variant cannot fail on solver resolution.
pub fn generate_with(
    request: &GenerateRequest,
    solver: &dyn AtspSolver,
    verifier: Option<&dyn Verifier>,
) -> Result<GenerateOutcome, GenerateError> {
    let mut diagnostics = Diagnostics {
        solver: solver.name().to_owned(),
        ..Diagnostics::default()
    };

    let expand_started = Instant::now();
    let requirements = requirements_for(&request.faults);
    diagnostics.expand_micros = as_micros(expand_started);
    if requirements.is_empty() {
        return Err(GenerateError::EmptyFaultList);
    }

    // Enumerate class combinations (paper §5: E = Π |Ci|), memoizing on
    // the post-subsumption TP set: choices that collapse to the same set
    // solve the same ATSP. The search is sharded: the mixed-radix
    // combination space is range-partitioned across workers for
    // enumeration, and partitions of the unique TP sets are then planned
    // from a shared work queue. Both passes collect results by index, so
    // the outcome is identical for every thread count (including 1,
    // which runs inline).
    let search_started = Instant::now();
    let workers = search_workers(request);
    let limit = ClassCombinations::total(&requirements).min(request.max_combinations);
    diagnostics.combinations = limit;

    // Pass 1: enumerate combinations and collapse them to their
    // post-subsumption TP sets, keeping first-seen order.
    let tp_sets: Vec<Vec<TestPattern>> = {
        let shards = combination_shards(limit, workers);
        let per_shard = run_indexed(shards.len(), workers, |s| {
            let (lo, hi) = shards[s];
            ClassCombinations::range(&requirements, lo, hi)
                .map(|combo| {
                    let mut tps = dedupe_subsumed(&combo);
                    tps.sort();
                    tps
                })
                .collect::<Vec<_>>()
        });
        let mut seen: BTreeMap<Vec<TestPattern>, ()> = BTreeMap::new();
        let mut unique = Vec::new();
        for tps in per_shard.into_iter().flatten() {
            if seen.insert(tps.clone(), ()).is_none() {
                unique.push(tps);
            }
        }
        unique
    };
    diagnostics.unique_tp_sets = tp_sets.len();

    // Pass 2: plan tours and schedule March candidates. Every set is
    // drawn from one union of TPs, so the sets are planned as one
    // `TourFamily`. Sets with the same first TP and effective start
    // policy share Held–Karp rows; each such partition is one unit of
    // parallel work. A set's shard time runs from the end of the
    // previous set's visit to the end of its own scheduling, so the
    // first set of each shared table also carries the table's build.
    let tpg = {
        let mut union: Vec<TestPattern> = tp_sets.iter().flatten().copied().collect();
        union.sort();
        union.dedup();
        Tpg::new(union)
    };
    let family = TourFamily::new(&tpg);
    let mut keys: Vec<(Option<TestPattern>, StartPolicy)> = Vec::new();
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    for (k, tps) in tp_sets.iter().enumerate() {
        let key = (
            tps.first().copied(),
            request.start_policy.effective_for(tps),
        );
        match keys.iter().position(|seen| *seen == key) {
            Some(p) => partitions[p].push(k),
            None => {
                keys.push(key);
                partitions.push(vec![k]);
            }
        }
    }
    let union = tpg.test_patterns();
    let solved = run_indexed(partitions.len(), workers, |p| {
        let ids = &partitions[p];
        let members: Vec<Vec<usize>> = ids
            .iter()
            .map(|&k| {
                tp_sets[k]
                    .iter()
                    .map(|tp| union.binary_search(tp).expect("the union holds every set"))
                    .collect()
            })
            .collect();
        let mut planned: Vec<Option<Planned>> = Vec::new();
        planned.resize_with(ids.len(), || None);
        let mut since = Instant::now();
        family.plan(
            &members,
            request.start_policy,
            request.tour_cap,
            solver,
            &mut |j, plans, solve_stats| {
                let tps = &tp_sets[ids[j]];
                let mut candidates: Vec<(MarchTest, Vec<TestPattern>)> = Vec::new();
                for plan in &plans {
                    let tour: Vec<TestPattern> = plan.order.iter().map(|&i| tps[i]).collect();
                    if let Ok(test) = schedule_tour(&tour) {
                        if test.check_consistency().is_ok() {
                            candidates.push((test, tour));
                        }
                    }
                }
                planned[j] = Some((candidates, plans.len(), solve_stats, as_micros(since)));
                since = Instant::now();
            },
        );
        planned
    });
    let mut per_set: Vec<Option<Planned>> = Vec::new();
    per_set.resize_with(tp_sets.len(), || None);
    for (ids, planned) in partitions.iter().zip(solved) {
        for (&k, set) in ids.iter().zip(planned) {
            per_set[k] = set;
        }
    }
    let mut candidates: Vec<(MarchTest, Vec<TestPattern>)> = Vec::new();
    let mut solver_stats = SolveStats::default();
    // Candidates are kept in first-seen set order: the stable sort and
    // the dedupe below pick among equal-complexity tests by it.
    for (shard_candidates, tours_tried, solve_stats, micros) in per_set
        .into_iter()
        .map(|set| set.expect("every set is planned"))
    {
        diagnostics.tours_tried += tours_tried;
        diagnostics.candidates += shard_candidates.len();
        diagnostics.shard_micros.push(micros);
        solver_stats.absorb(solve_stats);
        candidates.extend(shard_candidates);
    }
    diagnostics.solver_iterations = solver_stats.iterations;
    diagnostics.solver_restarts = solver_stats.restarts;
    if candidates.is_empty() {
        diagnostics.search_micros = as_micros(search_started);
        return Err(GenerateError::NoCandidate);
    }

    // Shortest first; deduplicate identical tests.
    candidates.sort_by_key(|(t, _)| (t.complexity(), t.element_count()));
    candidates.dedup_by(|a, b| a.0 == b.0);
    diagnostics.candidate_complexities = candidates.iter().map(|(t, _)| t.complexity()).collect();
    diagnostics.search_micros = as_micros(search_started);

    let Some(verifier) = verifier else {
        let (test, tour) = candidates.swap_remove(0);
        return Ok(GenerateOutcome {
            test,
            tour,
            verified: false,
            report: None,
            non_redundant: None,
            diagnostics,
        });
    };

    // Every coverage sweep fans out through `verify_sharded`, reusing
    // the search worker budget; per-shard timings accumulate in
    // `verify_shard_micros` (shard counts are data-defined, so the
    // vector's length is thread-count-invariant).
    diagnostics.verifier = verifier.name().to_owned();
    let verify_started = Instant::now();
    let mut fallback: Option<(MarchTest, Vec<TestPattern>)> = None;
    for (test, tour) in &candidates {
        let run = verifier.verify_sharded(test, &request.faults, workers);
        diagnostics.verify_shard_micros.extend(run.shard_micros);
        if run.report.complete() {
            let final_test = if request.compact {
                verifier.compact(test, &request.faults).into_owned()
            } else {
                test.clone()
            };
            let run = verifier.verify_sharded(&final_test, &request.faults, workers);
            diagnostics.verify_shard_micros.extend(run.shard_micros);
            let non_redundant = if request.compact || request.check_redundancy {
                Some(verifier.is_non_redundant(&final_test, &request.faults))
            } else {
                None
            };
            diagnostics.verify_micros = as_micros(verify_started);
            return Ok(GenerateOutcome {
                test: final_test,
                tour: tour.clone(),
                verified: true,
                report: Some(run.report),
                non_redundant,
                diagnostics,
            });
        }
        if fallback.is_none() {
            fallback = Some((test.clone(), tour.clone()));
        }
    }

    // No candidate verified — report the best one honestly.
    let (test, tour) = fallback.expect("candidates non-empty");
    let run = verifier.verify_sharded(&test, &request.faults, workers);
    diagnostics.verify_shard_micros.extend(run.shard_micros);
    diagnostics.verify_micros = as_micros(verify_started);
    Ok(GenerateOutcome {
        test,
        tour,
        verified: false,
        report: Some(run.report),
        non_redundant: None,
        diagnostics,
    })
}

/// One TP set's scheduled candidates, tours tried, solver statistics
/// and shard time.
type Planned = (Vec<(MarchTest, Vec<TestPattern>)>, usize, SolveStats, u64);

fn as_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Effective worker count for the in-request sharded search.
fn search_workers(request: &GenerateRequest) -> usize {
    match request.search_threads {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        t => t,
    }
}

/// Contiguous `[lo, hi)` index ranges covering `0..limit`, one per
/// worker (empty trailing shards are dropped).
fn combination_shards(limit: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.clamp(1, limit.max(1));
    let chunk = limit.div_ceil(workers).max(1);
    (0..workers)
        .map(|w| ((w * chunk).min(limit), ((w + 1) * chunk).min(limit)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Iterator over the cartesian product of requirement alternatives —
/// the paper's class combination space, `E = Π |Cᵢ|` entries.
///
/// The counter is a **mixed-radix integer** (last requirement advances
/// fastest), so any contiguous index range `[lo, hi)` of the enumeration
/// can be produced independently via [`ClassCombinations::range`] — the
/// primitive the sharded search uses to partition the space across
/// worker threads without coordination.
pub struct ClassCombinations<'a> {
    requirements: &'a [CoverageRequirement],
    indices: Vec<usize>,
    remaining: usize,
}

impl<'a> ClassCombinations<'a> {
    /// The full enumeration, in mixed-radix order.
    #[must_use]
    pub fn new(requirements: &'a [CoverageRequirement]) -> ClassCombinations<'a> {
        ClassCombinations::range(requirements, 0, ClassCombinations::total(requirements))
    }

    /// The number of combinations `E = Π |Cᵢ|` (saturating; `0` for an
    /// empty requirement list, matching the empty enumeration).
    #[must_use]
    pub fn total(requirements: &[CoverageRequirement]) -> usize {
        if requirements.is_empty() {
            return 0;
        }
        requirements
            .iter()
            .map(|r| r.alternatives.len())
            .fold(1usize, usize::saturating_mul)
    }

    /// The combinations with linear indices in `[lo, hi)` (clamped to
    /// the enumeration size). Concatenating adjacent ranges reproduces
    /// the full enumeration exactly.
    #[must_use]
    pub fn range(
        requirements: &'a [CoverageRequirement],
        lo: usize,
        hi: usize,
    ) -> ClassCombinations<'a> {
        let total = ClassCombinations::total(requirements);
        let lo = lo.min(total);
        let hi = hi.min(total);
        // Decode `lo` into mixed-radix digits, last digit fastest.
        let mut indices = vec![0usize; requirements.len()];
        let mut rest = lo;
        for (pos, requirement) in requirements.iter().enumerate().rev() {
            let radix = requirement.alternatives.len();
            indices[pos] = rest % radix;
            rest /= radix;
        }
        ClassCombinations {
            requirements,
            indices,
            remaining: hi.saturating_sub(lo),
        }
    }
}

impl Iterator for ClassCombinations<'_> {
    type Item = Vec<TestPattern>;

    fn next(&mut self) -> Option<Vec<TestPattern>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let combo: Vec<TestPattern> = self
            .requirements
            .iter()
            .zip(&self.indices)
            .map(|(r, &k)| r.alternatives[k])
            .collect();
        // Advance the mixed-radix counter.
        let mut pos = self.indices.len();
        loop {
            if pos == 0 {
                break;
            }
            pos -= 1;
            self.indices[pos] += 1;
            if self.indices[pos] < self.requirements[pos].alternatives.len() {
                break;
            }
            self.indices[pos] = 0;
        }
        Some(combo)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ClassCombinations<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use marchgen_atsp::{AutoSolver, SolverChoice};
    use marchgen_faults::parse_fault_list;
    use marchgen_sim::widesim;
    use marchgen_tpg::plan_tour_with;

    /// Generates `faults` with the default request.
    fn run(faults: &str) -> GenerateOutcome {
        generate(&GenerateRequest::from_fault_list(faults).unwrap()).unwrap()
    }

    #[test]
    fn combination_count_is_product_of_cardinalities() {
        let reqs = requirements_for(&parse_fault_list("CFin<u>").unwrap());
        // two classes of two alternatives → E = 4 (paper §5)
        let combos: Vec<_> = ClassCombinations::new(&reqs).collect();
        assert_eq!(combos.len(), 4);
        assert_eq!(ClassCombinations::total(&reqs), 4);
    }

    #[test]
    fn range_partitions_reproduce_full_enumeration() {
        let reqs = requirements_for(&parse_fault_list("SAF, TF, CFin, CFid").unwrap());
        let total = ClassCombinations::total(&reqs);
        assert!(total > 8, "want a non-trivial space, got {total}");
        let full: Vec<_> = ClassCombinations::new(&reqs).collect();
        assert_eq!(full.len(), total);
        for parts in [1usize, 2, 3, 7, total, total + 5] {
            let chunk = total.div_ceil(parts).max(1);
            let mut stitched = Vec::new();
            let mut lo = 0;
            while lo < total {
                let hi = (lo + chunk).min(total);
                stitched.extend(ClassCombinations::range(&reqs, lo, hi));
                lo = hi;
            }
            assert_eq!(stitched, full, "{parts} partitions");
        }
        // Out-of-range and empty windows are empty, not wrong.
        assert_eq!(ClassCombinations::range(&reqs, total, total + 9).count(), 0);
        assert_eq!(ClassCombinations::range(&reqs, 3, 3).count(), 0);
    }

    #[test]
    fn combination_shards_cover_the_space() {
        for (limit, workers) in [(1usize, 8usize), (10, 3), (4096, 8), (7, 1), (64, 64)] {
            let shards = combination_shards(limit, workers);
            assert_eq!(shards[0].0, 0);
            assert_eq!(shards.last().unwrap().1, limit);
            for pair in shards.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "contiguous shards");
            }
        }
    }

    /// The sharded search is deterministic: 1, 2 and 8 workers produce
    /// identical outcomes (modulo wall-clock timings).
    #[test]
    fn sharded_search_is_deterministic() {
        for faults in ["SAF, TF, ADF, CFin", "CFid<u,1>, CFid<d,1>"] {
            let base = GenerateRequest::from_fault_list(faults)
                .unwrap()
                .with_check_redundancy(true);
            let mut outcomes: Vec<GenerateOutcome> = [1usize, 2, 8]
                .iter()
                .map(|&t| generate(&base.clone().with_search_threads(t)).unwrap())
                .collect();
            for o in &mut outcomes {
                o.diagnostics.expand_micros = 0;
                o.diagnostics.search_micros = 0;
                o.diagnostics.verify_micros = 0;
                o.diagnostics.shard_micros = vec![0; o.diagnostics.shard_micros.len()];
                o.diagnostics.verify_shard_micros =
                    vec![0; o.diagnostics.verify_shard_micros.len()];
            }
            assert_eq!(outcomes[0], outcomes[1], "{faults}: 1 vs 2 threads");
            assert_eq!(outcomes[0], outcomes[2], "{faults}: 1 vs 8 threads");
        }
    }

    /// `Auto` resolves to the packed backend for every list the
    /// extended taxonomy can express — single-cell, pair, dynamic and
    /// linked, at any memory size — and `Scalar` to the scalar one.
    #[test]
    fn verifier_resolution_rules() {
        for faults in [
            "SAF",
            "SAF, TF",
            "RDF, DRDF, IRF",
            "dRDF, dDRDF, dIRF",
            "dRDF<0>",
            "LCF",
            "LCF<1>",
            "SAF, dRDF, LCF",
            "SAF, CFin",
            "CFin, CFid, CFst",
        ] {
            for cells in [2usize, 4, 8] {
                let request = GenerateRequest::from_fault_list(faults)
                    .unwrap()
                    .with_verify_cells(cells);
                let ctx = format!("{faults} at {cells} cells");
                assert_eq!(verifier_for(&request).unwrap().name(), "widesim", "{ctx}");
                let scalar = request.with_verifier(VerifierChoice::Scalar);
                assert_eq!(verifier_for(&scalar).unwrap().name(), "simulator", "{ctx}");
            }
        }
        let off = GenerateRequest::from_fault_list("SAF, CFin")
            .unwrap()
            .with_verify_cells(0);
        assert!(verifier_for(&off).is_none());
    }

    /// Planning the TP sets as families, one shared table per
    /// partition, picks exactly what planning each set on its own picks:
    /// the same tours tried, the same candidates and the same winner.
    /// Candidates are concatenated in first-seen set order, because the
    /// stable sort and the dedupe break ties by that order.
    #[test]
    fn family_search_matches_the_per_set_search() {
        for faults in [
            "SAF, TF, ADF, CFin",
            "CFst",
            "ADF, CFin, CFid<u,1>",
            "CFid<u,0>, CFid<u,1>",
        ] {
            for policy in [StartPolicy::Uniform, StartPolicy::Free] {
                let request = GenerateRequest::from_fault_list(faults)
                    .unwrap()
                    .with_start_policy(policy)
                    .with_verify_cells(0);
                let out = generate(&request).unwrap();
                let requirements = requirements_for(&request.faults);
                let mut seen: BTreeMap<Vec<TestPattern>, ()> = BTreeMap::new();
                let mut tours_tried = 0;
                let mut candidates: Vec<(MarchTest, Vec<TestPattern>)> = Vec::new();
                for combo in ClassCombinations::new(&requirements) {
                    let mut tps = dedupe_subsumed(&combo);
                    tps.sort();
                    if seen.insert(tps.clone(), ()).is_some() {
                        continue;
                    }
                    let tpg = Tpg::new(tps.clone());
                    let plans = plan_tour_with(&tpg, policy, request.tour_cap, &AutoSolver);
                    tours_tried += plans.len();
                    for plan in plans {
                        let tour: Vec<TestPattern> = plan.order.iter().map(|&i| tps[i]).collect();
                        if let Ok(test) = schedule_tour(&tour) {
                            if test.check_consistency().is_ok() {
                                candidates.push((test, tour));
                            }
                        }
                    }
                }
                let d = &out.diagnostics;
                let ctx = format!("{faults} {policy:?}");
                assert_eq!(d.unique_tp_sets, seen.len(), "{ctx}");
                assert_eq!(d.shard_micros.len(), seen.len(), "{ctx}");
                assert_eq!(d.tours_tried, tours_tried, "{ctx}");
                assert_eq!(d.candidates, candidates.len(), "{ctx}");
                candidates.sort_by_key(|(t, _)| (t.complexity(), t.element_count()));
                candidates.dedup_by(|a, b| a.0 == b.0);
                let complexities: Vec<usize> =
                    candidates.iter().map(|(t, _)| t.complexity()).collect();
                assert_eq!(d.candidate_complexities, complexities, "{ctx}");
                assert_eq!((out.test, out.tour), candidates.swap_remove(0), "{ctx}");
            }
        }
    }

    /// Both verification backends produce the same outcome on the paper
    /// workloads (end-to-end pipeline agreement).
    #[test]
    fn verifier_backends_agree_end_to_end() {
        for faults in ["SAF, TF", "CFid<u,0>, CFid<u,1>", "SAF, TF, ADF, CFin"] {
            let base = GenerateRequest::from_fault_list(faults)
                .unwrap()
                .with_check_redundancy(true);
            let scalar = generate(&base.clone().with_verifier(VerifierChoice::Scalar)).unwrap();
            let packed = generate(&base).unwrap();
            assert_eq!(scalar.test, packed.test, "{faults}");
            assert_eq!(scalar.report, packed.report, "{faults}");
            assert_eq!(scalar.non_redundant, packed.non_redundant, "{faults}");
            assert_eq!(scalar.verified, packed.verified, "{faults}");
        }
    }

    /// The resolved backend and per-shard verify timings land in the
    /// diagnostics; inline (single-threaded) shard times sum to at most
    /// the verify phase's wall clock.
    #[test]
    fn verify_shard_diagnostics_are_recorded() {
        let request = GenerateRequest::from_fault_list("SAF, CFin")
            .unwrap()
            .with_search_threads(1);
        let out = generate(&request).unwrap();
        let d = &out.diagnostics;
        assert_eq!(d.verifier, "widesim");
        assert!(!d.verify_shard_micros.is_empty());
        // One plan's worth of shards per coverage sweep the pipeline ran.
        let plan_len = widesim::shard_plan(&request.faults, request.verify_cells).len();
        assert_eq!(d.verify_shard_micros.len() % plan_len, 0);
        // Inline shards nest inside the verify phase: Σ shards ≤ wall
        // clock (strictly concurrent runs could exceed it).
        let total: u64 = d.verify_shard_micros.iter().sum();
        assert!(
            total <= d.verify_micros,
            "Σ verify_shard_micros {total} > verify_micros {}",
            d.verify_micros
        );
        // Verification disabled → no backend, no shards.
        let off = generate(&request.with_verify_cells(0)).unwrap();
        assert_eq!(off.diagnostics.verifier, "");
        assert!(off.diagnostics.verify_shard_micros.is_empty());
    }

    #[test]
    fn empty_fault_list_rejected() {
        let err = generate(&GenerateRequest::default()).unwrap_err();
        assert_eq!(err, GenerateError::EmptyFaultList);
    }

    #[test]
    fn unknown_solver_rejected() {
        let request = GenerateRequest::from_fault_list("SAF")
            .unwrap()
            .with_solver(SolverChoice::Custom("bogus".into()));
        let err = generate(&request).unwrap_err();
        assert_eq!(err, GenerateError::UnknownSolver("bogus".into()));
    }

    /// Table 3 row 1: SAF → 4n, verified and non-redundant.
    #[test]
    fn table3_row1_saf() {
        let out = run("SAF");
        assert!(out.verified, "coverage report: {:?}", out.report);
        assert_eq!(out.test.complexity(), 4, "{}", out.test);
        assert_eq!(out.non_redundant, Some(true));
    }

    /// Table 3 row 2: SAF + TF → 5n (MATS+ class).
    #[test]
    fn table3_row2_saf_tf() {
        let out = run("SAF, TF");
        assert!(out.verified);
        assert_eq!(out.test.complexity(), 5, "{}", out.test);
    }

    /// The §4 example fault list: 8n.
    #[test]
    fn section4_example_8n() {
        let out = run("CFid<u,0>, CFid<u,1>");
        assert!(out.verified);
        assert_eq!(out.test.complexity(), 8, "{}", out.test);
    }

    /// Table 3 row 6: {CFid<↑,1>, CFid<↓,1>} → 5n.
    #[test]
    fn table3_row6_cfid_pair() {
        let out = run("CFid<u,1>, CFid<d,1>");
        assert!(out.verified);
        assert_eq!(out.test.complexity(), 5, "{}", out.test);
    }

    /// The dynamic workload space: every two-operation fault family
    /// generates a verified test (the back-to-back w,r sequence survives
    /// scheduling, March execution and both simulators).
    #[test]
    fn dynamic_fault_lists_generate_verified_tests() {
        for faults in ["dRDF", "dDRDF<1>", "dIRF", "dRDF, dDRDF, dIRF"] {
            let out = run(faults);
            assert!(out.verified, "{faults}: {:?}", out.report);
        }
    }

    /// Linked idempotent coupling generates a verified test end-to-end.
    #[test]
    fn linked_fault_list_generates_verified_test() {
        let out = run("LCF");
        assert!(out.verified, "{:?}", out.report);
    }

    /// Mixed classical + dynamic + linked workloads verify identically on
    /// the scalar and packed backends.
    #[test]
    fn extended_workload_backends_agree() {
        for faults in ["SAF, dRDF, dIRF", "TF, LCF<1>", "SAF, TF, dDRDF, LCF"] {
            let base = GenerateRequest::from_fault_list(faults).unwrap();
            let scalar = generate(&base.clone().with_verifier(VerifierChoice::Scalar)).unwrap();
            let packed = generate(&base).unwrap();
            assert_eq!(scalar.test, packed.test, "{faults}");
            assert_eq!(scalar.report, packed.report, "{faults}");
            assert!(scalar.verified, "{faults}: {:?}", scalar.report);
        }
    }

    #[test]
    fn unverified_mode_still_returns_a_candidate() {
        let request = GenerateRequest::from_fault_list("SAF")
            .unwrap()
            .with_verify_cells(0);
        let out = generate(&request).unwrap();
        assert!(!out.verified);
        assert!(out.report.is_none());
        assert_eq!(out.test.complexity(), 4);
    }

    /// All exact solver choices agree on the Table 3 workloads.
    #[test]
    fn exact_solver_choices_agree() {
        for faults in ["SAF", "SAF, TF", "CFid<u,0>, CFid<u,1>"] {
            let baseline = run(faults).complexity();
            for choice in [SolverChoice::HeldKarp, SolverChoice::BranchBound] {
                let request = GenerateRequest::from_fault_list(faults)
                    .unwrap()
                    .with_solver(choice.clone());
                let out = generate(&request).unwrap();
                assert!(out.verified, "{faults} with {choice}");
                assert_eq!(out.complexity(), baseline, "{faults} with {choice}");
            }
        }
    }

    /// The local-search backend generates verified tests end-to-end and
    /// surfaces its work in the diagnostics.
    #[test]
    fn local_search_choice_generates_and_reports() {
        let request = GenerateRequest::from_fault_list("CFid<u,0>, CFid<u,1>")
            .unwrap()
            .with_solver(SolverChoice::LocalSearch);
        let out = generate(&request).unwrap();
        assert!(out.verified, "local-search outcome verifies");
        assert_eq!(out.diagnostics.solver, "local-search");
        assert!(
            out.diagnostics.solver_restarts > 0,
            "the TPG here is large enough for the restart phase"
        );
        // The exact baseline: same complexity on this catalog workload.
        let exact = run("CFid<u,0>, CFid<u,1>");
        assert_eq!(out.complexity(), exact.complexity());
        assert_eq!(exact.diagnostics.solver, "auto");
        assert_eq!(
            exact.diagnostics.solver_iterations, 0,
            "exact path is search-free"
        );
    }

    /// Diagnostics account for the search the engine performed.
    #[test]
    fn diagnostics_are_populated() {
        let out = run("SAF, TF");
        let d = &out.diagnostics;
        assert_eq!(d.solver, "auto");
        assert!(d.combinations > 0);
        assert!(d.unique_tp_sets > 0);
        assert!(d.unique_tp_sets <= d.combinations);
        assert!(d.tours_tried > 0);
        assert!(d.candidates > 0);
        assert!(!d.candidate_complexities.is_empty());
        assert!(d.candidate_complexities.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(d.candidate_complexities[0], out.complexity());
    }
}
