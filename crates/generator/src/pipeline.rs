//! The end-to-end generation pipeline (paper Sections 4–6): fault list →
//! requirements → class combinations → TPG/ATSP tours → March
//! construction → simulator verification → minimal verified test.
//!
//! The engine is the free function [`generate`] (and its
//! dependency-injected variants [`generate_with_registry`] /
//! [`generate_with`]), which maps a typed [`GenerateRequest`] to a typed
//! [`GenerateOutcome`].

use crate::outcome::{Diagnostics, GenerateOutcome};
use crate::pool::run_indexed;
use crate::request::{GenerateRequest, VerifierChoice};
use crate::schedule::{schedule_tour, Builder};
use marchgen_atsp::{AtspSolver, SolveStats, SolverRegistry};
use marchgen_faults::{dedupe_subsumed, requirements_for, CoverageRequirement, TestPattern};
use marchgen_march::MarchTest;
use marchgen_sim::{SimVerifier, Verifier, WideSimVerifier};
use marchgen_tpg::{StartPolicy, TourFamily, Tpg};
use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
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
    // solve the same ATSP. Only pass 2 runs on worker threads: its
    // partitions of the unique TP sets are planned from a shared work
    // queue and collected by index, so the outcome is identical for
    // every thread count (including 1, which runs inline).
    let search_started = Instant::now();
    let limit = ClassCombinations::total(&requirements).min(request.max_combinations);
    diagnostics.combinations = limit;

    // Pass 1, on the calling thread: enumerate combinations and collapse
    // them to their post-subsumption TP sets, keeping first-seen order.
    let tp_sets: Vec<Vec<TestPattern>> = {
        let mut seen: BTreeMap<Vec<TestPattern>, ()> = BTreeMap::new();
        let mut unique = Vec::new();
        for combo in ClassCombinations::range(&requirements, 0, limit) {
            let mut tps = dedupe_subsumed(&combo);
            tps.sort();
            if seen.insert(tps.clone(), ()).is_none() {
                unique.push(tps);
            }
        }
        unique
    };
    diagnostics.unique_tp_sets = tp_sets.len();

    // Pass 2: plan tours and schedule them into packed candidates (see
    // `Candidate`). Every set is drawn from one union of TPs, so the
    // sets are planned as one `TourFamily`. Sets with the same first TP
    // and effective start policy share Held–Karp rows; each such
    // partition is one job for up to `search_threads` workers, the
    // request's only threads. A set's shard time runs from the end of
    // the previous set's visit to the end of its own scheduling, so the
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
    // Where each set is planned: its partition and its place in it.
    let mut placed: Vec<(usize, usize)> = Vec::with_capacity(tp_sets.len());
    for (k, tps) in tp_sets.iter().enumerate() {
        let key = (
            tps.first().copied(),
            request.start_policy.effective_for(tps),
        );
        let p = keys
            .iter()
            .position(|seen| *seen == key)
            .unwrap_or_else(|| {
                keys.push(key);
                partitions.push(Vec::new());
                partitions.len() - 1
            });
        placed.push((p, partitions[p].len()));
        partitions[p].push(k);
    }
    let union = tpg.test_patterns();
    let mut solved = run_indexed(partitions.len(), search_workers(request), |p| {
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
        let mut job = Job {
            arena: Vec::new(),
            candidates: Vec::new(),
            planned: vec![None; ids.len()],
        };
        let mut builder = Builder::new();
        let mut since = Instant::now();
        family.plan(
            &members,
            request.start_policy,
            request.tour_cap,
            solver,
            &mut |j, plans, solve_stats| {
                let set = ids[j];
                let tps = &tp_sets[set];
                let first = job.candidates.len();
                for plan in &plans {
                    let offset = job.arena.len();
                    let tour = plan.order.iter().map(|&i| &tps[i]);
                    if let Some((complexity, elements)) = builder.pack(tour, &mut job.arena) {
                        let len = job.arena.len() - offset;
                        job.arena.extend(plan.order.iter().map(|&i| {
                            u8::try_from(i)
                                .expect("a TP set has one TP per requirement, far below 256")
                        }));
                        job.candidates.push(Candidate {
                            complexity: to_u32(complexity),
                            elements: to_u32(elements),
                            set: to_u32(set),
                            partition: to_u32(p),
                            offset,
                            len: to_u32(len),
                        });
                    }
                }
                job.planned[j] = Some(SetRun {
                    candidates: first..job.candidates.len(),
                    tours_tried: plans.len(),
                    solve_stats,
                    micros: as_micros(since),
                });
                since = Instant::now();
            },
        );
        job
    });
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut solver_stats = SolveStats::default();
    // Candidates are kept in first-seen set order: the stable sort and
    // the dedupe below pick among equal-complexity tests by it.
    for &(p, j) in &placed {
        let run = solved[p].planned[j].take().expect("every set is planned");
        diagnostics.tours_tried += run.tours_tried;
        diagnostics.candidates += run.candidates.len();
        diagnostics.shard_micros.push(run.micros);
        solver_stats.absorb(run.solve_stats);
        candidates.extend_from_slice(&solved[p].candidates[run.candidates]);
    }
    let arenas: Vec<Vec<u8>> = solved.into_iter().map(|job| job.arena).collect();
    diagnostics.solver_iterations = solver_stats.iterations;
    diagnostics.solver_restarts = solver_stats.restarts;
    if candidates.is_empty() {
        diagnostics.search_micros = as_micros(search_started);
        return Err(GenerateError::NoCandidate);
    }

    // Shortest first; drop a test equal to the one just before it
    // (repeats that are not adjacent after the sort stay).
    candidates.sort_by_key(|c| (c.complexity, c.elements));
    candidates.dedup_by(|a, b| a.test_bytes(&arenas) == b.test_bytes(&arenas));
    diagnostics.candidate_complexities =
        candidates.iter().map(|c| to_usize(c.complexity)).collect();
    diagnostics.search_micros = as_micros(search_started);
    // Only the candidates that get screened are built as March tests.
    let materialize = |c: &Candidate| -> (MarchTest, Vec<TestPattern>) {
        let tps = &tp_sets[to_usize(c.set)];
        let tour: Vec<TestPattern> = c
            .tour_bytes(&arenas, tps.len())
            .iter()
            .map(|&i| tps[usize::from(i)])
            .collect();
        let test = schedule_tour(&tour).expect("a packed candidate schedules");
        (test, tour)
    };

    let Some(verifier) = verifier else {
        let (test, tour) = materialize(&candidates[0]);
        return Ok(GenerateOutcome {
            test,
            tour,
            verified: false,
            report: None,
            non_redundant: None,
            diagnostics,
        });
    };

    // Every coverage sweep runs on this thread and adds one timing to
    // `verify_shard_micros`: one per screened candidate, plus the final
    // or fallback re-verify.
    diagnostics.verifier = verifier.name().to_owned();
    let verify_started = Instant::now();
    let mut fallback: Option<(MarchTest, Vec<TestPattern>)> = None;
    for candidate in &candidates {
        let (test, tour) = materialize(candidate);
        let run = verifier.verify_sharded(&test, &request.faults, 1);
        diagnostics.verify_shard_micros.extend(run.shard_micros);
        if run.report.complete() {
            let final_test = if request.compact {
                verifier.compact(&test, &request.faults).into_owned()
            } else {
                test
            };
            let run = verifier.verify_sharded(&final_test, &request.faults, 1);
            diagnostics.verify_shard_micros.extend(run.shard_micros);
            let non_redundant = if request.compact || request.check_redundancy {
                Some(verifier.is_non_redundant(&final_test, &request.faults))
            } else {
                None
            };
            diagnostics.verify_micros = as_micros(verify_started);
            return Ok(GenerateOutcome {
                test: final_test,
                tour,
                verified: true,
                report: Some(run.report),
                non_redundant,
                diagnostics,
            });
        }
        if fallback.is_none() {
            fallback = Some((test, tour));
        }
    }

    // No candidate verified — report the best one honestly.
    let (test, tour) = fallback.expect("candidates non-empty");
    let run = verifier.verify_sharded(&test, &request.faults, 1);
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

/// A scheduled candidate. Its test, packed, and then its tour, one
/// member-local TP index per byte, sit in the arena of the partition
/// job that scheduled it, from `offset` on.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    complexity: u32,
    elements: u32,
    /// The TP set, in first-seen order.
    set: u32,
    partition: u32,
    offset: usize,
    /// Length of the packed test.
    len: u32,
}

const _: () = assert!(std::mem::size_of::<Candidate>() <= 32);

impl Candidate {
    fn test_bytes<'a>(&self, arenas: &'a [Vec<u8>]) -> &'a [u8] {
        &arenas[to_usize(self.partition)][self.offset..self.offset + to_usize(self.len)]
    }

    fn tour_bytes<'a>(&self, arenas: &'a [Vec<u8>], set_len: usize) -> &'a [u8] {
        let start = self.offset + to_usize(self.len);
        &arenas[to_usize(self.partition)][start..start + set_len]
    }
}

/// One partition job's scheduled candidates, their arena, and each of
/// its sets' share of them.
struct Job {
    arena: Vec<u8>,
    candidates: Vec<Candidate>,
    planned: Vec<Option<SetRun>>,
}

/// One TP set's candidates within its job, tours tried, solver
/// statistics and shard time.
#[derive(Clone)]
struct SetRun {
    candidates: Range<usize>,
    tours_tried: usize,
    solve_stats: SolveStats,
    micros: u64,
}

/// A count or index of the search as a [`Candidate`] field.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("search counts and indices fit u32")
}

fn to_usize(n: u32) -> usize {
    usize::try_from(n).expect("u32 fits usize")
}

fn as_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Effective worker count for pass 2's partition jobs.
fn search_workers(request: &GenerateRequest) -> usize {
    match request.search_threads {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        t => t,
    }
}

/// Iterator over the cartesian product of requirement alternatives —
/// the paper's class combination space, `E = Π |Cᵢ|` entries.
///
/// The counter is a **mixed-radix integer** (last requirement advances
/// fastest), so any contiguous index range `[lo, hi)` of the enumeration
/// can be produced independently via [`ClassCombinations::range`].
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
    /// the full enumeration exactly. The search walks
    /// `range(requirements, 0, max_combinations)` on the calling thread,
    /// so a capped request takes the first combinations in this order.
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

    /// The search is deterministic: 1, 2 and 8 pass-2 workers produce
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
    /// partition, and holding candidates as packed records pick exactly
    /// what planning and scheduling each set on its own picks: the same
    /// tours tried, the same candidates and the same winner, also with
    /// two partition jobs at once and with verification on. Candidates
    /// are concatenated in first-seen set order, because the stable
    /// sort and the dedupe break ties by that order.
    #[test]
    fn family_search_matches_the_per_set_search() {
        let mut cases: Vec<(&str, StartPolicy, usize, usize)> = Vec::new();
        for faults in [
            "SAF, TF, ADF, CFin",
            "CFst",
            "ADF, CFin, CFid<u,1>",
            "CFid<u,0>, CFid<u,1>",
            // `Del` elements; setup TPs; pre-reads and immediate reads
            "CFst, DRF",
            "ADF, CFin, dDRDF",
            "SOF, ADF, CFin",
        ] {
            for policy in [StartPolicy::Uniform, StartPolicy::Free] {
                cases.push((faults, policy, 1, 0));
            }
        }
        cases.push(("ADF, CFin, CFid<u,1>", StartPolicy::Uniform, 2, 0));
        // The screen rejects six candidates before one verifies.
        cases.push(("ADF, CFin, DRDF", StartPolicy::Uniform, 1, 4));
        for (faults, policy, threads, cells) in cases {
            let request = GenerateRequest::from_fault_list(faults)
                .unwrap()
                .with_start_policy(policy)
                .with_search_threads(threads)
                .with_verify_cells(cells);
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
            let ctx = format!("{faults} {policy:?}, {threads} threads, {cells} cells");
            assert_eq!(d.unique_tp_sets, seen.len(), "{ctx}");
            assert_eq!(d.shard_micros.len(), seen.len(), "{ctx}");
            assert_eq!(d.tours_tried, tours_tried, "{ctx}");
            assert_eq!(d.candidates, candidates.len(), "{ctx}");
            candidates.sort_by_key(|(t, _)| (t.complexity(), t.element_count()));
            candidates.dedup_by(|a, b| a.0 == b.0);
            let complexities: Vec<usize> = candidates.iter().map(|(t, _)| t.complexity()).collect();
            assert_eq!(d.candidate_complexities, complexities, "{ctx}");
            let Some(verifier) = verifier_for(&request) else {
                assert_eq!((out.test, out.tour), candidates.swap_remove(0), "{ctx}");
                continue;
            };
            let screened = candidates
                .iter()
                .position(|(t, _)| {
                    verifier
                        .verify_sharded(t, &request.faults, 1)
                        .report
                        .complete()
                })
                .expect("a candidate verifies");
            assert!(screened > 0, "{ctx}: the first candidate verifies");
            let (test, tour) = candidates.swap_remove(screened);
            assert!(out.verified, "{ctx}");
            assert_eq!(schedule_tour(&out.tour), Ok(test), "{ctx}");
            assert_eq!(out.tour, tour, "{ctx}");
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

    /// The resolved backend and one verify timing per coverage sweep
    /// land in the diagnostics: one per screened candidate plus the
    /// final re-verify, at any thread count. The sweeps run on the
    /// calling thread, so their times sum to at most the verify phase's
    /// wall clock.
    #[test]
    fn verify_shard_diagnostics_are_recorded() {
        // The screen rejects six candidates of `ADF, CFin, DRDF` before
        // the seventh verifies; the first `SAF, CFin` candidate verifies.
        for (faults, sweeps) in [("ADF, CFin, DRDF", 8usize), ("SAF, CFin", 2)] {
            for threads in [1usize, 8] {
                let request = GenerateRequest::from_fault_list(faults)
                    .unwrap()
                    .with_verify_cells(4)
                    .with_search_threads(threads);
                let out = generate(&request).unwrap();
                let d = &out.diagnostics;
                let ctx = format!("{faults} at {threads} threads");
                assert!(out.verified, "{ctx}");
                assert_eq!(d.verifier, "widesim", "{ctx}");
                assert_eq!(d.verify_shard_micros.len(), sweeps, "{ctx}");
                let total: u64 = d.verify_shard_micros.iter().sum();
                assert!(
                    total <= d.verify_micros,
                    "{ctx}: Σ verify_shard_micros {total} > verify_micros {}",
                    d.verify_micros
                );
            }
        }
        // Verification disabled → no backend, no timings.
        let off = generate(
            &GenerateRequest::from_fault_list("SAF, CFin")
                .unwrap()
                .with_verify_cells(0),
        )
        .unwrap();
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

    /// A one-cell memory hosts no pair fault, so a pair-fault list is not
    /// verified there: the outcome is the best candidate, unverified and
    /// uncompacted, on both backends. A single-cell list still verifies.
    #[test]
    fn pair_faults_on_one_cell_are_not_verified() {
        for faults in ["CFin", "CFid", "CFst", "LCF"] {
            for choice in [VerifierChoice::Auto, VerifierChoice::Scalar] {
                let request = GenerateRequest::from_fault_list(faults)
                    .unwrap()
                    .with_verify_cells(1)
                    .with_verifier(choice);
                let out = generate(&request).unwrap();
                assert!(!out.verified, "{faults} with {choice}");
                assert!(out.test.complexity() > 0, "{faults} with {choice}");
                let report = out.report.expect("verification ran");
                assert!(report.models.iter().all(|m| m.total_sites == 0));
                assert_eq!(out.non_redundant, None);
            }
        }
        let saf = GenerateRequest::from_fault_list("SAF")
            .unwrap()
            .with_verify_cells(1);
        let out = generate(&saf).unwrap();
        assert!(out.verified, "{:?}", out.report);
        assert_eq!(out.test.complexity(), 4, "{}", out.test);
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
