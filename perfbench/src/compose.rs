//! The traced library path: `generate_with`'s pipeline composed from the
//! public call of each layer, in the same order, with a span around each.
//!
//! The composition is only trusted because it is checked: the traced run
//! fails when, for any distinct request, the composed outcome differs from
//! `generate`'s in anything but wall-clock timings. Once a later change
//! reorders the pipeline, the end-to-end rows still judge it and spans
//! inside the program take over attribution.

use crate::trace::Tracer;
use marchgen::faults::{dedupe_subsumed, requirements_for, TestPattern};
use marchgen::generator::{schedule_tour, verifier_for, ClassCombinations};
use marchgen::sim::widesim;
use marchgen::tpg::{plan_tour_with_stats, Tpg};
use marchgen::{
    Diagnostics, GenerateOutcome, GenerateRequest, MarchTest, SolveStats, SolverRegistry,
};
use std::collections::BTreeSet;
use std::time::Instant;

/// Counts taken at the screening boundary of one request.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScreenCounts {
    /// Candidates swept before one verified.
    pub sweeps: u64,
    /// Sweeps whose report was complete.
    pub verifying: u64,
    /// Σ over sweeps of lanes × complexity × cells.
    pub lane_ops: u64,
}

pub struct Composed {
    pub outcome: GenerateOutcome,
    pub screen: ScreenCounts,
    /// The candidates screened, in order, for the fan-out probe.
    pub screened: Vec<MarchTest>,
}

/// Runs one request through the composed pipeline under a `request`
/// span. The request must verify single-threaded (`search_threads: 1`),
/// as every pool entry does.
pub fn compose(
    request: &GenerateRequest,
    tracer: &mut Tracer,
    id: u64,
) -> Result<Composed, String> {
    tracer.enter("request", id);
    let composed = pipeline(request, tracer, id);
    tracer.exit();
    composed
}

fn pipeline(request: &GenerateRequest, tracer: &mut Tracer, id: u64) -> Result<Composed, String> {
    // Request glue: registry and verifier construction.
    let solver = SolverRegistry::default()
        .resolve(&request.solver)
        .map_err(|e| format!("unknown solver {}", e.name))?;
    let verifier = verifier_for(request).ok_or("verification is disabled")?;
    let faults = &request.faults;
    let mut diagnostics = Diagnostics {
        solver: solver.name().to_owned(),
        ..Diagnostics::default()
    };

    let expand_started = Instant::now();
    let requirements = tracer.time("faults.expand", id, || requirements_for(faults));
    diagnostics.expand_micros = micros(expand_started);

    let search_started = Instant::now();
    let limit = ClassCombinations::total(&requirements).min(request.max_combinations);
    diagnostics.combinations = limit;
    let tp_sets = tracer.time("generator.enumerate", id, || {
        let mut seen = BTreeSet::new();
        let mut unique: Vec<Vec<TestPattern>> = Vec::new();
        for combo in ClassCombinations::range(&requirements, 0, limit) {
            let mut tps = dedupe_subsumed(&combo);
            tps.sort();
            if seen.insert(tps.clone()) {
                unique.push(tps);
            }
        }
        unique
    });
    diagnostics.unique_tp_sets = tp_sets.len();

    let mut candidates: Vec<(MarchTest, Vec<TestPattern>)> = Vec::new();
    let mut solve_stats = SolveStats::default();
    for tps in &tp_sets {
        let set_started = Instant::now();
        let (plans, stats) = tracer.time("tpg.solve", id, || {
            let tpg = Tpg::new(tps.clone());
            plan_tour_with_stats(
                &tpg,
                request.start_policy,
                request.tour_cap,
                solver.as_ref(),
            )
        });
        solve_stats.absorb(stats);
        diagnostics.tours_tried += plans.len();
        tracer.time("generator.schedule", id, || {
            for plan in &plans {
                let tour: Vec<TestPattern> = plan.order.iter().map(|&i| tps[i]).collect();
                if let Ok(test) = schedule_tour(&tour) {
                    if test.check_consistency().is_ok() {
                        candidates.push((test, tour));
                    }
                }
            }
        });
        diagnostics.shard_micros.push(micros(set_started));
    }
    diagnostics.candidates = candidates.len();
    diagnostics.solver_iterations = solve_stats.iterations;
    diagnostics.solver_restarts = solve_stats.restarts;
    candidates.sort_by_key(|(t, _)| (t.complexity(), t.element_count()));
    candidates.dedup_by(|a, b| a.0 == b.0);
    diagnostics.candidate_complexities = candidates.iter().map(|(t, _)| t.complexity()).collect();
    diagnostics.search_micros = micros(search_started);

    diagnostics.verifier = verifier.name().to_owned();
    let verify_started = Instant::now();
    let lanes = widesim::max_model_lanes(faults, request.verify_cells) as u64;
    let mut screen = ScreenCounts::default();
    let mut winner = None;
    for (k, (test, _)) in candidates.iter().enumerate() {
        let run = tracer.time("sim.screen", id, || {
            verifier.verify_sharded(test, faults, 1)
        });
        diagnostics.verify_shard_micros.extend(run.shard_micros);
        screen.sweeps += 1;
        screen.lane_ops += lanes * test.complexity() as u64 * request.verify_cells as u64;
        if run.report.complete() {
            screen.verifying += 1;
            winner = Some(k);
            break;
        }
    }
    let winner = winner.ok_or("no candidate verified")?;
    candidates.truncate(winner + 1);
    let (test, tour) = candidates.pop().expect("the winner is kept");
    let final_test = if request.compact {
        tracer.time("sim.compact", id, || {
            verifier.compact(&test, faults).into_owned()
        })
    } else {
        test.clone()
    };
    let run = tracer.time("sim.reverify", id, || {
        verifier.verify_sharded(&final_test, faults, 1)
    });
    diagnostics.verify_shard_micros.extend(run.shard_micros);
    let non_redundant = (request.compact || request.check_redundancy).then(|| {
        tracer.time("sim.redundancy", id, || {
            verifier.is_non_redundant(&final_test, faults)
        })
    });
    diagnostics.verify_micros = micros(verify_started);

    let mut screened: Vec<MarchTest> = candidates.into_iter().map(|(t, _)| t).collect();
    screened.push(test);
    Ok(Composed {
        outcome: GenerateOutcome {
            test: final_test,
            tour,
            verified: true,
            report: Some(run.report),
            non_redundant,
            diagnostics,
        },
        screen,
        screened,
    })
}

/// Repeats a request's screening sweeps with `workers` shard workers,
/// which is what a lone request with the default `search_threads: 0`
/// gets: the per-sweep thread fan-out cost stays measured although timed
/// requests are pinned to one thread.
pub fn screen_fanout(request: &GenerateRequest, screened: &[MarchTest], workers: usize) {
    let verifier = verifier_for(request).expect("verification is enabled");
    for test in screened {
        std::hint::black_box(verifier.verify_sharded(test, &request.faults, workers));
    }
}

/// The outcome with every wall-clock field zeroed, keeping the lengths of
/// the per-shard timing vectors (they count shards).
pub fn without_timings(mut outcome: GenerateOutcome) -> GenerateOutcome {
    let d = &mut outcome.diagnostics;
    d.expand_micros = 0;
    d.search_micros = 0;
    d.verify_micros = 0;
    d.shard_micros.iter_mut().for_each(|m| *m = 0);
    d.verify_shard_micros.iter_mut().for_each(|m| *m = 0);
    outcome
}

fn micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}
