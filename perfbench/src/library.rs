//! The library workloads: one closed-loop caller of `marchgen::generate`.

use crate::compose;
use crate::pools::Entry;
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Args, OpenBlock, Report, Tail, Timed, BLOCK_SECONDS};
use marchgen::json::ToJson;
use marchgen::sim::coverage::covers_all;
use marchgen::{generate, GenerateOutcome, GenerateRequest, MarchTest};
use std::collections::BTreeMap;
use std::time::Instant;

/// The request for a pool entry.
///
/// Pinned to `search_threads: 1`. With the default of 0, back-to-back
/// 10–15 s runs of identical code read 11–23 req/s on a search pool and
/// 59–109 on a wide-verify pool on a shared 2-vCPU host, against about
/// ±5% pinned: `WideSimVerifier::verify_sharded` spawns scoped threads on
/// every sweep, and both vCPUs are shared. `Batch` and `marchgend` force 1
/// whenever more than one request is in flight; the unpinned cost stays
/// measured as `sim.screen_fanout_ms` in the traced run.
pub fn request(entry: &Entry) -> Result<GenerateRequest, String> {
    Ok(GenerateRequest::from_fault_list(entry.faults)
        .map_err(|e| format!("pool entry {:?}: {e}", entry.faults))?
        .with_verify_cells(entry.cells)
        .with_search_threads(1))
}

/// The correctness oracle for one outcome: it verified, it has the
/// committed complexity, and the scalar simulator — the reference every
/// packed engine is held to — finds no escape at the request's memory
/// size.
pub fn check(
    entry: &Entry,
    request: &GenerateRequest,
    outcome: &GenerateOutcome,
) -> Result<(), String> {
    if !outcome.verified {
        return Err(format!("{:?} @{}: not verified", entry.faults, entry.cells));
    }
    if outcome.complexity() != entry.expected {
        return Err(format!(
            "{:?} @{}: {}n, expected {}n",
            entry.faults,
            entry.cells,
            outcome.complexity(),
            entry.expected
        ));
    }
    if !covers_all(&outcome.test, &request.faults, entry.cells) {
        return Err(format!(
            "{:?} @{}: the scalar simulator finds an escape",
            entry.faults, entry.cells
        ));
    }
    Ok(())
}

/// What every timed answer to one distinct request is checked against.
struct Reference {
    request: GenerateRequest,
    test: MarchTest,
    verdict: Result<(), String>,
    bytes: usize,
}

/// One set-up: build the requests and run each once, untimed by the
/// caller's closed loop.
fn set_up(pool: &[Entry]) -> Result<Vec<(GenerateRequest, GenerateOutcome)>, String> {
    pool.iter()
        .map(|entry| {
            let request = request(entry)?;
            let outcome = generate(&request).map_err(|e| format!("{:?}: {e}", entry.faults))?;
            Ok((request, outcome))
        })
        .collect()
}

/// Checks each set-up outcome once and keeps only what the timed phase
/// compares against, so no outcome outlives its check.
fn references(pool: &[Entry], outcomes: Vec<(GenerateRequest, GenerateOutcome)>) -> Vec<Reference> {
    pool.iter()
        .zip(outcomes)
        .map(|(entry, (request, outcome))| Reference {
            verdict: check(entry, &request, &outcome),
            bytes: outcome.to_json().render().len(),
            test: outcome.test,
            request,
        })
        .collect()
}

/// The closed loop: whole seeded shuffles of the distinct requests until
/// `seconds` have passed and the tail percentile has its samples, cut into
/// blocks at shuffle boundaries.
fn timed(refs: &[Reference], seed: u64, seconds: f64, tail: Tail) -> Result<Timed, String> {
    let pid = std::process::id();
    let cpu_s = || {
        stats::sample(pid)
            .map(|s| s.cpu_s)
            .map_err(|e| e.to_string())
    };
    let mut rng = Rng::new(seed);
    let mut latencies_ms = Vec::new();
    let mut blocks = Vec::new();
    let mut failed = 0;
    let mut bytes = 0;
    let started = Instant::now();
    let mut block = OpenBlock::start(cpu_s()?)?;
    while started.elapsed().as_secs_f64() < seconds || latencies_ms.len() < tail.min_requests() {
        for i in rng.shuffle(refs.len()) {
            let reference = &refs[i];
            let sent = Instant::now();
            let outcome = generate(&reference.request);
            latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            let good = matches!(&outcome, Ok(o) if o.test == reference.test);
            if !(good && reference.verdict.is_ok()) {
                failed += 1;
            }
            bytes += reference.bytes;
        }
        if block.elapsed_s() >= BLOCK_SECONDS {
            block.close(latencies_ms.len(), cpu_s()?, &mut blocks)?;
        }
    }
    block.close(latencies_ms.len(), cpu_s()?, &mut blocks)?;
    Ok(Timed {
        latencies_ms,
        blocks,
        failed,
        wall_s: started.elapsed().as_secs_f64(),
        hwm_kib: stats::sample(pid).map_err(|e| e.to_string())?.hwm_kib,
        bytes,
    })
}

fn report_failures(refs: &[Reference]) {
    for reference in refs {
        if let Err(why) = &reference.verdict {
            eprintln!("check failed: {why}");
        }
    }
}

/// The untraced run: set up several times, then time the closed loop.
pub fn run(pool: &[Entry], tail: Tail, args: &Args) -> Result<Report, String> {
    let (setup_s, outcomes) = crate::repeat_set_up(|| {
        let started = Instant::now();
        let outcomes = set_up(pool)?;
        Ok((started.elapsed(), outcomes))
    })?;
    let refs = references(pool, outcomes);
    report_failures(&refs);
    let timed = timed(&refs, args.seed, args.seconds, tail)?;
    Ok(timed.report(&setup_s, tail, refs.len()))
}

/// The traced run: check the composed pipeline against `generate` on
/// every distinct request, time an untraced loop for half the run as the
/// overhead baseline, then replay the same requests through the
/// composition for the other half.
pub fn run_traced(pool: &[Entry], tail: Tail, args: &Args) -> Result<Report, String> {
    let outcomes = set_up(pool)?;
    let mut mismatches = Vec::new();
    for (k, ((request, outcome), entry)) in outcomes.iter().zip(pool).enumerate() {
        let mut scratch = Tracer::new(Instant::now());
        match compose::compose(request, &mut scratch, k as u64) {
            Ok(composed) => {
                if compose::without_timings(composed.outcome)
                    != compose::without_timings(outcome.clone())
                {
                    mismatches.push(format!("{:?} @{}", entry.faults, entry.cells));
                }
            }
            Err(why) => mismatches.push(format!("{:?} @{}: {why}", entry.faults, entry.cells)),
        }
    }
    for mismatch in &mismatches {
        eprintln!("composed pipeline differs from generate: {mismatch}");
    }
    let refs = references(pool, outcomes);
    report_failures(&refs);
    let half = args.seconds / 2.0;
    let baseline = timed(&refs, args.seed, half, tail)?;

    let workers = crate::nproc();
    let mut tracer = Tracer::new(Instant::now());
    let mut rng = Rng::new(args.seed);
    let mut n = 0u64;
    let mut failed = 0u64;
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |name: &'static str, value: f64| *counts.entry(name).or_insert(0.0) += value;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < half || (n as usize) < tail.min_requests() {
        for i in rng.shuffle(refs.len()) {
            let reference = &refs[i];
            n += 1;
            let composed = match compose::compose(&reference.request, &mut tracer, n) {
                Ok(composed) => composed,
                Err(_) => {
                    failed += 1;
                    continue;
                }
            };
            if !(reference.verdict.is_ok() && composed.outcome.test == reference.test) {
                failed += 1;
            }
            tracer.time("sim.screen_fanout", n, || {
                compose::screen_fanout(&reference.request, &composed.screened, workers)
            });
            let encoded = tracer.time("generator.encode", n, || {
                composed.outcome.to_json().render()
            });
            let d = &composed.outcome.diagnostics;
            add("generator.outcome_bytes", encoded.len() as f64);
            add(
                "generator.diagnostics_bytes",
                d.to_json().render().len() as f64,
            );
            add("generator.combinations", d.combinations as f64);
            add("generator.unique_tp_sets", d.unique_tp_sets as f64);
            add("tpg.tours", d.tours_tried as f64);
            add("generator.candidates", d.candidates as f64);
            add("sim.screen_sweeps", composed.screen.sweeps as f64);
            add("verifying_sweeps", composed.screen.verifying as f64);
            add("sim.lane_ops", composed.screen.lane_ops as f64);
        }
    }
    let path = args.spans_path();
    tracer
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let own = tracer.self_ms();
    let per_request = |ms: f64| ms / n as f64;
    let mut metrics = BTreeMap::new();
    for (metric, span) in [
        ("generator.glue_ms", "request"),
        ("faults.expand_ms", "faults.expand"),
        ("generator.enumerate_ms", "generator.enumerate"),
        ("tpg.solve_ms", "tpg.solve"),
        ("generator.schedule_ms", "generator.schedule"),
        ("sim.screen_ms", "sim.screen"),
        ("sim.compact_ms", "sim.compact"),
        ("sim.reverify_ms", "sim.reverify"),
        ("sim.redundancy_ms", "sim.redundancy"),
        ("sim.screen_fanout_ms", "sim.screen_fanout"),
        ("generator.encode_ms", "generator.encode"),
    ] {
        metrics.insert(metric, per_request(own.get(span).copied().unwrap_or(0.0)));
    }
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    metrics.insert(
        "sim.screen_yield",
        count("verifying_sweeps") / count("sim.screen_sweeps"),
    );
    metrics.insert(
        "sim.ns_per_lane_op",
        own.get("sim.screen").copied().unwrap_or(0.0) * 1e6 / count("sim.lane_ops"),
    );
    for (name, total) in counts {
        if name != "verifying_sweeps" {
            metrics.insert(name, total / n as f64);
        }
    }

    let untraced_ops = baseline.latencies_ms.len() as f64 / baseline.wall_s;
    let traced_ops = n as f64 / (tracer.total_ms("request") / 1e3);
    let correct = mismatches.is_empty() && failed == 0 && baseline.failed == 0;
    Ok(Report {
        correct,
        attempted: n + baseline.latencies_ms.len() as u64,
        failed: failed + baseline.failed,
        metrics,
        record: crate::trace_record(
            untraced_ops,
            traced_ops,
            n,
            refs.len(),
            mismatches.len(),
            &path,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pools::VERIFY_NARROW;

    const TAIL: Tail = Tail {
        label: "p50",
        q: 0.5,
    };

    fn success_ratio(pool: &[Entry]) -> (f64, bool) {
        let refs = references(pool, set_up(pool).unwrap());
        let report = timed(&refs, 7, 0.05, TAIL)
            .unwrap()
            .report(&[0.0], TAIL, refs.len());
        (report.metrics["success_ratio"], report.correct)
    }

    #[test]
    fn committed_expectations_pass() {
        assert_eq!(success_ratio(&VERIFY_NARROW[..6]), (1.0, true));
    }

    /// The self-test of the oracle: one wrong expected complexity in the
    /// pool makes every answer to that request a failure.
    #[test]
    fn a_wrong_expected_value_drives_success_ratio_below_one() {
        let mut pool = VERIFY_NARROW[..6].to_vec();
        pool[0].expected += 1;
        let (ratio, correct) = success_ratio(&pool);
        assert!(ratio > 0.0 && ratio < 1.0, "{ratio}");
        assert!(!correct);
    }
}
