//! `repro` — regenerates every table and figure of the paper in one run
//! and prints the paper-vs-measured record for `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run --release -p marchgen-bench --bin repro
//! ```
//!
//! With `--perf-json <path>` it instead runs the offline **perf smoke**:
//! the Table 3 workloads through the full pipeline under both
//! verification backends (scalar and the packed `auto`), verify-phase
//! microbenchmarks of both, and a **solver phase**: every registered
//! ATSP backend over deterministic instances and pipeline workloads,
//! with per-solver tour-cost and latency columns. Written as a JSON
//! record (the benchmark trajectory, `BENCH_pr10.json`). The process
//! exits non-zero if the packed verifier is slower than twice the scalar
//! time on any pair-fault workload (2x noise margin over the ~10x
//! measured advantage), if the two backends ever disagree on a coverage
//! report, if the local-search solver misses the exact optimum on an
//! exact-range instance, or if the Table 3 `SAF` request verifies more
//! than 3x slower at the default `search_threads: 0` than pinned to one
//! thread (median over [`SAF_THREAD_RUNS`] runs each).
//!
//! ```sh
//! cargo run --release -p marchgen-bench --bin repro -- --perf-json BENCH_pr10.json
//! ```

use marchgen_bench::{row_models, section4_tps, TABLE3};
use marchgen_faults::{bfe, catalog, parse_fault_list, FaultModel, TransitionDir};
use marchgen_generator::{
    baseline, generate, gts::Gts, schedule_tour, GenerateRequest, VerifierChoice,
};
use marchgen_json::Json;
use marchgen_march::{known, MarchTest};
use marchgen_model::{Bit, TwoCellMachine};
use marchgen_sim::coverage::covers_all;
use marchgen_sim::matrix::CoverageMatrix;
use marchgen_sim::verify::Verifier;
use marchgen_sim::{SimVerifier, WideSimVerifier};
use marchgen_tpg::{plan_tour, StartPolicy, Tpg};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--perf-json") {
        let path = args
            .get(pos + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_pr10.json".to_string());
        return perf_smoke(&path);
    }
    figures();
    table3();
    baseline_comparison();
    ablations();
    machinery_costs();
    ExitCode::SUCCESS
}

// ---- perf smoke (scalar vs packed verification) ------------------------

/// Best-of-`reps` wall-clock of `f`, in µs.
fn best_micros(reps: usize, mut f: impl FnMut()) -> u64 {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
        })
        .min()
        .expect("at least one rep")
}

/// One verify-phase microbenchmark: full coverage sweep of `test` over
/// `faults` on `cells` memory cells, scalar vs packed.
fn verify_case(label: &str, faults: &str, cells: usize, test: &MarchTest) -> (Json, bool) {
    let models = parse_fault_list(faults).expect("perf workloads parse");
    let pair_fault = models.iter().any(FaultModel::is_pair_fault);
    let scalar = SimVerifier::new(cells);
    let wide = WideSimVerifier::new(cells);
    let agree = scalar.verify(test, &models) == wide.verify(test, &models);
    let reps = 5;
    let scalar_micros = best_micros(reps, || {
        let _ = scalar.verify(test, &models);
    });
    let wide_micros = best_micros(reps, || {
        let _ = wide.verify(test, &models);
    });
    let wide_speedup = scalar_micros as f64 / wide_micros.max(1) as f64;
    // The regression gate leaves a safety factor over the raw
    // wall-clock comparison: packed-vs-scalar runs ~10x on pair-fault
    // rows, so a 2x margin still trips on a real regression while
    // scheduler noise on a shared CI runner does not.
    let ok = agree && (!pair_fault || wide_micros <= scalar_micros.saturating_mul(2));
    println!(
        "  {label:<34} scalar {scalar_micros:>9} µs | wide {wide_micros:>8} µs ({wide_speedup:>5.1}x)  agree={agree}"
    );
    let entry = Json::object([
        ("label", Json::from(label)),
        ("faults", Json::from(faults)),
        ("cells", Json::from(cells)),
        ("test", Json::Str(test.to_string())),
        ("pair_fault", Json::Bool(pair_fault)),
        ("scalar_verify_micros", Json::from(scalar_micros)),
        ("wide_verify_micros", Json::from(wide_micros)),
        ("wide_speedup", Json::Str(format!("{wide_speedup:.2}"))),
        ("reports_agree", Json::Bool(agree)),
    ]);
    (entry, ok)
}

/// Deterministic xorshift instance for the solver sweeps.
fn solver_bench_instance(n: usize, seed: u64) -> marchgen_atsp::AtspInstance {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    marchgen_atsp::AtspInstance::from_fn(n, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % 100
    })
}

/// The ATSP solver sweep: every registered backend over deterministic
/// instances spanning the exact range (n = 12), the branch-and-bound
/// range (n = 30) and the local-search range (n = 48). Emits
/// per-solver tour-cost and latency columns; fails when the local
/// search misses the exact optimum inside the exact range, or any
/// backend returns an invalid tour.
fn solver_sweep(rows: &mut Vec<Json>) -> bool {
    use marchgen_atsp::SolverRegistry;
    let mut ok = true;
    let registry = SolverRegistry::default();
    println!("== perf smoke: ATSP solver sweep (cost | latency) ============");
    for (n, seed) in [(12usize, 7u64), (30, 11), (48, 23)] {
        let inst = solver_bench_instance(n, seed);
        // Exact reference where an exact backend is in range (the same
        // thresholds the auto policy dispatches on).
        let exact_cost = (n <= marchgen_atsp::EXACT_THRESHOLD).then(|| {
            if n <= marchgen_atsp::held_karp::MAX_NODES {
                marchgen_atsp::held_karp::solve(&inst).cost
            } else {
                marchgen_atsp::branch_bound::solve(&inst).cost
            }
        });
        for name in registry.names() {
            let solver = registry.get(name).expect("registered");
            let tour = solver.solve(&inst);
            let valid = inst.is_valid_tour(&tour.order);
            ok &= valid;
            let micros = best_micros(3, || {
                let _ = solver.solve(&inst);
            });
            let exact_hit = exact_cost.map(|opt| tour.cost == opt);
            if let (true, Some(opt)) = (
                name == "local-search" && n <= marchgen_atsp::held_karp::MAX_NODES,
                exact_cost,
            ) {
                // The acceptance gate: inside the exact range the local
                // search must land on the optimum.
                ok &= tour.cost == opt;
            }
            println!(
                "  n={n:<3} {name:<13} cost {:>6} | {micros:>8} µs | exact_hit={:?}",
                tour.cost, exact_hit
            );
            rows.push(Json::object([
                ("n", Json::from(n)),
                ("seed", Json::from(seed)),
                ("solver", Json::from(name)),
                ("tour_cost", Json::from(tour.cost)),
                ("solve_micros", Json::from(micros)),
                (
                    "exact_optimum",
                    exact_cost.map(Json::from).unwrap_or(Json::Null),
                ),
                (
                    "matches_exact",
                    exact_hit.map(Json::Bool).unwrap_or(Json::Null),
                ),
                ("valid_tour", Json::Bool(valid)),
            ]));
        }
    }
    ok
}

/// The pipeline solver sweep: two catalog workloads through `generate`
/// once per backend, recording complexity (the tour-cost proxy the
/// paper optimizes), search latency and the local-search counters.
/// Fails when a backend other than the bounded one-shot heuristic
/// misses the exact baseline complexity or fails verification.
fn solver_pipeline_sweep(rows: &mut Vec<Json>) -> bool {
    use marchgen_atsp::SolverChoice;
    let mut ok = true;
    println!("== perf smoke: pipeline per-solver (complexity | search µs) ==");
    for faults in ["CFid<u,0>, CFid<u,1>", "SAF, TF, ADF, CFin, CFid"] {
        let baseline = generate(&GenerateRequest::from_fault_list(faults).expect("parses"))
            .expect("generates")
            .complexity();
        for key in [
            "auto",
            "held-karp",
            "branch-bound",
            "heuristic",
            "local-search",
        ] {
            let request = GenerateRequest::from_fault_list(faults)
                .expect("parses")
                .with_solver(SolverChoice::from_key(key));
            let started = Instant::now();
            let out = generate(&request).expect("generates");
            let total = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            let d = &out.diagnostics;
            let matches = out.complexity() == baseline && out.verified;
            // Gate by what each backend promises: the enumerating exact
            // backends must hit the baseline complexity exactly; the
            // single-tour backends (branch-and-bound, local search) may
            // lose one operation to tour-enumeration — the March
            // constructor tries every optimal tour only when the
            // backend can enumerate them — and the one-shot heuristic
            // gets the same slack. Everything must verify.
            ok &= out.verified;
            if matches!(key, "auto" | "held-karp") {
                ok &= matches;
            } else {
                ok &= out.complexity() <= baseline + 1;
            }
            println!(
                "  {faults:<26} {key:<13} {:>2}n | search {:>8} µs | total {:>8} µs | ls {}it/{}re",
                out.complexity(),
                d.search_micros,
                total,
                d.solver_iterations,
                d.solver_restarts,
            );
            rows.push(Json::object([
                ("faults", Json::from(faults)),
                ("solver", Json::from(key)),
                ("complexity", Json::from(out.complexity())),
                ("verified", Json::Bool(out.verified)),
                ("matches_baseline", Json::Bool(matches)),
                ("search_micros", Json::from(d.search_micros)),
                ("total_micros", Json::from(total)),
                ("solver_iterations", Json::from(d.solver_iterations)),
                ("solver_restarts", Json::from(d.solver_restarts)),
            ]));
        }
    }
    ok
}

/// Runs of the Table 3 `SAF` request per thread setting in
/// [`saf_thread_rows`].
const SAF_THREAD_RUNS: usize = 101;

/// The unpinned `SAF` row against the pinned one: the Table 3 `SAF`
/// request [`SAF_THREAD_RUNS`] times at `search_threads` 0 and at 1,
/// alternating, and the median `verify_micros` of each. Every coverage
/// sweep runs on the calling thread whatever `search_threads` says, so
/// the gate fails when the unpinned median exceeds 3x the pinned one
/// (the margin absorbs shared-runner noise on a sweep of ~15 µs).
fn saf_thread_rows(rows: &mut Vec<Json>) -> bool {
    println!("== perf smoke: SAF verify µs, unpinned vs pinned ============");
    let models = row_models(&TABLE3[0]);
    let mut runs: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..SAF_THREAD_RUNS {
        for (threads, micros) in runs.iter_mut().enumerate() {
            let request = GenerateRequest::new(models.clone()).with_search_threads(threads);
            let out = generate(&request).expect("the SAF row generates");
            micros.push(out.diagnostics.verify_micros);
        }
    }
    let [unpinned, pinned] = runs.map(|mut micros| {
        micros.sort_unstable();
        micros[micros.len() / 2]
    });
    let ok = unpinned <= pinned.max(1).saturating_mul(3);
    println!(
        "  {:<22} search_threads 0 {unpinned:>6} µs | 1 {pinned:>6} µs (median of {SAF_THREAD_RUNS})",
        TABLE3[0].label
    );
    for (threads, median) in [(0usize, unpinned), (1, pinned)] {
        rows.push(Json::object([
            ("label", Json::from(TABLE3[0].label)),
            ("search_threads", Json::from(threads)),
            ("runs", Json::from(SAF_THREAD_RUNS)),
            ("median_verify_micros", Json::from(median)),
        ]));
    }
    ok
}

/// The offline perf smoke: per-phase pipeline timings on the Table 3
/// workloads under both verification backends, the `SAF` request
/// unpinned against pinned, verify-phase microbenchmarks (including the
/// pair-fault CFin+CFid+CFst sweep at 8 cells), and the per-solver
/// cost/latency sweeps. Writes the record to `path`; non-zero exit when
/// the packed backend exceeds twice the scalar time on a pair-fault
/// workload (2x noise margin), the verification backends disagree, the
/// unpinned `SAF` median verify time exceeds 3x the pinned one, or a
/// solver misses its cost gate.
fn perf_smoke(path: &str) -> ExitCode {
    let mut ok = true;

    println!("== perf smoke: pipeline per-phase timings (Table 3) ==========");
    let mut pipeline_rows = Vec::new();
    for row in TABLE3 {
        let models = row_models(row);
        let pair_fault = models.iter().any(FaultModel::is_pair_fault);
        for (backend, choice) in [
            ("scalar", VerifierChoice::Scalar),
            ("auto", VerifierChoice::Auto),
        ] {
            let request = GenerateRequest::new(models.clone()).with_verifier(choice);
            let started = Instant::now();
            let out = generate(&request).expect("table rows generate");
            let total = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            let d = &out.diagnostics;
            println!(
                "  {:<22} {:<7} {:>2}n  expand {:>6} µs | search {:>8} µs | verify {:>9} µs",
                row.label,
                backend,
                out.test.complexity(),
                d.expand_micros,
                d.search_micros,
                d.verify_micros
            );
            pipeline_rows.push(Json::object([
                ("label", Json::from(row.label)),
                ("backend", Json::from(backend)),
                ("complexity", Json::from(out.test.complexity())),
                ("verified", Json::Bool(out.verified)),
                ("pair_fault", Json::Bool(pair_fault)),
                ("expand_micros", Json::from(d.expand_micros)),
                ("search_micros", Json::from(d.search_micros)),
                ("verify_micros", Json::from(d.verify_micros)),
                ("total_micros", Json::from(total)),
                (
                    "shard_micros",
                    Json::array(d.shard_micros.iter().map(|&m| Json::from(m))),
                ),
                ("verifier", Json::Str(d.verifier.clone())),
                (
                    "verify_shard_micros",
                    Json::array(d.verify_shard_micros.iter().map(|&m| Json::from(m))),
                ),
            ]));
        }
    }

    let mut thread_rows = Vec::new();
    ok &= saf_thread_rows(&mut thread_rows);

    println!("== perf smoke: verify-phase sweeps, scalar vs wide ==========");
    let mut verify_rows = Vec::new();
    let march_c = known::march_c_minus();
    let march_ss = known::march_ss();
    for (label, faults, cells, test) in [
        (
            "single faults @8 (March C-)",
            "SAF, TF, RDF, IRF",
            8,
            &march_c,
        ),
        ("CFin+CFid @4 (March C-)", "CFin, CFid", 4, &march_c),
        (
            "CFin+CFid+CFst @8 (March C-)",
            "CFin, CFid, CFst",
            8,
            &march_c,
        ),
        (
            "CFin+CFid+CFst @8 (March SS)",
            "CFin, CFid, CFst",
            8,
            &march_ss,
        ),
        (
            "Table3 row5 list @6",
            "SAF, TF, ADF, CFin, CFid",
            6,
            &march_c,
        ),
        (
            "Table3 row5 list @8",
            "SAF, TF, ADF, CFin, CFid",
            8,
            &march_c,
        ),
    ] {
        let (entry, case_ok) = verify_case(label, faults, cells, test);
        verify_rows.push(entry);
        ok &= case_ok;
    }

    let mut solver_rows = Vec::new();
    ok &= solver_sweep(&mut solver_rows);
    let mut solver_pipeline_rows = Vec::new();
    ok &= solver_pipeline_sweep(&mut solver_pipeline_rows);

    let doc = Json::object([
        ("schema", Json::from("marchgen-bench/5")),
        ("pipeline_rows", Json::array(pipeline_rows)),
        ("thread_rows", Json::array(thread_rows)),
        ("verify_phase", Json::array(verify_rows)),
        ("solver_phase", Json::array(solver_rows)),
        ("solver_pipeline", Json::array(solver_pipeline_rows)),
        ("pass", Json::Bool(ok)),
    ]);
    if let Err(e) = std::fs::write(path, doc.render_pretty()) {
        eprintln!("error: cannot write {path:?}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: a perf gate failed — packed verify over 2x scalar on a pair-fault \
             workload, verifier reports disagreed, unpinned SAF verify over 3x pinned, \
             or a solver missed its cost gate"
        );
        ExitCode::FAILURE
    }
}

fn figures() {
    println!("== Figures 1-3: memory model =================================");
    let m0 = TwoCellMachine::fault_free();
    println!(
        "Figure 1  M0: 4 states x 7 ops = {} transitions (paper: fault-free two-cell RAM)",
        4 * 7
    );
    let machines = catalog::machines(FaultModel::CouplingIdempotent(TransitionDir::Up, Bit::Zero));
    for (label, m) in &machines {
        let diffs = m0.diff(m);
        println!(
            "Figure 2  {label}: differs from M0 in {} transition(s) (paper: 1)",
            diffs.len()
        );
    }
    let mut tps = Vec::new();
    for (_, m) in &machines {
        for b in bfe::extract(m) {
            tps.extend(b.test_patterns());
        }
    }
    println!(
        "Figure 3  BFE split of CFid<↑,0>: {} TPs (paper: TP1=(01,w1i,r1j), TP2=(10,w1j,r1i))",
        tps.len()
    );
    for tp in &tps {
        println!("          {tp}");
    }

    println!("\n== Figure 4 + Section 4 worked example ======================");
    let tps = section4_tps();
    let tpg = Tpg::new(tps.clone());
    let mut weights: Vec<u32> = tpg.arcs().map(|(_, _, w)| w).collect();
    weights.sort_unstable();
    println!("Figure 4  TPG weights: {weights:?} (paper: 0x2, 1x4, 2x6)");
    let plans = plan_tour(&tpg, StartPolicy::Uniform, 64);
    let plan = &plans[0];
    let tour: Vec<_> = plan.order.iter().map(|&k| tps[k]).collect();
    let gts = Gts::from_tour(&tour);
    println!("GTS ({} ops, paper: 12): {gts}", gts.len());
    let best = plans
        .iter()
        .filter_map(|p| {
            let t: Vec<_> = p.order.iter().map(|&k| tps[k]).collect();
            schedule_tour(&t).ok()
        })
        .min_by_key(marchgen_march::MarchTest::complexity)
        .expect("schedules");
    println!("March test ({}n, paper: 8n): {best}", best.complexity());
}

fn table3() {
    println!("\n== Table 3 ===================================================");
    println!(
        "{:<22} {:>6} {:>6}   {:>9} {:>9}  {:<14} generated test",
        "fault list", "kn", "paper", "time", "paper", "known equiv"
    );
    for row in TABLE3 {
        let models = row_models(row);
        let start = Instant::now();
        let out = generate(&GenerateRequest::new(models.clone())).expect("generates");
        let dt = start.elapsed();
        let cm = CoverageMatrix::build(&out.test, &models, 4);
        let nr = cm.non_redundancy();
        assert!(out.verified && nr.non_redundant, "{}", row.label);
        println!(
            "{:<22} {:>5}n {:>5}n   {:>9.2?} {:>8.2}s  {:<14} {}",
            row.label,
            out.test.complexity(),
            row.paper_complexity,
            dt,
            row.paper_seconds,
            row.known_equivalent,
            out.test
        );
    }
    println!("(every row verified complete + non-redundant by the §6 simulator/set-covering)");

    println!("\nKnown-test cross-check (strict simulator semantics):");
    for (row, name) in [
        (0usize, "MATS"),
        (1, "MATS+"),
        (2, "MATS++"),
        (3, "March X"),
        (4, "March C-"),
    ] {
        let models = row_models(&TABLE3[row]);
        let t = known::by_name(name).expect("known");
        println!(
            "  {:<9} covers {:<22}: {}",
            name,
            TABLE3[row].label,
            covers_all(&t, &models, 4)
        );
    }
}

fn baseline_comparison() {
    println!("\n== §2 baseline: exhaustive transition-tree vs pipeline ======");
    for (label, list, bound) in [
        ("SAF", "SAF", 4usize),
        ("SAF+TF", "SAF, TF", 5),
        ("SAF+TF+ADF", "SAF, TF, ADF", 6),
    ] {
        let models = marchgen_faults::parse_fault_list(list).expect("parses");
        let t0 = Instant::now();
        let out = generate(&GenerateRequest::new(models.clone())).expect("generates");
        let pipeline_time = t0.elapsed();

        let cap = 40_000_000u64;
        let t1 = Instant::now();
        let res = baseline::search(&models, bound, 3, cap);
        let baseline_time = t1.elapsed();
        let found = res
            .test
            .map_or("capped".to_string(), |t| format!("{}n", t.complexity()));
        println!(
            "  {label:<12} pipeline {}n in {:>9.2?} | exhaustive {} after {} nodes in {:>9.2?}",
            out.test.complexity(),
            pipeline_time,
            found,
            res.stats.nodes,
            baseline_time,
        );
    }
    // The exponential curve itself: tree size per complexity bound.
    let saf = parse_fault_list("SAF").expect("parses");
    let nodes: Vec<u64> = [2usize, 3, 4]
        .iter()
        .map(|&bound| baseline::search(&saf, bound, 3, u64::MAX).stats.nodes)
        .collect();
    println!("  SAF exhaustive tree nodes at bounds 2n/3n/4n: {nodes:?}");
}

fn ablations() {
    println!("\n== Ablations on row 5 (SAF+TF+ADF+CFin+CFid) =================");
    let models = row_models(&TABLE3[4]);
    let default = GenerateRequest::new(models);
    for (label, request) in [
        (
            "default (f.4.4 + enumeration + Table-2 pass)",
            default.clone(),
        ),
        (
            "start policy: free",
            default.clone().with_start_policy(StartPolicy::Free),
        ),
        (
            "single tour per combination",
            default.clone().with_tour_cap(1),
        ),
        ("no minimization pass", default.clone().with_compact(false)),
    ] {
        let t = Instant::now();
        let out = generate(&request).expect("generates");
        println!(
            "  {:<46} -> {:>2}n, verified={} in {:>9.2?}",
            label,
            out.test.complexity(),
            out.verified,
            t.elapsed()
        );
    }
}

/// What the tables rest on, timed: the §6 simulator across memory sizes
/// and test lengths, the coverage matrix with its exact set cover, and
/// the ATSP assignment bound and all-optimal-tour enumeration.
fn machinery_costs() {
    println!("\n== §6 simulator and ATSP machinery (best of 3) ===============");
    let models = parse_fault_list("SAF, TF, CFin, CFid").expect("parses");
    let march_c = known::march_c_minus();
    for n in [4usize, 6, 8] {
        let micros = best_micros(3, || {
            black_box(covers_all(&march_c, &models, n));
        });
        println!("  covers_all March C- over SAF+TF+CFin+CFid @{n}: {micros:>8} µs");
    }
    let cfid = parse_fault_list("CFid").expect("parses");
    for name in ["MATS", "March C-", "March SS"] {
        let test = known::by_name(name).expect("known");
        let micros = best_micros(3, || {
            black_box(covers_all(&test, &cfid, 4));
        });
        println!("  covers_all {name:<8} over CFid @4: {micros:>8} µs");
    }
    let matrix_micros = best_micros(3, || {
        black_box(CoverageMatrix::build(&march_c, &models, 4));
    });
    let matrix = CoverageMatrix::build(&march_c, &models, 4);
    let cover_micros = best_micros(3, || {
        black_box(matrix.non_redundancy());
    });
    println!("  coverage matrix (March C- @4): {matrix_micros} µs, set cover: {cover_micros} µs");
    for n in [8usize, 16, 24] {
        let inst = solver_bench_instance(n, 7 + n as u64);
        let micros = best_micros(3, || {
            black_box(marchgen_atsp::hungarian::lower_bound(&inst));
        });
        println!(
            "  n={n:<3} assignment bound {:>5} in {micros:>6} µs",
            marchgen_atsp::hungarian::lower_bound(&inst)
        );
    }
    for n in [8usize, 10, 12] {
        let inst = solver_bench_instance(n, 1000 + n as u64);
        let micros = best_micros(3, || {
            black_box(marchgen_atsp::held_karp::solve_all(&inst, 64));
        });
        println!(
            "  n={n:<3} all optimal tours (cap 64): {:>2} in {micros:>6} µs",
            marchgen_atsp::held_karp::solve_all(&inst, 64).len()
        );
    }
}
