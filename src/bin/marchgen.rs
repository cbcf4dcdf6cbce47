//! `marchgen` — command-line front end to the March test generator.
//!
//! ```text
//! marchgen generate <fault-list> [--json]     generate a verified March test
//! marchgen validate <march> <fault-list> [--json]
//!                                             simulate a test against faults
//! marchgen analyze  <march> [--json]          static detection conditions
//! marchgen codegen  <march> [--lang c|rust|sv] [--json]
//!                                             emit BIST source code or RTL
//! marchgen known    [name]                    show the classical library
//! marchgen batch    <file> [--json] [--threads N]
//!                                             run one fault list per line
//! ```

use marchgen::json::{Json, ToJson};
use marchgen::march::analysis;
use marchgen::march::codegen;
use marchgen::prelude::*;
use marchgen::rtl::RtlOptions;
use marchgen::{Verifier, WideSimVerifier};
use std::process::ExitCode;

#[path = "shared/args.rs"]
mod args;
use args::{take_flag, take_option, take_str_option};

fn main() -> ExitCode {
    let run = match parse(std::env::args().skip(1).collect()) {
        Ok(run) => run,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
marchgen — automatic generation of optimal March tests (Benso et al., DATE 2002)

usage:
  marchgen generate <fault-list> [--json] [--solver NAME] [--search-threads N]
                    [--cache-dir DIR]
                                            e.g. marchgen generate \"SAF, TF, CFin\"
  marchgen validate <march> <fault-list> [--json]
                                            e.g. marchgen validate \"m(w0); u(r0,w1); d(r1)\" SAF
  marchgen analyze  <march> [--json]        static detection conditions
  marchgen codegen  <march> [--lang c|rust|sv] [--json] [--name IDENT]
                    [--addr-width N] [--data-width N] [--delay-cycles N] [--no-testbench]
                                            emit BIST source code; `sv` produces a
                                            synthesizable patgen + BIST wrapper +
                                            testbench bundle (see docs/RTL notes)
                                            e.g. marchgen codegen \"March C-\" --lang sv
  marchgen known    [name]                  list/show the classical test library
  marchgen batch    <file> [--json] [--threads N] [--solver NAME]
                    [--search-threads N] [--cache-dir DIR]
                                            one fault list per line through the batch service

  --solver          ATSP backend: auto (exact at every size: Held-Karp with
                    every tied tour up to 18 nodes, branch-and-bound above;
                    the default), branch-bound (exact, one tour per set) or
                    heuristic (fast, inexact); the retired names held-karp
                    and local-search still mean auto
  --search-threads  worker threads for the in-request tour planning
                    (0 = one per CPU; never changes the result)
  --cache-dir       persistent content-addressed outcome cache: identical
                    requests (modulo fault-list order and execution knobs)
                    are replayed instead of recomputed, across processes

fault lists:        families SAF TF SOF ADF CFin CFid CFst RDF DRDF IRF
                    DRF, dynamic dRDF dDRDF dIRF (case-sensitive d),
                    linked LCF; or qualified instances like SA0, TF<u>,
                    CFid<u,0>, dRDF<1>, LCF<0>
";

/// A parsed command, ready to run; it can fail only at run time (exit 1).
type Run = Box<dyn FnOnce() -> Result<(), String>>;

/// Parses a command line (without the program name) into the command to
/// run, rejecting every argument problem (exit 2) before anything runs.
/// Each command takes its own options, then exactly its positional
/// arguments: a missing one, an extra one, or an option the command
/// does not take (`--threads` outside `batch`, `--json` on `known`) is
/// an error, not silently dropped.
fn parse(mut args: Vec<String>) -> Result<Run, String> {
    if args.is_empty() {
        return Err(format!("missing command\n\n{USAGE}"));
    }
    let name = args.remove(0);
    let run: Run = match name.as_str() {
        "generate" => {
            let json = take_flag(&mut args, "--json");
            let knobs = take_knobs(&mut args)?;
            let [list] = positionals(args, "generate needs a fault list")?;
            Box::new(move || generate_cmd(&list, json, &knobs))
        }
        "validate" => {
            let json = take_flag(&mut args, "--json");
            let [march, faults] = positionals(args, "validate needs <march> and <fault-list>")?;
            Box::new(move || validate(&march, &faults, json))
        }
        "analyze" => {
            let json = take_flag(&mut args, "--json");
            let [march] = positionals(args, "analyze needs a march test")?;
            Box::new(move || analyze_cmd(&march, json))
        }
        "codegen" => {
            let json = take_flag(&mut args, "--json");
            let (lang, options) = take_codegen_options(&mut args)?;
            let [march] = positionals(args, "codegen needs a march test")?;
            Box::new(move || codegen_cmd(&march, json, &lang, &options))
        }
        "known" => {
            check_leftovers(&args, 1)?;
            Box::new(move || known_cmd(args.first().map(String::as_str)))
        }
        "batch" => {
            let json = take_flag(&mut args, "--json");
            let threads = take_option(&mut args, "--threads")?;
            let knobs = take_knobs(&mut args)?;
            let [path] = positionals(args, "batch needs a file of fault lists (one per line)")?;
            Box::new(move || batch_cmd(&path, json, threads, &knobs))
        }
        other => return Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    Ok(run)
}

/// Rejects what is left of a command line once the command's options
/// are taken: an option the command does not take (`--...`), or an
/// argument past the `max`-th positional one.
fn check_leftovers(args: &[String], max: usize) -> Result<(), String> {
    match args
        .iter()
        .find(|arg| arg.starts_with("--"))
        .or_else(|| args.get(max))
    {
        Some(arg) => Err(format!("unexpected argument {arg:?}")),
        None => Ok(()),
    }
}

/// The `N` positional arguments of a command whose options are taken;
/// fewer is the `missing` error.
fn positionals<const N: usize>(args: Vec<String>, missing: &str) -> Result<[String; N], String> {
    check_leftovers(&args, N)?;
    args.try_into().map_err(|_| missing.to_owned())
}

/// Request-level knobs applied uniformly by `generate` and `batch`.
struct RequestKnobs {
    solver: Option<marchgen::SolverChoice>,
    search_threads: Option<usize>,
    cache_dir: Option<String>,
}

/// Takes the request options shared by `generate` and `batch`:
/// `--search-threads`, `--solver` and `--cache-dir`.
fn take_knobs(args: &mut Vec<String>) -> Result<RequestKnobs, String> {
    let search_threads = take_option(args, "--search-threads")?;
    let cache_dir = take_str_option(args, "--cache-dir")?;
    let solver = match take_str_option(args, "--solver")? {
        None => None,
        Some(name) => {
            // Validate eagerly against the built-in registry so a typo
            // fails at the command line, not deep inside generation.
            let choice = marchgen::SolverChoice::from_key(&name);
            let registry = marchgen::SolverRegistry::default();
            if registry.resolve(&choice).is_err() {
                return Err(format!(
                    "--solver must be one of {}, got {name:?}",
                    registry.names().join(", ")
                ));
            }
            Some(choice)
        }
    };
    Ok(RequestKnobs {
        solver,
        search_threads,
        cache_dir,
    })
}

impl RequestKnobs {
    fn apply(&self, mut request: GenerateRequest) -> GenerateRequest {
        if let Some(solver) = &self.solver {
            request = request.with_solver(solver.clone());
        }
        if let Some(threads) = self.search_threads {
            request = request.with_search_threads(threads);
        }
        request
    }

    /// Opens the persistent outcome cache when `--cache-dir` was given.
    fn open_cache(&self) -> Result<Option<marchgen::cache::OutcomeCache>, String> {
        match &self.cache_dir {
            None => Ok(None),
            Some(dir) => marchgen::cache::OutcomeCache::new(1024)
                .with_disk(dir)
                .map(Some)
                .map_err(|e| format!("cannot open cache dir {dir:?}: {e}")),
        }
    }
}

/// Takes `codegen`'s options: the language (`c` by default), and the
/// module name and RTL knobs, which only `sv` reads besides the name.
fn take_codegen_options(args: &mut Vec<String>) -> Result<(String, RtlOptions), String> {
    let lang = take_str_option(args, "--lang")?.unwrap_or_else(|| "c".to_owned());
    let name = take_str_option(args, "--name")?;
    let addr_width = take_option(args, "--addr-width")?;
    let data_width = take_option(args, "--data-width")?;
    let delay_cycles = take_option(args, "--delay-cycles")?;
    let no_testbench = take_flag(args, "--no-testbench");
    if !matches!(lang.as_str(), "c" | "rust" | "sv") {
        return Err(format!("unknown language {lang:?} (use c, rust or sv)"));
    }
    // The RTL knobs only shape SystemVerilog; reject them elsewhere so a
    // stray `--addr-width` on `--lang c` is a loud error, not a no-op.
    if lang != "sv" {
        for (flag, given) in [
            ("--addr-width", addr_width.is_some()),
            ("--data-width", data_width.is_some()),
            ("--delay-cycles", delay_cycles.is_some()),
            ("--no-testbench", no_testbench),
        ] {
            if given {
                return Err(format!("{flag} only applies to --lang sv"));
            }
        }
    }
    let width = |w: usize| u32::try_from(w).unwrap_or(u32::MAX);
    let mut options = RtlOptions::default().with_testbench(!no_testbench);
    if let Some(name) = name {
        options = options.with_name(name);
    }
    if let Some(w) = addr_width {
        options = options.with_addr_width(width(w));
    }
    if let Some(w) = data_width {
        options = options.with_data_width(width(w));
    }
    if let Some(cycles) = delay_cycles {
        options = options.with_delay_cycles(width(cycles));
    }
    Ok((lang, options))
}

fn generate_cmd(list: &str, json: bool, knobs: &RequestKnobs) -> Result<(), String> {
    let request = knobs.apply(GenerateRequest::from_fault_list(list).map_err(|e| e.to_string())?);
    let outcome = match knobs.open_cache()? {
        Some(cache) => cache.get_or_compute(&request, generate),
        None => generate(&request),
    }
    .map_err(|e| e.to_string())?;
    if json {
        print!("{}", outcome.to_json_pretty());
    } else {
        print_outcome_text(&outcome);
    }
    if !outcome.verified {
        if let (false, Some(report)) = (json, &outcome.report) {
            println!("{report}");
        }
        return Err("generated test failed verification".into());
    }
    Ok(())
}

fn print_outcome_text(outcome: &GenerateOutcome) {
    println!("march test : {}", outcome.test);
    println!("complexity : {}n", outcome.test.complexity());
    if outcome.test.delay_count() > 0 {
        println!("delays     : {}", outcome.test.delay_count());
    }
    println!("verified   : {}", outcome.verified);
    if let Some(nr) = outcome.non_redundant {
        println!("non-redund.: {nr}");
    }
    let d = &outcome.diagnostics;
    println!(
        "search     : {} combinations, {} tours, {} candidates, {} µs",
        d.combinations,
        d.tours_tried,
        d.candidates,
        d.total_micros()
    );
    if !d.solver.is_empty() {
        println!("solver     : {}", d.solver);
    }
}

fn parse_march_arg(s: &str) -> Result<MarchTest, String> {
    let test = known::by_name(s)
        .map(Ok)
        .unwrap_or_else(|| s.parse::<MarchTest>().map_err(|e| e.to_string()))?;
    test.check_consistency()
        .map_err(|e| format!("inconsistent march test: {e}"))?;
    Ok(test)
}

fn validate(march: &str, faults: &str, json: bool) -> Result<(), String> {
    let test = parse_march_arg(march)?;
    let models = parse_fault_list(faults).map_err(|e| e.to_string())?;
    let report = WideSimVerifier::new(6).verify(&test, &models);
    if json {
        let doc = Json::object([
            ("test", Json::Str(test.to_string())),
            ("complexity", Json::from(test.complexity())),
            (
                "report",
                marchgen::generator::serde::report_to_json(&report),
            ),
        ]);
        print!("{}", doc.render_pretty());
    } else {
        print!("{report}");
    }
    if report.complete() {
        if !json {
            println!("verdict: full coverage");
        }
        Ok(())
    } else {
        Err("coverage incomplete".into())
    }
}

fn analyze_cmd(march: &str, json: bool) -> Result<(), String> {
    let test = parse_march_arg(march)?;
    let c = analysis::analyze(&test);
    if json {
        let doc = Json::object([
            ("test", Json::Str(test.to_string())),
            ("complexity", Json::from(test.complexity())),
            (
                "conditions",
                Json::object([
                    ("saf", Json::Bool(c.saf)),
                    ("tf", Json::Bool(c.tf)),
                    ("af", Json::Bool(c.af)),
                    ("sof", Json::Bool(c.sof)),
                    ("drf", Json::Bool(c.drf)),
                ]),
            ),
        ]);
        print!("{}", doc.render_pretty());
        return Ok(());
    }
    println!("test       : {test}");
    println!("complexity : {}n", test.complexity());
    println!("SAF        : {}", c.saf);
    println!("TF         : {}", c.tf);
    println!("AF         : {}", c.af);
    println!("SOF        : {}", c.sof);
    println!("DRF        : {}", c.drf);
    println!("(sufficient conditions; use `validate` for exact simulation)");
    Ok(())
}

fn codegen_cmd(march: &str, json: bool, lang: &str, options: &RtlOptions) -> Result<(), String> {
    let test = parse_march_arg(march)?;
    let code = match lang {
        "c" => codegen::to_c(&test, &options.name),
        "rust" => codegen::to_rust(&test, &options.name),
        _ => marchgen::rtl::emit_sv(&test, options).map_err(|e| e.to_string())?,
    };
    if json {
        let name = codegen::sanitize_ident(&options.name);
        let doc = marchgen::serve::codegen_json(&test, lang, &name, &code);
        print!("{}", doc.render_pretty());
    } else {
        print!("{code}");
    }
    Ok(())
}

fn known_cmd(name: Option<&str>) -> Result<(), String> {
    match name {
        None => {
            for (name, test) in known::all() {
                println!("{name:<10} {:>3}n  {}", test.complexity(), test);
            }
        }
        Some(name) => {
            let test = known::by_name(name).ok_or_else(|| format!("unknown test {name:?}"))?;
            println!("{test}");
        }
    }
    Ok(())
}

fn batch_cmd(
    path: &str,
    json: bool,
    threads: Option<usize>,
    knobs: &RequestKnobs,
) -> Result<(), String> {
    let content =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let mut lists: Vec<&str> = Vec::new();
    let mut requests = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let request = knobs.apply(
            GenerateRequest::from_fault_list(line)
                .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?,
        );
        lists.push(line);
        requests.push(request);
    }
    if requests.is_empty() {
        return Err(format!("{path}: no fault lists found"));
    }

    let mut batch = Batch::new();
    if let Some(threads) = threads {
        batch = batch.threads(threads);
    }
    let total = requests.len();
    let on_event = |event: marchgen::service::BatchEvent<'_>| match event {
        marchgen::service::BatchEvent::Started { index, request } => {
            eprintln!(
                "[{}/{total}] generating for {} models...",
                index + 1,
                request.faults.len()
            );
        }
        marchgen::service::BatchEvent::Finished { index, outcome } => {
            eprintln!("[{}/{total}] done: {}n", index + 1, outcome.complexity());
        }
        marchgen::service::BatchEvent::Failed { index, error } => {
            eprintln!("[{}/{total}] failed: {error}", index + 1);
        }
        marchgen::service::BatchEvent::Completed {
            total: batch_total,
            succeeded,
            failed,
        } => {
            eprintln!("batch complete: {succeeded}/{batch_total} generated, {failed} failed");
        }
    };
    let results = match knobs.open_cache()? {
        Some(cache) => batch.run_cached(&cache, requests, on_event),
        None => batch.run_with_progress(requests, on_event),
    };

    if json {
        let entries = lists
            .iter()
            .zip(&results)
            .map(|(list, result)| match result {
                Ok(outcome) => Json::object([
                    ("faults", Json::from(*list)),
                    ("outcome", outcome.to_json()),
                ]),
                Err(error) => Json::object([
                    ("faults", Json::from(*list)),
                    ("error", Json::Str(marchgen::error_chain(error))),
                ]),
            });
        print!("{}", Json::array(entries).render_pretty());
    } else {
        for (list, result) in lists.iter().zip(&results) {
            match result {
                Ok(outcome) => println!(
                    "{list:<40} {:>3}n  verified={}  {}",
                    outcome.complexity(),
                    outcome.verified,
                    outcome.test
                ),
                Err(error) => println!("{list:<40} ERROR {error}"),
            }
        }
    }
    let all_ok = results
        .iter()
        .all(|r| r.as_ref().map(|outcome| outcome.verified).unwrap_or(false));
    if all_ok {
        Ok(())
    } else {
        Err("some batch entries failed or did not verify".into())
    }
}
