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

use marchgen::march::analysis;
use marchgen::march::codegen;
use marchgen::prelude::*;
use marchgen::{Verifier, WideSimVerifier};
use std::process::ExitCode;

#[path = "shared/args.rs"]
mod args;
use args::{take_flag, take_option, take_str_option};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = take_flag(&mut args, "--json");
    // Engine knobs are only meaningful for the generating subcommands;
    // leaving them in `args` elsewhere makes a stray `--solver` on e.g.
    // `validate` a loud error instead of a silent no-op.
    let generating = matches!(args.first().map(String::as_str), Some("generate" | "batch"));
    let (threads, knobs) = if generating {
        match take_global_options(&mut args) {
            Ok(options) => options,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
    } else {
        (None, RequestKnobs::default())
    };
    let result = match args.first().map(String::as_str) {
        Some("generate") => generate_cmd(&args[1..], json, knobs),
        Some("validate") => validate(&args[1..], json),
        Some("analyze") => analyze_cmd(&args[1..], json),
        Some("codegen") => codegen_cmd(&args[1..], json),
        Some("known") => known_cmd(&args[1..]),
        Some("batch") => batch_cmd(&args[1..], json, threads, knobs),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
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

/// Request-level knobs applied uniformly by `generate` and `batch`.
#[derive(Clone, Default)]
struct RequestKnobs {
    solver: Option<marchgen::SolverChoice>,
    search_threads: Option<usize>,
    cache_dir: Option<String>,
}

impl RequestKnobs {
    /// Opens the persistent outcome cache when `--cache-dir` was given.
    #[cfg(feature = "serde")]
    fn open_cache(&self) -> Result<Option<marchgen::cache::OutcomeCache>, String> {
        match &self.cache_dir {
            None => Ok(None),
            Some(dir) => marchgen::cache::OutcomeCache::new(1024)
                .with_disk(dir)
                .map(Some)
                .map_err(|e| format!("cannot open cache dir {dir:?}: {e}")),
        }
    }

    /// Without the `serde` feature there is no cache (entries are JSON
    /// documents); `--cache-dir` is a loud error rather than a no-op.
    #[cfg(not(feature = "serde"))]
    fn reject_cache_dir(&self) -> Result<(), String> {
        match self.cache_dir {
            None => Ok(()),
            Some(_) => {
                Err("this build has no cache support (rebuild with the `serde` feature)".into())
            }
        }
    }
}

/// Parses the options shared by `generate` and `batch`: `--threads`,
/// `--search-threads`, `--solver` and `--cache-dir`. Both subcommands
/// take one positional argument, so anything left after it — a
/// mistyped or retired option — is an error, not silently dropped.
fn take_global_options(args: &mut Vec<String>) -> Result<(Option<usize>, RequestKnobs), String> {
    let threads = take_option(args, "--threads")?;
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
    if let Some(extra) = args.get(2) {
        return Err(format!("unexpected argument {extra:?}"));
    }
    Ok((
        threads,
        RequestKnobs {
            solver,
            search_threads,
            cache_dir,
        },
    ))
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
}

#[cfg(feature = "serde")]
fn generate_maybe_cached(
    knobs: &RequestKnobs,
    request: &GenerateRequest,
) -> Result<GenerateOutcome, String> {
    match knobs.open_cache()? {
        Some(cache) => cache
            .get_or_compute(request, generate)
            .map_err(|e| e.to_string()),
        None => generate(request).map_err(|e| e.to_string()),
    }
}

#[cfg(not(feature = "serde"))]
fn generate_maybe_cached(
    knobs: &RequestKnobs,
    request: &GenerateRequest,
) -> Result<GenerateOutcome, String> {
    knobs.reject_cache_dir()?;
    generate(request).map_err(|e| e.to_string())
}

fn generate_cmd(args: &[String], json: bool, knobs: RequestKnobs) -> Result<(), String> {
    let list = args.first().ok_or("generate needs a fault list")?;
    let request = knobs.apply(GenerateRequest::from_fault_list(list).map_err(|e| e.to_string())?);
    let outcome = generate_maybe_cached(&knobs, &request)?;
    if json {
        print_outcome_json(&outcome)?;
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

#[cfg(feature = "serde")]
fn print_outcome_json(outcome: &GenerateOutcome) -> Result<(), String> {
    use marchgen::json::ToJson;
    print!("{}", outcome.to_json_pretty());
    Ok(())
}

#[cfg(not(feature = "serde"))]
fn print_outcome_json(_outcome: &GenerateOutcome) -> Result<(), String> {
    Err("this build has no JSON support (rebuild with the `serde` feature)".into())
}

fn parse_march_arg(s: &str) -> Result<MarchTest, String> {
    known::by_name(s)
        .map(Ok)
        .unwrap_or_else(|| s.parse::<MarchTest>().map_err(|e| e.to_string()))
}

fn validate(args: &[String], json: bool) -> Result<(), String> {
    let [march, faults] = args else {
        return Err("validate needs <march> and <fault-list>".into());
    };
    let test = parse_march_arg(march)?;
    test.check_consistency()
        .map_err(|e| format!("inconsistent march test: {e}"))?;
    let models = parse_fault_list(faults).map_err(|e| e.to_string())?;
    let report = WideSimVerifier::new(6).verify(&test, &models);
    if json {
        print_report_json(&test, &report)?;
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

#[cfg(feature = "serde")]
fn print_report_json(
    test: &MarchTest,
    report: &marchgen::sim::CoverageReport,
) -> Result<(), String> {
    use marchgen::json::Json;
    let doc = Json::object([
        ("test", Json::Str(test.to_string())),
        ("complexity", Json::from(test.complexity())),
        ("report", marchgen::generator::serde::report_to_json(report)),
    ]);
    print!("{}", doc.render_pretty());
    Ok(())
}

#[cfg(not(feature = "serde"))]
fn print_report_json(
    _test: &MarchTest,
    _report: &marchgen::sim::CoverageReport,
) -> Result<(), String> {
    Err("this build has no JSON support (rebuild with the `serde` feature)".into())
}

fn analyze_cmd(args: &[String], json: bool) -> Result<(), String> {
    let march = args.first().ok_or("analyze needs a march test")?;
    let test = parse_march_arg(march)?;
    test.check_consistency()
        .map_err(|e| format!("inconsistent march test: {e}"))?;
    let c = analysis::analyze(&test);
    if json {
        return print_conditions_json(&test, &c);
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

#[cfg(feature = "serde")]
fn print_conditions_json(test: &MarchTest, c: &analysis::Conditions) -> Result<(), String> {
    use marchgen::json::Json;
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
    Ok(())
}

#[cfg(not(feature = "serde"))]
fn print_conditions_json(_test: &MarchTest, _c: &analysis::Conditions) -> Result<(), String> {
    Err("this build has no JSON support (rebuild with the `serde` feature)".into())
}

fn codegen_cmd(args: &[String], json: bool) -> Result<(), String> {
    use marchgen::rtl::RtlOptions;

    let mut args = args.to_vec();
    let lang_flag = take_str_option(&mut args, "--lang")?;
    let name = take_str_option(&mut args, "--name")?;
    let addr_width = take_option(&mut args, "--addr-width")?;
    let data_width = take_option(&mut args, "--data-width")?;
    let delay_cycles = take_option(&mut args, "--delay-cycles")?;
    let no_testbench = take_flag(&mut args, "--no-testbench");

    let march = args.first().ok_or("codegen needs a march test")?;
    let test = parse_march_arg(march)?;
    test.check_consistency()
        .map_err(|e| format!("inconsistent march test: {e}"))?;

    // `--lang` is the documented spelling; the second positional is kept
    // for compatibility with the original `codegen <march> [c|rust]`.
    let lang = match (lang_flag, args.get(1).map(String::as_str)) {
        (Some(flag), Some(pos)) if flag != pos => {
            return Err(format!("both --lang {flag:?} and positional {pos:?} given"));
        }
        (Some(flag), _) => flag,
        (None, Some(pos)) => pos.to_owned(),
        (None, None) => "c".to_owned(),
    };
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

    let name = name.unwrap_or_else(|| "march_test".to_owned());
    let code = match lang.as_str() {
        "c" => codegen::to_c(&test, &name),
        "rust" => codegen::to_rust(&test, &name),
        _ => {
            let mut options = RtlOptions::default().with_name(&name);
            if let Some(w) = addr_width {
                options = options.with_addr_width(u32::try_from(w).unwrap_or(u32::MAX));
            }
            if let Some(w) = data_width {
                options = options.with_data_width(u32::try_from(w).unwrap_or(u32::MAX));
            }
            if let Some(cycles) = delay_cycles {
                options = options.with_delay_cycles(u32::try_from(cycles).unwrap_or(u32::MAX));
            }
            options = options.with_testbench(!no_testbench);
            marchgen::rtl::emit_sv(&test, &options).map_err(|e| e.to_string())?
        }
    };
    if json {
        print_codegen_json(&test, &lang, &codegen::sanitize_ident(&name), &code)
    } else {
        print!("{code}");
        Ok(())
    }
}

#[cfg(feature = "serde")]
fn print_codegen_json(test: &MarchTest, lang: &str, name: &str, code: &str) -> Result<(), String> {
    use marchgen::json::Json;
    let doc = Json::object([
        ("schema", Json::Int(1)),
        ("test", Json::Str(test.to_string())),
        ("complexity", Json::from(test.complexity())),
        ("lang", Json::from(lang)),
        ("name", Json::from(name)),
        ("code", Json::from(code)),
    ]);
    print!("{}", doc.render_pretty());
    Ok(())
}

#[cfg(not(feature = "serde"))]
fn print_codegen_json(
    _test: &MarchTest,
    _lang: &str,
    _name: &str,
    _code: &str,
) -> Result<(), String> {
    Err("this build has no JSON support (rebuild with the `serde` feature)".into())
}

fn known_cmd(args: &[String]) -> Result<(), String> {
    match args.first() {
        None => {
            for (name, test) in known::all() {
                println!("{name:<10} {:>3}n  {}", test.complexity(), test);
            }
            Ok(())
        }
        Some(name) => {
            let test = known::by_name(name).ok_or_else(|| format!("unknown test {name:?}"))?;
            println!("{test}");
            Ok(())
        }
    }
}

fn batch_cmd(
    args: &[String],
    json: bool,
    threads: Option<usize>,
    knobs: RequestKnobs,
) -> Result<(), String> {
    let path = args
        .first()
        .ok_or("batch needs a file of fault lists (one per line)")?;
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
    #[cfg(feature = "serde")]
    let results = match knobs.open_cache()? {
        Some(cache) => batch.run_cached(&cache, requests, on_event),
        None => batch.run_with_progress(requests, on_event),
    };
    #[cfg(not(feature = "serde"))]
    let results = {
        knobs.reject_cache_dir()?;
        batch.run_with_progress(requests, on_event)
    };

    if json {
        print_batch_json(&lists, &results)?;
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

#[cfg(feature = "serde")]
fn print_batch_json(
    lists: &[&str],
    results: &[Result<GenerateOutcome, Error>],
) -> Result<(), String> {
    use marchgen::json::{Json, ToJson};
    let entries = lists
        .iter()
        .zip(results)
        .map(|(list, result)| match result {
            Ok(outcome) => Json::object([
                ("faults", Json::from(*list)),
                ("outcome", outcome.to_json()),
            ]),
            Err(error) => Json::object([
                ("faults", Json::from(*list)),
                ("error", Json::Str(error_chain(error))),
            ]),
        });
    print!("{}", Json::array(entries).render_pretty());
    Ok(())
}

#[cfg(not(feature = "serde"))]
fn print_batch_json(
    _lists: &[&str],
    _results: &[Result<GenerateOutcome, Error>],
) -> Result<(), String> {
    Err("this build has no JSON support (rebuild with the `serde` feature)".into())
}

/// Flattens an error and its sources into one line.
#[cfg(feature = "serde")]
fn error_chain(error: &Error) -> String {
    use std::error::Error as _;
    let mut text = error.to_string();
    let mut source = error.source();
    while let Some(cause) = source {
        text.push_str(": ");
        text.push_str(&cause.to_string());
        source = cause.source();
    }
    text
}
