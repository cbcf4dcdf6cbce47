//! The `marchgen` command line run as a process, the way a user drives
//! it: argument checking of every subcommand, and the exit codes and
//! reports of `validate`.

use marchgen::prelude::*;
use std::process::{Command, Output};

fn marchgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_marchgen"))
        .args(args)
        .output()
        .expect("run marchgen CLI")
}

/// The fault list every `validate` test checks.
const LIST: &str = "SAF, TF, CFin, CFid";

/// Every subcommand takes its own options and then exactly its
/// positional arguments. Anything left over — an unknown option, the
/// retired `verifier` option, an option of another subcommand
/// (`--threads` outside `batch`, `--json` on `known`), a stray word or
/// `codegen`'s retired positional language — is a usage error (exit 2),
/// and nothing runs.
#[test]
fn leftover_arguments_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("marchgen-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lists.txt");
    std::fs::write(&path, "SAF\n").unwrap();
    let lists = path.to_str().unwrap();
    let retired = format!("--{}", "verifier");
    for args in [
        ["generate", "SAF", "--bogus", "x"].as_slice(),
        &["generate", "SAF", "extra-arg"],
        &["generate", "SAF", &retired, "scalar"],
        &["generate", "SAF", "--threads", "4"],
        &["batch", lists, "--bogus", "x"],
        &["validate", "MATS", "SAF", "extra"],
        &["analyze", "MATS", "--bogus", "x"],
        &["analyze", "MATS", "extra"],
        &["codegen", "MATS", "c", "extra"],
        &["known", "MATS", "extra"],
        &["known", "--json"],
    ] {
        let out = marchgen(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unexpected argument"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    // Without the leftovers, the same commands run and succeed.
    for args in [
        ["generate", "SAF"].as_slice(),
        &["batch", lists],
        &["validate", "MATS", "SAF"],
        &["analyze", "MATS"],
        &["codegen", "MATS", "--lang", "c"],
        &["known", "MATS"],
        &["known"],
    ] {
        let out = marchgen(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// March C− covers the list: exit 0 and a full-coverage verdict.
#[test]
fn validate_accepts_a_covering_test() {
    let out = marchgen(&["validate", "March C-", LIST]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("verdict: full coverage"), "{stdout}");
}

/// MATS misses transition and coupling faults: exit 1, no verdict.
#[test]
fn validate_rejects_incomplete_coverage() {
    let out = marchgen(&["validate", "MATS", LIST]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(!stdout.contains("verdict"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("coverage incomplete"),
        "{:?}",
        out.stderr
    );
}

/// `validate --json` prints, byte for byte, the report of the scalar
/// oracle at the CLI's 6 cells, which holds the packed engine the CLI
/// runs to the reference.
#[test]
fn validate_json_equals_the_scalar_report() {
    use marchgen::generator::serde::report_to_json;
    use marchgen::json::Json;
    let models = parse_fault_list(LIST).unwrap();
    for name in ["March C-", "MATS"] {
        let test = known::by_name(name).unwrap();
        let expected = Json::object([
            ("test", Json::Str(test.to_string())),
            ("complexity", Json::from(test.complexity())),
            (
                "report",
                report_to_json(&coverage_report(&test, &models, 6)),
            ),
        ])
        .render_pretty();
        let out = marchgen(&["validate", name, LIST, "--json"]);
        assert_eq!(String::from_utf8(out.stdout).unwrap(), expected, "{name}");
    }
}
