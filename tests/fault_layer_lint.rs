//! Source-level lint guarding the tentpole invariant of the primitive
//! refactor: **per-model fault knowledge lives in exactly one lowering
//! module**. Outside `marchgen_faults::lowering` (and the enum's own
//! definition/grammar files), no non-test production source may name a
//! `FaultModel` variant — the simulators, generator, cache and daemon
//! must stay behaviour-driven, so adding a fault class touches the
//! taxonomy and the lowering table and nothing else.
//!
//! CI job `fault-layer-lint` runs this suite; locally it is part of
//! the ordinary `cargo test` sweep.

use std::fs;
use std::path::{Path, PathBuf};

/// Files allowed to name `FaultModel` variants in non-test code, with
/// the reason each is exempt. Everything else in the workspace fails
/// the lint.
const ALLOWED: &[(&str, &str)] = &[
    (
        "crates/faults/src/model.rs",
        "defines the enum itself (taxonomy, ordering, labels)",
    ),
    (
        "crates/faults/src/parse.rs",
        "the fault-list grammar maps tokens to variants",
    ),
    (
        "crates/faults/src/lowering.rs",
        "THE single lowering module: variants -> primitives + behavior",
    ),
    (
        "crates/bench/src/bin/repro.rs",
        "constructs fixed benchmark workload instances (no dispatch)",
    ),
];

/// The production slice of a source file: everything before the first
/// `#[cfg(test)]` marker (unit-test modules are free to pin variant
/// behaviour), with `//` line comments stripped so doc references like
/// `[`FaultModel::StuckOpen`]` don't count as code.
fn production_code(source: &str) -> String {
    let cut = source.find("#[cfg(test)]").unwrap_or(source.len());
    source[..cut]
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Does the text name a `FaultModel` variant (`FaultModel::` followed
/// by an uppercase letter — associated functions and constants are all
/// lowercase or SCREAMING_CASE consts, which the second-letter check
/// distinguishes)?
fn variant_mentions(text: &str) -> Vec<String> {
    let mut found = Vec::new();
    for (pos, _) in text.match_indices("FaultModel::") {
        let rest = &text[pos + "FaultModel::".len()..];
        let mut chars = rest.chars();
        let (Some(first), second) = (chars.next(), chars.next()) else {
            continue;
        };
        // Variants are CamelCase: `FAULT_CLASS_LABELS`-style consts
        // (all caps + underscore) are not variant knowledge.
        if first.is_ascii_uppercase() && second.is_some_and(|c| c.is_ascii_lowercase()) {
            let token: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            found.push(format!("FaultModel::{token}"));
        }
    }
    found
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The workspace's production sources (crate `src/` trees, bins and
/// benches — integration `tests/` directories are excluded by
/// construction: tests may pin variant behaviour freely).
fn production_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    rust_sources(&root.join("src"), &mut files);
    if let Ok(crates) = fs::read_dir(root.join("crates")) {
        for entry in crates.flatten() {
            rust_sources(&entry.path().join("src"), &mut files);
            rust_sources(&entry.path().join("benches"), &mut files);
        }
    }
    files.sort();
    files
}

/// No non-test production source outside the allowlist names a
/// `FaultModel` variant.
#[test]
fn fault_model_variants_confined_to_lowering_module() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = production_sources(root);
    assert!(
        files.len() > 40,
        "source walk looks broken: only {} files found",
        files.len()
    );
    let mut violations = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .expect("workspace-relative")
            .to_string_lossy()
            .replace('\\', "/");
        if ALLOWED.iter().any(|(allowed, _)| rel == *allowed) {
            continue;
        }
        let source = fs::read_to_string(path).expect("readable source");
        for mention in variant_mentions(&production_code(&source)) {
            violations.push(format!("{rel}: {mention}"));
        }
    }
    assert!(
        violations.is_empty(),
        "FaultModel variant knowledge outside the lowering module — \
         route it through marchgen_faults::lowering instead:\n{}",
        violations.join("\n")
    );
}

/// The allowlist itself stays honest: every entry exists and actually
/// needs its exemption (an allowlisted file with no variant mentions
/// is stale and must be removed).
#[test]
fn allowlist_entries_exist_and_are_needed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (rel, reason) in ALLOWED {
        let path = root.join(rel);
        let source =
            fs::read_to_string(&path).unwrap_or_else(|_| panic!("allowlisted {rel} missing"));
        assert!(
            !variant_mentions(&production_code(&source)).is_empty(),
            "{rel} ({reason}) no longer names any FaultModel variant — drop it from ALLOWED"
        );
    }
}

/// The key architectural claim, pinned explicitly: the scalar and packed
/// interpreters are fully behaviour-driven.
#[test]
fn interpreters_are_variant_free() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in [
        "crates/sim/src/engine.rs",
        "crates/sim/src/memory.rs",
        "crates/sim/src/widesim.rs",
        "crates/sim/src/linked.rs",
        "crates/sim/src/diagnosis.rs",
    ] {
        let source = fs::read_to_string(root.join(rel)).expect("sim source");
        let mentions = variant_mentions(&production_code(&source));
        assert!(
            mentions.is_empty(),
            "{rel} must interpret FaultBehavior, not FaultModel variants: {mentions:?}"
        );
    }
}

/// The lint's own matcher: catches variants, ignores comments,
/// associated functions, constants and test modules.
#[test]
fn matcher_distinguishes_variants_from_api() {
    assert_eq!(
        variant_mentions("match m { FaultModel::StuckAt(v) => v }"),
        vec!["FaultModel::StuckAt"]
    );
    assert!(variant_mentions("FaultModel::all_extended()").is_empty());
    assert!(variant_mentions("FaultModel::FAULT_CLASS_LABELS").is_empty());
    assert!(variant_mentions(&production_code("// FaultModel::StuckOpen docs")).is_empty());
    assert!(variant_mentions(&production_code(
        "fn ok() {}\n#[cfg(test)]\nmod tests { use FaultModel::StuckOpen; }"
    ))
    .is_empty());
}
