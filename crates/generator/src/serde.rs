//! JSON codecs for the typed API surface (`serde` feature): lossless
//! [`GenerateRequest`] / [`GenerateOutcome`] round-trips built on the
//! in-tree [`marchgen_json`] kit.
//!
//! Encoding conventions:
//!
//! * fault models serialize as their canonical parseable names
//!   (`"SA0"`, `"CFid<↑,1>"`); decoding accepts family names too
//!   (`"SAF"` expands, exactly like the textual parser),
//! * March tests serialize as their standard notation and re-parse,
//! * Test Patterns, coverage reports and fault sites serialize
//!   structurally, so outcomes survive a round-trip bit-for-bit.

use crate::outcome::{Diagnostics, GenerateOutcome};
use crate::request::{GenerateRequest, VerifierChoice};
use marchgen_atsp::SolverChoice;
use marchgen_faults::{parse_fault_list, FaultModel, Observation, TestPattern, TpKind};
use marchgen_json::{bool_field, field, str_field, usize_field, FromJson, Json, JsonError, ToJson};
use marchgen_march::MarchTest;
use marchgen_model::{Bit, Cell, MemOp, PairState, Tri};
use marchgen_sim::coverage::{CoverageReport, ModelCoverage};
use marchgen_sim::{FaultSite, SiteCells};
use marchgen_tpg::StartPolicy;

/// Schema identifier stamped into every serialized request/outcome.
const SCHEMA_VERSION: i64 = 1;

/// The largest `verify_cells` a decoded [`GenerateRequest`] may carry.
/// Verification cost grows about as the cube of the memory size, so the
/// wire bound keeps one request from buying seconds of sweep time; it is
/// 16× the default of 4 cells.
const MAX_VERIFY_CELLS: usize = 64;

/// The largest `search_threads` a decoded [`GenerateRequest`] may carry.
/// Pass 2 of the search spawns up to that many partition threads, so
/// without a bound one request body could make a daemon worker spawn
/// thousands.
const MAX_SEARCH_THREADS: usize = 64;

fn check_schema(json: &Json) -> Result<(), JsonError> {
    // Tolerate an absent version (hand-written documents); reject a
    // mismatched one.
    match json.get("schema") {
        None => Ok(()),
        Some(v) if v.as_int() == Some(SCHEMA_VERSION) => Ok(()),
        Some(v) => Err(JsonError::decode(format!(
            "unsupported schema version {v:?} (this build reads version {SCHEMA_VERSION})"
        ))),
    }
}

// ---- leaf codecs -------------------------------------------------------

fn fault_to_json(model: FaultModel) -> Json {
    Json::Str(model.name())
}

fn fault_from_json(json: &Json) -> Result<FaultModel, JsonError> {
    let token = json
        .as_str()
        .ok_or_else(|| JsonError::decode("fault model must be a string"))?;
    let models = parse_fault_list(token).map_err(|e| JsonError::decode(e.to_string()))?;
    match models.as_slice() {
        [one] => Ok(*one),
        _ => Err(JsonError::decode(format!(
            "{token:?} names a fault family, not a single model"
        ))),
    }
}

fn faults_from_json(json: &Json) -> Result<Vec<FaultModel>, JsonError> {
    let items = json
        .as_array()
        .ok_or_else(|| JsonError::decode("field \"faults\" must be an array"))?;
    let mut out = Vec::new();
    for item in items {
        let token = item
            .as_str()
            .ok_or_else(|| JsonError::decode("fault list entries must be strings"))?;
        // Families are welcome here — a hand-written request may say
        // "SAF" and mean both polarities, exactly like the CLI parser.
        out.extend(parse_fault_list(token).map_err(|e| JsonError::decode(e.to_string()))?);
    }
    Ok(out)
}

fn bit_to_json(bit: Bit) -> Json {
    Json::Int(bit.as_usize() as i64)
}

fn bit_from_json(json: &Json) -> Result<Bit, JsonError> {
    match json.as_int() {
        Some(0) => Ok(Bit::Zero),
        Some(1) => Ok(Bit::One),
        _ => Err(JsonError::decode("bit must be 0 or 1")),
    }
}

fn tri_from_char(c: char) -> Result<Tri, JsonError> {
    match c {
        '0' => Ok(Tri::Zero),
        '1' => Ok(Tri::One),
        '-' => Ok(Tri::X),
        other => Err(JsonError::decode(format!(
            "invalid tri-state value {other:?}"
        ))),
    }
}

fn pair_state_from_json(json: &Json) -> Result<PairState, JsonError> {
    let text = json
        .as_str()
        .ok_or_else(|| JsonError::decode("pair state must be a string like \"0-\""))?;
    let mut chars = text.chars();
    match (chars.next(), chars.next(), chars.next()) {
        (Some(i), Some(j), None) => Ok(PairState::new(tri_from_char(i)?, tri_from_char(j)?)),
        _ => Err(JsonError::decode(format!(
            "pair state {text:?} must have two components"
        ))),
    }
}

fn cell_from_str(text: &str) -> Result<Cell, JsonError> {
    match text {
        "i" => Ok(Cell::I),
        "j" => Ok(Cell::J),
        other => Err(JsonError::decode(format!("invalid cell {other:?}"))),
    }
}

fn op_from_json(json: &Json) -> Result<MemOp, JsonError> {
    let text = json
        .as_str()
        .ok_or_else(|| JsonError::decode("memory operation must be a string"))?;
    match text.as_bytes() {
        b"T" => Ok(MemOp::Delay),
        [b'r', cell @ ..] => Ok(MemOp::read(cell_from_str(
            std::str::from_utf8(cell).unwrap_or(""),
        )?)),
        [b'w', value, cell @ ..] => {
            let bit = match value {
                b'0' => Bit::Zero,
                b'1' => Bit::One,
                _ => {
                    return Err(JsonError::decode(format!(
                        "invalid write value in {text:?}"
                    )))
                }
            };
            Ok(MemOp::write(
                cell_from_str(std::str::from_utf8(cell).unwrap_or(""))?,
                bit,
            ))
        }
        _ => Err(JsonError::decode(format!(
            "invalid memory operation {text:?}"
        ))),
    }
}

fn observation_to_json(observation: Observation) -> Json {
    match observation {
        Observation::SelfRead { expected } => Json::object([
            ("kind", Json::from("self-read")),
            ("expected", bit_to_json(expected)),
        ]),
        Observation::Read { cell, expected } => Json::object([
            ("kind", Json::from("read")),
            ("cell", Json::Str(cell.to_string())),
            ("expected", bit_to_json(expected)),
        ]),
    }
}

fn observation_from_json(json: &Json) -> Result<Observation, JsonError> {
    let expected = bit_from_json(field(json, "expected")?)?;
    match str_field(json, "kind")? {
        "self-read" => Ok(Observation::SelfRead { expected }),
        "read" => Ok(Observation::Read {
            cell: cell_from_str(str_field(json, "cell")?)?,
            expected,
        }),
        other => Err(JsonError::decode(format!(
            "invalid observation kind {other:?}"
        ))),
    }
}

fn tp_to_json(tp: &TestPattern) -> Json {
    // Schema note: `setup` is an *optional* key (emitted only for
    // two-operation dynamic-fault TPs), so pre-existing clients keep
    // decoding classical TPs unchanged.
    let mut pairs = vec![
        ("init".to_owned(), Json::Str(tp.init.to_string())),
        ("excite".to_owned(), Json::Str(tp.excite.to_string())),
        ("observe".to_owned(), observation_to_json(tp.observe)),
        (
            "kind".to_owned(),
            Json::from(match tp.kind {
                TpKind::SingleCell => "single",
                TpKind::Pair => "pair",
            }),
        ),
        ("immediate".to_owned(), Json::Bool(tp.immediate)),
        ("pre_read".to_owned(), Json::Bool(tp.pre_read)),
    ];
    if let Some(setup) = tp.setup {
        pairs.push(("setup".to_owned(), Json::Str(setup.to_string())));
    }
    Json::Object(pairs)
}

fn tp_from_json(json: &Json) -> Result<TestPattern, JsonError> {
    let kind = match str_field(json, "kind")? {
        "single" => TpKind::SingleCell,
        "pair" => TpKind::Pair,
        other => return Err(JsonError::decode(format!("invalid TP kind {other:?}"))),
    };
    let setup = match json.get("setup") {
        Some(j) => Some(op_from_json(j)?),
        None => None,
    };
    Ok(TestPattern {
        init: pair_state_from_json(field(json, "init")?)?,
        setup,
        excite: op_from_json(field(json, "excite")?)?,
        observe: observation_from_json(field(json, "observe")?)?,
        kind,
        immediate: bool_field(json, "immediate")?,
        pre_read: bool_field(json, "pre_read")?,
    })
}

fn march_to_json(test: &MarchTest) -> Json {
    Json::Str(test.to_string())
}

fn march_from_json(json: &Json) -> Result<MarchTest, JsonError> {
    json.as_str()
        .ok_or_else(|| JsonError::decode("march test must be a string"))?
        .parse::<MarchTest>()
        .map_err(|e| JsonError::decode(e.to_string()))
}

fn site_to_json(site: &FaultSite) -> Json {
    let mut pairs = vec![("model".to_owned(), fault_to_json(site.model))];
    match site.cells {
        SiteCells::Single(cell) => pairs.push(("cell".to_owned(), Json::from(cell))),
        SiteCells::Pair { aggressor, victim } => {
            pairs.push(("aggressor".to_owned(), Json::from(aggressor)));
            pairs.push(("victim".to_owned(), Json::from(victim)));
        }
    }
    Json::Object(pairs)
}

fn site_from_json(json: &Json) -> Result<FaultSite, JsonError> {
    let model = fault_from_json(field(json, "model")?)?;
    let cells = if json.get("cell").is_some() {
        SiteCells::Single(usize_field(json, "cell")?)
    } else {
        SiteCells::Pair {
            aggressor: usize_field(json, "aggressor")?,
            victim: usize_field(json, "victim")?,
        }
    };
    Ok(FaultSite { model, cells })
}

fn model_coverage_to_json(coverage: &ModelCoverage) -> Json {
    Json::object([
        ("model", fault_to_json(coverage.model)),
        ("total_sites", Json::from(coverage.total_sites)),
        ("detected_sites", Json::from(coverage.detected_sites)),
        (
            "escapes",
            Json::array(coverage.escapes.iter().map(site_to_json)),
        ),
    ])
}

fn model_coverage_from_json(json: &Json) -> Result<ModelCoverage, JsonError> {
    let escapes = field(json, "escapes")?
        .as_array()
        .ok_or_else(|| JsonError::decode("field \"escapes\" must be an array"))?
        .iter()
        .map(site_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ModelCoverage {
        model: fault_from_json(field(json, "model")?)?,
        total_sites: usize_field(json, "total_sites")?,
        detected_sites: usize_field(json, "detected_sites")?,
        escapes,
    })
}

/// Structural JSON encoding of a coverage report (used by the CLI's
/// `validate --json`).
#[must_use]
pub fn report_to_json(report: &CoverageReport) -> Json {
    Json::object([
        ("memory_size", Json::from(report.memory_size)),
        ("complete", Json::Bool(report.complete())),
        (
            "models",
            Json::array(report.models.iter().map(model_coverage_to_json)),
        ),
    ])
}

fn report_from_json(json: &Json) -> Result<CoverageReport, JsonError> {
    let models = field(json, "models")?
        .as_array()
        .ok_or_else(|| JsonError::decode("field \"models\" must be an array"))?
        .iter()
        .map(model_coverage_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CoverageReport {
        models,
        memory_size: usize_field(json, "memory_size")?,
    })
}

fn u64_field(json: &Json, key: &str) -> Result<u64, JsonError> {
    field(json, key)?
        .as_int()
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| JsonError::decode(format!("field {key:?} must be a non-negative integer")))
}

// ---- document codecs ---------------------------------------------------

impl ToJson for GenerateRequest {
    fn to_json(&self) -> Json {
        Json::object([
            ("schema", Json::Int(SCHEMA_VERSION)),
            (
                "faults",
                Json::array(self.faults.iter().map(|&m| fault_to_json(m))),
            ),
            (
                "start_policy",
                Json::from(match self.start_policy {
                    StartPolicy::Uniform => "uniform",
                    StartPolicy::Free => "free",
                }),
            ),
            ("solver", Json::Str(self.solver.key().to_owned())),
            ("tour_cap", Json::from(self.tour_cap)),
            ("verify_cells", Json::from(self.verify_cells)),
            ("compact", Json::Bool(self.compact)),
            ("check_redundancy", Json::Bool(self.check_redundancy)),
            ("max_combinations", Json::from(self.max_combinations)),
            ("verifier", Json::Str(self.verifier.key().to_owned())),
            ("search_threads", Json::from(self.search_threads)),
        ])
    }
}

impl FromJson for GenerateRequest {
    fn from_json(json: &Json) -> Result<GenerateRequest, JsonError> {
        check_schema(json)?;
        let defaults = GenerateRequest::default();
        // Everything but `faults` is optional and falls back to the
        // paper defaults, so terse hand-written requests stay valid.
        let start_policy = match json.get("start_policy") {
            None => defaults.start_policy,
            Some(v) => match v.as_str() {
                Some("uniform") => StartPolicy::Uniform,
                Some("free") => StartPolicy::Free,
                _ => {
                    return Err(JsonError::decode(
                        "field \"start_policy\" must be \"uniform\" or \"free\"",
                    ))
                }
            },
        };
        let solver = match json.get("solver") {
            None => defaults.solver,
            Some(v) => SolverChoice::from_key(
                v.as_str()
                    .ok_or_else(|| JsonError::decode("field \"solver\" must be a string"))?,
            ),
        };
        // `verifier` is optional and backward compatible: schema v1
        // documents written before the packed backend existed omit it,
        // and those naming a retired backend (`"bitsim"`, `"wide"`) decode
        // as the auto choice.
        let verifier = match json.get("verifier") {
            None => defaults.verifier,
            Some(v) => v
                .as_str()
                .and_then(VerifierChoice::from_key)
                .ok_or_else(|| {
                    JsonError::decode("field \"verifier\" must be \"auto\" or \"scalar\"")
                })?,
        };
        let opt_usize = |key: &str, fallback: usize| -> Result<usize, JsonError> {
            match json.get(key) {
                None => Ok(fallback),
                Some(_) => usize_field(json, key),
            }
        };
        let opt_bool = |key: &str, fallback: bool| -> Result<bool, JsonError> {
            match json.get(key) {
                None => Ok(fallback),
                Some(_) => bool_field(json, key),
            }
        };
        let verify_cells = opt_usize("verify_cells", defaults.verify_cells)?;
        if verify_cells > MAX_VERIFY_CELLS {
            return Err(JsonError::decode(format!(
                "field \"verify_cells\" must be at most {MAX_VERIFY_CELLS}, got {verify_cells}"
            )));
        }
        let search_threads = opt_usize("search_threads", defaults.search_threads)?;
        if search_threads > MAX_SEARCH_THREADS {
            return Err(JsonError::decode(format!(
                "field \"search_threads\" must be at most {MAX_SEARCH_THREADS}, got {search_threads}"
            )));
        }
        // Route the caps through the builder so decoded requests share
        // its clamp invariants (a hand-written `"tour_cap": 0` behaves
        // like the builder path, not a zero-work run).
        Ok(GenerateRequest {
            faults: faults_from_json(field(json, "faults")?)?,
            start_policy,
            solver,
            verifier,
            verify_cells,
            compact: opt_bool("compact", defaults.compact)?,
            check_redundancy: opt_bool("check_redundancy", defaults.check_redundancy)?,
            search_threads,
            ..GenerateRequest::default()
        }
        .with_tour_cap(opt_usize("tour_cap", defaults.tour_cap)?)
        .with_max_combinations(opt_usize("max_combinations", defaults.max_combinations)?))
    }
}

impl ToJson for Diagnostics {
    fn to_json(&self) -> Json {
        Json::object([
            ("solver", Json::Str(self.solver.clone())),
            ("solver_iterations", Json::from(self.solver_iterations)),
            ("solver_restarts", Json::from(self.solver_restarts)),
            ("combinations", Json::from(self.combinations)),
            ("unique_tp_sets", Json::from(self.unique_tp_sets)),
            ("tours_tried", Json::from(self.tours_tried)),
            ("candidates", Json::from(self.candidates)),
            (
                "candidate_complexities",
                Json::array(self.candidate_complexities.iter().map(|&c| Json::from(c))),
            ),
            ("expand_micros", Json::from(self.expand_micros)),
            ("search_micros", Json::from(self.search_micros)),
            ("verify_micros", Json::from(self.verify_micros)),
            (
                "shard_micros",
                Json::array(self.shard_micros.iter().map(|&m| Json::from(m))),
            ),
            ("verifier", Json::Str(self.verifier.clone())),
            (
                "verify_shard_micros",
                Json::array(self.verify_shard_micros.iter().map(|&m| Json::from(m))),
            ),
            ("cache_hit", Json::Bool(self.cache_hit)),
        ])
    }
}

impl FromJson for Diagnostics {
    fn from_json(json: &Json) -> Result<Diagnostics, JsonError> {
        let candidate_complexities = field(json, "candidate_complexities")?
            .as_array()
            .ok_or_else(|| JsonError::decode("field \"candidate_complexities\" must be an array"))?
            .iter()
            .map(|v| {
                v.as_usize()
                    .ok_or_else(|| JsonError::decode("complexities must be non-negative integers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Optional and backward compatible: documents predating the
        // sharded search omit the per-shard timings.
        let shard_micros = match json.get("shard_micros") {
            None => Vec::new(),
            Some(value) => value
                .as_array()
                .ok_or_else(|| JsonError::decode("field \"shard_micros\" must be an array"))?
                .iter()
                .map(|v| {
                    v.as_int()
                        .and_then(|m| u64::try_from(m).ok())
                        .ok_or_else(|| {
                            JsonError::decode("shard timings must be non-negative integers")
                        })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        // Optional and backward compatible: documents predating the
        // sharded verifier (schema ≤ v2) omit the resolved backend name
        // and the per-shard verify timings.
        let verifier = match json.get("verifier") {
            None => String::new(),
            Some(_) => str_field(json, "verifier")?.to_owned(),
        };
        let verify_shard_micros = match json.get("verify_shard_micros") {
            None => Vec::new(),
            Some(value) => value
                .as_array()
                .ok_or_else(|| JsonError::decode("field \"verify_shard_micros\" must be an array"))?
                .iter()
                .map(|v| {
                    v.as_int()
                        .and_then(|m| u64::try_from(m).ok())
                        .ok_or_else(|| {
                            JsonError::decode("verify shard timings must be non-negative integers")
                        })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        // Optional and backward compatible: documents predating the
        // outcome cache omit the hit flag and decode as fresh computes.
        let cache_hit = match json.get("cache_hit") {
            None => false,
            Some(_) => bool_field(json, "cache_hit")?,
        };
        // Optional and backward compatible: documents predating the
        // solver diagnostics decode with an empty backend name and
        // zeroed local-search counters.
        let solver = match json.get("solver") {
            None => String::new(),
            Some(_) => str_field(json, "solver")?.to_owned(),
        };
        let opt_u64 = |key: &str| -> Result<u64, JsonError> {
            match json.get(key) {
                None => Ok(0),
                Some(_) => u64_field(json, key),
            }
        };
        Ok(Diagnostics {
            solver,
            solver_iterations: opt_u64("solver_iterations")?,
            solver_restarts: opt_u64("solver_restarts")?,
            combinations: usize_field(json, "combinations")?,
            unique_tp_sets: usize_field(json, "unique_tp_sets")?,
            tours_tried: usize_field(json, "tours_tried")?,
            candidates: usize_field(json, "candidates")?,
            candidate_complexities,
            expand_micros: u64_field(json, "expand_micros")?,
            search_micros: u64_field(json, "search_micros")?,
            verify_micros: u64_field(json, "verify_micros")?,
            shard_micros,
            verifier,
            verify_shard_micros,
            cache_hit,
        })
    }
}

impl GenerateOutcome {
    /// Compact single-object encoding for streaming progress frames:
    /// the headline results (test, complexity, verification verdicts)
    /// plus the full per-phase [`Diagnostics`] block, *without* the
    /// tour and the per-site coverage report that dominate the full
    /// [`ToJson`] document. This is the per-item payload of the
    /// daemon's `/v1/stream` endpoint — each frame must stay one short
    /// JSON line; clients wanting the complete outcome re-request it
    /// through `/v1/generate`, which the outcome cache answers without
    /// recomputing.
    #[must_use]
    pub fn to_summary_json(&self) -> Json {
        Json::object([
            ("test", march_to_json(&self.test)),
            ("complexity", Json::from(self.complexity())),
            ("verified", Json::Bool(self.verified)),
            (
                "non_redundant",
                match self.non_redundant {
                    Some(flag) => Json::Bool(flag),
                    None => Json::Null,
                },
            ),
            ("diagnostics", self.diagnostics.to_json()),
        ])
    }
}

impl ToJson for GenerateOutcome {
    fn to_json(&self) -> Json {
        Json::object([
            ("schema", Json::Int(SCHEMA_VERSION)),
            ("test", march_to_json(&self.test)),
            ("complexity", Json::from(self.complexity())),
            ("tour", Json::array(self.tour.iter().map(tp_to_json))),
            ("verified", Json::Bool(self.verified)),
            (
                "report",
                match &self.report {
                    Some(report) => report_to_json(report),
                    None => Json::Null,
                },
            ),
            (
                "non_redundant",
                match self.non_redundant {
                    Some(flag) => Json::Bool(flag),
                    None => Json::Null,
                },
            ),
            ("diagnostics", self.diagnostics.to_json()),
        ])
    }
}

impl FromJson for GenerateOutcome {
    fn from_json(json: &Json) -> Result<GenerateOutcome, JsonError> {
        check_schema(json)?;
        let tour = field(json, "tour")?
            .as_array()
            .ok_or_else(|| JsonError::decode("field \"tour\" must be an array"))?
            .iter()
            .map(tp_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let report = match json.get("report") {
            None | Some(Json::Null) => None,
            Some(value) => Some(report_from_json(value)?),
        };
        let non_redundant =
            match json.get("non_redundant") {
                None | Some(Json::Null) => None,
                Some(value) => Some(value.as_bool().ok_or_else(|| {
                    JsonError::decode("field \"non_redundant\" must be a boolean")
                })?),
            };
        Ok(GenerateOutcome {
            test: march_from_json(field(json, "test")?)?,
            tour,
            verified: bool_field(json, "verified")?,
            report,
            non_redundant,
            diagnostics: Diagnostics::from_json(field(json, "diagnostics")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::generate;

    #[test]
    fn request_roundtrip_is_lossless() {
        let request = GenerateRequest::from_fault_list("SAF, TF, CFid<u,1>")
            .unwrap()
            .with_solver(SolverChoice::HeldKarp)
            .with_start_policy(StartPolicy::Free)
            .with_tour_cap(7)
            .with_verify_cells(6)
            .with_compact(false)
            .with_check_redundancy(true)
            .with_max_combinations(99)
            .with_verifier(VerifierChoice::Scalar)
            .with_search_threads(3);
        let text = request.to_json_string();
        let back = GenerateRequest::from_json_str(&text).unwrap();
        assert_eq!(back, request);
    }

    /// The `verifier` key is optional (schema v1 documents predating the
    /// packed backend omit it) and validated when present; the retired
    /// backend names decode as `auto`.
    #[test]
    fn verifier_key_is_optional_and_checked() {
        let back = GenerateRequest::from_json_str(r#"{"faults": ["SAF"]}"#).unwrap();
        assert_eq!(back.verifier, VerifierChoice::Auto);
        assert_eq!(back.search_threads, 0);
        let back =
            GenerateRequest::from_json_str(r#"{"faults": ["SAF"], "verifier": "scalar"}"#).unwrap();
        assert_eq!(back.verifier, VerifierChoice::Scalar);
        for alias in ["bitsim", "wide"] {
            let doc = format!(r#"{{"faults": ["SAF"], "verifier": "{alias}"}}"#);
            let back = GenerateRequest::from_json_str(&doc).unwrap();
            assert_eq!(back.verifier, VerifierChoice::Auto, "{alias}");
            assert!(back.to_json_string().contains(r#""verifier":"auto""#));
        }
        assert!(
            GenerateRequest::from_json_str(r#"{"faults": ["SAF"], "verifier": "quantum"}"#)
                .is_err()
        );
    }

    /// `verify_cells` is bounded at the wire: the maximum decodes, one
    /// more is a decode error naming the field.
    #[test]
    fn verify_cells_is_bounded_at_decode() {
        let doc = |cells: usize| format!(r#"{{"faults": ["CFin"], "verify_cells": {cells}}}"#);
        let back = GenerateRequest::from_json_str(&doc(MAX_VERIFY_CELLS)).unwrap();
        assert_eq!(back.verify_cells, MAX_VERIFY_CELLS);
        let err = GenerateRequest::from_json_str(&doc(MAX_VERIFY_CELLS + 1)).unwrap_err();
        assert!(err.message.contains("\"verify_cells\""), "{}", err.message);
        assert!(err.message.contains("64"), "{}", err.message);
    }

    /// `search_threads` is bounded at the wire too: the maximum
    /// decodes, one more is a decode error naming the field. Decoding
    /// only; no request here runs.
    #[test]
    fn search_threads_is_bounded_at_decode() {
        let doc = |threads: usize| format!(r#"{{"faults": ["SAF"], "search_threads": {threads}}}"#);
        let back = GenerateRequest::from_json_str(&doc(MAX_SEARCH_THREADS)).unwrap();
        assert_eq!(back.search_threads, 64);
        let err = GenerateRequest::from_json_str(&doc(MAX_SEARCH_THREADS + 1)).unwrap_err();
        assert!(
            err.message.contains("\"search_threads\""),
            "{}",
            err.message
        );
        assert!(err.message.contains("64"), "{}", err.message);
    }

    /// Outcomes predating the sharded search decode with empty shard
    /// timings, and outcomes predating the outcome cache decode as
    /// fresh (non-hit) computes.
    #[test]
    fn absent_shard_micros_decodes_empty() {
        let doc = r#"{
            "combinations": 1, "unique_tp_sets": 1, "tours_tried": 1,
            "candidates": 1, "candidate_complexities": [4],
            "expand_micros": 1, "search_micros": 2, "verify_micros": 3
        }"#;
        let d = Diagnostics::from_json_str(doc).unwrap();
        assert!(d.shard_micros.is_empty());
        assert!(!d.cache_hit);
        assert_eq!(d.solver, "", "pre-solver-diagnostics documents decode");
        assert_eq!(d.solver_iterations, 0);
        assert_eq!(d.solver_restarts, 0);
        assert_eq!(d.verifier, "", "pre-sharded-verifier documents decode");
        assert!(d.verify_shard_micros.is_empty());
    }

    /// The sharded-verifier diagnostics survive a round trip, and the
    /// new keys decode what the encoder writes.
    #[test]
    fn verify_shard_diagnostics_roundtrip() {
        let d = Diagnostics {
            verifier: "widesim".to_owned(),
            verify_shard_micros: vec![11, 0, 42],
            shard_micros: vec![7],
            combinations: 1,
            unique_tp_sets: 1,
            tours_tried: 1,
            candidates: 1,
            candidate_complexities: vec![4],
            ..Diagnostics::default()
        };
        let back = Diagnostics::from_json_str(&d.to_json_string()).unwrap();
        assert_eq!(back, d);
        assert!(
            Diagnostics::from_json_str(
                r#"{
                    "combinations": 1, "unique_tp_sets": 1, "tours_tried": 1,
                    "candidates": 1, "candidate_complexities": [4],
                    "expand_micros": 1, "search_micros": 2, "verify_micros": 3,
                    "verify_shard_micros": "soon"
                }"#
            )
            .is_err(),
            "malformed verify_shard_micros is rejected, not defaulted"
        );
    }

    /// Regression (default consistency): spelling out the `verifier` and
    /// `search_threads` defaults must decode — and therefore normalize
    /// and cache-key — identically to omitting the keys entirely.
    #[test]
    fn explicit_defaults_equal_omitted_keys() {
        let terse = GenerateRequest::from_json_str(r#"{"faults": ["SAF"]}"#).unwrap();
        let spelled = GenerateRequest::from_json_str(
            r#"{"faults": ["SAF"], "verifier": "auto", "search_threads": 0,
                "solver": "auto", "start_policy": "uniform"}"#,
        )
        .unwrap();
        assert_eq!(terse, spelled);
        assert_eq!(terse.clone().normalize(), spelled.normalize());
        // And both re-encode to the same canonical document.
        assert_eq!(
            terse.to_json_string(),
            GenerateRequest::from_json_str(&terse.to_json_string())
                .unwrap()
                .to_json_string()
        );
    }

    #[test]
    fn terse_request_uses_defaults() {
        let back = GenerateRequest::from_json_str(r#"{"faults": ["SAF", "TF<u>"]}"#).unwrap();
        let expected = GenerateRequest::from_fault_list("SAF, TF<u>").unwrap();
        assert_eq!(back, expected);
    }

    /// Decoded requests share the builder's clamp invariants: a
    /// hand-written zero cap cannot produce a zero-work run.
    #[test]
    fn decoded_caps_are_clamped() {
        let back = GenerateRequest::from_json_str(
            r#"{"faults": ["SAF"], "tour_cap": 0, "max_combinations": 0}"#,
        )
        .unwrap();
        assert_eq!(back.tour_cap, 1);
        assert_eq!(back.max_combinations, 1);
        assert!(generate(&back).is_ok());
    }

    #[test]
    fn outcome_roundtrip_is_lossless() {
        let request = GenerateRequest::from_fault_list("SAF, CFin<u>")
            .unwrap()
            .with_check_redundancy(true);
        let outcome = generate(&request).unwrap();
        let text = outcome.to_json_pretty();
        let back = GenerateOutcome::from_json_str(&text).unwrap();
        assert_eq!(back, outcome);
    }

    /// The streaming summary carries the headline results and the full
    /// diagnostics block but drops the heavyweight tour/report members,
    /// and always renders as a single line.
    #[test]
    fn summary_json_is_compact_and_consistent() {
        let request = GenerateRequest::from_fault_list("SAF, TF").unwrap();
        let outcome = generate(&request).unwrap();
        let summary = outcome.to_summary_json();
        assert_eq!(
            summary.get("test").and_then(Json::as_str),
            Some(outcome.test.to_string().as_str())
        );
        assert_eq!(
            summary.get("complexity").and_then(Json::as_int),
            Some(outcome.complexity() as i64)
        );
        assert_eq!(
            summary.get("diagnostics"),
            Some(&outcome.diagnostics.to_json())
        );
        assert!(summary.get("tour").is_none(), "summaries omit the tour");
        assert!(summary.get("report").is_none(), "summaries omit the report");
        assert!(!summary.render().contains('\n'), "one frame, one line");
    }

    #[test]
    fn schema_version_is_checked() {
        let err = GenerateRequest::from_json_str(r#"{"schema": 99, "faults": []}"#)
            .expect_err("must reject");
        assert!(err.message.contains("schema"), "{err}");
    }

    #[test]
    fn bad_fields_are_rejected() {
        for doc in [
            r#"{"faults": ["NOPE"]}"#,
            r#"{"faults": "SAF"}"#,
            r#"{"faults": [], "solver": 3}"#,
            r#"{"faults": [], "start_policy": "sideways"}"#,
        ] {
            assert!(GenerateRequest::from_json_str(doc).is_err(), "{doc}");
        }
    }
}
