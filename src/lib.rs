//! # marchgen
//!
//! Automatic generation of **optimal March tests** for random access
//! memories — a full Rust reproduction of
//!
//! > A. Benso, S. Di Carlo, G. Di Natale, P. Prinetto, *"An Optimal
//! > Algorithm for the Automatic Generation of March Tests"*, DATE 2002,
//! > pp. 938–943 (DOI 10.1109/DATE.2002.998412).
//!
//! Give it a memory fault list; it returns a compacted, non-redundant
//! March test that is **proven** against a behavioural fault simulator:
//!
//! ```
//! use marchgen::{generate, GenerateRequest};
//!
//! let request = GenerateRequest::from_fault_list("SAF, TF, ADF, CFin, CFid")?;
//! let outcome = generate(&request)?;
//! assert_eq!(outcome.test.complexity(), 10); // a March C−-class test
//! assert!(outcome.verified);
//! assert_eq!(outcome.non_redundant, Some(true));
//! # Ok::<(), marchgen::Error>(())
//! ```
//!
//! # API layering
//!
//! The public surface is organized in two layers; the second is built on
//! the first and both are supported entry points:
//!
//! 1. **Typed request/outcome core.** [`GenerateRequest`] captures every
//!    engine knob as plain data; [`generate`] maps it to a
//!    [`GenerateOutcome`] carrying the test, the tour, the verification
//!    report and structured per-phase [`Diagnostics`]. Both types are
//!    JSON-serializable as schema-v1 documents (see the [`json`] kit),
//!    and every failure folds into the unified [`Error`] taxonomy. Extension points are trait-based: the ATSP
//!    solver is an [`atsp::AtspSolver`] selected per request via
//!    [`SolverChoice`] against a [`SolverRegistry`]. [`generate`]
//!    verifies on the packed simulator; [`generate_with`] takes any
//!    [`sim::Verifier`], the scalar oracle [`SimVerifier`] included.
//! 2. **Batch service layer.** [`service::Batch`] executes a vector of
//!    requests across worker threads with progress events — the
//!    in-process core a network service wraps. [`cache::OutcomeCache`]
//!    memoizes outcomes by the content hash of the canonical request
//!    ([`GenerateRequest::normalize`]) with single-flight coalescing
//!    and an optional persistent store ([`service::Batch::run_cached`]
//!    threads the two together); the [`daemon`] engine and the
//!    [`serve`] application behind the `marchgend` binary put an
//!    HTTP/1.1 front-end on top.
//!
//! The `marchgen` CLI sits on both layers and exposes `--json` for
//! machine consumers.
//!
//! # Architecture
//!
//! The facade re-exports the workspace crates:
//!
//! | Module | Paper artifact | Contents |
//! |--------|----------------|----------|
//! | [`model`] | §3, Figures 1–2 | two-cell Mealy memory model `M0`/`Mᵢ` |
//! | [`faults`] | §3, §5, Figure 3 | fault taxonomy, BFEs, Test Patterns, equivalence classes |
//! | [`tpg`] | §4, Figure 4, f.4.1/f.4.4 | Test Pattern Graph, path-ATSP reduction |
//! | [`atsp`] | §4 \[12\] | Held–Karp, Hungarian AP, branch-and-bound, heuristics, solver registry |
//! | [`march`] | §1 \[1\] | March test algebra, notation, classical test library |
//! | [`generator`] | §4.1–4.3 | request/outcome core, GTS, scheduler, pipeline, baseline |
//! | [`sim`] | §6 | fault simulator, coverage matrix, set covering, verifier trait |
//! | [`rtl`] | §1 (March BIST) | SystemVerilog backend: patgen FSM, BIST wrapper, testbench, SV lint |
//! | [`cache`] | — | content-addressed outcome cache (keys, LRU, disk, single-flight) |
//! | [`daemon`] | — | dependency-free HTTP/1.1 service engine behind `marchgend` |
//! | [`serve`] | — | the `marchgend` application: routing, handlers, `/v1/stats` and `/metrics` |
//!
//! The most common entry points are lifted to the crate root:
//! [`generate`], [`GenerateRequest`], [`GenerateOutcome`],
//! [`MarchTest`], [`FaultModel`], [`known`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use marchgen_atsp as atsp;
pub use marchgen_faults as faults;

/// The content-addressed outcome cache behind `--cache-dir` and the
/// daemon (entries persist as schema-v1 documents).
pub use marchgen_cache as cache;

/// The dependency-free HTTP/1.1 service engine behind `marchgend` (the
/// wire format is schema-v1 JSON).
pub use marchgen_daemon as daemon;
pub use marchgen_generator as generator;
pub use marchgen_march as march;
pub use marchgen_model as model;

/// The observability kit behind `marchgend`: the lock-sharded metrics
/// registry rendered at `GET /metrics` and the span tracer behind
/// `?trace=1` / `X-Trace: 1` request tracing.
pub use marchgen_obs as obs;

/// The SystemVerilog BIST backend: compiles a verified March test into a
/// synthesizable pattern generator, BIST wrapper and self-checking
/// testbench (`RtlOptions` is JSON-codable for the daemon's `/v1/rtl`
/// endpoint).
pub use marchgen_rtl as rtl;
pub use marchgen_sim as sim;
pub use marchgen_tpg as tpg;

/// The JSON document kit of the schema-v1 documents (re-exported so
/// downstream code can build and inspect serialized requests without a
/// separate dependency).
pub use marchgen_json as json;

mod error;
pub mod resume;
pub mod serve;
pub mod service;

pub use error::{error_chain, Error};
pub use marchgen_atsp::{AtspSolver, SolveStats, SolverChoice, SolverRegistry};
pub use marchgen_faults::{parse_fault_list, FaultModel};
pub use marchgen_generator::{
    generate, generate_with, generate_with_registry, Diagnostics, GenerateOutcome, GenerateRequest,
};
pub use marchgen_march::{known, Direction, MarchElement, MarchOp, MarchTest};
pub use marchgen_sim::{SimVerifier, Verifier, WideSimVerifier};

/// Convenience prelude for examples and downstream quick starts.
pub mod prelude {
    pub use crate::faults::{parse_fault_list, FaultModel, TestPattern};
    pub use crate::generator::{generate, Diagnostics, GenerateOutcome, GenerateRequest};
    pub use crate::march::{known, Direction, MarchElement, MarchOp, MarchTest};
    pub use crate::service::Batch;
    pub use crate::sim::coverage::{coverage_report, covers_all};
    pub use crate::Error;
}
