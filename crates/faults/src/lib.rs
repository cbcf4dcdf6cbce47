//! # marchgen-faults
//!
//! Memory fault models, their decomposition into **Basic Fault Effects**
//! (BFEs) and the **Test Patterns** that cover them — Sections 3 and 5 of
//! Benso et al., *"An Optimal Algorithm for the Automatic Generation of
//! March Tests"* (DATE 2002).
//!
//! The paper models a faulty memory as a Mealy automaton differing from
//! the fault-free two-cell machine `M0`; a BFE is a machine differing in
//! exactly one transition (`δ`) or output (`λ`) entry. Each BFE is covered
//! by a Test Pattern `TP = (I, E, O)` (f.2.3): initialization state,
//! excitation operation and a *read-and-verify* observation.
//!
//! This crate provides:
//!
//! * the taxonomy of classical fault models ([`FaultModel`]): stuck-at,
//!   transition, stuck-open, address-decoder, inversion / idempotent /
//!   state coupling, read-destructive, deceptive read-destructive,
//!   incorrect-read and data-retention faults,
//! * behavioural two-cell machines for each model
//!   ([`catalog::machines`], paper Figure 2),
//! * automatic BFE extraction and TP derivation from *any* faulty machine
//!   ([`bfe`], paper Figure 3) — this is how user-defined faults enter the
//!   flow,
//! * the TP algebra ([`TestPattern`]): observation states, subsumption,
//!   generalization, mirroring,
//! * coverage **requirements** ([`CoverageRequirement`]) — the equivalence
//!   classes `Cᵢ` of Section 5: sets of alternative TPs, any one of which
//!   covers the corresponding fault instance,
//! * a parser for textual fault lists ([`parse_fault_list`]), e.g.
//!   `"SAF, TF, CFid<↑,0>"`.
//!
//! # Example
//!
//! The paper's Section 4 example fault list `{⟨↑,1⟩, ⟨↑,0⟩}` yields the
//! four test patterns TP1–TP4:
//!
//! ```
//! use marchgen_faults::{parse_fault_list, requirements_for};
//!
//! let faults = parse_fault_list("CFid<u,1>, CFid<u,0>")?;
//! let reqs = requirements_for(&faults);
//! assert_eq!(reqs.len(), 4); // one requirement (one TP) per BFE
//! # Ok::<(), marchgen_faults::ParseFaultError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod bfe;
pub mod catalog;
mod dir;
pub mod lowering;
mod model;
mod parse;
pub mod primitives;
mod req;
mod tp;

pub use behavior::{
    FaultBehavior, Invariant, ReadOutput, ReadRule, Role, StoreEffect, WriteEffect, WriteRule,
};
pub use dir::TransitionDir;
pub use model::{AdfKind, FaultModel, FAULT_CLASS_LABELS};
pub use parse::{parse_fault_list, parse_fault_list_into, ParseFaultError};
pub use primitives::{PrimitiveClass, TestPrimitive};
pub use req::{requirements_for, CoverageRequirement};
pub use tp::{dedupe_subsumed, generalize, Observation, TestPattern, TpKind};
