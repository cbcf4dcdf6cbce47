//! # marchgen-generator
//!
//! The March test generation pipeline of Benso et al. (DATE 2002),
//! Section 4 — the paper's primary contribution:
//!
//! 1. the target fault list is expanded into coverage requirements
//!    (equivalence classes of Test Patterns, Section 5),
//! 2. for every class combination a **Test Pattern Graph** is built and
//!    minimum-weight constrained tours are found by exact ATSP
//!    (Section 4, f.4.1–f.4.4),
//! 3. each tour's **Global Test Sequence** is converted into a March test
//!    by the reordering / minimization / March-generation phases of
//!    §4.1–4.3 (implemented as the per-cell scheduler of [`schedule`];
//!    see `DESIGN.md` for the reconstruction of the paper's mangled
//!    rewrite tables),
//! 4. every candidate is validated by the fault simulator and checked for
//!    non-redundancy (Section 6); the shortest verified test wins.
//!
//! The transition-tree **exhaustive baseline** of the prior art the paper
//! improves on (\[2\]–\[4\]) lives in [`baseline`] for head-to-head
//! benchmarks.
//!
//! # Example
//!
//! ```
//! use marchgen_generator::{generate, GenerateRequest};
//!
//! // Table 3, row 1: stuck-at faults → a 4n test (MATS-equivalent).
//! let request = GenerateRequest::from_fault_list("SAF").unwrap();
//! let outcome = generate(&request).unwrap();
//! assert_eq!(outcome.test.complexity(), 4);
//! assert!(outcome.verified);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod gts;
mod outcome;
mod pipeline;
pub mod pool;
mod request;
pub mod schedule;
pub mod serde;

pub use outcome::{Diagnostics, GenerateOutcome};
pub use pipeline::{
    generate, generate_with, generate_with_registry, verifier_for, ClassCombinations, GenerateError,
};
pub use request::GenerateRequest;
pub use schedule::{schedule_tour, ScheduleError};
