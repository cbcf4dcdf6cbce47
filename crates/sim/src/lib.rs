//! # marchgen-sim
//!
//! The **memory fault simulator** of paper Section 6: the oracle that
//! validates every generated March test.
//!
//! > *"All generated March Tests have been verified using an ad hoc
//! > memory fault simulator able to validate their correctness w.r.t.
//! > the target BFE list. The fault simulator is also used to check the
//! > non-redundancy of each generated March Test."*
//!
//! Components:
//!
//! * [`memory`] — the behavioural memory trait, the fault-free memory and
//!   the fault-injected memory covering every [`FaultModel`](marchgen_faults::FaultModel) (including
//!   the stuck-open sense-amplifier latch, which is not expressible as a
//!   two-cell Mealy override),
//! * [`engine`] — March execution over every address-order resolution of
//!   `⇕` elements and every relevant power-up pattern; a fault counts as
//!   **detected** only when every scenario produces at least one
//!   mismatching read (guaranteed detection),
//! * [`coverage`] — per-model site sweeps (`n·(n−1)` ordered pairs for
//!   coupling faults) and aggregated reports,
//! * [`widesim`] — the packed sweep: `[u64; W]` lane blocks (W ∈
//!   {2,4,8}, auto-vectorized) carrying 128–512 scenario lanes per
//!   memory word, exact-agreement verified against the scalar engine,
//!   plus the deterministic shard plan behind the thread-fanned
//!   [`WideSimVerifier`],
//! * [`verify`] — the [`Verifier`] trait and its two backends, scalar
//!   [`SimVerifier`] and packed [`WideSimVerifier`],
//! * [`pool`] — the index-ordered scoped worker pool shared by the
//!   sharded verify phase, the generator's sharded search and the batch
//!   service layer,
//! * [`matrix`] — the Coverage Matrix over elementary blocks (Section 6),
//! * [`set_cover`] — exact set covering over the matrix: the paper's
//!   non-redundancy proof,
//! * [`redundancy`] — the operational double-check: no operation can be
//!   deleted without losing coverage.
//!
//! # Example
//!
//! ```
//! use marchgen_march::known;
//! use marchgen_faults::parse_fault_list;
//! use marchgen_sim::coverage::covers_all;
//!
//! let faults = parse_fault_list("SAF, TF, CFin, CFid").unwrap();
//! assert!(covers_all(&known::march_c_minus(), &faults, 6));
//! assert!(!covers_all(&known::mats(), &faults, 6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod diagnosis;
pub mod engine;
pub mod linked;
pub mod matrix;
pub mod memory;
pub mod pool;
pub mod redundancy;
pub mod set_cover;
pub mod verify;
pub mod widesim;

pub use coverage::{coverage_report, covers_all, CoverageReport, ModelCoverage};
pub use engine::{detects, FaultSite};
pub use matrix::CoverageMatrix;
pub use memory::SiteCells;
pub use verify::{SimVerifier, Verifier, VerifyRun, WideSimVerifier};
