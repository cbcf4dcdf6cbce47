//! # marchgen-tpg
//!
//! The **Test Pattern Graph** of paper Section 4: a complete weighted
//! digraph whose nodes are Test Patterns and whose arc weights count the
//! bridging writes needed to chain one TP after another,
//!
//! ```text
//! weight(u → v) = hamming-distance(obs_state(u), init_state(v))   (f.4.1)
//! ```
//!
//! A minimum-weight Hamiltonian *path* through the TPG orders the TPs into
//! a minimum-length Global Test Sequence. The path problem reduces to the
//! ATSP by closing the cycle through a dummy node ([`path`]); the paper's
//! additional constraint f.4.4 — the first TP must have a uniform
//! (`00`/`11`) initialization — becomes a restriction on the dummy's
//! outgoing arcs.
//!
//! # Example — paper Figure 4
//!
//! ```
//! use marchgen_faults::{parse_fault_list, requirements_for};
//! use marchgen_tpg::Tpg;
//!
//! // FaultList = {⟨↑,1⟩, ⟨↑,0⟩}
//! let models = parse_fault_list("CFid<u,1>, CFid<u,0>").unwrap();
//! let tps: Vec<_> = requirements_for(&models)
//!     .iter()
//!     .map(|r| r.alternatives[0])
//!     .collect();
//! let tpg = Tpg::new(tps);
//! let mut weights: Vec<u32> = tpg.arcs().map(|(_, _, w)| w).collect();
//! weights.sort_unstable();
//! assert_eq!(weights, vec![0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
pub mod path;

pub use graph::Tpg;
pub use path::{
    plan_tour, plan_tour_with, plan_tour_with_stats, PlanSink, StartPolicy, TourFamily, TourPlan,
};
