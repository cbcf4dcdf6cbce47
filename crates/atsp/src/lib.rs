//! # marchgen-atsp
//!
//! Exact and heuristic solvers for the **Asymmetric Travelling Salesman
//! Problem**, the combinatorial core of the paper's minimum-length Global
//! Test Sequence search (Section 4, f.4.3).
//!
//! The paper delegates the ATSP to the Fortran branch-and-bound of
//! Carpaneto, Dell'Amico and Toth (ACM Algorithm 750, reference \[12\]).
//! This crate replaces it with pure Rust:
//!
//! * [`held_karp`] — the exact `O(2ⁿ n²)` dynamic program, including
//!   enumeration of *all* optimal tours (the generator builds a March test
//!   from each and keeps the best),
//! * [`hungarian`] — an `O(n³)` assignment-problem solver used as the
//!   relaxation lower bound,
//! * [`branch_bound`] — a CDT-style subtour-patching branch-and-bound
//!   built on the AP relaxation, exact at any size,
//! * [`heuristics`] — nearest-neighbour / greedy-edge construction and
//!   asymmetric-safe Or-opt improvement, used for branch-and-bound's
//!   upper bound and as the inexact `heuristic` backend,
//! * [`AtspSolver`] — the one seam the March generator solves through:
//!   the built-in strategies, [`AutoSolver`] (exact at every size:
//!   Held–Karp with tie enumeration up to [`held_karp::MAX_NODES`]
//!   nodes, branch-and-bound beyond) and any strategy registered in a
//!   [`SolverRegistry`].
//!
//! Costs use `u64` with [`INF`] marking forbidden arcs.
//!
//! # Example
//!
//! ```
//! use marchgen_atsp::{AtspInstance, AtspSolver, AutoSolver};
//!
//! let inst = AtspInstance::from_rows(vec![
//!     vec![0, 1, 9],
//!     vec![9, 0, 1],
//!     vec![1, 9, 0],
//! ]);
//! let tour = AutoSolver.solve(&inst);
//! assert_eq!(tour.cost, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch_bound;
pub mod brute;
pub mod held_karp;
pub mod heuristics;
pub mod hungarian;
mod instance;
mod solver;

pub use instance::{add_cost, AtspInstance, Tour, INF, MAX_DIMENSION};
pub use solver::{
    AtspSolver, AutoSolver, BranchBoundSolver, HeuristicSolver, SolveStats, SolverChoice,
    SolverRegistry, TourSink, UnknownSolverError,
};
