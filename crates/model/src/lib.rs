//! # marchgen-model
//!
//! The memory behavioural model of Benso, Di Carlo, Di Natale and Prinetto,
//! *"An Optimal Algorithm for the Automatic Generation of March Tests"*
//! (DATE 2002), Section 3.
//!
//! An `n` one-bit-cell random access memory is modelled as a deterministic
//! Mealy automaton `M = (Q, X, Y, δ, λ)` (paper formula f.2.1) where
//!
//! * `Q = {0, 1, -}ⁿ` is the set of memory states (`-` marks an
//!   uninitialized cell),
//! * `X = {rᵢ, w0ᵢ, w1ᵢ | 0 ≤ i ≤ n−1} ∪ {T}` is the operation alphabet
//!   (reads, writes and the *wait* operation `T` used by data-retention
//!   faults),
//! * `Y = {0, 1, -}` is the output alphabet,
//! * `δ : Q × X → Q` is the state transition function, and
//! * `λ : Q × X → Y` is the output function.
//!
//! Because every classical memory fault involves at most two cells, the
//! paper works on the **two-cell** instance of this automaton: the
//! fault-free machine `M0` (paper Figure 1) and faulty machines `Mᵢ`
//! differing from `M0` in `δ` or `λ` (paper formula f.2.2, Figure 2).
//! This crate provides:
//!
//! * the three-valued cell algebra ([`Tri`], [`Bit`]),
//! * the two-cell operation alphabet ([`MemOp`], [`Cell`]),
//! * two-cell memory states with partial (don't-care) components
//!   ([`PairState`]),
//! * the concrete two-cell memory machine ([`TwoCellMachine`]) with the
//!   fault-free `M0` constructor and transition/output *overrides* used to
//!   build faulty machines, and
//! * Graphviz DOT export for every machine ([`dot`]).
//!
//! # Example
//!
//! Build `M0`, apply a couple of operations and observe outputs:
//!
//! ```
//! use marchgen_model::{Bit, Cell, MemOp, PairState, TwoCellMachine};
//!
//! let m0 = TwoCellMachine::fault_free();
//! let s = PairState::new_known(Bit::Zero, Bit::Zero);
//! let (s, out) = m0.step(s, MemOp::write(Cell::I, Bit::One));
//! assert_eq!(out, None); // writes output '-'
//! let (_, out) = m0.step(s, MemOp::read(Cell::I));
//! assert_eq!(out, Some(Bit::One));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
mod op;
mod state;
mod two_cell;
mod value;

pub use op::{Cell, MemOp, OpKind, ALL_OPS, NUM_OPS};
pub use state::PairState;
pub use two_cell::{MachineDiff, Transition, TwoCellMachine, NUM_STATES};
pub use value::{Bit, Tri};
