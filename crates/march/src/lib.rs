//! # marchgen-march
//!
//! March test algebra: operations, March elements, addressing orders, the
//! standard textual notation, and a library of the classical hand-made
//! March tests the paper compares against (Table 3, column *"Equivalent
//! Known March Test"*).
//!
//! A **March test** is a sequence of *March elements*; a March element is a
//! short sequence of read/write operations applied to every memory cell in
//! ascending (⇑), descending (⇓) or arbitrary (⇕) address order before
//! moving to the next cell (van de Goor \[1\]). Its **complexity** is the
//! number of read/write operations performed per cell, written `kn` for a
//! test with `k` operations on an `n`-cell memory.
//!
//! # Example
//!
//! ```
//! use marchgen_march::{MarchTest, known};
//!
//! let mats_plus: MarchTest = "⇕(w0); ⇑(r0,w1); ⇓(r1,w0)".parse()?;
//! assert_eq!(mats_plus.complexity(), 5);
//! assert_eq!(mats_plus, known::mats_plus());
//! # Ok::<(), marchgen_march::ParseMarchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod codegen;
mod element;
pub mod known;
mod op;
mod parse;
mod test;

pub use element::{Direction, MarchElement};
pub use op::MarchOp;
pub use parse::ParseMarchError;
pub use test::{check_read_consistency, ConsistencyError, MarchTest};
