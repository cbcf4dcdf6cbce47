//! The [`MarchTest`] type: a sequence of March elements with the
//! complexity, consistency and normalization operations the generator and
//! the simulator rely on.

use crate::element::MarchElement;
use crate::op::MarchOp;
use marchgen_model::{Bit, Tri};
use std::fmt;
use std::str::FromStr;

/// A complete March test.
///
/// The value-level invariant checked by [`MarchTest::check_consistency`]
/// is *read consistency*: on a fault-free memory every `rd` must actually
/// observe `d`, regardless of how `⇕` elements are resolved. Because every
/// cell experiences exactly the per-cell operation sequence (the
/// concatenation of all element operations), this reduces to a single
/// left-to-right scan of that sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct MarchTest {
    elements: Vec<MarchElement>,
}

/// Why a March test is not read-consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyError {
    /// A read expects a value although the cell content is still unknown
    /// (no write has initialized it yet).
    ReadOfUninitialized {
        /// Index of the element containing the read.
        element: usize,
        /// Index of the read within the element.
        op: usize,
    },
    /// A read expects the complement of the value every cell holds at that
    /// point of the per-cell sequence.
    WrongExpectedValue {
        /// Index of the element containing the read.
        element: usize,
        /// Index of the read within the element.
        op: usize,
        /// The value the fault-free memory holds there.
        actual: Bit,
    },
    /// An element contains no operation.
    EmptyElement {
        /// Index of the empty element.
        element: usize,
    },
}

impl fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsistencyError::ReadOfUninitialized { element, op } => {
                write!(
                    f,
                    "element {element}, op {op}: read of an uninitialized cell"
                )
            }
            ConsistencyError::WrongExpectedValue {
                element,
                op,
                actual,
            } => {
                write!(
                    f,
                    "element {element}, op {op}: read expects the wrong value (cells hold {actual})"
                )
            }
            ConsistencyError::EmptyElement { element } => {
                write!(f, "element {element} is empty")
            }
        }
    }
}

impl std::error::Error for ConsistencyError {}

impl MarchTest {
    /// Creates a test from its elements.
    #[must_use]
    pub fn new(elements: impl Into<Vec<MarchElement>>) -> MarchTest {
        MarchTest {
            elements: elements.into(),
        }
    }

    /// The elements, in application order.
    #[must_use]
    pub fn elements(&self) -> &[MarchElement] {
        &self.elements
    }

    /// Appends an element.
    pub fn push(&mut self, element: MarchElement) {
        self.elements.push(element);
    }

    /// The complexity `k` of the `kn` notation: cell accesses per cell
    /// (reads + writes; `Del` operations are counted separately, see
    /// [`MarchTest::delay_count`]).
    ///
    /// ```
    /// # use marchgen_march::known;
    /// assert_eq!(known::march_c_minus().complexity(), 10); // March C− is 10n
    /// ```
    #[must_use]
    pub fn complexity(&self) -> usize {
        self.elements.iter().map(MarchElement::access_count).sum()
    }

    /// Number of `Del` (wait) operations in the test.
    #[must_use]
    pub fn delay_count(&self) -> usize {
        self.elements
            .iter()
            .flat_map(|e| &e.ops)
            .filter(|op| !op.accesses_cell())
            .count()
    }

    /// Number of March elements.
    #[must_use]
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// `true` when the test has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The per-cell operation sequence: the concatenation of all element
    /// operations. Every cell of the memory experiences exactly this
    /// sequence (the defining property of a March test).
    #[must_use]
    pub fn per_cell_sequence(&self) -> Vec<MarchOp> {
        self.elements
            .iter()
            .flat_map(|e| e.ops.iter().copied())
            .collect()
    }

    /// Checks read consistency (see type-level docs).
    ///
    /// # Errors
    ///
    /// Returns the first [`ConsistencyError`] found, scanning elements
    /// left to right.
    pub fn check_consistency(&self) -> Result<(), ConsistencyError> {
        check_read_consistency(self.elements.iter().map(|e| e.ops.iter().copied()))
    }

    /// The data-polarity complement of the test (every `0 ↔ 1`). Coverage
    /// is identical on polarity-symmetric fault lists, so published tests
    /// often appear in either polarity.
    #[must_use]
    pub fn complement(&self) -> MarchTest {
        MarchTest {
            elements: self.elements.iter().map(MarchElement::complement).collect(),
        }
    }

    /// The address-order mirror: every `⇑ ↔ ⇓`. Mirroring swaps the roles
    /// of lower/higher coupled cells and preserves coverage of
    /// order-symmetric fault lists.
    #[must_use]
    pub fn mirrored(&self) -> MarchTest {
        MarchTest {
            elements: self
                .elements
                .iter()
                .map(|e| MarchElement::new(e.direction.reversed(), e.ops.clone()))
                .collect(),
        }
    }

    /// Canonical polarity: complement the test when its first write is
    /// `w1`, so that equivalent tests compare equal regardless of the
    /// arbitrary data polarity the generator picked.
    #[must_use]
    pub fn normalized_polarity(&self) -> MarchTest {
        let first_write = self.per_cell_sequence().into_iter().find_map(|op| {
            if let MarchOp::Write(d) = op {
                Some(d)
            } else {
                None
            }
        });
        match first_write {
            Some(Bit::One) => self.complement(),
            _ => self.clone(),
        }
    }

    /// Structural equality up to data polarity.
    #[must_use]
    pub fn eq_up_to_polarity(&self, other: &MarchTest) -> bool {
        self == other || *self == other.complement()
    }

    /// Structural equality up to data polarity and address-order mirror.
    #[must_use]
    pub fn eq_up_to_symmetry(&self, other: &MarchTest) -> bool {
        self.eq_up_to_polarity(other) || self.mirrored().eq_up_to_polarity(other)
    }

    /// Renders with pure-ASCII direction mnemonics, e.g.
    /// `m(w0); u(r0,w1); d(r1,w0)`.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        let mut s = String::new();
        for (k, e) in self.elements.iter().enumerate() {
            if k > 0 {
                s.push_str("; ");
            }
            s.push(e.direction.ascii());
            s.push('(');
            for (i, op) in e.ops.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&op.to_string());
            }
            s.push(')');
        }
        s
    }
}

/// The read-consistency rule of [`MarchTest::check_consistency`], over
/// a test given as its elements' operation sequences, for callers that
/// hold a test in another form than a [`MarchTest`].
///
/// # Errors
///
/// Returns the first [`ConsistencyError`] found, scanning elements left
/// to right.
pub fn check_read_consistency<E>(
    elements: impl IntoIterator<Item = E>,
) -> Result<(), ConsistencyError>
where
    E: IntoIterator<Item = MarchOp>,
{
    let mut cur = Tri::X;
    for (ei, element) in elements.into_iter().enumerate() {
        let mut empty = true;
        for (oi, op) in element.into_iter().enumerate() {
            empty = false;
            match op {
                MarchOp::Read(expect) => match cur {
                    Tri::X => {
                        return Err(ConsistencyError::ReadOfUninitialized {
                            element: ei,
                            op: oi,
                        })
                    }
                    _ if cur != Tri::from(expect) => {
                        return Err(ConsistencyError::WrongExpectedValue {
                            element: ei,
                            op: oi,
                            actual: cur.bit().expect("known value"),
                        })
                    }
                    _ => {}
                },
                MarchOp::Write(d) => cur = Tri::from(d),
                MarchOp::Delay => {}
            }
        }
        if empty {
            return Err(ConsistencyError::EmptyElement { element: ei });
        }
    }
    Ok(())
}

impl fmt::Display for MarchTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{ ")?;
        for (k, e) in self.elements.iter().enumerate() {
            if k > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{e}")?;
        }
        f.write_str(" }")
    }
}

impl FromStr for MarchTest {
    type Err = crate::parse::ParseMarchError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::parse::parse_march(s)
    }
}

impl FromIterator<MarchElement> for MarchTest {
    fn from_iter<T: IntoIterator<Item = MarchElement>>(iter: T) -> Self {
        MarchTest {
            elements: iter.into_iter().collect(),
        }
    }
}

impl Extend<MarchElement> for MarchTest {
    fn extend<T: IntoIterator<Item = MarchElement>>(&mut self, iter: T) {
        self.elements.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known;

    #[test]
    fn complexity_of_known_tests() {
        assert_eq!(known::mats().complexity(), 4);
        assert_eq!(known::mats_plus().complexity(), 5);
        assert_eq!(known::mats_plus_plus().complexity(), 6);
        assert_eq!(known::march_x().complexity(), 6);
        assert_eq!(known::march_y().complexity(), 8);
        assert_eq!(known::march_c_minus().complexity(), 10);
        assert_eq!(known::march_c().complexity(), 11);
        assert_eq!(known::march_a().complexity(), 15);
        assert_eq!(known::march_b().complexity(), 17);
        assert_eq!(known::march_u().complexity(), 13);
        assert_eq!(known::march_lr().complexity(), 14);
        assert_eq!(known::march_ss().complexity(), 22);
        assert_eq!(known::march_g().complexity(), 23);
    }

    #[test]
    fn march_g_counts_delays_separately() {
        let g = known::march_g();
        assert_eq!(g.delay_count(), 2);
        assert_eq!(g.complexity(), 23);
    }

    #[test]
    fn all_known_tests_are_consistent() {
        for (name, test) in known::all() {
            assert_eq!(test.check_consistency(), Ok(()), "{name} is inconsistent");
        }
    }

    #[test]
    fn inconsistent_read_value_detected() {
        let t = MarchTest::new(vec![
            MarchElement::any([MarchOp::W0]),
            MarchElement::up([MarchOp::R1]),
        ]);
        assert_eq!(
            t.check_consistency(),
            Err(ConsistencyError::WrongExpectedValue {
                element: 1,
                op: 0,
                actual: Bit::Zero
            })
        );
    }

    #[test]
    fn read_before_init_detected() {
        let t = MarchTest::new(vec![MarchElement::up([MarchOp::R0])]);
        assert_eq!(
            t.check_consistency(),
            Err(ConsistencyError::ReadOfUninitialized { element: 0, op: 0 })
        );
    }

    #[test]
    fn empty_element_detected() {
        let t = MarchTest::new(vec![MarchElement::any(Vec::new())]);
        assert_eq!(
            t.check_consistency(),
            Err(ConsistencyError::EmptyElement { element: 0 })
        );
    }

    #[test]
    fn complement_involutive_and_consistent() {
        let c = known::march_c_minus();
        assert_eq!(c.complement().complement(), c);
        assert_eq!(c.complement().check_consistency(), Ok(()));
        assert_ne!(c.complement(), c);
    }

    #[test]
    fn normalized_polarity_starts_with_w0() {
        let c = known::march_c_minus().complement(); // starts with w1
        let n = c.normalized_polarity();
        assert_eq!(n, known::march_c_minus());
        // already-normalized tests are unchanged
        assert_eq!(n.normalized_polarity(), n);
    }

    #[test]
    fn symmetry_equalities() {
        let x = known::march_x();
        assert!(x.eq_up_to_polarity(&x.complement()));
        assert!(x.eq_up_to_symmetry(&x.mirrored().complement()));
        assert!(!x.eq_up_to_symmetry(&known::march_y()));
    }

    #[test]
    fn per_cell_sequence_concatenates_elements() {
        let seq = known::mats_plus().per_cell_sequence();
        assert_eq!(
            seq,
            vec![
                MarchOp::W0,
                MarchOp::R0,
                MarchOp::W1,
                MarchOp::R1,
                MarchOp::W0
            ]
        );
    }

    #[test]
    fn display_round_trips_through_parser() {
        for (name, test) in known::all() {
            let s = test.to_string();
            let back: MarchTest = s.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, test, "{name} display/parse mismatch");
            let ascii: MarchTest = test
                .to_ascii()
                .parse()
                .unwrap_or_else(|e| panic!("{name} ascii: {e}"));
            assert_eq!(ascii, test, "{name} ascii/parse mismatch");
        }
    }

    #[test]
    fn display_uses_braces_like_table3() {
        assert_eq!(known::mats().to_string(), "{ ⇕(w0); ⇕(r0,w1); ⇕(r1) }");
    }
}
