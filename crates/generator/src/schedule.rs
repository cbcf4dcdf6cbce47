//! The GTS → March conversion: our reconstruction of the paper's
//! reordering / minimization / March-generation rewrite phases
//! (§4.1–§4.3, Tables 1–2, Rules 1–5).
//!
//! # The reconstruction (see also DESIGN.md)
//!
//! The archived paper's rewrite tables are OCR-mangled, but the §4 worked
//! example pins the semantics down completely. Decoding its intermediate
//! strings shows that the minimized `GTS_M` is exactly the **per-cell
//! operation sequence** of the final March test, with the `i`/`j` tags
//! denoting which *sweep phase* (ascending or descending) realizes each
//! operation's coupling role, and the Red/Blue colors marking coupling
//! excitations and their cross-element observation reads. The three
//! phases then amount to:
//!
//! * **Reordering** — placing each TP's operations into the per-cell
//!   schedule so that the March semantics realize `(I, E, O)`: an
//!   element's leading read observes the pre-element value at every cell
//!   the sweep has not reached yet, so an *aggressor-first* TP fits
//!   inside one element (excite at the aggressor, observe via the same
//!   element's leading read at the victim) while an *aggressor-second*
//!   TP excites at the end of one element and observes with the leading
//!   read of the next (the Red/Blue pair of Rule 2).
//! * **Minimization** — operation sharing: phase-duplicate writes merge
//!   into a single March operation (`ŵdⁱ ŵdʲ → ŵdⁱ` of Table 2), one
//!   write excites several TPs, one read serves as observation of
//!   several TPs and as the verify of the next element.
//! * **March generation** — element boundaries fall where the schedule
//!   opens a new leading read (Rule 1), Red/Blue-marked elements take
//!   their phase's direction (Rules 3–4), unmarked elements are order
//!   free (`⇕`, Rule 5's "c").
//!
//! On the worked example this reproduces the paper's intermediate
//! `GTS_M = ŵ0 r̂0 [ŵ1]_R [r̂1]_B ŵ0 r̂0 [ŵ1]_R [r̂1]_B` and the final 8n
//! test `⇑(w0) ⇑(r0,w1) ⇑(r1,w0) ⇓(r0,w1) ⇓(r1)` exactly (the leading
//! background element is emitted as `⇕`, which subsumes the paper's `⇑`).
//!
//! # Two outputs of one scheduler
//!
//! [`schedule_tour`] returns the test as a [`MarchTest`]. The generator
//! schedules every optimal tour of a request but screens only a few of
//! them, so its search uses the same scheduler with a packed output
//! instead: one byte per element header and one per operation, appended
//! to an arena the caller owns, plus the test's complexity and element
//! count. One walk over the scheduled elements both checks the rules of
//! [`check_read_consistency`](marchgen_march::check_read_consistency)
//! and writes the bytes; a refused test leaves the arena as it was. The
//! scheduler keeps its state in flat buffers that it reuses from one
//! tour to the next, and it reads each tour as the order the tour
//! planner lends it, so the search allocates nothing per tour. The
//! generator rebuilds a [`MarchTest`] with [`schedule_tour`] only for
//! the candidates it screens.

use marchgen_faults::{Observation, TestPattern, TpKind};
use marchgen_march::{Direction, MarchElement, MarchOp, MarchTest};
use marchgen_model::{Bit, Cell, MemOp};
use std::fmt;

/// Why a tour could not be scheduled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A read would disagree with the fault-free per-cell value — the TP
    /// sequence is internally inconsistent.
    InconsistentRead {
        /// The value the read expects.
        expected: Bit,
        /// The per-cell value at that point, if initialized.
        actual: Option<Bit>,
    },
    /// Two coupling TPs forced opposite sweep directions onto one
    /// element.
    PhaseConflict,
    /// A TP requires a known initialization the schedule cannot provide
    /// (e.g. a pre-read on a cell whose value is still unknown).
    UnknownValue,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::InconsistentRead { expected, actual } => write!(
                f,
                "inconsistent read: expected {expected}, per-cell value is {}",
                actual.map_or("unknown".to_string(), |b| b.to_string())
            ),
            ScheduleError::PhaseConflict => {
                f.write_str("conflicting sweep directions on one march element")
            }
            ScheduleError::UnknownValue => {
                f.write_str("operation requires a cell value that is still unknown")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One scheduled per-cell operation with its pre-value.
#[derive(Debug, Clone, Copy)]
struct Slot {
    op: MarchOp,
    /// Per-cell value before this operation.
    pre: Option<Bit>,
}

/// An element under construction; its operations are the builder's
/// slots from `first` up to the next element's `first`.
#[derive(Debug, Clone)]
struct Elem {
    first: usize,
    /// Per-cell value when the element starts.
    start: Option<Bit>,
    /// Sweep-phase mark from Red/Blue colored operations.
    mark: Option<Direction>,
}

impl Elem {
    fn set_mark(&mut self, mark: Option<Direction>) -> Result<(), ScheduleError> {
        match (self.mark, mark) {
            (_, None) => Ok(()),
            (None, m) => {
                self.mark = m;
                Ok(())
            }
            (Some(a), Some(b)) if a == b => Ok(()),
            _ => Err(ScheduleError::PhaseConflict),
        }
    }
}

/// A pending observation read: registered when an excitation is placed,
/// discharged by the next matching read (which opens the next element for
/// cross-element observations).
#[derive(Debug, Clone, Copy)]
struct Pending {
    expected: Bit,
    /// Blue mark: the phase whose direction the observing element takes.
    mark: Option<Direction>,
}

/// The scheduler state, stored flat so that one builder schedules tour
/// after tour without allocating.
#[derive(Debug)]
pub(crate) struct Builder {
    /// Every scheduled operation, element after element.
    slots: Vec<Slot>,
    /// The elements in order. When `open` is set the last one is still
    /// being built; it always holds at least one operation, because an
    /// element opens only to take one.
    elems: Vec<Elem>,
    open: bool,
    cur: Option<Bit>,
    phase: Direction,
    pendings: Vec<Pending>,
    /// Whether the most recently closed element may still host a shared
    /// cross-excitation (no operation appended since it closed).
    last_closed_sharable: bool,
}

impl Builder {
    pub(crate) fn new() -> Builder {
        Builder {
            slots: Vec::new(),
            elems: Vec::new(),
            open: false,
            cur: None,
            phase: Direction::Up,
            pendings: Vec::new(),
            last_closed_sharable: false,
        }
    }

    /// Runs the §4.1–4.3 phases over `tour`, leaving the test in the
    /// buffers. Whatever a previous tour left, failed or not, is
    /// cleared first.
    fn schedule<'a>(
        &mut self,
        tour: impl IntoIterator<Item = &'a TestPattern>,
    ) -> Result<(), ScheduleError> {
        self.slots.clear();
        self.elems.clear();
        self.pendings.clear();
        self.open = false;
        self.cur = None;
        self.phase = Direction::Up;
        self.last_closed_sharable = false;
        for tp in tour {
            match tp.kind {
                TpKind::SingleCell => place_single(self, tp)?,
                TpKind::Pair => place_pair(self, tp)?,
            }
        }
        self.discharge_pendings()?;
        self.close();
        Ok(())
    }

    /// Schedules `tour` and appends the test to `arena` in packed form
    /// (see [`pack_elements`]). Returns the test's complexity and
    /// element count, or `None` (appending nothing) when the tour does
    /// not schedule or the test is not read-consistent.
    pub(crate) fn pack<'a>(
        &mut self,
        tour: impl IntoIterator<Item = &'a TestPattern>,
        arena: &mut Vec<u8>,
    ) -> Option<(usize, usize)> {
        self.schedule(tour).ok()?;
        pack_elements(
            self.elements()
                .map(|(direction, ops)| (direction, ops.iter().map(|s| s.op))),
            arena,
        )
    }

    /// The scheduled test as a [`MarchTest`].
    fn to_test(&self) -> MarchTest {
        self.elements()
            .map(|(direction, ops)| {
                MarchElement::new(direction, ops.iter().map(|s| s.op).collect::<Vec<_>>())
            })
            .collect()
    }

    /// The elements with their directions (an unmarked element is
    /// order-free) and operations.
    fn elements(&self) -> impl Iterator<Item = (Direction, &[Slot])> + '_ {
        (0..self.elems.len()).map(|k| {
            let (e, ops) = self.elem(k);
            (e.mark.unwrap_or(Direction::Any), ops)
        })
    }

    fn elem(&self, k: usize) -> (&Elem, &[Slot]) {
        let end = self.elems.get(k + 1).map_or(self.slots.len(), |e| e.first);
        (&self.elems[k], &self.slots[self.elems[k].first..end])
    }

    /// The element being built, if any.
    fn open_elem(&self) -> Option<(&Elem, &[Slot])> {
        self.open.then(|| self.elem(self.elems.len() - 1))
    }

    /// The last element, open or closed.
    fn last_elem(&self) -> Option<(&Elem, &[Slot])> {
        self.elems.len().checked_sub(1).map(|k| self.elem(k))
    }

    fn close(&mut self) {
        if self.open {
            self.open = false;
            self.last_closed_sharable = true;
        }
    }

    /// Appends `op` to the open element, opening one if needed.
    fn append(&mut self, op: MarchOp, mark: Option<Direction>) -> Result<(), ScheduleError> {
        if !self.open {
            self.elems.push(Elem {
                first: self.slots.len(),
                start: self.cur,
                mark: None,
            });
            self.open = true;
        }
        self.slots.push(Slot { op, pre: self.cur });
        self.last_closed_sharable = false;
        self.elems
            .last_mut()
            .expect("an element is open")
            .set_mark(mark)
    }

    /// Appends a write, discharging pending observations first.
    fn push_write(&mut self, value: Bit, mark: Option<Direction>) -> Result<(), ScheduleError> {
        self.discharge_pendings()?;
        self.append(MarchOp::Write(value), mark)?;
        self.cur = Some(value);
        Ok(())
    }

    /// Appends a read-and-verify; it discharges every pending observation
    /// (they all expect the current per-cell value by construction).
    fn push_read(&mut self, expected: Bit, mark: Option<Direction>) -> Result<(), ScheduleError> {
        if self.cur != Some(expected) {
            return Err(ScheduleError::InconsistentRead {
                expected,
                actual: self.cur,
            });
        }
        let mut mark = mark;
        for p in self.pendings.drain(..) {
            debug_assert_eq!(p.expected, expected, "pending invariant");
            if mark.is_none() {
                mark = p.mark;
            }
        }
        self.append(MarchOp::Read(expected), mark)
    }

    /// Emits the pending observation reads (each opens a fresh element if
    /// none is open — the cross-element observation shape).
    fn discharge_pendings(&mut self) -> Result<(), ScheduleError> {
        if self.pendings.is_empty() {
            return Ok(());
        }
        let expected = self.pendings[0].expected;
        self.push_read(expected, None)
    }

    /// Brings the per-cell value to `value` (no-op when already there or
    /// when `value` is unconstrained).
    fn ensure_value(&mut self, value: Option<Bit>) -> Result<(), ScheduleError> {
        match value {
            Some(v) if self.cur != Some(v) => self.push_write(v, None),
            _ => Ok(()),
        }
    }
}

/// Appends a test to `arena` in packed form, checking it on the way: per
/// element one header byte (its direction, 8–10), then one byte per
/// operation (0–4). Headers and operations use disjoint byte values, so
/// two packed tests are equal exactly when the tests are.
///
/// The one walk that writes the bytes also applies the rules of
/// [`check_read_consistency`](marchgen_march::check_read_consistency):
/// every read expects the value the last write left, and no element is
/// empty. Returns the test's complexity and element count, or `None`,
/// with `arena` as it was, exactly when that check refuses the test.
fn pack_elements<O: IntoIterator<Item = MarchOp>>(
    elements: impl IntoIterator<Item = (Direction, O)>,
    arena: &mut Vec<u8>,
) -> Option<(usize, usize)> {
    let offset = arena.len();
    let mut cur = None;
    let (mut complexity, mut count) = (0, 0);
    'refused: {
        for (direction, ops) in elements {
            arena.push(match direction {
                Direction::Up => 8,
                Direction::Down => 9,
                Direction::Any => 10,
            });
            let first = arena.len();
            for op in ops {
                let byte = match op {
                    MarchOp::Read(value) if cur != Some(value) => break 'refused,
                    MarchOp::Read(Bit::Zero) => 0,
                    MarchOp::Read(Bit::One) => 1,
                    MarchOp::Write(value) => {
                        cur = Some(value);
                        match value {
                            Bit::Zero => 2,
                            Bit::One => 3,
                        }
                    }
                    MarchOp::Delay => 4,
                };
                complexity += usize::from(op.accesses_cell());
                arena.push(byte);
            }
            if arena.len() == first {
                break 'refused;
            }
            count += 1;
        }
        return Some((complexity, count));
    }
    arena.truncate(offset);
    None
}

/// The placement a pair TP gets in the current schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    /// Reuse an existing excitation operation (cost 0 + possible close
    /// fix).
    ShareCross { phase: Direction, fix_close: bool },
    /// Aggressor is swept first: excite inside an element whose leading
    /// read observes the victim.
    Within { phase: Direction },
    /// Aggressor is swept second: excite at the element end, observe with
    /// the next element's leading read.
    AppendCross { phase: Direction },
}

/// Converts a TP tour into a March test (the §4.1–4.3 phases).
///
/// # Errors
///
/// Returns [`ScheduleError`] when the tour cannot form a consistent March
/// test (the pipeline then skips this tour).
pub fn schedule_tour(tour: &[TestPattern]) -> Result<MarchTest, ScheduleError> {
    let mut b = Builder::new();
    b.schedule(tour)?;
    Ok(b.to_test())
}

fn place_single(b: &mut Builder, tp: &TestPattern) -> Result<(), ScheduleError> {
    let x = tp.init.i.bit();
    if let Some(setup) = tp.setup {
        return place_single_sequence(b, tp, x, setup);
    }
    match tp.excite {
        MemOp::Write(_, d) => {
            b.ensure_value(x)?;
            if tp.pre_read {
                let Some(v) = x.or(b.cur) else {
                    return Err(ScheduleError::UnknownValue);
                };
                let open_last = b.open_elem().and_then(|(_, ops)| ops.last());
                if open_last.map(|s| s.op) != Some(MarchOp::Read(v)) {
                    b.discharge_pendings()?;
                    b.push_read(v, None)?;
                }
            }
            b.push_write(d, None)?;
            if tp.immediate {
                b.push_read(d, None)?;
            } else {
                b.pendings.push(Pending {
                    expected: d,
                    mark: None,
                });
            }
        }
        MemOp::Read(_) => {
            let Some(v) = x else {
                return Err(ScheduleError::UnknownValue);
            };
            b.ensure_value(Some(v))?;
            b.push_read(v, None)?;
            if matches!(tp.observe, Observation::Read { .. }) {
                // deceptive read faults: a second read catches the flip
                b.pendings.push(Pending {
                    expected: v,
                    mark: None,
                });
            }
        }
        MemOp::Delay => {
            let Some(v) = x else {
                return Err(ScheduleError::UnknownValue);
            };
            b.ensure_value(Some(v))?;
            b.discharge_pendings()?;
            b.close();
            // A closed element of its own.
            b.elems.push(Elem {
                first: b.slots.len(),
                start: b.cur,
                mark: None,
            });
            b.slots.push(Slot {
                op: MarchOp::Delay,
                pre: b.cur,
            });
            b.last_closed_sharable = false;
            b.pendings.push(Pending {
                expected: v,
                mark: None,
            });
        }
    }
    Ok(())
}

/// Places a two-operation (dynamic-fault) single-cell TP: the setup op
/// and the excitation must reach the cell back-to-back, which March
/// semantics guarantee for adjacent operations of one element.
fn place_single_sequence(
    b: &mut Builder,
    tp: &TestPattern,
    x: Option<Bit>,
    setup: MemOp,
) -> Result<(), ScheduleError> {
    let MemOp::Write(_, s) = setup else {
        // Only write-setup sequences are in the workload space.
        return Err(ScheduleError::UnknownValue);
    };
    b.ensure_value(x)?;
    // `push_write` discharges pendings first, so nothing can slip in
    // between the setup write and the excitation below.
    b.push_write(s, None)?;
    match tp.excite {
        MemOp::Read(_) => {
            let expected = tp.observe.expected();
            b.push_read(expected, None)?;
            if matches!(tp.observe, Observation::Read { .. }) {
                // Deceptive dynamic faults: the excitation read returns
                // the correct value, a trailing read catches the flip.
                b.pendings.push(Pending {
                    expected,
                    mark: None,
                });
            }
        }
        MemOp::Write(_, d) => {
            b.push_write(d, None)?;
            b.pendings.push(Pending {
                expected: d,
                mark: None,
            });
        }
        MemOp::Delay => return Err(ScheduleError::UnknownValue),
    }
    Ok(())
}

fn place_pair(b: &mut Builder, tp: &TestPattern) -> Result<(), ScheduleError> {
    let aggr = tp.excite_cell();
    let x_a = tp.init.get(aggr).bit();
    let x_v = tp
        .init
        .get(aggr.other())
        .bit()
        .ok_or(ScheduleError::UnknownValue)?;

    let placement = choose_placement(b, tp, aggr, x_a, x_v);
    match placement {
        Placement::ShareCross { phase, fix_close } => {
            if fix_close {
                b.push_write(x_v, None)?;
            }
            // Mark the hosting element, open or just closed, with the
            // phase (it may have been built unmarked).
            if let Some(e) = b.elems.last_mut() {
                e.set_mark(Some(phase))?;
            }
            b.close();
            register_observation(b, tp, x_v, phase);
        }
        Placement::Within { phase } => {
            let needs_leading_read = matches!(tp.observe, Observation::Read { .. });
            let host_ok = |b: &Builder| -> bool {
                b.phase == phase
                    && match (b.open_elem(), needs_leading_read) {
                        (Some((e, ops)), true) => {
                            ops.first().map(|s| s.op) == Some(MarchOp::Read(x_v))
                                && e.start == Some(x_v)
                                && (e.mark.is_none() || e.mark == Some(phase))
                        }
                        (Some((e, _)), false) => {
                            e.start == Some(x_v) && (e.mark.is_none() || e.mark == Some(phase))
                        }
                        (None, _) => false,
                    }
            };
            if !host_ok(b) {
                // A pending cross-observation read may open exactly the
                // element this TP needs (its leading read then serves
                // both TPs — the paper's operation sharing).
                b.discharge_pendings()?;
                if !host_ok(b) {
                    // Arrange the pre-element value (bridge writes join
                    // the element being closed — the paper's ⇑(r1,w0)
                    // junction shape), close it, flip the sweep phase if
                    // needed, then open the observation element.
                    b.ensure_value(Some(x_v))?;
                    b.close();
                    b.phase = phase;
                    if needs_leading_read {
                        b.push_read(x_v, None)?;
                    }
                }
            }
            // When the host is reusable, its leading read doubles as this
            // TP's observation — nothing to add.
            if let Some(v) = x_a {
                if b.cur != Some(v) {
                    b.push_write(v, None)?;
                }
            }
            match tp.excite {
                MemOp::Write(_, d) => b.push_write(d, Some(phase))?,
                MemOp::Read(_) => {
                    let expected = tp.observe.expected();
                    b.push_read(expected, Some(phase))?;
                }
                MemOp::Delay => return Err(ScheduleError::UnknownValue),
            }
        }
        Placement::AppendCross { phase } => {
            if b.phase != phase {
                b.discharge_pendings()?;
                b.close();
                b.phase = phase;
            }
            b.ensure_value(x_a)?;
            match tp.excite {
                MemOp::Write(_, d) => {
                    b.push_write(d, Some(phase))?;
                    if b.cur != Some(x_v) {
                        b.push_write(x_v, Some(phase))?;
                    }
                }
                MemOp::Read(_) => {
                    let expected = tp.observe.expected();
                    b.push_read(expected, Some(phase))?;
                    if b.cur != Some(x_v) {
                        b.push_write(x_v, Some(phase))?;
                    }
                }
                MemOp::Delay => return Err(ScheduleError::UnknownValue),
            }
            b.close();
            register_observation(b, tp, x_v, phase);
        }
    }
    Ok(())
}

fn register_observation(b: &mut Builder, tp: &TestPattern, x_v: Bit, phase: Direction) {
    if matches!(tp.observe, Observation::Read { .. }) {
        b.pendings.push(Pending {
            expected: x_v,
            mark: Some(phase),
        });
    }
}

/// Picks the cheapest feasible placement: a zero-cost excitation share in
/// the current phase, otherwise within/cross in the current phase before
/// the flipped one.
fn choose_placement(
    b: &Builder,
    tp: &TestPattern,
    aggr: Cell,
    x_a: Option<Bit>,
    x_v: Bit,
) -> Placement {
    // 1. Share an existing excitation (open element, or the element that
    //    just closed while its observation slot is still free).
    for phase in [b.phase, b.phase.reversed()] {
        // Sharing keeps the host element's sweep direction: the TP's
        // aggressor must be swept *second* in that phase for the
        // cross-observation shape.
        let second = match phase {
            Direction::Down => Cell::I,
            _ => Cell::J,
        };
        if aggr != second {
            continue;
        }
        let excite_matches = |slot: &Slot| -> bool {
            match (tp.excite, slot.op) {
                (MemOp::Write(_, d), MarchOp::Write(v)) => {
                    d == v && (x_a.is_none() || slot.pre == x_a)
                }
                (MemOp::Read(_), MarchOp::Read(v)) => {
                    tp.observe.expected() == v && (x_a.is_none() || slot.pre == x_a)
                }
                _ => false,
            }
        };
        if let Some((e, ops)) = b.open_elem() {
            let mark_ok = e.mark.is_none() || e.mark == Some(phase);
            if mark_ok && ops.iter().any(excite_matches) {
                let fix_close = b.cur != Some(x_v);
                // A fixing write must not undo the shared excitation: the
                // excite op's effect on the aggressor has already fired
                // when the sweep reaches it, so a trailing write is fine;
                // but only a *write*-excite tolerates it (a shared read
                // excite needs the pre-value intact — it has it, reads
                // don't change values).
                if !fix_close || matches!(tp.excite, MemOp::Write(..)) {
                    return Placement::ShareCross { phase, fix_close };
                }
            }
        } else if b.last_closed_sharable {
            if let Some((e, ops)) = b.last_elem() {
                let mark_ok = e.mark.is_none() || e.mark == Some(phase);
                if mark_ok
                    && b.cur == Some(x_v)
                    && ops.iter().any(excite_matches)
                    && phase == b.phase
                {
                    return Placement::ShareCross {
                        phase,
                        fix_close: false,
                    };
                }
            }
        }
    }

    // 2. Within / cross placement, preferring the current phase.
    for phase in [b.phase, b.phase.reversed()] {
        let first = match phase {
            Direction::Down => Cell::J,
            _ => Cell::I,
        };
        if aggr == first {
            return Placement::Within { phase };
        }
    }
    // aggr is the second cell in the current phase.
    Placement::AppendCross { phase: b.phase }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassCombinations;
    use marchgen_faults::{dedupe_subsumed, parse_fault_list, requirements_for, FaultModel};
    use marchgen_march::check_read_consistency;
    use marchgen_model::PairState;
    use marchgen_tpg::{plan_tour, StartPolicy, Tpg};

    fn tps_for(list: &str) -> Vec<TestPattern> {
        let models = parse_fault_list(list).unwrap();
        requirements_for(&models)
            .iter()
            .map(|r| r.alternatives[0])
            .collect()
    }

    /// §4 worked example: the tour TP3 → TP2 → TP4 → TP1 yields the 8n
    /// test `⇕(w0) ⇑(r0,w1) ⇑(r1,w0) ⇓(r0,w1) ⇓(r1)`.
    #[test]
    fn section4_worked_example_march() {
        let tps = tps_for("CFid<u,0>, CFid<u,1>");
        // indices: 0=TP1 (01,w1i,r1j), 1=TP2 (10,w1j,r1i),
        //          2=TP3 (00,w1i,r0j), 3=TP4 (00,w1j,r0i)
        let tour = [tps[2], tps[1], tps[3], tps[0]];
        let m = schedule_tour(&tour).expect("schedulable");
        assert_eq!(m.check_consistency(), Ok(()));
        assert_eq!(m.complexity(), 8, "{m}");
        let want: MarchTest = "⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1)"
            .parse()
            .unwrap();
        assert_eq!(m, want, "{m}");
    }

    /// Table 3 row 1 shape: SAF alone schedules to 4 operations.
    #[test]
    fn saf_tour_schedules_to_4n() {
        let tps = tps_for("SAF");
        let m = schedule_tour(&tps).expect("schedulable");
        assert_eq!(m.check_consistency(), Ok(()));
        assert_eq!(m.complexity(), 4, "{m}");
    }

    /// Table 3 row 2 shape: the subsumption-deduped SAF+TF tour
    /// (TF↑ then TF↓) schedules to 5 operations.
    #[test]
    fn saf_tf_tour_schedules_to_5n() {
        let tps = tps_for("TF"); // SAF patterns are subsumed by TF's
        let m = schedule_tour(&tps).expect("schedulable");
        assert_eq!(m.check_consistency(), Ok(()));
        assert_eq!(m.complexity(), 5, "{m}");
    }

    /// Table 3 row 6 shape: {CFid<↑,1>, CFid<↓,1>} admits a 5n test
    /// (the paper's `⇑(w0) ⇑(r0,w1,w0) ⇓(r0)`, "Not Found" in the
    /// literature) — via excitation sharing.
    #[test]
    fn cfid_row6_tour_schedules_to_5n() {
        let tps = tps_for("CFid<u,1>, CFid<d,1>");
        // tps: [P1=(00,w1i,r0j), P2=(00,w1j,r0i), P3=(10,w0i,r0j), P4=(01,w0j,r0i)]
        let tour = [tps[0], tps[2], tps[1], tps[3]];
        let m = schedule_tour(&tour).expect("schedulable");
        assert_eq!(m.check_consistency(), Ok(()));
        assert_eq!(m.complexity(), 5, "{m}");
    }

    /// A data-retention TP produces a standalone Del element.
    #[test]
    fn drf_schedules_delay_element() {
        let tps = tps_for("DRF<1>");
        let m = schedule_tour(&tps).expect("schedulable");
        assert_eq!(m.check_consistency(), Ok(()));
        assert_eq!(m.delay_count(), 1);
        // w1; Del; r1
        assert_eq!(m.complexity(), 2, "{m}");
    }

    /// SOF TPs produce the r-w-r same-element shape.
    #[test]
    fn sof_schedules_pre_read_and_immediate_read() {
        let tps = tps_for("SOF");
        let m = schedule_tour(&tps).expect("schedulable");
        assert_eq!(m.check_consistency(), Ok(()));
        let shaped = m.elements().iter().any(|e| {
            e.ops
                .windows(3)
                .any(|w| w[0].is_read() && w[1].is_write() && w[2].is_read())
        });
        assert!(shaped, "expected an r,w,r element: {m}");
    }

    /// Deceptive read-destructive faults schedule a double read.
    #[test]
    fn drdf_schedules_double_read() {
        let tps = tps_for("DRDF<0>");
        let m = schedule_tour(&tps).expect("schedulable");
        assert_eq!(m.check_consistency(), Ok(()));
        let seq = m.per_cell_sequence();
        let reads = seq.iter().filter(|o| o.is_read()).count();
        assert!(reads >= 2, "{m}");
    }

    /// Every scheduled tour over catalog TPs is read-consistent.
    #[test]
    fn random_tours_always_consistent() {
        let tps = tps_for("SAF, TF, CFin, CFid, ADF");
        // Walk a few deterministic permutations.
        let mut order: Vec<usize> = (0..tps.len()).collect();
        for round in 0..24 {
            order.rotate_left(1 + round % 3);
            if round % 2 == 0 {
                let last = order.len() - 1;
                order.swap(0, last);
            }
            let tour: Vec<TestPattern> = order.iter().map(|&k| tps[k]).collect();
            match schedule_tour(&tour) {
                Ok(m) => assert_eq!(m.check_consistency(), Ok(()), "round {round}: {m}"),
                Err(e) => panic!("round {round}: unschedulable: {e}"),
            }
        }
    }

    /// A test as the one walk takes it: elements of directions and
    /// operations.
    type Elements = [(Direction, Vec<MarchOp>)];

    /// The check-then-encode path the one walk replaced: the packed bytes,
    /// complexity and element count, or `None` when
    /// `check_read_consistency` refuses the test.
    fn checked_then_encoded(elements: &Elements) -> Option<(Vec<u8>, usize, usize)> {
        check_read_consistency(elements.iter().map(|(_, ops)| ops.iter().copied())).ok()?;
        let mut bytes = Vec::new();
        let mut complexity = 0;
        for (direction, ops) in elements {
            bytes.push(match direction {
                Direction::Up => 8,
                Direction::Down => 9,
                Direction::Any => 10,
            });
            for op in ops {
                complexity += usize::from(op.accesses_cell());
                bytes.push(match op {
                    MarchOp::Read(Bit::Zero) => 0,
                    MarchOp::Read(Bit::One) => 1,
                    MarchOp::Write(Bit::Zero) => 2,
                    MarchOp::Write(Bit::One) => 3,
                    MarchOp::Delay => 4,
                });
            }
        }
        Some((bytes, complexity, elements.len()))
    }

    /// Walks `elements` into an arena that already holds bytes, holds the
    /// result to [`checked_then_encoded`] and returns whether the walk
    /// packed the test.
    fn walk_matches_the_check(elements: &Elements) -> bool {
        let held = [0xEE, 7];
        let mut arena = held.to_vec();
        let got = pack_elements(
            elements.iter().map(|(d, ops)| (*d, ops.iter().copied())),
            &mut arena,
        );
        match (checked_then_encoded(elements), got) {
            (Some((bytes, complexity, count)), Some(key)) => {
                assert_eq!(key, (complexity, count), "{elements:?}");
                assert_eq!(arena[..2], held, "{elements:?}");
                assert_eq!(arena[2..], bytes[..], "{elements:?}");
                true
            }
            (None, None) => {
                assert_eq!(arena, held, "a refused test leaves the arena as it was");
                false
            }
            (want, got) => panic!("{elements:?}: walk {got:?}, check-then-encode {want:?}"),
        }
    }

    /// The one walk refuses exactly what `check_read_consistency`
    /// refuses, with the arena unchanged, and otherwise writes the bytes
    /// of the check-then-encode path. No catalog tour reaches a refusal,
    /// so the walk is fed op streams directly: a read before any write,
    /// reads of the wrong value, empty elements, and random streams.
    #[test]
    fn the_one_walk_refuses_what_the_consistency_check_refuses() {
        use Direction::{Any, Down, Up};
        use MarchOp::{Delay, Read, Write};
        let (zero, one) = (Bit::Zero, Bit::One);
        let refused: [&Elements; 8] = [
            // A read before any write, alone and after a delay.
            &[(Any, vec![Read(zero), Write(one)])],
            &[(Any, vec![Delay, Read(zero)])],
            // A read of the wrong value, in the next element and in the
            // element of the write.
            &[(Any, vec![Write(zero)]), (Up, vec![Read(one), Write(one)])],
            &[(Up, vec![Write(zero), Write(one), Read(zero)])],
            // An empty element: first, between two, and last.
            &[(Any, vec![])],
            &[
                (Any, vec![Write(zero)]),
                (Down, vec![]),
                (Up, vec![Read(zero)]),
            ],
            &[
                (Any, vec![Write(zero)]),
                (Up, vec![Read(zero)]),
                (Down, vec![]),
            ],
            // A refusal after many bytes were already written.
            &[
                (Any, vec![Write(zero)]),
                (Up, vec![Read(zero), Write(one)]),
                (Down, vec![Read(one), Write(zero), Read(one)]),
            ],
        ];
        for elements in refused {
            assert!(!walk_matches_the_check(elements), "{elements:?}");
        }
        let march_c_minus: MarchTest = "⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)"
            .parse()
            .unwrap();
        let accepted: [Vec<(Direction, Vec<MarchOp>)>; 3] = [
            Vec::new(),
            vec![
                (Any, vec![Write(one)]),
                (Any, vec![Delay]),
                (Up, vec![Read(one)]),
            ],
            march_c_minus
                .elements()
                .iter()
                .map(|e| (e.direction, e.ops.clone()))
                .collect(),
        ];
        for elements in &accepted {
            assert!(walk_matches_the_check(elements), "{elements:?}");
        }
        let ops = [Read(zero), Read(one), Write(zero), Write(one), Delay];
        let (mut packed, mut cases) = (0, 0);
        marchgen_testkit::run_cases("one walk vs check-then-encode", 4096, |rng| {
            let elements: Vec<(Direction, Vec<MarchOp>)> = (0..rng.range(0, 6))
                .map(|_| {
                    let direction = *rng.pick(&[Up, Down, Any]);
                    (direction, rng.vec(0, 5, |rng| *rng.pick(&ops)))
                })
                .collect();
            packed += usize::from(walk_matches_the_check(&elements));
            cases += 1;
        });
        assert!(
            packed >= cases / 10,
            "{packed} of {cases} random tests packed"
        );
        assert!(
            packed <= cases / 2,
            "{packed} of {cases} random tests packed"
        );
    }

    /// The packed path agrees with the reference path (`schedule_tour`,
    /// `check_consistency`, `MarchTest ==`) through one builder reused
    /// for every tour, refused ones included. The tours are every
    /// optimal tour, under both start policies, of the first unique TP
    /// sets of each list, and deterministic permutations of those sets.
    /// Every catalog tour schedules, so some permutations carry a pair
    /// TP whose victim value is unknown, which does not.
    #[test]
    fn packed_tours_match_scheduled_tests() {
        let mut lists: Vec<(String, usize)> = [
            "SAF",
            "SAF, TF",
            "SAF, TF, ADF",
            "SAF, TF, ADF, CFin",
            "SAF, TF, ADF, CFin, CFid",
            "CFid<u,1>, CFid<d,1>",
            "SOF, ADF, CFin",
        ]
        .iter()
        .map(|list| (list.to_string(), 8))
        .collect();
        let everything: Vec<String> = FaultModel::all_extended()
            .iter()
            .map(ToString::to_string)
            .collect();
        // Its sets have 23 TPs or more: one tour each, by branch-and-bound.
        lists.push((everything.join(", "), 2));
        let mut unschedulable = tps_for("CFin")[0];
        unschedulable.init = PairState::UNKNOWN;
        let mut builder = Builder::new();
        let mut arena = vec![0xFF];
        let (mut refused, mut after_refusal) = (0, 0);
        for (list, max_sets) in &lists {
            let requirements = requirements_for(&parse_fault_list(list).unwrap());
            let mut sets: Vec<Vec<TestPattern>> = Vec::new();
            for combo in ClassCombinations::new(&requirements) {
                let mut tps = dedupe_subsumed(&combo);
                tps.sort();
                if !sets.contains(&tps) {
                    sets.push(tps);
                }
                if sets.len() == *max_sets {
                    break;
                }
            }
            let mut tours: Vec<Vec<TestPattern>> = Vec::new();
            for tps in &sets {
                let tpg = Tpg::new(tps.clone());
                for policy in [StartPolicy::Uniform, StartPolicy::Free] {
                    for plan in plan_tour(&tpg, policy, 64) {
                        tours.push(plan.order.iter().map(|&i| tps[i]).collect());
                    }
                }
                let mut order: Vec<usize> = (0..tps.len()).collect();
                for round in 0..6 {
                    let last = order.len() - 1;
                    order.rotate_left((1 + round % 3) % (last + 1));
                    order.swap((round % 2).min(last), last);
                    let mut tour: Vec<TestPattern> = order.iter().map(|&k| tps[k]).collect();
                    if round % 2 == 1 {
                        tour.insert(round * 7 % (last + 2), unschedulable);
                    }
                    tours.push(tour);
                }
            }
            let mut packed: Vec<(Vec<u8>, MarchTest)> = Vec::new();
            let mut last_refused = false;
            for tour in &tours {
                let reference = schedule_tour(tour)
                    .ok()
                    .filter(|t| t.check_consistency().is_ok());
                let offset = arena.len();
                let got = builder.pack(tour, &mut arena);
                match (reference, got) {
                    (Some(test), Some(key)) => {
                        assert_eq!(key, (test.complexity(), test.element_count()), "{test}");
                        after_refusal += usize::from(last_refused);
                        last_refused = false;
                        packed.push((arena[offset..].to_vec(), test));
                    }
                    (None, None) => {
                        assert_eq!(arena.len(), offset, "a refused tour appends nothing");
                        refused += 1;
                        last_refused = true;
                    }
                    (reference, got) => panic!("{list}: packed {got:?}, reference {reference:?}"),
                }
            }
            for (k, (bytes, test)) in packed.iter().enumerate() {
                for (other_bytes, other) in &packed[k + 1..] {
                    assert_eq!(
                        bytes == other_bytes,
                        test == other,
                        "{list}: {test} vs {other}"
                    );
                }
            }
        }
        assert!(refused > 0, "some tours must not schedule");
        assert!(after_refusal > 0, "some tours must follow a refused one");
    }
}
