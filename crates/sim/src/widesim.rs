//! Packed fault simulation: **W × 64 scenario lanes per memory word**,
//! with W ∈ {2, 4, 8} picked at runtime from the scenario count.
//!
//! # Lane-packing layout
//!
//! The scalar engine ([`crate::engine`]) simulates one *scenario* at a
//! time: a concrete fault site × power-up pattern × sense-latch value,
//! re-executed for every `⇕` resolution vector. For a pair-fault model on
//! an 8-cell memory that is 56 sites × 8 patterns = 448 full March
//! executions per resolution, each touching one bit of state per cell.
//!
//! This module transposes that sweep. The memory is a vector of `[u64; W]`
//! **lane words**, one per cell address; lane `l` of word `a` (bit
//! `l % 64` of its `l / 64`-th `u64`) is the value cell `a` holds in
//! scenario lane `l`. All lanes share the same fault *model* but each
//! carries its own site placement, power-up pattern and sense-amplifier
//! latch value, so one March execution advances up to 512 scalar
//! scenarios at once. Site placement is precompiled into per-address
//! masks (single-cell lanes, aggressor lanes, and victim groups keyed by
//! aggressor address), so every faulty read/write is a handful of lane-
//! word AND/OR/XOR operations. Address order is shared control flow, not
//! per-lane data, so `⇕` resolution vectors stay an outer loop.
//!
//! Lanes are enumerated site-major, then power-up pattern, then latch
//! value — the scalar engine's scenario order. A lane is a few bits, not
//! a power-up image: its site, the background every other cell powers
//! up to, the values of the site's own cells, and the latch. A batch
//! writes those bits straight into the lane words, so a sweep allocates
//! nothing per lane, and the scalar engine's duplicate rule is kept by
//! construction: a site that spans every cell gets no background-1
//! patterns. The model's [`FaultBehavior`] is lowered once per sweep and
//! shared by every batch of it; lane counts and the shard plan are
//! arithmetic (patterns per site × latch values).
//!
//! Fault semantics are a generic interpretation of that rule table
//! with **no per-variant matches** (the `fault-layer-lint` CI job keeps
//! it that way). A site is **detected** only when every one of its lanes
//! mismatches under every resolution vector — the guaranteed-detection
//! rule of [`crate::engine::detects`], held bit-for-bit by the
//! differential suite. All lane-word operations are straight-line
//! per-word loops over fixed-size arrays, which the compiler
//! auto-vectorizes — std only, no nightly `portable_simd`.
//!
//! The width is chosen per sweep by [`width_for`]: ≤ 128 lanes run at
//! W = 2, ≤ 256 at W = 4, everything larger at W = 8 — so small
//! workloads don't drag padding words through the interpreter.
//!
//! # Sharded verification
//!
//! [`shard_plan`] cuts a multi-model verification sweep into
//! deterministic units — per fault model, contiguous site ranges sized
//! to at most one 512-lane block — that
//! [`WideSimVerifier`](crate::verify::WideSimVerifier) fans out across
//! worker threads. The plan depends only on the fault list and memory
//! size, never on the worker count, so the per-shard timing vector in
//! `Diagnostics` has a reproducible length and the merged report is
//! byte-identical at any parallelism.

use crate::coverage::{CoverageReport, ModelCoverage};
use crate::engine::{resolution_vectors, FaultSite};
use crate::memory::SiteCells;
use marchgen_faults::{
    lowering, FaultBehavior, FaultModel, ReadOutput, Role, StoreEffect, WriteEffect,
};
use marchgen_march::{Direction, MarchOp, MarchTest};
use marchgen_model::Bit;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// Target scenario lanes per verification shard: one full-width block.
const SHARD_LANES: usize = 64 * 8;

/// One scenario lane: what the scenario varies, and nothing more. Its
/// power-up image is `background` in every cell outside the site and
/// `site_bits` in the site's own cells; [`WideBatch::new`] packs it
/// straight into the lane words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    /// Index into the site list the sweep runs over.
    pub(crate) site_index: usize,
    /// Site placement (drives the address masks).
    pub(crate) cells: SiteCells,
    /// Power-up value of every cell outside the site.
    pub(crate) background: Bit,
    /// Power-up values of the site's cells: bit `k` is the `k`-th of
    /// [`SiteCells::addresses`] (the aggressor is bit 0).
    pub(crate) site_bits: u8,
    /// Sense-amplifier latch power-up value.
    pub(crate) latch: Bit,
}

/// Cells a site occupies: 1, or 2 for a pair.
fn site_width(cells: SiteCells) -> usize {
    match cells {
        SiteCells::Single(_) => 1,
        SiteCells::Pair { .. } => 2,
    }
}

/// The power-up backgrounds of a site of `width` cells on an `n`-cell
/// memory, in [`power_up_patterns`](crate::engine::power_up_patterns)
/// order. A site that spans every cell (a pair at n = 2, a single cell
/// at n = 1) has no background-1 group: its patterns would repeat the
/// background-0 ones.
fn backgrounds(width: usize, n: usize) -> &'static [Bit] {
    if width < n {
        &Bit::ALL
    } else {
        &Bit::ALL[..1]
    }
}

/// The latch power-up values a behaviour's scenarios take, as
/// [`latch_values`](crate::engine::latch_values) gives them: both when
/// it reads the latch, else 0.
fn latches(behavior: &FaultBehavior) -> &'static [Bit] {
    if behavior.uses_latch {
        &Bit::ALL
    } else {
        &Bit::ALL[..1]
    }
}

/// Scenario lanes per site of `model` on an `n`-cell memory: power-up
/// patterns × latch values, counted without materializing either.
fn site_lanes(model: FaultModel, n: usize) -> usize {
    let width = if model.is_pair_fault() { 2 } else { 1 };
    (backgrounds(width, n).len() << width) * latches(&lowering::behavior(model)).len()
}

/// Every scenario lane of a site sweep, in the scalar engine's
/// enumeration order: site-major, then power-up pattern (background,
/// then the site's cells counting up from all-0), then latch value.
pub(crate) fn lanes_for(sites: &[FaultSite], n: usize, behavior: &FaultBehavior) -> Vec<Lane> {
    let mut lanes = Vec::new();
    for (site_index, site) in sites.iter().enumerate() {
        let width = site_width(site.cells);
        for &background in backgrounds(width, n) {
            for site_bits in 0..1u8 << width {
                for &latch in latches(behavior) {
                    lanes.push(Lane {
                        site_index,
                        cells: site.cells,
                        background,
                        site_bits,
                        latch,
                    });
                }
            }
        }
    }
    lanes
}

/// A `W`-word block of scenario lanes: lane `l` is bit `l % 64` of word
/// `l / 64`. All operations are per-word loops over the fixed-size
/// array — the shape the compiler auto-vectorizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneWord<const W: usize>([u64; W]);

impl<const W: usize> LaneWord<W> {
    const ZERO: LaneWord<W> = LaneWord([0; W]);
    const ONES: LaneWord<W> = LaneWord([!0; W]);

    /// Broadcast of a scalar bit across all `W × 64` lanes.
    fn splat(bit: Bit) -> LaneWord<W> {
        match bit {
            Bit::Zero => Self::ZERO,
            Bit::One => Self::ONES,
        }
    }

    /// The mask with exactly the first `n` lanes set.
    fn first_n(n: usize) -> LaneWord<W> {
        let mut out = [0u64; W];
        for (k, word) in out.iter_mut().enumerate() {
            let lo = k * 64;
            *word = if n >= lo + 64 {
                !0
            } else if n > lo {
                (1u64 << (n - lo)) - 1
            } else {
                0
            };
        }
        LaneWord(out)
    }

    fn set(&mut self, lane: usize) {
        self.0[lane / 64] |= 1u64 << (lane % 64);
    }

    /// Sets or clears one lane.
    fn put(&mut self, lane: usize, bit: Bit) {
        let mask = 1u64 << (lane % 64);
        match bit {
            Bit::Zero => self.0[lane / 64] &= !mask,
            Bit::One => self.0[lane / 64] |= mask,
        }
    }

    fn get(self, lane: usize) -> bool {
        self.0[lane / 64] & (1u64 << (lane % 64)) != 0
    }

    fn is_zero(self) -> bool {
        let mut any = 0u64;
        for k in 0..W {
            any |= self.0[k];
        }
        any == 0
    }
}

impl<const W: usize> BitAnd for LaneWord<W> {
    type Output = LaneWord<W>;
    fn bitand(mut self, rhs: LaneWord<W>) -> LaneWord<W> {
        for k in 0..W {
            self.0[k] &= rhs.0[k];
        }
        self
    }
}

impl<const W: usize> BitOr for LaneWord<W> {
    type Output = LaneWord<W>;
    fn bitor(mut self, rhs: LaneWord<W>) -> LaneWord<W> {
        for k in 0..W {
            self.0[k] |= rhs.0[k];
        }
        self
    }
}

impl<const W: usize> BitXor for LaneWord<W> {
    type Output = LaneWord<W>;
    fn bitxor(mut self, rhs: LaneWord<W>) -> LaneWord<W> {
        for k in 0..W {
            self.0[k] ^= rhs.0[k];
        }
        self
    }
}

impl<const W: usize> Not for LaneWord<W> {
    type Output = LaneWord<W>;
    fn not(mut self) -> LaneWord<W> {
        for k in 0..W {
            self.0[k] = !self.0[k];
        }
        self
    }
}

impl<const W: usize> BitAndAssign for LaneWord<W> {
    fn bitand_assign(&mut self, rhs: LaneWord<W>) {
        *self = *self & rhs;
    }
}

impl<const W: usize> BitOrAssign for LaneWord<W> {
    fn bitor_assign(&mut self, rhs: LaneWord<W>) {
        *self = *self | rhs;
    }
}

impl<const W: usize> BitXorAssign for LaneWord<W> {
    fn bitxor_assign(&mut self, rhs: LaneWord<W>) {
        *self = *self ^ rhs;
    }
}

/// The packed power-up image of `lanes` (at most `W × 64`) on an
/// `n`-cell memory, before any fault acts on it: one lane word per
/// address, and the latch word.
fn power_up_words<const W: usize>(lanes: &[Lane], n: usize) -> (Vec<LaneWord<W>>, LaneWord<W>) {
    let mut background = LaneWord::<W>::ZERO;
    let mut latch = LaneWord::<W>::ZERO;
    for (l, lane) in lanes.iter().enumerate() {
        background.put(l, lane.background);
        latch.put(l, lane.latch);
    }
    let mut words = vec![background; n];
    for (l, lane) in lanes.iter().enumerate() {
        let bit = |k: u8| Bit::from((lane.site_bits >> k) & 1 != 0);
        match lane.cells {
            SiteCells::Single(c) => words[c].put(l, bit(0)),
            SiteCells::Pair { aggressor, victim } => {
                words[aggressor].put(l, bit(0));
                words[victim].put(l, bit(1));
            }
        }
    }
    (words, latch)
}

/// A packed batch of up to `W × 64` scenario lanes sharing one fault
/// model. Like the scalar `FaultyMemory`, the batch is a generic
/// interpreter over the model's [`FaultBehavior`] rule table: fault
/// semantics are lane-word formulas derived from the rules, with no
/// per-variant matches.
struct WideBatch<'b, const W: usize> {
    n: usize,
    /// The model's rule table, lowered once per sweep.
    behavior: &'b FaultBehavior,
    /// Post-power-up packed contents, restored on every [`Self::reset`].
    init: Vec<LaneWord<W>>,
    latch_init: LaneWord<W>,
    /// Per address: lanes whose single-cell site is that address.
    single_mask: Vec<LaneWord<W>>,
    /// Per address: lanes whose aggressor is that address.
    aggr_mask: Vec<LaneWord<W>>,
    /// Per aggressor address: victim addresses with their lane masks.
    victims_of: Vec<Vec<(usize, LaneWord<W>)>>,
    /// Distinct (aggressor address, lane mask) groups — CFst condition.
    aggr_groups: Vec<(usize, LaneWord<W>)>,
    /// Distinct (victim address, lane mask) groups — CFst assignment.
    vict_groups: Vec<(usize, LaneWord<W>)>,
    // Execution state.
    cells: Vec<LaneWord<W>>,
    latch: LaneWord<W>,
    /// Operation history for dynamic faults: the immediately preceding
    /// operation, when it was a write (address, value). Shared control
    /// flow — every lane sees the same op stream, so one scalar slot
    /// serves all lanes.
    last_write: Option<(usize, Bit)>,
    mismatch: LaneWord<W>,
}

impl<'b, const W: usize> WideBatch<'b, W> {
    /// Packs `lanes` (at most `W × 64`) of the model whose rule table is
    /// `behavior` into one batch.
    fn new(behavior: &'b FaultBehavior, n: usize, lanes: &[Lane]) -> WideBatch<'b, W> {
        assert!(lanes.len() <= 64 * W, "a batch holds at most 64·W lanes");
        let mut single_mask = vec![LaneWord::<W>::ZERO; n];
        let mut aggr_mask = vec![LaneWord::<W>::ZERO; n];
        let mut victims_of: Vec<Vec<(usize, LaneWord<W>)>> = vec![Vec::new(); n];
        let (init, latch_init) = power_up_words::<W>(lanes, n);
        for (l, lane) in lanes.iter().enumerate() {
            match lane.cells {
                SiteCells::Single(c) => single_mask[c].set(l),
                SiteCells::Pair { aggressor, victim } => {
                    aggr_mask[aggressor].set(l);
                    match victims_of[aggressor].iter_mut().find(|(v, _)| *v == victim) {
                        Some((_, mask)) => mask.set(l),
                        None => {
                            let mut mask = LaneWord::<W>::ZERO;
                            mask.set(l);
                            victims_of[aggressor].push((victim, mask));
                        }
                    }
                }
            }
        }
        let aggr_groups: Vec<(usize, LaneWord<W>)> = aggr_mask
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_zero())
            .map(|(a, &m)| (a, m))
            .collect();
        let mut vict_groups: Vec<(usize, LaneWord<W>)> = Vec::new();
        for groups in &victims_of {
            for &(v, m) in groups {
                match vict_groups.iter_mut().find(|(addr, _)| *addr == v) {
                    Some((_, mask)) => *mask |= m,
                    None => vict_groups.push((v, m)),
                }
            }
        }
        let mut batch = WideBatch {
            n,
            behavior,
            init,
            latch_init,
            single_mask,
            aggr_mask,
            victims_of,
            aggr_groups,
            vict_groups,
            cells: vec![LaneWord::<W>::ZERO; n],
            latch: LaneWord::<W>::ZERO,
            last_write: None,
            mismatch: LaneWord::<W>::ZERO,
        };
        // Apply power-up consequences once, into the restorable image
        // (mirrors `FaultyMemory::power_up`).
        batch.cells.copy_from_slice(&batch.init);
        if let Some(v) = batch.behavior.powerup_force {
            let vb = LaneWord::<W>::splat(v);
            for addr in 0..n {
                let sm = batch.single_mask[addr];
                batch.cells[addr] = (batch.cells[addr] & !sm) | (vb & sm);
            }
        }
        batch.apply_invariant();
        batch.init.copy_from_slice(&batch.cells);
        batch
    }

    /// Restores the power-up state for a fresh scenario execution.
    fn reset(&mut self) {
        self.cells.copy_from_slice(&self.init);
        self.latch = self.latch_init;
        self.last_write = None;
        self.mismatch = LaneWord::<W>::ZERO;
    }

    /// State coupling is a *condition*, not an event (see
    /// `FaultyMemory`): enforce the behaviour's invariant after every
    /// operation, lane-wise.
    fn apply_invariant(&mut self) {
        if let Some(inv) = self.behavior.invariant {
            let mut cond = LaneWord::<W>::ZERO;
            for &(a, m) in &self.aggr_groups {
                let held = if inv.when == Bit::One {
                    self.cells[a]
                } else {
                    !self.cells[a]
                };
                cond |= held & m;
            }
            for &(v, m) in &self.vict_groups {
                let active = cond & m;
                self.cells[v] = if inv.force == Bit::One {
                    self.cells[v] | active
                } else {
                    self.cells[v] & !active
                };
            }
        }
    }

    /// Lanes at which `role` resolves to `addr`.
    fn role_mask(&self, role: Role, addr: usize) -> LaneWord<W> {
        match role {
            Role::Single => self.single_mask[addr],
            Role::Aggressor => self.aggr_mask[addr],
        }
    }

    /// Lanes whose word `w` matches an optional bit trigger.
    fn value_held(w: LaneWord<W>, trigger: Option<Bit>) -> LaneWord<W> {
        match trigger {
            None => LaneWord::<W>::ONES,
            Some(Bit::One) => w,
            Some(Bit::Zero) => !w,
        }
    }

    /// Lane-parallel `write(addr, value)`: a generic interpretation of
    /// the behaviour's write rules (same two-pass order as
    /// `FaultyMemory::write`).
    fn write(&mut self, addr: usize, value: Bit) {
        let vb = LaneWord::<W>::splat(value);
        let cur = self.cells[addr];
        // Pass 1: rules on the written cell itself (block / force).
        let mut blocked = LaneWord::<W>::ZERO;
        let mut force_mask = LaneWord::<W>::ZERO;
        let mut force_val = LaneWord::<W>::ZERO;
        for ri in 0..self.behavior.write_rules.len() {
            let rule = self.behavior.write_rules[ri];
            if rule.value.is_some_and(|v| v != value) {
                continue;
            }
            let armed = self.role_mask(rule.at, addr) & Self::value_held(cur, rule.pre);
            match rule.effect {
                WriteEffect::Block => blocked |= armed,
                WriteEffect::Force(v) => {
                    force_mask |= armed;
                    if v == Bit::One {
                        force_val |= armed;
                    } else {
                        force_val &= !armed;
                    }
                }
                WriteEffect::CopyToVictim
                | WriteEffect::FlipVictim
                | WriteEffect::ForceVictim(_) => {}
            }
        }
        self.cells[addr] =
            (cur & blocked) | (force_val & force_mask & !blocked) | (vb & !blocked & !force_mask);
        // Pass 2: coupled-victim effects, armed on the pre-write content.
        for ri in 0..self.behavior.write_rules.len() {
            let rule = self.behavior.write_rules[ri];
            if rule.value.is_some_and(|v| v != value) {
                continue;
            }
            let armed = self.role_mask(rule.at, addr) & Self::value_held(cur, rule.pre);
            if armed.is_zero() {
                continue;
            }
            match rule.effect {
                WriteEffect::CopyToVictim => {
                    for k in 0..self.victims_of[addr].len() {
                        let (v, m) = self.victims_of[addr][k];
                        let hit = m & armed;
                        self.cells[v] = (self.cells[v] & !hit) | (vb & hit);
                    }
                }
                WriteEffect::FlipVictim => {
                    for k in 0..self.victims_of[addr].len() {
                        let (v, m) = self.victims_of[addr][k];
                        self.cells[v] ^= m & armed;
                    }
                }
                WriteEffect::ForceVictim(f) => {
                    for k in 0..self.victims_of[addr].len() {
                        let (v, m) = self.victims_of[addr][k];
                        let forced = m & armed;
                        self.cells[v] = if f == Bit::One {
                            self.cells[v] | forced
                        } else {
                            self.cells[v] & !forced
                        };
                    }
                }
                WriteEffect::Block | WriteEffect::Force(_) => {}
            }
        }
        self.last_write = Some((addr, value));
        self.apply_invariant();
    }

    /// Lane-parallel `read(addr)`: a generic interpretation of the
    /// behaviour's read rules (first armed rule wins per lane),
    /// returning the per-lane device outputs.
    fn read(&mut self, addr: usize) -> LaneWord<W> {
        let cur = self.cells[addr];
        let mut out = cur;
        let mut taken = LaneWord::<W>::ZERO;
        for ri in 0..self.behavior.read_rules.len() {
            let rule = self.behavior.read_rules[ri];
            let dyn_ok = match rule.after_write {
                None => LaneWord::<W>::ONES,
                Some(x) if self.last_write == Some((addr, x)) => LaneWord::<W>::ONES,
                Some(_) => LaneWord::<W>::ZERO,
            };
            let m =
                self.role_mask(rule.at, addr) & Self::value_held(cur, rule.holds) & dyn_ok & !taken;
            if m.is_zero() {
                continue;
            }
            taken |= m;
            match rule.output {
                ReadOutput::Stored => {}
                ReadOutput::Complement => out = (out & !m) | (!cur & m),
                ReadOutput::Latch => out = (out & !m) | (self.latch & m),
                ReadOutput::Victim => {
                    out &= !m;
                    for k in 0..self.victims_of[addr].len() {
                        let (v, vm) = self.victims_of[addr][k];
                        out |= self.cells[v] & vm & m;
                    }
                }
            }
            if rule.store == StoreEffect::Flip {
                self.cells[addr] ^= m;
            }
        }
        self.last_write = None;
        self.latch = out;
        self.apply_invariant();
        out
    }

    /// Lane-parallel wait period (mirrors `FaultyMemory::delay`).
    fn delay(&mut self) {
        if let Some(x) = self.behavior.delay_flip {
            for addr in 0..self.n {
                let sm = self.single_mask[addr];
                if sm.is_zero() {
                    continue;
                }
                let cur = self.cells[addr];
                let holds_x = if x == Bit::One { cur } else { !cur };
                self.cells[addr] = cur ^ (sm & holds_x);
            }
        }
        self.last_write = None;
        self.apply_invariant();
    }

    /// Executes `test` once across all lanes under one `⇕` resolution
    /// vector, returning the lanes that produced at least one
    /// mismatching read. Control flow mirrors [`crate::engine::run`].
    fn run(&mut self, test: &MarchTest, resolution: &[Direction]) -> LaneWord<W> {
        self.reset();
        let mut res_iter = resolution.iter();
        for element in test.elements() {
            let dir = match element.direction {
                Direction::Any => *res_iter.next().expect("a resolution per ⇕ element"),
                d => d,
            };
            if element.ops.len() == 1 && element.ops[0] == MarchOp::Delay {
                self.delay();
                continue;
            }
            match dir {
                Direction::Down => {
                    for addr in (0..self.n).rev() {
                        self.visit(addr, &element.ops);
                    }
                }
                _ => {
                    for addr in 0..self.n {
                        self.visit(addr, &element.ops);
                    }
                }
            }
        }
        self.mismatch
    }

    fn visit(&mut self, addr: usize, ops: &[MarchOp]) {
        for &op in ops {
            match op {
                MarchOp::Write(d) => self.write(addr, d),
                MarchOp::Delay => self.delay(),
                MarchOp::Read(expected) => {
                    let got = self.read(addr);
                    self.mismatch |= got ^ LaneWord::<W>::splat(expected);
                }
            }
        }
    }
}

/// Runs the packed sweep at a fixed width, returning per-site detection
/// verdicts (in [`FaultSite::enumerate`] order). With `early_exit`, the
/// sweep stops at the first undetected scenario — only the boolean
/// "every site detected" remains meaningful then.
fn sweep_lanes<const W: usize>(
    test: &MarchTest,
    behavior: &FaultBehavior,
    n: usize,
    site_count: usize,
    lanes: &[Lane],
    early_exit: bool,
) -> Vec<bool> {
    let resolutions = resolution_vectors(test);
    let mut detected = vec![true; site_count];
    for chunk in lanes.chunks(64 * W) {
        let full = LaneWord::<W>::first_n(chunk.len());
        let mut batch = WideBatch::<W>::new(behavior, n, chunk);
        let mut all = full;
        for resolution in &resolutions {
            all &= batch.run(test, resolution);
            // Some lane already has a clean scenario: its site can never
            // reach guaranteed detection.
            if early_exit && all != full {
                for (l, lane) in chunk.iter().enumerate() {
                    if !all.get(l) {
                        detected[lane.site_index] = false;
                    }
                }
                return detected;
            }
        }
        for (l, lane) in chunk.iter().enumerate() {
            if !all.get(l) {
                detected[lane.site_index] = false;
            }
        }
    }
    detected
}

/// The runtime-selected lane-block width for a sweep of `lanes`
/// scenarios: W = 2 up to 128 lanes, W = 4 up to 256, W = 8 beyond —
/// the smallest supported width whose single block fits the workload,
/// so narrow sweeps don't pay for padding words.
#[must_use]
pub fn width_for(lanes: usize) -> usize {
    if lanes <= 128 {
        2
    } else if lanes <= 256 {
        4
    } else {
        8
    }
}

/// Auto-width sweep over an explicit site list (no early exit) — the
/// work unit of one verification shard. Verdicts are in `sites` order
/// and independent of the chosen width.
#[must_use]
pub fn site_verdicts(
    test: &MarchTest,
    model: FaultModel,
    n: usize,
    sites: &[FaultSite],
) -> Vec<bool> {
    sweep(test, model, n, sites, false)
}

fn sweep(
    test: &MarchTest,
    model: FaultModel,
    n: usize,
    sites: &[FaultSite],
    early_exit: bool,
) -> Vec<bool> {
    let behavior = lowering::behavior(model);
    let lanes = lanes_for(sites, n, &behavior);
    let count = sites.len();
    match width_for(lanes.len()) {
        2 => sweep_lanes::<2>(test, &behavior, n, count, &lanes, early_exit),
        4 => sweep_lanes::<4>(test, &behavior, n, count, &lanes, early_exit),
        _ => sweep_lanes::<8>(test, &behavior, n, count, &lanes, early_exit),
    }
}

/// Packed equivalent of [`crate::coverage::model_coverage`], at the
/// auto-selected width.
#[must_use]
pub fn model_coverage(test: &MarchTest, model: FaultModel, n: usize) -> ModelCoverage {
    let sites = FaultSite::enumerate(model, n);
    let detected = sweep(test, model, n, &sites, false);
    coverage_from_verdicts(model, &sites, &detected)
}

/// [`model_coverage`] pinned to a specific width `W` — the differential
/// suite runs the full matrix at every supported width, so lane-packing
/// bugs cannot hide behind the auto selection.
#[must_use]
pub fn model_coverage_w<const W: usize>(
    test: &MarchTest,
    model: FaultModel,
    n: usize,
) -> ModelCoverage {
    let sites = FaultSite::enumerate(model, n);
    let behavior = lowering::behavior(model);
    let lanes = lanes_for(&sites, n, &behavior);
    let detected = sweep_lanes::<W>(test, &behavior, n, sites.len(), &lanes, false);
    coverage_from_verdicts(model, &sites, &detected)
}

/// Assembles a [`ModelCoverage`] from per-site verdicts in enumeration
/// order — the merge step shared by the inline and sharded sweeps.
#[must_use]
pub fn coverage_from_verdicts(
    model: FaultModel,
    sites: &[FaultSite],
    detected: &[bool],
) -> ModelCoverage {
    let escapes: Vec<FaultSite> = sites
        .iter()
        .zip(detected)
        .filter(|&(_, &ok)| !ok)
        .map(|(&site, _)| site)
        .collect();
    ModelCoverage {
        model,
        total_sites: sites.len(),
        detected_sites: sites.len() - escapes.len(),
        escapes,
    }
}

/// Packed equivalent of [`crate::coverage::coverage_report`].
#[must_use]
pub fn coverage_report(test: &MarchTest, models: &[FaultModel], n: usize) -> CoverageReport {
    CoverageReport {
        models: models.iter().map(|&m| model_coverage(test, m, n)).collect(),
        memory_size: n,
    }
}

/// [`coverage_report`] pinned to width `W` (see [`model_coverage_w`]).
#[must_use]
pub fn coverage_report_w<const W: usize>(
    test: &MarchTest,
    models: &[FaultModel],
    n: usize,
) -> CoverageReport {
    CoverageReport {
        models: models
            .iter()
            .map(|&m| model_coverage_w::<W>(test, m, n))
            .collect(),
        memory_size: n,
    }
}

/// Packed equivalent of [`crate::coverage::covers_all`], with early
/// exit on the first escaped scenario — the fast path for compaction,
/// where most deletion candidates lose coverage quickly.
#[must_use]
pub fn covers_all(test: &MarchTest, models: &[FaultModel], n: usize) -> bool {
    covers_all_sites(test, &enumerate_sites(models, n), n)
}

/// Per-model site lists enumerated once, for repeated coverage queries
/// over varying tests (the compaction deletion loop) — the same hoist
/// the scalar path applies in [`crate::redundancy`].
#[must_use]
pub fn enumerate_sites(models: &[FaultModel], n: usize) -> Vec<(FaultModel, Vec<FaultSite>)> {
    models
        .iter()
        .map(|&m| (m, FaultSite::enumerate(m, n)))
        .collect()
}

/// [`covers_all`] over pre-enumerated site lists (see
/// [`enumerate_sites`]). A model with no site on `n` cells is not
/// covered, as in [`ModelCoverage::complete`].
#[must_use]
pub fn covers_all_sites(
    test: &MarchTest,
    site_lists: &[(FaultModel, Vec<FaultSite>)],
    n: usize,
) -> bool {
    site_lists.iter().all(|(model, sites)| {
        !sites.is_empty() && sweep(test, *model, n, sites, true).iter().all(|&ok| ok)
    })
}

/// Per-resolution, per-lane mismatch verdicts at width `W`: `out[r][l]`
/// is `true` when lane `l` (in scenario enumeration order) produced at
/// least one mismatching read under resolution vector `r`.
///
/// This is the finest observable the packed engine has — the
/// differential suite compares it bit-for-bit with
/// [`crate::engine::lane_mismatches`] at every width, so a disagreement
/// on a *single* scenario lane fails the build even when the aggregated
/// site verdicts happen to coincide.
#[must_use]
pub fn lane_mismatches_w<const W: usize>(
    test: &MarchTest,
    model: FaultModel,
    n: usize,
) -> Vec<Vec<bool>> {
    let sites = FaultSite::enumerate(model, n);
    let behavior = lowering::behavior(model);
    let lanes = lanes_for(&sites, n, &behavior);
    let resolutions = resolution_vectors(test);
    let mut out = vec![vec![false; lanes.len()]; resolutions.len()];
    let mut base = 0usize;
    for chunk in lanes.chunks(64 * W) {
        let mut batch = WideBatch::<W>::new(&behavior, n, chunk);
        for (ri, resolution) in resolutions.iter().enumerate() {
            let mismatch = batch.run(test, resolution);
            for l in 0..chunk.len() {
                out[ri][base + l] = mismatch.get(l);
            }
        }
        base += chunk.len();
    }
    out
}

/// Scenario lanes one instance sweep of `model` enumerates on an
/// `n`-cell memory: sites × power-up patterns × latch values, where
/// every site of a model has the same patterns-per-site count, so the
/// lanes are counted without materializing them or a single pattern.
#[must_use]
pub fn model_lanes(model: FaultModel, n: usize) -> usize {
    FaultSite::enumerate(model, n).len() * site_lanes(model, n)
}

/// The largest per-model scenario lane count across `models` — the
/// widest single sweep a verification of the list runs (see
/// [`width_for`]).
#[must_use]
pub fn max_model_lanes(models: &[FaultModel], n: usize) -> usize {
    models.iter().map(|&m| model_lanes(m, n)).max().unwrap_or(0)
}

/// One unit of parallel verification work: a contiguous site range of
/// one fault model, sized by [`shard_plan`] to at most one full-width
/// lane block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyShard {
    /// Index into the fault list the plan was built over.
    pub model_index: usize,
    /// Range into that model's [`FaultSite::enumerate`] site list.
    pub sites: std::ops::Range<usize>,
}

/// The deterministic shard plan for a verification sweep over `models`
/// on an `n`-cell memory: per model, contiguous site ranges whose lane
/// counts stay within one 512-lane block. The plan depends only on the
/// fault list and the memory size — never on the worker count — so the
/// per-shard timing vector recorded in `Diagnostics` has a reproducible
/// length, and concatenating shard verdicts in plan order reproduces
/// the unsharded sweep exactly.
#[must_use]
pub fn shard_plan(models: &[FaultModel], n: usize) -> Vec<VerifyShard> {
    plan_shards(&enumerate_sites(models, n), n)
}

/// [`shard_plan`] over pre-enumerated site lists (see
/// [`enumerate_sites`]). Every site of a model has the same lane count,
/// so each shard takes as many sites as fit one block (at least one),
/// and a model with no sites still gets one empty shard.
pub(crate) fn plan_shards(
    site_lists: &[(FaultModel, Vec<FaultSite>)],
    n: usize,
) -> Vec<VerifyShard> {
    let mut plan = Vec::new();
    for (model_index, (model, sites)) in site_lists.iter().enumerate() {
        let per_shard = (SHARD_LANES / site_lanes(*model, n)).max(1);
        let mut lo = 0;
        loop {
            let hi = (lo + per_shard).min(sites.len());
            plan.push(VerifyShard {
                model_index,
                sites: lo..hi,
            });
            lo = hi;
            if lo == sites.len() {
                break;
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage;
    use crate::engine::{latch_values, power_up_patterns};
    use marchgen_faults::parse_fault_list;
    use marchgen_march::known;
    use marchgen_testkit::run_cases;

    #[test]
    fn lane_word_mask_primitives() {
        assert_eq!(LaneWord::<2>::splat(Bit::Zero), LaneWord::<2>::ZERO);
        assert_eq!(LaneWord::<2>::splat(Bit::One), LaneWord::<2>::ONES);
        assert_eq!(LaneWord::<2>::first_n(128), LaneWord::<2>::ONES);
        assert_eq!(LaneWord::<4>::first_n(0), LaneWord::<4>::ZERO);
        let m = LaneWord::<2>::first_n(70);
        assert_eq!(m.0, [!0u64, (1 << 6) - 1]);
        for lane in [0usize, 63, 64, 69] {
            assert!(m.get(lane));
        }
        for lane in [70usize, 127] {
            assert!(!m.get(lane));
        }
        let mut set = LaneWord::<8>::ZERO;
        set.set(300);
        assert!(set.get(300));
        set.put(301, Bit::One);
        set.put(300, Bit::Zero);
        assert!(!set.get(300) && set.get(301));
        assert!(!(set & !set).get(300));
        assert!((set | !set) == LaneWord::<8>::ONES);
    }

    #[test]
    fn width_selection_by_lane_count() {
        assert_eq!(width_for(1), 2);
        assert_eq!(width_for(128), 2);
        assert_eq!(width_for(129), 4);
        assert_eq!(width_for(256), 4);
        assert_eq!(width_for(257), 8);
        assert_eq!(width_for(448), 8);
    }

    /// The scalar engine's scenarios of a site sweep, in its order:
    /// (site index, power-up pattern, latch value).
    fn scalar_scenarios(sites: &[FaultSite], n: usize) -> Vec<(usize, Vec<Bit>, Bit)> {
        let mut out = Vec::new();
        for (site_index, site) in sites.iter().enumerate() {
            for pattern in power_up_patterns(site, n) {
                for &latch in latch_values(site) {
                    out.push((site_index, pattern.clone(), latch));
                }
            }
        }
        out
    }

    /// Lane `k` is the `k`-th scalar scenario: same site, the same
    /// power-up image read back from the packed words cell by cell, and
    /// the same latch — including where a site spans every cell and its
    /// background-1 patterns are duplicates (n = 1, and pairs at n = 2).
    #[test]
    fn lane_enumeration_matches_scalar_scenario_order() {
        for n in [1usize, 2, 3, 4, 8] {
            for model in FaultModel::all_extended() {
                let sites = FaultSite::enumerate(model, n);
                let lanes = lanes_for(&sites, n, &lowering::behavior(model));
                let scenarios = scalar_scenarios(&sites, n);
                assert_eq!(lanes.len(), scenarios.len(), "{model} at n={n}");
                for (chunk, expected) in lanes.chunks(512).zip(scenarios.chunks(512)) {
                    let (words, latch) = power_up_words::<8>(chunk, n);
                    for (l, (lane, (site_index, pattern, latch_value))) in
                        chunk.iter().zip(expected).enumerate()
                    {
                        let image: Vec<Bit> = words.iter().map(|w| Bit::from(w.get(l))).collect();
                        assert_eq!(lane.site_index, *site_index, "{model} at n={n}, lane {l}");
                        assert_eq!(lane.cells, sites[*site_index].cells, "{model} at n={n}");
                        assert_eq!(&image, pattern, "{model} at n={n}, lane {l}");
                        assert_eq!(
                            Bit::from(latch.get(l)),
                            *latch_value,
                            "{model} at n={n}, lane {l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matches_scalar_on_classical_claims() {
        let n = 4;
        for (list, test) in [
            ("SAF, TF", known::mats_plus_plus()),
            ("SAF, TF, ADF, CFin, CFid, CFst", known::march_c_minus()),
            ("SAF, TF, SOF, CFin, DRF", known::march_g()),
            ("RDF, DRDF, IRF", known::march_ss()),
        ] {
            let models = parse_fault_list(list).unwrap();
            let scalar = coverage::coverage_report(&test, &models, n);
            assert_eq!(coverage_report(&test, &models, n), scalar, "{list}");
            assert!(covers_all(&test, &models, n));
        }
    }

    #[test]
    fn matches_scalar_on_gaps_including_escape_lists() {
        let n = 4;
        for (list, test) in [
            ("TF", known::mats()),
            ("CFid", known::march_x()),
            ("SOF", known::march_c_minus()),
            ("DRF", known::march_c_minus()),
        ] {
            let models = parse_fault_list(list).unwrap();
            let scalar = coverage::coverage_report(&test, &models, n);
            let packed = coverage_report(&test, &models, n);
            assert_eq!(packed, scalar, "{list}");
            assert!(!packed.complete());
            assert!(!covers_all(&test, &models, n));
        }
    }

    #[test]
    fn multi_block_sweep_matches_narrow_widths() {
        // n = 8 pair faults: 56 sites × 8 patterns = 448 lanes — one
        // W = 8 block, two W = 4 blocks, four W = 2 blocks.
        let n = 8;
        let models = parse_fault_list("CFin<u>").unwrap();
        let test = known::march_c_minus();
        let scalar = coverage::coverage_report(&test, &models, n);
        assert_eq!(coverage_report_w::<2>(&test, &models, n), scalar);
        assert_eq!(coverage_report_w::<4>(&test, &models, n), scalar);
        assert_eq!(coverage_report_w::<8>(&test, &models, n), scalar);
        assert_eq!(coverage_report(&test, &models, n), scalar);
    }

    /// Lane-packing invariant: every scenario lane lands in exactly one
    /// role mask — per address, single/aggressor masks partition the
    /// packed lanes, and victim groups tile their aggressor's mask.
    #[test]
    fn lane_packing_masks_partition_scenarios() {
        let catalog = FaultModel::all_extended();
        run_cases("lane-packing partition", 32, |rng| {
            let n = rng.range(2, 7);
            let model = *rng.pick(&catalog);
            let sites = FaultSite::enumerate(model, n);
            // A random contiguous site group, as the shard planner cuts.
            let lo = rng.range(0, sites.len());
            let hi = rng.range(lo + 1, sites.len() + 1);
            let behavior = lowering::behavior(model);
            let lanes = lanes_for(&sites[lo..hi], n, &behavior);
            let batch = WideBatch::<4>::new(&behavior, n, &lanes);
            let full = LaneWord::<4>::first_n(lanes.len());
            let mut union = LaneWord::<4>::ZERO;
            for addr in 0..n {
                for other in 0..n {
                    if other != addr {
                        assert!(
                            (batch.single_mask[addr] & batch.single_mask[other]).is_zero(),
                            "single masks overlap at {addr}/{other}"
                        );
                        assert!(
                            (batch.aggr_mask[addr] & batch.aggr_mask[other]).is_zero(),
                            "aggressor masks overlap at {addr}/{other}"
                        );
                    }
                }
                assert!(
                    (batch.single_mask[addr] & batch.aggr_mask[addr]).is_zero(),
                    "a lane is both single and aggressor at {addr}"
                );
                union |= batch.single_mask[addr] | batch.aggr_mask[addr];
                // Victim groups tile the aggressor mask exactly.
                let mut victims = LaneWord::<4>::ZERO;
                for (k, &(_, m)) in batch.victims_of[addr].iter().enumerate() {
                    for &(_, other) in &batch.victims_of[addr][..k] {
                        assert!((m & other).is_zero(), "victim groups overlap at {addr}");
                    }
                    victims |= m;
                }
                if !batch.aggr_mask[addr].is_zero() {
                    assert_eq!(
                        victims, batch.aggr_mask[addr],
                        "victims ≠ aggressors at {addr}"
                    );
                } else {
                    assert!(victims.is_zero());
                }
            }
            assert_eq!(
                union, full,
                "every scenario in exactly one lane, no padding"
            );
        });
    }

    /// Padding lanes are inert: running a consistent test over a
    /// partially filled block never raises a mismatch above the packed
    /// lane count.
    #[test]
    fn padding_lanes_stay_inert() {
        let catalog = FaultModel::all_extended();
        run_cases("padding lanes inert", 24, |rng| {
            let n = rng.range(2, 6);
            let model = *rng.pick(&catalog);
            let sites = FaultSite::enumerate(model, n);
            let take = rng.range(1, sites.len() + 1);
            let behavior = lowering::behavior(model);
            let lanes = lanes_for(&sites[..take], n, &behavior);
            let full = LaneWord::<8>::first_n(lanes.len());
            let mut batch = WideBatch::<8>::new(&behavior, n, &lanes);
            let test = known::march_c_minus();
            for resolution in resolution_vectors(&test) {
                let mismatch = batch.run(&test, &resolution);
                assert!(
                    (mismatch & !full).is_zero(),
                    "padding lanes mismatched for {model} at n={n}"
                );
            }
        });
    }

    /// The shard plan covers every site of every model exactly once, in
    /// order, independent of anything but the fault list and memory
    /// size.
    #[test]
    fn shard_plan_partitions_every_model() {
        for (list, n) in [
            ("SAF, TF", 4usize),
            ("CFin, CFid, CFst", 8),
            ("SAF, CFin", 12),
        ] {
            let models = parse_fault_list(list).unwrap();
            let plan = shard_plan(&models, n);
            for (model_index, &model) in models.iter().enumerate() {
                let sites = FaultSite::enumerate(model, n);
                let ranges: Vec<_> = plan
                    .iter()
                    .filter(|s| s.model_index == model_index)
                    .collect();
                assert!(!ranges.is_empty(), "{list}: model {model} unplanned");
                assert_eq!(ranges[0].sites.start, 0);
                assert_eq!(ranges.last().unwrap().sites.end, sites.len());
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].sites.end, pair[1].sites.start, "contiguous");
                }
                for shard in &ranges {
                    let lanes: usize = sites[shard.sites.clone()]
                        .iter()
                        .map(|s| power_up_patterns(s, n).len() * latch_values(s).len())
                        .sum();
                    assert!(lanes <= SHARD_LANES, "{list}: shard over capacity");
                }
            }
            // Sharded verdicts concatenated in plan order ≡ unsharded.
            let test = known::march_c_minus();
            for (model_index, &model) in models.iter().enumerate() {
                let sites = FaultSite::enumerate(model, n);
                let whole = site_verdicts(&test, model, n, &sites);
                let mut stitched = Vec::new();
                for shard in plan.iter().filter(|s| s.model_index == model_index) {
                    stitched.extend(site_verdicts(&test, model, n, &sites[shard.sites.clone()]));
                }
                assert_eq!(stitched, whole, "{list} × {model} at n={n}");
            }
        }
    }

    /// The arithmetic lane counts against the scalar materialization:
    /// `model_lanes` is the number of scalar scenarios, and `shard_plan`
    /// is the greedy cut of the scalar per-site counts into blocks (n = 12
    /// adds models that take several shards).
    #[test]
    fn lane_counts_match_materialized_enumeration() {
        for n in [1usize, 2, 3, 4, 8, 12] {
            for model in FaultModel::all_extended() {
                let sites = FaultSite::enumerate(model, n);
                let per_site: Vec<usize> = sites
                    .iter()
                    .map(|s| power_up_patterns(s, n).len() * latch_values(s).len())
                    .collect();
                assert_eq!(
                    model_lanes(model, n),
                    per_site.iter().sum::<usize>(),
                    "{model} at n={n}"
                );
                let mut expected = Vec::new();
                let (mut lo, mut lanes) = (0, 0);
                for (k, &count) in per_site.iter().enumerate() {
                    if lanes + count > SHARD_LANES && lanes > 0 {
                        expected.push(VerifyShard {
                            model_index: 0,
                            sites: lo..k,
                        });
                        (lo, lanes) = (k, 0);
                    }
                    lanes += count;
                }
                expected.push(VerifyShard {
                    model_index: 0,
                    sites: lo..sites.len(),
                });
                assert_eq!(shard_plan(&[model], n), expected, "{model} at n={n}");
            }
        }
    }
}
