//! March test execution and guaranteed-detection analysis.
//!
//! A March test *detects* a fault instance when **every** execution
//! scenario produces at least one mismatching read. Scenarios range over:
//!
//! * the concrete power-up pattern (backgrounds of all-0 and all-1,
//!   crossed with every combination of the fault site's own cells — the
//!   initial memory content is unknown to a real test), and
//! * the address-order resolution of every `⇕` element (an implementation
//!   may sweep either way; coverage must not depend on the choice), and
//! * the power-up value of the stuck-open sense-amplifier latch.

use crate::memory::{FaultyMemory, MemoryBehavior, SiteCells};
use marchgen_faults::FaultModel;
use marchgen_march::{Direction, MarchOp, MarchTest};
use marchgen_model::Bit;

/// A concrete fault instance: a model at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSite {
    /// The fault model.
    pub model: FaultModel,
    /// Where it sits.
    pub cells: SiteCells,
}

impl FaultSite {
    /// Every instance of `model` in an `n`-cell memory: `n` sites for
    /// single-cell models, `n·(n−1)` ordered pairs for coupling models.
    #[must_use]
    pub fn enumerate(model: FaultModel, n: usize) -> Vec<FaultSite> {
        let mut sites = Vec::new();
        if model.is_pair_fault() {
            for a in 0..n {
                for v in 0..n {
                    if a != v {
                        sites.push(FaultSite {
                            model,
                            cells: SiteCells::Pair {
                                aggressor: a,
                                victim: v,
                            },
                        });
                    }
                }
            }
        } else {
            for c in 0..n {
                sites.push(FaultSite {
                    model,
                    cells: SiteCells::Single(c),
                });
            }
        }
        sites
    }
}

/// One observed read during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRecord {
    /// Flat index of the read among the test's per-cell operations
    /// (element-major), identifying the elementary block it closes.
    pub op_index: usize,
    /// Address the read visited.
    pub addr: usize,
    /// Expected (fault-free) value.
    pub expected: Bit,
    /// Value the device produced.
    pub got: Bit,
}

impl ReadRecord {
    /// `true` when the read exposes a fault.
    #[must_use]
    pub fn mismatch(&self) -> bool {
        self.expected != self.got
    }
}

/// Executes `test` on `memory` with the given `⇕` resolution choices
/// (one [`Direction::Up`]/[`Direction::Down`] entry per `Any` element, in
/// order), returning every read performed.
///
/// Elements whose operation list is exactly `[Del]` wait once, globally,
/// as in the March G notation; a `Del` inside a longer element waits at
/// every visited cell.
///
/// # Panics
///
/// Panics if `resolutions` is shorter than the number of `⇕` elements.
#[must_use]
pub fn run(
    test: &MarchTest,
    memory: &mut dyn MemoryBehavior,
    resolutions: &[Direction],
) -> Vec<ReadRecord> {
    let mut records = Vec::new();
    run_with(test, memory, resolutions, |record| records.push(record));
    records
}

/// Streaming variant of [`run`]: every read is handed to `on_read` as it
/// happens instead of being collected, so detection sweeps that only need
/// "was there a mismatch?" pay no per-scenario allocation.
///
/// # Panics
///
/// Panics if `resolutions` is shorter than the number of `⇕` elements.
pub fn run_with(
    test: &MarchTest,
    memory: &mut dyn MemoryBehavior,
    resolutions: &[Direction],
    mut on_read: impl FnMut(ReadRecord),
) {
    let n = memory.len();
    let mut op_base = 0usize;
    let mut res_iter = resolutions.iter();
    for element in test.elements() {
        let dir = match element.direction {
            Direction::Any => *res_iter.next().expect("a resolution per ⇕ element"),
            d => d,
        };
        if element.ops.len() == 1 && element.ops[0] == MarchOp::Delay {
            memory.delay();
            op_base += 1;
            continue;
        }
        let addresses: Box<dyn Iterator<Item = usize>> = match dir {
            Direction::Down => Box::new((0..n).rev()),
            _ => Box::new(0..n),
        };
        for addr in addresses {
            for (k, &op) in element.ops.iter().enumerate() {
                match op {
                    MarchOp::Write(d) => memory.write(addr, d),
                    MarchOp::Delay => memory.delay(),
                    MarchOp::Read(expected) => {
                        let got = memory.read(addr);
                        on_read(ReadRecord {
                            op_index: op_base + k,
                            addr,
                            expected,
                            got,
                        });
                    }
                }
            }
        }
        op_base += element.ops.len();
    }
}

/// All `⇕` resolution vectors to check: exhaustive up to 6 `Any`
/// elements (64 combinations), the four canonical patterns beyond.
#[must_use]
pub fn resolution_vectors(test: &MarchTest) -> Vec<Vec<Direction>> {
    let k = test
        .elements()
        .iter()
        .filter(|e| e.direction == Direction::Any)
        .count();
    if k == 0 {
        return vec![Vec::new()];
    }
    if k <= 6 {
        (0..(1usize << k))
            .map(|mask| {
                (0..k)
                    .map(|b| {
                        if mask & (1 << b) == 0 {
                            Direction::Up
                        } else {
                            Direction::Down
                        }
                    })
                    .collect()
            })
            .collect()
    } else {
        vec![
            vec![Direction::Up; k],
            vec![Direction::Down; k],
            (0..k)
                .map(|b| {
                    if b % 2 == 0 {
                        Direction::Up
                    } else {
                        Direction::Down
                    }
                })
                .collect(),
            (0..k)
                .map(|b| {
                    if b % 2 == 1 {
                        Direction::Up
                    } else {
                        Direction::Down
                    }
                })
                .collect(),
        ]
    }
}

/// The power-up patterns to check for a site: backgrounds of all-0 and
/// all-1, crossed with every combination of the site's own cells.
#[must_use]
pub fn power_up_patterns(site: &FaultSite, n: usize) -> Vec<Vec<Bit>> {
    let involved = site.cells.addresses();
    let mut patterns = Vec::new();
    for bg in Bit::ALL {
        for combo in 0..(1usize << involved.len()) {
            let mut cells = vec![bg; n];
            for (k, &addr) in involved.iter().enumerate() {
                cells[addr] = if combo & (1 << k) == 0 {
                    Bit::Zero
                } else {
                    Bit::One
                };
            }
            if !patterns.contains(&cells) {
                patterns.push(cells);
            }
        }
    }
    patterns
}

/// Latch power-up values worth checking (only latch-reading behaviours —
/// stuck-open — observe it).
pub(crate) fn latch_values(site: &FaultSite) -> &'static [Bit] {
    if marchgen_faults::lowering::behavior(site.model).uses_latch {
        &Bit::ALL
    } else {
        &[Bit::Zero]
    }
}

/// Guaranteed detection: `true` when every scenario (power-up pattern ×
/// `⇕` resolution × latch value) yields at least one mismatching read.
///
/// This is the hot primitive of every coverage sweep, so it avoids the
/// per-scenario churn of [`detecting_scenarios`]: the resolution vectors
/// are computed once per call, one [`FaultyMemory`] buffer is reused via
/// [`FaultyMemory::reset`] across scenarios, reads stream through
/// [`run_with`] without being collected, and the sweep bails on the
/// first scenario with no mismatching read.
#[must_use]
pub fn detects(test: &MarchTest, site: &FaultSite, n: usize) -> bool {
    let resolutions = resolution_vectors(test);
    let patterns = power_up_patterns(site, n);
    let latches = latch_values(site);
    let mut mem = FaultyMemory::new(vec![Bit::Zero; n], site.model, site.cells, Bit::Zero);
    for pattern in &patterns {
        for resolution in &resolutions {
            for &latch in latches {
                mem.reset(pattern, latch);
                let mut mismatched = false;
                run_with(test, &mut mem, resolution, |r| {
                    mismatched = mismatched || r.mismatch();
                });
                if !mismatched {
                    return false;
                }
            }
        }
    }
    true
}

/// Scalar reference for the packed backend's lane-level differential
/// tests: `out[r][l]` is `true` when scenario lane `l` produced at least
/// one mismatching read under `⇕` resolution vector `r`. Lanes are
/// enumerated site-major, then power-up pattern, then latch value — the
/// exact order [`crate::widesim`] packs them in.
#[must_use]
pub fn lane_mismatches(test: &MarchTest, model: FaultModel, n: usize) -> Vec<Vec<bool>> {
    let resolutions = resolution_vectors(test);
    let mut out = vec![Vec::new(); resolutions.len()];
    for site in FaultSite::enumerate(model, n) {
        let mut mem = FaultyMemory::new(vec![Bit::Zero; n], site.model, site.cells, Bit::Zero);
        for pattern in power_up_patterns(&site, n) {
            for &latch in latch_values(&site) {
                for (ri, resolution) in resolutions.iter().enumerate() {
                    mem.reset(&pattern, latch);
                    let mut mismatched = false;
                    run_with(test, &mut mem, resolution, |r| {
                        mismatched = mismatched || r.mismatch();
                    });
                    out[ri].push(mismatched);
                }
            }
        }
    }
    out
}

/// Detection details across scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionOutcome {
    /// Whether every scenario had a mismatch.
    pub all_detected: bool,
    /// Number of scenarios simulated.
    pub scenarios: usize,
    /// Per-scenario sets of mismatching per-cell op indices (elementary
    /// blocks); used by the coverage matrix.
    pub mismatch_ops: Vec<Vec<usize>>,
}

/// Runs every scenario for `site`, recording which reads mismatched.
#[must_use]
pub fn detecting_scenarios(test: &MarchTest, site: &FaultSite, n: usize) -> DetectionOutcome {
    let mut all_detected = true;
    let mut scenarios = 0usize;
    let mut mismatch_ops = Vec::new();
    let resolutions = resolution_vectors(test);
    let latches = latch_values(site);
    let mut mem = FaultyMemory::new(vec![Bit::Zero; n], site.model, site.cells, Bit::Zero);
    for pattern in power_up_patterns(site, n) {
        for resolution in &resolutions {
            for &latch in latches {
                scenarios += 1;
                mem.reset(&pattern, latch);
                let mut ops: Vec<usize> = Vec::new();
                run_with(test, &mut mem, resolution, |r| {
                    if r.mismatch() {
                        ops.push(r.op_index);
                    }
                });
                if ops.is_empty() {
                    all_detected = false;
                }
                mismatch_ops.push(ops);
            }
        }
    }
    DetectionOutcome {
        all_detected,
        scenarios,
        mismatch_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::GoodMemory;
    use marchgen_faults::TransitionDir;
    use marchgen_march::known;

    #[test]
    fn good_memory_never_mismatches_consistent_tests() {
        for (name, test) in known::all() {
            for resolution in resolution_vectors(&test) {
                let mut mem = GoodMemory::filled(5, Bit::One);
                let records = run(&test, &mut mem, &resolution);
                assert!(
                    records.iter().all(|r| !r.mismatch()),
                    "{name} mismatched on a fault-free memory"
                );
            }
        }
    }

    #[test]
    fn mats_detects_stuck_at_everywhere() {
        for v in Bit::ALL {
            for site in FaultSite::enumerate(FaultModel::StuckAt(v), 5) {
                assert!(detects(&known::mats(), &site, 5), "MATS misses {site:?}");
            }
        }
    }

    #[test]
    fn mats_misses_transition_faults() {
        // MATS never verifies the ↓ transition.
        let missed = FaultSite::enumerate(FaultModel::Transition(TransitionDir::Down), 4)
            .into_iter()
            .any(|site| !detects(&known::mats(), &site, 4));
        assert!(missed);
    }

    #[test]
    fn march_c_minus_detects_all_cfid() {
        for dir in TransitionDir::ALL {
            for f in Bit::ALL {
                let model = FaultModel::CouplingIdempotent(dir, f);
                for site in FaultSite::enumerate(model, 4) {
                    assert!(
                        detects(&known::march_c_minus(), &site, 4),
                        "March C- misses {model} at {:?}",
                        site.cells
                    );
                }
            }
        }
    }

    #[test]
    fn mats_plus_misses_some_cfid() {
        let model = FaultModel::CouplingIdempotent(TransitionDir::Down, Bit::Zero);
        let missed = FaultSite::enumerate(model, 4)
            .into_iter()
            .any(|site| !detects(&known::mats_plus(), &site, 4));
        assert!(missed);
    }

    #[test]
    fn march_g_detects_data_retention_and_sof() {
        let g = known::march_g();
        for x in Bit::ALL {
            for site in FaultSite::enumerate(FaultModel::DataRetention(x), 4) {
                assert!(detects(&g, &site, 4), "March G misses DRF<{x}>");
            }
        }
        for site in FaultSite::enumerate(FaultModel::StuckOpen, 4) {
            assert!(
                detects(&g, &site, 4),
                "March G misses SOF at {:?}",
                site.cells
            );
        }
    }

    #[test]
    fn mats_misses_sof() {
        let missed = FaultSite::enumerate(FaultModel::StuckOpen, 4)
            .into_iter()
            .any(|site| !detects(&known::mats(), &site, 4));
        assert!(missed);
    }

    #[test]
    fn resolution_vectors_cover_all_combinations() {
        let t = known::march_x(); // two ⇕ elements
        let vecs = resolution_vectors(&t);
        assert_eq!(vecs.len(), 4);
        let t = known::mats_plus(); // one ⇕
        assert_eq!(resolution_vectors(&t).len(), 2);
    }

    #[test]
    fn power_up_patterns_cover_site_combinations() {
        let site = FaultSite {
            model: FaultModel::CouplingInversion(TransitionDir::Up),
            cells: SiteCells::Pair {
                aggressor: 0,
                victim: 2,
            },
        };
        let pats = power_up_patterns(&site, 4);
        // 2 backgrounds × 4 site combos, minus duplicates (site combo may
        // equal the background) — at least 8 distinct patterns for n=4.
        assert!(pats.len() >= 8, "{}", pats.len());
    }

    #[test]
    fn detection_requires_all_scenarios() {
        // An ⇑-only test that catches CFid<↑,1> with aggressor below the
        // victim but not above: detects() must say "no" for the reversed
        // pair.
        let t: MarchTest = "⇑(w0); ⇑(r0,w1); ⇑(r1)".parse().unwrap();
        let model = FaultModel::CouplingIdempotent(TransitionDir::Up, Bit::One);
        let below = FaultSite {
            model,
            cells: SiteCells::Pair {
                aggressor: 0,
                victim: 2,
            },
        };
        let above = FaultSite {
            model,
            cells: SiteCells::Pair {
                aggressor: 2,
                victim: 0,
            },
        };
        assert!(detects(&t, &below, 4));
        assert!(!detects(&t, &above, 4));
    }

    #[test]
    fn delay_element_applies_once() {
        // DRF<1>: ⇕(w1); Del; ⇕(r1) catches the decayed cell.
        let t: MarchTest = "m(w1); m(Del); m(r1)".parse().unwrap();
        for site in FaultSite::enumerate(FaultModel::DataRetention(Bit::One), 3) {
            assert!(detects(&t, &site, 3));
        }
        // Without the delay the fault never manifests.
        let t: MarchTest = "m(w1); m(r1)".parse().unwrap();
        for site in FaultSite::enumerate(FaultModel::DataRetention(Bit::One), 3) {
            assert!(!detects(&t, &site, 3));
        }
    }
}
