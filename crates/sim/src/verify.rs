//! The [`Verifier`] extension trait: the pluggable oracle seam between
//! the generation pipeline and the fault simulator of paper Section 6.
//!
//! The pipeline only ever asks three questions — "does this test cover
//! the fault list?", "can it be compacted?", "is it non-redundant?" —
//! so alternative backends (a parallel simulator, a SAT-based checker,
//! a hardware-in-the-loop harness) can replace the built-in behavioural
//! simulator by implementing this trait. Two backends ship in-tree:
//!
//! * [`SimVerifier`] — the scalar behavioural simulator (one scenario at
//!   a time), the oracle every fast path is held to, and
//! * [`WideSimVerifier`] — the packed sweep of [`crate::widesim`]
//!   (`[u64; W]` lane blocks, 128–512 lanes per word), exact-agreement
//!   verified against the scalar backend.
//!
//! Both backends verify on the calling thread.

use crate::coverage::{coverage_report, CoverageReport};
use crate::{redundancy, widesim};
use marchgen_faults::FaultModel;
use marchgen_march::MarchTest;
use std::borrow::Cow;
use std::time::Instant;

/// The result of one timed coverage sweep: the coverage report plus its
/// wall-clock time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyRun {
    /// Full per-model coverage, identical to what [`Verifier::verify`]
    /// returns for the same inputs.
    pub report: CoverageReport,
    /// Wall-clock microseconds of the sweep: one entry, since the sweep
    /// runs on the calling thread. The field goes, with the `workers`
    /// argument of [`Verifier::verify_sharded`], once `perfbench`'s
    /// composed pipeline stops reading them.
    pub shard_micros: Vec<u64>,
}

/// A verification backend for generated March tests.
///
/// Implementations must be `Send + Sync`: the batch service layer shares
/// one verifier across worker threads.
pub trait Verifier: Send + Sync {
    /// A short stable identifier for reports and diagnostics.
    fn name(&self) -> &str;

    /// Full per-model coverage of `test` over the fault list.
    fn verify(&self, test: &MarchTest, models: &[FaultModel]) -> CoverageReport;

    /// A sub-test that still covers the fault list, from greedy
    /// one-operation deletion (the paper's Table 2 minimization role;
    /// see [`redundancy`]): operationally non-redundant, but not
    /// necessarily the shortest covering test. The default returns the
    /// test borrowed and unchanged (no compaction capability) —
    /// implementations should likewise return [`Cow::Borrowed`] when
    /// nothing was deleted, so a test with no deletable operation is
    /// never cloned.
    fn compact<'a>(&self, test: &'a MarchTest, models: &[FaultModel]) -> Cow<'a, MarchTest> {
        let _ = models;
        Cow::Borrowed(test)
    }

    /// `true` when no single operation can be deleted from `test`
    /// without losing coverage. The default is a conservative `false`
    /// (capability not implemented).
    fn is_non_redundant(&self, test: &MarchTest, models: &[FaultModel]) -> bool {
        let _ = (test, models);
        false
    }

    /// [`Verifier::verify`]'s report plus one wall-clock timing of the
    /// sweep, which runs on the calling thread. The pipeline records
    /// that timing as one `verify_shard_micros` entry per coverage
    /// sweep, so the entries sum to at most the verify phase's time.
    /// No in-tree backend reads `workers`; it goes once `perfbench`'s
    /// composed pipeline stops passing it.
    fn verify_sharded(&self, test: &MarchTest, models: &[FaultModel], workers: usize) -> VerifyRun {
        let _ = workers;
        let start = Instant::now();
        let report = self.verify(test, models);
        VerifyRun {
            report,
            shard_micros: vec![u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)],
        }
    }
}

/// The built-in scalar behavioural fault simulator (paper §6) on an
/// `n`-cell memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimVerifier {
    /// Memory size the sweeps run on. Four cells suffice for the
    /// classical two-cell fault models; larger memories cost
    /// quadratically more on coupling faults.
    pub cells: usize,
}

impl SimVerifier {
    /// A simulator-backed verifier on `cells` memory cells.
    #[must_use]
    pub fn new(cells: usize) -> SimVerifier {
        SimVerifier { cells }
    }
}

impl Default for SimVerifier {
    /// The pipeline's default: a 4-cell memory.
    fn default() -> SimVerifier {
        SimVerifier { cells: 4 }
    }
}

impl Verifier for SimVerifier {
    fn name(&self) -> &str {
        "simulator"
    }

    fn verify(&self, test: &MarchTest, models: &[FaultModel]) -> CoverageReport {
        coverage_report(test, models, self.cells)
    }

    fn compact<'a>(&self, test: &'a MarchTest, models: &[FaultModel]) -> Cow<'a, MarchTest> {
        redundancy::compact(test, models, self.cells)
    }

    fn is_non_redundant(&self, test: &MarchTest, models: &[FaultModel]) -> bool {
        redundancy::is_non_redundant(test, models, self.cells)
    }
}

/// The wide-lane fault simulator of [`crate::widesim`]: `[u64; W]` lane
/// blocks (W ∈ {2, 4, 8} picked by scenario count) carrying 128–512
/// scenario lanes per memory word.
///
/// Produces bit-identical [`CoverageReport`]s, compactions and
/// non-redundancy verdicts to [`SimVerifier`] (enforced by the
/// differential suite) at a fraction of the cost on pair-fault lists,
/// where the scenario count grows as `n·(n−1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideSimVerifier {
    /// Memory size the sweeps run on.
    pub cells: usize,
}

impl WideSimVerifier {
    /// A wide-lane verifier on `cells` memory cells.
    #[must_use]
    pub fn new(cells: usize) -> WideSimVerifier {
        WideSimVerifier { cells }
    }
}

impl Default for WideSimVerifier {
    /// The pipeline's default: a 4-cell memory.
    fn default() -> WideSimVerifier {
        WideSimVerifier { cells: 4 }
    }
}

impl Verifier for WideSimVerifier {
    fn name(&self) -> &str {
        "widesim"
    }

    fn verify(&self, test: &MarchTest, models: &[FaultModel]) -> CoverageReport {
        widesim::coverage_report(test, models, self.cells)
    }

    fn compact<'a>(&self, test: &'a MarchTest, models: &[FaultModel]) -> Cow<'a, MarchTest> {
        let site_lists = widesim::enumerate_sites(models, self.cells);
        redundancy::compact_with(test, &|cand| {
            widesim::covers_all_sites(cand, &site_lists, self.cells)
        })
    }

    fn is_non_redundant(&self, test: &MarchTest, models: &[FaultModel]) -> bool {
        let site_lists = widesim::enumerate_sites(models, self.cells);
        redundancy::is_non_redundant_with(test, &|cand| {
            widesim::covers_all_sites(cand, &site_lists, self.cells)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marchgen_faults::parse_fault_list;
    use marchgen_march::known;

    #[test]
    fn sim_verifier_matches_free_functions() {
        let models = parse_fault_list("SAF, TF").unwrap();
        let test = known::march_c_minus();
        let verifier = SimVerifier::new(4);
        let direct = coverage_report(&test, &models, 4);
        assert_eq!(verifier.verify(&test, &models), direct);
        assert!(verifier.is_non_redundant(&verifier.compact(&test, &models), &models));
    }

    #[test]
    fn trait_object_usable() {
        let verifier: Box<dyn Verifier> = Box::new(SimVerifier::default());
        let models = parse_fault_list("SAF").unwrap();
        let report = verifier.verify(&known::mats(), &models);
        assert!(report.complete());
        assert_eq!(verifier.name(), "simulator");
    }

    #[test]
    fn widesim_verifier_matches_scalar_backend() {
        let models = parse_fault_list("SAF, TF, CFin, CFid, CFst").unwrap();
        let test = known::march_c_minus();
        let scalar = SimVerifier::new(4);
        let wide = WideSimVerifier::new(4);
        assert_eq!(wide.verify(&test, &models), scalar.verify(&test, &models));
        assert_eq!(
            *wide.compact(&test, &models),
            *scalar.compact(&test, &models)
        );
        assert_eq!(
            wide.is_non_redundant(&test, &models),
            scalar.is_non_redundant(&test, &models)
        );
        assert_eq!(wide.name(), "widesim");
    }

    /// On one cell a pair fault has no site: both backends report it
    /// uncovered, keep the test whole and agree on redundancy.
    #[test]
    fn backends_agree_on_a_memory_that_hosts_no_pair() {
        let models = parse_fault_list("SAF, CFin").unwrap();
        let test = known::march_c_minus();
        let scalar = SimVerifier::new(1);
        let wide = WideSimVerifier::new(1);
        let report = scalar.verify(&test, &models);
        assert!(!report.complete());
        assert_eq!(wide.verify(&test, &models), report);
        assert_eq!(wide.verify_sharded(&test, &models, 2).report, report);
        assert!(!crate::widesim::covers_all(&test, &models, 1));
        assert!(matches!(scalar.compact(&test, &models), Cow::Borrowed(_)));
        assert!(matches!(wide.compact(&test, &models), Cow::Borrowed(_)));
        assert!(scalar.is_non_redundant(&test, &models));
        assert!(wide.is_non_redundant(&test, &models));
    }

    /// `verify_sharded` is `verify`'s report plus one timing, whatever
    /// `workers` says.
    fn assert_verify_plus_one_timing(verifier: &dyn Verifier) {
        for list in ["SAF, TF, ADF", "CFin, CFid, CFst", "dRDF, LCF", "SOF, DRF"] {
            let models = parse_fault_list(list).unwrap();
            for test in [known::march_c_minus(), known::mats(), known::march_g()] {
                let report = verifier.verify(&test, &models);
                for workers in [1usize, 2, 8] {
                    let run = verifier.verify_sharded(&test, &models, workers);
                    let ctx = format!("{} on {list} at {workers} workers", verifier.name());
                    assert_eq!(run.report, report, "{ctx}");
                    assert_eq!(run.shard_micros.len(), 1, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn default_verify_sharded_is_one_timed_shard() {
        assert_verify_plus_one_timing(&SimVerifier::new(4));
    }

    /// The packed backend keeps the trait's default: one timed sweep on
    /// the calling thread, the same report at every worker count.
    #[test]
    fn sharded_wide_verify_is_worker_invariant() {
        assert_verify_plus_one_timing(&WideSimVerifier::new(6));
    }

    #[test]
    fn default_capabilities_are_conservative() {
        struct CoverageOnly;
        impl Verifier for CoverageOnly {
            fn name(&self) -> &str {
                "coverage-only"
            }
            fn verify(&self, test: &MarchTest, models: &[FaultModel]) -> CoverageReport {
                coverage_report(test, models, 3)
            }
        }
        let v = CoverageOnly;
        let models = parse_fault_list("SAF").unwrap();
        let test = known::mats();
        let compacted = v.compact(&test, &models);
        assert!(matches!(compacted, Cow::Borrowed(_)));
        assert_eq!(*compacted, test);
        assert!(!v.is_non_redundant(&test, &models));
    }
}
