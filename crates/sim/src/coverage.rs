//! Fault-model coverage sweeps and reports.

use crate::engine::{detects, FaultSite};
use marchgen_faults::FaultModel;
use marchgen_march::MarchTest;
use std::fmt;

/// Coverage of one fault model by one test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCoverage {
    /// The model swept.
    pub model: FaultModel,
    /// Instances simulated (`n` or `n·(n−1)`).
    pub total_sites: usize,
    /// Instances with guaranteed detection.
    pub detected_sites: usize,
    /// The escaped instances, if any.
    pub escapes: Vec<FaultSite>,
}

impl ModelCoverage {
    /// `true` when every instance is caught. A model with no instance on
    /// the swept memory (a pair fault on one cell) is not covered: there
    /// was nothing to detect it on.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.total_sites > 0 && self.detected_sites == self.total_sites
    }

    /// Detected fraction in percent; 0 for a model with no instance.
    #[must_use]
    pub fn percent(&self) -> f64 {
        if self.total_sites == 0 {
            0.0
        } else {
            100.0 * self.detected_sites as f64 / self.total_sites as f64
        }
    }
}

impl fmt::Display for ModelCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}/{} ({:.0}%)",
            self.model,
            self.detected_sites,
            self.total_sites,
            self.percent()
        )
    }
}

/// Coverage of a whole fault list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    /// Per-model results, in fault-list order.
    pub models: Vec<ModelCoverage>,
    /// Memory size used for the sweep.
    pub memory_size: usize,
}

impl CoverageReport {
    /// `true` when every model is fully covered.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.models.iter().all(ModelCoverage::complete)
    }

    /// Total instances simulated.
    #[must_use]
    pub fn total_sites(&self) -> usize {
        self.models.iter().map(|m| m.total_sites).sum()
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "coverage on {} cells:", self.memory_size)?;
        for m in &self.models {
            writeln!(f, "  {m}")?;
        }
        Ok(())
    }
}

/// Sweeps every instance of `model` in an `n`-cell memory.
#[must_use]
pub fn model_coverage(test: &MarchTest, model: FaultModel, n: usize) -> ModelCoverage {
    let sites = FaultSite::enumerate(model, n);
    let total_sites = sites.len();
    let mut escapes = Vec::new();
    for site in sites {
        if !detects(test, &site, n) {
            escapes.push(site);
        }
    }
    ModelCoverage {
        model,
        total_sites,
        detected_sites: total_sites - escapes.len(),
        escapes,
    }
}

/// Full report over a fault list.
#[must_use]
pub fn coverage_report(test: &MarchTest, models: &[FaultModel], n: usize) -> CoverageReport {
    CoverageReport {
        models: models.iter().map(|&m| model_coverage(test, m, n)).collect(),
        memory_size: n,
    }
}

/// `true` when `test` has guaranteed detection of every instance of every
/// listed model.
#[must_use]
pub fn covers_all(test: &MarchTest, models: &[FaultModel], n: usize) -> bool {
    models
        .iter()
        .all(|&m| model_coverage(test, m, n).complete())
}

#[cfg(test)]
mod tests {
    use super::*;
    use marchgen_faults::parse_fault_list;
    use marchgen_march::known;

    /// The classical coverage table: each library test against the fault
    /// lists it is documented to cover (van de Goor).
    #[test]
    fn classical_coverage_claims() {
        let n = 4;
        let cases: Vec<(&str, MarchTest, &str)> = vec![
            ("MATS", known::mats(), "SAF"),
            ("MATS++", known::mats_plus_plus(), "SAF, TF"),
            ("March X", known::march_x(), "SAF, TF, CFin"),
            (
                "March C-",
                known::march_c_minus(),
                "SAF, TF, ADF, CFin, CFid, CFst",
            ),
            ("March Y", known::march_y(), "SAF, TF, CFin"),
            ("March B", known::march_b(), "SAF, TF, CFin"),
            (
                "March SS",
                known::march_ss(),
                "SAF, TF, CFin, CFid, CFst, RDF, DRDF, IRF",
            ),
            ("March G", known::march_g(), "SAF, TF, SOF, CFin, DRF"),
        ];
        for (name, test, faults) in cases {
            let models = parse_fault_list(faults).unwrap();
            let report = coverage_report(&test, &models, n);
            assert!(report.complete(), "{name} should cover {faults}:\n{report}");
        }
    }

    /// Negative controls: documented *gaps* of the classical tests.
    #[test]
    fn classical_coverage_gaps() {
        let n = 4;
        let gaps: Vec<(&str, MarchTest, &str)> = vec![
            ("MATS", known::mats(), "TF"),
            ("MATS+", known::mats_plus(), "TF"),
            ("MATS++", known::mats_plus_plus(), "CFin"),
            ("March X", known::march_x(), "CFid"),
            ("March C-", known::march_c_minus(), "SOF"),
            ("March C-", known::march_c_minus(), "DRF"),
        ];
        for (name, test, faults) in gaps {
            let models = parse_fault_list(faults).unwrap();
            assert!(
                !covers_all(&test, &models, n),
                "{name} unexpectedly covers {faults}"
            );
        }
    }

    #[test]
    fn report_accounting() {
        let models = parse_fault_list("SAF, CFin").unwrap();
        let report = coverage_report(&known::march_c_minus(), &models, 4);
        // SAF: 4 sites ×2 models; CFin: 12 ordered pairs ×2 directions.
        assert_eq!(report.total_sites(), 4 + 4 + 12 + 12);
        assert!(report.complete());
        let s = report.to_string();
        assert!(s.contains("SA0"), "{s}");
    }

    #[test]
    fn escapes_are_reported() {
        let models = parse_fault_list("TF").unwrap();
        let report = coverage_report(&known::mats(), &models, 4);
        assert!(!report.complete());
        let down = &report.models[1];
        assert!(!down.escapes.is_empty());
        assert!(down.percent() < 100.0);
    }

    /// A pair fault has no instance on one cell: nothing detects it, so
    /// the model is not covered, whatever the test.
    #[test]
    fn a_model_without_instances_is_not_covered() {
        let models = parse_fault_list("SAF, CFin").unwrap();
        let report = coverage_report(&known::march_c_minus(), &models, 1);
        assert!(report.models[0].complete());
        let cfin = &report.models[2];
        assert_eq!(cfin.total_sites, 0);
        assert!(!cfin.complete());
        assert_eq!(cfin.percent(), 0.0);
        assert!(!report.complete());
        assert!(!covers_all(&known::march_c_minus(), &models, 1));
    }
}
