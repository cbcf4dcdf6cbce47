//! # marchgen-bench
//!
//! Shared workloads for the `repro` binary, which regenerates every table
//! and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use marchgen_faults::{parse_fault_list, requirements_for, FaultModel, TestPattern};

/// One row of the paper's Table 3.
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    /// Display label.
    pub label: &'static str,
    /// Fault list (parseable).
    pub faults: &'static str,
    /// The complexity the paper reports.
    pub paper_complexity: usize,
    /// The paper's CPU time in seconds (Compaq Presario, PIII 650 MHz).
    pub paper_seconds: f64,
    /// The paper's "Equivalent Known March Test" column.
    pub known_equivalent: &'static str,
}

/// All six rows of Table 3. Row 6's fault list follows the DESIGN.md
/// decoding of the published 5n test (victim-forced-to-one CFid subset).
pub const TABLE3: &[Table3Row] = &[
    Table3Row {
        label: "SAF",
        faults: "SAF",
        paper_complexity: 4,
        paper_seconds: 0.49,
        known_equivalent: "MATS (4n)",
    },
    Table3Row {
        label: "SAF+TF",
        faults: "SAF, TF",
        paper_complexity: 5,
        paper_seconds: 0.53,
        known_equivalent: "MATS+ (5n)",
    },
    Table3Row {
        label: "SAF+TF+ADF",
        faults: "SAF, TF, ADF",
        paper_complexity: 6,
        paper_seconds: 0.61,
        known_equivalent: "MATS++ (6n)",
    },
    Table3Row {
        label: "SAF+TF+ADF+CFin",
        faults: "SAF, TF, ADF, CFin",
        paper_complexity: 6,
        paper_seconds: 0.69,
        known_equivalent: "March X (6n)",
    },
    Table3Row {
        label: "SAF+TF+ADF+CFin+CFid",
        faults: "SAF, TF, ADF, CFin, CFid",
        paper_complexity: 10,
        paper_seconds: 0.85,
        known_equivalent: "March C- (10n)",
    },
    Table3Row {
        label: "CFid<u,1>+CFid<d,1>",
        faults: "CFid<u,1>, CFid<d,1>",
        paper_complexity: 5,
        paper_seconds: 0.57,
        known_equivalent: "Not Found",
    },
];

/// Parses a row's fault models.
#[must_use]
pub fn row_models(row: &Table3Row) -> Vec<FaultModel> {
    parse_fault_list(row.faults).expect("table rows parse")
}

/// The §4 worked-example TPs (TP1..TP4, paper numbering).
#[must_use]
pub fn section4_tps() -> Vec<TestPattern> {
    let mut tps = Vec::new();
    for list in ["CFid<u,0>", "CFid<u,1>"] {
        let models = parse_fault_list(list).expect("parses");
        for req in requirements_for(&models) {
            tps.push(req.alternatives[0]);
        }
    }
    tps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_six_rows() {
        assert_eq!(TABLE3.len(), 6);
        for row in TABLE3 {
            assert!(!row_models(row).is_empty(), "{}", row.label);
        }
    }

    #[test]
    fn section4_tps_count() {
        assert_eq!(section4_tps().len(), 4);
    }
}
