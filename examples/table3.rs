//! Regenerates **Table 3** of the paper: for each fault list, the
//! generated March test, its complexity, the generation time, and the
//! equivalent known March test — plus the simulator's verification and
//! the set-covering non-redundancy verdict (§6).
//!
//! ```sh
//! cargo run --release --example table3
//! ```

use marchgen::prelude::*;
use marchgen::sim::matrix::CoverageMatrix;
use std::time::Instant;

struct Row {
    label: &'static str,
    faults: &'static str,
    paper_complexity: usize,
    known: &'static str,
}

const ROWS: &[Row] = &[
    Row {
        label: "SAF",
        faults: "SAF",
        paper_complexity: 4,
        known: "MATS",
    },
    Row {
        label: "SAF,TF",
        faults: "SAF, TF",
        paper_complexity: 5,
        known: "MATS+",
    },
    Row {
        label: "SAF,TF,ADF",
        faults: "SAF, TF, ADF",
        paper_complexity: 6,
        known: "MATS++",
    },
    Row {
        label: "SAF,TF,ADF,CFin",
        faults: "SAF, TF, ADF, CFin",
        paper_complexity: 6,
        known: "March X",
    },
    Row {
        label: "SAF,TF,ADF,CFin,CFid",
        faults: "SAF, TF, ADF, CFin, CFid",
        paper_complexity: 10,
        known: "March C-",
    },
    Row {
        label: "CFid<u,1>,CFid<d,1>",
        faults: "CFid<u,1>, CFid<d,1>",
        paper_complexity: 5,
        known: "(not found)",
    },
];

fn main() {
    println!(
        "{:<22} {:<42} {:>5} {:>6} {:>10}  {:<11} verdicts",
        "Fault list", "Generated March Test", "k", "paper", "time", "known equiv"
    );
    println!("{}", "-".repeat(118));
    for row in ROWS {
        let models = parse_fault_list(row.faults).expect("row lists parse");
        let start = Instant::now();
        let outcome = generate(&GenerateRequest::new(models.clone())).expect("rows generate");
        let elapsed = start.elapsed();

        // §6 verification: coverage matrix + set covering non-redundancy.
        let cm = CoverageMatrix::build(&outcome.test, &models, 4);
        let nr = cm.non_redundancy();

        // Comparator: same complexity and same coverage as the known test.
        let known_matches = known::by_name(row.known)
            .map(|k| k.complexity() == outcome.test.complexity() && covers_all(&k, &models, 4))
            .map_or("-".to_string(), |same| {
                if same {
                    "match".to_string()
                } else {
                    "differs".to_string()
                }
            });

        println!(
            "{:<22} {:<42} {:>4}n {:>5}n {:>10.2?}  {:<11} verified={} blocks_needed={}/{} {}",
            row.label,
            outcome.test.to_string(),
            outcome.test.complexity(),
            row.paper_complexity,
            elapsed,
            row.known,
            outcome.verified,
            nr.minimum_cover,
            nr.useful_blocks,
            known_matches,
        );
        assert_eq!(
            outcome.test.complexity(),
            row.paper_complexity,
            "row {} diverges from the paper",
            row.label
        );
    }
    println!("\nAll rows reproduce the paper's complexities.");
}
