//! The typed request/outcome API and the batch service layer: generate
//! tests for several fault lists concurrently, with progress events and
//! JSON output.
//!
//! ```text
//! cargo run --example batch_service
//! ```

use marchgen::json::ToJson;
use marchgen::prelude::*;
use marchgen::service::BatchEvent;
use marchgen::SolverChoice;

fn main() {
    let requests: Vec<GenerateRequest> = ["SAF", "SAF, TF", "SAF, TF, CFin", "CFid"]
        .iter()
        .map(|list| {
            GenerateRequest::from_fault_list(list)
                .expect("catalog lists parse")
                .with_solver(SolverChoice::BranchBound)
        })
        .collect();

    let results = Batch::new()
        .threads(4)
        .run_with_progress(requests, |event| {
            if let BatchEvent::Finished { index, outcome } = event {
                eprintln!(
                    "request {index}: {}n in {} µs",
                    outcome.complexity(),
                    outcome.diagnostics.total_micros()
                );
            }
        });

    for result in results {
        let outcome = result.expect("catalog lists generate");
        println!("{}", outcome.to_json_string());
    }
}
