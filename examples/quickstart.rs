//! Quickstart: generate a verified, minimal March test for a fault list.
//!
//! ```sh
//! cargo run --example quickstart -- "SAF, TF, CFin"
//! ```
//!
//! With no argument it runs the paper's headline fault list (Table 3,
//! row 5).

use marchgen::generator::gts::Gts;
use marchgen::prelude::*;

fn main() {
    let list = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "SAF, TF, ADF, CFin, CFid".to_string());

    let request = match GenerateRequest::from_fault_list(&list) {
        Ok(request) => request,
        Err(e) => {
            eprintln!("cannot parse fault list: {e}");
            std::process::exit(1);
        }
    };

    println!("fault list : {list}");
    let outcome = generate(&request).expect("fault list expands to requirements");

    println!("march test : {}", outcome.test);
    println!("complexity : {}n", outcome.test.complexity());
    println!("GTS        : {}", Gts::from_tour(&outcome.tour));
    println!("tour       : {} test patterns", outcome.tour.len());
    for tp in &outcome.tour {
        println!("             {tp}");
    }
    println!("verified   : {}", outcome.verified);
    if let Some(nr) = outcome.non_redundant {
        println!("non-redund.: {nr}");
    }
    if let Some(report) = &outcome.report {
        println!("{report}");
    }
}
