//! Fault diagnosis with March syndromes — the output-tracing direction of
//! the paper's reference [6]: which fault *model* is present, inferred
//! from the positional fingerprint of failing reads.
//!
//! ```sh
//! cargo run --release --example diagnose
//! ```

use marchgen::prelude::*;
use marchgen::sim::diagnosis::diagnose;

fn main() {
    let models =
        parse_fault_list("SAF, TF, CFin<u>, CFid<u,0>, CFid<u,1>, IRF").expect("fault list parses");

    println!("Diagnostic resolution of classical March tests");
    println!(
        "(models: SAF, TF, CFin<↑>, CFid<↑,0>, CFid<↑,1>, IRF — {} instances)\n",
        models.len()
    );

    for (name, test) in [
        ("MATS", known::mats()),
        ("MATS++", known::mats_plus_plus()),
        ("March C-", known::march_c_minus()),
        ("March SS", known::march_ss()),
    ] {
        let report = diagnose(&test, &models, 5);
        println!("{name} ({}n): {report}", test.complexity());
    }

    println!("A generated test tuned for the same list:");
    let out = generate(&GenerateRequest::new(models.clone())).expect("generates");
    let report = diagnose(&out.test, &models, 5);
    println!("generated ({}n): {report}", out.test.complexity());
    println!("note: detection-optimal tests are usually *not* diagnosis-optimal —");
    println!("longer tests with more observation points separate more models.");
}
