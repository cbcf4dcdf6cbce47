//! Pins what `parse_fault_list` answers, models and error text, for
//! every model name in its printed, lowercase and ASCII `u`/`d`
//! spellings, every family name, the `,` `+` `;` separators with
//! whitespace around them, and a set of malformed tokens. One line per
//! input in `goldens/parse_table.txt`; an intended grammar change
//! rewrites the table with
//!
//! ```sh
//! UPDATE_GOLDENS=1 cargo test -p marchgen-faults --test parse_table
//! ```

use marchgen_faults::{parse_fault_list, parse_fault_list_into, FaultModel};

const FAMILIES: &[&str] = &[
    "SAF", "SA0", "SA1", "TF", "SOF", "ADF", "AF", "CFin", "CFid", "CFst", "RDF", "DRDF", "IRF",
    "DRF", "LCF", "dRDF", "dDRDF", "dIRF",
];

const SEPARATED: &[&str] = &[
    "",
    " ",
    ",",
    "SAF, TF",
    "SAF+TF",
    "SAF;TF",
    "SAF , TF ; CFin + CFid",
    "  SAF ,, TF ; ; CFid<u,0> + ",
    "\tSAF\t,\nTF\n",
    "SAF TF",
    "CFid<u,0>, CFid<d,1>+CFst<1,0>;TF<↑>",
    "CFid<u, 0>",
    "CFid< u , 1 >",
    "CFid <u,1>",
    "SAF, TF, ADF, CFin, CFid",
    "saf+tf",
    "TF<up>, TF<Down>, TF<UP>, TF<down>",
    "ADF<W>, ADF<r>, AF<w>",
    "SA0<x>",
    "SOF<1>",
    "cfid<U,1>",
    "Drdf, dRdf",
];

const BAD: &[&str] = &[
    "BOGUS",
    "SAF, BOGUS, TF",
    "SAFETY",
    "ΣAF",
    "S⇑F",
    "<u>",
    "CFid<u",
    "CFid<u,0",
    "CFid<x,0>",
    "CFid<u0>",
    "CFid<,>",
    "CFid<u,2>",
    "CFst<1>",
    "CFst<1,x>",
    "TF<2>",
    "TF<>",
    "TF<uP>",
    "CFin<u>>",
    "LCF<x>",
    "ADF<x>",
    "ADF< w >",
    "SAF<2>",
    "DRF<01>",
    "dRDF<2>",
    "dIRF<>",
    "DRDFX",
    "SAF, TF<x>, BOGUS",
];

/// Every input of the table, in order.
fn inputs() -> Vec<String> {
    let mut inputs = Vec::new();
    for model in FaultModel::all_extended() {
        let name = model.to_string();
        let ascii = name.replace('↑', "u").replace('↓', "d");
        inputs.push(name.clone());
        inputs.push(name.to_lowercase());
        inputs.push(ascii.clone());
        inputs.push(ascii.to_uppercase());
    }
    for family in FAMILIES {
        inputs.push((*family).to_owned());
        inputs.push(family.to_lowercase());
        inputs.push(family.to_uppercase());
    }
    inputs.extend(SEPARATED.iter().chain(BAD).map(|s| (*s).to_owned()));
    inputs
}

/// One table line: the input, then its models or its error.
fn row(input: &str) -> String {
    let answer = match parse_fault_list(input) {
        Ok(models) => models
            .iter()
            .map(FaultModel::to_string)
            .collect::<Vec<_>>()
            .join(" "),
        Err(e) => format!("error: {e} [token {:?}]", e.token),
    };
    format!("{input:?} => {answer}")
}

#[test]
fn parse_answers_match_the_table() {
    let table: String = inputs().iter().map(|input| row(input) + "\n").collect();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/parse_table.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &table).expect("write the table");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("the checked-in table");
    for (got, want) in table.lines().zip(golden.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(table.lines().count(), golden.lines().count());
}

/// Appending to one `Vec` gives the concatenation of the lists' models.
#[test]
fn lists_append_to_one_vec() {
    let mut models = vec![FaultModel::StuckOpen];
    for list in ["SAF, TF", "", "CFid<u,0>; CFst"] {
        parse_fault_list_into(list, &mut models).unwrap();
    }
    let mut expected = vec![FaultModel::StuckOpen];
    for list in ["SAF, TF", "", "CFid<u,0>; CFst"] {
        expected.extend(parse_fault_list(list).unwrap());
    }
    assert_eq!(models, expected);
    assert!(parse_fault_list_into("SAF, BOGUS", &mut models).is_err());
}
