//! The committed request pools, one per library workload, each entry
//! with the complexity its outcome must have (in multiples of `n`).
//!
//! The paper's values are pinned here and nowhere else: `SAF` 4n,
//! `SAF, TF` 5n, `SAF, TF, ADF` 6n, `SAF, TF, ADF, CFin` 6n,
//! `SAF, TF, ADF, CFin, CFid` 10n (Table 3), `CFid<u,1>, CFid<d,1>` 5n
//! and the Section 4 example `CFid<u,0>, CFid<u,1>` 8n. The other values
//! are what the pipeline produced when the pools were chosen; a change
//! that alters one is a change in the program's answers and must explain
//! itself.
//!
//! Each pool holds many lists whose costs spread continuously over its
//! range: with only a few classes of request, the median falls in the gap
//! between two classes and jumps between runs (an 8-list pool read a p50
//! of 22.5 ms in one run and 31 ms in the next on a shared 2-vCPU host).
//!
//! Every run replays whole shuffles, so each entry contributes the same
//! number of samples, and the pool sizes keep every reported percentile
//! off the boundary between two entries' samples: the odd sizes put the
//! median in the middle of one entry's, 25 entries put p90 in the middle
//! of the third-costliest entry's, and 51 put p95 in the middle of the
//! third-costliest entry's and p99 in the middle of the costliest's.

/// One pool entry: a fault list, the memory size it is verified on and
/// the expected complexity of the generated test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The fault list, as `parse_fault_list` reads it.
    pub faults: &'static str,
    /// `verify_cells` of the request.
    pub cells: usize,
    /// Expected complexity of the generated test, in multiples of n.
    pub expected: usize,
}

const fn entry(faults: &'static str, cells: usize, expected: usize) -> Entry {
    Entry {
        faults,
        cells,
        expected,
    }
}

/// `search_heavy`: lists of 256 or more class combinations at 4 cells,
/// 10–170 ms each on one thread, where tour search and scheduling are
/// most of the request.
pub const SEARCH_HEAVY: &[Entry] = &[
    entry("SAF, TF, ADF, CFin, CFid", 4, 10),
    entry("ADF, CFin", 4, 6),
    entry("ADF, CFin, CFid<d,0>", 4, 7),
    entry("ADF, CFin, CFid<u,1>", 4, 7),
    entry("CFst", 4, 6),
    entry("SAF, ADF, CFin", 4, 6),
    entry("ADF, CFin, RDF", 4, 6),
    entry("ADF, CFin, DRDF", 4, 8),
    entry("ADF, CFin, dIRF", 4, 9),
    entry("TF, ADF, CFin", 4, 6),
    entry("SAF, TF, ADF, CFin", 4, 6),
    entry("ADF, CFin, IRF", 4, 6),
    entry("ADF, CFin, dDRDF", 4, 10),
    entry("SOF, ADF, CFin", 4, 8),
    entry("ADF, CFin, DRF", 4, 6),
    entry("CFst, DRDF", 4, 8),
    entry("CFst, IRF", 4, 6),
    entry("CFst, RDF", 4, 6),
    entry("CFst, dRDF", 4, 7),
    entry("CFst, DRF", 4, 10),
    entry("SAF, ADF, CFin, CFid<u,0>", 4, 7),
    entry("CFst, RDF, IRF", 4, 6),
    entry("CFst, dIRF", 4, 7),
    entry("SAF, CFst", 4, 6),
    entry("CFst, SAF, TF", 4, 6),
];

/// `verify_wide`: pair, linked and dynamic lists of at most 16 class
/// combinations at 8 cells, 1–13 ms each. Every one sweeps more than 64
/// scenario lanes, so `auto` verifies it with the wide-lane engine, and
/// simulation is at least three quarters of the request.
pub const VERIFY_WIDE: &[Entry] = &[
    entry("CFid<u,0>", 8, 5),
    entry("CFid<u,1>, CFid<d,1>", 8, 5),
    entry("CFid<u,0>, CFid<u,1>", 8, 8),
    entry("CFid<d,1>, CFid<d,0>", 8, 8),
    entry("CFid<u,1>, CFid<d,0>", 8, 9),
    entry("SAF, TF, CFid<u,1>", 8, 6),
    entry("dRDF, CFid<u,1>", 8, 7),
    entry("ADF<w>", 8, 5),
    entry("ADF", 8, 5),
    entry("CFin", 8, 6),
    entry("CFst<0,1>, CFst<1,0>", 8, 4),
    entry("CFst<0,0>, CFst<1,1>", 8, 6),
    entry("LCF<1>", 8, 6),
    entry("LCF<0>", 8, 5),
    entry("LCF<0>, dRDF", 8, 8),
    entry("LCF", 8, 7),
    entry("DRDF, LCF", 8, 10),
    entry("IRF, LCF", 8, 7),
    entry("RDF, LCF", 8, 7),
    entry("dDRDF, LCF", 8, 12),
    entry("SAF, LCF", 8, 7),
    entry("CFin, LCF", 8, 7),
    entry("TF, LCF", 8, 8),
    entry("SOF, LCF", 8, 9),
    entry("dIRF, LCF", 8, 10),
    entry("SAF, TF, LCF", 8, 8),
    entry("dRDF, LCF", 8, 10),
    entry("DRF, LCF", 8, 9),
    entry("CFid", 8, 10),
    entry("CFid, IRF", 8, 10),
    entry("CFid, RDF", 8, 10),
    entry("CFid, LCF", 8, 10),
    entry("SOF, CFid", 8, 13),
    entry("CFid, DRDF", 8, 12),
    entry("CFid, dRDF", 8, 13),
    entry("CFin, CFid", 8, 10),
    entry("CFid, dIRF", 8, 13),
    entry("CFid, dDRDF", 8, 14),
    entry("TF, CFid", 8, 13),
    entry("SAF, CFid", 8, 10),
    entry("CFid, DRF", 8, 10),
    entry("ADF, CFid", 8, 10),
    entry("SAF, TF, ADF", 8, 6),
    entry("TF, ADF", 8, 6),
    entry("SAF, ADF", 8, 5),
    entry("ADF, DRDF", 8, 7),
    entry("ADF, DRF", 8, 5),
    entry("ADF, dDRDF", 8, 9),
    entry("ADF, dIRF", 8, 8),
    entry("ADF, dRDF", 8, 8),
    entry("CFin, DRF", 8, 6),
];

/// `verify_narrow`: single-cell lists at 4 and 8 cells, 0.04–2 ms each.
/// None sweeps more than 64 lanes, so `auto` verifies them all with the
/// 64-lane engine.
pub const VERIFY_NARROW: &[Entry] = &[
    entry("TF<u>", 4, 3),
    entry("RDF", 4, 4),
    entry("dRDF", 4, 4),
    entry("SAF", 4, 4),
    entry("TF", 4, 5),
    entry("DRDF", 4, 6),
    entry("TF<d>, DRF<1>", 4, 4),
    entry("dIRF", 8, 4),
    entry("DRF<0>, dDRDF<1>", 4, 5),
    entry("SAF", 8, 4),
    entry("SAF, TF", 4, 5),
    entry("TF", 8, 5),
    entry("SAF, TF<u>, DRDF<0>", 4, 5),
    entry("dDRDF", 8, 6),
    entry("SAF, TF, RDF", 4, 5),
    entry("SAF, RDF", 8, 4),
    entry("TF<d>, DRF<1>", 8, 4),
    entry("TF, dIRF", 4, 5),
    entry("DRF<0>, dDRDF<1>", 8, 5),
    entry("RDF, DRDF", 4, 6),
    entry("SAF, TF", 8, 5),
    entry("TF, DRDF", 4, 7),
    entry("RDF<1>, IRF<0>, DRF<1>", 8, 4),
    entry("SOF, dDRDF", 4, 6),
    entry("SAF, TF, SOF", 4, 5),
    entry("TF, dDRDF", 4, 9),
    entry("DRF", 8, 4),
    entry("dRDF, dDRDF", 4, 6),
    entry("TF, dIRF", 8, 5),
    entry("SAF, TF, RDF, IRF", 8, 5),
    entry("RDF, DRDF", 8, 6),
    entry("RDF, DRF", 4, 4),
    entry("dRDF, dDRDF, dIRF", 4, 6),
    entry("RDF, DRDF, IRF", 8, 6),
    entry("SOF, DRF", 4, 5),
    entry("SAF, TF, dRDF", 8, 5),
    entry("SAF, TF, SOF", 8, 5),
    entry("DRF, dRDF", 4, 6),
    entry("SAF, dDRDF", 4, 6),
    entry("dRDF, dDRDF", 8, 6),
    entry("SAF, TF, DRDF", 8, 7),
    entry("RDF, DRF", 8, 4),
    entry("dRDF, dDRDF, dIRF", 8, 6),
    entry("SOF, DRF", 8, 5),
    entry("DRDF, DRF", 8, 6),
    entry("SAF, dDRDF", 8, 6),
    entry("SAF, TF, DRF", 4, 5),
    entry("TF, DRF", 8, 5),
    entry("RDF, DRDF, IRF, DRF", 4, 6),
    entry("SOF, DRDF, DRF", 8, 6),
    entry("TF, DRF, dDRDF", 4, 8),
];
