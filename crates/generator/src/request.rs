//! [`GenerateRequest`] — the typed, serializable description of one
//! generation run.
//!
//! Every engine knob is captured here as plain data, so a request can be
//! built with the `with_*` methods, decoded from JSON (`serde` feature),
//! queued through the batch service layer, and replayed byte-for-byte.

use marchgen_atsp::SolverChoice;
use marchgen_faults::{parse_fault_list, FaultModel, ParseFaultError};
use marchgen_tpg::StartPolicy;
use std::fmt;

/// Which verification backend runs the coverage, compaction and
/// redundancy checks of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifierChoice {
    /// The packed simulator
    /// ([`WideSimVerifier`](marchgen_sim::WideSimVerifier)): `[u64; W]`
    /// lane blocks with W ∈ {2, 4, 8} picked by scenario count, run on
    /// the calling thread. It supports every model of the extended
    /// taxonomy, dynamic (`dRDF` / `dDRDF` / `dIRF`) and linked (`LCF`)
    /// classes included. Exact agreement with the scalar backend at
    /// every width is enforced by the differential suite. The default.
    #[default]
    Auto,
    /// The scalar behavioural simulator
    /// ([`SimVerifier`](marchgen_sim::SimVerifier)), one scenario at a
    /// time — the oracle the packed backend is held to.
    Scalar,
}

impl VerifierChoice {
    /// The stable serialization key (`"auto"` / `"scalar"`).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            VerifierChoice::Auto => "auto",
            VerifierChoice::Scalar => "scalar",
        }
    }

    /// Parses a serialization key; `None` for unknown names. The retired
    /// backend names `"bitsim"` and `"wide"` decode as [`Auto`](Self::Auto),
    /// so requests written for them keep working.
    #[must_use]
    pub fn from_key(key: &str) -> Option<VerifierChoice> {
        match key {
            "auto" | "bitsim" | "wide" => Some(VerifierChoice::Auto),
            "scalar" => Some(VerifierChoice::Scalar),
            _ => None,
        }
    }
}

impl fmt::Display for VerifierChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// A complete, self-contained description of one March-test generation
/// run: target fault models plus engine configuration.
///
/// The [`Default`] configuration mirrors the paper's: uniform-start
/// constraint f.4.4, automatic solver dispatch, all-optimal-tour
/// enumeration capped at 64, simulator verification on a 4-cell memory,
/// and minimization to non-redundancy.
///
/// ```
/// use marchgen_generator::GenerateRequest;
///
/// let request = GenerateRequest::from_fault_list("SAF, TF").unwrap();
/// assert_eq!(request.verify_cells, 4);
/// assert!(request.compact);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateRequest {
    /// The fault models the test must cover.
    pub faults: Vec<FaultModel>,
    /// The f.4.4 start constraint (uniform by default).
    pub start_policy: StartPolicy,
    /// Which ATSP solver strategy plans the TP tours.
    pub solver: SolverChoice,
    /// Cap on optimal tours tried per unique TP set (combinations that
    /// collapse to the same set share its tours).
    pub tour_cap: usize,
    /// Memory size for simulator verification; `0` disables verification
    /// (and compaction). JSON decoding rejects values above 64.
    pub verify_cells: usize,
    /// Run the simulator-guided minimization pass (Table 2's role).
    pub compact: bool,
    /// Also run the operation-deletion non-redundancy check (implied
    /// `true` when compaction ran).
    pub check_redundancy: bool,
    /// Cap on equivalence-class combinations examined (the paper's `E`).
    pub max_combinations: usize,
    /// Which verification backend to use (see [`VerifierChoice`]).
    pub verifier: VerifierChoice,
    /// Worker threads for the in-request candidate search; `0` means
    /// one per available CPU. The unique TP sets are planned by
    /// partition: the sets with the same first TP and effective start
    /// policy share one Held–Karp table (cut where their union passes
    /// `held_karp::MAX_NODES`), and each partition is one job for these
    /// workers. Combination enumeration and every verification sweep
    /// run on the calling thread. The thread count never changes the
    /// outcome — results are collected deterministically. JSON decoding
    /// rejects values above 64.
    pub search_threads: usize,
}

impl GenerateRequest {
    /// A request for the given fault models with the paper's default
    /// configuration.
    #[must_use]
    pub fn new(faults: Vec<FaultModel>) -> GenerateRequest {
        GenerateRequest {
            faults,
            start_policy: StartPolicy::Uniform,
            solver: SolverChoice::Auto,
            tour_cap: 64,
            verify_cells: 4,
            compact: true,
            check_redundancy: false,
            max_combinations: 4096,
            verifier: VerifierChoice::Auto,
            search_threads: 0,
        }
    }

    /// Parses a textual fault list (see
    /// [`parse_fault_list`](marchgen_faults::parse_fault_list)).
    ///
    /// # Errors
    ///
    /// Returns the parse error of the first invalid token.
    pub fn from_fault_list(list: &str) -> Result<GenerateRequest, ParseFaultError> {
        Ok(GenerateRequest::new(parse_fault_list(list)?))
    }

    /// Builder-style override of the start policy.
    #[must_use]
    pub fn with_start_policy(mut self, policy: StartPolicy) -> GenerateRequest {
        self.start_policy = policy;
        self
    }

    /// Builder-style override of the solver strategy.
    #[must_use]
    pub fn with_solver(mut self, solver: SolverChoice) -> GenerateRequest {
        self.solver = solver;
        self
    }

    /// Builder-style override of the per-combination tour cap (clamped
    /// to at least 1).
    #[must_use]
    pub fn with_tour_cap(mut self, cap: usize) -> GenerateRequest {
        self.tour_cap = cap.max(1);
        self
    }

    /// Builder-style override of the verification memory size.
    #[must_use]
    pub fn with_verify_cells(mut self, cells: usize) -> GenerateRequest {
        self.verify_cells = cells;
        self
    }

    /// Builder-style toggle of the minimization pass.
    #[must_use]
    pub fn with_compact(mut self, on: bool) -> GenerateRequest {
        self.compact = on;
        self
    }

    /// Builder-style toggle of the non-redundancy check.
    #[must_use]
    pub fn with_check_redundancy(mut self, on: bool) -> GenerateRequest {
        self.check_redundancy = on;
        self
    }

    /// Builder-style override of the combination cap (clamped to at
    /// least 1).
    #[must_use]
    pub fn with_max_combinations(mut self, cap: usize) -> GenerateRequest {
        self.max_combinations = cap.max(1);
        self
    }

    /// Builder-style override of the verification backend.
    #[must_use]
    pub fn with_verifier(mut self, verifier: VerifierChoice) -> GenerateRequest {
        self.verifier = verifier;
        self
    }

    /// Builder-style override of the search worker count (`0` = one per
    /// available CPU).
    #[must_use]
    pub fn with_search_threads(mut self, threads: usize) -> GenerateRequest {
        self.search_threads = threads;
        self
    }

    /// The canonical form of this request: the fault list sorted in
    /// taxonomy order and deduplicated, and the caps clamped to the
    /// builder invariants (≥ 1).
    ///
    /// Two requests describing the same generation problem — e.g. the
    /// same fault models listed in a different order, or a duplicated
    /// model — normalize to the same value, which makes the canonical
    /// form the natural input for content-addressed caching
    /// (`marchgen-cache`). The generated test, tour and verification
    /// verdicts are invariant under normalization (the engine's search
    /// does not depend on fault-list order, and the clamps mirror what
    /// [`GenerateRequest::with_tour_cap`] /
    /// [`GenerateRequest::with_max_combinations`] already enforce); the
    /// one observable difference is presentational — the coverage
    /// report lists its per-model sections in request order, so a
    /// normalized request reports in canonical taxonomy order.
    #[must_use]
    pub fn normalize(mut self) -> GenerateRequest {
        self.faults.sort_unstable();
        self.faults.dedup();
        self.tour_cap = self.tour_cap.max(1);
        self.max_combinations = self.max_combinations.max(1);
        self
    }
}

impl Default for GenerateRequest {
    fn default() -> GenerateRequest {
        GenerateRequest::new(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let req = GenerateRequest::from_fault_list("SAF").unwrap();
        assert_eq!(req.start_policy, StartPolicy::Uniform);
        assert_eq!(req.solver, SolverChoice::Auto);
        assert_eq!(req.tour_cap, 64);
        assert_eq!(req.verify_cells, 4);
        assert!(req.compact);
        assert!(!req.check_redundancy);
        assert_eq!(req.max_combinations, 4096);
        assert_eq!(req.verifier, VerifierChoice::Auto);
        assert_eq!(req.search_threads, 0, "0 = one worker per CPU");
    }

    #[test]
    fn verifier_choice_keys_roundtrip() {
        for choice in [VerifierChoice::Auto, VerifierChoice::Scalar] {
            assert_eq!(VerifierChoice::from_key(choice.key()), Some(choice));
        }
        // The retired backend names decode as `auto`.
        for alias in ["bitsim", "wide"] {
            assert_eq!(VerifierChoice::from_key(alias), Some(VerifierChoice::Auto));
        }
        assert_eq!(VerifierChoice::from_key("bogus"), None);
        assert_eq!(VerifierChoice::Auto.to_string(), "auto");
        assert_eq!(VerifierChoice::Scalar.to_string(), "scalar");
    }

    #[test]
    fn normalize_sorts_dedups_and_clamps() {
        let shuffled = GenerateRequest::from_fault_list("CFin<u>, SAF, TF<d>, SA0").unwrap();
        let sorted = GenerateRequest::from_fault_list("SAF, TF<d>, CFin<u>").unwrap();
        assert_ne!(
            shuffled.faults, sorted.faults,
            "inputs differ pre-normalization"
        );
        assert_eq!(shuffled.normalize(), sorted.normalize());

        let mut raw = GenerateRequest::from_fault_list("SAF").unwrap();
        raw.tour_cap = 0;
        raw.max_combinations = 0;
        let normal = raw.normalize();
        assert_eq!(normal.tour_cap, 1);
        assert_eq!(normal.max_combinations, 1);
    }

    /// Normalization is idempotent and preserves already-canonical
    /// requests untouched.
    #[test]
    fn normalize_is_idempotent() {
        let req = GenerateRequest::from_fault_list("SAF, TF, CFin").unwrap();
        let once = req.clone().normalize();
        assert_eq!(once.clone().normalize(), once);
    }

    #[test]
    fn builder_chain() {
        let req = GenerateRequest::default()
            .with_solver(SolverChoice::HeldKarp)
            .with_start_policy(StartPolicy::Free)
            .with_tour_cap(0)
            .with_verify_cells(6)
            .with_compact(false)
            .with_check_redundancy(true)
            .with_max_combinations(0)
            .with_verifier(VerifierChoice::Scalar)
            .with_search_threads(4);
        assert_eq!(req.solver, SolverChoice::HeldKarp);
        assert_eq!(req.verifier, VerifierChoice::Scalar);
        assert_eq!(req.search_threads, 4);
        assert_eq!(req.start_policy, StartPolicy::Free);
        assert_eq!(req.tour_cap, 1, "tour cap clamps to 1");
        assert_eq!(req.max_combinations, 1, "combination cap clamps to 1");
        assert_eq!(req.verify_cells, 6);
        assert!(!req.compact);
        assert!(req.check_redundancy);
    }
}
