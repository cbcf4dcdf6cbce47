//! [`GenerateOutcome`] — the typed, serializable result of one
//! generation run, with structured per-phase [`Diagnostics`].

use marchgen_faults::TestPattern;
use marchgen_march::MarchTest;
use marchgen_sim::coverage::CoverageReport;

/// The result of running a [`GenerateRequest`](crate::GenerateRequest).
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateOutcome {
    /// The best March test found.
    pub test: MarchTest,
    /// The Test Pattern tour it was built from.
    pub tour: Vec<TestPattern>,
    /// `true` when the verifier confirmed full coverage of every
    /// requested model (always checked unless `verify_cells` is 0).
    pub verified: bool,
    /// Verifier coverage report (present when verification ran).
    pub report: Option<CoverageReport>,
    /// Operational non-redundancy (present when requested): no single
    /// operation can be deleted without losing coverage.
    pub non_redundant: Option<bool>,
    /// Structured per-phase statistics of the run.
    pub diagnostics: Diagnostics,
}

impl GenerateOutcome {
    /// The generated test's complexity (operations per cell).
    #[must_use]
    pub fn complexity(&self) -> usize {
        self.test.complexity()
    }
}

/// Per-phase statistics of a generation run: how much of the search
/// space was examined and where the time went.
///
/// Timings are integral microseconds so outcomes serialize losslessly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diagnostics {
    /// The ATSP solver backend the run resolved its
    /// [`SolverChoice`](marchgen_atsp::SolverChoice) to (the registry
    /// name: `"auto"`, `"held-karp"`, `"local-search"`, ...). Empty on
    /// documents predating the solver diagnostics.
    pub solver: String,
    /// Improving local-search moves applied across all TP-set solves
    /// (zero when only exact backends ran).
    pub solver_iterations: u64,
    /// Local-search perturbation restarts across all TP-set solves
    /// (zero when only exact backends ran).
    pub solver_restarts: u64,
    /// Equivalence-class combinations examined (the paper's `E`).
    pub combinations: usize,
    /// Distinct post-subsumption TP sets among them (the memoized
    /// ATSP instances actually solved).
    pub unique_tp_sets: usize,
    /// Optimal tours returned by the solver, summed over the unique TP
    /// sets (each set counts once, however many combinations collapse
    /// to it).
    pub tours_tried: usize,
    /// March candidates scheduled from tours: every tour that
    /// scheduled into a read-consistent test, repeats of one test
    /// included.
    pub candidates: usize,
    /// Complexities of the candidates, ascending — the shape of the
    /// search frontier the verifier walked. After the sort, a candidate
    /// equal to the one just before it is dropped; repeats that do not
    /// end up adjacent stay, so one test can appear more than once.
    pub candidate_complexities: Vec<usize>,
    /// Time expanding the fault list into coverage requirements, µs.
    pub expand_micros: u64,
    /// Time enumerating combinations, solving tours and scheduling
    /// March candidates, µs.
    pub search_micros: u64,
    /// Time spent in the verifier (coverage, compaction, redundancy), µs.
    pub verify_micros: u64,
    /// Per-set planning times, µs: one entry per unique TP set, in
    /// deterministic first-seen order, so the *length* is independent
    /// of the thread count; only the values vary run to run. An entry
    /// is the time enumerating that set's optimal tours and scheduling
    /// them into March candidates. Sets that share a Held–Karp table
    /// are planned together, and the first set of each table also
    /// carries the table's build, so the entries sum to the planning
    /// work of the search. Entries planned on different threads overlap
    /// in wall time.
    pub shard_micros: Vec<u64>,
    /// The verification backend the run resolved its
    /// [`VerifierChoice`](crate::VerifierChoice) to (the trait name:
    /// `"simulator"` or `"widesim"`; documents written before the 64-lane
    /// backend was retired may carry `"bitsim"`). Empty when verification
    /// was disabled (`verify_cells == 0`) or on documents predating the
    /// verifier diagnostics.
    pub verifier: String,
    /// Per-sweep verify times, µs: one entry per coverage sweep the
    /// pipeline ran — each screened candidate, then the final or
    /// fallback re-verify — in the order they ran. The sweeps run on the
    /// calling thread, so the *length* is independent of the thread
    /// count and of the backend, and the sum is at most
    /// `verify_micros`. Documents written before sweeps ran inline hold
    /// one entry per shard of each sweep instead, and documents
    /// predating the field an empty list. The field goes once
    /// `perfbench`'s composed pipeline stops writing it.
    pub verify_shard_micros: Vec<u64>,
    /// `true` when this outcome was replayed from a content-addressed
    /// cache (`marchgen-cache`) rather than computed by the pipeline.
    /// Freshly computed outcomes always carry `false`; the cache
    /// re-stamps the flag on every hit. Excluded (with the timings) from
    /// byte-comparability claims: two outcomes for the same request are
    /// equal modulo `Diagnostics`.
    pub cache_hit: bool,
}

impl Diagnostics {
    /// Total accounted time across all phases, µs.
    #[must_use]
    pub fn total_micros(&self) -> u64 {
        self.expand_micros + self.search_micros + self.verify_micros
    }
}
