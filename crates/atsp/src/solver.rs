//! The solver seam: the [`AtspSolver`] extension trait, the built-in
//! implementations (with [`AutoSolver`] as the size dispatcher) and a
//! by-name [`SolverRegistry`].

use crate::instance::{AtspInstance, Tour};
use crate::{branch_bound, held_karp, heuristics, local_search};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Largest instance the size-dispatching [`AutoSolver`] still solves
/// *exactly* (Held–Karp up to its table limit, branch-and-bound up to
/// here); beyond it the Lin–Kernighan-style local search takes over.
pub const EXACT_THRESHOLD: usize = 40;

/// Statistics of one solver invocation, surfaced by the request layer's
/// diagnostics. Exact solvers report zeros; the local search counts its
/// improving moves and perturbation rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Improving local-search moves applied.
    pub iterations: u64,
    /// Perturbation restarts performed.
    pub restarts: u64,
}

impl SolveStats {
    /// Accumulates another invocation's counters (requests solve one
    /// ATSP instance per unique TP set).
    pub fn absorb(&mut self, other: SolveStats) {
        self.iterations += other.iterations;
        self.restarts += other.restarts;
    }
}

/// A pluggable ATSP solving strategy.
///
/// The March generator talks to the ATSP layer exclusively through this
/// trait, so alternative backends (an ILP solver, an external service, a
/// tuned metaheuristic) can be dropped in via [`SolverRegistry`] without
/// touching the pipeline.
///
/// Implementations must be `Send + Sync`: the batch service layer shares
/// one solver across worker threads.
pub trait AtspSolver: Send + Sync {
    /// A short stable identifier (used by [`SolverRegistry`] and the
    /// serialized request format).
    fn name(&self) -> &str;

    /// Solves the instance, returning one tour (the best the strategy
    /// can produce; exact strategies return an optimum).
    fn solve(&self, instance: &AtspInstance) -> Tour;

    /// `true` when [`AtspSolver::solve`] is guaranteed optimal for this
    /// instance.
    fn is_exact_for(&self, instance: &AtspInstance) -> bool;

    /// Enumerates optimal tours up to `cap`. The default returns the
    /// single [`AtspSolver::solve`] tour; strategies that can enumerate
    /// (Held–Karp) override this — the March constructor tries every
    /// optimal tour and keeps the shortest test.
    fn solve_all_optimal(&self, instance: &AtspInstance, cap: usize) -> Vec<Tour> {
        let _ = cap;
        vec![self.solve(instance)]
    }

    /// [`AtspSolver::solve_all_optimal`] plus the invocation's
    /// [`SolveStats`]. The default reports zeros (exact strategies do no
    /// iterative search); the local-search backend overrides it so the
    /// request layer can surface iteration and restart counts in its
    /// diagnostics.
    fn solve_all_optimal_with_stats(
        &self,
        instance: &AtspInstance,
        cap: usize,
    ) -> (Vec<Tour>, SolveStats) {
        (self.solve_all_optimal(instance, cap), SolveStats::default())
    }

    /// Solves a family of sub-instances of one cost matrix. Member `k`
    /// is the instance induced by `members[k]`, distinct nodes of
    /// `instance` in ascending order.
    ///
    /// `visit(k, tours, stats)` is called once per member, with what
    /// [`AtspSolver::solve_all_optimal_with_stats`] returns for
    /// `instance.induced(&members[k])`: the member's tours in
    /// member-local indices. The order of the calls is the strategy's;
    /// a caller can time the gaps between them to charge each member its
    /// share of the work. The default solves each member on its own;
    /// [`HeldKarpSolver`] and [`AutoSolver`] share Held–Karp tables
    /// between the members that fit [`held_karp::MAX_NODES`].
    fn solve_family(
        &self,
        instance: &AtspInstance,
        members: &[Vec<usize>],
        cap: usize,
        visit: &mut dyn FnMut(usize, Vec<Tour>, SolveStats),
    ) {
        for (k, nodes) in members.iter().enumerate() {
            let (tours, stats) = self.solve_all_optimal_with_stats(&instance.induced(nodes), cap);
            visit(k, tours, stats);
        }
    }
}

/// The family solve of the Held–Karp strategies: members within
/// [`held_karp::MAX_NODES`] share tables, larger ones take `solver`'s
/// own per-instance path.
fn solve_family_shared(
    solver: &dyn AtspSolver,
    instance: &AtspInstance,
    members: &[Vec<usize>],
    cap: usize,
    visit: &mut dyn FnMut(usize, Vec<Tour>, SolveStats),
) {
    held_karp::solve_family(instance, members, cap, &mut |k, tours| {
        visit(k, tours, SolveStats::default());
    });
    for (k, nodes) in members.iter().enumerate() {
        if nodes.len() > held_karp::MAX_NODES {
            let (tours, stats) = solver.solve_all_optimal_with_stats(&instance.induced(nodes), cap);
            visit(k, tours, stats);
        }
    }
}

/// Exact Held–Karp dynamic programming with all-optimal-tour
/// enumeration; instances beyond [`held_karp::MAX_NODES`] fall back to
/// branch-and-bound (which cannot enumerate).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeldKarpSolver;

impl AtspSolver for HeldKarpSolver {
    fn name(&self) -> &str {
        "held-karp"
    }

    fn solve(&self, instance: &AtspInstance) -> Tour {
        if instance.len() <= held_karp::MAX_NODES {
            held_karp::solve(instance)
        } else {
            branch_bound::solve(instance)
        }
    }

    fn is_exact_for(&self, _instance: &AtspInstance) -> bool {
        true
    }

    fn solve_all_optimal(&self, instance: &AtspInstance, cap: usize) -> Vec<Tour> {
        if instance.len() <= held_karp::MAX_NODES {
            held_karp::solve_all(instance, cap)
        } else {
            vec![branch_bound::solve(instance)]
        }
    }

    fn solve_family(
        &self,
        instance: &AtspInstance,
        members: &[Vec<usize>],
        cap: usize,
        visit: &mut dyn FnMut(usize, Vec<Tour>, SolveStats),
    ) {
        solve_family_shared(self, instance, members, cap, visit);
    }
}

/// Exact AP-relaxation branch-and-bound (single optimal tour).
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchBoundSolver;

impl AtspSolver for BranchBoundSolver {
    fn name(&self) -> &str {
        "branch-bound"
    }

    fn solve(&self, instance: &AtspInstance) -> Tour {
        branch_bound::solve(instance)
    }

    fn is_exact_for(&self, _instance: &AtspInstance) -> bool {
        true
    }
}

/// Heuristic construction + Or-opt improvement; fast but inexact.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeuristicSolver;

impl AtspSolver for HeuristicSolver {
    fn name(&self) -> &str {
        "heuristic"
    }

    fn solve(&self, instance: &AtspInstance) -> Tour {
        heuristics::construct(instance)
    }

    fn is_exact_for(&self, _instance: &AtspInstance) -> bool {
        false
    }
}

/// Lin–Kernighan-style local search ([`local_search`]): candidate-list
/// guided Or-opt/2-opt descent with don't-look bits and deterministic
/// seeded restarts. Inexact but near-optimal, and the backend of choice
/// for instances beyond the exact solvers' range.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSearchSolver;

impl AtspSolver for LocalSearchSolver {
    fn name(&self) -> &str {
        "local-search"
    }

    fn solve(&self, instance: &AtspInstance) -> Tour {
        local_search::solve(instance)
    }

    fn is_exact_for(&self, _instance: &AtspInstance) -> bool {
        false
    }

    fn solve_all_optimal_with_stats(
        &self,
        instance: &AtspInstance,
        _cap: usize,
    ) -> (Vec<Tour>, SolveStats) {
        let (tour, stats) =
            local_search::solve_with_stats(instance, &local_search::Config::default());
        (vec![tour], stats)
    }
}

/// Size-dispatching default: Held–Karp (with enumeration) up to its
/// table limit [`held_karp::MAX_NODES`], branch-and-bound up to
/// [`EXACT_THRESHOLD`] nodes, the Lin–Kernighan-style local search
/// beyond. The exact path is retained as the cross-check oracle for the
/// local search in the differential test suites.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoSolver;

impl AtspSolver for AutoSolver {
    fn name(&self) -> &str {
        "auto"
    }

    fn solve(&self, instance: &AtspInstance) -> Tour {
        let n = instance.len();
        if n <= held_karp::MAX_NODES {
            held_karp::solve(instance)
        } else if n <= EXACT_THRESHOLD {
            branch_bound::solve(instance)
        } else {
            local_search::solve(instance)
        }
    }

    fn is_exact_for(&self, instance: &AtspInstance) -> bool {
        instance.len() <= EXACT_THRESHOLD
    }

    fn solve_all_optimal(&self, instance: &AtspInstance, cap: usize) -> Vec<Tour> {
        if instance.len() <= held_karp::MAX_NODES {
            held_karp::solve_all(instance, cap)
        } else {
            vec![self.solve(instance)]
        }
    }

    fn solve_all_optimal_with_stats(
        &self,
        instance: &AtspInstance,
        cap: usize,
    ) -> (Vec<Tour>, SolveStats) {
        if instance.len() > EXACT_THRESHOLD {
            LocalSearchSolver.solve_all_optimal_with_stats(instance, cap)
        } else {
            (self.solve_all_optimal(instance, cap), SolveStats::default())
        }
    }

    fn solve_family(
        &self,
        instance: &AtspInstance,
        members: &[Vec<usize>],
        cap: usize,
        visit: &mut dyn FnMut(usize, Vec<Tour>, SolveStats),
    ) {
        solve_family_shared(self, instance, members, cap, visit);
    }
}

/// The solver requested by a generation run — serializable by name, and
/// resolved against a [`SolverRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum SolverChoice {
    /// Size-dispatching default ([`AutoSolver`]).
    #[default]
    Auto,
    /// Exact with all-optimal enumeration ([`HeldKarpSolver`]).
    HeldKarp,
    /// Exact, single tour ([`BranchBoundSolver`]).
    BranchBound,
    /// Inexact but fast ([`HeuristicSolver`]).
    Heuristic,
    /// Lin–Kernighan-style local search ([`LocalSearchSolver`]).
    LocalSearch,
    /// A custom strategy registered under this name.
    Custom(String),
}

impl SolverChoice {
    /// The registry key for this choice.
    #[must_use]
    pub fn key(&self) -> &str {
        match self {
            SolverChoice::Auto => "auto",
            SolverChoice::HeldKarp => "held-karp",
            SolverChoice::BranchBound => "branch-bound",
            SolverChoice::Heuristic => "heuristic",
            SolverChoice::LocalSearch => "local-search",
            SolverChoice::Custom(name) => name,
        }
    }

    /// Parses a registry key back into a choice (never fails: unknown
    /// names become [`SolverChoice::Custom`] and are validated at
    /// resolution time).
    #[must_use]
    pub fn from_key(key: &str) -> SolverChoice {
        match key {
            "auto" => SolverChoice::Auto,
            "held-karp" => SolverChoice::HeldKarp,
            "branch-bound" => SolverChoice::BranchBound,
            "heuristic" => SolverChoice::Heuristic,
            "local-search" => SolverChoice::LocalSearch,
            other => SolverChoice::Custom(other.to_owned()),
        }
    }
}

impl fmt::Display for SolverChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Error returned when a [`SolverChoice`] names no registered solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSolverError {
    /// The unresolved registry key.
    pub name: String,
}

impl fmt::Display for UnknownSolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no ATSP solver registered under {:?}", self.name)
    }
}

impl std::error::Error for UnknownSolverError {}

/// A by-name registry of [`AtspSolver`] strategies.
///
/// [`SolverRegistry::default`] carries the five built-ins (`auto`,
/// `held-karp`, `branch-bound`, `heuristic`, `local-search`); callers
/// add their own with
/// [`SolverRegistry::register`] and select them per request through
/// [`SolverChoice::Custom`].
///
/// ```
/// use marchgen_atsp::{AtspInstance, AtspSolver, SolverChoice, SolverRegistry, Tour};
///
/// struct FixedOrder;
/// impl AtspSolver for FixedOrder {
///     fn name(&self) -> &str { "fixed" }
///     fn solve(&self, inst: &AtspInstance) -> Tour {
///         Tour::new(inst, (0..inst.len()).collect())
///     }
///     fn is_exact_for(&self, _inst: &AtspInstance) -> bool { false }
/// }
///
/// let mut registry = SolverRegistry::default();
/// registry.register(FixedOrder);
/// let solver = registry.resolve(&SolverChoice::Custom("fixed".into())).unwrap();
/// assert_eq!(solver.name(), "fixed");
/// ```
#[derive(Clone)]
pub struct SolverRegistry {
    solvers: BTreeMap<String, Arc<dyn AtspSolver>>,
}

impl Default for SolverRegistry {
    fn default() -> SolverRegistry {
        let mut registry = SolverRegistry {
            solvers: BTreeMap::new(),
        };
        registry.register(AutoSolver);
        registry.register(HeldKarpSolver);
        registry.register(BranchBoundSolver);
        registry.register(HeuristicSolver);
        registry.register(LocalSearchSolver);
        registry
    }
}

impl fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl SolverRegistry {
    /// An empty registry (no built-ins).
    #[must_use]
    pub fn empty() -> SolverRegistry {
        SolverRegistry {
            solvers: BTreeMap::new(),
        }
    }

    /// Registers a strategy under its [`AtspSolver::name`], replacing
    /// any previous entry with that name.
    pub fn register(&mut self, solver: impl AtspSolver + 'static) {
        self.register_arc(Arc::new(solver));
    }

    /// Registers an already-shared strategy.
    pub fn register_arc(&mut self, solver: Arc<dyn AtspSolver>) {
        self.solvers.insert(solver.name().to_owned(), solver);
    }

    /// Looks a strategy up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<dyn AtspSolver>> {
        self.solvers.get(name).cloned()
    }

    /// Resolves a request's [`SolverChoice`].
    ///
    /// # Errors
    ///
    /// [`UnknownSolverError`] when nothing is registered under the
    /// choice's key.
    pub fn resolve(
        &self,
        choice: &SolverChoice,
    ) -> Result<Arc<dyn AtspSolver>, UnknownSolverError> {
        self.get(choice.key()).ok_or_else(|| UnknownSolverError {
            name: choice.key().to_owned(),
        })
    }

    /// The registered names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.solvers.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random instance (xorshift costs below 100).
    fn random_instance(n: usize, mut state: u64) -> AtspInstance {
        AtspInstance::from_fn(n, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 100
        })
    }

    /// `AutoSolver` runs Held–Karp through [`held_karp::MAX_NODES`],
    /// branch-and-bound through [`EXACT_THRESHOLD`] and the local search
    /// beyond: on each side of both thresholds it returns the tour of
    /// the method it names, and only the Held–Karp side enumerates ties.
    #[test]
    fn auto_dispatches_by_size() {
        type Method = fn(&AtspInstance) -> Tour;
        let sides: [(usize, Method); 4] = [
            (held_karp::MAX_NODES, held_karp::solve),
            (held_karp::MAX_NODES + 1, branch_bound::solve),
            (EXACT_THRESHOLD, branch_bound::solve),
            (EXACT_THRESHOLD + 1, local_search::solve),
        ];
        for (n, method) in sides {
            let inst = random_instance(n, 0x5eed_u64 + n as u64);
            assert_eq!(AutoSolver.solve(&inst), method(&inst), "n = {n}");
            assert_eq!(AutoSolver.is_exact_for(&inst), n <= EXACT_THRESHOLD);
        }
        let ties = |n| AtspInstance::from_fn(n, |_, _| 1);
        let enumerated = AutoSolver.solve_all_optimal(&ties(held_karp::MAX_NODES), 3);
        assert_eq!(enumerated.len(), 3);
        let single = AutoSolver.solve_all_optimal(&ties(held_karp::MAX_NODES + 1), 3);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].cost, held_karp::MAX_NODES as u64 + 1);
    }

    #[test]
    fn registry_resolves_builtins() {
        let registry = SolverRegistry::default();
        assert_eq!(
            registry.names(),
            vec![
                "auto",
                "branch-bound",
                "held-karp",
                "heuristic",
                "local-search"
            ]
        );
        for choice in [
            SolverChoice::Auto,
            SolverChoice::HeldKarp,
            SolverChoice::BranchBound,
            SolverChoice::Heuristic,
            SolverChoice::LocalSearch,
        ] {
            let solver = registry.resolve(&choice).expect("built-in resolves");
            assert_eq!(solver.name(), choice.key());
            assert_eq!(SolverChoice::from_key(choice.key()), choice);
        }
        let err = registry
            .resolve(&SolverChoice::Custom("nope".into()))
            .err()
            .expect("must fail");
        assert_eq!(err.name, "nope");
    }

    #[test]
    fn trait_solvers_match_free_functions() {
        let inst = AtspInstance::from_rows(vec![
            vec![0, 2, 9, 10],
            vec![1, 0, 6, 4],
            vec![15, 7, 0, 8],
            vec![6, 3, 12, 0],
        ]);
        let opt = held_karp::solve(&inst).cost;
        for choice in [
            SolverChoice::Auto,
            SolverChoice::HeldKarp,
            SolverChoice::BranchBound,
        ] {
            let solver = SolverRegistry::default().resolve(&choice).unwrap();
            assert_eq!(solver.solve(&inst).cost, opt, "{choice}");
            assert!(solver.is_exact_for(&inst));
            for tour in solver.solve_all_optimal(&inst, 16) {
                assert_eq!(tour.cost, opt);
                assert!(inst.is_valid_tour(&tour.order));
            }
        }
        let heuristic = HeuristicSolver;
        assert!(heuristic.solve(&inst).cost >= opt);
        assert!(!heuristic.is_exact_for(&inst));
        let local = LocalSearchSolver;
        assert!(local.solve(&inst).cost >= opt);
        assert!(!local.is_exact_for(&inst));
    }

    /// The local-search backend surfaces its work through the stats
    /// variant; exact backends report zeros.
    #[test]
    fn solve_stats_plumbing() {
        let inst = random_instance(14, 0x1234_5678);
        let (tours, stats) = LocalSearchSolver.solve_all_optimal_with_stats(&inst, 8);
        assert_eq!(tours.len(), 1);
        assert!(stats.restarts > 0);
        let (_, exact_stats) = HeldKarpSolver.solve_all_optimal_with_stats(&inst, 8);
        assert_eq!(exact_stats, SolveStats::default());
        let mut sum = SolveStats::default();
        sum.absorb(stats);
        sum.absorb(stats);
        assert_eq!(sum.restarts, 2 * stats.restarts);
    }

    /// `Auto` stays exact through [`EXACT_THRESHOLD`] and hands larger
    /// instances to the local search (visible through its stats).
    #[test]
    fn auto_dispatches_to_local_search_beyond_the_exact_threshold() {
        let big = random_instance(EXACT_THRESHOLD + 2, 0x9876);
        assert!(!AutoSolver.is_exact_for(&big));
        let (tours, stats) = AutoSolver.solve_all_optimal_with_stats(&big, 4);
        assert_eq!(tours.len(), 1);
        assert!(stats.restarts > 0, "local search ran");
        assert!(big.is_valid_tour(&tours[0].order));

        let small = AtspInstance::from_rows(vec![vec![0, 1, 9], vec![9, 0, 1], vec![1, 9, 0]]);
        assert!(AutoSolver.is_exact_for(&small));
        let (_, stats) = AutoSolver.solve_all_optimal_with_stats(&small, 4);
        assert_eq!(stats, SolveStats::default(), "exact path reports zeros");
    }

    #[test]
    fn all_solvers_agree_on_a_fixed_instance() {
        let inst = AtspInstance::from_rows(vec![
            vec![0, 2, 9, 10],
            vec![1, 0, 6, 4],
            vec![15, 7, 0, 8],
            vec![6, 3, 12, 0],
        ]);
        let hk = held_karp::solve(&inst);
        let bb = branch_bound::solve(&inst);
        assert_eq!(hk.cost, bb.cost);
        let h = heuristics::construct(&inst);
        assert!(h.cost >= hk.cost);
    }
}
