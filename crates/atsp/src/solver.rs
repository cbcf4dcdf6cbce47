//! The solver seam: the [`AtspSolver`] extension trait, the built-in
//! implementations (with [`AutoSolver`] as the exact default) and a
//! by-name [`SolverRegistry`].

use crate::instance::{AtspInstance, Tour};
use crate::{branch_bound, held_karp, heuristics};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Statistics of one solver invocation, surfaced by the request layer's
/// diagnostics. The built-in strategies do no iterative search and
/// report zeros; a strategy registered in a [`SolverRegistry`] reports
/// its own work here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Improving moves (or other search iterations) the strategy applied.
    pub iterations: u64,
    /// Restarts the strategy performed.
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

/// Receives the optimal tours of a family solve
/// ([`AtspSolver::solve_family`]), member by member. A member's tours
/// arrive in one run of [`TourSink::tour`] calls, in the order its
/// per-instance enumeration returns them, followed by one
/// [`TourSink::end`] call.
pub trait TourSink {
    /// One optimal tour of member `k`: its nodes in member-local
    /// indices, starting at node 0, and its cost. The slice is lent from
    /// the solver's buffer for this call only.
    fn tour(&mut self, k: usize, order: &[usize], cost: u64);

    /// Member `k` has no more tours; `stats` are the solver's counters
    /// for it.
    fn end(&mut self, k: usize, stats: SolveStats);
}

/// Lends each of member `k`'s `tours` to `sink`, then ends the member.
pub(crate) fn lend(sink: &mut dyn TourSink, k: usize, tours: &[Tour], stats: SolveStats) {
    for tour in tours {
        sink.tour(k, &tour.order, tour.cost);
    }
    sink.end(k, stats);
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
    /// [`SolveStats`]. The default reports zeros, as every built-in
    /// strategy does; a registered strategy that searches iteratively
    /// overrides it so the request layer can surface its iteration and
    /// restart counts in its diagnostics.
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
    /// Each member's tours go to `sink` (see [`TourSink`]): exactly the
    /// tours, in member-local indices and in the order, that
    /// [`AtspSolver::solve_all_optimal_with_stats`] returns for
    /// `instance.induced(&members[k])`, then one end call with its
    /// statistics. The order of the members is the strategy's; a caller
    /// can time the gaps between end calls to charge each member its
    /// share of the work. The default solves each member on its own and
    /// lends each [`Tour::order`]; [`AutoSolver`] shares Held–Karp tables
    /// between the members that fit [`held_karp::MAX_NODES`] and lends
    /// their tours from the enumeration's buffer, with nothing
    /// allocated per tour.
    fn solve_family(
        &self,
        instance: &AtspInstance,
        members: &[Vec<usize>],
        cap: usize,
        sink: &mut dyn TourSink,
    ) {
        for (k, nodes) in members.iter().enumerate() {
            let (tours, stats) = self.solve_all_optimal_with_stats(&instance.induced(nodes), cap);
            lend(sink, k, &tours, stats);
        }
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

/// The exact default: Held–Karp with enumeration of every optimal tour
/// up to its table limit [`held_karp::MAX_NODES`], branch-and-bound's
/// single optimal tour beyond. A family solve shares Held–Karp tables
/// between the members within [`held_karp::MAX_NODES`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoSolver;

impl AtspSolver for AutoSolver {
    fn name(&self) -> &str {
        "auto"
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
        sink: &mut dyn TourSink,
    ) {
        held_karp::solve_family(instance, members, cap, sink);
        for (k, nodes) in members.iter().enumerate() {
            if nodes.len() > held_karp::MAX_NODES {
                let tours = self.solve_all_optimal(&instance.induced(nodes), cap);
                lend(sink, k, &tours, SolveStats::default());
            }
        }
    }
}

/// The solver requested by a generation run — serializable by name, and
/// resolved against a [`SolverRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum SolverChoice {
    /// The exact default ([`AutoSolver`]).
    #[default]
    Auto,
    /// Exact, single tour ([`BranchBoundSolver`]).
    BranchBound,
    /// Inexact but fast ([`HeuristicSolver`]).
    Heuristic,
    /// A custom strategy registered under this name.
    Custom(String),
}

impl SolverChoice {
    /// The registry key for this choice.
    #[must_use]
    pub fn key(&self) -> &str {
        match self {
            SolverChoice::Auto => "auto",
            SolverChoice::BranchBound => "branch-bound",
            SolverChoice::Heuristic => "heuristic",
            SolverChoice::Custom(name) => name,
        }
    }

    /// Parses a registry key back into a choice (never fails: unknown
    /// names become [`SolverChoice::Custom`] and are validated at
    /// resolution time). The retired backend names `"held-karp"` and
    /// `"local-search"` decode as [`Auto`](Self::Auto), so requests
    /// written for them keep working.
    #[must_use]
    pub fn from_key(key: &str) -> SolverChoice {
        match key {
            "auto" | "held-karp" | "local-search" => SolverChoice::Auto,
            "branch-bound" => SolverChoice::BranchBound,
            "heuristic" => SolverChoice::Heuristic,
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
/// [`SolverRegistry::default`] carries the three built-ins (`auto`,
/// `branch-bound`, `heuristic`); callers add their own with
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
        registry.register(BranchBoundSolver);
        registry.register(HeuristicSolver);
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

    /// `AutoSolver` runs Held–Karp through [`held_karp::MAX_NODES`] and
    /// branch-and-bound beyond, past the old 40-node threshold too: on
    /// each side it returns the tour of the method it names, it is
    /// exact everywhere, and only the Held–Karp side enumerates ties.
    #[test]
    fn auto_dispatches_by_size() {
        type Method = fn(&AtspInstance) -> Tour;
        let sides: [(usize, Method); 4] = [
            (held_karp::MAX_NODES, held_karp::solve),
            (held_karp::MAX_NODES + 1, branch_bound::solve),
            (40, branch_bound::solve),
            (41, branch_bound::solve),
        ];
        for (n, method) in sides {
            let inst = random_instance(n, 0x5eed_u64 + n as u64);
            assert_eq!(AutoSolver.solve(&inst), method(&inst), "n = {n}");
            assert!(AutoSolver.is_exact_for(&inst), "n = {n}");
        }
        let ties = |n| AtspInstance::from_fn(n, |_, _| 1);
        let enumerated = AutoSolver.solve_all_optimal(&ties(held_karp::MAX_NODES), 3);
        assert_eq!(enumerated.len(), 3);
        let single = AutoSolver.solve_all_optimal(&ties(held_karp::MAX_NODES + 1), 3);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].cost, held_karp::MAX_NODES as u64 + 1);
    }

    /// The perf smoke's 48- and 60-node instances (seeded as its
    /// `solver_bench_instance` seeds them): `auto` returns the
    /// branch-and-bound optimum there and says it is exact.
    #[test]
    fn auto_is_exact_past_the_old_threshold() {
        for (n, seed) in [(48usize, 23u64), (60, 5)] {
            let inst = random_instance(n, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            assert!(AutoSolver.is_exact_for(&inst), "n = {n}");
            let optimum = branch_bound::solve(&inst).cost;
            assert_eq!(AutoSolver.solve(&inst).cost, optimum, "n = {n}");
            let tours = AutoSolver.solve_all_optimal(&inst, 4);
            assert_eq!(tours.len(), 1, "n = {n}");
            assert_eq!(tours[0].cost, optimum, "n = {n}");
        }
    }

    #[test]
    fn registry_resolves_builtins() {
        let registry = SolverRegistry::default();
        assert_eq!(registry.names(), vec!["auto", "branch-bound", "heuristic"]);
        for choice in [
            SolverChoice::Auto,
            SolverChoice::BranchBound,
            SolverChoice::Heuristic,
        ] {
            let solver = registry.resolve(&choice).expect("built-in resolves");
            assert_eq!(solver.name(), choice.key());
            assert_eq!(SolverChoice::from_key(choice.key()), choice);
        }
        for retired in ["held-karp", "local-search"] {
            assert_eq!(SolverChoice::from_key(retired), SolverChoice::Auto);
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
        for choice in [SolverChoice::Auto, SolverChoice::BranchBound] {
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
    }

    /// A registered strategy that reports its work: one restart and one
    /// iteration per node of every instance it solves.
    struct Counting;

    impl AtspSolver for Counting {
        fn name(&self) -> &str {
            "counting"
        }

        fn solve(&self, instance: &AtspInstance) -> Tour {
            AutoSolver.solve(instance)
        }

        fn is_exact_for(&self, _instance: &AtspInstance) -> bool {
            true
        }

        fn solve_all_optimal_with_stats(
            &self,
            instance: &AtspInstance,
            _cap: usize,
        ) -> (Vec<Tour>, SolveStats) {
            let stats = SolveStats {
                iterations: instance.len() as u64,
                restarts: 1,
            };
            (vec![self.solve(instance)], stats)
        }
    }

    /// A custom strategy's [`SolveStats`] reach every member through
    /// the trait's default family solve and add up with `absorb`; the
    /// built-ins report zeros.
    #[test]
    fn solve_stats_plumbing() {
        let inst = random_instance(9, 0x1234_5678);
        let members = vec![vec![0, 1, 2], vec![1, 3, 5, 7, 8], (0..9).collect()];
        let mut registry = SolverRegistry::default();
        registry.register(Counting);
        let counting = registry
            .resolve(&SolverChoice::Custom("counting".into()))
            .expect("registered");
        let mut counted = Counted::default();
        counting.solve_family(&inst, &members, 8, &mut counted);
        let mut sum = SolveStats::default();
        for &(k, tours, stats) in &counted.ended {
            assert_eq!(tours, 1);
            assert_eq!(stats.iterations, members[k].len() as u64);
            sum.absorb(stats);
        }
        assert_eq!((sum.iterations, sum.restarts), (3 + 5 + 9, 3));
        for name in registry.names().into_iter().filter(|&n| n != "counting") {
            let solver = registry.get(name).expect("built-in");
            let (_, stats) = solver.solve_all_optimal_with_stats(&inst, 8);
            assert_eq!(stats, SolveStats::default(), "{name}");
            let mut counted = Counted::default();
            solver.solve_family(&inst, &members, 8, &mut counted);
            assert_eq!(counted.ended.len(), members.len(), "{name}");
            for &(_, _, stats) in &counted.ended {
                assert_eq!(stats, SolveStats::default(), "{name}");
            }
        }
    }

    /// Each member's number of tours and statistics, in the order the
    /// members end.
    #[derive(Default)]
    struct Counted {
        ended: Vec<(usize, usize, SolveStats)>,
        run: usize,
    }

    impl TourSink for Counted {
        fn tour(&mut self, _k: usize, _order: &[usize], _cost: u64) {
            self.run += 1;
        }

        fn end(&mut self, k: usize, stats: SolveStats) {
            self.ended.push((k, std::mem::take(&mut self.run), stats));
        }
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
