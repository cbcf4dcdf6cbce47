//! Reduction of the minimum-weight TPG *path* problem to the ATSP, with
//! the paper's start constraint (f.4.4).
//!
//! A GTS is an open path (first and last TP differ), while ATSP solutions
//! are cycles; the paper closes the cycle with dummy nodes. We use the
//! standard single-dummy construction (equivalent to the paper's
//! two-dummy one): a virtual node `D` with
//!
//! * `cost(x → D) = 0` for every TP `x` (the path may end anywhere), and
//! * `cost(D → y) = init_cost(y)` when `y` is an allowed start, `∞`
//!   otherwise.
//!
//! Charging the *initialization writes* on the dummy's outgoing arc makes
//! the ATSP objective equal the exact GTS operation count (up to the
//! fixed per-TP excitation/observation operations), so "minimum-weight
//! tour" and "minimum-length GTS" coincide.
//!
//! A request plans many TP sets drawn from one pool of TPs.
//! [`TourFamily`] builds the pool's instance once and plans each set as
//! the sub-instance on its TPs and the dummy, through
//! [`AtspSolver::solve_family`], and streams each plan into a
//! [`PlanSink`]. [`plan_tour`] and its variants collect that stream for
//! one TPG.

use crate::graph::Tpg;
use marchgen_atsp::{AtspInstance, AtspSolver, AutoSolver, SolveStats, TourSink, INF};
use marchgen_faults::TestPattern;

/// Which TPs may start the Global Test Sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StartPolicy {
    /// f.4.4: the first TP's initialization must be *uniform* (all
    /// specified cells hold the same value — the "00"/"11" states) so the
    /// March test can open with a single background write element. The
    /// paper shows this yields the lowest-complexity results.
    #[default]
    Uniform,
    /// No restriction (the ablation configuration).
    Free,
}

impl StartPolicy {
    /// The policy a TP set is planned under: [`StartPolicy::Uniform`]
    /// falls back to [`StartPolicy::Free`] when no TP of the set has a
    /// uniform initialization.
    #[must_use]
    pub fn effective_for<'a>(self, tps: impl IntoIterator<Item = &'a TestPattern>) -> StartPolicy {
        match self {
            StartPolicy::Uniform if tps.into_iter().any(|tp| tp.init.is_uniform()) => {
                StartPolicy::Uniform
            }
            _ => StartPolicy::Free,
        }
    }

    fn allows(self, tpg: &Tpg, node: usize) -> bool {
        match self {
            StartPolicy::Free => true,
            StartPolicy::Uniform => tpg.test_patterns()[node].init.is_uniform(),
        }
    }
}

/// An ordered visit plan of all TPG nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TourPlan {
    /// TP indices in visit order.
    pub order: Vec<usize>,
    /// Total GTS operation count (f.4.3 objective plus the fixed per-TP
    /// operations).
    pub gts_ops: u32,
}

/// Plans minimum-length tours through the TPG: solves the dummy-closed
/// ATSP and returns every optimal visit order (up to `cap`), so the
/// March constructor can try each and keep the shortest test.
///
/// Falls back to [`StartPolicy::Free`] when the uniform-start constraint
/// is unsatisfiable (no TP has a uniform initialization).
///
/// Returns an empty vector only for an empty TPG.
#[must_use]
pub fn plan_tour(tpg: &Tpg, policy: StartPolicy, cap: usize) -> Vec<TourPlan> {
    plan_tour_with(tpg, policy, cap, &AutoSolver)
}

/// [`plan_tour`] with an explicit [`AtspSolver`] strategy — the
/// extension point the request layer's `SolverChoice` plugs into.
#[must_use]
pub fn plan_tour_with(
    tpg: &Tpg,
    policy: StartPolicy,
    cap: usize,
    solver: &dyn AtspSolver,
) -> Vec<TourPlan> {
    plan_tour_with_stats(tpg, policy, cap, solver).0
}

/// [`plan_tour_with`] plus the solver's [`SolveStats`] for this TPG —
/// the built-in backends report zeros, a registered strategy whatever
/// work it counts. The request layer aggregates these per generation
/// run into its diagnostics. This collects the one-member case of
/// [`TourFamily::plan`].
#[must_use]
pub fn plan_tour_with_stats(
    tpg: &Tpg,
    policy: StartPolicy,
    cap: usize,
    solver: &dyn AtspSolver,
) -> (Vec<TourPlan>, SolveStats) {
    let mut planned = Planned::default();
    TourFamily::new(tpg).plan(
        &[(0..tpg.len()).collect()],
        policy,
        cap,
        solver,
        &mut planned,
    );
    (planned.plans, planned.stats)
}

/// Receives a family's plans ([`TourFamily::plan`]), member by member.
/// A member's plans arrive in one run of [`PlanSink::plan`] calls, in
/// the order of its optimal tours, followed by one [`PlanSink::end`]
/// call.
pub trait PlanSink {
    /// One optimal plan of member `k`: its TPs in visit order, as
    /// member-local indices, and its GTS operation count (what
    /// [`TourPlan`] holds). The slice is lent for this call only.
    fn plan(&mut self, k: usize, order: &[usize], gts_ops: u32);

    /// Member `k` has no more plans; `stats` are the solver's counters
    /// for it.
    fn end(&mut self, k: usize, stats: SolveStats);
}

/// The plans and statistics of a one-member family.
#[derive(Default)]
struct Planned {
    plans: Vec<TourPlan>,
    stats: SolveStats,
}

impl PlanSink for Planned {
    fn plan(&mut self, _k: usize, order: &[usize], gts_ops: u32) {
        self.plans.push(TourPlan {
            order: order.to_vec(),
            gts_ops,
        });
    }

    fn end(&mut self, _k: usize, stats: SolveStats) {
        self.stats = stats;
    }
}

/// Tour planning for many TP sets drawn from one pool: the pool's TPG
/// and its dummy-closed ATSP instance under each start policy, built
/// once and shared by every member set.
///
/// A member lists TP indices of the pool in ascending order. Its
/// instance is the one its own TPG would give (node `k` is its `k`-th
/// TP, the dummy last), so a pool sorted like its members plans each
/// member exactly as [`plan_tour_with_stats`] plans the member's TPG.
#[derive(Debug)]
pub struct TourFamily<'a> {
    tpg: &'a Tpg,
    /// The pool's instances under [`StartPolicy::Uniform`] and
    /// [`StartPolicy::Free`]; node `tpg.len()` is the dummy.
    instances: [AtspInstance; 2],
}

impl<'a> TourFamily<'a> {
    /// Builds the pool's instances.
    #[must_use]
    pub fn new(tpg: &'a Tpg) -> TourFamily<'a> {
        let instance = |policy: StartPolicy| {
            let dummy = tpg.len();
            AtspInstance::from_fn(dummy + 1, |i, j| {
                if i == dummy {
                    if policy.allows(tpg, j) {
                        u64::from(tpg.init_cost(j))
                    } else {
                        INF
                    }
                } else if j == dummy {
                    0
                } else {
                    u64::from(tpg.weight(i, j))
                }
            })
        };
        TourFamily {
            tpg,
            instances: [instance(StartPolicy::Uniform), instance(StartPolicy::Free)],
        }
    }

    /// Plans every member under its effective start policy (see
    /// [`StartPolicy::effective_for`]) and streams into `sink` each
    /// member's optimal plans up to `cap`, in member-local TP indices,
    /// then its end call. The members follow the solver's
    /// [`AtspSolver::solve_family`], so a caller can time the gaps
    /// between end calls. Each tour is cut at the dummy into one buffer
    /// that every plan reuses, so the planning itself allocates nothing
    /// per tour.
    ///
    /// # Panics
    ///
    /// Panics if a member's indices are not ascending or not in the
    /// pool.
    pub fn plan(
        &self,
        members: &[Vec<usize>],
        policy: StartPolicy,
        cap: usize,
        solver: &dyn AtspSolver,
        sink: &mut dyn PlanSink,
    ) {
        let tps = self.tpg.test_patterns();
        for member in members {
            assert!(
                member.windows(2).all(|w| w[0] < w[1]) && member.iter().all(|&i| i < tps.len()),
                "family members list pool indices in ascending order"
            );
        }
        let mut order = Vec::with_capacity(tps.len());
        for (instance, effective) in self
            .instances
            .iter()
            .zip([StartPolicy::Uniform, StartPolicy::Free])
        {
            let mut ids = Vec::new();
            let mut nodes = Vec::new();
            let mut tp_ops = Vec::new();
            for (k, member) in members.iter().enumerate() {
                let planned_under = policy.effective_for(member.iter().map(|&i| &tps[i]));
                if member.len() >= 2 && planned_under == effective {
                    ids.push(k);
                    nodes.push(member.iter().copied().chain([self.tpg.len()]).collect());
                    tp_ops.push(member.iter().map(|&i| self.tpg.tp_ops(i)).sum());
                }
            }
            let mut cut = CutAtDummy {
                tpg: self.tpg,
                members,
                ids: &ids,
                tp_ops: &tp_ops,
                order: &mut order,
                sink,
            };
            solver.solve_family(instance, &nodes, cap, &mut cut);
        }
        // An empty TPG has no plan and a single TP one, without a solve.
        for (k, member) in members.iter().enumerate() {
            if member.len() < 2 {
                for &i in member {
                    sink.plan(k, &[0], self.tpg.gts_op_count(&[i]));
                }
                sink.end(k, SolveStats::default());
            }
        }
    }
}

/// Turns the tours of a family solve into plans: member `j` of the
/// solve is the family's member `ids[j]`, whose fixed per-TP operation
/// count is `tp_ops[j]`, and its last node is the dummy.
struct CutAtDummy<'s> {
    tpg: &'s Tpg,
    members: &'s [Vec<usize>],
    ids: &'s [usize],
    tp_ops: &'s [u32],
    /// The plan being lent, reused from tour to tour.
    order: &'s mut Vec<usize>,
    sink: &'s mut dyn PlanSink,
}

impl TourSink for CutAtDummy<'_> {
    /// Lends the member's plan from a tour: the TPs after the dummy,
    /// then those before it. A tour's cost adds its first TP's
    /// initialization writes and the bridging writes, so with the
    /// member's fixed per-TP operations it sums to its GTS length.
    fn tour(&mut self, j: usize, tour: &[usize], cost: u64) {
        let member = &self.members[self.ids[j]];
        let dummy = member.len();
        let pos = tour
            .iter()
            .position(|&n| n == dummy)
            .expect("dummy in tour");
        self.order.clear();
        self.order.extend_from_slice(&tour[pos + 1..]);
        self.order.extend_from_slice(&tour[..pos]);
        let counted = || {
            let in_pool: Vec<usize> = self.order.iter().map(|&i| member[i]).collect();
            self.tpg.gts_op_count(&in_pool)
        };
        // A tour through a forbidden start (only a custom solver returns
        // one) has a cost that is no operation count.
        let gts_ops = match u32::try_from(cost) {
            Ok(cost) => {
                let ops = self.tp_ops[j] + cost;
                debug_assert_eq!(ops, counted(), "{:?}", self.order);
                ops
            }
            Err(_) => counted(),
        };
        self.sink.plan(self.ids[j], self.order, gts_ops);
    }

    fn end(&mut self, j: usize, stats: SolveStats) {
        self.sink.end(self.ids[j], stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marchgen_atsp::Tour;
    use marchgen_faults::{parse_fault_list, requirements_for, TestPattern};

    fn section4_tps() -> Vec<TestPattern> {
        let mut tps = Vec::new();
        for token in ["CFid<u,0>", "CFid<u,1>"] {
            let models = parse_fault_list(token).unwrap();
            for r in requirements_for(&models) {
                tps.push(r.alternatives[0]);
            }
        }
        tps
    }

    /// The §4 example: minimum-weight uniform-start tours have path weight
    /// 2 and GTS length 12 (the paper's worked GTS).
    #[test]
    fn section4_optimal_plan() {
        let tpg = Tpg::new(section4_tps());
        let plans = plan_tour(&tpg, StartPolicy::Uniform, 64);
        assert!(!plans.is_empty());
        for plan in &plans {
            assert_eq!(plan.gts_ops, 12, "plan {:?}", plan.order);
            // Start TP must have uniform init (TP3 or TP4, indices 2/3).
            let first = plan.order[0];
            assert!(tpg.test_patterns()[first].init.is_uniform());
            // All four TPs visited exactly once.
            let mut sorted = plan.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    /// Both optimal tour shapes of the example appear:
    /// TP3→TP2→TP4→TP1 and TP3→TP4→TP1→TP2 (and TP4-first mirrors).
    #[test]
    fn section4_multiple_optima_enumerated() {
        let tpg = Tpg::new(section4_tps());
        let plans = plan_tour(&tpg, StartPolicy::Uniform, 64);
        assert!(
            plans.len() >= 2,
            "expected several optimal tours, got {}",
            plans.len()
        );
        assert!(plans.iter().any(|p| p.order == vec![2, 1, 3, 0]));
    }

    /// Without the f.4.4 constraint the optimum cannot get worse.
    #[test]
    fn free_start_never_worse() {
        let tpg = Tpg::new(section4_tps());
        let uniform = plan_tour(&tpg, StartPolicy::Uniform, 8)[0].gts_ops;
        let free = plan_tour(&tpg, StartPolicy::Free, 8)[0].gts_ops;
        assert!(free <= uniform);
    }

    /// Unsatisfiable uniform constraint falls back to free starts.
    #[test]
    fn uniform_fallback() {
        // Two TPs, both with non-uniform (01/10) inits.
        let models = parse_fault_list("CFid<u,0>").unwrap();
        let tps: Vec<TestPattern> = requirements_for(&models)
            .iter()
            .map(|r| r.alternatives[0])
            .collect();
        assert!(tps.iter().all(|tp| !tp.init.is_uniform()));
        let tpg = Tpg::new(tps);
        let plans = plan_tour(&tpg, StartPolicy::Uniform, 8);
        assert!(!plans.is_empty());
    }

    #[test]
    fn single_tp_plan() {
        let models = parse_fault_list("SA0").unwrap();
        let tps: Vec<TestPattern> = requirements_for(&models)
            .iter()
            .map(|r| r.alternatives[0])
            .collect();
        let tpg = Tpg::new(tps);
        let plans = plan_tour(&tpg, StartPolicy::Uniform, 8);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].order, vec![0]);
        // SA0: no init writes, excite w1 + observe r1 = 2 ops.
        assert_eq!(plans[0].gts_ops, 2);
    }

    /// One family call plans members under different effective
    /// policies (a member without a uniform TP falls back to free
    /// starts), and members of zero and one TP, each exactly as its own
    /// TPG plans.
    #[test]
    fn family_members_plan_like_their_own_tpgs() {
        let mut pool = section4_tps();
        pool.sort();
        let tpg = Tpg::new(pool.clone());
        let uniform: Vec<usize> = (0..4).filter(|&i| pool[i].init.is_uniform()).collect();
        let skewed: Vec<usize> = (0..4).filter(|&i| !pool[i].init.is_uniform()).collect();
        let members = vec![vec![0, 1, 2, 3], skewed, uniform, vec![2], Vec::new()];
        for policy in [StartPolicy::Uniform, StartPolicy::Free] {
            let mut collect = Collect {
                members: vec![None; members.len()],
                run: None,
            };
            TourFamily::new(&tpg).plan(&members, policy, 64, &AutoSolver, &mut collect);
            assert!(collect.run.is_none(), "a member's plans were never ended");
            for (member, got) in members.iter().zip(collect.members) {
                let own = Tpg::new(member.iter().map(|&i| pool[i]).collect());
                assert_eq!(
                    got,
                    Some(plan_tour(&own, policy, 64)),
                    "{member:?} {policy:?}"
                );
            }
        }
    }

    /// Collects each member's plans from a family's stream, checked to
    /// arrive in one run that the member's end call closes, once.
    struct Collect {
        members: Vec<Option<Vec<TourPlan>>>,
        run: Option<(usize, Vec<TourPlan>)>,
    }

    impl PlanSink for Collect {
        fn plan(&mut self, k: usize, order: &[usize], gts_ops: u32) {
            let (member, plans) = self.run.get_or_insert_with(|| (k, Vec::new()));
            assert_eq!(
                *member, k,
                "member {member}'s plans are interleaved with {k}'s"
            );
            plans.push(TourPlan {
                order: order.to_vec(),
                gts_ops,
            });
        }

        fn end(&mut self, k: usize, _stats: SolveStats) {
            let plans = self.run.take().map_or_else(Vec::new, |(member, plans)| {
                assert_eq!(member, k, "member {member} ended as {k}");
                plans
            });
            assert!(self.members[k].replace(plans).is_none(), "{k} ended twice");
        }
    }

    /// A custom solver may return a tour through a forbidden start; its
    /// plan still counts the GTS operations of its order.
    #[test]
    fn forbidden_start_plans_count_their_operations() {
        struct InOrder;
        impl AtspSolver for InOrder {
            fn name(&self) -> &str {
                "in-order"
            }
            fn solve(&self, instance: &AtspInstance) -> Tour {
                Tour::new(instance, (0..instance.len()).collect())
            }
            fn is_exact_for(&self, _instance: &AtspInstance) -> bool {
                false
            }
        }
        let tpg = Tpg::new(section4_tps());
        assert!(!tpg.test_patterns()[0].init.is_uniform());
        let plans = plan_tour_with(&tpg, StartPolicy::Uniform, 8, &InOrder);
        let order = vec![0, 1, 2, 3];
        let gts_ops = tpg.gts_op_count(&order);
        assert_eq!(plans, vec![TourPlan { order, gts_ops }]);
    }

    #[test]
    fn empty_tpg_plan() {
        let tpg = Tpg::new(Vec::new());
        assert!(plan_tour(&tpg, StartPolicy::Uniform, 8).is_empty());
    }
}
