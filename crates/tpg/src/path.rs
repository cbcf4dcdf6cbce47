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
//! [`AtspSolver::solve_family`].

use crate::graph::Tpg;
use marchgen_atsp::{AtspInstance, AtspSolver, AutoSolver, SolveStats, Tour, INF};
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
/// exact backends report zeros, the local search its iteration and
/// restart counts. The request layer aggregates these per generation
/// run into its diagnostics. This is the one-member case of
/// [`TourFamily::plan`].
#[must_use]
pub fn plan_tour_with_stats(
    tpg: &Tpg,
    policy: StartPolicy,
    cap: usize,
    solver: &dyn AtspSolver,
) -> (Vec<TourPlan>, SolveStats) {
    let mut planned = (Vec::new(), SolveStats::default());
    TourFamily::new(tpg).plan(
        &[(0..tpg.len()).collect()],
        policy,
        cap,
        solver,
        &mut |_, plans, stats| planned = (plans, stats),
    );
    planned
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
    /// [`StartPolicy::effective_for`]) and calls `visit(k, plans, stats)`
    /// once per member, with the member's optimal plans up to `cap` in
    /// member-local TP indices. The calls follow the solver's
    /// [`AtspSolver::solve_family`], so a caller can time the gaps
    /// between them.
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
        visit: &mut dyn FnMut(usize, Vec<TourPlan>, SolveStats),
    ) {
        let tps = self.tpg.test_patterns();
        for member in members {
            assert!(
                member.windows(2).all(|w| w[0] < w[1]) && member.iter().all(|&i| i < tps.len()),
                "family members list pool indices in ascending order"
            );
        }
        for (instance, effective) in self
            .instances
            .iter()
            .zip([StartPolicy::Uniform, StartPolicy::Free])
        {
            let mut ids = Vec::new();
            let mut nodes = Vec::new();
            for (k, member) in members.iter().enumerate() {
                let planned_under = policy.effective_for(member.iter().map(|&i| &tps[i]));
                if member.len() >= 2 && planned_under == effective {
                    ids.push(k);
                    nodes.push(member.iter().copied().chain([self.tpg.len()]).collect());
                }
            }
            solver.solve_family(instance, &nodes, cap, &mut |j, tours, stats| {
                let member = &members[ids[j]];
                let plans = tours.iter().map(|t| self.cut_at_dummy(member, t)).collect();
                visit(ids[j], plans, stats);
            });
        }
        // An empty TPG has no plan and a single TP one, without a solve.
        for (k, member) in members.iter().enumerate() {
            if member.len() < 2 {
                let plans = member
                    .iter()
                    .map(|&i| TourPlan {
                        order: vec![0],
                        gts_ops: self.tpg.gts_op_count(&[i]),
                    })
                    .collect();
                visit(k, plans, SolveStats::default());
            }
        }
    }

    /// The member's plan from a tour of its instance (whose last node is
    /// the dummy).
    fn cut_at_dummy(&self, member: &[usize], tour: &Tour) -> TourPlan {
        let dummy = member.len();
        let pos = tour
            .order
            .iter()
            .position(|&n| n == dummy)
            .expect("dummy in tour");
        let mut order = Vec::with_capacity(tour.order.len() - 1);
        for k in 1..tour.order.len() {
            order.push(tour.order[(pos + k) % tour.order.len()]);
        }
        let in_pool: Vec<usize> = order.iter().map(|&i| member[i]).collect();
        TourPlan {
            order,
            gts_ops: self.tpg.gts_op_count(&in_pool),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let mut got = vec![None; members.len()];
            TourFamily::new(&tpg).plan(&members, policy, 64, &AutoSolver, &mut |k, plans, _| {
                assert!(got[k].replace(plans).is_none(), "{k} visited twice");
            });
            for (member, got) in members.iter().zip(got) {
                let own = Tpg::new(member.iter().map(|&i| pool[i]).collect());
                assert_eq!(
                    got,
                    Some(plan_tour(&own, policy, 64)),
                    "{member:?} {policy:?}"
                );
            }
        }
    }

    #[test]
    fn empty_tpg_plan() {
        let tpg = Tpg::new(Vec::new());
        assert!(plan_tour(&tpg, StartPolicy::Uniform, 8).is_empty());
    }
}
