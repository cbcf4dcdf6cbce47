//! The Held–Karp dynamic program: exact ATSP in `O(2ⁿ n²)` time, plus
//! enumeration of **all** optimal tours.
//!
//! The generator uses the enumeration to de-risk the paper's
//! "GTS length ≈ March complexity" proxy: every minimum-weight tour is
//! converted to a March test and the shortest result wins.
//!
//! Two kernels fill the same table, `dp[mask][last]`: the cheapest path
//! that starts at the lowest node, visits exactly the nodes of `mask`
//! and ends at `last`.
//!
//! * [`solve`] and [`solve_all`] build one `u64` table per instance,
//!   `2ⁿ × n` entries (36 MiB at [`MAX_NODES`]). They take any arc
//!   costs, and they are the reference the shared kernel is tested
//!   against.
//! * The family solve of [`HeldKarpSolver`](crate::HeldKarpSolver) and
//!   [`AutoSolver`](crate::AutoSolver)
//!   ([`AtspSolver::solve_family`](crate::AtspSolver::solve_family))
//!   plans many sub-instances of one cost matrix at once. A row depends
//!   only on the start node and the nodes in `mask`, so members that
//!   start at the same node share rows: one table holds each row that
//!   some member needs, once. Entries are bytes, a row is filled by
//!   pulling from the rows one node smaller, and a table never spans
//!   more than [`MAX_NODES`] nodes, so it holds at most
//!   `2^(MAX_NODES−1)` rows of [`MAX_NODES`] bytes plus a 1-byte index
//!   entry each (2.4 MiB). Members whose arc costs do not fit a byte go
//!   through [`solve_all`].

use crate::instance::{add_cost, AtspInstance, Tour, INF};

/// Practical node ceiling for the DP. A [`solve_all`] table has
/// `2ⁿ × n` `u64` entries: 36 MiB at 18 nodes, 160 MiB at 20. A shared
/// family table spans at most this many nodes, which bounds it at
/// `2^(MAX_NODES−1)` rows of this many bytes (2.4 MiB with its index).
pub const MAX_NODES: usize = 18;

/// Exact solution by dynamic programming.
///
/// # Panics
///
/// Panics if the instance exceeds [`MAX_NODES`].
#[must_use]
pub fn solve(instance: &AtspInstance) -> Tour {
    let table = DpTable::build(instance);
    Tour::new(instance, table.one_optimal_order())
}

/// All optimal tours, capped at `cap` results (the cap guards pathological
/// all-equal-cost instances; `cap = 0` means "just one").
///
/// # Panics
///
/// Panics if the instance exceeds [`MAX_NODES`].
#[must_use]
pub fn solve_all(instance: &AtspInstance, cap: usize) -> Vec<Tour> {
    let table = DpTable::build(instance);
    table
        .all_optimal_orders(cap.max(1))
        .into_iter()
        .map(|order| Tour::new(instance, order))
        .collect()
}

struct DpTable<'a> {
    instance: &'a AtspInstance,
    n: usize,
    /// `dp[mask * n + last]`: cheapest path starting at node 0, visiting
    /// exactly the nodes of `mask` (which always contains 0 and `last`),
    /// ending at `last`.
    dp: Vec<u64>,
    best_cost: u64,
}

impl<'a> DpTable<'a> {
    fn build(instance: &'a AtspInstance) -> DpTable<'a> {
        let n = instance.len();
        assert!(
            n <= MAX_NODES,
            "Held-Karp capped at {MAX_NODES} nodes, got {n}"
        );
        if n == 1 {
            return DpTable {
                instance,
                n,
                dp: vec![0, 0],
                best_cost: 0,
            };
        }
        let size = 1usize << n;
        let mut dp = vec![INF; size * n];
        dp[n] = 0; // at node 0, only 0 visited
        for mask in 1..size {
            if mask & 1 == 0 {
                continue; // paths always include the start node 0
            }
            for last in 0..n {
                if mask & (1 << last) == 0 {
                    continue;
                }
                let cur = dp[mask * n + last];
                if cur >= INF {
                    continue;
                }
                for next in 0..n {
                    if mask & (1 << next) != 0 {
                        continue;
                    }
                    let cand = add_cost(cur, instance.cost(last, next));
                    let slot = &mut dp[(mask | (1 << next)) * n + next];
                    if cand < *slot {
                        *slot = cand;
                    }
                }
            }
        }
        let full = size - 1;
        let mut best_cost = INF;
        for last in 1..n {
            let c = add_cost(dp[full * n + last], instance.cost(last, 0));
            best_cost = best_cost.min(c);
        }
        DpTable {
            instance,
            n,
            dp,
            best_cost,
        }
    }

    fn one_optimal_order(&self) -> Vec<usize> {
        if self.n == 1 {
            return vec![0];
        }
        let full = (1usize << self.n) - 1;
        let mut last = (1..self.n)
            .min_by_key(|&l| add_cost(self.dp[full * self.n + l], self.instance.cost(l, 0)))
            .expect("n > 1");
        let mut order = vec![last];
        let mut mask = full;
        while last != 0 {
            let without = mask & !(1 << last);
            let target = self.dp[mask * self.n + last];
            let prev = (0..self.n)
                .find(|&p| {
                    p != last
                        && (without & (1 << p)) != 0
                        && add_cost(self.dp[without * self.n + p], self.instance.cost(p, last))
                            == target
                })
                .expect("dp table is consistent");
            order.push(prev);
            mask = without;
            last = prev;
        }
        order.reverse();
        order
    }

    /// Depth-first enumeration of every optimal tour (suffix-first), up
    /// to `cap` results.
    fn all_optimal_orders(&self, cap: usize) -> Vec<Vec<usize>> {
        if self.n == 1 {
            return vec![vec![0]];
        }
        let full = (1usize << self.n) - 1;
        let mut results: Vec<Vec<usize>> = Vec::new();
        // stack entries: (mask, last, suffix from last to end)
        let mut stack: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        for last in 1..self.n {
            let c = add_cost(self.dp[full * self.n + last], self.instance.cost(last, 0));
            if c == self.best_cost && c < INF {
                stack.push((full, last, vec![last]));
            }
        }
        while let Some((mask, last, suffix)) = stack.pop() {
            if results.len() >= cap {
                break;
            }
            if last == 0 {
                let mut order = suffix.clone();
                order.reverse();
                results.push(order);
                continue;
            }
            let without = mask & !(1 << last);
            let target = self.dp[mask * self.n + last];
            for prev in 0..self.n {
                if prev == last || (without & (1 << prev)) == 0 {
                    continue;
                }
                let via = add_cost(
                    self.dp[without * self.n + prev],
                    self.instance.cost(prev, last),
                );
                if via == target {
                    let mut next_suffix = suffix.clone();
                    next_suffix.push(prev);
                    stack.push((without, prev, next_suffix));
                }
            }
        }
        results
    }
}

/// Lane value of an unreachable table entry or a forbidden arc.
const UNREACHABLE: u8 = u8::MAX;

/// A shared-table row: one byte lane per node a table can span.
type Row = [u8; MAX_NODES];

/// Masks per index block. Rows are numbered in mask order, and a
/// mask's number within its block fits a byte.
const BLOCK: usize = 128;

/// Index entry of a mask that no member needs.
const NO_ROW: u8 = u8::MAX;

/// Every member's optimal tours, up to `cap` each, from tables the
/// members share.
///
/// Member `k` is the instance induced by `members[k]`, distinct nodes
/// of `instance` in ascending order. `visit(k, tours)` receives exactly
/// what [`solve_all`] returns for `instance.induced(&members[k])`.
/// Members are visited table by table, each table's members right after
/// it is built.
///
/// Members that start at the same node share a table, cut in member
/// order into runs that span at most [`MAX_NODES`] nodes. A member whose
/// widest finite arc times its node count does not fit below
/// [`UNREACHABLE`] is solved alone by [`solve_all`]. Members of more
/// than [`MAX_NODES`] nodes are not visited: the caller solves them by
/// other means.
///
/// # Panics
///
/// Panics if a member is empty, or its nodes are not ascending or not
/// in range.
pub(crate) fn solve_family(
    instance: &AtspInstance,
    members: &[Vec<usize>],
    cap: usize,
    visit: &mut dyn FnMut(usize, Vec<Tour>),
) {
    // Members for shared tables, grouped by start node in first-seen
    // order.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (k, nodes) in members.iter().enumerate() {
        assert!(
            nodes.last().is_some_and(|&top| top < instance.len())
                && nodes.windows(2).all(|w| w[0] < w[1]),
            "family members list distinct nodes in ascending order"
        );
        if nodes.len() > MAX_NODES {
            continue;
        }
        if !fits_lanes(instance, nodes) {
            visit(k, solve_all(&instance.induced(nodes), cap));
            continue;
        }
        match groups.iter_mut().find(|ids| members[ids[0]][0] == nodes[0]) {
            Some(ids) => ids.push(k),
            None => groups.push(vec![k]),
        }
    }
    for ids in groups {
        let mut span: Vec<usize> = Vec::new();
        let mut run: Vec<usize> = Vec::new();
        for k in ids {
            let mut wider: Vec<usize> = span.iter().chain(&members[k]).copied().collect();
            wider.sort_unstable();
            wider.dedup();
            if wider.len() > MAX_NODES {
                solve_run(instance, &span, members, &run, cap, visit);
                run.clear();
                wider.clone_from(&members[k]);
            }
            span = wider;
            run.push(k);
        }
        solve_run(instance, &span, members, &run, cap, visit);
    }
}

/// `true` when every tour of the member costs less than [`UNREACHABLE`]
/// unless it uses a forbidden arc.
fn fits_lanes(instance: &AtspInstance, nodes: &[usize]) -> bool {
    let widest = nodes
        .iter()
        .flat_map(|&i| nodes.iter().map(move |&j| (i, j)))
        .filter(|&(i, j)| i != j)
        .map(|(i, j)| instance.cost(i, j))
        .filter(|&c| c < INF)
        .max()
        .unwrap_or(0);
    widest.saturating_mul(nodes.len() as u64) < u64::from(UNREACHABLE)
}

/// Builds one table over `span` for the members `run` and visits them.
fn solve_run(
    instance: &AtspInstance,
    span: &[usize],
    members: &[Vec<usize>],
    run: &[usize],
    cap: usize,
    visit: &mut dyn FnMut(usize, Vec<Tour>),
) {
    let masks: Vec<u32> = run
        .iter()
        .map(|&k| {
            members[k]
                .iter()
                .map(|node| 1 << span.binary_search(node).expect("the span holds the run"))
                .fold(0, |mask, bit| mask | bit)
        })
        .collect();
    let table = SharedTable::build(instance, span, &masks);
    for (&k, &mask) in run.iter().zip(&masks) {
        visit(k, table.optimal_tours(mask, cap));
    }
}

/// A Held–Karp table over the nodes of a span (local node `i` is
/// `span[i]`), started at local node 0, with one row for each mask that
/// holds node 0 and lies within some member.
struct SharedTable {
    /// `into[to][from]`: the cost of arc `from → to`, [`UNREACHABLE`]
    /// where it does not fit a byte.
    into: Vec<Row>,
    /// The number of the first row of each block of masks.
    base: Vec<u32>,
    /// Each mask's row number within its block, [`NO_ROW`] where no
    /// member needs it; indexed by the mask without node 0.
    within: Vec<u8>,
    /// `rows[row][last]`: the cheapest path from node 0 through exactly
    /// the nodes of the row's mask, ending at `last`.
    rows: Vec<Row>,
}

impl SharedTable {
    fn build(instance: &AtspInstance, span: &[usize], masks: &[u32]) -> SharedTable {
        let n = span.len();
        assert!(
            (1..=MAX_NODES).contains(&n),
            "a shared Held-Karp table spans 1 to {MAX_NODES} nodes, got {n}"
        );
        let mut into = vec![[UNREACHABLE; MAX_NODES]; n];
        for (to, lanes) in into.iter_mut().enumerate() {
            for (from, lane) in lanes[..n].iter_mut().enumerate() {
                *lane = u8::try_from(instance.cost(span[from], span[to])).unwrap_or(UNREACHABLE);
            }
        }
        // Mark each member's masks; a member inside a marked one adds
        // nothing.
        let mut within = vec![NO_ROW; 1 << (n - 1)];
        for &mask in masks {
            let rest = mask as usize >> 1;
            if within[rest] != NO_ROW {
                continue;
            }
            let mut sub = rest;
            loop {
                within[sub] = 0;
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & rest;
            }
        }
        let mut base = Vec::with_capacity(within.len().div_ceil(BLOCK));
        let mut count = 0;
        for block in within.chunks_mut(BLOCK) {
            base.push(count);
            for (number, slot) in (0..).zip(block.iter_mut().filter(|slot| **slot != NO_ROW)) {
                *slot = number;
                count += 1;
            }
        }
        assert!(
            count as usize <= 1 << (MAX_NODES - 1),
            "a shared Held-Karp table holds at most 2^{} rows",
            MAX_NODES - 1
        );
        let mut table = SharedTable {
            into,
            base,
            within,
            rows: Vec::with_capacity(count as usize),
        };
        // Pull form, masks ascending: a row reads only rows one node
        // smaller. Lanes outside the smaller mask hold UNREACHABLE,
        // which the saturating add keeps, so every lane can take part.
        for rest in 0..table.within.len() {
            if table.within[rest] == NO_ROW {
                continue;
            }
            let mut row = [UNREACHABLE; MAX_NODES];
            if rest == 0 {
                row[0] = 0;
            }
            for bit in nodes(rest as u32) {
                let prev = &table.rows[table.number(rest ^ (1 << bit))];
                row[bit + 1] = cheapest_step(prev, &table.into[bit + 1]);
            }
            table.rows.push(row);
        }
        table
    }

    /// The row number of a mask given without node 0.
    fn number(&self, rest: usize) -> usize {
        self.base[rest / BLOCK] as usize + usize::from(self.within[rest])
    }

    fn row(&self, mask: u32) -> &Row {
        &self.rows[self.number(mask as usize >> 1)]
    }

    /// The optimal tours of the member whose nodes are the mask
    /// `member`, up to `cap`, in member-local indices: the enumeration
    /// of [`DpTable::all_optimal_orders`], in the same order.
    fn optimal_tours(&self, member: u32, cap: usize) -> Vec<Tour> {
        if member == 1 {
            return vec![Tour {
                order: vec![0],
                cost: 0,
            }];
        }
        let closing = |last: usize| self.row(member)[last].saturating_add(self.into[0][last]);
        let best = nodes(member).skip(1).map(closing).min();
        let Some(best) = best.filter(|&best| best < UNREACHABLE) else {
            return Vec::new();
        };
        let local = |node: usize| (member & ((1 << node) - 1)).count_ones() as usize;
        let mut tours = Vec::new();
        // Depth-first from the closing arc back to node 0. Entries are
        // (mask, last, depth of last in `path`); `path` holds the nodes
        // from the tour's end back to the entry being expanded.
        let mut stack: Vec<(u32, usize, usize)> = nodes(member)
            .skip(1)
            .filter(|&last| closing(last) == best)
            .map(|last| (member, last, 0))
            .collect();
        let mut path: Vec<usize> = Vec::new();
        while let Some((mask, last, depth)) = stack.pop() {
            if tours.len() >= cap.max(1) {
                break;
            }
            path.truncate(depth);
            path.push(local(last));
            if last == 0 {
                tours.push(Tour {
                    order: path.iter().rev().copied().collect(),
                    cost: u64::from(best),
                });
                continue;
            }
            let without = mask & !(1 << last);
            let target = self.row(mask)[last];
            for prev in nodes(without) {
                if self.row(without)[prev].saturating_add(self.into[last][prev]) == target {
                    stack.push((without, prev, depth + 1));
                }
            }
        }
        tours
    }
}

/// `min over p of prev[p] + into[p]`, saturating at [`UNREACHABLE`].
fn cheapest_step(prev: &Row, into: &Row) -> u8 {
    prev.iter()
        .zip(into)
        .fold(UNREACHABLE, |best, (&d, &c)| best.min(d.saturating_add(c)))
}

/// The nodes of `mask`, ascending.
fn nodes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let node = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            node
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;

    fn pseudo_random_instance(n: usize, seed: u64) -> AtspInstance {
        // xorshift-based deterministic matrix
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        AtspInstance::from_fn(n, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 100
        })
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        for n in 2..=7 {
            for seed in 0..8 {
                let inst = pseudo_random_instance(n, seed * 31 + n as u64);
                let hk = solve(&inst);
                let bf = brute::solve(&inst);
                assert_eq!(hk.cost, bf.cost, "n={n} seed={seed}\n{inst}");
                assert_eq!(inst.cycle_cost(&hk.order), hk.cost);
            }
        }
    }

    #[test]
    fn single_node() {
        let inst = AtspInstance::from_fn(1, |_, _| 0);
        let t = solve(&inst);
        assert_eq!(t.order, vec![0]);
        assert_eq!(t.cost, 0);
    }

    #[test]
    fn two_nodes() {
        let inst = AtspInstance::from_rows(vec![vec![0, 3], vec![4, 0]]);
        let t = solve(&inst);
        assert_eq!(t.cost, 7);
    }

    #[test]
    fn all_optimal_enumerates_every_minimum() {
        // A symmetric 4-cycle of equal costs has several optimal tours.
        let inst = AtspInstance::from_fn(4, |_, _| 5);
        let all = solve_all(&inst, 64);
        assert_eq!(all.len(), 6, "3! tours, all optimal");
        assert!(all.iter().all(|t| t.cost == 20));
        // Tours are distinct.
        let mut orders: Vec<Vec<usize>> = all.iter().map(|t| t.order.clone()).collect();
        orders.sort();
        orders.dedup();
        assert_eq!(orders.len(), 6);
    }

    #[test]
    fn all_optimal_respects_cap() {
        let inst = AtspInstance::from_fn(6, |_, _| 1);
        let all = solve_all(&inst, 10);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn all_optimal_agrees_with_brute_on_random() {
        for seed in 0..6 {
            let inst = pseudo_random_instance(6, seed + 100);
            let bf = brute::solve(&inst);
            let all = solve_all(&inst, 1000);
            assert!(!all.is_empty());
            assert!(all.iter().all(|t| t.cost == bf.cost));
            assert!(all.contains(&bf) || all.iter().any(|t| t.cost == bf.cost));
        }
    }

    /// Regression: with near-`u64::MAX` weights the old saturating DP
    /// pinned every completion at the max, so tours through a different
    /// number of extreme arcs compared *equal* and the "optimal" pick
    /// was arbitrary. Clamped arcs + checked accumulation keep the
    /// order exact: the unique cheap cycle must win.
    #[test]
    fn near_max_weights_resolve_to_the_true_optimum() {
        let huge = u64::MAX - 17;
        // Cheap Hamiltonian cycle 0→1→2→3→0 of cost 4; every other arc
        // is an extreme weight (clamping makes them forbidden).
        let inst = AtspInstance::from_fn(4, |i, j| if (i + 1) % 4 == j { 1 } else { huge });
        let t = solve(&inst);
        assert_eq!(t.order, vec![0, 1, 2, 3]);
        assert_eq!(t.cost, 4);
        assert!(t.is_finite());
        // A mixed instance — extreme arcs present, cheap tour hidden —
        // must agree with the brute-force oracle exactly.
        let inst = AtspInstance::from_rows(vec![
            vec![0, huge, 3, 9],
            vec![2, 0, huge, 4],
            vec![7, 1, 0, huge],
            vec![huge, 8, 5, 0],
        ]);
        let t = solve(&inst);
        let bf = brute::solve(&inst);
        assert_eq!(t.cost, bf.cost);
        assert!(t.is_finite(), "the clamped arcs are routed around");
        assert_eq!(inst.cycle_cost(&t.order), t.cost);
    }

    /// A deterministic xorshift stream.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// `members` solved as one family, one entry per member (`None`
    /// when the family left it unvisited).
    fn family(inst: &AtspInstance, members: &[Vec<usize>], cap: usize) -> Vec<Option<Vec<Tour>>> {
        let mut out = vec![None; members.len()];
        solve_family(inst, members, cap, &mut |k, tours| {
            assert!(out[k].replace(tours).is_none(), "member {k} visited twice");
        });
        out
    }

    /// The shared-table family returns, member by member, exactly the
    /// tours of the per-instance `u64` kernel: narrow and wide costs,
    /// forbidden and near-max arcs, one- and two-node members, members
    /// that share a start node and members that do not.
    #[test]
    fn family_matches_per_member_solve_all() {
        let huge = u64::MAX - 17;
        for seed in 0..24u64 {
            let mut next = xorshift(seed + 1);
            // The whole-instance member fits MAX_NODES only when small.
            let n = [6, 9, 12, 20, 25, 30][(seed % 6) as usize];
            let costs = match seed % 4 {
                0 => [0, 1, 2, 3],        // TPG-like ties
                1 => [0, 1, 2, INF],      // forbidden arcs
                2 => [5, 900, 40_000, 7], // wide: solved by `solve_all`
                _ => [0, 2, huge, 1],     // near-max weights clamp to INF
            };
            let inst = AtspInstance::from_fn(n, |_, _| costs[(next() % 4) as usize]);
            let mut members: Vec<Vec<usize>> = vec![vec![n - 1], vec![0, n - 1], (0..n).collect()];
            for _ in 0..40 {
                let root = (next() % 3) as usize;
                let size = 1 + (next() % 10) as usize;
                let mut nodes: Vec<usize> = (0..size)
                    .map(|_| root + (next() as usize) % (n - root))
                    .collect();
                nodes.push(root);
                nodes.sort_unstable();
                nodes.dedup();
                members.push(nodes);
            }
            for cap in [1, 7, 64] {
                for (k, got) in family(&inst, &members, cap).into_iter().enumerate() {
                    let nodes = &members[k];
                    if nodes.len() > MAX_NODES {
                        assert!(got.is_none(), "seed {seed}: member {k} is past MAX_NODES");
                        continue;
                    }
                    let want = solve_all(&inst.induced(nodes), cap);
                    assert_eq!(
                        got,
                        Some(want),
                        "seed {seed} cap {cap} member {nodes:?}\n{inst}"
                    );
                }
            }
        }
    }

    /// A family whose members (at most 10 nodes each) span 30 nodes
    /// between them, all from one start node, is cut into tables of at
    /// most `MAX_NODES` nodes (the table asserts its bound before it
    /// allocates) and still matches.
    #[test]
    fn family_tables_stay_within_max_nodes() {
        let mut next = xorshift(99);
        let inst = AtspInstance::from_fn(30, |_, _| next() % 3);
        let members: Vec<Vec<usize>> = (0..60)
            .map(|k| {
                let mut nodes: Vec<usize> = (0..8).map(|_| 1 + (next() as usize) % 29).collect();
                nodes.push(0);
                nodes.push(29 - k % 3);
                nodes.sort_unstable();
                nodes.dedup();
                nodes
            })
            .collect();
        assert!(members.iter().all(|nodes| nodes.len() <= 10));
        for (k, got) in family(&inst, &members, 64).into_iter().enumerate() {
            assert_eq!(got, Some(solve_all(&inst.induced(&members[k]), 64)));
        }
    }

    #[test]
    #[should_panic(expected = "spans 1 to 18 nodes")]
    fn a_shared_table_past_max_nodes_is_refused() {
        let inst = AtspInstance::from_fn(MAX_NODES + 1, |_, _| 1);
        let span: Vec<usize> = (0..=MAX_NODES).collect();
        let _ = SharedTable::build(&inst, &span, &[(1 << (MAX_NODES + 1)) - 1]);
    }

    #[test]
    fn forbidden_arcs_are_avoided_when_possible() {
        // 0→1 forbidden; optimal must route 0→2→1→0.
        let inst = AtspInstance::from_rows(vec![vec![0, INF, 1], vec![1, 0, INF], vec![INF, 1, 0]]);
        let t = solve(&inst);
        assert_eq!(t.order, vec![0, 2, 1]);
        assert_eq!(t.cost, 3);
    }
}
