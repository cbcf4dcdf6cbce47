//! ATSP instances and tours.

use std::fmt;

/// Cost marking a forbidden arc. Large enough to dominate any real tour,
/// small enough that sums of `n` of them never overflow `u64`.
///
/// `INF` is a *threshold*, not just a sentinel: constructors clamp every
/// arc at it, so any cost `>= INF` means "forbidden". Together with
/// [`MAX_DIMENSION`] this makes cost accumulation overflow-free — the
/// worst possible cycle sums to `MAX_DIMENSION × INF ≤ u64::MAX` — so
/// the solvers can compare tour costs exactly instead of saturating
/// (saturated sums pin at the max and compare *equal*, which once let
/// the DP return a provably non-optimal tour on extreme-weight
/// instances without any error).
pub const INF: u64 = u64::MAX / 1024;

/// Largest accepted node count. `MAX_DIMENSION × INF` is the largest
/// cycle cost any instance can produce, and it still fits `u64` — the
/// explicit guard that keeps every cost accumulation in this crate
/// exact. Far beyond any Test Pattern Graph the generator builds.
pub const MAX_DIMENSION: usize = 1024;

// The overflow-freedom argument, checked at compile time: the most
// expensive cycle (every arc clamped at INF, MAX_DIMENSION nodes) fits.
const _: () = assert!((MAX_DIMENSION as u128) * (INF as u128) <= u64::MAX as u128);

/// An ATSP instance: a complete directed graph given by its cost matrix
/// (`cost[i][j]` = cost of arc `i → j`; diagonal entries are ignored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtspInstance {
    n: usize,
    cost: Vec<u64>,
}

impl AtspInstance {
    /// Builds an instance from a square row-major matrix. Costs at or
    /// above [`INF`] are clamped to `INF` (forbidden).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty, not square, or larger than
    /// [`MAX_DIMENSION`].
    #[must_use]
    pub fn from_rows(rows: Vec<Vec<u64>>) -> AtspInstance {
        let n = rows.len();
        assert!(n > 0, "an ATSP instance needs at least one node");
        assert!(
            n <= MAX_DIMENSION,
            "ATSP instances are capped at {MAX_DIMENSION} nodes, got {n}"
        );
        let mut cost = Vec::with_capacity(n * n);
        for row in &rows {
            assert_eq!(row.len(), n, "cost matrix must be square");
            cost.extend(row.iter().map(|&c| c.min(INF)));
        }
        AtspInstance { n, cost }
    }

    /// Builds an instance of `n` nodes from a cost function. Costs at
    /// or above [`INF`] are clamped to `INF` (forbidden).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_DIMENSION`.
    #[must_use]
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> u64) -> AtspInstance {
        assert!(n > 0, "an ATSP instance needs at least one node");
        assert!(
            n <= MAX_DIMENSION,
            "ATSP instances are capped at {MAX_DIMENSION} nodes, got {n}"
        );
        let mut cost = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                cost.push(if i == j { INF } else { f(i, j).min(INF) });
            }
        }
        AtspInstance { n, cost }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the single-node instance.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false // invariant: n > 0
    }

    /// Cost of arc `i → j`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn cost(&self, i: usize, j: usize) -> u64 {
        assert!(i < self.n && j < self.n, "arc ({i},{j}) out of range");
        self.cost[i * self.n + j]
    }

    /// The sub-instance on `nodes`: node `k` of the result is node
    /// `nodes[k]` of `self`, with the same arc costs.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or names a node out of range.
    #[must_use]
    pub fn induced(&self, nodes: &[usize]) -> AtspInstance {
        AtspInstance::from_fn(nodes.len(), |i, j| self.cost(nodes[i], nodes[j]))
    }

    /// Sets the cost of arc `i → j` (used by branch-and-bound nodes),
    /// clamped at [`INF`].
    pub fn set_cost(&mut self, i: usize, j: usize, c: u64) {
        assert!(i < self.n && j < self.n, "arc ({i},{j}) out of range");
        self.cost[i * self.n + j] = c.min(INF);
    }

    /// The cost of visiting `order` as a cycle (returning to the first
    /// node). Exact: arcs are clamped at [`INF`] and instances capped at
    /// [`MAX_DIMENSION`] nodes, so the widened accumulator always
    /// converts back losslessly — tours through forbidden arcs get
    /// costs `>= INF` that still compare correctly against each other.
    #[must_use]
    pub fn cycle_cost(&self, order: &[usize]) -> u64 {
        if order.len() <= 1 {
            return 0; // a single node is a zero-length cycle
        }
        let mut total = 0u128;
        for k in 0..order.len() {
            let from = order[k];
            let to = order[(k + 1) % order.len()];
            total += u128::from(self.cost(from, to));
        }
        u64::try_from(total).expect("MAX_DIMENSION * INF fits u64")
    }

    /// `true` when `order` is a permutation of `0..n`.
    #[must_use]
    pub fn is_valid_tour(&self, order: &[usize]) -> bool {
        if order.len() != self.n {
            return false;
        }
        let mut seen = vec![false; self.n];
        for &v in order {
            if v >= self.n || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        true
    }
}

/// Checked addition of two path/arc costs. By the crate invariants
/// (arcs clamped at [`INF`], instances capped at [`MAX_DIMENSION`]) a
/// partial-path cost plus one arc can never overflow; this helper makes
/// that assumption *loud* instead of silently saturating — saturated
/// sums compare equal, which once let the exact solvers return a
/// provably non-optimal tour on extreme-weight instances without any
/// error.
///
/// # Panics
///
/// Panics on overflow (unreachable unless the invariants are broken).
#[must_use]
pub fn add_cost(a: u64, b: u64) -> u64 {
    a.checked_add(b).expect(
        "cost accumulation cannot overflow: arcs are clamped at INF \
         and instances capped at MAX_DIMENSION nodes",
    )
}

impl fmt::Display for AtspInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ATSP({} nodes)", self.n)?;
        for i in 0..self.n {
            for j in 0..self.n {
                if j > 0 {
                    f.write_str(" ")?;
                }
                let c = self.cost(i, j);
                if c >= INF || i == j {
                    f.write_str("  ∞")?;
                } else {
                    write!(f, "{c:3}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A Hamiltonian cycle with its cost. `order[0]` is always the lowest
/// possible start (solvers canonicalize rotation so tours compare equal).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tour {
    /// Visit order; a cycle (the last node returns to the first).
    pub order: Vec<usize>,
    /// Total cycle cost.
    pub cost: u64,
}

impl Tour {
    /// Builds a tour, computing its cost and canonicalizing the rotation
    /// so that node 0 comes first.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the instance's nodes.
    #[must_use]
    pub fn new(instance: &AtspInstance, order: Vec<usize>) -> Tour {
        assert!(
            instance.is_valid_tour(&order),
            "not a valid tour: {order:?}"
        );
        let cost = instance.cycle_cost(&order);
        let mut t = Tour { order, cost };
        t.canonicalize();
        t
    }

    fn canonicalize(&mut self) {
        if let Some(pos) = self.order.iter().position(|&v| v == 0) {
            self.order.rotate_left(pos);
        }
    }

    /// `true` when no forbidden arc is used.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.cost < INF
    }
}

impl fmt::Display for Tour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tour[")?;
        for (k, v) in self.order.iter().enumerate() {
            if k > 0 {
                f.write_str(" → ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "] cost {}", self.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_blocks_diagonal() {
        let inst = AtspInstance::from_fn(3, |i, j| (i * 10 + j) as u64);
        assert_eq!(inst.cost(0, 0), INF);
        assert_eq!(inst.cost(1, 2), 12);
    }

    #[test]
    fn cycle_cost_wraps_around() {
        let inst = AtspInstance::from_rows(vec![vec![0, 1, 4], vec![2, 0, 1], vec![1, 7, 0]]);
        assert_eq!(inst.cycle_cost(&[0, 1, 2]), 1 + 1 + 1);
        assert_eq!(inst.cycle_cost(&[0, 2, 1]), 4 + 7 + 2);
    }

    #[test]
    fn tour_canonicalizes_rotation() {
        let inst = AtspInstance::from_fn(4, |_, _| 1);
        let a = Tour::new(&inst, vec![2, 3, 0, 1]);
        let b = Tour::new(&inst, vec![0, 1, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn tour_validity() {
        let inst = AtspInstance::from_fn(3, |_, _| 1);
        assert!(inst.is_valid_tour(&[0, 2, 1]));
        assert!(!inst.is_valid_tour(&[0, 1]));
        assert!(!inst.is_valid_tour(&[0, 1, 1]));
        assert!(!inst.is_valid_tour(&[0, 1, 5]));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_ragged_matrix() {
        let _ = AtspInstance::from_rows(vec![vec![0, 1], vec![0]]);
    }

    #[test]
    fn saturating_inf_sums_do_not_overflow() {
        let inst = AtspInstance::from_fn(4, |_, _| INF);
        let c = inst.cycle_cost(&[0, 1, 2, 3]);
        assert!(c >= INF);
    }

    /// Regression: costs near `u64::MAX` used to survive into the cost
    /// matrix, where saturating sums pinned every tour at the max and
    /// compared equal. They now clamp to `INF` at construction, so
    /// cycle costs stay exact and tours with *different* numbers of
    /// extreme arcs stay distinguishable.
    #[test]
    fn near_max_weights_clamp_and_stay_comparable() {
        let huge = u64::MAX / 2; // above INF, below u64::MAX
        let inst =
            AtspInstance::from_rows(vec![vec![0, huge, 1], vec![1, 0, huge], vec![huge, 1, 0]]);
        assert_eq!(inst.cost(0, 1), INF, "extreme weights clamp to INF");
        // One direction uses three clamped arcs, the other none: before
        // the clamp both directions saturated to u64::MAX and tied.
        let all_huge = inst.cycle_cost(&[0, 1, 2]);
        let all_small = inst.cycle_cost(&[0, 2, 1]);
        assert_eq!(all_huge, 3 * INF);
        assert_eq!(all_small, 3);
        assert!(all_small < all_huge);
    }

    #[test]
    fn induced_keeps_the_arcs_between_the_chosen_nodes() {
        let inst = AtspInstance::from_fn(4, |i, j| (i * 10 + j) as u64);
        let sub = inst.induced(&[1, 3]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.cost(0, 1), 13);
        assert_eq!(sub.cost(1, 0), 31);
        assert_eq!(sub.cost(0, 0), INF);
        assert_eq!(inst.induced(&[0, 1, 2, 3]), inst);
    }

    #[test]
    fn set_cost_clamps_at_inf() {
        let mut inst = AtspInstance::from_fn(3, |_, _| 1);
        inst.set_cost(0, 1, u64::MAX);
        assert_eq!(inst.cost(0, 1), INF);
    }

    #[test]
    fn add_cost_is_exact_in_range() {
        assert_eq!(add_cost(3, 4), 7);
        assert_eq!(add_cost(INF, INF), 2 * INF);
    }

    #[test]
    #[should_panic(expected = "capped at")]
    fn rejects_oversized_instances() {
        let _ = AtspInstance::from_fn(MAX_DIMENSION + 1, |_, _| 1);
    }
}
