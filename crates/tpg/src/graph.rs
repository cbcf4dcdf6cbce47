//! TPG construction, the f.4.1 weight function and DOT export.

use marchgen_faults::TestPattern;
use std::fmt::Write as _;

/// The Test Pattern Graph: a strongly connected weighted digraph over a
/// set of Test Patterns (paper Section 4, Figure 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tpg {
    tps: Vec<TestPattern>,
}

impl Tpg {
    /// Builds the TPG over the given TPs.
    #[must_use]
    pub fn new(tps: Vec<TestPattern>) -> Tpg {
        Tpg { tps }
    }

    /// The node TPs, in index order.
    #[must_use]
    pub fn test_patterns(&self) -> &[TestPattern] {
        &self.tps
    }

    /// Number of nodes `V`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tps.len()
    }

    /// `true` when the graph has no node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tps.is_empty()
    }

    /// The f.4.1 arc weight: writes needed to reach `to`'s initialization
    /// from `from`'s observation state.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn weight(&self, from: usize, to: usize) -> u32 {
        self.tps[from].obs_state().distance_to(&self.tps[to].init)
    }

    /// The writes from scratch (power-up `--` state) into `node`'s
    /// initialization — the cost of starting the GTS at that TP.
    #[must_use]
    pub fn init_cost(&self, node: usize) -> u32 {
        marchgen_model::PairState::UNKNOWN.distance_to(&self.tps[node].init)
    }

    /// Iterates all directed arcs `(from, to, weight)`, `from != to`.
    pub fn arcs(&self) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        (0..self.len()).flat_map(move |from| {
            (0..self.len())
                .filter(move |&to| to != from)
                .map(move |to| (from, to, self.weight(from, to)))
        })
    }

    /// Total weight of visiting the nodes in `order` as an open path.
    #[must_use]
    pub fn path_weight(&self, order: &[usize]) -> u32 {
        order.windows(2).map(|w| self.weight(w[0], w[1])).sum()
    }

    /// The number of operations of the Global Test Sequence induced by
    /// visiting `order`: initialization writes of the first TP, each TP's
    /// excitation and observation operations, and the bridging writes of
    /// every arc. (The §4 worked example: 12 operations.)
    #[must_use]
    pub fn gts_op_count(&self, order: &[usize]) -> u32 {
        let Some(&first) = order.first() else {
            return 0;
        };
        let ops: u32 = order.iter().map(|&node| self.tp_ops(node)).sum();
        self.init_cost(first) + ops + self.path_weight(order)
    }

    /// The operations `node` contributes to any GTS through it: its
    /// excitation, plus a separate read-and-verify when it observes by
    /// reading.
    pub(crate) fn tp_ops(&self, node: usize) -> u32 {
        let separate_read = matches!(
            self.tps[node].observe,
            marchgen_faults::Observation::Read { .. }
        );
        1 + u32::from(separate_read)
    }

    /// Graphviz DOT rendering in the style of paper Figure 4.
    #[must_use]
    pub fn to_dot(&self, name: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "digraph {name} {{");
        let _ = writeln!(s, "  rankdir=LR;");
        let _ = writeln!(s, "  node [shape=box, fontname=\"Helvetica\"];");
        for (k, tp) in self.tps.iter().enumerate() {
            let _ = writeln!(s, "  tp{k} [label=\"TP{} {tp}\"];", k + 1);
        }
        for (from, to, w) in self.arcs() {
            let _ = writeln!(s, "  tp{from} -> tp{to} [label=\"{w}\"];");
        }
        let _ = writeln!(s, "}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marchgen_faults::{parse_fault_list, requirements_for};

    /// The four TPs of the §4 example, in TP1..TP4 order.
    fn section4_tps() -> Vec<TestPattern> {
        // TP1 = (01, w1i, r1j), TP2 = (10, w1j, r1i) from ⟨↑,0⟩;
        // TP3 = (00, w1i, r0j), TP4 = (00, w1j, r0i) from ⟨↑,1⟩.
        let up0 = parse_fault_list("CFid<u,0>").unwrap();
        let up1 = parse_fault_list("CFid<u,1>").unwrap();
        let mut tps = Vec::new();
        for r in requirements_for(&up0) {
            tps.push(r.alternatives[0]);
        }
        for r in requirements_for(&up1) {
            tps.push(r.alternatives[0]);
        }
        tps
    }

    /// Paper Figure 4: the TPG for {⟨↑,1⟩, ⟨↑,0⟩} has arc weights
    /// 0 ×2, 1 ×4, 2 ×6.
    #[test]
    fn figure4_weight_multiset() {
        let tpg = Tpg::new(section4_tps());
        assert_eq!(tpg.len(), 4);
        let mut weights: Vec<u32> = tpg.arcs().map(|(_, _, w)| w).collect();
        weights.sort_unstable();
        assert_eq!(weights, vec![0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]);
    }

    /// The specific zero-weight arcs of Figure 4: TP3 → TP2 and TP4 → TP1.
    #[test]
    fn figure4_zero_arcs() {
        let tpg = Tpg::new(section4_tps());
        // indices: TP1=0, TP2=1, TP3=2, TP4=3
        assert_eq!(tpg.weight(2, 1), 0);
        assert_eq!(tpg.weight(3, 0), 0);
        assert_eq!(tpg.weight(0, 1), 1);
        assert_eq!(tpg.weight(2, 0), 2);
    }

    /// The §4 worked example GTS (tour TP3 → TP2 → TP4 → TP1) has 12
    /// operations.
    #[test]
    fn section4_gts_op_count() {
        let tpg = Tpg::new(section4_tps());
        let order = [2usize, 1, 3, 0];
        assert_eq!(tpg.path_weight(&order), 2);
        assert_eq!(tpg.gts_op_count(&order), 12);
    }

    #[test]
    fn init_costs() {
        let tpg = Tpg::new(section4_tps());
        // Every §4 TP constrains both cells → 2 writes from power-up.
        for k in 0..tpg.len() {
            assert_eq!(tpg.init_cost(k), 2);
        }
    }

    #[test]
    fn dot_contains_every_arc() {
        let tpg = Tpg::new(section4_tps());
        let dot = tpg.to_dot("TPG");
        assert_eq!(dot.matches(" -> ").count(), 12);
        assert!(dot.contains("TP1"));
    }

    #[test]
    fn empty_graph() {
        let tpg = Tpg::new(Vec::new());
        assert!(tpg.is_empty());
        assert_eq!(tpg.gts_op_count(&[]), 0);
    }
}
