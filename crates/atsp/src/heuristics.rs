//! Construction and improvement heuristics: nearest-neighbour and
//! greedy-edge tours, and an asymmetric-safe **Or-opt** local search
//! (segment relocation never reverses arc directions, so it is valid for
//! ATSP where classic 2-opt is not).
//!
//! Heuristic tours provide the branch-and-bound upper bound and back the
//! inexact `heuristic` backend.

use crate::instance::{AtspInstance, Tour};

/// Nearest-neighbour construction from the given start node.
#[must_use]
pub fn nearest_neighbor(instance: &AtspInstance, start: usize) -> Tour {
    let n = instance.len();
    assert!(start < n, "start node {start} out of range");
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut cur = start;
    order.push(cur);
    visited[cur] = true;
    for _ in 1..n {
        let next = (0..n)
            .filter(|&j| !visited[j])
            .min_by_key(|&j| instance.cost(cur, j))
            .expect("unvisited node exists");
        order.push(next);
        visited[next] = true;
        cur = next;
    }
    Tour::new(instance, order)
}

/// Best nearest-neighbour tour over all starts.
#[must_use]
pub fn best_nearest_neighbor(instance: &AtspInstance) -> Tour {
    (0..instance.len())
        .map(|s| nearest_neighbor(instance, s))
        .min_by_key(|t| t.cost)
        .expect("instances are non-empty")
}

/// Greedy-edge construction: repeatedly commit the globally cheapest arc
/// that keeps out-degrees, in-degrees and acyclicity (until the final
/// closing arc) valid.
#[must_use]
pub fn greedy_edge(instance: &AtspInstance) -> Tour {
    let n = instance.len();
    if n == 1 {
        return Tour::new(instance, vec![0]);
    }
    let mut arcs: Vec<(u64, usize, usize)> = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                arcs.push((instance.cost(i, j), i, j));
            }
        }
    }
    arcs.sort_unstable();
    let mut succ = vec![usize::MAX; n];
    let mut pred = vec![usize::MAX; n];
    // union-find over path components to refuse premature cycles
    let mut comp: Vec<usize> = (0..n).collect();
    fn find(comp: &mut [usize], mut x: usize) -> usize {
        while comp[x] != x {
            comp[x] = comp[comp[x]];
            x = comp[x];
        }
        x
    }
    let mut picked = 0usize;
    for (_, i, j) in arcs {
        if picked == n - 1 {
            break;
        }
        if succ[i] != usize::MAX || pred[j] != usize::MAX {
            continue;
        }
        let (ri, rj) = (find(&mut comp, i), find(&mut comp, j));
        if ri == rj {
            continue; // would close a subtour early
        }
        succ[i] = j;
        pred[j] = i;
        comp[ri] = rj;
        picked += 1;
    }
    // close the single remaining path into a cycle
    let tail = (0..n)
        .find(|&i| succ[i] == usize::MAX)
        .expect("one open tail");
    let head = (0..n)
        .find(|&j| pred[j] == usize::MAX)
        .expect("one open head");
    succ[tail] = head;
    let mut order = Vec::with_capacity(n);
    let mut cur = 0usize;
    for _ in 0..n {
        order.push(cur);
        cur = succ[cur];
    }
    Tour::new(instance, order)
}

/// Or-opt improvement: relocate segments of length 1–3 (orientation
/// preserved) while any move improves the cycle cost. Returns the
/// improved tour; terminates at a local optimum.
#[must_use]
pub fn or_opt(instance: &AtspInstance, tour: &Tour) -> Tour {
    let n = instance.len();
    if n < 4 {
        return tour.clone();
    }
    let mut order = tour.order.clone();
    let mut improved = true;
    while improved {
        improved = false;
        'moves: for seg_len in 1..=3usize.min(n - 2) {
            for from in 0..n {
                // segment occupies positions from..from+seg_len (cyclic);
                // keep indices simple by rotating the segment start to 1.
                let mut work = order.clone();
                work.rotate_left(from);
                // segment = work[1..1+seg_len]
                if 1 + seg_len >= n {
                    continue;
                }
                let before_cost = instance.cycle_cost(&work);
                let segment: Vec<usize> = work[1..1 + seg_len].to_vec();
                let mut rest: Vec<usize> = Vec::with_capacity(n - seg_len);
                rest.push(work[0]);
                rest.extend_from_slice(&work[1 + seg_len..]);
                for insert_at in 1..rest.len() {
                    let mut cand: Vec<usize> = Vec::with_capacity(n);
                    cand.extend_from_slice(&rest[..insert_at]);
                    cand.extend_from_slice(&segment);
                    cand.extend_from_slice(&rest[insert_at..]);
                    if instance.cycle_cost(&cand) < before_cost {
                        order = cand;
                        improved = true;
                        continue 'moves;
                    }
                }
            }
        }
    }
    Tour::new(instance, order)
}

/// The full heuristic pipeline: nearest-neighbour and greedy-edge
/// construction, each polished with Or-opt, best result kept. Both
/// seeds are descended — the cheaper *construction* does not always
/// lead to the cheaper *local optimum*.
#[must_use]
pub fn construct(instance: &AtspInstance) -> Tour {
    let nn = or_opt(instance, &best_nearest_neighbor(instance));
    let ge = or_opt(instance, &greedy_edge(instance));
    if nn.cost <= ge.cost {
        nn
    } else {
        ge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;

    fn random_instance(n: usize, seed: u64) -> AtspInstance {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        AtspInstance::from_fn(n, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 100
        })
    }

    #[test]
    fn nn_produces_valid_tours() {
        for seed in 0..5 {
            let inst = random_instance(7, seed);
            let t = best_nearest_neighbor(&inst);
            assert!(inst.is_valid_tour(&t.order));
            assert_eq!(inst.cycle_cost(&t.order), t.cost);
        }
    }

    #[test]
    fn greedy_produces_valid_tours() {
        for seed in 0..5 {
            let inst = random_instance(8, seed + 50);
            let t = greedy_edge(&inst);
            assert!(inst.is_valid_tour(&t.order));
        }
    }

    #[test]
    fn or_opt_never_worsens() {
        for seed in 0..8 {
            let inst = random_instance(9, seed + 7);
            let nn = nearest_neighbor(&inst, 0);
            let improved = or_opt(&inst, &nn);
            assert!(improved.cost <= nn.cost);
            assert!(inst.is_valid_tour(&improved.order));
        }
    }

    #[test]
    fn construct_close_to_optimal_on_small_instances() {
        for seed in 0..10 {
            let inst = random_instance(7, seed + 13);
            let h = construct(&inst);
            let opt = brute::solve(&inst).cost;
            assert!(h.cost >= opt);
            // Or-opt over NN/greedy is empirically near-optimal at this
            // size; allow a generous 1.5x envelope to keep the test robust.
            assert!(
                h.cost <= opt.saturating_mul(3) / 2 + 5,
                "seed {seed}: heuristic {0} vs optimum {opt}",
                h.cost
            );
        }
    }

    #[test]
    fn tiny_instances() {
        let inst = random_instance(2, 3);
        assert!(inst.is_valid_tour(&construct(&inst).order));
        let inst = random_instance(3, 3);
        assert!(inst.is_valid_tour(&construct(&inst).order));
    }
}
