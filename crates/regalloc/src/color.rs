//! Simplify/select graph coloring with optimistic spilling (Briggs).
//!
//! Simplify keeps the non-removed nodes of degree < k as a word set and
//! removes its lowest member, found from a word cursor that only an
//! insert lowers; when the set is empty, the optimistic spill candidate
//! is the first node of least cost/degree in id order. That candidate
//! comes from a lazy min-heap keyed by (cost/degree, id), filled on the
//! first pick: a popped entry whose ratio went stale is pushed again with
//! the current one. Degrees only fall while simplify runs and costs are
//! non-negative, so a node's ratio only rises and its entry's key never
//! exceeds it; the first fresh entry popped is the minimum a scan over
//! the [`SpillCosts`] would find. Those two rules fix the stack, and the
//! stack fixes the order of [`Coloring::spilled`].
//!
//! Each edge is walked once per phase, from the end that can change the
//! answer. Simplify walks a removed node's matrix row masked by the nodes
//! still alive, the only ones whose degree still counts; select walks a
//! node's row masked by the nodes already colored, the only ones that
//! rule a color out.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use analysis::BitSet;

use crate::costs::SpillCosts;
use crate::igraph::InterferenceGraph;

/// Result of one coloring attempt.
#[derive(Clone, Debug, Default)]
pub struct Coloring {
    /// Assigned colors, by dense node id (`None` for spilled nodes).
    pub colors: Vec<Option<u32>>,
    /// Node ids that could not be colored and must be spilled, in the
    /// order select reached them.
    pub spilled: Vec<usize>,
    /// Optimistic spill candidates simplify took: the times it found no
    /// node of degree < k.
    pub spill_picks: usize,
}

/// The heap key of a spill ratio. Ratios are non-negative and not NaN,
/// and for those the IEEE bit patterns order like the numbers (adding
/// `0.0` turns a `-0.0` into `+0.0`).
#[inline]
fn ratio_key(costs: &SpillCosts, degree: usize, i: usize) -> u64 {
    (costs.cost(i) / (degree.max(1) as f64) + 0.0).to_bits()
}

/// Colors the nodes of `g` with `k` colors.
///
/// Nodes that are live across calls are denied colors below
/// `caller_saved` (0 disables the restriction). Spill choice follows the
/// classic cost/degree heuristic over [`SpillCosts`], whose costs must
/// all be non-negative.
pub fn color(g: &InterferenceGraph, k: u32, caller_saved: u32, costs: &SpillCosts) -> Coloring {
    let n = g.len();
    debug_assert!(
        (0..n).all(|i| costs.cost(i) >= 0.0),
        "spill costs must be non-negative and not NaN"
    );
    let k_nodes = k as usize;
    let mut degree: Vec<usize> = (0..n).map(|i| g.degree(i)).collect();
    // Nodes not yet removed: simplify walks only `row & alive`, so each
    // edge is visited once, from the end removed first.
    let mut alive = BitSet::full(n);
    // Non-removed nodes of degree < k. Degrees only fall, so a node
    // enters once and leaves when it is removed. Every word below
    // `cursor` is empty; an insert lowers it.
    let mut low = BitSet::new(n);
    for (i, &d) in degree.iter().enumerate() {
        if d < k_nodes {
            low.insert(i);
        }
    }
    let mut cursor = 0;
    // Spill candidates by (ratio key, id), built on the first pick. Each
    // non-removed node has exactly one entry, whose key is at most its
    // current ratio's.
    let mut heap: Option<BinaryHeap<Reverse<(u64, usize)>>> = None;
    let mut spill_picks = 0;

    let mut stack: Vec<usize> = Vec::with_capacity(n);
    for _ in 0..n {
        while low.words().get(cursor) == Some(&0) {
            cursor += 1;
        }
        // Prefer the lowest node with degree < k.
        let pick = if let Some(&w) = low.words().get(cursor) {
            cursor * 64 + w.trailing_zeros() as usize
        } else {
            // Optimistic spill candidate: the first node of minimum
            // cost/degree. Infinite-cost nodes are only chosen as a last
            // resort.
            spill_picks += 1;
            let heap = heap.get_or_insert_with(|| {
                alive
                    .iter()
                    .map(|i| Reverse((ratio_key(costs, degree[i], i), i)))
                    .collect()
            });
            loop {
                let Reverse((key, i)) = heap.pop().expect("an unremoved node remains");
                if !alive.contains(i) {
                    continue;
                }
                let now = ratio_key(costs, degree[i], i);
                if now == key {
                    break i;
                }
                heap.push(Reverse((now, i)));
            }
        };

        low.remove(pick);
        alive.remove(pick);
        stack.push(pick);
        for_each_masked(g.row(pick), alive.words(), |nb| {
            degree[nb] -= 1;
            // Just dropped below k.
            if degree[nb] + 1 == k_nodes {
                low.insert(nb);
                cursor = cursor.min(nb / 64);
            }
        });
    }

    // Select: pop and assign the lowest legal color. Only colored
    // neighbors constrain a node, so select walks `row & colored`.
    let mut out = Coloring {
        colors: vec![None; n],
        spilled: Vec::new(),
        spill_picks,
    };
    let mut colored = BitSet::new(n);
    let mut used = vec![false; k_nodes];
    while let Some(i) = stack.pop() {
        used.fill(false);
        for_each_masked(g.row(i), colored.words(), |nb| {
            if let Some(c) = out.colors[nb] {
                used[c as usize] = true;
            }
        });
        let min_color = if g.crosses_call(i) { caller_saved } else { 0 };
        match (min_color..k).find(|&c| !used[c as usize]) {
            Some(c) => {
                out.colors[i] = Some(c);
                colored.insert(i);
            }
            None => out.spilled.push(i),
        }
    }
    out
}

/// Calls `f` on each set bit of `row & mask`, in increasing order.
#[inline]
fn for_each_masked(row: &[u64], mask: &[u64], mut f: impl FnMut(usize)) {
    for (wi, (&r, &m)) in row.iter().zip(mask).enumerate() {
        let mut w = r & m;
        while w != 0 {
            f(wi * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::INFINITE;
    use crate::testkit::{isolated_nodes, SplitMix64};
    use analysis::LoopInfo;
    use iloc::builder::FuncBuilder;
    use iloc::RegClass;
    use std::collections::{HashMap, HashSet};

    /// Builds a function where `width` integer values are simultaneously
    /// live (a chain of loads followed by a reduction).
    fn wide_function(width: usize) -> (iloc::Function, Vec<iloc::Reg>) {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let vals: Vec<_> = (0..width).map(|i| fb.loadi(i as i64)).collect();
        let mut acc = vals[0];
        for v in &vals[1..] {
            acc = fb.add(acc, *v);
        }
        fb.ret(&[acc]);
        (fb.finish(), vals)
    }

    fn build(f: &iloc::Function) -> InterferenceGraph {
        InterferenceGraph::build(f, RegClass::Gpr)
    }

    fn costs_for(f: &iloc::Function, g: &InterferenceGraph) -> SpillCosts {
        let none = HashSet::new();
        SpillCosts::compute(f, &LoopInfo::block_weights(f), &g.regs, &none, &none)
    }

    #[test]
    fn enough_colors_colors_everything() {
        let (f, _) = wide_function(6);
        let g = build(&f);
        let c = color(&g, 8, 0, &costs_for(&f, &g));
        assert!(c.spilled.is_empty());
        for (id, _) in g.regs.iter() {
            assert!(c.colors[id].is_some());
        }
    }

    #[test]
    fn neighbors_get_distinct_colors() {
        let (f, _) = wide_function(5);
        let g = build(&f);
        let c = color(&g, 8, 0, &costs_for(&f, &g));
        for (id, _) in g.regs.iter() {
            for nb in g.neighbors(id) {
                if let (Some(a), Some(b)) = (c.colors[id], c.colors[nb]) {
                    assert_ne!(a, b, "interfering nodes share a color");
                }
            }
        }
    }

    #[test]
    fn too_few_colors_spills() {
        let (f, _) = wide_function(8);
        let g = build(&f);
        let c = color(&g, 3, 0, &costs_for(&f, &g));
        assert!(!c.spilled.is_empty());
    }

    #[test]
    fn caller_saved_restriction_respected() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        fb.call("g", &[], &[]);
        let r = fb.addi(a, 1);
        fb.ret(&[r]);
        let f = fb.finish();
        let g = build(&f);
        let c = color(&g, 8, 4, &costs_for(&f, &g));
        let ia = g.regs.id(a);
        assert!(
            c.colors[ia].unwrap() >= 4,
            "call-crossing value must avoid caller-saved colors"
        );
    }

    #[test]
    fn spill_picks_count_the_optimistic_candidates() {
        // Every node of a 4-cycle has degree 2: with k = 2 simplify must
        // pick one optimistically, after which the rest fall below k.
        let costs = SpillCosts::from_costs(vec![1.0; 4]);
        assert_eq!(color(&cycle_graph(), 2, 0, &costs).spill_picks, 1);
        assert_eq!(color(&cycle_graph(), 3, 0, &costs).spill_picks, 0);
    }

    #[test]
    fn optimistic_coloring_beats_pessimistic() {
        // A 4-cycle is 2-colorable even though every node has degree 2;
        // Chaitin's original (pessimistic) rule with k=2 would spill.
        let g = cycle_graph();
        let c = color(&g, 2, 0, &SpillCosts::from_costs(vec![1.0; 4]));
        assert!(
            c.spilled.is_empty(),
            "optimistic coloring must 2-color a 4-cycle"
        );
    }

    /// The 4-cycle 0–1–2–3–0.
    fn cycle_graph() -> InterferenceGraph {
        let mut g = isolated_nodes(4);
        for i in 0..4 {
            g.add_edge(i, (i + 1) % 4);
        }
        g
    }

    /// Quadratic simplify/select, the reference for `color`: a linear
    /// scan for the first node of degree < k, `Iterator::min_by` over
    /// cost/degree for the spill candidate, colors in a map. `color`
    /// must agree with it exactly.
    fn reference_color(
        g: &InterferenceGraph,
        k: u32,
        caller_saved: u32,
        costs: &SpillCosts,
    ) -> Coloring {
        let n = g.len();
        let mut degree: Vec<usize> = (0..n).map(|i| g.degree(i)).collect();
        let mut removed = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        for _ in 0..n {
            let pick = (0..n)
                .filter(|&i| !removed[i])
                .find(|&i| degree[i] < k as usize)
                .or_else(|| {
                    (0..n).filter(|&i| !removed[i]).min_by(|&a, &b| {
                        let ra = costs.cost(a) / (degree[a].max(1) as f64);
                        let rb = costs.cost(b) / (degree[b].max(1) as f64);
                        ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                })
                .unwrap();
            removed[pick] = true;
            stack.push(pick);
            for nb in g.neighbors(pick) {
                if !removed[nb] {
                    degree[nb] -= 1;
                }
            }
        }
        let mut colors: HashMap<usize, u32> = HashMap::new();
        let mut spilled = Vec::new();
        while let Some(i) = stack.pop() {
            let mut used = vec![false; k as usize];
            for nb in g.neighbors(i) {
                if let Some(&c) = colors.get(&nb) {
                    used[c as usize] = true;
                }
            }
            let min_color = if g.crosses_call(i) { caller_saved } else { 0 };
            match (min_color..k).find(|&c| !used[c as usize]) {
                Some(c) => {
                    colors.insert(i, c);
                }
                None => spilled.push(i),
            }
        }
        Coloring {
            colors: (0..n).map(|i| colors.get(&i).copied()).collect(),
            spilled,
            ..Coloring::default()
        }
    }

    #[test]
    fn matches_the_quadratic_reference_on_random_graphs() {
        let mut rng = SplitMix64(0x00C0_FFEE);
        let mut spilling = 0;
        for case in 0..320 {
            let n = rng.below(48);
            let k = 1 + rng.below(8) as u32;
            let caller_saved = rng.below(k as usize + 1) as u32;
            let mut g = isolated_nodes(n);
            let density = 1 + rng.below(100);
            for a in 0..n {
                for b in 0..a {
                    if rng.below(100) < density {
                        g.add_edge(a, b);
                    }
                }
                if rng.below(4) == 0 {
                    g.set_crosses_call(a);
                }
            }
            // Coalesce a few non-interfering pairs, leaving isolated nodes.
            if n > 1 {
                for _ in 0..rng.below(4) {
                    let (a, b) = (rng.below(n), rng.below(n));
                    if a != b && !g.interferes(a, b) {
                        g.merge(a, b);
                    }
                }
            }
            // Infinite, zero and small integral costs, so ratios tie.
            let costs: Vec<f64> = (0..n)
                .map(|_| match rng.below(8) {
                    0 => INFINITE,
                    1 => 0.0,
                    2 => 0.5 * rng.below(40) as f64,
                    _ => (1 + rng.below(3)) as f64,
                })
                .collect();
            let costs = SpillCosts::from_costs(costs);
            let got = color(&g, k, caller_saved, &costs);
            let want = reference_color(&g, k, caller_saved, &costs);
            assert_eq!(got.colors, want.colors, "case {case}: colors differ");
            assert_eq!(
                got.spilled, want.spilled,
                "case {case}: spill order differs"
            );
            spilling += usize::from(!want.spilled.is_empty());
        }
        assert!(spilling > 32, "only {spilling} cases spilled");
    }

    /// Graphs of 65 to 260 nodes, so the `alive` and `colored` masks and
    /// the low-degree cursor cross word boundaries (the other reference
    /// tests stay under 64 nodes).
    #[test]
    fn matches_the_reference_on_graphs_wider_than_a_word() {
        let mut rng = SplitMix64(0x3D_A7A5);
        let (mut spilling, mut picks) = (0, 0);
        for case in 0..96 {
            let n = match case {
                0..=3 => [65, 128, 129, 260][case],
                _ => 65 + rng.below(196),
            };
            let k = 1 + rng.below(24) as u32;
            let caller_saved = rng.below(k as usize + 1) as u32;
            let mut g = isolated_nodes(n);
            let density = 1 + rng.below(60);
            for a in 0..n {
                for b in 0..a {
                    if rng.below(100) < density {
                        g.add_edge(a, b);
                    }
                }
                if rng.below(4) == 0 {
                    g.set_crosses_call(a);
                }
            }
            for _ in 0..rng.below(12) {
                let (a, b) = (rng.below(n), rng.below(n));
                if a != b && !g.interferes(a, b) {
                    g.merge(a, b);
                }
            }
            let costs: Vec<f64> = (0..n)
                .map(|_| match rng.below(6) {
                    0 => INFINITE,
                    1 => 0.0,
                    _ => (1 + rng.below(3)) as f64,
                })
                .collect();
            let costs = SpillCosts::from_costs(costs);
            let got = color(&g, k, caller_saved, &costs);
            let want = reference_color(&g, k, caller_saved, &costs);
            assert_eq!(
                got.colors, want.colors,
                "case {case} (n = {n}): colors differ"
            );
            assert_eq!(
                got.spilled, want.spilled,
                "case {case} (n = {n}): spill order differs"
            );
            spilling += usize::from(!want.spilled.is_empty());
            picks += got.spill_picks;
        }
        assert!(spilling > 24, "only {spilling} cases spilled");
        assert!(picks > 500, "only {picks} optimistic picks");
    }

    /// Dense graphs with at most three colors and tied costs: nearly every
    /// removal is an optimistic pick, each pick lowers its neighbors'
    /// degrees, so their heap entries go stale and ties on equal ratios
    /// must still fall to the lowest id.
    #[test]
    fn matches_the_reference_where_heap_entries_go_stale() {
        let mut rng = SplitMix64(0x57A1E);
        let mut picks = 0;
        for case in 0..200 {
            let n = 2 + rng.below(60);
            let k = 1 + rng.below(3) as u32;
            let mut g = isolated_nodes(n);
            let density = 60 + rng.below(41);
            for a in 0..n {
                for b in 0..a {
                    if rng.below(100) < density {
                        g.add_edge(a, b);
                    }
                }
            }
            let family = rng.below(4);
            let costs: Vec<f64> = (0..n)
                .map(|_| match family {
                    0 => 1.0,
                    1 => (1 + rng.below(2)) as f64,
                    2 => [INFINITE, 0.0][rng.below(2)],
                    _ => [INFINITE, 0.0, 1.0][rng.below(3)],
                })
                .collect();
            let costs = SpillCosts::from_costs(costs);
            let got = color(&g, k, 0, &costs);
            let want = reference_color(&g, k, 0, &costs);
            assert_eq!(got.colors, want.colors, "case {case}: colors differ");
            assert_eq!(
                got.spilled, want.spilled,
                "case {case}: spill order differs"
            );
            picks += got.spill_picks;
        }
        assert!(picks > 2000, "only {picks} optimistic picks");
    }
}
