//! Simplify/select graph coloring with optimistic spilling (Briggs).

use std::collections::HashMap;

use crate::costs::SpillCosts;
use crate::igraph::InterferenceGraph;

/// Result of one coloring attempt.
#[derive(Clone, Debug, Default)]
pub struct Coloring {
    /// Assigned colors, by dense entity id.
    pub colors: HashMap<usize, u32>,
    /// Entity ids that could not be colored and must be spilled.
    pub spilled: Vec<usize>,
}

/// Colors the nodes of `g` with `k` colors.
///
/// Entities that are live across calls are denied colors below
/// `caller_saved` (0 disables the restriction). Spill choice follows the
/// classic cost/degree heuristic over [`SpillCosts`].
pub fn color(g: &InterferenceGraph, k: u32, caller_saved: u32, costs: &SpillCosts) -> Coloring {
    let n = g.len();
    let mut degree: Vec<usize> = (0..n).map(|i| g.degree(i)).collect();
    let node_cost = |i: usize| costs.cost(g.entities.reg(i));

    let mut removed = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut remaining = n;

    while remaining > 0 {
        // Prefer any node with degree < k.
        let pick = (0..n)
            .filter(|&i| !removed[i])
            .find(|&i| degree[i] < k as usize)
            .or_else(|| {
                // Optimistic spill candidate: minimum cost/degree. Infinite-
                // cost nodes are only chosen as a last resort.
                (0..n).filter(|&i| !removed[i]).min_by(|&a, &b| {
                    let ra = node_cost(a) / (degree[a].max(1) as f64);
                    let rb = node_cost(b) / (degree[b].max(1) as f64);
                    ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
                })
            })
            .expect("remaining > 0 implies a node exists");

        removed[pick] = true;
        stack.push(pick);
        remaining -= 1;
        for nb in g.neighbors(pick) {
            if !removed[nb] {
                degree[nb] -= 1;
            }
        }
    }

    // Select: pop and assign the lowest legal color.
    let mut out = Coloring::default();
    while let Some(i) = stack.pop() {
        let mut used = vec![false; k as usize];
        for nb in g.neighbors(i) {
            if let Some(&c) = out.colors.get(&nb) {
                used[c as usize] = true;
            }
        }
        let min_color = if g.crosses_call(i) { caller_saved } else { 0 };
        let choice = (min_color..k).find(|&c| !used[c as usize]);
        match choice {
            Some(c) => {
                out.colors.insert(i, c);
            }
            None => out.spilled.push(i),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityIndex;
    use iloc::builder::FuncBuilder;
    use iloc::RegClass;
    use std::collections::HashSet;

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
        InterferenceGraph::build(f, EntityIndex::build(f, RegClass::Gpr))
    }

    #[test]
    fn enough_colors_colors_everything() {
        let (f, _) = wide_function(6);
        let g = build(&f);
        let costs = SpillCosts::compute(&f, &HashSet::new());
        let c = color(&g, 8, 0, &costs);
        assert!(c.spilled.is_empty());
        for (id, _) in g.entities.iter() {
            assert!(c.colors.contains_key(&id));
        }
    }

    #[test]
    fn neighbors_get_distinct_colors() {
        let (f, _) = wide_function(5);
        let g = build(&f);
        let costs = SpillCosts::compute(&f, &HashSet::new());
        let c = color(&g, 8, 0, &costs);
        for (id, _) in g.entities.iter() {
            for nb in g.neighbors(id) {
                if let (Some(a), Some(b)) = (c.colors.get(&id), c.colors.get(&nb)) {
                    assert_ne!(a, b, "interfering nodes share a color");
                }
            }
        }
    }

    #[test]
    fn too_few_colors_spills() {
        let (f, _) = wide_function(8);
        let g = build(&f);
        let costs = SpillCosts::compute(&f, &HashSet::new());
        let c = color(&g, 3, 0, &costs);
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
        let costs = SpillCosts::compute(&f, &HashSet::new());
        let c = color(&g, 8, 4, &costs);
        let ia = g.entities.id(a);
        assert!(
            c.colors[&ia] >= 4,
            "call-crossing value must avoid caller-saved colors"
        );
    }

    #[test]
    fn optimistic_coloring_beats_pessimistic() {
        // A 4-cycle is 2-colorable even though every node has degree 2;
        // Chaitin's original (pessimistic) rule with k=2 would spill.
        let mut fb = FuncBuilder::new("f");
        let r: Vec<_> = (0..4).map(|_| fb.loadi(0)).collect();
        fb.ret(&[]);
        let f = fb.finish();
        let mut g = build(&f);
        let ids: Vec<usize> = r.iter().map(|x| g.entities.id(*x)).collect();
        // Clear incidental edges by construction: loads don't overlap here
        // (each dies immediately), so add exactly the 4-cycle.
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[1], ids[2]);
        g.add_edge(ids[2], ids[3]);
        g.add_edge(ids[3], ids[0]);
        let costs = SpillCosts::compute(&f, &HashSet::new());
        let c = color(&g, 2, 0, &costs);
        assert!(
            c.spilled.is_empty(),
            "optimistic coloring must 2-color a 4-cycle"
        );
    }
}
