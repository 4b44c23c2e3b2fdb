//! Interference-graph construction over the virtual registers of one
//! class.
//!
//! The graph is built per register class with the classic backward scan:
//! block liveness over the class's registers comes from
//! [`analysis::live`], each block is walked backwards from its live-out
//! set, and at each instruction every register defined there interferes
//! with every register live after it (copies exempt their source,
//! enabling coalescing).
//!
//! It keeps the dual representation of Briggs' allocator (Cooper &
//! Torczon, *Engineering a Compiler* §13.4): a lower-triangular bit
//! matrix answers [`InterferenceGraph::interferes`] in constant time, and
//! per-node adjacency vectors, free of duplicates, drive iteration and
//! degrees.

use analysis::{BitSet, Solution};
use iloc::{Function, Op};

use crate::entity::EntityIndex;

/// An interference graph over the virtual registers of one class.
#[derive(Clone, Debug)]
pub struct InterferenceGraph {
    /// Adjacency vectors, indexed by dense entity id.
    adj: Vec<Vec<usize>>,
    /// The lower triangle of the adjacency matrix: bit
    /// `hi·(hi−1)/2 + lo` is set when `hi > lo` interfere.
    matrix: BitSet,
    /// Entities that are live across at least one call site.
    crosses_call: Vec<bool>,
    /// The dense numbering.
    pub entities: EntityIndex,
}

/// The matrix bit of the pair `{a, b}`, `a != b`.
#[inline]
fn tri(a: usize, b: usize) -> usize {
    let (hi, lo) = if a > b { (a, b) } else { (b, a) };
    hi * (hi - 1) / 2 + lo
}

impl InterferenceGraph {
    /// Builds the graph for the class covered by `entities`.
    pub fn build(f: &Function, entities: EntityIndex) -> InterferenceGraph {
        let n = entities.len();
        let mut g = InterferenceGraph {
            adj: vec![Vec::new(); n],
            matrix: BitSet::new(n * n.saturating_sub(1) / 2),
            crosses_call: vec![false; n],
            entities,
        };
        if n == 0 {
            return g;
        }

        // Backward walk per block, from its live-out set, adding
        // interference edges.
        let sol = entity_liveness(f, &g.entities);
        let (mut uses, mut defs) = (Vec::new(), Vec::new());
        for (b, mut live) in f.block_ids().zip(sol.out) {
            for instr in f.block(b).instrs.iter().rev() {
                g.entities.uses_defs(&instr.op, &mut uses, &mut defs);
                // Copy: the source does not interfere with the target.
                let copy_src: Option<usize> = match &instr.op {
                    Op::I2I { src, .. } | Op::F2F { src, .. } => g.entities.get(*src),
                    _ => None,
                };
                for &d in &defs {
                    for l in live.iter() {
                        if l != d && Some(l) != copy_src {
                            g.add_edge(d, l);
                        }
                    }
                }
                // Values live across a call (live after it minus its defs).
                if matches!(instr.op, Op::Call { .. }) {
                    for l in live.iter() {
                        if !defs.contains(&l) {
                            g.crosses_call[l] = true;
                        }
                    }
                }
                for &d in &defs {
                    live.remove(d);
                }
                for &u in &uses {
                    live.insert(u);
                }
            }
        }

        // Parameters are simultaneously defined at entry: make them
        // pairwise interfere so the call sequence can bind each to a
        // distinct register.
        let params: Vec<usize> = f.params.iter().filter_map(|p| g.entities.get(*p)).collect();
        for i in 0..params.len() {
            for j in i + 1..params.len() {
                g.add_edge(params[i], params[j]);
            }
        }
        g
    }

    /// Adds an undirected edge.
    #[inline]
    pub fn add_edge(&mut self, a: usize, b: usize) {
        if a != b && self.matrix.insert(tri(a, b)) {
            self.adj[a].push(b);
            self.adj[b].push(a);
        }
    }

    /// Whether `a` and `b` interfere.
    #[inline]
    pub fn interferes(&self, a: usize, b: usize) -> bool {
        a != b && self.matrix.contains(tri(a, b))
    }

    /// Neighbors of `a`.
    pub fn neighbors(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[a].iter().copied()
    }

    /// Degree of `a`.
    pub fn degree(&self, a: usize) -> usize {
        self.adj[a].len()
    }

    /// Number of nodes (entities).
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Whether entity `a` is live across some call.
    pub fn crosses_call(&self, a: usize) -> bool {
        self.crosses_call[a]
    }

    /// Marks entity `a` as live across a call.
    #[cfg(test)]
    pub(crate) fn set_crosses_call(&mut self, a: usize) {
        self.crosses_call[a] = true;
    }

    /// Merges node `b` into node `a` (coalescing): `a` inherits `b`'s
    /// edges and call-crossing flag; `b` becomes isolated.
    pub fn merge(&mut self, a: usize, b: usize) {
        debug_assert!(a != b, "cannot merge a node into itself");
        debug_assert!(!self.interferes(a, b), "cannot merge interfering nodes");
        for n in std::mem::take(&mut self.adj[b]) {
            let at = self.adj[n]
                .iter()
                .position(|&x| x == b)
                .expect("adjacency is symmetric");
            self.adj[n].swap_remove(at);
            self.matrix.remove(tri(n, b));
            self.add_edge(a, n);
        }
        if self.crosses_call[b] {
            self.crosses_call[a] = true;
        }
    }

    /// Briggs' conservative-coalescing test for merging `a` and `b` with
    /// `k` colors: the combined node must have fewer than `k` neighbors of
    /// significant degree (≥ k).
    pub fn briggs_safe(&self, a: usize, b: usize, k: usize) -> bool {
        let significant = |n: usize, common: bool| {
            // A common neighbor of both loses one edge after the merge.
            self.degree(n) - usize::from(common) >= k
        };
        let mut count = 0;
        for &n in &self.adj[a] {
            if n != b && significant(n, self.interferes(n, b)) {
                count += 1;
            }
        }
        for &n in &self.adj[b] {
            // Common neighbors were counted with `a`'s.
            if n != a && !self.interferes(n, a) && significant(n, false) {
                count += 1;
            }
        }
        count < k
    }
}

/// Block-level liveness over the registers of `idx`.
fn entity_liveness(f: &Function, idx: &EntityIndex) -> Solution {
    let n = idx.len();
    let (mut uses, mut defs) = (Vec::new(), Vec::new());
    let blocks: Vec<_> = f
        .block_ids()
        .map(|b| {
            let mut gen = BitSet::new(n);
            let mut kill = BitSet::new(n);
            for instr in &f.block(b).instrs {
                idx.uses_defs(&instr.op, &mut uses, &mut defs);
                for &u in &uses {
                    if !kill.contains(u) {
                        gen.insert(u);
                    }
                }
                for &d in &defs {
                    kill.insert(d);
                }
            }
            (gen, kill)
        })
        .collect();
    analysis::live(f, &blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::RegClass;
    use std::collections::HashSet;

    use crate::testkit::{isolated_nodes, SplitMix64};

    fn graph_for(f: &Function, class: RegClass) -> InterferenceGraph {
        InterferenceGraph::build(f, EntityIndex::build(f, class))
    }

    #[test]
    fn simultaneously_live_values_interfere() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let b = fb.loadi(2);
        let c = fb.add(a, b); // a and b live together
        fb.ret(&[c]);
        let f = fb.finish();
        let g = graph_for(&f, RegClass::Gpr);
        let (ia, ib) = (g.entities.id(a), g.entities.id(b));
        assert!(g.interferes(ia, ib));
        // c is defined when nothing else is live → no edges to a/b.
        let ic = g.entities.id(c);
        assert!(!g.interferes(ic, ia));
    }

    #[test]
    fn copy_source_does_not_interfere_with_target() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let b = fb.copy(a); // copy: a ↛ b even though a may be live after
        let c = fb.add(a, b);
        fb.ret(&[c]);
        let f = fb.finish();
        let g = graph_for(&f, RegClass::Gpr);
        let (ia, ib) = (g.entities.id(a), g.entities.id(b));
        assert!(
            !g.interferes(ia, ib),
            "copy-related nodes must not interfere"
        );
    }

    #[test]
    fn call_crossing_detected() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1); // live across the call
        let rets = fb.call("g", &[], &[RegClass::Gpr]);
        let c = fb.add(a, rets[0]);
        fb.ret(&[c]);
        let f = fb.finish();
        let g = graph_for(&f, RegClass::Gpr);
        assert!(g.crosses_call(g.entities.id(a)));
        // The call's own result does not cross the call.
        assert!(!g.crosses_call(g.entities.id(rets[0])));
    }

    #[test]
    fn params_pairwise_interfere() {
        let mut fb = FuncBuilder::new("f");
        let p = fb.param(RegClass::Gpr);
        let q = fb.param(RegClass::Gpr);
        fb.ret(&[]); // neither used
        let f = fb.finish();
        let g = graph_for(&f, RegClass::Gpr);
        assert!(g.interferes(g.entities.id(p), g.entities.id(q)));
    }

    #[test]
    fn merge_transfers_edges() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let b = fb.copy(a);
        let x = fb.loadi(9); // interferes with b (both live at add)
        let c = fb.add(b, x);
        fb.ret(&[c]);
        let f = fb.finish();
        let mut g = graph_for(&f, RegClass::Gpr);
        let (ia, ib, ix) = (g.entities.id(a), g.entities.id(b), g.entities.id(x));
        assert!(g.interferes(ib, ix));
        g.merge(ia, ib);
        assert!(g.interferes(ia, ix), "a inherits b's edge to x");
        assert_eq!(g.degree(ib), 0);
    }

    /// Briggs' test over plain adjacency sets.
    fn model_briggs_safe(adj: &[HashSet<usize>], a: usize, b: usize, k: usize) -> bool {
        let union: HashSet<usize> = adj[a].union(&adj[b]).copied().collect();
        let significant = union
            .iter()
            .filter(|&&n| n != a && n != b)
            .filter(|&&n| {
                let common = adj[a].contains(&n) && adj[b].contains(&n);
                adj[n].len() - usize::from(common) >= k
            })
            .count();
        significant < k
    }

    #[test]
    fn matches_a_hashset_model_under_random_edges_and_merges() {
        let mut rng = SplitMix64(0x5EED);
        let mut next = |n: usize| rng.below(n);
        for case in 0..200 {
            let n = 2 + next(70);
            let mut g = isolated_nodes(n);
            let mut model: Vec<HashSet<usize>> = vec![HashSet::new(); n];
            for _ in 0..next(6 * n) {
                let (a, b) = (next(n), next(n));
                if next(8) == 0 {
                    if a == b || model[a].contains(&b) {
                        continue;
                    }
                    g.merge(a, b);
                    for m in std::mem::take(&mut model[b]) {
                        model[m].remove(&b);
                        model[m].insert(a);
                        model[a].insert(m);
                    }
                } else {
                    g.add_edge(a, b);
                    if a != b {
                        model[a].insert(b);
                        model[b].insert(a);
                    }
                }
            }
            for a in 0..n {
                let listed: Vec<usize> = g.neighbors(a).collect();
                let set: HashSet<usize> = listed.iter().copied().collect();
                assert_eq!(
                    listed.len(),
                    set.len(),
                    "case {case}: duplicate in adj[{a}]"
                );
                assert_eq!(set, model[a], "case {case}: neighbors of {a}");
                assert_eq!(g.degree(a), model[a].len());
                for b in 0..n {
                    assert_eq!(g.interferes(a, b), model[a].contains(&b));
                    let k = 1 + next(6);
                    assert_eq!(
                        g.briggs_safe(a, b, k),
                        model_briggs_safe(&model, a, b, k),
                        "case {case}: briggs_safe({a}, {b}, {k})"
                    );
                }
            }
        }
    }

    #[test]
    fn briggs_test_counts_significant_neighbors() {
        // Star: center interferes with 3 leaves; k = 2. Leaves have degree
        // 1 (< k) so merging two leaves is safe; merging… construct
        // directly on a hand-made graph.
        let mut fb = FuncBuilder::new("f");
        let r: Vec<_> = (0..4).map(|_| fb.loadi(0)).collect();
        fb.ret(&[]);
        let f = fb.finish();
        let mut g = graph_for(&f, RegClass::Gpr);
        let ids: Vec<usize> = r.iter().map(|x| g.entities.id(*x)).collect();
        // center = ids[0]; leaves = 1,2,3.
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[0], ids[2]);
        g.add_edge(ids[0], ids[3]);
        // Merging leaves 1 and 2 with k=2: combined neighbors = {center},
        // center degree 3 ≥ 2 → significant = 1 < 2 → safe.
        assert!(g.briggs_safe(ids[1], ids[2], 2));
        // With k=1: significant = 1 which is not < 1 → unsafe.
        assert!(!g.briggs_safe(ids[1], ids[2], 1));
    }
}
