//! Interference-graph construction over the virtual registers of one
//! class.
//!
//! The graph is built per register class with the classic backward scan:
//! at each instruction, every register defined there interferes with
//! every register live after it (copies exempt their source, enabling
//! coalescing).

use std::collections::HashSet;

use analysis::BitSet;
use iloc::{BlockId, Function, Op};

use crate::entity::EntityIndex;

/// An interference graph over the virtual registers of one class.
#[derive(Clone, Debug)]
pub struct InterferenceGraph {
    /// Adjacency sets, indexed by dense entity id.
    adj: Vec<HashSet<usize>>,
    /// Entities that are live across at least one call site.
    crosses_call: Vec<bool>,
    /// The dense numbering.
    pub entities: EntityIndex,
}

impl InterferenceGraph {
    /// Builds the graph for the class covered by `entities`.
    pub fn build(f: &Function, entities: EntityIndex) -> InterferenceGraph {
        let n = entities.len();
        let mut g = InterferenceGraph {
            adj: vec![HashSet::new(); n],
            crosses_call: vec![false; n],
            entities,
        };
        if n == 0 {
            return g;
        }

        // Block-level liveness over the entity universe.
        let (live_in, _live_out) = entity_liveness(f, &g.entities);

        // Backward walk per block adding interference edges.
        for b in f.block_ids() {
            // live := live-out(b) = ∪ live-in(succ)
            let mut live = BitSet::new(n);
            for s in f.successors(b) {
                live.union_with(&live_in[s.index()]);
            }
            for instr in f.block(b).instrs.iter().rev() {
                let (uses, defs) = g.entities.uses_defs(&instr.op);
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
                    let mut across = live.clone();
                    for &d in &defs {
                        across.remove(d);
                    }
                    for l in across.iter() {
                        g.crosses_call[l] = true;
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
    pub fn add_edge(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        self.adj[a].insert(b);
        self.adj[b].insert(a);
    }

    /// Whether `a` and `b` interfere.
    pub fn interferes(&self, a: usize, b: usize) -> bool {
        self.adj[a].contains(&b)
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

    /// Merges node `b` into node `a` (coalescing): `a` inherits `b`'s
    /// edges and call-crossing flag; `b` becomes isolated.
    pub fn merge(&mut self, a: usize, b: usize) {
        debug_assert!(!self.interferes(a, b), "cannot merge interfering nodes");
        let bn: Vec<usize> = self.adj[b].iter().copied().collect();
        for n in bn {
            self.adj[n].remove(&b);
            self.add_edge(a, n);
        }
        self.adj[b].clear();
        if self.crosses_call[b] {
            self.crosses_call[a] = true;
        }
    }

    /// Briggs' conservative-coalescing test for merging `a` and `b` with
    /// `k` colors: the combined node must have fewer than `k` neighbors of
    /// significant degree (≥ k).
    pub fn briggs_safe(&self, a: usize, b: usize, k: usize) -> bool {
        let mut significant = 0;
        let mut seen: HashSet<usize> = HashSet::new();
        for n in self.adj[a].iter().chain(self.adj[b].iter()) {
            if *n == a || *n == b || !seen.insert(*n) {
                continue;
            }
            // A common neighbor of both loses one edge after the merge.
            let mut deg = self.degree(*n);
            if self.adj[a].contains(n) && self.adj[b].contains(n) {
                deg -= 1;
            }
            if deg >= k {
                significant += 1;
            }
        }
        significant < k
    }
}

/// Block-level liveness (live-in, live-out) over the registers of `idx`.
pub fn entity_liveness(f: &Function, idx: &EntityIndex) -> (Vec<BitSet>, Vec<BitSet>) {
    let n_blocks = f.blocks.len();
    let n = idx.len();
    // gen/kill per block.
    let mut gens = vec![BitSet::new(n); n_blocks];
    let mut kills = vec![BitSet::new(n); n_blocks];
    for b in f.block_ids() {
        let bi = b.index();
        for instr in &f.block(b).instrs {
            let (uses, defs) = idx.uses_defs(&instr.op);
            for u in uses {
                if !kills[bi].contains(u) {
                    gens[bi].insert(u);
                }
            }
            for d in defs {
                kills[bi].insert(d);
            }
        }
    }
    let mut live_in = vec![BitSet::new(n); n_blocks];
    let mut live_out = vec![BitSet::new(n); n_blocks];
    let mut order: Vec<BlockId> = f.reverse_postorder();
    order.reverse();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let bi = b.index();
            let mut out = BitSet::new(n);
            for s in f.successors(b) {
                out.union_with(&live_in[s.index()]);
            }
            let mut inn = out.clone();
            inn.subtract(&kills[bi]);
            inn.union_with(&gens[bi]);
            if out != live_out[bi] {
                live_out[bi] = out;
                changed = true;
            }
            if inn != live_in[bi] {
                live_in[bi] = inn;
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::RegClass;

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
