//! Interference-graph construction over the virtual registers of one
//! class.
//!
//! The nodes are a [`RegIndex`] over the class's virtual registers
//! ([`RegIndex::build_where`]), numbered in first-appearance order, so
//! every tie-break by node id follows the code. The graph is built with
//! the classic backward scan of [`Liveness`], the one liveness core the
//! slot analysis and register pressure share: block liveness over the
//! nodes, then a walk of each block backwards from its live-out row,
//! where every register defined at an instruction interferes with every
//! register live after it (copies exempt their source, enabling
//! coalescing).
//!
//! The graph is one square bit matrix, row-major with a whole number of
//! 64-bit words per row (the matrix half of Briggs' dual representation,
//! Cooper & Torczon, *Engineering a Compiler* §13.4). The scan ORs the
//! live set's words into each definition's row, masking the definition
//! itself and, unless that bit was already set, the copy source. One
//! symmetrize pass then ORs each 64×64 block with the transpose of its
//! mirror block (`transpose64`), never transposing an all-zero block,
//! and degrees are row popcounts. [`InterferenceGraph::interferes`] is
//! one bit test, and [`InterferenceGraph::neighbors`] walks a row's set
//! bits in increasing id order, so no per-node adjacency vector is
//! built; [`color`](crate::color()) walks a row masked by the nodes that
//! can still matter.
//!
//! The matrix is reused: a dropped graph gives its buffer to its thread's
//! spare (a `thread_local!` that keeps the larger buffer), and the next
//! build on that thread takes it and zeroes only the `n · words` words it
//! needs. A rebuild after a coalesce pass or a spill round, and the next
//! function or module on the same worker, thus reuse one buffer instead
//! of allocating and faulting in a fresh one (6.8 MB at n = 7364).
//! With two or more jobs, `exec`'s scoped workers end with their stage,
//! and the buffer with them. With one job, `exec` runs every item inline
//! on the calling thread, which keeps its spare when the stage ends; the
//! harness's stages (`harness::Run::par_contained`) therefore end with
//! [`release_spare_matrix`], so the largest matrix a stage built does not
//! outlive it on one worker either.

use std::cell::Cell;

use analysis::bitset::ones;
use analysis::{Liveness, RegIndex};
use iloc::{Function, Op, RegClass};

/// An interference graph over the virtual registers of one class.
#[derive(Clone, Debug)]
pub struct InterferenceGraph {
    /// The adjacency matrix: bit `b % 64` of word `a · words + b / 64`
    /// is set when `a` and `b` interfere. Symmetric, zero diagonal.
    bits: Vec<u64>,
    /// Words per matrix row.
    words: usize,
    /// Set bits per row.
    degree: Vec<usize>,
    /// Nodes that are live across at least one call site.
    crosses_call: Vec<bool>,
    /// The nodes: the class's virtual registers, densely numbered.
    pub regs: RegIndex,
}

impl InterferenceGraph {
    /// Builds the graph over the virtual registers of `class` in `f`.
    pub fn build(f: &Function, class: RegClass) -> InterferenceGraph {
        let regs = RegIndex::build_where(f, |r| r.class() == class && r.is_virtual());
        let n = regs.len();
        let words = n.div_ceil(64);
        // This thread's spare buffer, zeroed over the words it needs.
        let mut bits = SPARE.take();
        bits.clear();
        bits.resize(n * words, 0);
        let mut crosses_call = vec![false; n];

        // Backward walk per block, from its live-out set: each
        // definition's row takes the registers live after it.
        if n > 0 {
            let operands = regs.operands();
            let liveness = Liveness::solve(f, n, &operands);
            liveness.walk(f, &operands, |b, i, defs, live| {
                let op = &f.block(b).instrs[i].op;
                // Copy: the source does not interfere with the target.
                let copy_src: Option<usize> = match op {
                    Op::I2I { src, .. } | Op::F2F { src, .. } => regs.get(*src),
                    _ => None,
                };
                for &d in defs {
                    let row = &mut bits[d * words..(d + 1) * words];
                    // A source that already interferes with the target
                    // (another definition of it) keeps its edge.
                    let masked = copy_src.filter(|&s| row[s / 64] & (1 << (s % 64)) == 0);
                    for (r, l) in row.iter_mut().zip(live.words()) {
                        *r |= l;
                    }
                    for m in masked.into_iter().chain([d]) {
                        row[m / 64] &= !(1 << (m % 64));
                    }
                }
                // Values live across a call (live after it minus its defs).
                if matches!(op, Op::Call { .. }) {
                    for l in live.iter() {
                        if !defs.contains(&l) {
                            crosses_call[l] = true;
                        }
                    }
                }
            });
        }
        let mut g = InterferenceGraph {
            bits,
            words,
            degree: vec![0; n],
            crosses_call,
            regs,
        };

        // Mirror every bit: an edge found from either end is an edge.
        // Block (I, J) of the matrix (rows 64·I.., word J) and its mirror
        // block (J, I) each OR in the other's transpose; a diagonal block
        // is its own mirror. An all-zero block adds nothing and is not
        // transposed.
        let rows = |b: usize| b * 64..n.min(b * 64 + 64);
        let mut blocks = [[0u64; 64]; 2];
        for bi in 0..words {
            for bj in bi..words {
                for (block, (from, at)) in blocks.iter_mut().zip([(bi, bj), (bj, bi)]) {
                    for (r, a) in rows(from).enumerate() {
                        block[r] = g.bits[a * words + at];
                    }
                }
                for (block, (to, at)) in blocks.iter_mut().zip([(bj, bi), (bi, bj)]) {
                    if block.iter().any(|&w| w != 0) {
                        transpose64(block);
                        for (r, a) in rows(to).enumerate() {
                            g.bits[a * words + at] |= block[r];
                        }
                        block.fill(0);
                    }
                }
            }
        }
        for (a, d) in g.degree.iter_mut().enumerate() {
            *d = g.bits[a * words..(a + 1) * words]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum();
        }

        // Parameters are simultaneously defined at entry: make them
        // pairwise interfere so the call sequence can bind each to a
        // distinct register.
        let params: Vec<usize> = f.params.iter().filter_map(|p| g.regs.get(*p)).collect();
        for i in 0..params.len() {
            for j in i + 1..params.len() {
                g.add_edge(params[i], params[j]);
            }
        }
        g
    }

    /// The matrix row of `a`: bit `b % 64` of word `b / 64` is set when
    /// `a` and `b` interfere.
    #[inline]
    pub(crate) fn row(&self, a: usize) -> &[u64] {
        &self.bits[a * self.words..(a + 1) * self.words]
    }

    /// Sets bit `b` of row `a`; returns `true` if it was newly set.
    #[inline]
    fn set(&mut self, a: usize, b: usize) -> bool {
        let w = &mut self.bits[a * self.words + b / 64];
        let old = *w;
        *w |= 1 << (b % 64);
        old != *w
    }

    /// Adds an undirected edge.
    #[inline]
    pub fn add_edge(&mut self, a: usize, b: usize) {
        if a != b && self.set(a, b) {
            self.set(b, a);
            self.degree[a] += 1;
            self.degree[b] += 1;
        }
    }

    /// Whether `a` and `b` interfere.
    #[inline]
    pub fn interferes(&self, a: usize, b: usize) -> bool {
        self.row(a)[b / 64] & (1 << (b % 64)) != 0
    }

    /// Neighbors of `a`, in increasing id order.
    pub fn neighbors(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        ones(self.row(a))
    }

    /// Degree of `a`.
    pub fn degree(&self, a: usize) -> usize {
        self.degree[a]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.degree.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.degree.is_empty()
    }

    /// Whether node `a` is live across some call.
    pub fn crosses_call(&self, a: usize) -> bool {
        self.crosses_call[a]
    }

    /// Marks node `a` as live across a call.
    #[cfg(test)]
    pub(crate) fn set_crosses_call(&mut self, a: usize) {
        self.crosses_call[a] = true;
    }

    /// Merges node `b` into node `a` (coalescing): `a` inherits `b`'s
    /// edges and call-crossing flag; `b` becomes isolated.
    pub fn merge(&mut self, a: usize, b: usize) {
        debug_assert!(a != b, "cannot merge a node into itself");
        debug_assert!(!self.interferes(a, b), "cannot merge interfering nodes");
        for wi in 0..self.words {
            let mut w = std::mem::take(&mut self.bits[b * self.words + wi]);
            while w != 0 {
                let n = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                // `n` trades its edge to `b` for one to `a`, unless it
                // already had that.
                self.bits[n * self.words + b / 64] &= !(1 << (b % 64));
                if self.set(n, a) {
                    self.set(a, n);
                    self.degree[a] += 1;
                } else {
                    self.degree[n] -= 1;
                }
            }
        }
        self.degree[b] = 0;
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
        for n in self.neighbors(a) {
            if n != b && significant(n, self.interferes(n, b)) {
                count += 1;
            }
        }
        for n in self.neighbors(b) {
            // Common neighbors were counted with `a`'s.
            if n != a && !self.interferes(n, a) && significant(n, false) {
                count += 1;
            }
        }
        count < k
    }
}

thread_local! {
    /// The largest matrix buffer a graph dropped on this thread gave back.
    static SPARE: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// Frees this thread's spare matrix buffer. A stage whose items ran
/// inline on the calling thread calls it when it ends; the next build on
/// the thread allocates afresh.
pub fn release_spare_matrix() {
    let _ = SPARE.try_with(Cell::take);
}

impl Drop for InterferenceGraph {
    /// Gives the matrix to this thread's `SPARE` if it is the larger
    /// buffer; does nothing once the thread's locals are gone.
    fn drop(&mut self) {
        let bits = std::mem::take(&mut self.bits);
        let _ = SPARE.try_with(|spare| {
            spare.set(std::cmp::max_by_key(spare.take(), bits, Vec::capacity));
        });
    }
}

/// Transposes a 64×64 bit block in place: bit `c` of word `r` trades
/// places with bit `r` of word `c`. Each of the six rounds swaps the
/// off-diagonal quadrants of every 2j×2j sub-block (Warren, *Hacker's
/// Delight* §7–3).
pub(crate) fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        // Row `k` of each 2j-row group trades with row `k + j`.
        for group in m.chunks_exact_mut(2 * j) {
            let (lo, hi) = group.split_at_mut(j);
            for (a, b) in lo.iter_mut().zip(hi) {
                let t = ((*a >> j) ^ *b) & mask;
                *a ^= t << j;
                *b ^= t;
            }
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use std::collections::{BTreeSet, HashSet};

    use crate::testkit::{isolated_nodes, random_function, SplitMix64};

    #[test]
    fn simultaneously_live_values_interfere() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let b = fb.loadi(2);
        let c = fb.add(a, b); // a and b live together
        fb.ret(&[c]);
        let f = fb.finish();
        let g = InterferenceGraph::build(&f, RegClass::Gpr);
        let (ia, ib) = (g.regs.id(a), g.regs.id(b));
        assert!(g.interferes(ia, ib));
        // c is defined when nothing else is live → no edges to a/b.
        let ic = g.regs.id(c);
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
        let g = InterferenceGraph::build(&f, RegClass::Gpr);
        let (ia, ib) = (g.regs.id(a), g.regs.id(b));
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
        let g = InterferenceGraph::build(&f, RegClass::Gpr);
        assert!(g.crosses_call(g.regs.id(a)));
        // The call's own result does not cross the call.
        assert!(!g.crosses_call(g.regs.id(rets[0])));
    }

    #[test]
    fn params_pairwise_interfere() {
        let mut fb = FuncBuilder::new("f");
        let p = fb.param(RegClass::Gpr);
        let q = fb.param(RegClass::Gpr);
        fb.ret(&[]); // neither used
        let f = fb.finish();
        let g = InterferenceGraph::build(&f, RegClass::Gpr);
        assert!(g.interferes(g.regs.id(p), g.regs.id(q)));
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
        let mut g = InterferenceGraph::build(&f, RegClass::Gpr);
        let (ia, ib, ix) = (g.regs.id(a), g.regs.id(b), g.regs.id(x));
        assert!(g.interferes(ib, ix));
        g.merge(ia, ib);
        assert!(g.interferes(ia, ix), "a inherits b's edge to x");
        assert_eq!(g.degree(ib), 0);
    }

    /// The per-edge build the row build replaced: at each definition,
    /// one edge to every register live after it except the definition
    /// and a copy's source. Returns the neighbor sets and the
    /// call-crossing flags.
    fn reference_build(f: &Function, regs: &RegIndex) -> (Vec<BTreeSet<usize>>, Vec<bool>) {
        let n = regs.len();
        let mut adj = vec![BTreeSet::new(); n];
        let mut add_edge = |a: usize, b: usize| {
            if a != b {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        };
        let mut crosses_call = vec![false; n];
        let operands = regs.operands();
        Liveness::solve(f, n, &operands).walk(f, &operands, |b, i, defs, live| {
            let op = &f.block(b).instrs[i].op;
            let copy_src: Option<usize> = match op {
                Op::I2I { src, .. } | Op::F2F { src, .. } => regs.get(*src),
                _ => None,
            };
            for &d in defs {
                for l in live.iter() {
                    if l != d && Some(l) != copy_src {
                        add_edge(d, l);
                    }
                }
            }
            if matches!(op, Op::Call { .. }) {
                for l in live.iter() {
                    if !defs.contains(&l) {
                        crosses_call[l] = true;
                    }
                }
            }
        });
        let params: Vec<usize> = f.params.iter().filter_map(|p| regs.get(*p)).collect();
        for i in 0..params.len() {
            for j in i + 1..params.len() {
                add_edge(params[i], params[j]);
            }
        }
        (adj, crosses_call)
    }

    /// Asserts that `g`, built from `f`, equals [`reference_build`].
    fn assert_matches_reference(f: &Function, g: &InterferenceGraph, case: &str) {
        let (adj, crosses_call) = reference_build(f, &g.regs);
        for a in 0..g.len() {
            let listed: Vec<usize> = g.neighbors(a).collect();
            let want: Vec<usize> = adj[a].iter().copied().collect();
            assert_eq!(listed, want, "{case}: neighbors of {a}");
            assert_eq!(g.degree(a), adj[a].len(), "{case}: degree of {a}");
            assert_eq!(g.crosses_call(a), crosses_call[a], "{case}: {a}");
            for b in 0..g.len() {
                assert_eq!(g.interferes(a, b), adj[a].contains(&b), "{case}");
            }
        }
    }

    #[test]
    fn row_build_matches_the_per_edge_reference() {
        let mut rng = SplitMix64(0xB17_0123);
        let (mut wide, mut kept_copy_edges) = (0, 0);
        for case in 0..240 {
            let f = random_function(&mut rng);
            for class in RegClass::ALL {
                let g = InterferenceGraph::build(&f, class);
                assert_matches_reference(&f, &g, &format!("case {case} {class:?}"));
                wide += usize::from(g.len() > 64);
                // Copies whose source already interferes with the target.
                for instr in f.blocks.iter().flat_map(|b| &b.instrs) {
                    if let Op::I2I { src, dst } | Op::F2F { src, dst } = &instr.op {
                        if let (Some(s), Some(d)) = (g.regs.get(*src), g.regs.get(*dst)) {
                            kept_copy_edges += usize::from(g.interferes(s, d));
                        }
                    }
                }
            }
        }
        assert!(wide >= 40, "only {wide} graphs span more than one word");
        assert!(
            kept_copy_edges >= 1000,
            "only {kept_copy_edges} copies interfere"
        );
    }

    #[test]
    fn a_reused_matrix_keeps_no_bit_of_a_larger_graph() {
        // Random functions whose GPR graph spans more than one 64-bit
        // word, and ones that fit in one word.
        let mut rng = SplitMix64(0x5A9E);
        let (mut large, mut small) = (Vec::new(), Vec::new());
        while large.len() < 2 || small.is_empty() {
            let f = random_function(&mut rng);
            let n =
                RegIndex::build_where(&f, |r| r.class() == RegClass::Gpr && r.is_virtual()).len();
            if n > 128 && large.len() < 2 {
                large.push(f);
            } else if (16..64).contains(&n) && small.is_empty() {
                small.push(f);
            }
        }
        // Large, small, large on this thread: each build after the first
        // takes the buffer the previous graph gave back.
        let mut taken = 0;
        for (step, f) in [&large[0], &small[0], &large[1]].into_iter().enumerate() {
            let g = InterferenceGraph::build(f, RegClass::Gpr);
            if step > 0 {
                assert!(g.bits.capacity() >= taken, "step {step}: not reused");
            }
            taken = g.bits.capacity();
            assert_matches_reference(f, &g, &format!("step {step} ({} nodes)", g.len()));
        }
    }

    #[test]
    fn transpose64_matches_a_bit_by_bit_transpose() {
        let mut rng = SplitMix64(0x7A5);
        for case in 0..64 {
            // Single-bit, sparse, half-full and dense blocks.
            let density = [0, 1, 50, 99][case % 4];
            let mut m = [0u64; 64];
            m[rng.below(64)] |= 1 << rng.below(64);
            for w in m.iter_mut() {
                for c in 0..64 {
                    if rng.below(100) < density {
                        *w |= 1 << c;
                    }
                }
            }
            let mut t = m;
            transpose64(&mut t);
            for (r, row) in t.iter().enumerate() {
                for (c, col) in m.iter().enumerate() {
                    assert_eq!(row >> c & 1, col >> r & 1, "case {case}: ({r}, {c})");
                }
            }
            transpose64(&mut t);
            assert_eq!(t, m, "case {case}: transposing twice is the identity");
        }
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
        let mut g = InterferenceGraph::build(&f, RegClass::Gpr);
        let ids: Vec<usize> = r.iter().map(|x| g.regs.id(*x)).collect();
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
