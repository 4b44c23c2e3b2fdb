//! The gen/kill dataflow core: [`live`] (backward, union) and [`must`]
//! (forward, intersection).
//!
//! Every bit-vector problem in the workspace is one of these two:
//! register and spill-slot liveness are [`live`] problems, and
//! must-be-defined registers and must-be-stored slots are [`must`]
//! problems. A problem is given as one `(gen, kill)` pair of
//! [`BitSet`]s per block, indexed by block id; a block's transfer function
//! is `x ↦ gen ∪ (x − kill)`. Both solvers visit only the blocks reachable
//! from the entry, in reverse postorder for [`must`] and its reverse for
//! [`live`], until nothing changes: the transfer functions are monotone,
//! so the result is the unique fixed point reached from the solver's
//! initial facts.

use iloc::{BlockId, Function};

use crate::bitset::BitSet;

/// Per-block solution: the fact at block entry (`in_`) and exit (`out`).
///
/// For [`live`], `in_` is still "at the top of the block" and `out` "at
/// the bottom" — for liveness, `in_[b]` is LiveIn(b).
#[derive(Clone, Debug)]
pub struct Solution {
    /// Fact at the top of each block.
    pub in_: Vec<BitSet>,
    /// Fact at the bottom of each block.
    pub out: Vec<BitSet>,
}

/// Solves a backward/union problem: `in[b] = gen ∪ (out[b] − kill)` with
/// `out[b] = ⋃ in[s]` over the successors `s` of `b`.
///
/// Blocks unreachable from the entry keep an empty `in_`. Every block's
/// `out`, unreachable ones included, is the union of its successors'
/// `in_`, so a backward walk may start any block from `out[b]`.
pub fn live(f: &Function, blocks: &[(BitSet, BitSet)]) -> Solution {
    let u = blocks.first().map_or(0, |(gen, _)| gen.universe());
    let succs: Vec<Vec<BlockId>> = f.block_ids().map(|b| f.successors(b)).collect();
    let join = |in_: &[BitSet], b: usize, acc: &mut BitSet| {
        acc.clear();
        for s in &succs[b] {
            acc.union_with(&in_[s.index()]);
        }
    };
    let mut order = f.reverse_postorder();
    order.reverse();
    let mut in_ = vec![BitSet::new(u); blocks.len()];
    let mut new_in = BitSet::new(u);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let bi = b.index();
            let (gen, kill) = &blocks[bi];
            join(&in_, bi, &mut new_in);
            new_in.subtract(kill);
            new_in.union_with(gen);
            if new_in != in_[bi] {
                std::mem::swap(&mut in_[bi], &mut new_in);
                changed = true;
            }
        }
    }
    let out = (0..blocks.len())
        .map(|b| {
            let mut acc = BitSet::new(u);
            join(&in_, b, &mut acc);
            acc
        })
        .collect();
    Solution { in_, out }
}

/// Solves a forward/intersection problem: `out[b] = gen ∪ (in[b] − kill)`
/// with `in[b] = ⋂ out[p]` over the predecessors `p` of `b`, and
/// `in[entry] = entry ∩ ⋂ out[p]` — the boundary fact holds on entry
/// even when back edges lead into the entry block.
///
/// Every fact starts full (⊤), so a predecessor unreachable from the
/// entry never narrows a join, and unreachable blocks stay ⊤.
pub fn must(f: &Function, blocks: &[(BitSet, BitSet)], entry: BitSet) -> Solution {
    let top = BitSet::full(entry.universe());
    let preds = f.predecessors();
    let order = f.reverse_postorder();
    let mut in_ = vec![top.clone(); blocks.len()];
    let mut out = in_.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let bi = b.index();
            let mut acc = if b == f.entry() {
                entry.clone()
            } else {
                top.clone()
            };
            for p in &preds[bi] {
                acc.intersect_with(&out[p.index()]);
            }
            let (gen, kill) = &blocks[bi];
            let mut new_out = acc.clone();
            new_out.subtract(kill);
            new_out.union_with(gen);
            in_[bi] = acc;
            if new_out != out[bi] {
                out[bi] = new_out;
                changed = true;
            }
        }
    }
    Solution { in_, out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;

    /// `entry -> {a, b} -> join`, blocks numbered 0..=3 in that order.
    fn diamond() -> Function {
        let mut fb = FuncBuilder::new("f");
        let cond = fb.loadi(1);
        let a = fb.block("a");
        let b = fb.block("b");
        let join = fb.block("join");
        fb.cbr(cond, a, b);
        fb.switch_to(a);
        fb.jump(join);
        fb.switch_to(b);
        fb.jump(join);
        fb.switch_to(join);
        fb.ret(&[]);
        fb.finish()
    }

    /// Each block generates its own id and kills nothing.
    fn own_ids(f: &Function) -> Vec<(BitSet, BitSet)> {
        let n = f.blocks.len();
        (0..n)
            .map(|b| {
                let mut gen = BitSet::new(n);
                gen.insert(b);
                (gen, BitSet::new(n))
            })
            .collect()
    }

    fn members(s: &BitSet) -> Vec<usize> {
        s.iter().collect()
    }

    #[test]
    fn intersection_keeps_only_common_facts() {
        let f = diamond();
        let sol = must(&f, &own_ids(&f), BitSet::new(4));
        // Only the entry block is on *every* path to the join.
        assert_eq!(members(&sol.in_[3]), vec![0]);
        assert_eq!(members(&sol.out[3]), vec![0, 3]);
    }

    #[test]
    fn union_collects_facts_from_every_onward_path() {
        let f = diamond();
        let sol = live(&f, &own_ids(&f));
        assert_eq!(members(&sol.in_[0]), vec![0, 1, 2, 3]);
        assert_eq!(members(&sol.out[0]), vec![1, 2, 3]);
        assert!(sol.out[3].is_empty());
    }

    #[test]
    fn loops_reach_fixed_point() {
        let mut fb = FuncBuilder::new("f");
        fb.counted_loop(0, 10, 1, |_, _| {});
        fb.ret(&[]);
        let f = fb.finish();
        let blocks = own_ids(&f);
        // Every block of the loop is still ahead of the loop header.
        let sol = live(&f, &blocks);
        let exit = f.blocks.len() - 1;
        assert!(sol.in_[1].count() >= 3);
        assert!(sol.in_[1].contains(exit));
        // Only the blocks on every path reach the exit.
        let sol = must(&f, &blocks, BitSet::new(f.blocks.len()));
        assert!(sol.in_[exit].contains(0));
        assert!(sol.in_[exit].count() < f.blocks.len());
    }
}
