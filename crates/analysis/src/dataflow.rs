//! The gen/kill dataflow core: [`live`] (backward, union) and [`must`]
//! (forward, intersection).
//!
//! Every bit-vector problem in the workspace is one of these two:
//! register and spill-slot liveness are [`live`] problems, and
//! must-be-defined registers and must-be-stored slots are [`must`]
//! problems. A problem is given as two [`BitRows`] tables, `gen` and
//! `kill`, with one row per block id; a block's transfer function is
//! `x ↦ gen ∪ (x − kill)`. Both solvers visit only the blocks reachable
//! from the entry, in reverse postorder for [`must`] and its reverse for
//! [`live`], until nothing changes: the transfer functions are monotone,
//! so the result is the unique fixed point reached from the solver's
//! initial facts.
//!
//! The facts come back as two more tables. A solve works in place over
//! them with one scratch row, reads successors from the terminators
//! ([`Function::successors`] allocates nothing) and predecessors from one
//! flat table, so it costs a fixed number of allocations whatever the
//! number of blocks. A caller walks a block by copying its row into one
//! reused [`BitSet`] ([`BitSet::copy_from_row`]).

use iloc::{BlockId, Function};

use crate::bitset::{BitRows, BitSet};

/// Per-block solution: the fact at block entry (`in_`) and exit (`out`),
/// one row per block id.
///
/// For [`live`], `in_` is still "at the top of the block" and `out` "at
/// the bottom" — for liveness, `in_.row(b)` is LiveIn(b).
#[derive(Clone, Debug)]
pub struct Solution {
    /// Fact at the top of each block.
    pub in_: BitRows,
    /// Fact at the bottom of each block.
    pub out: BitRows,
}

/// Solves a backward/union problem: `in[b] = gen ∪ (out[b] − kill)` with
/// `out[b] = ⋃ in[s]` over the successors `s` of `b`.
///
/// Blocks unreachable from the entry keep an empty `in_`. Every block's
/// `out`, unreachable ones included, is the union of its successors'
/// `in_`, so a backward walk may start any block from `out.row(b)`.
pub fn live(f: &Function, gen: &BitRows, kill: &BitRows) -> Solution {
    let (n, u) = (gen.rows(), gen.universe());
    let mut order = f.reverse_postorder();
    order.reverse();
    let mut in_ = BitRows::new(n, u);
    let mut acc = vec![0; gen.words()];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let bi = b.index();
            union_of_successors(f, b, &in_, &mut acc);
            transfer(&mut acc, gen.row(bi), kill.row(bi));
            let row = in_.row_mut(bi);
            if *row != *acc {
                row.copy_from_slice(&acc);
                changed = true;
            }
        }
    }
    let mut out = BitRows::new(n, u);
    for b in f.block_ids() {
        union_of_successors(f, b, &in_, out.row_mut(b.index()));
    }
    Solution { in_, out }
}

/// Solves a forward/intersection problem: `out[b] = gen ∪ (in[b] − kill)`
/// with `in[b] = ⋂ out[p]` over the predecessors `p` of `b`, and
/// `in[entry] = entry ∩ ⋂ out[p]` — the boundary fact holds on entry
/// even when back edges lead into the entry block.
///
/// Every fact starts full (⊤), so a predecessor unreachable from the
/// entry never narrows a join, and unreachable blocks stay ⊤.
pub fn must(f: &Function, gen: &BitRows, kill: &BitRows, entry: &BitSet) -> Solution {
    let (n, u) = (gen.rows(), gen.universe());
    debug_assert_eq!(entry.universe(), u);
    let preds = Predecessors::build(f);
    let order = f.reverse_postorder();
    let top = BitRows::full(1, u);
    let mut in_ = BitRows::full(n, u);
    let mut out = in_.clone();
    let mut acc = vec![0; gen.words()];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let bi = b.index();
            acc.copy_from_slice(if b == f.entry() {
                entry.words()
            } else {
                top.row(0)
            });
            for &p in preds.of(b) {
                for (a, o) in acc.iter_mut().zip(out.row(p as usize)) {
                    *a &= o;
                }
            }
            in_.row_mut(bi).copy_from_slice(&acc);
            transfer(&mut acc, gen.row(bi), kill.row(bi));
            let row = out.row_mut(bi);
            if *row != *acc {
                row.copy_from_slice(&acc);
                changed = true;
            }
        }
    }
    Solution { in_, out }
}

/// `acc ← gen ∪ (acc − kill)`, a word at a time.
#[inline]
fn transfer(acc: &mut [u64], gen: &[u64], kill: &[u64]) {
    for ((a, g), k) in acc.iter_mut().zip(gen).zip(kill) {
        *a = g | (*a & !k);
    }
}

/// `acc ← ⋃ in[s]` over the successors `s` of `b`.
#[inline]
fn union_of_successors(f: &Function, b: BlockId, in_: &BitRows, acc: &mut [u64]) {
    acc.fill(0);
    for s in f.successors(b) {
        for (a, w) in acc.iter_mut().zip(in_.row(s.index())) {
            *a |= w;
        }
    }
}

/// Every block's predecessors in one flat table: block `b`'s are
/// `list[start[b]..start[b + 1]]`, one entry per edge (a `cbr` with equal
/// targets gives two).
struct Predecessors {
    start: Vec<u32>,
    list: Vec<u32>,
}

impl Predecessors {
    fn build(f: &Function) -> Predecessors {
        let mut start = vec![0u32; f.blocks.len() + 1];
        for b in f.block_ids() {
            for s in f.successors(b) {
                start[s.index() + 1] += 1;
            }
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut next = start.clone();
        let mut list = vec![0; start[f.blocks.len()] as usize];
        for b in f.block_ids() {
            for s in f.successors(b) {
                list[next[s.index()] as usize] = b.0;
                next[s.index()] += 1;
            }
        }
        Predecessors { start, list }
    }

    fn of(&self, b: BlockId) -> &[u32] {
        &self.list[self.start[b.index()] as usize..self.start[b.index() + 1] as usize]
    }
}

/// The per-block solvers the flat core replaced: one [`BitSet`] per
/// block for every fact, the successor lists collected per block and the
/// predecessor table from [`Function::predecessors`]. Kept as the
/// reference the flat solvers must match fact for fact.
#[cfg(test)]
pub(crate) mod reference {
    use iloc::{BlockId, Function};

    use crate::BitSet;

    /// `(in_, out)` of the backward/union problem.
    pub(crate) fn live(f: &Function, blocks: &[(BitSet, BitSet)]) -> (Vec<BitSet>, Vec<BitSet>) {
        let u = blocks.first().map_or(0, |(gen, _)| gen.universe());
        let succs: Vec<Vec<BlockId>> = f.block_ids().map(|b| f.successors(b).to_vec()).collect();
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
        (in_, out)
    }

    /// `(in_, out)` of the forward/intersection problem.
    pub(crate) fn must(
        f: &Function,
        blocks: &[(BitSet, BitSet)],
        entry: BitSet,
    ) -> (Vec<BitSet>, Vec<BitSet>) {
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
        (in_, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{Instr, Op, RegClass};

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
    fn own_ids(f: &Function) -> (BitRows, BitRows) {
        let n = f.blocks.len();
        let mut gen = BitRows::new(n, n);
        for b in 0..n {
            gen.insert(b, b);
        }
        (gen, BitRows::new(n, n))
    }

    fn members(row: &[u64]) -> Vec<usize> {
        crate::bitset::ones(row).collect()
    }

    #[test]
    fn intersection_keeps_only_common_facts() {
        let f = diamond();
        let (gen, kill) = own_ids(&f);
        let sol = must(&f, &gen, &kill, &BitSet::new(4));
        // Only the entry block is on *every* path to the join.
        assert_eq!(members(sol.in_.row(3)), vec![0]);
        assert_eq!(members(sol.out.row(3)), vec![0, 3]);
    }

    #[test]
    fn union_collects_facts_from_every_onward_path() {
        let f = diamond();
        let (gen, kill) = own_ids(&f);
        let sol = live(&f, &gen, &kill);
        assert_eq!(members(sol.in_.row(0)), vec![0, 1, 2, 3]);
        assert_eq!(members(sol.out.row(0)), vec![1, 2, 3]);
        assert!(members(sol.out.row(3)).is_empty());
    }

    #[test]
    fn loops_reach_fixed_point() {
        let mut fb = FuncBuilder::new("f");
        fb.counted_loop(0, 10, 1, |_, _| {});
        fb.ret(&[]);
        let f = fb.finish();
        let (gen, kill) = own_ids(&f);
        // Every block of the loop is still ahead of the loop header.
        let sol = live(&f, &gen, &kill);
        let exit = f.blocks.len() - 1;
        assert!(members(sol.in_.row(1)).len() >= 3);
        assert!(sol.in_.contains(1, exit));
        // Only the blocks on every path reach the exit.
        let sol = must(&f, &gen, &kill, &BitSet::new(f.blocks.len()));
        assert!(sol.in_.contains(exit, 0));
        assert!(members(sol.in_.row(exit)).len() < f.blocks.len());
    }

    /// A small deterministic generator (SplitMix64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// What a generated CFG contains, counted over all cases.
    #[derive(Default)]
    struct Shapes {
        unreachable: usize,
        self_loops: usize,
        entry_back_edges: usize,
        equal_cbr_targets: usize,
    }

    /// A random CFG of `1..=14` blocks: each block ends in a `ret`, a
    /// `jump` or a `cbr` to blocks drawn from the whole function (entry
    /// and the block itself included), and one `cbr` in four names the
    /// same target twice.
    fn random_cfg(rng: &mut Rng, shapes: &mut Shapes) -> Function {
        let mut f = Function::new("f");
        let n = 1 + rng.below(14);
        for i in 1..n {
            f.add_block(format!("b{i}"));
        }
        let cond = f.new_vreg(RegClass::Gpr);
        for b in 0..n {
            let op = match rng.below(6) {
                0 => Op::Ret { vals: [].into() },
                1 | 2 => Op::Jump {
                    target: BlockId(rng.below(n) as u32),
                },
                _ => {
                    let taken = BlockId(rng.below(n) as u32);
                    let not_taken = if rng.below(4) == 0 {
                        shapes.equal_cbr_targets += 1;
                        taken
                    } else {
                        BlockId(rng.below(n) as u32)
                    };
                    Op::Cbr {
                        cond,
                        taken,
                        not_taken,
                    }
                }
            };
            let succs = op.successors();
            shapes.self_loops += succs.iter().filter(|s| s.index() == b).count();
            shapes.entry_back_edges += succs.iter().filter(|s| s.index() == 0).count();
            f.block_mut(BlockId(b as u32)).instrs.push(Instr::new(op));
        }
        shapes.unreachable += n - f.reverse_postorder().len();
        f
    }

    /// Random per-block `(gen, kill)` sets over `0..u`, as the reference
    /// takes them and as rows.
    fn random_problem(
        rng: &mut Rng,
        f: &Function,
        u: usize,
    ) -> (Vec<(BitSet, BitSet)>, BitRows, BitRows) {
        let n = f.blocks.len();
        let (mut gen_rows, mut kill_rows) = (BitRows::new(n, u), BitRows::new(n, u));
        let mut sets = Vec::new();
        for b in 0..n {
            let (mut gen, mut kill) = (BitSet::new(u), BitSet::new(u));
            for _ in 0..rng.below(u + 1) {
                let (i, j) = (rng.below(u), rng.below(u));
                gen.insert(i);
                kill.insert(j);
                gen_rows.insert(b, i);
                kill_rows.insert(b, j);
            }
            sets.push((gen, kill));
        }
        (sets, gen_rows, kill_rows)
    }

    fn assert_rows(got: &BitRows, want: &[BitSet], what: &str, case: usize) {
        assert_eq!(got.rows(), want.len(), "case {case}: {what} row count");
        for (b, set) in want.iter().enumerate() {
            assert_eq!(got.row(b), set.words(), "case {case}: {what}[{b}]");
        }
    }

    /// Universes that sit at and across word boundaries.
    const UNIVERSES: [usize; 7] = [0, 1, 63, 64, 65, 130, 200];

    #[test]
    fn flat_solvers_match_the_per_block_reference() {
        let mut shapes = Shapes::default();
        for case in 0..280 {
            let mut rng = Rng(case as u64);
            let f = random_cfg(&mut rng, &mut shapes);
            let u = UNIVERSES[case % UNIVERSES.len()];
            let (sets, gen, kill) = random_problem(&mut rng, &f, u);

            let sol = live(&f, &gen, &kill);
            let (in_, out) = reference::live(&f, &sets);
            assert_rows(&sol.in_, &in_, "live in", case);
            assert_rows(&sol.out, &out, "live out", case);

            // An empty entry fact on even cases, a random one on odd.
            let mut entry = BitSet::new(u);
            if case % 2 == 1 {
                for _ in 0..rng.below(u + 1) {
                    entry.insert(rng.below(u));
                }
            }
            let sol = must(&f, &gen, &kill, &entry);
            let (in_, out) = reference::must(&f, &sets, entry);
            assert_rows(&sol.in_, &in_, "must in", case);
            assert_rows(&sol.out, &out, "must out", case);
        }
        // The cases exercised every shape the solvers special-case.
        assert!(shapes.unreachable >= 20, "unreachable blocks");
        assert!(shapes.self_loops >= 20, "self-loops");
        assert!(shapes.entry_back_edges >= 20, "back edges into the entry");
        assert!(shapes.equal_cbr_targets >= 20, "cbr with equal targets");
    }
}
