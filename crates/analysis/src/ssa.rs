//! SSA construction and destruction.
//!
//! Construction is the classic Cytron-style algorithm with semi-pruned
//! φ-placement (Briggs): only *global* names — those live across a block
//! boundary — get φ-nodes, placed on the iterated dominance frontier of
//! their definition blocks, followed by a renaming walk over the
//! dominator tree.
//!
//! Construction keys everything by dense tables: global names and
//! definition blocks are [`RegMap`]s, the per-block kill set is a stamp
//! per register, the φ-placed set a stamp per block, and the renaming
//! stacks are one `RegMap` of current names plus an undo log that each
//! block rolls back on exit.
//!
//! Destruction splits critical edges and lowers each block's φ-set as a
//! *parallel* copy, sequentialized with a temporary when the copies form a
//! cycle (the lost-copy and swap problems).

use std::collections::HashMap;

use iloc::{BlockId, Function, Instr, Op, Reg};

use crate::dom::Dominators;
use crate::regmap::RegMap;

/// Converts `f` to semi-pruned SSA form. Returns the number of φ-nodes
/// inserted.
pub fn to_ssa(f: &mut Function) -> usize {
    let dom = Dominators::compute(f);
    let df = dom.dominance_frontiers(f);

    // Find global names (used in some block without a prior def in that
    // block) and the blocks defining each name. Physical registers (e.g.
    // RARP) are never renamed. `killed[r]` holds one past the last block
    // that defined `r`, so the per-block kill set is a stamp compare.
    let mut global = RegMap::for_function(f, false);
    let mut killed = RegMap::for_function(f, 0u32);
    let mut def_blocks: RegMap<Vec<BlockId>> = RegMap::for_function(f, Vec::new());
    for b in f.block_ids() {
        let stamp = b.0 + 1;
        for instr in &f.block(b).instrs {
            instr.op.visit_uses(|r| {
                if r.is_virtual() && killed[r] != stamp {
                    global[r] = true;
                }
            });
            instr.op.visit_defs(|r| {
                if r.is_virtual() {
                    killed[r] = stamp;
                    def_blocks[r].push(b);
                }
            });
        }
    }
    for &p in &f.params {
        def_blocks[p].push(f.entry());
    }

    // Place φ-nodes on the iterated dominance frontier of each global's
    // definition blocks, names in ascending order. Each new φ goes to the
    // head of its block, so a block's φs end up in descending name order;
    // they are collected per block and spliced in once at the end.
    let preds = f.predecessors();
    let mut new_phis: Vec<Vec<Instr>> = vec![Vec::new(); f.blocks.len()];
    // `has_phi[b]` is the sequence number (from 1) of the last name given
    // a φ in `b`.
    let mut has_phi = vec![0u32; f.blocks.len()];
    let mut work: Vec<BlockId> = Vec::new();
    let names = global
        .iter()
        .filter(|&(r, &g)| g && !def_blocks[r].is_empty())
        .map(|(r, _)| r);
    for (seq, name) in (1..).zip(names) {
        work.extend_from_slice(&def_blocks[name]);
        while let Some(d) = work.pop() {
            for &frontier in &df[d.index()] {
                if has_phi[frontier.index()] != seq {
                    has_phi[frontier.index()] = seq;
                    let args = preds[frontier.index()].iter().map(|&p| (p, name)).collect();
                    new_phis[frontier.index()].push(Instr::new(Op::Phi { dst: name, args }));
                    work.push(frontier);
                }
            }
        }
    }
    let mut phi_count = 0;
    for (blk, phis) in f.blocks.iter_mut().zip(new_phis) {
        phi_count += phis.len();
        blk.instrs.splice(0..0, phis.into_iter().rev());
    }

    // Renaming walk over the dominator tree. Parameters are defined on
    // entry as themselves, which is what an unrenamed name reads as.
    let mut renamer = Renamer {
        current: RegMap::for_function(f, None),
        undo: Vec::new(),
        defs: Vec::new(),
    };
    renamer.rename_block(f, &dom, f.entry());
    f.reset_vreg_counter();
    phi_count
}

/// The renaming walk's state. `current[r]` is the name `r` reads as at
/// this point of the walk (`None`: itself). Every redefinition is logged
/// in `undo` with the name it shadowed, and leaving a block rolls the log
/// back to its length on entry: one table and one log stand in for a
/// stack of names per register.
struct Renamer {
    current: RegMap<Option<Reg>>,
    undo: Vec<(Reg, Option<Reg>)>,
    /// The virtual defs of the instruction being renamed.
    defs: Vec<Reg>,
}

impl Renamer {
    /// The name `r` currently reads as. Physical registers, and registers
    /// created by this walk, read as themselves.
    fn top(&self, r: Reg) -> Reg {
        if !r.is_virtual() {
            return r;
        }
        self.current.get(r).copied().flatten().unwrap_or(r)
    }

    fn rename_block(&mut self, f: &mut Function, dom: &Dominators, b: BlockId) {
        let mark = self.undo.len();

        // Rewrite instruction by instruction: uses first (except φ), then
        // defs, each to a fresh name.
        for i in 0..f.block(b).instrs.len() {
            let op = &mut f.block_mut(b).instrs[i].op;
            if !matches!(op, Op::Phi { .. }) {
                op.map_uses(|r| self.top(r));
            }
            self.defs.clear();
            op.visit_defs(|r| {
                if r.is_virtual() {
                    self.defs.push(r);
                }
            });
            for k in 0..self.defs.len() {
                let d = self.defs[k];
                let fresh = f.new_vreg(d.class());
                self.undo.push((d, self.current[d]));
                self.current[d] = Some(fresh);
            }
            f.block_mut(b).instrs[i].op.map_defs(|r| self.top(r));
        }

        // Fill in φ arguments of successors for the edge b → s: every
        // argument for b takes the current name of the last one.
        for s in f.successors(b) {
            for i in 0..f.block(s).phi_count() {
                if let Op::Phi { args, .. } = &mut f.block_mut(s).instrs[i].op {
                    let Some(&(_, last)) = args.iter().rev().find(|(pb, _)| *pb == b) else {
                        continue;
                    };
                    let new = self.top(last);
                    for (pb, r) in args {
                        if *pb == b {
                            *r = new;
                        }
                    }
                }
            }
        }

        // Recurse into dominator-tree children.
        for &c in dom.children(b) {
            self.rename_block(f, dom, c);
        }

        // Pop this block's definitions.
        while self.undo.len() > mark {
            let (d, prev) = self.undo.pop().expect("above the mark");
            self.current[d] = prev;
        }
    }
}

/// Splits every critical edge (from a block with multiple successors to a
/// block with multiple predecessors), updating φ-nodes. Returns the number
/// of edges split.
pub fn split_critical_edges(f: &mut Function) -> usize {
    let mut split = 0;
    loop {
        let preds = f.predecessors();
        let mut found: Option<(BlockId, BlockId)> = None;
        'outer: for b in f.block_ids() {
            let succs = f.successors(b);
            if succs.len() < 2 {
                continue;
            }
            for s in succs {
                if preds[s.index()].len() >= 2 {
                    found = Some((b, s));
                    break 'outer;
                }
            }
        }
        let (from, to) = match found {
            Some(e) => e,
            None => return split,
        };
        let label = format!("split{}_{}_{}", split, from.index(), to.index());
        let mid = f.add_block(label);
        f.block_mut(mid)
            .instrs
            .push(Instr::new(Op::Jump { target: to }));
        // Retarget exactly the edges from → to through mid, and φ entries.
        if let Some(t) = f.block_mut(from).terminator_mut() {
            t.map_successors(|x| if x == to { mid } else { x });
        }
        let phis = f.block(to).phi_count();
        for i in 0..phis {
            if let Op::Phi { args, .. } = &mut f.block_mut(to).instrs[i].op {
                for (pb, _) in args {
                    if *pb == from {
                        *pb = mid;
                    }
                }
            }
        }
        split += 1;
    }
}

/// Converts out of SSA: splits critical edges, lowers φ-sets to parallel
/// copies in predecessors, and removes the φ-nodes. Returns the number of
/// copies inserted.
pub fn from_ssa(f: &mut Function) -> usize {
    split_critical_edges(f);
    let mut copies_inserted = 0;

    for b in f.block_ids().collect::<Vec<_>>() {
        let phi_count = f.block(b).phi_count();
        if phi_count == 0 {
            continue;
        }
        // Gather the per-predecessor parallel copy sets.
        let mut per_pred: HashMap<BlockId, Vec<(Reg, Reg)>> = HashMap::new();
        for i in 0..phi_count {
            if let Op::Phi { dst, args } = &f.block(b).instrs[i].op {
                for (p, src) in args {
                    per_pred.entry(*p).or_default().push((*src, *dst));
                }
            }
        }
        // Remove the φ-nodes.
        f.block_mut(b).instrs.drain(0..phi_count);

        // Emit each parallel copy at the end of its predecessor.
        let mut pred_ids: Vec<BlockId> = per_pred.keys().copied().collect();
        pred_ids.sort();
        for p in pred_ids {
            let seq = sequentialize_parallel_copy(f, per_pred[&p].clone());
            copies_inserted += seq.len();
            for (src, dst) in seq {
                let op = match src.class() {
                    iloc::RegClass::Gpr => Op::I2I { src, dst },
                    iloc::RegClass::Fpr => Op::F2F { src, dst },
                };
                f.block_mut(p).insert_before_terminator(Instr::new(op));
            }
        }
    }
    f.reset_vreg_counter();
    copies_inserted
}

/// Orders a parallel copy `{(src → dst)}` into a sequential list, breaking
/// cycles with fresh temporaries.
fn sequentialize_parallel_copy(f: &mut Function, mut copies: Vec<(Reg, Reg)>) -> Vec<(Reg, Reg)> {
    // Drop no-ops.
    copies.retain(|(s, d)| s != d);
    let mut out = Vec::new();
    while !copies.is_empty() {
        // A copy whose destination is not the source of any pending copy
        // can be emitted safely.
        if let Some(pos) = copies
            .iter()
            .position(|(_, d)| !copies.iter().any(|(s2, _)| s2 == d))
        {
            let c = copies.remove(pos);
            out.push(c);
        } else {
            // Every destination is also a pending source: a cycle. Break
            // it by saving one destination in a temporary.
            let (_, d) = copies[0];
            let temp = f.new_vreg(d.class());
            out.push((d, temp));
            for (s, _) in copies.iter_mut() {
                if *s == d {
                    *s = temp;
                }
            }
        }
    }
    out
}

/// Checks the defining property of strict SSA: every virtual register has
/// at most one definition. Returns the offending register if violated.
pub fn check_single_def(f: &Function) -> Result<(), Reg> {
    let mut seen = RegMap::for_function(f, false);
    for b in &f.blocks {
        for i in &b.instrs {
            let mut bad = None;
            i.op.visit_defs(|r| {
                if r.is_virtual() && std::mem::replace(&mut seen[r], true) {
                    bad = Some(r);
                }
            });
            if let Some(r) = bad {
                return Err(r);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{verify_function, RegClass};

    /// entry: x=1; cbr → (a: x=2) / (b: x=3); join: use x.
    fn diamond_with_merge() -> Function {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let x = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 1, dst: x });
        let cond = fb.loadi(0);
        let a = fb.block("a");
        let b = fb.block("b");
        let join = fb.block("join");
        fb.cbr(cond, a, b);
        fb.switch_to(a);
        fb.emit(Op::LoadI { imm: 2, dst: x });
        fb.jump(join);
        fb.switch_to(b);
        fb.emit(Op::LoadI { imm: 3, dst: x });
        fb.jump(join);
        fb.switch_to(join);
        fb.ret(&[x]);
        fb.finish()
    }

    #[test]
    fn construction_places_phi_at_join() {
        let mut f = diamond_with_merge();
        let phis = to_ssa(&mut f);
        assert_eq!(phis, 1);
        verify_function(&f).unwrap();
        check_single_def(&f).expect("strict SSA");
        // The φ must be at the head of the join block with two args.
        let join = BlockId(3);
        match &f.block(join).instrs[0].op {
            Op::Phi { args, .. } => assert_eq!(args.len(), 2),
            other => panic!("expected phi, got {other:?}"),
        }
    }

    #[test]
    fn loop_gets_phi_at_header() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 0, dst: acc });
        fb.counted_loop(0, 10, 1, |fb, iv| {
            let t = fb.add(acc, iv);
            fb.emit(Op::I2I { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        let mut f = fb.finish();
        let phis = to_ssa(&mut f);
        // acc and iv both merge at the header.
        assert!(phis >= 2, "expected ≥2 phis, got {phis}");
        verify_function(&f).unwrap();
        check_single_def(&f).expect("strict SSA");
    }

    #[test]
    fn round_trip_restores_phi_free_code() {
        let mut f = diamond_with_merge();
        to_ssa(&mut f);
        from_ssa(&mut f);
        verify_function(&f).unwrap();
        for b in &f.blocks {
            for i in &b.instrs {
                assert!(!matches!(i.op, Op::Phi { .. }), "leftover phi");
            }
        }
    }

    #[test]
    fn destruction_inserts_copies_on_both_arms() {
        let mut f = diamond_with_merge();
        to_ssa(&mut f);
        let copies = from_ssa(&mut f);
        assert!(copies >= 2, "expected a copy per arm, got {copies}");
    }

    #[test]
    fn critical_edge_splitting_preserves_structure() {
        // entry cbr → (join, other); other jump → join. The edge
        // entry→join is critical (entry has 2 succs, join has 2 preds).
        let mut fb = FuncBuilder::new("f");
        let cond = fb.loadi(1);
        let join = fb.block("join");
        let other = fb.block("other");
        fb.cbr(cond, join, other);
        fb.switch_to(other);
        fb.jump(join);
        fb.switch_to(join);
        fb.ret(&[]);
        let mut f = fb.finish();
        let n = split_critical_edges(&mut f);
        assert_eq!(n, 1);
        verify_function(&f).unwrap();
        // Entry no longer branches straight to join.
        assert!(!f.successors(f.entry()).contains(&join));
    }

    #[test]
    fn parallel_copy_swap_uses_temp() {
        let mut f = Function::new("t");
        let a = f.new_vreg(RegClass::Gpr);
        let b = f.new_vreg(RegClass::Gpr);
        let seq = sequentialize_parallel_copy(&mut f, vec![(a, b), (b, a)]);
        // A swap requires three moves via a temporary.
        assert_eq!(seq.len(), 3);
        // Simulate the sequence and check the swap semantics.
        let mut env: HashMap<Reg, i64> = HashMap::new();
        env.insert(a, 1);
        env.insert(b, 2);
        for (s, d) in &seq {
            let v = env[s];
            env.insert(*d, v);
        }
        assert_eq!(env[&a], 2);
        assert_eq!(env[&b], 1);
    }

    #[test]
    fn parallel_copy_chain_ordering() {
        let mut f = Function::new("t");
        let a = f.new_vreg(RegClass::Gpr);
        let b = f.new_vreg(RegClass::Gpr);
        let c = f.new_vreg(RegClass::Gpr);
        // b→c must run before a→b.
        let seq = sequentialize_parallel_copy(&mut f, vec![(a, b), (b, c)]);
        assert_eq!(seq, vec![(b, c), (a, b)]);
    }

    #[test]
    fn ssa_renaming_keeps_rarp_untouched() {
        let mut fb = FuncBuilder::new("f");
        let v = fb.loadai(Reg::RARP, 8);
        fb.storeai(v, Reg::RARP, 16);
        fb.ret(&[]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        let mut saw_rarp = 0;
        f.for_each_reg(|r| {
            if r == Reg::RARP {
                saw_rarp += 1;
            }
        });
        assert_eq!(saw_rarp, 2, "RARP must not be renamed");
    }
}
