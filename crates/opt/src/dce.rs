//! Dead-code elimination (SSA mark-sweep).
//!
//! Marks every instruction that [`Op::removable_if_unused`] refuses as
//! live (stores, calls, terminators, and a `div`/`rem` that may trap,
//! which must still trap when its result is unused) and propagates
//! liveness backwards through SSA use-def edges; everything unmarked is
//! deleted. The pipeline's final dead-def sweep
//! ([`crate::optimize_function`]) deletes by the same predicate, and
//! unreachable blocks are pruned by [`Function::prune_unreachable`].
//!
//! Def sites are an [`analysis::RegMap`] and liveness one flat flag per
//! instruction, indexed through per-block offsets.
//!
//! [`Op::removable_if_unused`]: iloc::Op::removable_if_unused

use analysis::RegMap;
use iloc::Function;

/// Removes dead instructions from `f` (must be in SSA form for precise
/// results; sound on any single-assignment-per-name code). Returns the
/// number of instructions removed.
pub fn dce(f: &mut Function) -> usize {
    // Instruction `ii` of block `bi` is flag `start[bi] + ii` of `live`.
    let mut start = Vec::with_capacity(f.blocks.len());
    let mut total = 0;
    for b in &f.blocks {
        start.push(total);
        total += b.instrs.len();
    }
    // Map each register to its defining site (the last, if several).
    let mut def_site: RegMap<Option<(u32, u32)>> = RegMap::for_function(f, None);
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, instr) in b.instrs.iter().enumerate() {
            instr
                .op
                .visit_defs(|r| def_site[r] = Some((bi as u32, ii as u32)));
        }
    }

    // Instructions with side effects or a possible trap are live;
    // liveness flows back along use-def edges.
    let mut live = vec![false; total];
    let mut work: Vec<(u32, u32)> = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, instr) in b.instrs.iter().enumerate() {
            if !instr.op.removable_if_unused() {
                live[start[bi] + ii] = true;
                work.push((bi as u32, ii as u32));
            }
        }
    }
    while let Some((bi, ii)) = work.pop() {
        f.blocks[bi as usize].instrs[ii as usize]
            .op
            .visit_uses(|r| {
                if let Some((db, di)) = def_site[r] {
                    let flag = &mut live[start[db as usize] + di as usize];
                    if !std::mem::replace(flag, true) {
                        work.push((db, di));
                    }
                }
            });
    }

    let mut removed = 0;
    for (b, &at) in f.blocks.iter_mut().zip(&start) {
        let before = b.instrs.len();
        let mut flags = live[at..at + before].iter();
        b.instrs
            .retain(|_| *flags.next().expect("one flag per instruction"));
        removed += before - b.instrs.len();
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::to_ssa;
    use iloc::builder::FuncBuilder;
    use iloc::{Op, RegClass};

    #[test]
    fn removes_unused_computation() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let _dead = fb.mult(a, a); // unused
        fb.ret(&[a]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        let removed = dce(&mut f);
        assert_eq!(removed, 1);
    }

    #[test]
    fn keeps_transitively_used_chain() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let b = fb.addi(a, 1);
        let c = fb.addi(b, 1);
        fb.ret(&[c]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        assert_eq!(dce(&mut f), 0);
    }

    #[test]
    fn stores_and_calls_always_kept() {
        let mut fb = FuncBuilder::new("f");
        let v = fb.loadi(1);
        fb.storeai(v, iloc::Reg::RARP, 0);
        fb.ret(&[]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        assert_eq!(dce(&mut f), 0);
    }

    #[test]
    fn dead_chain_removed_together() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let keep = fb.loadi(5);
        let d1 = fb.loadi(1);
        let d2 = fb.addi(d1, 1);
        let _d3 = fb.mult(d2, d2);
        fb.ret(&[keep]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        assert_eq!(dce(&mut f), 3);
        assert_eq!(f.instr_count(), 2);
    }

    #[test]
    fn unreachable_block_removal_remaps_targets() {
        let mut fb = FuncBuilder::new("f");
        let dead = fb.block("dead");
        let live = fb.block("live");
        fb.jump(live);
        fb.switch_to(dead);
        fb.ret(&[]);
        fb.switch_to(live);
        fb.ret(&[]);
        let mut f = fb.finish();
        assert_eq!(f.prune_unreachable(), 1);
        iloc::verify_function(&f).unwrap();
        assert_eq!(f.blocks.len(), 2);
        assert_eq!(f.block(f.successors(f.entry())[0]).label, "live");
    }

    #[test]
    fn phi_args_from_removed_preds_dropped() {
        // After folding a branch, the dead arm's φ-argument must go.
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let x = fb.vreg(RegClass::Gpr);
        let one = fb.loadi(1);
        let t = fb.block("t");
        let e = fb.block("e");
        let j = fb.block("j");
        fb.cbr(one, t, e);
        fb.switch_to(t);
        fb.emit(Op::LoadI { imm: 10, dst: x });
        fb.jump(j);
        fb.switch_to(e);
        fb.emit(Op::LoadI { imm: 20, dst: x });
        fb.jump(j);
        fb.switch_to(j);
        fb.ret(&[x]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        crate::sccp::sccp(&mut f); // folds the branch, making `e` dead
        f.prune_unreachable();
        iloc::verify_function(&f).unwrap();
        for b in &f.blocks {
            for i in &b.instrs {
                if let Op::Phi { args, .. } = &i.op {
                    assert_eq!(args.len(), 1);
                }
            }
        }
    }
}
