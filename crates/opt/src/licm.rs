//! Loop-invariant code motion.
//!
//! Hoists pure, loop-invariant computations (constants, arithmetic on
//! invariant operands, global-address formation) out of natural loops
//! into dedicated preheaders. Works on SSA form, where "invariant" is
//! simply "every operand is defined outside the loop" and hoisting needs
//! no renaming.
//!
//! LICM stands in for part of the paper's partial-redundancy elimination:
//! it lengthens live ranges across loop bodies, which is exactly the
//! register-pressure effect the paper attributes to its aggressive scalar
//! optimization. The pipeline exposes it as an option
//! ([`crate::OptOptions::licm`], default off) and the harness ablates it.

use std::collections::HashSet;

use analysis::{Dominators, LoopInfo};
use iloc::{BlockId, Function, Instr, Op, Reg};

/// Hoists invariant code out of every natural loop, innermost-last.
/// Returns the number of instructions moved. The function must be in SSA
/// form (every virtual register has a single definition).
pub fn licm(f: &mut Function) -> usize {
    let mut moved_total = 0;
    // Iterate: hoisting into a preheader may expose invariance in an
    // enclosing loop on the next round.
    loop {
        let dom = Dominators::compute(f);
        let loops = LoopInfo::compute(f, &dom);
        if loops.loops.is_empty() {
            return moved_total;
        }
        let mut moved_this_round = 0;
        // Process larger (outer) loops last so their preheaders see code
        // already hoisted from inner loops.
        let mut order: Vec<usize> = (0..loops.loops.len()).collect();
        order.sort_by_key(|&i| loops.loops[i].blocks.len());
        for li in order {
            let l = &loops.loops[li];
            moved_this_round += hoist_one_loop(f, &dom, l.header, &l.blocks);
            if moved_this_round > 0 {
                // CFG may have changed (preheader insertion); recompute.
                break;
            }
        }
        if moved_this_round == 0 {
            return moved_total;
        }
        moved_total += moved_this_round;
    }
}

/// Whether an op may be hoisted: pure (no side effects, no memory reads —
/// loads are unsafe to hoist without alias analysis), not control flow,
/// and unable to trap ([`Op::alu_may_trap`]): a division guarded inside
/// the loop must not run unguarded in the preheader.
fn hoistable(op: &Op) -> bool {
    matches!(
        op,
        Op::LoadI { .. }
            | Op::LoadF { .. }
            | Op::LoadSym { .. }
            | Op::IBin { .. }
            | Op::IBinI { .. }
            | Op::FBin { .. }
            | Op::ICmp { .. }
            | Op::FCmp { .. }
            | Op::I2I { .. }
            | Op::F2F { .. }
            | Op::I2F { .. }
            | Op::F2I { .. }
    ) && !op.alu_may_trap()
}

fn hoist_one_loop(
    f: &mut Function,
    dom: &Dominators,
    header: BlockId,
    blocks: &[BlockId],
) -> usize {
    let in_loop: HashSet<BlockId> = blocks.iter().copied().collect();

    // Registers defined inside the loop.
    let mut defined_in: HashSet<Reg> = HashSet::new();
    for &b in blocks {
        for i in &f.block(b).instrs {
            i.op.visit_defs(|r| {
                defined_in.insert(r);
            });
        }
    }

    // Collect invariant instructions in loop-body order, transitively:
    // an instruction is invariant if hoistable and all used registers are
    // defined outside the loop or by an already-collected invariant.
    let mut invariant_defs: HashSet<Reg> = HashSet::new();
    let mut to_hoist: Vec<(BlockId, usize)> = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in blocks {
            for (i, instr) in f.block(b).instrs.iter().enumerate() {
                if to_hoist.contains(&(b, i)) || !hoistable(&instr.op) {
                    continue;
                }
                let mut ok = true;
                instr.op.visit_uses(|r| {
                    if defined_in.contains(&r) && !invariant_defs.contains(&r) {
                        ok = false;
                    }
                });
                if ok {
                    to_hoist.push((b, i));
                    instr.op.visit_defs(|r| {
                        invariant_defs.insert(r);
                    });
                    changed = true;
                }
            }
        }
    }
    if to_hoist.is_empty() {
        return 0;
    }

    // Build (or find) the preheader: the unique out-of-loop predecessor
    // of the header with the header as its only successor.
    let preds = f.predecessors();
    let outside: Vec<BlockId> = preds[header.index()]
        .iter()
        .copied()
        .filter(|p| !in_loop.contains(p) && dom.is_reachable(*p))
        .collect();
    let preheader = match &outside[..] {
        [single] if f.successors(*single).len() == 1 => *single,
        _ => {
            // Create one and retarget every outside edge through it.
            let label = format!("preheader_{}", header.index());
            let ph = f.add_block(label);
            f.block_mut(ph)
                .instrs
                .push(Instr::new(Op::Jump { target: header }));
            for p in outside {
                if let Some(t) = f.block_mut(p).terminator_mut() {
                    t.map_successors(|x| if x == header { ph } else { x });
                }
            }
            // Update header φs: outside-edge arguments now flow from ph.
            let phis = f.block(header).phi_count();
            for i in 0..phis {
                if let Op::Phi { args, .. } = &mut f.block_mut(header).instrs[i].op {
                    for (pb, _) in args {
                        if !in_loop.contains(pb) {
                            *pb = ph;
                        }
                    }
                }
            }
            ph
        }
    };

    // Move the instructions, preserving their relative (dominance) order:
    // process blocks in reverse postorder and indices ascending.
    let rpo = f.reverse_postorder();
    let order_of = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap_or(usize::MAX);
    to_hoist.sort_by_key(|&(b, i)| (order_of(b), i));
    let mut moved = Vec::new();
    // Remove from the back of each block first so indices stay valid.
    let mut removal = to_hoist.clone();
    removal.sort_by_key(|&(b, i)| (b, std::cmp::Reverse(i)));
    let mut taken: std::collections::HashMap<(BlockId, usize), Instr> =
        std::collections::HashMap::new();
    for (b, i) in removal {
        let instr = f.block_mut(b).instrs.remove(i);
        taken.insert((b, i), instr);
    }
    for key in to_hoist {
        moved.push(taken.remove(&key).expect("collected"));
    }
    let count = moved.len();
    for instr in moved {
        f.block_mut(preheader).insert_before_terminator(instr);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::to_ssa;
    use iloc::builder::FuncBuilder;
    use iloc::{verify_function, RegClass};

    fn loop_with_invariant() -> Function {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let acc = fb.vreg(RegClass::Fpr);
        fb.emit(Op::LoadF { imm: 0.0, dst: acc });
        fb.counted_loop(0, 10, 1, |fb, _| {
            // 2.5 * 4.0 is invariant; the add of acc is not.
            let a = fb.loadf(2.5);
            let b = fb.loadf(4.0);
            let c = fb.fmult(a, b);
            let t = fb.fadd(acc, c);
            fb.emit(Op::F2F { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        fb.finish()
    }

    #[test]
    fn hoists_invariant_constants_and_arithmetic() {
        let mut f = loop_with_invariant();
        to_ssa(&mut f);
        let moved = licm(&mut f);
        verify_function(&f).unwrap();
        assert!(moved >= 3, "loadf×2 + fmult should move, got {moved}");
        // The loop body must no longer contain a LoadF.
        let body = f
            .block_ids()
            .find(|b| f.block(*b).label.contains("body"))
            .unwrap();
        let body_has_const = f
            .block(body)
            .instrs
            .iter()
            .any(|i| matches!(i.op, Op::LoadF { .. }));
        assert!(!body_has_const, "constants must be hoisted:\n{f}");
    }

    #[test]
    fn hoisting_preserves_semantics() {
        let mut f = loop_with_invariant();
        let mut m0 = iloc::Module::new();
        m0.push_function(f.clone());
        let (v0, _) = sim::run_module(&m0, sim::MachineConfig::default(), "f").unwrap();

        to_ssa(&mut f);
        licm(&mut f);
        analysis::from_ssa(&mut f);
        let mut m1 = iloc::Module::new();
        m1.push_function(f);
        let (v1, _) = sim::run_module(&m1, sim::MachineConfig::default(), "f").unwrap();
        assert_eq!(v0, v1);
    }

    #[test]
    fn loads_and_stores_never_hoisted() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let base = fb.loadsym("g");
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 0, dst: acc });
        fb.counted_loop(0, 4, 1, |fb, _| {
            let v = fb.loadai(base, 0); // may change between iterations!
            let t = fb.add(acc, v);
            fb.emit(Op::I2I { src: t, dst: acc });
            fb.storeai(t, base, 0);
        });
        fb.ret(&[acc]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        licm(&mut f);
        verify_function(&f).unwrap();
        // The load must still be inside the loop.
        let dom = Dominators::compute(&f);
        let loops = LoopInfo::compute(&f, &dom);
        let mut load_in_loop = false;
        for l in &loops.loops {
            for &b in &l.blocks {
                if f.block(b)
                    .instrs
                    .iter()
                    .any(|i| matches!(i.op, Op::LoadAI { .. }))
                {
                    load_in_loop = true;
                }
            }
        }
        assert!(load_in_loop, "memory reads must not move");
    }

    #[test]
    fn division_not_hoisted() {
        // A division that would fault if executed when the loop runs zero
        // times must stay put (we hoist conservatively: never).
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr); // possibly zero
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 0, dst: acc });
        let hundred = fb.loadi(100);
        fb.counted_loop(0, 4, 1, |fb, _| {
            let q = fb.idiv(hundred, p);
            let t = fb.add(acc, q);
            fb.emit(Op::I2I { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        licm(&mut f);
        let dom = Dominators::compute(&f);
        let loops = LoopInfo::compute(&f, &dom);
        let mut div_in_loop = false;
        for l in &loops.loops {
            for &b in &l.blocks {
                if f.block(b).instrs.iter().any(|i| {
                    matches!(
                        i.op,
                        Op::IBin {
                            kind: iloc::IBinKind::Div,
                            ..
                        }
                    )
                }) {
                    div_in_loop = true;
                }
            }
        }
        assert!(div_in_loop, "div must not be hoisted");
    }

    #[test]
    fn nested_loops_hoist_through_both_levels() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let acc = fb.vreg(RegClass::Fpr);
        fb.emit(Op::LoadF { imm: 0.0, dst: acc });
        fb.counted_loop(0, 4, 1, |fb, _| {
            fb.counted_loop(0, 4, 1, |fb, _| {
                let c = fb.loadf(3.0); // invariant w.r.t. both loops
                let t = fb.fadd(acc, c);
                fb.emit(Op::F2F { src: t, dst: acc });
            });
        });
        fb.ret(&[acc]);
        let mut f = fb.finish();
        let mut m0 = iloc::Module::new();
        m0.push_function(f.clone());
        let (v0, _) = sim::run_module(&m0, sim::MachineConfig::default(), "f").unwrap();
        to_ssa(&mut f);
        let moved = licm(&mut f);
        assert!(moved >= 1);
        analysis::from_ssa(&mut f);
        verify_function(&f).unwrap();
        let mut m1 = iloc::Module::new();
        m1.push_function(f.clone());
        let (v1, _) = sim::run_module(&m1, sim::MachineConfig::default(), "f").unwrap();
        assert_eq!(v0, v1);
        // The constant must end up outside every loop.
        let dom = Dominators::compute(&f);
        let loops = LoopInfo::compute(&f, &dom);
        for b in f.block_ids() {
            if f.block(b)
                .instrs
                .iter()
                .any(|i| matches!(i.op, Op::LoadF { imm, .. } if imm == 3.0))
            {
                assert_eq!(loops.depth(b), 0, "constant still at depth > 0");
            }
        }
    }
}
