//! Loop unrolling for canonical counted loops.
//!
//! This is the "register-pressure transformation" of the reproduction: the
//! paper's `X`-suffixed routines were loop-transformed (for prefetching)
//! in ways that *greatly increased register pressure*. Unrolling followed
//! by global value numbering has the same effect here — address
//! computations and constants become common subexpressions whose live
//! ranges stretch across the whole unrolled body.
//!
//! Only loops in the canonical shape produced by
//! [`FuncBuilder::counted_loop`](iloc::builder::FuncBuilder::counted_loop)
//! with compile-time-constant trip counts divisible by the unroll factor
//! are transformed; anything else is left untouched.

use analysis::{Dominators, LoopInfo};
use iloc::{BlockId, CmpKind, Function, IBinKind, Instr, Op, Reg};

/// Description of a recognized canonical counted loop.
#[derive(Debug)]
struct Candidate {
    body: BlockId,
    trip: i64,
}

/// Unrolls every canonical counted loop whose trip count is a known
/// constant divisible by `factor`. The loop body is replicated `factor`
/// times (each replica keeps its induction-variable update, so the
/// transformation is trivially semantics-preserving) and the back-edge
/// test now fires every `factor` iterations. Returns the number of loops
/// unrolled.
///
/// # Panics
///
/// Panics if `factor < 2`.
pub fn unroll_loops(f: &mut Function, factor: u32) -> usize {
    assert!(factor >= 2, "unroll factor must be at least 2");
    let dom = Dominators::compute(f);
    let loops = LoopInfo::compute(f, &dom);
    let preds = f.predecessors();

    let mut candidates = Vec::new();
    for l in &loops.loops {
        if let Some(c) = recognize(f, &preds, l.header, &l.blocks) {
            if c.trip >= factor as i64 && c.trip % factor as i64 == 0 {
                candidates.push(c);
            }
        }
    }

    for c in &candidates {
        let body = f.block(c.body).instrs.clone();
        let (iter, jump) = body.split_at(body.len() - 1);
        debug_assert!(matches!(jump[0].op, Op::Jump { .. }));
        let mut new_instrs: Vec<Instr> = Vec::with_capacity(iter.len() * factor as usize + 1);
        for _ in 0..factor {
            new_instrs.extend_from_slice(iter);
        }
        new_instrs.push(jump[0].clone());
        f.block_mut(c.body).instrs = new_instrs;
    }
    candidates.len()
}

/// Matches the canonical shape:
///
/// ```text
/// preheader: … loadI START => iv …   (last def of iv)
/// header:    loadI BOUND => b
///            cmp_lt iv, b => c        (or cmp_gt for negative step)
///            cbr c -> body, exit
/// body:      …
///            addI iv, STEP => t
///            i2i t => iv
///            jump -> header
/// ```
fn recognize(
    f: &Function,
    preds: &[Vec<BlockId>],
    header: BlockId,
    loop_blocks: &[BlockId],
) -> Option<Candidate> {
    if loop_blocks.len() != 2 {
        return None;
    }
    let h = f.block(header);
    if h.instrs.len() != 3 {
        return None;
    }
    let (bound, bound_reg) = match &h.instrs[0].op {
        Op::LoadI { imm, dst } => (iloc::read_imm(*imm), *dst),
        _ => return None,
    };
    let (cmp_kind, iv) = match &h.instrs[1].op {
        Op::ICmp { kind, lhs, rhs, .. } if *rhs == bound_reg => (*kind, *lhs),
        _ => return None,
    };
    let body = match &h.instrs[2].op {
        Op::Cbr { taken, .. } => *taken,
        _ => return None,
    };
    if !loop_blocks.contains(&body) || body == header {
        return None;
    }
    let bb = f.block(body);
    if bb.instrs.len() < 3 {
        return None;
    }
    let n = bb.instrs.len();
    match &bb.instrs[n - 1].op {
        Op::Jump { target } if *target == header => {}
        _ => return None,
    }
    let (step, t) = match &bb.instrs[n - 3].op {
        Op::IBinI {
            kind: IBinKind::Add,
            lhs,
            imm,
            dst,
        } if *lhs == iv => (iloc::read_imm(*imm), *dst),
        _ => return None,
    };
    match &bb.instrs[n - 2].op {
        Op::I2I { src, dst } if *src == t && *dst == iv => {}
        _ => return None,
    }
    // The comparison direction must match the step direction.
    match (cmp_kind, step.signum()) {
        (CmpKind::Lt, 1) | (CmpKind::Gt, -1) => {}
        _ => return None,
    }
    // No other def of iv inside the body.
    let mut defs_of_iv = 0;
    for i in &bb.instrs {
        i.op.visit_defs(|r| {
            if r == iv {
                defs_of_iv += 1;
            }
        });
    }
    if defs_of_iv != 1 {
        return None;
    }
    // Find the loop-entry value of iv: last def in the unique preheader
    // must be a loadI.
    let outside: Vec<BlockId> = preds[header.index()]
        .iter()
        .copied()
        .filter(|p| *p != body)
        .collect();
    if outside.len() != 1 {
        return None;
    }
    let start = last_def_as_const(f, outside[0], iv)?;
    let span = bound - start;
    if step == 0 || span % step != 0 || span / step <= 0 {
        return None;
    }
    Some(Candidate {
        body,
        trip: span / step,
    })
}

fn last_def_as_const(f: &Function, b: BlockId, reg: Reg) -> Option<i64> {
    let mut result = None;
    for i in &f.block(b).instrs {
        let mut defines = false;
        i.op.visit_defs(|r| {
            if r == reg {
                defines = true;
            }
        });
        if defines {
            result = match &i.op {
                Op::LoadI { imm, .. } => Some(iloc::read_imm(*imm)),
                _ => None,
            };
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{verify_function, RegClass};

    fn sum_loop(n: i64) -> Function {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 0, dst: acc });
        fb.counted_loop(0, n, 1, |fb, iv| {
            let t = fb.add(acc, iv);
            fb.emit(Op::I2I { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        fb.finish()
    }

    #[test]
    fn canonical_loop_unrolls() {
        let mut f = sum_loop(16);
        let body_before = f.block(BlockId(2)).instrs.len();
        assert_eq!(unroll_loops(&mut f, 4), 1);
        verify_function(&f).unwrap();
        let body_after = f.block(BlockId(2)).instrs.len();
        // (body - jump) × 4 + jump
        assert_eq!(body_after, (body_before - 1) * 4 + 1);
    }

    #[test]
    fn non_divisible_trip_skipped() {
        let mut f = sum_loop(10);
        assert_eq!(unroll_loops(&mut f, 4), 0);
    }

    #[test]
    fn bounds_are_read_as_the_machine_reads_them() {
        // `loadI 4294967298` reads as 2: two trips, not divisible by 3.
        let mut f = sum_loop((1 << 32) + 2);
        assert_eq!(unroll_loops(&mut f, 3), 0);
        let mut f = sum_loop((1 << 32) + 2);
        assert_eq!(unroll_loops(&mut f, 2), 1);
    }

    #[test]
    fn trip_smaller_than_factor_skipped() {
        let mut f = sum_loop(2);
        assert_eq!(unroll_loops(&mut f, 4), 0);
    }

    #[test]
    fn nested_loops_unroll_inner_and_outer() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 0, dst: acc });
        fb.counted_loop(0, 8, 1, |fb, _| {
            fb.counted_loop(0, 8, 1, |fb, j| {
                let t = fb.add(acc, j);
                fb.emit(Op::I2I { src: t, dst: acc });
            });
        });
        fb.ret(&[acc]);
        let mut f = fb.finish();
        // The inner loop matches. The outer loop's body spans several
        // blocks, so only the inner is transformed.
        assert_eq!(unroll_loops(&mut f, 2), 1);
        verify_function(&f).unwrap();
    }

    #[test]
    fn unknown_start_skipped() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let iv = fb.vreg(RegClass::Gpr);
        fb.emit(Op::I2I { src: p, dst: iv }); // start is not a constant
        let header = fb.block("h");
        let body = fb.block("b");
        let exit = fb.block("x");
        fb.jump(header);
        fb.switch_to(header);
        let bound = fb.loadi(8);
        let c = fb.icmp(CmpKind::Lt, iv, bound);
        fb.cbr(c, body, exit);
        fb.switch_to(body);
        let t = fb.addi(iv, 1);
        fb.emit(Op::I2I { src: t, dst: iv });
        fb.jump(header);
        fb.switch_to(exit);
        fb.ret(&[iv]);
        let mut f = fb.finish();
        assert_eq!(unroll_loops(&mut f, 2), 0);
    }
}
