//! Local peephole optimization.
//!
//! Block-local rewrites: algebraic identities (`x+0`, `x*1`, `x*0`),
//! strength reduction (`x * 2ᵏ` → shift), and conversion of
//! register-register arithmetic to immediate forms when one operand is a
//! block-local constant. Constants and immediates are read as the machine
//! reads them ([`iloc::read_imm`]), so `multI x, 4294967296` multiplies
//! by 0, not by 2³².

use std::collections::HashMap;

use iloc::{Function, IBinKind, Op, Reg};

/// Runs the peephole pass; returns the number of rewrites performed.
pub fn peephole(f: &mut Function) -> usize {
    let mut changed = 0;
    for b in f.block_ids().collect::<Vec<_>>() {
        // Block-local constant environment (register → known value).
        let mut consts: HashMap<Reg, i64> = HashMap::new();
        let n = f.block(b).instrs.len();
        for i in 0..n {
            let op = f.block(b).instrs[i].op.clone();
            let mut new_op: Option<Op> = None;

            match &op {
                Op::LoadI { imm, dst } => {
                    consts.insert(*dst, iloc::read_imm(*imm));
                }
                Op::IBin {
                    kind,
                    lhs,
                    rhs,
                    dst,
                } => {
                    // Prefer folding to an immediate form when either side
                    // is a known block-local constant.
                    if let Some(&c) = consts.get(rhs) {
                        new_op = Some(Op::IBinI {
                            kind: *kind,
                            lhs: *lhs,
                            imm: c,
                            dst: *dst,
                        });
                    } else if let Some(&c) = consts.get(lhs) {
                        if kind.is_commutative() {
                            new_op = Some(Op::IBinI {
                                kind: *kind,
                                lhs: *rhs,
                                imm: c,
                                dst: *dst,
                            });
                        }
                    }
                }
                Op::IBinI {
                    kind,
                    lhs,
                    imm,
                    dst,
                } => {
                    new_op = simplify_ibini(*kind, *lhs, *imm, *dst);
                }
                _ => {}
            }

            // A second chance: simplify whatever we just created.
            if let Some(Op::IBinI {
                kind,
                lhs,
                imm,
                dst,
            }) = new_op
            {
                new_op = Some(simplify_ibini(kind, lhs, imm, dst).unwrap_or(Op::IBinI {
                    kind,
                    lhs,
                    imm,
                    dst,
                }));
            }

            if let Some(new) = new_op {
                if new != op {
                    // Maintain the constant environment for the rewrite.
                    f.block_mut(b).instrs[i].op = new;
                    changed += 1;
                }
            }

            // Kill constants on redefinition.
            let cur = f.block(b).instrs[i].op.clone();
            if !matches!(cur, Op::LoadI { .. }) {
                cur.visit_defs(|r| {
                    consts.remove(&r);
                });
            }
        }
    }
    changed
}

/// Simplifies `lhs KIND imm => dst`, or returns `None` to keep it. The
/// identities hold for the value the machine reads from `imm`
/// ([`iloc::read_imm`]), not for its raw 64 bits.
fn simplify_ibini(kind: IBinKind, lhs: Reg, imm: i64, dst: Reg) -> Option<Op> {
    match (kind, iloc::read_imm(imm)) {
        (IBinKind::Add, 0)
        | (IBinKind::Sub, 0)
        | (IBinKind::Mult, 1)
        | (IBinKind::Div, 1)
        | (IBinKind::Shl, 0)
        | (IBinKind::Shr, 0)
        | (IBinKind::Or, 0)
        | (IBinKind::Xor, 0) => Some(Op::I2I { src: lhs, dst }),
        (IBinKind::Mult, 0) | (IBinKind::And, 0) => Some(Op::LoadI { imm: 0, dst }),
        (IBinKind::Mult, c) if c > 1 && (c & (c - 1)) == 0 => Some(Op::IBinI {
            kind: IBinKind::Shl,
            lhs,
            imm: c.trailing_zeros() as i64,
            dst,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::RegClass;

    fn first_matching(f: &Function, pred: impl Fn(&Op) -> bool) -> Option<Op> {
        f.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .map(|i| i.op.clone())
            .find(|o| pred(o))
    }

    #[test]
    fn add_zero_becomes_copy() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let r = fb.addi(p, 0);
        fb.ret(&[r]);
        let mut f = fb.finish();
        assert_eq!(peephole(&mut f), 1);
        assert!(first_matching(&f, |o| matches!(o, Op::I2I { .. })).is_some());
    }

    #[test]
    fn mult_power_of_two_becomes_shift() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let r = fb.multi(p, 8);
        fb.ret(&[r]);
        let mut f = fb.finish();
        assert_eq!(peephole(&mut f), 1);
        match first_matching(&f, |o| {
            matches!(
                o,
                Op::IBinI {
                    kind: IBinKind::Shl,
                    ..
                }
            )
        }) {
            Some(Op::IBinI { imm, .. }) => assert_eq!(imm, 3),
            other => panic!("expected shift, got {other:?}"),
        }
    }

    #[test]
    fn reg_reg_with_known_const_becomes_immediate() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let four = fb.loadi(4);
        let r = fb.add(p, four);
        fb.ret(&[r]);
        let mut f = fb.finish();
        assert!(peephole(&mut f) >= 1);
        assert!(
            first_matching(&f, |o| matches!(
                o,
                Op::IBinI {
                    kind: IBinKind::Add,
                    imm: 4,
                    ..
                }
            ))
            .is_some(),
            "{f}"
        );
    }

    #[test]
    fn commuted_const_folds_when_commutative() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let four = fb.loadi(4);
        let r = fb.mult(four, p); // const on the left
        fb.ret(&[r]);
        let mut f = fb.finish();
        assert!(peephole(&mut f) >= 1);
        // 4 is a power of two → should end as a shift by 2.
        assert!(first_matching(&f, |o| matches!(
            o,
            Op::IBinI {
                kind: IBinKind::Shl,
                imm: 2,
                ..
            }
        ))
        .is_some());
    }

    #[test]
    fn const_killed_by_redefinition() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let c = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 4, dst: c });
        fb.emit(Op::I2I { src: p, dst: c }); // c no longer constant
        let r = fb.add(p, c);
        fb.ret(&[r]);
        let mut f = fb.finish();
        peephole(&mut f);
        // The add must remain register-register.
        assert!(first_matching(&f, |o| matches!(o, Op::IBin { .. })).is_some());
    }

    #[test]
    fn mult_zero_becomes_load_zero() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let r = fb.multi(p, 0);
        fb.ret(&[r]);
        let mut f = fb.finish();
        assert_eq!(peephole(&mut f), 1);
        assert!(first_matching(&f, |o| matches!(o, Op::LoadI { imm: 0, .. })).is_some());
    }
}
