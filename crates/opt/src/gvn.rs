//! Dominator-based global value numbering on SSA form.
//!
//! Walks the dominator tree with a scoped hash table of available
//! expressions. A recomputation of an expression whose representative
//! dominates it is deleted and its uses rewritten to the representative.
//! Commutative operations are canonicalized by sorting operands so
//! `a + b` and `b + a` share a value number. Copies and φs with identical
//! arguments are folded into their source.
//!
//! Forwarded names live in an [`analysis::RegMap`]. The expression table
//! stays a hash map — an expression key is an opcode with operand
//! registers or an immediate, which has no dense numbering — hashed with
//! a small multiply-rotate hasher. An expression is entered only when no
//! representative is available, so each key holds one representative,
//! and leaving the block that entered it removes it again.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use analysis::{Dominators, RegMap};
use iloc::{BlockId, Function, Op, Reg};

/// An expression key: opcode discriminator plus canonicalized operands.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Key {
    Int(i64),
    Float(u64),
    Sym(Box<str>),
    IBin(iloc::IBinKind, Reg, Reg),
    IBinI(iloc::IBinKind, Reg, i64),
    FBin(iloc::FBinKind, Reg, Reg),
    ICmp(iloc::CmpKind, Reg, Reg),
    FCmp(iloc::CmpKind, Reg, Reg),
    I2F(Reg),
    F2I(Reg),
}

/// FxHash-style multiply-rotate hashing: an expression key is a few
/// small integers, which need neither SipHash's flood resistance nor its
/// cost.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The walk's state: `replacement[r]` is the name `r` was forwarded to,
/// `table` each available expression with its one representative.
struct Numbering {
    replacement: RegMap<Option<Reg>>,
    table: HashMap<Key, Reg, BuildHasherDefault<KeyHasher>>,
    removed: usize,
    /// Reused buffer: the distinct resolved arguments of the φ at hand.
    distinct: Vec<Reg>,
}

/// The canonical name of `r`: follows forwarded names to the end.
fn resolve(replacement: &RegMap<Option<Reg>>, mut r: Reg) -> Reg {
    while let Some(n) = replacement.get(r).copied().flatten() {
        if n == r {
            break;
        }
        r = n;
    }
    r
}

/// The expression key of a value-numbered op and its destination.
/// Commutative operands are sorted. Loads, stores, calls and control flow
/// are not value-numbered (memory is not tracked).
fn key_of(op: &Op) -> Option<(Key, Reg)> {
    let commuted = |commutative: bool, lhs: Reg, rhs: Reg| {
        if commutative && rhs < lhs {
            (rhs, lhs)
        } else {
            (lhs, rhs)
        }
    };
    Some(match op {
        Op::LoadI { imm, dst } => (Key::Int(*imm), *dst),
        Op::LoadF { imm, dst } => (Key::Float(imm.to_bits()), *dst),
        Op::LoadSym { sym, dst } => (Key::Sym(sym.clone()), *dst),
        Op::IBin {
            kind,
            lhs,
            rhs,
            dst,
        } => {
            let (a, b) = commuted(kind.is_commutative(), *lhs, *rhs);
            (Key::IBin(*kind, a, b), *dst)
        }
        Op::IBinI {
            kind,
            lhs,
            imm,
            dst,
        } => (Key::IBinI(*kind, *lhs, *imm), *dst),
        Op::FBin {
            kind,
            lhs,
            rhs,
            dst,
        } => {
            let (a, b) = commuted(kind.is_commutative(), *lhs, *rhs);
            (Key::FBin(*kind, a, b), *dst)
        }
        Op::ICmp {
            kind,
            lhs,
            rhs,
            dst,
        } => (Key::ICmp(*kind, *lhs, *rhs), *dst),
        Op::FCmp {
            kind,
            lhs,
            rhs,
            dst,
        } => (Key::FCmp(*kind, *lhs, *rhs), *dst),
        Op::I2F { src, dst } => (Key::I2F(*src), *dst),
        Op::F2I { src, dst } => (Key::F2I(*src), *dst),
        _ => return None,
    })
}

impl Numbering {
    fn walk(&mut self, f: &mut Function, dom: &Dominators, b: BlockId) {
        let mut pushed: Vec<Key> = Vec::new();
        for instr in &mut f.block_mut(b).instrs {
            // Rewrite uses through the replacement map first.
            instr.op.map_uses(|r| resolve(&self.replacement, r));
            // `(dst, src)`: the instruction's value is already in `src`.
            let forward = match &instr.op {
                // Copies: dst is just an alias of src.
                Op::I2I { src, dst } | Op::F2F { src, dst } => Some((*dst, *src)),
                Op::Phi { dst, args } => {
                    // φ with all-identical arguments (ignoring self) folds.
                    self.distinct.clear();
                    for (_, r) in args {
                        let r = resolve(&self.replacement, *r);
                        if r != *dst && !self.distinct.contains(&r) {
                            self.distinct.push(r);
                        }
                    }
                    match self.distinct[..] {
                        [only] => Some((*dst, only)),
                        _ => None,
                    }
                }
                op => key_of(op).and_then(|(key, dst)| match self.table.get(&key) {
                    Some(&rep) => Some((dst, rep)),
                    None => {
                        self.table.insert(key.clone(), dst);
                        pushed.push(key);
                        None
                    }
                }),
            };
            if let Some((dst, src)) = forward {
                self.replacement[dst] = Some(src);
                instr.op = Op::Nop;
                self.removed += 1;
            }
        }

        // Also rewrite φ arguments in successors (the use point is the end
        // of this block, so everything available here applies).
        for s in f.successors(b) {
            let phis = f.block(s).phi_count();
            for instr in &mut f.block_mut(s).instrs[..phis] {
                if let Op::Phi { args, .. } = &mut instr.op {
                    for (p, r) in args {
                        if *p == b {
                            *r = resolve(&self.replacement, *r);
                        }
                    }
                }
            }
        }

        for &c in dom.children(b) {
            self.walk(f, dom, c);
        }

        for key in pushed {
            self.table.remove(&key);
        }
    }
}

/// Runs GVN over `f` (must be in SSA form). Returns the number of
/// redundant instructions removed.
pub fn gvn(f: &mut Function) -> usize {
    let dom = Dominators::compute(f);
    let mut gvn = Numbering {
        replacement: RegMap::for_function(f, None),
        table: HashMap::default(),
        removed: 0,
        distinct: Vec::new(),
    };
    gvn.walk(f, &dom, f.entry());

    // Final sweep: resolve any uses recorded before their replacement, and
    // drop the Nops.
    for blk in &mut f.blocks {
        for instr in &mut blk.instrs {
            instr.op.map_uses(|r| resolve(&gvn.replacement, r));
        }
    }
    f.remove_instrs(|i| matches!(i.op, Op::Nop));
    gvn.removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::to_ssa;
    use iloc::builder::FuncBuilder;
    use iloc::{IBinKind, RegClass};

    fn count_op(f: &Function, pred: impl Fn(&Op) -> bool) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| pred(&i.op))
            .count()
    }

    #[test]
    fn duplicate_expression_removed() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let q = fb.param(RegClass::Gpr);
        let a = fb.add(p, q);
        let b = fb.add(p, q); // redundant
        let c = fb.mult(a, b);
        fb.ret(&[c]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        let removed = gvn(&mut f);
        assert_eq!(removed, 1);
        assert_eq!(
            count_op(&f, |o| matches!(
                o,
                Op::IBin {
                    kind: IBinKind::Add,
                    ..
                }
            )),
            1
        );
    }

    #[test]
    fn commutative_operands_canonicalized() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let q = fb.param(RegClass::Gpr);
        let a = fb.add(p, q);
        let b = fb.add(q, p); // same value, swapped operands
        let c = fb.mult(a, b);
        fb.ret(&[c]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        assert_eq!(gvn(&mut f), 1);
    }

    #[test]
    fn subtraction_not_commuted() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let q = fb.param(RegClass::Gpr);
        let a = fb.sub(p, q);
        let b = fb.sub(q, p); // different value!
        let c = fb.mult(a, b);
        fb.ret(&[c]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        assert_eq!(gvn(&mut f), 0);
    }

    #[test]
    fn duplicate_constants_merged() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(42);
        let b = fb.loadi(42);
        let c = fb.add(a, b);
        fb.ret(&[c]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        assert_eq!(gvn(&mut f), 1);
        assert_eq!(count_op(&f, |o| matches!(o, Op::LoadI { .. })), 1);
    }

    #[test]
    fn expression_not_reused_across_siblings() {
        // Compute p*p in both arms of a diamond: neither dominates the
        // other, so GVN must keep both.
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let t = fb.block("t");
        let e = fb.block("e");
        let j = fb.block("j");
        let cond = fb.param(RegClass::Gpr);
        fb.cbr(cond, t, e);
        fb.switch_to(t);
        let x = fb.mult(p, p);
        fb.storeai(x, iloc::Reg::RARP, 0);
        fb.jump(j);
        fb.switch_to(e);
        let y = fb.mult(p, p);
        fb.storeai(y, iloc::Reg::RARP, 0);
        fb.jump(j);
        fb.switch_to(j);
        let r = fb.loadi(0);
        fb.ret(&[r]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        gvn(&mut f);
        assert_eq!(
            count_op(&f, |o| matches!(
                o,
                Op::IBin {
                    kind: IBinKind::Mult,
                    ..
                }
            )),
            2,
            "sibling blocks must not share:\n{f}"
        );
    }

    #[test]
    fn dominating_expression_reused_downstream() {
        // p*p computed before the branch is reused in an arm.
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let cond = fb.param(RegClass::Gpr);
        let x = fb.mult(p, p);
        let t = fb.block("t");
        let e = fb.block("e");
        fb.cbr(cond, t, e);
        fb.switch_to(t);
        let y = fb.mult(p, p); // redundant with x
        let s = fb.add(x, y);
        fb.ret(&[s]);
        fb.switch_to(e);
        fb.ret(&[x]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        assert_eq!(gvn(&mut f), 1);
    }

    #[test]
    fn copies_are_folded() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let c = fb.copy(p);
        let d = fb.copy(c);
        let s = fb.add(d, p);
        fb.ret(&[s]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        let removed = gvn(&mut f);
        assert_eq!(removed, 2);
        // The add must now use p twice.
        let ok = f.blocks.iter().flat_map(|b| &b.instrs).any(|i| {
            if let Op::IBin { lhs, rhs, .. } = i.op {
                lhs == rhs
            } else {
                false
            }
        });
        assert!(ok, "copy chain should collapse to p:\n{f}");
    }

    #[test]
    fn loads_never_value_numbered() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let a = fb.loadai(p, 0);
        let store_val = fb.loadi(1);
        fb.storeai(store_val, p, 0);
        let b = fb.loadai(p, 0); // NOT redundant: store intervened
        let c = fb.add(a, b);
        fb.ret(&[c]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        gvn(&mut f);
        assert_eq!(count_op(&f, |o| matches!(o, Op::LoadAI { .. })), 2);
    }
}
