//! Sparse conditional constant propagation (Wegman–Zadeck) on SSA form.
//!
//! Runs the classic two-worklist algorithm over the constant lattice
//! ⊤ → const → ⊥, simultaneously tracking CFG edge executability so
//! constants propagate through φ-nodes only along executable edges.
//! Afterwards, constant-valued instructions are rewritten to `loadI` /
//! `loadF` and conditional branches on known conditions become jumps.
//!
//! Constants are folded by the machine's own ALU rule
//! ([`iloc::IBinKind::eval`] and its siblings in [`iloc::op`]), the
//! functions the simulator executes: a folded value is the value the
//! unoptimized program computes, and an op that would trap (a division
//! by zero) is left varying.
//!
//! All state is dense: the lattice is an [`analysis::RegMap`], use sites
//! come from the compressed rows of [`analysis::DefUse`], executable
//! edges are two flags per block (one per successor slot of its
//! terminator) and executable blocks one flag each. Evaluating an
//! instruction writes its def values and newly executable edges into
//! buffers the propagation reuses, and the rewrite pass decides each
//! instruction's fate from a borrow of it, so nothing is cloned or
//! hashed per instruction.

use std::collections::VecDeque;

use analysis::RegMap;
use iloc::{BlockId, Function, Op, Reg};

/// A lattice value.
#[derive(Copy, Clone, PartialEq, Debug)]
enum Lattice {
    /// Undetermined (optimistic).
    Top,
    /// A known integer constant.
    Int(i64),
    /// A known float constant.
    Float(f64),
    /// Known to vary.
    Bottom,
}

impl Lattice {
    fn meet(self, other: Lattice) -> Lattice {
        use Lattice::*;
        match (self, other) {
            (Top, x) | (x, Top) => x,
            (Int(a), Int(b)) if a == b => Int(a),
            (Float(a), Float(b)) if a.to_bits() == b.to_bits() => Float(a),
            _ => Bottom,
        }
    }
}

/// Which successor slot of `from`'s terminator (0 or 1) is the edge to
/// `to`: the first that names it, so a `cbr` with both arms on one block
/// has one edge. `None` if `to` is not a successor of `from` (a φ can
/// still name a predecessor whose branch an earlier round folded away).
fn edge_slot(f: &Function, from: BlockId, to: BlockId) -> Option<usize> {
    match f.blocks.get(from.index())?.terminator()? {
        Op::Jump { target } if *target == to => Some(0),
        Op::Cbr {
            taken, not_taken, ..
        } => {
            if *taken == to {
                Some(0)
            } else if *not_taken == to {
                Some(1)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The propagation state: the lattice and the executable edges and
/// blocks, all dense, plus the two worklists and the buffers one
/// instruction's evaluation writes.
struct Propagation<'f> {
    f: &'f Function,
    value: RegMap<Lattice>,
    /// `exec_edge[2 * from + slot]`, slots as [`edge_slot`] numbers them.
    exec_edge: Vec<bool>,
    exec_block: Vec<bool>,
    cfg_work: VecDeque<(Option<BlockId>, BlockId)>,
    ssa_work: VecDeque<Reg>,
    /// New lattice values of the evaluated instruction's defs.
    defs: Vec<(Reg, Lattice)>,
    /// Successor edges the evaluated terminator makes executable.
    succs: Vec<BlockId>,
}

/// The lattice value of `r`: physical registers always vary.
fn lat(value: &RegMap<Lattice>, r: Reg) -> Lattice {
    if !r.is_virtual() {
        return Lattice::Bottom;
    }
    value[r]
}

impl Propagation<'_> {
    /// Evaluates instruction `i` of block `b` into `defs` and `succs`.
    fn eval(&mut self, b: BlockId, i: usize) {
        let Propagation {
            f,
            value,
            exec_edge,
            defs,
            succs,
            ..
        } = self;
        defs.clear();
        succs.clear();
        let lat = |r: Reg| lat(value, r);
        let op = &f.block(b).instrs[i].op;
        match op {
            Op::LoadI { imm, dst } => defs.push((*dst, Lattice::Int(iloc::read_imm(*imm)))),
            Op::LoadF { imm, dst } => defs.push((*dst, Lattice::Float(*imm))),
            Op::IBin {
                kind,
                lhs,
                rhs,
                dst,
            } => {
                let v = match (lat(*lhs), lat(*rhs)) {
                    (Lattice::Int(a), Lattice::Int(b)) => {
                        kind.eval(a, b).map_or(Lattice::Bottom, Lattice::Int)
                    }
                    (Lattice::Top, _) | (_, Lattice::Top) => Lattice::Top,
                    _ => Lattice::Bottom,
                };
                defs.push((*dst, v));
            }
            Op::IBinI {
                kind,
                lhs,
                imm,
                dst,
            } => {
                let v = match lat(*lhs) {
                    Lattice::Int(a) => kind.eval(a, *imm).map_or(Lattice::Bottom, Lattice::Int),
                    Lattice::Top => Lattice::Top,
                    _ => Lattice::Bottom,
                };
                defs.push((*dst, v));
            }
            Op::FBin {
                kind,
                lhs,
                rhs,
                dst,
            } => {
                let v = match (lat(*lhs), lat(*rhs)) {
                    (Lattice::Float(a), Lattice::Float(b)) => Lattice::Float(kind.eval(a, b)),
                    (Lattice::Top, _) | (_, Lattice::Top) => Lattice::Top,
                    _ => Lattice::Bottom,
                };
                defs.push((*dst, v));
            }
            Op::ICmp {
                kind,
                lhs,
                rhs,
                dst,
            } => {
                let v = match (lat(*lhs), lat(*rhs)) {
                    (Lattice::Int(a), Lattice::Int(b)) => Lattice::Int(kind.eval(a, b)),
                    (Lattice::Top, _) | (_, Lattice::Top) => Lattice::Top,
                    _ => Lattice::Bottom,
                };
                defs.push((*dst, v));
            }
            Op::FCmp {
                kind,
                lhs,
                rhs,
                dst,
            } => {
                let v = match (lat(*lhs), lat(*rhs)) {
                    (Lattice::Float(a), Lattice::Float(b)) => Lattice::Int(kind.eval(a, b)),
                    (Lattice::Top, _) | (_, Lattice::Top) => Lattice::Top,
                    _ => Lattice::Bottom,
                };
                defs.push((*dst, v));
            }
            Op::I2I { src, dst } | Op::F2F { src, dst } => {
                defs.push((*dst, lat(*src)));
            }
            Op::I2F { src, dst } => {
                let v = match lat(*src) {
                    Lattice::Int(a) => Lattice::Float(a as f64),
                    Lattice::Top => Lattice::Top,
                    _ => Lattice::Bottom,
                };
                defs.push((*dst, v));
            }
            Op::F2I { src, dst } => {
                let v = match lat(*src) {
                    Lattice::Float(a) => Lattice::Int(iloc::f2i(a)),
                    Lattice::Top => Lattice::Top,
                    _ => Lattice::Bottom,
                };
                defs.push((*dst, v));
            }
            Op::Phi { dst, args } => {
                let mut acc = Lattice::Top;
                for (p, r) in args {
                    if edge_slot(f, *p, b).is_some_and(|k| exec_edge[2 * p.index() + k]) {
                        acc = acc.meet(lat(*r));
                    }
                }
                defs.push((*dst, acc));
            }
            Op::Jump { target } => succs.push(*target),
            Op::Cbr {
                cond,
                taken,
                not_taken,
            } => match lat(*cond) {
                Lattice::Int(0) => succs.push(*not_taken),
                Lattice::Int(_) => succs.push(*taken),
                Lattice::Top => {}
                _ => {
                    succs.push(*taken);
                    succs.push(*not_taken);
                }
            },
            // Everything else (loads, calls, …) defines ⊥.
            other => {
                other.visit_defs(|r| defs.push((r, Lattice::Bottom)));
            }
        }
    }

    /// Evaluates instruction `i` of block `b` and lowers its defs by the
    /// result, queueing every def that changed and every edge the
    /// instruction makes executable.
    fn visit(&mut self, b: BlockId, i: usize) {
        self.eval(b, i);
        for &(r, v) in &self.defs {
            let old = lat(&self.value, r);
            let new = old.meet(v);
            if new != old {
                self.value[r] = new;
                self.ssa_work.push_back(r);
            }
        }
        for &s in &self.succs {
            self.cfg_work.push_back((Some(b), s));
        }
    }
}

/// Runs SCCP over `f` (which must be in SSA form) and rewrites what it
/// proves constant. Returns the number of instructions rewritten.
pub fn sccp(f: &mut Function) -> usize {
    // Everything starts optimistic (⊤) except the parameters, which vary.
    let mut value = RegMap::for_function(f, Lattice::Top);
    for &p in &f.params {
        value[p] = Lattice::Bottom;
    }
    let du = analysis::DefUse::build(f);
    let mut prop = Propagation {
        f,
        value,
        exec_edge: vec![false; 2 * f.blocks.len()],
        exec_block: vec![false; f.blocks.len()],
        cfg_work: VecDeque::from([(None, f.entry())]),
        ssa_work: VecDeque::new(),
        defs: Vec::new(),
        succs: Vec::new(),
    };

    // Main propagation loop.
    while !prop.cfg_work.is_empty() || !prop.ssa_work.is_empty() {
        while let Some((from, to)) = prop.cfg_work.pop_front() {
            if let Some(fr) = from {
                let k = edge_slot(f, fr, to).expect("a queued edge is a CFG edge");
                let seen = &mut prop.exec_edge[2 * fr.index() + k];
                if std::mem::replace(seen, true) {
                    continue;
                }
            }
            let first_visit = !std::mem::replace(&mut prop.exec_block[to.index()], true);
            // (Re)evaluate φs always; the rest of the block on first visit.
            for (i, instr) in f.block(to).instrs.iter().enumerate() {
                if first_visit || matches!(instr.op, Op::Phi { .. }) {
                    prop.visit(to, i);
                }
            }
        }
        while let Some(r) = prop.ssa_work.pop_front() {
            for site in du.uses(r) {
                if prop.exec_block[site.block.index()] {
                    prop.visit(site.block, site.index);
                }
            }
        }
    }
    let value = prop.value;

    // Rewrite pass: materialize constants, fold known branches.
    let mut rewritten = 0;
    for blk in &mut f.blocks {
        for instr in &mut blk.instrs {
            let op = &instr.op;
            if op.has_side_effects() && !matches!(op, Op::Cbr { .. }) {
                continue;
            }
            let folded = match op {
                Op::Cbr {
                    cond,
                    taken,
                    not_taken,
                } => match lat(&value, *cond) {
                    Lattice::Int(c) => Some(Op::Jump {
                        target: if c != 0 { *taken } else { *not_taken },
                    }),
                    _ => None,
                },
                Op::LoadI { .. } | Op::LoadF { .. } => None,
                other => {
                    let (mut defs, mut dst) = (0, Reg::RARP);
                    other.visit_defs(|d| {
                        defs += 1;
                        dst = d;
                    });
                    match (defs, lat(&value, dst)) {
                        (1, Lattice::Int(imm)) => Some(Op::LoadI { imm, dst }),
                        (1, Lattice::Float(imm)) => Some(Op::LoadF { imm, dst }),
                        _ => None,
                    }
                }
            };
            if let Some(op) = folded {
                instr.op = op;
                rewritten += 1;
            }
        }
        // A φ rewritten into a constant load may now sit between other
        // φ-nodes, violating the φs-lead-the-block invariant. The
        // materialized constants read no registers, so stably moving the
        // remaining φs back to the head is safe.
        let instrs = &mut blk.instrs;
        let lead = instrs
            .iter()
            .take_while(|i| matches!(i.op, Op::Phi { .. }))
            .count();
        if instrs[lead..]
            .iter()
            .any(|i| matches!(i.op, Op::Phi { .. }))
        {
            let (phis, rest): (Vec<_>, Vec<_>) = std::mem::take(instrs)
                .into_iter()
                .partition(|i| matches!(i.op, Op::Phi { .. }));
            *instrs = phis.into_iter().chain(rest).collect();
        }
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::to_ssa;
    use iloc::builder::FuncBuilder;
    use iloc::{CmpKind, IBinKind, RegClass};

    #[test]
    fn folds_straightline_arithmetic() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(6);
        let b = fb.loadi(7);
        let c = fb.mult(a, b);
        fb.ret(&[c]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        let n = sccp(&mut f);
        assert!(n >= 1);
        // The mult must have become loadI 42.
        let found = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i.op, Op::LoadI { imm: 42, .. }));
        assert!(found, "expected folded 42:\n{f}");
    }

    #[test]
    fn folds_branch_on_constant_condition() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let one = fb.loadi(1);
        let two = fb.loadi(2);
        let c = fb.icmp(CmpKind::Lt, one, two); // always true
        let t = fb.block("t");
        let e = fb.block("e");
        fb.cbr(c, t, e);
        fb.switch_to(t);
        let x = fb.loadi(10);
        fb.ret(&[x]);
        fb.switch_to(e);
        let y = fb.loadi(20);
        fb.ret(&[y]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        sccp(&mut f);
        // Entry's terminator must now be an unconditional jump to `t`.
        let term = f.block(f.entry()).terminator().unwrap().clone();
        match term {
            Op::Jump { target } => assert_eq!(f.block(target).label, "t"),
            other => panic!("expected jump, got {other:?}"),
        }
    }

    #[test]
    fn constant_survives_diamond_when_arms_agree() {
        // x = 5 on both arms → φ is 5.
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr); // unknown condition
        let x = fb.vreg(RegClass::Gpr);
        let t = fb.block("t");
        let e = fb.block("e");
        let j = fb.block("j");
        fb.cbr(p, t, e);
        fb.switch_to(t);
        fb.emit(Op::LoadI { imm: 5, dst: x });
        fb.jump(j);
        fb.switch_to(e);
        fb.emit(Op::LoadI { imm: 5, dst: x });
        fb.jump(j);
        fb.switch_to(j);
        let y = fb.addi(x, 1);
        fb.ret(&[y]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        sccp(&mut f);
        let found = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i.op, Op::LoadI { imm: 6, .. }));
        assert!(found, "expected x+1 folded to 6:\n{f}");
    }

    #[test]
    fn disagreeing_arms_stay_varying() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let x = fb.vreg(RegClass::Gpr);
        let t = fb.block("t");
        let e = fb.block("e");
        let j = fb.block("j");
        fb.cbr(p, t, e);
        fb.switch_to(t);
        fb.emit(Op::LoadI { imm: 5, dst: x });
        fb.jump(j);
        fb.switch_to(e);
        fb.emit(Op::LoadI { imm: 9, dst: x });
        fb.jump(j);
        fb.switch_to(j);
        let y = fb.addi(x, 1);
        fb.ret(&[y]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        sccp(&mut f);
        // No folded 6 or 10 — the add must remain.
        let still_add = f.blocks.iter().flat_map(|b| &b.instrs).any(|i| {
            matches!(
                i.op,
                Op::IBinI {
                    kind: IBinKind::Add,
                    ..
                }
            )
        });
        assert!(still_add);
    }

    #[test]
    fn unreachable_arm_does_not_pollute_phi() {
        // cond is constant false → only the else arm's value reaches the φ.
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let zero = fb.loadi(0);
        let x = fb.vreg(RegClass::Gpr);
        let t = fb.block("t");
        let e = fb.block("e");
        let j = fb.block("j");
        fb.cbr(zero, t, e);
        fb.switch_to(t);
        fb.emit(Op::LoadI { imm: 111, dst: x });
        fb.jump(j);
        fb.switch_to(e);
        fb.emit(Op::LoadI { imm: 5, dst: x });
        fb.jump(j);
        fb.switch_to(j);
        let y = fb.addi(x, 1);
        fb.ret(&[y]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        sccp(&mut f);
        let found = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i.op, Op::LoadI { imm: 6, .. }));
        assert!(found, "φ should see only the executable arm:\n{f}");
    }

    #[test]
    fn division_by_zero_not_folded() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let z = fb.loadi(0);
        let q = fb.idiv(a, z);
        fb.ret(&[q]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        sccp(&mut f);
        let still_div = f.blocks.iter().flat_map(|b| &b.instrs).any(|i| {
            matches!(
                i.op,
                Op::IBin {
                    kind: IBinKind::Div,
                    ..
                }
            )
        });
        assert!(still_div, "div by zero must not be folded away");
    }
}

#[cfg(test)]
mod phi_prefix_tests {
    use super::*;
    use analysis::to_ssa;
    use iloc::builder::FuncBuilder;
    use iloc::RegClass;

    /// A block with two φs where the first folds to a constant: the
    /// surviving φ must still lead the block (regression test for the
    /// φ-prefix invariant).
    #[test]
    fn folding_one_of_two_phis_keeps_prefix() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr, RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr); // unknown
        let a = fb.vreg(RegClass::Gpr); // constant on both arms → folds
        let b = fb.vreg(RegClass::Gpr); // differs per arm → stays a φ
        let t = fb.block("t");
        let e = fb.block("e");
        let j = fb.block("j");
        fb.cbr(p, t, e);
        fb.switch_to(t);
        fb.emit(Op::LoadI { imm: 7, dst: a });
        fb.emit(Op::LoadI { imm: 1, dst: b });
        fb.jump(j);
        fb.switch_to(e);
        fb.emit(Op::LoadI { imm: 7, dst: a });
        fb.emit(Op::LoadI { imm: 2, dst: b });
        fb.jump(j);
        fb.switch_to(j);
        let s = fb.add(a, b);
        fb.ret(&[s, a]);
        let mut f = fb.finish();
        to_ssa(&mut f);
        sccp(&mut f);
        iloc::verify_function(&f).expect("phi prefix intact");
        // And destruction still works.
        analysis::from_ssa(&mut f);
        iloc::verify_function(&f).unwrap();
        for blk in &f.blocks {
            for i in &blk.instrs {
                assert!(!matches!(i.op, Op::Phi { .. }), "leftover phi");
            }
        }
    }
}
