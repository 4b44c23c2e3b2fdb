//! Must-be-defined registers: a [`must`] problem.
//!
//! A register is *definitely defined* at a point if every path from the
//! function entry to that point writes it first. The post-allocation
//! checker uses this to prove that allocated code never reads a physical
//! register before giving it a value: it solves the block-level problem
//! with [`DefinedRegs::solve`], then replays each block from its `in_`
//! fact with [`DefinedRegs::apply`].
//!
//! Transfer semantics: parameters and the activation-record pointer are
//! defined on entry; an ordinary definition adds its target; a call first
//! *kills* every caller-saved register (their contents are garbage after
//! the call) and then defines the call's return registers.

use iloc::{Function, Instr, Op, Reg};

use crate::bitset::{BitRows, BitSet};
use crate::dataflow::{must, Solution};
use crate::regindex::RegIndex;

/// The must-be-defined-registers problem of a function over its
/// [`RegIndex`] universe.
pub struct DefinedRegs<'a> {
    f: &'a Function,
    index: &'a RegIndex,
    call_kills: Vec<Reg>,
}

impl<'a> DefinedRegs<'a> {
    /// Builds the problem for `f`. `call_kills` lists the registers whose
    /// contents do not survive a call (the caller-saved set; empty under
    /// the paper's default convention).
    pub fn new(f: &'a Function, index: &'a RegIndex, call_kills: Vec<Reg>) -> DefinedRegs<'a> {
        DefinedRegs {
            f,
            index,
            call_kills,
        }
    }

    /// The registers defined at the top and bottom of every block.
    ///
    /// Block `b`'s `(gen, kill)` come from one pass over its effects, the
    /// ones [`Self::apply`] replays: `gen` holds the registers whose last
    /// effect in the block defines them, and `kill` those whose last
    /// effect is a call's kill.
    pub fn solve(&self) -> Solution {
        let (n, u) = (self.f.blocks.len(), self.index.len());
        let mut gen = BitRows::new(n, u);
        let mut kill = BitRows::new(n, u);
        let (mut defined, mut killed) = (BitSet::new(u), BitSet::new(u));
        for b in self.f.block_ids() {
            defined.clear();
            killed.clear();
            for instr in &self.f.block(b).instrs {
                self.effects(instr, |id, defines| {
                    let (add, drop) = if defines {
                        (&mut defined, &mut killed)
                    } else {
                        (&mut killed, &mut defined)
                    };
                    add.insert(id);
                    drop.remove(id);
                });
            }
            gen.row_mut(b.index()).copy_from_slice(defined.words());
            kill.row_mut(b.index()).copy_from_slice(killed.words());
        }
        let mut entry = BitSet::new(u);
        for &r in std::iter::once(&Reg::RARP).chain(&self.f.params) {
            if let Some(id) = self.index.get(r) {
                entry.insert(id);
            }
        }
        must(self.f, &gen, &kill, &entry)
    }

    /// Applies one instruction's effect to a defined set: call kills,
    /// then definitions. Registers outside the index are ignored.
    pub fn apply(&self, instr: &Instr, defined: &mut BitSet) {
        self.effects(instr, |id, defines| {
            if defines {
                defined.insert(id);
            } else {
                defined.remove(id);
            }
        });
    }

    /// Calls `effect(id, defines)` for each indexed register `instr`
    /// changes, in order: `false` for each register a call kills, then
    /// `true` for each definition.
    fn effects(&self, instr: &Instr, mut effect: impl FnMut(usize, bool)) {
        if matches!(instr.op, Op::Call { .. }) {
            for &r in &self.call_kills {
                if let Some(id) = self.index.get(r) {
                    effect(id, false);
                }
            }
        }
        instr.op.visit_defs(|r| {
            if let Some(id) = self.index.get(r) {
                effect(id, true);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::RegClass;

    #[test]
    fn params_and_rarp_defined_on_entry() {
        let mut fb = FuncBuilder::new("f");
        let p = fb.param(RegClass::Gpr);
        let x = fb.loadi(1);
        let y = fb.add(p, x);
        fb.ret(&[]);
        let f = fb.finish();
        let index = RegIndex::build(&f);
        let problem = DefinedRegs::new(&f, &index, Vec::new());
        let sol = problem.solve();
        let entry = f.entry().index();
        assert!(sol.in_.contains(entry, index.id(p)));
        assert!(!sol.in_.contains(entry, index.id(x)));
        let _ = y;
    }

    #[test]
    fn branch_join_keeps_only_common_defs() {
        // entry branches to two blocks; only one defines `x`. At the join,
        // `x` is not definitely defined.
        let mut fb = FuncBuilder::new("f");
        let c = fb.loadi(0);
        let x = fb.vreg(RegClass::Gpr);
        let then_b = fb.block("then");
        let else_b = fb.block("else");
        let join = fb.block("join");
        fb.cbr(c, then_b, else_b);
        fb.switch_to(then_b);
        fb.emit(Op::LoadI { imm: 1, dst: x });
        fb.jump(join);
        fb.switch_to(else_b);
        fb.jump(join);
        fb.switch_to(join);
        fb.ret(&[]);
        let f = fb.finish();
        let index = RegIndex::build(&f);
        let problem = DefinedRegs::new(&f, &index, Vec::new());
        let sol = problem.solve();
        assert!(!sol.in_.contains(join.index(), index.id(x)));
        assert!(sol.in_.contains(join.index(), index.id(c)));
    }

    #[test]
    fn calls_kill_caller_saved() {
        // entry: x, y defined; call g; jump next.
        let mut fb = FuncBuilder::new("f");
        let x = fb.loadi(1);
        let y = fb.loadi(2);
        fb.call("g", &[], &[]);
        let next = fb.block("next");
        fb.jump(next);
        fb.switch_to(next);
        fb.ret(&[]);
        let f = fb.finish();
        let index = RegIndex::build(&f);
        let problem = DefinedRegs::new(&f, &index, vec![x]);
        let sol = problem.solve();
        // Across the block boundary: the call killed x, y survives.
        assert!(!sol.in_.contains(next.index(), index.id(x)));
        assert!(sol.in_.contains(next.index(), index.id(y)));
        // Within the block, `apply` replays the same effect.
        let mut defined = BitSet::new(index.len());
        defined.copy_from_row(sol.in_.row(f.entry().index()));
        let mut after_call = None;
        for instr in &f.block(f.entry()).instrs {
            problem.apply(instr, &mut defined);
            if matches!(instr.op, Op::Call { .. }) {
                after_call = Some(defined.contains(index.id(x)));
            }
        }
        assert_eq!(after_call, Some(false));
    }

    #[test]
    fn each_block_replays_from_its_in_row_to_its_out_row() {
        // A loop whose body calls `g`, kills a value the loop defined
        // before the call and redefines one after it, so every block's
        // gen/kill mixes definitions and kills.
        let mut fb = FuncBuilder::new("f");
        let a = fb.loadi(1);
        let b = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 2, dst: b });
        fb.counted_loop(0, 4, 1, |fb, _| {
            let t = fb.add(a, b);
            fb.call("g", &[], &[]);
            fb.emit(Op::I2I { src: t, dst: b });
        });
        fb.ret(&[]);
        let f = fb.finish();
        let index = RegIndex::build(&f);
        let problem = DefinedRegs::new(&f, &index, vec![a, b]);
        let sol = problem.solve();
        let mut defined = BitSet::new(index.len());
        for blk in f.reverse_postorder() {
            defined.copy_from_row(sol.in_.row(blk.index()));
            for instr in &f.block(blk).instrs {
                problem.apply(instr, &mut defined);
            }
            assert_eq!(defined.words(), sol.out.row(blk.index()), "{blk}");
        }
    }
}
