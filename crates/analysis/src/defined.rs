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

use iloc::{BlockId, Function, Instr, Op, Reg};

use crate::bitset::BitSet;
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
    pub fn solve(&self) -> Solution {
        let blocks: Vec<_> = self.f.block_ids().map(|b| self.transfer(b)).collect();
        let mut entry = BitSet::new(self.index.len());
        for &r in std::iter::once(&Reg::RARP).chain(&self.f.params) {
            if let Some(id) = self.index.get(r) {
                entry.insert(id);
            }
        }
        must(self.f, &blocks, entry)
    }

    /// Applies one instruction's effect to a defined set: call kills,
    /// then definitions. Registers outside the index are ignored.
    pub fn apply(&self, instr: &Instr, defined: &mut BitSet) {
        if matches!(instr.op, Op::Call { .. }) {
            for &r in &self.call_kills {
                if let Some(id) = self.index.get(r) {
                    defined.remove(id);
                }
            }
        }
        instr.op.visit_defs(|r| {
            if let Some(id) = self.index.get(r) {
                defined.insert(id);
            }
        });
    }

    /// Block `b`'s `(gen, kill)`, from replaying it with [`Self::apply`]:
    /// `gen` is what it defines starting from nothing, and `kill` what a
    /// full set loses across it.
    fn transfer(&self, b: BlockId) -> (BitSet, BitSet) {
        let n = self.index.len();
        let mut gen = BitSet::new(n);
        let mut kept = BitSet::full(n);
        for instr in &self.f.block(b).instrs {
            self.apply(instr, &mut gen);
            self.apply(instr, &mut kept);
        }
        let mut kill = BitSet::full(n);
        kill.subtract(&kept);
        (gen, kill)
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
        let entry_in = &sol.in_[f.entry().index()];
        assert!(entry_in.contains(index.id(p)));
        assert!(!entry_in.contains(index.id(x)));
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
        assert!(!sol.in_[join.index()].contains(index.id(x)));
        assert!(sol.in_[join.index()].contains(index.id(c)));
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
        assert!(!sol.in_[next.index()].contains(index.id(x)));
        assert!(sol.in_[next.index()].contains(index.id(y)));
        // Within the block, `apply` replays the same effect.
        let mut defined = sol.in_[f.entry().index()].clone();
        let mut after_call = None;
        for instr in &f.block(f.entry()).instrs {
            problem.apply(instr, &mut defined);
            if matches!(instr.op, Op::Call { .. }) {
                after_call = Some(defined.contains(index.id(x)));
            }
        }
        assert_eq!(after_call, Some(false));
    }
}
