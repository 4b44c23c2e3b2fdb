//! Must-be-defined registers: a forward/intersection instance of the
//! dataflow framework.
//!
//! A register is *definitely defined* at a point if every path from the
//! function entry to that point writes it first. The post-allocation
//! checker uses this to prove that allocated code never reads a physical
//! register before giving it a value; the analysis is phrased over the
//! generic [`DataflowProblem`] trait so it composes with the same solver
//! as liveness.
//!
//! Transfer semantics: parameters and the activation-record pointer are
//! defined on entry; an ordinary definition adds its target; a call first
//! *kills* every caller-saved register (their contents are garbage after
//! the call) and then defines the call's return registers.

use iloc::{Function, Instr, Op, Reg};

use crate::bitset::BitSet;
use crate::dataflow::{DataflowProblem, Direction, Meet};
use crate::regindex::RegIndex;

/// The must-be-defined-registers problem over a function's [`RegIndex`]
/// universe.
pub struct DefinedRegs<'a> {
    index: &'a RegIndex,
    params: Vec<Reg>,
    call_kills: Vec<Reg>,
}

impl<'a> DefinedRegs<'a> {
    /// Builds the problem for `f`. `call_kills` lists the registers whose
    /// contents do not survive a call (the caller-saved set; empty under
    /// the paper's default convention).
    pub fn new(f: &Function, index: &'a RegIndex, call_kills: Vec<Reg>) -> DefinedRegs<'a> {
        DefinedRegs {
            index,
            params: f.params.clone(),
            call_kills,
        }
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
}

impl DataflowProblem for DefinedRegs<'_> {
    fn universe(&self) -> usize {
        self.index.len()
    }

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn meet(&self) -> Meet {
        Meet::Intersection
    }

    fn gen_set(&self, f: &Function, b: iloc::BlockId) -> BitSet {
        // Simulate the block: `gen` holds registers defined since entry,
        // `kill` those killed (by calls) and not since redefined. The
        // block's transfer is then out = gen ∪ (in − kill).
        let (gen, _) = self.block_transfer(f, b);
        gen
    }

    fn kill_set(&self, f: &Function, b: iloc::BlockId) -> BitSet {
        let (_, kill) = self.block_transfer(f, b);
        kill
    }

    fn boundary(&self) -> BitSet {
        let mut set = BitSet::new(self.index.len());
        if let Some(id) = self.index.get(Reg::RARP) {
            set.insert(id);
        }
        for &p in &self.params {
            if let Some(id) = self.index.get(p) {
                set.insert(id);
            }
        }
        set
    }
}

impl DefinedRegs<'_> {
    fn block_transfer(&self, f: &Function, b: iloc::BlockId) -> (BitSet, BitSet) {
        let n = self.index.len();
        let mut gen = BitSet::new(n);
        let mut kill = BitSet::new(n);
        for instr in &f.block(b).instrs {
            if matches!(instr.op, Op::Call { .. }) {
                for &r in &self.call_kills {
                    if let Some(id) = self.index.get(r) {
                        gen.remove(id);
                        kill.insert(id);
                    }
                }
            }
            instr.op.visit_defs(|r| {
                if let Some(id) = self.index.get(r) {
                    kill.remove(id);
                    gen.insert(id);
                }
            });
        }
        (gen, kill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::solve;
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
        let sol = solve(&f, &problem);
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
        let sol = solve(&f, &problem);
        assert!(!sol.in_[join.index()].contains(index.id(x)));
        assert!(sol.in_[join.index()].contains(index.id(c)));
    }

    #[test]
    fn calls_kill_caller_saved() {
        let mut fb = FuncBuilder::new("f");
        let x = fb.loadi(1);
        fb.call("g", &[], &[]);
        fb.ret(&[]);
        let mut f = fb.finish();
        // Split so the call's effect crosses a block boundary: append a
        // block after the call.
        let index = RegIndex::build(&f);
        let problem = DefinedRegs::new(&f, &index, vec![x]);
        let sol = solve(&f, &problem);
        // Within-block semantics: replay with `apply`.
        let mut defined = sol.in_[f.entry().index()].clone();
        let e = f.entry();
        let instrs = std::mem::take(&mut f.block_mut(e).instrs);
        let mut after_call = None;
        for instr in &instrs {
            problem.apply(instr, &mut defined);
            if matches!(instr.op, Op::Call { .. }) {
                after_call = Some(defined.contains(index.id(x)));
            }
        }
        assert_eq!(after_call, Some(false));
    }
}
