//! Register liveness analysis: a [`live`] problem over a function's
//! [`RegIndex`] universe.

use iloc::{BlockId, Function, Reg};

use crate::bitset::{BitRows, BitSet};
use crate::dataflow::live;
use crate::regindex::RegIndex;

/// Per-block live-in / live-out register sets, with helpers to walk a
/// block backwards maintaining the live set per instruction — the pattern
/// interference-graph construction uses.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Dense register numbering the bit sets are expressed in.
    pub regs: RegIndex,
    /// `live_in.row(b)` — registers live at the top of block `b`.
    pub live_in: BitRows,
    /// `live_out.row(b)` — registers live at the bottom of block `b`.
    pub live_out: BitRows,
}

impl Liveness {
    /// Computes liveness for `f`: a [`live`] problem whose `gen` is a
    /// block's upward-exposed uses and whose `kill` is its definitions.
    ///
    /// φ-nodes are treated as ordinary instructions (uses at the φ); run
    /// liveness on non-SSA code, or use the results with that caveat.
    pub fn compute(f: &Function) -> Liveness {
        let regs = RegIndex::build(f);
        let mut gen = BitRows::new(f.blocks.len(), regs.len());
        let mut kill = gen.clone();
        for b in f.block_ids() {
            let bi = b.index();
            for instr in &f.block(b).instrs {
                instr.op.visit_uses(|r| {
                    let id = regs.id(r);
                    if !kill.contains(bi, id) {
                        gen.insert(bi, id);
                    }
                });
                instr.op.visit_defs(|r| kill.insert(bi, regs.id(r)));
            }
        }
        let sol = live(f, &gen, &kill);
        Liveness {
            regs,
            live_in: sol.in_,
            live_out: sol.out,
        }
    }

    /// Whether `r` is live at the top of `b`.
    pub fn is_live_in(&self, b: BlockId, r: Reg) -> bool {
        self.regs
            .get(r)
            .is_some_and(|id| self.live_in.contains(b.index(), id))
    }

    /// Whether `r` is live at the bottom of `b`.
    pub fn is_live_out(&self, b: BlockId, r: Reg) -> bool {
        self.regs
            .get(r)
            .is_some_and(|id| self.live_out.contains(b.index(), id))
    }

    /// Walks block `b` backwards, calling `visit(instr_index, live)` with
    /// the live set *after* each instruction (i.e., live-out of that
    /// instruction), then updating the set across it. `live` is the
    /// caller's set over [`Self::regs`]; the walk first overwrites it with
    /// `b`'s live-out row, so one set serves every block.
    pub fn for_each_instr_reverse(
        &self,
        f: &Function,
        b: BlockId,
        live: &mut BitSet,
        mut visit: impl FnMut(usize, &BitSet),
    ) {
        live.copy_from_row(self.live_out.row(b.index()));
        let instrs = &f.block(b).instrs;
        for i in (0..instrs.len()).rev() {
            visit(i, live);
            instrs[i].op.visit_defs(|r| {
                live.remove(self.regs.id(r));
            });
            instrs[i].op.visit_uses(|r| {
                live.insert(self.regs.id(r));
            });
        }
    }

    /// The maximum number of simultaneously live registers of the given
    /// class anywhere in the function (register pressure).
    pub fn max_pressure(&self, f: &Function, class: iloc::RegClass) -> usize {
        let mut max = 0;
        let mut live = BitSet::new(self.regs.len());
        for b in f.block_ids() {
            self.for_each_instr_reverse(f, b, &mut live, |_, live| {
                let count = live
                    .iter()
                    .filter(|&id| self.regs.reg(id).class() == class)
                    .count();
                max = max.max(count);
            });
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::RegClass;

    #[test]
    fn params_live_through_straightline_use() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let a = fb.loadi(1);
        let s = fb.add(p, a);
        fb.ret(&[s]);
        let f = fb.finish();
        let lv = Liveness::compute(&f);
        // Single block: p is upward-exposed → live-in.
        assert!(lv.is_live_in(f.entry(), p));
        // s is defined then used in the same block; never live-in.
        assert!(!lv.is_live_in(f.entry(), s));
    }

    #[test]
    fn loop_carried_value_live_around_backedge() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(iloc::Op::LoadI { imm: 0, dst: acc });
        fb.counted_loop(0, 10, 1, |fb, iv| {
            let t = fb.add(acc, iv);
            fb.emit(iloc::Op::I2I { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        let f = fb.finish();
        let lv = Liveness::compute(&f);
        let header = iloc::BlockId(1);
        let body = iloc::BlockId(2);
        assert!(lv.is_live_in(header, acc));
        assert!(lv.is_live_in(body, acc));
        assert!(lv.is_live_out(body, acc));
    }

    #[test]
    fn dead_def_not_live() {
        let mut fb = FuncBuilder::new("f");
        let d = fb.loadi(9); // never used
        fb.ret(&[]);
        let f = fb.finish();
        let lv = Liveness::compute(&f);
        assert!(!lv.is_live_in(f.entry(), d));
        assert!(!lv.is_live_out(f.entry(), d));
    }

    #[test]
    fn per_instruction_walk_matches_block_sets() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let b = fb.loadi(2);
        let c = fb.add(a, b);
        fb.ret(&[c]);
        let f = fb.finish();
        let lv = Liveness::compute(&f);
        let mut snapshots = Vec::new();
        let mut live = BitSet::new(lv.regs.len());
        lv.for_each_instr_reverse(&f, f.entry(), &mut live, |i, live| {
            snapshots.push((i, live.count()));
        });
        // Visit order is reverse; after `ret` nothing is live; after `add`
        // only c; after `loadI 2` a and b.
        assert_eq!(snapshots[0], (3, 0));
        assert_eq!(snapshots[1], (2, 1));
        assert_eq!(snapshots[2], (1, 2));
    }

    #[test]
    fn pressure_counts_per_class() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let a = fb.loadf(1.0);
        let b = fb.loadf(2.0);
        let c = fb.loadf(3.0);
        let ab = fb.fadd(a, b);
        let abc = fb.fadd(ab, c);
        fb.ret(&[abc]);
        let f = fb.finish();
        let lv = Liveness::compute(&f);
        assert_eq!(lv.max_pressure(&f, RegClass::Fpr), 3);
        assert_eq!(lv.max_pressure(&f, RegClass::Gpr), 0);
    }
}
