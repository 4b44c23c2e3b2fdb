//! Liveness: one backward rule for registers and spill locations alike.
//!
//! A location is live at a point *p* if some path from *p* reaches a use
//! of it without passing a definition (§3.1 of the paper states this for
//! spill locations; it is the classic rule for registers). [`Liveness`]
//! is the one implementation: given a dense universe `0..n` and an
//! operand visitor that reports the ids an instruction uses and defines,
//! [`Liveness::solve`] writes each block's upward-exposed uses (gen) and
//! definitions (kill) into [`BitRows`] and solves them with [`live`], and
//! [`Liveness::walk`] walks every block backwards from its live-out row,
//! showing the caller the set live after each instruction.
//!
//! Three numberings use it:
//!
//! * every register of a function, through [`RegIndex::build`] and
//!   [`RegIndex::operands`] ([`Liveness::compute`], and per class
//!   [`Liveness::max_pressure`]);
//! * one class's virtual registers, through [`RegIndex::build_where`]:
//!   the register allocator's interference-graph build;
//! * spill slots, whose store tag defines a slot and whose restore tag
//!   uses it: the `ccm` crate's slot analysis.

use iloc::{BlockId, Function, Instr, RegClass};

use crate::bitset::{BitRows, BitSet};
use crate::dataflow::live;
use crate::regindex::RegIndex;

/// Per-block live-in / live-out sets over one dense universe.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// `live_in.row(b)` — ids live at the top of block `b`.
    pub live_in: BitRows,
    /// `live_out.row(b)` — ids live at the bottom of block `b`, for
    /// unreachable blocks too.
    pub live_out: BitRows,
}

impl Liveness {
    /// Solves liveness over the ids `0..universe` of `f`'s locations.
    /// `operands(instr, uses, defs)` pushes the ids `instr` uses onto
    /// `uses` and those it defines onto `defs` (both arrive empty); an
    /// instruction's uses are read before its definitions.
    ///
    /// φ-nodes are treated as ordinary instructions (uses at the φ); run
    /// liveness on non-SSA code, or use the results with that caveat.
    pub fn solve(
        f: &Function,
        universe: usize,
        operands: impl Fn(&Instr, &mut Vec<usize>, &mut Vec<usize>),
    ) -> Liveness {
        let mut gen = BitRows::new(f.blocks.len(), universe);
        let mut kill = gen.clone();
        let (mut uses, mut defs) = (Vec::new(), Vec::new());
        for b in f.block_ids() {
            let bi = b.index();
            for instr in &f.block(b).instrs {
                uses.clear();
                defs.clear();
                operands(instr, &mut uses, &mut defs);
                for &u in &uses {
                    if !kill.contains(bi, u) {
                        gen.insert(bi, u);
                    }
                }
                for &d in &defs {
                    kill.insert(bi, d);
                }
            }
        }
        let sol = live(f, &gen, &kill);
        Liveness {
            live_in: sol.in_,
            live_out: sol.out,
        }
    }

    /// Register liveness over `regs`, a numbering of `f`'s registers.
    pub fn compute(f: &Function, regs: &RegIndex) -> Liveness {
        Liveness::solve(f, regs.len(), regs.operands())
    }

    /// Walks every block of `f` in id order, each backwards from its
    /// live-out row: at instruction `i` of block `b`, calls
    /// `visit(b, i, defs, live)` with the ids the instruction defines and
    /// the set live *after* it, then moves the set above the instruction
    /// (removes `defs`, adds its uses). `operands` must be the visitor
    /// the liveness was solved with.
    pub fn walk(
        &self,
        f: &Function,
        operands: impl Fn(&Instr, &mut Vec<usize>, &mut Vec<usize>),
        mut visit: impl FnMut(BlockId, usize, &[usize], &BitSet),
    ) {
        let mut live = BitSet::new(self.live_out.universe());
        let (mut uses, mut defs) = (Vec::new(), Vec::new());
        for b in f.block_ids() {
            live.copy_from_row(self.live_out.row(b.index()));
            for (i, instr) in f.block(b).instrs.iter().enumerate().rev() {
                uses.clear();
                defs.clear();
                operands(instr, &mut uses, &mut defs);
                visit(b, i, &defs, &live);
                for &d in &defs {
                    live.remove(d);
                }
                for &u in &uses {
                    live.insert(u);
                }
            }
        }
    }

    /// The maximum number of simultaneously live registers of `class`
    /// anywhere in `f` (register pressure): the largest set live after
    /// an instruction, over the class's registers.
    pub fn max_pressure(f: &Function, class: RegClass) -> usize {
        let regs = RegIndex::build_where(f, |r| r.class() == class);
        let mut max = 0;
        Liveness::compute(f, &regs).walk(f, regs.operands(), |_, _, _, live| {
            max = max.max(live.count());
        });
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::Reg;

    /// Whether `r` is in row `b` of `rows`, a liveness over
    /// [`RegIndex::build`] of `f`.
    fn has(f: &Function, rows: &BitRows, b: BlockId, r: Reg) -> bool {
        rows.contains(b.index(), RegIndex::build(f).id(r))
    }

    fn reg_liveness(f: &Function) -> Liveness {
        Liveness::compute(f, &RegIndex::build(f))
    }

    #[test]
    fn params_live_through_straightline_use() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let a = fb.loadi(1);
        let s = fb.add(p, a);
        fb.ret(&[s]);
        let f = fb.finish();
        let lv = reg_liveness(&f);
        // Single block: p is upward-exposed → live-in.
        assert!(has(&f, &lv.live_in, f.entry(), p));
        // s is defined then used in the same block; never live-in.
        assert!(!has(&f, &lv.live_in, f.entry(), s));
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
        let lv = reg_liveness(&f);
        let header = iloc::BlockId(1);
        let body = iloc::BlockId(2);
        assert!(has(&f, &lv.live_in, header, acc));
        assert!(has(&f, &lv.live_in, body, acc));
        assert!(has(&f, &lv.live_out, body, acc));
    }

    #[test]
    fn dead_def_not_live() {
        let mut fb = FuncBuilder::new("f");
        let d = fb.loadi(9); // never used
        fb.ret(&[]);
        let f = fb.finish();
        let lv = reg_liveness(&f);
        assert!(!has(&f, &lv.live_in, f.entry(), d));
        assert!(!has(&f, &lv.live_out, f.entry(), d));
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
        let regs = RegIndex::build(&f);
        let mut snapshots = Vec::new();
        Liveness::compute(&f, &regs).walk(&f, regs.operands(), |b, i, defs, live| {
            snapshots.push((b, i, defs.to_vec(), live.count()));
        });
        // Visit order is reverse; after `ret` nothing is live; after `add`
        // only c (which it defines); after `loadI 2` a and b.
        let e = f.entry();
        assert_eq!(snapshots[0], (e, 3, vec![], 0));
        assert_eq!(snapshots[1], (e, 2, vec![regs.id(c)], 1));
        assert_eq!(snapshots[2], (e, 1, vec![regs.id(b)], 2));
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
        assert_eq!(Liveness::max_pressure(&f, RegClass::Fpr), 3);
        assert_eq!(Liveness::max_pressure(&f, RegClass::Gpr), 0);
    }
}
