//! Chaitin-style spill-cost estimation.
//!
//! Costs live in a `Vec<f64>` indexed by dense node id, the same
//! numbering (a [`RegIndex`]) the interference graph and the coloring
//! use. The per-block reference weights depend only on the control-flow
//! graph, which spill code, rematerialization and coalescing never
//! change, so the allocator computes them once per function
//! ([`analysis::LoopInfo::block_weights`], the rule the CCM passes'
//! slot costs use too).

use std::collections::HashSet;

use analysis::RegIndex;
use iloc::{Function, Reg};

/// Spill costs per node: the estimated dynamic cost of spilling the
/// live range, `Σ 10^loopdepth` over its definitions and uses.
#[derive(Clone, Debug)]
pub struct SpillCosts {
    costs: Vec<f64>,
}

/// Cost value treated as unspillable (spill temporaries, tiny ranges).
pub const INFINITE: f64 = f64::INFINITY;

/// What the tiny-range rule needs of a node's references: how many
/// there are, and where its first definition and first use sit, as
/// `(block, instruction)`.
#[derive(Clone, Copy, Default)]
struct Refs {
    count: u32,
    def: Option<(usize, usize)>,
    use_: Option<(usize, usize)>,
}

impl SpillCosts {
    /// Computes costs for every register of `regs` in `f`, weighting a
    /// reference in block `b` by `weights[b]` (see
    /// [`analysis::LoopInfo::block_weights`]).
    ///
    /// `unspillable` registers (the short-lived temporaries created by
    /// earlier spill insertion) get infinite cost, as do "tiny" ranges
    /// whose def and sole use are adjacent — respilling those would
    /// generate as much traffic as it removes. Registers in `remat` (cheap
    /// to recompute) get half cost, biasing the allocator toward spilling
    /// them first, as in Briggs' allocator. A register with no reference
    /// costs 0.
    pub fn compute(
        f: &Function,
        weights: &[f64],
        regs: &RegIndex,
        unspillable: &HashSet<Reg>,
        remat: &HashSet<Reg>,
    ) -> SpillCosts {
        debug_assert_eq!(
            weights.len(),
            f.blocks.len(),
            "block weights are stale: the block count changed"
        );
        let n = regs.len();
        let mut costs = vec![0.0; n];
        let mut refs = vec![Refs::default(); n];

        for b in f.block_ids() {
            let (bi, w) = (b.index(), weights[b.index()]);
            for (i, instr) in f.block(b).instrs.iter().enumerate() {
                instr.op.visit_defs(|r| {
                    if let Some(id) = regs.get(r) {
                        costs[id] += w;
                        refs[id].count += 1;
                        refs[id].def.get_or_insert((bi, i));
                    }
                });
                instr.op.visit_uses(|r| {
                    if let Some(id) = regs.get(r) {
                        costs[id] += w;
                        refs[id].count += 1;
                        refs[id].use_.get_or_insert((bi, i));
                    }
                });
            }
        }

        for (id, r) in regs.iter() {
            let s = refs[id];
            if s.count == 0 {
                continue;
            }
            if unspillable.contains(&r) {
                costs[id] = INFINITE;
                continue;
            }
            if remat.contains(&r) {
                costs[id] *= 0.5;
                continue; // never "tiny": remat spilling is always cheap
            }
            // Tiny range: one def at (b, i), one use at (b, i+1).
            if let (2, Some((db, di)), Some((ub, ui))) = (s.count, s.def, s.use_) {
                if db == ub && ui == di + 1 {
                    costs[id] = INFINITE;
                }
            }
        }

        SpillCosts { costs }
    }

    /// Spill costs given directly, by node id.
    #[cfg(test)]
    pub(crate) fn from_costs(costs: Vec<f64>) -> SpillCosts {
        SpillCosts { costs }
    }

    /// The cost of spilling node `id`.
    #[inline]
    pub fn cost(&self, id: usize) -> f64 {
        self.costs[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::LoopInfo;
    use iloc::builder::FuncBuilder;
    use iloc::{Op, RegClass};

    /// `f`'s GPR costs and the index that numbers them.
    fn gpr_costs(f: &Function, unspillable: &HashSet<Reg>) -> (SpillCosts, RegIndex) {
        let idx = RegIndex::build_where(f, |r| r.class() == RegClass::Gpr && r.is_virtual());
        let weights = LoopInfo::block_weights(f);
        let costs = SpillCosts::compute(f, &weights, &idx, unspillable, &HashSet::new());
        (costs, idx)
    }

    #[test]
    fn loop_references_cost_ten_times_more() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let outside = fb.loadi(1); // def at depth 0
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 0, dst: acc });
        fb.counted_loop(0, 10, 1, |fb, _| {
            let t = fb.add(acc, outside); // use of `outside` at depth 1
            fb.emit(Op::I2I { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        let f = fb.finish();
        let (costs, idx) = gpr_costs(&f, &HashSet::new());
        // outside: def (w=1) + one use at depth 1 (w=10) = 11.
        assert_eq!(costs.cost(idx.id(outside)), 11.0);
    }

    #[test]
    fn unspillable_set_is_infinite() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let b = fb.addi(a, 1);
        let c = fb.add(b, b); // b used twice later → not tiny
        let d = fb.add(c, b);
        fb.ret(&[d]);
        let f = fb.finish();
        let mut unspillable = HashSet::new();
        unspillable.insert(b);
        let (costs, idx) = gpr_costs(&f, &unspillable);
        assert_eq!(costs.cost(idx.id(b)), INFINITE);
        // Without the unspillable mark, b's cost would be finite.
        let (plain, _) = gpr_costs(&f, &HashSet::new());
        assert!(plain.cost(idx.id(b)).is_finite());
    }

    #[test]
    fn tiny_range_is_infinite() {
        // a defined then immediately consumed by the next instruction and
        // never touched again — spilling it cannot help.
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let b = fb.addi(a, 1); // immediate, only use of a
        let c = fb.addi(b, 1);
        let d = fb.add(c, b); // b used again later → b is NOT tiny
        fb.ret(&[d]);
        let f = fb.finish();
        let (costs, idx) = gpr_costs(&f, &HashSet::new());
        assert_eq!(costs.cost(idx.id(a)), INFINITE);
        assert!(costs.cost(idx.id(b)).is_finite());
    }
}
