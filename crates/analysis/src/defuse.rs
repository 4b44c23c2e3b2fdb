//! Def-use chains over a function body.
//!
//! Both directions are compressed sparse rows: one flat array of sites
//! per direction, ordered by register and, within a register, by block,
//! instruction and operand position, with a [`RegMap`] of ranges into
//! it. Building them takes two walks of the body (count, then fill) and
//! no per-register allocation.

use iloc::{BlockId, Function, Reg};

use crate::regmap::RegMap;

/// A location in a function body: block plus instruction index.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstrRef {
    /// The containing block.
    pub block: BlockId,
    /// Index within the block's instruction list.
    pub index: usize,
}

/// One direction (defs or uses) of the chains.
#[derive(Clone, Debug)]
struct Sites {
    /// `range[r]` — the half-open span of `r`'s sites in `at`.
    range: RegMap<(u32, u32)>,
    at: Vec<InstrRef>,
}

impl Sites {
    fn of(&self, r: Reg) -> &[InstrRef] {
        self.range
            .get(r)
            .map_or(&[], |&(lo, hi)| &self.at[lo as usize..hi as usize])
    }
}

/// Replaces each `(_, count)` by the empty range at the register's start
/// and returns the total count.
fn start_ranges(counts: &mut RegMap<(u32, u32)>) -> usize {
    let mut next = 0;
    for slot in counts.values_mut() {
        let n = slot.1;
        *slot = (next, next);
        next += n;
    }
    next as usize
}

/// Definition and use sites of every register in a function.
#[derive(Clone, Debug)]
pub struct DefUse {
    defs: Sites,
    uses: Sites,
}

impl DefUse {
    /// Builds the chains for `f`.
    pub fn build(f: &Function) -> DefUse {
        // Count each register's sites into the upper bound of its range.
        let mut defs = RegMap::for_function(f, (0u32, 0u32));
        let mut uses = defs.clone();
        for b in &f.blocks {
            for instr in &b.instrs {
                instr.op.visit_defs(|r| defs[r].1 += 1);
                instr.op.visit_uses(|r| uses[r].1 += 1);
            }
        }
        // Turn counts into empty ranges at each register's start, then
        // fill the ranges in body order.
        let nowhere = InstrRef {
            block: BlockId(0),
            index: 0,
        };
        let mut def_at = vec![nowhere; start_ranges(&mut defs)];
        let mut use_at = vec![nowhere; start_ranges(&mut uses)];
        for b in f.block_ids() {
            for (i, instr) in f.block(b).instrs.iter().enumerate() {
                let site = InstrRef { block: b, index: i };
                instr.op.visit_defs(|r| {
                    let end = &mut defs[r].1;
                    def_at[*end as usize] = site;
                    *end += 1;
                });
                instr.op.visit_uses(|r| {
                    let end = &mut uses[r].1;
                    use_at[*end as usize] = site;
                    *end += 1;
                });
            }
        }
        DefUse {
            defs: Sites {
                range: defs,
                at: def_at,
            },
            uses: Sites {
                range: uses,
                at: use_at,
            },
        }
    }

    /// Definition sites of `r` (empty slice if none).
    pub fn defs(&self, r: Reg) -> &[InstrRef] {
        self.defs.of(r)
    }

    /// Use sites of `r` (empty slice if none).
    pub fn uses(&self, r: Reg) -> &[InstrRef] {
        self.uses.of(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::RegClass;

    #[test]
    fn chains_record_sites() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let b = fb.add(a, a);
        fb.ret(&[b]);
        let f = fb.finish();
        let du = DefUse::build(&f);
        assert_eq!(du.defs(a).len(), 1);
        assert_eq!(du.uses(a).len(), 2); // both operands of the add
        assert_eq!(du.uses(b).len(), 1); // the ret
        assert_eq!(du.defs(b)[0].index, 1);
    }

    #[test]
    fn sites_follow_body_order_across_classes_and_blocks() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let a = fb.loadi(1);
        let x = fb.i2f(a);
        let next = fb.block("next");
        fb.jump(next);
        fb.switch_to(next);
        let y = fb.fadd(x, x);
        let c = fb.addi(a, 2);
        fb.storeai(c, Reg::RARP, 0);
        fb.ret(&[y]);
        let f = fb.finish();
        let du = DefUse::build(&f);
        let at = |b: u32, index: usize| InstrRef {
            block: BlockId(b),
            index,
        };
        assert_eq!(du.uses(a), &[at(0, 1), at(1, 1)]);
        assert_eq!(du.uses(x), &[at(1, 0), at(1, 0)]);
        assert_eq!(du.defs(y), &[at(1, 0)]);
        assert_eq!(du.uses(Reg::RARP), &[at(1, 2)]);
        assert!(du.defs(Reg::RARP).is_empty());
        // Past the scanned registers: no sites, no panic.
        assert!(du.uses(Reg::fpr(9999)).is_empty());
    }
}
