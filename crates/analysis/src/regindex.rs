//! Dense numbering of the registers appearing in a function.
//!
//! The register → id direction is a [`RegMap`] slot per register index,
//! so numbering a function and looking a register up hash nothing. A
//! numbering may cover every register ([`RegIndex::build`]) or only those
//! a filter keeps ([`RegIndex::build_where`]: the register allocator
//! numbers one class's virtual registers, its interference graph's
//! nodes). [`RegIndex::operands`] reports an instruction's registers in
//! that numbering to [`Liveness`](crate::Liveness).

use iloc::{Function, Instr, Reg};

use crate::regmap::RegMap;

/// `to_id` slot of a register the numbering does not cover.
const NONE: u32 = u32::MAX;

/// Maps every register mentioned in a function (or every one a filter
/// keeps) to a dense index `0..len()`, so register sets can be
/// [`BitSet`](crate::BitSet)s.
#[derive(Clone, Debug)]
pub struct RegIndex {
    to_id: RegMap<u32>,
    from_id: Vec<Reg>,
}

impl RegIndex {
    /// Builds the numbering from every register in `f` (params, uses,
    /// defs), in first-appearance order.
    pub fn build(f: &Function) -> RegIndex {
        RegIndex::build_where(f, |_| true)
    }

    /// Builds the numbering from the registers of `f` that `keep`
    /// accepts, in first-appearance order: the ids of a filtered
    /// numbering keep the relative order they have in [`Self::build`]'s.
    pub fn build_where(f: &Function, keep: impl Fn(Reg) -> bool) -> RegIndex {
        let mut to_id = RegMap::empty();
        let mut from_id = Vec::new();
        f.for_each_reg(|r| {
            if keep(r) {
                let id = to_id.grow(r, NONE);
                if *id == NONE {
                    *id = from_id.len() as u32;
                    from_id.push(r);
                }
            }
        });
        RegIndex { to_id, from_id }
    }

    /// The operand visitor of this numbering for [`Liveness`]: pushes the
    /// ids of the registers `instr` uses onto `uses` and of those it
    /// defines onto `defs`, skipping registers outside the numbering.
    ///
    /// [`Liveness`]: crate::Liveness
    pub fn operands(&self) -> impl Fn(&Instr, &mut Vec<usize>, &mut Vec<usize>) + '_ {
        move |instr, uses, defs| {
            instr.op.visit_uses(|r| uses.extend(self.get(r)));
            instr.op.visit_defs(|r| defs.extend(self.get(r)));
        }
    }

    /// Number of distinct registers.
    pub fn len(&self) -> usize {
        self.from_id.len()
    }

    /// Whether the numbering covers no register.
    pub fn is_empty(&self) -> bool {
        self.from_id.is_empty()
    }

    /// The dense id of `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside the numbering.
    pub fn id(&self, r: Reg) -> usize {
        self.get(r)
            .unwrap_or_else(|| panic!("register {r} not in index"))
    }

    /// The dense id of `r`, or `None` if it is outside the numbering.
    #[inline]
    pub fn get(&self, r: Reg) -> Option<usize> {
        self.to_id
            .get(r)
            .filter(|&&id| id != NONE)
            .map(|&id| id as usize)
    }

    /// The register with dense id `id`.
    pub fn reg(&self, id: usize) -> Reg {
        self.from_id[id]
    }

    /// Iterates over `(id, reg)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Reg)> + '_ {
        self.from_id.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::RegClass;

    #[test]
    fn numbering_is_dense_and_invertible() {
        let mut fb = FuncBuilder::new("f");
        let p = fb.param(RegClass::Gpr);
        let a = fb.loadi(1);
        let b = fb.add(p, a);
        fb.ret(&[]);
        let f = fb.finish();
        let idx = RegIndex::build(&f);
        assert_eq!(idx.len(), 3);
        for r in [p, a, b] {
            assert_eq!(idx.reg(idx.id(r)), r);
        }
        assert_eq!(idx.get(Reg::gpr(999)), None);
    }

    #[test]
    fn a_filtered_numbering_keeps_first_appearance_order() {
        let mut fb = FuncBuilder::new("f");
        let a = fb.loadi(1);
        let x = fb.loadf(2.0);
        let b = fb.add(a, Reg::RARP);
        fb.ret(&[]);
        let f = fb.finish();
        let gpr = RegIndex::build_where(&f, |r| r.class() == RegClass::Gpr && r.is_virtual());
        assert_eq!(gpr.iter().collect::<Vec<_>>(), vec![(0, a), (1, b)]);
        // Both classes number from the same base, so `x` shares `a`'s
        // index, yet the GPR numbering does not cover it.
        assert_eq!(a.index(), x.index());
        assert_eq!(gpr.get(x), None);
        assert_eq!(gpr.get(Reg::RARP), None);
        assert_eq!(gpr.get(Reg::gpr(b.index() + 100)), None);
    }

    #[test]
    fn both_classes_coexist() {
        let mut fb = FuncBuilder::new("f");
        let x = fb.loadi(1);
        let y = fb.loadf(2.0);
        fb.ret(&[]);
        let f = fb.finish();
        let idx = RegIndex::build(&f);
        assert_eq!(idx.len(), 2);
        assert_ne!(idx.id(x), idx.id(y));
    }
}
