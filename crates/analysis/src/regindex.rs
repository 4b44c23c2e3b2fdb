//! Dense numbering of the registers appearing in a function.
//!
//! The register → id direction is a [`RegMap`] slot per register index,
//! so numbering a function and looking a register up hash nothing.

use iloc::{Function, Reg};

use crate::regmap::RegMap;

/// `to_id` slot of a register the function does not mention.
const NONE: u32 = u32::MAX;

/// Maps every register mentioned in a function to a dense index
/// `0..len()`, so register sets can be [`BitSet`](crate::BitSet)s.
#[derive(Clone, Debug)]
pub struct RegIndex {
    to_id: RegMap<u32>,
    from_id: Vec<Reg>,
}

impl RegIndex {
    /// Builds the numbering from every register in `f` (params, uses,
    /// defs), in first-appearance order.
    pub fn build(f: &Function) -> RegIndex {
        let mut to_id = RegMap::for_function(f, NONE);
        let mut from_id = Vec::new();
        f.for_each_reg(|r| {
            if to_id[r] == NONE {
                to_id[r] = from_id.len() as u32;
                from_id.push(r);
            }
        });
        RegIndex { to_id, from_id }
    }

    /// Number of distinct registers.
    pub fn len(&self) -> usize {
        self.from_id.len()
    }

    /// Whether the function mentions no registers at all.
    pub fn is_empty(&self) -> bool {
        self.from_id.is_empty()
    }

    /// The dense id of `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not appear in the function the index was built
    /// from.
    pub fn id(&self, r: Reg) -> usize {
        self.get(r)
            .unwrap_or_else(|| panic!("register {r} not in index"))
    }

    /// The dense id of `r`, or `None` if unknown.
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
