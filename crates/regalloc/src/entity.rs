//! Allocation entities: the virtual registers of one class, numbered
//! densely so the interference graph can index them.
//!
//! The map from register to id is a `Vec<u32>` indexed by
//! [`Reg::index`], with `u32::MAX` for registers outside the index, so a
//! lookup is one bounds check and one load. Spill placement, the CCM
//! included, happens after allocation (the `ccm` crate's passes), so the
//! graph holds registers only.

use iloc::{Function, Op, Reg, RegClass};

/// Marks a register index that has no entity id.
const NONE: u32 = u32::MAX;

/// Dense numbering of the virtual registers of one register class in a
/// function: the node identities of its interference graph.
#[derive(Clone, Debug)]
pub struct EntityIndex {
    class: RegClass,
    /// Entity id by register index, `NONE` where absent.
    to_id: Vec<u32>,
    from_id: Vec<Reg>,
}

impl EntityIndex {
    /// Collects all virtual registers of `class` appearing in `f`.
    pub fn build(f: &Function, class: RegClass) -> EntityIndex {
        let mut idx = EntityIndex {
            class,
            to_id: Vec::new(),
            from_id: Vec::new(),
        };
        f.for_each_reg(|r| {
            if r.class() == class && r.is_virtual() {
                idx.intern(r);
            }
        });
        idx
    }

    fn intern(&mut self, r: Reg) {
        let ri = r.index() as usize;
        if ri >= self.to_id.len() {
            self.to_id.resize(ri + 1, NONE);
        }
        if self.to_id[ri] == NONE {
            self.to_id[ri] = self.from_id.len() as u32;
            self.from_id.push(r);
        }
    }

    /// The class this index covers.
    pub fn class(&self) -> RegClass {
        self.class
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.from_id.len()
    }

    /// Whether there are no entities.
    pub fn is_empty(&self) -> bool {
        self.from_id.is_empty()
    }

    /// Dense id of `r`, if present.
    #[inline]
    pub fn get(&self, r: Reg) -> Option<usize> {
        if r.class() != self.class {
            return None;
        }
        match self.to_id.get(r.index() as usize) {
            Some(&id) if id != NONE => Some(id as usize),
            _ => None,
        }
    }

    /// Dense id of `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` was not collected.
    pub fn id(&self, r: Reg) -> usize {
        self.get(r)
            .unwrap_or_else(|| panic!("register {r:?} not in index"))
    }

    /// The register with dense id `id`.
    pub fn reg(&self, id: usize) -> Reg {
        self.from_id[id]
    }

    /// Iterates `(id, register)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Reg)> + '_ {
        self.from_id.iter().copied().enumerate()
    }

    /// Replaces the contents of `uses` and `defs` with the entity ids
    /// `op` uses and defines, so a scan can reuse two buffers across
    /// instructions.
    pub fn uses_defs(&self, op: &Op, uses: &mut Vec<usize>, defs: &mut Vec<usize>) {
        uses.clear();
        defs.clear();
        op.visit_uses(|r| uses.extend(self.get(r)));
        op.visit_defs(|r| defs.extend(self.get(r)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;

    #[test]
    fn collects_virtual_registers_per_class() {
        let mut fb = FuncBuilder::new("f");
        let a = fb.loadi(1);
        let x = fb.loadf(2.0);
        fb.ret(&[]);
        let f = fb.finish();

        let gi = EntityIndex::build(&f, RegClass::Gpr);
        assert_eq!(gi.len(), 1);
        assert_eq!(gi.reg(gi.id(a)), a);
        // Both classes number from the same base, so `x` shares `a`'s
        // index, yet it belongs to the FPR index.
        assert_eq!(a.index(), x.index());
        assert!(gi.get(x).is_none());
        assert!(gi.get(Reg::new(RegClass::Gpr, a.index() + 100)).is_none());

        let fi = EntityIndex::build(&f, RegClass::Fpr);
        assert_eq!(fi.len(), 1);
        assert!(fi.get(x).is_some());
    }

    #[test]
    fn physical_registers_excluded() {
        let mut fb = FuncBuilder::new("f");
        let v = fb.loadai(iloc::Reg::RARP, 0);
        fb.ret(&[v]);
        let mut f = fb.finish();
        f.ret_classes = vec![RegClass::Gpr];
        let gi = EntityIndex::build(&f, RegClass::Gpr);
        assert_eq!(gi.len(), 1);
        assert!(gi.get(iloc::Reg::RARP).is_none());
    }
}
