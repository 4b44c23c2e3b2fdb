//! Allocation entities: the virtual registers of one class, numbered
//! densely so the interference graph can index them.
//!
//! Spill placement, the CCM included, happens after allocation (the
//! `ccm` crate's passes), so the graph holds registers only.

use std::collections::HashMap;

use iloc::{Function, Op, Reg, RegClass};

/// Dense numbering of the virtual registers of one register class in a
/// function: the node identities of its interference graph.
#[derive(Clone, Debug)]
pub struct EntityIndex {
    class: RegClass,
    to_id: HashMap<Reg, usize>,
    from_id: Vec<Reg>,
}

impl EntityIndex {
    /// Collects all virtual registers of `class` appearing in `f`.
    pub fn build(f: &Function, class: RegClass) -> EntityIndex {
        let mut idx = EntityIndex {
            class,
            to_id: HashMap::new(),
            from_id: Vec::new(),
        };
        f.for_each_reg(|r| {
            if r.class() == class && r.is_virtual() {
                idx.intern(r);
            }
        });
        idx
    }

    fn intern(&mut self, r: Reg) -> usize {
        *self.to_id.entry(r).or_insert_with(|| {
            self.from_id.push(r);
            self.from_id.len() - 1
        })
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
    pub fn get(&self, r: Reg) -> Option<usize> {
        self.to_id.get(&r).copied()
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

    /// The entity uses/defs of `op` relevant to this index, as
    /// `(uses, defs)` id vectors.
    pub fn uses_defs(&self, op: &Op) -> (Vec<usize>, Vec<usize>) {
        let mut uses = Vec::new();
        let mut defs = Vec::new();
        op.visit_uses(|r| {
            if let Some(id) = self.get(r) {
                uses.push(id);
            }
        });
        op.visit_defs(|r| {
            if let Some(id) = self.get(r) {
                defs.push(id);
            }
        });
        (uses, defs)
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
        assert!(gi.get(x).is_none()); // belongs to the FPR index

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
