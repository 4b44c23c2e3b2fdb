//! Dense per-register tables.
//!
//! Registers are a class plus a small index, so a table with one slot per
//! index of each class replaces a `HashMap<Reg, T>` in every pass that
//! touches most registers of a function: a lookup is a bounds check and
//! a load, with no hashing and no per-key allocation.

use std::ops::{Index, IndexMut};

use iloc::{Function, Reg};

/// One `T` per register index of each class (GPR, FPR).
///
/// [`RegMap::for_function`] sizes the table by one scan of the registers
/// the function mentions (parameters, uses and defs), not by the
/// function's virtual-register counter, which a pass that writes
/// registers directly can leave behind the body. Physical registers
/// ([`Reg::RARP`] included) have slots like any other. A register a pass
/// creates after the scan lies past the end: [`RegMap::get`] returns
/// `None` for it, and indexing with it panics.
#[derive(Clone, Debug)]
pub struct RegMap<T> {
    per_class: [Vec<T>; 2],
}

impl<T: Clone> RegMap<T> {
    /// A table covering every register `f` mentions, each slot `fill`.
    pub fn for_function(f: &Function, fill: T) -> RegMap<T> {
        let mut len = [0usize; 2];
        f.for_each_reg(|r| {
            let n = &mut len[r.class().index()];
            *n = (*n).max(r.index() as usize + 1);
        });
        RegMap {
            per_class: [vec![fill.clone(); len[0]], vec![fill; len[1]]],
        }
    }

    /// An empty table: every [`RegMap::get`] returns `None` until
    /// [`RegMap::grow`] covers the register.
    pub(crate) fn empty() -> RegMap<T> {
        RegMap {
            per_class: [Vec::new(), Vec::new()],
        }
    }

    /// The slot of `r`, first growing `r`'s class with `fill` slots up to
    /// its index if the table does not reach it yet.
    pub(crate) fn grow(&mut self, r: Reg, fill: T) -> &mut T {
        let slots = &mut self.per_class[r.class().index()];
        let i = r.index() as usize;
        if i >= slots.len() {
            slots.resize(i + 1, fill);
        }
        &mut slots[i]
    }
}

impl<T> RegMap<T> {
    /// The slot of `r`, or `None` if `r` lies past the table.
    #[inline]
    pub fn get(&self, r: Reg) -> Option<&T> {
        self.per_class[r.class().index()].get(r.index() as usize)
    }

    /// Every slot, in the order of [`RegMap::iter`].
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        let [gpr, fpr] = &mut self.per_class;
        gpr.iter_mut().chain(fpr.iter_mut())
    }

    /// Every slot with its register, GPRs then FPRs, each by ascending
    /// index: the order of [`Reg`]'s `Ord`.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, &T)> + '_ {
        iloc::RegClass::ALL.into_iter().flat_map(move |c| {
            self.per_class[c.index()]
                .iter()
                .enumerate()
                .map(move |(i, v)| (Reg::new(c, i as u32), v))
        })
    }
}

impl<T> Index<Reg> for RegMap<T> {
    type Output = T;

    #[inline]
    fn index(&self, r: Reg) -> &T {
        &self.per_class[r.class().index()][r.index() as usize]
    }
}

impl<T> IndexMut<Reg> for RegMap<T> {
    #[inline]
    fn index_mut(&mut self, r: Reg) -> &mut T {
        &mut self.per_class[r.class().index()][r.index() as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::Op;

    #[test]
    fn sized_by_the_registers_the_body_mentions() {
        let mut fb = FuncBuilder::new("f");
        let a = fb.loadi(1);
        // Written directly, above anything the vreg counter handed out.
        let high = Reg::gpr(500);
        fb.emit(Op::IBin {
            kind: iloc::IBinKind::Add,
            lhs: a,
            rhs: Reg::RARP,
            dst: high,
        });
        let x = fb.loadf(2.0);
        fb.ret(&[]);
        let f = fb.finish();
        let mut m = RegMap::for_function(&f, 0u32);
        m[high] += 1;
        m[Reg::RARP] += 2;
        m[x] += 3;
        assert_eq!(m.get(high), Some(&1));
        assert_eq!(m.get(Reg::RARP), Some(&2));
        assert_eq!(m.get(Reg::gpr(501)), None);
        assert_eq!(m.get(Reg::fpr(x.index() + 1)), None);
        let set: Vec<(Reg, u32)> = m
            .iter()
            .filter(|(_, &v)| v > 0)
            .map(|(r, &v)| (r, v))
            .collect();
        assert_eq!(set, vec![(Reg::RARP, 2), (high, 1), (x, 3)]);
    }
}
