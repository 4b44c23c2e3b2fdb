//! Basic blocks.

use std::fmt;

use crate::op::{Instr, Op};

/// Index of a basic block within its [`Function`](crate::Function).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block index as a `usize`, for direct table indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// The successors a terminator names: none, one (`jump`) or two (`cbr`,
/// taken first). A `Copy` value that derefs to `[BlockId]`, so asking for
/// a block's successors allocates nothing and borrows nothing. A `cbr`
/// whose two targets are equal still has two entries: the target has
/// one predecessor entry (and one φ argument) per edge.
#[derive(Copy, Clone, Debug)]
pub struct Succs {
    ids: [BlockId; 2],
    len: u8,
}

impl Succs {
    /// No successors (a `ret`, or a block without a terminator).
    pub(crate) const NONE: Succs = Succs {
        ids: [BlockId(0); 2],
        len: 0,
    };

    /// One successor.
    pub(crate) fn one(target: BlockId) -> Succs {
        Succs {
            ids: [target, BlockId(0)],
            len: 1,
        }
    }

    /// Two successors, in this order.
    pub(crate) fn two(first: BlockId, second: BlockId) -> Succs {
        Succs {
            ids: [first, second],
            len: 2,
        }
    }
}

impl std::ops::Deref for Succs {
    type Target = [BlockId];

    #[inline]
    fn deref(&self) -> &[BlockId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl IntoIterator for Succs {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(usize::from(self.len))
    }
}

/// A basic block: a label plus a straight-line instruction sequence ending
/// in a terminator ([`Op::Jump`], [`Op::Cbr`], or [`Op::Ret`]).
#[derive(Clone, PartialEq, Debug)]
pub struct Block {
    /// Human-readable label, unique within the function.
    pub label: String,
    /// The instructions; the last one must be a terminator in a
    /// verifier-clean function.
    pub instrs: Vec<Instr>,
}

impl Block {
    /// Creates an empty block with the given label.
    pub fn new(label: impl Into<String>) -> Block {
        Block {
            label: label.into(),
            instrs: Vec::new(),
        }
    }

    /// The block's terminator, if present and well-formed.
    pub fn terminator(&self) -> Option<&Op> {
        self.instrs
            .last()
            .map(|i| &i.op)
            .filter(|op| op.is_terminator())
    }

    /// Mutable access to the terminator.
    pub fn terminator_mut(&mut self) -> Option<&mut Op> {
        match self.instrs.last_mut() {
            Some(i) if i.op.is_terminator() => Some(&mut i.op),
            _ => None,
        }
    }

    /// Successor block ids, taken from the terminator.
    pub fn successors(&self) -> Succs {
        self.terminator().map_or(Succs::NONE, Op::successors)
    }

    /// Number of φ-nodes at the head of the block.
    pub fn phi_count(&self) -> usize {
        self.instrs
            .iter()
            .take_while(|i| matches!(i.op, Op::Phi { .. }))
            .count()
    }

    /// Inserts `instr` just before the terminator. Panics if the block has
    /// no terminator.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty or does not end in a terminator.
    pub fn insert_before_terminator(&mut self, instr: Instr) {
        assert!(
            self.terminator().is_some(),
            "block {} has no terminator",
            self.label
        );
        let at = self.instrs.len() - 1;
        self.instrs.insert(at, instr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn terminator_detection() {
        let mut b = Block::new("L0");
        assert!(b.terminator().is_none());
        b.instrs.push(Instr::new(Op::LoadI {
            imm: 1,
            dst: Reg::gpr(64),
        }));
        assert!(b.terminator().is_none());
        b.instrs.push(Instr::new(Op::Ret { vals: [].into() }));
        assert!(b.terminator().is_some());
        assert!(b.successors().is_empty());
    }

    #[test]
    fn insert_before_terminator_preserves_order() {
        let mut b = Block::new("L0");
        b.instrs.push(Instr::new(Op::Jump { target: BlockId(1) }));
        b.insert_before_terminator(Instr::new(Op::LoadI {
            imm: 7,
            dst: Reg::gpr(64),
        }));
        assert_eq!(b.instrs.len(), 2);
        assert!(matches!(b.instrs[0].op, Op::LoadI { .. }));
        assert!(b.instrs[1].op.is_terminator());
    }

    #[test]
    fn phi_count_counts_only_leading_phis() {
        let mut b = Block::new("L0");
        b.instrs.push(Instr::new(Op::Phi {
            dst: Reg::gpr(70),
            args: [].into(),
        }));
        b.instrs.push(Instr::new(Op::LoadI {
            imm: 0,
            dst: Reg::gpr(71),
        }));
        b.instrs.push(Instr::new(Op::Ret { vals: [].into() }));
        assert_eq!(b.phi_count(), 1);
    }
}
