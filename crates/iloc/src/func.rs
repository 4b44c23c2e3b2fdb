//! Functions, frames, and spill slots.

use std::fmt;

use crate::block::{Block, BlockId};
use crate::op::{Instr, Op};
use crate::reg::{Reg, RegClass, FIRST_VREG};

/// Index of a spill slot within a function's [`FrameInfo`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SlotId(pub u32);

impl SlotId {
    /// The slot index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// Spill provenance of an instruction.
///
/// The register allocator tags the stores and loads it inserts, preserving
/// the knowledge the paper's CCM techniques exploit: compiler-inserted
/// memory traffic is precisely identifiable, unlike program memory traffic.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SpillKind {
    /// Not spill code.
    None,
    /// A spill store (register → memory) for the given slot.
    Store(SlotId),
    /// A spill restore (memory → register) for the given slot.
    Restore(SlotId),
}

/// A spill slot in the activation record (or, after promotion, in the CCM).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SpillSlot {
    /// Byte offset. For frame slots this is relative to the activation-
    /// record pointer; for promoted slots it is an absolute CCM offset.
    pub offset: u32,
    /// The value class stored here (determines the slot's size).
    pub class: RegClass,
    /// Whether this slot has been promoted into the CCM.
    pub in_ccm: bool,
}

impl SpillSlot {
    /// Size of the slot in bytes (4 for integer values, 8 for floats).
    #[inline]
    pub fn size(&self) -> u32 {
        self.class.value_size()
    }
}

/// Layout of a function's activation record.
///
/// The frame holds, in order: program locals (`locals_size` bytes, laid out
/// by the front end) followed by allocator-created spill slots. Spill slots
/// are recorded individually so the CCM passes can rename, color, compact,
/// and promote them.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FrameInfo {
    /// Bytes reserved for program locals (arrays, scalars the front end
    /// placed in memory). Spill slots start above this.
    pub locals_size: u32,
    /// All spill slots created by the register allocator.
    pub slots: Vec<SpillSlot>,
}

impl FrameInfo {
    /// Total frame size in bytes, rounded up to 8-byte alignment.
    pub fn frame_size(&self) -> u32 {
        let end = self
            .slots
            .iter()
            .filter(|s| !s.in_ccm)
            .map(|s| s.offset + s.size())
            .max()
            .unwrap_or(self.locals_size)
            .max(self.locals_size);
        (end + 7) & !7
    }

    /// Bytes of spill memory in the main-memory frame (the quantity Table 1
    /// of the paper reports): the extent of the spill area beyond locals.
    pub fn spill_bytes(&self) -> u32 {
        let end = self
            .slots
            .iter()
            .filter(|s| !s.in_ccm)
            .map(|s| s.offset + s.size())
            .max()
            .unwrap_or(self.locals_size);
        end.saturating_sub(self.locals_size)
    }

    /// Appends a new spill slot of `class` at the current end of the frame,
    /// naturally aligned, and returns its id.
    pub fn new_slot(&mut self, class: RegClass) -> SlotId {
        let size = class.value_size();
        let end = self
            .slots
            .iter()
            .filter(|s| !s.in_ccm)
            .map(|s| s.offset + s.size())
            .max()
            .unwrap_or(self.locals_size)
            .max(self.locals_size);
        let offset = (end + size - 1) & !(size - 1);
        let id = SlotId(self.slots.len() as u32);
        self.slots.push(SpillSlot {
            offset,
            class,
            in_ccm: false,
        });
        id
    }

    /// Looks up a slot.
    pub fn slot(&self, id: SlotId) -> &SpillSlot {
        &self.slots[id.index()]
    }

    /// Mutable access to a slot.
    pub fn slot_mut(&mut self, id: SlotId) -> &mut SpillSlot {
        &mut self.slots[id.index()]
    }
}

/// A function: a named CFG with parameters, return classes, and a frame.
///
/// Equality compares the observable program (name, signature, frame, and
/// body) and ignores the internal virtual-register counter, so a printed
/// and re-parsed function compares equal to the original.
#[derive(Clone, Debug)]
pub struct Function {
    /// The function's name, unique within its module.
    pub name: String,
    /// Parameter registers (virtual until allocation).
    pub params: Vec<Reg>,
    /// Classes of the return values.
    pub ret_classes: Vec<RegClass>,
    /// The basic blocks. `blocks[0]` is always the entry block.
    pub blocks: Vec<Block>,
    /// Activation-record layout.
    pub frame: FrameInfo,
    /// Next unused virtual-register index per class (GPR, FPR).
    next_vreg: [u32; 2],
}

impl PartialEq for Function {
    fn eq(&self, other: &Function) -> bool {
        self.name == other.name
            && self.params == other.params
            && self.ret_classes == other.ret_classes
            && self.blocks == other.blocks
            && self.frame == other.frame
    }
}

impl Function {
    /// Creates an empty function with a single empty entry block.
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            params: Vec::new(),
            ret_classes: Vec::new(),
            blocks: vec![Block::new("entry")],
            frame: FrameInfo::default(),
            next_vreg: [FIRST_VREG, FIRST_VREG],
        }
    }

    /// The entry block id (always block 0).
    #[inline]
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Shared access to a block.
    #[inline]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    #[inline]
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterates over `(BlockId, &Block)` pairs in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Appends a new empty block and returns its id.
    pub fn add_block(&mut self, label: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new(label));
        id
    }

    /// Allocates a fresh virtual register of the given class.
    pub fn new_vreg(&mut self, class: RegClass) -> Reg {
        let idx = self.next_vreg[class.index()];
        self.next_vreg[class.index()] += 1;
        Reg::new(class, idx)
    }

    /// Ensures future [`Function::new_vreg`] calls return indices strictly
    /// above every register currently appearing in the body. Call after
    /// bulk-rewriting registers (e.g., after parsing or SSA renaming).
    pub fn reset_vreg_counter(&mut self) {
        let mut max = [FIRST_VREG; 2];
        self.for_each_reg(|r| {
            let slot = &mut max[r.class().index()];
            *slot = (*slot).max(r.index() + 1);
        });
        self.next_vreg = max;
    }

    /// Visits every register mentioned anywhere in the body and parameters.
    pub fn for_each_reg(&self, mut f: impl FnMut(Reg)) {
        for p in &self.params {
            f(*p);
        }
        for b in &self.blocks {
            for i in &b.instrs {
                i.op.visit_uses(&mut f);
                i.op.visit_defs(&mut f);
            }
        }
    }

    /// Successors of `id` (from the terminator).
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        self.block(id).successors()
    }

    /// Computes the full predecessor table in one pass.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for id in self.block_ids() {
            for s in self.successors(id) {
                preds[s.index()].push(id);
            }
        }
        preds
    }

    /// Blocks reachable from entry, in reverse postorder.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let n = self.blocks.len();
        let mut state = vec![0u8; n]; // 0 = unseen, 1 = on stack, 2 = done
        let mut post = Vec::with_capacity(n);
        // Iterative DFS computing postorder.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry(), 0)];
        state[self.entry().index()] = 1;
        while let Some((b, child)) = stack.pop() {
            let succs = self.successors(b);
            if child < succs.len() {
                stack.push((b, child + 1));
                let s = succs[child];
                if state[s.index()] == 0 {
                    state[s.index()] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b.index()] = 2;
                post.push(b);
            }
        }
        post.reverse();
        post
    }

    /// Total number of instructions across all blocks.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Count of instructions tagged as spill code.
    pub fn spill_instr_count(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.spill != SpillKind::None)
            .count()
    }

    /// Names of all callees invoked by this function (with repeats).
    pub fn callees(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for b in &self.blocks {
            for i in &b.instrs {
                if let Op::Call { callee, .. } = &i.op {
                    out.push(callee.as_str());
                }
            }
        }
        out
    }

    /// Replaces every instruction satisfying the predicate with `Nop`, then
    /// sweeps all `Nop`s out of the body. Returns the number removed.
    pub fn remove_instrs(&mut self, mut pred: impl FnMut(&Instr) -> bool) -> usize {
        let mut removed = 0;
        for b in &mut self.blocks {
            let before = b.instrs.len();
            b.instrs.retain(|i| !(pred(i) || matches!(i.op, Op::Nop)));
            removed += before - b.instrs.len();
        }
        removed
    }

    /// Deletes every block not reachable from the entry, compacting block
    /// ids and retargeting the surviving terminators. Returns the number
    /// of blocks removed.
    ///
    /// Simplification passes (and the fuzzer's minimizer) turn `cbr`s into
    /// `jump`s; this sweeps out the half of the CFG those edits orphan.
    pub fn prune_unreachable(&mut self) -> usize {
        let n = self.blocks.len();
        let mut reachable = vec![false; n];
        let mut stack = vec![self.entry()];
        reachable[self.entry().index()] = true;
        while let Some(b) = stack.pop() {
            for s in self.successors(b) {
                if !reachable[s.index()] {
                    reachable[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        if reachable.iter().all(|&r| r) {
            return 0;
        }
        // Old id -> new id for survivors, in layout order (entry stays 0).
        let mut remap = vec![BlockId(0); n];
        let mut next = 0u32;
        for (i, r) in reachable.iter().enumerate() {
            if *r {
                remap[i] = BlockId(next);
                next += 1;
            }
        }
        let mut keep = reachable.iter().copied();
        self.blocks.retain(|_| keep.next().unwrap());
        for b in &mut self.blocks {
            if let Some(t) = b.terminator_mut() {
                t.map_successors(|s| remap[s.index()]);
            }
        }
        n - next as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_unreachable_compacts_and_retargets() {
        let mut f = Function::new("t");
        let dead = f.add_block("dead");
        let live = f.add_block("live");
        let r = f.new_vreg(RegClass::Gpr);
        f.block_mut(f.entry())
            .instrs
            .push(Instr::new(Op::Jump { target: live }));
        f.block_mut(dead)
            .instrs
            .push(Instr::new(Op::Jump { target: live }));
        f.block_mut(live)
            .instrs
            .push(Instr::new(Op::Ret { vals: vec![r] }));
        assert_eq!(f.prune_unreachable(), 1);
        assert_eq!(f.blocks.len(), 2);
        // The surviving jump must now target the compacted id of "live".
        assert_eq!(f.successors(f.entry()), vec![BlockId(1)]);
        assert_eq!(f.block(BlockId(1)).label, "live");
        assert_eq!(f.prune_unreachable(), 0, "second prune is a no-op");
    }

    #[test]
    fn fresh_vregs_are_distinct_per_class() {
        let mut f = Function::new("t");
        let a = f.new_vreg(RegClass::Gpr);
        let b = f.new_vreg(RegClass::Gpr);
        let c = f.new_vreg(RegClass::Fpr);
        assert_ne!(a, b);
        assert_eq!(a.index(), FIRST_VREG);
        assert_eq!(c.index(), FIRST_VREG);
        assert!(a.is_virtual() && c.is_virtual());
    }

    #[test]
    fn frame_slot_layout_is_aligned_and_disjoint() {
        let mut fr = FrameInfo {
            locals_size: 10,
            slots: vec![],
        };
        let a = fr.new_slot(RegClass::Gpr); // aligned to 4 → offset 12
        let b = fr.new_slot(RegClass::Fpr); // aligned to 8 → offset 16
        let c = fr.new_slot(RegClass::Gpr); // offset 24
        assert_eq!(fr.slot(a).offset, 12);
        assert_eq!(fr.slot(b).offset, 16);
        assert_eq!(fr.slot(c).offset, 24);
        assert_eq!(fr.spill_bytes(), 28 - 10);
        assert_eq!(fr.frame_size(), 28 + 4); // 28 → aligned 32
    }

    #[test]
    fn promoted_slots_do_not_count_toward_frame() {
        let mut fr = FrameInfo::default();
        let a = fr.new_slot(RegClass::Fpr);
        assert_eq!(fr.spill_bytes(), 8);
        fr.slot_mut(a).in_ccm = true;
        assert_eq!(fr.spill_bytes(), 0);
    }

    #[test]
    fn reverse_postorder_visits_entry_first() {
        let mut f = Function::new("t");
        let e = f.entry();
        let b1 = f.add_block("L1");
        let b2 = f.add_block("L2");
        f.block_mut(e)
            .instrs
            .push(Instr::new(Op::Jump { target: b1 }));
        f.block_mut(b1)
            .instrs
            .push(Instr::new(Op::Jump { target: b2 }));
        f.block_mut(b2)
            .instrs
            .push(Instr::new(Op::Ret { vals: vec![] }));
        let rpo = f.reverse_postorder();
        assert_eq!(rpo, vec![e, b1, b2]);
    }

    #[test]
    fn rpo_skips_unreachable_blocks() {
        let mut f = Function::new("t");
        let e = f.entry();
        let dead = f.add_block("dead");
        f.block_mut(e)
            .instrs
            .push(Instr::new(Op::Ret { vals: vec![] }));
        f.block_mut(dead)
            .instrs
            .push(Instr::new(Op::Ret { vals: vec![] }));
        let rpo = f.reverse_postorder();
        assert_eq!(rpo, vec![e]);
    }

    #[test]
    fn predecessors_inverse_of_successors() {
        let mut f = Function::new("t");
        let e = f.entry();
        let b1 = f.add_block("L1");
        let cond = f.new_vreg(RegClass::Gpr);
        f.block_mut(e).instrs.push(Instr::new(Op::Cbr {
            cond,
            taken: b1,
            not_taken: b1,
        }));
        f.block_mut(b1)
            .instrs
            .push(Instr::new(Op::Ret { vals: vec![] }));
        let preds = f.predecessors();
        assert_eq!(preds[b1.index()], vec![e, e]);
    }

    #[test]
    fn reset_vreg_counter_clears_collisions() {
        let mut f = Function::new("t");
        f.block_mut(BlockId(0)).instrs.push(Instr::new(Op::LoadI {
            imm: 0,
            dst: Reg::gpr(200),
        }));
        f.block_mut(BlockId(0))
            .instrs
            .push(Instr::new(Op::Ret { vals: vec![] }));
        f.reset_vreg_counter();
        let next = f.new_vreg(RegClass::Gpr);
        assert_eq!(next.index(), 201);
    }
}
