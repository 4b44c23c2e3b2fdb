//! Spill-slot sanitizer: replay the §3.1 slot-liveness analysis over
//! allocated code and flag undefined loads, dead stores, malformed
//! frame/CCM addressing, and compaction overlap.

use analysis::{BitRows, BitSet};
use ccm::SlotAnalysis;
use iloc::{Function, Op, Reg, RegClass, SpillKind, SpillSlot};

use crate::{CheckerConfig, Diagnostic};

/// Runs the `slot-frame`, `slot-undef-load`, `slot-dead-store`, and
/// `slot-overlap` checks on one allocated function; `sa` is its
/// [`SlotAnalysis`].
pub(crate) fn check(
    f: &Function,
    sa: &SlotAnalysis,
    cfg: &CheckerConfig,
    diags: &mut Vec<Diagnostic>,
) {
    if f.frame.slots.is_empty() {
        return;
    }
    slot_records(f, cfg, diags);
    tagged_instructions(f, diags);
    undefined_loads(f, diags);
    dead_stores(f, sa, diags);
    compaction_overlap(f, sa, diags);
}

/// `slot-frame` (records): every slot is naturally aligned and, when
/// frame-resident, sits in the spill area above the locals.
fn slot_records(f: &Function, cfg: &CheckerConfig, diags: &mut Vec<Diagnostic>) {
    for (i, slot) in f.frame.slots.iter().enumerate() {
        let size = slot.size();
        if slot.offset % size != 0 {
            diags.push(Diagnostic::error(
                "slot-frame",
                &f.name,
                format!(
                    "slot {i} at offset {} is not {size}-byte aligned",
                    slot.offset
                ),
            ));
        }
        if !slot.in_ccm {
            if slot.offset < f.frame.locals_size {
                diags.push(Diagnostic::error(
                    "slot-frame",
                    &f.name,
                    format!(
                        "slot {i} at offset {} overlaps the locals area (0..{})",
                        slot.offset, f.frame.locals_size
                    ),
                ));
            }
            if slot.offset + size > f.frame.frame_size() {
                diags.push(Diagnostic::error(
                    "slot-frame",
                    &f.name,
                    format!(
                        "slot {i} at offset {} extends past the {}-byte frame",
                        slot.offset,
                        f.frame.frame_size()
                    ),
                ));
            }
        } else if slot.offset + size > cfg.ccm_size {
            diags.push(Diagnostic::error(
                "ccm-bounds",
                &f.name,
                format!(
                    "CCM-resident slot {i} spans [{}, {}) past the {}-byte CCM",
                    slot.offset,
                    slot.offset + size,
                    cfg.ccm_size
                ),
            ));
        }
    }
}

/// `slot-frame` (instructions): every spill-tagged instruction addresses
/// exactly its slot's storage — right address space, right opcode class,
/// right base register, right offset.
fn tagged_instructions(f: &Function, diags: &mut Vec<Diagnostic>) {
    for b in f.block_ids() {
        let label = &f.block(b).label;
        for (i, instr) in f.block(b).instrs.iter().enumerate() {
            let (slot_id, is_store) = match instr.spill {
                SpillKind::Store(s) => (s, true),
                SpillKind::Restore(s) => (s, false),
                SpillKind::None => continue,
            };
            // Out-of-range tags are a structural error reported elsewhere.
            let Some(slot) = f.frame.slots.get(slot_id.index()) else {
                continue;
            };
            if let Some(msg) = tag_mismatch(&instr.op, slot, is_store) {
                diags.push(
                    Diagnostic::error(
                        "slot-frame",
                        &f.name,
                        format!("slot {} {msg}", slot_id.index()),
                    )
                    .at(label, i),
                );
            }
        }
    }
}

/// Explains why `op` does not implement a spill store/restore of `slot`,
/// or `None` if it matches.
fn tag_mismatch(op: &Op, slot: &SpillSlot, is_store: bool) -> Option<String> {
    let kind = if is_store { "store" } else { "restore" };
    let (addr, off, op_class, op_ccm, op_store) = match *op {
        Op::StoreAI { addr, off, .. } => (Some(addr), off, RegClass::Gpr, false, true),
        Op::FStoreAI { addr, off, .. } => (Some(addr), off, RegClass::Fpr, false, true),
        Op::LoadAI { addr, off, .. } => (Some(addr), off, RegClass::Gpr, false, false),
        Op::FLoadAI { addr, off, .. } => (Some(addr), off, RegClass::Fpr, false, false),
        Op::CcmStore { off, .. } => (None, off as i64, RegClass::Gpr, true, true),
        Op::CcmFStore { off, .. } => (None, off as i64, RegClass::Fpr, true, true),
        Op::CcmLoad { off, .. } => (None, off as i64, RegClass::Gpr, true, false),
        Op::CcmFLoad { off, .. } => (None, off as i64, RegClass::Fpr, true, false),
        _ => return Some(format!("{kind} tag on a non-memory operation")),
    };
    if op_store != is_store {
        return Some(format!("{kind} tag on the opposite access kind"));
    }
    if op_class != slot.class {
        return Some(format!(
            "{kind} accesses a {op_class:?} value but the slot holds {:?}",
            slot.class
        ));
    }
    if op_ccm != slot.in_ccm {
        return Some(format!(
            "{kind} uses {} but the slot lives in {}",
            if op_ccm { "the CCM" } else { "main memory" },
            if slot.in_ccm { "the CCM" } else { "the frame" }
        ));
    }
    if let Some(base) = addr {
        if base != Reg::RARP {
            return Some(format!(
                "{kind} is not based on the activation-record pointer"
            ));
        }
    }
    if off != slot.offset as i64 {
        return Some(format!(
            "{kind} addresses offset {off} but the slot record says {}",
            slot.offset
        ));
    }
    None
}

/// `slot-undef-load`: a spill restore must be preceded by a spill store
/// of the same slot on every path from entry — a [`analysis::must`]
/// problem over slots. Nothing un-stores a slot, so kill sets are empty.
fn undefined_loads(f: &Function, diags: &mut Vec<Diagnostic>) {
    let n = f.frame.slots.len();
    let mut gen = BitRows::new(f.blocks.len(), n);
    for b in f.block_ids() {
        for instr in &f.block(b).instrs {
            if let SpillKind::Store(s) = instr.spill {
                if s.index() < n {
                    gen.insert(b.index(), s.index());
                }
            }
        }
    }
    let kill = BitRows::new(f.blocks.len(), n);
    let sol = analysis::must(f, &gen, &kill, &BitSet::new(n));
    let mut stored = BitSet::new(n);
    for b in f.block_ids() {
        let label = &f.block(b).label;
        stored.copy_from_row(sol.in_.row(b.index()));
        for (i, instr) in f.block(b).instrs.iter().enumerate() {
            match instr.spill {
                SpillKind::Restore(s) if s.index() < n && !stored.contains(s.index()) => {
                    diags.push(
                        Diagnostic::error(
                            "slot-undef-load",
                            &f.name,
                            format!(
                                "restore of slot {} not preceded by a store on every path",
                                s.index()
                            ),
                        )
                        .at(label, i),
                    );
                }
                SpillKind::Store(s) if s.index() < n => {
                    stored.insert(s.index());
                }
                _ => {}
            }
        }
    }
}

/// `slot-dead-store` (warning): a spill store whose slot is dead — no
/// path from the store reaches a restore of it. Legal but wasted memory
/// traffic, so it is reported without failing the check.
fn dead_stores(f: &Function, sa: &SlotAnalysis, diags: &mut Vec<Diagnostic>) {
    let mut live = BitSet::new(sa.n);
    for b in f.block_ids() {
        let label = &f.block(b).label;
        live.copy_from_row(sa.live_out(b));
        for (i, instr) in f.block(b).instrs.iter().enumerate().rev() {
            match instr.spill {
                SpillKind::Store(s) if s.index() < sa.n => {
                    if !live.contains(s.index()) {
                        diags.push(
                            Diagnostic::warning(
                                "slot-dead-store",
                                &f.name,
                                format!("store to slot {} is never restored", s.index()),
                            )
                            .at(label, i),
                        );
                    }
                    live.remove(s.index());
                }
                SpillKind::Restore(s) if s.index() < sa.n => {
                    live.insert(s.index());
                }
                _ => {}
            }
        }
    }
}

/// `slot-overlap`: interfering slots (simultaneously live) must not share
/// bytes within an address space — the compaction/promotion passes may
/// only reuse storage for slots that never carry live values together.
fn compaction_overlap(f: &Function, sa: &SlotAnalysis, diags: &mut Vec<Diagnostic>) {
    for i in 0..sa.n {
        let si = &f.frame.slots[i];
        for j in sa.adj[i].iter().filter(|&j| j > i) {
            let sj = &f.frame.slots[j];
            if si.in_ccm != sj.in_ccm {
                continue; // disjoint address spaces
            }
            let overlap = si.offset < sj.offset + sj.size() && sj.offset < si.offset + si.size();
            if overlap {
                diags.push(Diagnostic::error(
                    "slot-overlap",
                    &f.name,
                    format!(
                        "interfering slots {i} (offset {}) and {j} (offset {}) share {} bytes",
                        si.offset,
                        sj.offset,
                        if si.in_ccm { "CCM" } else { "frame" }
                    ),
                ));
            }
        }
    }
}
