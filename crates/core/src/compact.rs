//! Spill-memory compaction by coloring (§4.1, Table 1).
//!
//! "We also built a memory compaction routine that colors spill memory to
//! make non-interfering spilled values occupy the same memory location
//! when possible." Slots are assigned new frame offsets greedily — each
//! slot takes the lowest aligned offset not overlapping any
//! already-placed *interfering* slot — so disjoint lifetimes share bytes.
//! [`Placement::compacted`] applies this rule to any configuration's
//! frames as a placement of its baseline allocation.

use iloc::{FrameInfo, Module, SlotId};

use crate::placement::{BaselineAnalysis, Placement};
use crate::postpass::first_fit;
use crate::slots::SlotAnalysis;

/// Result of compacting one function's spill memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Bytes of spill memory before compaction.
    pub before: u32,
    /// Bytes after compaction.
    pub after: u32,
}

impl CompactStats {
    /// The Table 1 ratio `after/before` (1.0 when nothing to compact).
    pub fn ratio(&self) -> f64 {
        if self.before == 0 {
            1.0
        } else {
            self.after as f64 / self.before as f64
        }
    }
}

/// Gives every main-memory slot of `frame` a new offset, by `analysis`
/// of the code that addresses them; CCM slots keep theirs.
pub(crate) fn compact_frame(frame: &mut FrameInfo, analysis: &SlotAnalysis) {
    // Place slots in descending-cost order: hot slots get the low offsets
    // (harmless for correctness; keeps placement deterministic).
    let base = frame.locals_size;
    let mut placed: Vec<Option<(u32, u32)>> = vec![None; analysis.n]; // (off, size)
    let mut taken = Vec::new(); // The placed neighbors' intervals.
    for slot_id in analysis.by_descending_cost() {
        let si = slot_id.index();
        let slot = *frame.slot(slot_id);
        if slot.in_ccm {
            continue;
        }
        let size = slot.size();
        // Lowest aligned offset whose byte range avoids every interfering
        // already-placed slot; frame memory has no capacity to run out of.
        taken.clear();
        taken.extend(analysis.adj[si].iter().filter_map(|other| placed[other]));
        let off = first_fit(base, size, u32::MAX, &mut taken)
            .expect("finitely many placed slots leave a gap");
        placed[si] = Some((off, size));
    }
    for (si, p) in placed.iter().enumerate() {
        if let Some((off, _)) = p {
            frame.slot_mut(SlotId(si as u32)).offset = *off;
        }
    }
}

/// Compacts every function of `m` in place: the baseline's
/// [`Placement::compacted`] over `m`'s own analysis, applied. Returns
/// per-function stats alongside names.
///
/// Exists only because the `perfbench` replay helper calls it; every
/// other caller compacts a placement with [`Placement::compacted`].
pub fn compact_module(m: &mut Module) -> Vec<(String, CompactStats)> {
    let (compacted, stats) = Placement::default().compacted(m, &BaselineAnalysis::compute(m));
    compacted.apply_to(m);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{Function, Instr, Op, Reg, RegClass, SpillKind};

    /// Compacts `f`'s spill memory: [`Placement::compacted`] of the
    /// one-function module that holds it, applied.
    fn compact(f: &mut Function) -> CompactStats {
        let mut m = Module::new();
        m.push_function(f.clone());
        let (compacted, stats) = Placement::default().compacted(&m, &BaselineAnalysis::compute(&m));
        *f = compacted.apply(&m).functions.remove(0);
        stats[0].1
    }

    /// Two slots with disjoint lifetimes: store0/load0 then store1/load1.
    fn disjoint_slots() -> Function {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let v = fb.loadi(1);
        fb.ret(&[v]);
        let mut f = fb.finish();
        let s0 = f.frame.new_slot(RegClass::Fpr);
        let s1 = f.frame.new_slot(RegClass::Fpr);
        let e = f.entry();
        let x = f.new_vreg(RegClass::Fpr);
        let y = f.new_vreg(RegClass::Fpr);
        let t0 = f.new_vreg(RegClass::Fpr);
        let t1 = f.new_vreg(RegClass::Fpr);
        let o0 = f.frame.slot(s0).offset as i64;
        let o1 = f.frame.slot(s1).offset as i64;
        let seq = vec![
            Instr::new(Op::LoadF { imm: 1.0, dst: x }),
            Instr::spill_store(
                Op::FStoreAI {
                    val: x,
                    addr: Reg::RARP,
                    off: o0,
                },
                s0,
            ),
            Instr::spill_restore(
                Op::FLoadAI {
                    addr: Reg::RARP,
                    off: o0,
                    dst: t0,
                },
                s0,
            ),
            Instr::new(Op::LoadF { imm: 2.0, dst: y }),
            Instr::spill_store(
                Op::FStoreAI {
                    val: y,
                    addr: Reg::RARP,
                    off: o1,
                },
                s1,
            ),
            Instr::spill_restore(
                Op::FLoadAI {
                    addr: Reg::RARP,
                    off: o1,
                    dst: t1,
                },
                s1,
            ),
        ];
        for (i, instr) in seq.into_iter().enumerate() {
            f.block_mut(e).instrs.insert(1 + i, instr);
        }
        f
    }

    #[test]
    fn disjoint_slots_share_one_location() {
        let mut f = disjoint_slots();
        assert_eq!(f.frame.spill_bytes(), 16);
        let stats = compact(&mut f);
        assert_eq!(stats.before, 16);
        assert_eq!(stats.after, 8, "two disjoint 8-byte slots share one");
        assert!((stats.ratio() - 0.5).abs() < 1e-12);
        // Both slots now have the same offset, and the instructions agree.
        let o0 = f.frame.slots[0].offset;
        let o1 = f.frame.slots[1].offset;
        assert_eq!(o0, o1);
        for b in &f.blocks {
            for i in &b.instrs {
                if i.spill != SpillKind::None {
                    match i.op {
                        Op::FStoreAI { off, .. } | Op::FLoadAI { off, .. } => {
                            assert_eq!(off as u32, o0)
                        }
                        _ => panic!("unexpected spill op"),
                    }
                }
            }
        }
    }

    #[test]
    fn interfering_slots_stay_separate() {
        // store0, store1, load0, load1 — overlapping lifetimes.
        let mut fb = FuncBuilder::new("f");
        fb.ret(&[]);
        let mut f = fb.finish();
        let s0 = f.frame.new_slot(RegClass::Gpr);
        let s1 = f.frame.new_slot(RegClass::Gpr);
        let e = f.entry();
        let v = f.new_vreg(RegClass::Gpr);
        let t0 = f.new_vreg(RegClass::Gpr);
        let t1 = f.new_vreg(RegClass::Gpr);
        let o0 = f.frame.slot(s0).offset as i64;
        let o1 = f.frame.slot(s1).offset as i64;
        let seq = vec![
            Instr::new(Op::LoadI { imm: 5, dst: v }),
            Instr::spill_store(
                Op::StoreAI {
                    val: v,
                    addr: Reg::RARP,
                    off: o0,
                },
                s0,
            ),
            Instr::spill_store(
                Op::StoreAI {
                    val: v,
                    addr: Reg::RARP,
                    off: o1,
                },
                s1,
            ),
            Instr::spill_restore(
                Op::LoadAI {
                    addr: Reg::RARP,
                    off: o0,
                    dst: t0,
                },
                s0,
            ),
            Instr::spill_restore(
                Op::LoadAI {
                    addr: Reg::RARP,
                    off: o1,
                    dst: t1,
                },
                s1,
            ),
        ];
        for (i, instr) in seq.into_iter().enumerate() {
            f.block_mut(e).instrs.insert(i, instr);
        }
        let stats = compact(&mut f);
        assert_eq!(stats.after, stats.before, "interfering slots cannot share");
        assert_ne!(f.frame.slots[0].offset, f.frame.slots[1].offset);
    }

    #[test]
    fn compaction_preserves_program_behavior() {
        let mut f = disjoint_slots();
        let mut m0 = iloc::Module::new();
        m0.push_function(f.clone());
        let (v0, _) = sim::run_module(&m0, sim::MachineConfig::default(), "f").unwrap();
        compact(&mut f);
        let mut m1 = iloc::Module::new();
        m1.push_function(f);
        let (v1, _) = sim::run_module(&m1, sim::MachineConfig::default(), "f").unwrap();
        assert_eq!(v0, v1);
    }

    #[test]
    fn mixed_sizes_respect_alignment() {
        let mut fb = FuncBuilder::new("f");
        fb.alloc_local(4); // locals_size = 4 → float slots must align to 8
        fb.ret(&[]);
        let mut f = fb.finish();
        let sg = f.frame.new_slot(RegClass::Gpr);
        let sf = f.frame.new_slot(RegClass::Fpr);
        // Make them interfere by overlapping lifetimes.
        let e = f.entry();
        let vi = f.new_vreg(RegClass::Gpr);
        let vf = f.new_vreg(RegClass::Fpr);
        let ti = f.new_vreg(RegClass::Gpr);
        let tf = f.new_vreg(RegClass::Fpr);
        let og = f.frame.slot(sg).offset as i64;
        let of = f.frame.slot(sf).offset as i64;
        let seq = vec![
            Instr::new(Op::LoadI { imm: 1, dst: vi }),
            Instr::new(Op::LoadF { imm: 1.0, dst: vf }),
            Instr::spill_store(
                Op::StoreAI {
                    val: vi,
                    addr: Reg::RARP,
                    off: og,
                },
                sg,
            ),
            Instr::spill_store(
                Op::FStoreAI {
                    val: vf,
                    addr: Reg::RARP,
                    off: of,
                },
                sf,
            ),
            Instr::spill_restore(
                Op::LoadAI {
                    addr: Reg::RARP,
                    off: og,
                    dst: ti,
                },
                sg,
            ),
            Instr::spill_restore(
                Op::FLoadAI {
                    addr: Reg::RARP,
                    off: of,
                    dst: tf,
                },
                sf,
            ),
        ];
        for (i, instr) in seq.into_iter().enumerate() {
            f.block_mut(e).instrs.insert(i, instr);
        }
        compact(&mut f);
        assert_eq!(f.frame.slot(sf).offset % 8, 0, "float slot 8-aligned");
        assert_eq!(f.frame.slot(sg).offset % 4, 0);
        // No byte overlap between interfering slots.
        let (a, b) = (f.frame.slot(sg), f.frame.slot(sf));
        assert!(a.offset + a.size() <= b.offset || b.offset + b.size() <= a.offset);
    }

    #[test]
    fn no_slots_is_identity() {
        let mut fb = FuncBuilder::new("f");
        fb.ret(&[]);
        let mut f = fb.finish();
        let stats = compact(&mut f);
        assert_eq!(stats.before, 0);
        assert_eq!(stats.ratio(), 1.0);
    }
}

#[cfg(test)]
mod promoted_interaction_tests {
    use super::*;
    use crate::{place, Variant};
    use iloc::RegClass;
    use regalloc::{allocate_module, AllocConfig};

    /// Compaction after promotion leaves CCM slots untouched and packs
    /// only the heavyweight remainder.
    #[test]
    fn compaction_skips_ccm_slots() {
        // A spilling kernel, promoted into a tiny CCM so some slots stay
        // heavyweight.
        let mut fb = iloc::builder::FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let vals: Vec<_> = (0..20).map(|i| fb.loadi(i)).collect();
        let mut acc = vals[19];
        for v in vals[..19].iter().rev() {
            acc = fb.add(acc, *v);
        }
        fb.ret(&[acc]);
        let mut base = iloc::Module::new();
        base.push_function(fb.finish());
        allocate_module(&mut base, &AllocConfig::tiny(3));
        let analysis = BaselineAnalysis::compute(&base);
        let promoted = place(&base, &analysis, Variant::PostPass, 16);
        let (compacted, stats) = promoted.compacted(&base, &analysis);
        let (promoted, compacted) = (promoted.apply(&base), compacted.apply(&base));
        let slots = |m: &Module, in_ccm: bool| -> Vec<_> {
            (m.functions[0].frame.slots.iter())
                .filter(|s| s.in_ccm == in_ccm)
                .cloned()
                .collect()
        };
        assert!(
            !slots(&promoted, true).is_empty(),
            "some slots must promote"
        );
        assert!(
            !slots(&promoted, false).is_empty(),
            "some slots must remain heavyweight"
        );

        assert!(stats[0].1.after <= stats[0].1.before);
        assert_eq!(
            slots(&promoted, true),
            slots(&compacted, true),
            "CCM slots must not move"
        );
        // And it still runs.
        let (v, _) = sim::run_module(&compacted, sim::MachineConfig::with_ccm(16), "main").unwrap();
        assert_eq!(v.ints, vec![(0..20).sum::<i64>()]);
    }
}
