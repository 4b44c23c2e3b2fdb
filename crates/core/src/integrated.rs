//! The integrated CCM allocator (§3.2, Figure 2) as a placement pass.
//!
//! The paper threads CCM locations through the Chaitin-Briggs
//! interference graph: coloring ignores them and spill-code insertion
//! consults them, so a value `v` may be spilled to CCM position `m`
//! unless a value already placed at `m` is live where `v` is. Because
//! coloring never reads those edges, they decide only *where* a spilled
//! value lands, never *which* values spill — the same spill/placement
//! split as Bouchez, Darte & Rastello's "spill everywhere". This module
//! therefore runs after the one baseline allocation, over its spill
//! slots:
//!
//! * slots are visited in creation order, which is spill order;
//! * each goes first-fit to the lowest size-aligned CCM offset that no
//!   earlier interfering CCM slot ([`SlotAnalysis::adj`]) uses and that
//!   the other register class has never used (the per-class
//!   interference graphs cannot see each other);
//! * values live across calls keep the conservative intraprocedural
//!   convention and stay in main memory, so CCM contents can never be
//!   clobbered by a callee;
//! * the slots left in the frame are repacked in order, exactly where
//!   the allocator would have put them had the CCM slots taken no frame
//!   space.
//!
//! The result is byte-identical to running the allocator with the CCM
//! placement built into spill-code insertion, at a fraction of the cost.

use crate::placement::{moves_off, BaselineAnalysis, Placement, SlotMove};
use crate::postpass::{align_up, first_fit, FnPromotion};
use crate::slots::SlotAnalysis;
use crate::Degradation;
use iloc::{Function, Module};
use regalloc::{AllocConfig, AllocStats};

/// Statistics from integrated CCM placement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegratedStats {
    /// Spilled live ranges redirected into the CCM.
    pub ccm_spills: usize,
    /// Spilled live ranges sent to main memory (heavyweight).
    pub heavyweight_spills: usize,
    /// Highest CCM byte used.
    pub high_water: u32,
}

/// Places function `fi`, `f`, of an allocated module the integrated
/// way, pushing a move per slot whose home changes. Returns the counts
/// and, when CCM placement had to be abandoned for this function, the
/// reason; a degraded function keeps its baseline frame slots untouched.
fn place_function(
    f: &Function,
    fi: usize,
    analysis: &SlotAnalysis,
    ccm_size: u32,
    moves: &mut Vec<SlotMove>,
) -> FnPromotion {
    let mut stats = FnPromotion {
        name: f.name.clone(),
        promoted: 0,
        heavyweight: 0,
        high_water: 0,
        degraded: None,
    };
    if inject::faultpoint!("alloc.ccm_coloring") {
        return FnPromotion {
            heavyweight: f.frame.slots.len(),
            degraded: Some("injected CCM coloring failure".to_string()),
            ..stats
        };
    }
    if f.frame.slots.is_empty() {
        return stats;
    }
    let mut slots = f.frame.slots.clone();
    // CCM byte intervals per class; a slot may use none of the other
    // class's bytes.
    let mut used: [Vec<(u32, u32)>; 2] = [Vec::new(), Vec::new()];
    let mut frame_end = f.frame.locals_size;
    // The intervals a slot must avoid, gathered once per slot.
    let mut taken = Vec::new();
    for si in 0..analysis.n {
        debug_assert!(
            !slots[si].in_ccm,
            "integrated placement runs on a baseline allocation"
        );
        let (class, size) = (slots[si].class, slots[si].size());
        let placed = if analysis.crosses_call[si] {
            None
        } else {
            // Slots after `si` are still in the frame, so only earlier
            // CCM placements can clash.
            taken.clear();
            taken.extend(
                analysis.adj[si]
                    .iter()
                    .filter(|&t| slots[t].in_ccm)
                    .map(|t| (slots[t].offset, slots[t].size())),
            );
            taken.extend_from_slice(&used[1 - class.index()]);
            first_fit(0, size, ccm_size, &mut taken)
        };
        let slot = &mut slots[si];
        match placed {
            Some(off) => {
                used[class.index()].push((off, size));
                slot.offset = off;
                slot.in_ccm = true;
                stats.promoted += 1;
                stats.high_water = stats.high_water.max(off + size);
            }
            None => {
                // Exactly where `FrameInfo::new_slot` would have put it
                // had the CCM slots never taken frame space.
                slot.offset = align_up(frame_end, size);
                frame_end = slot.offset + size;
                stats.heavyweight += 1;
            }
        }
    }
    moves_off(fi, &f.frame.slots, &slots, moves);
    stats
}

/// The integrated allocator's [`Placement`] of baseline allocation `m`
/// (every spill slot still in the frame), by its shared `analysis`.
/// Each function is placed on its own; the intraprocedural convention
/// (no call-crossing values in CCM) makes cross-function offset reuse
/// safe. A function's `promoted` count is its CCM spills and its
/// `heavyweight` count its slots left in the frame.
pub(crate) fn integrated_placement(
    m: &Module,
    analysis: &BaselineAnalysis,
    ccm_size: u32,
) -> Placement {
    if inject::faultpoint!("alloc.panic") {
        panic!("injected allocator panic (integrated)");
    }
    let mut moves = Vec::new();
    let functions = (m.functions.iter().enumerate())
        .map(|(fi, f)| place_function(f, fi, &analysis.slots[fi], ccm_size, &mut moves))
        .collect();
    Placement::new(functions, moves)
}

/// The integrated CCM allocator as a placement pass over an allocated
/// module: [`Placement::apply`] of its placement. Returns the summed
/// placement stats and every function that degraded to heavyweight
/// spilling.
pub fn integrated_promote(m: &mut Module, ccm_size: u32) -> (IntegratedStats, Vec<Degradation>) {
    let placement = integrated_placement(m, &BaselineAnalysis::compute(m), ccm_size);
    placement.apply_to(m);
    let mut total = IntegratedStats::default();
    for p in &placement.functions {
        total.ccm_spills += p.promoted;
        total.heavyweight_spills += p.heavyweight;
        total.high_water = total.high_water.max(p.high_water);
    }
    (total, placement.degradations())
}

/// Runs the integrated allocator: the Chaitin-Briggs allocation, then
/// [`integrated_promote`]. Returns the allocator stats, the placement
/// stats and the functions that degraded to heavyweight spilling.
pub fn allocate_module_integrated(
    m: &mut Module,
    cfg: &AllocConfig,
    ccm_size: u32,
) -> (AllocStats, IntegratedStats, Vec<Degradation>) {
    let alloc = regalloc::allocate_module(m, cfg);
    let (stats, degradations) = integrated_promote(m, ccm_size);
    (alloc, stats, degradations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postpass::overlaps;
    use iloc::builder::FuncBuilder;
    use iloc::{Module, RegClass, SpillKind};

    fn wide_module(width: usize) -> Module {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let vals: Vec<_> = (0..width).map(|i| fb.loadi(i as i64)).collect();
        let mut acc = vals[width - 1];
        for v in vals[..width - 1].iter().rev() {
            acc = fb.add(acc, *v);
        }
        fb.ret(&[acc]);
        let mut m = Module::new();
        m.push_function(fb.finish());
        m
    }

    #[test]
    fn integrated_spills_go_to_ccm() {
        let mut m = wide_module(14);
        let (alloc, ccm, _) = allocate_module_integrated(&mut m, &AllocConfig::tiny(4), 512);
        assert!(alloc.total_spilled() > 0);
        assert_eq!(ccm.ccm_spills, alloc.total_spilled());
        assert_eq!(ccm.heavyweight_spills, 0);
        m.verify().unwrap();
        // All spill instructions are CCM ops.
        for b in &m.functions[0].blocks {
            for i in &b.instrs {
                if i.spill != SpillKind::None {
                    assert!(i.op.is_ccm_op());
                }
            }
        }
        let (v, metrics) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![(0..14).sum::<i64>()]);
        assert!(metrics.ccm_ops > 0);
        assert_eq!(metrics.main_mem_ops, 0);
    }

    #[test]
    fn integrated_beats_baseline_cycles() {
        let mut base = wide_module(16);
        let mut ccm_m = base.clone();
        regalloc::allocate_module(&mut base, &AllocConfig::tiny(4));
        allocate_module_integrated(&mut ccm_m, &AllocConfig::tiny(4), 512);
        let (v0, m0) = sim::run_module(&base, sim::MachineConfig::default(), "main").unwrap();
        let (v1, m1) = sim::run_module(&ccm_m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v0, v1);
        assert!(m1.cycles < m0.cycles, "integrated CCM must be faster");
    }

    #[test]
    fn zero_sized_ccm_degenerates_to_baseline() {
        let mut a = wide_module(14);
        let mut b = a.clone();
        regalloc::allocate_module(&mut a, &AllocConfig::tiny(4));
        let (_, ccm, _) = allocate_module_integrated(&mut b, &AllocConfig::tiny(4), 0);
        assert_eq!(ccm.ccm_spills, 0);
        assert!(ccm.heavyweight_spills > 0);
        assert_eq!(a.to_string(), b.to_string(), "byte-identical to baseline");
    }

    #[test]
    fn heavyweight_slots_repack_below_ccm_placed_ones() {
        // A CCM with room for two integer slots: the rest stay in the
        // frame, packed from the bottom as if the CCM slots took no
        // frame space.
        let mut m = wide_module(40);
        let (_, ccm, _) = allocate_module_integrated(&mut m, &AllocConfig::tiny(3), 8);
        assert!(ccm.ccm_spills > 0 && ccm.heavyweight_spills > 0);
        let frame = &m.functions[0].frame;
        let mut offsets: Vec<u32> = frame
            .slots
            .iter()
            .filter(|s| !s.in_ccm)
            .map(|s| s.offset)
            .collect();
        let expected: Vec<u32> = (0..offsets.len() as u32)
            .map(|i| frame.locals_size + 4 * i)
            .collect();
        offsets.sort_unstable();
        assert_eq!(offsets, expected);
        assert_eq!(frame.spill_bytes(), 4 * ccm.heavyweight_spills as u32);
    }

    #[test]
    fn call_crossing_values_stay_heavyweight() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        // Values live across the call, forcing spills with k=3.
        let vals: Vec<_> = (0..8).map(|i| fb.loadi(i)).collect();
        let r = fb.call("leaf", &[], &[RegClass::Gpr]);
        let mut acc = r[0];
        for v in &vals {
            acc = fb.add(acc, *v);
        }
        fb.ret(&[acc]);

        let mut leaf = FuncBuilder::new("leaf");
        leaf.set_ret_classes(&[RegClass::Gpr]);
        let x = leaf.loadi(1000);
        leaf.ret(&[x]);

        let mut m = Module::new();
        m.push_function(fb.finish());
        m.push_function(leaf.finish());
        let (_, ccm, _) = allocate_module_integrated(&mut m, &AllocConfig::tiny(3), 512);
        assert!(
            ccm.heavyweight_spills > 0,
            "call-crossing spills must go to main memory"
        );
        let (v, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![1000 + (0..8).sum::<i64>()]);
    }

    #[test]
    fn tiny_ccm_mixes_ccm_and_heavyweight() {
        let mut m = wide_module(40);
        let (_, ccm, _) = allocate_module_integrated(&mut m, &AllocConfig::tiny(3), 8);
        assert!(ccm.ccm_spills > 0);
        assert!(ccm.heavyweight_spills > 0);
        assert!(ccm.high_water <= 8);
        let (v, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![(0..40).sum::<i64>()]);
    }

    #[test]
    fn classes_never_share_ccm_bytes() {
        // Force both integer and float spills into a small CCM.
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let ints: Vec<_> = (0..10).map(|i| fb.loadi(i)).collect();
        let floats: Vec<_> = (0..10).map(|i| fb.loadf(i as f64)).collect();
        let mut iacc = ints[9];
        for v in ints[..9].iter().rev() {
            iacc = fb.add(iacc, *v);
        }
        let mut facc = floats[9];
        for v in floats[..9].iter().rev() {
            facc = fb.fadd(facc, *v);
        }
        let conv = fb.i2f(iacc);
        let out = fb.fadd(conv, facc);
        fb.ret(&[out]);
        let mut m = Module::new();
        m.push_function(fb.finish());
        allocate_module_integrated(&mut m, &AllocConfig::tiny(4), 64);
        // Collect CCM intervals per class from the frame and check
        // pairwise disjointness across classes.
        let f = &m.functions[0];
        let mut by_class: [Vec<(u32, u32)>; 2] = [Vec::new(), Vec::new()];
        for s in &f.frame.slots {
            if s.in_ccm {
                by_class[s.class.index()].push((s.offset, s.size()));
            }
        }
        for a in &by_class[0] {
            for b in &by_class[1] {
                assert!(!overlaps(*a, *b), "cross-class CCM overlap: {a:?} vs {b:?}");
            }
        }
        let (v, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.floats, vec![45.0 + 45.0]);
    }
}
