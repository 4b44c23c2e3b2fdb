//! The post-pass CCM allocator (§3.1, Figure 1).
//!
//! Runs after conventional register allocation, over *allocated* code. It
//! discovers a subset of the spilled values that can safely and profitably
//! be relocated to the CCM and redirects their spill instructions there;
//! anything that does not fit stays in main memory as a heavyweight
//! spill. The allocator never generates new spills.
//!
//! Two interprocedural conventions, both from the paper:
//!
//! * **intraprocedural** — only slots not live across *any* call are
//!   promoted, so a routine's CCM contents can never be clobbered by a
//!   callee;
//! * **interprocedural** — a bottom-up walk of the call graph records each
//!   routine's CCM high-water mark; a caller may place a slot that is live
//!   across a call to `q` only above `q`'s mark. Routines on call-graph
//!   cycles are conservatively marked as using the entire CCM.

use iloc::{Function, Module, Op, SlotId, SpillSlot};

use crate::placement::{BaselineAnalysis, Placement, SlotMove};
use crate::slots::SlotAnalysis;

/// Configuration for the post-pass allocator.
#[derive(Clone, Copy, Debug)]
pub struct PostpassConfig {
    /// CCM capacity in bytes (512 or 1024 in the paper's evaluation).
    pub ccm_size: u32,
    /// Whether call-graph information may be used (the paper's "post-pass
    /// w/ call graph" column). Without it the conservative intraprocedural
    /// strategy applies.
    pub interprocedural: bool,
}

/// Per-function promotion results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnPromotion {
    /// Function name.
    pub name: String,
    /// Spill slots promoted into the CCM.
    pub promoted: usize,
    /// Spill slots left in main memory (heavyweight spills).
    pub heavyweight: usize,
    /// This routine's CCM high-water mark in bytes, *including* its
    /// callees' transitive usage.
    pub high_water: u32,
    /// When `Some`, CCM coloring was abandoned for this function and
    /// every slot stayed heavyweight; the string says why.
    pub degraded: Option<String>,
}

/// Runs the post-pass CCM allocator over the whole module. Code must
/// already be register-allocated (spill instructions tagged).
pub fn postpass_promote(m: &mut Module, cfg: &PostpassConfig) -> Vec<FnPromotion> {
    let placement = postpass_placement(m, &BaselineAnalysis::compute(m), cfg);
    placement.apply_to(m);
    placement.functions
}

/// The post-pass allocator's [`Placement`] of baseline allocation `m`,
/// by its shared `analysis`.
pub(crate) fn postpass_placement(
    m: &Module,
    analysis: &BaselineAnalysis,
    cfg: &PostpassConfig,
) -> Placement {
    if inject::faultpoint!("alloc.panic") {
        panic!("injected allocator panic (postpass)");
    }
    let n = m.functions.len();
    // Conservative: a routine on a cycle is assumed to use all of CCM.
    let mut high_water: Vec<u32> = (analysis.recursive.iter())
        .map(|&r| if r { cfg.ccm_size } else { 0 })
        .collect();
    let order = if cfg.interprocedural {
        analysis.bottom_up.clone()
    } else {
        (0..n).collect()
    };

    let mut out: Vec<Option<FnPromotion>> = vec![None; n];
    let mut moves = Vec::new();
    for fi in order {
        let callees = &analysis.site_callees[fi];
        let stats = place_function(
            &m.functions[fi],
            fi,
            &analysis.slots[fi],
            cfg,
            |site| {
                if !cfg.interprocedural {
                    // No call-graph info: any call-crossing slot is ineligible.
                    return cfg.ccm_size;
                }
                callees[site].map_or(cfg.ccm_size, |ci| high_water[ci])
            },
            &mut moves,
        );
        // Transitive high-water: own usage plus everything callees use.
        let mut hw = stats.high_water;
        if cfg.interprocedural {
            for &ci in &analysis.callees[fi] {
                hw = hw.max(high_water[ci]);
            }
        }
        if analysis.recursive[fi] {
            hw = cfg.ccm_size;
        }
        high_water[fi] = hw;
        out[fi] = Some(FnPromotion {
            high_water: hw,
            ..stats
        });
    }
    let functions = out.into_iter().map(|o| o.expect("all visited")).collect();
    Placement::new(functions, moves)
}

/// Places function `fi`'s slots, `f`, pushing a move per promoted slot.
/// `callee_high_water` maps a call site (an index into
/// [`SlotAnalysis::call_sites`]) to the lowest CCM offset a slot live
/// across that call may use.
fn place_function(
    f: &Function,
    fi: usize,
    analysis: &SlotAnalysis,
    cfg: &PostpassConfig,
    callee_high_water: impl Fn(usize) -> u32,
    moves: &mut Vec<SlotMove>,
) -> FnPromotion {
    // Per-slot base offset: the maximum high-water mark over the call
    // sites the slot is live across ("the 'beginning' of this search space
    // is the maximum of the CCM usage in the set of subroutines across
    // which the spilled value is live").
    let mut base = vec![0u32; analysis.n];
    for (site, cs) in analysis.call_sites.iter().enumerate() {
        let hw = callee_high_water(site);
        for &s in &cs.live_slots {
            base[s] = base[s].max(hw);
        }
    }

    let colored = color_function_slots(f, cfg, analysis, &base);
    let (placements, promoted, heavyweight, high_water) = match colored {
        Ok(c) => c,
        Err(reason) => {
            // Graceful degradation: abandon CCM allocation for this
            // function only. No slot moves, so the conventional
            // heavyweight spills stay exactly as the register allocator
            // produced them — the paper's §3.1 fallback, applied
            // wholesale.
            let heavyweight = (0..analysis.n)
                .filter(|&si| !f.frame.slot(SlotId(si as u32)).in_ccm && analysis.refs[si] > 0)
                .count();
            return FnPromotion {
                name: f.name.clone(),
                promoted: 0,
                heavyweight,
                high_water: 0,
                degraded: Some(reason),
            };
        }
    };

    // Move the promoted slots into the CCM.
    for (si, p) in placements.iter().enumerate() {
        let Some((offset, _)) = *p else { continue };
        moves.push(SlotMove {
            function: fi as u32,
            slot: si as u32,
            home: SpillSlot {
                offset,
                class: f.frame.slots[si].class,
                in_ccm: true,
            },
        });
    }

    FnPromotion {
        name: f.name.clone(),
        promoted,
        heavyweight,
        high_water,
        degraded: None,
    }
}

/// Colors one function's promotable slots into CCM offsets via the
/// paper's successive-location search. Returns per-slot placements plus
/// (promoted, heavyweight, high-water) counts, or a reason when coloring
/// must be abandoned for this function — an injected failure, or a
/// placement that breaches the CCM capacity invariant.
#[allow(clippy::type_complexity)]
fn color_function_slots(
    f: &Function,
    cfg: &PostpassConfig,
    analysis: &SlotAnalysis,
    base: &[u32],
) -> Result<(Vec<Option<(u32, u32)>>, usize, usize, u32), String> {
    if inject::faultpoint!("alloc.ccm_coloring") {
        return Err("injected CCM coloring failure".to_string());
    }
    let mut placements: Vec<Option<(u32, u32)>> = vec![None; analysis.n];
    let mut promoted = 0;
    let mut heavyweight = 0;
    let mut high_water = 0u32;
    // The placed neighbors' intervals, gathered once per slot.
    let mut taken = Vec::new();

    for slot_id in analysis.by_descending_cost() {
        let si = slot_id.index();
        let slot = *f.frame.slot(slot_id);
        if slot.in_ccm || analysis.refs[si] == 0 {
            continue;
        }
        let size = slot.size();
        taken.clear();
        taken.extend(
            analysis.adj[si]
                .iter()
                .filter_map(|other| placements[other]),
        );
        let found = first_fit(base[si], size, cfg.ccm_size, &mut taken);
        match found {
            Some(ccm_off) => {
                placements[si] = Some((ccm_off, size));
                promoted += 1;
                high_water = high_water.max(ccm_off + size);
            }
            None => heavyweight += 1,
        }
    }
    if high_water > cfg.ccm_size {
        return Err(format!(
            "coloring exceeded CCM capacity: high water {high_water} > {}",
            cfg.ccm_size
        ));
    }
    Ok((placements, promoted, heavyweight, high_water))
}

pub(crate) fn align_up(x: u32, align: u32) -> u32 {
    (x + align - 1) & !(align - 1)
}

#[cfg(test)]
pub(crate) fn overlaps(a: (u32, u32), b: (u32, u32)) -> bool {
    a.0 < b.0 + b.1 && b.0 < a.0 + a.1
}

/// The paper's successive-location search: the lowest `size`-aligned
/// offset at or above `start` whose `(offset, size)` byte interval
/// overlaps none of the `taken` intervals, or `None` when no such
/// interval ends at or below `limit`. `size` is a power of two.
///
/// `taken` is sorted by start and swept once: each interval that
/// overlaps the candidate moves it to the next aligned offset past that
/// interval's end, and the first interval that starts at or after the
/// candidate's end ends the search, as every later one does too. The
/// cost is the sort, whatever `limit` is (`ccmc` accepts any `u32` CCM
/// size).
///
/// All three slot placers call it once per slot, with the intervals of
/// that slot's already-placed interfering slots gathered into one reused
/// `Vec`: the post-pass colouring (`color_function_slots`), the
/// integrated placement (`place_function`, which adds every interval
/// the other register class holds) and spill-memory compaction
/// ([`compact_spill_memory`](crate::compact_spill_memory), with no
/// limit).
pub(crate) fn first_fit(
    start: u32,
    size: u32,
    limit: u32,
    taken: &mut [(u32, u32)],
) -> Option<u32> {
    taken.sort_unstable();
    let mut off = align_up(start, size);
    for &(t_off, t_size) in taken.iter() {
        if off.checked_add(size)? > limit || t_off >= off + size {
            break;
        }
        if t_off + t_size > off {
            off = align_up(t_off + t_size, size);
        }
    }
    (off.checked_add(size)? <= limit).then_some(off)
}

/// Points every tagged spill instruction of `f` at its slot's current
/// home: a CCM access at the offset of a slot in the CCM, a frame access
/// at the offset of a slot in the activation record.
/// [`Placement::apply`] and spill-memory compaction move slots, then call
/// this once per function they moved a slot of.
pub(crate) fn retarget_spill_ops(f: &mut Function) {
    let slots = &f.frame.slots;
    for instr in f.blocks.iter_mut().flat_map(|b| &mut b.instrs) {
        let Some(s) = instr.spill_slot() else {
            continue;
        };
        let SpillSlot {
            offset: off,
            in_ccm,
            ..
        } = slots[s.index()];
        match &mut instr.op {
            Op::StoreAI { off: o, .. }
            | Op::LoadAI { off: o, .. }
            | Op::FStoreAI { off: o, .. }
            | Op::FLoadAI { off: o, .. }
                if !in_ccm =>
            {
                *o = i64::from(off);
            }
            &mut Op::StoreAI { val, .. } => instr.op = Op::CcmStore { val, off },
            &mut Op::LoadAI { dst, .. } => instr.op = Op::CcmLoad { off, dst },
            &mut Op::FStoreAI { val, .. } => instr.op = Op::CcmFStore { val, off },
            &mut Op::FLoadAI { dst, .. } => instr.op = Op::CcmFLoad { off, dst },
            // A CCM access: CCM slots never move once placed.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{RegClass, SpillKind};
    use regalloc::{allocate_module, AllocConfig};

    /// The closure search `first_fit` replaced: try each aligned offset
    /// in turn against every taken interval.
    fn reference_first_fit(start: u32, size: u32, limit: u32, taken: &[(u32, u32)]) -> Option<u32> {
        let mut off = align_up(start, size);
        while off + size <= limit {
            if !taken.iter().any(|&p| overlaps((off, size), p)) {
                return Some(off);
            }
            off = align_up(off + 1, size);
        }
        None
    }

    /// Seeded random taken sets, unsorted and with overlapping, duplicate
    /// and equal-start intervals of sizes 4 and 8, against unaligned
    /// starts and limits that are 0, an exact fit, tight or `u32::MAX`.
    #[test]
    fn first_fit_matches_the_offset_by_offset_search() {
        let mut rng: u64 = 0xF1257;
        let mut below = |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        let (mut none, mut exact) = (0, 0);
        for case in 0..4000 {
            let size = [4, 8][below(2) as usize];
            let start = below(96) as u32;
            let mut taken: Vec<(u32, u32)> = (0..below(24))
                .map(|_| (below(160) as u32, [4, 8][below(2) as usize]))
                .collect();
            if let Some(&t) = taken.first() {
                // Duplicates and equal starts with the other size.
                taken.push(t);
                taken.push((t.0, 12 - t.1));
            }
            let want_unbounded = reference_first_fit(start, size, u32::MAX, &taken).unwrap();
            let limit = match below(5) {
                0 => 0,
                1 => want_unbounded + size,
                2 => want_unbounded + size - 1,
                3 => below(256) as u32,
                _ => u32::MAX,
            };
            let want = reference_first_fit(start, size, limit, &taken);
            let got = first_fit(start, size, limit, &mut taken.clone());
            assert_eq!(
                got, want,
                "case {case}: start {start} size {size} limit {limit} {taken:?}"
            );
            none += usize::from(want.is_none());
            exact += usize::from(want.is_some_and(|o| o + size == limit));
        }
        assert!(none > 800, "only {none} searches found no room");
        assert!(exact > 600, "only {exact} searches fit exactly");
    }

    /// Builds a module whose single function spills under a tiny register
    /// budget, then allocates it.
    fn spilled_leaf_module(width: usize, k: u32) -> Module {
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
        allocate_module(&mut m, &AllocConfig::tiny(k));
        m
    }

    #[test]
    fn leaf_spills_promote_fully_with_ample_ccm() {
        let mut m = spilled_leaf_module(12, 4);
        let slots_before = m.functions[0].frame.slots.len();
        assert!(slots_before > 0, "setup must spill");
        let stats = postpass_promote(
            &mut m,
            &PostpassConfig {
                ccm_size: 512,
                interprocedural: false,
            },
        );
        assert_eq!(stats[0].promoted, slots_before);
        assert_eq!(stats[0].heavyweight, 0);
        assert!(stats[0].high_water > 0);
        // All spill instructions became CCM ops.
        for b in &m.functions[0].blocks {
            for i in &b.instrs {
                if i.spill != SpillKind::None {
                    assert!(i.op.is_ccm_op(), "leftover main-memory spill: {:?}", i.op);
                }
            }
        }
        m.verify().unwrap();
    }

    #[test]
    fn promotion_preserves_results_and_saves_cycles() {
        let mut m = spilled_leaf_module(14, 4);
        let (v0, m0) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        postpass_promote(
            &mut m,
            &PostpassConfig {
                ccm_size: 512,
                interprocedural: false,
            },
        );
        let (v1, m1) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v0, v1, "promotion must not change results");
        assert!(m1.cycles < m0.cycles, "CCM spills must be cheaper");
        assert!(m1.ccm_ops > 0);
        assert_eq!(m1.instrs, m0.instrs, "post-pass adds no instructions");
    }

    #[test]
    fn tiny_ccm_leaves_heavyweight_spills() {
        let mut m = spilled_leaf_module(40, 3);
        let stats = postpass_promote(
            &mut m,
            &PostpassConfig {
                ccm_size: 8, // room for just two 4-byte slots
                interprocedural: false,
            },
        );
        assert!(stats[0].promoted >= 1);
        assert!(stats[0].heavyweight >= 1);
        assert!(stats[0].high_water <= 8);
        // Program still correct.
        let (v, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        let expected: i64 = (0..40).sum();
        assert_eq!(v.ints, vec![expected]);
    }

    /// A module where `main` keeps a value live across a call to `leaf`,
    /// and both spill.
    fn caller_callee_module(k: u32) -> Module {
        let mut leaf = FuncBuilder::new("leaf");
        leaf.set_ret_classes(&[RegClass::Gpr]);
        let vals: Vec<_> = (0..10).map(|i| leaf.loadi(i)).collect();
        let mut acc = vals[9];
        for v in vals[..9].iter().rev() {
            acc = leaf.add(acc, *v);
        }
        leaf.ret(&[acc]);

        let mut main = FuncBuilder::new("main");
        main.set_ret_classes(&[RegClass::Gpr]);
        let vals: Vec<_> = (0..10).map(|i| main.loadi(100 + i)).collect();
        let r = main.call("leaf", &[], &[RegClass::Gpr]);
        let mut acc = r[0];
        for v in vals.iter() {
            acc = main.add(acc, *v);
        }
        main.ret(&[acc]);

        let mut m = Module::new();
        m.push_function(leaf.finish());
        m.push_function(main.finish());
        allocate_module(&mut m, &AllocConfig::tiny(k));
        m
    }

    #[test]
    fn intraprocedural_skips_call_crossing_slots() {
        let mut m = caller_callee_module(3);
        let sa = SlotAnalysis::compute(m.function("main").unwrap());
        let crossing = sa.crosses_call.iter().filter(|&&c| c).count();
        assert!(crossing > 0, "setup: some slot must cross the call");
        let stats = postpass_promote(
            &mut m,
            &PostpassConfig {
                ccm_size: 512,
                interprocedural: false,
            },
        );
        let main_stats = stats.iter().find(|s| s.name == "main").unwrap();
        assert!(
            main_stats.heavyweight >= crossing,
            "call-crossing slots must stay in main memory"
        );
        let (v, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![(0..10).sum::<i64>() + (100..110).sum::<i64>()]);
    }

    #[test]
    fn interprocedural_places_crossing_slots_above_callee_mark() {
        let mut m = caller_callee_module(3);
        let stats = postpass_promote(
            &mut m,
            &PostpassConfig {
                ccm_size: 512,
                interprocedural: true,
            },
        );
        let leaf_stats = stats.iter().find(|s| s.name == "leaf").unwrap();
        let main_stats = stats.iter().find(|s| s.name == "main").unwrap();
        assert!(leaf_stats.promoted > 0);
        // Interprocedural promotes call-crossing slots too.
        assert_eq!(main_stats.heavyweight, 0);
        assert!(main_stats.high_water >= leaf_stats.high_water);
        // main's call-crossing CCM slots must sit above leaf's mark.
        let mainf = m.function("main").unwrap();
        let sa = SlotAnalysis::compute(mainf);
        for (i, slot) in mainf.frame.slots.iter().enumerate() {
            if slot.in_ccm && sa.crosses_call[i] {
                assert!(
                    slot.offset >= leaf_stats.high_water,
                    "crossing slot at {} below leaf mark {}",
                    slot.offset,
                    leaf_stats.high_water
                );
            }
        }
        // Behavior preserved.
        let (v, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![(0..10).sum::<i64>() + (100..110).sum::<i64>()]);
    }

    #[test]
    fn recursive_functions_marked_full() {
        let mut f = FuncBuilder::new("rec");
        f.set_ret_classes(&[RegClass::Gpr]);
        let p = f.param(RegClass::Gpr);
        let one = f.loadi(1);
        let c = f.icmp(iloc::CmpKind::Le, p, one);
        let base = f.block("base");
        let recb = f.block("rec_case");
        f.cbr(c, base, recb);
        f.switch_to(base);
        let r = f.loadi(1);
        f.ret(&[r]);
        f.switch_to(recb);
        let nm1 = f.subi(p, 1);
        let sub = f.call("rec", &[nm1], &[RegClass::Gpr]);
        let out = f.mult(p, sub[0]);
        f.ret(&[out]);

        let mut main = FuncBuilder::new("main");
        main.set_ret_classes(&[RegClass::Gpr]);
        let five = main.loadi(5);
        let r = main.call("rec", &[five], &[RegClass::Gpr]);
        main.ret(&[r[0]]);

        let mut m = Module::new();
        m.push_function(f.finish());
        m.push_function(main.finish());
        allocate_module(&mut m, &AllocConfig::tiny(2));

        let stats = postpass_promote(
            &mut m,
            &PostpassConfig {
                ccm_size: 512,
                interprocedural: true,
            },
        );
        let rec_stats = stats.iter().find(|s| s.name == "rec").unwrap();
        assert_eq!(rec_stats.high_water, 512, "cycle members use all of CCM");
        let (v, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![120]);
    }

    #[test]
    fn ccm_slots_can_share_offsets_when_disjoint() {
        // With a nearly-full CCM, slots from disjoint program phases must
        // still promote by sharing offsets.
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        // Two independent wide computations, sequential.
        let mut total = fb.loadi(0);
        for round in 0..2 {
            let vals: Vec<_> = (0..8).map(|i| fb.loadi(round * 100 + i)).collect();
            let mut acc = vals[7];
            for v in vals[..7].iter().rev() {
                acc = fb.add(acc, *v);
            }
            total = fb.add(total, acc);
        }
        fb.ret(&[total]);
        let mut m = Module::new();
        m.push_function(fb.finish());
        allocate_module(&mut m, &AllocConfig::tiny(3));
        let slots = m.functions[0].frame.slots.len();
        assert!(slots >= 2);
        let stats = postpass_promote(
            &mut m,
            &PostpassConfig {
                ccm_size: 8,
                interprocedural: false,
            },
        );
        assert!(
            stats[0].promoted >= 2,
            "disjoint slots must share CCM words: {stats:?}"
        );
        let (v, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        let expected: i64 = (0..8).sum::<i64>() + (100..108).sum::<i64>();
        assert_eq!(v.ints, vec![expected]);
    }
}
