//! Analysis over spill *locations* (§3.1 of the paper).
//!
//! The CCM allocators (post-pass and integrated) operate on the memory
//! slots holding spilled values rather than on register live ranges.
//! Their notion of liveness is the paper's: a spill location *m* is live
//! at point *p* if some execution path from *p* reaches a load of *m* —
//! it is *defined* by a spill store and *used* by a spill restore. From
//! that liveness we build an interference graph over slots, reference
//! counts, loop-weighted costs, and the per-call-site live sets the
//! interprocedural allocator consults.

use std::collections::HashSet;

use analysis::bitset::BitSet;
use analysis::{Dominators, LoopInfo};
use iloc::{BlockId, Function, Op, SlotId, SpillKind};

/// A call site together with the spill slots live across it.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The callee's name.
    pub callee: String,
    /// Dense slot indices live across the call.
    pub live_slots: Vec<usize>,
}

/// Liveness, interference, and cost information for a function's spill
/// slots.
#[derive(Clone, Debug)]
pub struct SlotAnalysis {
    /// Number of slots (== `f.frame.slots.len()`).
    pub n: usize,
    /// Slot interference: `adj[i]` holds the slots that are live
    /// simultaneously with slot `i` at some definition point.
    pub adj: Vec<HashSet<usize>>,
    /// Loop-weighted reference cost per slot (`Σ 10^depth` over its spill
    /// stores and restores) — the benefit of promoting it to the CCM.
    pub cost: Vec<f64>,
    /// Static count of spill instructions touching each slot.
    pub refs: Vec<u32>,
    /// Whether the slot is live across *any* call site.
    pub crosses_call: Vec<bool>,
    /// Every call site with its live-across slot set.
    pub call_sites: Vec<CallSite>,
    /// Per-block slot live-in sets (dense slot indices), the fixpoint of
    /// the §3.1 location-liveness equations. Retained so clients (the
    /// post-allocation checker in particular) can replay liveness at
    /// instruction granularity without re-solving the dataflow.
    pub live_in: Vec<BitSet>,
    /// Per-block slot live-out sets (union of successor live-ins).
    pub live_out: Vec<BitSet>,
}

impl SlotAnalysis {
    /// Computes the analysis for allocated code containing tagged spill
    /// instructions.
    pub fn compute(f: &Function) -> SlotAnalysis {
        let n = f.frame.slots.len();
        let mut out = SlotAnalysis {
            n,
            adj: vec![HashSet::new(); n],
            cost: vec![0.0; n],
            refs: vec![0; n],
            crosses_call: vec![false; n],
            call_sites: Vec::new(),
            live_in: vec![BitSet::new(n); f.blocks.len()],
            live_out: vec![BitSet::new(n); f.blocks.len()],
        };
        if n == 0 {
            return out;
        }

        let dom = Dominators::compute(f);
        let loops = LoopInfo::compute(f, &dom);

        // Costs and reference counts.
        for b in f.block_ids() {
            let w = loops.weight(b);
            for instr in &f.block(b).instrs {
                if let Some(s) = instr.spill_slot() {
                    out.cost[s.index()] += w;
                    out.refs[s.index()] += 1;
                }
            }
        }

        // Block-level slot liveness: gen = upward-exposed restores,
        // kill = stores.
        let n_blocks = f.blocks.len();
        let mut gens = vec![BitSet::new(n); n_blocks];
        let mut kills = vec![BitSet::new(n); n_blocks];
        for b in f.block_ids() {
            let bi = b.index();
            for instr in &f.block(b).instrs {
                match instr.spill {
                    SpillKind::Restore(s) => {
                        if !kills[bi].contains(s.index()) {
                            gens[bi].insert(s.index());
                        }
                    }
                    SpillKind::Store(s) => {
                        kills[bi].insert(s.index());
                    }
                    SpillKind::None => {}
                }
            }
        }
        let mut live_in = vec![BitSet::new(n); n_blocks];
        let mut order: Vec<BlockId> = f.reverse_postorder();
        order.reverse();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let bi = b.index();
                let mut out_set = BitSet::new(n);
                for s in f.successors(b) {
                    out_set.union_with(&live_in[s.index()]);
                }
                let mut inn = out_set;
                inn.subtract(&kills[bi]);
                inn.union_with(&gens[bi]);
                if inn != live_in[bi] {
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }

        // Backward walk: interference edges at slot definitions, and
        // live-across sets at call sites.
        for b in f.block_ids() {
            let mut live = BitSet::new(n);
            for s in f.successors(b) {
                live.union_with(&live_in[s.index()]);
            }
            out.live_out[b.index()] = live.clone();
            for instr in f.block(b).instrs.iter().rev() {
                if let Op::Call { callee, .. } = &instr.op {
                    let slots: Vec<usize> = live.iter().collect();
                    for &s in &slots {
                        out.crosses_call[s] = true;
                    }
                    out.call_sites.push(CallSite {
                        callee: callee.clone(),
                        live_slots: slots,
                    });
                }
                match instr.spill {
                    SpillKind::Store(s) => {
                        let si = s.index();
                        for l in live.iter() {
                            if l != si {
                                out.adj[si].insert(l);
                                out.adj[l].insert(si);
                            }
                        }
                        live.remove(si);
                    }
                    SpillKind::Restore(s) => {
                        live.insert(s.index());
                    }
                    SpillKind::None => {}
                }
            }
        }
        out.live_in = live_in;

        out
    }

    /// Whether slots `a` and `b` interfere (may not share storage).
    pub fn interferes(&self, a: SlotId, b: SlotId) -> bool {
        self.adj[a.index()].contains(&b.index())
    }

    /// Slots live on entry to `b`.
    pub fn live_in(&self, b: BlockId) -> &BitSet {
        &self.live_in[b.index()]
    }

    /// Slots live on exit from `b`.
    pub fn live_out(&self, b: BlockId) -> &BitSet {
        &self.live_out[b.index()]
    }

    /// Slots ordered by descending promotion benefit (cost, then index for
    /// determinism).
    pub fn by_descending_cost(&self) -> Vec<SlotId> {
        let mut ids: Vec<usize> = (0..self.n).collect();
        ids.sort_by(|&a, &b| {
            self.cost[b]
                .partial_cmp(&self.cost[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        ids.into_iter().map(|i| SlotId(i as u32)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{Instr, Reg, RegClass};

    /// Hand-builds a function with two spill slots whose lifetimes overlap
    /// (interfere) and a third disjoint one.
    fn two_overlapping_one_free() -> (Function, [SlotId; 3]) {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let v1 = fb.loadi(1);
        let v2 = fb.loadi(2);
        let v3 = fb.loadi(3);
        fb.ret(&[v1]);
        let mut f = fb.finish();
        let s0 = f.frame.new_slot(RegClass::Gpr);
        let s1 = f.frame.new_slot(RegClass::Gpr);
        let s2 = f.frame.new_slot(RegClass::Gpr);
        let offs: Vec<i64> = [s0, s1, s2]
            .iter()
            .map(|s| f.frame.slot(*s).offset as i64)
            .collect();
        // store s0; store s1; load s0; load s1;   (overlap)
        // store s2; load s2                        (disjoint from both)
        let e = f.entry();
        let mk_store = |slot: SlotId, val: Reg, off: i64| {
            Instr::spill_store(
                Op::StoreAI {
                    val,
                    addr: Reg::RARP,
                    off,
                },
                slot,
            )
        };
        let mk_load = |slot: SlotId, dst: Reg, off: i64| {
            Instr::spill_restore(
                Op::LoadAI {
                    addr: Reg::RARP,
                    off,
                    dst,
                },
                slot,
            )
        };
        let t0 = f.new_vreg(RegClass::Gpr);
        let t1 = f.new_vreg(RegClass::Gpr);
        let t2 = f.new_vreg(RegClass::Gpr);
        let seq = vec![
            mk_store(s0, v1, offs[0]),
            mk_store(s1, v2, offs[1]),
            mk_load(s0, t0, offs[0]),
            mk_load(s1, t1, offs[1]),
            mk_store(s2, v3, offs[2]),
            mk_load(s2, t2, offs[2]),
        ];
        for (i, instr) in seq.into_iter().enumerate() {
            f.block_mut(e).instrs.insert(3 + i, instr);
        }
        (f, [s0, s1, s2])
    }

    #[test]
    fn overlapping_slots_interfere_disjoint_do_not() {
        let (f, [s0, s1, s2]) = two_overlapping_one_free();
        let sa = SlotAnalysis::compute(&f);
        assert!(sa.interferes(s0, s1));
        assert!(!sa.interferes(s0, s2));
        assert!(!sa.interferes(s1, s2));
    }

    #[test]
    fn refs_and_costs_counted() {
        let (f, [s0, ..]) = two_overlapping_one_free();
        let sa = SlotAnalysis::compute(&f);
        assert_eq!(sa.refs[s0.index()], 2); // one store + one load
        assert_eq!(sa.cost[s0.index()], 2.0); // depth 0 → weight 1 each
    }

    #[test]
    fn slot_live_across_call_detected() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let v = fb.loadi(1);
        fb.call("g", &[], &[]);
        fb.ret(&[v]);
        let mut f = fb.finish();
        let s = f.frame.new_slot(RegClass::Gpr);
        let off = f.frame.slot(s).offset as i64;
        let e = f.entry();
        let t = f.new_vreg(RegClass::Gpr);
        // store before the call, load after → live across.
        f.block_mut(e).instrs.insert(
            1,
            Instr::spill_store(
                Op::StoreAI {
                    val: v,
                    addr: Reg::RARP,
                    off,
                },
                s,
            ),
        );
        f.block_mut(e).instrs.insert(
            3,
            Instr::spill_restore(
                Op::LoadAI {
                    addr: Reg::RARP,
                    off,
                    dst: t,
                },
                s,
            ),
        );
        let sa = SlotAnalysis::compute(&f);
        assert!(sa.crosses_call[s.index()]);
        assert_eq!(sa.call_sites.len(), 1);
        assert_eq!(sa.call_sites[0].callee, "g");
        assert_eq!(sa.call_sites[0].live_slots, vec![s.index()]);
    }

    #[test]
    fn slot_dead_during_call_not_marked() {
        // store, load, THEN call: slot is dead at the call.
        let mut fb = FuncBuilder::new("f");
        let v = fb.loadi(1);
        fb.call("g", &[], &[]);
        fb.ret(&[]);
        let mut f = fb.finish();
        let s = f.frame.new_slot(RegClass::Gpr);
        let off = f.frame.slot(s).offset as i64;
        let e = f.entry();
        let t = f.new_vreg(RegClass::Gpr);
        f.block_mut(e).instrs.insert(
            1,
            Instr::spill_store(
                Op::StoreAI {
                    val: v,
                    addr: Reg::RARP,
                    off,
                },
                s,
            ),
        );
        f.block_mut(e).instrs.insert(
            2,
            Instr::spill_restore(
                Op::LoadAI {
                    addr: Reg::RARP,
                    off,
                    dst: t,
                },
                s,
            ),
        );
        let sa = SlotAnalysis::compute(&f);
        assert!(!sa.crosses_call[s.index()]);
        assert!(sa.call_sites[0].live_slots.is_empty());
    }

    #[test]
    fn loop_slot_live_around_backedge() {
        // A slot stored before a loop and loaded inside it stays live
        // through the whole loop.
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let v = fb.loadi(1);
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 0, dst: acc });
        fb.counted_loop(0, 4, 1, |fb, _| {
            let t = fb.add(acc, v);
            fb.emit(Op::I2I { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        let mut f = fb.finish();
        let s = f.frame.new_slot(RegClass::Gpr);
        let off = f.frame.slot(s).offset as i64;
        // Store v into the slot at entry; reload it inside the loop body.
        let e = f.entry();
        f.block_mut(e).instrs.insert(
            1,
            Instr::spill_store(
                Op::StoreAI {
                    val: v,
                    addr: Reg::RARP,
                    off,
                },
                s,
            ),
        );
        let body = iloc::BlockId(2);
        let t = f.new_vreg(RegClass::Gpr);
        f.block_mut(body).instrs.insert(
            0,
            Instr::spill_restore(
                Op::LoadAI {
                    addr: Reg::RARP,
                    off,
                    dst: t,
                },
                s,
            ),
        );
        let sa = SlotAnalysis::compute(&f);
        // Reference inside the loop is weighted 10×.
        assert_eq!(sa.cost[s.index()], 1.0 + 10.0);
        assert_eq!(sa.by_descending_cost()[0], s);
    }

    #[test]
    fn block_liveness_is_exposed() {
        let (f, [s0, s1, s2]) = two_overlapping_one_free();
        let sa = SlotAnalysis::compute(&f);
        // Single-block function: everything is defined and consumed
        // inside the entry block, so nothing is live at its edges.
        let e = f.entry();
        assert_eq!(sa.live_in(e).count(), 0);
        assert_eq!(sa.live_out(e).count(), 0);
        let _ = (s0, s1, s2);
    }

    #[test]
    fn loop_liveness_crosses_block_edges() {
        // Reuses the backedge scenario: the slot stored at entry and
        // reloaded in the loop body is live-in at the body block.
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let v = fb.loadi(1);
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 0, dst: acc });
        fb.counted_loop(0, 4, 1, |fb, _| {
            let t = fb.add(acc, v);
            fb.emit(Op::I2I { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        let mut f = fb.finish();
        let s = f.frame.new_slot(RegClass::Gpr);
        let off = f.frame.slot(s).offset as i64;
        let e = f.entry();
        f.block_mut(e).instrs.insert(
            1,
            Instr::spill_store(
                Op::StoreAI {
                    val: v,
                    addr: Reg::RARP,
                    off,
                },
                s,
            ),
        );
        let body = iloc::BlockId(2);
        let t = f.new_vreg(RegClass::Gpr);
        f.block_mut(body).instrs.insert(
            0,
            Instr::spill_restore(
                Op::LoadAI {
                    addr: Reg::RARP,
                    off,
                    dst: t,
                },
                s,
            ),
        );
        let sa = SlotAnalysis::compute(&f);
        assert!(sa.live_in(body).contains(s.index()));
        assert!(sa.live_out(e).contains(s.index()));
    }

    #[test]
    fn empty_frame_is_trivial() {
        let mut fb = FuncBuilder::new("f");
        fb.ret(&[]);
        let f = fb.finish();
        let sa = SlotAnalysis::compute(&f);
        assert_eq!(sa.n, 0);
        assert!(sa.call_sites.is_empty());
    }
}
