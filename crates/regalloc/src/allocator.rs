//! The Chaitin-Briggs allocation driver.
//!
//! Per register class: build the interference graph, conservatively
//! coalesce copies (Briggs), estimate spill costs, simplify/select with
//! optimistic spilling, insert spill code for the losers, and repeat until
//! everything colors; finally rewrite virtual registers to physical ones.

use std::collections::{HashMap, HashSet};

use iloc::{Function, Module, Op, Reg, RegClass};

use crate::color::color;
use crate::config::AllocConfig;
use crate::costs::SpillCosts;
use crate::entity::EntityIndex;
use crate::igraph::InterferenceGraph;
use crate::spill::{insert_spill_code, rematerialize_spills};

/// Statistics from allocating one function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Live ranges spilled, per class (GPR, FPR).
    pub spilled: [usize; 2],
    /// Copies coalesced, per class.
    pub coalesced: [usize; 2],
    /// Build-color-spill rounds, per class.
    pub rounds: [usize; 2],
    /// Spilled live ranges handled by rematerialization (no memory
    /// traffic), per class. Subset of `spilled`.
    pub rematerialized: [usize; 2],
}

impl AllocStats {
    /// Total live ranges spilled.
    pub fn total_spilled(&self) -> usize {
        self.spilled.iter().sum()
    }

    fn absorb(&mut self, other: &AllocStats) {
        for i in 0..2 {
            self.spilled[i] += other.spilled[i];
            self.coalesced[i] += other.coalesced[i];
            self.rounds[i] += other.rounds[i];
            self.rematerialized[i] += other.rematerialized[i];
        }
    }
}

/// Allocates registers for `f`. Every spilled live range gets a slot
/// in the activation record (main memory); the CCM passes of the `ccm`
/// crate may move those slots afterwards.
pub fn allocate_function(f: &mut Function, cfg: &AllocConfig) -> AllocStats {
    let mut stats = AllocStats::default();
    for class in RegClass::ALL {
        allocate_class(f, cfg, class, &mut stats);
    }
    debug_assert!(no_virtual_regs(f), "allocation left virtual registers");
    stats
}

/// Allocates every function in the module.
pub fn allocate_module(m: &mut Module, cfg: &AllocConfig) -> AllocStats {
    let mut total = AllocStats::default();
    for f in &mut m.functions {
        let s = allocate_function(f, cfg);
        total.absorb(&s);
    }
    total
}

fn allocate_class(f: &mut Function, cfg: &AllocConfig, class: RegClass, stats: &mut AllocStats) {
    let k = cfg.k(class);
    let ci = class.index();
    let mut unspillable: HashSet<Reg> = HashSet::new();

    loop {
        stats.rounds[ci] += 1;

        // Build + coalesce to fixpoint.
        let mut graph;
        loop {
            let idx = EntityIndex::build(f, class);
            graph = InterferenceGraph::build(f, idx);
            if !cfg.coalesce {
                break;
            }
            let merged = coalesce_pass(f, &mut graph, k);
            stats.coalesced[ci] += merged;
            if merged == 0 {
                break;
            }
        }

        if graph.entities.is_empty() {
            return;
        }

        // Rematerialization candidates: single-def constants.
        let remat_defs: HashMap<Reg, Op> = if cfg.rematerialize {
            remat_candidates(f, class)
        } else {
            HashMap::new()
        };
        let remat_set: HashSet<Reg> = remat_defs.keys().copied().collect();
        let costs = SpillCosts::compute_with_remat(f, &unspillable, &remat_set);
        let coloring = color(&graph, k, cfg.caller_saved, &costs);

        if coloring.spilled.is_empty() {
            // Rewrite to physical registers.
            let mut map: HashMap<Reg, Reg> = HashMap::new();
            for (&id, &c) in &coloring.colors {
                let r = graph.entities.reg(id);
                map.insert(r, Reg::new(class, cfg.physical_index(class, c)));
            }
            rewrite_regs(f, &map);
            return;
        }

        let spilled: Vec<Reg> = coloring
            .spilled
            .iter()
            .map(|&id| graph.entities.reg(id))
            .collect();
        stats.spilled[ci] += spilled.len();
        let (remat, heavy): (Vec<Reg>, Vec<Reg>) = spilled
            .into_iter()
            .partition(|v| remat_defs.contains_key(v));
        if !remat.is_empty() {
            stats.rematerialized[ci] += remat.len();
            let pairs: Vec<(Reg, Op)> = remat
                .into_iter()
                .map(|v| (v, remat_defs[&v].clone()))
                .collect();
            unspillable.extend(rematerialize_spills(f, &pairs));
        }
        if !heavy.is_empty() {
            let temps = insert_spill_code(f, &heavy);
            unspillable.extend(temps);
        }
    }
}

/// One conservative-coalescing pass: merges every Briggs-safe copy it can,
/// applying merges to the graph incrementally, then rewrites the code.
/// Returns the number of copies coalesced.
fn coalesce_pass(f: &mut Function, graph: &mut InterferenceGraph, k: u32) -> usize {
    let mut rename: HashMap<Reg, Reg> = HashMap::new();
    let resolve = |rename: &HashMap<Reg, Reg>, mut r: Reg| -> Reg {
        while let Some(&n) = rename.get(&r) {
            if n == r {
                break;
            }
            r = n;
        }
        r
    };

    let mut merged = 0;
    for b in f.block_ids().collect::<Vec<_>>() {
        for i in 0..f.block(b).instrs.len() {
            let (src, dst) = match &f.block(b).instrs[i].op {
                Op::I2I { src, dst } if graph.entities.class() == RegClass::Gpr => (*src, *dst),
                Op::F2F { src, dst } if graph.entities.class() == RegClass::Fpr => (*src, *dst),
                _ => continue,
            };
            let (src, dst) = (resolve(&rename, src), resolve(&rename, dst));
            if src == dst {
                continue;
            }
            if !src.is_virtual() || !dst.is_virtual() {
                continue;
            }
            let (is_, id_) = match (graph.entities.get(src), graph.entities.get(dst)) {
                (Some(a), Some(b)) => (a, b),
                _ => continue,
            };
            if graph.interferes(is_, id_) || !graph.briggs_safe(is_, id_, k as usize) {
                continue;
            }
            graph.merge(is_, id_);
            rename.insert(dst, src);
            merged += 1;
        }
    }

    if merged > 0 {
        // Rewrite registers and delete the now-trivial copies.
        for b in f.block_ids().collect::<Vec<_>>() {
            for i in 0..f.block(b).instrs.len() {
                let op = &mut f.block_mut(b).instrs[i].op;
                op.map_uses(|r| resolve(&rename, r));
                op.map_defs(|r| resolve(&rename, r));
            }
        }
        for p in &mut f.params {
            *p = resolve(&rename, *p);
        }
        f.remove_instrs(|i| match &i.op {
            Op::I2I { src, dst } | Op::F2F { src, dst } => src == dst,
            _ => false,
        });
    }
    merged
}

/// Finds single-definition constants of `class`: the Briggs
/// rematerialization candidates.
fn remat_candidates(f: &Function, class: RegClass) -> HashMap<Reg, Op> {
    let mut def_count: HashMap<Reg, usize> = HashMap::new();
    let mut def_op: HashMap<Reg, Op> = HashMap::new();
    for b in &f.blocks {
        for instr in &b.instrs {
            instr.op.visit_defs(|r| {
                *def_count.entry(r).or_insert(0) += 1;
            });
            if let Op::LoadI { dst, .. } | Op::LoadF { dst, .. } | Op::LoadSym { dst, .. } =
                &instr.op
            {
                if dst.class() == class && dst.is_virtual() {
                    def_op.insert(*dst, instr.op.clone());
                }
            }
        }
    }
    def_op.retain(|r, _| def_count.get(r) == Some(&1) && !f.params.contains(r));
    def_op
}

fn rewrite_regs(f: &mut Function, map: &HashMap<Reg, Reg>) {
    for b in f.block_ids().collect::<Vec<_>>() {
        for i in 0..f.block(b).instrs.len() {
            let op = &mut f.block_mut(b).instrs[i].op;
            op.map_uses(|r| map.get(&r).copied().unwrap_or(r));
            op.map_defs(|r| map.get(&r).copied().unwrap_or(r));
        }
    }
    for p in &mut f.params {
        if let Some(&n) = map.get(p) {
            *p = n;
        }
    }
}

/// Whether every register in `f` is physical (allocation is complete for
/// at least the classes already processed).
pub fn no_virtual_regs(f: &Function) -> bool {
    let mut ok = true;
    f.for_each_reg(|r| {
        if r.is_virtual() {
            ok = false;
        }
    });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{verify_function, SpillKind};

    fn wide_int_function(width: usize) -> Function {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let vals: Vec<_> = (0..width).map(|i| fb.loadi(i as i64)).collect();
        // Consume in reverse so everything stays live simultaneously.
        let mut acc = vals[width - 1];
        for v in vals[..width - 1].iter().rev() {
            acc = fb.add(acc, *v);
        }
        fb.ret(&[acc]);
        fb.finish()
    }

    #[test]
    fn no_spills_with_ample_registers() {
        let mut f = wide_int_function(8);
        let stats = allocate_function(&mut f, &AllocConfig::default());
        assert_eq!(stats.total_spilled(), 0);
        verify_function(&f).unwrap();
        assert!(no_virtual_regs(&f));
        assert_eq!(f.frame.slots.len(), 0);
    }

    #[test]
    fn spills_under_pressure_and_still_verifies() {
        let mut f = wide_int_function(12);
        let stats = allocate_function(&mut f, &AllocConfig::tiny(4));
        assert!(stats.total_spilled() > 0);
        verify_function(&f).unwrap();
        assert!(no_virtual_regs(&f));
        assert!(f.frame.spill_bytes() > 0);
        assert!(f.spill_instr_count() > 0);
    }

    #[test]
    fn physical_indices_respect_class_bounds() {
        let mut f = wide_int_function(12);
        let cfg = AllocConfig::tiny(4);
        allocate_function(&mut f, &cfg);
        f.for_each_reg(|r| {
            if r.class() == RegClass::Gpr && r != Reg::RARP {
                assert!(
                    (1..=cfg.gpr_k).contains(&r.index()),
                    "gpr index {} out of range",
                    r.index()
                );
            }
        });
    }

    #[test]
    fn copies_are_coalesced_away() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let b = fb.copy(a);
        let c = fb.copy(b);
        fb.ret(&[c]);
        let mut f = fb.finish();
        let stats = allocate_function(&mut f, &AllocConfig::default());
        assert_eq!(stats.coalesced[0], 2);
        // Both copies vanish.
        assert_eq!(f.instr_count(), 2);
        verify_function(&f).unwrap();
    }

    #[test]
    fn float_class_allocated_independently() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let xs: Vec<_> = (0..6).map(|i| fb.loadf(i as f64)).collect();
        let mut acc = xs[5];
        for x in xs[..5].iter().rev() {
            acc = fb.fadd(acc, *x);
        }
        fb.ret(&[acc]);
        let mut f = fb.finish();
        let stats = allocate_function(&mut f, &AllocConfig::tiny(3));
        assert!(stats.spilled[1] > 0);
        assert_eq!(stats.spilled[0], 0);
        verify_function(&f).unwrap();
        assert!(no_virtual_regs(&f));
    }

    #[test]
    fn spill_code_is_tagged() {
        let mut f = wide_int_function(12);
        allocate_function(&mut f, &AllocConfig::tiny(3));
        let tagged = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.spill != SpillKind::None)
            .count();
        assert!(tagged > 0);
        // Every tagged instruction is a main-memory access through RARP.
        for b in &f.blocks {
            for i in &b.instrs {
                if i.spill != SpillKind::None {
                    assert!(i.op.is_main_memory_op());
                }
            }
        }
    }

    #[test]
    fn params_allocated_to_distinct_registers() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let q = fb.param(RegClass::Gpr);
        let s = fb.add(p, q);
        fb.ret(&[s]);
        let mut f = fb.finish();
        allocate_function(&mut f, &AllocConfig::default());
        assert_ne!(f.params[0], f.params[1]);
        verify_function(&f).unwrap();
    }

    #[test]
    fn loop_heavy_function_allocates() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 0, dst: acc });
        fb.counted_loop(0, 100, 1, |fb, iv| {
            let t = fb.add(acc, iv);
            fb.emit(Op::I2I { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        let mut f = fb.finish();
        allocate_function(&mut f, &AllocConfig::tiny(3));
        verify_function(&f).unwrap();
        assert!(no_virtual_regs(&f));
    }
}

#[cfg(test)]
mod knob_tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::verify_function;

    /// With coalescing disabled the copies survive into the allocated
    /// code (as physical-register moves) and behavior is unchanged.
    #[test]
    fn no_coalesce_keeps_copies_and_stays_correct() {
        let build = || {
            let mut fb = FuncBuilder::new("main");
            fb.set_ret_classes(&[RegClass::Gpr]);
            let a = fb.loadi(5);
            let b = fb.copy(a);
            let c = fb.copy(b);
            let d = fb.addi(c, 1);
            fb.ret(&[d]);
            let mut m = iloc::Module::new();
            m.push_function(fb.finish());
            m
        };
        let mut with = build();
        let mut without = build();
        let cfg_on = AllocConfig::default();
        let cfg_off = AllocConfig {
            coalesce: false,
            ..AllocConfig::default()
        };
        let s_on = allocate_module(&mut with, &cfg_on);
        let s_off = allocate_module(&mut without, &cfg_off);
        assert!(s_on.coalesced[0] >= 2);
        assert_eq!(s_off.coalesced[0], 0);
        assert!(with.instr_count() < without.instr_count());
        for m in [&with, &without] {
            verify_function(&m.functions[0]).unwrap();
        }
        let cfg = sim::MachineConfig::default();
        let (va, _) = sim::run_module(&with, cfg.clone(), "main").unwrap();
        let (vb, _) = sim::run_module(&without, cfg, "main").unwrap();
        assert_eq!(va, vb);
    }

    /// Caller-saved restrictions can turn a colorable function into a
    /// spilling one — and the result still runs correctly.
    #[test]
    fn caller_saved_can_force_spills() {
        let build = || {
            let mut callee = FuncBuilder::new("leaf");
            callee.set_ret_classes(&[RegClass::Gpr]);
            let x = callee.loadi(100);
            callee.ret(&[x]);
            let mut fb = FuncBuilder::new("main");
            fb.set_ret_classes(&[RegClass::Gpr]);
            // Five values live across the call.
            let vals: Vec<_> = (0..5).map(|i| fb.loadi(i)).collect();
            let r = fb.call("leaf", &[], &[RegClass::Gpr]);
            let mut acc = r[0];
            for v in &vals {
                acc = fb.add(acc, *v);
            }
            fb.ret(&[acc]);
            let mut m = iloc::Module::new();
            m.push_function(callee.finish());
            m.push_function(fb.finish());
            m
        };
        // 6 colors, 4 caller-saved → only 2 callee-saved colors for the 5
        // call-crossing values.
        let mut m = build();
        let stats = allocate_module(
            &mut m,
            &AllocConfig {
                gpr_k: 6,
                fpr_k: 6,
                caller_saved: 4,
                ..AllocConfig::default()
            },
        );
        assert!(stats.total_spilled() > 0);
        let (v, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![100 + (0..5).sum::<i64>()]);

        // Without the convention the same program colors cleanly.
        let mut m2 = build();
        let stats2 = allocate_module(&mut m2, &AllocConfig::tiny(6));
        assert_eq!(stats2.total_spilled(), 0);
    }
}

#[cfg(test)]
mod remat_tests {
    use super::*;
    use iloc::builder::FuncBuilder;

    fn const_heavy() -> iloc::Module {
        // Many constants alive at once: prime remat material.
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let consts: Vec<_> = (0..10).map(|i| fb.loadi(i * 7 + 1)).collect();
        let p = fb.loadsym("g");
        let x = fb.loadai(p, 0);
        let mut acc = x;
        for c in &consts {
            acc = fb.add(acc, *c);
            acc = fb.mult(acc, *c);
        }
        fb.ret(&[acc]);
        let mut m = iloc::Module::new();
        m.push_global(iloc::Global::from_i32s("g", &[3]));
        m.push_function(fb.finish());
        m
    }

    #[test]
    fn remat_eliminates_spill_memory_traffic() {
        let mut plain = const_heavy();
        let mut remat = const_heavy();
        let cfg = AllocConfig::tiny(4);
        let s_plain = allocate_module(&mut plain, &cfg);
        let s_remat = allocate_module(
            &mut remat,
            &AllocConfig {
                rematerialize: true,
                ..cfg
            },
        );
        assert!(s_plain.total_spilled() > 0, "setup must spill");
        assert!(
            s_remat.rematerialized.iter().sum::<usize>() > 0,
            "constants must be rematerialized"
        );
        // Remat removes memory traffic relative to plain spilling.
        let mcfg = sim::MachineConfig::default();
        let (v0, m0) = sim::run_module(&plain, mcfg.clone(), "main").unwrap();
        let (v1, m1) = sim::run_module(&remat, mcfg, "main").unwrap();
        assert_eq!(v0, v1, "rematerialization preserves results");
        assert!(
            m1.main_mem_ops < m0.main_mem_ops,
            "remat must reduce memory ops: {} vs {}",
            m1.main_mem_ops,
            m0.main_mem_ops
        );
        assert!(m1.cycles < m0.cycles);
    }

    #[test]
    fn remat_handles_float_and_symbol_constants() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let consts: Vec<_> = (0..8).map(|i| fb.loadf(i as f64 + 0.5)).collect();
        let base = fb.loadsym("g");
        let x = fb.floadai(base, 0);
        let mut acc = x;
        for c in &consts {
            acc = fb.fadd(acc, *c);
            acc = fb.fmult(acc, *c);
        }
        // base reused late: loadSym is also a remat candidate.
        let y = fb.floadai(base, 8);
        acc = fb.fadd(acc, y);
        fb.ret(&[acc]);
        let mut m = iloc::Module::new();
        m.push_global(iloc::Global::from_f64s("g", &[1.25, 2.5]));
        m.push_function(fb.finish());
        let (v0, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        let stats = allocate_module(
            &mut m,
            &AllocConfig {
                rematerialize: true,
                ..AllocConfig::tiny(3)
            },
        );
        assert!(stats.rematerialized.iter().sum::<usize>() > 0);
        m.verify().unwrap();
        let (v1, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v0, v1);
    }

    #[test]
    fn multiply_defined_values_never_rematerialized() {
        // A value defined by loadI on one path and arithmetic on another
        // must go through normal spilling.
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let x = fb.vreg(RegClass::Gpr);
        let cond = fb.loadi(1);
        let t = fb.block("t");
        let e = fb.block("e");
        let j = fb.block("j");
        fb.cbr(cond, t, e);
        fb.switch_to(t);
        fb.emit(Op::LoadI { imm: 5, dst: x });
        fb.jump(j);
        fb.switch_to(e);
        let nine = fb.loadi(9);
        fb.emit(Op::I2I { src: nine, dst: x });
        fb.jump(j);
        fb.switch_to(j);
        // Pad with pressure so x spills.
        let vals: Vec<_> = (0..8).map(|i| fb.loadi(i)).collect();
        let mut acc = x;
        for v in &vals {
            acc = fb.add(acc, *v);
        }
        let out = fb.add(acc, x);
        fb.ret(&[out]);
        let mut m = iloc::Module::new();
        m.push_function(fb.finish());
        let (v0, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        allocate_module(
            &mut m,
            &AllocConfig {
                rematerialize: true,
                ..AllocConfig::tiny(3)
            },
        );
        m.verify().unwrap();
        let (v1, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v0, v1);
    }
}

/// Checks that allocated code respects the configuration's register
/// bounds: every GPR index is RARP or in `1..=gpr_k`, every FPR index in
/// `0..fpr_k`. Returns the first offending register.
pub fn check_register_bounds(f: &Function, cfg: &AllocConfig) -> Result<(), Reg> {
    let mut bad = None;
    f.for_each_reg(|r| {
        if bad.is_none() && !cfg.is_valid_physical(r) {
            bad = Some(r);
        }
    });
    match bad {
        Some(r) => Err(r),
        None => Ok(()),
    }
}

#[cfg(test)]
mod bounds_tests {
    use super::*;
    use iloc::builder::FuncBuilder;

    #[test]
    fn bounds_hold_after_allocation() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let vals: Vec<_> = (0..20).map(|i| fb.loadi(i)).collect();
        let mut acc = vals[19];
        for v in vals[..19].iter().rev() {
            acc = fb.add(acc, *v);
        }
        fb.ret(&[acc]);
        let mut f = fb.finish();
        let cfg = AllocConfig::tiny(4);
        allocate_function(&mut f, &cfg);
        check_register_bounds(&f, &cfg).expect("all registers within bounds");
    }

    #[test]
    fn bounds_detect_violations() {
        let mut fb = FuncBuilder::new("f");
        let bad = iloc::Reg::gpr(50); // beyond tiny(4)'s bound
        fb.emit(Op::LoadI { imm: 0, dst: bad });
        fb.ret(&[]);
        let f = fb.finish();
        assert_eq!(check_register_bounds(&f, &AllocConfig::tiny(4)), Err(bad));
    }
}
