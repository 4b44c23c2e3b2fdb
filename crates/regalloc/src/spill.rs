//! Spill-code insertion ("spill everywhere", the Chaitin discipline).
//!
//! Every spilled live range gets a fresh activation-record slot. Stores
//! after defs and loads before uses are tagged with their slot, so the
//! CCM passes that run after allocation (the `ccm` crate) can find the
//! spill traffic and move it into compiler-controlled memory.

use std::collections::{HashMap, HashSet};

use iloc::{Function, Instr, Op, Reg, RegClass, SlotId};

/// Inserts spill code for `spilled` registers. Returns the set of
/// temporaries created (they must get infinite spill cost next round).
pub fn insert_spill_code(f: &mut Function, spilled: &[Reg]) -> HashSet<Reg> {
    let slots: HashMap<Reg, SlotId> = spilled
        .iter()
        .map(|&v| (v, f.frame.new_slot(v.class())))
        .collect();

    let mut temps: HashSet<Reg> = HashSet::new();
    let spilled_set: HashSet<Reg> = spilled.iter().copied().collect();

    for b in f.block_ids().collect::<Vec<_>>() {
        let mut i = 0;
        while i < f.block(b).instrs.len() {
            let instr = f.block(b).instrs[i].clone();

            // Which spilled regs does it use / define?
            let mut used: Vec<Reg> = Vec::new();
            instr.op.visit_uses(|r| {
                if spilled_set.contains(&r) && !used.contains(&r) {
                    used.push(r);
                }
            });
            let mut defined: Vec<Reg> = Vec::new();
            instr.op.visit_defs(|r| {
                if spilled_set.contains(&r) && !defined.contains(&r) {
                    defined.push(r);
                }
            });
            if used.is_empty() && defined.is_empty() {
                i += 1;
                continue;
            }

            // Loads before: one fresh temp per spilled reg used here.
            let mut use_map: HashMap<Reg, Reg> = HashMap::new();
            for &v in &used {
                let t = f.new_vreg(v.class());
                temps.insert(t);
                use_map.insert(v, t);
                let load = load_instr(f, t, slots[&v]);
                f.block_mut(b).instrs.insert(i, load);
                i += 1;
            }
            // Stores after: fresh temp per def.
            let mut def_map: HashMap<Reg, Reg> = HashMap::new();
            for &v in &defined {
                let t = f.new_vreg(v.class());
                temps.insert(t);
                def_map.insert(v, t);
            }
            {
                let instr = &mut f.block_mut(b).instrs[i];
                instr.op.map_uses(|r| use_map.get(&r).copied().unwrap_or(r));
                instr.op.map_defs(|r| def_map.get(&r).copied().unwrap_or(r));
            }
            let mut after = i + 1;
            for &v in &defined {
                let store = store_instr(f, def_map[&v], slots[&v]);
                f.block_mut(b).instrs.insert(after, store);
                after += 1;
            }
            i = after;
        }
    }

    // Spilled parameters: store their incoming value at the very top of
    // the entry block (inserted last so the rewriting loop above never
    // mistakes these stores for ordinary uses).
    let entry = f.entry();
    let mut entry_stores: Vec<Instr> = Vec::new();
    for p in f.params.clone() {
        if let Some(&slot) = slots.get(&p) {
            entry_stores.push(store_instr(f, p, slot));
        }
    }
    for (k, instr) in entry_stores.into_iter().enumerate() {
        f.block_mut(entry).instrs.insert(k, instr);
    }

    temps
}

/// Rewrites spilled-but-rematerializable live ranges: every use of `v`
/// is fed by a fresh clone of its constant definition placed immediately
/// before the use, and the original definition is deleted — no memory
/// traffic at all (Briggs). Returns the fresh temporaries (unspillable
/// next round).
pub fn rematerialize_spills(f: &mut Function, spilled: &[(Reg, Op)]) -> HashSet<Reg> {
    let mut temps = HashSet::new();
    let map: HashMap<Reg, Op> = spilled.iter().cloned().collect();
    for b in f.block_ids().collect::<Vec<_>>() {
        let mut i = 0;
        while i < f.block(b).instrs.len() {
            // Delete original definitions of remat values.
            let defs = f.block(b).instrs[i].op.defs();
            if defs.len() == 1 && map.contains_key(&defs[0]) {
                f.block_mut(b).instrs.remove(i);
                continue;
            }
            // Re-issue the constant before each use.
            let mut used: Vec<Reg> = Vec::new();
            f.block(b).instrs[i].op.visit_uses(|r| {
                if map.contains_key(&r) && !used.contains(&r) {
                    used.push(r);
                }
            });
            for &v in &used {
                let t = f.new_vreg(v.class());
                temps.insert(t);
                let mut def = map[&v].clone();
                def.map_defs(|_| t);
                f.block_mut(b).instrs.insert(i, Instr::new(def));
                i += 1;
                f.block_mut(b).instrs[i]
                    .op
                    .map_uses(|r| if r == v { t } else { r });
            }
            i += 1;
        }
    }
    temps
}

/// Builds the tagged store of `value_reg` into frame slot `slot_id`.
fn store_instr(f: &Function, value_reg: Reg, slot_id: SlotId) -> Instr {
    let off = i64::from(f.frame.slot(slot_id).offset);
    let op = match value_reg.class() {
        RegClass::Gpr => Op::StoreAI {
            val: value_reg,
            addr: Reg::RARP,
            off,
        },
        RegClass::Fpr => Op::FStoreAI {
            val: value_reg,
            addr: Reg::RARP,
            off,
        },
    };
    Instr::spill_store(op, slot_id)
}

/// Builds the tagged reload into `temp` from frame slot `slot_id`.
fn load_instr(f: &Function, temp: Reg, slot_id: SlotId) -> Instr {
    let off = i64::from(f.frame.slot(slot_id).offset);
    let op = match temp.class() {
        RegClass::Gpr => Op::LoadAI {
            addr: Reg::RARP,
            off,
            dst: temp,
        },
        RegClass::Fpr => Op::FLoadAI {
            addr: Reg::RARP,
            off,
            dst: temp,
        },
    };
    Instr::spill_restore(op, slot_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::SpillKind;

    #[test]
    fn spill_everywhere_inserts_store_after_def_and_load_before_use() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(7);
        let b = fb.addi(a, 1);
        fb.ret(&[b]);
        let mut f = fb.finish();
        let temps = insert_spill_code(&mut f, &[a]);
        iloc::verify_function(&f).unwrap();
        assert_eq!(temps.len(), 2); // one def temp + one use temp
        let instrs = &f.block(f.entry()).instrs;
        // loadI → store(tag) → load(tag) → add → ret
        assert!(matches!(instrs[0].op, Op::LoadI { .. }));
        assert!(matches!(instrs[1].spill, SpillKind::Store(_)));
        assert!(matches!(instrs[2].spill, SpillKind::Restore(_)));
        assert_eq!(f.frame.slots.len(), 1);
        assert_eq!(f.frame.spill_bytes(), 4);
    }

    #[test]
    fn spilled_param_stored_at_entry() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let r = fb.addi(p, 1);
        fb.ret(&[r]);
        let mut f = fb.finish();
        insert_spill_code(&mut f, &[p]);
        iloc::verify_function(&f).unwrap();
        let first = &f.block(f.entry()).instrs[0];
        assert!(matches!(first.spill, SpillKind::Store(_)));
        assert!(matches!(first.op, Op::StoreAI { val, .. } if val == p));
    }

    #[test]
    fn float_spills_use_float_ops_and_eight_bytes() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let x = fb.loadf(1.5);
        let y = fb.fadd(x, x);
        fb.ret(&[y]);
        let mut f = fb.finish();
        insert_spill_code(&mut f, &[x]);
        iloc::verify_function(&f).unwrap();
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i.op, Op::FStoreAI { .. })));
        assert_eq!(f.frame.spill_bytes(), 8);
    }

    #[test]
    fn use_in_terminator_reloaded_before_it() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(3);
        fb.ret(&[a]);
        let mut f = fb.finish();
        insert_spill_code(&mut f, &[a]);
        iloc::verify_function(&f).unwrap();
        let instrs = &f.block(f.entry()).instrs;
        let n = instrs.len();
        assert!(matches!(instrs[n - 2].spill, SpillKind::Restore(_)));
        assert!(instrs[n - 1].op.is_terminator());
    }

    #[test]
    fn double_use_in_one_instr_gets_one_reload() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(3);
        let s = fb.add(a, a);
        fb.ret(&[s]);
        let mut f = fb.finish();
        insert_spill_code(&mut f, &[a]);
        let reloads = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i.spill, SpillKind::Restore(_)))
            .count();
        assert_eq!(reloads, 1);
    }
}
