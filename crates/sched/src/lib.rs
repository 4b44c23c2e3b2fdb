#![warn(missing_docs)]
//! A local list scheduler for the ILOC-like IR.
//!
//! The paper stops short of studying scheduling (§4.3: it "can
//! simultaneously hide the memory latencies and cause added spilling due
//! to increased register pressure") — this crate builds the tool needed
//! to study it. [`schedule_function`] performs forward list scheduling
//! over each basic block's dependence [`Dag`], ordering ready
//! instructions by critical-path priority so long-latency loads issue as
//! early as their operands allow.
//!
//! Run it **before** register allocation and loads migrate toward the top
//! of the block, lengthening live ranges (the pressure effect the paper
//! warns about); run it **after** allocation and it fills load-delay
//! slots within the constraints of the assigned registers. The harness's
//! `--sched` experiment measures both on a pipelined machine model, and
//! shows the paper's §1 claim that CCM restores scheduling freedom: a
//! one-cycle `restore` needs no hiding at all.
//!
//! # Example
//!
//! ```
//! use iloc::builder::FuncBuilder;
//! use iloc::RegClass;
//!
//! // A load whose result is used immediately, with independent work
//! // below it: scheduling pulls the independent work between them.
//! let mut fb = FuncBuilder::new("f");
//! fb.set_ret_classes(&[RegClass::Gpr]);
//! let base = fb.loadsym("g");
//! let l = fb.loadai(base, 0);
//! let u = fb.addi(l, 1);
//! let indep = fb.loadi(5);
//! let s = fb.add(u, indep);
//! fb.ret(&[s]);
//! let mut f = fb.finish();
//!
//! let stats = sched::schedule_function(&mut f, 2);
//! assert!(stats.instrs_moved > 0);
//! iloc::verify_function(&f).unwrap();
//! ```

pub mod dag;

pub use dag::{latency, Dag};

use iloc::{Function, Module};

/// Statistics from scheduling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Blocks whose instruction order changed.
    pub blocks_changed: usize,
    /// Instructions that moved from their original position.
    pub instrs_moved: usize,
}

/// List-schedules every block of `f` using a single-issue machine model
/// where main-memory operations take `mem_latency` cycles. The relative
/// order of dependent instructions is preserved exactly; independent
/// instructions are reordered by critical-path priority.
pub fn schedule_function(f: &mut Function, mem_latency: u64) -> SchedStats {
    let mut stats = SchedStats::default();
    for b in f.block_ids().collect::<Vec<_>>() {
        let block = f.block(b);
        let n = block.instrs.len();
        if n <= 2 {
            continue;
        }
        let dag = Dag::build(block, mem_latency);

        // Forward list scheduling on a 1-wide machine. `ready_at[i]` is
        // the earliest cycle instruction i may issue given its
        // predecessors' completion times.
        let mut preds_remaining = dag.preds_remaining.clone();
        let mut ready_at: Vec<u64> = vec![0; n];
        let mut ready: Vec<usize> = (0..n).filter(|&i| preds_remaining[i] == 0).collect();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut clock: u64 = 0;

        while order.len() < n {
            // Choose the highest-priority ready instruction that can issue
            // now; if none can, the one that becomes ready soonest.
            let pick_pos = ready
                .iter()
                .enumerate()
                .min_by_key(|(_, &i)| {
                    (
                        ready_at[i].max(clock),     // earliest issue
                        u64::MAX - dag.priority[i], // then max priority
                        i,                          // then source order
                    )
                })
                .map(|(pos, _)| pos)
                .expect("acyclic DAG always has a ready instruction");
            let i = ready.swap_remove(pick_pos);
            clock = ready_at[i].max(clock);
            let finish = clock + latency(&f.block(b).instrs[i].op, mem_latency);
            clock += 1; // single issue
            order.push(i);
            for &s in &dag.succs[i] {
                ready_at[s] = ready_at[s].max(finish);
                preds_remaining[s] -= 1;
                if preds_remaining[s] == 0 {
                    ready.push(s);
                }
            }
        }

        let moved = order
            .iter()
            .enumerate()
            .filter(|(pos, &i)| *pos != i)
            .count();
        if moved > 0 {
            stats.blocks_changed += 1;
            stats.instrs_moved += moved;
            let old = std::mem::take(&mut f.block_mut(b).instrs);
            let mut new = Vec::with_capacity(n);
            let mut old: Vec<Option<iloc::Instr>> = old.into_iter().map(Some).collect();
            for i in order {
                new.push(old[i].take().expect("each index scheduled once"));
            }
            f.block_mut(b).instrs = new;
        }
    }
    stats
}

/// Schedules every function in the module.
pub fn schedule_module(m: &mut Module, mem_latency: u64) -> SchedStats {
    let mut total = SchedStats::default();
    for f in &mut m.functions {
        let s = schedule_function(f, mem_latency);
        total.blocks_changed += s.blocks_changed;
        total.instrs_moved += s.instrs_moved;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{verify_function, Op, RegClass};

    #[test]
    fn schedule_preserves_dependences_and_semantics() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let base = fb.loadsym("g");
        let init = fb.loadi(21);
        fb.storeai(init, base, 0);
        let l = fb.loadai(base, 0);
        let dbl = fb.multi(l, 2);
        let unrelated = fb.loadi(5);
        let s = fb.add(dbl, unrelated);
        fb.ret(&[s]);
        let mut m = iloc::Module::new();
        m.push_global(iloc::Global::zeroed("g", 8));
        m.push_function(fb.finish());

        let (v0, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        let stats = schedule_module(&mut m, 2);
        assert!(
            stats.instrs_moved > 0,
            "the independent loadI should move up"
        );
        verify_function(&m.functions[0]).unwrap();
        let (v1, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v0, v1);
        assert_eq!(v1.ints, vec![47]);
    }

    #[test]
    fn terminator_stays_last() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let b = fb.loadi(2);
        let c = fb.add(a, b);
        fb.ret(&[c]);
        let mut f = fb.finish();
        schedule_function(&mut f, 2);
        assert!(f.blocks[0].instrs.last().unwrap().op.is_terminator());
        verify_function(&f).unwrap();
    }

    #[test]
    fn loads_hoisted_above_independent_work() {
        // load; then 3 independent arithmetic ops; then a use of the load.
        // After scheduling, the load should still be first (it already is)
        // but the *use* should sink below the arithmetic because the load
        // needs 2 cycles. Build the reverse: arithmetic first, then load,
        // then use — the load should float up.
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let base = fb.loadsym("g"); // 0
        let a = fb.loadi(1); // 1
        let b = fb.addi(a, 2); // 2
        let c = fb.addi(b, 3); // 3
        let l = fb.loadai(base, 0); // 4: independent of 1-3
        let s = fb.add(c, l); // 5
        fb.ret(&[s]);
        let mut f = fb.finish();
        schedule_function(&mut f, 2);
        // Find positions of the load and the addi chain.
        let pos_of = |f: &iloc::Function, pred: &dyn Fn(&Op) -> bool| {
            f.blocks[0].instrs.iter().position(|i| pred(&i.op)).unwrap()
        };
        let load_pos = pos_of(&f, &|o| matches!(o, Op::LoadAI { .. }));
        let last_add = f.blocks[0]
            .instrs
            .iter()
            .rposition(|i| matches!(i.op, Op::IBinI { .. }))
            .unwrap();
        assert!(
            load_pos < last_add,
            "long-latency load should issue before the tail of the add chain:\n{f}"
        );
        verify_function(&f).unwrap();
    }

    #[test]
    fn scheduling_spilled_code_respects_slots() {
        // Allocate a spilling function, schedule post-RA, verify + rerun.
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let vals: Vec<_> = (0..12).map(|i| fb.loadi(i)).collect();
        let mut acc = vals[11];
        for v in vals[..11].iter().rev() {
            acc = fb.add(acc, *v);
        }
        fb.ret(&[acc]);
        let mut m = iloc::Module::new();
        m.push_function(fb.finish());
        regalloc::allocate_module(&mut m, &regalloc::AllocConfig::tiny(3));
        let (v0, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        schedule_module(&mut m, 2);
        m.verify().unwrap();
        let (v1, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v0, v1);
    }

    #[test]
    fn prera_scheduling_can_raise_pressure() {
        // Several independent load/use pairs: unscheduled, pressure is ~2;
        // scheduled with latency, all loads hoist and pressure grows.
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let base = fb.loadsym("g");
        let mut acc = fb.loadi(0);
        for i in 0..6 {
            let l = fb.loadai(base, i * 4);
            acc = fb.add(acc, l);
        }
        fb.ret(&[acc]);
        let mut f = fb.finish();
        let before = analysis::Liveness::max_pressure(&f, RegClass::Gpr);
        schedule_function(&mut f, 8); // long latency → aggressive hoisting
        let after = analysis::Liveness::max_pressure(&f, RegClass::Gpr);
        assert!(
            after > before,
            "scheduling should lengthen load ranges: {before} → {after}"
        );
    }
}
