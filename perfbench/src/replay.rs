//! The layer calls `repro` makes for each workload, made one at a time on
//! one thread, each wrapped in a [`Tracer`] span.
//!
//! The replay calls the crates' public functions directly, in the order
//! `repro` reaches them, and issues each configuration once: `repro`
//! memoizes allocations and measurements per (unit, variant, CCM size),
//! so a configuration two tables share is computed once there too.
//!
//! Every configuration is checked against an independent reference: the
//! unit's pre-allocation module simulated once on virtual registers. The
//! allocated code must return bit-identical values, and the checker must
//! report no errors.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use iloc::Module;
use regalloc::AllocConfig;
use sim::{MachineConfig, RetValues};

use crate::trace::{Key, Tracer};

/// One benchmark workload, as `repro` runs it.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// `--table1 --table2 --table3 --table4`: the 64 suite kernels.
    Kernels,
    /// `--figure3 --figure4`: the 13 linked programs.
    Programs,
    /// `--fuzz cases --seed seed`: generated one-shot modules.
    Fuzz {
        /// Campaign seed.
        seed: u64,
        /// Number of cases.
        cases: usize,
    },
}

/// The CCM sizes of Tables 2/3 and Figures 3/4.
const TABLE_SIZES: [u32; 2] = [512, 1024];

/// Counters gathered at the layer boundaries.
#[derive(Debug, Default)]
pub struct Stats {
    /// Instructions in the built inputs (after scalar optimization for
    /// suite units; as generated for fuzz cases).
    pub input_instrs: u64,
    /// Allocation configurations issued: one per (unit, variant, CCM
    /// size), plus one per Table 1 allocation.
    pub configs: u64,
    /// Configurations that failed a check.
    pub failed: u64,
    /// First failure descriptions.
    pub failures: Vec<String>,
    /// `regalloc::allocate_module` calls.
    pub regalloc_calls: u64,
    /// Of those, calls on a unit already allocated by an earlier call:
    /// the Chaitin-Briggs result does not depend on variant or CCM size.
    pub regalloc_repeat_calls: u64,
    /// Live ranges spilled (regalloc calls only).
    pub spilled: u64,
    /// Copies coalesced (regalloc calls only).
    pub coalesced: u64,
    /// Build-color-spill rounds (regalloc calls only).
    pub rounds: u64,
    /// `ccm::postpass_promote` calls.
    pub promote_calls: u64,
    /// Spill slots promoted into the CCM.
    pub promoted_slots: u64,
    /// Spill slots left in main memory by the post-pass.
    pub heavyweight_slots: u64,
    /// Functions that degraded to heavyweight spills (post-pass and
    /// integrated).
    pub degraded_fns: u64,
    /// `ccm::allocate_module_integrated` calls.
    pub integrated_calls: u64,
    /// `ccm::compact_module` calls.
    pub compact_calls: u64,
    /// Spill bytes before compaction.
    pub compact_before: u64,
    /// Spill bytes after compaction.
    pub compact_after: u64,
    /// `checker::check_module` calls.
    pub checker_calls: u64,
    /// Error diagnostics.
    pub checker_errors: u64,
    /// `sim::run_module` calls on allocated code.
    pub sim_runs: u64,
    /// Instructions those runs executed.
    pub sim_instrs: u64,
    /// Cycles those runs took: the generated code's run time.
    pub gen_cycles: u64,
    /// Facts `run.py` checks against `repro`'s stdout, as a JSON object.
    pub facts: String,
}

impl Stats {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Builds the workload's input modules: the set-up step. Suite units go
/// through `suite::build_optimized`/`build_program`, fuzz cases through
/// `fuzz::gen_module`.
pub fn build_inputs(w: Workload, t: &mut Tracer) -> Vec<(u32, Module)> {
    let key = |layer, op, unit| Key {
        layer,
        op,
        unit,
        variant: "input",
        ccm: 0,
    };
    match w {
        Workload::Kernels => suite::kernels()
            .into_iter()
            .map(|k| {
                let u = t.unit(k.name);
                let m = t.span(key("suite", "build_optimized", u), || {
                    suite::build_optimized(&k)
                });
                (u, m)
            })
            .collect(),
        Workload::Programs => suite::programs()
            .into_iter()
            .map(|p| {
                let u = t.unit(p.name);
                let m = t.span(key("suite", "build_program", u), || {
                    suite::build_program(&p)
                });
                (u, m)
            })
            .collect(),
        Workload::Fuzz { seed, cases } => (0..cases)
            .map(|i| {
                let u = t.unit(&format!("case{i}"));
                let s = fuzz::case_seed(seed, i);
                let m = t.span(key("fuzz", "gen_module", u), || fuzz::gen_module(s));
                (u, m)
            })
            .collect(),
    }
}

/// The allocation variants, in `repro`'s order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    Baseline,
    PostPass,
    PostPassCallGraph,
    Integrated,
}

const VARIANTS: [Variant; 4] = [
    Variant::Baseline,
    Variant::PostPass,
    Variant::PostPassCallGraph,
    Variant::Integrated,
];

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::PostPass => "postpass",
            Variant::PostPassCallGraph => "postpass+cg",
            Variant::Integrated => "integrated",
        }
    }
}

/// What one measured configuration produced.
struct Measured {
    spilled: usize,
    cycles: u64,
    mem_cycles: u64,
    ccm_ops: u64,
}

struct Replay<'t> {
    t: &'t mut Tracer,
    st: Stats,
    /// Units a `regalloc::allocate_module` call has already seen.
    allocated: Vec<bool>,
}

fn same_values(a: &RetValues, b: &RetValues) -> bool {
    a.ints == b.ints
        && a.floats.len() == b.floats.len()
        && a.floats
            .iter()
            .zip(&b.floats)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn spill_bytes(m: &Module) -> u64 {
    m.functions
        .iter()
        .map(|f| u64::from(f.frame.spill_bytes()))
        .sum()
}

fn key(layer: &'static str, op: &'static str, unit: u32, variant: &'static str, ccm: u32) -> Key {
    Key {
        layer,
        op,
        unit,
        variant,
        ccm,
    }
}

impl Replay<'_> {
    fn name(&self, unit: u32) -> &str {
        &self.t.units[unit as usize]
    }

    /// Simulates the pre-allocation module: the reference every
    /// configuration of this unit must match.
    fn reference(&mut self, unit: u32, m: &Module) -> Option<RetValues> {
        let key = key("sim", "run_module", unit, "reference", 0);
        match self
            .t
            .span(key, || sim::run_module(m, MachineConfig::default(), "main"))
        {
            Ok((v, _)) => Some(v),
            Err(e) => {
                let what = format!("{}: reference simulation trapped: {e}", self.name(unit));
                self.st.fail(what);
                None
            }
        }
    }

    fn regalloc(&mut self, unit: u32, variant: &'static str, ccm: u32, m: &mut Module) -> usize {
        let key = key("regalloc", "allocate_module", unit, variant, ccm);
        let s = self.t.span(key, || {
            regalloc::allocate_module(m, &AllocConfig::default())
        });
        self.st.regalloc_calls += 1;
        let seen = &mut self.allocated[unit as usize];
        self.st.regalloc_repeat_calls += u64::from(*seen);
        *seen = true;
        self.st.spilled += s.spilled.iter().sum::<usize>() as u64;
        self.st.coalesced += s.coalesced.iter().sum::<usize>() as u64;
        self.st.rounds += s.rounds.iter().sum::<usize>() as u64;
        s.total_spilled()
    }

    fn allocate(&mut self, unit: u32, v: Variant, ccm: u32, m: &mut Module) -> usize {
        let label = v.label();
        match v {
            Variant::Baseline => self.regalloc(unit, label, ccm, m),
            Variant::PostPass | Variant::PostPassCallGraph => {
                let n = self.regalloc(unit, label, ccm, m);
                let cfg = ccm::PostpassConfig {
                    ccm_size: ccm,
                    interprocedural: v == Variant::PostPassCallGraph,
                };
                let key = key("ccm", "postpass_promote", unit, label, ccm);
                let promos = self.t.span(key, || ccm::postpass_promote(m, &cfg));
                self.st.promote_calls += 1;
                for p in promos {
                    self.st.promoted_slots += p.promoted as u64;
                    self.st.heavyweight_slots += p.heavyweight as u64;
                    self.st.degraded_fns += u64::from(p.degraded.is_some());
                }
                n
            }
            Variant::Integrated => {
                let key = key("ccm", "allocate_module_integrated", unit, label, ccm);
                let (a, _, degraded) = self.t.span(key, || {
                    ccm::allocate_module_integrated(m, &AllocConfig::default(), ccm)
                });
                self.st.integrated_calls += 1;
                self.st.degraded_fns += degraded.len() as u64;
                a.total_spilled()
            }
        }
    }

    /// Simulates allocated code and compares it with the reference.
    fn simulate(
        &mut self,
        unit: u32,
        variant: &'static str,
        machine: MachineConfig,
        m: &Module,
        reference: &RetValues,
    ) -> Option<sim::Metrics> {
        let key = key("sim", "run_module", unit, variant, machine.ccm_size);
        let ccm = machine.ccm_size;
        let run = self.t.span(key, || sim::run_module(m, machine, "main"));
        self.st.sim_runs += 1;
        match run {
            Ok((v, metrics)) => {
                self.st.sim_instrs += metrics.instrs;
                self.st.gen_cycles += metrics.cycles;
                if same_values(&v, reference) {
                    return Some(metrics);
                }
                let what = format!(
                    "{} {variant} @ {ccm} B: returned {v:?}, reference {reference:?}",
                    self.name(unit)
                );
                self.st.fail(what);
            }
            Err(e) => {
                let what = format!("{} {variant} @ {ccm} B: trapped: {e}", self.name(unit));
                self.st.fail(what);
            }
        }
        None
    }

    /// One configuration, as `repro`'s measurement path runs it:
    /// allocate, check, simulate. `None` when any step failed (counted).
    fn configuration(
        &mut self,
        unit: u32,
        base: &Module,
        reference: &RetValues,
        v: Variant,
        ccm: u32,
    ) -> Option<Measured> {
        self.st.configs += 1;
        let mut m = base.clone();
        let spilled = match catch_unwind(AssertUnwindSafe(|| self.allocate(unit, v, ccm, &mut m))) {
            Ok(n) => n,
            Err(_) => {
                let what = format!(
                    "{} {} @ {ccm} B: allocator panicked",
                    self.name(unit),
                    v.label()
                );
                self.st.fail(what);
                return None;
            }
        };
        let key = key("checker", "check_module", unit, v.label(), ccm);
        let diags = self.t.span(key, || {
            checker::check_module(&m, &checker::CheckerConfig::new(ccm))
        });
        self.st.checker_calls += 1;
        let errors = checker::errors(&diags).len() as u64;
        if errors > 0 {
            self.st.checker_errors += errors;
            let what = format!(
                "{} {} @ {ccm} B: {errors} checker error(s)",
                self.name(unit),
                v.label()
            );
            self.st.fail(what);
            return None;
        }
        let metrics =
            self.simulate(unit, v.label(), MachineConfig::with_ccm(ccm), &m, reference)?;
        Some(Measured {
            spilled,
            cycles: metrics.cycles,
            mem_cycles: metrics.mem_op_cycles,
            ccm_ops: metrics.ccm_ops,
        })
    }

    /// Table 1: Chaitin-Briggs allocation, then spill-memory compaction
    /// of every routine that spills, re-simulated as a correctness guard.
    /// Returns the `name before after` facts of the compacted routines.
    fn table1(&mut self, unit: u32, base: &Module, reference: &RetValues) -> Option<(u64, u64)> {
        self.st.configs += 1;
        let mut m = base.clone();
        self.regalloc(unit, "table1", 0, &mut m);
        let before = spill_bytes(&m);
        if before == 0 {
            return None;
        }
        let key = key("ccm", "compact_module", unit, "table1", 0);
        self.t.span(key, || ccm::compact_module(&mut m));
        let after = spill_bytes(&m);
        self.st.compact_calls += 1;
        self.st.compact_before += before;
        self.st.compact_after += after;
        self.simulate(unit, "table1", MachineConfig::default(), &m, reference)?;
        Some((before, after))
    }
}

/// Runs the workload's layer calls once, on the current thread.
pub fn replay(w: Workload, t: &mut Tracer) -> Stats {
    let inputs = build_inputs(w, t);
    let mut r = Replay {
        allocated: vec![false; t.units.len()],
        t,
        st: Stats::default(),
    };
    r.st.input_instrs = inputs.iter().map(|(_, m)| m.instr_count() as u64).sum();
    let refs: Vec<Option<RetValues>> = inputs.iter().map(|(u, m)| r.reference(*u, m)).collect();
    let mut facts = String::from("{");
    match w {
        Workload::Kernels => {
            let _ = write!(facts, "\"table1\":{{");
            let mut sep = "";
            for ((u, m), rv) in inputs.iter().zip(&refs) {
                let Some(rv) = rv else { continue };
                if let Some((before, after)) = r.table1(*u, m, rv) {
                    let _ = write!(facts, "{sep}\"{}\":[{before},{after}]", r.name(*u));
                    sep = ",";
                }
            }
            facts.push('}');
            for ccm in TABLE_SIZES {
                let _ = write!(facts, ",\"base{ccm}\":{{");
                let mut sep = "";
                for ((u, m), rv) in inputs.iter().zip(&refs) {
                    let Some(rv) = rv else { continue };
                    // `repro` measures the CCM variants only for kernels
                    // whose baseline spills (the tables list only those).
                    let Some(b) = r.configuration(*u, m, rv, Variant::Baseline, ccm) else {
                        continue;
                    };
                    if b.spilled == 0 {
                        continue;
                    }
                    let _ = write!(
                        facts,
                        "{sep}\"{}\":[{},{}]",
                        r.name(*u),
                        b.cycles,
                        b.mem_cycles
                    );
                    sep = ",";
                    for v in &VARIANTS[1..] {
                        r.configuration(*u, m, rv, *v, ccm);
                    }
                }
                facts.push('}');
            }
        }
        Workload::Programs => {
            let mut sep = "";
            for ccm in TABLE_SIZES {
                let _ = write!(facts, "{sep}\"base{ccm}\":{{");
                sep = ",";
                let mut row_sep = "";
                for ((u, m), rv) in inputs.iter().zip(&refs) {
                    let Some(rv) = rv else { continue };
                    let b = r.configuration(*u, m, rv, Variant::Baseline, ccm);
                    let best = VARIANTS[1..]
                        .iter()
                        .filter_map(|v| r.configuration(*u, m, rv, *v, ccm))
                        .map(|x| x.cycles)
                        .min();
                    if let (Some(b), Some(best)) = (b, best) {
                        let _ = write!(
                            facts,
                            "{row_sep}\"{}\":[{},{},{best}]",
                            r.name(*u),
                            b.cycles,
                            b.mem_cycles
                        );
                        row_sep = ",";
                    }
                }
                facts.push('}');
            }
        }
        Workload::Fuzz { .. } => {
            // The fuzz oracle's work list: every variant at every CCM
            // size, baseline first, per case.
            let sizes = fuzz::OracleConfig::default().ccm_sizes;
            let (mut spilling, mut ccm_active) = (0u64, 0u64);
            for ((u, m), rv) in inputs.iter().zip(&refs) {
                let Some(rv) = rv else { continue };
                let mut ccm_ops = 0;
                for (i, &ccm) in sizes.iter().enumerate() {
                    for v in VARIANTS {
                        let Some(x) = r.configuration(*u, m, rv, v, ccm) else {
                            continue;
                        };
                        if v == Variant::Baseline && i == 0 {
                            spilling += u64::from(x.spilled > 0);
                        }
                        if v != Variant::Baseline {
                            ccm_ops += x.ccm_ops;
                        }
                    }
                }
                ccm_active += u64::from(ccm_ops > 0);
            }
            let _ = write!(
                facts,
                "\"spilling\":{spilling},\"ccm_active\":{ccm_active},\"ccm_sizes\":{}",
                sizes.len()
            );
        }
    }
    facts.push('}');
    r.st.facts = facts;
    r.st
}
