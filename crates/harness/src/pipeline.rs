//! The compile-and-measure pipeline shared by all experiments.
//!
//! Failure is structured, not fatal: [`measure`] returns a
//! [`PipelineError`] with stage provenance (alloc / checker / sim)
//! instead of panicking, allocator panics are caught and converted, and
//! a function whose CCM slot coloring fails degrades to heavyweight
//! spills recorded as [`ccm::Degradation`] events on the
//! [`Measurement`] — the paper's §3.1 fallback, applied per function.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ccm::{AllocOutcome, Variant};
use iloc::Module;
use regalloc::AllocConfig;
use sim::{MachineConfig, Metrics};

use crate::error::{PipelineError, Stage};

/// The settings of one run, passed explicitly to every experiment:
/// the parallel engine's worker count (`--jobs`) and the simulator's
/// instruction budget (`--sim-budget`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Worker threads for the parallel engine.
    pub jobs: usize,
    /// Instruction steps every simulation may take before it traps.
    pub max_steps: u64,
}

impl Default for RunConfig {
    /// All available hardware threads and [`sim::DEFAULT_MAX_STEPS`].
    fn default() -> RunConfig {
        RunConfig {
            jobs: exec::available(),
            max_steps: sim::DEFAULT_MAX_STEPS,
        }
    }
}

impl RunConfig {
    /// The paper's machine with a `ccm_size`-byte CCM and this run's
    /// step budget.
    pub fn machine(&self, ccm_size: u32) -> MachineConfig {
        MachineConfig {
            max_steps: self.max_steps,
            ..MachineConfig::with_ccm(ccm_size)
        }
    }
}

/// One measured configuration of one module.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Dynamic cycle count.
    pub cycles: u64,
    /// Cycles spent in memory operations (main memory + CCM).
    pub mem_cycles: u64,
    /// Full metric set.
    pub metrics: Metrics,
    /// The checksum the program returned (for equivalence checking).
    pub checksum: f64,
    /// Bytes of main-memory spill space across all functions.
    pub spill_bytes: u32,
    /// Live ranges spilled during allocation.
    pub spilled_ranges: usize,
    /// Functions that fell back from CCM allocation to heavyweight
    /// spills (graceful degradation events, not errors).
    pub degraded: Vec<ccm::Degradation>,
}

/// Runs the post-allocation static checker on an allocated module,
/// returning every diagnostic (the structural verifier is one of its
/// passes, so this subsumes `m.verify()`).
pub fn check_allocated(m: &Module, ccm_size: u32) -> Vec<checker::Diagnostic> {
    checker::check_module(m, &checker::CheckerConfig::new(ccm_size))
}

/// Runs allocation work `f` for `unit` with panics contained: a panic
/// inside register allocation or CCM promotion becomes a `stage=alloc`
/// [`PipelineError`] instead of unwinding through the campaign. The
/// error carries no (variant, CCM size) coordinates; callers attach
/// them.
///
/// # Errors
///
/// Returns the structured allocation failure.
pub fn contain_alloc<T>(unit: &str, f: impl FnOnce() -> T) -> Result<T, PipelineError> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|p| PipelineError::new(Stage::Alloc, unit, exec::render_payload(p.as_ref())))
}

/// [`ccm::allocate_variant`] under the default register supply, with
/// allocator panics contained ([`contain_alloc`]) and reported at
/// (`variant`, `ccm_size`).
///
/// # Errors
///
/// Returns the structured allocation failure.
pub fn allocate_contained(
    m: &mut Module,
    unit: &str,
    variant: Variant,
    ccm_size: u32,
) -> Result<AllocOutcome, PipelineError> {
    let mut scratch = std::mem::take(m);
    let (allocated, out) = contain_alloc(unit, move || {
        let out = ccm::allocate_variant(&mut scratch, variant, ccm_size, &AllocConfig::default());
        (scratch, out)
    })
    .map_err(|e| e.at(variant, ccm_size))?;
    *m = allocated;
    Ok(out)
}

/// The tail every measurement shares: refuses a module whose `diags`
/// carry checker errors, simulates it on `machine`, and assembles the
/// [`Measurement`] from the run and the allocation's `outcome`.
///
/// # Errors
///
/// Returns `stage=checker` for a checker rejection and `stage=sim` for
/// a simulator trap.
pub fn check_and_measure(
    unit: &str,
    m: &Module,
    diags: &[checker::Diagnostic],
    variant: Variant,
    machine: &MachineConfig,
    outcome: AllocOutcome,
) -> Result<Measurement, PipelineError> {
    let at = |e: PipelineError| e.at(variant, machine.ccm_size);
    if let Some(detail) = checker::error_summary(diags) {
        return Err(at(PipelineError::new(Stage::Checker, unit, detail)));
    }
    let (vals, metrics) = sim::run_module(m, machine.clone(), "main")
        .map_err(|e| at(PipelineError::new(Stage::Sim, unit, e.to_string())))?;
    Ok(Measurement {
        cycles: metrics.cycles,
        mem_cycles: metrics.mem_op_cycles,
        metrics,
        checksum: vals.floats.first().copied().unwrap_or(f64::NAN),
        spill_bytes: m.functions.iter().map(|f| f.frame.spill_bytes()).sum(),
        spilled_ranges: outcome.spilled_ranges,
        degraded: outcome.degraded,
    })
}

/// Allocates (per `variant`) and simulates an optimized module, returning
/// the measurement. `machine` controls CCM size and any cache model.
///
/// # Errors
///
/// Every stage failure is structured: an allocator panic becomes
/// `stage=alloc`, a checker rejection `stage=checker`, and a simulator
/// trap (unknown global, out-of-bounds access, exhausted `--sim-budget`)
/// `stage=sim`. CCM coloring failures are *not* errors — the affected
/// function degrades to heavyweight spills and the event is recorded in
/// [`Measurement::degraded`].
pub fn measure(
    m: Module,
    variant: Variant,
    machine: &MachineConfig,
) -> Result<Measurement, PipelineError> {
    measure_named("<module>", m, variant, machine)
}

/// [`measure`] with the suite unit's name attached to any failure.
///
/// # Errors
///
/// Same as [`measure`].
pub fn measure_named(
    unit: &str,
    mut m: Module,
    variant: Variant,
    machine: &MachineConfig,
) -> Result<Measurement, PipelineError> {
    let alloc = allocate_contained(&mut m, unit, variant, machine.ccm_size)?;
    let diags = check_allocated(&m, machine.ccm_size);
    check_and_measure(unit, &m, &diags, variant, machine, alloc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn must(m: Result<Measurement, PipelineError>) -> Measurement {
        m.unwrap_or_else(|e| panic!("measurement failed: {e}"))
    }

    #[test]
    fn variants_agree_on_checksum_and_ccm_wins() {
        let k = suite::kernel("radf5").unwrap();
        let m = suite::build_optimized(&k);
        let machine = MachineConfig::with_ccm(512);
        let base = must(measure(m.clone(), Variant::Baseline, &machine));
        assert!(base.spilled_ranges > 0, "radf5 must spill");
        assert!(base.degraded.is_empty(), "nothing degrades unprovoked");
        for v in [
            Variant::PostPass,
            Variant::PostPassCallGraph,
            Variant::Integrated,
        ] {
            let r = must(measure(m.clone(), v, &machine));
            assert_eq!(
                r.checksum.to_bits(),
                base.checksum.to_bits(),
                "{v:?} changed the checksum"
            );
            assert!(
                r.cycles <= base.cycles,
                "{v:?} slower than baseline: {} vs {}",
                r.cycles,
                base.cycles
            );
        }
    }

    #[test]
    fn non_spilling_kernel_unaffected() {
        let k = suite::kernel("efill").unwrap();
        let m = suite::build_optimized(&k);
        let machine = MachineConfig::with_ccm(512);
        let base = must(measure(m.clone(), Variant::Baseline, &machine));
        assert_eq!(base.spilled_ranges, 0);
        let pp = must(measure(m.clone(), Variant::PostPassCallGraph, &machine));
        assert_eq!(pp.cycles, base.cycles);
        assert_eq!(pp.metrics.ccm_ops, 0);
    }

    #[test]
    fn step_limit_surfaces_as_sim_stage_error() {
        let k = suite::kernel("radf5").unwrap();
        let m = suite::build_optimized(&k);
        let machine = MachineConfig {
            max_steps: 10,
            ..MachineConfig::with_ccm(512)
        };
        let err = measure(m, Variant::Baseline, &machine).unwrap_err();
        assert_eq!(err.stage, Stage::Sim);
        assert!(err.detail.contains("step limit"), "{err}");
    }
}
