//! The run's context and the measurement it produces.
//!
//! A [`Run`] is one run of the compile-and-measure pipeline: its two
//! settings, the memo of builds and baseline allocations per (unit,
//! [`Setup`]), derived configurations, checks and simulations
//! ([`crate::cache`]) and the failure sink ([`crate::error`]). Every
//! experiment takes it by reference and reads each measurement of a
//! suite unit through [`Run::measure_unit`], by the unit's name and
//! setup alone (the run finds its own build, [`Run::unit`]): one
//! baseline allocation per (unit, setup), [`ccm::promote_allocated`] per
//! variant, the checker, then the simulator, each distinct module
//! checked and simulated once. `repro`, `probe`, each inject-sweep point
//! and each test build their own, so nothing one of them memoizes or
//! records is seen by another.
//!
//! Failure is structured, not fatal: a measurement returns a
//! [`PipelineError`] with stage provenance (alloc / checker / sim)
//! instead of panicking, allocator panics are caught and converted, and
//! a function whose CCM slot coloring fails degrades to heavyweight
//! spills recorded as [`ccm::Degradation`] events on the
//! [`Measurement`] — the paper's §3.1 fallback, applied per function.

use std::sync::Mutex;

use sim::{MachineConfig, Metrics};

use crate::cache::Memo;
use crate::error::{PipelineError, Stage};

/// One run: the parallel engine's worker count (`--jobs`), the
/// simulator's instruction budget (`--sim-budget`), and the state the
/// run accumulates — its memo and its recorded failures.
pub struct Run {
    /// Worker threads for the parallel engine.
    pub jobs: usize,
    /// Instruction steps every simulation may take before it traps.
    pub max_steps: u64,
    pub(crate) memo: Memo,
    pub(crate) failures: Mutex<Vec<PipelineError>>,
}

impl Default for Run {
    /// All available hardware threads and [`sim::DEFAULT_MAX_STEPS`].
    fn default() -> Run {
        Run::new(exec::available(), sim::DEFAULT_MAX_STEPS)
    }
}

impl Run {
    /// A run with an empty memo and no recorded failures.
    pub fn new(jobs: usize, max_steps: u64) -> Run {
        Run {
            jobs,
            max_steps,
            memo: Memo::default(),
            failures: Mutex::default(),
        }
    }

    /// The paper's machine with a `ccm_size`-byte CCM and this run's
    /// step budget.
    pub fn machine(&self, ccm_size: u32) -> MachineConfig {
        MachineConfig {
            max_steps: self.max_steps,
            ..MachineConfig::with_ccm(ccm_size)
        }
    }
}

/// The optimizer and allocator setup a suite unit is built and allocated
/// under; its default is the tables'. A kernel's own unroll factor
/// replaces `opt.unroll`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Setup {
    /// The scalar optimizer's options.
    pub opt: opt::OptOptions,
    /// The register supply and allocator switches; the checker gates
    /// under them too.
    pub alloc: regalloc::AllocConfig,
}

/// One measured configuration of one module.
#[derive(Clone, Debug, Default)]
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

impl Measurement {
    /// Refuses a measurement whose program returned other than `base`'s
    /// checksum, bit for bit: a `stage=sim` "changed program output"
    /// error for `unit`, with `after` naming the transform.
    pub(crate) fn same_output(
        &self,
        base: &Self,
        unit: &str,
        after: &str,
    ) -> Result<(), PipelineError> {
        let (got, want) = (self.checksum, base.checksum);
        if got.to_bits() == want.to_bits() {
            return Ok(());
        }
        let detail = format!("changed program output{after}: checksum {got} vs baseline {want}");
        Err(PipelineError::new(Stage::Sim, unit, detail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm::Variant;

    fn must(m: Result<Measurement, PipelineError>) -> Measurement {
        m.unwrap_or_else(|e| panic!("measurement failed: {e}"))
    }

    #[test]
    fn variants_agree_on_checksum_and_ccm_wins() {
        let run = Run::default();
        let k = suite::kernel("radf5").unwrap();
        let machine = MachineConfig::with_ccm(512);
        let base = must(run.measure_unit(k.name, &Setup::default(), Variant::Baseline, &machine));
        assert!(base.spilled_ranges > 0, "radf5 must spill");
        assert!(base.degraded.is_empty(), "nothing degrades unprovoked");
        for v in [
            Variant::PostPass,
            Variant::PostPassCallGraph,
            Variant::Integrated,
        ] {
            let r = must(run.measure_unit(k.name, &Setup::default(), v, &machine));
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
        let run = Run::default();
        let k = suite::kernel("efill").unwrap();
        let machine = MachineConfig::with_ccm(512);
        let base = must(run.measure_unit(k.name, &Setup::default(), Variant::Baseline, &machine));
        assert_eq!(base.spilled_ranges, 0);
        let pp = must(run.measure_unit(
            k.name,
            &Setup::default(),
            Variant::PostPassCallGraph,
            &machine,
        ));
        assert_eq!(pp.cycles, base.cycles);
        assert_eq!(pp.metrics.ccm_ops, 0);
    }

    #[test]
    fn step_limit_surfaces_as_sim_stage_error() {
        let run = Run::new(1, 10);
        let k = suite::kernel("radf5").unwrap();
        let err = run
            .measure_unit(
                k.name,
                &Setup::default(),
                Variant::Baseline,
                &run.machine(512),
            )
            .unwrap_err();
        assert_eq!(err.stage, Stage::Sim);
        assert!(err.detail.contains("step limit"), "{err}");
    }
}
