//! The memo a [`Run`] carries: its pipeline stages, each cached at its
//! natural key.
//!
//! `repro --all` used to redo the same work once per table: rebuild and
//! re-optimize every kernel module, re-allocate it per (variant, CCM
//! size), re-check it, and re-simulate it. Every stage of that pipeline
//! is deterministic (the suite is seeded, allocation and simulation take
//! no entropy), so each is cached in the run's memo and every later
//! experiment of the run reads it instead of recomputing:
//!
//! * **builds** — [`Run::optimized`]/[`Run::program`] memoize
//!   [`suite::build_optimized`]/[`suite::build_program`] per unit name;
//!   a program links the cached builds of members the kernel tables
//!   already made, so `repro --all` optimizes each kernel once.
//!   [`Run::unit`] finds either by name, so every later stage takes a
//!   unit's name alone and fetches its build only on a memo miss;
//! * **the baseline allocation** — [`Run::baseline_allocation`] memoizes
//!   the Chaitin-Briggs allocation once per unit. No CCM method changes
//!   the register assignment: the post-pass allocator runs after a
//!   conventional allocation and only rewrites its spill code (the
//!   paper's §3.1), and the integrated allocator's CCM edges decide only
//!   where a spill lands (§3.2). So that allocation depends on neither
//!   the variant nor the CCM size: all four variants at every size share
//!   it, and Table 1 compacts it;
//! * **derivations, checks and simulations** — [`Run::allocated`]
//!   derives a configuration from that allocation: `Baseline` shares the
//!   unit's allocated module without a copy, and every CCM variant
//!   promotes a clone of it ([`ccm::promote_allocated`]), which gives
//!   exactly what a fresh [`ccm::allocate_variant`] would. Each derived
//!   configuration is kept per (unit, variant, CCM size), so `--check`,
//!   the sweep, the multitask study and the ablation read the tables'
//!   derivations instead of promoting again; its module is the one the
//!   unit's checker memo stores, so this keeps no extra module alive.
//!   The checker's diagnostics are kept in one [`ModuleMemo`] per unit,
//!   and [`Run::measure_unit`]'s simulation results in one per
//!   (unit, `MachineConfig` with its CCM size cleared). A [`ModuleMemo`]
//!   is keyed by the module's content and by the CCM size only when the
//!   module uses the CCM, so Baseline at 512 and 1024 B, and every CCM
//!   variant of a unit whose spills stay in the frame, are checked and
//!   simulated once: no check or simulation key names a variant.
//!   `repro`'s kernel tables check and simulate 264 of their 422
//!   configurations, the figures 66 of 104 ([`Run::measured`]).
//!
//! Failure is structured end to end: an unknown unit name is a
//! `stage=parse` error, build panics become `stage=opt` errors,
//! allocation and promotion panics `stage=alloc` (a failed build or
//! baseline allocation is reported at each configuration that needed
//! it), checker rejections `stage=checker`, simulator traps
//! `stage=sim`. Failures are never cached: a later call recomputes
//! (`tests/fault_injection.rs`, `failures_are_never_memoized`).
//!
//! Expensive work happens outside the map locks (only the module
//! comparisons of a [`ModuleMemo`] lookup run under one) — two workers
//! racing on the same key may both compute it (identical results, first
//! insert wins), but workers never serialize on each other's
//! computation. That
//! is also why caching cannot break the engine's byte-identical
//! guarantee: a cache hit returns exactly the value a recomputation
//! would.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use ccm::Variant;
use iloc::{Module, ModuleMemo};
use regalloc::AllocConfig;
use sim::{MachineConfig, Metrics};
use suite::{Kernel, Program};

use crate::error::{PipelineError, Stage};
use crate::pipeline::{Measurement, Run};

/// Locks a cache map, recovering from poisoning: a panic caught by the
/// containment layer must not wedge every later measurement.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

type Map = Mutex<HashMap<&'static str, Arc<Module>>>;

/// The simulations of one (unit, machine with its CCM size cleared).
#[derive(Default)]
struct Sims {
    runs: ModuleMemo<(Metrics, f64)>,
    /// The (variant, CCM size) configurations these runs served, for the
    /// count [`Run::measured`] reports.
    served: Vec<(Variant, u32)>,
}

impl Sims {
    /// Counts `(variant, ccm_size)` as served, once.
    fn serve(&mut self, variant: Variant, ccm_size: u32) {
        if !self.served.contains(&(variant, ccm_size)) {
            self.served.push((variant, ccm_size));
        }
    }
}

/// One map per memoized stage, each behind its own lock.
#[derive(Default)]
pub(crate) struct Memo {
    kernels: Map,
    programs: Map,
    baselines: Mutex<HashMap<String, (Arc<Module>, usize)>>,
    derived: Mutex<HashMap<(String, Variant, u32), Allocated>>,
    checks: Mutex<HashMap<String, ModuleMemo<Arc<Vec<checker::Diagnostic>>>>>,
    sims: Mutex<HashMap<(String, MachineConfig), Sims>>,
}

fn memoized(
    map: &Map,
    name: &'static str,
    build: impl FnOnce() -> Module,
) -> Result<Arc<Module>, PipelineError> {
    if let Some(m) = lock(map).get(name) {
        return Ok(Arc::clone(m));
    }
    // Build panics (a generator or optimizer bug) become structured
    // `stage=opt` failures; nothing is cached, so a later retry
    // recomputes rather than replaying a stale error.
    let built = catch_unwind(AssertUnwindSafe(build))
        .map_err(|p| PipelineError::new(Stage::Opt, name, exec::render_payload(p.as_ref())))?;
    let built = Arc::new(built);
    let mut map = lock(map);
    Ok(Arc::clone(map.entry(name).or_insert(built)))
}

/// Runs allocation work `f` for `unit` with panics contained: a panic
/// inside register allocation or CCM promotion becomes a `stage=alloc`
/// [`PipelineError`] with no (variant, CCM size) coordinates; callers
/// attach them.
fn contain_alloc<T>(unit: &str, f: impl FnOnce() -> T) -> Result<T, PipelineError> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|p| PipelineError::new(Stage::Alloc, unit, exec::render_payload(p.as_ref())))
}

/// One allocated-and-checked configuration of one suite unit.
#[derive(Clone)]
pub struct Allocated {
    /// The baseline allocation, promoted for the variant.
    pub module: Arc<Module>,
    /// Every diagnostic from [`checker::check_module`].
    pub diags: Arc<Vec<checker::Diagnostic>>,
    /// Live ranges spilled during allocation.
    pub spilled_ranges: usize,
    /// Per-function CCM→heavyweight degradation events.
    pub degraded: Vec<ccm::Degradation>,
}

impl Run {
    /// [`suite::build_optimized`], memoized per kernel name.
    ///
    /// # Errors
    ///
    /// A build/optimize panic is contained as a `stage=opt` error.
    pub fn optimized(&self, k: &Kernel) -> Result<Arc<Module>, PipelineError> {
        memoized(&self.memo.kernels, k.name, || suite::build_optimized(k))
    }

    /// [`suite::build_program`], memoized per program name. A member
    /// kernel already in the [`Run::optimized`] memo (`repro --all`
    /// builds every kernel for the tables first) is linked from there
    /// rather than built and optimized again; a missing one is built for
    /// this program only and not cached, so a figures-only run holds no
    /// kernel modules beyond the programs' own copies.
    ///
    /// # Errors
    ///
    /// A build/optimize panic is contained as a `stage=opt` error.
    pub fn program(&self, p: &Program) -> Result<Arc<Module>, PipelineError> {
        memoized(&self.memo.programs, p.name, || {
            let members = p
                .members
                .iter()
                .map(|&name| {
                    // Not matched on directly: the lock must not be held
                    // while a missing member builds.
                    let cached = lock(&self.memo.kernels).get(name).cloned();
                    match cached {
                        Some(m) => Module::clone(&m),
                        None => suite::build_optimized(
                            &suite::kernel(name).unwrap_or_else(|| panic!("unknown kernel {name}")),
                        ),
                    }
                })
                .collect();
            suite::build_program_from(p, members)
        })
    }

    /// This run's build of suite unit `name`: [`Run::optimized`] for a
    /// kernel, [`Run::program`] for a program.
    ///
    /// # Errors
    ///
    /// A name the suite does not know is a `stage=parse` error; a build
    /// panic is `stage=opt`.
    pub fn unit(&self, name: &str) -> Result<Arc<Module>, PipelineError> {
        if let Some(k) = suite::kernel(name) {
            self.optimized(&k)
        } else if let Some(p) = suite::program(name) {
            self.program(&p)
        } else {
            Err(PipelineError::new(Stage::Parse, name, "unknown suite unit"))
        }
    }

    /// The Chaitin-Briggs allocation of [`Run::unit`]`(name)` under the
    /// default register supply, memoized per unit name: the allocated
    /// module and the number of live ranges it spilled. It depends on
    /// neither the variant nor the CCM size, so every configuration in
    /// [`Run::allocated`] and Table 1's compaction start from this one
    /// allocation. The build is fetched only on a memo miss.
    ///
    /// # Errors
    ///
    /// A [`Run::unit`] failure, or an allocation panic contained as a
    /// `stage=alloc` error, with no variant or CCM coordinates. Nothing
    /// is cached, so a later call retries.
    pub fn baseline_allocation(&self, name: &str) -> Result<(Arc<Module>, usize), PipelineError> {
        if let Some((m, spilled)) = lock(&self.memo.baselines).get(name) {
            return Ok((Arc::clone(m), *spilled));
        }
        let base = self.unit(name)?;
        let (m, spilled) = contain_alloc(name, || {
            let mut m = (*base).clone();
            let spilled =
                regalloc::allocate_module(&mut m, &AllocConfig::default()).total_spilled();
            (m, spilled)
        })?;
        let mut map = lock(&self.memo.baselines);
        let (m, spilled) = map
            .entry(name.to_string())
            .or_insert((Arc::new(m), spilled));
        Ok((Arc::clone(m), *spilled))
    }

    /// Derives `variant` at `ccm_size` from the unit's
    /// [`Run::baseline_allocation`] and checks it, once per (unit,
    /// variant, CCM size) and run. `Baseline` shares the
    /// allocated module as is; the CCM variants promote a clone of it
    /// with [`ccm::promote_allocated`]. The checker runs once per module
    /// the unit's [`ModuleMemo`] tells apart, and the module returned is
    /// the one stored there. Kernel and program names are globally unique
    /// in the suite, so the flat name key cannot collide.
    ///
    /// Checker diagnostics are data here, not failure: `--check` reports
    /// error rows rather than skipping them. [`Run::measure_unit`]
    /// applies the error gate before simulating.
    ///
    /// # Errors
    ///
    /// A [`Run::baseline_allocation`] failure, or a promotion panic
    /// contained as a `stage=alloc` error, at (`variant`, `ccm_size`).
    pub fn allocated(
        &self,
        name: &str,
        variant: Variant,
        ccm_size: u32,
    ) -> Result<Allocated, PipelineError> {
        let key = (name.to_string(), variant, ccm_size);
        if let Some(a) = lock(&self.memo.derived).get(&key) {
            return Ok(a.clone());
        }
        let at = |e: PipelineError| e.at(variant, ccm_size);
        let (allocated, spilled_ranges) = self.baseline_allocation(name).map_err(at)?;
        let (module, degraded) = if variant == Variant::Baseline {
            (allocated, Vec::new())
        } else {
            let (m, degraded) = contain_alloc(name, || {
                let mut m = (*allocated).clone();
                let degraded = ccm::promote_allocated(&mut m, variant, ccm_size);
                (m, degraded)
            })
            .map_err(at)?;
            (Arc::new(m), degraded)
        };
        let stored = lock(&self.memo.checks)
            .get(name)
            .and_then(|checks| checks.get(&module, ccm_size))
            .map(|(m, d)| (Arc::clone(m), Arc::clone(d)));
        let (module, diags) = stored.unwrap_or_else(|| {
            let diags = Arc::new(checker::check_module(
                &module,
                &checker::CheckerConfig::new(ccm_size),
            ));
            let mut map = lock(&self.memo.checks);
            let checks = map.entry(name.to_string()).or_default();
            let (m, d) = checks.insert(module, ccm_size, diags);
            (Arc::clone(m), Arc::clone(d))
        });
        let a = Allocated {
            module,
            diags,
            spilled_ranges,
            degraded,
        };
        Ok(lock(&self.memo.derived).entry(key).or_insert(a).clone())
    }

    /// Measures suite unit `name` under `variant` on `machine`: the
    /// allocation from
    /// [`Run::allocated`], refused if the checker found errors, then
    /// simulated. The simulation is kept in a [`ModuleMemo`] per (unit
    /// name, `machine` with its CCM size cleared), so distinct cache
    /// models, latencies or step budgets never share an entry, and an
    /// equal module under an equal CCM key is simulated once.
    ///
    /// # Errors
    ///
    /// Every stage failure is structured: an unknown name is
    /// `stage=parse`, a build panic `stage=opt`, an allocator panic
    /// `stage=alloc`, a checker rejection `stage=checker`, and a
    /// simulator trap (unknown global, out-of-bounds access, exhausted
    /// `--sim-budget`) `stage=sim`. CCM coloring failures are *not*
    /// errors: the affected function degrades to heavyweight spills and
    /// the event is recorded in [`Measurement::degraded`].
    pub fn measure_unit(
        &self,
        name: &str,
        variant: Variant,
        machine: &MachineConfig,
    ) -> Result<Measurement, PipelineError> {
        let ccm_size = machine.ccm_size;
        let a = self.allocated(name, variant, ccm_size)?;
        let at = |e: PipelineError| e.at(variant, ccm_size);
        if let Some(detail) = checker::error_summary(&a.diags) {
            return Err(at(PipelineError::new(Stage::Checker, name, detail)));
        }
        let key = (
            name.to_string(),
            MachineConfig {
                ccm_size: 0,
                ..machine.clone()
            },
        );
        let stored = {
            let mut map = lock(&self.memo.sims);
            let sims = map.entry(key.clone()).or_default();
            let hit = sims.runs.get(&a.module, ccm_size).map(|(_, s)| *s);
            if hit.is_some() {
                sims.serve(variant, ccm_size);
            }
            hit
        };
        let (metrics, checksum) = match stored {
            Some(s) => s,
            None => {
                let (vals, metrics) = sim::run_module(&a.module, machine.clone(), "main")
                    .map_err(|e| at(PipelineError::new(Stage::Sim, name, e.to_string())))?;
                let checksum = vals.floats.first().copied().unwrap_or(f64::NAN);
                let mut map = lock(&self.memo.sims);
                let sims = map.entry(key).or_default();
                sims.runs
                    .insert(Arc::clone(&a.module), ccm_size, (metrics, checksum));
                sims.serve(variant, ccm_size);
                (metrics, checksum)
            }
        };
        Ok(Measurement {
            cycles: metrics.cycles,
            mem_cycles: metrics.mem_op_cycles,
            metrics,
            checksum,
            spill_bytes: a
                .module
                .functions
                .iter()
                .map(|f| f.frame.spill_bytes())
                .sum(),
            spilled_ranges: a.spilled_ranges,
            degraded: a.degraded,
        })
    }

    /// How much simulation [`Run::measure_unit`] has done: the modules it
    /// checked and simulated, and the distinct (unit, variant, machine)
    /// configurations they served.
    pub fn measured(&self) -> (usize, usize) {
        let map = lock(&self.memo.sims);
        let runs = map.values().map(|s| s.runs.len()).sum();
        let configurations = map.values().map(|s| s.served.len()).sum();
        (runs, configurations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_returns_the_same_module_as_a_fresh_build() {
        let run = Run::default();
        let k = suite::kernel("radf5").unwrap();
        let cached = run.optimized(&k).unwrap();
        let again = run.optimized(&k).unwrap();
        assert!(Arc::ptr_eq(&cached, &again), "second lookup must hit");
        let fresh = suite::build_optimized(&k);
        assert_eq!(format!("{fresh}"), format!("{cached}"));
    }

    #[test]
    fn programs_linked_from_cached_members_match_fresh_builds() {
        let run = Run::default();
        for p in suite::programs() {
            let members = p
                .members
                .iter()
                .map(|name| Module::clone(&run.optimized(&suite::kernel(name).unwrap()).unwrap()))
                .collect();
            assert_eq!(
                suite::build_program_from(&p, members).to_string(),
                suite::build_program(&p).to_string(),
                "program {}",
                p.name
            );
            assert_eq!(
                run.program(&p).unwrap().to_string(),
                suite::build_program(&p).to_string(),
                "program {}",
                p.name
            );
        }
    }

    #[test]
    fn unit_finds_the_runs_own_build_by_name() {
        let run = Run::default();
        let k = suite::kernel("radf5").unwrap();
        let p = suite::program("turb3d").unwrap();
        assert!(Arc::ptr_eq(
            &run.unit("radf5").unwrap(),
            &run.optimized(&k).unwrap()
        ));
        assert!(Arc::ptr_eq(
            &run.unit("turb3d").unwrap(),
            &run.program(&p).unwrap()
        ));
        let err = run.unit("no-such-unit").unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
        assert_eq!(err.unit, "no-such-unit");
        assert_eq!(err.detail, "unknown suite unit");
    }

    #[test]
    fn one_baseline_allocation_serves_every_config() {
        let run = Run::default();
        let k = suite::kernel("fpppp").unwrap();
        let base = run.optimized(&k).unwrap();
        let at = |v, size| run.allocated(k.name, v, size).unwrap();
        let (shared, spilled) = run.baseline_allocation(k.name).unwrap();
        assert!(spilled > 0, "fpppp must spill");
        // Baseline at both sizes is the memoized module itself, not a copy.
        for size in [512, 1024] {
            let b = at(Variant::Baseline, size);
            assert!(Arc::ptr_eq(&b.module, &shared), "baseline @ {size} B");
            assert_eq!(b.spilled_ranges, spilled);
        }
        // A derived CCM configuration equals a fresh allocation.
        for v in [
            Variant::PostPass,
            Variant::PostPassCallGraph,
            Variant::Integrated,
        ] {
            for size in [512, 1024] {
                let derived = at(v, size);
                let mut fresh = (*base).clone();
                let out = ccm::allocate_variant(&mut fresh, v, size, &AllocConfig::default());
                assert_eq!(
                    format!("{fresh}"),
                    format!("{}", derived.module),
                    "{v:?} @ {size} B"
                );
                assert_eq!(out.spilled_ranges, derived.spilled_ranges);
                assert_eq!(out.degraded, derived.degraded);
            }
        }
        // The run keeps one derivation per (variant, size): eight.
        assert_eq!(lock(&run.memo.derived).len(), 8);
    }

    #[test]
    fn measure_unit_matches_a_fresh_allocation() {
        let run = Run::default();
        let k = suite::kernel("radf5").unwrap();
        let base = run.optimized(&k).unwrap();
        let machine = MachineConfig::with_ccm(512);
        let v = Variant::PostPassCallGraph;
        let cached = run.measure_unit(k.name, v, &machine).unwrap();
        let hit = run.measure_unit(k.name, v, &machine).unwrap();
        let mut fresh = (*base).clone();
        let out = ccm::allocate_variant(&mut fresh, v, 512, &AllocConfig::default());
        let (vals, metrics) = sim::run_module(&fresh, machine, "main").unwrap();
        for m in [&cached, &hit] {
            assert_eq!(m.cycles, metrics.cycles);
            assert_eq!(m.mem_cycles, metrics.mem_op_cycles);
            assert_eq!(m.checksum.to_bits(), vals.floats[0].to_bits());
            assert_eq!(m.spilled_ranges, out.spilled_ranges);
            assert_eq!(
                m.spill_bytes,
                fresh
                    .functions
                    .iter()
                    .map(|f| f.frame.spill_bytes())
                    .sum::<u32>()
            );
        }
        // Distinct machines must not share an entry: a different CCM size
        // changes the key even at the same variant.
        let wider = run
            .measure_unit(k.name, v, &MachineConfig::with_ccm(1024))
            .unwrap();
        assert!(wider.cycles <= cached.cycles, "bigger CCM can't be slower");
    }
}
