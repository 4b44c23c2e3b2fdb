//! The memo a [`Run`] carries: every pipeline stage of a suite unit,
//! memoized per (unit, [`Setup`]).
//!
//! Every stage is deterministic (the suite is seeded, allocation and
//! simulation take no entropy), so each experiment reads the run's memo
//! instead of recomputing, and the design ablation's configurations are
//! setups of the same lookups as the tables':
//!
//! * **builds** — [`Run::unit`] memoizes [`suite::build_with`] per
//!   (unit, optimizer options), so setups that differ only in the
//!   allocator share one build; a program links the builds of members
//!   the kernel tables already made, so `repro --all` optimizes each
//!   kernel once;
//! * **the baseline allocation** — [`Run::baseline_allocation`] memoizes
//!   the Chaitin-Briggs allocation per (unit, setup), with its
//!   [`ccm::BaselineAnalysis`] (one slot analysis per function and the
//!   call graph). No CCM method changes the register assignment: the
//!   post-pass allocator only moves spill slots (§3.1), and the
//!   integrated allocator's CCM edges decide only where a spill lands
//!   (§3.2). So all four variants at every size are placements of it
//!   over that one analysis, and [`Run::compacted`] compacts one;
//! * **placements, checks and simulations** — [`Run::allocated`] keeps
//!   each configuration as a [`ccm::Placement`] of that allocation's
//!   slots ([`ccm::place`]; `Baseline` moves none) with its checker
//!   diagnostics, per (unit, setup, variant, CCM size). Checks, under
//!   the setup's register supply, are kept per (unit, setup) and
//!   [`Run::measure_unit`]'s simulations per (unit, `MachineConfig` with
//!   its CCM size cleared), each keyed by the placement and its CCM key
//!   ([`ccm::Placement::ccm_key`]: the CCM size only when the module uses
//!   the CCM). Two placements of one allocation are equal exactly when
//!   their modules are, so equal modules are checked and simulated once
//!   without comparing modules: `repro`'s kernel tables check and
//!   simulate 264 of their 422 configurations, the figures 66 of 104
//!   ([`Run::measured`]). Setups with equal allocations (the design
//!   ablation's) share simulations: each new baseline allocation is
//!   compared once with the unit's distinct ones, and the simulation key
//!   names the one it equals.
//!
//! The memo keeps no derived module: a configuration's module is built
//! ([`ccm::Placement::apply`]) only to check it, lives through its
//! simulation and is dropped; a placement that moves no slot is the
//! baseline allocation itself and is never copied.
//!
//! Failure is structured end to end: an unknown unit name is a
//! `stage=parse` error, build panics become `stage=opt` errors,
//! allocation and placement panics `stage=alloc` (a failed build or
//! baseline allocation is reported at each configuration that needed
//! it), checker rejections `stage=checker`, simulator traps
//! `stage=sim`. Failures are never cached: a later call recomputes
//! (`tests/fault_injection.rs`, `failures_are_never_memoized`).
//!
//! Expensive work happens outside the map locks (only the comparison of
//! a new baseline allocation with the unit's others runs under one): two
//! workers racing on the same key may both compute it (identical
//! results, first insert wins), but never serialize on each other's
//! computation, and a cache hit returns exactly the value a
//! recomputation would, so the engine's output stays byte-identical at
//! any `--jobs`.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use ccm::{BaselineAnalysis, CompactStats, Placement, Variant};
use iloc::Module;
use opt::OptOptions;
use sim::{MachineConfig, Metrics};

use crate::error::{PipelineError, Stage};
use crate::pipeline::{Measurement, Run, Setup};

/// Locks a cache map, recovering from poisoning: a panic caught by the
/// containment layer must not wedge every later measurement.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

type Builds = Mutex<HashMap<(&'static str, OptOptions), Arc<Module>>>;
type PerSetup<T> = Mutex<HashMap<(String, Setup), T>>;

/// What a check or a simulation of one baseline allocation's
/// configuration depends on: its placement and its CCM key.
type PlacedKey = (Arc<Placement>, Option<u32>);

/// One unit's baseline allocation under one setup, and what every
/// configuration derived from it shares.
pub(crate) struct Baseline {
    module: Arc<Module>,
    /// Live ranges the allocation spilled.
    spilled: usize,
    analysis: BaselineAnalysis,
    /// Whether `module` itself uses the CCM.
    uses_ccm: bool,
    /// `module`'s index among the unit's distinct baseline allocations
    /// across setups: equal allocations share simulations.
    id: usize,
}

/// The simulations of one (unit, machine with its CCM size cleared).
#[derive(Default)]
struct Sims {
    /// Per (baseline id, placement, CCM key): metrics and checksum.
    runs: HashMap<(usize, PlacedKey), (Metrics, f64)>,
    /// The (setup, variant, CCM size) configurations these runs served,
    /// for the count [`Run::measured`] reports.
    served: HashSet<(Setup, Variant, u32)>,
}

/// One map per memoized stage, each behind its own lock.
#[derive(Default)]
pub(crate) struct Memo {
    builds: Builds,
    baselines: PerSetup<Arc<Baseline>>,
    /// Per unit, its distinct baseline allocations, indexed by
    /// [`Baseline`]'s `id`.
    distinct: Mutex<HashMap<String, Vec<Arc<Module>>>>,
    derived: Mutex<HashMap<(String, Setup, Variant, u32), Allocated>>,
    checks: PerSetup<HashMap<PlacedKey, Arc<Vec<checker::Diagnostic>>>>,
    sims: Mutex<HashMap<(String, MachineConfig), Sims>>,
}

fn memoized(
    map: &Builds,
    key: (&'static str, OptOptions),
    build: impl FnOnce() -> Module,
) -> Result<Arc<Module>, PipelineError> {
    if let Some(m) = lock(map).get(&key) {
        return Ok(Arc::clone(m));
    }
    // Build panics (a generator or optimizer bug) become structured
    // `stage=opt` failures; nothing is cached, so a later retry
    // recomputes rather than replaying a stale error.
    let built = catch_unwind(AssertUnwindSafe(build))
        .map_err(|p| PipelineError::new(Stage::Opt, key.0, exec::render_payload(p.as_ref())))?;
    let built = Arc::new(built);
    let mut map = lock(map);
    Ok(Arc::clone(map.entry(key).or_insert(built)))
}

/// Runs allocation work `f` for `unit` with panics contained: a panic
/// inside register allocation or CCM placement becomes a `stage=alloc`
/// [`PipelineError`] with no (variant, CCM size) coordinates; callers
/// attach them.
fn contain_alloc<T>(unit: &str, f: impl FnOnce() -> T) -> Result<T, PipelineError> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|p| PipelineError::new(Stage::Alloc, unit, exec::render_payload(p.as_ref())))
}

/// Simulates `m` on `machine`: its metrics and the checksum it returned.
fn simulate(m: &Module, machine: &MachineConfig) -> Result<(Metrics, f64), sim::SimError> {
    let (vals, metrics) = sim::run_module(m, machine.clone(), "main")?;
    Ok((metrics, vals.floats.first().copied().unwrap_or(f64::NAN)))
}

/// The measurement of a module with `spill_bytes` of main-memory spill
/// space, a configuration of `a`, simulated to `(metrics, checksum)`.
fn measurement(
    spill_bytes: u32,
    a: &Allocated,
    (metrics, checksum): (Metrics, f64),
) -> Measurement {
    Measurement {
        cycles: metrics.cycles,
        mem_cycles: metrics.mem_op_cycles,
        metrics,
        checksum,
        spill_bytes,
        spilled_ranges: a.spilled_ranges,
        degraded: a.degraded.clone(),
    }
}

/// One allocated-and-checked configuration of one suite unit.
#[derive(Clone)]
pub struct Allocated {
    baseline: Arc<Baseline>,
    /// Where the variant puts the baseline allocation's spill slots.
    placement: Arc<Placement>,
    /// Every diagnostic from [`checker::check_module`].
    pub diags: Arc<Vec<checker::Diagnostic>>,
    /// Live ranges spilled during allocation.
    pub spilled_ranges: usize,
    /// Per-function CCM→heavyweight degradation events.
    pub degraded: Vec<ccm::Degradation>,
}

impl Allocated {
    /// The configuration's module: the baseline allocation itself when
    /// the placement moves no slot, otherwise built from it now with
    /// [`Placement::apply`] and kept by no memo.
    pub fn module(&self) -> Arc<Module> {
        if self.placement.is_identity() {
            Arc::clone(&self.baseline.module)
        } else {
            Arc::new(self.placement.apply(&self.baseline.module))
        }
    }

    /// The check and simulation key of this configuration at a
    /// `ccm_size`-byte CCM.
    fn key(&self, ccm_size: u32) -> PlacedKey {
        let ccm_key = self.placement.ccm_key(self.baseline.uses_ccm, ccm_size);
        (Arc::clone(&self.placement), ccm_key)
    }
}

impl Run {
    /// This run's build of suite unit `name` under `setup`'s optimizer
    /// options, memoized per (unit, options): [`suite::build_with`] for a
    /// kernel, and for a program [`suite::build_program_from`] over its
    /// members' builds under the same options. A member already in the
    /// memo (`repro --all` builds every kernel for the tables first) is
    /// linked from there rather than built and optimized again; a missing
    /// one is built for this program only and not cached, so a
    /// figures-only run holds no kernel modules beyond the programs' own
    /// copies. The allocator setup plays no part, so every `setup.alloc`
    /// shares one build.
    ///
    /// # Errors
    ///
    /// A name the suite does not know is a `stage=parse` error; a build
    /// panic is `stage=opt`.
    pub fn unit(&self, name: &str, setup: &Setup) -> Result<Arc<Module>, PipelineError> {
        let opts = setup.opt;
        if let Some(k) = suite::kernel(name) {
            memoized(&self.memo.builds, (k.name, opts), || {
                suite::build_with(&k, &opts)
            })
        } else if let Some(p) = suite::program(name) {
            memoized(&self.memo.builds, (p.name, opts), || {
                let member = |name: &&str| {
                    // Read first: the lock must not be held while a
                    // missing member builds.
                    let cached = lock(&self.memo.builds).get(&(*name, opts)).cloned();
                    let k =
                        || suite::kernel(name).unwrap_or_else(|| panic!("unknown kernel {name}"));
                    cached.map_or_else(|| suite::build_with(&k(), &opts), |m| Module::clone(&m))
                };
                suite::build_program_from(&p, p.members.iter().map(member).collect())
            })
        } else {
            Err(PipelineError::new(Stage::Parse, name, "unknown suite unit"))
        }
    }

    /// The Chaitin-Briggs allocation of [`Run::unit`]`(name, setup)`
    /// under `setup.alloc`, memoized per (unit, setup): the allocated
    /// module and the number of live ranges it spilled. It depends on
    /// neither the variant nor the CCM size, so every configuration in
    /// [`Run::allocated`] and every compaction ([`Run::compacted`]) is a
    /// placement of this one allocation. The build is fetched only on a
    /// memo miss.
    ///
    /// # Errors
    ///
    /// A [`Run::unit`] failure, or an allocation panic contained as a
    /// `stage=alloc` error, with no variant or CCM coordinates. Nothing
    /// is cached, so a later call retries.
    pub fn baseline_allocation(
        &self,
        name: &str,
        setup: &Setup,
    ) -> Result<(Arc<Module>, usize), PipelineError> {
        let b = self.baseline(name, setup)?;
        Ok((Arc::clone(&b.module), b.spilled))
    }

    /// [`Run::baseline_allocation`] with its analysis and its index among
    /// the unit's distinct allocations.
    fn baseline(&self, name: &str, setup: &Setup) -> Result<Arc<Baseline>, PipelineError> {
        let key = (name.to_string(), *setup);
        if let Some(b) = lock(&self.memo.baselines).get(&key) {
            return Ok(Arc::clone(b));
        }
        let base = self.unit(name, setup)?;
        let (module, spilled, analysis) = contain_alloc(name, || {
            let mut m = (*base).clone();
            let spilled = regalloc::allocate_module(&mut m, &setup.alloc).total_spilled();
            let analysis = BaselineAnalysis::compute(&m);
            (m, spilled, analysis)
        })?;
        let uses_ccm = module.uses_ccm();
        let module = Arc::new(module);
        let id = {
            // The one module comparison: this allocation against each
            // distinct one of the unit's other setups.
            let mut distinct = lock(&self.memo.distinct);
            let seen = distinct.entry(key.0.clone()).or_default();
            seen.iter().position(|m| **m == *module).unwrap_or_else(|| {
                seen.push(Arc::clone(&module));
                seen.len() - 1
            })
        };
        let b = Arc::new(Baseline {
            module,
            spilled,
            analysis,
            uses_ccm,
            id,
        });
        Ok(Arc::clone(
            lock(&self.memo.baselines).entry(key).or_insert(b),
        ))
    }

    /// Derives `variant` at `ccm_size` from the unit's
    /// [`Run::baseline_allocation`] under `setup` and checks it, once per
    /// (unit, setup, variant, CCM size) and run. The derivation is a
    /// [`ccm::place`] over the allocation's shared analysis; the checker
    /// runs under `setup.alloc`, once per (placement, CCM key) of the
    /// (unit, setup), on a module built for it and then dropped. Kernel
    /// and program names are globally unique in the suite, so the flat
    /// name key cannot collide.
    ///
    /// Checker diagnostics are data here, not failure: `--check` reports
    /// error rows rather than skipping them. [`Run::measure_unit`]
    /// applies the error gate before simulating.
    ///
    /// # Errors
    ///
    /// A [`Run::baseline_allocation`] failure, or a placement panic
    /// contained as a `stage=alloc` error, at (`variant`, `ccm_size`).
    pub fn allocated(
        &self,
        name: &str,
        setup: &Setup,
        variant: Variant,
        ccm_size: u32,
    ) -> Result<Allocated, PipelineError> {
        Ok(self.checked(name, setup, variant, ccm_size)?.0)
    }

    /// [`Run::allocated`], with the module it built to run the checker,
    /// if it ran it.
    fn checked(
        &self,
        name: &str,
        setup: &Setup,
        variant: Variant,
        ccm_size: u32,
    ) -> Result<(Allocated, Option<Arc<Module>>), PipelineError> {
        let key = (name.to_string(), *setup, variant, ccm_size);
        if let Some(a) = lock(&self.memo.derived).get(&key) {
            return Ok((a.clone(), None));
        }
        let at = |e: PipelineError| e.at(variant, ccm_size);
        let baseline = self.baseline(name, setup).map_err(at)?;
        let placement = contain_alloc(name, || {
            ccm::place(&baseline.module, &baseline.analysis, variant, ccm_size)
        })
        .map_err(at)?;
        let mut a = Allocated {
            degraded: placement.degradations(),
            placement: Arc::new(placement),
            diags: Arc::default(),
            spilled_ranges: baseline.spilled,
            baseline,
        };
        let checks_key = (name.to_string(), *setup);
        let placed = a.key(ccm_size);
        let stored = lock(&self.memo.checks)
            .get(&checks_key)
            .and_then(|checks| checks.get(&placed))
            .cloned();
        let mut built = None;
        a.diags = stored.unwrap_or_else(|| {
            let m = a.module();
            let diags = Arc::new(checker::check_module(
                &m,
                &checker::CheckerConfig::with_alloc(ccm_size, setup.alloc),
            ));
            built = Some(m);
            let mut map = lock(&self.memo.checks);
            let checks = map.entry(checks_key).or_default();
            Arc::clone(checks.entry(placed).or_insert(diags))
        });
        let a = lock(&self.memo.derived).entry(key).or_insert(a).clone();
        Ok((a, built))
    }

    /// Measures suite unit `name` under `setup` and `variant` on
    /// `machine`: the configuration from [`Run::allocated`], refused if
    /// the checker found errors, then simulated. The simulation is kept
    /// per (unit name, `machine` with its CCM size cleared), so distinct
    /// cache models, latencies or step budgets never share an entry, and
    /// under it per (baseline allocation, placement, CCM key), so an
    /// equal module under an equal CCM key is simulated once, whichever
    /// setup made it. The module is built only on a miss, or reused from
    /// the check that just built it.
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
        setup: &Setup,
        variant: Variant,
        machine: &MachineConfig,
    ) -> Result<Measurement, PipelineError> {
        let ccm_size = machine.ccm_size;
        let (a, built) = self.checked(name, setup, variant, ccm_size)?;
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
        let run_key = (a.baseline.id, a.key(ccm_size));
        let config = (*setup, variant, ccm_size);
        let stored = {
            let mut map = lock(&self.memo.sims);
            let sims = map.entry(key.clone()).or_default();
            let hit = sims.runs.get(&run_key).copied();
            if hit.is_some() {
                sims.served.insert(config);
            }
            hit
        };
        let simulated = match stored {
            Some(s) => s,
            None => {
                let m = built.unwrap_or_else(|| a.module());
                let s = simulate(&m, machine)
                    .map_err(|e| at(PipelineError::new(Stage::Sim, name, e.to_string())))?;
                let mut map = lock(&self.memo.sims);
                let sims = map.entry(key).or_default();
                sims.runs.entry(run_key).or_insert(s);
                sims.served.insert(config);
                s
            }
        };
        let spill_bytes = a.placement.spill_bytes(&a.baseline.module);
        Ok(measurement(spill_bytes, &a, simulated))
    }

    /// Footnote 3's spill-memory compaction of one configuration, for
    /// Table 1 and the design ablation: [`Run::allocated`]'s placement,
    /// compacted over the baseline allocation's shared analysis
    /// ([`Placement::compacted`]), built, checked (`compaction overlap`
    /// included) and simulated on `machine`. `None` when no main-memory
    /// spill slot is left to compact; nothing is memoized.
    ///
    /// # Errors
    ///
    /// A [`Run::allocated`] or uncompacted [`Run::measure_unit`] failure;
    /// a checker error or trap after compaction, with no coordinates; a
    /// checksum other than the uncompacted one's, as `stage=sim`.
    pub fn compacted(
        &self,
        name: &str,
        setup: &Setup,
        variant: Variant,
        machine: &MachineConfig,
    ) -> Result<Option<(CompactStats, Measurement)>, PipelineError> {
        let a = self.allocated(name, setup, variant, machine.ccm_size)?;
        let baseline = &a.baseline.module;
        let (placement, stats) = a.placement.compacted(baseline, &a.baseline.analysis);
        let stats = stats
            .into_iter()
            .fold(CompactStats::default(), |t, (_, s)| CompactStats {
                before: t.before + s.before,
                after: t.after + s.after,
            });
        if stats.before == 0 {
            return Ok(None);
        }
        let m = placement.apply(baseline);
        let diags = checker::check_module(
            &m,
            &checker::CheckerConfig::with_alloc(machine.ccm_size, setup.alloc),
        );
        if let Some(detail) = checker::error_summary(&diags) {
            return Err(PipelineError::new(
                Stage::Checker,
                name,
                format!("after compaction: {detail}"),
            ));
        }
        let compacted = measurement(
            placement.spill_bytes(baseline),
            &a,
            simulate(&m, machine).map_err(|e| {
                PipelineError::new(Stage::Sim, name, format!("trapped after compaction: {e}"))
            })?,
        );
        drop(m);
        let uncompacted = self.measure_unit(name, setup, variant, machine)?;
        compacted.same_output(&uncompacted, name, " after compaction")?;
        Ok(Some((stats, compacted)))
    }

    /// How much simulation [`Run::measure_unit`] has done: the modules it
    /// checked and simulated, and the distinct (unit, setup, variant,
    /// machine) configurations they served.
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
    use regalloc::AllocConfig;

    #[test]
    fn cache_returns_the_same_module_as_a_fresh_build() {
        let run = Run::default();
        let tables = Setup::default();
        let cached = run.unit("radf5", &tables).unwrap();
        let again = run.unit("radf5", &tables).unwrap();
        assert!(Arc::ptr_eq(&cached, &again), "second lookup must hit");
        let fresh = suite::build_optimized(&suite::kernel("radf5").unwrap());
        assert_eq!(format!("{fresh}"), format!("{cached}"));
    }

    #[test]
    fn programs_linked_from_cached_members_match_fresh_builds() {
        let run = Run::default();
        let tables = Setup::default();
        for p in suite::programs() {
            let members = p
                .members
                .iter()
                .map(|name| Module::clone(&run.unit(name, &tables).unwrap()))
                .collect();
            assert_eq!(
                suite::build_program_from(&p, members).to_string(),
                suite::build_program(&p).to_string(),
                "program {}",
                p.name
            );
            assert_eq!(
                run.unit(p.name, &tables).unwrap().to_string(),
                suite::build_program(&p).to_string(),
                "program {}",
                p.name
            );
        }
    }

    #[test]
    fn unit_finds_the_runs_own_build_by_name() {
        let run = Run::default();
        let tables = Setup::default();
        for name in ["radf5", "turb3d"] {
            let built = run.unit(name, &tables).unwrap();
            assert!(Arc::ptr_eq(&built, &run.unit(name, &tables).unwrap()));
        }
        let err = run.unit("no-such-unit", &tables).unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
        assert_eq!(err.unit, "no-such-unit");
        assert_eq!(err.detail, "unknown suite unit");
    }

    #[test]
    fn one_baseline_allocation_serves_every_config() {
        let run = Run::default();
        let tables = Setup::default();
        let name = "fpppp";
        let base = run.unit(name, &tables).unwrap();
        let at = |v, size| run.allocated(name, &tables, v, size).unwrap();
        let (shared, spilled) = run.baseline_allocation(name, &tables).unwrap();
        assert!(spilled > 0, "fpppp must spill");
        // Baseline at both sizes is the memoized module itself, not a copy.
        for size in [512, 1024] {
            let b = at(Variant::Baseline, size);
            assert!(Arc::ptr_eq(&b.module(), &shared), "baseline @ {size} B");
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
                    format!("{}", derived.module()),
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
    fn setups_share_a_build_only_when_their_optimizer_options_agree() {
        let run = Run::default();
        let tables = Setup::default();
        let convention = Setup {
            alloc: AllocConfig {
                caller_saved: 8,
                ..tables.alloc
            },
            ..tables
        };
        let licm = Setup {
            opt: opt::OptOptions {
                licm: true,
                ..tables.opt
            },
            ..tables
        };
        for name in ABLATION {
            let build = |s| run.unit(name, s).unwrap();
            let allocation = |s| run.baseline_allocation(name, s).unwrap().0;
            assert!(Arc::ptr_eq(&build(&tables), &build(&convention)), "{name}");
            assert!(!Arc::ptr_eq(&build(&tables), &build(&licm)), "{name}");
            for other in [&convention, &licm] {
                assert!(!Arc::ptr_eq(&allocation(&tables), &allocation(other)));
            }
        }
        // Each setup's modules are checked under its own register supply,
        // even where the allocation is the same text: no diagnostics are
        // handed across setups.
        let checked = |s| run.allocated("urand", s, Variant::Baseline, 512).unwrap();
        let (a, b) = (checked(&tables), checked(&convention));
        assert_eq!(
            a.module().to_string(),
            b.module().to_string(),
            "urand makes no call"
        );
        assert!(!Arc::ptr_eq(&a.diags, &b.diags));
    }

    const ABLATION: [&str; 5] = ["fpppp", "radf5", "deseco", "urand", "erhs"];

    /// The design ablation's cell as it was computed before it read the
    /// run's memo: build, optimize, allocate, promote, compact, check and
    /// simulate by hand. Returns (spilled ranges, spill bytes, cycles,
    /// checksum).
    fn run_cell(
        (_, opts, alloc, promote): &(&str, opt::OptOptions, AllocConfig, bool),
        name: &'static str,
        run: &Run,
    ) -> Result<(usize, u32, u64, f64), PipelineError> {
        let k = suite::kernel(name)
            .ok_or_else(|| PipelineError::new(Stage::Parse, name, "unknown suite kernel"))?;
        let mut m = (k.build)();
        let o = opt::OptOptions {
            unroll: k.unroll,
            ..*opts
        };
        opt::optimize_module(&mut m, &o);
        let variant = if *promote {
            Variant::PostPassCallGraph
        } else {
            Variant::Baseline
        };
        let spilled = ccm::allocate_variant(&mut m, variant, 512, alloc).spilled_ranges;
        if *promote {
            // Paper, footnote 3: repack the remaining heavyweight slots
            // so the reported spill space is honest.
            ccm::compact_module(&mut m);
        }
        let diags = checker::check_module(&m, &checker::CheckerConfig::with_alloc(512, *alloc));
        if let Some(detail) = checker::error_summary(&diags) {
            return Err(PipelineError::new(Stage::Checker, name, detail));
        }
        let spill_bytes = m.functions.iter().map(|f| f.frame.spill_bytes()).sum();
        let (vals, metrics) = sim::run_module(&m, run.machine(512), "main")
            .map_err(|e| PipelineError::new(Stage::Sim, name, e.to_string()))?;
        let checksum = vals.floats.first().copied().unwrap_or(f64::NAN);
        Ok((spilled, spill_bytes, metrics.cycles, checksum))
    }

    #[test]
    fn design_cells_match_the_hand_written_pipeline() {
        let run = Run::default();
        let tables = Setup::default();
        let rows = crate::extensions::design_ablation(&run);
        assert_eq!(rows.len(), 9, "every row measured");
        for ((label, setup, promote), row) in crate::extensions::design_configs().iter().zip(&rows)
        {
            assert_eq!(*label, row.config);
            let mut sums = (0, 0, 0);
            for name in ABLATION {
                let got = crate::extensions::design_cell(&run, name, setup, *promote).unwrap();
                let want =
                    run_cell(&(label, setup.opt, setup.alloc, *promote), name, &run).unwrap();
                let ctx = format!("{label} {name}");
                assert_eq!(got.spilled_ranges, want.0, "{ctx}: spilled");
                assert_eq!(got.spill_bytes, want.1, "{ctx}: spill bytes");
                assert_eq!(got.cycles, want.2, "{ctx}: cycles");
                assert_eq!(got.checksum.to_bits(), want.3.to_bits(), "{ctx}: checksum");
                sums = (sums.0 + want.0, sums.1 + want.1, sums.2 + want.2);
            }
            assert_eq!((row.spilled, row.spill_bytes, row.cycles), sums, "{label}");
        }
        // The "baseline" cell is the tables' own allocation, not a copy.
        for name in ABLATION {
            let cell = run
                .allocated(name, &tables, Variant::Baseline, 512)
                .unwrap();
            let (allocation, _) = run.baseline_allocation(name, &tables).unwrap();
            assert!(Arc::ptr_eq(&cell.module(), &allocation), "{name}");
        }
    }

    #[test]
    fn measure_unit_matches_a_fresh_allocation() {
        let run = Run::default();
        let tables = Setup::default();
        let name = "radf5";
        let base = run.unit(name, &tables).unwrap();
        let machine = MachineConfig::with_ccm(512);
        let v = Variant::PostPassCallGraph;
        let cached = run.measure_unit(name, &tables, v, &machine).unwrap();
        let hit = run.measure_unit(name, &tables, v, &machine).unwrap();
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
            .measure_unit(name, &tables, v, &MachineConfig::with_ccm(1024))
            .unwrap();
        assert!(wider.cycles <= cached.cycles, "bigger CCM can't be slower");
    }
}
