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
//!   the Chaitin-Briggs allocation per (unit, setup). No CCM method
//!   changes the register assignment: the post-pass allocator only
//!   rewrites spill code (§3.1), and the integrated allocator's CCM
//!   edges decide only where a spill lands (§3.2). So all four variants
//!   at every size share it, and [`Run::compacted`] compacts it;
//! * **derivations, checks and simulations** — [`Run::allocated`]
//!   derives a configuration from that allocation (`Baseline` shares the
//!   module, a CCM variant promotes a clone with
//!   [`ccm::promote_allocated`], exactly what a fresh
//!   [`ccm::allocate_variant`] gives) and keeps it per (unit, setup,
//!   variant, CCM size). Checker diagnostics, under the setup's register
//!   supply, are kept in one [`ModuleMemo`] per (unit, setup), and
//!   [`Run::measure_unit`]'s simulations in one per (unit,
//!   `MachineConfig` with its CCM size cleared). A [`ModuleMemo`] is
//!   keyed by the module's content and by the CCM size only when the
//!   module uses the CCM, so equal modules are checked and simulated
//!   once: `repro`'s kernel tables check and simulate 264 of their 422
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
//! comparisons of a [`ModuleMemo`] lookup run under one): two workers
//! racing on the same key may both compute it (identical results, first
//! insert wins), but never serialize on each other's computation, and a
//! cache hit returns exactly the value a recomputation would, so the
//! engine's output stays byte-identical at any `--jobs`.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use ccm::{CompactStats, Variant};
use iloc::{Module, ModuleMemo};
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

/// The simulations of one (unit, machine with its CCM size cleared).
#[derive(Default)]
struct Sims {
    runs: ModuleMemo<(Metrics, f64)>,
    /// The (setup, variant, CCM size) configurations these runs served,
    /// for the count [`Run::measured`] reports.
    served: HashSet<(Setup, Variant, u32)>,
}

/// One map per memoized stage, each behind its own lock.
#[derive(Default)]
pub(crate) struct Memo {
    builds: Builds,
    baselines: PerSetup<(Arc<Module>, usize)>,
    derived: Mutex<HashMap<(String, Setup, Variant, u32), Allocated>>,
    checks: PerSetup<ModuleMemo<Arc<Vec<checker::Diagnostic>>>>,
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
/// inside register allocation or CCM promotion becomes a `stage=alloc`
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

/// The measurement of `m`, an allocation from `a`, simulated to
/// `(metrics, checksum)`.
fn measurement(m: &Module, a: &Allocated, (metrics, checksum): (Metrics, f64)) -> Measurement {
    Measurement {
        cycles: metrics.cycles,
        mem_cycles: metrics.mem_op_cycles,
        metrics,
        checksum,
        spill_bytes: m.functions.iter().map(|f| f.frame.spill_bytes()).sum(),
        spilled_ranges: a.spilled_ranges,
        degraded: a.degraded.clone(),
    }
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
    /// [`Run::allocated`] and every compaction ([`Run::compacted`]) start
    /// from this one allocation. The build is fetched only on a memo
    /// miss.
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
        let key = (name.to_string(), *setup);
        if let Some((m, spilled)) = lock(&self.memo.baselines).get(&key) {
            return Ok((Arc::clone(m), *spilled));
        }
        let base = self.unit(name, setup)?;
        let (m, spilled) = contain_alloc(name, || {
            let mut m = (*base).clone();
            let spilled = regalloc::allocate_module(&mut m, &setup.alloc).total_spilled();
            (m, spilled)
        })?;
        let mut map = lock(&self.memo.baselines);
        let (m, spilled) = map.entry(key).or_insert((Arc::new(m), spilled));
        Ok((Arc::clone(m), *spilled))
    }

    /// Derives `variant` at `ccm_size` from the unit's
    /// [`Run::baseline_allocation`] under `setup` and checks it, once per
    /// (unit, setup, variant, CCM size) and run. `Baseline` shares the
    /// allocated module as is; the CCM variants promote a clone of it
    /// with [`ccm::promote_allocated`]. The checker runs under
    /// `setup.alloc`, once per module the (unit, setup)'s [`ModuleMemo`]
    /// tells apart, and the module returned is the one stored there.
    /// Kernel and program names are globally unique in the suite, so the
    /// flat name key cannot collide.
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
        setup: &Setup,
        variant: Variant,
        ccm_size: u32,
    ) -> Result<Allocated, PipelineError> {
        let key = (name.to_string(), *setup, variant, ccm_size);
        if let Some(a) = lock(&self.memo.derived).get(&key) {
            return Ok(a.clone());
        }
        let at = |e: PipelineError| e.at(variant, ccm_size);
        let (allocated, spilled_ranges) = self.baseline_allocation(name, setup).map_err(at)?;
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
        let checks_key = (name.to_string(), *setup);
        let stored = lock(&self.memo.checks)
            .get(&checks_key)
            .and_then(|checks| checks.get(&module, ccm_size))
            .map(|(m, d)| (Arc::clone(m), Arc::clone(d)));
        let (module, diags) = stored.unwrap_or_else(|| {
            let diags = Arc::new(checker::check_module(
                &module,
                &checker::CheckerConfig::with_alloc(ccm_size, setup.alloc),
            ));
            let mut map = lock(&self.memo.checks);
            let (m, d) = map
                .entry(checks_key)
                .or_default()
                .insert(module, ccm_size, diags);
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

    /// Measures suite unit `name` under `setup` and `variant` on
    /// `machine`: the allocation from [`Run::allocated`], refused if the
    /// checker found errors, then simulated. The simulation is kept in a
    /// [`ModuleMemo`] per (unit name, `machine` with its CCM size
    /// cleared), so distinct cache models, latencies or step budgets
    /// never share an entry, and an equal module under an equal CCM key
    /// is simulated once, whichever setup made it.
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
        let a = self.allocated(name, setup, variant, ccm_size)?;
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
        let config = (*setup, variant, ccm_size);
        let stored = {
            let mut map = lock(&self.memo.sims);
            let sims = map.entry(key.clone()).or_default();
            let hit = sims.runs.get(&a.module, ccm_size).map(|(_, s)| *s);
            if hit.is_some() {
                sims.served.insert(config);
            }
            hit
        };
        let simulated = match stored {
            Some(s) => s,
            None => {
                let s = simulate(&a.module, machine)
                    .map_err(|e| at(PipelineError::new(Stage::Sim, name, e.to_string())))?;
                let mut map = lock(&self.memo.sims);
                let sims = map.entry(key).or_default();
                sims.runs.insert(Arc::clone(&a.module), ccm_size, s);
                sims.served.insert(config);
                s
            }
        };
        Ok(measurement(&a.module, &a, simulated))
    }

    /// Footnote 3's spill-memory compaction of one configuration, for
    /// Table 1 and the design ablation: compacts a clone of
    /// [`Run::allocated`]'s module, checks it (`compaction overlap`
    /// included) and simulates it on `machine`. `None` when no
    /// main-memory spill slot is left to compact; nothing is memoized.
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
        let mut m = Module::clone(&a.module);
        let stats =
            ccm::compact_module(&mut m)
                .into_iter()
                .fold(CompactStats::default(), |t, (_, s)| CompactStats {
                    before: t.before + s.before,
                    after: t.after + s.after,
                });
        if stats.before == 0 {
            return Ok(None);
        }
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
            &m,
            &a,
            simulate(&m, machine).map_err(|e| {
                PipelineError::new(Stage::Sim, name, format!("trapped after compaction: {e}"))
            })?,
        );
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
            a.module.to_string(),
            b.module.to_string(),
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
            assert!(Arc::ptr_eq(&cell.module, &allocation), "{name}");
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
