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
//!   already made, so `repro --all` optimizes each kernel once;
//! * **the baseline allocation** — [`Run::baseline_allocation`] memoizes
//!   the Chaitin-Briggs allocation once per unit. No CCM method changes
//!   the register assignment: the post-pass allocator runs after a
//!   conventional allocation and only rewrites its spill code (the
//!   paper's §3.1), and the integrated allocator's CCM edges decide only
//!   where a spill lands (§3.2). So that allocation depends on neither
//!   the variant nor the CCM size: all four variants at every size share
//!   it, and Table 1 compacts it;
//! * **checks and simulations** — [`Run::allocated`] derives a
//!   configuration from that allocation: `Baseline` shares the unit's
//!   allocated module without a copy, and every CCM variant promotes a
//!   clone of it ([`ccm::promote_allocated`], a few percent of the
//!   allocation's cost), which gives exactly what a fresh
//!   [`ccm::allocate_variant`] would. The checker's diagnostics are kept
//!   in one [`ModuleMemo`] per unit, and [`Run::measure_unit`]'s sealed
//!   simulation results in one per (unit, `MachineConfig` with its CCM
//!   size cleared). A [`ModuleMemo`] is keyed by the module's content and
//!   by the CCM size only when the module uses the CCM, so Baseline at
//!   512 and 1024 B, and every CCM variant of a unit whose spills stay in
//!   the frame, are checked and simulated once. The derived module's
//!   `spilled_ranges` and degradations, and the variant label, stay per
//!   configuration: no key names a variant. `repro`'s kernel tables check
//!   and simulate 264 of their 422 configurations, the figures 66 of
//!   104 ([`Run::measured`]).
//!
//! Failure is structured end to end: build panics become `stage=opt`
//! errors, allocation and promotion panics `stage=alloc` (a failed
//! baseline allocation is reported at each configuration that needed
//! it), checker rejections `stage=checker`, simulator traps
//! `stage=sim` — and every stored simulation is **sealed** with a
//! digest at insert time, so a corrupted entry (bit rot, or the
//! `cache.corrupt_measurement` fault point) is detected on its next hit
//! as a `stage=cache` error and evicted instead of silently poisoning a
//! table. Failures are never cached: a later call recomputes.
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
use crate::pipeline::{self, Measurement, Run};

/// Locks a cache map, recovering from poisoning: a panic caught by the
/// containment layer must not wedge every later measurement.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

type Map = Mutex<HashMap<&'static str, Arc<Module>>>;

/// The simulations of one (unit, machine with its CCM size cleared).
#[derive(Default)]
struct Sims {
    runs: ModuleMemo<Sealed>,
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
    /// Every diagnostic from [`pipeline::check_allocated`].
    pub diags: Arc<Vec<checker::Diagnostic>>,
    /// Live ranges spilled during allocation.
    pub spilled_ranges: usize,
    /// Per-function CCM→heavyweight degradation events.
    pub degraded: Vec<ccm::Degradation>,
}

/// A simulation result sealed with the digest computed at insert time.
#[derive(Clone, Copy)]
struct Sealed {
    metrics: Metrics,
    checksum: f64,
    digest: u64,
}

/// FNV-1a over a simulation's metrics and checksum. Detects any
/// corruption of the numbers the tables are built from.
fn digest(metrics: &Metrics, checksum: f64) -> u64 {
    let c = &metrics.cache;
    [
        metrics.cycles,
        metrics.mem_op_cycles,
        metrics.instrs,
        metrics.main_mem_ops,
        metrics.ccm_ops,
        metrics.spill_stores,
        metrics.spill_restores,
        metrics.calls,
        metrics.max_depth,
        metrics.stall_cycles,
        c.hits,
        c.misses,
        c.victim_hits,
        c.buffered_stores,
        c.evictions,
        checksum.to_bits(),
    ]
    .iter()
    .flat_map(|x| x.to_le_bytes())
    .fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
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

    /// The Chaitin-Briggs allocation of `base` under the default register
    /// supply, memoized per unit name: the allocated module and the
    /// number of live ranges it spilled. It depends on neither the
    /// variant nor the CCM size, so every configuration in
    /// [`Run::allocated`] and Table 1's compaction start from this one
    /// allocation. `base` must be this run's build for `name`.
    ///
    /// # Errors
    ///
    /// An allocation panic is contained as a `stage=alloc` error with no
    /// variant or CCM coordinates. Nothing is cached, so a later call
    /// retries.
    pub fn baseline_allocation(
        &self,
        name: &str,
        base: &Arc<Module>,
    ) -> Result<(Arc<Module>, usize), PipelineError> {
        if let Some((m, spilled)) = lock(&self.memo.baselines).get(name) {
            return Ok((Arc::clone(m), *spilled));
        }
        let (m, spilled) = contain_alloc(name, || {
            let mut m = (**base).clone();
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
    /// [`Run::baseline_allocation`] and checks it. `Baseline` shares the
    /// allocated module as is; the CCM variants promote a clone of it
    /// with [`ccm::promote_allocated`]. The checker runs once per module
    /// the unit's [`ModuleMemo`] tells apart, and the module returned is
    /// the one stored there. Kernel and program names are globally unique
    /// in the suite, so the flat name key cannot collide; `base` must be
    /// this run's build for `name`.
    ///
    /// Checker diagnostics are data here, not failure: `--check` reports
    /// error rows rather than skipping them. [`Run::measure_unit`]
    /// applies the error gate before simulating.
    ///
    /// # Errors
    ///
    /// An allocation or promotion panic is contained as a `stage=alloc`
    /// error.
    pub fn allocated(
        &self,
        name: &str,
        base: &Arc<Module>,
        variant: Variant,
        ccm_size: u32,
    ) -> Result<Allocated, PipelineError> {
        let at = |e: PipelineError| e.at(variant, ccm_size);
        let (allocated, spilled_ranges) = self.baseline_allocation(name, base).map_err(at)?;
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
            let diags = Arc::new(pipeline::check_allocated(&module, ccm_size));
            let mut map = lock(&self.memo.checks);
            let checks = map.entry(name.to_string()).or_default();
            let (m, d) = checks.insert(module, ccm_size, diags);
            (Arc::clone(m), Arc::clone(d))
        });
        Ok(Allocated {
            module,
            diags,
            spilled_ranges,
            degraded,
        })
    }

    /// Measures suite unit `name` (`base` is this run's build of it)
    /// under `variant` on `machine`: the allocation from
    /// [`Run::allocated`], refused if the checker found errors, then
    /// simulated. The simulation is kept in a [`ModuleMemo`] per (unit
    /// name, `machine` with its CCM size cleared), so distinct cache
    /// models, latencies or step budgets never share an entry, and an
    /// equal module under an equal CCM key is simulated once.
    ///
    /// # Errors
    ///
    /// Every stage failure is structured: an allocator panic is
    /// `stage=alloc`, a checker rejection `stage=checker`, and a
    /// simulator trap (unknown global, out-of-bounds access, exhausted
    /// `--sim-budget`) `stage=sim`. A stored simulation whose seal no
    /// longer matches its contents is evicted and reported as a
    /// `stage=cache` error (the next call recomputes it). CCM coloring
    /// failures are *not* errors: the affected function degrades to
    /// heavyweight spills and the event is recorded in
    /// [`Measurement::degraded`].
    pub fn measure_unit(
        &self,
        name: &str,
        base: &Arc<Module>,
        variant: Variant,
        machine: &MachineConfig,
    ) -> Result<Measurement, PipelineError> {
        let ccm_size = machine.ccm_size;
        let a = self.allocated(name, base, variant, ccm_size)?;
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
            match sims.runs.get(&a.module, ccm_size).map(|(_, s)| *s) {
                Some(s) if digest(&s.metrics, s.checksum) == s.digest => {
                    sims.serve(variant, ccm_size);
                    Some(s)
                }
                Some(_) => {
                    // Corrupt entry: evict so the next call recomputes,
                    // and surface the detection as a structured failure.
                    sims.runs.remove(&a.module, ccm_size);
                    return Err(at(PipelineError::new(
                        Stage::Cache,
                        name,
                        "corrupt cache entry: measurement digest mismatch (entry evicted)",
                    )));
                }
                None => None,
            }
        };
        let Sealed {
            metrics, checksum, ..
        } = match stored {
            Some(s) => s,
            None => {
                let (vals, metrics) = sim::run_module(&a.module, machine.clone(), "main")
                    .map_err(|e| at(PipelineError::new(Stage::Sim, name, e.to_string())))?;
                let checksum = vals.floats.first().copied().unwrap_or(f64::NAN);
                let sealed = Sealed {
                    metrics,
                    checksum,
                    digest: digest(&metrics, checksum),
                };
                let mut stored = sealed;
                if inject::faultpoint!("cache.corrupt_measurement") {
                    // Flip the stored copy *after* sealing: the caller's
                    // value is clean, but the next hit must detect the
                    // mismatch.
                    stored.metrics.cycles ^= 0xdead_beef;
                }
                let mut map = lock(&self.memo.sims);
                let sims = map.entry(key).or_default();
                sims.runs.insert(Arc::clone(&a.module), ccm_size, stored);
                sims.serve(variant, ccm_size);
                sealed
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
    fn one_baseline_allocation_serves_every_config() {
        let run = Run::default();
        let k = suite::kernel("fpppp").unwrap();
        let base = run.optimized(&k).unwrap();
        let at = |v, size| run.allocated(k.name, &base, v, size).unwrap();
        let (shared, spilled) = run.baseline_allocation(k.name, &base).unwrap();
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
    }

    #[test]
    fn measure_unit_matches_a_fresh_allocation() {
        let run = Run::default();
        let k = suite::kernel("radf5").unwrap();
        let base = run.optimized(&k).unwrap();
        let machine = MachineConfig::with_ccm(512);
        let v = Variant::PostPassCallGraph;
        let cached = run.measure_unit(k.name, &base, v, &machine).unwrap();
        let hit = run.measure_unit(k.name, &base, v, &machine).unwrap();
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
            .measure_unit(k.name, &base, v, &MachineConfig::with_ccm(1024))
            .unwrap();
        assert!(wider.cycles <= cached.cycles, "bigger CCM can't be slower");
    }

    #[test]
    fn corrupted_entry_is_detected_evicted_and_recomputed() {
        let run = Run::default();
        let k = suite::kernel("radf5").unwrap();
        let base = run.optimized(&k).unwrap();
        let machine = MachineConfig::with_ccm(512);
        let clean = run
            .measure_unit(k.name, &base, Variant::PostPass, &machine)
            .unwrap();
        // Corrupt the sealed entry behind the memo's back.
        let module = run
            .allocated(k.name, &base, Variant::PostPass, machine.ccm_size)
            .unwrap()
            .module;
        let key = (
            k.name.to_string(),
            MachineConfig {
                ccm_size: 0,
                ..machine.clone()
            },
        );
        let mut map = lock(&run.memo.sims);
        let runs = &mut map.get_mut(&key).expect("entry present").runs;
        let mut sealed = runs
            .remove(&module, machine.ccm_size)
            .expect("entry present");
        sealed.metrics.cycles ^= 1;
        runs.insert(module, machine.ccm_size, sealed);
        drop(map);
        let err = run
            .measure_unit(k.name, &base, Variant::PostPass, &machine)
            .unwrap_err();
        assert_eq!(err.stage, Stage::Cache);
        assert!(err.detail.contains("corrupt"), "{err}");
        // Eviction means the next call recomputes the clean value.
        let again = run
            .measure_unit(k.name, &base, Variant::PostPass, &machine)
            .unwrap();
        assert_eq!(again.cycles, clean.cycles);
    }
}
