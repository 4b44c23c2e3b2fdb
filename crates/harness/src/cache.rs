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
//! * **allocations** — [`Run::allocated`] memoizes derive-then-check per
//!   (unit, variant, CCM size). `Baseline` shares the unit's allocated
//!   module without a copy; every CCM variant promotes a clone of it
//!   ([`ccm::promote_allocated`], a few percent of the allocation's
//!   cost), which gives exactly what a fresh [`ccm::allocate_variant`]
//!   would. `--table3 --check` stops re-allocating the 616 configurations
//!   the tables already produced;
//! * **measurements** — [`Run::measure_unit`] memoizes the simulation
//!   result per (unit, variant, machine configuration); Table 2's rows
//!   are a subset of Table 3's, and the sweep/multitask studies revisit
//!   the same CCM sizes.
//!
//! Failure is structured end to end: build panics become `stage=opt`
//! errors, allocation and promotion panics `stage=alloc` (a failed
//! baseline allocation is reported at each configuration that needed
//! it), checker rejections `stage=checker`, simulator traps
//! `stage=sim` — and every cached measurement is **sealed** with a
//! digest at insert time, so a corrupted entry (bit rot, or the
//! `cache.corrupt_measurement` fault point) is detected on its next hit
//! as a `stage=cache` error and evicted instead of silently poisoning a
//! table. Failures are never cached: a later call recomputes.
//!
//! Expensive work happens outside the map locks — two workers racing on
//! the same key may both compute it (identical results, first insert
//! wins), but workers never serialize on each other's computation. That
//! is also why caching cannot break the engine's byte-identical
//! guarantee: a cache hit returns exactly the value a recomputation
//! would.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use ccm::Variant;
use iloc::Module;
use regalloc::AllocConfig;
use sim::MachineConfig;
use suite::{Kernel, Program};

use crate::error::{PipelineError, Stage};
use crate::pipeline::{self, Measurement, Run};

/// Locks a cache map, recovering from poisoning: a panic caught by the
/// containment layer must not wedge every later measurement.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

type Map = Mutex<HashMap<&'static str, Arc<Module>>>;
type AllocKey = (String, Variant, u32);
type MeasKey = (String, Variant, MachineConfig);

/// One map per memoized stage, each behind its own lock.
#[derive(Default)]
pub(crate) struct Memo {
    kernels: Map,
    programs: Map,
    baselines: Mutex<HashMap<String, (Arc<Module>, usize)>>,
    allocations: Mutex<HashMap<AllocKey, Allocated>>,
    measurements: Mutex<HashMap<MeasKey, Sealed>>,
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
    pub degraded: Arc<Vec<ccm::Degradation>>,
}

/// A cached measurement sealed with the digest computed at insert time.
struct Sealed {
    m: Measurement,
    digest: u64,
}

/// FNV-1a over the measurement's observable fields. Detects any
/// corruption of the numbers the tables are built from.
fn digest(m: &Measurement) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    mix(m.cycles);
    mix(m.mem_cycles);
    mix(m.metrics.instrs);
    mix(m.metrics.ccm_ops);
    mix(m.checksum.to_bits());
    mix(u64::from(m.spill_bytes));
    mix(m.spilled_ranges as u64);
    mix(m.degraded.len() as u64);
    for d in &m.degraded {
        for b in d.function.bytes().chain(d.reason.bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
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

    /// Allocates `base` under `variant` at `ccm_size` and runs the
    /// post-allocation checker, memoized per (unit name, variant, CCM
    /// size). Kernel and program names are globally unique in the suite,
    /// so the flat name key cannot collide; `base` must be this run's
    /// build for `name`.
    ///
    /// Every variant starts from the unit's [`Run::baseline_allocation`]:
    /// `Baseline` shares its module as is, and the CCM variants promote a
    /// clone of it with [`ccm::promote_allocated`].
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
        let key = (name.to_string(), variant, ccm_size);
        if let Some(a) = lock(&self.memo.allocations).get(&key) {
            return Ok(a.clone());
        }
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
        let diags = pipeline::check_allocated(&module, ccm_size);
        let built = Allocated {
            module,
            diags: Arc::new(diags),
            spilled_ranges,
            degraded: Arc::new(degraded),
        };
        Ok(lock(&self.memo.allocations)
            .entry(key)
            .or_insert(built)
            .clone())
    }

    /// Measures suite unit `name` (`base` is this run's build of it)
    /// under `variant` on `machine`, memoized per (unit name, variant,
    /// machine): the allocation from [`Run::allocated`], refused if the
    /// checker found errors, then simulated. The machine key is the whole
    /// `MachineConfig` compared by value, so distinct cache models,
    /// latencies, CCM sizes or step budgets never share an entry.
    ///
    /// # Errors
    ///
    /// Every stage failure is structured: an allocator panic is
    /// `stage=alloc`, a checker rejection `stage=checker`, and a
    /// simulator trap (unknown global, out-of-bounds access, exhausted
    /// `--sim-budget`) `stage=sim`. A cached entry whose seal no longer
    /// matches its contents is evicted and reported as a `stage=cache`
    /// error (the next call recomputes it). CCM coloring failures are
    /// *not* errors: the affected function degrades to heavyweight spills
    /// and the event is recorded in [`Measurement::degraded`].
    pub fn measure_unit(
        &self,
        name: &str,
        base: &Arc<Module>,
        variant: Variant,
        machine: &MachineConfig,
    ) -> Result<Measurement, PipelineError> {
        let key = (name.to_string(), variant, machine.clone());
        {
            let mut map = lock(&self.memo.measurements);
            if let Some(sealed) = map.get(&key) {
                if digest(&sealed.m) == sealed.digest {
                    return Ok(sealed.m.clone());
                }
                // Corrupt entry: evict so the next call recomputes, and
                // surface the detection as a structured failure.
                map.remove(&key);
                return Err(PipelineError::new(
                    Stage::Cache,
                    name,
                    "corrupt cache entry: measurement digest mismatch (entry evicted)",
                )
                .at(variant, machine.ccm_size));
            }
        }
        let a = self.allocated(name, base, variant, machine.ccm_size)?;
        let at = |e: PipelineError| e.at(variant, machine.ccm_size);
        if let Some(detail) = checker::error_summary(&a.diags) {
            return Err(at(PipelineError::new(Stage::Checker, name, detail)));
        }
        let (vals, metrics) = sim::run_module(&a.module, machine.clone(), "main")
            .map_err(|e| at(PipelineError::new(Stage::Sim, name, e.to_string())))?;
        let built = Measurement {
            cycles: metrics.cycles,
            mem_cycles: metrics.mem_op_cycles,
            metrics,
            checksum: vals.floats.first().copied().unwrap_or(f64::NAN),
            spill_bytes: a
                .module
                .functions
                .iter()
                .map(|f| f.frame.spill_bytes())
                .sum(),
            spilled_ranges: a.spilled_ranges,
            degraded: (*a.degraded).clone(),
        };
        let mut sealed = Sealed {
            digest: digest(&built),
            m: built.clone(),
        };
        if inject::faultpoint!("cache.corrupt_measurement") {
            // Flip the stored copy *after* sealing: the caller's value is
            // clean, but the next hit must detect the mismatch.
            sealed.m.cycles ^= 0xdead_beef;
        }
        lock(&self.memo.measurements).entry(key).or_insert(sealed);
        Ok(built)
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
                assert_eq!(out.degraded, *derived.degraded);
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
        let key = (k.name.to_string(), Variant::PostPass, machine.clone());
        lock(&run.memo.measurements)
            .get_mut(&key)
            .expect("entry present")
            .m
            .cycles ^= 1;
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
