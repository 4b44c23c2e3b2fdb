//! `repro --inject-sweep`: the fault-injection harness.
//!
//! Walks every fault point in [`inject::REGISTRY`], arms it, drives a
//! real compile-and-measure workload through the armed pipeline, and
//! asserts that the run **survives** with exactly the expected
//! structured outcome — a `stage=alloc` error for an allocator panic, a
//! degradation event (not an error) for a CCM coloring failure, a
//! detected-and-evicted `stage=cache` error for a corrupted cache entry,
//! and so on. A point that does not fire, fires with the wrong shape, or
//! escapes containment fails the sweep; the process itself must never
//! abort.
//!
//! The sweep runs points strictly one at a time (arming is process-
//! global) and measures through [`pipeline::measure`] directly rather
//! than the memoization layer, so an injected failure can never poison a
//! cached entry that a later experiment would reuse. The one exception
//! is `cache.corrupt_measurement`, whose whole purpose is the cache — it
//! uses a machine configuration no real experiment measures, so the
//! poisoned key is private to the sweep.

use std::panic;

use ccm::Variant;
use iloc::Module;
use sim::MachineConfig;

use crate::cache;
use crate::error::{PipelineError, Stage};
use crate::pipeline::{self, Measurement};

/// The verdict for one fault point.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Registry name of the point.
    pub name: &'static str,
    /// Whether the run survived with the expected structured failure.
    pub passed: bool,
    /// What actually happened.
    pub detail: String,
}

/// The spilling kernel every workload drives; it exercises allocation,
/// CCM promotion, the checker, and the simulator.
const KERNEL: &str = "radf5";
const CCM: u32 = 512;

fn workload_module() -> Result<Module, String> {
    let k = suite::kernel(KERNEL).ok_or_else(|| format!("suite kernel `{KERNEL}` missing"))?;
    Ok(suite::build_optimized(&k))
}

fn machine() -> MachineConfig {
    MachineConfig::with_ccm(CCM)
}

fn measure(m: &Module, variant: Variant) -> Result<Measurement, PipelineError> {
    pipeline::measure_named(KERNEL, m.clone(), variant, &machine())
}

/// Asserts an `Err` with the given stage whose detail mentions `needle`.
fn expect_err(
    r: Result<Measurement, PipelineError>,
    stage: Stage,
    needle: &str,
) -> Result<String, String> {
    match r {
        Ok(_) => Err(format!("expected a stage={} error, got Ok", stage.name())),
        Err(e) if e.stage == stage && e.detail.contains(needle) => {
            Ok(format!("contained as `{e}`"))
        }
        Err(e) => Err(format!(
            "expected stage={} containing `{needle}`, got `{e}`",
            stage.name()
        )),
    }
}

/// `alloc.ccm_coloring`: the coloring failure must *degrade* the hit
/// function (heavyweight spills, a recorded [`ccm::Degradation`]) while
/// program outputs stay byte-identical to the clean run — for the
/// post-pass and the integrated allocator.
fn point_ccm_coloring(m: &Module) -> Result<String, String> {
    let mut lines = Vec::new();
    for variant in [Variant::PostPassCallGraph, Variant::Integrated] {
        let clean = measure(m, variant).map_err(|e| format!("clean run failed: {e}"))?;
        inject::arm_once("alloc.ccm_coloring", 0).map_err(|e| e.to_string())?;
        let degraded = measure(m, variant);
        let fires = inject::disarm();
        let degraded = degraded.map_err(|e| format!("degraded run errored: {e}"))?;
        if fires == 0 {
            return Err(format!("point never fired under {}", variant.short()));
        }
        if degraded.degraded.is_empty() {
            return Err(format!(
                "{}: no degradation event recorded",
                variant.short()
            ));
        }
        if degraded.checksum.to_bits() != clean.checksum.to_bits() {
            return Err(format!(
                "{}: degraded checksum {} != clean {}",
                variant.short(),
                degraded.checksum,
                clean.checksum
            ));
        }
        lines.push(format!(
            "{}: {} degraded, outputs identical",
            variant.short(),
            degraded.degraded[0].function
        ));
    }
    Ok(lines.join("; "))
}

/// `alloc.panic`: an allocator panic is contained as `stage=alloc`.
fn point_alloc_panic(m: &Module) -> Result<String, String> {
    inject::arm("alloc.panic").map_err(|e| e.to_string())?;
    let r = measure(m, Variant::PostPassCallGraph);
    inject::disarm();
    expect_err(r, Stage::Alloc, "injected allocator panic")
}

/// `checker.forced_error`: a checker rejection gates simulation as
/// `stage=checker`.
fn point_checker(m: &Module) -> Result<String, String> {
    inject::arm("checker.forced_error").map_err(|e| e.to_string())?;
    let r = measure(m, Variant::PostPassCallGraph);
    inject::disarm();
    expect_err(r, Stage::Checker, "injected checker error")
}

/// `sim.budget`: an exhausted instruction budget is `stage=sim`.
fn point_sim_budget(m: &Module) -> Result<String, String> {
    inject::arm("sim.budget").map_err(|e| e.to_string())?;
    let r = measure(m, Variant::Baseline);
    inject::disarm();
    expect_err(r, Stage::Sim, "step limit")
}

/// `sim.unknown_global`: a bad global resolution is `stage=sim`.
fn point_sim_unknown_global(m: &Module) -> Result<String, String> {
    inject::arm("sim.unknown_global").map_err(|e| e.to_string())?;
    let r = measure(m, Variant::Baseline);
    inject::disarm();
    expect_err(r, Stage::Sim, "unknown global")
}

/// `cache.corrupt_measurement`: the first call seals a corrupted entry
/// (while returning the clean value); the next hit must detect the
/// digest mismatch as `stage=cache` and evict, and the call after that
/// recomputes the clean value.
fn point_cache_corruption(m: &Module) -> Result<String, String> {
    let base = std::sync::Arc::new(m.clone());
    // A max_steps value nothing else uses keeps this key sweep-private.
    let machine = MachineConfig {
        max_steps: 1_999_999_999,
        ..machine()
    };
    inject::arm("cache.corrupt_measurement").map_err(|e| e.to_string())?;
    let first = cache::measure_unit(KERNEL, &base, Variant::PostPass, &machine);
    let fires = inject::disarm();
    let first = first.map_err(|e| format!("seeding call failed: {e}"))?;
    if fires == 0 {
        return Err("point never fired (was the entry already cached?)".to_string());
    }
    let hit = cache::measure_unit(KERNEL, &base, Variant::PostPass, &machine);
    let detail = match hit {
        Err(e) if e.stage == Stage::Cache && e.detail.contains("corrupt") => format!("{e}"),
        Err(e) => {
            return Err(format!(
                "expected stage=cache containing `corrupt`, got `{e}`"
            ))
        }
        Ok(_) => return Err("corrupt entry went undetected".to_string()),
    };
    let recomputed = cache::measure_unit(KERNEL, &base, Variant::PostPass, &machine)
        .map_err(|e| format!("post-eviction recompute failed: {e}"))?;
    if recomputed.cycles != first.cycles {
        return Err("post-eviction recompute diverged from the clean value".to_string());
    }
    Ok(format!("detected and evicted: {detail}"))
}

/// `exec.worker_panic`: every item's worker panic is contained in its
/// own slot, and the failure report is byte-identical at any job count.
fn point_exec_worker_panic(jobs: usize) -> Result<String, String> {
    let items: Vec<u32> = (0..8).collect();
    let run =
        |j: usize| exec::par_map_contained(j, &items, |i| format!("sweep item {i}"), |&i| i * 2);
    inject::arm("exec.worker_panic").map_err(|e| e.to_string())?;
    let serial = run(1);
    let par = run(jobs.max(2));
    inject::disarm();
    if serial != par {
        return Err("jobs=1 and parallel failure reports diverged".to_string());
    }
    let contained = serial
        .iter()
        .filter(|r| matches!(r, Err(e) if e.message.contains("injected worker panic")))
        .count();
    if contained != items.len() {
        return Err(format!(
            "{contained}/{} items contained the injected panic",
            items.len()
        ));
    }
    Ok(format!(
        "{contained}/{} items failed structurally, reports job-count-invariant",
        items.len()
    ))
}

/// Runs the full sweep: every registry point, one at a time, against a
/// real workload. Panic-type points are expected to panic inside the
/// containment layer, so the default panic hook is silenced for the
/// duration (the *structured* reports are what the sweep asserts on).
pub fn run_sweep(jobs: usize) -> Vec<SweepOutcome> {
    inject::disarm();
    let module = workload_module();
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut out = Vec::new();
    for p in inject::REGISTRY {
        let verdict = match (&module, p.name) {
            (Err(e), _) => Err(format!("workload unavailable: {e}")),
            (Ok(m), "alloc.ccm_coloring") => point_ccm_coloring(m),
            (Ok(m), "alloc.panic") => point_alloc_panic(m),
            (Ok(m), "checker.forced_error") => point_checker(m),
            (Ok(m), "sim.budget") => point_sim_budget(m),
            (Ok(m), "sim.unknown_global") => point_sim_unknown_global(m),
            (Ok(m), "cache.corrupt_measurement") => point_cache_corruption(m),
            (Ok(_), "exec.worker_panic") => point_exec_worker_panic(jobs),
            (Ok(_), other) => Err(format!(
                "no sweep workload drives `{other}` — register one in inject_sweep.rs"
            )),
        };
        // Never let one point's arming leak into the next.
        inject::disarm();
        out.push(match verdict {
            Ok(detail) => SweepOutcome {
                name: p.name,
                passed: true,
                detail,
            },
            Err(detail) => SweepOutcome {
                name: p.name,
                passed: false,
                detail,
            },
        });
    }
    panic::set_hook(prev_hook);
    out
}

/// Renders the sweep report (deterministic: registry order).
pub fn render(outcomes: &[SweepOutcome]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let failed = outcomes.iter().filter(|o| !o.passed).count();
    let _ = writeln!(
        s,
        "fault-injection sweep: {}/{} points survived with the expected failure",
        outcomes.len() - failed,
        outcomes.len()
    );
    for o in outcomes {
        let _ = writeln!(
            s,
            "  [{}] {:<26} {}",
            if o.passed { "ok" } else { "FAIL" },
            o.name,
            o.detail
        );
    }
    s
}
