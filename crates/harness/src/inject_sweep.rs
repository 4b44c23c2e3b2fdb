//! `repro --inject-sweep`: the fault-injection harness.
//!
//! Walks every fault point in [`inject::REGISTRY`], arms it, drives a
//! real compile-and-measure workload through the armed pipeline, and
//! asserts that the run **survives** with exactly the expected
//! structured outcome — a `stage=alloc` error for an allocator panic, a
//! degradation event (not an error) for a CCM coloring failure, a
//! `stage=sim` error for an exhausted step budget, and so on. A point
//! that does not fire, fires with the wrong shape, or escapes
//! containment fails the sweep; the process itself must never abort.
//!
//! The sweep runs points strictly one at a time (arming is process-
//! global), and every armed measurement runs in a fresh [`Run`] that
//! builds the workload kernel itself, so an armed point always reaches
//! the stage it targets and nothing it leaves in a memo is read by
//! another measurement.

use std::panic;

use ccm::Variant;

use crate::error::{PipelineError, Stage};
use crate::pipeline::{Measurement, Run, Setup};

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

/// Measures the workload under `variant` in a fresh [`Run`].
fn measure(variant: Variant) -> Result<Measurement, PipelineError> {
    let run = Run::default();
    run.measure_unit(KERNEL, &Setup::default(), variant, &run.machine(CCM))
}

/// The points a measurement contains as a structured error: (name,
/// variant measured, stage, a phrase of the detail). An allocator panic
/// is `stage=alloc`, a checker rejection gates simulation as
/// `stage=checker`, and an exhausted step budget or a bad global
/// resolution is `stage=sim`.
#[rustfmt::skip]
const CONTAINED: [(&str, Variant, Stage, &str); 4] = [
    ("alloc.panic", Variant::PostPassCallGraph, Stage::Alloc, "injected allocator panic"),
    ("checker.forced_error", Variant::PostPassCallGraph, Stage::Checker, "injected checker error"),
    ("sim.budget", Variant::Baseline, Stage::Sim, "step limit"),
    ("sim.unknown_global", Variant::Baseline, Stage::Sim, "unknown global"),
];

/// Arms fault point `name`, measures the workload under `variant`, and
/// asserts the measurement fails with `stage` and a detail mentioning
/// `needle`: the point's failure is contained as a structured error.
fn point_contained(
    name: &str,
    variant: Variant,
    stage: Stage,
    needle: &str,
) -> Result<String, String> {
    inject::arm(name).map_err(|e| e.to_string())?;
    let r = measure(variant);
    inject::disarm();
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
fn point_ccm_coloring() -> Result<String, String> {
    let mut lines = Vec::new();
    for variant in [Variant::PostPassCallGraph, Variant::Integrated] {
        let clean = measure(variant).map_err(|e| format!("clean run failed: {e}"))?;
        inject::arm_once("alloc.ccm_coloring").map_err(|e| e.to_string())?;
        let degraded = measure(variant);
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

/// `exec.worker_panic`: every item's worker panic is contained in its
/// own slot and recorded by [`Run::par_contained`] as a `stage=exec`
/// failure of a fresh [`Run`], and the records are identical at any job
/// count.
fn point_exec_worker_panic(jobs: usize) -> Result<String, String> {
    let items: Vec<u32> = (0..8).collect();
    let label = |i: &u32| format!("sweep item {i}");
    let records = |j: usize| {
        let run = Run::new(j, sim::DEFAULT_MAX_STEPS);
        run.par_contained(&items, label, |&i| Ok(i * 2));
        run.drain()
    };
    inject::arm("exec.worker_panic").map_err(|e| e.to_string())?;
    let serial = records(1);
    let par = records(jobs.max(2));
    inject::disarm();
    if serial != par {
        return Err("jobs=1 and parallel failure reports diverged".to_string());
    }
    // `drain` sorts by unit, and the labels sort in item order.
    let contained = serial
        .iter()
        .zip(&items)
        .filter(|&(e, i)| {
            e.stage == Stage::Exec
                && e.unit == label(i)
                && e.detail.contains("injected worker panic")
        })
        .count();
    if contained != items.len() || serial.len() != items.len() {
        return Err(format!(
            "{contained}/{} items recorded the injected panic as stage=exec ({} records)",
            items.len(),
            serial.len()
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
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut out = Vec::new();
    for p in inject::REGISTRY {
        let verdict = match p.name {
            "alloc.ccm_coloring" => point_ccm_coloring(),
            "exec.worker_panic" => point_exec_worker_panic(jobs),
            name => match CONTAINED.iter().find(|c| c.0 == name) {
                Some(&(_, variant, stage, needle)) => point_contained(name, variant, stage, needle),
                None => Err(format!(
                    "no sweep workload drives `{name}` — register one in inject_sweep.rs"
                )),
            },
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
