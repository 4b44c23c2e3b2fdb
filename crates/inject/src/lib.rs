#![warn(missing_docs)]
//! Deterministic fault injection for the compile-and-measure pipeline.
//!
//! Error-handling code that is never executed is broken code waiting to
//! be discovered in production. This crate turns the pipeline's failure
//! paths into a *tested surface*: pipeline, allocator, checker,
//! simulator and engine code compile in named **fault points** (via
//! [`faultpoint!`]), all of which are inert until a test or
//! `repro --inject-sweep` **arms** exactly one of them. An armed point
//! makes its site fail in a site-specific way — return its structured
//! error, panic, exhaust the simulation budget — and the caller then
//! asserts that the run *survives* with exactly the expected structured
//! failure.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost disarmed.** [`should_fire`] is a single relaxed atomic
//!    load on the fast path; the suite and benchmarks pay one branch.
//! 2. **Deterministic.** Arming is explicit and global; a point either
//!    fires on every hit ([`arm`]) or on its first hit only
//!    ([`arm_once`], serialized through a mutex so concurrent hitters
//!    cannot both fire). No randomness, no time dependence — a sweep
//!    chooses *which* point, never a coin flip.
//! 3. **Closed registry.** Every legal name is listed in [`REGISTRY`]
//!    with its site and expected failure; arming an unknown name is an
//!    error. The sweep walks the registry, so a registered point whose
//!    site was deleted shows up as "never fired" — the registry cannot
//!    silently rot.
//!
//! The crate is dependency-free and leaf-level: `sim`, `ccm`, `checker`,
//! `exec`, and `harness` all depend on it, never the reverse.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// How an armed point decides whether a given hit fires.
#[derive(PartialEq, Eq)]
enum Mode {
    /// Fire on every hit while armed.
    Always,
    /// Fire on the first hit, then go dormant (exactly one fire per
    /// arming).
    Once,
}

/// One entry of the fault-point registry.
#[derive(Copy, Clone, Debug)]
pub struct FaultPoint {
    /// Name used by [`arm`] and [`faultpoint!`].
    pub name: &'static str,
    /// Where the point is compiled in.
    pub site: &'static str,
    /// What the site does when the point fires.
    pub effect: &'static str,
    /// The structured failure (or event) the run must surface.
    pub expect: &'static str,
}

/// Every fault point compiled into the workspace. `repro --inject-sweep`
/// fires each of these one at a time and asserts the expected outcome.
pub const REGISTRY: &[FaultPoint] = &[
    FaultPoint {
        name: "alloc.ccm_coloring",
        site: "ccm::postpass::promote_function / ccm::integrated::place_function",
        effect: "CCM slot coloring fails for one function",
        expect: "degradation event: the function falls back to heavyweight spills; \
                 outputs byte-identical; no error",
    },
    FaultPoint {
        name: "alloc.panic",
        site: "ccm::postpass_promote / ccm::integrated_promote entry",
        effect: "the CCM allocator panics",
        expect: "PipelineError stage=alloc containing `injected allocator panic`",
    },
    FaultPoint {
        name: "checker.forced_error",
        site: "checker::check_module",
        effect: "a synthetic error diagnostic is appended",
        expect: "PipelineError stage=checker containing `injected checker error`",
    },
    FaultPoint {
        name: "sim.budget",
        site: "sim::run_module interpreter, budget check once per block slice",
        effect: "the instruction budget reads as exhausted",
        expect: "PipelineError stage=sim containing `step limit`",
    },
    FaultPoint {
        name: "sim.unknown_global",
        site: "sim::run_module entry, before the entry function lookup",
        effect: "the entry function resolves a global that does not exist",
        expect: "PipelineError stage=sim containing `unknown global`",
    },
    FaultPoint {
        name: "exec.worker_panic",
        site: "exec::par_map_contained item execution",
        effect: "the worker panics before running its item",
        expect: "ItemFailure / PipelineError stage=exec containing `injected worker panic`",
    },
];

/// Looks up a registry entry by name.
pub fn point(name: &str) -> Option<&'static FaultPoint> {
    REGISTRY.iter().find(|p| p.name == name)
}

struct Arming {
    name: &'static str,
    mode: Mode,
    fires: u64,
}

/// Fast-path gate: false whenever nothing is armed.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<Option<Arming>> {
    static STATE: Mutex<Option<Arming>> = Mutex::new(None);
    &STATE
}

fn lock_state() -> MutexGuard<'static, Option<Arming>> {
    // A panic *while armed* is an expected event (that is what panic
    // faults are for); recover rather than poisoning every later test.
    state().lock().unwrap_or_else(|p| p.into_inner())
}

fn arm_with(name: &str, mode: Mode) -> Result<(), String> {
    let p = point(name).ok_or_else(|| {
        format!(
            "unknown fault point `{name}` (known: {})",
            REGISTRY
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    *lock_state() = Some(Arming {
        name: p.name,
        mode,
        fires: 0,
    });
    ACTIVE.store(true, Ordering::SeqCst);
    Ok(())
}

/// Arms `name` to fire on every hit until [`disarm`].
///
/// # Errors
///
/// Returns a message listing the legal names if `name` is not in
/// [`REGISTRY`].
pub fn arm(name: &str) -> Result<(), String> {
    arm_with(name, Mode::Always)
}

/// Arms `name` to fire on its first hit only: in a serial run, the
/// first function or measurement that reaches the site.
///
/// # Errors
///
/// Same as [`arm`].
pub fn arm_once(name: &str) -> Result<(), String> {
    arm_with(name, Mode::Once)
}

/// Disarms whatever is armed and returns how often it fired.
pub fn disarm() -> u64 {
    let mut g = lock_state();
    ACTIVE.store(false, Ordering::SeqCst);
    g.take().map(|a| a.fires).unwrap_or(0)
}

/// Called by [`faultpoint!`] at every site hit: true when the site must
/// fail now. Disarmed cost is one relaxed atomic load.
pub fn should_fire(name: &str) -> bool {
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    let mut g = lock_state();
    let Some(a) = g.as_mut() else { return false };
    if a.name != name {
        return false;
    }
    let fire = a.mode == Mode::Always || a.fires == 0;
    if fire {
        a.fires += 1;
    }
    fire
}

/// Declares a fault point: expands to a `bool` that is `false` unless
/// this exact name is armed and due. Sites branch on it:
///
/// ```
/// fn color_function() -> Result<(), String> {
///     if inject::faultpoint!("alloc.ccm_coloring") {
///         return Err("injected coloring failure".into());
///     }
///     Ok(())
/// }
/// assert!(color_function().is_ok()); // disarmed: inert
/// ```
#[macro_export]
macro_rules! faultpoint {
    ($name:literal) => {
        $crate::should_fire($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arming is process-global; tests in this binary serialize on it.
    fn guard() -> MutexGuard<'static, ()> {
        static G: Mutex<()> = Mutex::new(());
        G.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_points_never_fire() {
        let _g = guard();
        disarm();
        assert!(!should_fire("sim.budget"));
        assert_eq!(disarm(), 0);
    }

    #[test]
    fn always_mode_fires_every_hit_for_its_name_only() {
        let _g = guard();
        arm("sim.budget").unwrap();
        assert!(should_fire("sim.budget"));
        assert!(should_fire("sim.budget"));
        assert!(!should_fire("alloc.panic"), "other names stay inert");
        assert_eq!(disarm(), 2);
        assert!(!should_fire("sim.budget"), "disarm is immediate");
    }

    #[test]
    fn once_mode_fires_on_the_first_hit_only() {
        let _g = guard();
        arm_once("alloc.ccm_coloring").unwrap();
        assert!(!should_fire("sim.budget"), "other names stay inert");
        let fired: Vec<bool> = (0..4).map(|_| should_fire("alloc.ccm_coloring")).collect();
        assert_eq!(fired, [true, false, false, false]);
        assert_eq!(disarm(), 1);
    }

    #[test]
    fn unknown_names_are_rejected() {
        let _g = guard();
        let err = arm("no.such.point").unwrap_err();
        assert!(err.contains("no.such.point") && err.contains("sim.budget"));
        assert!(!should_fire("no.such.point"));
        assert_eq!(disarm(), 0, "a rejected name arms nothing");
    }

    #[test]
    fn registry_names_are_unique_and_documented() {
        for (i, p) in REGISTRY.iter().enumerate() {
            assert!(!p.site.is_empty() && !p.effect.is_empty() && !p.expect.is_empty());
            for q in &REGISTRY[i + 1..] {
                assert_ne!(p.name, q.name, "duplicate fault point");
            }
        }
        assert!(point("sim.budget").is_some());
        assert!(point("nope").is_none());
    }
}
