//! Fault-injection integration tests: every registered fault point is
//! fired against the real pipeline and the run must survive with the
//! expected structured failure. This lives in its own test binary
//! because arming (`inject::arm`) is process-global — each test takes
//! the shared guard so two armed tests never interleave, and no other
//! binary's tests share the process. The simulator's step budget is
//! not global: it travels in each `MachineConfig` (see
//! `sim_budget_override_acts_as_watchdog` below). Every armed
//! measurement runs in a fresh `harness::Run`, so the memo of one run
//! never hands a clean result to an armed measurement or an injected
//! one to a clean measurement. The one exception is
//! `failures_are_never_memoized`, which arms points that only fail
//! inside one run and then measures again in it.

use std::sync::{Mutex, MutexGuard};

use harness::{inject_sweep, Measurement, PipelineError, Run, Setup, Variant};
use sim::MachineConfig;

/// Serializes tests that touch process-global state (arming and the
/// panic hook).
fn guard() -> MutexGuard<'static, ()> {
    static G: Mutex<()> = Mutex::new(());
    G.lock().unwrap_or_else(|p| p.into_inner())
}

fn must(r: Result<Measurement, PipelineError>) -> Measurement {
    r.unwrap_or_else(|e| panic!("measurement failed: {e}"))
}

/// Measures radf5 under `v` on `machine` in a fresh run.
fn measure(v: Variant, machine: &MachineConfig) -> Result<Measurement, PipelineError> {
    Run::default().measure_unit("radf5", &Setup::default(), v, machine)
}

/// The sweep is the master assertion: every point in the registry
/// fires, is contained with the expected shape, and leaves the process
/// healthy.
#[test]
fn every_registered_point_survives_with_expected_failure() {
    let _g = guard();
    let outcomes = inject_sweep::run_sweep(2);
    assert_eq!(outcomes.len(), inject::REGISTRY.len());
    for o in &outcomes {
        assert!(o.passed, "{}: {}", o.name, o.detail);
    }
    // Rendering is deterministic and names every point.
    let text = inject_sweep::render(&outcomes);
    for p in inject::REGISTRY {
        assert!(text.contains(p.name), "render lost {}", p.name);
    }
}

/// The acceptance scenario spelled out in full: a forced CCM-coloring
/// failure degrades one function to heavyweight spills while *every*
/// variant's golden output stays byte-identical — including the
/// variants measured before and after the injection.
#[test]
fn forced_coloring_failure_degrades_without_changing_any_golden_output() {
    let _g = guard();
    inject::disarm();
    let machine = MachineConfig::with_ccm(512);

    let clean: Vec<_> = Variant::ALL
        .iter()
        .map(|&v| must(measure(v, &machine)))
        .collect();
    let golden = clean[0].checksum.to_bits();
    for (v, c) in Variant::ALL.iter().zip(&clean) {
        assert_eq!(c.checksum.to_bits(), golden, "{v:?} clean run diverged");
        assert!(c.degraded.is_empty(), "{v:?} degraded unprovoked");
    }

    // Degrade exactly one function of the post-pass allocation.
    inject::arm_once("alloc.ccm_coloring").expect("registered point");
    let degraded = measure(Variant::PostPassCallGraph, &machine);
    let fires = inject::disarm();
    let degraded = must(degraded);
    assert_eq!(fires, 1, "the point must fire exactly once");
    assert_eq!(degraded.degraded.len(), 1, "exactly one function degrades");
    assert_eq!(
        degraded.checksum.to_bits(),
        golden,
        "degradation changed output"
    );
    // The degraded function kept its heavyweight spills, so the
    // degraded run can never beat the clean promoted run.
    let clean_cg = &clean[2];
    assert!(degraded.cycles >= clean_cg.cycles);

    // After disarming, every variant reproduces its clean measurement
    // bit for bit — the injection poisoned nothing.
    for (v, c) in Variant::ALL.iter().zip(&clean) {
        let again = must(measure(*v, &machine));
        assert_eq!(again.cycles, c.cycles, "{v:?} cycles changed after sweep");
        assert_eq!(again.checksum.to_bits(), c.checksum.to_bits());
        assert!(again.degraded.is_empty());
    }
}

/// Failures are never memoized: inside one run, an armed allocator
/// panic fails a CCM configuration and an armed step budget fails the
/// baseline, and once disarmed the same run measures both exactly as a
/// fresh run does, and counts the same simulations.
#[test]
fn failures_are_never_memoized() {
    let _g = guard();
    inject::disarm();
    let machine = MachineConfig::with_ccm(512);
    let run = Run::default();
    let measure_in = |run: &Run, v| run.measure_unit("radf5", &Setup::default(), v, &machine);

    // Panic-type point: silence the default hook for the duration.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    inject::arm("alloc.panic").expect("registered point");
    let alloc = measure_in(&run, Variant::PostPassCallGraph);
    inject::disarm();
    std::panic::set_hook(prev);
    inject::arm("sim.budget").expect("registered point");
    let sim = measure_in(&run, Variant::Baseline);
    inject::disarm();

    let alloc = alloc.expect_err("armed allocator panic");
    assert_eq!(alloc.stage, harness::Stage::Alloc, "{alloc}");
    assert!(alloc.detail.contains("injected allocator panic"), "{alloc}");
    let sim = sim.expect_err("armed step budget");
    assert_eq!(sim.stage, harness::Stage::Sim, "{sim}");
    assert!(sim.detail.contains("step limit"), "{sim}");

    let fresh = Run::default();
    for v in [Variant::PostPassCallGraph, Variant::Baseline] {
        let again = must(measure_in(&run, v));
        let clean = must(measure_in(&fresh, v));
        assert_eq!(again.cycles, clean.cycles, "{v:?}");
        assert_eq!(again.checksum.to_bits(), clean.checksum.to_bits(), "{v:?}");
    }
    assert_eq!(run.measured(), fresh.measured());
}

/// A fuzz campaign in which every non-baseline variant panics in the
/// allocator: each case reports a structured `Panicked` failure, the
/// campaign completes all cases, and the minimizer still produces a
/// reproducer.
#[test]
fn fuzz_campaign_survives_injected_allocator_panic() {
    let _g = guard();
    inject::disarm();
    // Panic-type point: silence the default hook for the duration.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let cfg = fuzz::OracleConfig {
        ccm_sizes: vec![64],
        variants: vec![Variant::PostPass],
        alloc: regalloc::AllocConfig::tiny(3),
        ..Default::default()
    };
    inject::arm("alloc.panic").expect("registered point");
    let results = fuzz::campaign(2, 7, 2, &cfg);
    inject::disarm();
    std::panic::set_hook(prev);

    assert_eq!(results.len(), 2, "campaign must complete every case");
    for r in &results {
        let mf = r.outcome.as_ref().expect_err("armed case must fail");
        assert_eq!(mf.failure.kind, fuzz::FailureKind::Panicked);
        assert!(
            mf.failure.detail.contains("injected allocator panic"),
            "case {}: detail `{}`",
            r.index,
            mf.failure.detail
        );
        // The minimizer still ran on the panicking case and produced a
        // parseable reproducer (the panic fires on any module, so the
        // shrink converges to something tiny).
        assert!(
            !mf.module.functions.is_empty(),
            "case {}: minimizer returned an empty reproducer",
            r.index
        );
        let text = mf.module.to_string();
        iloc::parse_module(&text).expect("minimized reproducer must round-trip");
    }
}

/// Seeded panic containment in the parallel engine: a fixed,
/// scheduling-independent subset of items panics and the failure report
/// is byte-identical at every job count. (This deliberately does NOT
/// use inject: `arm_once` under concurrent workers is deterministic
/// about *how many* fires happen, not about *which item* — a seeded
/// pattern in the work closure is the right tool for this assertion.)
#[test]
fn exec_panic_containment_reports_are_job_count_invariant() {
    let items: Vec<u64> = (0..40).collect();
    let render = |jobs: usize| {
        exec::par_map_contained(
            jobs,
            &items,
            |i| format!("unit {i}"),
            |&i| {
                if i % 7 == 2 {
                    panic!("seeded failure at {i}");
                }
                i * 3 + 1
            },
        )
        .iter()
        .map(|r| match r {
            Ok(v) => format!("ok {v}"),
            Err(e) => format!("fail {e}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
    };
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let serial = render(1);
    let j4 = render(4);
    let j9 = render(9);
    std::panic::set_hook(prev);
    assert_eq!(serial, j4, "jobs=4 failure report diverged");
    assert_eq!(serial, j9, "jobs=9 failure report diverged");
    assert!(serial.contains("fail unit 2: worker panic: seeded failure at 2"));
    assert_eq!(serial.matches("fail ").count(), 6); // 2,9,16,23,30,37
}

/// `--sim-budget` wiring: a step budget carried in `MachineConfig`
/// surfaces as a structured `stage=sim` step-limit error (the
/// runaway-loop watchdog), and a config at the default budget still
/// completes the same kernel — the budget is per run, not global.
#[test]
fn sim_budget_override_acts_as_watchdog() {
    let _g = guard();
    let machine = MachineConfig {
        max_steps: 100,
        ..MachineConfig::with_ccm(512)
    };
    let err = measure(Variant::Baseline, &machine).unwrap_err();
    assert_eq!(err.stage, harness::Stage::Sim);
    assert!(err.detail.contains("step limit"), "{err}");
    // The default config was never touched, and at its budget the kernel completes.
    let ok = must(measure(Variant::Baseline, &MachineConfig::with_ccm(512)));
    assert_eq!(
        MachineConfig::with_ccm(512).max_steps,
        sim::DEFAULT_MAX_STEPS
    );
    assert!(ok.checksum.is_finite());
}
