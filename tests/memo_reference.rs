//! The run's check-and-simulate memo against a reference path that
//! checks and simulates every configuration itself.
//!
//! A `harness::Run` checks and simulates each distinct (placement, CCM
//! key) of a unit's baseline allocation once (`ccm::Placement`). The
//! reference here shares
//! nothing: per unit it makes its own Chaitin-Briggs allocation, then
//! per (variant, CCM size) promotes a fresh copy, runs the checker and
//! the simulator. Every `Measurement` field and every `check_suite`
//! diagnostic must agree for all 64 kernels and 13 programs under the
//! four variants at 512 and 1024 B.

use std::sync::Arc;

use ccm::Variant;
use harness::{Measurement, Run, Setup, Stage};
use iloc::Module;
use regalloc::AllocConfig;

const SIZES: [u32; 2] = [512, 1024];

/// One configuration as the reference computes it: the checker's
/// diagnostics and, when they hold no error, the measurement.
struct Config {
    variant: Variant,
    ccm: u32,
    diags: Vec<checker::Diagnostic>,
    measured: Option<Measurement>,
}

/// Every configuration of `base`, each allocated, promoted, checked and
/// simulated on its own.
fn reference(run: &Run, base: &Module) -> Vec<Config> {
    let mut allocated = base.clone();
    let spilled_ranges =
        regalloc::allocate_module(&mut allocated, &AllocConfig::default()).total_spilled();
    let mut out = Vec::new();
    for ccm in SIZES {
        for variant in Variant::ALL {
            let mut m = allocated.clone();
            let degraded = ccm::promote_allocated(&mut m, variant, ccm);
            let diags = checker::check_module(&m, &checker::CheckerConfig::new(ccm));
            let measured = checker::error_summary(&diags).is_none().then(|| {
                let (vals, metrics) =
                    sim::run_module(&m, run.machine(ccm), "main").expect("honest suite run");
                Measurement {
                    cycles: metrics.cycles,
                    mem_cycles: metrics.mem_op_cycles,
                    metrics,
                    checksum: vals.floats.first().copied().unwrap_or(f64::NAN),
                    spill_bytes: m.functions.iter().map(|f| f.frame.spill_bytes()).sum(),
                    spilled_ranges,
                    degraded,
                }
            });
            out.push(Config {
                variant,
                ccm,
                diags,
                measured,
            });
        }
    }
    out
}

fn assert_same(got: &Measurement, want: &Measurement, ctx: &str) {
    assert_eq!(got.cycles, want.cycles, "{ctx}: cycles");
    assert_eq!(got.mem_cycles, want.mem_cycles, "{ctx}: mem_cycles");
    assert_eq!(got.metrics, want.metrics, "{ctx}: metrics");
    assert_eq!(
        got.checksum.to_bits(),
        want.checksum.to_bits(),
        "{ctx}: checksum"
    );
    assert_eq!(got.spill_bytes, want.spill_bytes, "{ctx}: spill_bytes");
    assert_eq!(
        got.spilled_ranges, want.spilled_ranges,
        "{ctx}: spilled_ranges"
    );
    assert_eq!(got.degraded, want.degraded, "{ctx}: degraded");
}

#[test]
fn memo_matches_a_reference_that_runs_every_configuration() {
    let run = Run::new(2, sim::DEFAULT_MAX_STEPS);
    let tables = Setup::default();
    let mut units: Vec<(&'static str, Arc<Module>)> = Vec::new();
    for k in suite::kernels() {
        units.push((k.name, run.unit(k.name, &tables).expect("kernel builds")));
    }
    for p in suite::programs() {
        units.push((p.name, run.unit(p.name, &tables).expect("program builds")));
    }
    // The checker first, as `repro --check` would after the tables, then
    // every measurement twice: the second pass reads only stored runs.
    let rows = harness::check_suite(&SIZES, &run);
    let total = units.len() * SIZES.len() * Variant::ALL.len();
    assert_eq!(rows.len(), total);
    let measure =
        |name: &str, c: &Config| run.measure_unit(name, &tables, c.variant, &run.machine(c.ccm));
    let references = exec::par_map_contained(
        2,
        &units,
        |(name, _)| format!("reference {name}"),
        |(_, base)| reference(&run, base),
    );
    let mut rows = rows.iter();
    for ((name, _), configs) in units.iter().zip(references) {
        let configs = configs.expect("reference run");
        for c in &configs {
            let ctx = format!("{name} {:?} @ {} B", c.variant, c.ccm);
            let row = rows.next().expect("one check row per configuration");
            assert_eq!(
                (row.name.as_str(), row.variant, row.ccm),
                (*name, c.variant, c.ccm),
                "{ctx}: row order"
            );
            assert_eq!(row.diags, c.diags, "{ctx}: diagnostics");
            let got = measure(name, c);
            match &c.measured {
                Some(want) => assert_same(&got.expect("measures"), want, &ctx),
                None => assert_eq!(got.map(|_| ()).unwrap_err().stage, Stage::Checker, "{ctx}"),
            }
        }
        for c in &configs {
            let ctx = format!("{name} {:?} @ {} B, stored", c.variant, c.ccm);
            if let Some(want) = &c.measured {
                assert_same(&measure(name, c).expect("measures"), want, &ctx);
            }
        }
    }
    let (runs, configurations) = run.measured();
    assert_eq!(configurations, total, "every configuration measured");
    assert!(
        runs < configurations,
        "{runs}/{configurations}: no run was reused"
    );
}
