//! Shape assertions tying the implementation to the paper's published
//! results: these tests re-run (reduced versions of) the experiments and
//! assert the qualitative structure the paper reports, so a regression
//! that silently flips a conclusion fails the build.

use harness::{Measurement, Run, Setup, Variant};
use sim::MachineConfig;

/// Measures suite unit `name` through the run's memo, printing the
/// structured error on failure.
fn measure(run: &Run, name: &str, v: Variant, machine: &MachineConfig) -> Measurement {
    run.measure_unit(name, &Setup::default(), v, machine)
        .unwrap_or_else(|e| panic!("measurement failed: {e}"))
}

/// Table 1 shape: the four monolithic routines the paper names as
/// "required more than 1000 bytes and could not be compacted" behave
/// exactly that way here, and every other ratio is sane.
#[test]
fn table1_shape_monoliths_do_not_compact() {
    let rows = harness::table1(&Run::default());
    let monoliths = ["paroi", "inisla", "energyx", "pdiagX"];
    for name in monoliths {
        let r = rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name} must spill"));
        assert!(
            r.before > 1000,
            "{name}: expected > 1000 bytes, got {}",
            r.before
        );
        assert_eq!(r.after, r.before, "{name}: must not compact");
    }
    // And they are the *only* non-compacting routines above 1000 bytes.
    for r in &rows {
        if r.after == r.before && r.before > 1000 {
            assert!(
                monoliths.contains(&r.name.as_str()),
                "unexpected non-compacting large routine {}",
                r.name
            );
        }
    }
    // Compaction never grows memory, and big spillers compact hardest.
    for r in &rows {
        assert!(r.after <= r.before);
    }
    let fpppp = rows.iter().find(|r| r.name == "fpppp").expect("fpppp row");
    assert!(fpppp.ratio() < 0.2, "fpppp must compact aggressively");
}

/// Figure 3 shape on a program sample: the interprocedural post-pass is
/// never worse than the intraprocedural one or the integrated allocator,
/// and call-heavy programs separate the variants.
#[test]
fn figure_shape_interprocedural_dominates() {
    let run = Run::default();
    let machine = MachineConfig::with_ccm(512);
    let mut any_separation = false;
    for pname in ["turb3d", "forsythe", "spice"] {
        let [base, pp, cg, ig] = Variant::ALL.map(|v| measure(&run, pname, v, &machine));
        assert!(cg.cycles <= pp.cycles, "{pname}: call-graph version worse");
        assert!(cg.cycles <= ig.cycles, "{pname}: call-graph version worse");
        assert!(cg.cycles < base.cycles, "{pname}: must improve");
        if cg.cycles < pp.cycles {
            any_separation = true;
        }
    }
    assert!(
        any_separation,
        "call-heavy programs must separate the interprocedural variant"
    );
}

/// Growing the CCM can never make any variant slower (Table 3's implicit
/// monotonicity).
#[test]
fn bigger_ccm_is_monotone() {
    let run = Run::default();
    for name in ["fpppp", "deseco", "radf5"] {
        let mut prev = u64::MAX;
        for ccm in [64u32, 256, 1024] {
            let r = measure(
                &run,
                name,
                Variant::PostPassCallGraph,
                &MachineConfig::with_ccm(ccm),
            );
            assert!(
                r.cycles <= prev,
                "{name}: cycles increased when CCM grew to {ccm}"
            );
            prev = r.cycles;
        }
    }
}

/// Allocated suite kernels respect the machine's register file bounds —
/// the paper's 32+32 register model is actually enforced, not assumed.
#[test]
fn allocated_kernels_respect_register_bounds() {
    let cfg = regalloc::AllocConfig::default();
    for name in ["fpppp", "radf5", "urand", "decomp", "zeroin", "parmvrX"] {
        let k = suite::kernel(name).expect("kernel exists");
        let mut m = suite::build_optimized(&k);
        regalloc::allocate_module(&mut m, &cfg);
        for f in &m.functions {
            regalloc::check_register_bounds(f, &cfg)
                .unwrap_or_else(|r| panic!("{name}/{}: register {r} out of bounds", f.name));
        }
    }
}
