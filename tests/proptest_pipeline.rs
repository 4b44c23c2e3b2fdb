//! Property-based end-to-end tests: for arbitrary generated programs, the
//! observable results survive every stage of the compilation pipeline —
//! scalar optimization, register allocation under pressure, spill-memory
//! compaction, post-pass CCM promotion, and integrated CCM allocation.

mod common;
#[path = "common/stmts.rs"]
mod stmts;

use ccm::{BaselineAnalysis, Placement, Variant};
use common::{Case, Rng};
use regalloc::AllocConfig;
use stmts::{arb_stmts, build_module, run_checksum};

/// Generated programs per property.
const CASES: usize = 96;

/// The scalar optimizer preserves program behavior.
#[test]
fn optimization_preserves_semantics() {
    for case in 0..CASES {
        let m = build_module(&arb_stmts(&mut Rng::for_case(case)));
        let _case = Case::new(case, &m);
        let expected = run_checksum(&m);
        let mut o = m.clone();
        opt::optimize_module(&mut o, &opt::OptOptions::default());
        o.verify().expect("optimized module verifies");
        assert_eq!(run_checksum(&o), expected);
    }
}

/// Register allocation with very few registers (forcing heavy
/// spilling) preserves behavior, and leaves no virtual registers.
#[test]
fn allocation_under_pressure_preserves_semantics() {
    for case in 0..CASES {
        let m = build_module(&arb_stmts(&mut Rng::for_case(case)));
        let _case = Case::new(case, &m);
        let expected = run_checksum(&m);
        let mut a = m.clone();
        opt::optimize_module(&mut a, &opt::OptOptions::default());
        regalloc::allocate_module(&mut a, &AllocConfig::tiny(3));
        a.verify().expect("allocated module verifies");
        for f in &a.functions {
            assert!(regalloc::no_virtual_regs(f), "{} keeps a vreg", f.name);
        }
        assert_eq!(run_checksum(&a), expected);
    }
}

/// Spill-memory compaction never changes behavior.
#[test]
fn compaction_preserves_semantics() {
    for case in 0..CASES {
        let m = build_module(&arb_stmts(&mut Rng::for_case(case)));
        let _case = Case::new(case, &m);
        let expected = run_checksum(&m);
        let mut a = m.clone();
        regalloc::allocate_module(&mut a, &AllocConfig::tiny(3));
        let a = Placement::default()
            .compacted(&a, &BaselineAnalysis::compute(&a))
            .0
            .apply(&a);
        a.verify().expect("compacted module verifies");
        assert_eq!(run_checksum(&a), expected);
    }
}

/// Post-pass CCM promotion (both conventions, tiny CCM included so
/// the heavyweight path is exercised) preserves behavior.
#[test]
fn postpass_promotion_preserves_semantics() {
    for case in 0..CASES {
        let mut rng = Rng::for_case(case);
        let m = build_module(&arb_stmts(&mut rng));
        let _case = Case::new(case, &m);
        let variant = [Variant::PostPass, Variant::PostPassCallGraph][rng.below(2)];
        let ccm_size = [8, 24, 64][rng.below(3)];
        let expected = run_checksum(&m);
        let mut a = m.clone();
        regalloc::allocate_module(&mut a, &AllocConfig::tiny(3));
        ccm::promote_allocated(&mut a, variant, ccm_size);
        a.verify().expect("promoted module verifies");
        assert_eq!(run_checksum(&a), expected, "{variant:?} @ {ccm_size}B");
    }
}

/// The integrated CCM allocator preserves behavior.
#[test]
fn integrated_allocation_preserves_semantics() {
    for case in 0..CASES {
        let mut rng = Rng::for_case(case);
        let m = build_module(&arb_stmts(&mut rng));
        let _case = Case::new(case, &m);
        let ccm_size = [8, 24, 64][rng.below(3)];
        let expected = run_checksum(&m);
        let mut a = m.clone();
        regalloc::allocate_module(&mut a, &AllocConfig::tiny(3));
        ccm::promote_allocated(&mut a, Variant::Integrated, ccm_size);
        a.verify().expect("integrated module verifies");
        assert_eq!(run_checksum(&a), expected, "@ {ccm_size}B");
    }
}

/// Rematerializing allocation preserves behavior.
#[test]
fn remat_allocation_preserves_semantics() {
    for case in 0..CASES {
        let m = build_module(&arb_stmts(&mut Rng::for_case(case)));
        let _case = Case::new(case, &m);
        let expected = run_checksum(&m);
        let mut a = m.clone();
        opt::optimize_module(&mut a, &opt::OptOptions::default());
        regalloc::allocate_module(
            &mut a,
            &AllocConfig {
                rematerialize: true,
                ..AllocConfig::tiny(3)
            },
        );
        a.verify().expect("allocated module verifies");
        assert_eq!(run_checksum(&a), expected);
    }
}

/// SSA round-trip alone (construction then destruction) preserves
/// behavior and leaves strict SSA in between.
#[test]
fn ssa_round_trip_preserves_semantics() {
    for case in 0..CASES {
        let m = build_module(&arb_stmts(&mut Rng::for_case(case)));
        let _case = Case::new(case, &m);
        let expected = run_checksum(&m);
        let mut s = m.clone();
        for f in &mut s.functions {
            analysis::to_ssa(f);
            analysis::check_single_def(f).expect("strict SSA");
            analysis::from_ssa(f);
        }
        s.verify().expect("round-tripped module verifies");
        assert_eq!(run_checksum(&s), expected);
    }
}

/// The post-allocation checker never reports an error on honest
/// pipeline output: every variant, at both paper CCM sizes, yields a
/// module free of `Severity::Error` diagnostics. (Warnings such as a
/// dead spill store are legal for unoptimized spill code.)
#[test]
fn checker_never_fires_on_honest_output() {
    for case in 0..CASES {
        let mut rng = Rng::for_case(case);
        let m = build_module(&arb_stmts(&mut rng));
        let _case = Case::new(case, &m);
        let ccm_size = [512, 1024][rng.below(2)];
        let alloc = AllocConfig::tiny(3);
        let cfg = checker::CheckerConfig::with_alloc(ccm_size, alloc);

        // Plain Chaitin-Briggs, then each variant derived from it.
        let mut base = m.clone();
        regalloc::allocate_module(&mut base, &alloc);
        for variant in Variant::ALL {
            let mut module = base.clone();
            ccm::promote_allocated(&mut module, variant, ccm_size);
            let diags = checker::check_module(&module, &cfg);
            assert!(
                !checker::has_errors(&diags),
                "{variant:?} @ {ccm_size}B:\n{}",
                checker::render_text(&diags)
            );
        }
    }
}

/// CCM promotion never increases cycle counts, and the promoted
/// program never touches main memory more often than the baseline.
#[test]
fn promotion_is_never_a_pessimization() {
    for case in 0..CASES {
        let m = build_module(&arb_stmts(&mut Rng::for_case(case)));
        let _case = Case::new(case, &m);
        let mut a = m.clone();
        regalloc::allocate_module(&mut a, &AllocConfig::tiny(3));
        let mut p = a.clone();
        ccm::promote_allocated(&mut p, ccm::Variant::PostPassCallGraph, 64);
        let cfg = sim::MachineConfig::with_ccm(64);
        let (_, mb) = sim::run_module(&a, cfg.clone(), "main").expect("baseline runs");
        let (_, mp) = sim::run_module(&p, cfg, "main").expect("promoted runs");
        assert!(mp.cycles <= mb.cycles);
        assert!(mp.main_mem_ops <= mb.main_mem_ops);
        assert_eq!(mp.instrs, mb.instrs, "post-pass must not add instructions");
    }
}
