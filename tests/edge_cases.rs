//! Edge-case integration tests: irregular control flow, pass
//! idempotence, and machine-state isolation.

use regalloc::AllocConfig;
use sim::MachineConfig;

/// An irreducible CFG (two distinct entries into a cycle) survives the
/// whole pipeline: SSA in/out, optimization, allocation, promotion.
#[test]
fn irreducible_cfg_through_full_pipeline() {
    use iloc::builder::FuncBuilder;
    use iloc::{Op, RegClass};

    let mut fb = FuncBuilder::new("main");
    fb.set_ret_classes(&[RegClass::Gpr]);
    let n = fb.vreg(RegClass::Gpr);
    fb.emit(Op::LoadI { imm: 10, dst: n });
    let cond0 = fb.loadi(1);
    let a = fb.block("a");
    let b = fb.block("b");
    let out = fb.block("out");
    // Two entries into the {a, b} cycle: entry → a and entry → b.
    fb.cbr(cond0, a, b);
    // a: n -= 1; if n > 0 goto b else out
    fb.switch_to(a);
    let n1 = fb.subi(n, 1);
    fb.emit(Op::I2I { src: n1, dst: n });
    let zero_a = fb.loadi(0);
    let ca = fb.icmp(iloc::CmpKind::Gt, n, zero_a);
    fb.cbr(ca, b, out);
    // b: n -= 2; if n > 0 goto a else out
    fb.switch_to(b);
    let n2 = fb.subi(n, 2);
    fb.emit(Op::I2I { src: n2, dst: n });
    let zero_b = fb.loadi(0);
    let cb = fb.icmp(iloc::CmpKind::Gt, n, zero_b);
    fb.cbr(cb, a, out);
    fb.switch_to(out);
    fb.ret(&[n]);

    let mut m = iloc::Module::new();
    m.push_function(fb.finish());
    m.verify().unwrap();
    let (v0, _) = sim::run_module(&m, MachineConfig::default(), "main").unwrap();

    opt::optimize_module(&mut m, &opt::OptOptions::default());
    m.verify().unwrap();
    let (v1, _) = sim::run_module(&m, MachineConfig::default(), "main").unwrap();
    assert_eq!(v0, v1, "optimization must handle irreducible flow");

    regalloc::allocate_module(&mut m, &AllocConfig::tiny(2));
    m.verify().unwrap();
    ccm::promote_allocated(&mut m, ccm::Variant::PostPassCallGraph, 64);
    m.verify().unwrap();
    let (v2, _) = sim::run_module(&m, MachineConfig::with_ccm(64), "main").unwrap();
    assert_eq!(
        v0, v2,
        "allocation + promotion must handle irreducible flow"
    );
}

/// Running the post-pass allocator twice is harmless: the second pass
/// finds the slots already in the CCM and changes nothing.
#[test]
fn postpass_promotion_is_idempotent() {
    let k = suite::kernel("radf5").expect("kernel exists");
    let mut m = suite::build_optimized(&k);
    regalloc::allocate_module(&mut m, &AllocConfig::default());
    let v = ccm::Variant::PostPassCallGraph;
    ccm::promote_allocated(&mut m, v, 512);
    let snapshot = m.clone();
    let second = ccm::promote_allocated(&mut m, v, 512);
    assert!(second.is_identity(), "second promotion moves no slot");
    assert_eq!(m, snapshot, "second promotion must be a no-op on the code");
    for s in second.functions() {
        assert_eq!(s.promoted, 0, "{}: nothing left to promote", s.name);
    }
    let (v, _) = sim::run_module(&m, MachineConfig::with_ccm(512), "main").unwrap();
    assert!(v.floats[0].is_finite());
}

/// Two runs of one module return identical results and metrics: the
/// second starts from the main-memory image the first left behind.
#[test]
fn machine_runs_are_independent() {
    let k = suite::kernel("cosqf1").expect("kernel exists");
    let mut m = suite::build_optimized(&k);
    regalloc::allocate_module(&mut m, &AllocConfig::default());
    ccm::promote_allocated(&mut m, ccm::Variant::PostPassCallGraph, 512);
    let first = sim::run_module(&m, MachineConfig::with_ccm(512), "main").unwrap();
    let second = sim::run_module(&m, MachineConfig::with_ccm(512), "main").unwrap();
    assert_eq!(first, second);
}

/// Compaction after compaction is a fixed point.
#[test]
fn compaction_is_idempotent() {
    let k = suite::kernel("twldrv").expect("kernel exists");
    let mut m = suite::build_optimized(&k);
    regalloc::allocate_module(&mut m, &AllocConfig::default());
    let compact = |m: &iloc::Module| {
        ccm::Placement::default().compacted(m, &ccm::BaselineAnalysis::compute(m))
    };
    let (once, first) = compact(&m);
    let m = once.apply(&m);
    let (twice, second) = compact(&m);
    assert!(twice.is_identity(), "second compaction moves no slot");
    assert_eq!(twice.apply(&m), m);
    for ((_, a), (_, b)) in first.iter().zip(&second) {
        assert_eq!(a.after, b.before);
        assert_eq!(b.after, b.before, "second compaction finds nothing");
    }
}

/// The scheduler composes with the whole CCM pipeline on a real kernel:
/// schedule → allocate → promote → schedule again, still correct.
#[test]
fn scheduler_composes_with_ccm_pipeline() {
    let k = suite::kernel("colbur").expect("kernel exists");
    let run = harness::Run::default();
    let tables = harness::Setup::default();
    let m0 = run.unit(k.name, &tables).unwrap();
    let machine = MachineConfig::with_ccm(512);
    let base = run
        .measure_unit(k.name, &tables, harness::Variant::Baseline, &machine)
        .unwrap_or_else(|e| panic!("measurement failed: {e}"));

    let mut m = (*m0).clone();
    sched::schedule_module(&mut m, 2);
    regalloc::allocate_module(&mut m, &AllocConfig::default());
    ccm::promote_allocated(&mut m, ccm::Variant::PostPassCallGraph, 512);
    sched::schedule_module(&mut m, 2);
    m.verify().unwrap();
    let (v, _) = sim::run_module(&m, machine, "main").unwrap();
    assert_eq!(
        v.floats[0].to_bits(),
        base.checksum.to_bits(),
        "fully-composed pipeline must preserve the checksum"
    );
}
