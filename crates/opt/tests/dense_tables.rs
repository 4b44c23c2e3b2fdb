//! The optimizer's dense per-register tables at their edges.
//!
//! SSA renaming, SCCP, GVN and DCE size their tables by one scan of the
//! registers a function mentions. This function is hand-built so that
//! scan matters: its registers are written directly, far above the
//! function's virtual-register counter, it reads and writes `RARP`
//! (a physical register with a slot of its own), and SCCP folds the
//! middle one of three φs at a join, which leaves a constant between two
//! surviving φs. Each pass's output is pinned as text.

use iloc::builder::FuncBuilder;
use iloc::{verify_function, Function, IBinKind, Op, Reg, RegClass};

/// The function under test; see the module docs.
fn edge_function() -> Function {
    let mut fb = FuncBuilder::new("edges");
    fb.set_ret_classes(&[RegClass::Gpr, RegClass::Gpr, RegClass::Fpr]);
    let p = fb.param(RegClass::Gpr);
    // Registers written directly, far above the vreg counter.
    let (a, b, c) = (Reg::gpr(900), Reg::gpr(901), Reg::gpr(902));
    let (five, five_again) = (Reg::gpr(950), Reg::gpr(951));
    let x = Reg::fpr(700);
    let t = fb.block("t");
    let e = fb.block("e");
    let j = fb.block("j");
    // RARP is read and written: rarp = rarp + 0.
    fb.emit(Op::IBinI {
        kind: IBinKind::Add,
        lhs: Reg::RARP,
        imm: 0,
        dst: Reg::RARP,
    });
    let v = fb.loadai(Reg::RARP, 8);
    fb.emit(Op::LoadI { imm: 5, dst: five });
    fb.emit(Op::LoadI {
        imm: 5,
        dst: five_again,
    });
    fb.emit(Op::LoadF { imm: 1.5, dst: x });
    fb.cbr(p, t, e);
    // φ order at the join is by descending name: c, b, a. `b` is 7 on
    // both arms, so the middle φ folds.
    for (blk, a_imm, c_imm) in [(t, 1, 10), (e, 2, 20)] {
        fb.switch_to(blk);
        fb.emit(Op::LoadI { imm: a_imm, dst: a });
        fb.emit(Op::LoadI { imm: 7, dst: b });
        fb.emit(Op::LoadI { imm: c_imm, dst: c });
        fb.jump(j);
    }
    fb.switch_to(j);
    let s = fb.add(a, c);
    let s2 = fb.add(s, b);
    let u = fb.add(five, five_again);
    let d1 = fb.add(p, v);
    let d2 = fb.add(v, p); // commuted duplicate of d1: GVN
    let d = fb.add(d1, d2);
    let _dead = fb.mult(s, u); // unused: DCE
    let y = fb.fadd(x, x);
    fb.storeai(s2, Reg::RARP, 16);
    fb.ret(&[d, u, y]);
    let f = fb.finish();
    verify_function(&f).expect("the edge function verifies");
    f
}

/// An SSA pass: rewrites the function and returns its count.
type Pass = fn(&mut Function) -> usize;

/// Runs the passes one at a time, verifying after each, and returns
/// each pass's count and output text.
fn pass_by_pass() -> Vec<(&'static str, usize, String)> {
    let mut f = edge_function();
    let mut out = Vec::new();
    let steps: [(&str, Pass); 4] = [
        ("to_ssa", analysis::to_ssa),
        ("sccp", opt::sccp),
        ("gvn", opt::gvn),
        ("dce", opt::dce),
    ];
    for (name, pass) in steps {
        let n = pass(&mut f);
        verify_function(&f).unwrap_or_else(|e| panic!("after {name}: {e}\n{f}"));
        out.push((name, n, f.to_string()));
    }
    out
}

/// What each pass leaves, as recorded from the hash-map tables the dense
/// ones replaced.
const AFTER_SSA: &str = r#"
func edges(%r64) rets gpr,gpr,fpr locals 0 {
entry:
    addI %r0, 0 => %r0
    loadAI %r0, 8 => %r73
    loadI 5 => %r74
    loadI 5 => %r75
    loadF 1.5 => %f65
    cbr %r64 -> t, e
t:
    loadI 1 => %r79
    loadI 7 => %r80
    loadI 10 => %r81
    jump -> j
e:
    loadI 2 => %r76
    loadI 7 => %r77
    loadI 20 => %r78
    jump -> j
j:
    phi [t: %r81, e: %r78] => %r82
    phi [t: %r80, e: %r77] => %r83
    phi [t: %r79, e: %r76] => %r84
    add %r84, %r82 => %r85
    add %r85, %r83 => %r86
    add %r74, %r75 => %r87
    add %r64, %r73 => %r88
    add %r73, %r64 => %r89
    add %r88, %r89 => %r90
    mult %r85, %r87 => %r91
    fadd %f65, %f65 => %f66
    storeAI %r86 => %r0, 16
    ret %r90, %r87, %f66
}
"#;

const AFTER_SCCP: &str = r#"
func edges(%r64) rets gpr,gpr,fpr locals 0 {
entry:
    addI %r0, 0 => %r0
    loadAI %r0, 8 => %r73
    loadI 5 => %r74
    loadI 5 => %r75
    loadF 1.5 => %f65
    cbr %r64 -> t, e
t:
    loadI 1 => %r79
    loadI 7 => %r80
    loadI 10 => %r81
    jump -> j
e:
    loadI 2 => %r76
    loadI 7 => %r77
    loadI 20 => %r78
    jump -> j
j:
    phi [t: %r81, e: %r78] => %r82
    phi [t: %r79, e: %r76] => %r84
    loadI 7 => %r83
    add %r84, %r82 => %r85
    add %r85, %r83 => %r86
    loadI 10 => %r87
    add %r64, %r73 => %r88
    add %r73, %r64 => %r89
    add %r88, %r89 => %r90
    mult %r85, %r87 => %r91
    loadF 3.0 => %f66
    storeAI %r86 => %r0, 16
    ret %r90, %r87, %f66
}
"#;

const AFTER_GVN: &str = r#"
func edges(%r64) rets gpr,gpr,fpr locals 0 {
entry:
    addI %r0, 0 => %r0
    loadAI %r0, 8 => %r73
    loadI 5 => %r74
    loadF 1.5 => %f65
    cbr %r64 -> t, e
t:
    loadI 1 => %r79
    loadI 7 => %r80
    loadI 10 => %r81
    jump -> j
e:
    loadI 2 => %r76
    loadI 7 => %r77
    loadI 20 => %r78
    jump -> j
j:
    phi [t: %r81, e: %r78] => %r82
    phi [t: %r79, e: %r76] => %r84
    loadI 7 => %r83
    add %r84, %r82 => %r85
    add %r85, %r83 => %r86
    loadI 10 => %r87
    add %r64, %r73 => %r88
    add %r88, %r88 => %r90
    mult %r85, %r87 => %r91
    loadF 3.0 => %f66
    storeAI %r86 => %r0, 16
    ret %r90, %r87, %f66
}
"#;

const AFTER_DCE: &str = r#"
func edges(%r64) rets gpr,gpr,fpr locals 0 {
entry:
    addI %r0, 0 => %r0
    loadAI %r0, 8 => %r73
    cbr %r64 -> t, e
t:
    loadI 1 => %r79
    loadI 10 => %r81
    jump -> j
e:
    loadI 2 => %r76
    loadI 20 => %r78
    jump -> j
j:
    phi [t: %r81, e: %r78] => %r82
    phi [t: %r79, e: %r76] => %r84
    loadI 7 => %r83
    add %r84, %r82 => %r85
    add %r85, %r83 => %r86
    loadI 10 => %r87
    add %r64, %r73 => %r88
    add %r88, %r88 => %r90
    loadF 3.0 => %f66
    storeAI %r86 => %r0, 16
    ret %r90, %r87, %f66
}
"#;

const OPTIMIZED: &str = r#"
func edges(%r64) rets gpr,gpr,fpr locals 0 {
entry:
    i2i %r0 => %r0
    loadAI %r0, 8 => %r73
    cbr %r64 -> t, e
t:
    loadI 1 => %r79
    loadI 10 => %r81
    i2i %r81 => %r82
    i2i %r79 => %r84
    jump -> j
e:
    loadI 2 => %r76
    loadI 20 => %r78
    i2i %r78 => %r82
    i2i %r76 => %r84
    jump -> j
j:
    add %r84, %r82 => %r85
    addI %r85, 7 => %r86
    loadI 10 => %r87
    add %r64, %r73 => %r88
    add %r88, %r88 => %r90
    loadF 3.0 => %f66
    storeAI %r86 => %r0, 16
    ret %r90, %r87, %f66
}
"#;

#[test]
fn each_pass_leaves_the_recorded_text() {
    let want = [
        ("to_ssa", 3, AFTER_SSA),
        ("sccp", 3, AFTER_SCCP),
        ("gvn", 2, AFTER_GVN),
        ("dce", 5, AFTER_DCE),
    ];
    for ((name, n, text), (want_name, want_n, want_text)) in pass_by_pass().into_iter().zip(want) {
        assert_eq!(name, want_name);
        assert_eq!(text.trim(), want_text.trim(), "{name} output");
        assert_eq!(n, want_n, "{name} count");
    }
}

#[test]
fn the_pipeline_leaves_the_recorded_text_and_stats() {
    let mut f = edge_function();
    let stats = opt::optimize_function(&mut f, &opt::OptOptions::default());
    verify_function(&f).unwrap();
    assert_eq!(f.to_string().trim(), OPTIMIZED.trim());
    assert_eq!(
        stats,
        opt::OptStats {
            constants_folded: 3,
            redundancies_removed: 2,
            dead_removed: 6,
            peephole_rewrites: 2,
            ..opt::OptStats::default()
        }
    );
}

#[test]
fn the_folded_phi_no_longer_splits_the_phi_prefix() {
    let mut f = edge_function();
    analysis::to_ssa(&mut f);
    let join = f
        .blocks
        .iter()
        .find(|b| b.label == "j")
        .expect("join block");
    assert_eq!(join.phi_count(), 3);
    opt::sccp(&mut f);
    let join = f
        .blocks
        .iter()
        .find(|b| b.label == "j")
        .expect("join block");
    assert_eq!(join.phi_count(), 2);
    let later_phis = join.instrs[2..]
        .iter()
        .filter(|i| matches!(i.op, Op::Phi { .. }))
        .count();
    assert_eq!(later_phis, 0, "a φ left behind the folded one:\n{f}");
}
