//! Optimizing never changes what an ALU op computes.
//!
//! Every case is one op — each `IBinKind` in register and immediate
//! form, each `FBinKind`, each `CmpKind` on both register classes, and
//! `i2f`, `f2i` and `loadI` — on operands from an edge-case grid (32-bit
//! bounds, shift counts around 32, immediates past 32 bits, NaN, signed
//! zeros, infinities). Each is built three ways:
//!
//! * **folded**: every operand a `loadI`/`loadF` constant, so SCCP folds
//!   the op;
//! * **loaded**: one operand loaded from a global, the other a constant
//!   in a register or an immediate, so peephole rewrites the op;
//! * **guarded**: the loaded form inside a 10-trip loop, on a path taken
//!   on the last two trips or never, so LICM considers hoisting it.
//!
//! The raw module's simulation must match the optimized module's under
//! the default options and under `licm: true`: equal return values
//! (floats by bits), or the same `SimError` on both sides.

use iloc::builder::FuncBuilder;
use iloc::{CmpKind, FBinKind, Global, IBinKind, Module, Op, Reg, RegClass};
use opt::OptOptions;
use sim::{MachineConfig, RetValues, SimError};

const INTS: [i64; 11] = [
    i32::MIN as i64,
    -1,
    0,
    1,
    31,
    32,
    33,
    1 << 31,
    1 << 32,
    (1 << 32) + 3,
    -(1 << 33),
];

const FLOATS: [f64; 8] = [
    f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e10,
    1.5,
    -2.5,
];

/// The op under test.
#[derive(Clone, Copy, Debug)]
enum Alu {
    IBin(IBinKind),
    IBinI(IBinKind),
    FBin(FBinKind),
    ICmp(CmpKind),
    FCmp(CmpKind),
    I2F,
    F2I,
    LoadI,
}

impl Alu {
    fn result_class(self) -> RegClass {
        match self {
            Alu::FBin(_) | Alu::I2F => RegClass::Fpr,
            _ => RegClass::Gpr,
        }
    }
}

/// An operand value.
#[derive(Clone, Copy, Debug)]
enum Val {
    I(i64),
    F(f64),
}

/// Where an operand comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Src {
    /// A `loadI`/`loadF` next to the op.
    Const,
    /// A load from a global, in the entry block (outside any loop).
    Global,
    /// The op's immediate (`IBinI`'s right operand, `loadI`'s value).
    Imm,
}

#[derive(Clone, Debug)]
struct Case {
    alu: Alu,
    args: Vec<(Val, Src)>,
    /// `Some(k)`: the op runs inside `for i in 0..10`, only when `i > k`.
    guard: Option<i64>,
}

/// Every op on every operand of the grid, with its operands' sources.
fn ops() -> Vec<(Alu, Vec<(Val, Src)>)> {
    use Src::*;
    let int_pairs = || INTS.iter().flat_map(|&a| INTS.iter().map(move |&b| (a, b)));
    let float_pairs = || {
        FLOATS
            .iter()
            .flat_map(|&a| FLOATS.iter().map(move |&b| (a, b)))
    };
    let two_sources = [[Const, Const], [Global, Const], [Const, Global]];
    let mut out = Vec::new();
    for (a, b) in int_pairs() {
        let (a, b) = (Val::I(a), Val::I(b));
        for kind in IBinKind::ALL {
            for [sa, sb] in two_sources {
                out.push((Alu::IBin(kind), vec![(a, sa), (b, sb)]));
            }
            for sa in [Const, Global] {
                out.push((Alu::IBinI(kind), vec![(a, sa), (b, Imm)]));
            }
        }
        for kind in CmpKind::ALL {
            for [sa, sb] in two_sources {
                out.push((Alu::ICmp(kind), vec![(a, sa), (b, sb)]));
            }
        }
    }
    for (a, b) in float_pairs() {
        let (a, b) = (Val::F(a), Val::F(b));
        for [sa, sb] in two_sources {
            for kind in FBinKind::ALL {
                out.push((Alu::FBin(kind), vec![(a, sa), (b, sb)]));
            }
            for kind in CmpKind::ALL {
                out.push((Alu::FCmp(kind), vec![(a, sa), (b, sb)]));
            }
        }
    }
    for src in [Const, Global] {
        for &v in &INTS {
            out.push((Alu::I2F, vec![(Val::I(v), src)]));
        }
        for &v in &FLOATS {
            out.push((Alu::F2I, vec![(Val::F(v), src)]));
        }
    }
    for &v in &INTS {
        out.push((Alu::LoadI, vec![(Val::I(v), Imm)]));
    }
    out
}

/// Every op three ways: straight-line, and guarded so that it runs on
/// the last two trips or never. A folded case (no global operand) is
/// also guarded, so LICM sees fully constant ops too.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (alu, args) in ops() {
        for guard in [None, Some(7), Some(10)] {
            out.push(Case {
                alu,
                args: args.clone(),
                guard,
            });
        }
    }
    out
}

/// Emits the op of `case` into the current block, reading operands
/// from `regs` (`None` for the sources the op materializes itself).
fn emit_op(fb: &mut FuncBuilder, case: &Case, regs: &[Option<Reg>]) -> Reg {
    let operand = |fb: &mut FuncBuilder, k: usize| -> Reg {
        regs[k].unwrap_or_else(|| match case.args[k].0 {
            Val::I(v) => fb.loadi(v),
            Val::F(v) => fb.loadf(v),
        })
    };
    let imm = |k: usize| match case.args[k].0 {
        Val::I(v) => v,
        Val::F(_) => unreachable!("float immediate"),
    };
    let dst = fb.vreg(case.alu.result_class());
    let op = match case.alu {
        Alu::IBin(kind) => {
            let (lhs, rhs) = (operand(fb, 0), operand(fb, 1));
            Op::IBin {
                kind,
                lhs,
                rhs,
                dst,
            }
        }
        Alu::IBinI(kind) => Op::IBinI {
            kind,
            lhs: operand(fb, 0),
            imm: imm(1),
            dst,
        },
        Alu::FBin(kind) => {
            let (lhs, rhs) = (operand(fb, 0), operand(fb, 1));
            Op::FBin {
                kind,
                lhs,
                rhs,
                dst,
            }
        }
        Alu::ICmp(kind) => {
            let (lhs, rhs) = (operand(fb, 0), operand(fb, 1));
            Op::ICmp {
                kind,
                lhs,
                rhs,
                dst,
            }
        }
        Alu::FCmp(kind) => {
            let (lhs, rhs) = (operand(fb, 0), operand(fb, 1));
            Op::FCmp {
                kind,
                lhs,
                rhs,
                dst,
            }
        }
        Alu::I2F => Op::I2F {
            src: operand(fb, 0),
            dst,
        },
        Alu::F2I => Op::F2I {
            src: operand(fb, 0),
            dst,
        },
        Alu::LoadI => Op::LoadI { imm: imm(0), dst },
    };
    fb.emit(op);
    dst
}

/// The module of `case`: `main` returns the op's result, or zero when a
/// guard keeps the op from running.
fn module(case: &Case) -> Module {
    let mut m = Module::new();
    let mut fb = FuncBuilder::new("main");
    let class = case.alu.result_class();
    fb.set_ret_classes(&[class]);
    let mut regs = Vec::new();
    for (k, &(v, src)) in case.args.iter().enumerate() {
        if src != Src::Global {
            regs.push(None);
            continue;
        }
        let name = format!("g{k}");
        let base = fb.loadsym(name.as_str());
        regs.push(Some(match v {
            Val::I(x) => {
                m.push_global(Global::from_i32s(name, &[x as i32]));
                fb.load(base)
            }
            Val::F(x) => {
                m.push_global(Global::from_f64s(name, &[x]));
                fb.fload(base)
            }
        }));
    }
    let result = match case.guard {
        None => emit_op(&mut fb, case, &regs),
        Some(k) => {
            let acc = fb.vreg(class);
            fb.emit(match class {
                RegClass::Gpr => Op::LoadI { imm: 0, dst: acc },
                RegClass::Fpr => Op::LoadF { imm: 0.0, dst: acc },
            });
            fb.counted_loop(0, 10, 1, |fb, i| {
                let k = fb.loadi(k);
                let taken = fb.icmp(CmpKind::Gt, i, k);
                let (guarded, latch) = (fb.block("guarded"), fb.block("latch"));
                fb.cbr(taken, guarded, latch);
                fb.switch_to(guarded);
                let v = emit_op(fb, case, &regs);
                fb.emit(match class {
                    RegClass::Gpr => Op::I2I { src: v, dst: acc },
                    RegClass::Fpr => Op::F2F { src: v, dst: acc },
                });
                fb.jump(latch);
                fb.switch_to(latch);
            });
            acc
        }
    };
    fb.ret(&[result]);
    m.push_function(fb.finish());
    m.verify().expect("test module verifies");
    m
}

/// What a run observably produced: return values with floats by bits,
/// or the trap.
fn outcome(m: &Module) -> Result<(Vec<i64>, Vec<u64>), SimError> {
    sim::run_module(m, MachineConfig::default(), "main")
        .map(|(RetValues { ints, floats }, _)| (ints, floats.iter().map(|f| f.to_bits()).collect()))
}

/// The options the optimizer must be exact under.
fn option_sets() -> [(&'static str, OptOptions); 2] {
    [
        ("default", OptOptions::default()),
        (
            "licm",
            OptOptions {
                licm: true,
                ..OptOptions::default()
            },
        ),
    ]
}

#[test]
fn optimizing_never_changes_an_alu_result() {
    let cases = cases();
    let mut mismatches = Vec::new();
    for case in &cases {
        let raw = module(case);
        let expected = outcome(&raw);
        for (name, opts) in option_sets() {
            let mut optimized = raw.clone();
            opt::optimize_module(&mut optimized, &opts);
            let got = outcome(&optimized);
            if got != expected {
                mismatches.push(format!(
                    "{case:?} under {name}: raw {expected:?}, optimized {got:?}\n{optimized}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} cases changed under optimization; first:\n{}",
        mismatches.len(),
        cases.len(),
        mismatches[0]
    );
}

/// The grid covers what it claims: traps and out-of-range immediates
/// occur, and every op kind is built every way.
#[test]
fn the_grid_reaches_traps_and_wide_immediates() {
    let cases = cases();
    let traps = cases
        .iter()
        .filter(|c| matches!(outcome(&module(c)), Err(SimError::DivideByZero)))
        .count();
    assert!(traps > 0);
    let per_kind = |alu: fn(&Alu) -> bool| cases.iter().filter(|c| alu(&c.alu)).count();
    assert_eq!(per_kind(|a| matches!(a, Alu::IBin(_))), 10 * 121 * 3 * 3);
    assert_eq!(per_kind(|a| matches!(a, Alu::IBinI(_))), 10 * 121 * 2 * 3);
    assert_eq!(per_kind(|a| matches!(a, Alu::FCmp(_))), 6 * 64 * 3 * 3);
    assert_eq!(per_kind(|a| matches!(a, Alu::LoadI)), 11 * 3);
}

/// Two hand-written inputs: a `multI` by an immediate that reads as 0,
/// which must not become a shift by 32 (a shift by 0), and a guarded
/// `divI` by 0 in a loop, which must not move into the preheader. Both
/// return 0 raw and optimized.
#[test]
fn reproducers_return_zero_raw_and_optimized() {
    let mult = "global g 4 = 03000000
func main() rets gpr locals 0 {
entry:
    loadSym @g => %r64
    load %r64 => %r66
    multI %r66, 4294967296 => %r65
    ret %r65
}
";
    let guarded_div = "global g 4 = 07000000
func main() rets gpr locals 0 {
entry:
    loadSym @g => %r64
    load %r64 => %r70
    loadI 0 => %r65
    loadI 0 => %r66
    jump -> head
head:
    loadI 10 => %r67
    cmp_lt %r66, %r67 => %r68
    cbr %r68 -> body, done
body:
    loadI 10 => %r71
    cmp_gt %r66, %r71 => %r72
    cbr %r72 -> guarded, latch
guarded:
    divI %r70, 0 => %r73
    i2i %r73 => %r65
    jump -> latch
latch:
    addI %r66, 1 => %r74
    i2i %r74 => %r66
    jump -> head
done:
    ret %r65
}
";
    for text in [mult, guarded_div] {
        let raw = iloc::parse_module(text).expect("reproducer parses");
        assert_eq!(outcome(&raw), Ok((vec![0], vec![])));
        for (name, opts) in option_sets() {
            let mut optimized = raw.clone();
            opt::optimize_module(&mut optimized, &opts);
            assert_eq!(
                outcome(&optimized),
                Ok((vec![0], vec![])),
                "under {name}:\n{optimized}"
            );
        }
    }
}

/// A `divI` by 0 whose result nothing reads still traps: dead-code
/// elimination and the pipeline's final dead-def sweep keep an op that
/// may trap, so the optimized module traps as the raw one does rather
/// than returning 1.
#[test]
fn an_unused_divide_by_zero_still_traps() {
    let text = "global g 4 = 07000000
func main() rets gpr locals 0 {
entry:
    loadSym @g => %r64
    load %r64 => %r65
    divI %r65, 0 => %r66
    loadI 1 => %r67
    ret %r67
}
";
    let raw = iloc::parse_module(text).expect("reproducer parses");
    assert_eq!(outcome(&raw), Err(SimError::DivideByZero));
    for (name, opts) in option_sets() {
        let mut optimized = raw.clone();
        opt::optimize_module(&mut optimized, &opts);
        assert_eq!(
            outcome(&optimized),
            Err(SimError::DivideByZero),
            "under {name}:\n{optimized}"
        );
    }
}
