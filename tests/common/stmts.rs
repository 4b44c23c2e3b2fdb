//! A random-program generator for property-based testing, drawing from
//! the shared stream in `tests/common`. Only the test binaries that
//! generate programs include it (`#[path = "common/stmts.rs"]`), so the
//! others compile no unused generator code.
//!
//! Generates small, *always-valid, always-terminating* modules: a fixed
//! set of integer and float variables is initialized up front; statements
//! then mutate them through arithmetic, memory round-trips through a
//! scratch global, structured if/else diamonds, and counted loops with
//! positive trip counts. Every generated module passes the verifier, runs
//! without traps, and is deterministic — so any divergence between the
//! raw program and its optimized/allocated/promoted forms is a genuine
//! compiler bug.

use iloc::builder::FuncBuilder;
use iloc::{CmpKind, FBinKind, Global, IBinKind, Module, Op, Reg, RegClass};

use crate::common::Rng;

/// A straight-line or structured statement over the variable pool.
#[derive(Debug)]
pub enum Stmt {
    /// `ivar[d] = ivar[a] OP ivar[b]` (division excluded).
    IBin(usize, usize, usize, u8),
    /// `ivar[d] = ivar[a] OP imm` (shift amounts kept small).
    IBinI(usize, usize, i64, u8),
    /// `fvar[d] = fvar[a] OP fvar[b]` (add/sub/mult only).
    FBin(usize, usize, usize, u8),
    /// `ivar[d] = cmp(ivar[a], ivar[b])`.
    ICmp(usize, usize, usize, u8),
    /// Store `ivar[a]` to the scratch global at slot `s`, reload into
    /// `ivar[d]`.
    IMemRoundTrip(usize, usize, u8),
    /// Store `fvar[a]` to the scratch global at slot `s`, reload into
    /// `fvar[d]`.
    FMemRoundTrip(usize, usize, u8),
    /// `fvar[d] = i2f(ivar[a])`.
    I2F(usize, usize),
    /// if (ivar[c] != 0) { then-stmts } else { else-stmts }.
    If(usize, Vec<Stmt>, Vec<Stmt>),
    /// A counted loop running `trip` iterations over its body.
    Loop(u8, Vec<Stmt>),
}

/// Number of integer variables in the pool.
pub const NI: usize = 6;
/// Number of float variables in the pool.
pub const NF: usize = 6;

fn leaf_stmt(rng: &mut Rng) -> Stmt {
    match rng.below(7) {
        0 => Stmt::IBin(
            rng.below(NI),
            rng.below(NI),
            rng.below(NI),
            rng.below(7) as u8,
        ),
        1 => Stmt::IBinI(
            rng.below(NI),
            rng.below(NI),
            rng.below(16) as i64 - 8,
            rng.below(7) as u8,
        ),
        2 => Stmt::FBin(
            rng.below(NF),
            rng.below(NF),
            rng.below(NF),
            rng.below(3) as u8,
        ),
        3 => Stmt::ICmp(
            rng.below(NI),
            rng.below(NI),
            rng.below(NI),
            rng.below(6) as u8,
        ),
        4 => Stmt::IMemRoundTrip(rng.below(NI), rng.below(NI), rng.below(8) as u8),
        5 => Stmt::FMemRoundTrip(rng.below(NF), rng.below(NF), rng.below(8) as u8),
        _ => Stmt::I2F(rng.below(NF), rng.below(NI)),
    }
}

/// A statement nesting at most `depth` more levels: a leaf two times in
/// three, otherwise an if/else diamond or a counted loop whose bodies
/// hold 1..4 statements each.
fn stmt(rng: &mut Rng, depth: u32) -> Stmt {
    if depth == 0 || rng.below(3) != 0 {
        return leaf_stmt(rng);
    }
    let body = |rng: &mut Rng| {
        (0..1 + rng.below(3))
            .map(|_| stmt(rng, depth - 1))
            .collect()
    };
    if rng.below(2) == 0 {
        Stmt::If(rng.below(NI), body(rng), body(rng))
    } else {
        Stmt::Loop(1 + rng.below(4) as u8, body(rng))
    }
}

/// A statement tree of 1..12 top-level statements nested at most two
/// deep.
pub fn arb_stmts(rng: &mut Rng) -> Vec<Stmt> {
    (0..1 + rng.below(11)).map(|_| stmt(rng, 2)).collect()
}

fn ibin_kind(o: u8) -> IBinKind {
    [
        IBinKind::Add,
        IBinKind::Sub,
        IBinKind::Mult,
        IBinKind::And,
        IBinKind::Or,
        IBinKind::Xor,
        IBinKind::Shl,
    ][o as usize % 7]
}

fn fbin_kind(o: u8) -> FBinKind {
    [FBinKind::Add, FBinKind::Sub, FBinKind::Mult][o as usize % 3]
}

fn cmp_kind(o: u8) -> CmpKind {
    CmpKind::ALL[o as usize % 6]
}

fn emit_stmts(fb: &mut FuncBuilder, ivars: &[Reg], fvars: &[Reg], scratch: Reg, stmts: &[Stmt]) {
    for s in stmts {
        match s {
            Stmt::IBin(d, a, b, o) => {
                let kind = ibin_kind(*o);
                // Cap shift amounts so results stay architecture-defined.
                let rhs = if kind == IBinKind::Shl {
                    let masked = fb.vreg(RegClass::Gpr);
                    fb.emit(Op::IBinI {
                        kind: IBinKind::And,
                        lhs: ivars[*b],
                        imm: 7,
                        dst: masked,
                    });
                    masked
                } else {
                    ivars[*b]
                };
                fb.emit(Op::IBin {
                    kind,
                    lhs: ivars[*a],
                    rhs,
                    dst: ivars[*d],
                });
            }
            Stmt::IBinI(d, a, i, o) => {
                let kind = ibin_kind(*o);
                let imm = if kind == IBinKind::Shl {
                    i.rem_euclid(8)
                } else {
                    *i
                };
                fb.emit(Op::IBinI {
                    kind,
                    lhs: ivars[*a],
                    imm,
                    dst: ivars[*d],
                });
            }
            Stmt::FBin(d, a, b, o) => {
                fb.emit(Op::FBin {
                    kind: fbin_kind(*o),
                    lhs: fvars[*a],
                    rhs: fvars[*b],
                    dst: fvars[*d],
                });
            }
            Stmt::ICmp(d, a, b, o) => {
                fb.emit(Op::ICmp {
                    kind: cmp_kind(*o),
                    lhs: ivars[*a],
                    rhs: ivars[*b],
                    dst: ivars[*d],
                });
            }
            Stmt::IMemRoundTrip(d, a, slot) => {
                let off = (*slot as i64) * 8;
                fb.storeai(ivars[*a], scratch, off);
                let t = fb.loadai(scratch, off);
                fb.emit(Op::I2I {
                    src: t,
                    dst: ivars[*d],
                });
            }
            Stmt::FMemRoundTrip(d, a, slot) => {
                let off = 64 + (*slot as i64) * 8;
                fb.fstoreai(fvars[*a], scratch, off);
                let t = fb.floadai(scratch, off);
                fb.emit(Op::F2F {
                    src: t,
                    dst: fvars[*d],
                });
            }
            Stmt::I2F(d, a) => {
                let t = fb.i2f(ivars[*a]);
                fb.emit(Op::F2F {
                    src: t,
                    dst: fvars[*d],
                });
            }
            Stmt::If(c, then_s, else_s) => {
                let tb = fb.block(format!("t{}", fb.current().index()));
                let eb = fb.block(format!("e{}", fb.current().index()));
                let jb = fb.block(format!("j{}", fb.current().index()));
                fb.cbr(ivars[*c], tb, eb);
                fb.switch_to(tb);
                emit_stmts(fb, ivars, fvars, scratch, then_s);
                fb.jump(jb);
                fb.switch_to(eb);
                emit_stmts(fb, ivars, fvars, scratch, else_s);
                fb.jump(jb);
                fb.switch_to(jb);
            }
            Stmt::Loop(trip, body) => {
                fb.counted_loop(0, *trip as i64, 1, |fb, _| {
                    emit_stmts(fb, ivars, fvars, scratch, body);
                });
            }
        }
    }
}

/// Materializes a statement tree as a complete, verified module whose
/// `main` returns `(int_checksum, float_checksum)`.
pub fn build_module(stmts: &[Stmt]) -> Module {
    let mut fb = FuncBuilder::new("main");
    fb.set_ret_classes(&[RegClass::Gpr, RegClass::Fpr]);
    let scratch = fb.loadsym("scratch");
    let ivars: Vec<Reg> = (0..NI as i64).map(|i| fb.loadi(i * 3 + 1)).collect();
    let fvars: Vec<Reg> = (0..NF).map(|i| fb.loadf(i as f64 * 0.5 + 0.25)).collect();
    emit_stmts(&mut fb, &ivars, &fvars, scratch, stmts);
    // Checksums over the whole pool.
    let mut iacc = ivars[0];
    for v in &ivars[1..] {
        iacc = fb.add(iacc, *v);
    }
    let mut facc = fvars[0];
    for v in &fvars[1..] {
        facc = fb.fadd(facc, *v);
    }
    fb.ret(&[iacc, facc]);

    let mut m = Module::new();
    m.push_global(Global::zeroed("scratch", 64 + 64));
    m.push_function(fb.finish());
    m.verify().expect("generated module must verify");
    m
}

/// Runs a module and returns `(int checksum, float checksum bits)`.
pub fn run_checksum(m: &Module) -> (i64, u64) {
    let (v, _) = sim::run_module(m, sim::MachineConfig::with_ccm(64), "main")
        .expect("generated module must not trap");
    (v.ints[0], v.floats[0].to_bits())
}
