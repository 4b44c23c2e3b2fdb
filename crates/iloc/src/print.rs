//! Textual printing of the IR.
//!
//! The output of [`std::fmt::Display`] for [`Module`] is accepted verbatim
//! by [`crate::parse::parse_module`]; printing and parsing round-trip.

use std::fmt;

use crate::block::BlockId;
use crate::func::{Function, SpillKind};
use crate::module::{Global, Module};
use crate::op::{Call, Instr, Op};

struct OpPrinter<'a> {
    op: &'a Op,
    func: &'a Function,
}

fn label(f: &Function, b: BlockId) -> &str {
    &f.block(b).label
}

impl fmt::Display for OpPrinter<'_> {
    fn fmt(&self, w: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fun = self.func;
        match self.op {
            Op::LoadI { imm, dst } => write!(w, "loadI {} => {}", imm, dst),
            Op::LoadF { imm, dst } => write!(w, "loadF {:?} => {}", imm, dst),
            Op::LoadSym { sym, dst } => write!(w, "loadSym @{} => {}", sym, dst),
            Op::IBin {
                kind,
                lhs,
                rhs,
                dst,
            } => {
                write!(w, "{} {}, {} => {}", kind.mnemonic(), lhs, rhs, dst)
            }
            Op::IBinI {
                kind,
                lhs,
                imm,
                dst,
            } => {
                write!(w, "{}I {}, {} => {}", kind.mnemonic(), lhs, imm, dst)
            }
            Op::FBin {
                kind,
                lhs,
                rhs,
                dst,
            } => {
                write!(w, "{} {}, {} => {}", kind.mnemonic(), lhs, rhs, dst)
            }
            Op::ICmp {
                kind,
                lhs,
                rhs,
                dst,
            } => {
                write!(w, "cmp_{} {}, {} => {}", kind.mnemonic(), lhs, rhs, dst)
            }
            Op::FCmp {
                kind,
                lhs,
                rhs,
                dst,
            } => {
                write!(w, "fcmp_{} {}, {} => {}", kind.mnemonic(), lhs, rhs, dst)
            }
            Op::I2I { src, dst } => write!(w, "i2i {} => {}", src, dst),
            Op::F2F { src, dst } => write!(w, "f2f {} => {}", src, dst),
            Op::I2F { src, dst } => write!(w, "i2f {} => {}", src, dst),
            Op::F2I { src, dst } => write!(w, "f2i {} => {}", src, dst),
            Op::Load { addr, dst } => write!(w, "load {} => {}", addr, dst),
            Op::LoadAI { addr, off, dst } => write!(w, "loadAI {}, {} => {}", addr, off, dst),
            Op::Store { val, addr } => write!(w, "store {} => {}", val, addr),
            Op::StoreAI { val, addr, off } => write!(w, "storeAI {} => {}, {}", val, addr, off),
            Op::FLoad { addr, dst } => write!(w, "fload {} => {}", addr, dst),
            Op::FLoadAI { addr, off, dst } => write!(w, "floadAI {}, {} => {}", addr, off, dst),
            Op::FStore { val, addr } => write!(w, "fstore {} => {}", val, addr),
            Op::FStoreAI { val, addr, off } => write!(w, "fstoreAI {} => {}, {}", val, addr, off),
            Op::CcmStore { val, off } => write!(w, "spill {} => ccm[{}]", val, off),
            Op::CcmLoad { off, dst } => write!(w, "restore ccm[{}] => {}", off, dst),
            Op::CcmFStore { val, off } => write!(w, "fspill {} => ccm[{}]", val, off),
            Op::CcmFLoad { off, dst } => write!(w, "frestore ccm[{}] => {}", off, dst),
            Op::Jump { target } => write!(w, "jump -> {}", label(fun, *target)),
            Op::Cbr {
                cond,
                taken,
                not_taken,
            } => write!(
                w,
                "cbr {} -> {}, {}",
                cond,
                label(fun, *taken),
                label(fun, *not_taken)
            ),
            Op::Call(call) => {
                let Call { callee, args, rets } = &**call;
                write!(w, "call {}(", callee)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(w, ", ")?;
                    }
                    write!(w, "{}", a)?;
                }
                write!(w, ")")?;
                if !rets.is_empty() {
                    write!(w, " =>")?;
                    for (i, r) in rets.iter().enumerate() {
                        write!(w, "{}{}", if i > 0 { ", " } else { " " }, r)?;
                    }
                }
                Ok(())
            }
            Op::Ret { vals } => {
                write!(w, "ret")?;
                for (i, v) in vals.iter().enumerate() {
                    write!(w, "{}{}", if i > 0 { ", " } else { " " }, v)?;
                }
                Ok(())
            }
            Op::Phi { dst, args } => {
                write!(w, "phi [")?;
                for (i, (b, r)) in args.iter().enumerate() {
                    if i > 0 {
                        write!(w, ", ")?;
                    }
                    write!(w, "{}: {}", label(fun, *b), r)?;
                }
                write!(w, "] => {}", dst)
            }
            Op::Nop => write!(w, "nop"),
        }
    }
}

/// Formats one instruction (with its spill tag) in the context of `func`.
pub fn format_instr(func: &Function, instr: &Instr) -> String {
    let body = OpPrinter {
        op: &instr.op,
        func,
    }
    .to_string();
    match instr.spill {
        SpillKind::None => body,
        SpillKind::Store(s) => format!("{} !store({})", body, s.0),
        SpillKind::Restore(s) => format!("{} !restore({})", body, s.0),
    }
}

impl fmt::Display for Function {
    fn fmt(&self, w: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(w, "func {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(w, ", ")?;
            }
            write!(w, "{}", p)?;
        }
        write!(w, ")")?;
        if !self.ret_classes.is_empty() {
            write!(w, " rets ")?;
            for (i, c) in self.ret_classes.iter().enumerate() {
                if i > 0 {
                    write!(w, ",")?;
                }
                write!(w, "{}", c)?;
            }
        }
        writeln!(w, " locals {} {{", self.frame.locals_size)?;
        for (i, s) in self.frame.slots.iter().enumerate() {
            writeln!(
                w,
                "  slot {}: {} @ {}{}",
                i,
                s.class,
                s.offset,
                if s.in_ccm { " ccm" } else { "" }
            )?;
        }
        for b in &self.blocks {
            writeln!(w, "{}:", b.label)?;
            for instr in &b.instrs {
                writeln!(w, "    {}", format_instr(self, instr))?;
            }
        }
        writeln!(w, "}}")
    }
}

impl fmt::Display for Global {
    fn fmt(&self, w: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(w, "global {} {}", self.name, self.size)?;
        if !self.init.is_empty() {
            write!(w, " = ")?;
            for b in &self.init {
                write!(w, "{:02x}", b)?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Module {
    fn fmt(&self, w: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.globals {
            writeln!(w, "{}", g)?;
        }
        for f in &self.functions {
            writeln!(w, "{}", f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::reg::RegClass;

    #[test]
    fn function_prints_blocks_and_instrs() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(7);
        fb.ret(&[a]);
        let s = fb.finish().to_string();
        assert!(s.contains("func f() rets gpr locals 0 {"));
        assert!(s.contains("loadI 7 => %r64"));
        assert!(s.contains("ret %r64"));
    }

    #[test]
    fn float_constants_round_trip_precision() {
        let mut fb = FuncBuilder::new("f");
        let v = fb.loadf(0.1 + 0.2);
        fb.ret(&[v]);
        let s = fb.finish().to_string();
        // Debug formatting of f64 prints the shortest form that parses back
        // to the identical value.
        assert!(s.contains("loadF 0.30000000000000004"));
    }

    #[test]
    fn global_init_hex() {
        let g = Global::from_i32s("g", &[1]);
        assert_eq!(g.to_string(), "global g 4 = 01000000");
    }
}
