//! IR well-formedness checking.
//!
//! The verifier enforces the structural rules the analyses and the
//! simulator rely on: every block ends in exactly one terminator, branch
//! targets exist, φ-nodes lead their blocks and name actual predecessors,
//! register classes match opcode signatures, and calls/returns agree with
//! the named function's signature.

use std::collections::HashSet;
use std::fmt;

use crate::block::BlockId;
use crate::func::Function;
use crate::module::Module;
use crate::op::{Call, Op};
use crate::reg::RegClass;

/// A verification failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyError {
    /// Function in which the failure occurred (empty for module-level).
    pub function: String,
    /// Explanation of the failure.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.function.is_empty() {
            write!(f, "verify error: {}", self.message)
        } else {
            write!(f, "verify error in `{}`: {}", self.function, self.message)
        }
    }
}

impl std::error::Error for VerifyError {}

fn err(function: &str, message: impl Into<String>) -> VerifyError {
    VerifyError {
        function: function.to_string(),
        message: message.into(),
    }
}

/// Verifies a single function in isolation (no cross-function checks).
///
/// # Errors
///
/// Returns the first structural violation found.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    let n = f.blocks.len();
    if n == 0 {
        return Err(err(&f.name, "function has no blocks"));
    }

    let mut labels = HashSet::new();
    for b in &f.blocks {
        if !labels.insert(b.label.as_str()) {
            return Err(err(&f.name, format!("duplicate block label `{}`", b.label)));
        }
    }

    let preds = f.predecessors();

    for (bi, b) in f.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        if b.instrs.is_empty() {
            return Err(err(&f.name, format!("block `{}` is empty", b.label)));
        }
        let last = b.instrs.len() - 1;
        for (ii, instr) in b.instrs.iter().enumerate() {
            let op = &instr.op;
            if op.is_terminator() != (ii == last) {
                return Err(err(
                    &f.name,
                    format!(
                        "block `{}` instr {}: terminator placement (only the last instruction may be a terminator, and it must be one)",
                        b.label, ii
                    ),
                ));
            }
            if matches!(op, Op::Phi { .. }) && ii >= b.phi_count() {
                return Err(err(
                    &f.name,
                    format!("block `{}`: phi not at block head", b.label),
                ));
            }
            for t in op.successors() {
                if t.index() >= n {
                    return Err(err(
                        &f.name,
                        format!("block `{}`: branch to nonexistent block {}", b.label, t),
                    ));
                }
            }
            check_classes(f, &b.label, op)?;
            if let Op::Phi { args, .. } = op {
                let ps: HashSet<BlockId> = preds[bid.index()].iter().copied().collect();
                for (pb, _) in args {
                    if !ps.contains(pb) {
                        return Err(err(
                            &f.name,
                            format!(
                                "block `{}`: phi names non-predecessor `{}`",
                                b.label,
                                f.block(*pb).label
                            ),
                        ));
                    }
                }
            }
            if let Op::Ret { vals } = op {
                if vals.len() != f.ret_classes.len() {
                    return Err(err(
                        &f.name,
                        format!(
                            "ret with {} values but signature declares {}",
                            vals.len(),
                            f.ret_classes.len()
                        ),
                    ));
                }
                for (v, c) in vals.iter().zip(&f.ret_classes) {
                    if v.class() != *c {
                        return Err(err(&f.name, "ret value class mismatch"));
                    }
                }
            }
            if let Some(slot) = instr.spill_slot() {
                if slot.index() >= f.frame.slots.len() {
                    return Err(err(
                        &f.name,
                        format!("spill tag names nonexistent {}", slot),
                    ));
                }
            }
        }
    }
    Ok(())
}

fn check_classes(f: &Function, label: &str, op: &Op) -> Result<(), VerifyError> {
    let want_gpr = |r: crate::reg::Reg, what: &str| -> Result<(), VerifyError> {
        if r.class() != RegClass::Gpr {
            Err(err(
                &f.name,
                format!("block `{label}`: {what} of `{op:?}` must be a GPR"),
            ))
        } else {
            Ok(())
        }
    };
    let want_fpr = |r: crate::reg::Reg, what: &str| -> Result<(), VerifyError> {
        if r.class() != RegClass::Fpr {
            Err(err(
                &f.name,
                format!("block `{label}`: {what} of `{op:?}` must be an FPR"),
            ))
        } else {
            Ok(())
        }
    };

    match op {
        Op::IBin { lhs, rhs, dst, .. } | Op::ICmp { lhs, rhs, dst, .. } => {
            want_gpr(*lhs, "lhs")?;
            want_gpr(*rhs, "rhs")?;
            want_gpr(*dst, "dst")?;
        }
        Op::IBinI { lhs, dst, .. } => {
            want_gpr(*lhs, "lhs")?;
            want_gpr(*dst, "dst")?;
        }
        Op::FBin { lhs, rhs, dst, .. } => {
            want_fpr(*lhs, "lhs")?;
            want_fpr(*rhs, "rhs")?;
            want_fpr(*dst, "dst")?;
        }
        Op::FCmp { lhs, rhs, dst, .. } => {
            want_fpr(*lhs, "lhs")?;
            want_fpr(*rhs, "rhs")?;
            want_gpr(*dst, "dst")?;
        }
        Op::I2I { src, dst } => {
            want_gpr(*src, "src")?;
            want_gpr(*dst, "dst")?;
        }
        Op::F2F { src, dst } => {
            want_fpr(*src, "src")?;
            want_fpr(*dst, "dst")?;
        }
        Op::I2F { src, dst } => {
            want_gpr(*src, "src")?;
            want_fpr(*dst, "dst")?;
        }
        Op::F2I { src, dst } => {
            want_fpr(*src, "src")?;
            want_gpr(*dst, "dst")?;
        }
        Op::LoadI { dst, .. } | Op::LoadSym { dst, .. } => want_gpr(*dst, "dst")?,
        Op::LoadF { dst, .. } => want_fpr(*dst, "dst")?,
        Op::Load { addr, dst } => {
            want_gpr(*addr, "addr")?;
            want_gpr(*dst, "dst")?;
        }
        Op::LoadAI { addr, dst, .. } => {
            want_gpr(*addr, "addr")?;
            want_gpr(*dst, "dst")?;
        }
        Op::FLoad { addr, dst } => {
            want_gpr(*addr, "addr")?;
            want_fpr(*dst, "dst")?;
        }
        Op::FLoadAI { addr, dst, .. } => {
            want_gpr(*addr, "addr")?;
            want_fpr(*dst, "dst")?;
        }
        Op::Store { val, addr } => {
            want_gpr(*val, "val")?;
            want_gpr(*addr, "addr")?;
        }
        Op::StoreAI { val, addr, .. } => {
            want_gpr(*val, "val")?;
            want_gpr(*addr, "addr")?;
        }
        Op::FStore { val, addr } => {
            want_fpr(*val, "val")?;
            want_gpr(*addr, "addr")?;
        }
        Op::FStoreAI { val, addr, .. } => {
            want_fpr(*val, "val")?;
            want_gpr(*addr, "addr")?;
        }
        Op::CcmStore { val, .. } => want_gpr(*val, "val")?,
        Op::CcmLoad { dst, .. } => want_gpr(*dst, "dst")?,
        Op::CcmFStore { val, .. } => want_fpr(*val, "val")?,
        Op::CcmFLoad { dst, .. } => want_fpr(*dst, "dst")?,
        Op::Cbr { cond, .. } => want_gpr(*cond, "cond")?,
        Op::Phi { dst, args } => {
            for (_, r) in args {
                if r.class() != dst.class() {
                    return Err(err(
                        &f.name,
                        format!("block `{label}`: phi argument class mismatch"),
                    ));
                }
            }
        }
        Op::Jump { .. } | Op::Call { .. } | Op::Ret { .. } | Op::Nop => {}
    }
    Ok(())
}

/// Verifies every function plus module-level rules: unique global names,
/// and every [`Op::Call`]/[`Op::LoadSym`] referring to an entity that
/// exists with a matching signature.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    let mut globals = HashSet::new();
    for g in &m.globals {
        if !globals.insert(g.name.as_str()) {
            return Err(err("", format!("duplicate global `{}`", g.name)));
        }
        if g.init.len() > g.size as usize {
            return Err(err(
                "",
                format!("global `{}` initializer exceeds its size", g.name),
            ));
        }
    }
    let mut names = HashSet::new();
    for f in &m.functions {
        if !names.insert(f.name.as_str()) {
            return Err(err("", format!("duplicate function `{}`", f.name)));
        }
    }
    for f in &m.functions {
        verify_function(f)?;
        for b in &f.blocks {
            for i in &b.instrs {
                match &i.op {
                    Op::Call(call) => {
                        let Call { callee, args, rets } = &**call;
                        let target = m.function(callee).ok_or_else(|| {
                            err(&f.name, format!("call to unknown function `{callee}`"))
                        })?;
                        if args.len() != target.params.len() {
                            return Err(err(
                                &f.name,
                                format!(
                                    "call to `{callee}` passes {} args, expects {}",
                                    args.len(),
                                    target.params.len()
                                ),
                            ));
                        }
                        for (a, p) in args.iter().zip(&target.params) {
                            if a.class() != p.class() {
                                return Err(err(
                                    &f.name,
                                    format!("call to `{callee}`: argument class mismatch"),
                                ));
                            }
                        }
                        if rets.len() != target.ret_classes.len() {
                            return Err(err(
                                &f.name,
                                format!(
                                    "call to `{callee}` expects {} returns, function declares {}",
                                    rets.len(),
                                    target.ret_classes.len()
                                ),
                            ));
                        }
                        for (r, c) in rets.iter().zip(&target.ret_classes) {
                            if r.class() != *c {
                                return Err(err(
                                    &f.name,
                                    format!("call to `{callee}`: return class mismatch"),
                                ));
                            }
                        }
                    }
                    Op::LoadSym { sym, .. } if m.global(sym).is_none() => {
                        return Err(err(&f.name, format!("loadSym of unknown global `{sym}`")));
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::Global;
    use crate::op::Instr;
    use crate::reg::Reg;

    #[test]
    fn missing_terminator_rejected() {
        let mut f = Function::new("f");
        f.block_mut(BlockId(0)).instrs.push(Instr::new(Op::LoadI {
            imm: 0,
            dst: Reg::gpr(64),
        }));
        let e = verify_function(&f).unwrap_err();
        assert!(e.message.contains("terminator"));
    }

    #[test]
    fn terminator_in_middle_rejected() {
        let mut f = Function::new("f");
        f.block_mut(BlockId(0))
            .instrs
            .push(Instr::new(Op::Ret { vals: [].into() }));
        f.block_mut(BlockId(0))
            .instrs
            .push(Instr::new(Op::Ret { vals: [].into() }));
        assert!(verify_function(&f).is_err());
    }

    #[test]
    fn class_mismatch_rejected() {
        let mut f = Function::new("f");
        f.block_mut(BlockId(0)).instrs.push(Instr::new(Op::I2F {
            src: Reg::fpr(64), // wrong: src must be GPR
            dst: Reg::fpr(65),
        }));
        f.block_mut(BlockId(0))
            .instrs
            .push(Instr::new(Op::Ret { vals: [].into() }));
        assert!(verify_function(&f).is_err());
    }

    #[test]
    fn call_signature_checked() {
        let mut callee = FuncBuilder::new("callee");
        callee.param(RegClass::Gpr);
        callee.ret(&[]);

        let mut caller = FuncBuilder::new("caller");
        caller.emit(Op::Call(Box::new(Call {
            callee: "callee".into(),
            args: vec![], // wrong arity
            rets: vec![],
        })));
        caller.ret(&[]);

        let mut m = Module::new();
        m.push_function(callee.finish());
        m.push_function(caller.finish());
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("args"));
    }

    #[test]
    fn unknown_global_rejected() {
        let mut fb = FuncBuilder::new("f");
        fb.loadsym("nope");
        fb.ret(&[]);
        let mut m = Module::new();
        m.push_function(fb.finish());
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn clean_module_passes() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let g = fb.loadsym("g");
        let v = fb.loadai(g, 0);
        fb.ret(&[v]);
        let mut m = Module::new();
        m.push_global(Global::zeroed("g", 8));
        m.push_function(fb.finish());
        verify_module(&m).unwrap();
    }

    #[test]
    fn phi_must_name_predecessors() {
        let mut f = Function::new("f");
        let e = f.entry();
        let j = f.add_block("join");
        let other = f.add_block("other");
        f.block_mut(e)
            .instrs
            .push(Instr::new(Op::Jump { target: j }));
        f.block_mut(j).instrs.push(Instr::new(Op::Phi {
            dst: Reg::gpr(70),
            args: [(other, Reg::gpr(64))].into(), // `other` is not a pred of join
        }));
        f.block_mut(j)
            .instrs
            .push(Instr::new(Op::Ret { vals: [].into() }));
        f.block_mut(other)
            .instrs
            .push(Instr::new(Op::Ret { vals: [].into() }));
        let err = verify_function(&f).unwrap_err();
        assert!(err.message.contains("non-predecessor"));
    }

    #[test]
    fn ret_arity_must_match_signature() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        fb.ret(&[]); // missing the declared return value
        assert!(verify_function(&fb.finish()).is_err());
    }
}
