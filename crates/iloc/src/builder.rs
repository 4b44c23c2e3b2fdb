//! A fluent builder for constructing functions.
//!
//! The builder tracks a *current block*; emit methods append to it and
//! return the freshly allocated destination register. Control-flow helpers
//! create and link blocks. The workload suite uses this interface to
//! generate its Fortran-kernel analogs.

use crate::block::BlockId;
use crate::func::Function;
use crate::op::{Call, CmpKind, FBinKind, IBinKind, Instr, Op};
use crate::reg::{Reg, RegClass};

/// Builds a [`Function`] incrementally.
#[derive(Debug)]
pub struct FuncBuilder {
    func: Function,
    current: BlockId,
}

impl FuncBuilder {
    /// Starts building a function with the given name. The entry block is
    /// current initially.
    pub fn new(name: impl Into<String>) -> FuncBuilder {
        let func = Function::new(name);
        FuncBuilder {
            current: func.entry(),
            func,
        }
    }

    /// Declares a parameter of the given class and returns its register.
    pub fn param(&mut self, class: RegClass) -> Reg {
        let r = self.func.new_vreg(class);
        self.func.params.push(r);
        r
    }

    /// Declares the classes of the function's return values.
    pub fn set_ret_classes(&mut self, classes: &[RegClass]) {
        self.func.ret_classes = classes.to_vec();
    }

    /// Reserves `bytes` of local (program) data in the frame and returns the
    /// byte offset of the reservation, 8-byte aligned.
    pub fn alloc_local(&mut self, bytes: u32) -> u32 {
        let off = (self.func.frame.locals_size + 7) & !7;
        self.func.frame.locals_size = off + bytes;
        off
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.func.entry()
    }

    /// The block instructions are currently appended to.
    pub fn current(&self) -> BlockId {
        self.current
    }

    /// Creates a new empty block (does not switch to it).
    pub fn block(&mut self, label: impl Into<String>) -> BlockId {
        self.func.add_block(label)
    }

    /// Makes `b` the current block.
    pub fn switch_to(&mut self, b: BlockId) {
        self.current = b;
    }

    /// Allocates a fresh virtual register.
    pub fn vreg(&mut self, class: RegClass) -> Reg {
        self.func.new_vreg(class)
    }

    /// Appends a raw instruction to the current block.
    pub fn emit(&mut self, op: Op) {
        let cur = self.current;
        self.func.block_mut(cur).instrs.push(Instr::new(op));
    }

    // ---- constants -------------------------------------------------------

    /// `loadI imm => fresh` — integer constant.
    pub fn loadi(&mut self, imm: i64) -> Reg {
        let dst = self.vreg(RegClass::Gpr);
        self.emit(Op::LoadI { imm, dst });
        dst
    }

    /// `loadF imm => fresh` — floating-point constant.
    pub fn loadf(&mut self, imm: f64) -> Reg {
        let dst = self.vreg(RegClass::Fpr);
        self.emit(Op::LoadF { imm, dst });
        dst
    }

    /// `loadSym @name => fresh` — address of a global.
    pub fn loadsym(&mut self, sym: impl Into<Box<str>>) -> Reg {
        let dst = self.vreg(RegClass::Gpr);
        self.emit(Op::LoadSym {
            sym: sym.into(),
            dst,
        });
        dst
    }

    // ---- integer arithmetic ---------------------------------------------

    /// `kind lhs, rhs => fresh` — an integer op of any kind.
    pub fn ibin(&mut self, kind: IBinKind, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.vreg(RegClass::Gpr);
        self.emit(Op::IBin {
            kind,
            lhs,
            rhs,
            dst,
        });
        dst
    }

    /// `kindI lhs, imm => fresh` — an integer op of any kind with an
    /// immediate right operand.
    pub fn ibini(&mut self, kind: IBinKind, lhs: Reg, imm: i64) -> Reg {
        let dst = self.vreg(RegClass::Gpr);
        self.emit(Op::IBinI {
            kind,
            lhs,
            imm,
            dst,
        });
        dst
    }

    /// `add lhs, rhs => fresh`.
    pub fn add(&mut self, lhs: Reg, rhs: Reg) -> Reg {
        self.ibin(IBinKind::Add, lhs, rhs)
    }

    /// `sub lhs, rhs => fresh`.
    pub fn sub(&mut self, lhs: Reg, rhs: Reg) -> Reg {
        self.ibin(IBinKind::Sub, lhs, rhs)
    }

    /// `mult lhs, rhs => fresh`.
    pub fn mult(&mut self, lhs: Reg, rhs: Reg) -> Reg {
        self.ibin(IBinKind::Mult, lhs, rhs)
    }

    /// `div lhs, rhs => fresh`.
    pub fn idiv(&mut self, lhs: Reg, rhs: Reg) -> Reg {
        self.ibin(IBinKind::Div, lhs, rhs)
    }

    /// `addI lhs, imm => fresh`.
    pub fn addi(&mut self, lhs: Reg, imm: i64) -> Reg {
        self.ibini(IBinKind::Add, lhs, imm)
    }

    /// `subI lhs, imm => fresh`.
    pub fn subi(&mut self, lhs: Reg, imm: i64) -> Reg {
        self.ibini(IBinKind::Sub, lhs, imm)
    }

    /// `multI lhs, imm => fresh`.
    pub fn multi(&mut self, lhs: Reg, imm: i64) -> Reg {
        self.ibini(IBinKind::Mult, lhs, imm)
    }

    /// `lshiftI lhs, imm => fresh`.
    pub fn shli(&mut self, lhs: Reg, imm: i64) -> Reg {
        self.ibini(IBinKind::Shl, lhs, imm)
    }

    // ---- float arithmetic -------------------------------------------------

    fn fbin(&mut self, kind: FBinKind, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.vreg(RegClass::Fpr);
        self.emit(Op::FBin {
            kind,
            lhs,
            rhs,
            dst,
        });
        dst
    }

    /// `fadd lhs, rhs => fresh`.
    pub fn fadd(&mut self, lhs: Reg, rhs: Reg) -> Reg {
        self.fbin(FBinKind::Add, lhs, rhs)
    }

    /// `fsub lhs, rhs => fresh`.
    pub fn fsub(&mut self, lhs: Reg, rhs: Reg) -> Reg {
        self.fbin(FBinKind::Sub, lhs, rhs)
    }

    /// `fmult lhs, rhs => fresh`.
    pub fn fmult(&mut self, lhs: Reg, rhs: Reg) -> Reg {
        self.fbin(FBinKind::Mult, lhs, rhs)
    }

    /// `fdiv lhs, rhs => fresh`.
    pub fn fdiv(&mut self, lhs: Reg, rhs: Reg) -> Reg {
        self.fbin(FBinKind::Div, lhs, rhs)
    }

    // ---- compares, copies, conversions ------------------------------------

    /// Integer compare producing 0/1.
    pub fn icmp(&mut self, kind: CmpKind, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.vreg(RegClass::Gpr);
        self.emit(Op::ICmp {
            kind,
            lhs,
            rhs,
            dst,
        });
        dst
    }

    /// Floating compare producing 0/1 in an integer register.
    pub fn fcmp(&mut self, kind: CmpKind, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.vreg(RegClass::Gpr);
        self.emit(Op::FCmp {
            kind,
            lhs,
            rhs,
            dst,
        });
        dst
    }

    /// Integer copy `i2i src => fresh`.
    pub fn copy(&mut self, src: Reg) -> Reg {
        match src.class() {
            RegClass::Gpr => {
                let dst = self.vreg(RegClass::Gpr);
                self.emit(Op::I2I { src, dst });
                dst
            }
            RegClass::Fpr => {
                let dst = self.vreg(RegClass::Fpr);
                self.emit(Op::F2F { src, dst });
                dst
            }
        }
    }

    /// Convert integer → float.
    pub fn i2f(&mut self, src: Reg) -> Reg {
        let dst = self.vreg(RegClass::Fpr);
        self.emit(Op::I2F { src, dst });
        dst
    }

    /// Convert float → integer (truncating).
    pub fn f2i(&mut self, src: Reg) -> Reg {
        let dst = self.vreg(RegClass::Gpr);
        self.emit(Op::F2I { src, dst });
        dst
    }

    // ---- memory ------------------------------------------------------------

    /// Integer load `load addr => fresh`.
    pub fn load(&mut self, addr: Reg) -> Reg {
        let dst = self.vreg(RegClass::Gpr);
        self.emit(Op::Load { addr, dst });
        dst
    }

    /// Integer load `loadAI addr, off => fresh`.
    pub fn loadai(&mut self, addr: Reg, off: i64) -> Reg {
        let dst = self.vreg(RegClass::Gpr);
        self.emit(Op::LoadAI { addr, off, dst });
        dst
    }

    /// Integer store.
    pub fn store(&mut self, val: Reg, addr: Reg) {
        self.emit(Op::Store { val, addr });
    }

    /// Integer store with offset.
    pub fn storeai(&mut self, val: Reg, addr: Reg, off: i64) {
        self.emit(Op::StoreAI { val, addr, off });
    }

    /// Float load `fload addr => fresh`.
    pub fn fload(&mut self, addr: Reg) -> Reg {
        let dst = self.vreg(RegClass::Fpr);
        self.emit(Op::FLoad { addr, dst });
        dst
    }

    /// Float load with offset.
    pub fn floadai(&mut self, addr: Reg, off: i64) -> Reg {
        let dst = self.vreg(RegClass::Fpr);
        self.emit(Op::FLoadAI { addr, off, dst });
        dst
    }

    /// Float store.
    pub fn fstore(&mut self, val: Reg, addr: Reg) {
        self.emit(Op::FStore { val, addr });
    }

    /// Float store with offset.
    pub fn fstoreai(&mut self, val: Reg, addr: Reg, off: i64) {
        self.emit(Op::FStoreAI { val, addr, off });
    }

    // ---- control flow -------------------------------------------------------

    /// `jump -> target`.
    pub fn jump(&mut self, target: BlockId) {
        self.emit(Op::Jump { target });
    }

    /// `cbr cond -> taken, not_taken`.
    pub fn cbr(&mut self, cond: Reg, taken: BlockId, not_taken: BlockId) {
        self.emit(Op::Cbr {
            cond,
            taken,
            not_taken,
        });
    }

    /// Direct call returning `ret_classes.len()` fresh registers.
    pub fn call(
        &mut self,
        callee: impl Into<String>,
        args: &[Reg],
        ret_classes: &[RegClass],
    ) -> Vec<Reg> {
        let rets: Vec<Reg> = ret_classes.iter().map(|c| self.vreg(*c)).collect();
        self.emit(Op::Call(Box::new(Call {
            callee: callee.into(),
            args: args.to_vec(),
            rets: rets.clone(),
        })));
        rets
    }

    /// `ret vals...`.
    pub fn ret(&mut self, vals: &[Reg]) {
        self.emit(Op::Ret { vals: vals.into() });
    }

    /// Finishes and returns the function.
    pub fn finish(self) -> Function {
        self.func
    }

    // ---- structured-loop helper ----------------------------------------------

    /// Emits a counted loop `for iv in start..bound step step { body }`.
    ///
    /// Creates header/body/exit blocks, calls `body(self, iv)` with the
    /// induction-variable register while the body block is current, then
    /// leaves the *exit* block current. `start`, `bound` are immediates;
    /// the induction variable is a fresh integer vreg updated with `addI`.
    ///
    /// The generated shape is the canonical one our loop unroller and the
    /// suite rely on:
    ///
    /// ```text
    ///        iv0 = start; jump header
    /// header: iv = φ-like via copy chain (non-SSA: single reg reused)
    ///        t = cmp_lt iv, bound; cbr t -> body, exit
    /// body:  ... ; iv += step; jump header
    /// exit:
    /// ```
    pub fn counted_loop(
        &mut self,
        start: i64,
        bound: i64,
        step: i64,
        body: impl FnOnce(&mut FuncBuilder, Reg),
    ) -> Reg {
        assert!(step != 0, "loop step must be nonzero");
        let iv = self.vreg(RegClass::Gpr);
        self.emit(Op::LoadI {
            imm: start,
            dst: iv,
        });
        let n = self.func.blocks.len();
        let header = self.block(format!("loop{n}_header"));
        let body_b = self.block(format!("loop{n}_body"));
        let exit = self.block(format!("loop{n}_exit"));
        self.jump(header);
        self.switch_to(header);
        let bound_r = self.loadi(bound);
        let kind = if step > 0 { CmpKind::Lt } else { CmpKind::Gt };
        let cond = self.icmp(kind, iv, bound_r);
        self.cbr(cond, body_b, exit);
        self.switch_to(body_b);
        body(self, iv);
        let next = self.addi(iv, step);
        self.emit(Op::I2I { src: next, dst: iv });
        self.jump(header);
        self.switch_to(exit);
        iv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_function;

    #[test]
    fn straight_line_build_verifies() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let b = fb.loadi(2);
        let c = fb.add(a, b);
        fb.ret(&[c]);
        let f = fb.finish();
        assert_eq!(f.instr_count(), 4);
        verify_function(&f).unwrap();
    }

    #[test]
    fn counted_loop_shape() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 0, dst: acc });
        fb.counted_loop(0, 10, 1, |fb, iv| {
            let t = fb.add(acc, iv);
            fb.emit(Op::I2I { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        let f = fb.finish();
        assert_eq!(f.blocks.len(), 4); // entry, header, body, exit
        verify_function(&f).unwrap();
        // Header ends in cbr with two successors.
        let header = &f.blocks[1];
        assert_eq!(header.successors().len(), 2);
    }

    #[test]
    fn params_recorded_in_order() {
        let mut fb = FuncBuilder::new("f");
        let p0 = fb.param(RegClass::Gpr);
        let p1 = fb.param(RegClass::Fpr);
        fb.ret(&[]);
        let f = fb.finish();
        assert_eq!(f.params, vec![p0, p1]);
    }

    #[test]
    fn locals_are_eight_byte_aligned() {
        let mut fb = FuncBuilder::new("f");
        let a = fb.alloc_local(4);
        let b = fb.alloc_local(16);
        assert_eq!(a, 0);
        assert_eq!(b, 8);
        fb.ret(&[]);
        assert_eq!(fb.finish().frame.locals_size, 24);
    }
}
