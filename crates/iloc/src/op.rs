//! Instructions and opcodes, and the machine's ALU rule.
//!
//! The ALU rule is what an arithmetic, compare or conversion instruction
//! computes: [`IBinKind::eval`], [`FBinKind::eval`], [`CmpKind::eval`],
//! [`read_imm`] and [`f2i`]. The simulator executes through these
//! functions and the optimizer folds through them, so an optimized
//! program computes what the machine computes by construction.
//!
//! The operand table is which registers each op reads and writes: one
//! `match` for uses and one for defs, written once as local macros whose
//! arms bind operands by reference. [`Op::visit_uses`]/[`Op::map_uses`]
//! and [`Op::visit_defs`]/[`Op::map_defs`] are their expansions over
//! `&Op` and `&mut Op`, so liveness, interference, SSA renaming and
//! spill-code rewriting all read the same table, and a new op fails to
//! compile until both say what it touches.

use crate::block::{BlockId, Succs};
use crate::func::{SlotId, SpillKind};
use crate::reg::Reg;

/// Integer binary operation kinds.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum IBinKind {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mult,
    /// Signed division (traps on zero divisor).
    Div,
    /// Signed remainder (traps on zero divisor).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Left shift (count taken mod 32).
    Shl,
    /// Arithmetic right shift (count taken mod 32).
    Shr,
}

impl IBinKind {
    /// The ILOC mnemonic for this operation.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IBinKind::Add => "add",
            IBinKind::Sub => "sub",
            IBinKind::Mult => "mult",
            IBinKind::Div => "div",
            IBinKind::Rem => "rem",
            IBinKind::And => "and",
            IBinKind::Or => "or",
            IBinKind::Xor => "xor",
            IBinKind::Shl => "lshift",
            IBinKind::Shr => "rshift",
        }
    }

    /// Whether `x OP y == y OP x` for all inputs.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            IBinKind::Add | IBinKind::Mult | IBinKind::And | IBinKind::Or | IBinKind::Xor
        )
    }

    /// The machine's `a KIND b`, or `None` where it traps (a `div` or
    /// `rem` by zero). General-purpose registers hold 32-bit signed values
    /// (Fortran `INTEGER`), kept sign-extended in 64 bits: both operands
    /// are read as their low 32 bits, the result wraps to 32 bits and is
    /// sign-extended, and shift counts are taken mod 32. An immediate
    /// operand is read the same way ([`read_imm`]).
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        let (a, b) = (a as i32, b as i32);
        let r = match self {
            IBinKind::Add => a.wrapping_add(b),
            IBinKind::Sub => a.wrapping_sub(b),
            IBinKind::Mult => a.wrapping_mul(b),
            IBinKind::Div | IBinKind::Rem if b == 0 => return None,
            IBinKind::Div => a.wrapping_div(b),
            IBinKind::Rem => a.wrapping_rem(b),
            IBinKind::And => a & b,
            IBinKind::Or => a | b,
            IBinKind::Xor => a ^ b,
            IBinKind::Shl => a.wrapping_shl(b as u32),
            IBinKind::Shr => a.wrapping_shr(b as u32),
        };
        Some(i64::from(r))
    }

    /// All kinds, for exhaustive testing.
    pub const ALL: [IBinKind; 10] = [
        IBinKind::Add,
        IBinKind::Sub,
        IBinKind::Mult,
        IBinKind::Div,
        IBinKind::Rem,
        IBinKind::And,
        IBinKind::Or,
        IBinKind::Xor,
        IBinKind::Shl,
        IBinKind::Shr,
    ];
}

/// Floating-point binary operation kinds.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FBinKind {
    /// IEEE-754 addition.
    Add,
    /// IEEE-754 subtraction.
    Sub,
    /// IEEE-754 multiplication.
    Mult,
    /// IEEE-754 division.
    Div,
}

impl FBinKind {
    /// The ILOC mnemonic for this operation.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FBinKind::Add => "fadd",
            FBinKind::Sub => "fsub",
            FBinKind::Mult => "fmult",
            FBinKind::Div => "fdiv",
        }
    }

    /// Whether the operation is commutative.
    pub fn is_commutative(self) -> bool {
        matches!(self, FBinKind::Add | FBinKind::Mult)
    }

    /// The machine's `a KIND b`: IEEE-754 double precision, never a trap.
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            FBinKind::Add => a + b,
            FBinKind::Sub => a - b,
            FBinKind::Mult => a * b,
            FBinKind::Div => a / b,
        }
    }

    /// All kinds, for exhaustive testing.
    pub const ALL: [FBinKind; 4] = [FBinKind::Add, FBinKind::Sub, FBinKind::Mult, FBinKind::Div];
}

/// Comparison kinds (shared by integer and floating-point compares).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CmpKind {
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
}

impl CmpKind {
    /// The mnemonic suffix (`cmp_LT` style in classic ILOC; we use lowercase).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpKind::Lt => "lt",
            CmpKind::Le => "le",
            CmpKind::Gt => "gt",
            CmpKind::Ge => "ge",
            CmpKind::Eq => "eq",
            CmpKind::Ne => "ne",
        }
    }

    /// The comparison with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> CmpKind {
        match self {
            CmpKind::Lt => CmpKind::Gt,
            CmpKind::Le => CmpKind::Ge,
            CmpKind::Gt => CmpKind::Lt,
            CmpKind::Ge => CmpKind::Le,
            CmpKind::Eq => CmpKind::Eq,
            CmpKind::Ne => CmpKind::Ne,
        }
    }

    /// The 0/1 the machine writes for `a KIND b`, for either register
    /// class: integers compare as the signed values they hold, floats by
    /// IEEE-754 (every compare with a NaN is false except `ne`).
    #[inline]
    pub fn eval<T: PartialOrd>(self, a: T, b: T) -> i64 {
        i64::from(match self {
            CmpKind::Lt => a < b,
            CmpKind::Le => a <= b,
            CmpKind::Gt => a > b,
            CmpKind::Ge => a >= b,
            CmpKind::Eq => a == b,
            CmpKind::Ne => a != b,
        })
    }

    /// All kinds, for exhaustive testing.
    pub const ALL: [CmpKind; 6] = [
        CmpKind::Lt,
        CmpKind::Le,
        CmpKind::Gt,
        CmpKind::Ge,
        CmpKind::Eq,
        CmpKind::Ne,
    ];
}

/// The value the machine reads from an integer immediate (`loadI` and
/// every `…I` form): its low 32 bits, sign-extended.
#[inline]
pub fn read_imm(imm: i64) -> i64 {
    i64::from(imm as i32)
}

/// The machine's `f2i`: truncation toward zero, saturating at the 32-bit
/// range, with NaN converting to 0.
#[inline]
pub fn f2i(x: f64) -> i64 {
    i64::from(x as i32)
}

/// An ILOC operation.
///
/// Main-memory accesses (`Load*`/`Store*`) live in the ordinary address
/// space and cost two cycles in the paper's machine model. The `Ccm*`
/// operations access the **compiler-controlled memory**, a small disjoint
/// address space reached by absolute offsets, and cost a single cycle.
///
/// Field meanings follow each variant's doc comment, which gives the full
/// assembly syntax (destinations after `=>`).
#[derive(Clone, PartialEq, Debug)]
#[allow(missing_docs)]
pub enum Op {
    /// `loadI imm => dst` — integer constant.
    LoadI { imm: i64, dst: Reg },
    /// `loadF imm => dst` — floating-point constant.
    LoadF { imm: f64, dst: Reg },
    /// `loadSym @name => dst` — address of a module global.
    LoadSym { sym: Box<str>, dst: Reg },

    /// Integer three-address arithmetic: `kind lhs, rhs => dst`.
    IBin {
        kind: IBinKind,
        lhs: Reg,
        rhs: Reg,
        dst: Reg,
    },
    /// Integer register-immediate arithmetic: `kindI lhs, imm => dst`.
    IBinI {
        kind: IBinKind,
        lhs: Reg,
        imm: i64,
        dst: Reg,
    },
    /// Floating-point three-address arithmetic.
    FBin {
        kind: FBinKind,
        lhs: Reg,
        rhs: Reg,
        dst: Reg,
    },
    /// Integer compare producing 0/1 in an integer register.
    ICmp {
        kind: CmpKind,
        lhs: Reg,
        rhs: Reg,
        dst: Reg,
    },
    /// Floating-point compare producing 0/1 in an *integer* register.
    FCmp {
        kind: CmpKind,
        lhs: Reg,
        rhs: Reg,
        dst: Reg,
    },

    /// `i2i src => dst` — integer register copy.
    I2I { src: Reg, dst: Reg },
    /// `f2f src => dst` — floating-point register copy.
    F2F { src: Reg, dst: Reg },
    /// `i2f src => dst` — convert integer to floating point.
    I2F { src: Reg, dst: Reg },
    /// `f2i src => dst` — truncate floating point to integer.
    F2I { src: Reg, dst: Reg },

    /// `load addr => dst` — 4-byte integer load from main memory.
    Load { addr: Reg, dst: Reg },
    /// `loadAI addr, off => dst` — integer load at `addr + off`.
    LoadAI { addr: Reg, off: i64, dst: Reg },
    /// `store val => addr` — 4-byte integer store to main memory.
    Store { val: Reg, addr: Reg },
    /// `storeAI val => addr, off` — integer store at `addr + off`.
    StoreAI { val: Reg, addr: Reg, off: i64 },
    /// `fload addr => dst` — 8-byte float load from main memory.
    FLoad { addr: Reg, dst: Reg },
    /// `floadAI addr, off => dst` — float load at `addr + off`.
    FLoadAI { addr: Reg, off: i64, dst: Reg },
    /// `fstore val => addr` — 8-byte float store to main memory.
    FStore { val: Reg, addr: Reg },
    /// `fstoreAI val => addr, off` — float store at `addr + off`.
    FStoreAI { val: Reg, addr: Reg, off: i64 },

    /// `spill val => ccm[off]` — integer store into the CCM (1 cycle).
    CcmStore { val: Reg, off: u32 },
    /// `restore ccm[off] => dst` — integer load from the CCM (1 cycle).
    CcmLoad { off: u32, dst: Reg },
    /// `fspill val => ccm[off]` — float store into the CCM (1 cycle).
    CcmFStore { val: Reg, off: u32 },
    /// `frestore ccm[off] => dst` — float load from the CCM (1 cycle).
    CcmFLoad { off: u32, dst: Reg },

    /// `jump -> target`.
    Jump { target: BlockId },
    /// `cbr cond -> taken, fallthrough` — branch if `cond != 0`.
    Cbr {
        cond: Reg,
        taken: BlockId,
        not_taken: BlockId,
    },
    /// `call name(args...) => rets...` — direct call.
    Call(Box<Call>),
    /// `ret vals...`.
    Ret { vals: Box<[Reg]> },

    /// SSA φ-node: `dst = φ(block₁: reg₁, …)`. Only present while the
    /// function is in SSA form.
    Phi {
        dst: Reg,
        args: Box<[(BlockId, Reg)]>,
    },

    /// No operation (used transiently by rewriting passes).
    Nop,
}

/// The operands of a direct call, kept out of line ([`Op::Call`]) so
/// that an [`Op`] stays 24 bytes.
#[derive(Clone, PartialEq, Debug)]
pub struct Call {
    /// The called function's name.
    pub callee: String,
    /// Argument registers, in parameter order.
    pub args: Vec<Reg>,
    /// Result registers, in return-value order.
    pub rets: Vec<Reg>,
}

/// The one table of the registers each op reads, in operand order:
/// calls `$each` with a reference to every use. The arms bind operands by
/// reference, so the same text expands over `&Op` ([`Op::visit_uses`])
/// and `&mut Op` ([`Op::map_uses`]), with `$iter` (`iter` or
/// `iter_mut`) walking a boxed [`Call`]'s lists; no arm is a wildcard, so
/// a new op does not compile until it says what it reads.
macro_rules! for_each_use {
    ($op:expr, $iter:ident, $each:expr) => {{
        let mut each = $each;
        match $op {
            Op::LoadI { .. }
            | Op::LoadF { .. }
            | Op::LoadSym { .. }
            | Op::CcmLoad { .. }
            | Op::CcmFLoad { .. }
            | Op::Jump { .. }
            | Op::Nop => {}
            Op::IBin { lhs, rhs, .. }
            | Op::FBin { lhs, rhs, .. }
            | Op::ICmp { lhs, rhs, .. }
            | Op::FCmp { lhs, rhs, .. } => {
                each(lhs);
                each(rhs);
            }
            Op::IBinI { lhs: src, .. }
            | Op::I2I { src, .. }
            | Op::F2F { src, .. }
            | Op::I2F { src, .. }
            | Op::F2I { src, .. }
            | Op::Load { addr: src, .. }
            | Op::LoadAI { addr: src, .. }
            | Op::FLoad { addr: src, .. }
            | Op::FLoadAI { addr: src, .. }
            | Op::CcmStore { val: src, .. }
            | Op::CcmFStore { val: src, .. }
            | Op::Cbr { cond: src, .. } => each(src),
            Op::Store { val, addr }
            | Op::StoreAI { val, addr, .. }
            | Op::FStore { val, addr }
            | Op::FStoreAI { val, addr, .. } => {
                each(val);
                each(addr);
            }
            Op::Call(call) => {
                for r in call.args.$iter() {
                    each(r);
                }
            }
            Op::Ret { vals } => {
                for r in vals {
                    each(r);
                }
            }
            Op::Phi { args, .. } => {
                for (_, r) in args {
                    each(r);
                }
            }
        }
    }};
}

/// The one table of the registers each op writes, expanded by
/// [`Op::visit_defs`] and [`Op::map_defs`] as `for_each_use!` is.
macro_rules! for_each_def {
    ($op:expr, $iter:ident, $each:expr) => {{
        let mut each = $each;
        match $op {
            Op::LoadI { dst, .. }
            | Op::LoadF { dst, .. }
            | Op::LoadSym { dst, .. }
            | Op::IBin { dst, .. }
            | Op::IBinI { dst, .. }
            | Op::FBin { dst, .. }
            | Op::ICmp { dst, .. }
            | Op::FCmp { dst, .. }
            | Op::I2I { dst, .. }
            | Op::F2F { dst, .. }
            | Op::I2F { dst, .. }
            | Op::F2I { dst, .. }
            | Op::Load { dst, .. }
            | Op::LoadAI { dst, .. }
            | Op::FLoad { dst, .. }
            | Op::FLoadAI { dst, .. }
            | Op::CcmLoad { dst, .. }
            | Op::CcmFLoad { dst, .. }
            | Op::Phi { dst, .. } => each(dst),
            Op::Call(call) => {
                for r in call.rets.$iter() {
                    each(r);
                }
            }
            Op::Store { .. }
            | Op::StoreAI { .. }
            | Op::FStore { .. }
            | Op::FStoreAI { .. }
            | Op::CcmStore { .. }
            | Op::CcmFStore { .. }
            | Op::Jump { .. }
            | Op::Cbr { .. }
            | Op::Ret { .. }
            | Op::Nop => {}
        }
    }};
}

impl Op {
    /// Whether this operation ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Jump { .. } | Op::Cbr { .. } | Op::Ret { .. })
    }

    /// Whether this operation touches *main* memory (2-cycle cost in the
    /// paper's machine model). CCM operations are **not** main-memory ops.
    pub fn is_main_memory_op(&self) -> bool {
        matches!(
            self,
            Op::Load { .. }
                | Op::LoadAI { .. }
                | Op::Store { .. }
                | Op::StoreAI { .. }
                | Op::FLoad { .. }
                | Op::FLoadAI { .. }
                | Op::FStore { .. }
                | Op::FStoreAI { .. }
        )
    }

    /// Whether this operation touches the compiler-controlled memory.
    pub fn is_ccm_op(&self) -> bool {
        matches!(
            self,
            Op::CcmStore { .. } | Op::CcmLoad { .. } | Op::CcmFStore { .. } | Op::CcmFLoad { .. }
        )
    }

    /// Whether this is an arithmetic op that traps for some register
    /// values under [`IBinKind::eval`]: a register `div`/`rem`, or one
    /// whose immediate reads as 0.
    pub fn alu_may_trap(&self) -> bool {
        match *self {
            Op::IBin { kind, .. } => kind.eval(1, 0).is_none(),
            Op::IBinI { kind, imm, .. } => kind.eval(1, imm).is_none(),
            _ => false,
        }
    }

    /// Whether this is a memory *write* (main memory or CCM).
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            Op::Store { .. }
                | Op::StoreAI { .. }
                | Op::FStore { .. }
                | Op::FStoreAI { .. }
                | Op::CcmStore { .. }
                | Op::CcmFStore { .. }
        )
    }

    /// Whether the operation has side effects beyond its register defs
    /// (stores, calls, control flow).
    pub fn has_side_effects(&self) -> bool {
        self.is_store() || matches!(self, Op::Call { .. }) || self.is_terminator()
    }

    /// Whether dead-code elimination may delete this operation once no
    /// register it defines is read: it has no side effects and cannot
    /// trap ([`Op::alu_may_trap`]), since an unused `divI x, 0` still
    /// stops the machine. Loads count as removable.
    pub fn removable_if_unused(&self) -> bool {
        !self.has_side_effects() && !self.alu_may_trap()
    }

    /// Visits every register *used* (read) by this operation, in operand
    /// order.
    pub fn visit_uses(&self, mut f: impl FnMut(Reg)) {
        for_each_use!(self, iter, |r: &Reg| f(*r));
    }

    /// Visits every register *defined* (written) by this operation.
    pub fn visit_defs(&self, mut f: impl FnMut(Reg)) {
        for_each_def!(self, iter, |r: &Reg| f(*r));
    }

    /// Collects the used registers into a vector (convenience wrapper
    /// around [`Op::visit_uses`]).
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        self.visit_uses(|r| v.push(r));
        v
    }

    /// Collects the defined registers into a vector.
    pub fn defs(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        self.visit_defs(|r| v.push(r));
        v
    }

    /// Rewrites every *use* through `f` (register renaming).
    pub fn map_uses(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        for_each_use!(self, iter_mut, |r: &mut Reg| *r = f(*r));
    }

    /// Rewrites every *def* through `f` (register renaming).
    pub fn map_defs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        for_each_def!(self, iter_mut, |r: &mut Reg| *r = f(*r));
    }

    /// Successor blocks named by this operation (empty unless terminator).
    pub fn successors(&self) -> Succs {
        match self {
            Op::Jump { target } => Succs::one(*target),
            Op::Cbr {
                taken, not_taken, ..
            } => Succs::two(*taken, *not_taken),
            _ => Succs::NONE,
        }
    }

    /// Rewrites successor block ids through `f` (used by CFG editing).
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Op::Jump { target } => *target = f(*target),
            Op::Cbr {
                taken, not_taken, ..
            } => {
                *taken = f(*taken);
                *not_taken = f(*not_taken);
            }
            Op::Phi { args, .. } => {
                for (b, _) in args {
                    *b = f(*b);
                }
            }
            _ => {}
        }
    }
}

/// An instruction: an [`Op`] plus a spill tag.
///
/// The tag records the provenance the paper's techniques rely on: *the
/// compiler itself inserted spill instructions, so it knows exactly which
/// memory operations they are*. `SpillKind::Store`/`SpillKind::Restore`
/// mark the stores/loads the register allocator inserted for a given frame
/// spill slot; everything else is `SpillKind::None`.
#[derive(Clone, PartialEq, Debug)]
pub struct Instr {
    /// The operation.
    pub op: Op,
    /// Spill provenance (see [`SpillKind`]).
    pub spill: SpillKind,
}

impl Instr {
    /// An ordinary (non-spill) instruction.
    pub fn new(op: Op) -> Instr {
        Instr {
            op,
            spill: SpillKind::None,
        }
    }

    /// A spill store for `slot`.
    pub fn spill_store(op: Op, slot: SlotId) -> Instr {
        Instr {
            op,
            spill: SpillKind::Store(slot),
        }
    }

    /// A spill restore (reload) for `slot`.
    pub fn spill_restore(op: Op, slot: SlotId) -> Instr {
        Instr {
            op,
            spill: SpillKind::Restore(slot),
        }
    }

    /// The spill slot this instruction accesses, if it is spill code.
    pub fn spill_slot(&self) -> Option<SlotId> {
        match self.spill {
            SpillKind::None => None,
            SpillKind::Store(s) | SpillKind::Restore(s) => Some(s),
        }
    }
}

// The layout rule: a packed `Reg` and out-of-line call, return, φ and
// symbol operands keep every instruction at 32 bytes.
const _: () = assert!(std::mem::size_of::<Op>() == 24);
const _: () = assert!(std::mem::size_of::<Instr>() == 32);

impl From<Op> for Instr {
    fn from(op: Op) -> Instr {
        Instr::new(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> Reg {
        Reg::gpr(i)
    }

    #[test]
    fn uses_and_defs_of_arith() {
        let op = Op::IBin {
            kind: IBinKind::Add,
            lhs: r(64),
            rhs: r(65),
            dst: r(66),
        };
        assert_eq!(op.uses(), vec![r(64), r(65)]);
        assert_eq!(op.defs(), vec![r(66)]);
    }

    #[test]
    fn store_has_no_defs() {
        let op = Op::StoreAI {
            val: r(64),
            addr: Reg::RARP,
            off: 8,
        };
        assert!(op.defs().is_empty());
        assert_eq!(op.uses(), vec![r(64), Reg::RARP]);
        assert!(op.has_side_effects());
    }

    /// One op of each variant, every register operand distinct.
    fn one_of_each_variant() -> Vec<Op> {
        let (g, f, b) = (Reg::gpr, Reg::fpr, BlockId);
        let samples = vec![
            Op::LoadI { imm: 7, dst: g(64) },
            Op::LoadF {
                imm: 1.5,
                dst: f(64),
            },
            Op::LoadSym {
                sym: "g".into(),
                dst: g(64),
            },
            Op::IBin {
                kind: IBinKind::Sub,
                lhs: g(64),
                rhs: g(65),
                dst: g(66),
            },
            Op::IBinI {
                kind: IBinKind::Shl,
                lhs: g(64),
                imm: 3,
                dst: g(65),
            },
            Op::FBin {
                kind: FBinKind::Div,
                lhs: f(64),
                rhs: f(65),
                dst: f(66),
            },
            Op::ICmp {
                kind: CmpKind::Lt,
                lhs: g(64),
                rhs: g(65),
                dst: g(66),
            },
            Op::FCmp {
                kind: CmpKind::Ge,
                lhs: f(64),
                rhs: f(65),
                dst: g(66),
            },
            Op::I2I {
                src: g(64),
                dst: g(65),
            },
            Op::F2F {
                src: f(64),
                dst: f(65),
            },
            Op::I2F {
                src: g(64),
                dst: f(65),
            },
            Op::F2I {
                src: f(64),
                dst: g(65),
            },
            Op::Load {
                addr: g(64),
                dst: g(65),
            },
            Op::LoadAI {
                addr: Reg::RARP,
                off: 8,
                dst: g(65),
            },
            Op::Store {
                val: g(64),
                addr: g(65),
            },
            Op::StoreAI {
                val: g(64),
                addr: g(65),
                off: 4,
            },
            Op::FLoad {
                addr: g(64),
                dst: f(65),
            },
            Op::FLoadAI {
                addr: g(64),
                off: 8,
                dst: f(65),
            },
            Op::FStore {
                val: f(64),
                addr: g(65),
            },
            Op::FStoreAI {
                val: f(64),
                addr: g(65),
                off: 16,
            },
            Op::CcmStore { val: g(64), off: 4 },
            Op::CcmLoad { off: 4, dst: g(64) },
            Op::CcmFStore { val: f(64), off: 8 },
            Op::CcmFLoad { off: 8, dst: f(64) },
            Op::Jump { target: b(1) },
            Op::Cbr {
                cond: g(64),
                taken: b(1),
                not_taken: b(2),
            },
            Op::Call(Box::new(Call {
                callee: "h".into(),
                args: vec![g(64), f(65), g(66)],
                rets: vec![f(67), g(68)],
            })),
            Op::Ret {
                vals: [g(64), f(65)].into(),
            },
            Op::Phi {
                dst: g(66),
                args: [(b(1), g(64)), (b(2), g(65))].into(),
            },
            Op::Nop,
        ];
        // No wildcard arm: a new variant does not compile until it has a
        // number here, and then fails until it has a sample above.
        let variant = |op: &Op| match op {
            Op::LoadI { .. } => 0,
            Op::LoadF { .. } => 1,
            Op::LoadSym { .. } => 2,
            Op::IBin { .. } => 3,
            Op::IBinI { .. } => 4,
            Op::FBin { .. } => 5,
            Op::ICmp { .. } => 6,
            Op::FCmp { .. } => 7,
            Op::I2I { .. } => 8,
            Op::F2F { .. } => 9,
            Op::I2F { .. } => 10,
            Op::F2I { .. } => 11,
            Op::Load { .. } => 12,
            Op::LoadAI { .. } => 13,
            Op::Store { .. } => 14,
            Op::StoreAI { .. } => 15,
            Op::FLoad { .. } => 16,
            Op::FLoadAI { .. } => 17,
            Op::FStore { .. } => 18,
            Op::FStoreAI { .. } => 19,
            Op::CcmStore { .. } => 20,
            Op::CcmLoad { .. } => 21,
            Op::CcmFStore { .. } => 22,
            Op::CcmFLoad { .. } => 23,
            Op::Jump { .. } => 24,
            Op::Cbr { .. } => 25,
            Op::Call { .. } => 26,
            Op::Ret { .. } => 27,
            Op::Phi { .. } => 28,
            Op::Nop => 29,
        };
        let numbers: Vec<usize> = samples.iter().map(variant).collect();
        assert_eq!(numbers, (0..=29).collect::<Vec<_>>(), "one sample each");
        samples
    }

    /// The registers in an op's printed form, in order.
    fn printed_regs(op: &Op) -> Vec<Reg> {
        let mut func = crate::Function::new("t");
        func.add_block("a");
        func.add_block("b");
        let text = crate::print::format_instr(&func, &Instr::new(op.clone()));
        text.split(|c: char| c != '%' && !c.is_ascii_alphanumeric())
            .filter_map(|t| {
                let n = t.get(2..)?.parse().ok()?;
                match t.get(..2)? {
                    "%r" => Some(Reg::gpr(n)),
                    "%f" => Some(Reg::fpr(n)),
                    _ => None,
                }
            })
            .collect()
    }

    #[test]
    fn operand_table_matches_the_printed_form_and_renames_exactly() {
        let rename = |r: Reg| Reg::new(r.class(), r.index() + 100);
        for op in one_of_each_variant() {
            let (uses, defs) = (op.uses(), op.defs());
            let all: Vec<Reg> = uses.iter().chain(&defs).copied().collect();
            assert_eq!(printed_regs(&op), all, "{op:?}");

            let mut renamed = op.clone();
            renamed.map_uses(rename);
            let want = uses.iter().map(|&r| rename(r)).chain(defs.iter().copied());
            assert_eq!(
                printed_regs(&renamed),
                want.collect::<Vec<_>>(),
                "uses of {op:?}"
            );

            let mut renamed = op.clone();
            renamed.map_defs(rename);
            let want = uses.iter().copied().chain(defs.iter().map(|&r| rename(r)));
            assert_eq!(
                printed_regs(&renamed),
                want.collect::<Vec<_>>(),
                "defs of {op:?}"
            );
        }
    }

    #[test]
    fn ccm_ops_are_not_main_memory() {
        let s = Op::CcmStore { val: r(64), off: 0 };
        let l = Op::CcmLoad { off: 0, dst: r(64) };
        assert!(!s.is_main_memory_op());
        assert!(!l.is_main_memory_op());
        assert!(s.is_ccm_op() && l.is_ccm_op());
        assert!(s.is_store() && !l.is_store());
    }

    #[test]
    fn main_memory_classification() {
        let op = Op::FLoadAI {
            addr: Reg::RARP,
            off: 16,
            dst: Reg::fpr(64),
        };
        assert!(op.is_main_memory_op());
        assert!(!op.is_store());
    }

    #[test]
    fn map_uses_renames() {
        let mut op = Op::IBin {
            kind: IBinKind::Add,
            lhs: r(64),
            rhs: r(64),
            dst: r(65),
        };
        op.map_uses(|x| if x == r(64) { r(99) } else { x });
        assert_eq!(op.uses(), vec![r(99), r(99)]);
        assert_eq!(op.defs(), vec![r(65)]);
    }

    #[test]
    fn cmp_swapped() {
        for k in CmpKind::ALL {
            assert_eq!(k.swapped().swapped(), k);
            for (a, b) in [(1, 2), (2, 1), (3, 3)] {
                assert_eq!(k.swapped().eval(b, a), k.eval(a, b));
            }
        }
        assert_eq!(CmpKind::Lt.swapped(), CmpKind::Gt);
    }

    #[test]
    fn alu_rule_edge_cases() {
        use IBinKind::*;
        let min = i64::from(i32::MIN);
        // Operands are read as their low 32 bits; results wrap to 32.
        assert_eq!(Add.eval(i64::from(i32::MAX), 1), Some(min));
        assert_eq!(Sub.eval(min, 1), Some(i64::from(i32::MAX)));
        assert_eq!(Mult.eval(3, 1 << 32), Some(0));
        assert_eq!(Mult.eval(3, (1 << 32) + 3), Some(9));
        assert_eq!(Mult.eval(1 << 16, 1 << 16), Some(0));
        assert_eq!(Add.eval(-(1 << 33), 5), Some(5));
        // Division truncates, wraps on MIN / -1, and traps on a zero
        // divisor, including one that only reads as zero.
        assert_eq!(Div.eval(-7, 2), Some(-3));
        assert_eq!(Rem.eval(-7, 2), Some(-1));
        assert_eq!(Div.eval(min, -1), Some(min));
        assert_eq!(Rem.eval(min, -1), Some(0));
        assert_eq!(Div.eval(1, 0), None);
        assert_eq!(Rem.eval(1, 1 << 32), None);
        // Shift counts are taken mod 32; right shifts are arithmetic.
        assert_eq!(Shl.eval(3, 32), Some(3));
        assert_eq!(Shl.eval(3, 33), Some(6));
        assert_eq!(Shl.eval(1, 31), Some(min));
        assert_eq!(Shr.eval(min, 31), Some(-1));
        assert_eq!(Shr.eval(-8, -1), Some(-1));
        assert_eq!(And.eval(-1, 0xff), Some(0xff));
        assert_eq!(Or.eval(0, min), Some(min));
        assert_eq!(Xor.eval(-1, 0), Some(-1));
        // Immediates and f2i.
        assert_eq!(read_imm(1 << 31), min);
        assert_eq!(read_imm((1 << 32) + 3), 3);
        assert_eq!(read_imm(-1), -1);
        assert_eq!(f2i(-2.9), -2);
        assert_eq!(f2i(1e10), i64::from(i32::MAX));
        assert_eq!(f2i(f64::NEG_INFINITY), min);
        assert_eq!(f2i(f64::NAN), 0);
        // Floats: IEEE-754, no trap.
        assert_eq!(FBinKind::Div.eval(1.0, -0.0), f64::NEG_INFINITY);
        assert!(FBinKind::Sub.eval(f64::INFINITY, f64::INFINITY).is_nan());
        assert_eq!(
            FBinKind::Mult.eval(-0.0, 5.0).to_bits(),
            (-0.0f64).to_bits()
        );
        // Compares: every NaN compare is false except `ne`; -0.0 == 0.0.
        for k in CmpKind::ALL {
            assert_eq!(k.eval(f64::NAN, f64::NAN), i64::from(k == CmpKind::Ne));
        }
        assert_eq!(CmpKind::Eq.eval(-0.0, 0.0), 1);
        assert_eq!(CmpKind::Lt.eval(min, 0), 1);
        assert_eq!(CmpKind::Ge.eval(-1, 1), 0);
    }

    #[test]
    fn only_a_zero_divisor_traps() {
        let (lhs, dst) = (r(64), r(65));
        for kind in IBinKind::ALL {
            let divides = matches!(kind, IBinKind::Div | IBinKind::Rem);
            let reg = Op::IBin {
                kind,
                lhs,
                rhs: r(66),
                dst,
            };
            assert_eq!(reg.alu_may_trap(), divides);
            for (imm, zero) in [
                (0, true),
                (1 << 32, true),
                (1, false),
                ((1 << 32) + 1, false),
            ] {
                let op = Op::IBinI {
                    kind,
                    lhs,
                    imm,
                    dst,
                };
                assert_eq!(op.alu_may_trap(), divides && zero, "{op:?}");
                assert_eq!(op.removable_if_unused(), !(divides && zero), "{op:?}");
            }
        }
        assert!(!Op::F2I { src: r(64), dst }.alu_may_trap());
    }

    #[test]
    fn terminator_successors() {
        let j = Op::Jump { target: BlockId(3) };
        assert_eq!(*j.successors(), [BlockId(3)]);
        let c = Op::Cbr {
            cond: r(64),
            taken: BlockId(1),
            not_taken: BlockId(2),
        };
        assert_eq!(*c.successors(), [BlockId(1), BlockId(2)]);
        assert_eq!(
            c.successors().into_iter().collect::<Vec<_>>(),
            [BlockId(1), BlockId(2)]
        );
        assert!(c.is_terminator());
        let ret = Op::Ret { vals: [].into() };
        assert!(ret.is_terminator());
        assert!(ret.successors().is_empty());
        assert_eq!(ret.successors().into_iter().count(), 0);
        assert!(Op::LoadI { imm: 0, dst: r(64) }.successors().is_empty());
    }

    #[test]
    fn a_cbr_with_equal_targets_has_two_successor_entries() {
        let c = Op::Cbr {
            cond: r(64),
            taken: BlockId(4),
            not_taken: BlockId(4),
        };
        let succs = c.successors();
        // `Succs` is `Copy`: iterating one copy leaves the other intact.
        let walked: Vec<BlockId> = succs.into_iter().collect();
        assert_eq!(walked, [BlockId(4), BlockId(4)]);
        assert_eq!(succs.len(), 2);
        assert_eq!(*succs, [BlockId(4), BlockId(4)]);
    }

    #[test]
    fn phi_uses_and_successor_mapping() {
        let mut op = Op::Phi {
            dst: r(70),
            args: [(BlockId(0), r(64)), (BlockId(1), r(65))].into(),
        };
        assert_eq!(op.uses(), vec![r(64), r(65)]);
        op.map_successors(|b| BlockId(b.0 + 10));
        if let Op::Phi { args, .. } = &op {
            assert_eq!(args[0].0, BlockId(10));
            assert_eq!(args[1].0, BlockId(11));
        } else {
            unreachable!()
        }
    }
}
