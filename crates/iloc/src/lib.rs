#![warn(missing_docs)]
//! An ILOC-like low-level intermediate representation.
//!
//! This crate implements the substrate IR for the *Compiler-Controlled
//! Memory* reproduction: a three-address, register-based linear IR in the
//! style of Rice's ILOC (the input language of the experiments in Cooper &
//! Harvey, ASPLOS 1998). It provides:
//!
//! * two register classes ([`RegClass::Gpr`] and [`RegClass::Fpr`]) with an
//!   unbounded virtual register space and a reserved activation-record
//!   pointer ([`Reg::RARP`]);
//! * an instruction set ([`Op`]) covering integer/float arithmetic,
//!   comparisons, main-memory loads/stores, **compiler-controlled-memory
//!   (CCM) `spill`/`restore` operations in a disjoint address space**,
//!   control flow, calls, and SSA φ-nodes;
//! * the machine's ALU rule, next to the op kinds it defines
//!   ([`IBinKind::eval`], [`FBinKind::eval`], [`CmpKind::eval`],
//!   [`read_imm`], [`f2i`]): the one definition of what an arithmetic,
//!   compare or conversion op computes, which the simulator executes and
//!   the optimizer folds through;
//! * functions as explicit control-flow graphs ([`Function`], [`Block`]);
//! * a fluent [`builder::FuncBuilder`] for constructing programs, a textual
//!   [`parse`]r and printer that round-trip, and a [`verify`]er.
//!
//! # Example
//!
//! ```
//! use iloc::{builder::FuncBuilder, Module, RegClass};
//!
//! let mut f = FuncBuilder::new("answer");
//! f.set_ret_classes(&[RegClass::Gpr]);
//! let entry = f.entry();
//! f.switch_to(entry);
//! let a = f.loadi(40);
//! let b = f.loadi(2);
//! let c = f.add(a, b);
//! f.ret(&[c]);
//! let func = f.finish();
//! let mut m = Module::new();
//! m.push_function(func);
//! m.verify().unwrap();
//! ```

pub mod block;
pub mod builder;
pub mod func;
pub mod module;
pub mod op;
pub mod parse;
pub mod print;
pub mod reg;
pub mod verify;

pub use block::{Block, BlockId, Succs};
pub use func::{FrameInfo, Function, SlotId, SpillKind, SpillSlot};
pub use module::{Global, Module};
pub use op::{f2i, read_imm, Call, CmpKind, FBinKind, IBinKind, Instr, Op};
pub use parse::{parse_module, ParseError};
pub use reg::{Reg, RegClass, FIRST_VREG};
pub use verify::{verify_function, verify_module, VerifyError};
