#![warn(missing_docs)]
//! Program analyses over the ILOC-like IR.
//!
//! This crate supplies the analysis substrate the register allocator and
//! the CCM passes are built on:
//!
//! * [`BitSet`] and [`BitRows`] — dense bit sets for dataflow facts, one
//!   set or one set per row of a flat table;
//! * [`dataflow`] — the gen/kill core every bit-vector problem is solved
//!   with: [`live`] (backward, union) and [`must`] (forward,
//!   intersection), over gen/kill rows and without a heap allocation per
//!   block;
//! * [`DefinedRegs`] — must-be-defined registers (a [`must`] problem,
//!   used by the post-allocation checker);
//! * [`Dominators`] — Cooper–Harvey–Kennedy dominators, dominator tree,
//!   and dominance frontiers;
//! * [`Liveness`] — the one liveness core: gen/kill rows from an
//!   operand visitor over a dense universe, solved with [`live`], and a
//!   backward walk showing the set live after each instruction. Three
//!   numberings use it: all registers ([`RegIndex::build`]), one class's
//!   virtual registers ([`RegIndex::build_where`], the register
//!   allocator's interference graph) and spill slots (the `ccm` crate's
//!   slot analysis);
//! * [`LoopInfo`] — natural loops and nesting depth, and the `10^depth`
//!   block weights of spill and slot costs ([`LoopInfo::block_weights`]);
//! * [`ssa`] — SSA construction (semi-pruned) and destruction (with
//!   parallel-copy sequentialization);
//! * [`DefUse`] — def-use chains;
//! * [`RegMap`] — a dense per-register table: SSA construction,
//!   [`DefUse`], the optimizer and [`RegIndex`] (a dense numbering of a
//!   function's registers for bit sets) key per-register state by it;
//! * [`CallGraph`] — call graph, Tarjan SCCs, bottom-up order for the
//!   interprocedural CCM allocator.
//!
//! # Example
//!
//! ```
//! use analysis::{Dominators, Liveness, LoopInfo};
//! use iloc::builder::FuncBuilder;
//! use iloc::RegClass;
//!
//! let mut fb = FuncBuilder::new("f");
//! fb.set_ret_classes(&[RegClass::Gpr]);
//! let acc = fb.vreg(RegClass::Gpr);
//! fb.emit(iloc::Op::LoadI { imm: 0, dst: acc });
//! fb.counted_loop(0, 10, 1, |fb, iv| {
//!     let t = fb.add(acc, iv);
//!     fb.emit(iloc::Op::I2I { src: t, dst: acc });
//! });
//! fb.ret(&[acc]);
//! let f = fb.finish();
//!
//! let dom = Dominators::compute(&f);
//! let loops = LoopInfo::compute(&f, &dom);
//! assert_eq!(loops.loops.len(), 1);
//! assert!(Liveness::max_pressure(&f, RegClass::Gpr) >= 2);
//! ```

pub mod bitset;
pub mod callgraph;
pub mod dataflow;
pub mod defined;
pub mod defuse;
pub mod dom;
pub mod liveness;
pub mod loops;
pub mod regindex;
pub mod regmap;
pub mod ssa;

pub use bitset::{BitRows, BitSet};
pub use callgraph::CallGraph;
pub use dataflow::{live, must, Solution};
pub use defined::DefinedRegs;
pub use defuse::{DefUse, InstrRef};
pub use dom::Dominators;
pub use liveness::Liveness;
pub use loops::{Loop, LoopInfo};
pub use regindex::RegIndex;
pub use regmap::RegMap;
pub use ssa::{check_single_def, from_ssa, split_critical_edges, to_ssa};
