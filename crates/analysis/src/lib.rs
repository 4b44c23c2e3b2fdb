#![warn(missing_docs)]
//! Program analyses over the ILOC-like IR.
//!
//! This crate supplies the analysis substrate the register allocator and
//! the CCM passes are built on:
//!
//! * [`BitSet`] — dense bit sets for dataflow facts;
//! * [`dataflow`] — a generic gen/kill worklist solver;
//! * [`DefinedRegs`] — must-be-defined registers (a forward instance of
//!   the solver, used by the post-allocation checker);
//! * [`Dominators`] — Cooper–Harvey–Kennedy dominators, dominator tree,
//!   and dominance frontiers;
//! * [`Liveness`] — per-block and per-instruction register liveness;
//! * [`LoopInfo`] — natural loops and nesting depth (spill-cost weights);
//! * [`ssa`] — SSA construction (semi-pruned) and destruction (with
//!   parallel-copy sequentialization);
//! * [`DefUse`] — def-use chains;
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
//! let live = Liveness::compute(&f);
//! assert_eq!(loops.loops.len(), 1);
//! assert!(live.max_pressure(&f, RegClass::Gpr) >= 2);
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
pub mod ssa;

pub use bitset::BitSet;
pub use callgraph::CallGraph;
pub use dataflow::{solve, DataflowProblem, Direction, Meet, Solution};
pub use defined::DefinedRegs;
pub use defuse::{DefUse, InstrRef};
pub use dom::Dominators;
pub use liveness::Liveness;
pub use loops::{Loop, LoopInfo};
pub use regindex::RegIndex;
pub use ssa::{check_single_def, from_ssa, split_critical_edges, to_ssa};
