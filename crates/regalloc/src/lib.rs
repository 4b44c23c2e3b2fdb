#![warn(missing_docs)]
//! A Chaitin-Briggs graph-coloring register allocator.
//!
//! Implements the allocator of Briggs' thesis as used by the paper:
//! interference-graph construction over live ranges, conservative
//! coalescing, `10^depth` spill costs, simplify/select with optimistic
//! coloring, and spill-everywhere code insertion into activation-record
//! slots. Spill code is tagged with its slot; the CCM allocators of the
//! `ccm` crate run over the allocated code and move slots into
//! compiler-controlled memory. The paper's integrated allocator (§3.2)
//! consults CCM locations only when placing a spill, never when coloring,
//! so it too is a placement pass over this allocation.
//!
//! # Example
//!
//! ```
//! use iloc::builder::FuncBuilder;
//! use iloc::RegClass;
//! use regalloc::AllocConfig;
//!
//! // Twelve simultaneously-live values, four registers: spills happen.
//! let mut fb = FuncBuilder::new("f");
//! fb.set_ret_classes(&[RegClass::Gpr]);
//! let vals: Vec<_> = (0..12).map(|i| fb.loadi(i)).collect();
//! let mut acc = vals[11];
//! for v in vals[..11].iter().rev() {
//!     acc = fb.add(acc, *v);
//! }
//! fb.ret(&[acc]);
//! let mut f = fb.finish();
//!
//! let stats = regalloc::allocate_function(&mut f, &AllocConfig::tiny(4));
//! assert!(stats.total_spilled() > 0);
//! assert!(regalloc::no_virtual_regs(&f));
//! assert!(f.spill_instr_count() > 0); // tagged spill code was inserted
//! ```

pub mod allocator;
pub mod color;
pub mod config;
pub mod costs;
pub mod igraph;
pub mod spill;
#[cfg(test)]
mod testkit;

pub use allocator::{allocate_function, allocate_module, no_virtual_regs, AllocStats};
pub use color::{color, Coloring};
pub use config::AllocConfig;
pub use costs::{SpillCosts, INFINITE};
pub use igraph::{release_spare_matrix, InterferenceGraph};
pub use spill::insert_spill_code;
