#![warn(missing_docs)]
//! Scalar optimizations over the ILOC-like IR.
//!
//! Implements the pipeline the paper's input codes were subjected to:
//! sparse conditional constant propagation ([`sccp()`]), dominator-based
//! global value numbering ([`gvn()`]), dead-code elimination ([`dce()`]),
//! peephole optimization ([`peephole()`]), loop-invariant code motion
//! ([`licm()`], optional), and loop unrolling
//! ([`unroll_loops()`]) as the register-pressure transformation standing in
//! for the paper's prefetch-oriented loop transformations.
//!
//! [`optimize_function`] / [`optimize_module`] run the standard pipeline.
//!
//! # Example
//!
//! ```
//! use iloc::builder::FuncBuilder;
//! use iloc::RegClass;
//!
//! let mut fb = FuncBuilder::new("f");
//! fb.set_ret_classes(&[RegClass::Gpr]);
//! let a = fb.loadi(6);
//! let b = fb.loadi(7);
//! let c = fb.mult(a, b);          // folds to 42
//! let d = fb.mult(a, b);          // redundant — GVN removes it
//! let s = fb.add(c, d);
//! fb.ret(&[s]);
//! let mut f = fb.finish();
//!
//! let stats = opt::optimize_function(&mut f, &opt::OptOptions::default());
//! assert!(stats.constants_folded + stats.redundancies_removed > 0);
//! iloc::verify_function(&f).unwrap();
//! ```

pub mod dce;
pub mod gvn;
pub mod licm;
pub mod peephole;
pub mod pipeline;
pub mod sccp;
pub mod unroll;

pub use dce::dce;
pub use gvn::gvn;
pub use licm::licm;
pub use peephole::peephole;
pub use pipeline::{optimize_function, optimize_module, OptOptions, OptStats};
pub use sccp::sccp;
pub use unroll::unroll_loops;
