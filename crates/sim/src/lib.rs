#![warn(missing_docs)]
//! A cycle-accurate simulator for the ILOC-like IR.
//!
//! Implements the paper's evaluation machine (§4): single issue, 64
//! registers, two-cycle main-memory operations, one-cycle everything else
//! including CCM `spill`/`restore`. The CCM is a disjoint address space.
//! Optional cache / write-buffer / victim-cache models support the §4.3
//! "more complex execution models" ablations, and an optional
//! pipelined-load model supports the scheduling study.
//!
//! # Example
//!
//! ```
//! use iloc::builder::FuncBuilder;
//! use iloc::RegClass;
//!
//! let mut fb = FuncBuilder::new("main");
//! fb.set_ret_classes(&[RegClass::Gpr]);
//! let a = fb.loadi(40);
//! let b = fb.loadi(2);
//! let c = fb.add(a, b);
//! fb.ret(&[c]);
//! let mut m = iloc::Module::new();
//! m.push_function(fb.finish());
//!
//! let (vals, metrics) =
//!     sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
//! assert_eq!(vals.ints, vec![42]);
//! assert_eq!(metrics.cycles, 4); // four single-cycle instructions
//! ```

pub mod cache;
pub mod config;
pub mod machine;
pub mod metrics;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use config::{default_max_steps, set_default_max_steps, MachineConfig, DEFAULT_MAX_STEPS};
pub use machine::{run_module, Machine, RetValues, SimError};
pub use metrics::Metrics;
