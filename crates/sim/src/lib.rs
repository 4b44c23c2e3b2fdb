#![warn(missing_docs)]
//! A cycle-accurate simulator for the ILOC-like IR.
//!
//! Implements the paper's evaluation machine (§4): single issue, 64
//! registers, two-cycle main-memory operations ([`MEM_LATENCY`]),
//! one-cycle everything else including CCM `spill`/`restore`
//! ([`CCM_LATENCY`]). The CCM is a disjoint address space. Arithmetic,
//! compares and conversions compute by the ALU rule in [`iloc::op`]
//! ([`iloc::IBinKind::eval`] and its siblings), the same functions the
//! optimizer folds constants with; a zero divisor traps as
//! [`SimError::DivideByZero`].
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

pub use cache::{
    Cache, CacheConfig, CacheStats, CACHE_HIT_LATENCY, CACHE_LINE, CACHE_MISS_LATENCY,
};
pub use config::{MachineConfig, CCM_LATENCY, DEFAULT_MAX_STEPS, MEM_LATENCY, MEM_SIZE};
pub use machine::{run_module, RetValues, SimError};
pub use metrics::Metrics;
