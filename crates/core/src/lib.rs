#![warn(missing_docs)]
//! Compiler-controlled memory (CCM) allocation — the core contribution of
//! *Compiler-Controlled Memory* (Cooper & Harvey, ASPLOS 1998).
//!
//! Register spills are the one class of memory traffic the compiler fully
//! understands, because it created them. This crate relocates that
//! traffic into a small on-chip scratchpad in a disjoint address space:
//!
//! * [`SlotAnalysis`] — liveness and interference over spill *locations*
//!   (§3.1's reformulation of dataflow analysis on memory slots);
//! * [`compact_spill_memory`] — coloring-based spill-memory compaction
//!   (§4.1, Table 1);
//! * [`postpass_promote`] — the post-pass CCM allocator, intraprocedural
//!   and interprocedural (Figure 1);
//! * [`integrated_promote`] / [`allocate_module_integrated`] — the
//!   integrated allocator's CCM spilling (§3.2, Figure 2), as a
//!   spill-order placement over the Chaitin-Briggs allocation;
//! * [`allocate_variant`] — one [`Variant`] (the baseline or one of the
//!   three CCM methods) applied end to end, the dispatch every
//!   experiment and the fuzz oracle share; [`promote_allocated`] derives
//!   any variant from an existing baseline allocation.
//!
//! # Quickstart
//!
//! ```
//! use iloc::builder::FuncBuilder;
//! use regalloc::AllocConfig;
//!
//! // A function with more simultaneously-live values than registers.
//! let mut fb = FuncBuilder::new("main");
//! fb.set_ret_classes(&[iloc::RegClass::Gpr]);
//! let vals: Vec<_> = (0..12).map(|i| fb.loadi(i)).collect();
//! let mut acc = vals[11];
//! for v in vals[..11].iter().rev() {
//!     acc = fb.add(acc, *v);
//! }
//! fb.ret(&[acc]);
//! let mut m = iloc::Module::new();
//! m.push_function(fb.finish());
//!
//! // Allocate with 4 registers, then promote the spills into a 512-byte
//! // CCM with the post-pass allocator.
//! regalloc::allocate_module(&mut m, &AllocConfig::tiny(4));
//! let stats = ccm::postpass_promote(
//!     &mut m,
//!     &ccm::PostpassConfig { ccm_size: 512, interprocedural: true },
//! );
//! assert!(stats[0].promoted > 0);
//! ```

pub mod compact;
pub mod integrated;
pub mod postpass;
pub mod slots;
pub mod variant;

/// One function's graceful fallback from CCM allocation to plain
/// heavyweight spilling (the paper's own §3.1 escape hatch: anything
/// that cannot live in the CCM spills to main memory). A degradation is
/// an *event*, not an error — the function's code is correct, merely
/// slower — so callers record it in their measurements instead of
/// aborting.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Degradation {
    /// The function that fell back to heavyweight spills.
    pub function: String,
    /// Why CCM allocation was abandoned for it.
    pub reason: String,
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fn `{}` degraded to heavyweight spills: {}",
            self.function, self.reason
        )
    }
}

pub use compact::{compact_module, compact_spill_memory, CompactStats};
pub use integrated::{allocate_module_integrated, integrated_promote, IntegratedStats};
pub use postpass::{postpass_promote, FnPromotion, PostpassConfig};
pub use slots::{CallSite, SlotAnalysis};
pub use variant::{allocate_variant, promote_allocated, AllocOutcome, Variant};
