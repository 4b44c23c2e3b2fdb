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
//! * [`place`] — one [`Variant`] (the baseline or one of the three CCM
//!   methods) at one CCM size as a [`Placement`] of a baseline
//!   allocation's spill slots over its [`BaselineAnalysis`], the
//!   derivation every experiment and the fuzz oracle share: the
//!   post-pass CCM allocator, intraprocedural and interprocedural
//!   ([`postpass`], Figure 1), and the integrated allocator's CCM
//!   spilling ([`integrated`], §3.2, Figure 2);
//! * [`Placement::apply`] — the module of a placement;
//! * [`Placement::compacted`] — coloring-based spill-memory compaction
//!   (§4.1, Table 1) of a placement, as another placement;
//! * [`promote_allocated`] — [`place`] and [`Placement::apply_to`] in
//!   one call, on a module that holds a baseline allocation.
//!
//! [`postpass_promote`], [`allocate_module_integrated`] and
//! [`compact_module`] are in-place shims over these, kept only for the
//! `perfbench` replay helper.
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
//! // Allocate with 4 registers, then place the spills into a 512-byte
//! // CCM with the post-pass allocator and the call graph.
//! regalloc::allocate_module(&mut m, &AllocConfig::tiny(4));
//! let analysis = ccm::BaselineAnalysis::compute(&m);
//! let placement = ccm::place(&m, &analysis, ccm::Variant::PostPassCallGraph, 512);
//! assert!(placement.functions()[0].promoted > 0);
//! let promoted = placement.apply(&m);
//! assert!(promoted.uses_ccm());
//! ```

pub mod compact;
pub mod integrated;
pub mod placement;
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

pub use compact::{compact_module, CompactStats};
pub use integrated::allocate_module_integrated;
pub use placement::{BaselineAnalysis, Placement};
pub use postpass::{postpass_promote, FnPromotion, PostpassConfig};
pub use slots::{CallSite, SlotAnalysis};
pub use variant::{place, promote_allocated, Variant};
