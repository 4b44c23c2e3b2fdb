//! The experimental variable of the paper: which allocation strategy
//! runs. [`place`] is the one dispatch from a [`Variant`] to the CCM
//! method that implements it, as a [`Placement`] of the baseline
//! allocation's spill slots over its shared [`BaselineAnalysis`]; the
//! harness's memo and the fuzz oracle derive every configuration this
//! way and build a module only to check, simulate, compact or mutate
//! it. [`promote_allocated`] places and rewrites in one call, and
//! [`allocate_variant`] allocates first.

use iloc::Module;
use regalloc::AllocConfig;

use crate::placement::{BaselineAnalysis, Placement};
use crate::Degradation;

/// The allocation strategy under test — the three CCM methods of the
/// paper plus the no-CCM baseline.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Variant {
    /// Conventional Chaitin-Briggs; all spills to main memory.
    Baseline,
    /// Post-pass CCM allocator, no interprocedural information.
    PostPass,
    /// Post-pass CCM allocator with call-graph information.
    PostPassCallGraph,
    /// CCM spilling integrated into the Chaitin-Briggs allocator.
    Integrated,
}

impl Variant {
    /// All variants, baseline first.
    pub const ALL: [Variant; 4] = [
        Variant::Baseline,
        Variant::PostPass,
        Variant::PostPassCallGraph,
        Variant::Integrated,
    ];

    /// Column label used in the printed tables.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Baseline => "Without CCM",
            Variant::PostPass => "Post-Pass",
            Variant::PostPassCallGraph => "Post-Pass w/ Call Graph",
            Variant::Integrated => "Integrated",
        }
    }

    /// Short name used in error reports, fuzz reports and JSON.
    pub fn short(&self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::PostPass => "postpass",
            Variant::PostPassCallGraph => "postpass+cg",
            Variant::Integrated => "integrated",
        }
    }
}

/// The outcome of [`allocate_variant`]: spill statistics plus any
/// per-function degradation events.
#[derive(Clone, Debug, Default)]
pub struct AllocOutcome {
    /// Live ranges spilled during allocation.
    pub spilled_ranges: usize,
    /// Functions that abandoned CCM allocation and kept conventional
    /// heavyweight spills.
    pub degraded: Vec<Degradation>,
}

/// Applies `variant` allocation with register supply `cfg` and CCM
/// capacity `ccm_size` to an optimized (still virtual-register) module.
///
/// Every variant is the baseline Chaitin-Briggs allocation followed by
/// [`promote_allocated`].
pub fn allocate_variant(
    m: &mut Module,
    variant: Variant,
    ccm_size: u32,
    cfg: &AllocConfig,
) -> AllocOutcome {
    let spilled_ranges = regalloc::allocate_module(m, cfg).total_spilled();
    AllocOutcome {
        spilled_ranges,
        degraded: promote_allocated(m, variant, ccm_size),
    }
}

/// Where `variant` at `ccm_size` puts the spill slots of `m`, a module
/// that holds the baseline Chaitin-Briggs allocation, by `m`'s
/// `analysis`. [`Variant::Baseline`] moves nothing.
///
/// No CCM method changes the register assignment: the post-pass
/// allocator runs after a conventional allocation (§3.1), and the
/// integrated allocator's CCM edges decide only where a spilled value
/// lands, never which values spill (§3.2; see
/// [`integrated_promote`](crate::integrated_promote)). So one baseline
/// allocation and one analysis of it serve every variant and CCM size:
/// [`Placement::apply`] gives exactly what [`allocate_variant`] gives.
pub fn place(
    m: &Module,
    analysis: &BaselineAnalysis,
    variant: Variant,
    ccm_size: u32,
) -> Placement {
    let interprocedural = match variant {
        Variant::Baseline => return Placement::default(),
        Variant::PostPass => false,
        Variant::PostPassCallGraph => true,
        Variant::Integrated => {
            return crate::integrated::integrated_placement(m, analysis, ccm_size)
        }
    };
    let cfg = crate::PostpassConfig {
        ccm_size,
        interprocedural,
    };
    crate::postpass::postpass_placement(m, analysis, &cfg)
}

/// Derives `variant` at `ccm_size` from a module that already holds the
/// baseline Chaitin-Briggs allocation, in place: [`place`], then
/// [`Placement::apply_to`]. Returns the per-function degradation events.
/// A no-op for [`Variant::Baseline`].
pub fn promote_allocated(m: &mut Module, variant: Variant, ccm_size: u32) -> Vec<Degradation> {
    if variant == Variant::Baseline {
        return Vec::new();
    }
    let placement = place(m, &BaselineAnalysis::compute(m), variant, ccm_size);
    placement.apply_to(m);
    placement.degradations()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::RegClass;

    #[test]
    fn integrated_derives_from_the_baseline_allocation() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let vals: Vec<_> = (0..14).map(|i| fb.loadi(i)).collect();
        let mut acc = vals[13];
        for v in vals[..13].iter().rev() {
            acc = fb.add(acc, *v);
        }
        fb.ret(&[acc]);
        let mut m = Module::new();
        m.push_function(fb.finish());
        let cfg = AllocConfig::tiny(4);

        let mut derived = m.clone();
        regalloc::allocate_module(&mut derived, &cfg);
        assert!(promote_allocated(&mut derived, Variant::Integrated, 64).is_empty());
        let mut fresh = m;
        let out = allocate_variant(&mut fresh, Variant::Integrated, 64, &cfg);
        assert!(out.spilled_ranges > 0);
        assert_eq!(derived.to_string(), fresh.to_string());
        assert!(derived.functions[0].frame.slots.iter().any(|s| s.in_ccm));
    }
}
