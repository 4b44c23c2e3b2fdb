//! The experimental variable of the paper: which allocation strategy
//! runs. [`allocate_variant`] is the one dispatch from a [`Variant`] to
//! the allocator calls that implement it; the harness experiments, the
//! drivers and the fuzz oracle all go through it. Its second half,
//! [`promote_allocated`], lets a caller that already holds the baseline
//! allocation derive every variant from it without allocating again.

use iloc::Module;
use regalloc::AllocConfig;

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

/// Derives `variant` at `ccm_size` from a module that already holds the
/// baseline Chaitin-Briggs allocation, returning the per-function
/// degradation events. A no-op for [`Variant::Baseline`].
///
/// No CCM method changes the register assignment: the post-pass
/// allocator runs after a conventional allocation (§3.1), and the
/// integrated allocator's CCM edges decide only where a spilled value
/// lands, never which values spill (§3.2; see [`integrated_promote`]).
/// So one baseline allocation serves every variant and CCM size: cloning
/// it and promoting gives exactly what [`allocate_variant`] gives.
///
/// [`integrated_promote`]: crate::integrated_promote
pub fn promote_allocated(m: &mut Module, variant: Variant, ccm_size: u32) -> Vec<Degradation> {
    let interprocedural = match variant {
        Variant::Baseline => return Vec::new(),
        Variant::PostPass => false,
        Variant::PostPassCallGraph => true,
        Variant::Integrated => return crate::integrated_promote(m, ccm_size).1,
    };
    crate::postpass_promote(
        m,
        &crate::PostpassConfig {
            ccm_size,
            interprocedural,
        },
    )
    .into_iter()
    .filter_map(|p| {
        p.degraded.map(|reason| Degradation {
            function: p.name,
            reason,
        })
    })
    .collect()
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
