//! The experimental variable of the paper: which allocation strategy
//! runs. [`allocate_variant`] is the one dispatch from a [`Variant`] to
//! the allocator calls that implement it; the harness experiments, the
//! drivers and the fuzz oracle all go through it. Its second half,
//! [`promote_allocated`], lets a caller that already holds the baseline
//! allocation derive the post-pass variants from it without allocating
//! again.

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
/// Every variant but [`Variant::Integrated`] is the baseline
/// Chaitin-Briggs allocation followed by [`promote_allocated`].
pub fn allocate_variant(
    m: &mut Module,
    variant: Variant,
    ccm_size: u32,
    cfg: &AllocConfig,
) -> AllocOutcome {
    if variant == Variant::Integrated {
        let (a, _, degraded) = crate::allocate_module_integrated(m, cfg, ccm_size);
        return AllocOutcome {
            spilled_ranges: a.total_spilled(),
            degraded,
        };
    }
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
/// The post-pass allocator runs after a conventional allocation (§3.1)
/// and leaves its register assignment untouched, so one baseline
/// allocation serves every post-pass variant and CCM size: cloning it
/// and promoting gives exactly what [`allocate_variant`] gives.
///
/// # Panics
///
/// On [`Variant::Integrated`], which replaces the Chaitin-Briggs
/// allocation instead of following it.
pub fn promote_allocated(m: &mut Module, variant: Variant, ccm_size: u32) -> Vec<Degradation> {
    let interprocedural = match variant {
        Variant::Baseline => return Vec::new(),
        Variant::PostPass => false,
        Variant::PostPassCallGraph => true,
        Variant::Integrated => {
            panic!("integrated allocation cannot be derived from a baseline allocation")
        }
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

    #[test]
    #[should_panic(expected = "cannot be derived")]
    fn integrated_is_not_derivable() {
        promote_allocated(&mut Module::new(), Variant::Integrated, 512);
    }
}
