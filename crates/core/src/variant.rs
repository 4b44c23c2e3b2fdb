//! The experimental variable of the paper: which allocation strategy
//! runs. [`allocate_variant`] is the one dispatch from a [`Variant`] to
//! the allocator calls that implement it; the harness experiments, the
//! drivers and the fuzz oracle all go through it.

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
pub fn allocate_variant(
    m: &mut Module,
    variant: Variant,
    ccm_size: u32,
    cfg: &AllocConfig,
) -> AllocOutcome {
    match variant {
        Variant::Baseline => AllocOutcome {
            spilled_ranges: regalloc::allocate_module(m, cfg).total_spilled(),
            degraded: Vec::new(),
        },
        Variant::PostPass | Variant::PostPassCallGraph => {
            let spilled_ranges = regalloc::allocate_module(m, cfg).total_spilled();
            let promos = crate::postpass_promote(
                m,
                &crate::PostpassConfig {
                    ccm_size,
                    interprocedural: variant == Variant::PostPassCallGraph,
                },
            );
            AllocOutcome {
                spilled_ranges,
                degraded: promos
                    .into_iter()
                    .filter_map(|p| {
                        p.degraded.map(|reason| Degradation {
                            function: p.name,
                            reason,
                        })
                    })
                    .collect(),
            }
        }
        Variant::Integrated => {
            let (a, _, degraded) = crate::allocate_module_integrated(m, cfg, ccm_size);
            AllocOutcome {
                spilled_ranges: a.total_spilled(),
                degraded,
            }
        }
    }
}
