//! The experimental variable of the paper: which allocation strategy
//! runs. [`place`] is the one dispatch from a [`Variant`] to the CCM
//! method that implements it, as a [`Placement`] of the baseline
//! allocation's spill slots over its shared [`BaselineAnalysis`]; the
//! harness's memo and the fuzz oracle derive every configuration this
//! way and build a module only to check, simulate, compact or mutate
//! it. [`promote_allocated`] places and rewrites in one call.

use iloc::Module;

use crate::placement::{BaselineAnalysis, Placement};

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

/// Where `variant` at `ccm_size` puts the spill slots of `m`, a module
/// that holds the baseline Chaitin-Briggs allocation, by `m`'s
/// `analysis`. [`Variant::Baseline`] moves nothing.
///
/// No CCM method changes the register assignment: the post-pass
/// allocator runs after a conventional allocation (§3.1), and the
/// integrated allocator's CCM edges decide only where a spilled value
/// lands, never which values spill (§3.2; see [`crate::integrated`]).
/// So one baseline allocation and one analysis of it serve every
/// variant and CCM size.
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
/// baseline Chaitin-Briggs allocation, in place: [`place`] over a fresh
/// [`BaselineAnalysis`], then [`Placement::apply_to`]. Returns the
/// placement it applied, whose [`Placement::functions`] and
/// [`Placement::degradations`] report per-function counts and fallbacks.
/// A no-op for [`Variant::Baseline`].
pub fn promote_allocated(m: &mut Module, variant: Variant, ccm_size: u32) -> Placement {
    if variant == Variant::Baseline {
        return Placement::default();
    }
    let placement = place(m, &BaselineAnalysis::compute(m), variant, ccm_size);
    placement.apply_to(m);
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{allocate_module_integrated, compact_module, postpass_promote, PostpassConfig};
    use iloc::builder::FuncBuilder;
    use iloc::RegClass;
    use regalloc::AllocConfig;

    /// The in-place entry points kept for the `perfbench` replay build
    /// exactly the module of their placement: each post-pass flag value
    /// its own variant, the integrated allocator its placement after the
    /// same Chaitin-Briggs allocation, and compaction the baseline's
    /// compacted placement. `main` keeps spilled values live across a
    /// call to a spilling `leaf`, so the two post-pass variants differ.
    #[test]
    fn perfbench_entry_points_match_their_placements() {
        let wide = |name: &str, call: bool| {
            let mut fb = FuncBuilder::new(name);
            fb.set_ret_classes(&[RegClass::Gpr]);
            let vals: Vec<_> = (0..10).map(|i| fb.loadi(i)).collect();
            let mut acc = if call {
                fb.call("leaf", &[], &[RegClass::Gpr])[0]
            } else {
                fb.loadi(0)
            };
            for v in vals {
                acc = fb.add(acc, v);
            }
            fb.ret(&[acc]);
            fb.finish()
        };
        let mut m = Module::new();
        m.push_function(wide("leaf", false));
        m.push_function(wide("main", true));
        let cfg = AllocConfig::tiny(3);
        let mut base = m.clone();
        let alloc = regalloc::allocate_module(&mut base, &cfg);
        assert!(alloc.total_spilled() > 0, "setup must spill");
        let analysis = BaselineAnalysis::compute(&base);
        let placed = |v| place(&base, &analysis, v, 512);
        assert_ne!(
            placed(Variant::PostPass),
            placed(Variant::PostPassCallGraph),
            "setup: the call graph must change the placement"
        );

        for (interprocedural, v) in [
            (false, Variant::PostPass),
            (true, Variant::PostPassCallGraph),
        ] {
            let mut got = base.clone();
            let cfg = PostpassConfig {
                ccm_size: 512,
                interprocedural,
            };
            let functions = postpass_promote(&mut got, &cfg);
            let want = placed(v);
            assert_eq!(got, want.apply(&base), "{v:?}");
            assert_eq!(functions, want.functions(), "{v:?}");
        }

        let mut got = m;
        let (stats, placement, degraded) = allocate_module_integrated(&mut got, &cfg, 512);
        let want = placed(Variant::Integrated);
        assert_eq!(stats, alloc);
        assert_eq!(got, want.apply(&base));
        assert_eq!(placement, want);
        assert_eq!(placement.functions(), want.functions());
        assert_eq!(degraded, want.degradations());

        let mut got = base.clone();
        let stats = compact_module(&mut got);
        let (want, want_stats) = Placement::default().compacted(&base, &analysis);
        assert_eq!(got, want.apply(&base));
        assert_eq!(stats, want_stats);
    }
}
