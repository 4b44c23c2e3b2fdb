//! Alloc-once equivalence: every configuration derived from one baseline
//! allocation through one shared `ccm::BaselineAnalysis` (`ccm::place`,
//! then `Placement::apply`, as `harness::Run` and the fuzz oracle derive
//! them) is exactly the module of a fresh derivation, which allocates
//! again and analyzes again for each configuration
//! (`regalloc::allocate_module`, then `ccm::promote_allocated`): same
//! code, same spill count, same per-function counts and degradation
//! events. So sharing the allocation and its analysis across variants
//! and CCM sizes changes nothing.

use ccm::{BaselineAnalysis, Variant};
use iloc::Module;
use regalloc::AllocConfig;

/// The seven configurations: the baseline, then the three CCM methods
/// at 512 and 1024 B.
fn configurations() -> impl Iterator<Item = (Variant, u32)> {
    let methods = [
        Variant::PostPass,
        Variant::PostPassCallGraph,
        Variant::Integrated,
    ];
    std::iter::once((Variant::Baseline, 512))
        .chain(methods.into_iter().flat_map(|v| [(v, 512), (v, 1024)]))
}

/// Asserts the shared derivation is exact for every configuration.
/// Returns the number of live ranges the baseline allocation spilled and
/// whether some configuration put a slot in the CCM.
fn assert_derivation_exact(label: &str, m: &Module, cfg: &AllocConfig) -> (usize, bool) {
    let mut baseline = m.clone();
    let spilled = regalloc::allocate_module(&mut baseline, cfg).total_spilled();
    let analysis = BaselineAnalysis::compute(&baseline);
    let mut uses_ccm = false;
    for (v, size) in configurations() {
        let placement = ccm::place(&baseline, &analysis, v, size);
        let derived = placement.apply(&baseline);

        let mut fresh = m.clone();
        let fresh_spilled = regalloc::allocate_module(&mut fresh, cfg).total_spilled();
        let applied = ccm::promote_allocated(&mut fresh, v, size);

        let ctx = format!("{label}: {v:?} @ {size} B");
        assert_eq!(derived.to_string(), fresh.to_string(), "{ctx}: module");
        assert_eq!(fresh_spilled, spilled, "{ctx}: spilled");
        assert_eq!(applied, placement, "{ctx}: slot homes");
        assert_eq!(applied.functions(), placement.functions(), "{ctx}");
        if v == Variant::Baseline {
            assert!(placement.is_identity(), "{ctx}: the baseline moves no slot");
        }
        uses_ccm |= derived.uses_ccm();
    }
    (spilled, uses_ccm)
}

#[test]
fn derived_variants_equal_fresh_on_spilling_kernels() {
    for name in ["radf5", "fpppp", "deseco", "jacld"] {
        let k = suite::kernel(name).expect("suite kernel");
        let m = suite::build_optimized(&k);
        let (spilled, uses_ccm) = assert_derivation_exact(name, &m, &AllocConfig::default());
        assert!(spilled > 0, "{name} must spill");
        assert!(uses_ccm, "{name}: some configuration must use the CCM");
    }
}

#[test]
fn derived_variants_equal_fresh_on_fuzz_modules() {
    let mut spilling = 0;
    for i in 0..24 {
        let m = fuzz::gen_module(fuzz::case_seed(1, i));
        for k in [3, 5] {
            let label = format!("fuzz case {i} under tiny({k})");
            let (spilled, _) = assert_derivation_exact(&label, &m, &AllocConfig::tiny(k));
            spilling += usize::from(spilled > 0);
        }
    }
    assert!(spilling >= 24, "only {spilling}/48 configurations spilled");
}
