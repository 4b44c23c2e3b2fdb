//! Alloc-once equivalence: a CCM variant derived from an existing
//! baseline allocation (`ccm::promote_allocated` on a clone) is exactly
//! the module a fresh `ccm::allocate_variant` produces — same code, same
//! spill count, same degradation events. The harness cache and the fuzz
//! oracle allocate each unit once and derive every configuration this
//! way (`ccm::place` and `Placement::apply`, which `promote_allocated`
//! wraps).

use ccm::Variant;
use iloc::Module;
use regalloc::AllocConfig;

/// Asserts the derivation is exact for the three CCM variants at 512
/// and 1024 B, and that deriving `Baseline` changes nothing. Returns the
/// number of live ranges the baseline allocation spilled.
fn assert_derivation_exact(label: &str, m: &Module, cfg: &AllocConfig) -> usize {
    let mut allocated = m.clone();
    let spilled = regalloc::allocate_module(&mut allocated, cfg).total_spilled();
    let mut same = allocated.clone();
    assert!(ccm::promote_allocated(&mut same, Variant::Baseline, 512).is_empty());
    assert_eq!(same.to_string(), allocated.to_string(), "{label}: baseline");
    for v in [
        Variant::PostPass,
        Variant::PostPassCallGraph,
        Variant::Integrated,
    ] {
        for size in [512, 1024] {
            let mut derived = allocated.clone();
            let degraded = ccm::promote_allocated(&mut derived, v, size);
            let mut fresh = m.clone();
            let out = ccm::allocate_variant(&mut fresh, v, size, cfg);
            assert_eq!(
                derived.to_string(),
                fresh.to_string(),
                "{label}: {v:?} @ {size} B module differs"
            );
            assert_eq!(out.spilled_ranges, spilled, "{label}: {v:?} @ {size} B");
            assert_eq!(out.degraded, degraded, "{label}: {v:?} @ {size} B");
        }
    }
    spilled
}

#[test]
fn derived_variants_equal_fresh_on_spilling_kernels() {
    for name in ["radf5", "fpppp", "deseco", "jacld"] {
        let k = suite::kernel(name).expect("suite kernel");
        let m = suite::build_optimized(&k);
        let spilled = assert_derivation_exact(name, &m, &AllocConfig::default());
        assert!(spilled > 0, "{name} must spill");
    }
}

#[test]
fn derived_variants_equal_fresh_on_fuzz_modules() {
    let mut spilling = 0;
    for i in 0..24 {
        let m = fuzz::gen_module(fuzz::case_seed(1, i));
        for k in [3, 5] {
            let label = format!("fuzz case {i} under tiny({k})");
            spilling += usize::from(assert_derivation_exact(&label, &m, &AllocConfig::tiny(k)) > 0);
        }
    }
    assert!(spilling >= 24, "only {spilling}/48 configurations spilled");
}
