//! Metamorphic property: growing the CCM never makes a CCM variant
//! slower. A promoted spill access costs 1 cycle instead of 2 and a
//! larger CCM has room for more spill slots, so cycles must not rise
//! with the CCM size — per module, not only summed over the suite as the
//! sizing sweep reports it. For the integrated variant this holds
//! because its first-fit placement below a size S is the same at every
//! larger size. Each module is allocated once and every (variant, size)
//! is derived from that allocation.
//!
//! A second property is the key of the fuzz oracle's memo: a module that
//! does not [`uses_ccm`](Module::uses_ccm) checks and simulates the same
//! at every CCM size, so one run serves all sizes.

use ccm::Variant;
use iloc::Module;
use regalloc::AllocConfig;
use sim::MachineConfig;

const SIZES: [u32; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// Sizes at which a CCM-free module must check and simulate identically.
const INVARIANT_SIZES: [u32; 4] = [64, 256, 1024, 4096];

/// Asserts every CCM variant's cycles never rise along [`SIZES`].
/// Returns whether the module spilled.
fn assert_monotone(label: &str, m: &Module) -> bool {
    let mut allocated = m.clone();
    let spilled =
        regalloc::allocate_module(&mut allocated, &AllocConfig::default()).total_spilled();
    for v in [
        Variant::PostPass,
        Variant::PostPassCallGraph,
        Variant::Integrated,
    ] {
        let mut prev: Option<(u32, u64)> = None;
        for size in SIZES {
            let mut mm = allocated.clone();
            ccm::promote_allocated(&mut mm, v, size);
            let (_, metrics) = sim::run_module(&mm, MachineConfig::with_ccm(size), "main")
                .unwrap_or_else(|e| panic!("{label}: {v:?} @ {size} B trapped: {e}"));
            if let Some((prev_size, prev_cycles)) = prev {
                assert!(
                    metrics.cycles <= prev_cycles,
                    "{label}: {v:?} slower with a bigger CCM: {prev_cycles} cycles at \
                     {prev_size} B, {} at {size} B",
                    metrics.cycles
                );
            }
            prev = Some((size, metrics.cycles));
        }
    }
    spilled > 0
}

#[test]
fn ccm_cycles_never_rise_with_ccm_size_on_fuzz_modules() {
    let spilling = (0..128)
        .filter(|&i| {
            let m = fuzz::gen_module(fuzz::case_seed(1, i));
            assert_monotone(&format!("fuzz case {i}"), &m)
        })
        .count();
    assert!(spilling >= 8, "only {spilling}/128 fuzz modules spilled");
}

#[test]
fn ccm_cycles_never_rise_with_ccm_size_on_kernels() {
    for name in ["radf5", "fpppp", "deseco", "jacld", "twldrv"] {
        let k = suite::kernel(name).expect("suite kernel");
        assert!(
            assert_monotone(name, &suite::build_optimized(&k)),
            "{name} must spill"
        );
    }
}

/// The baseline allocation of `m`, which never touches the CCM.
fn baseline(m: &Module) -> Module {
    let mut allocated = m.clone();
    regalloc::allocate_module(&mut allocated, &AllocConfig::default());
    assert!(!allocated.uses_ccm(), "a baseline allocation uses the CCM");
    allocated
}

/// Asserts that checking and simulating `m`, which does not use the CCM,
/// give the same diagnostics, return values (floats bitwise) and full
/// metrics at every size of [`INVARIANT_SIZES`].
fn assert_ccm_size_invariant(label: &str, m: &Module) {
    let observe = |size: u32| {
        let diags = checker::check_module(
            m,
            &checker::CheckerConfig::with_alloc(size, AllocConfig::default()),
        );
        let (vals, metrics) = sim::run_module(m, MachineConfig::with_ccm(size), "main")
            .unwrap_or_else(|e| panic!("{label} @ {size} B trapped: {e}"));
        let floats: Vec<u64> = vals.floats.iter().map(|f| f.to_bits()).collect();
        (diags, vals.ints, floats, metrics)
    };
    let first = observe(INVARIANT_SIZES[0]);
    for size in &INVARIANT_SIZES[1..] {
        assert!(
            observe(*size) == first,
            "{label}: checking or simulating differs at {size} B and {} B",
            INVARIANT_SIZES[0]
        );
    }
}

#[test]
fn ccm_free_modules_are_ccm_size_invariant_on_fuzz_modules() {
    for i in 0..128 {
        let m = fuzz::gen_module(fuzz::case_seed(1, i));
        assert_ccm_size_invariant(&format!("fuzz case {i}"), &baseline(&m));
    }
}

#[test]
fn ccm_free_modules_are_ccm_size_invariant_on_kernels() {
    let kernels = suite::kernels();
    assert_eq!(kernels.len(), 64);
    for k in &kernels {
        assert_ccm_size_invariant(k.name, &baseline(&suite::build_optimized(k)));
    }
}
