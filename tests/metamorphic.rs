//! Metamorphic property: growing the CCM never makes a CCM variant
//! slower. A promoted spill access costs 1 cycle instead of 2 and a
//! larger CCM has room for more spill slots, so cycles must not rise
//! with the CCM size — per module, not only summed over the suite as the
//! sizing sweep reports it. For the integrated variant this holds
//! because its first-fit placement below a size S is the same at every
//! larger size. Each module is allocated once and every (variant, size)
//! is derived from that allocation.

use ccm::Variant;
use iloc::Module;
use regalloc::AllocConfig;
use sim::MachineConfig;

const SIZES: [u32; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

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
