//! Full-suite semantic equivalence: for every workload kernel, the
//! observable checksum is bit-identical under every allocation strategy
//! and every CCM size — the master safety property of the reproduction.

use harness::{Measurement, Run, Variant};
use sim::MachineConfig;

/// Measures suite unit `name` through the run's memo, printing the
/// structured error on failure.
fn measure(run: &Run, name: &str, v: Variant, machine: &MachineConfig) -> Measurement {
    run.measure_unit(name, v, machine)
        .unwrap_or_else(|e| panic!("measurement failed: {e}"))
}

/// Every kernel, every variant, 512-byte CCM.
#[test]
fn all_kernels_all_variants_agree_at_512() {
    let run = Run::default();
    let machine = MachineConfig::with_ccm(512);
    for k in suite::kernels() {
        let base = measure(&run, k.name, Variant::Baseline, &machine);
        assert!(base.checksum.is_finite(), "{}: non-finite checksum", k.name);
        for v in [
            Variant::PostPass,
            Variant::PostPassCallGraph,
            Variant::Integrated,
        ] {
            let r = measure(&run, k.name, v, &machine);
            assert_eq!(
                r.checksum.to_bits(),
                base.checksum.to_bits(),
                "{}: {v:?} diverged",
                k.name
            );
            assert!(
                r.cycles <= base.cycles,
                "{}: {v:?} is slower ({} > {})",
                k.name,
                r.cycles,
                base.cycles
            );
        }
    }
}

/// A sample of kernels at other CCM sizes, including sizes small enough
/// to force the heavyweight-spill path.
#[test]
fn kernel_sample_agrees_across_ccm_sizes() {
    let run = Run::default();
    let names = ["fpppp", "radf5", "deseco", "zeroin", "urand", "vslv1xX"];
    for name in names {
        let base = measure(
            &run,
            name,
            Variant::Baseline,
            &MachineConfig::with_ccm(1024),
        );
        for ccm_size in [16, 128, 1024] {
            let machine = MachineConfig::with_ccm(ccm_size);
            for v in [Variant::PostPassCallGraph, Variant::Integrated] {
                let r = measure(&run, name, v, &machine);
                assert_eq!(
                    r.checksum.to_bits(),
                    base.checksum.to_bits(),
                    "{name}: {v:?} diverged at ccm={ccm_size}"
                );
            }
        }
    }
}

/// Whole programs (multi-routine, shared CCM) stay correct under the
/// interprocedural allocator at both paper CCM sizes.
#[test]
fn programs_sample_agrees() {
    let run = Run::default();
    for pname in ["turb3d", "forsythe", "applu", "fftpackX"] {
        let base = measure(
            &run,
            pname,
            Variant::Baseline,
            &MachineConfig::with_ccm(512),
        );
        for ccm_size in [512u32, 1024] {
            let machine = MachineConfig::with_ccm(ccm_size);
            for v in [
                Variant::PostPass,
                Variant::PostPassCallGraph,
                Variant::Integrated,
            ] {
                let r = measure(&run, pname, v, &machine);
                assert_eq!(
                    r.checksum.to_bits(),
                    base.checksum.to_bits(),
                    "{pname}: {v:?} diverged at ccm={ccm_size}"
                );
                assert!(r.cycles <= base.cycles, "{pname}: {v:?} slower");
            }
        }
    }
}

/// The CCM simulator enforces its capacity: promoted code never touches
/// a byte at or beyond the configured size (checked by running with the
/// exact configured size — any overflow would trap).
#[test]
fn promotion_respects_ccm_capacity() {
    let run = Run::default();
    for name in ["fpppp", "twldrv", "jacld"] {
        for ccm_size in [64u32, 512] {
            // measure() panics on any failure, including a trap such as
            // CcmOutOfBounds.
            let machine = MachineConfig::with_ccm(ccm_size);
            let r = measure(&run, name, Variant::PostPassCallGraph, &machine);
            assert!(r.checksum.is_finite());
        }
    }
}
