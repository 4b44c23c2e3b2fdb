#![warn(missing_docs)]
//! The synthetic workload suite.
//!
//! Stand-ins for the paper's 122 Fortran routines: each [`Kernel`]
//! reproduces the code shape of a named routine from the paper's tables
//! (FFTPACK radix passes, NAS LU jacobians, Forsythe's numerical methods,
//! `fpppp`-style straight-line blocks, …), with register pressure spanning
//! "never spills" to "spills heavily". [`programs()`] links kernels into
//! the 13 whole-program inputs of the Figure 3/4 experiments.
//!
//! Everything is seeded and deterministic.

pub mod gen;
pub mod kernels;
pub mod programs;

pub use gen::{checksum_and_ret, f64_global, float_net, i32_global, BuilderExt, Lcg};
pub use kernels::{kernel, kernels, Kernel};
pub use programs::{build_program, build_program_from, program, programs, Program};

use iloc::Module;

/// Builds a kernel's module and runs the standard scalar-optimization
/// pipeline on it, applying the kernel's unroll transformation if it is an
/// `X` variant. This is the "input code" every experiment starts from.
pub fn build_optimized(k: &Kernel) -> Module {
    let mut m = (k.build)();
    m.verify()
        .unwrap_or_else(|e| panic!("kernel {} fails verification before opt: {e}", k.name));
    let opts = opt::OptOptions {
        unroll: k.unroll,
        ..opt::OptOptions::default()
    };
    opt::optimize_module(&mut m, &opts);
    m.verify()
        .unwrap_or_else(|e| panic!("kernel {} fails verification after opt: {e}", k.name));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use regalloc::AllocConfig;

    #[test]
    fn all_kernels_build_and_verify() {
        for k in kernels() {
            let m = (k.build)();
            m.verify()
                .unwrap_or_else(|e| panic!("{} fails: {e}", k.name));
        }
    }

    #[test]
    fn kernel_names_unique() {
        let ks = kernels();
        let mut names: Vec<&str> = ks.iter().map(|k| k.name).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn x_variants_unroll_at_least_one_loop() {
        for k in kernels().into_iter().filter(|k| k.unroll.is_some()) {
            let mut m = (k.build)();
            let factor = k.unroll.unwrap();
            let n: usize = m
                .functions
                .iter_mut()
                .filter(|f| f.name != "main")
                .map(|f| opt::unroll_loops(f, factor))
                .sum();
            assert!(n >= 1, "{} did not unroll", k.name);
        }
    }

    #[test]
    fn optimized_kernels_run_and_match_unoptimized() {
        // Spot-check a representative sample (the full suite is covered by
        // the integration tests; this keeps unit-test time low).
        for name in [
            "radf5", "fpppp", "decomp", "zeroin", "urand", "efill", "radf4X",
        ] {
            let k = kernel(name).unwrap();
            let raw = (k.build)();
            let (v0, _) = sim::run_module(&raw, sim::MachineConfig::default(), "main").unwrap();
            let optd = build_optimized(&k);
            let (v1, m1) = sim::run_module(&optd, sim::MachineConfig::default(), "main").unwrap();
            assert_eq!(v0, v1, "{name}: optimization changed the checksum");
            assert!(m1.instrs > 0);
        }
    }

    #[test]
    fn suite_has_spilling_and_non_spilling_kernels() {
        let cfg = AllocConfig::default();
        let mut spilled = 0;
        let mut clean = 0;
        for name in ["fpppp", "radf5", "jacld", "efill", "getb", "putb"] {
            let k = kernel(name).unwrap();
            let mut m = build_optimized(&k);
            let stats = regalloc::allocate_module(&mut m, &cfg);
            if stats.total_spilled() > 0 {
                spilled += 1;
            } else {
                clean += 1;
            }
        }
        assert!(spilled >= 2, "heavy kernels must spill under 31/32 regs");
        assert!(clean >= 2, "copy kernels must not spill");
    }

    #[test]
    fn programs_reference_existing_kernels() {
        for p in programs() {
            for m in p.members {
                assert!(kernel(m).is_some(), "{}: unknown member {m}", p.name);
            }
        }
        assert_eq!(programs().len(), 13, "the paper evaluates 13 programs");
    }

    #[test]
    fn a_program_links_and_runs() {
        let p = program("pack").unwrap();
        let m = build_program(&p);
        let (v, metrics) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.floats.len(), 1);
        assert!(v.floats[0].is_finite());
        assert!(metrics.calls >= 3);
    }
}
