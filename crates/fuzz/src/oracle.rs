//! The differential equivalence oracle.
//!
//! [`run_oracle`] pushes one module through every allocation variant at
//! several CCM sizes and checks the three properties the paper's
//! transformations must preserve:
//!
//! 1. **Semantics** — bit-identical return values (integers exactly,
//!    floats by `to_bits`, so a NaN-for-NaN swap still counts as equal)
//!    against the baseline allocation at the same CCM size;
//! 2. **Safety** — zero errors from the post-allocation static checker;
//! 3. **Profitability** — `cycles <= baseline` (the CCM variants may
//!    never slow a program down: promoted spills cost 1 cycle instead
//!    of 2 and no other code changes).
//!
//! Failures carry the variant, CCM size, and a [`FailureKind`] the
//! minimizer uses to preserve "the same bug" while shrinking. Allocator
//! panics are caught and reported as [`FailureKind::Panicked`] rather
//! than tearing down the whole campaign.
//!
//! [`Mutation`] deliberately breaks an allocated module (drop a spill
//! store, bump a CCM offset, overlap two slots). The oracle's own tests
//! — and `repro --fuzz`'s acceptance gate — use mutations to prove the
//! oracle actually catches allocator bugs rather than vacuously passing.

use std::panic::{catch_unwind, AssertUnwindSafe};

use iloc::{Module, Op, SpillKind};
use regalloc::AllocConfig;
use sim::MachineConfig;

/// The allocation strategy under test: the paper's three CCM methods
/// plus the no-CCM baseline. Mirrors the harness pipeline's variant set;
/// redefined here so `fuzz` stays independent of the harness crate (the
/// harness depends on `fuzz` for `repro --fuzz`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Variant {
    /// Conventional Chaitin-Briggs; all spills to main memory.
    Baseline,
    /// Post-pass CCM promotion, no interprocedural information.
    PostPass,
    /// Post-pass CCM promotion with call-graph information.
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

    /// Short name used in fuzz reports.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::PostPass => "postpass",
            Variant::PostPassCallGraph => "postpass+cg",
            Variant::Integrated => "integrated",
        }
    }
}

/// Applies `variant` allocation at `ccm_size` under `cfg`, returning the
/// number of spilled live ranges. Same dispatch as the harness pipeline,
/// with the register supply configurable so tests (and the minimizer)
/// can force spilling on tiny modules.
pub fn allocate(m: &mut Module, variant: Variant, ccm_size: u32, cfg: &AllocConfig) -> usize {
    match variant {
        Variant::Baseline => regalloc::allocate_module(m, cfg).total_spilled(),
        Variant::PostPass => {
            let n = regalloc::allocate_module(m, cfg).total_spilled();
            ccm::postpass_promote(
                m,
                &ccm::PostpassConfig {
                    ccm_size,
                    interprocedural: false,
                },
            );
            n
        }
        Variant::PostPassCallGraph => {
            let n = regalloc::allocate_module(m, cfg).total_spilled();
            ccm::postpass_promote(
                m,
                &ccm::PostpassConfig {
                    ccm_size,
                    interprocedural: true,
                },
            );
            n
        }
        Variant::Integrated => {
            let (a, _, _) = ccm::allocate_module_integrated(m, cfg, ccm_size);
            a.total_spilled()
        }
    }
}

/// A deliberate post-allocation bug, for testing the oracle itself.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// Delete the first spill store: its slot is later restored
    /// undefined.
    SkipSpillStore,
    /// Add 8 to the first CCM access offset: the restore reads the wrong
    /// slot (or past the CCM).
    BumpCcmOffset,
    /// Give the second CCM slot of a function the first one's offset and
    /// retarget its spill code: two live slots now clobber each other.
    OverlapSlots,
}

/// Applies `mu` to an allocated module. Returns false when the module
/// has nothing to mutate (no spill code of the required shape); the
/// oracle then runs unmutated and should pass.
pub fn apply_mutation(m: &mut Module, mu: Mutation) -> bool {
    match mu {
        Mutation::SkipSpillStore => {
            for f in &mut m.functions {
                for b in &mut f.blocks {
                    if let Some(i) = b
                        .instrs
                        .iter()
                        .position(|i| matches!(i.spill, SpillKind::Store(_)))
                    {
                        b.instrs.remove(i);
                        return true;
                    }
                }
            }
            false
        }
        Mutation::BumpCcmOffset => {
            for f in &mut m.functions {
                for b in &mut f.blocks {
                    for i in &mut b.instrs {
                        match &mut i.op {
                            Op::CcmLoad { off, .. } | Op::CcmFLoad { off, .. } => {
                                *off += 8;
                                return true;
                            }
                            _ => {}
                        }
                    }
                }
            }
            false
        }
        Mutation::OverlapSlots => {
            for f in &mut m.functions {
                let ccm_slots: Vec<usize> = (0..f.frame.slots.len())
                    .filter(|&s| f.frame.slots[s].in_ccm)
                    .collect();
                let Some((&a, &b)) = ccm_slots.first().zip(ccm_slots.get(1)) else {
                    continue;
                };
                let target = f.frame.slots[a].offset;
                f.frame.slots[b].offset = target;
                for blk in &mut f.blocks {
                    for i in &mut blk.instrs {
                        let touches_b = matches!(
                            i.spill,
                            SpillKind::Store(s) | SpillKind::Restore(s) if s.index() == b
                        );
                        if !touches_b {
                            continue;
                        }
                        match &mut i.op {
                            Op::CcmLoad { off, .. }
                            | Op::CcmFLoad { off, .. }
                            | Op::CcmStore { off, .. }
                            | Op::CcmFStore { off, .. } => *off = target,
                            _ => {}
                        }
                    }
                }
                return true;
            }
            false
        }
    }
}

/// What the oracle runs: CCM sizes, variants (baseline always runs as
/// the reference), and an optional injected bug.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// CCM capacities to test, each simulated independently.
    pub ccm_sizes: Vec<u32>,
    /// Variants compared against baseline (baseline entries are skipped:
    /// it is always the reference).
    pub variants: Vec<Variant>,
    /// Deliberate post-allocation bug applied to every non-baseline
    /// variant.
    pub mutation: Option<Mutation>,
    /// Register supply for allocation (and the checker). Tests and the
    /// minimizer shrink it so tiny modules still spill.
    pub alloc: AllocConfig,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            ccm_sizes: vec![64, 256, 1024],
            variants: Variant::ALL.to_vec(),
            mutation: None,
            alloc: AllocConfig::default(),
        }
    }
}

/// Why a case failed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// The simulator trapped.
    Trap,
    /// Return values differ from baseline (bitwise).
    ChecksumMismatch,
    /// The post-allocation checker reported errors.
    CheckerRejected,
    /// The variant ran more cycles than baseline.
    Slower,
    /// Allocation or promotion panicked.
    Panicked,
}

impl FailureKind {
    /// Short name used in fuzz reports.
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Trap => "trap",
            FailureKind::ChecksumMismatch => "checksum-mismatch",
            FailureKind::CheckerRejected => "checker-rejected",
            FailureKind::Slower => "slower-than-baseline",
            FailureKind::Panicked => "panic",
        }
    }
}

/// One oracle failure: what went wrong, where, and a human-readable
/// detail line.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The failure class (preserved by the minimizer).
    pub kind: FailureKind,
    /// The variant that misbehaved.
    pub variant: Variant,
    /// The CCM size it misbehaved at.
    pub ccm: u32,
    /// Free-form diagnostic detail.
    pub detail: String,
}

impl Failure {
    /// Whether `other` is "the same bug" for minimization purposes.
    pub fn same_bug(&self, other: &Failure) -> bool {
        self.kind == other.kind && self.variant == other.variant
    }
}

/// Aggregate statistics for a passing case.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseStats {
    /// Instructions in the generated module (pre-allocation).
    pub instrs: usize,
    /// Live ranges the baseline spilled (at the first CCM size).
    pub spilled_ranges: usize,
    /// CCM operations executed across all non-baseline runs.
    pub ccm_ops: u64,
    /// Baseline cycles at the first CCM size.
    pub base_cycles: u64,
}

struct VariantRun {
    ints: Vec<i64>,
    float_bits: Vec<u64>,
    cycles: u64,
    ccm_ops: u64,
    spilled: usize,
}

fn run_variant(
    m: &Module,
    variant: Variant,
    ccm: u32,
    mutation: Option<Mutation>,
    alloc: &AllocConfig,
) -> Result<VariantRun, Failure> {
    let fail = |kind, detail| Failure {
        kind,
        variant,
        ccm,
        detail,
    };
    let allocated = catch_unwind(AssertUnwindSafe(|| {
        let mut mm = m.clone();
        let spilled = allocate(&mut mm, variant, ccm, alloc);
        if let Some(mu) = mutation.filter(|_| variant != Variant::Baseline) {
            apply_mutation(&mut mm, mu);
        }
        (mm, spilled)
    }));
    let (mm, spilled) = match allocated {
        Ok(r) => r,
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            return Err(fail(FailureKind::Panicked, msg));
        }
    };
    let diags = checker::check_module(&mm, &checker::CheckerConfig::with_alloc(ccm, *alloc));
    if checker::has_errors(&diags) {
        let errors = checker::errors(&diags);
        let detail = format!(
            "{} checker error(s); first: {}",
            errors.len(),
            errors.first().map(|d| d.to_string()).unwrap_or_default()
        );
        return Err(fail(FailureKind::CheckerRejected, detail));
    }
    match sim::run_module(&mm, MachineConfig::with_ccm(ccm), "main") {
        Ok((vals, metrics)) => Ok(VariantRun {
            ints: vals.ints,
            float_bits: vals.floats.iter().map(|f| f.to_bits()).collect(),
            cycles: metrics.cycles,
            ccm_ops: metrics.ccm_ops,
            spilled,
        }),
        Err(e) => Err(fail(FailureKind::Trap, e.to_string())),
    }
}

/// Runs the full differential oracle on one module.
///
/// # Errors
///
/// Returns the first [`Failure`] in deterministic (CCM size, variant)
/// order.
pub fn run_oracle(m: &Module, cfg: &OracleConfig) -> Result<CaseStats, Failure> {
    let mut stats = CaseStats {
        instrs: m.instr_count(),
        ..CaseStats::default()
    };
    let mut first = true;
    for &ccm in &cfg.ccm_sizes {
        let base = run_variant(m, Variant::Baseline, ccm, None, &cfg.alloc)?;
        if first {
            stats.spilled_ranges = base.spilled;
            stats.base_cycles = base.cycles;
            first = false;
        }
        for &v in &cfg.variants {
            if v == Variant::Baseline {
                continue;
            }
            let r = run_variant(m, v, ccm, cfg.mutation, &cfg.alloc)?;
            stats.ccm_ops += r.ccm_ops;
            if r.ints != base.ints || r.float_bits != base.float_bits {
                return Err(Failure {
                    kind: FailureKind::ChecksumMismatch,
                    variant: v,
                    ccm,
                    detail: format!(
                        "baseline ints {:?} floats {:x?}, {} ints {:?} floats {:x?}",
                        base.ints,
                        base.float_bits,
                        v.label(),
                        r.ints,
                        r.float_bits
                    ),
                });
            }
            if r.cycles > base.cycles {
                return Err(Failure {
                    kind: FailureKind::Slower,
                    variant: v,
                    ccm,
                    detail: format!("{} cycles vs baseline {}", r.cycles, base.cycles),
                });
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_module;

    #[test]
    fn honest_pipeline_passes() {
        let cfg = OracleConfig::default();
        for seed in 0..12 {
            let m = gen_module(seed);
            if let Err(f) = run_oracle(&m, &cfg) {
                panic!(
                    "seed {seed} failed honestly: {:?} {} at ccm {}: {}",
                    f.kind,
                    f.variant.label(),
                    f.ccm,
                    f.detail
                );
            }
        }
    }

    #[test]
    fn mutations_are_caught_on_spilling_modules() {
        // Find a seed that spills and promotes into the CCM.
        let cfg = OracleConfig::default();
        let seed = (0..64)
            .find(|&s| {
                let m = gen_module(s);
                run_oracle(&m, &cfg)
                    .map(|st| st.ccm_ops > 0)
                    .unwrap_or(false)
            })
            .expect("some seed must exercise the CCM");
        let m = gen_module(seed);
        for mu in [
            Mutation::SkipSpillStore,
            Mutation::BumpCcmOffset,
            Mutation::OverlapSlots,
        ] {
            let broken = OracleConfig {
                mutation: Some(mu),
                ..OracleConfig::default()
            };
            // OverlapSlots needs two CCM slots in one function; the other
            // two always apply on a promoted module. If the mutation
            // could not apply, passing is the correct outcome.
            let mut probe = m.clone();
            allocate(&mut probe, Variant::PostPassCallGraph, 64, &broken.alloc);
            let applies = apply_mutation(&mut probe, mu);
            let verdict = run_oracle(&m, &broken);
            if applies {
                assert!(verdict.is_err(), "{mu:?} not caught on seed {seed}");
            }
        }
    }
}
