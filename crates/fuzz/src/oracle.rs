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
//! Each configuration is derived as a [`Placement`] of the one baseline
//! allocation's spill slots ([`ccm::place`], over one shared
//! [`BaselineAnalysis`]), and each distinct (placement, CCM key) is
//! built, checked and simulated once. Two placements of one baseline
//! are equal exactly when they build equal modules, and the CCM key
//! ([`Placement::ccm_key`]) is the CCM size only when the module would
//! [`uses_ccm`](Module::uses_ccm): a module that does not behaves the
//! same at every size. Most derivations move no slot at all (most
//! generated modules do not spill) and reuse the baseline's run without
//! building, copying or comparing a module.
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

use ccm::{BaselineAnalysis, Placement, Variant};
use iloc::{Module, Op, SpillKind};
use regalloc::AllocConfig;
use sim::MachineConfig;

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
/// the reference), an optional injected bug, the register supply and
/// the simulator's step budget.
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
    /// Instruction steps each simulation may take before it traps
    /// (`repro --sim-budget`).
    pub max_steps: u64,
}

impl OracleConfig {
    /// The (variant, CCM size) configurations one case covers: the
    /// baseline and each other variant at every CCM size.
    pub(crate) fn configurations(&self) -> usize {
        let others = self
            .variants
            .iter()
            .filter(|&&v| v != Variant::Baseline)
            .count();
        self.ccm_sizes.len() * (1 + others)
    }
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            ccm_sizes: vec![64, 256, 1024],
            variants: Variant::ALL.to_vec(),
            mutation: None,
            alloc: AllocConfig::default(),
            max_steps: sim::DEFAULT_MAX_STEPS,
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
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CaseStats {
    /// Instructions in the generated module (pre-allocation).
    pub instrs: usize,
    /// Live ranges the baseline allocation spilled.
    pub spilled_ranges: usize,
    /// CCM operations executed across all non-baseline (variant, CCM
    /// size) configurations, reused runs included.
    pub ccm_ops: u64,
    /// Baseline cycles at the first CCM size.
    pub base_cycles: u64,
    /// Check+sim pairs actually executed: one per distinct (placement,
    /// CCM key) and one per mutated module, at most one per (variant,
    /// CCM size).
    pub runs: usize,
}

#[derive(Clone)]
struct VariantRun {
    ints: Vec<i64>,
    float_bits: Vec<u64>,
    cycles: u64,
    ccm_ops: u64,
}

fn panicked(variant: Variant, ccm: u32, payload: &(dyn std::any::Any + Send)) -> Failure {
    Failure {
        kind: FailureKind::Panicked,
        variant,
        ccm,
        detail: exec::render_payload(payload),
    }
}

/// Checks and simulates one allocated configuration.
fn check_and_run(
    mm: &Module,
    variant: Variant,
    ccm: u32,
    cfg: &OracleConfig,
) -> Result<VariantRun, Failure> {
    let fail = |kind, detail| Failure {
        kind,
        variant,
        ccm,
        detail,
    };
    let diags = checker::check_module(mm, &checker::CheckerConfig::with_alloc(ccm, cfg.alloc));
    if let Some(detail) = checker::error_summary(&diags) {
        return Err(fail(FailureKind::CheckerRejected, detail));
    }
    let machine = MachineConfig {
        max_steps: cfg.max_steps,
        ..MachineConfig::with_ccm(ccm)
    };
    match sim::run_module(mm, machine, "main") {
        Ok((vals, metrics)) => Ok(VariantRun {
            ints: vals.ints,
            float_bits: vals.floats.iter().map(|f| f.to_bits()).collect(),
            cycles: metrics.cycles,
            ccm_ops: metrics.ccm_ops,
        }),
        Err(e) => Err(fail(FailureKind::Trap, e.to_string())),
    }
}

/// The runs of one case that passed, each kept under its (placement,
/// CCM key) of the one baseline allocation: the first run of a key
/// serves every later configuration with that key. Failures are not
/// kept: the oracle stops at the first.
type Runs = Vec<((Placement, Option<u32>), VariantRun)>;

/// [`check_and_run`] on `placement`'s module, unless a run is stored in
/// `runs` under the same (placement, CCM key). The module is built only
/// then, and a placement that moves no slot runs `allocated` itself.
fn placed_check_and_run(
    runs: &mut Runs,
    allocated: &Module,
    base_uses_ccm: bool,
    placement: Placement,
    variant: Variant,
    ccm: u32,
    cfg: &OracleConfig,
) -> Result<VariantRun, Failure> {
    let ccm_key = placement.ccm_key(base_uses_ccm, ccm);
    let key = (placement, ccm_key);
    if let Some((_, r)) = runs.iter().find(|(k, _)| *k == key) {
        return Ok(r.clone());
    }
    let r = if key.0.is_identity() {
        check_and_run(allocated, variant, ccm, cfg)?
    } else {
        check_and_run(&key.0.apply(allocated), variant, ccm, cfg)?
    };
    runs.push((key, r.clone()));
    Ok(r)
}

/// Compares variant `v`'s run at `ccm` with the baseline's: bit-identical
/// return values and no more cycles.
fn compare(base: &VariantRun, r: &VariantRun, v: Variant, ccm: u32) -> Result<(), Failure> {
    if r.ints != base.ints || r.float_bits != base.float_bits {
        return Err(Failure {
            kind: FailureKind::ChecksumMismatch,
            variant: v,
            ccm,
            detail: format!(
                "baseline ints {:?} floats {:x?}, {} ints {:?} floats {:x?}",
                base.ints,
                base.float_bits,
                v.short(),
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
    Ok(())
}

/// Allocates `m` with the baseline Chaitin-Briggs allocator and returns
/// the allocated module and its spilled live-range count. A panic is
/// reported as a baseline failure at `ccm`.
fn allocate_baseline(m: &Module, ccm: u32, cfg: &OracleConfig) -> Result<(Module, usize), Failure> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut mm = m.clone();
        let spilled = regalloc::allocate_module(&mut mm, &cfg.alloc).total_spilled();
        (mm, spilled)
    }))
    .map_err(|p| panicked(Variant::Baseline, ccm, p.as_ref()))
}

/// Runs the full differential oracle on one module.
///
/// The baseline Chaitin-Briggs allocation is computed once per module
/// and serves every CCM size: it is the baseline at each size, and each
/// CCM variant is a [`Placement`] of its spill slots ([`ccm::place`]),
/// over one [`BaselineAnalysis`] computed at the first derivation.
/// Every (variant, CCM size) is still placed and compared with the
/// baseline, but each distinct (placement, CCM key) is built, checked
/// and simulated once (see [`CaseStats::runs`]); a placement that moves
/// no slot is the baseline and reuses its run. A configured
/// [`Mutation`] is applied to every derived module it can break, and
/// such a module is checked and simulated on its own, never under its
/// unmutated placement's key.
///
/// # Errors
///
/// Returns the first [`Failure`] in deterministic (CCM size, variant)
/// order. A panic in the baseline allocation is reported at the first
/// CCM size, one in the analysis or a placement at the configuration
/// that needed it.
pub fn run_oracle(m: &Module, cfg: &OracleConfig) -> Result<CaseStats, Failure> {
    let mut stats = CaseStats {
        instrs: m.instr_count(),
        ..CaseStats::default()
    };
    let Some(&first_ccm) = cfg.ccm_sizes.first() else {
        return Ok(stats);
    };
    let (allocated, spilled) = allocate_baseline(m, first_ccm, cfg)?;
    stats.spilled_ranges = spilled;
    let base_uses_ccm = allocated.uses_ccm();
    let mut analysis = None;
    let mut runs = Runs::new();
    for (i, &ccm) in cfg.ccm_sizes.iter().enumerate() {
        let base = placed_check_and_run(
            &mut runs,
            &allocated,
            base_uses_ccm,
            Placement::default(),
            Variant::Baseline,
            ccm,
            cfg,
        )?;
        if i == 0 {
            stats.base_cycles = base.cycles;
        }
        for &v in &cfg.variants {
            if v == Variant::Baseline {
                continue;
            }
            let (placement, mutated) = catch_unwind(AssertUnwindSafe(|| {
                let analysis =
                    analysis.get_or_insert_with(|| BaselineAnalysis::compute(&allocated));
                let placement = ccm::place(&allocated, analysis, v, ccm);
                let mutated = cfg.mutation.and_then(|mu| {
                    let mut mm = placement.apply(&allocated);
                    apply_mutation(&mut mm, mu).then_some(mm)
                });
                (placement, mutated)
            }))
            .map_err(|p| panicked(v, ccm, p.as_ref()))?;
            let r = match mutated {
                Some(mm) => {
                    stats.runs += 1;
                    check_and_run(&mm, v, ccm, cfg)?
                }
                None => placed_check_and_run(
                    &mut runs,
                    &allocated,
                    base_uses_ccm,
                    placement,
                    v,
                    ccm,
                    cfg,
                )?,
            };
            stats.ccm_ops += r.ccm_ops;
            compare(&base, &r, v, ccm)?;
        }
    }
    stats.runs += runs.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_seed;
    use crate::gen::gen_module;

    /// Derives `variant` at `ccm` from `allocated`, the baseline
    /// allocation, by promoting a copy, and applies `mutation`.
    fn derive_variant(
        allocated: &Module,
        variant: Variant,
        ccm: u32,
        mutation: Option<Mutation>,
    ) -> Result<Module, Failure> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut mm = allocated.clone();
            ccm::promote_allocated(&mut mm, variant, ccm);
            if let Some(mu) = mutation {
                apply_mutation(&mut mm, mu);
            }
            mm
        }))
        .map_err(|p| panicked(variant, ccm, p.as_ref()))
    }

    /// The oracle without the memo: derives every (variant, CCM size)
    /// configuration as a promoted copy, checks and simulates it.
    fn reference_oracle(m: &Module, cfg: &OracleConfig) -> Result<CaseStats, Failure> {
        let mut stats = CaseStats {
            instrs: m.instr_count(),
            ..CaseStats::default()
        };
        let Some(&first_ccm) = cfg.ccm_sizes.first() else {
            return Ok(stats);
        };
        let (allocated, spilled) = allocate_baseline(m, first_ccm, cfg)?;
        stats.spilled_ranges = spilled;
        for (i, &ccm) in cfg.ccm_sizes.iter().enumerate() {
            let base = check_and_run(&allocated, Variant::Baseline, ccm, cfg)?;
            stats.runs += 1;
            if i == 0 {
                stats.base_cycles = base.cycles;
            }
            for &v in &cfg.variants {
                if v == Variant::Baseline {
                    continue;
                }
                let mm = derive_variant(&allocated, v, ccm, cfg.mutation)?;
                let r = check_and_run(&mm, v, ccm, cfg)?;
                stats.runs += 1;
                stats.ccm_ops += r.ccm_ops;
                compare(&base, &r, v, ccm)?;
            }
        }
        Ok(stats)
    }

    /// Asserts that [`run_oracle`] and [`reference_oracle`] agree on `m`
    /// and returns how many check+sim runs the memo saved.
    fn assert_oracles_agree(m: &Module, cfg: &OracleConfig, ctx: &str) -> usize {
        match (run_oracle(m, cfg), reference_oracle(m, cfg)) {
            (Ok(got), Ok(want)) => {
                assert!(got.runs <= want.runs, "{ctx}: {} runs", got.runs);
                assert_eq!(
                    CaseStats {
                        runs: want.runs,
                        ..got
                    },
                    want,
                    "{ctx}"
                );
                want.runs - got.runs
            }
            (Err(got), Err(want)) => {
                let fields = |f: Failure| (f.kind, f.variant, f.ccm, f.detail);
                assert_eq!(fields(got), fields(want), "{ctx}");
                0
            }
            (got, want) => panic!("{ctx}: memo {got:?}, reference {want:?}"),
        }
    }

    #[test]
    fn memo_matches_the_reference_oracle() {
        let mutations = [
            None,
            Some(Mutation::SkipSpillStore),
            Some(Mutation::BumpCcmOffset),
            Some(Mutation::OverlapSlots),
        ];
        let mut cfgs = Vec::new();
        for alloc in [
            AllocConfig::default(),
            AllocConfig::tiny(3),
            AllocConfig::tiny(5),
        ] {
            for mutation in mutations {
                cfgs.push(OracleConfig {
                    alloc,
                    mutation,
                    ..OracleConfig::default()
                });
            }
            // A 10-step budget traps the first simulation: the Trap path.
            cfgs.push(OracleConfig {
                alloc,
                max_steps: 10,
                ..OracleConfig::default()
            });
        }
        let mut saved = 0;
        for cfg in &cfgs {
            for i in 0..64 {
                let m = gen_module(case_seed(1, i));
                let ctx = format!(
                    "case {i} under {:?}",
                    (cfg.alloc, cfg.mutation, cfg.max_steps)
                );
                saved += assert_oracles_agree(&m, cfg, &ctx);
            }
        }
        assert!(saved > 0, "the memo never reused a run");

        // In the cases above a CCM-using module that recurs at another
        // CCM size gets the same verdict there, so they cannot show that
        // the key needs the size. An input whose own code touches the CCM
        // can: it passes at 1024 bytes and fails the bounds check at 32.
        let ccm_input = iloc::parse_module(
            "func main() rets gpr locals 0 {\n    slot 0: gpr @ 56 ccm\nentry:\n    \
             loadI 7 => %r64\n    spill %r64 => ccm[56] !store(0)\n    \
             restore ccm[56] => %r65 !restore(0)\n    ret %r65\n}\n",
        )
        .expect("parses");
        // Only the baseline runs: the CCM variants expect a baseline
        // allocation without CCM slots.
        let cfg = OracleConfig {
            ccm_sizes: vec![1024, 32],
            variants: Vec::new(),
            ..OracleConfig::default()
        };
        assert_oracles_agree(&ccm_input, &cfg, "CCM-using input");
        let f = run_oracle(&ccm_input, &cfg).expect_err("ccm[56] is out of bounds at 32 bytes");
        assert_eq!(
            (f.kind, f.variant, f.ccm),
            (FailureKind::CheckerRejected, Variant::Baseline, 32)
        );
    }

    /// The key the oracle's and the harness's memos use instead of
    /// comparing modules: two placements of one baseline allocation are
    /// equal exactly when [`Placement::apply`] builds equal modules, the
    /// identity exactly when that module is the baseline, and the CCM key
    /// names the size exactly when the built module uses the CCM. A
    /// spill-free case places every configuration as the identity.
    #[test]
    fn placements_are_equal_exactly_when_their_modules_are() {
        let sizes = OracleConfig::default().ccm_sizes;
        let (mut spill_free, mut moved) = (0, 0);
        for alloc in [
            AllocConfig::default(),
            AllocConfig::tiny(3),
            AllocConfig::tiny(5),
        ] {
            for i in 0..64 {
                let mut allocated = gen_module(case_seed(1, i));
                let spilled = regalloc::allocate_module(&mut allocated, &alloc).total_spilled();
                let analysis = BaselineAnalysis::compute(&allocated);
                let uses_ccm = allocated.uses_ccm();
                let mut derived = Vec::new();
                for &ccm in &sizes {
                    for v in Variant::ALL {
                        let p = ccm::place(&allocated, &analysis, v, ccm);
                        let m = p.apply(&allocated);
                        let ctx = format!("case {i} under {alloc:?}: {v:?} @ {ccm} B");
                        assert_eq!(p.is_identity(), m == allocated, "{ctx}: identity");
                        assert_eq!(
                            p.ccm_key(uses_ccm, ccm),
                            m.uses_ccm().then_some(ccm),
                            "{ctx}: CCM key"
                        );
                        if spilled == 0 {
                            assert!(p.is_identity(), "{ctx}: a spill-free case moved a slot");
                        }
                        moved += usize::from(!p.is_identity());
                        derived.push((ctx, p, m));
                    }
                }
                spill_free += usize::from(spilled == 0);
                for (ctx, p, m) in &derived {
                    for (other, q, n) in &derived {
                        assert_eq!(p == q, m == n, "{ctx} against {other}");
                    }
                }
            }
        }
        assert!(spill_free > 0, "no case was spill-free");
        assert!(moved > 0, "no placement moved a slot");
    }

    #[test]
    fn runs_count_distinct_modules() {
        let cfg = OracleConfig::default();
        let configs = cfg.configurations();
        let mut non_spilling = 0;
        for i in 0..64 {
            let st = run_oracle(&gen_module(case_seed(1, i)), &cfg).expect("honest case");
            assert!(
                (1..=configs).contains(&st.runs),
                "case {i}: {} runs",
                st.runs
            );
            if st.spilled_ranges == 0 {
                non_spilling += 1;
                assert_eq!(st.runs, 1, "non-spilling case {i} ran more than once");
            }
        }
        assert!(non_spilling > 0, "no case of 64 was spill-free");
    }

    #[test]
    fn honest_pipeline_passes() {
        let cfg = OracleConfig::default();
        for seed in 0..12 {
            let m = gen_module(seed);
            if let Err(f) = run_oracle(&m, &cfg) {
                panic!(
                    "seed {seed} failed honestly: {:?} {} at ccm {}: {}",
                    f.kind,
                    f.variant.short(),
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
            ccm::allocate_variant(&mut probe, Variant::PostPassCallGraph, 64, &broken.alloc);
            let applies = apply_mutation(&mut probe, mu);
            let verdict = run_oracle(&m, &broken);
            if applies {
                assert!(verdict.is_err(), "{mu:?} not caught on seed {seed}");
            }
        }
    }
}
