#![warn(missing_docs)]
//! Differential fuzzing for the CCM allocation pipeline.
//!
//! The paper's transformations (spill-slot renaming, slot coloring into
//! the CCM, integrated CCM-aware spilling) must preserve program
//! behavior for *any* input, not just the hand-written kernel suite.
//! This crate closes that gap with three pieces:
//!
//! * [`gen::gen_module`] — a seeded random ILOC generator (arbitrary
//!   CFGs, calls, high register pressure, f64/i32 globals);
//! * [`oracle::run_oracle`] — a differential oracle running every
//!   module through all allocation variants at several CCM sizes,
//!   asserting bit-identical results, a clean checker, and
//!   `cycles <= baseline`;
//! * [`min::minimize`] — a shrinker that reduces failures to minimal
//!   reproducers printable as parseable ILOC (checked into
//!   `tests/corpus/` as permanent regression tests).
//!
//! [`campaign`] fans cases out through [`exec::par_map`] with per-case
//! seeds derived by [`case_seed`], so case *i* is byte-identical at any
//! `--jobs` count; `repro --fuzz N [--seed S]` is a thin CLI wrapper
//! around [`campaign_report`].

pub mod gen;
pub mod min;
pub mod oracle;

pub use gen::gen_module;
pub use min::minimize;
pub use oracle::{
    apply_mutation, run_oracle, CaseStats, Failure, FailureKind, Mutation, OracleConfig, Variant,
};

use iloc::Module;

/// Derives the seed for case `index` of a campaign from the base seed.
/// SplitMix64-style finalization: consecutive indices map to unrelated
/// seeds, and case `i` depends only on `(base, i)` — never on job count
/// or scheduling.
pub fn case_seed(base: u64, index: usize) -> u64 {
    let mut z = base.wrapping_add(
        (index as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The outcome of one fuzz case.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Campaign-relative index.
    pub index: usize,
    /// The derived generator seed.
    pub seed: u64,
    /// Oracle verdict; failures carry the minimized reproducer.
    pub outcome: Result<CaseStats, Box<MinimizedFailure>>,
}

/// A failing case after minimization.
#[derive(Clone, Debug)]
pub struct MinimizedFailure {
    /// The (post-minimization) oracle failure.
    pub failure: Failure,
    /// The minimized module.
    pub module: Module,
}

/// Runs `n` generated cases through the oracle on `jobs` workers,
/// minimizing any failures. Case `i` uses `case_seed(seed, i)` and its
/// result is independent of `jobs`.
pub fn campaign(n: usize, seed: u64, jobs: usize, cfg: &OracleConfig) -> Vec<CaseResult> {
    let indices: Vec<usize> = (0..n).collect();
    exec::par_map_contained(
        jobs,
        &indices,
        |i| format!("fuzz case {i} (seed {:#x})", case_seed(seed, *i)),
        |&i| {
            let s = case_seed(seed, i);
            let m = gen::gen_module(s);
            let outcome = match oracle::run_oracle(&m, cfg) {
                Ok(stats) => Ok(stats),
                Err(first) => {
                    // minimize re-runs the oracle; keep the original
                    // failure if it somehow cannot reproduce it.
                    let (module, failure) = min::minimize(&m, cfg).unwrap_or((m, first));
                    Err(Box::new(MinimizedFailure { failure, module }))
                }
            };
            CaseResult {
                index: i,
                seed: s,
                outcome,
            }
        },
    )
    .into_iter()
    .enumerate()
    .map(|(i, r)| {
        // Containment: a panic outside the oracle's own catch (generator
        // or minimizer bug, or an injected worker panic) poisons only
        // its case. The campaign keeps running and the case is reported
        // with the captured payload.
        r.unwrap_or_else(|e| CaseResult {
            index: i,
            seed: case_seed(seed, i),
            outcome: Err(Box::new(MinimizedFailure {
                failure: Failure {
                    kind: FailureKind::Panicked,
                    variant: Variant::Baseline,
                    ccm: 0,
                    detail: format!("worker panic: {}", e.message),
                },
                module: Module::new(),
            })),
        })
    })
    .collect()
}

/// A rendered campaign: the text for stdout plus the failure count.
pub struct CampaignReport {
    /// Human-readable report (deterministic for a given `(n, seed)`).
    pub text: String,
    /// Number of failing cases.
    pub failures: usize,
}

/// Runs a campaign and renders the deterministic report `repro --fuzz`
/// prints. Failures include the minimized reproducer as parseable ILOC.
pub fn campaign_report(n: usize, seed: u64, jobs: usize, cfg: &OracleConfig) -> CampaignReport {
    use std::fmt::Write;

    let results = campaign(n, seed, jobs, cfg);
    let mut text = String::new();
    let mut spilling = 0usize;
    let mut ccm_active = 0usize;
    let mut instrs = 0usize;
    let mut failures = 0usize;
    for r in &results {
        match &r.outcome {
            Ok(st) => {
                instrs += st.instrs;
                spilling += usize::from(st.spilled_ranges > 0);
                ccm_active += usize::from(st.ccm_ops > 0);
            }
            Err(_) => failures += 1,
        }
    }
    let _ = writeln!(text, "fuzz: {n} cases, seed {seed}: {failures} failure(s)");
    let _ = writeln!(
        text,
        "  baseline spills: {spilling}/{n} cases; ccm traffic: {ccm_active}/{n} cases; {instrs} instrs generated"
    );
    for r in &results {
        let Err(mf) = &r.outcome else { continue };
        let f = &mf.failure;
        let _ = writeln!(
            text,
            "\ncase {} (seed {:#x}): {} in {} at ccm {}\n  {}",
            r.index,
            r.seed,
            f.kind.label(),
            f.variant.label(),
            f.ccm,
            f.detail
        );
        let _ = writeln!(
            text,
            "minimized reproducer ({} function(s), {} ops):\n{}",
            mf.module.functions.len(),
            mf.module.instr_count(),
            mf.module
        );
    }
    CampaignReport { text, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_spread_out() {
        let a = case_seed(1, 0);
        let b = case_seed(1, 1);
        let c = case_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, case_seed(1, 0));
    }

    #[test]
    fn campaign_is_job_count_invariant() {
        let cfg = OracleConfig {
            ccm_sizes: vec![256],
            ..OracleConfig::default()
        };
        let r1 = campaign_report(8, 1, 1, &cfg);
        let r4 = campaign_report(8, 1, 4, &cfg);
        assert_eq!(r1.text, r4.text, "jobs=1 vs jobs=4 diverged");
        assert_eq!(r1.failures, 0, "honest pipeline must pass:\n{}", r1.text);
    }

    #[test]
    fn mutated_campaign_reports_and_minimizes() {
        // One CCM size and one non-baseline variant keep the per-case
        // minimization cost down; the campaign is deterministic, so two
        // cases are enough to cover multi-failure rendering.
        let cfg = OracleConfig {
            ccm_sizes: vec![64],
            variants: vec![Variant::PostPass],
            mutation: Some(Mutation::SkipSpillStore),
            alloc: regalloc::AllocConfig::tiny(3),
        };
        let rep = campaign_report(2, 1, 2, &cfg);
        assert!(
            rep.failures > 0,
            "no case spilled under tiny(3)?\n{}",
            rep.text
        );
        assert!(
            rep.text.contains("minimized reproducer"),
            "report must embed reproducers:\n{}",
            rep.text
        );
    }
}
