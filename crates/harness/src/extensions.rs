//! Extension experiments beyond the paper's tables: the CCM sizing curve
//! (§4.1's "how much CCM is necessary?") and the §2.1 multitasking study
//! built on it, ablations of the design choices DESIGN.md calls out —
//! scalar optimization, LICM, coalescing, and the calling convention —
//! and the scheduling study the paper declined to run.
//!
//! Each study sums a row over a grid of cells through [`Run::par_rows`],
//! so a row with a failed cell is dropped, never summed from the cells
//! that succeeded.

use ccm::Variant;
use regalloc::AllocConfig;
use sim::MachineConfig;

use crate::error::{PipelineError, Stage};
use crate::pipeline::{Measurement, Run};

/// One point on the CCM sizing curve.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// CCM capacity in bytes.
    pub ccm_size: u32,
    /// Suite-weighted percent reduction in total cycles (post-pass w/
    /// call graph vs. baseline).
    pub total_pct: f64,
    /// Suite-weighted percent reduction in memory-operation cycles.
    pub mem_pct: f64,
    /// Fraction of spilled live ranges promoted into the CCM.
    pub promoted_fraction: f64,
}

/// Sweeps the CCM size over the spilling kernels, answering the paper's
/// sizing question: most of the benefit arrives by a few hundred bytes.
///
/// A kernel counts at every size or at none: one whose baseline or any
/// size's measurement failed is recorded and left out of the curve,
/// baselines included. With no kernel counted there are no points.
pub fn ccm_sweep(sizes: &[u32], run: &Run) -> Vec<SweepPoint> {
    // Measure the baseline once, in parallel over the (cached) builds.
    let kernels = suite::kernels();
    let machine0 = run.machine(16);
    let baselines = run.par_contained(
        &kernels,
        |k| format!("sweep baseline {}", k.name),
        |k| run.measure_unit(k.name, Variant::Baseline, &machine0),
    );
    let spilling: Vec<(&suite::Kernel, Measurement)> = kernels
        .iter()
        .zip(baselines)
        .filter_map(|(k, b)| b.filter(|b| b.spilled_ranges > 0).map(|b| (k, b)))
        .collect();
    // One row per spilling kernel, one cell per size.
    let rows = run.par_rows(
        &spilling,
        sizes,
        |(k, _), size| format!("sweep {} @ {size} B", k.name),
        |(k, _), size| run.measure_unit(k.name, Variant::PostPassCallGraph, &run.machine(*size)),
    );
    let counted: Vec<(&Measurement, Vec<Measurement>)> = spilling
        .iter()
        .zip(rows)
        .filter_map(|((_, base), cells)| Some((base, cells?)))
        .collect();
    if counted.is_empty() {
        return Vec::new();
    }
    let base_total: u64 = counted.iter().map(|(b, _)| b.cycles).sum();
    let base_mem: u64 = counted.iter().map(|(b, _)| b.mem_cycles).sum();
    sizes
        .iter()
        .enumerate()
        .map(|(si, &size)| {
            let sum = |f: fn(&Measurement) -> u64| -> u64 {
                counted.iter().map(|(_, cells)| f(&cells[si])).sum()
            };
            let promoted = sum(|r| r.metrics.ccm_ops);
            let possible = sum(|r| r.metrics.spill_stores + r.metrics.spill_restores);
            SweepPoint {
                ccm_size: size,
                total_pct: 100.0 * (1.0 - sum(|r| r.cycles) as f64 / base_total.max(1) as f64),
                mem_pct: 100.0 * (1.0 - sum(|r| r.mem_cycles) as f64 / base_mem.max(1) as f64),
                promoted_fraction: promoted as f64 / possible.max(1) as f64,
            }
        })
        .collect()
}

/// One row of a design-choice ablation.
#[derive(Clone, Debug)]
pub struct DesignRow {
    /// Configuration label.
    pub config: String,
    /// Spilled live ranges across the subset.
    pub spilled: usize,
    /// Bytes of main-memory spill space.
    pub spill_bytes: u32,
    /// Total cycles.
    pub cycles: u64,
}

const ABLATION_KERNELS: [&str; 5] = ["fpppp", "radf5", "deseco", "urand", "erhs"];

/// One design-ablation configuration: its row label, the optimizer
/// options, the register supply, and whether the post-pass CCM
/// allocator (plus compaction) runs after allocation.
type DesignConfig = (&'static str, opt::OptOptions, AllocConfig, bool);

/// Builds, optimizes, allocates, checks and simulates one ablation
/// kernel under one configuration. Returns (spilled ranges, spill bytes,
/// cycles).
///
/// # Errors
///
/// A checker rejection (under the configuration's register supply) is a
/// `stage=checker` error, a simulator trap `stage=sim`.
fn run_cell(
    (_, opts, alloc, promote): &DesignConfig,
    name: &'static str,
    run: &Run,
) -> Result<(usize, u32, u64), PipelineError> {
    let k = suite::kernel(name)
        .ok_or_else(|| PipelineError::new(Stage::Parse, name, "unknown suite kernel"))?;
    let mut m = (k.build)();
    let o = opt::OptOptions {
        unroll: k.unroll,
        ..*opts
    };
    opt::optimize_module(&mut m, &o);
    let variant = if *promote {
        Variant::PostPassCallGraph
    } else {
        Variant::Baseline
    };
    let spilled = ccm::allocate_variant(&mut m, variant, 512, alloc).spilled_ranges;
    if *promote {
        // Paper, footnote 3: repack the remaining heavyweight slots
        // so the reported spill space is honest.
        ccm::compact_module(&mut m);
    }
    let diags = checker::check_module(&m, &checker::CheckerConfig::with_alloc(512, *alloc));
    if let Some(detail) = checker::error_summary(&diags) {
        return Err(PipelineError::new(Stage::Checker, name, detail));
    }
    let spill_bytes = m.functions.iter().map(|f| f.frame.spill_bytes()).sum();
    let (_, metrics) = sim::run_module(&m, run.machine(512), "main")
        .map_err(|e| PipelineError::new(Stage::Sim, name, e.to_string()))?;
    Ok((spilled, spill_bytes, metrics.cycles))
}

/// Ablates the design choices: scalar optimization on/off, LICM on/off,
/// coalescing on/off, and caller-saved conventions — each measured by
/// spills produced and cycles executed on a spill-heavy subset.
pub fn design_ablation(run: &Run) -> Vec<DesignRow> {
    let opts = opt::OptOptions::default();
    let alloc = AllocConfig::default();
    let remat = AllocConfig {
        rematerialize: true,
        ..alloc
    };
    let configs: [DesignConfig; 9] = [
        ("baseline (opt, coalesce, no CCM)", opts, alloc, false),
        ("+ CCM post-pass", opts, alloc, true),
        (
            "no scalar optimization",
            opt::OptOptions {
                max_rounds: 0,
                ..opts
            },
            alloc,
            false,
        ),
        (
            "with LICM (more pressure)",
            opt::OptOptions { licm: true, ..opts },
            alloc,
            false,
        ),
        ("with rematerialization", opts, remat, false),
        ("remat + CCM post-pass", opts, remat, true),
        (
            "no coalescing",
            opts,
            AllocConfig {
                coalesce: false,
                ..alloc
            },
            false,
        ),
        (
            "caller-saved = 8",
            opts,
            AllocConfig {
                caller_saved: 8,
                ..alloc
            },
            false,
        ),
        (
            "caller-saved = 16",
            opts,
            AllocConfig {
                caller_saved: 16,
                ..alloc
            },
            false,
        ),
    ];
    let rows = run.par_rows(
        &configs,
        &ABLATION_KERNELS,
        |(label, ..), name| format!("design ablation {name} ({label})"),
        |config, name| {
            run_cell(config, name, run).map_err(|e| PipelineError {
                unit: format!("design ablation `{}` ({})", config.0, e.unit),
                ..e
            })
        },
    );
    configs
        .iter()
        .zip(rows)
        .filter_map(|((label, ..), cells)| {
            let cells = cells?;
            Some(DesignRow {
                config: label.to_string(),
                spilled: cells.iter().map(|c| c.0).sum(),
                spill_bytes: cells.iter().map(|c| c.1).sum(),
                cycles: cells.iter().map(|c| c.2).sum(),
            })
        })
        .collect()
}

/// Renders the sizing sweep.
pub fn render_sweep(points: &[SweepPoint]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "CCM sizing curve (post-pass w/ call graph, spilling kernels)"
    );
    let _ = writeln!(
        s,
        "{:>9} {:>12} {:>12} {:>10}",
        "CCM bytes", "total cyc ↓", "mem cyc ↓", "promoted"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>9} {:>11.1}% {:>11.1}% {:>9.0}%",
            p.ccm_size,
            p.total_pct,
            p.mem_pct,
            100.0 * p.promoted_fraction
        );
    }
    s
}

/// Renders the design ablation.
pub fn render_design(rows: &[DesignRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "Design-choice ablation (five spill-heavy kernels)");
    let _ = writeln!(
        s,
        "{:<36} {:>8} {:>12} {:>12}",
        "configuration", "spills", "spill bytes", "cycles"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<36} {:>8} {:>12} {:>12}",
            r.config, r.spilled, r.spill_bytes, r.cycles
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_monotone_and_saturates() {
        let pts = ccm_sweep(&[32, 128, 512, 2048], &Run::default());
        for w in pts.windows(2) {
            assert!(
                w[1].total_pct >= w[0].total_pct - 1e-9,
                "bigger CCM must not hurt: {:?}",
                pts
            );
            assert!(w[1].promoted_fraction >= w[0].promoted_fraction - 1e-9);
        }
        // The paper's claim: a modest CCM already captures most of the
        // benefit — 512 bytes must capture over half of what 2 KiB does.
        let at_512 = pts.iter().find(|p| p.ccm_size == 512).unwrap();
        let at_2048 = pts.iter().find(|p| p.ccm_size == 2048).unwrap();
        assert!(at_512.total_pct > 0.5 * at_2048.total_pct);
    }

    #[test]
    fn design_ablation_directions() {
        let rows = design_ablation(&Run::default());
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.config.starts_with(label))
                .unwrap_or_else(|| panic!("row {label}"))
        };
        let base = get("baseline");
        // CCM promotion cuts cycles without changing spill decisions.
        assert!(get("+ CCM").cycles < base.cycles);
        assert_eq!(get("+ CCM").spilled, base.spilled);
        // Turning the optimizer off inflates the instruction stream.
        assert!(get("no scalar").cycles > base.cycles);
        // LICM raises pressure → at least as many spilled ranges.
        assert!(get("with LICM").spilled >= base.spilled);
        // Disabling coalescing cannot reduce spilling.
        assert!(get("no coalescing").spilled >= base.spilled);
        // Rematerialization reduces dynamic cost on its own and composes
        // with the CCM.
        let remat = get("with remat");
        assert!(remat.cycles <= base.cycles);
        let both = get("remat + CCM");
        assert!(both.cycles <= remat.cycles);
        // A stricter convention (fewer colors across calls) cannot spill
        // less than the unconstrained model.
        assert!(get("caller-saved = 16").spilled >= base.spilled);
    }
}

/// One row of the scheduling study.
#[derive(Clone, Debug)]
pub struct SchedRow {
    /// Configuration label.
    pub config: String,
    /// Spilled live ranges across the subset.
    pub spilled: usize,
    /// Cycles lost to load-delay stalls.
    pub stalls: u64,
    /// Total cycles.
    pub cycles: u64,
}

/// The scheduling study the paper declined to run (§4.3, last paragraph):
/// on a machine with pipelined 2-cycle loads, measure (a) post-allocation
/// list scheduling hiding load latency, (b) pre-allocation scheduling
/// raising spill counts, and (c) CCM spilling removing the need to hide
/// spill reloads at all ("let the scheduler place the load for a spilled
/// value next to its use", §1).
pub fn scheduling_study(run: &Run) -> Vec<SchedRow> {
    let machine = MachineConfig {
        load_delay: Some(2),
        ..run.machine(512)
    };
    // Kernels whose loads sit next to their uses — the code shape where
    // hoisting loads for latency genuinely lengthens live ranges. (The
    // suite's widest kernels already keep everything live at once, so
    // scheduling can only relax them; both effects are real, and the
    // paper's "can … cause added spilling" is the direction shown here.)
    let kernels = ["radf4", "radb4", "colbur", "cosqf1", "zeroin"];
    // (label, schedule before allocation, schedule after, variant).
    let configs = [
        ("unscheduled, no CCM", false, false, Variant::Baseline),
        ("post-RA scheduled, no CCM", false, true, Variant::Baseline),
        ("pre-RA scheduled, no CCM", true, false, Variant::Baseline),
        (
            "unscheduled + CCM",
            false,
            false,
            Variant::PostPassCallGraph,
        ),
        (
            "post-RA scheduled + CCM",
            false,
            true,
            Variant::PostPassCallGraph,
        ),
    ];
    let rows = run.par_rows(
        &configs,
        &kernels,
        |(label, ..), name| format!("sched study {name} ({label})"),
        |&(label, pre_sched, post_sched, variant), name| {
            let mut m = (*run.unit(name)?).clone();
            if pre_sched {
                sched::schedule_module(&mut m, 3);
            }
            let spilled =
                ccm::allocate_variant(&mut m, variant, 512, &AllocConfig::default()).spilled_ranges;
            if post_sched {
                sched::schedule_module(&mut m, 3);
            }
            // The checker's default configuration is the study's
            // register supply.
            let diags = checker::check_module(&m, &checker::CheckerConfig::new(512));
            if let Some(detail) = checker::error_summary(&diags) {
                return Err(PipelineError::new(
                    Stage::Checker,
                    *name,
                    format!("({label}): {detail}"),
                ));
            }
            let (_, metrics) = sim::run_module(&m, machine.clone(), "main")
                .map_err(|e| PipelineError::new(Stage::Sim, *name, format!("({label}): {e}")))?;
            Ok((spilled, metrics.stall_cycles, metrics.cycles))
        },
    );
    configs
        .iter()
        .zip(rows)
        .filter_map(|((label, ..), cells)| {
            let cells = cells?;
            Some(SchedRow {
                config: label.to_string(),
                spilled: cells.iter().map(|c| c.0).sum(),
                stalls: cells.iter().map(|c| c.1).sum(),
                cycles: cells.iter().map(|c| c.2).sum(),
            })
        })
        .collect()
}

/// Renders the scheduling study.
pub fn render_sched(rows: &[SchedRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Scheduling study (pipelined loads, 2-cycle delay; five spill-heavy kernels)"
    );
    let _ = writeln!(
        s,
        "{:<30} {:>8} {:>12} {:>12}",
        "configuration", "spills", "stall cyc", "total cyc"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<30} {:>8} {:>12} {:>12}",
            r.config, r.spilled, r.stalls, r.cycles
        );
    }
    s
}

#[cfg(test)]
mod sched_tests {
    use super::*;

    #[test]
    fn scheduling_study_directions() {
        let rows = scheduling_study(&Run::default());
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.config == label)
                .unwrap_or_else(|| panic!("row {label}"))
        };
        let base = get("unscheduled, no CCM");
        let post = get("post-RA scheduled, no CCM");
        let pre = get("pre-RA scheduled, no CCM");
        let ccm_only = get("unscheduled + CCM");
        let both = get("post-RA scheduled + CCM");
        // Post-RA scheduling hides load latency.
        assert!(post.stalls < base.stalls, "{post:?} vs {base:?}");
        assert!(post.cycles <= base.cycles);
        assert_eq!(
            post.spilled, base.spilled,
            "post-RA sched cannot change spills"
        );
        // Pre-RA scheduling raises register pressure → more spills on
        // this load-adjacent kernel set (the paper's warning).
        assert!(pre.spilled > base.spilled, "{pre:?} vs {base:?}");
        // CCM alone removes the spill-reload stalls (1-cycle restores
        // need no hiding) — a large stall reduction without a scheduler.
        assert!(ccm_only.stalls < base.stalls);
        assert!(ccm_only.cycles < base.cycles);
        // The combination is the best configuration of all.
        assert!(both.cycles <= post.cycles.min(ccm_only.cycles));
    }
}

/// One row of the multitasking study (§2.1/§5).
#[derive(Clone, Debug)]
pub struct MultitaskRow {
    /// Total CCM size in bytes.
    pub ccm_size: u32,
    /// Suite-weighted % cycle reduction if one process owns the full CCM.
    pub benefit_full: f64,
    /// Net % reduction when the OS copies the whole CCM at every context
    /// switch, for each quantum in [`MULTITASK_QUANTA`].
    pub net_copying: [f64; 3],
    /// % reduction when the CCM is partitioned four ways with a
    /// system-controlled base register (no switch cost, quarter capacity).
    pub benefit_partitioned: f64,
}

/// Context-switch quanta (cycles) evaluated by [`multitask_study`].
pub const MULTITASK_QUANTA: [u64; 3] = [10_000, 100_000, 1_000_000];

/// CCM sizes (bytes) of the sizing curve: `repro --sweep` prints
/// [`ccm_sweep`] over these, and `sweep.csv` exports the same points.
pub const SWEEP_SIZES: [u32; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// The §2.1 multitasking question: with several processes sharing the
/// chip, should the OS copy the CCM in and out on context switches, or
/// carve it up with a base register? Benefits come from the measured
/// sizing curve; copy cost is `2 × size/8` memory operations at two
/// cycles each (save + restore of 8-byte words).
pub fn multitask_study(run: &Run) -> Vec<MultitaskRow> {
    let processes = 4u32;
    let sizes = [1024u32, 4096, 16 * 1024, 32 * 1024];
    // Measure the sizing curve at every size we need (full + quarter).
    let mut need: Vec<u32> = Vec::new();
    for &s in &sizes {
        need.push(s);
        need.push(s / processes);
    }
    need.sort_unstable();
    need.dedup();
    // An empty curve (no kernel measured at every size) has no rows.
    let points = ccm_sweep(&need, run);
    let benefit = |size: u32| Some(points.iter().find(|p| p.ccm_size == size)?.total_pct);

    sizes
        .iter()
        .filter_map(|&s| {
            let full = benefit(s)?;
            let copy_cycles = 2 * (s as u64 / 8) * 2; // save + restore
            Some(MultitaskRow {
                ccm_size: s,
                benefit_full: full,
                net_copying: MULTITASK_QUANTA.map(|q| full - 100.0 * copy_cycles as f64 / q as f64),
                benefit_partitioned: benefit(s / processes)?,
            })
        })
        .collect()
}

/// Renders the multitasking study.
pub fn render_multitask(rows: &[MultitaskRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Multitasking study (§2.1/§5): 4 processes, copy-on-switch vs base-register partition"
    );
    let _ = writeln!(
        s,
        "{:>9} {:>9} | {:>12} {:>12} {:>12} | {:>12}",
        "CCM", "full", "copy Q=10k", "copy Q=100k", "copy Q=1M", "partitioned"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>8}B {:>8.1}% | {:>11.1}% {:>11.1}% {:>11.1}% | {:>11.1}%",
            r.ccm_size,
            r.benefit_full,
            r.net_copying[0],
            r.net_copying[1],
            r.net_copying[2],
            r.benefit_partitioned
        );
    }
    let _ = writeln!(
        s,
        "(negative = the copying overhead exceeds the CCM's entire benefit)"
    );
    s
}

#[cfg(test)]
mod multitask_tests {
    use super::*;

    #[test]
    fn partitioning_beats_copying_at_short_quanta() {
        let rows = multitask_study(&Run::default());
        // The paper's recommendation: with a base register, a 16-32 KB CCM
        // gives every process the full single-process benefit.
        let big = rows.iter().find(|r| r.ccm_size == 32 * 1024).unwrap();
        assert!(
            big.benefit_partitioned >= 0.99 * big.benefit_full,
            "an 8 KB partition must capture the saturated benefit"
        );
        // Copying a large CCM at a short quantum is catastrophic.
        assert!(
            big.net_copying[0] < 0.0,
            "copying 32 KB every 10k cycles must erase the benefit"
        );
        // At the short quantum, partitioning wins for every CCM large
        // enough that a quarter still performs (≥ 4 KB); at long quanta
        // and tiny CCMs, copying legitimately wins (the copy is
        // negligible and the partition loses capacity) — both directions
        // are part of the design space the paper sketches.
        for r in rows.iter().filter(|r| r.ccm_size >= 4096) {
            assert!(r.benefit_partitioned >= r.net_copying[0] - 1e-9);
        }
        let tiny = rows.iter().find(|r| r.ccm_size == 1024).unwrap();
        assert!(
            tiny.net_copying[2] > tiny.benefit_partitioned,
            "copying a 1 KB CCM at a 1M-cycle quantum should beat a 256 B partition"
        );
    }
}
