//! The experiments: one function per table/figure of the paper.
//!
//! Every sweep-shaped experiment fans out over the parallel engine
//! ([`Run::par_contained`] on [`exec::par_map_contained`]) with one
//! work item per independent (unit, variant set, CCM size) measurement,
//! and collects results **by item index** so the output is
//! byte-identical whatever `--jobs` value ran it. A failed unit drops
//! its own row; the §4.3 ablation, which sums each configuration's row
//! over five kernels, folds its grid through [`Run::par_rows`] and drops
//! every row with a failed cell. Each takes the [`Run`]: the worker
//! count, the machine every simulation runs on, the memo every build,
//! check and simulation is read through, and the sink its failures are
//! recorded into. An experiment names each suite unit it measures, and
//! the tables' [`Setup`] (the default), and passes no module: the run
//! fetches the unit's build ([`Run::unit`]) and allocation, memoized per
//! (unit, setup), when its memo misses.

use std::collections::HashMap;

use ccm::{CompactStats, Variant};
use sim::{CacheConfig, MachineConfig};

use crate::error::{PipelineError, Stage};
use crate::pipeline::{Measurement, Run, Setup};

/// Table 1 row: spill-memory compaction for one routine. It derefs to
/// its [`ccm::CompactStats`], so `before`, `after` and `ratio()` read as
/// on the stats.
#[derive(Clone, Debug)]
pub struct CompactionRow {
    /// Routine name.
    pub name: String,
    /// Spill-memory bytes summed over the routine's functions.
    pub stats: CompactStats,
}

impl std::ops::Deref for CompactionRow {
    type Target = CompactStats;

    fn deref(&self) -> &CompactStats {
        &self.stats
    }
}

/// Runs the Table 1 experiment: Chaitin-Briggs allocation followed by
/// coloring-based spill-memory compaction ([`Run::compacted`]),
/// reporting bytes before/after per spilling routine, sorted by
/// descending `before`. Each compacted module must stay checker-clean
/// and return the baseline's checksum; it makes no CCM accesses, and
/// 1024 B is the default machine's CCM size.
pub fn table1(run: &Run) -> Vec<CompactionRow> {
    let kernels = suite::kernels();
    let machine = run.machine(1024);
    let rows = run.par_contained(
        &kernels,
        |k| format!("table1 {}", k.name),
        |k| {
            let compacted =
                run.compacted(k.name, &Setup::default(), Variant::Baseline, &machine)?;
            Ok(compacted.map(|(stats, _)| CompactionRow {
                name: k.name.to_string(),
                stats,
            }))
        },
    );
    let mut rows: Vec<CompactionRow> = rows.into_iter().flatten().flatten().collect();
    rows.sort_by(|a, b| b.before.cmp(&a.before).then(a.name.cmp(&b.name)));
    rows
}

/// Table 2/3 row: per-routine dynamic cycles for every variant.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Routine name.
    pub name: String,
    /// Baseline measurement (absolute cycles).
    pub baseline: Measurement,
    /// Post-pass (intraprocedural) measurement.
    pub postpass: Measurement,
    /// Post-pass with call graph.
    pub postpass_cg: Measurement,
    /// Integrated allocator.
    pub integrated: Measurement,
}

impl SpeedupRow {
    /// Relative cycles of `m` vs. the baseline. A zero-cycle baseline is
    /// clamped to one cycle so the ratio stays finite (a ratio of
    /// garbage-but-finite beats NaN/inf silently spreading into the
    /// reports and CSV).
    pub fn rel(&self, m: &Measurement) -> f64 {
        m.cycles as f64 / self.baseline.cycles.max(1) as f64
    }

    /// Relative memory-operation cycles of `m` vs. the baseline, with the
    /// same zero-denominator clamp as [`SpeedupRow::rel`].
    pub fn rel_mem(&self, m: &Measurement) -> f64 {
        m.mem_cycles as f64 / self.baseline.mem_cycles.max(1) as f64
    }

    /// The three CCM measurements, in the paper's column order.
    pub fn ccm_variants(&self) -> [&Measurement; 3] {
        [&self.postpass, &self.postpass_cg, &self.integrated]
    }

    /// Whether any CCM variant improved running time by ≥ 0.5 %.
    pub fn improved(&self) -> bool {
        self.ccm_variants().iter().any(|m| self.rel(m) < 0.995)
    }

    /// Cycle count of the best (fastest) CCM variant.
    pub fn best_ccm_cycles(&self) -> u64 {
        self.ccm_variants()
            .iter()
            .map(|m| m.cycles)
            .min()
            .expect("three variants")
    }
}

/// Measures suite unit `name` on `machine` under all four variants.
///
/// # Errors
///
/// Any stage failure from [`Run::measure_unit`]; additionally a CCM
/// variant whose program checksum diverges from the baseline is a
/// `stage=sim` error (the transformation changed observable behavior).
/// Variants are measured and checked in column order, stopping at the
/// first error.
fn measure_row(
    run: &Run,
    name: &str,
    machine: &MachineConfig,
) -> Result<SpeedupRow, PipelineError> {
    let tables = Setup::default();
    let baseline = run.measure_unit(name, &tables, Variant::Baseline, machine)?;
    let measure = |v| {
        let r = run.measure_unit(name, &tables, v, machine)?;
        r.same_output(&baseline, name, "")
            .map_err(|e| e.at(v, machine.ccm_size))?;
        Ok::<_, PipelineError>(r)
    };
    Ok(SpeedupRow {
        name: name.to_string(),
        postpass: measure(Variant::PostPass)?,
        postpass_cg: measure(Variant::PostPassCallGraph)?,
        integrated: measure(Variant::Integrated)?,
        baseline,
    })
}

/// Runs the Tables 2–4 experiment at each of `sizes` (CCM bytes) over
/// every kernel that spills: absolute baseline cycles plus relative cycle
/// counts for the three CCM allocation methods. One flat work-item pool
/// (kernel × size) serves every size, and the result holds one row vector
/// per requested size, kernels in suite order.
pub fn speedup_rows_multi(sizes: &[u32], run: &Run) -> Vec<Vec<SpeedupRow>> {
    let kernels = suite::kernels();
    let mut items: Vec<(usize, u32, suite::Kernel)> = Vec::new();
    for (si, &size) in sizes.iter().enumerate() {
        for k in &kernels {
            items.push((si, size, k.clone()));
        }
    }
    let results = run.par_contained(
        &items,
        |(_, size, k)| format!("speedups {} @ {size} B", k.name),
        |(_, size, k)| {
            // The paper reports only routines that spill. The baseline
            // measurement is memoized, so `measure_row` reads it again
            // for free.
            let machine = run.machine(*size);
            let baseline =
                run.measure_unit(k.name, &Setup::default(), Variant::Baseline, &machine)?;
            if baseline.spilled_ranges == 0 {
                return Ok(None);
            }
            measure_row(run, k.name, &machine).map(Some)
        },
    );
    let mut out: Vec<Vec<SpeedupRow>> = sizes.iter().map(|_| Vec::new()).collect();
    for ((si, _, _), row) in items.iter().zip(results) {
        if let Some(Some(r)) = row {
            out[*si].push(r);
        }
    }
    out
}

/// Joins the two Table 3 row sets **by routine name** and returns the
/// names whose best CCM-variant cycle count improves at 1024 B.
///
/// The spilling set is recomputed per CCM size, so the two vectors need
/// not be positionally aligned — a routine present at one size but not
/// the other is skipped, never mispaired. Duplicate names make the join
/// ambiguous and are a hard error (not a `debug_assert!`: a release
/// build must refuse to compare misaligned rows too).
///
/// # Errors
///
/// Returns a message naming the duplicated routine if either row set
/// contains the same name twice.
pub fn improved_names(r512: &[SpeedupRow], r1024: &[SpeedupRow]) -> Result<Vec<String>, String> {
    let mut at_1024: HashMap<&str, &SpeedupRow> = HashMap::new();
    for r in r1024 {
        if at_1024.insert(r.name.as_str(), r).is_some() {
            return Err(format!("duplicate routine `{}` in the 1024 B rows", r.name));
        }
    }
    let mut seen_512: HashMap<&str, ()> = HashMap::new();
    let mut improved = Vec::new();
    for a in r512 {
        if seen_512.insert(a.name.as_str(), ()).is_some() {
            return Err(format!("duplicate routine `{}` in the 512 B rows", a.name));
        }
        let Some(b) = at_1024.get(a.name.as_str()) else {
            continue; // spills at 512 B but not at 1024 B: nothing to pair
        };
        if b.best_ccm_cycles() < a.best_ccm_cycles() {
            improved.push(a.name.clone());
        }
    }
    Ok(improved)
}

/// Table 3: the kernels whose best CCM-variant cycle count improves when
/// the CCM grows from 512 to 1024 bytes ([`improved_names`]). A pairing
/// ambiguity is recorded in `run` and names no kernel.
pub fn table3(r512: &[SpeedupRow], r1024: &[SpeedupRow], run: &Run) -> Vec<String> {
    improved_names(r512, r1024).unwrap_or_else(|e| {
        // A pairing ambiguity poisons only the "improved" summary; the
        // per-size row sets are still reported.
        run.record(PipelineError::new(
            Stage::Exec,
            "table3",
            format!("row pairing: {e}"),
        ));
        Vec::new()
    })
}

/// Table 4 cell: weighted-average percentage reductions for one
/// algorithm at one CCM size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table4Cell {
    /// Percent reduction in total cycles (suite-weighted).
    pub total_pct: f64,
    /// Percent reduction in memory-operation cycles.
    pub mem_pct: f64,
}

/// Computes the Table 4 weighted averages from a set of speedup rows.
/// Weighting follows the paper: total cycles across the suite (big
/// routines dominate), i.e. `100·(1 − Σ cycles_v / Σ cycles_base)`.
/// With no rows there is nothing to average: `None`.
pub fn table4_from(rows: &[SpeedupRow]) -> Option<[Table4Cell; 3]> {
    if rows.is_empty() {
        return None;
    }
    let base_total: u64 = rows.iter().map(|r| r.baseline.cycles).sum();
    let base_mem: u64 = rows.iter().map(|r| r.baseline.mem_cycles).sum();
    let mut out = [Table4Cell {
        total_pct: 0.0,
        mem_pct: 0.0,
    }; 3];
    type Pick = for<'a> fn(&'a SpeedupRow) -> &'a Measurement;
    let picks: [Pick; 3] = [|r| &r.postpass, |r| &r.postpass_cg, |r| &r.integrated];
    for (i, pick) in picks.into_iter().enumerate() {
        let v_total: u64 = rows.iter().map(|r| pick(r).cycles).sum();
        let v_mem: u64 = rows.iter().map(|r| pick(r).mem_cycles).sum();
        out[i] = Table4Cell {
            total_pct: 100.0 * (1.0 - v_total as f64 / base_total.max(1) as f64),
            mem_pct: 100.0 * (1.0 - v_mem as f64 / base_mem.max(1) as f64),
        };
    }
    Some(out)
}

/// Runs the Figure 3 (512 B) or Figure 4 (1024 B) experiment over the 13
/// programs.
pub fn figure(ccm_size: u32, run: &Run) -> Vec<SpeedupRow> {
    let machine = run.machine(ccm_size);
    let programs = suite::programs();
    run.par_contained(
        &programs,
        |p| format!("figure {} @ {ccm_size} B", p.name),
        |p| measure_row(run, p.name, &machine),
    )
    .into_iter()
    .flatten()
    .collect()
}

/// §4.3 ablation result: one memory-hierarchy configuration.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Baseline (spills through the hierarchy) cycles and hit rate.
    pub base_cycles: u64,
    /// Baseline cache hit rate.
    pub base_hit_rate: f64,
    /// CCM (post-pass w/ call graph) cycles and hit rate.
    pub ccm_cycles: u64,
    /// CCM-variant cache hit rate.
    pub ccm_hit_rate: f64,
}

/// Runs the §4.3 "more complex execution models" ablation on a set of
/// spill-heavy kernels: a plain cache, a bigger cache, a cache with a
/// write buffer, and a cache with a victim cache — in each case comparing
/// spilling through the hierarchy against spilling to the CCM.
pub fn ablation(run: &Run) -> Vec<AblationRow> {
    let kernels = ["fpppp", "twldrv", "jacld", "radf5", "deseco"];
    let base = CacheConfig::small_direct_mapped();
    let configs = [
        ("8K direct-mapped", base.clone()),
        (
            "32K 2-way (better cache)",
            CacheConfig {
                size: 32 * 1024,
                assoc: 2,
                ..base.clone()
            },
        ),
        (
            "8K DM + 8-entry write buffer",
            CacheConfig {
                write_buffer: 8,
                ..base.clone()
            },
        ),
        (
            "8K DM + 4-line victim cache",
            CacheConfig {
                victim_lines: 4,
                ..base
            },
        ),
    ];
    // One row per configuration, one cell per kernel; a configuration
    // with a failed cell reports no row.
    let rows = run.par_rows(
        &configs,
        &kernels,
        |(label, _), name| format!("ablation {name} on {label}"),
        |(_, ccfg), name| {
            let machine = MachineConfig {
                cache: Some(ccfg.clone()),
                ..run.machine(512)
            };
            let tables = Setup::default();
            let b = run.measure_unit(name, &tables, Variant::Baseline, &machine)?;
            let c = run.measure_unit(name, &tables, Variant::PostPassCallGraph, &machine)?;
            Ok([b, c])
        },
    );
    configs
        .iter()
        .zip(rows)
        .filter_map(|((config, _), cells)| {
            let cells = cells?;
            // Summed cycles and cache hit rate of one variant.
            let sum = |v: usize| {
                let (mut cycles, mut hits, mut accesses) = (0, 0, 0u64);
                for r in cells.iter().map(|c| &c[v]) {
                    let h = r.metrics.cache.hits + r.metrics.cache.victim_hits;
                    cycles += r.cycles;
                    hits += h;
                    accesses += h + r.metrics.cache.misses;
                }
                (cycles, hits as f64 / accesses.max(1) as f64)
            };
            let (base_cycles, base_hit_rate) = sum(0);
            let (ccm_cycles, ccm_hit_rate) = sum(1);
            Some(AblationRow {
                config: config.to_string(),
                base_cycles,
                base_hit_rate,
                ccm_cycles,
                ccm_hit_rate,
            })
        })
        .collect()
}

/// Checker results for one allocated suite module at one configuration.
#[derive(Clone, Debug)]
pub struct CheckRow {
    /// Kernel or program name.
    pub name: String,
    /// The allocation strategy checked.
    pub variant: Variant,
    /// CCM capacity the module was allocated for.
    pub ccm: u32,
    /// Every diagnostic the checker produced.
    pub diags: Vec<checker::Diagnostic>,
}

impl CheckRow {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        checker::errors(&self.diags).len()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diags.len() - self.error_count()
    }
}

/// Runs the post-allocation checker over the whole suite (every kernel
/// and every program) under each variant at each CCM size.
pub fn check_suite(sizes: &[u32], run: &Run) -> Vec<CheckRow> {
    // Warm the build cache in parallel, one item per unit…
    let units: Vec<&str> = (suite::kernels().iter().map(|k| k.name))
        .chain(suite::programs().iter().map(|p| p.name))
        .collect();
    // A unit whose build fails is recorded and dropped here; every later
    // item reads the surviving builds only.
    let built = run.par_contained(
        &units,
        |name| format!("build {name}"),
        |name| run.unit(name, &Setup::default()).map(|_| *name),
    );
    // …then one work item per (unit, CCM size, variant), enumerated in
    // the same nesting order as the old serial loop so the row order (and
    // every rendering of it) is unchanged.
    let mut items: Vec<(&str, u32, Variant)> = Vec::new();
    for name in built.into_iter().flatten() {
        for &ccm in sizes {
            for v in Variant::ALL {
                items.push((name, ccm, v));
            }
        }
    }
    run.par_contained(
        &items,
        |(name, ccm, v)| format!("check {name} {v:?} @ {ccm} B"),
        |&(name, ccm, v)| {
            let a = run.allocated(name, &Setup::default(), v, ccm)?;
            Ok(CheckRow {
                name: name.to_string(),
                variant: v,
                ccm,
                diags: (*a.diags).clone(),
            })
        },
    )
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reports_spilling_routines_with_valid_ratios() {
        let rows = table1(&Run::default());
        assert!(rows.len() >= 10, "need a healthy population of spillers");
        for r in &rows {
            assert!(r.after <= r.before, "{}: compaction grew memory", r.name);
            assert!(r.ratio() > 0.0 && r.ratio() <= 1.0);
        }
        // Aggregate shape: compaction should buy a real reduction.
        let before: u32 = rows.iter().map(|r| r.before).sum();
        let after: u32 = rows.iter().map(|r| r.after).sum();
        assert!(
            (after as f64) < 0.9 * before as f64,
            "aggregate ratio {} not < 0.9",
            after as f64 / before as f64
        );
    }

    #[test]
    fn speedups_have_paper_shape_at_512() {
        let rows = speedup_rows_multi(&[512], &Run::default()).remove(0);
        assert!(rows.len() >= 10);
        // No CCM variant may ever be slower than baseline.
        for r in &rows {
            for m in r.ccm_variants() {
                assert!(
                    m.cycles <= r.baseline.cycles,
                    "{}: CCM variant slower",
                    r.name
                );
            }
            // Interprocedural post-pass dominates intraprocedural.
            assert!(r.postpass_cg.cycles <= r.postpass.cycles, "{}", r.name);
        }
        // A majority of spilling kernels should see real speedups.
        let improved = rows
            .iter()
            .filter(|r| r.rel(&r.postpass_cg) < 0.995)
            .count();
        assert!(
            improved * 2 >= rows.len(),
            "only {improved}/{} improved",
            rows.len()
        );
        let t4 = table4_from(&rows).expect("rows to average");
        // Paper: 3-6 % total-cycle reduction, 10-17 % memory-cycle
        // reduction. Accept a generous band around that shape.
        assert!(
            t4[1].total_pct > 1.0 && t4[1].total_pct < 25.0,
            "total reduction {:.1}% out of band",
            t4[1].total_pct
        );
        assert!(
            t4[1].mem_pct > 4.0 && t4[1].mem_pct < 50.0,
            "memory reduction {:.1}% out of band",
            t4[1].mem_pct
        );
        // Memory-cycle reduction always exceeds total-cycle reduction.
        for c in t4 {
            assert!(c.mem_pct >= c.total_pct);
        }
    }

    #[test]
    fn table4_has_no_averages_without_rows() {
        assert_eq!(table4_from(&[]), None);
    }
}
