//! Text rendering of the experiment results, in the paper's layout.

use std::fmt::Write as _;

use crate::experiments::{table4_from, AblationRow, CompactionRow, SpeedupRow};

/// Renders Table 1 (spill-memory compaction).
pub fn render_table1(rows: &[CompactionRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 1: Spill Memory Requirements and Compaction");
    let _ = writeln!(
        s,
        "{:<12} {:>10} {:>10} {:>14}",
        "Routine", "Before", "After", "After/Before"
    );
    let compacted: Vec<&CompactionRow> = rows.iter().filter(|r| r.after < r.before).collect();
    for r in &compacted {
        let _ = writeln!(
            s,
            "{:<12} {:>10} {:>10} {:>14.2}",
            r.name,
            r.before,
            r.after,
            r.ratio()
        );
    }
    let before: u32 = compacted.iter().map(|r| r.before).sum();
    let after: u32 = compacted.iter().map(|r| r.after).sum();
    let _ = writeln!(
        s,
        "{:<12} {:>10} {:>10} {:>14.2}",
        "TOTAL",
        before,
        after,
        ccm::CompactStats { before, after }.ratio()
    );
    let uncompacted = rows.len() - compacted.len();
    let _ = writeln!(
        s,
        "({} of {} spilling routines compacted; {} unchanged)",
        compacted.len(),
        rows.len(),
        uncompacted
    );
    s
}

/// Writes the column header of Tables 2 and 3.
fn speedup_header(s: &mut String) {
    let _ = writeln!(
        s,
        "{:<12} {:>24} {:>13} {:>13} {:>13}",
        "Routine", "Without CCM", "Post-Pass", "PP w/ CG", "Integrated"
    );
}

/// Writes one row of Table 2 or 3: absolute baseline cycles, then each
/// CCM variant's cycles relative to it.
fn speedup_line(s: &mut String, r: &SpeedupRow) {
    let base = format!("{}({})", r.baseline.cycles, r.baseline.mem_cycles);
    let cell = |m: &crate::pipeline::Measurement| format!("{:.2}({:.2})", r.rel(m), r.rel_mem(m));
    let _ = writeln!(
        s,
        "{:<12} {:>24} {:>13} {:>13} {:>13}",
        r.name,
        base,
        cell(&r.postpass),
        cell(&r.postpass_cg),
        cell(&r.integrated)
    );
}

/// Renders Table 2 (speedups at one CCM size).
pub fn render_table2(rows: &[SpeedupRow], ccm: u32) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 2: Speedups in dynamic cycle counts with {ccm}-byte CCM"
    );
    speedup_header(&mut s);
    for r in rows {
        speedup_line(&mut s, r);
    }
    s
}

/// Renders Table 3 (routines that improve when the CCM doubles): the
/// 1024-byte rows of the routines named in `improved`.
pub fn render_table3(r512: &[SpeedupRow], r1024: &[SpeedupRow], improved: &[String]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 3: Changes in speedups with a 1024-byte CCM (vs 512-byte)"
    );
    speedup_header(&mut s);
    for r in r1024.iter().filter(|r| improved.contains(&r.name)) {
        speedup_line(&mut s, r);
    }
    let _ = writeln!(
        s,
        "({} of {} spilling routines speed up with the larger CCM)",
        improved.len(),
        r512.len()
    );
    s
}

/// Renders Table 4 (weighted-average reductions) from both CCM sizes:
/// its method rows only when both sizes have rows to average, otherwise
/// the title and header alone.
pub fn render_table4(r512: &[SpeedupRow], r1024: &[SpeedupRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 4: Weighted-average percentage reduction in cycles"
    );
    let _ = writeln!(
        s,
        "{:<26} {:>13} {:>13}   {:>13} {:>13}",
        "", "Total 512B", "Total 1024B", "Mem 512B", "Mem 1024B"
    );
    let (Some(c512), Some(c1024)) = (table4_from(r512), table4_from(r1024)) else {
        return s;
    };
    let names = ["Post-pass", "Post-pass w/ Call Graph", "Integrated"];
    for i in 0..3 {
        let _ = writeln!(
            s,
            "{:<26} {:>12.1}% {:>12.1}%   {:>12.1}% {:>12.1}%",
            names[i], c512[i].total_pct, c1024[i].total_pct, c512[i].mem_pct, c1024[i].mem_pct
        );
    }
    s
}

/// Renders Figure 3/4 as a text bar chart of relative whole-program
/// times.
pub fn render_figure(rows: &[SpeedupRow], ccm: u32) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure {}: Program performance with a {ccm}-byte CCM",
        if ccm <= 512 { 3 } else { 4 }
    );
    let _ = writeln!(
        s,
        "(relative to no-CCM baseline; left: running time, right: memory-op time)"
    );
    let improved: Vec<&SpeedupRow> = rows.iter().filter(|r| r.improved()).collect();
    let _ = writeln!(s, "{} of {} programs improved:", improved.len(), rows.len());
    let labels = ["post-pass ", "pp w/ cg  ", "integrated"];
    for r in &improved {
        let _ = writeln!(s, "{} (baseline {} cycles)", r.name, r.baseline.cycles);
        for (label, v) in labels.iter().zip(r.ccm_variants()) {
            let (t, m) = (r.rel(v), r.rel_mem(v));
            let bar = |x: f64| {
                let n = ((x - 0.70).max(0.0) / 0.30 * 40.0).round() as usize;
                "#".repeat(n.min(40))
            };
            let _ = writeln!(
                s,
                "  {} {:5.3} |{:<40}| {:5.3} |{:<40}|",
                label,
                t,
                bar(t),
                m,
                bar(m)
            );
        }
    }
    s
}

/// Renders the §4.3 ablation table.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Section 4.3 ablation: spills through the memory hierarchy vs CCM"
    );
    let _ = writeln!(
        s,
        "(five spill-heavy kernels; post-pass w/ call graph, 512-byte CCM)"
    );
    let _ = writeln!(
        s,
        "{:<30} {:>12} {:>9} {:>12} {:>9} {:>8}",
        "Hierarchy", "base cyc", "hit rate", "ccm cyc", "hit rate", "speedup"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<30} {:>12} {:>8.1}% {:>12} {:>8.1}% {:>7.2}x",
            r.config,
            r.base_cycles,
            100.0 * r.base_hit_rate,
            r.ccm_cycles,
            100.0 * r.ccm_hit_rate,
            r.base_cycles as f64 / r.ccm_cycles as f64
        );
    }
    s
}

/// Renders the suite-wide checker sweep as a text summary: aggregate
/// counts, then every diagnostic of each module that was not clean.
pub fn render_check_summary(rows: &[crate::experiments::CheckRow]) -> String {
    let mut s = String::new();
    let errors: usize = rows.iter().map(|r| r.error_count()).sum();
    let warnings: usize = rows.iter().map(|r| r.warning_count()).sum();
    let dirty = rows.iter().filter(|r| !r.diags.is_empty()).count();
    let _ = writeln!(
        s,
        "Post-allocation checker: {} modules checked, {errors} errors, {warnings} warnings",
        rows.len()
    );
    if dirty == 0 {
        let _ = writeln!(s, "all clean");
        return s;
    }
    for r in rows {
        if r.diags.is_empty() {
            continue;
        }
        let _ = writeln!(
            s,
            "{} [{} / {}B CCM]: {} errors, {} warnings",
            r.name,
            r.variant.label(),
            r.ccm,
            r.error_count(),
            r.warning_count()
        );
        for d in &r.diags {
            let _ = writeln!(s, "  {d}");
        }
    }
    s
}

/// Renders the checker sweep as a JSON array: one object per checked
/// module with its name, variant, CCM size, and diagnostics.
pub fn render_check_json(rows: &[crate::experiments::CheckRow]) -> String {
    let mut s = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n{\"name\":");
        checker::json_string(&r.name, &mut s);
        let _ = write!(
            s,
            ",\"variant\":\"{:?}\",\"ccm\":{},\"diagnostics\":{}}}",
            r.variant,
            r.ccm,
            checker::render_json(&r.diags).trim_end()
        );
    }
    s.push_str("\n]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::CompactionRow;

    #[test]
    fn table1_renders_rows_totals_and_counts() {
        let rows = vec![
            CompactionRow {
                name: "alpha".into(),
                stats: ccm::CompactStats {
                    before: 100,
                    after: 40,
                },
            },
            CompactionRow {
                name: "beta".into(),
                stats: ccm::CompactStats {
                    before: 50,
                    after: 50,
                },
            },
        ];
        let s = render_table1(&rows);
        assert!(s.contains("alpha"));
        assert!(
            !s.contains("beta "),
            "uncompacted rows are summarized, not listed"
        );
        assert!(s.contains("TOTAL"));
        assert!(s.contains("(1 of 2 spilling routines compacted; 1 unchanged)"));
        assert!(s.contains("0.40"));
    }

    /// A row with (cycles, memory cycles) for baseline, post-pass,
    /// post-pass w/ call graph and integrated, in that order.
    fn row(name: &str, cycles: [(u64, u64); 4]) -> SpeedupRow {
        let [baseline, postpass, postpass_cg, integrated] =
            cycles.map(|(cycles, mem_cycles)| crate::Measurement {
                cycles,
                mem_cycles,
                ..Default::default()
            });
        SpeedupRow {
            name: name.into(),
            baseline,
            postpass,
            postpass_cg,
            integrated,
        }
    }

    #[test]
    fn figure_marks_improved_programs_only() {
        let rows = vec![
            row("fast", [(1000, 400), (900, 320), (850, 280), (900, 320)]),
            row("flat", [(1000, 400); 4]),
        ];
        let s = render_figure(&rows, 512);
        assert!(s.contains("1 of 2 programs improved"));
        assert!(s.contains("fast"));
        assert!(!s.contains("flat (baseline"));
        assert!(s.contains("Figure 3"));
        let s4 = render_figure(&rows, 1024);
        assert!(s4.contains("Figure 4"));
    }

    #[test]
    fn ablation_renders_speedup_column() {
        let rows = vec![crate::experiments::AblationRow {
            config: "test cache".into(),
            base_cycles: 2000,
            base_hit_rate: 0.9,
            ccm_cycles: 1000,
            ccm_hit_rate: 0.95,
        }];
        let s = render_ablation(&rows);
        assert!(s.contains("test cache"));
        assert!(s.contains("2.00x"));
        assert!(s.contains("90.0%"));
    }
}
