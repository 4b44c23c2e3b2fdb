//! Machine-readable CSV export of the experiment results, for plotting.

use std::fmt::Write as _;

use crate::experiments::{CompactionRow, SpeedupRow};
use crate::extensions::SweepPoint;
use crate::pipeline::Run;

/// Table 1 as CSV (`routine,before,after,ratio`).
pub fn table1_csv(rows: &[CompactionRow]) -> String {
    let mut s = String::from("routine,before_bytes,after_bytes,ratio\n");
    for r in rows {
        let _ = writeln!(s, "{},{},{},{:.4}", r.name, r.before, r.after, r.ratio());
    }
    s
}

/// Table 2/3 as CSV: absolute baseline plus relative columns.
pub fn speedups_csv(rows: &[SpeedupRow]) -> String {
    let mut s = String::from(
        "routine,base_cycles,base_mem_cycles,postpass_rel,postpass_mem_rel,\
         postpass_cg_rel,postpass_cg_mem_rel,integrated_rel,integrated_mem_rel\n",
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            r.name,
            r.baseline.cycles,
            r.baseline.mem_cycles,
            r.rel(&r.postpass),
            r.rel_mem(&r.postpass),
            r.rel(&r.postpass_cg),
            r.rel_mem(&r.postpass_cg),
            r.rel(&r.integrated),
            r.rel_mem(&r.integrated),
        );
    }
    s
}

/// Figures 3/4 as CSV: one row per (program, method).
pub fn figure_csv(rows: &[SpeedupRow]) -> String {
    let mut s = String::from("program,method,rel_time,rel_mem_time,base_cycles\n");
    let methods = ["postpass", "postpass_cg", "integrated"];
    for r in rows {
        for (method, m) in methods.iter().zip(r.ccm_variants()) {
            let (t, mem, base) = (r.rel(m), r.rel_mem(m), r.baseline.cycles);
            let _ = writeln!(s, "{},{method},{t:.4},{mem:.4},{base}", r.name);
        }
    }
    s
}

/// The CCM sizing sweep as CSV.
pub fn sweep_csv(points: &[SweepPoint]) -> String {
    let mut s = String::from("ccm_bytes,total_reduction_pct,mem_reduction_pct,promoted_frac\n");
    for p in points {
        let _ = writeln!(
            s,
            "{},{:.3},{:.3},{:.4}",
            p.ccm_size, p.total_pct, p.mem_pct, p.promoted_fraction
        );
    }
    s
}

/// Writes every experiment's CSV into `dir` (created if needed), running
/// the experiments under `run`. Returns the file names written.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or file writes.
pub fn export_all(dir: &std::path::Path, run: &Run) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut put = |name: &str, contents: String| -> std::io::Result<()> {
        std::fs::write(dir.join(name), contents)?;
        written.push(name.to_string());
        Ok(())
    };
    put("table1.csv", table1_csv(&crate::table1(run)))?;
    let mut sized = crate::speedup_rows_multi(&[512, 1024], run);
    let r1024 = sized.pop().expect("two sizes");
    let r512 = sized.pop().expect("two sizes");
    put("table2_512.csv", speedups_csv(&r512))?;
    put("table2_1024.csv", speedups_csv(&r1024))?;
    put("figure3.csv", figure_csv(&crate::figure(512, run)))?;
    put("figure4.csv", figure_csv(&crate::figure(1024, run)))?;
    put(
        "sweep.csv",
        sweep_csv(&crate::ccm_sweep(&crate::SWEEP_SIZES, run)),
    )?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::CompactionRow;

    #[test]
    fn table1_csv_has_header_and_rows() {
        let rows = vec![CompactionRow {
            name: "x".into(),
            stats: ccm::CompactStats {
                before: 10,
                after: 5,
            },
        }];
        let s = table1_csv(&rows);
        let mut lines = s.lines();
        assert_eq!(
            lines.next().unwrap(),
            "routine,before_bytes,after_bytes,ratio"
        );
        assert_eq!(lines.next().unwrap(), "x,10,5,0.5000");
    }

    #[test]
    fn figure_csv_one_row_per_method() {
        let [baseline, postpass, postpass_cg, integrated] =
            [(100, 40), (90, 32), (85, 30), (95, 36)].map(|(cycles, mem_cycles)| {
                crate::Measurement {
                    cycles,
                    mem_cycles,
                    ..Default::default()
                }
            });
        let rows = vec![SpeedupRow {
            name: "p".into(),
            baseline,
            postpass,
            postpass_cg,
            integrated,
        }];
        let s = figure_csv(&rows);
        assert_eq!(s.lines().count(), 4); // header + 3 methods
        assert!(s.contains("p,postpass_cg,0.8500,0.7500,100"));
    }
}
