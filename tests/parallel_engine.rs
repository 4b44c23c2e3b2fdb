//! Parallel experiment engine invariants: deterministic results at any
//! `--jobs` value, name-joined Table 3 pairing, and NaN-free CSV output.

use harness::csv::{figure_csv, speedups_csv};
use harness::{improved_names, Measurement, RunConfig, SpeedupRow};

fn jobs(jobs: usize) -> RunConfig {
    RunConfig {
        jobs,
        ..RunConfig::default()
    }
}

fn meas(cycles: u64, mem_cycles: u64) -> Measurement {
    Measurement {
        cycles,
        mem_cycles,
        metrics: sim::Metrics::default(),
        checksum: 1.0,
        spill_bytes: 64,
        spilled_ranges: 3,
        degraded: Vec::new(),
    }
}

fn row(name: &str, base: u64, pp: u64, cg: u64, integrated: u64) -> SpeedupRow {
    SpeedupRow {
        name: name.to_string(),
        baseline: meas(base, base / 2),
        postpass: meas(pp, pp / 2),
        postpass_cg: meas(cg, cg / 2),
        integrated: meas(integrated, integrated / 2),
    }
}

/// The bug the positional zip had: when the spilling set differs between
/// CCM sizes, rows must be joined by routine name, not by index.
#[test]
fn table3_pairing_survives_differing_spill_sets() {
    // At 512 B three routines spill; at 1024 B `beta` stops spilling, so
    // a positional zip would have compared gamma@1024 against beta@512.
    let r512 = vec![
        row("alpha", 1000, 900, 880, 890),
        row("beta", 2000, 1800, 1750, 1760),
        row("gamma", 3000, 2700, 2600, 2650),
    ];
    let r1024 = vec![
        row("alpha", 1000, 900, 880, 890),    // unchanged: not improved
        row("gamma", 3000, 2500, 2400, 2450), // faster best variant
    ];
    let improved = improved_names(&r512, &r1024).expect("pairing succeeds");
    assert_eq!(improved, vec!["gamma".to_string()]);

    // The old positional pairing would also have mispaired when the 1024
    // vector is longer; name-joining is symmetric.
    let improved = improved_names(&r1024, &r512).expect("pairing succeeds");
    assert_eq!(improved, Vec::<String>::new());
}

#[test]
fn table3_pairing_rejects_duplicate_names() {
    let dup = vec![row("alpha", 1000, 900, 880, 890), row("alpha", 10, 9, 8, 9)];
    let clean = vec![row("alpha", 1000, 900, 880, 890)];
    let err = improved_names(&dup, &clean).unwrap_err();
    assert!(err.contains("duplicate") && err.contains("alpha"), "{err}");
    let err = improved_names(&clean, &dup).unwrap_err();
    assert!(err.contains("duplicate") && err.contains("alpha"), "{err}");
}

/// Asserts every comma-separated field of `csv` past the first
/// `skip_cols` parses as a *finite* f64 (catches NaN/inf leaking into
/// the exported numbers).
fn assert_numeric_fields_finite(csv: &str, skip_cols: usize, what: &str) {
    for (ln, line) in csv.lines().enumerate().skip(1) {
        for (col, field) in line.split(',').enumerate().skip(skip_cols) {
            let v: f64 = field
                .parse()
                .unwrap_or_else(|_| panic!("{what} line {ln} col {col}: `{field}` is not numeric"));
            assert!(
                v.is_finite(),
                "{what} line {ln} col {col}: `{field}` is not finite"
            );
        }
    }
}

/// A zero-cycle baseline must yield defined ratios, not NaN/inf, all the
/// way into the CSV (`rel`/`rel_mem` clamp the denominator like
/// `rel_mem` always did).
#[test]
fn speedups_csv_is_nan_free_even_with_zero_baseline() {
    let rows = vec![
        row("normal", 1000, 900, 880, 890),
        row("degenerate", 0, 0, 0, 0),
    ];
    for r in &rows {
        for m in r.ccm_variants() {
            assert!(r.rel(m).is_finite(), "{}: rel not finite", r.name);
            assert!(r.rel_mem(m).is_finite(), "{}: rel_mem not finite", r.name);
        }
    }
    let csv = speedups_csv(&rows);
    assert_numeric_fields_finite(&csv, 1, "speedups_csv");
}

/// Real end-to-end determinism: the engine's rows at `jobs=4` must be
/// byte-identical to a forced `jobs=1` (serial) run, filtering and
/// ordering included. Also doubles as a NaN-free check on live output.
#[test]
fn speedup_rows_are_identical_at_any_job_count() {
    let serial = harness::speedup_rows(512, &jobs(1));
    let parallel = harness::speedup_rows(512, &jobs(4));
    let a = speedups_csv(&serial);
    let b = speedups_csv(&parallel);
    assert_eq!(a, b, "parallel speedup rows diverged from serial");
    assert_numeric_fields_finite(&a, 1, "speedups_csv(live)");
}

#[test]
fn figure_rows_are_identical_at_any_job_count() {
    let serial = harness::figure(512, &jobs(1));
    let parallel = harness::figure(512, &jobs(4));
    let a = figure_csv(&serial);
    let b = figure_csv(&parallel);
    assert_eq!(a, b, "parallel figure rows diverged from serial");
    assert_numeric_fields_finite(&a, 2, "figure_csv(live)");
}
