//! CLI contract tests for the harness binaries: misspelled or malformed
//! flags must be rejected with a usage message and a nonzero exit, never
//! silently ignored (the old `repro` exited 0 having done nothing on
//! `--tabel2`).

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn repro_rejects_unknown_flags() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let (code, _, err) = run(repro, &["--tabel2"]);
    assert_eq!(code, 2, "misspelled flag must exit 2");
    assert!(err.contains("unknown argument `--tabel2`"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn repro_with_no_args_prints_usage_and_fails() {
    let (code, out, err) = run(env!("CARGO_BIN_EXE_repro"), &[]);
    assert_eq!(code, 2);
    assert!(out.is_empty());
    assert!(err.contains("usage:"));
}

#[test]
fn repro_rejects_bad_jobs_values() {
    let repro = env!("CARGO_BIN_EXE_repro");
    for args in [
        &["--jobs", "0"][..],
        &["--jobs", "many"][..],
        &["--jobs"][..],
    ] {
        let (code, _, err) = run(repro, args);
        assert_eq!(code, 2, "{args:?} must exit 2");
        assert!(err.contains("--jobs"), "{args:?} stderr: {err}");
    }
}

#[test]
fn repro_help_exits_zero() {
    let (code, out, _) = run(env!("CARGO_BIN_EXE_repro"), &["--help"]);
    assert_eq!(code, 0);
    assert!(out.contains("usage:"));
    assert!(out.contains("--jobs"));
}

#[test]
fn probe_rejects_unknown_flags() {
    let (code, _, err) = run(env!("CARGO_BIN_EXE_probe"), &["--bogus"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown argument"), "stderr: {err}");
}

#[test]
fn probe_rejects_the_jobs_equals_spelling() {
    let (code, _, err) = run(env!("CARGO_BIN_EXE_probe"), &["--jobs=2"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown argument `--jobs=2`"), "stderr: {err}");
}

#[test]
fn ccmc_rejects_unknown_flags_and_bad_jobs() {
    let ccmc = env!("CARGO_BIN_EXE_ccmc");
    let (code, _, err) = run(ccmc, &["--bogus"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown argument"), "stderr: {err}");
    // ccmc runs no parallel work, so it takes no `--jobs` at all.
    for args in [&["--jobs", "0"][..], &["--jobs", "2"][..]] {
        let (code, _, err) = run(ccmc, args);
        assert_eq!(code, 2, "{args:?} must exit 2");
        assert!(err.contains("unknown argument `--jobs`"), "stderr: {err}");
    }
}

/// `--sim-budget` reaches every simulation of the run, the fuzz
/// oracle's included: a 10-step budget traps the very first baseline
/// run, the campaign reports it as a failing case, and the process
/// exits 1 once the report is printed.
#[test]
fn repro_sim_budget_caps_fuzz_simulations() {
    let args = [
        "--fuzz",
        "2",
        "--seed",
        "1",
        "--sim-budget",
        "10",
        "--jobs",
        "1",
    ];
    let (code, out, err) = run(env!("CARGO_BIN_EXE_repro"), &args);
    assert_eq!(code, 1, "stderr: {err}");
    assert!(out.contains("trap in baseline"), "stdout: {out}");
    assert!(out.contains("step limit"), "stdout: {out}");
}

/// `--seed` without `--fuzz` is a usage error for every seed value,
/// zero included: the parser records whether the flag was given, not
/// whether its value differs from the default.
#[test]
fn repro_rejects_seed_without_fuzz() {
    let repro = env!("CARGO_BIN_EXE_repro");
    for seed in ["0", "3"] {
        let (code, out, err) = run(repro, &["--table1", "--seed", seed]);
        assert_eq!(code, 2, "--seed {seed} without --fuzz must exit 2");
        assert!(out.is_empty(), "--seed {seed} stdout: {out}");
        assert!(
            err.contains("--seed only applies to --fuzz"),
            "--seed {seed} stderr: {err}"
        );
    }
}

/// A step budget no simulation meets fails every cell of the summed
/// studies. Each study then prints its title and column header (and the
/// multitask legend) and no row: nothing summed from failed cells, so no
/// `NaN` speedup, no 100% reduction against an empty baseline and no
/// all-zero row. The run still exits 1.
#[test]
fn summed_studies_print_no_row_from_failed_cells() {
    let (code, out, err) = run(
        env!("CARGO_BIN_EXE_repro"),
        &[
            "--ablation",
            "--sweep",
            "--design",
            "--sched",
            "--multitask",
            "--sim-budget",
            "10",
            "--jobs",
            "2",
        ],
    );
    assert_eq!(code, 1, "stderr: {err}");
    assert!(!out.contains("NaN") && !out.contains("100.0%"), "{out}");
    let headers: String = [
        harness::report::render_ablation(&[]),
        harness::render_sweep(&[]),
        harness::render_design(&[]),
        harness::render_sched(&[]),
        harness::render_multitask(&[]),
    ]
    .iter()
    .map(|s| format!("{s}\n"))
    .collect();
    assert_eq!(out, headers);
}

/// With every simulation over budget no kernel row survives, so Table 4
/// has nothing to average: it prints its title and header and no `%`
/// cell, never a 100.0% reduction against an empty baseline.
#[test]
fn table4_prints_no_average_without_rows() {
    let (code, out, err) = run(
        env!("CARGO_BIN_EXE_repro"),
        &["--table4", "--figure3", "--sim-budget", "10", "--jobs", "1"],
    );
    assert_eq!(code, 1, "stderr: {err}");
    assert!(out.starts_with("Table 4: "), "{out}");
    assert!(out.contains("0 of 0 programs improved"), "{out}");
    assert!(!out.contains('%'), "{out}");
}
