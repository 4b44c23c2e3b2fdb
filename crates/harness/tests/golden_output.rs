//! Golden-snapshot tests for `repro`'s report output: the rendered
//! tables and figures, and a fixed-seed fuzz campaign report, are
//! compared byte-for-byte against committed expected files. The whole pipeline — suite build, optimization,
//! allocation, CCM promotion, simulation — is deterministic, so any
//! diff here is a real behavior change and must be reviewed, not
//! blindly re-recorded.
//!
//! To re-record after an intentional change:
//! `GOLDEN_UPDATE=1 cargo test -p harness --test golden_output`

use std::path::PathBuf;
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(args: &[&str], name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--jobs", "2"])
        .output()
        .expect("cannot spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("output is UTF-8");
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert!(
        got == want,
        "repro {args:?} diverged from {} — if the change is intentional, \
         re-record with GOLDEN_UPDATE=1\n--- expected ---\n{want}\n--- got ---\n{got}",
        path.display()
    );
}

#[test]
fn table1_matches_golden() {
    check_golden(&["--table1"], "table1.txt");
}

#[test]
fn table3_matches_golden() {
    check_golden(&["--table3"], "table3.txt");
}

#[test]
fn figure3_matches_golden() {
    check_golden(&["--figure3"], "figure3.txt");
}

#[test]
fn fuzz64_seed1_matches_golden() {
    check_golden(&["--fuzz", "64", "--seed", "1"], "fuzz64-seed1.txt");
}
