#![warn(clippy::unwrap_used)]
//! `probe` — per-kernel allocation pressure and checker diagnostics.
//!
//! For every suite kernel: spill counts and register pressure under the
//! default allocator, then the post-allocation checker's verdict on the
//! post-pass-with-call-graph CCM variant (512-byte scratchpad). Both read
//! one `harness::Run`, so each kernel is allocated once.
//!
//! Kernels are probed in parallel (`--jobs N`, default: available
//! parallelism); the report is assembled in suite order regardless of
//! which worker finished first, and a timing line goes to stderr.

const USAGE: &str = "usage: probe [--jobs N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = exec::available();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            "--jobs" => {
                i += 1;
                match args.get(i).map(|v| exec::parse_jobs(v)) {
                    Some(Ok(n)) => jobs = n,
                    Some(Err(e)) => {
                        eprintln!("probe: {e}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("probe: --jobs needs a count");
                        std::process::exit(2);
                    }
                }
            }
            a => {
                eprintln!("probe: unknown argument `{a}` ({USAGE})");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    const CCM: u32 = 512;
    let run = harness::Run::new(jobs, sim::DEFAULT_MAX_STEPS);
    let kernels = suite::kernels();
    let stage = exec::Stage::start("probe", jobs);
    let reports = exec::par_map_contained(
        jobs,
        &kernels,
        |k| format!("probe {}", k.name),
        |k| {
            use std::fmt::Write as _;
            let failed = |e: harness::PipelineError| format!("{:<10} FAILED: {e}\n", k.name);
            let setup = harness::Setup::default();
            let m = match run.unit(k.name, &setup) {
                Ok(m) => m,
                Err(e) => return failed(e),
            };
            let (am, spilled) = match run.baseline_allocation(k.name, &setup) {
                Ok(a) => a,
                Err(e) => return failed(e),
            };
            let bytes: u32 = am.functions.iter().map(|f| f.frame.spill_bytes()).sum();
            // pressure of the biggest routine
            let mut maxg = 0;
            let mut maxf = 0;
            for f in &m.functions {
                let lv = analysis::Liveness::compute(f);
                maxg = maxg.max(lv.max_pressure(f, iloc::RegClass::Gpr));
                maxf = maxf.max(lv.max_pressure(f, iloc::RegClass::Fpr));
            }
            // Checker verdict on the CCM-promoted allocation.
            let diags = match run.allocated(k.name, &setup, ccm::Variant::PostPassCallGraph, CCM) {
                Ok(a) => a.diags,
                Err(e) => return failed(e),
            };
            let errors = checker::errors(&diags).len();
            let verdict = if diags.is_empty() {
                "clean".to_string()
            } else {
                format!("{} errors, {} warnings", errors, diags.len() - errors)
            };
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{:<10} spills={:<4} bytes={:<6} pressure g={} f={} | checker: {}",
                k.name, spilled, bytes, maxg, maxf, verdict
            );
            for d in diags.iter() {
                let _ = writeln!(out, "           {d}");
            }
            out
        },
    );
    let mut failures = 0usize;
    for r in reports {
        match r {
            Ok(s) => print!("{s}"),
            Err(e) => {
                failures += 1;
                eprintln!("probe: {e}");
            }
        }
    }
    eprintln!("probe: {}", stage.line());
    // Exiting here skips dropping the run's memo.
    std::process::exit(i32::from(failures > 0))
}
