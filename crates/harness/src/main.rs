#![warn(clippy::unwrap_used)]
//! `repro`: prints the paper's tables and figures from live runs.
//!
//! Flags select experiments (`--all` runs every experiment); `--jobs N`
//! sets the parallel engine's worker count (default: available
//! parallelism). Each stage prints a wall-clock timing line to stderr.
//! Unknown flags are an error: a misspelled `--tabel2` exits 2 with the
//! usage string instead of silently doing nothing.
//!
//! Failure is deferred, never fatal mid-run: a measurement that errors
//! drops its row and is recorded; every remaining experiment still
//! runs. At the end of the run the aggregated failure report is printed
//! to stderr (and as JSON on stdout with `--errors-json`), and only
//! then does the process exit nonzero. `--sim-budget N` caps every
//! simulation at N instruction steps (the runaway-loop watchdog);
//! `--inject-sweep` fires each registered fault point one at a time and
//! asserts the pipeline survives with the expected structured failure.

use harness::{error, inject_sweep, report, Run};

const USAGE: &str = "usage: repro [--table1] [--table2] [--table3] [--table4] \
     [--figure3] [--figure4] [--ablation] [--sweep] [--design] [--sched] [--multitask] \
     [--check[=json]] [--csv [DIR]] [--fuzz N [--seed S]] [--inject-sweep] \
     [--sim-budget N] [--errors-json] [--jobs N] [--all]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    usage()
}

#[derive(Default)]
struct Opts {
    run: Run,
    table1: bool,
    table2: bool,
    table3: bool,
    table4: bool,
    figure3: bool,
    figure4: bool,
    ablation: bool,
    sweep: bool,
    design: bool,
    sched: bool,
    multitask: bool,
    check: bool,
    check_json: bool,
    csv: Option<std::path::PathBuf>,
    fuzz: Option<usize>,
    fuzz_seed: Option<u64>,
    inject_sweep: bool,
    errors_json: bool,
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts::default();
    let mut all = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--table1" => o.table1 = true,
            "--table2" => o.table2 = true,
            "--table3" => o.table3 = true,
            "--table4" => o.table4 = true,
            "--figure3" => o.figure3 = true,
            "--figure4" => o.figure4 = true,
            "--ablation" => o.ablation = true,
            "--sweep" => o.sweep = true,
            "--design" => o.design = true,
            "--sched" => o.sched = true,
            "--multitask" => o.multitask = true,
            "--check" => o.check = true,
            "--check=json" => {
                o.check = true;
                o.check_json = true;
            }
            "--inject-sweep" => o.inject_sweep = true,
            "--errors-json" => o.errors_json = true,
            "--sim-budget" => {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| die("--sim-budget needs a step count"));
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => o.run.max_steps = n,
                    _ => die(&format!("invalid --sim-budget `{v}`")),
                }
            }
            "--csv" => {
                // Optional directory operand; defaults to `results`.
                let dir = match args.get(i + 1) {
                    Some(d) if !d.starts_with('-') => {
                        i += 1;
                        d.clone()
                    }
                    _ => "results".to_string(),
                };
                o.csv = Some(std::path::PathBuf::from(dir));
            }
            "--fuzz" => {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| die("--fuzz needs a case count"));
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => o.fuzz = Some(n),
                    _ => die(&format!("invalid --fuzz count `{v}`")),
                }
            }
            "--seed" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| die("--seed needs a value"));
                match v.parse::<u64>() {
                    Ok(s) => o.fuzz_seed = Some(s),
                    Err(_) => die(&format!("invalid --seed `{v}`")),
                }
            }
            "--jobs" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| die("--jobs needs a count"));
                match exec::parse_jobs(v) {
                    Ok(n) => o.run.jobs = n,
                    Err(e) => die(&e),
                }
            }
            "--all" => all = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if o.fuzz.is_none() && o.fuzz_seed.is_some() {
        die("--seed only applies to --fuzz");
    }
    if all {
        o.table1 = true;
        o.table2 = true;
        o.table3 = true;
        o.table4 = true;
        o.figure3 = true;
        o.figure4 = true;
        o.ablation = true;
        o.sweep = true;
        o.design = true;
        o.sched = true;
        o.multitask = true;
        o.check = true;
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let o = parse(&args);
    // Deferred failure: experiments record structured errors and keep
    // going; these track the extra failure sources (checker rows, fuzz
    // cases, sweep verdicts, csv IO) that aren't PipelineErrors.
    let mut deferred_failure = false;

    let run = &o.run;
    let jobs = run.jobs;
    if o.table1 {
        let rows = exec::timed("repro", "table1", jobs, || harness::table1(run));
        println!("{}", report::render_table1(&rows));
    }
    if o.table2 {
        let rows = exec::timed("repro", "table2", jobs, || harness::speedup_rows(512, run));
        println!("{}", report::render_table2(&rows, 512));
    }
    if o.table3 || o.table4 {
        let (r512, r1024, improved) = exec::timed("repro", "table3", jobs, || harness::table3(run));
        if o.table3 {
            println!("{}", report::render_table3(&r512, &r1024, &improved));
        }
        if o.table4 {
            println!("{}", report::render_table4(&r512, &r1024));
        }
    }
    if o.figure3 {
        let rows = exec::timed("repro", "figure3", jobs, || harness::figure(512, run));
        println!("{}", report::render_figure(&rows, 512));
    }
    if o.figure4 {
        let rows = exec::timed("repro", "figure4", jobs, || harness::figure(1024, run));
        println!("{}", report::render_figure(&rows, 1024));
    }
    if o.ablation {
        let rows = exec::timed("repro", "ablation", jobs, || harness::ablation(run));
        println!("{}", report::render_ablation(&rows));
    }
    if o.sweep {
        let sizes = [64, 128, 256, 512, 1024, 2048, 4096];
        let pts = exec::timed("repro", "sweep", jobs, || harness::ccm_sweep(&sizes, run));
        println!("{}", harness::render_sweep(&pts));
    }
    if o.design {
        let rows = exec::timed("repro", "design", jobs, || harness::design_ablation(run));
        println!("{}", harness::render_design(&rows));
    }
    if o.sched {
        let rows = exec::timed("repro", "sched", jobs, || harness::scheduling_study(run));
        println!("{}", harness::render_sched(&rows));
    }
    if o.multitask {
        let rows = exec::timed("repro", "multitask", jobs, || harness::multitask_study(run));
        println!("{}", harness::render_multitask(&rows));
    }
    if o.check {
        let rows = exec::timed("repro", "check", jobs, || {
            harness::check_suite(&[512, 1024], run)
        });
        if o.check_json {
            print!("{}", report::render_check_json(&rows));
        } else {
            print!("{}", report::render_check_summary(&rows));
        }
        if rows.iter().any(|r| r.error_count() > 0) {
            deferred_failure = true;
        }
    }
    if let Some(n) = o.fuzz {
        let seed = o.fuzz_seed.unwrap_or(0);
        let cfg = fuzz::OracleConfig {
            max_steps: run.max_steps,
            ..fuzz::OracleConfig::default()
        };
        let rep = exec::timed("repro", "fuzz", jobs, || {
            fuzz::campaign_report(n, seed, jobs, &cfg)
        });
        print!("{}", rep.text);
        eprintln!(
            "fuzz: {}/{} configurations checked and simulated",
            rep.runs, rep.configurations
        );
        if rep.failures > 0 {
            deferred_failure = true;
        }
    }
    if o.inject_sweep {
        let outcomes = exec::timed("repro", "inject-sweep", jobs, || {
            inject_sweep::run_sweep(jobs)
        });
        print!("{}", inject_sweep::render(&outcomes));
        if outcomes.iter().any(|v| !v.passed) {
            deferred_failure = true;
        }
    }
    if let Some(dir) = &o.csv {
        match exec::timed("repro", "csv", jobs, || harness::export_all(dir, run)) {
            Ok(files) => eprintln!("wrote {} CSV files to {}", files.len(), dir.display()),
            Err(e) => {
                eprintln!("csv export failed: {e}");
                deferred_failure = true;
            }
        }
    }

    let (runs, configurations) = run.measured();
    if configurations > 0 {
        eprintln!("repro: {runs}/{configurations} configurations checked and simulated");
    }
    // End-of-run aggregation: every structured failure the experiments
    // recorded, sorted (job-count-independent), then the one exit code.
    let errors = run.drain();
    if !errors.is_empty() {
        eprint!("{}", error::render_text(&errors));
    }
    if o.errors_json {
        print!("{}", error::render_json(&errors));
    }
    // Exiting here skips dropping the run's memo: freeing it buys
    // nothing at the end of the process.
    std::process::exit(i32::from(deferred_failure || !errors.is_empty()))
}
