#![warn(clippy::unwrap_used)]
//! `ccmc` — a command-line driver for the CCM compiler pipeline.
//!
//! Reads a textual ILOC module, optimizes it, allocates registers with a
//! chosen CCM strategy, then (optionally) executes it and reports the
//! paper's metrics.
//!
//! ```text
//! ccmc INPUT.iloc [--variant base|postpass|postpass-cg|integrated]
//!                 [--ccm SIZE] [--unroll N] [--licm] [--run] [--entry NAME]
//!                 [--emit] [--stats] [--check[=json]]
//! ```
//!
//! `--stats` additionally prints per-stage wall-clock timing lines
//! (parse/opt/alloc/check/run) to stderr; ccmc runs every stage on one
//! thread.

use std::process::exit;

use ccm::Variant;
use regalloc::AllocConfig;
use sim::MachineConfig;

struct Options {
    input: String,
    variant: Variant,
    ccm_size: u32,
    unroll: Option<u32>,
    licm: bool,
    run: Option<String>,
    emit: bool,
    stats: bool,
    check: Option<CheckFormat>,
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum CheckFormat {
    Text,
    Json,
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut o = Options {
        input: String::new(),
        variant: Variant::PostPassCallGraph,
        ccm_size: 512,
        unroll: None,
        licm: false,
        run: None,
        emit: false,
        stats: false,
        check: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--variant" => {
                o.variant = match args.next().as_deref() {
                    Some("base") => Variant::Baseline,
                    Some("postpass") => Variant::PostPass,
                    Some("postpass-cg") => Variant::PostPassCallGraph,
                    Some("integrated") => Variant::Integrated,
                    other => die(&format!("unknown variant {other:?}")),
                }
            }
            "--ccm" => o.ccm_size = req(args.next(), "--ccm needs a size"),
            "--unroll" => o.unroll = Some(req(args.next(), "--unroll needs a factor")),
            "--licm" => o.licm = true,
            "--run" => o.run = Some("main".to_string()),
            "--entry" => o.run = Some(req_s(args.next(), "--entry needs a name")),
            "--emit" => o.emit = true,
            "--stats" => o.stats = true,
            "--check" => o.check = Some(CheckFormat::Text),
            "--check=json" => o.check = Some(CheckFormat::Json),
            "--help" | "-h" => {
                eprintln!(
                    "usage: ccmc INPUT.iloc [--variant base|postpass|postpass-cg|integrated]\n\
                     \x20            [--ccm SIZE] [--unroll N] [--licm] [--run] [--entry NAME]\n\
                     \x20            [--emit] [--stats] [--check[=json]]"
                );
                exit(0);
            }
            other if !other.starts_with('-') && o.input.is_empty() => o.input = other.to_string(),
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    if o.input.is_empty() {
        die("missing input file (try --help)");
    }
    o
}

fn die(msg: &str) -> ! {
    eprintln!("ccmc: {msg}");
    exit(2)
}

fn req<T: std::str::FromStr>(v: Option<String>, msg: &str) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| die(msg))
}

fn req_s(v: Option<String>, msg: &str) -> String {
    v.unwrap_or_else(|| die(msg))
}

fn main() {
    let o = parse_args();
    // Per-stage wall-clock, printed (with --stats) after the run.
    let mut stage_lines: Vec<String> = Vec::new();
    let mut staged = |name: &str, f: &mut dyn FnMut()| {
        let s = exec::Stage::start(name, 1);
        f();
        stage_lines.push(s.line());
    };

    let mut m = iloc::Module::new();
    staged("parse", &mut || {
        let text = std::fs::read_to_string(&o.input)
            .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", o.input)));
        m = iloc::parse_module(&text).unwrap_or_else(|e| die(&e.to_string()));
        m.verify().unwrap_or_else(|e| die(&e.to_string()));
    });

    let mut opt_stats = opt::OptStats::default();
    staged("optimize", &mut || {
        opt_stats = opt::optimize_module(
            &mut m,
            &opt::OptOptions {
                unroll: o.unroll,
                licm: o.licm,
                ..opt::OptOptions::default()
            },
        );
    });
    let mut spilled = 0;
    let mut degraded: Vec<ccm::Degradation> = Vec::new();
    staged("allocate", &mut || {
        spilled = regalloc::allocate_module(&mut m, &AllocConfig::default()).total_spilled();
        degraded = ccm::promote_allocated(&mut m, o.variant, o.ccm_size).degradations();
        m.verify()
            .unwrap_or_else(|e| die(&format!("post-allocation verify: {e}")));
    });
    for d in &degraded {
        eprintln!("ccmc: warning: {d}");
    }

    if let Some(format) = o.check {
        let s = exec::Stage::start("check", 1);
        let diags = checker::check_module(&m, &checker::CheckerConfig::new(o.ccm_size));
        stage_lines.push(s.line());
        match format {
            CheckFormat::Text => {
                if diags.is_empty() {
                    eprintln!("ccmc: checker clean");
                } else {
                    print!("{}", checker::render_text(&diags));
                }
            }
            CheckFormat::Json => print!("{}", checker::render_json(&diags)),
        }
        if checker::has_errors(&diags) {
            exit(1);
        }
    }

    if o.stats {
        let spill_bytes: u32 = m.functions.iter().map(|f| f.frame.spill_bytes()).sum();
        let ccm_slots: usize = m
            .functions
            .iter()
            .flat_map(|f| &f.frame.slots)
            .filter(|s| s.in_ccm)
            .count();
        eprintln!(
            "ccmc: variant={:?} ccm={}B | folded {} gvn {} dce {} hoisted {} | \
             spilled {} ranges, {} CCM slots, {} frame bytes",
            o.variant,
            o.ccm_size,
            opt_stats.constants_folded,
            opt_stats.redundancies_removed,
            opt_stats.dead_removed,
            opt_stats.hoisted,
            spilled,
            ccm_slots,
            spill_bytes
        );
    }

    if o.emit {
        print!("{m}");
    }

    if let Some(entry) = o.run {
        let s = exec::Stage::start("run", 1);
        let cfg = MachineConfig::with_ccm(o.ccm_size);
        match sim::run_module(&m, cfg, &entry) {
            Ok((vals, metrics)) => {
                stage_lines.push(s.line());
                eprintln!(
                    "ccmc: {} cycles ({} memory-op), {} instructions, {} ccm ops",
                    metrics.cycles, metrics.mem_op_cycles, metrics.instrs, metrics.ccm_ops
                );
                for v in vals.ints {
                    println!("{v}");
                }
                for v in vals.floats {
                    println!("{v}");
                }
            }
            Err(e) => die(&format!("execution trapped: {e}")),
        }
    }

    if o.stats {
        for line in &stage_lines {
            eprintln!("ccmc: {line}");
        }
    }
}
