//! Benchmark helper for `run.py`: times the input set-up and runs the
//! traced per-layer replay of one workload.
//!
//! ```text
//! perfbench setup --workload kernels|programs|fuzz [--seed S] [--cases N]
//! perfbench trace --workload kernels|programs|fuzz [--seed S] [--cases N] --spans PATH
//! ```
//!
//! `setup` builds the workload's inputs at least [`SETUP_MIN_REPS`] times
//! and for at least [`SETUP_MIN_S`] seconds, timing each pass once around
//! the loop, and prints the samples. `trace` runs the traced replay once,
//! writes its spans to `PATH` as JSON lines, and prints the per-layer
//! metrics, the work-list count, the failed checks and the facts `run.py`
//! compares with `repro`'s output. Both print one JSON object on stdout.

mod replay;
mod trace;

use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufWriter, Write as _};
use std::time::Instant;

use replay::{Stats, Workload};
use trace::{Key, Tracer};

const USAGE: &str = "usage: perfbench setup|trace --workload kernels|programs|fuzz \
     [--seed S] [--cases N] [--spans PATH]";

/// Set-up passes per run: enough that the median of the samples is
/// steady even for the fuzz inputs, whose one pass takes ~30 ms.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.5;

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2)
}

struct Args {
    mode: String,
    workload: Workload,
    spans: Option<String>,
}

fn number<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> T {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a number")))
}

fn parse(args: &[String]) -> Args {
    let mode = args.first().cloned().unwrap_or_else(|| die("missing mode"));
    if mode != "setup" && mode != "trace" {
        die(&format!("unknown mode `{mode}`"));
    }
    let (mut name, mut seed, mut cases, mut spans) = (None, 0u64, 0usize, None);
    let mut i = 1;
    while i < args.len() {
        let v = args.get(i + 1);
        match args[i].as_str() {
            "--workload" => name = v.cloned(),
            "--seed" => seed = number("--seed", v),
            "--cases" => cases = number("--cases", v),
            "--spans" => spans = v.cloned(),
            other => die(&format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let workload = match name.as_deref() {
        Some("kernels") => Workload::Kernels,
        Some("programs") => Workload::Programs,
        Some("fuzz") if cases > 0 => Workload::Fuzz { seed, cases },
        Some("fuzz") => die("the fuzz workload needs --cases N > 0"),
        _ => die("--workload must be kernels, programs or fuzz"),
    };
    if mode == "trace" && spans.is_none() {
        die("trace needs --spans PATH");
    }
    Args {
        mode,
        workload,
        spans,
    }
}

/// Appends `"name":value` to a JSON object body. Non-finite values (a
/// ratio over an empty base) are written as 0, which JSON can carry.
fn field(out: &mut String, name: &str, value: f64) {
    let sep = if out.ends_with('{') { "" } else { "," };
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(out, "{sep}\"{name}\":{value}");
}

fn setup(w: Workload) {
    let mut samples: Vec<f64> = Vec::new();
    let mut instrs = 0;
    while samples.len() < SETUP_MIN_REPS || samples.iter().sum::<f64>() < SETUP_MIN_S {
        let mut t = Tracer::new(false);
        let start = Instant::now();
        let inputs = black_box(replay::build_inputs(w, &mut t));
        samples.push(start.elapsed().as_secs_f64());
        instrs = inputs.iter().map(|(_, m)| m.instr_count()).sum::<usize>();
    }
    let list: Vec<String> = samples.iter().map(|s| s.to_string()).collect();
    println!("{{\"samples\":[{}],\"instrs\":{instrs}}}", list.join(","));
}

/// Per-layer metrics of the traced replay; `tracing_s` is the time the
/// span recorder itself took.
fn layer_metrics(t: &Tracer, st: &Stats, wall: f64, tracing_s: f64) -> String {
    let busy = |pred: &dyn Fn(&Key) -> bool| -> f64 {
        t.spans
            .iter()
            .filter(|s| pred(&s.key))
            .map(|s| s.dur_ns as f64 / 1e9)
            .sum()
    };
    let per = |x: f64, n: u64| x / n as f64;
    let regalloc_s = busy(&|k| k.layer == "regalloc");
    let promote_s = busy(&|k| k.op == "postpass_promote");
    let integrated_s = busy(&|k| k.op == "allocate_module_integrated");
    let sim_s = busy(&|k| k.layer == "sim" && k.variant != "reference");
    let mut m = String::from("{");
    field(&mut m, "input.build_s", busy(&|k| k.variant == "input"));
    field(&mut m, "input.instrs", st.input_instrs as f64);
    field(&mut m, "regalloc.busy_s", regalloc_s);
    field(&mut m, "regalloc.calls", st.regalloc_calls as f64);
    field(
        &mut m,
        "regalloc.repeat_calls",
        st.regalloc_repeat_calls as f64,
    );
    field(
        &mut m,
        "regalloc.ms_per_call",
        1e3 * per(regalloc_s, st.regalloc_calls),
    );
    field(&mut m, "regalloc.spilled", st.spilled as f64);
    field(&mut m, "regalloc.coalesced", st.coalesced as f64);
    field(&mut m, "regalloc.rounds", st.rounds as f64);
    field(&mut m, "ccm.busy_s", busy(&|k| k.layer == "ccm"));
    field(&mut m, "ccm.promote_s", promote_s);
    field(&mut m, "ccm.promote_calls", st.promote_calls as f64);
    field(&mut m, "ccm.promoted_slots", st.promoted_slots as f64);
    field(&mut m, "ccm.heavyweight_slots", st.heavyweight_slots as f64);
    field(&mut m, "ccm.degraded_fns", st.degraded_fns as f64);
    field(&mut m, "ccm.integrated_s", integrated_s);
    field(&mut m, "ccm.integrated_calls", st.integrated_calls as f64);
    field(&mut m, "ccm.compact_calls", st.compact_calls as f64);
    // Table 1's convention: nothing to compact reads as ratio 1.
    let ratio = if st.compact_before == 0 {
        1.0
    } else {
        st.compact_after as f64 / st.compact_before as f64
    };
    field(&mut m, "ccm.compact_ratio", ratio);
    field(&mut m, "checker.busy_s", busy(&|k| k.layer == "checker"));
    field(&mut m, "checker.calls", st.checker_calls as f64);
    field(&mut m, "checker.errors", st.checker_errors as f64);
    field(&mut m, "sim.busy_s", sim_s);
    field(&mut m, "sim.runs", st.sim_runs as f64);
    field(&mut m, "sim.instrs", st.sim_instrs as f64);
    field(&mut m, "sim.us_per_run", 1e6 * per(sim_s, st.sim_runs));
    field(
        &mut m,
        "sim.minstr_per_s",
        st.sim_instrs as f64 / 1e6 / sim_s,
    );
    field(&mut m, "gen_cycles", st.gen_cycles as f64);
    field(&mut m, "replay.configs", st.configs as f64);
    field(&mut m, "replay.wall_s", wall);
    field(&mut m, "trace.spans", t.spans.len() as f64);
    field(&mut m, "trace.coverage", t.total_s() / wall);
    field(&mut m, "trace.overhead", tracing_s / (wall - tracing_s));
    m.push('}');
    m
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Seconds one recorded span costs: two clock reads and a push, timed
/// over many empty spans. Two back-to-back replays of the same workload
/// differ by several percent on a shared machine, far more than tracing
/// costs, so the overhead is measured on the recorder itself.
fn span_cost_s() -> f64 {
    const N: u32 = 200_000;
    let mut t = Tracer::new(true);
    let unit = t.unit("calibration");
    let key = Key {
        layer: "trace",
        op: "span",
        unit,
        variant: "none",
        ccm: 0,
    };
    let start = Instant::now();
    for i in 0..N {
        t.span(key, || black_box(i));
    }
    start.elapsed().as_secs_f64() / f64::from(N)
}

fn trace_run(w: Workload, spans_path: &str) {
    let mut t = Tracer::new(true);
    let start = Instant::now();
    let st = replay::replay(w, &mut t);
    let wall = start.elapsed().as_secs_f64();
    let tracing_s = t.spans.len() as f64 * span_cost_s();

    let write = || -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(spans_path)?);
        t.write_jsonl(&mut out)?;
        out.flush()
    };
    if let Err(e) = write() {
        die(&format!("cannot write spans to {spans_path}: {e}"));
    }

    let failures: Vec<String> = st.failures.iter().map(|f| json_string(f)).collect();
    println!(
        "{{\"metrics\":{},\"configs\":{},\"failed\":{},\"failures\":[{}],\"facts\":{}}}",
        layer_metrics(&t, &st, wall, tracing_s),
        st.configs,
        st.failed,
        failures.join(","),
        st.facts
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = parse(&args);
    match a.mode.as_str() {
        "setup" => setup(a.workload),
        _ => trace_run(a.workload, a.spans.as_deref().expect("checked in parse")),
    }
}
