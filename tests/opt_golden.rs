//! Optimizer golden: the scalar pipeline's output, pinned.
//!
//! One FNV-1a digest per (unit, option set), taken over the optimized
//! module's text and every `OptStats` field. The units are the 64 suite
//! kernels under their suite options and again with `licm: true` (the
//! design ablation's path), the 13 linked programs (their text from
//! `suite::build_program`, their stats summed over the member builds),
//! and the fuzz modules `fuzz::case_seed(1, 0..128)` through
//! `opt::optimize_module` with default options. The tables only pin what
//! reaches the allocator in aggregate; this test pins every fold,
//! redundancy and deletion, so a change that only makes the optimizer
//! faster must leave it passing as recorded.
//!
//! The same units are simulated before and after optimization (a program
//! before is its members' raw builds, linked): every one must return the
//! same values, floats by bits, or trap alike.
//!
//! Re-record only for an intended change of optimizer output:
//! `GOLDEN_UPDATE=1 cargo test --release --test opt_golden`.

use std::sync::OnceLock;

use iloc::Module;
use opt::{OptOptions, OptStats};
use sim::{MachineConfig, RetValues, SimError};

const GOLDEN: &str = "tests/opt_golden.txt";

/// FNV-1a over the optimized module's text and every `OptStats` field.
fn digest(m: &Module, s: &OptStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let fields = [
        s.loops_unrolled,
        s.constants_folded,
        s.redundancies_removed,
        s.dead_removed,
        s.peephole_rewrites,
        s.blocks_removed,
        s.hoisted,
    ];
    let stats = fields.iter().flat_map(|&x| (x as u64).to_le_bytes());
    for b in m.to_string().bytes().chain(stats) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn add(total: &mut OptStats, s: OptStats) {
    total.loops_unrolled += s.loops_unrolled;
    total.constants_folded += s.constants_folded;
    total.redundancies_removed += s.redundancies_removed;
    total.dead_removed += s.dead_removed;
    total.peephole_rewrites += s.peephole_rewrites;
    total.blocks_removed += s.blocks_removed;
    total.hoisted += s.hoisted;
}

/// Builds one kernel and optimizes a copy under its own unroll setting and
/// the given LICM choice. Returns the raw module, the optimized module
/// (verified) and the stats.
fn kernel_unit(k: &suite::Kernel, licm: bool) -> (Module, Module, OptStats) {
    let raw = (k.build)();
    let mut m = raw.clone();
    let opts = OptOptions {
        unroll: k.unroll,
        licm,
        ..OptOptions::default()
    };
    let stats = opt::optimize_module(&mut m, &opts);
    m.verify()
        .unwrap_or_else(|e| panic!("kernel {} fails verification: {e}", k.name));
    (raw, m, stats)
}

/// One unit of the golden: how to produce its raw module, its optimized
/// module and its stats.
enum Unit {
    Kernel(suite::Kernel, bool),
    Program(suite::Program),
    Fuzz(usize),
}

impl Unit {
    fn label(&self) -> String {
        match self {
            Unit::Kernel(k, false) => format!("kernel:{} suite", k.name),
            Unit::Kernel(k, true) => format!("kernel:{} licm", k.name),
            Unit::Program(p) => format!("program:{} suite", p.name),
            Unit::Fuzz(i) => format!("fuzz:{i} default"),
        }
    }

    fn optimize(&self) -> Optimized {
        let (raw, optimized, stats) = match self {
            Unit::Kernel(k, licm) => kernel_unit(k, *licm),
            Unit::Program(p) => {
                let mut stats = OptStats::default();
                let mut raw = Vec::new();
                for name in p.members {
                    let k = suite::kernel(name).expect("program members exist");
                    let (r, _, s) = kernel_unit(&k, false);
                    add(&mut stats, s);
                    raw.push(r);
                }
                let raw = suite::build_program_from(p, raw);
                (raw, suite::build_program(p), stats)
            }
            Unit::Fuzz(i) => {
                let raw = fuzz::gen_module(fuzz::case_seed(1, *i));
                let mut m = raw.clone();
                let stats = opt::optimize_module(&mut m, &OptOptions::default());
                m.verify()
                    .unwrap_or_else(|e| panic!("fuzz:{i} fails verification: {e}"));
                (raw, m, stats)
            }
        };
        Optimized {
            label: self.label(),
            raw,
            optimized,
            stats,
        }
    }
}

/// A unit before and after the scalar pipeline.
struct Optimized {
    label: String,
    raw: Module,
    optimized: Module,
    stats: OptStats,
}

/// Every unit in golden order, optimized once for all tests here.
fn units() -> &'static [Optimized] {
    static UNITS: OnceLock<Vec<Optimized>> = OnceLock::new();
    UNITS.get_or_init(|| {
        let kernels = suite::kernels();
        let mut units: Vec<Unit> = kernels
            .iter()
            .map(|k| Unit::Kernel(k.clone(), false))
            .collect();
        units.extend(kernels.iter().map(|k| Unit::Kernel(k.clone(), true)));
        units.extend(suite::programs().into_iter().map(Unit::Program));
        units.extend((0..128).map(Unit::Fuzz));
        exec::par_map_contained(2, &units, Unit::label, Unit::optimize)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e:?}")))
            .collect()
    })
}

/// One `unit options digest` line per optimized unit, in unit order.
fn digest_lines() -> String {
    units()
        .iter()
        .map(|u| format!("{} {:016x}\n", u.label, digest(&u.optimized, &u.stats)))
        .collect()
}

#[test]
fn optimized_units_match_the_recorded_digests() {
    let got = digest_lines();
    assert_eq!(got.lines().count(), 64 * 2 + 13 + 128);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(GOLDEN, &got).expect("write the golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("read the golden file");
    let differing: Vec<&str> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, _)| g)
        .collect();
    assert!(
        differing.is_empty() && got.lines().count() == want.lines().count(),
        "{} of {} optimized units differ from {GOLDEN}; first: {:?}",
        differing.len(),
        got.lines().count(),
        differing.first()
    );
}

/// What a run observably produced: return values with floats by bits,
/// or the trap.
fn outcome(m: &Module) -> Result<(Vec<i64>, Vec<u64>), SimError> {
    sim::run_module(m, MachineConfig::default(), "main")
        .map(|(RetValues { ints, floats }, _)| (ints, floats.iter().map(|f| f.to_bits()).collect()))
}

/// Every pinned unit computes after optimization what it computed
/// before: equal return values (floats by bits) or the same trap.
#[test]
fn optimized_units_compute_what_the_raw_units_compute() {
    let mismatches: Vec<String> = units()
        .iter()
        .filter_map(|u| {
            let (raw, optimized) = (outcome(&u.raw), outcome(&u.optimized));
            (raw != optimized).then(|| format!("{}: raw {raw:?}, optimized {optimized:?}", u.label))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} units changed under optimization: {mismatches:#?}",
        mismatches.len(),
        units().len()
    );
}
