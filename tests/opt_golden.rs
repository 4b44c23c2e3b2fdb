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
//! Re-record only for an intended change of optimizer output:
//! `GOLDEN_UPDATE=1 cargo test --release --test opt_golden`.

use iloc::Module;
use opt::{OptOptions, OptStats};

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

/// Builds and optimizes one kernel under its own unroll setting and the
/// given LICM choice; the module is verified before it is returned.
fn kernel_unit(k: &suite::Kernel, licm: bool) -> (Module, OptStats) {
    let mut m = (k.build)();
    let opts = OptOptions {
        unroll: k.unroll,
        licm,
        ..OptOptions::default()
    };
    let stats = opt::optimize_module(&mut m, &opts);
    m.verify()
        .unwrap_or_else(|e| panic!("kernel {} fails verification: {e}", k.name));
    (m, stats)
}

/// One unit of the golden: how to produce its optimized module and stats.
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

    fn optimize(&self) -> (Module, OptStats) {
        match self {
            Unit::Kernel(k, licm) => kernel_unit(k, *licm),
            Unit::Program(p) => {
                let mut stats = OptStats::default();
                for name in p.members {
                    let k = suite::kernel(name).expect("program members exist");
                    add(&mut stats, kernel_unit(&k, false).1);
                }
                (suite::build_program(p), stats)
            }
            Unit::Fuzz(i) => {
                let mut m = fuzz::gen_module(fuzz::case_seed(1, *i));
                let stats = opt::optimize_module(&mut m, &OptOptions::default());
                m.verify()
                    .unwrap_or_else(|e| panic!("fuzz:{i} fails verification: {e}"));
                (m, stats)
            }
        }
    }
}

/// One `unit options digest` line per optimized unit, in unit order.
fn digest_lines() -> String {
    let kernels = suite::kernels();
    let mut units: Vec<Unit> = kernels
        .iter()
        .map(|k| Unit::Kernel(k.clone(), false))
        .collect();
    units.extend(kernels.iter().map(|k| Unit::Kernel(k.clone(), true)));
    units.extend(suite::programs().into_iter().map(Unit::Program));
    units.extend((0..128).map(Unit::Fuzz));
    let lines = exec::par_map_contained(2, &units, Unit::label, |u| {
        let (m, stats) = u.optimize();
        format!("{} {:016x}\n", u.label(), digest(&m, &stats))
    });
    lines
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e:?}")))
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
