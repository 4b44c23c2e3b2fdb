//! Property-based round-trip tests for the textual IR format: printing
//! any generated module and parsing it back yields a structurally equal
//! module with identical behavior.

mod common;
#[path = "common/stmts.rs"]
mod stmts;

use common::{Case, Rng};
use iloc::Module;
use stmts::{arb_stmts, build_module, run_checksum};

/// Generated programs per property.
const CASES: usize = 96;

/// Prints `m`, parses the text back, and asserts the result equals `m`.
fn round_trip(m: &Module) -> Module {
    let text = m.to_string();
    let parsed = iloc::parse_module(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
    assert!(parsed == *m, "re-parsed module differs from:\n{text}");
    parsed
}

#[test]
fn print_parse_round_trip() {
    for case in 0..CASES {
        let m = build_module(&arb_stmts(&mut Rng::for_case(case)));
        let _case = Case::new(case, &m);
        let parsed = round_trip(&m);
        // And behavior is of course identical.
        assert_eq!(run_checksum(&m), run_checksum(&parsed));
    }
}

/// Round trip survives a full allocation pipeline (spill tags, slot
/// declarations, CCM instructions all make it through the text form).
#[test]
fn allocated_module_round_trips() {
    for case in 0..CASES {
        let m = build_module(&arb_stmts(&mut Rng::for_case(case)));
        let _case = Case::new(case, &m);
        let mut a = m.clone();
        regalloc::allocate_module(&mut a, &regalloc::AllocConfig::tiny(3));
        ccm::promote_allocated(&mut a, ccm::Variant::PostPassCallGraph, 64);
        let parsed = round_trip(&a);
        assert_eq!(run_checksum(&a), run_checksum(&parsed));
    }
}

/// Parsing is total on printer output even after optimization.
#[test]
fn optimized_module_round_trips() {
    for case in 0..CASES {
        let m = build_module(&arb_stmts(&mut Rng::for_case(case)));
        let _case = Case::new(case, &m);
        let mut o = m.clone();
        opt::optimize_module(&mut o, &opt::OptOptions::default());
        round_trip(&o);
    }
}

/// The differential fuzzer's generator hits far more of the surface
/// than `arb_stmts` (irreducible CFGs, multi-function calls, CCM-load
/// negative-offset addressing, f64 globals): its modules must also
/// survive the printer/parser round trip exactly.
#[test]
fn fuzz_generated_module_round_trips() {
    for case in 0..CASES {
        let m = fuzz::gen_module(Rng::for_case(case).next_u64());
        let _case = Case::new(case, &m);
        round_trip(&m);
    }
}
