//! Drive the pipeline from textual ILOC: parse `assets/dotprod.iloc`,
//! optimize, allocate under register pressure, promote spills to the CCM,
//! and execute — comparing against the expected dot product.
//!
//! Run with: `cargo run --release --example from_text`

use regalloc::AllocConfig;
use sim::MachineConfig;

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/assets/dotprod.iloc");
    let text = std::fs::read_to_string(path).expect("asset exists");
    let mut m = iloc::parse_module(&text).expect("parses");
    m.verify().expect("verifies");
    println!(
        "parsed {} functions, {} instructions",
        m.functions.len(),
        m.instr_count()
    );

    opt::optimize_module(&mut m, &opt::OptOptions::default());
    println!("after optimization: {} instructions", m.instr_count());

    // Allocate with only 4 registers per class so the kernel spills, then
    // promote into a small CCM.
    let cfg = AllocConfig::tiny(4);
    let stats = regalloc::allocate_module(&mut m, &cfg);
    println!(
        "spilled {} live ranges under 4 registers/class",
        stats.total_spilled()
    );
    assert!(stats.total_spilled() > 0, "the unrolled loop must spill");
    let placement = ccm::promote_allocated(&mut m, ccm::Variant::PostPassCallGraph, 256);
    let promoted: usize = placement.functions().iter().map(|p| p.promoted).sum();
    println!("promoted {promoted} spill slots into a 256-byte CCM");

    let (vals, metrics) = sim::run_module(&m, MachineConfig::with_ccm(256), "main").expect("runs");
    // Σ_{i<32} (i·0.5)·2.0 = Σ i = 496.
    println!(
        "dot product = {} ({} cycles, {} CCM ops)",
        vals.floats[0], metrics.cycles, metrics.ccm_ops
    );
    assert_eq!(vals.floats[0], 496.0);
}
