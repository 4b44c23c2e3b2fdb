//! Quickstart: build a spill-heavy function, allocate registers, promote
//! the spills into a compiler-controlled memory, and measure the saving.
//!
//! Run with: `cargo run --release --example quickstart`

use iloc::builder::FuncBuilder;
use iloc::{Module, RegClass};
use regalloc::AllocConfig;
use sim::MachineConfig;

fn main() {
    // 1. Build a function whose 40 floating-point values are all live at
    //    once — more than the machine's 32 FP registers.
    let width = 40;
    let mut fb = FuncBuilder::new("main");
    fb.set_ret_classes(&[RegClass::Fpr]);
    let vals: Vec<_> = (0..width).map(|i| fb.loadf(i as f64 * 0.25)).collect();
    let mut acc = vals[width - 1];
    for v in vals[..width - 1].iter().rev() {
        acc = fb.fadd(acc, *v);
    }
    fb.ret(&[acc]);
    let mut module = Module::new();
    module.push_function(fb.finish());
    module.verify().expect("well-formed input");

    // 2. Conventional Chaitin-Briggs allocation: spills go to the stack.
    let mut baseline = module.clone();
    let stats = regalloc::allocate_module(&mut baseline, &AllocConfig::default());
    println!("allocator spilled {} live ranges", stats.total_spilled());

    let machine = MachineConfig::with_ccm(512);
    let (v0, m0) = sim::run_module(&baseline, machine.clone(), "main").expect("baseline runs");
    println!(
        "baseline:  {:>6} cycles ({} in memory ops)   result = {}",
        m0.cycles, m0.mem_op_cycles, v0.floats[0]
    );

    // 3. The paper's post-pass CCM allocator: redirect those same spill
    //    instructions into a 512-byte on-chip compiler-controlled memory.
    let mut promoted = baseline.clone();
    let placement = ccm::promote_allocated(&mut promoted, ccm::Variant::PostPassCallGraph, 512);
    let promo = &placement.functions()[0];
    println!(
        "post-pass promoted {} spill slots into the CCM (high water {} bytes)",
        promo.promoted, promo.high_water
    );

    let (v1, m1) = sim::run_module(&promoted, machine.clone(), "main").expect("promoted runs");
    println!(
        "with CCM:  {:>6} cycles ({} in memory ops)   result = {}",
        m1.cycles, m1.mem_op_cycles, v1.floats[0]
    );
    assert_eq!(v0, v1, "promotion must preserve results");

    // 4. Or the integrated allocator (§3.2), which puts each spill in the
    //    CCM as it inserts it: the same spills, placed in spill order.
    let mut integrated = baseline.clone();
    let placement = ccm::promote_allocated(&mut integrated, ccm::Variant::Integrated, 512);
    let integ = &placement.functions()[0];
    let (v2, m2) = sim::run_module(&integrated, machine, "main").expect("integrated runs");
    println!(
        "integrated: {:>5} cycles, {} spills in CCM, {} heavyweight   result = {}",
        m2.cycles, integ.promoted, integ.heavyweight, v2.floats[0]
    );
    assert_eq!(v0, v2);

    println!(
        "\nspeedup from CCM spilling: {:.1}% of cycles, {:.1}% of memory-op cycles",
        100.0 * (1.0 - m1.cycles as f64 / m0.cycles as f64),
        100.0 * (1.0 - m1.mem_op_cycles as f64 / m0.mem_op_cycles as f64),
    );
}
