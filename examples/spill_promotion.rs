//! Spill promotion, instruction by instruction: compile a real suite
//! kernel and print its code before and after the post-pass CCM
//! allocator rewrites the spill instructions, then show the
//! interprocedural high-water-mark convention on a whole program.
//!
//! Run with: `cargo run --release --example spill_promotion`

use iloc::SpillKind;
use regalloc::AllocConfig;
use sim::MachineConfig;

fn main() {
    // Compile the radf5 kernel (FFTPACK radix-5 butterfly analog).
    let k = suite::kernel("radf5").expect("kernel exists");
    let mut m = suite::build_optimized(&k);
    regalloc::allocate_module(&mut m, &AllocConfig::default());

    // Show a window of spill code from the butterfly routine.
    let pass = m.function("pass").expect("routine exists");
    println!("== spill code in `pass` before promotion ==");
    let mut shown = 0;
    'outer: for b in &pass.blocks {
        for i in &b.instrs {
            if i.spill != SpillKind::None {
                println!("    {}", iloc::print::format_instr(pass, i));
                shown += 1;
                if shown >= 8 {
                    break 'outer;
                }
            }
        }
    }
    println!(
        "  ({} spill instructions total, {} bytes of stack spill space)\n",
        pass.spill_instr_count(),
        pass.frame.spill_bytes()
    );

    // Run the post-pass allocator with a 512-byte CCM.
    let mut promoted = m.clone();
    let placement = ccm::promote_allocated(&mut promoted, ccm::Variant::PostPassCallGraph, 512);
    let pass2 = promoted.function("pass").expect("routine exists");
    println!("== the same instructions after promotion ==");
    let mut shown = 0;
    'outer2: for b in &pass2.blocks {
        for i in &b.instrs {
            if i.spill != SpillKind::None {
                println!("    {}", iloc::print::format_instr(pass2, i));
                shown += 1;
                if shown >= 8 {
                    break 'outer2;
                }
            }
        }
    }
    for s in placement.functions() {
        if s.promoted + s.heavyweight > 0 {
            println!(
                "  {}: {} slots promoted, {} heavyweight, CCM high water {} bytes",
                s.name, s.promoted, s.heavyweight, s.high_water
            );
        }
    }

    // Measure the effect.
    let machine = MachineConfig::with_ccm(512);
    let (v0, m0) = sim::run_module(&m, machine.clone(), "main").expect("baseline");
    let (v1, m1) = sim::run_module(&promoted, machine, "main").expect("promoted");
    assert_eq!(v0, v1);
    println!(
        "\ncycles: {} -> {} ({:.1}% faster); memory-op cycles: {} -> {}",
        m0.cycles,
        m1.cycles,
        100.0 * (1.0 - m1.cycles as f64 / m0.cycles as f64),
        m0.mem_op_cycles,
        m1.mem_op_cycles
    );

    // Interprocedural convention on a whole program: callees get the
    // bottom of the CCM, callers place call-crossing slots above their
    // callees' high-water marks.
    println!("\n== interprocedural high-water marks (program `turb3d`) ==");
    let p = suite::program("turb3d").expect("program exists");
    let mut pm = suite::build_program(&p);
    regalloc::allocate_module(&mut pm, &AllocConfig::default());
    let placement = ccm::promote_allocated(&mut pm, ccm::Variant::PostPassCallGraph, 512);
    for s in placement
        .functions()
        .iter()
        .filter(|s| s.promoted > 0)
        .take(12)
    {
        println!(
            "  {:<22} promoted {:>3}  heavyweight {:>3}  high water {:>4} B",
            s.name, s.promoted, s.heavyweight, s.high_water
        );
    }
}
