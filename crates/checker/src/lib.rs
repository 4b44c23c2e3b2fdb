#![warn(missing_docs)]
//! Post-allocation static checker.
//!
//! After register allocation (and optionally CCM promotion), a module
//! must satisfy invariants that the structural verifier in `iloc` does
//! not know about: no virtual registers remain, physical registers stay
//! within the machine's per-class supply and are written before read,
//! spill slots are addressed exactly as their frame records say, spill
//! restores are dominated by stores, compacted slots never share bytes
//! while simultaneously live, and CCM placement obeys the bounds and the
//! interprocedural high-water discipline of the paper's Figure 1.
//!
//! [`check_module`] runs all of those as dataflow-backed passes and
//! returns structured [`Diagnostic`]s — renderable as text or JSON — so
//! the harness can refuse to simulate ill-formed output and tools can
//! point at the offending function/block/instruction.
//!
//! # Check identifiers
//!
//! | check | severity | meaning |
//! |---|---|---|
//! | `structure` | error | the `iloc` structural verifier failed |
//! | `machine-vreg` | error | a virtual register survives allocation |
//! | `machine-reg-bounds` | error | physical register outside the allocatable set |
//! | `machine-def-use` | error | physical register read before written on some path |
//! | `slot-frame` | error | spill access disagrees with its slot record |
//! | `slot-undef-load` | error | restore without a dominating store |
//! | `slot-dead-store` | warning | spill store never restored |
//! | `slot-overlap` | error | interfering slots share storage bytes |
//! | `ccm-bounds` | error | CCM access or slot outside the scratchpad |
//! | `ccm-mark` | error | CCM access not accounted to a CCM-resident slot |
//! | `ccm-high-water` | warning | CCM slot recorded but never accessed |
//! | `ccm-interproc` | error | CCM value below a callee's high-water mark |
//!
//! # Example
//!
//! ```
//! use iloc::builder::FuncBuilder;
//! use regalloc::AllocConfig;
//!
//! let mut fb = FuncBuilder::new("main");
//! fb.set_ret_classes(&[iloc::RegClass::Gpr]);
//! let vals: Vec<_> = (0..12).map(|i| fb.loadi(i)).collect();
//! let mut acc = vals[11];
//! for v in vals[..11].iter().rev() {
//!     acc = fb.add(acc, *v);
//! }
//! fb.ret(&[acc]);
//! let mut m = iloc::Module::new();
//! m.push_function(fb.finish());
//!
//! let alloc = AllocConfig::tiny(4);
//! regalloc::allocate_module(&mut m, &alloc);
//! let cfg = checker::CheckerConfig::with_alloc(512, alloc);
//! let diags = checker::check_module(&m, &cfg);
//! assert!(!checker::has_errors(&diags));
//! ```

use ccm::SlotAnalysis;
use iloc::Module;
use regalloc::AllocConfig;

mod ccm_safety;
mod diag;
mod machine;
mod slots;

pub use diag::{json_string, render_json, render_text, Diagnostic, Severity};

/// What the checker assumes about the machine and the allocation run.
#[derive(Copy, Clone, Debug)]
pub struct CheckerConfig {
    /// Compiler-controlled memory size in bytes.
    pub ccm_size: u32,
    /// The register-allocation configuration the module was produced
    /// under (register supply, caller-saved convention).
    pub alloc: AllocConfig,
}

impl CheckerConfig {
    /// A configuration for the paper's default machine with a CCM of
    /// `ccm_size` bytes.
    pub fn new(ccm_size: u32) -> CheckerConfig {
        CheckerConfig {
            ccm_size,
            alloc: AllocConfig::default(),
        }
    }

    /// A configuration with an explicit allocator setup (tests use tiny
    /// register files to force spilling).
    pub fn with_alloc(ccm_size: u32, alloc: AllocConfig) -> CheckerConfig {
        CheckerConfig { ccm_size, alloc }
    }
}

/// Runs every check on an allocated module and returns the findings in
/// pass order (structural, machine, slots, CCM).
pub fn check_module(m: &Module, cfg: &CheckerConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if inject::faultpoint!("checker.forced_error") {
        diags.push(Diagnostic::error(
            "injected",
            m.functions.first().map(|f| f.name.as_str()).unwrap_or(""),
            "injected checker error".to_string(),
        ));
    }
    if let Err(e) = m.verify() {
        diags.push(Diagnostic::error("structure", &e.function, e.message));
    }
    let analyses: Vec<SlotAnalysis> = m.functions.iter().map(SlotAnalysis::compute).collect();
    for (f, sa) in m.functions.iter().zip(&analyses) {
        machine::check(f, cfg, &mut diags);
        slots::check(f, sa, cfg, &mut diags);
    }
    ccm_safety::check(m, &analyses, cfg, &mut diags);
    diags
}

/// Whether any diagnostic is [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// The diagnostics of [`Severity::Error`], in order.
pub fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

/// The one-line summary of a rejected module,
/// `"N checker error(s); first: <diagnostic>"`, or `None` when no
/// diagnostic has [`Severity::Error`].
pub fn error_summary(diags: &[Diagnostic]) -> Option<String> {
    let errors = errors(diags);
    let first = errors.first()?;
    Some(format!("{} checker error(s); first: {first}", errors.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{Instr, Op, Reg, RegClass, SpillKind};
    use regalloc::AllocConfig;

    /// A module big enough to spill under a 3-register file, allocated
    /// as `variant` with a 512-byte CCM.
    fn spilled_module(variant: ccm::Variant) -> (Module, AllocConfig) {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let vals: Vec<_> = (0..16).map(|i| fb.loadi(i)).collect();
        let mut acc = vals[15];
        for v in vals[..15].iter().rev() {
            acc = fb.add(acc, *v);
        }
        fb.ret(&[acc]);
        let mut m = Module::new();
        m.push_function(fb.finish());
        let alloc = AllocConfig::tiny(3);
        ccm::allocate_variant(&mut m, variant, 512, &alloc);
        (m, alloc)
    }

    #[test]
    fn honest_allocation_has_no_errors() {
        let (m, alloc) = spilled_module(ccm::Variant::Baseline);
        let diags = check_module(&m, &CheckerConfig::with_alloc(512, alloc));
        assert!(!has_errors(&diags), "{}", render_text(&diags));
        assert_eq!(error_summary(&diags), None);
    }

    #[test]
    fn honest_promotion_has_no_errors() {
        let (m, alloc) = spilled_module(ccm::Variant::PostPassCallGraph);
        let diags = check_module(&m, &CheckerConfig::with_alloc(512, alloc));
        assert!(!has_errors(&diags), "{}", render_text(&diags));
    }

    #[test]
    fn surviving_vreg_is_reported() {
        let (mut m, alloc) = spilled_module(ccm::Variant::Baseline);
        let f = &mut m.functions[0];
        let e = f.entry();
        let v = Reg::new(RegClass::Gpr, iloc::FIRST_VREG);
        f.block_mut(e)
            .instrs
            .insert(0, Instr::new(Op::LoadI { imm: 1, dst: v }));
        let diags = check_module(&m, &CheckerConfig::with_alloc(512, alloc));
        assert!(diags.iter().any(|d| d.check == "machine-vreg"));
        let first = errors(&diags)[0].to_string();
        let summary = error_summary(&diags).expect("errors summarize");
        assert!(summary.ends_with(&format!("checker error(s); first: {first}")));
    }

    #[test]
    fn undefined_slot_load_is_reported() {
        let (mut m, alloc) = spilled_module(ccm::Variant::Baseline);
        // Delete the first spill store: its slot's restores lose their
        // dominating definition.
        let f = &mut m.functions[0];
        'outer: for b in 0..f.blocks.len() {
            let instrs = &mut f.blocks[b].instrs;
            for i in 0..instrs.len() {
                if matches!(instrs[i].spill, SpillKind::Store(_)) {
                    instrs.remove(i);
                    break 'outer;
                }
            }
        }
        let diags = check_module(&m, &CheckerConfig::with_alloc(512, alloc));
        assert!(
            diags.iter().any(|d| d.check == "slot-undef-load"),
            "{}",
            render_text(&diags)
        );
    }

    #[test]
    fn json_round_trips_the_fields() {
        let (mut m, alloc) = spilled_module(ccm::Variant::Baseline);
        let f = &mut m.functions[0];
        let e = f.entry();
        let v = Reg::new(RegClass::Gpr, iloc::FIRST_VREG);
        f.block_mut(e)
            .instrs
            .insert(0, Instr::new(Op::LoadI { imm: 1, dst: v }));
        let diags = check_module(&m, &CheckerConfig::with_alloc(512, alloc));
        let json = render_json(&diags);
        assert!(json.contains("\"check\":\"machine-vreg\""));
        assert!(json.contains("\"function\":\"main\""));
    }
}
