//! Machine-level checks: allocated code must mention only legal physical
//! registers and never read one before it is written.

use analysis::{BitSet, DefinedRegs, RegIndex};
use iloc::{Function, Op, Reg, RegClass};

use crate::{CheckerConfig, Diagnostic};

/// Runs the `machine-vreg`, `machine-reg-bounds`, and `machine-def-use`
/// checks on one allocated function.
pub(crate) fn check(f: &Function, cfg: &CheckerConfig, diags: &mut Vec<Diagnostic>) {
    registers_are_physical(f, cfg, diags);
    def_before_use(f, cfg, diags);
}

/// `machine-vreg` + `machine-reg-bounds`: every register in the function
/// is physical and inside the configuration's allocatable set.
fn registers_are_physical(f: &Function, cfg: &CheckerConfig, diags: &mut Vec<Diagnostic>) {
    for &p in &f.params {
        check_reg(p, f, None, cfg, diags);
    }
    for b in f.block_ids() {
        let label = &f.block(b).label;
        for (i, instr) in f.block(b).instrs.iter().enumerate() {
            // Reports each bad register once per instruction; a valid one
            // never reaches `seen`, so a clean instruction allocates nothing.
            let mut seen: Vec<Reg> = Vec::new();
            let mut visit = |r: Reg| {
                let valid = r.is_physical() && cfg.alloc.is_valid_physical(r);
                if !valid && !seen.contains(&r) {
                    seen.push(r);
                    check_reg(r, f, Some((label, i)), cfg, diags);
                }
            };
            instr.op.visit_uses(&mut visit);
            instr.op.visit_defs(&mut visit);
        }
    }
}

fn check_reg(
    r: Reg,
    f: &Function,
    site: Option<(&str, usize)>,
    cfg: &CheckerConfig,
    diags: &mut Vec<Diagnostic>,
) {
    let d = if r.is_virtual() {
        Diagnostic::error(
            "machine-vreg",
            &f.name,
            format!("virtual register {r} survives allocation"),
        )
    } else if !cfg.alloc.is_valid_physical(r) {
        let k = cfg.alloc.k(r.class());
        Diagnostic::error(
            "machine-reg-bounds",
            &f.name,
            format!(
                "physical register {r} outside the allocatable set ({} K = {k})",
                match r.class() {
                    RegClass::Gpr => "GPR",
                    RegClass::Fpr => "FPR",
                }
            ),
        )
    } else {
        return;
    };
    diags.push(match site {
        Some((label, i)) => d.at(label, i),
        None => d,
    });
}

/// `machine-def-use`: a must-be-defined dataflow pass proving no physical
/// register is read before every path to the read has written it.
fn def_before_use(f: &Function, cfg: &CheckerConfig, diags: &mut Vec<Diagnostic>) {
    let index = RegIndex::build(f);
    if index.is_empty() {
        return;
    }
    let mut kills = cfg.alloc.caller_saved_physical(RegClass::Gpr);
    kills.extend(cfg.alloc.caller_saved_physical(RegClass::Fpr));
    let problem = DefinedRegs::new(f, &index, kills);
    let sol = problem.solve();
    let mut defined = BitSet::new(index.len());
    for b in f.block_ids() {
        let label = &f.block(b).label;
        defined.copy_from_row(sol.in_.row(b.index()));
        for (i, instr) in f.block(b).instrs.iter().enumerate() {
            // φs read along predecessor edges, not at their own site;
            // allocated code should not contain them anyway (SSA is
            // destructed before allocation), so only their def matters.
            if !matches!(instr.op, Op::Phi { .. }) {
                let mut reported: Vec<Reg> = Vec::new();
                instr.op.visit_uses(|r| {
                    if r.is_physical()
                        && index.get(r).is_some_and(|id| !defined.contains(id))
                        && !reported.contains(&r)
                    {
                        reported.push(r);
                        diags.push(
                            Diagnostic::error(
                                "machine-def-use",
                                &f.name,
                                format!("{r} may be read before it is written"),
                            )
                            .at(label, i),
                        );
                    }
                });
            }
            problem.apply(instr, &mut defined);
        }
    }
}
