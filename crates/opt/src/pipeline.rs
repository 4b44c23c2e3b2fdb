//! Pass management and the standard optimization pipeline.
//!
//! The paper's input routines were "subjected to extensive scalar
//! optimization, including global value numbering, global constant
//! propagation, global dead-code elimination, partial redundancy
//! elimination, and peephole optimization". [`optimize_function`] applies
//! the analogous pipeline here so the spills measured downstream are
//! allocator-induced rather than artifacts of naive code generation.
//!
//! Every pass keys its per-register state by a dense
//! [`analysis::RegMap`]; the final dead-def sweep counts uses in one.

use iloc::{Function, Module};

use crate::dce::dce;
use crate::gvn::gvn;
use crate::peephole::peephole;
use crate::sccp::sccp;
use crate::unroll::unroll_loops;

/// Options controlling the pipeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct OptOptions {
    /// Unroll factor applied to canonical counted loops before the scalar
    /// passes; `None` disables unrolling. This is the register-pressure
    /// transformation standing in for the paper's prefetch-oriented loop
    /// transformations (routines so transformed carry an `X` suffix).
    pub unroll: Option<u32>,
    /// Maximum number of SCCP→GVN→DCE rounds (the pipeline stops early
    /// when a round changes nothing).
    pub max_rounds: u32,
    /// Run loop-invariant code motion after the scalar rounds. Off by
    /// default: LICM lengthens live ranges across loops, substantially
    /// raising register pressure — the harness ablates this choice.
    pub licm: bool,
}

impl Default for OptOptions {
    fn default() -> OptOptions {
        OptOptions {
            unroll: None,
            max_rounds: 3,
            licm: false,
        }
    }
}

/// Statistics from one pipeline run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Loops unrolled.
    pub loops_unrolled: usize,
    /// Instructions constant-folded by SCCP.
    pub constants_folded: usize,
    /// Redundancies removed by GVN.
    pub redundancies_removed: usize,
    /// Instructions deleted by DCE.
    pub dead_removed: usize,
    /// Peephole rewrites.
    pub peephole_rewrites: usize,
    /// Unreachable blocks deleted.
    pub blocks_removed: usize,
    /// Instructions hoisted by LICM.
    pub hoisted: usize,
}

/// Runs the standard scalar pipeline over one function:
/// optional unrolling, then iterated SSA-based SCCP + GVN + DCE, then
/// peephole and CFG cleanup, finishing in non-SSA form.
pub fn optimize_function(f: &mut Function, opts: &OptOptions) -> OptStats {
    let mut stats = OptStats::default();

    if let Some(factor) = opts.unroll {
        stats.loops_unrolled = unroll_loops(f, factor);
    }

    analysis::to_ssa(f);
    for _ in 0..opts.max_rounds {
        let folded = sccp(f);
        let redundant = gvn(f);
        let dead = dce(f);
        stats.constants_folded += folded;
        stats.redundancies_removed += redundant;
        stats.dead_removed += dead;
        stats.blocks_removed += f.prune_unreachable();
        if folded + redundant + dead == 0 {
            break;
        }
    }
    if opts.licm {
        stats.hoisted = crate::licm::licm(f);
    }
    analysis::from_ssa(f);

    stats.peephole_rewrites = peephole(f);
    // Peephole may create dead `loadI`s (e.g. after strength reduction the
    // original constant may be unused); a final sweep is cheap. The code
    // is out of SSA, so run a conservative local cleanup: remove register
    // defs with no uses anywhere that DCE could remove too.
    let mut uses = analysis::RegMap::for_function(f, 0u32);
    for b in &f.blocks {
        for i in &b.instrs {
            i.op.visit_uses(|r| uses[r] += 1);
        }
    }
    stats.dead_removed += f.remove_instrs(|i| {
        if !i.op.removable_if_unused() {
            return false;
        }
        let (mut defs, mut used) = (0, false);
        i.op.visit_defs(|d| {
            defs += 1;
            used |= uses[d] > 0;
        });
        defs > 0 && !used
    });

    stats
}

/// Runs [`optimize_function`] over every function in the module.
pub fn optimize_module(m: &mut Module, opts: &OptOptions) -> OptStats {
    let mut total = OptStats::default();
    for f in &mut m.functions {
        let s = optimize_function(f, opts);
        total.loops_unrolled += s.loops_unrolled;
        total.constants_folded += s.constants_folded;
        total.redundancies_removed += s.redundancies_removed;
        total.dead_removed += s.dead_removed;
        total.peephole_rewrites += s.peephole_rewrites;
        total.blocks_removed += s.blocks_removed;
        total.hoisted += s.hoisted;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{verify_function, Op, RegClass};

    #[test]
    fn pipeline_shrinks_redundant_code_and_verifies() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let p = fb.param(RegClass::Gpr);
        let a = fb.loadi(21);
        let b = fb.loadi(21);
        let c = fb.add(a, b); // folds to 42
        let d = fb.add(p, c);
        let e = fb.add(p, c); // redundant with d
        let r = fb.add(d, e);
        let _dead = fb.mult(r, r);
        fb.ret(&[r]);
        let mut f = fb.finish();
        let before = f.instr_count();
        let stats = optimize_function(&mut f, &OptOptions::default());
        verify_function(&f).unwrap();
        assert!(f.instr_count() < before);
        assert!(stats.constants_folded > 0);
        assert!(stats.dead_removed > 0);
    }

    #[test]
    fn pipeline_with_unrolling_replicates_body() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let acc = fb.vreg(RegClass::Fpr);
        fb.emit(Op::LoadF { imm: 0.0, dst: acc });
        fb.counted_loop(0, 16, 1, |fb, iv| {
            let x = fb.i2f(iv);
            let t = fb.fadd(acc, x);
            fb.emit(Op::F2F { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        let mut f = fb.finish();
        let stats = optimize_function(
            &mut f,
            &OptOptions {
                unroll: Some(4),
                ..OptOptions::default()
            },
        );
        verify_function(&f).unwrap();
        assert_eq!(stats.loops_unrolled, 1);
    }

    #[test]
    fn pipeline_leaves_no_phis() {
        let mut fb = FuncBuilder::new("f");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 0, dst: acc });
        fb.counted_loop(0, 10, 1, |fb, iv| {
            let t = fb.add(acc, iv);
            fb.emit(Op::I2I { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        let mut f = fb.finish();
        optimize_function(&mut f, &OptOptions::default());
        verify_function(&f).unwrap();
        for b in &f.blocks {
            for i in &b.instrs {
                assert!(!matches!(i.op, Op::Phi { .. }));
            }
        }
    }
}
