//! Automatic test-case minimization.
//!
//! [`minimize`] takes a module the oracle rejects and greedily shrinks
//! it while the *same bug* (same [`FailureKind`](crate::FailureKind)
//! and variant, per [`Failure::same_bug`]) still reproduces. Reduction
//! passes run coarse-to-fine, each to a fixpoint, and the whole ladder
//! repeats until no pass makes progress:
//!
//! 1. **Drop functions** — replace every call to a helper with constant
//!    zero definitions of its return registers, then delete it;
//! 2. **Drop blocks** — resolve a `cbr` to one of its targets (`jump`)
//!    and prune the unreachable half of the CFG, then thread edges
//!    through blocks left holding nothing but a `jump`;
//! 3. **Drop ops** — delete non-terminator instructions, first in
//!    halving chunks per block, then singly. Deleting an instruction
//!    whose result is still used downstream leaves a read of a register
//!    with no definition — the checker's def-before-use analysis then
//!    rejects the *baseline* allocation, changing the failure signature
//!    and blocking the shrink. When plain deletion is rejected, the pass
//!    retries with each dropped definition stubbed as `loadI 0` /
//!    `loadF 0.0`, which keeps every candidate checker-clean; stubs whose
//!    uses disappear later are plain-deleted by a subsequent round;
//! 4. **Shrink globals** — halve data sizes and delete unreferenced
//!    globals.
//!
//! Every candidate must still pass `Module::verify` — the oracle's
//! preconditions — before it is accepted, so a minimized reproducer is
//! always a well-formed program the harness can replay from its printed
//! ILOC form.
//!
//! Minimization runs a *focused* oracle: only the failing variant at the
//! failing CCM size (plus the baseline reference), which cuts shrink
//! time by roughly the variant-count × size-count product.

use iloc::{BlockId, Instr, Module, Op};

use crate::oracle::{run_oracle, Failure, OracleConfig};

/// Shrinks `m` to a smaller module that still fails the oracle with the
/// same bug. Returns the minimized module and its failure, or `None` if
/// `m` passes the oracle under `cfg` (nothing to minimize).
pub fn minimize(m: &Module, cfg: &OracleConfig) -> Option<(Module, Failure)> {
    let orig = run_oracle(m, cfg).err()?;
    // Focus the oracle on the failing configuration.
    let focused = OracleConfig {
        ccm_sizes: vec![orig.ccm],
        variants: vec![orig.variant],
        ..cfg.clone()
    };
    let still_fails = |cand: &Module| -> Option<Failure> {
        if cand.verify().is_err() {
            return None;
        }
        run_oracle(cand, &focused)
            .err()
            .filter(|f| f.same_bug(&orig))
    };
    let mut cur = m.clone();
    let mut cur_fail = still_fails(&cur)?; // focused run must agree
    loop {
        let mut progress = false;
        progress |= drop_functions(&mut cur, &mut cur_fail, &still_fails);
        progress |= drop_blocks(&mut cur, &mut cur_fail, &still_fails);
        progress |= thread_jumps(&mut cur, &mut cur_fail, &still_fails);
        progress |= drop_ops(&mut cur, &mut cur_fail, &still_fails);
        progress |= shrink_globals(&mut cur, &mut cur_fail, &still_fails);
        if !progress {
            break;
        }
    }
    Some((cur, cur_fail))
}

/// Accepts `cand` if it still fails with the same bug, updating
/// `cur`/`fail` and returning true.
fn try_accept(
    cur: &mut Module,
    fail: &mut Failure,
    cand: Module,
    still_fails: &impl Fn(&Module) -> Option<Failure>,
) -> bool {
    if let Some(f) = still_fails(&cand) {
        *cur = cand;
        *fail = f;
        true
    } else {
        false
    }
}

/// Replaces every `call name(...)` with `loadI 0` / `loadF 0.0` into the
/// call's return registers.
fn stub_calls(m: &mut Module, name: &str) {
    for f in &mut m.functions {
        for b in &mut f.blocks {
            let mut out = Vec::with_capacity(b.instrs.len());
            for i in b.instrs.drain(..) {
                match &i.op {
                    Op::Call(call) if call.callee == name => {
                        for &r in &call.rets {
                            out.push(Instr::new(match r.class() {
                                iloc::RegClass::Gpr => Op::LoadI { imm: 0, dst: r },
                                iloc::RegClass::Fpr => Op::LoadF { imm: 0.0, dst: r },
                            }));
                        }
                    }
                    _ => out.push(i),
                }
            }
            b.instrs = out;
        }
    }
}

fn drop_functions(
    cur: &mut Module,
    fail: &mut Failure,
    still_fails: &impl Fn(&Module) -> Option<Failure>,
) -> bool {
    let mut progress = false;
    loop {
        let names: Vec<String> = cur
            .functions
            .iter()
            .map(|f| f.name.clone())
            .filter(|n| n != "main")
            .collect();
        let mut dropped = false;
        for name in names {
            let mut cand = cur.clone();
            stub_calls(&mut cand, &name);
            cand.functions.retain(|f| f.name != name);
            if try_accept(cur, fail, cand, still_fails) {
                dropped = true;
                progress = true;
            }
        }
        if !dropped {
            break;
        }
    }
    progress
}

fn drop_blocks(
    cur: &mut Module,
    fail: &mut Failure,
    still_fails: &impl Fn(&Module) -> Option<Failure>,
) -> bool {
    let mut progress = false;
    loop {
        let mut changed = false;
        for fi in 0..cur.functions.len() {
            for bi in 0..cur.functions[fi].blocks.len() {
                let Some(Op::Cbr {
                    taken, not_taken, ..
                }) = cur.functions[fi].blocks[bi].terminator().cloned()
                else {
                    continue;
                };
                for target in [taken, not_taken] {
                    let mut cand = cur.clone();
                    let f = &mut cand.functions[fi];
                    let n = f.blocks[bi].instrs.len();
                    f.blocks[bi].instrs[n - 1] = Instr::new(Op::Jump { target });
                    f.prune_unreachable();
                    if try_accept(cur, fail, cand, still_fails) {
                        changed = true;
                        progress = true;
                        break; // block indices shifted; rescan
                    }
                }
                if changed {
                    break;
                }
            }
            if changed {
                break;
            }
        }
        if !changed {
            break;
        }
    }
    progress
}

/// Bypasses blocks that consist of a single unconditional `jump`: every
/// edge into such a block is retargeted to its successor and the (now
/// unreachable) trampoline pruned. `drop_blocks` and `drop_ops` leave
/// these behind when they hollow out loop scaffolding.
fn thread_jumps(
    cur: &mut Module,
    fail: &mut Failure,
    still_fails: &impl Fn(&Module) -> Option<Failure>,
) -> bool {
    let mut progress = false;
    loop {
        let mut changed = false;
        'scan: for fi in 0..cur.functions.len() {
            // The entry block stays: it defines the function's start.
            for bi in 1..cur.functions[fi].blocks.len() {
                let b = &cur.functions[fi].blocks[bi];
                let Some(Op::Jump { target }) = (b.instrs.len() == 1)
                    .then(|| b.terminator())
                    .flatten()
                    .cloned()
                else {
                    continue;
                };
                let this = BlockId(bi as u32);
                if target == this {
                    continue;
                }
                let mut cand = cur.clone();
                for blk in &mut cand.functions[fi].blocks {
                    if let Some(t) = blk.terminator_mut() {
                        t.map_successors(|s| if s == this { target } else { s });
                    }
                }
                cand.functions[fi].prune_unreachable();
                if try_accept(cur, fail, cand, still_fails) {
                    changed = true;
                    progress = true;
                    break 'scan; // block ids shifted; rescan
                }
            }
        }
        if !changed {
            break;
        }
    }
    progress
}

/// Constant zero definitions standing in for `instrs`' defs. Splicing
/// these in place of deleted instructions keeps every downstream use
/// defined, so the baseline allocation stays checker-clean and the
/// failure signature is preserved.
fn stub_defs(instrs: &[Instr]) -> Vec<Instr> {
    let mut out = Vec::new();
    for i in instrs {
        i.op.visit_defs(|r| {
            out.push(Instr::new(match r.class() {
                iloc::RegClass::Gpr => Op::LoadI { imm: 0, dst: r },
                iloc::RegClass::Fpr => Op::LoadF { imm: 0.0, dst: r },
            }));
        });
    }
    out
}

fn drop_ops(
    cur: &mut Module,
    fail: &mut Failure,
    still_fails: &impl Fn(&Module) -> Option<Failure>,
) -> bool {
    let mut progress = false;
    for fi in 0..cur.functions.len() {
        for bi in 0..cur.functions[fi].blocks.len() {
            // Halving chunks, then singles (ddmin-style), over the
            // non-terminator prefix of the block.
            let mut chunk = cur.functions[fi].blocks[bi]
                .instrs
                .len()
                .saturating_sub(1)
                .max(1);
            while chunk >= 1 {
                let mut start = 0;
                loop {
                    let body_len = {
                        let b = &cur.functions[fi].blocks[bi];
                        let has_term = b.terminator().is_some();
                        b.instrs.len() - usize::from(has_term)
                    };
                    if start >= body_len {
                        break;
                    }
                    let end = (start + chunk).min(body_len);
                    let mut cand = cur.clone();
                    cand.functions[fi].blocks[bi].instrs.drain(start..end);
                    if try_accept(cur, fail, cand, still_fails) {
                        progress = true;
                        continue; // same start: the block shrank under us
                    }
                    // Deletion may strand a use of a register defined only
                    // in [start, end); retry with the defs stubbed to
                    // constants (skipping the no-op case where the range
                    // already is exactly its own stubs).
                    let stubs = stub_defs(&cur.functions[fi].blocks[bi].instrs[start..end]);
                    if stubs[..] != cur.functions[fi].blocks[bi].instrs[start..end] {
                        let mut cand = cur.clone();
                        cand.functions[fi].blocks[bi]
                            .instrs
                            .splice(start..end, stubs.iter().cloned());
                        if try_accept(cur, fail, cand, still_fails) {
                            progress = true;
                            start += stubs.len();
                            continue;
                        }
                    }
                    start = end;
                }
                if chunk == 1 {
                    break;
                }
                chunk /= 2;
            }
        }
    }
    progress
}

fn shrink_globals(
    cur: &mut Module,
    fail: &mut Failure,
    still_fails: &impl Fn(&Module) -> Option<Failure>,
) -> bool {
    let mut progress = false;
    // Drop globals no loadSym mentions.
    let mut referenced: Vec<Box<str>> = Vec::new();
    for f in &cur.functions {
        for b in &f.blocks {
            for i in &b.instrs {
                if let Op::LoadSym { sym, .. } = &i.op {
                    if !referenced.contains(sym) {
                        referenced.push(sym.clone());
                    }
                }
            }
        }
    }
    let mut cand = cur.clone();
    cand.globals
        .retain(|g| referenced.iter().any(|r| **r == g.name));
    if cand.globals.len() != cur.globals.len() && try_accept(cur, fail, cand, still_fails) {
        progress = true;
    }
    // Halve each remaining global while it still reproduces.
    for gi in 0..cur.globals.len() {
        while cur.globals[gi].size >= 16 {
            let mut cand = cur.clone();
            let g = &mut cand.globals[gi];
            g.size /= 2;
            // Keep 8-byte alignment for f64 data.
            g.size = (g.size + 7) & !7;
            g.init.truncate(g.size as usize);
            if cand.globals[gi].size == cur.globals[gi].size
                || !try_accept(cur, fail, cand, still_fails)
            {
                break;
            }
            progress = true;
        }
    }
    progress
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_module;
    use crate::oracle::{apply_mutation, CaseStats, Mutation};

    /// The acceptance-criteria mutation test: an injected allocator bug
    /// must be caught and shrink to <= 2 functions / <= 12 ops. Runs
    /// under a tiny register file so spilling — and therefore the bug —
    /// survives on very small modules.
    #[test]
    fn injected_bug_shrinks_to_tiny_reproducer() {
        let tiny = regalloc::AllocConfig::tiny(3);
        let cfg = OracleConfig {
            alloc: tiny,
            ..OracleConfig::default()
        };
        let seed = (0..64)
            .find(|&s| {
                let m = gen_module(s);
                run_oracle(&m, &cfg)
                    .map(|st: CaseStats| st.ccm_ops > 0)
                    .unwrap_or(false)
            })
            .expect("some seed must exercise the CCM");
        let m = gen_module(seed);
        let broken = OracleConfig {
            mutation: Some(Mutation::BumpCcmOffset),
            ..cfg
        };
        // Make sure the mutation actually applies to this module.
        let mut probe = m.clone();
        regalloc::allocate_module(&mut probe, &tiny);
        ccm::promote_allocated(&mut probe, ccm::Variant::PostPassCallGraph, 64);
        assert!(apply_mutation(&mut probe, Mutation::BumpCcmOffset));

        let (small, f) = minimize(&m, &broken).expect("bug must be caught");
        assert!(
            small.functions.len() <= 2,
            "reproducer has {} functions",
            small.functions.len()
        );
        assert!(
            small.instr_count() <= 12,
            "reproducer has {} ops:\n{small}",
            small.instr_count()
        );
        // The reproducer round-trips through the printer/parser.
        let reparsed = iloc::parse_module(&small.to_string()).unwrap();
        assert_eq!(reparsed, small);
        // And still fails the same way.
        let again = run_oracle(&small, &broken).unwrap_err();
        assert!(again.same_bug(&f));
    }

    #[test]
    fn passing_module_is_not_minimized() {
        let m = gen_module(3);
        assert!(minimize(&m, &OracleConfig::default()).is_none());
    }
}
