//! Property-based validation of the analyses against brute-force oracles
//! on randomly generated CFGs, of the dataflow core ([`analysis::live`]
//! and [`analysis::must`]) against path oracles, of the liveness core
//! ([`analysis::Liveness`]) against an instruction-level fixpoint, and of
//! [`BitSet`] against a `HashSet` model.

mod common;

use std::collections::HashSet;

use analysis::{BitRows, BitSet, Dominators, Liveness, RegIndex};
use common::{Case, Rng};
use iloc::builder::FuncBuilder;
use iloc::{BlockId, FBinKind, Function, IBinKind, Instr, Op, Reg, RegClass, SlotId, SpillKind};

/// Random CFGs per property.
const CASES: usize = 96;
/// Random set pairs per `BitSet` property.
const BITSET_CASES: usize = 256;

/// Case `case`'s random CFG: `2..max_blocks` blocks, block 0 the entry,
/// and `1..max_edges` edges with endpoints drawn below `max_blocks`
/// (reduced modulo the block count). Each block ends in a `ret`,
/// `jump`, or `cbr` by its number of outgoing edges.
fn arb_cfg(case: usize, max_blocks: usize, max_edges: usize) -> Function {
    let mut rng = Rng::for_case(case);
    let n = 2 + rng.below(max_blocks - 2);
    let edges = 1 + rng.below(max_edges - 1);
    let mut fb = FuncBuilder::new("f");
    let blocks: Vec<BlockId> = std::iter::once(fb.entry())
        .chain((1..n).map(|i| fb.block(format!("b{i}"))))
        .collect();
    // Group targets per source.
    let mut targets: Vec<Vec<usize>> = vec![Vec::new(); n];
    for _ in 0..edges {
        let (s, t) = (rng.below(max_blocks), rng.below(max_blocks));
        targets[s % n].push(t % n);
    }
    for (i, b) in blocks.iter().enumerate() {
        fb.switch_to(*b);
        match targets[i].len() {
            0 => fb.ret(&[]),
            1 => fb.jump(blocks[targets[i][0]]),
            _ => {
                let c = fb.vreg(iloc::RegClass::Gpr);
                fb.emit(Op::LoadI { imm: 1, dst: c });
                fb.cbr(c, blocks[targets[i][0]], blocks[targets[i][1]]);
            }
        }
    }
    fb.finish()
}

/// Oracle: `a` dominates `b` iff removing `a` makes `b` unreachable from
/// the entry (or `a == b`).
fn dominates_oracle(f: &Function, a: BlockId, b: BlockId) -> bool {
    if a == b {
        return true;
    }
    // BFS from entry avoiding `a`.
    let n = f.blocks.len();
    let mut seen = vec![false; n];
    let mut queue = vec![f.entry()];
    if f.entry() == a {
        return reachable(f, b); // removing the entry: b unreachable ⇒ dominated
    }
    seen[f.entry().index()] = true;
    while let Some(x) = queue.pop() {
        for s in f.successors(x) {
            if s != a && !seen[s.index()] {
                seen[s.index()] = true;
                queue.push(s);
            }
        }
    }
    reachable(f, b) && !seen[b.index()]
}

fn reachable(f: &Function, b: BlockId) -> bool {
    let n = f.blocks.len();
    let mut seen = vec![false; n];
    let mut queue = vec![f.entry()];
    seen[f.entry().index()] = true;
    while let Some(x) = queue.pop() {
        if x == b {
            return true;
        }
        for s in f.successors(x) {
            if !seen[s.index()] {
                seen[s.index()] = true;
                queue.push(s);
            }
        }
    }
    seen[b.index()]
}

/// Cooper-Harvey-Kennedy dominators agree with the removal oracle on
/// arbitrary (including irreducible and partially unreachable) CFGs.
#[test]
fn dominators_match_oracle() {
    for case in 0..CASES {
        let f = arb_cfg(case, 10, 20);
        let _case = Case::new(case, &f);
        let dom = Dominators::compute(&f);
        for a in f.block_ids() {
            for b in f.block_ids() {
                if !reachable(&f, b) {
                    assert!(!dom.dominates(a, b), "unreachable {b} cannot be dominated");
                    continue;
                }
                let got = dom.dominates(a, b);
                let want = dominates_oracle(&f, a, b);
                assert_eq!(got, want, "dominates({a}, {b})");
            }
        }
    }
}

/// The immediate dominator is a strict dominator, and every other
/// strict dominator of `b` dominates idom(b).
#[test]
fn idom_is_closest_strict_dominator() {
    for case in 0..CASES {
        let f = arb_cfg(case, 10, 20);
        let _case = Case::new(case, &f);
        let dom = Dominators::compute(&f);
        for b in f.block_ids() {
            if let Some(idom) = dom.idom(b) {
                assert!(dom.dominates(idom, b));
                assert_ne!(idom, b);
                for a in f.block_ids() {
                    if a != b && dom.dominates(a, b) {
                        assert!(
                            dom.dominates(a, idom),
                            "{a} strictly dominates {b} but not idom {idom}"
                        );
                    }
                }
            }
        }
    }
}

/// Liveness never reports a register live-in at the entry block
/// unless it is genuinely used before definition (our generated CFGs
/// define `c` before its use in every block).
#[test]
fn cbr_conditions_never_leak_liveness() {
    for case in 0..CASES {
        let f = arb_cfg(case, 8, 16);
        let _case = Case::new(case, &f);
        let live = analysis::Liveness::compute(&f, &analysis::RegIndex::build(&f));
        let entry_in = live.live_in.row(f.entry().index());
        assert!(
            entry_in.iter().all(|w| *w == 0),
            "nothing should be live-in at entry"
        );
    }
}

/// Case `case`'s random CFG with random straight-line code before each
/// terminator: integer adds and copies over physical and virtual GPRs,
/// float adds over FPRs, and spill stores and restores of GPRs tagged
/// with one of up to four frame slots, so every block may use, define,
/// redefine, store and restore.
fn arb_body(case: usize) -> Function {
    let mut f = arb_cfg(case, 10, 20);
    let mut rng = Rng::for_case(3 * CASES + case);
    let gprs = [
        Reg::gpr(1),
        Reg::gpr(2),
        Reg::gpr(64),
        Reg::gpr(65),
        Reg::gpr(66),
    ];
    let fprs = [Reg::fpr(1), Reg::fpr(64), Reg::fpr(65)];
    let slots: Vec<SlotId> = (0..1 + rng.below(4))
        .map(|_| f.frame.new_slot(RegClass::Gpr))
        .collect();
    for b in 0..f.blocks.len() {
        let mut body = Vec::new();
        for _ in 0..rng.below(7) {
            let g = |rng: &mut Rng| gprs[rng.below(gprs.len())];
            let s = slots[rng.below(slots.len())];
            let off = i64::from(f.frame.slot(s).offset);
            body.push(match rng.below(5) {
                0 => Instr::new(Op::IBin {
                    kind: IBinKind::Add,
                    lhs: g(&mut rng),
                    rhs: g(&mut rng),
                    dst: g(&mut rng),
                }),
                1 => Instr::new(Op::I2I {
                    src: g(&mut rng),
                    dst: g(&mut rng),
                }),
                2 => Instr::new(Op::FBin {
                    kind: FBinKind::Add,
                    lhs: fprs[rng.below(fprs.len())],
                    rhs: fprs[rng.below(fprs.len())],
                    dst: fprs[rng.below(fprs.len())],
                }),
                3 => {
                    let (val, addr) = (g(&mut rng), Reg::RARP);
                    Instr::spill_store(Op::StoreAI { val, addr, off }, s)
                }
                _ => {
                    let (addr, dst) = (Reg::RARP, g(&mut rng));
                    Instr::spill_restore(Op::LoadAI { addr, off, dst }, s)
                }
            });
        }
        let instrs = &mut f.blocks[b].instrs;
        let at = instrs.len() - 1;
        instrs.splice(at..at, body);
    }
    f
}

/// The ids an instruction uses and defines, in some numbering.
type Operands<'a> = &'a dyn Fn(&Instr) -> (Vec<usize>, Vec<usize>);

/// An operand visitor as [`Liveness::solve`] takes it.
type Visitor<'a> = &'a dyn Fn(&Instr, &mut Vec<usize>, &mut Vec<usize>);

/// Reference liveness with no block summaries: the set live after every
/// instruction, `after[b][i]`, iterated to the least fixpoint of
/// `before(i) = uses(i) ∪ (after(i) − defs(i))`, where `after` of a
/// block's last instruction is the union of `before` of its successors'
/// first instructions, for successors reachable from the entry (the
/// solver leaves an unreachable block's `in` empty).
fn reference_liveness(f: &Function, u: usize, operands: Operands) -> Vec<Vec<BitSet>> {
    let before = |after: &BitSet, instr: &Instr| {
        let (uses, defs) = operands(instr);
        let mut set = after.clone();
        defs.iter().for_each(|&d| {
            set.remove(d);
        });
        uses.iter().for_each(|&x| {
            set.insert(x);
        });
        set
    };
    let mut after: Vec<Vec<BitSet>> = f
        .blocks
        .iter()
        .map(|b| vec![BitSet::new(u); b.instrs.len()])
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for b in f.block_ids() {
            let instrs = &f.block(b).instrs;
            for i in (0..instrs.len()).rev() {
                let mut set = BitSet::new(u);
                if i + 1 < instrs.len() {
                    set = before(&after[b.index()][i + 1], &instrs[i + 1]);
                } else {
                    for &s in f.successors(b).iter().filter(|&&s| reachable(f, s)) {
                        set.union_with(&before(&after[s.index()][0], &f.block(s).instrs[0]));
                    }
                }
                if set != after[b.index()][i] {
                    after[b.index()][i] = set;
                    changed = true;
                }
            }
        }
    }
    after
}

/// Asserts that the core, solved and walked with `visitor`, agrees with
/// [`reference_liveness`] over `reference` on every block's `live_in`
/// and `live_out` and on every live-after set and definition list of the
/// walk; returns the liveness.
fn assert_core_matches_reference(
    f: &Function,
    u: usize,
    visitor: Visitor,
    reference: Operands,
    what: &str,
) -> Liveness {
    let after = reference_liveness(f, u, reference);
    let lv = Liveness::solve(f, u, visitor);
    for b in f.block_ids() {
        let instrs = &f.block(b).instrs;
        let last = instrs.len() - 1;
        assert_eq!(
            set(&lv.live_out, b),
            after[b.index()][last],
            "{what}: out[{b}]"
        );
        let mut top = after[b.index()][0].clone();
        if reachable(f, b) {
            let (uses, defs) = reference(&instrs[0]);
            defs.iter().for_each(|&d| {
                top.remove(d);
            });
            uses.iter().for_each(|&x| {
                top.insert(x);
            });
        } else {
            top = BitSet::new(u);
        }
        assert_eq!(set(&lv.live_in, b), top, "{what}: in[{b}]");
    }
    let mut walked = Vec::new();
    lv.walk(f, visitor, |b, i, defs, live| {
        assert_eq!(live, &after[b.index()][i], "{what}: live after {b}:{i}");
        assert_eq!(
            defs,
            reference(&f.block(b).instrs[i]).1,
            "{what}: defs at {b}:{i}"
        );
        walked.push((b, i));
    });
    let order: Vec<(BlockId, usize)> = f
        .block_ids()
        .flat_map(|b| (0..f.block(b).instrs.len()).rev().map(move |i| (b, i)))
        .collect();
    assert_eq!(walked, order, "{what}: walk order");
    lv
}

/// The liveness core against the instruction-level reference on 240
/// random bodies, over three numberings: every register, one class's
/// virtual registers, and the spill slots of the tags (where the core's
/// rows must also be `ccm::SlotAnalysis`'s).
#[test]
fn liveness_core_matches_an_instruction_level_fixpoint() {
    let mut slot_facts = 0;
    for case in 0..240 {
        let f = arb_body(case);
        let _case = Case::new(case, &f);
        // Reference operands read straight from the instruction.
        let by_reg = |regs: &RegIndex, instr: &Instr| {
            let (mut uses, mut defs) = (Vec::new(), Vec::new());
            instr.op.visit_uses(|r| uses.extend(regs.get(r)));
            instr.op.visit_defs(|r| defs.extend(regs.get(r)));
            (uses, defs)
        };

        let all = RegIndex::build(&f);
        let reference = |instr: &Instr| by_reg(&all, instr);
        assert_core_matches_reference(&f, all.len(), &all.operands(), &reference, "all");

        let class = RegClass::ALL[case % 2];
        let virt = RegIndex::build_where(&f, |r| r.class() == class && r.is_virtual());
        let reference = |instr: &Instr| by_reg(&virt, instr);
        let what = format!("{class:?} virtual");
        assert_core_matches_reference(&f, virt.len(), &virt.operands(), &reference, &what);

        let n = f.frame.slots.len();
        let visitor =
            |instr: &Instr, uses: &mut Vec<usize>, defs: &mut Vec<usize>| match instr.spill {
                SpillKind::Store(s) => defs.push(s.index()),
                SpillKind::Restore(s) => uses.push(s.index()),
                SpillKind::None => {}
            };
        let reference = |instr: &Instr| match instr.spill {
            SpillKind::Store(s) => (vec![], vec![s.index()]),
            SpillKind::Restore(s) => (vec![s.index()], vec![]),
            SpillKind::None => (vec![], vec![]),
        };
        let lv = assert_core_matches_reference(&f, n, &visitor, &reference, "slots");
        let sa = ccm::SlotAnalysis::compute(&f);
        for b in f.block_ids() {
            assert_eq!(sa.live_in(b), lv.live_in.row(b.index()), "slots: in[{b}]");
            assert_eq!(
                sa.live_out(b),
                lv.live_out.row(b.index()),
                "slots: out[{b}]"
            );
            slot_facts += set(&lv.live_in, b).count();
        }
    }
    assert!(slot_facts >= 200, "only {slot_facts} slot live-in facts");
}

/// A random subset of `0..u`.
fn arb_set(rng: &mut Rng, u: usize) -> BitSet {
    let mut s = BitSet::new(u);
    for _ in 0..rng.below(u + 1) {
        s.insert(rng.below(u));
    }
    s
}

/// Case `case`'s random gen/kill problem over `f`: a universe of
/// `1..=80` facts (crossing a word boundary) and independent random
/// `(gen, kill)` sets per block, so a block may generate and kill the
/// same fact.
fn arb_problem(case: usize, f: &Function) -> Vec<(BitSet, BitSet)> {
    let mut rng = Rng::for_case(CASES + case);
    let u = 1 + rng.below(80);
    f.block_ids()
        .map(|_| (arb_set(&mut rng, u), arb_set(&mut rng, u)))
        .collect()
}

/// The problem as the solvers take it: one `gen` row and one `kill` row
/// per block.
fn rows(blocks: &[(BitSet, BitSet)]) -> (BitRows, BitRows) {
    let u = blocks[0].0.universe();
    let (mut gen, mut kill) = (BitRows::new(blocks.len(), u), BitRows::new(blocks.len(), u));
    for (b, (g, k)) in blocks.iter().enumerate() {
        g.iter().for_each(|i| gen.insert(b, i));
        k.iter().for_each(|i| kill.insert(b, i));
    }
    (gen, kill)
}

/// Row `b` of `rows` as a set.
fn set(rows: &BitRows, b: BlockId) -> BitSet {
    let mut s = BitSet::new(rows.universe());
    s.copy_from_row(rows.row(b.index()));
    s
}

/// `f` followed by each block's gen and kill members.
fn show_problem(f: &Function, blocks: &[(BitSet, BitSet)]) -> String {
    let mut out = format!("{f}");
    for (b, (gen, kill)) in blocks.iter().enumerate() {
        let gen: Vec<usize> = gen.iter().collect();
        let kill: Vec<usize> = kill.iter().collect();
        out += &format!("block {b}: gen {gen:?} kill {kill:?}\n");
    }
    out
}

/// Oracle for [`analysis::must`]: fact `d` holds at the top of reachable
/// block `b` iff every path from the entry (where `d` holds iff it is in
/// `entry`) reaches `b` with `d` still true. Explores the states
/// (block, value of `d` at its top) reachable from the entry.
fn must_oracle(
    f: &Function,
    blocks: &[(BitSet, BitSet)],
    entry: &BitSet,
    b: BlockId,
    d: usize,
) -> bool {
    let n = f.blocks.len();
    let mut seen = vec![[false; 2]; n];
    let start = (f.entry(), entry.contains(d));
    seen[start.0.index()][usize::from(start.1)] = true;
    let mut queue = vec![start];
    while let Some((x, holds)) = queue.pop() {
        let (gen, kill) = &blocks[x.index()];
        let after = gen.contains(d) || (holds && !kill.contains(d));
        for s in f.successors(x) {
            if !seen[s.index()][usize::from(after)] {
                seen[s.index()][usize::from(after)] = true;
                queue.push((s, after));
            }
        }
    }
    !seen[b.index()][0]
}

/// Oracle for [`analysis::live`]: fact `d` is in `in[b]` iff some path
/// onward from the top of `b` reaches a block that generates `d` without
/// first passing through a block that kills it.
fn live_oracle(f: &Function, blocks: &[(BitSet, BitSet)], b: BlockId, d: usize) -> bool {
    let mut seen = vec![false; f.blocks.len()];
    seen[b.index()] = true;
    let mut queue = vec![b];
    while let Some(x) = queue.pop() {
        let (gen, kill) = &blocks[x.index()];
        if gen.contains(d) {
            return true;
        }
        if kill.contains(d) {
            continue;
        }
        for s in f.successors(x) {
            if !seen[s.index()] {
                seen[s.index()] = true;
                queue.push(s);
            }
        }
    }
    false
}

/// `must` equals the all-paths oracle on every reachable block — entry
/// blocks with back edges included — and leaves unreachable blocks ⊤.
#[test]
fn must_matches_all_paths_oracle() {
    for case in 0..CASES {
        let f = arb_cfg(case, 10, 20);
        let blocks = arb_problem(case, &f);
        let shown = show_problem(&f, &blocks);
        let _case = Case::new(case, &shown);
        let u = blocks[0].0.universe();
        let entry = arb_set(&mut Rng::for_case(2 * CASES + case), u);
        let (gen, kill) = rows(&blocks);
        let sol = analysis::must(&f, &gen, &kill, &entry);
        for b in f.block_ids() {
            let (in_, out) = (&set(&sol.in_, b), &set(&sol.out, b));
            if !reachable(&f, b) {
                assert_eq!(in_, &BitSet::full(u), "in[{b}] of an unreachable block");
                assert_eq!(out, &BitSet::full(u), "out[{b}] of an unreachable block");
                continue;
            }
            for d in 0..u {
                let want = must_oracle(&f, &blocks, &entry, b, d);
                assert_eq!(in_.contains(d), want, "fact {d} in in[{b}]");
                let (gen, kill) = &blocks[b.index()];
                let through = gen.contains(d) || (want && !kill.contains(d));
                assert_eq!(out.contains(d), through, "fact {d} in out[{b}]");
            }
        }
    }
}

/// `live` equals the some-path-onward oracle on every reachable block;
/// unreachable blocks keep an empty `in`.
#[test]
fn live_matches_some_path_oracle() {
    for case in 0..CASES {
        let f = arb_cfg(case, 10, 20);
        let blocks = arb_problem(case, &f);
        let shown = show_problem(&f, &blocks);
        let _case = Case::new(case, &shown);
        let (gen, kill) = rows(&blocks);
        let sol = analysis::live(&f, &gen, &kill);
        for b in f.block_ids() {
            let in_ = &set(&sol.in_, b);
            if !reachable(&f, b) {
                assert!(in_.is_empty(), "in[{b}] of an unreachable block");
                continue;
            }
            for d in 0..in_.universe() {
                assert_eq!(
                    in_.contains(d),
                    live_oracle(&f, &blocks, b, d),
                    "fact {d} in in[{b}]"
                );
            }
        }
    }
}

/// `live`'s `out[b]` is the union of its successors' `in` on every block,
/// unreachable ones included.
#[test]
fn live_out_is_the_union_of_successor_ins() {
    for case in 0..CASES {
        let f = arb_cfg(case, 10, 20);
        let blocks = arb_problem(case, &f);
        let shown = show_problem(&f, &blocks);
        let _case = Case::new(case, &shown);
        let (gen, kill) = rows(&blocks);
        let sol = analysis::live(&f, &gen, &kill);
        for b in f.block_ids() {
            let mut want = BitSet::new(blocks[0].0.universe());
            for s in f.successors(b) {
                want.union_with(&set(&sol.in_, s));
            }
            assert_eq!(set(&sol.out, b), want, "out[{b}]");
        }
    }
}

/// Universe of the `BitSet` properties' elements.
const U: usize = 200;

/// 0..64 elements drawn below [`U`], duplicates allowed.
fn arb_elems(rng: &mut Rng) -> Vec<usize> {
    (0..rng.below(64)).map(|_| rng.below(U)).collect()
}

fn bitset(elems: &[usize]) -> BitSet {
    let mut s = BitSet::new(U);
    for &x in elems {
        s.insert(x);
    }
    s
}

/// BitSet agrees with a HashSet model under union / intersect /
/// subtract / insert / remove.
#[test]
fn matches_hashset_model() {
    for case in 0..BITSET_CASES {
        let mut rng = Rng::for_case(case);
        let (a, b) = (arb_elems(&mut rng), arb_elems(&mut rng));
        let shown = format!("a = {a:?}\nb = {b:?}");
        let _case = Case::new(case, &shown);
        let (sa, sb) = (bitset(&a), bitset(&b));
        let ha: HashSet<usize> = a.iter().copied().collect();
        let hb: HashSet<usize> = b.iter().copied().collect();

        let mut un = sa.clone();
        un.union_with(&sb);
        assert_eq!(un.iter().collect::<HashSet<_>>(), &ha | &hb);

        let mut ix = sa.clone();
        ix.intersect_with(&sb);
        assert_eq!(ix.iter().collect::<HashSet<_>>(), &ha & &hb);

        let mut df = sa.clone();
        df.subtract(&sb);
        assert_eq!(df.iter().collect::<HashSet<_>>(), &ha - &hb);

        assert_eq!(sa.count(), ha.len());
        assert_eq!(sa.is_empty(), ha.is_empty());
    }
}

/// The change-reporting booleans are accurate.
#[test]
fn change_reports_are_accurate() {
    for case in 0..BITSET_CASES {
        let mut rng = Rng::for_case(case);
        let (a, b) = (arb_elems(&mut rng), arb_elems(&mut rng));
        let shown = format!("a = {a:?}\nb = {b:?}");
        let _case = Case::new(case, &shown);
        let (mut sa, sb) = (bitset(&a), bitset(&b));
        let before = sa.clone();
        let changed = sa.union_with(&sb);
        assert_eq!(changed, sa != before);
        // Union is idempotent: a second application never changes.
        assert!(!sa.clone().union_with(&sb));
    }
}

/// Iteration is strictly increasing and round-trips.
#[test]
fn iter_sorted_and_complete() {
    for case in 0..BITSET_CASES {
        let a = arb_elems(&mut Rng::for_case(case));
        let shown = format!("{a:?}");
        let _case = Case::new(case, &shown);
        let items: Vec<usize> = bitset(&a).iter().collect();
        let mut sorted = items.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(items, sorted);
        let rebuilt: BitSet = items.iter().copied().collect();
        for &x in &items {
            assert!(rebuilt.contains(x));
        }
    }
}
