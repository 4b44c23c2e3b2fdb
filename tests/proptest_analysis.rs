//! Property-based validation of the analyses against brute-force oracles
//! on randomly generated CFGs, and of [`BitSet`] against a `HashSet`
//! model.

mod common;

use std::collections::HashSet;

use analysis::{BitSet, Dominators};
use common::{Case, Rng};
use iloc::builder::FuncBuilder;
use iloc::{BlockId, Function, Op};

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
        let live = analysis::Liveness::compute(&f);
        let entry_in = &live.live_in[f.entry().index()];
        assert_eq!(entry_in.count(), 0, "nothing should be live-in at entry");
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
