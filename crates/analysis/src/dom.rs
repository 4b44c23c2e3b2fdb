//! Dominators, dominator tree, and dominance frontiers.
//!
//! Implements the Cooper–Harvey–Kennedy algorithm (*A Simple, Fast
//! Dominance Algorithm*) — fittingly, by the same authors as the paper
//! this repository reproduces.

use iloc::{BlockId, Function};

/// Dominator information for a function.
///
/// Unreachable blocks have no immediate dominator and are absent from the
/// dominator tree.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// `idom[b]` — immediate dominator of `b` (`idom[entry] == entry`).
    /// `None` for unreachable blocks.
    idom: Vec<Option<BlockId>>,
    /// Children in the dominator tree.
    children: Vec<Vec<BlockId>>,
    /// Reverse postorder of reachable blocks.
    rpo: Vec<BlockId>,
    /// `rpo_number[b]` — position of `b` in `rpo` (usize::MAX if
    /// unreachable).
    rpo_number: Vec<usize>,
}

impl Dominators {
    /// Computes dominators for `f`.
    pub fn compute(f: &Function) -> Dominators {
        let n = f.blocks.len();
        let rpo = f.reverse_postorder();
        let mut rpo_number = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_number[b.index()] = i;
        }
        let preds = f.predecessors();

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[f.entry().index()] = Some(f.entry());

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // Find first processed predecessor.
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if rpo_number[p.index()] == usize::MAX {
                        continue; // unreachable predecessor
                    }
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_number, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        let mut children = vec![Vec::new(); n];
        for &b in rpo.iter().skip(1) {
            if let Some(d) = idom[b.index()] {
                children[d.index()].push(b);
            }
        }

        Dominators {
            idom,
            children,
            rpo,
            rpo_number,
        }
    }

    /// The immediate dominator of `b` (`None` for entry / unreachable).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        let d = self.idom[b.index()]?;
        if d == b {
            None
        } else {
            Some(d)
        }
    }

    /// Whether `a` dominates `b` (reflexive: every block dominates itself).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.rpo_number[b.index()] == usize::MAX {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }

    /// Children of `b` in the dominator tree.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        &self.children[b.index()]
    }

    /// Whether `b` is reachable from entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_number[b.index()] != usize::MAX
    }

    /// Reverse postorder of reachable blocks.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Computes the dominance frontier of every block (Cytron's
    /// definition), used for φ-placement in SSA construction.
    pub fn dominance_frontiers(&self, f: &Function) -> Vec<Vec<BlockId>> {
        let n = f.blocks.len();
        let preds = f.predecessors();
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for &b in &self.rpo {
            if preds[b.index()].len() >= 2 {
                for &p in &preds[b.index()] {
                    if !self.is_reachable(p) {
                        continue;
                    }
                    let mut runner = p;
                    let stop = match self.idom(b) {
                        Some(d) => d,
                        None => continue,
                    };
                    while runner != stop {
                        if !df[runner.index()].contains(&b) {
                            df[runner.index()].push(b);
                        }
                        match self.idom(runner) {
                            Some(d) => runner = d,
                            None => break,
                        }
                    }
                }
            }
        }
        df
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_number: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_number[a.index()] > rpo_number[b.index()] {
            a = idom[a.index()].expect("processed block has idom");
        }
        while rpo_number[b.index()] > rpo_number[a.index()] {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;

    /// Builds the classic diamond: entry → {a, b} → join → exit.
    fn diamond() -> (Function, [BlockId; 5]) {
        let mut fb = FuncBuilder::new("f");
        let cond = fb.loadi(1);
        let a = fb.block("a");
        let b = fb.block("b");
        let join = fb.block("join");
        let exit = fb.block("exit");
        let entry = fb.entry();
        fb.cbr(cond, a, b);
        fb.switch_to(a);
        fb.jump(join);
        fb.switch_to(b);
        fb.jump(join);
        fb.switch_to(join);
        fb.jump(exit);
        fb.switch_to(exit);
        fb.ret(&[]);
        (fb.finish(), [entry, a, b, join, exit])
    }

    use iloc::Function;

    #[test]
    fn diamond_idoms() {
        let (f, [entry, a, b, join, exit]) = diamond();
        let dom = Dominators::compute(&f);
        assert_eq!(dom.idom(entry), None);
        assert_eq!(dom.idom(a), Some(entry));
        assert_eq!(dom.idom(b), Some(entry));
        assert_eq!(dom.idom(join), Some(entry)); // not a or b!
        assert_eq!(dom.idom(exit), Some(join));
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let (f, [entry, a, _b, join, exit]) = diamond();
        let dom = Dominators::compute(&f);
        assert!(dom.dominates(entry, exit));
        assert!(dom.dominates(join, join));
        assert!(dom.dominates(join, exit));
        assert!(!dom.dominates(a, join));
        assert!(!dom.dominates(exit, entry));
    }

    #[test]
    fn diamond_frontiers() {
        let (f, [entry, a, b, join, _exit]) = diamond();
        let dom = Dominators::compute(&f);
        let df = dom.dominance_frontiers(&f);
        assert_eq!(df[a.index()], vec![join]);
        assert_eq!(df[b.index()], vec![join]);
        assert!(df[entry.index()].is_empty());
        assert!(df[join.index()].is_empty());
    }

    #[test]
    fn loop_header_in_own_frontier() {
        let mut fb = FuncBuilder::new("f");
        fb.counted_loop(0, 4, 1, |_, _| {});
        fb.ret(&[]);
        let f = fb.finish();
        let dom = Dominators::compute(&f);
        let df = dom.dominance_frontiers(&f);
        // Body's frontier contains the header (back edge target).
        let header = BlockId(1);
        let body = BlockId(2);
        assert!(df[body.index()].contains(&header));
        // And the header, dominating itself on the back edge path, has
        // itself in its frontier.
        assert!(df[header.index()].contains(&header));
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let mut fb = FuncBuilder::new("f");
        let dead = fb.block("dead");
        fb.ret(&[]);
        fb.switch_to(dead);
        fb.ret(&[]);
        let f = fb.finish();
        let dom = Dominators::compute(&f);
        assert_eq!(dom.idom(dead), None);
        assert!(!dom.is_reachable(dead));
        assert!(!dom.dominates(f.entry(), dead));
    }
}
