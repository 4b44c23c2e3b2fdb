//! Natural-loop detection and loop-nesting depth.
//!
//! Loop depth drives spill-cost estimation in the allocator (a def or use
//! at depth *d* is weighted `10^d`, the classic Chaitin heuristic used by
//! the paper's allocator).

use iloc::{BlockId, Function};

use crate::dom::Dominators;

/// A natural loop: a back edge's target (header) plus the set of blocks
/// that can reach the back edge's source without passing through the
/// header.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The loop header (target of the back edge).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: Vec<BlockId>,
}

/// The loop forest of a function.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// All natural loops found (loops sharing a header are merged).
    pub loops: Vec<Loop>,
    /// `depth[b]` — number of loops containing block `b`.
    depth: Vec<u32>,
}

impl LoopInfo {
    /// Detects natural loops using dominator-identified back edges and
    /// computes per-block nesting depth.
    pub fn compute(f: &Function, dom: &Dominators) -> LoopInfo {
        let n = f.blocks.len();
        // Collect back edges: s -> h where h dominates s.
        let mut by_header: std::collections::HashMap<BlockId, Vec<BlockId>> =
            std::collections::HashMap::new();
        for b in f.block_ids() {
            if !dom.is_reachable(b) {
                continue;
            }
            for s in f.successors(b) {
                if dom.dominates(s, b) {
                    by_header.entry(s).or_default().push(b);
                }
            }
        }

        let preds = f.predecessors();
        let mut loops = Vec::new();
        let mut depth = vec![0u32; n];
        let mut headers: Vec<BlockId> = by_header.keys().copied().collect();
        headers.sort();
        for header in headers {
            let sources = &by_header[&header];
            // Standard natural-loop body computation: walk predecessors
            // backward from every back-edge source until the header.
            let mut in_loop = vec![false; n];
            in_loop[header.index()] = true;
            let mut stack: Vec<BlockId> = Vec::new();
            for &s in sources {
                if !in_loop[s.index()] {
                    in_loop[s.index()] = true;
                    stack.push(s);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in &preds[b.index()] {
                    if dom.is_reachable(p) && !in_loop[p.index()] {
                        in_loop[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
            let blocks: Vec<BlockId> = (0..n as u32)
                .map(BlockId)
                .filter(|b| in_loop[b.index()])
                .collect();
            for &b in &blocks {
                depth[b.index()] += 1;
            }
            loops.push(Loop { header, blocks });
        }

        LoopInfo { loops, depth }
    }

    /// Loop-nesting depth of `b` (0 = not in any loop).
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }

    /// The innermost loop containing `b`, if any (smallest body).
    pub fn innermost_containing(&self, b: BlockId) -> Option<&Loop> {
        self.loops
            .iter()
            .filter(|l| l.blocks.contains(&b))
            .min_by_key(|l| l.blocks.len())
    }

    /// Chaitin's spill-cost weight for a reference in block `b`: `10^depth`.
    pub fn weight(&self, b: BlockId) -> f64 {
        10f64.powi(self.depth(b) as i32)
    }

    /// [`Self::weight`] of every block of `f`, by block index: the
    /// reference weights of the register allocator's spill costs and of
    /// the CCM passes' slot costs.
    pub fn block_weights(f: &Function) -> Vec<f64> {
        let loops = LoopInfo::compute(f, &Dominators::compute(f));
        f.block_ids().map(|b| loops.weight(b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;

    #[test]
    fn single_loop_detected() {
        let mut fb = FuncBuilder::new("f");
        fb.counted_loop(0, 10, 1, |_, _| {});
        fb.ret(&[]);
        let f = fb.finish();
        let dom = Dominators::compute(&f);
        let li = LoopInfo::compute(&f, &dom);
        assert_eq!(li.loops.len(), 1);
        let header = BlockId(1);
        let body = BlockId(2);
        assert_eq!(li.loops[0].header, header);
        assert_eq!(li.depth(header), 1);
        assert_eq!(li.depth(body), 1);
        assert_eq!(li.depth(f.entry()), 0);
        assert_eq!(li.depth(BlockId(3)), 0); // exit
    }

    #[test]
    fn nested_loops_have_depth_two() {
        let mut fb = FuncBuilder::new("f");
        fb.counted_loop(0, 4, 1, |fb, _| {
            fb.counted_loop(0, 4, 1, |_, _| {});
        });
        fb.ret(&[]);
        let f = fb.finish();
        let dom = Dominators::compute(&f);
        let li = LoopInfo::compute(&f, &dom);
        assert_eq!(li.loops.len(), 2);
        let max_depth = f.block_ids().map(|b| li.depth(b)).max().unwrap();
        assert_eq!(max_depth, 2);
        // Weight grows 10× per level.
        let inner_body = f
            .block_ids()
            .find(|b| li.depth(*b) == 2)
            .expect("an inner block");
        assert_eq!(li.weight(inner_body), 100.0);
        assert_eq!(li.weight(f.entry()), 1.0);
    }

    #[test]
    fn straightline_has_no_loops() {
        let mut fb = FuncBuilder::new("f");
        fb.loadi(1);
        fb.ret(&[]);
        let f = fb.finish();
        let dom = Dominators::compute(&f);
        let li = LoopInfo::compute(&f, &dom);
        assert!(li.loops.is_empty());
        assert!(li.innermost_containing(f.entry()).is_none());
    }

    #[test]
    fn innermost_loop_is_smallest() {
        let mut fb = FuncBuilder::new("f");
        fb.counted_loop(0, 4, 1, |fb, _| {
            fb.counted_loop(0, 4, 1, |_, _| {});
        });
        fb.ret(&[]);
        let f = fb.finish();
        let dom = Dominators::compute(&f);
        let li = LoopInfo::compute(&f, &dom);
        let deepest = f.block_ids().find(|b| li.depth(*b) == 2).unwrap();
        let inner = li.innermost_containing(deepest).unwrap();
        let outer = li.loops.iter().max_by_key(|l| l.blocks.len()).unwrap();
        assert!(inner.blocks.len() < outer.blocks.len());
    }
}
