//! Helpers shared by the unit tests: a seeded generator (this crate
//! cannot depend on `fuzz`) and edgeless graphs to add edges to.

use iloc::builder::FuncBuilder;
use iloc::RegClass;

use crate::entity::EntityIndex;
use crate::igraph::InterferenceGraph;

/// SplitMix64: a tiny seeded generator for random graphs.
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    /// Uniform in `0..n`, `n > 0`.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A graph of `n` isolated nodes: `n` loads whose values are never used,
/// so none is live while another is defined.
pub(crate) fn isolated_nodes(n: usize) -> InterferenceGraph {
    let mut fb = FuncBuilder::new("f");
    for _ in 0..n {
        fb.loadi(0);
    }
    fb.ret(&[]);
    let f = fb.finish();
    let g = InterferenceGraph::build(&f, EntityIndex::build(&f, RegClass::Gpr));
    assert_eq!((g.len(), (0..n).map(|i| g.degree(i)).sum()), (n, 0));
    g
}
