//! A CCM configuration as a slot placement over one baseline allocation.
//!
//! No CCM method changes which values spill: the post-pass allocator
//! works on spill *locations* after a conventional allocation (§3.1),
//! and the integrated allocator's CCM edges decide only where a spilled
//! value lands (§3.2) — the spill/placement split of Bouchez, Darte &
//! Rastello. So every (variant, CCM size) is a map from the baseline
//! allocation's spill slots to homes, and deriving one is split in
//! three:
//!
//! * **analysis** — [`BaselineAnalysis`]: one [`SlotAnalysis`] per
//!   function and the call graph, computed once per baseline allocation
//!   and shared by every variant and CCM size (a placement reads the
//!   baseline's spill tags and control flow, which no placement
//!   changes);
//! * **placement** — [`place`](crate::place) returns a [`Placement`]:
//!   each slot's home (a frame or a CCM offset), kept as the slots it
//!   moves off the baseline's, plus per-function counts, high-water
//!   marks and degradations;
//! * **rewrite** — [`Placement::apply`] builds the module: it sets the
//!   moved slots, then points their spill code at them. Callers build a
//!   configuration only to check, simulate, compact or mutate it.
//!
//! Two placements of one baseline are equal exactly when they give
//! every slot the same home, which is exactly when they build equal
//! modules; a placement that moves no slot *is* the baseline. The fuzz
//! oracle and `harness::Run` key their check and simulation memos by
//! (baseline, placement, [`Placement::ccm_key`]) instead of comparing
//! modules.

use std::hash::{Hash, Hasher};

use analysis::CallGraph;
use iloc::{FrameInfo, Module, SpillSlot};

use crate::compact::{compact_frame, CompactStats};
use crate::postpass::{retarget_spill_ops, FnPromotion};
use crate::slots::SlotAnalysis;
use crate::Degradation;

/// What every derivation of one baseline allocation reads: one
/// [`SlotAnalysis`] per function and the call graph.
#[derive(Clone, Debug)]
pub struct BaselineAnalysis {
    /// Per function, in module order: its spill slots' liveness,
    /// interference, costs and call sites.
    pub(crate) slots: Vec<SlotAnalysis>,
    /// Per function, the callee of each of its
    /// [`call_sites`](SlotAnalysis::call_sites) as a function index, or
    /// `None` for a callee the module does not define.
    pub(crate) site_callees: Vec<Vec<Option<usize>>>,
    /// Per function, the functions it calls ([`CallGraph::callees`]).
    pub(crate) callees: Vec<Vec<usize>>,
    /// Whether each function lies on a call-graph cycle.
    pub(crate) recursive: Vec<bool>,
    /// Callees before callers.
    pub(crate) bottom_up: Vec<usize>,
}

impl BaselineAnalysis {
    /// Analyzes allocated module `m` (spill instructions tagged).
    pub fn compute(m: &Module) -> BaselineAnalysis {
        let slots: Vec<SlotAnalysis> = m.functions.iter().map(SlotAnalysis::compute).collect();
        let index = m.function_indices();
        let site_callees = slots
            .iter()
            .map(|sa| {
                sa.call_sites
                    .iter()
                    .map(|cs| index.get(cs.callee.as_str()).copied())
                    .collect()
            })
            .collect();
        let cg = CallGraph::build(m);
        let mut recursive = vec![false; m.functions.len()];
        for r in cg.recursive_functions() {
            recursive[r] = true;
        }
        BaselineAnalysis {
            slots,
            site_callees,
            bottom_up: cg.bottom_up_order(),
            callees: cg.callees,
            recursive,
        }
    }
}

/// One spill slot's home under a [`Placement`], where it differs from
/// the baseline's.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct SlotMove {
    /// The function's index in the module.
    pub function: u32,
    /// The slot's index in that function's frame.
    pub slot: u32,
    /// Its new offset, in the frame or in the CCM.
    pub home: SpillSlot,
}

/// Where one configuration puts every spill slot of a baseline
/// allocation, and what that cost each function.
///
/// Equality and hashing see only the homes: two placements of one
/// baseline are equal exactly when [`Placement::apply`] builds equal
/// modules. The default placement moves nothing: the baseline.
#[derive(Clone, Debug, Default)]
pub struct Placement {
    /// Per function, in module order: promoted and heavyweight slots,
    /// the CCM high-water mark and any degradation. Empty for the
    /// baseline.
    pub(crate) functions: Vec<FnPromotion>,
    /// The slots whose home differs from the baseline's, by function,
    /// then slot.
    moves: Vec<SlotMove>,
}

impl PartialEq for Placement {
    fn eq(&self, other: &Placement) -> bool {
        self.moves == other.moves
    }
}

impl Eq for Placement {}

impl Hash for Placement {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.moves.hash(state);
    }
}

impl Placement {
    /// A placement of `functions`' reports and `moves`, in any order.
    pub(crate) fn new(functions: Vec<FnPromotion>, mut moves: Vec<SlotMove>) -> Placement {
        moves.sort_unstable_by_key(|m| (m.function, m.slot));
        Placement { functions, moves }
    }

    /// Whether this placement moves no slot, so that its module is the
    /// baseline allocation itself.
    pub fn is_identity(&self) -> bool {
        self.moves.is_empty()
    }

    /// The CCM size a check or a simulation of this placement's module
    /// depends on: `ccm_size` if the module uses the CCM (the baseline
    /// does, per `baseline_uses_ccm`, or a slot moves into it), `None`
    /// otherwise. This is [`Module::uses_ccm`] of the built module,
    /// without building it.
    pub fn ccm_key(&self, baseline_uses_ccm: bool, ccm_size: u32) -> Option<u32> {
        (baseline_uses_ccm || self.moves.iter().any(|m| m.home.in_ccm)).then_some(ccm_size)
    }

    /// Per function, in module order: its promoted and heavyweight slot
    /// counts, its CCM high-water mark and any degradation. Empty for the
    /// baseline.
    pub fn functions(&self) -> &[FnPromotion] {
        &self.functions
    }

    /// The functions that fell back to heavyweight spills, in module
    /// order.
    pub fn degradations(&self) -> Vec<Degradation> {
        self.functions
            .iter()
            .filter_map(|p| {
                p.degraded.as_ref().map(|reason| Degradation {
                    function: p.name.clone(),
                    reason: reason.clone(),
                })
            })
            .collect()
    }

    /// The moves of function `fi`.
    fn moves_of(&self, fi: usize) -> &[SlotMove] {
        let fi = fi as u32;
        let start = self.moves.partition_point(|m| m.function < fi);
        let end = self.moves.partition_point(|m| m.function <= fi);
        &self.moves[start..end]
    }

    /// Function `fi`'s frame of `baseline` under this placement.
    fn frame(&self, baseline: &Module, fi: usize) -> FrameInfo {
        let mut frame = baseline.functions[fi].frame.clone();
        for m in self.moves_of(fi) {
            frame.slots[m.slot as usize] = m.home;
        }
        frame
    }

    /// Bytes of main-memory spill space across the functions of
    /// `baseline` under this placement ([`FrameInfo::spill_bytes`]).
    pub fn spill_bytes(&self, baseline: &Module) -> u32 {
        (0..baseline.functions.len())
            .map(|fi| self.frame(baseline, fi).spill_bytes())
            .sum()
    }

    /// Rewrites `baseline` into this placement's module: each moved slot
    /// takes its home, then each function with a moved slot points its
    /// spill code at its slots' homes.
    pub fn apply_to(&self, baseline: &mut Module) {
        for (fi, f) in baseline.functions.iter_mut().enumerate() {
            let moves = self.moves_of(fi);
            if moves.is_empty() {
                continue;
            }
            for m in moves {
                f.frame.slots[m.slot as usize] = m.home;
            }
            retarget_spill_ops(f);
        }
    }

    /// This placement's module, built from a copy of `baseline`.
    pub fn apply(&self, baseline: &Module) -> Module {
        let mut m = baseline.clone();
        self.apply_to(&mut m);
        m
    }

    /// Footnote 3's spill-memory compaction of this placement's module
    /// as a placement of `baseline`: every slot left in the frame is
    /// repacked by [`crate::compact`]'s rule over `analysis`, CCM slots
    /// stay. Returns it with each function's name and before/after spill
    /// bytes.
    pub fn compacted(
        &self,
        baseline: &Module,
        analysis: &BaselineAnalysis,
    ) -> (Placement, Vec<(String, CompactStats)>) {
        let mut moves = Vec::new();
        let mut stats = Vec::new();
        for (fi, f) in baseline.functions.iter().enumerate() {
            let mut frame = self.frame(baseline, fi);
            let before = frame.spill_bytes();
            compact_frame(&mut frame, &analysis.slots[fi]);
            let after = frame.spill_bytes();
            stats.push((f.name.clone(), CompactStats { before, after }));
            moves_off(fi, &f.frame.slots, &frame.slots, &mut moves);
        }
        (Placement::new(self.functions.clone(), moves), stats)
    }
}

/// Pushes a [`SlotMove`] for each slot of function `fi` whose home in
/// `homes` differs from its home in `baseline`.
pub(crate) fn moves_off(
    fi: usize,
    baseline: &[SpillSlot],
    homes: &[SpillSlot],
    moves: &mut Vec<SlotMove>,
) {
    for (si, (old, new)) in baseline.iter().zip(homes).enumerate() {
        if old != new {
            moves.push(SlotMove {
                function: fi as u32,
                slot: si as u32,
                home: *new,
            });
        }
    }
}
