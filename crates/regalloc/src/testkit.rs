//! Helpers shared by the unit tests: a seeded generator (this crate
//! cannot depend on `fuzz`), random functions and edgeless graphs to add
//! edges to.

use iloc::builder::FuncBuilder;
use iloc::{Function, Op, Reg, RegClass};

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

/// A random function over both register classes: parameters, then up to
/// twelve regions, each straight-line code, a diamond, a counted loop or a
/// call with up to three results of either class. Straight-line code
/// loads constants, combines values, copies into fresh registers and
/// copies into registers that already hold a value, so a copy's source
/// may already interfere with its target. A random subset of the values
/// stays live to the return.
pub(crate) fn random_function(rng: &mut SplitMix64) -> Function {
    const CLASSES: [RegClass; 2] = [RegClass::Gpr, RegClass::Fpr];
    let mut fb = FuncBuilder::new("f");
    let mut pool: Vec<Reg> = (0..rng.below(5))
        .map(|_| fb.param(CLASSES[rng.below(2)]))
        .collect();
    pool.push(fb.loadi(1));
    pool.push(fb.loadf(1.0));
    for region in 0..1 + rng.below(12) {
        match rng.below(4) {
            0 => straight_line(&mut fb, rng, &mut pool),
            1 => {
                let cond = fb.loadi(region as i64);
                let (t, e, j) = (fb.block("t"), fb.block("e"), fb.block("j"));
                fb.cbr(cond, t, e);
                for arm in [t, e] {
                    fb.switch_to(arm);
                    straight_line(&mut fb, rng, &mut pool);
                    fb.jump(j);
                }
                fb.switch_to(j);
            }
            2 => {
                fb.counted_loop(0, 3, 1, |fb, iv| {
                    pool.push(iv);
                    straight_line(fb, rng, &mut pool);
                });
            }
            _ => {
                let args: Vec<Reg> = (0..rng.below(3))
                    .map(|_| pool[rng.below(pool.len())])
                    .collect();
                let rets: Vec<RegClass> =
                    (0..rng.below(4)).map(|_| CLASSES[rng.below(2)]).collect();
                pool.extend(fb.call("g", &args, &rets));
            }
        }
    }
    let rets: Vec<Reg> = pool.iter().copied().filter(|_| rng.below(3) == 0).collect();
    fb.set_ret_classes(&rets.iter().map(|r| r.class()).collect::<Vec<_>>());
    fb.ret(&rets);
    fb.finish()
}

/// Up to 23 random instructions over `pool`, adding what they define.
fn straight_line(fb: &mut FuncBuilder, rng: &mut SplitMix64, pool: &mut Vec<Reg>) {
    for _ in 0..rng.below(24) {
        let x = pool[rng.below(pool.len())];
        let same: Vec<Reg> = pool
            .iter()
            .copied()
            .filter(|r| r.class() == x.class())
            .collect();
        let y = same[rng.below(same.len())];
        match (rng.below(5), x.class()) {
            (0, RegClass::Gpr) => pool.push(fb.loadi(rng.below(9) as i64)),
            (0, RegClass::Fpr) => pool.push(fb.loadf(rng.below(9) as f64)),
            (1, RegClass::Gpr) => pool.push(fb.add(x, y)),
            (1, RegClass::Fpr) => pool.push(fb.fadd(x, y)),
            (2, _) => pool.push(fb.copy(x)),
            // Redefine `y` by a copy of `x`.
            (_, RegClass::Gpr) if x != y => fb.emit(Op::I2I { src: x, dst: y }),
            (_, RegClass::Fpr) if x != y => fb.emit(Op::F2F { src: x, dst: y }),
            _ => {}
        }
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
    let g = InterferenceGraph::build(&f, RegClass::Gpr);
    assert_eq!((g.len(), (0..n).map(|i| g.degree(i)).sum()), (n, 0));
    g
}
