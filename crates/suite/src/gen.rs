//! Deterministic data generation and code-shape helpers for the kernels.

use iloc::builder::FuncBuilder;
use iloc::{Global, Reg, RegClass};

/// A small deterministic linear congruential generator. Every kernel's
/// input data derives from a fixed seed, so all experiments are
/// reproducible run-to-run and machine-to-machine.
#[derive(Clone, Debug)]
pub struct Lcg(u64);

impl Lcg {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform float in `[-1, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        let bits = self.next_u64() >> 11; // 53 bits
        (bits as f64 / (1u64 << 52) as f64) - 1.0
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_range(&mut self, bound: u32) -> u32 {
        assert!(bound > 0);
        (self.next_u64() % bound as u64) as u32
    }

    /// True with probability `percent / 100`.
    pub fn chance(&mut self, percent: u32) -> bool {
        self.next_range(100) < percent
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_range(items.len() as u32) as usize]
    }
}

/// A float-array global filled with seeded values in `[-1, 1)`.
pub fn f64_global(name: &str, len: usize, seed: u64) -> Global {
    let mut lcg = Lcg::new(seed);
    let vals: Vec<f64> = (0..len).map(|_| lcg.next_f64()).collect();
    Global::from_f64s(name, &vals)
}

/// An int-array global filled with seeded values in `[0, bound)`.
pub fn i32_global(name: &str, len: usize, bound: u32, seed: u64) -> Global {
    let mut lcg = Lcg::new(seed);
    let vals: Vec<i32> = (0..len).map(|_| lcg.next_range(bound) as i32).collect();
    Global::from_i32s(name, &vals)
}

/// Emits a float "register network": `width` values are loaded from
/// `src[block*width ..]`, then for `depth` rounds each value is updated
/// from itself and its neighbor (`vᵢ = vᵢ·cᵢ + vᵢ₊₁`), keeping all
/// `width` values simultaneously live; finally each is stored to
/// `dst[block*width ..]`.
///
/// This is the suite's register-pressure primitive: the maximum float
/// pressure is `width + O(1)`, so kernels can dial in exactly how hard
/// they press on the 32 floating-point registers.
pub fn float_net(
    fb: &mut FuncBuilder,
    src: Reg,
    dst: Reg,
    block_base: Reg,
    width: usize,
    depth: usize,
    seed: u64,
) {
    let mut lcg = Lcg::new(seed);
    let mut vals: Vec<Reg> = Vec::with_capacity(width);
    for j in 0..width {
        let v = fb.floadai_indexed(src, block_base, (j * 8) as i64);
        vals.push(v);
    }
    for _ in 0..depth {
        let mut next = Vec::with_capacity(width);
        for j in 0..width {
            let c = fb.loadf(0.5 + 0.01 * (lcg.next_f64().abs() + 0.001));
            let scaled = fb.fmult(vals[j], c);
            let neighbor = vals[(j + 1) % width];
            next.push(fb.fadd(scaled, neighbor));
        }
        vals = next;
    }
    for (j, v) in vals.iter().enumerate() {
        fb.fstoreai_indexed(dst, block_base, (j * 8) as i64, *v);
    }
}

/// Extension methods the generators use for indexed addressing
/// (`base + index + constant` in two instructions).
pub trait BuilderExt {
    /// `fload (base + idx) + off`.
    fn floadai_indexed(&mut self, base: Reg, idx: Reg, off: i64) -> Reg;
    /// `fstore val => (base + idx) + off`.
    fn fstoreai_indexed(&mut self, base: Reg, idx: Reg, off: i64, val: Reg);
    /// `load (base + idx) + off` (integer).
    fn loadai_indexed(&mut self, base: Reg, idx: Reg, off: i64) -> Reg;
    /// `store val => (base + idx) + off` (integer).
    fn storeai_indexed(&mut self, base: Reg, idx: Reg, off: i64, val: Reg);
}

impl BuilderExt for FuncBuilder {
    fn floadai_indexed(&mut self, base: Reg, idx: Reg, off: i64) -> Reg {
        let addr = self.add(base, idx);
        self.floadai(addr, off)
    }

    fn fstoreai_indexed(&mut self, base: Reg, idx: Reg, off: i64, val: Reg) {
        let addr = self.add(base, idx);
        self.fstoreai(val, addr, off);
    }

    fn loadai_indexed(&mut self, base: Reg, idx: Reg, off: i64) -> Reg {
        let addr = self.add(base, idx);
        self.loadai(addr, off)
    }

    fn storeai_indexed(&mut self, base: Reg, idx: Reg, off: i64, val: Reg) {
        let addr = self.add(base, idx);
        self.storeai(val, addr, off);
    }
}

/// Appends the standard checksum epilogue to `main`: sums `len` doubles
/// of global `out` into a float register and returns it. Every suite
/// module ends this way, giving the semantic-equivalence tests a single
/// observable to compare.
pub fn checksum_and_ret(fb: &mut FuncBuilder, out_name: &str, len: usize) {
    fb.set_ret_classes(&[RegClass::Fpr]);
    let base = fb.loadsym(out_name);
    let acc = fb.vreg(RegClass::Fpr);
    fb.emit(iloc::Op::LoadF { imm: 0.0, dst: acc });
    fb.counted_loop(0, len as i64, 1, |fb, iv| {
        let off = fb.shli(iv, 3);
        let v = fb.floadai_indexed(base, off, 0);
        let t = fb.fadd(acc, v);
        fb.emit(iloc::Op::F2F { src: t, dst: acc });
    });
    fb.ret(&[acc]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn lcg_floats_in_range() {
        let mut l = Lcg::new(7);
        for _ in 0..1000 {
            let v = l.next_f64();
            assert!((-1.0..1.0).contains(&v), "{v} out of range");
        }
    }

    #[test]
    fn chance_and_pick_stay_in_bounds() {
        let mut l = Lcg::new(11);
        assert!(!l.clone().chance(0), "0% must never fire");
        assert!(l.clone().chance(100), "100% must always fire");
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(l.pick(&items)));
        }
    }

    #[test]
    fn seeded_globals_reproducible() {
        let a = f64_global("x", 16, 3);
        let b = f64_global("x", 16, 3);
        assert_eq!(a, b);
        let c = f64_global("x", 16, 4);
        assert_ne!(a.init, c.init);
    }

    #[test]
    fn float_net_has_expected_pressure() {
        let mut fb = FuncBuilder::new("f");
        let src = fb.loadsym("a");
        let dst = fb.loadsym("b");
        let zero = fb.loadi(0);
        float_net(&mut fb, src, dst, zero, 10, 3, 1);
        fb.ret(&[]);
        let mut f = fb.finish();
        // Wrap into a module so verify passes (globals exist).
        let mut m = iloc::Module::new();
        m.push_global(f64_global("a", 10, 1));
        m.push_global(iloc::Global::zeroed("b", 80));
        f.ret_classes = vec![];
        m.push_function(f);
        m.verify().unwrap();
        let p = analysis::Liveness::max_pressure(&m.functions[0], RegClass::Fpr);
        assert!(
            (10..=13).contains(&p),
            "pressure {p} should be near the width 10"
        );
    }
}
