//! Seeded random ILOC module generator.
//!
//! [`gen_module`] maps a 64-bit seed to a complete, verifier-clean module
//! that is guaranteed to terminate and run trap-free on the simulator:
//!
//! * **CFG shapes** — straight-line runs, if/else diamonds, counted loops
//!   (bounded trip counts), and an irreducible region (a two-block cycle
//!   with two distinct entry edges) that no structured builder helper can
//!   produce.
//! * **Calls** — up to three helper functions in a DAG, plus (sometimes)
//!   a self-recursive helper whose depth is bounded by a strictly
//!   decreasing integer argument, putting a nontrivial SCC into the call
//!   graph for the interprocedural CCM pass.
//! * **Register pressure** — every function keeps a pool of integer and
//!   float "variables" live from its prologue to its checksum epilogue;
//!   float pools range up to well past the 32 FPRs, so modules routinely
//!   spill under the default [`regalloc::AllocConfig`].
//! * **Data** — seeded f64 / i32 array globals plus a zeroed scratch
//!   region that statements store to and the epilogue reads back, so
//!   stores are observable in the checksum.
//!
//! Why generated programs cannot trap: every loop is counted with an
//! immediate bound, recursion decrements its depth argument toward a
//! tested base case, every divisor is forced odd (`orI x, 1`), shifts are
//! masked by the simulator, and every address is a global base plus a
//! statically in-bounds offset.
//!
//! Determinism: all decisions come from one [`Lcg`] stream seeded by the
//! case seed, so `gen_module(s)` is byte-identical across runs, hosts,
//! and `--jobs` counts.

use iloc::builder::FuncBuilder;
use iloc::{CmpKind, FBinKind, IBinKind, Module, Op, Reg, RegClass};
use suite::Lcg;

/// Size of the zeroed scratch global statements store into.
const SCRATCH_BYTES: u32 = 256;

/// Everything a caller needs to know to call a generated helper.
#[derive(Clone, Debug)]
struct Callee {
    name: String,
    iparams: usize,
    fparams: usize,
    rets: Vec<RegClass>,
}

/// A data global the generator may address, with enough layout
/// information to keep every access in bounds.
#[derive(Clone, Debug)]
struct GlobalInfo {
    name: String,
    bytes: u32,
    float: bool,
}

struct Gen {
    lcg: Lcg,
    globals: Vec<GlobalInfo>,
    labels: u32,
}

/// Per-function generation state: the variable pools and callable set.
struct FnCtx {
    ints: Vec<Reg>,
    floats: Vec<Reg>,
    callees: Vec<Callee>,
}

/// Generates the module for `seed`. The result always verifies, always
/// terminates, and never traps under [`sim::run_module`]; `main` returns
/// one integer and one float checksum over every variable pool, helper
/// return value, and scratch store.
pub fn gen_module(seed: u64) -> Module {
    let mut g = Gen {
        lcg: Lcg::new(seed ^ 0x9e37_79b9_7f4a_7c15),
        globals: Vec::new(),
        labels: 0,
    };
    let mut m = Module::new();

    let f_elems = 8 + g.lcg.next_range(24);
    let i_elems = 8 + g.lcg.next_range(24);
    m.push_global(suite::f64_global("gfa", f_elems as usize, seed ^ 1));
    m.push_global(suite::i32_global("gia", i_elems as usize, 100, seed ^ 2));
    m.push_global(iloc::Global::zeroed("gsc", SCRATCH_BYTES));
    g.globals = vec![
        GlobalInfo {
            name: "gfa".into(),
            bytes: f_elems * 8,
            float: true,
        },
        GlobalInfo {
            name: "gia".into(),
            bytes: i_elems * 4,
            float: false,
        },
        GlobalInfo {
            name: "gsc".into(),
            bytes: SCRATCH_BYTES,
            float: g.lcg.chance(50),
        },
    ];

    // Helpers f1..fk, generated deepest-first so fi may call fj for j > i.
    let n_helpers = g.lcg.next_range(4) as usize;
    let mut callable: Vec<Callee> = Vec::new();
    for i in (1..=n_helpers).rev() {
        let recursive = g.lcg.chance(35);
        let sig = Callee {
            name: format!("f{i}"),
            // A recursive helper spends its first int param on depth.
            iparams: 1 + g.lcg.next_range(2) as usize,
            fparams: g.lcg.next_range(3) as usize,
            rets: match g.lcg.next_range(3) {
                0 => vec![RegClass::Gpr],
                1 => vec![RegClass::Fpr],
                _ => vec![RegClass::Gpr, RegClass::Fpr],
            },
        };
        let f = g.gen_function(&sig, &callable, recursive);
        callable.push(sig);
        m.functions.insert(0, f);
    }

    let main_sig = Callee {
        name: "main".into(),
        iparams: 0,
        fparams: 0,
        rets: vec![RegClass::Gpr, RegClass::Fpr],
    };
    let main = g.gen_function(&main_sig, &callable, false);
    m.push_function(main);

    m.verify()
        .unwrap_or_else(|e| panic!("generated module (seed {seed}) failed verify: {e}"));
    m
}

impl Gen {
    fn fresh_label(&mut self, stem: &str) -> String {
        self.labels += 1;
        format!("{stem}{}", self.labels)
    }

    fn gen_function(
        &mut self,
        sig: &Callee,
        callable: &[Callee],
        recursive: bool,
    ) -> iloc::Function {
        let mut fb = FuncBuilder::new(&sig.name);
        let ip: Vec<Reg> = (0..sig.iparams).map(|_| fb.param(RegClass::Gpr)).collect();
        let fp: Vec<Reg> = (0..sig.fparams).map(|_| fb.param(RegClass::Fpr)).collect();
        fb.set_ret_classes(&sig.rets);

        // Variable pools: fixed (multiply-defined) vregs, initialized in
        // the prologue and all read by the epilogue, so each stays live
        // across the whole body. `main` dials float pressure past the 32
        // FPRs often enough that most modules spill.
        let nf = if sig.name == "main" {
            3 + self.lcg.next_range(38) as usize
        } else {
            2 + self.lcg.next_range(16) as usize
        };
        let ni = 3 + self.lcg.next_range(10) as usize;
        let mut cx = FnCtx {
            ints: (0..ni).map(|_| fb.vreg(RegClass::Gpr)).collect(),
            floats: (0..nf).map(|_| fb.vreg(RegClass::Fpr)).collect(),
            callees: callable.to_vec(),
        };
        for &dst in &cx.ints {
            if !ip.is_empty() && self.lcg.chance(30) {
                let src = *self.lcg.pick(&ip);
                fb.emit(Op::I2I { src, dst });
            } else {
                let imm = self.lcg.next_range(2000) as i64 - 1000;
                fb.emit(Op::LoadI { imm, dst });
            }
        }
        for &dst in &cx.floats {
            if !fp.is_empty() && self.lcg.chance(30) {
                let src = *self.lcg.pick(&fp);
                fb.emit(Op::F2F { src, dst });
            } else if self.lcg.chance(25) {
                let src = self.gen_float_load(&mut fb);
                fb.emit(Op::F2F { src, dst });
            } else {
                let imm = self.lcg.next_f64() * 4.0;
                fb.emit(Op::LoadF { imm, dst });
            }
        }

        // Bounded self-recursion: if depth (first int param) is positive,
        // recurse with depth - 1 and fold the results into the pools.
        if recursive {
            let depth = ip[0];
            let zero = fb.loadi(0);
            let cond = fb.icmp(CmpKind::Gt, depth, zero);
            let bt = fb.block(self.fresh_label("rec"));
            let bj = fb.block(self.fresh_label("recjoin"));
            fb.cbr(cond, bt, bj);
            fb.switch_to(bt);
            let next = fb.subi(depth, 1);
            let mut args = vec![next];
            args.extend(ip.iter().skip(1).copied());
            for _ in 0..sig.fparams {
                args.push(*self.lcg.pick(&cx.floats));
            }
            let rets = fb.call(&sig.name, &args, &sig.rets);
            self.absorb_values(&mut fb, &mut cx, &rets);
            fb.jump(bj);
            fb.switch_to(bj);
        }

        let budget = 6 + self.lcg.next_range(14) as usize;
        self.gen_stmts(&mut fb, &mut cx, budget, 0);

        self.gen_epilogue(&mut fb, &cx, sig);
        fb.finish()
    }

    /// Copies freshly produced values (call returns) into random pool
    /// slots so they feed the checksum.
    fn absorb_values(&mut self, fb: &mut FuncBuilder, cx: &mut FnCtx, vals: &[Reg]) {
        for &v in vals {
            match v.class() {
                RegClass::Gpr => {
                    let dst = *self.lcg.pick(&cx.ints);
                    fb.emit(Op::I2I { src: v, dst });
                }
                RegClass::Fpr => {
                    let dst = *self.lcg.pick(&cx.floats);
                    fb.emit(Op::F2F { src: v, dst });
                }
            }
        }
    }

    /// Emits `budget` statements into the current block (and any control
    /// flow they open). `depth` bounds nesting.
    fn gen_stmts(&mut self, fb: &mut FuncBuilder, cx: &mut FnCtx, budget: usize, depth: usize) {
        let mut left = budget;
        while left > 0 {
            let roll = self.lcg.next_range(100);
            if roll < 42 || depth >= 2 {
                self.gen_straight(fb, cx);
                left -= 1;
            } else if roll < 55 {
                self.gen_mem(fb, cx);
                left -= 1;
            } else if roll < 65 && !cx.callees.is_empty() {
                self.gen_call(fb, cx);
                left = left.saturating_sub(2);
            } else if roll < 80 {
                self.gen_diamond(fb, cx, depth);
                left = left.saturating_sub(4);
            } else if roll < 93 {
                self.gen_loop(fb, cx, depth);
                left = left.saturating_sub(5);
            } else {
                self.gen_irreducible(fb, cx);
                left = left.saturating_sub(6);
            }
        }
    }

    /// One straight-line arithmetic / compare / conversion statement.
    fn gen_straight(&mut self, fb: &mut FuncBuilder, cx: &mut FnCtx) {
        match self.lcg.next_range(8) {
            0 => {
                // Integer three-address op, divisors forced odd.
                let kinds = [
                    IBinKind::Add,
                    IBinKind::Sub,
                    IBinKind::Mult,
                    IBinKind::And,
                    IBinKind::Or,
                    IBinKind::Xor,
                    IBinKind::Shl,
                    IBinKind::Shr,
                    IBinKind::Div,
                    IBinKind::Rem,
                ];
                let kind = *self.lcg.pick(&kinds);
                let lhs = *self.lcg.pick(&cx.ints);
                let mut rhs = *self.lcg.pick(&cx.ints);
                if matches!(kind, IBinKind::Div | IBinKind::Rem) {
                    rhs = fb.ibini(IBinKind::Or, rhs, 1);
                }
                let t = fb.ibin(kind, lhs, rhs);
                let dst = *self.lcg.pick(&cx.ints);
                fb.emit(Op::I2I { src: t, dst });
            }
            1 => {
                let kinds = [
                    IBinKind::Add,
                    IBinKind::Sub,
                    IBinKind::Mult,
                    IBinKind::And,
                    IBinKind::Xor,
                    IBinKind::Shl,
                    IBinKind::Shr,
                ];
                let kind = *self.lcg.pick(&kinds);
                let lhs = *self.lcg.pick(&cx.ints);
                let imm = self.lcg.next_range(128) as i64 - 64;
                let t = fb.ibini(kind, lhs, imm);
                let dst = *self.lcg.pick(&cx.ints);
                fb.emit(Op::I2I { src: t, dst });
            }
            2 | 3 => {
                let kinds = [FBinKind::Add, FBinKind::Sub, FBinKind::Mult, FBinKind::Div];
                let kind = *self.lcg.pick(&kinds);
                let lhs = *self.lcg.pick(&cx.floats);
                let rhs = *self.lcg.pick(&cx.floats);
                let t = fb.vreg(RegClass::Fpr);
                fb.emit(Op::FBin {
                    kind,
                    lhs,
                    rhs,
                    dst: t,
                });
                let dst = *self.lcg.pick(&cx.floats);
                fb.emit(Op::F2F { src: t, dst });
            }
            4 => {
                let kinds = [
                    CmpKind::Lt,
                    CmpKind::Le,
                    CmpKind::Gt,
                    CmpKind::Ge,
                    CmpKind::Eq,
                    CmpKind::Ne,
                ];
                let kind = *self.lcg.pick(&kinds);
                let t = if self.lcg.chance(50) {
                    let lhs = *self.lcg.pick(&cx.ints);
                    let rhs = *self.lcg.pick(&cx.ints);
                    fb.icmp(kind, lhs, rhs)
                } else {
                    let lhs = *self.lcg.pick(&cx.floats);
                    let rhs = *self.lcg.pick(&cx.floats);
                    fb.fcmp(kind, lhs, rhs)
                };
                let dst = *self.lcg.pick(&cx.ints);
                fb.emit(Op::I2I { src: t, dst });
            }
            5 => {
                let src = *self.lcg.pick(&cx.ints);
                let t = fb.i2f(src);
                let dst = *self.lcg.pick(&cx.floats);
                fb.emit(Op::F2F { src: t, dst });
            }
            6 => {
                let src = *self.lcg.pick(&cx.floats);
                let t = fb.f2i(src);
                let dst = *self.lcg.pick(&cx.ints);
                fb.emit(Op::I2I { src: t, dst });
            }
            _ => {
                // Plain register shuffle between two pool slots.
                if self.lcg.chance(50) {
                    let src = *self.lcg.pick(&cx.ints);
                    let dst = *self.lcg.pick(&cx.ints);
                    fb.emit(Op::I2I { src, dst });
                } else {
                    let src = *self.lcg.pick(&cx.floats);
                    let dst = *self.lcg.pick(&cx.floats);
                    fb.emit(Op::F2F { src, dst });
                }
            }
        }
    }

    /// A float load from a random float global at an in-bounds offset,
    /// sometimes via a `base + k` register with a negative `loadAI`
    /// offset to exercise operand shapes the kernels never print.
    fn gen_float_load(&mut self, fb: &mut FuncBuilder) -> Reg {
        let g = self.pick_global(true);
        let off = 8 * self.lcg.next_range(g.bytes / 8) as i64;
        let base = fb.loadsym(g.name.clone());
        match self.lcg.next_range(3) {
            0 => fb.floadai(base, off),
            1 => {
                let adj = 8 * (1 + self.lcg.next_range(3)) as i64;
                let bumped = fb.addi(base, adj);
                fb.floadai(bumped, off - adj)
            }
            _ => {
                let addr = fb.addi(base, off);
                fb.fload(addr)
            }
        }
    }

    fn pick_global(&mut self, float: bool) -> GlobalInfo {
        let matches: Vec<GlobalInfo> = self
            .globals
            .iter()
            .filter(|g| g.float == float)
            .cloned()
            .collect();
        if matches.is_empty() {
            // The scratch global took the other element type this module.
            let any: Vec<GlobalInfo> = self.globals.to_vec();
            let g = self.lcg.pick(&any).clone();
            return GlobalInfo { float, ..g };
        }
        self.lcg.pick(&matches).clone()
    }

    /// One memory statement: a global load into a pool slot, or a store
    /// of a pool slot into the scratch global.
    fn gen_mem(&mut self, fb: &mut FuncBuilder, cx: &mut FnCtx) {
        let store = self.lcg.chance(40);
        if store {
            let float = self.lcg.chance(50);
            let elem: i64 = if float { 8 } else { 4 };
            let off = elem * self.lcg.next_range(SCRATCH_BYTES / elem as u32) as i64;
            let base = fb.loadsym("gsc");
            if float {
                let val = *self.lcg.pick(&cx.floats);
                if self.lcg.chance(50) {
                    fb.fstoreai(val, base, off);
                } else {
                    let addr = fb.addi(base, off);
                    fb.fstore(val, addr);
                }
            } else {
                let val = *self.lcg.pick(&cx.ints);
                if self.lcg.chance(50) {
                    fb.storeai(val, base, off);
                } else {
                    let addr = fb.addi(base, off);
                    fb.store(val, addr);
                }
            }
        } else if self.lcg.chance(50) {
            let t = self.gen_float_load(fb);
            let dst = *self.lcg.pick(&cx.floats);
            fb.emit(Op::F2F { src: t, dst });
        } else {
            let g = self.pick_global(false);
            let off = 4 * self.lcg.next_range(g.bytes / 4) as i64;
            let base = fb.loadsym(g.name.clone());
            let t = if self.lcg.chance(70) {
                fb.loadai(base, off)
            } else {
                let addr = fb.addi(base, off);
                fb.load(addr)
            };
            let dst = *self.lcg.pick(&cx.ints);
            fb.emit(Op::I2I { src: t, dst });
        }
    }

    fn gen_call(&mut self, fb: &mut FuncBuilder, cx: &mut FnCtx) {
        let sig = self.lcg.pick(&cx.callees).clone();
        let mut args = Vec::new();
        for i in 0..sig.iparams {
            if i == 0 {
                // Keep the (possibly recursive) depth argument small.
                args.push(fb.loadi(1 + self.lcg.next_range(3) as i64));
            } else {
                args.push(*self.lcg.pick(&cx.ints));
            }
        }
        for _ in 0..sig.fparams {
            args.push(*self.lcg.pick(&cx.floats));
        }
        let rets = fb.call(sig.name, &args, &sig.rets);
        self.absorb_values(fb, cx, &rets);
    }

    fn gen_diamond(&mut self, fb: &mut FuncBuilder, cx: &mut FnCtx, depth: usize) {
        let lhs = *self.lcg.pick(&cx.ints);
        let rhs = *self.lcg.pick(&cx.ints);
        let kind = *self
            .lcg
            .pick(&[CmpKind::Lt, CmpKind::Eq, CmpKind::Ge, CmpKind::Ne]);
        let cond = fb.icmp(kind, lhs, rhs);
        let bt = fb.block(self.fresh_label("then"));
        let be = fb.block(self.fresh_label("else"));
        let bj = fb.block(self.fresh_label("join"));
        fb.cbr(cond, bt, be);
        fb.switch_to(bt);
        let n = 1 + self.lcg.next_range(3) as usize;
        self.gen_stmts(fb, cx, n, depth + 1);
        fb.jump(bj);
        fb.switch_to(be);
        let n = 1 + self.lcg.next_range(3) as usize;
        self.gen_stmts(fb, cx, n, depth + 1);
        fb.jump(bj);
        fb.switch_to(bj);
    }

    fn gen_loop(&mut self, fb: &mut FuncBuilder, cx: &mut FnCtx, depth: usize) {
        let trips = 1 + self.lcg.next_range(5) as i64;
        let n = 1 + self.lcg.next_range(4) as usize;
        // Split the borrow: the closure needs `self` and `cx` but not `fb`
        // (it receives its own).
        let this = &mut *self;
        let ctx = &mut *cx;
        fb.counted_loop(0, trips, 1, |fb, iv| {
            let dst = *this.lcg.pick(&ctx.ints);
            let t = fb.add(iv, dst);
            fb.emit(Op::I2I { src: t, dst });
            this.gen_stmts(fb, ctx, n, depth + 1);
        });
    }

    /// A two-block cycle `{a, b}` entered at either block (an irreducible
    /// loop) and bounded by a dedicated countdown register that both
    /// blocks decrement and test.
    fn gen_irreducible(&mut self, fb: &mut FuncBuilder, cx: &mut FnCtx) {
        let k = fb.vreg(RegClass::Gpr);
        let trips = 2 + self.lcg.next_range(4) as i64;
        fb.emit(Op::LoadI { imm: trips, dst: k });
        let lhs = *self.lcg.pick(&cx.ints);
        let rhs = *self.lcg.pick(&cx.ints);
        let c0 = fb.icmp(CmpKind::Lt, lhs, rhs);
        let ba = fb.block(self.fresh_label("irra"));
        let bb = fb.block(self.fresh_label("irrb"));
        let bx = fb.block(self.fresh_label("irrx"));
        fb.cbr(c0, ba, bb);
        for (cur, other) in [(ba, bb), (bb, ba)] {
            fb.switch_to(cur);
            self.gen_straight(fb, cx);
            let t = fb.subi(k, 1);
            fb.emit(Op::I2I { src: t, dst: k });
            let zero = fb.loadi(0);
            let c = fb.icmp(CmpKind::Gt, k, zero);
            fb.cbr(c, other, bx);
        }
        fb.switch_to(bx);
    }

    /// Folds every pool (plus part of the scratch global, in `main`) into
    /// the function's return values.
    fn gen_epilogue(&mut self, fb: &mut FuncBuilder, cx: &FnCtx, sig: &Callee) {
        let mut iacc = cx.ints[0];
        for &r in &cx.ints[1..] {
            iacc = if self.lcg.chance(50) {
                fb.add(iacc, r)
            } else {
                fb.ibin(IBinKind::Xor, iacc, r)
            };
        }
        let mut facc = cx.floats[0];
        for &r in &cx.floats[1..] {
            facc = fb.fadd(facc, r);
        }
        if sig.name == "main" {
            // Read the scratch region back so every store is observable.
            let base = fb.loadsym("gsc");
            for i in 0..8 {
                let v = fb.loadai(base, 4 * i);
                iacc = fb.add(iacc, v);
                let f = fb.floadai(base, SCRATCH_BYTES as i64 / 2 + 8 * i);
                facc = fb.fadd(facc, f);
            }
        }
        let mut vals = Vec::new();
        for c in &sig.rets {
            vals.push(match c {
                RegClass::Gpr => iacc,
                RegClass::Fpr => facc,
            });
        }
        fb.ret(&vals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_module() {
        for seed in [0, 1, 42, 0xdead_beef] {
            let a = gen_module(seed);
            let b = gen_module(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert_eq!(a.to_string(), b.to_string());
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(gen_module(1).to_string(), gen_module(2).to_string());
    }

    #[test]
    fn generated_modules_run_trap_free() {
        for seed in 0..24 {
            let m = gen_module(seed);
            m.verify().unwrap();
            let mut alloc = m.clone();
            regalloc::allocate_module(&mut alloc, &regalloc::AllocConfig::default());
            let (vals, _) = sim::run_module(&alloc, sim::MachineConfig::with_ccm(512), "main")
                .unwrap_or_else(|e| panic!("seed {seed} trapped: {e}"));
            assert_eq!(vals.ints.len(), 1, "main returns one int checksum");
            assert_eq!(vals.floats.len(), 1, "main returns one float checksum");
        }
    }

    #[test]
    fn pressure_reaches_spilling() {
        let spilling = (0..32)
            .filter(|&s| {
                let mut m = gen_module(s);
                regalloc::allocate_module(&mut m, &regalloc::AllocConfig::default()).total_spilled()
                    > 0
            })
            .count();
        assert!(
            spilling >= 8,
            "only {spilling}/32 seeds spill; pressure too low"
        );
    }
}
