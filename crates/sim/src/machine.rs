//! The instruction-level simulator.
//!
//! Interprets a [`Module`] directly, counting cycles under the paper's
//! machine model. Globals are laid out at the bottom of main memory, the
//! stack at the top; the CCM is a **disjoint** byte array reached only by
//! `spill`/`restore` instructions, exactly as the paper's hardware sketch
//! prescribes. The simulator runs both pre-allocation code (virtual
//! registers) and allocated code (physical registers) — register files
//! are sized per function — which lets tests compare observable behavior
//! across every compilation configuration. What an ALU op computes is
//! not defined here: the interpreter calls `iloc::op`'s rule
//! ([`iloc::IBinKind::eval`], [`iloc::read_imm`], ...).
//!
//! # Cost of a run
//!
//! [`run_module`] builds a machine that runs once. Building it resolves
//! every `call` target and `loadSym` global to an index, so executing
//! either is an array read, not a name lookup. The interpreter then runs
//! one block's instruction slice at a time, with the function, the block
//! and the frame's registers held in locals. The step budget is charged
//! once per slice, by where control left it: a slice is cut where the
//! budget ends, so no instruction tests the budget and a run still traps
//! at exactly the instruction the budget allows, with the same
//! [`Metrics`]. Register files live on one stack per class, reused
//! across the run's calls, so a call allocates nothing once the stacks
//! have grown.
//!
//! A run leaves main memory dirty only where its stores wrote. Stores
//! that start in the global region and stores above it (the stack, or a
//! computed address in the gap) are tracked as two separate byte ranges,
//! and a dropped machine zeroes exactly those ranges and its global data:
//! the untouched gap between the globals at the bottom and the stack at
//! the top is never cleared, and never made resident.

use std::cell::Cell;
use std::fmt;

use iloc::{Instr, Module, Op, Reg, RegClass, SpillKind};

use crate::cache::Cache;
use crate::config::{MachineConfig, CCM_LATENCY, MEM_LATENCY, MEM_SIZE};
use crate::metrics::Metrics;

/// A simulator trap.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// Entry or callee not found.
    UnknownFunction(String),
    /// A `loadSym` referenced a global the module does not declare.
    UnknownGlobal(String),
    /// Main-memory access outside `[0, MEM_SIZE)`.
    MemOutOfBounds {
        /// The faulting byte address.
        addr: i64,
    },
    /// CCM access at or beyond the configured CCM size.
    CcmOutOfBounds {
        /// The faulting CCM offset.
        off: u32,
        /// The configured CCM size.
        size: u32,
    },
    /// Instruction budget exhausted.
    StepLimit,
    /// A φ-node was executed (the simulator requires non-SSA code).
    PhiEncountered,
    /// Integer division or remainder by zero.
    DivideByZero,
    /// The stack grew into the global data region.
    StackOverflow,
    /// A block fell through without a terminator.
    MissingTerminator,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            SimError::UnknownGlobal(n) => write!(f, "unknown global `{n}`"),
            SimError::MemOutOfBounds { addr } => write!(f, "memory access out of bounds at {addr}"),
            SimError::CcmOutOfBounds { off, size } => {
                write!(f, "ccm access at {off} beyond ccm size {size}")
            }
            SimError::StepLimit => write!(f, "instruction step limit exceeded"),
            SimError::PhiEncountered => write!(f, "phi executed (code not out of ssa)"),
            SimError::DivideByZero => write!(f, "integer divide by zero"),
            SimError::StackOverflow => write!(f, "stack overflow"),
            SimError::MissingTerminator => write!(f, "fell off the end of a block"),
        }
    }
}

impl std::error::Error for SimError {}

/// Values returned by the entry function.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RetValues {
    /// Integer return values, in signature order.
    pub ints: Vec<i64>,
    /// Float return values, in signature order.
    pub floats: Vec<f64>,
}

/// One activation's control state. Its registers are the top of the
/// machine's register stacks, from `gpr_base` and `fpr_base` up.
struct Frame<'m> {
    func: usize,
    block: usize,
    idx: usize,
    gpr_base: usize,
    fpr_base: usize,
    /// Caller registers receiving this activation's return values —
    /// borrowed from the caller's `Op::Call`, never cloned.
    ret_dsts: &'m [Reg],
    saved_sp: i64,
}

/// The call stack and the register files of every live activation; a
/// return pops its files and the next call reuses their storage.
#[derive(Default)]
struct Stack<'m> {
    frames: Vec<Frame<'m>>,
    gpr: Vec<i64>,
    fpr: Vec<f64>,
    /// Cycle at which each register's pending load completes (pipelined
    /// model only; empty otherwise), parallel to `gpr` and `fpr`.
    gpr_ready: Vec<u64>,
    fpr_ready: Vec<u64>,
}

impl Stack<'_> {
    /// Pops the register files of activations from `gpr_base` and
    /// `fpr_base` up.
    fn truncate(&mut self, gpr_base: usize, fpr_base: usize) {
        self.gpr.truncate(gpr_base);
        self.fpr.truncate(fpr_base);
        self.gpr_ready.truncate(gpr_base);
        self.fpr_ready.truncate(fpr_base);
    }
}

/// The running activation's register files.
struct Regs<'a> {
    gpr: &'a mut [i64],
    fpr: &'a mut [f64],
    gpr_ready: &'a mut [u64],
    fpr_ready: &'a mut [u64],
}

/// A function's layout, computed once per machine.
struct FuncInfo {
    /// Register-file lengths (highest index used + 1).
    gprs: usize,
    fprs: usize,
    frame_size: i64,
    /// Index of the function's entry block in [`Machine::block_names`].
    first_block: usize,
}

/// A `names` entry for an instruction that names nothing, or a name the
/// module does not declare.
const NO_NAME: u32 = u32::MAX;

/// Where control goes after one instruction.
enum Flow<'m> {
    /// The next instruction of the block.
    Next,
    /// The start of this block of the current function.
    Jump(usize),
    /// A new activation of function `callee`.
    Call {
        callee: usize,
        args: &'m [Reg],
        rets: &'m [Reg],
    },
    /// Back to the caller with these values.
    Ret(&'m [Reg]),
}

/// A byte range written by stores: `[lo, hi)`, empty when `lo >= hi`.
struct Written {
    lo: usize,
    hi: usize,
}

impl Written {
    const NONE: Written = Written {
        lo: usize::MAX,
        hi: 0,
    };
}

/// Main memory: the byte image, and what stores wrote to it in each of
/// its two regions.
struct Memory {
    bytes: Vec<u8>,
    /// The global data region is `[0, globals_end)`; the stack grows
    /// down from the top of `bytes` toward it.
    globals_end: usize,
    /// Stores that start in the global region.
    globals: Written,
    /// Stores that start above it: the stack, or a computed address in
    /// the gap between the two.
    above: Written,
}

impl Memory {
    /// The byte index of an access of `size` bytes at `addr`, if it lies
    /// inside memory. The bound test cannot overflow.
    fn check(&self, addr: i64, size: i64) -> Result<usize, SimError> {
        if addr < 0 || addr > self.bytes.len() as i64 - size {
            Err(SimError::MemOutOfBounds { addr })
        } else {
            Ok(addr as usize)
        }
    }

    fn read<const N: usize>(&self, addr: i64) -> Result<[u8; N], SimError> {
        let a = self.check(addr, N as i64)?;
        Ok(self.bytes[a..a + N].try_into().expect("N bytes"))
    }

    fn write<const N: usize>(&mut self, addr: i64, v: [u8; N]) -> Result<(), SimError> {
        let a = self.check(addr, N as i64)?;
        self.bytes[a..a + N].copy_from_slice(&v);
        let region = if a < self.globals_end {
            &mut self.globals
        } else {
            &mut self.above
        };
        region.lo = region.lo.min(a);
        region.hi = region.hi.max(a + N);
        Ok(())
    }

    /// Zeroes every byte a store wrote.
    fn clear_dirty(&mut self) {
        for w in [&self.globals, &self.above] {
            if w.lo < w.hi {
                self.bytes[w.lo..w.hi].fill(0);
            }
        }
    }
}

thread_local! {
    /// An all-zero main-memory image kept for the thread's next
    /// [`Machine`]. A dropped machine zeroes the bytes its stores wrote
    /// and its global data, and leaves its image here, so a thread
    /// allocates one image instead of a fresh `MEM_SIZE` buffer per
    /// simulation, and a run touches only the pages it writes: short
    /// runs pay neither for zeroing megabytes nor for making them
    /// resident.
    static SPARE_MEM: Cell<Option<Vec<u8>>> = const { Cell::new(None) };
}

/// The machine: memory, CCM, and execution state, for one run.
struct Machine<'m> {
    module: &'m Module,
    cfg: MachineConfig,
    mem: Memory,
    ccm: Vec<u8>,
    cache: Option<Cache>,
    /// Execution counters.
    metrics: Metrics,
    /// Base address of each global, in `module.globals` order.
    global_addrs: Vec<i64>,
    funcs: Vec<FuncInfo>,
    /// For every block of every function, in order: where its
    /// instructions' entries start in `names`.
    block_names: Vec<usize>,
    /// One entry per instruction: the callee's function index for a
    /// `call`, the global's index for a `loadSym`, else [`NO_NAME`].
    names: Vec<u32>,
    /// Test-only reference path: run one instruction per slice, so the
    /// budget, depth and trap accounting happen at every instruction.
    #[cfg(test)]
    step_by_step: bool,
    /// Test-only record of every slice start: `(metrics.instrs, call
    /// depth, instructions left in the block)`.
    #[cfg(test)]
    slice_starts: Option<Vec<(u64, u64, usize)>>,
}

impl<'m> Machine<'m> {
    /// Creates a machine, lays out the module's globals and resolves
    /// the names its instructions use.
    fn new(module: &'m Module, cfg: MachineConfig) -> Machine<'m> {
        let mut bytes = SPARE_MEM
            .with(Cell::take)
            .unwrap_or_else(|| vec![0u8; MEM_SIZE]);
        let mut global_addrs = Vec::with_capacity(module.globals.len());
        let mut next: i64 = 64; // keep address 0 unmapped
        for g in &module.globals {
            next = (next + 7) & !7;
            global_addrs.push(next);
            let base = next as usize;
            bytes[base..base + g.init.len()].copy_from_slice(&g.init);
            next += g.size as i64;
        }
        // A name declared twice resolves to its last declaration.
        let function = |name: &str| module.functions.iter().rposition(|f| f.name == name);
        let global = |name: &str| module.globals.iter().rposition(|g| g.name == name);
        let mut funcs = Vec::with_capacity(module.functions.len());
        let mut block_names = Vec::new();
        let mut names = Vec::new();
        for f in &module.functions {
            let (mut maxg, mut maxf) = (0, 0);
            f.for_each_reg(|r| match r.class() {
                RegClass::Gpr => maxg = maxg.max(r.index()),
                RegClass::Fpr => maxf = maxf.max(r.index()),
            });
            funcs.push(FuncInfo {
                gprs: maxg as usize + 1,
                fprs: maxf as usize + 1,
                frame_size: f.frame.frame_size() as i64,
                first_block: block_names.len(),
            });
            for b in &f.blocks {
                block_names.push(names.len());
                names.extend(b.instrs.iter().map(|i| {
                    let index = match &i.op {
                        Op::Call(call) => function(&call.callee),
                        Op::LoadSym { sym, .. } => global(sym),
                        _ => None,
                    };
                    index.map_or(NO_NAME, |x| x as u32)
                }));
            }
        }
        let cache = cfg.cache.clone().map(Cache::new);
        let ccm = vec![0u8; cfg.ccm_size as usize];
        Machine {
            module,
            cfg,
            mem: Memory {
                bytes,
                globals_end: next as usize,
                globals: Written::NONE,
                above: Written::NONE,
            },
            ccm,
            cache,
            metrics: Metrics::default(),
            global_addrs,
            funcs,
            block_names,
            names,
            #[cfg(test)]
            step_by_step: false,
            #[cfg(test)]
            slice_starts: None,
        }
    }

    /// Runs `entry` (which must take no parameters) to completion.
    fn run(&mut self, entry: &str) -> Result<RetValues, SimError> {
        if inject::faultpoint!("sim.unknown_global") {
            return Err(SimError::UnknownGlobal("__injected__".to_string()));
        }
        let entry = self
            .module
            .functions
            .iter()
            .rposition(|f| f.name == entry)
            .ok_or_else(|| SimError::UnknownFunction(entry.to_string()))?;
        self.interpret(&mut Stack::default(), entry)
    }

    /// The interpreter: runs activations a block slice at a time until
    /// the entry function returns or a trap. Kept out of line: inlined
    /// into `run_module` together with `Machine::new`, its loop made
    /// single-threaded `repro` ~3% slower on the kernels.
    #[inline(never)]
    fn interpret(&mut self, st: &mut Stack<'m>, entry: usize) -> Result<RetValues, SimError> {
        let module = self.module;
        let mut sp: i64 = MEM_SIZE as i64;
        self.push_frame(st, entry, &mut sp, &[])?;
        loop {
            // The running activation and its registers, the top of the
            // stacks, stay in locals until it calls or returns.
            let depth = st.frames.len() as u64;
            let frame = st.frames.last_mut().expect("at least one frame");
            let func = &module.functions[frame.func];
            let first_block = self.funcs[frame.func].first_block;
            let mut regs = Regs {
                gpr: &mut st.gpr[frame.gpr_base..],
                fpr: &mut st.fpr[frame.fpr_base..],
                gpr_ready: st.gpr_ready.get_mut(frame.gpr_base..).unwrap_or_default(),
                fpr_ready: st.fpr_ready.get_mut(frame.fpr_base..).unwrap_or_default(),
            };
            let exit = 'block: loop {
                // The trap fires on the first instruction past the
                // budget, counted but not executed. The fault point reads
                // as an exhausted budget once per slice.
                let left = self.cfg.max_steps - self.metrics.instrs;
                if left == 0 || inject::faultpoint!("sim.budget") {
                    self.metrics.instrs += 1;
                    return Err(SimError::StepLimit);
                }
                self.metrics.max_depth = self.metrics.max_depth.max(depth);
                let body = &func.blocks[frame.block].instrs[frame.idx..];
                if body.is_empty() {
                    self.metrics.instrs += 1;
                    return Err(SimError::MissingTerminator);
                }
                // The slice: the rest of the block, cut where the budget
                // ends. Every instruction in it is within budget.
                let len = body.len().min(usize::try_from(left).unwrap_or(usize::MAX));
                #[cfg(test)]
                let len = if self.step_by_step { 1 } else { len };
                #[cfg(test)]
                if let Some(starts) = &mut self.slice_starts {
                    starts.push((self.metrics.instrs, depth, body.len()));
                }
                let names = self.block_names[first_block + frame.block] + frame.idx;
                for (k, instr) in body[..len].iter().enumerate() {
                    let flow = self.step(instr, names + k, &mut regs);
                    if let Ok(Flow::Next) = flow {
                        continue;
                    }
                    self.metrics.instrs += k as u64 + 1;
                    match flow? {
                        Flow::Jump(target) => {
                            frame.block = target;
                            frame.idx = 0;
                            continue 'block;
                        }
                        exit => {
                            frame.idx += k + 1;
                            break 'block exit;
                        }
                    }
                }
                self.metrics.instrs += len as u64;
                frame.idx += len;
            };
            match exit {
                Flow::Call { callee, args, rets } => {
                    let caller = st.frames.last().expect("caller frame");
                    let (gpr_base, fpr_base) = (caller.gpr_base, caller.fpr_base);
                    self.push_frame(st, callee, &mut sp, rets)?;
                    let new = st.frames.last().expect("callee frame");
                    let (new_gpr, new_fpr) = (new.gpr_base, new.fpr_base);
                    // The k-th parameter of a class takes the k-th
                    // argument of that class.
                    let mut ints = args.iter().filter(|a| a.class() == RegClass::Gpr);
                    let mut floats = args.iter().filter(|a| a.class() == RegClass::Fpr);
                    for p in &module.functions[callee].params {
                        let p_at = p.index() as usize;
                        match p.class() {
                            RegClass::Gpr => {
                                let a = ints.next().expect("an argument for every parameter");
                                st.gpr[new_gpr + p_at] = st.gpr[gpr_base + a.index() as usize];
                            }
                            RegClass::Fpr => {
                                let a = floats.next().expect("an argument for every parameter");
                                st.fpr[new_fpr + p_at] = st.fpr[fpr_base + a.index() as usize];
                            }
                        }
                    }
                }
                Flow::Ret(vals) => {
                    let done = st.frames.pop().expect("current frame");
                    sp = done.saved_sp;
                    let Some(caller) = st.frames.last() else {
                        // Entry function returned: collect values.
                        let mut out = RetValues::default();
                        for v in vals {
                            let at = v.index() as usize;
                            match v.class() {
                                RegClass::Gpr => out.ints.push(st.gpr[done.gpr_base + at]),
                                RegClass::Fpr => out.floats.push(st.fpr[done.fpr_base + at]),
                            }
                        }
                        if let Some(c) = &self.cache {
                            self.metrics.cache = c.stats;
                        }
                        return Ok(out);
                    };
                    for (v, dst) in vals.iter().zip(done.ret_dsts) {
                        let (from, to) = (v.index() as usize, dst.index() as usize);
                        match v.class() {
                            RegClass::Gpr => {
                                st.gpr[caller.gpr_base + to] = st.gpr[done.gpr_base + from]
                            }
                            RegClass::Fpr => {
                                st.fpr[caller.fpr_base + to] = st.fpr[done.fpr_base + from]
                            }
                        }
                    }
                    st.truncate(done.gpr_base, done.fpr_base);
                }
                Flow::Next | Flow::Jump(_) => unreachable!("handled inside the block"),
            }
        }
    }

    /// Pushes an activation of `func` with zeroed registers, its frame
    /// below `sp`.
    fn push_frame(
        &self,
        st: &mut Stack<'m>,
        func: usize,
        sp: &mut i64,
        ret_dsts: &'m [Reg],
    ) -> Result<(), SimError> {
        let info = &self.funcs[func];
        let saved_sp = *sp;
        let new_sp = (*sp - info.frame_size) & !7;
        if new_sp < self.mem.globals_end as i64 {
            return Err(SimError::StackOverflow);
        }
        *sp = new_sp;
        let (gpr_base, fpr_base) = (st.gpr.len(), st.fpr.len());
        st.gpr.resize(gpr_base + info.gprs, 0);
        st.fpr.resize(fpr_base + info.fprs, 0.0);
        if self.cfg.load_delay.is_some() {
            st.gpr_ready.resize(gpr_base + info.gprs, 0);
            st.fpr_ready.resize(fpr_base + info.fprs, 0);
        }
        st.gpr[gpr_base + Reg::RARP.index() as usize] = new_sp;
        st.frames.push(Frame {
            func,
            block: 0,
            idx: 0,
            gpr_base,
            fpr_base,
            ret_dsts,
            saved_sp,
        });
        Ok(())
    }

    /// Executes one instruction of the running activation; `name` is its
    /// entry in [`Machine::names`].
    #[inline(always)]
    fn step(
        &mut self,
        instr: &'m Instr,
        name: usize,
        r: &mut Regs<'_>,
    ) -> Result<Flow<'m>, SimError> {
        match instr.spill {
            SpillKind::Store(_) => self.metrics.spill_stores += 1,
            SpillKind::Restore(_) => self.metrics.spill_restores += 1,
            SpillKind::None => {}
        }

        // Pipelined-load model: stall until every register this
        // instruction touches is ready.
        if self.cfg.load_delay.is_some() {
            let mut ready = 0u64;
            let mut scan = |reg: Reg| {
                let t = match reg.class() {
                    RegClass::Gpr => r.gpr_ready[reg.index() as usize],
                    RegClass::Fpr => r.fpr_ready[reg.index() as usize],
                };
                ready = ready.max(t);
            };
            instr.op.visit_uses(&mut scan);
            instr.op.visit_defs(&mut scan);
            if ready > self.metrics.cycles {
                self.metrics.stall_cycles += ready - self.metrics.cycles;
                self.metrics.cycles = ready;
            }
        }

        // Default cost; memory ops override below.
        let op = &instr.op;
        match op {
            // ---- constants / moves / arithmetic: 1 cycle -------------
            Op::LoadI { imm, dst } => {
                self.metrics.cycles += 1;
                r.gpr[dst.index() as usize] = iloc::read_imm(*imm);
            }
            Op::LoadF { imm, dst } => {
                self.metrics.cycles += 1;
                r.fpr[dst.index() as usize] = *imm;
            }
            Op::LoadSym { sym, dst } => {
                self.metrics.cycles += 1;
                r.gpr[dst.index() as usize] = match self.global_addrs.get(self.names[name] as usize)
                {
                    Some(&base) => base,
                    None => return Err(SimError::UnknownGlobal(sym.to_string())),
                };
            }
            Op::IBin {
                kind,
                lhs,
                rhs,
                dst,
            } => {
                self.metrics.cycles += 1;
                let a = r.gpr[lhs.index() as usize];
                let b = r.gpr[rhs.index() as usize];
                r.gpr[dst.index() as usize] = kind.eval(a, b).ok_or(SimError::DivideByZero)?;
            }
            Op::IBinI {
                kind,
                lhs,
                imm,
                dst,
            } => {
                self.metrics.cycles += 1;
                let a = r.gpr[lhs.index() as usize];
                r.gpr[dst.index() as usize] = kind.eval(a, *imm).ok_or(SimError::DivideByZero)?;
            }
            Op::FBin {
                kind,
                lhs,
                rhs,
                dst,
            } => {
                self.metrics.cycles += 1;
                let a = r.fpr[lhs.index() as usize];
                let b = r.fpr[rhs.index() as usize];
                r.fpr[dst.index() as usize] = kind.eval(a, b);
            }
            Op::ICmp {
                kind,
                lhs,
                rhs,
                dst,
            } => {
                self.metrics.cycles += 1;
                let a = r.gpr[lhs.index() as usize];
                let b = r.gpr[rhs.index() as usize];
                r.gpr[dst.index() as usize] = kind.eval(a, b);
            }
            Op::FCmp {
                kind,
                lhs,
                rhs,
                dst,
            } => {
                self.metrics.cycles += 1;
                let a = r.fpr[lhs.index() as usize];
                let b = r.fpr[rhs.index() as usize];
                r.gpr[dst.index() as usize] = kind.eval(a, b);
            }
            Op::I2I { src, dst } => {
                self.metrics.cycles += 1;
                r.gpr[dst.index() as usize] = r.gpr[src.index() as usize];
            }
            Op::F2F { src, dst } => {
                self.metrics.cycles += 1;
                r.fpr[dst.index() as usize] = r.fpr[src.index() as usize];
            }
            Op::I2F { src, dst } => {
                self.metrics.cycles += 1;
                r.fpr[dst.index() as usize] = r.gpr[src.index() as usize] as f64;
            }
            Op::F2I { src, dst } => {
                self.metrics.cycles += 1;
                r.gpr[dst.index() as usize] = iloc::f2i(r.fpr[src.index() as usize]);
            }

            // ---- main memory: MEM_LATENCY (or cache) ----------------
            // Effective addresses wrap: an offset far outside memory
            // traps as out of bounds, never as an arithmetic overflow.
            Op::Load { addr, dst } | Op::LoadAI { addr, dst, .. } => {
                let off = match op {
                    Op::LoadAI { off, .. } => *off,
                    _ => 0,
                };
                let a = r.gpr[addr.index() as usize].wrapping_add(off);
                let v = i32::from_le_bytes(self.mem.read(a)?);
                let lat = self.mem_access(a, false);
                r.gpr[dst.index() as usize] = v as i64;
                let lat = match self.cfg.load_delay {
                    Some(d) => {
                        r.gpr_ready[dst.index() as usize] = self.metrics.cycles + 1 + d;
                        1
                    }
                    None => lat,
                };
                self.metrics.cycles += lat;
                self.metrics.mem_op_cycles += lat;
                self.metrics.main_mem_ops += 1;
            }
            Op::FLoad { addr, dst } | Op::FLoadAI { addr, dst, .. } => {
                let off = match op {
                    Op::FLoadAI { off, .. } => *off,
                    _ => 0,
                };
                let a = r.gpr[addr.index() as usize].wrapping_add(off);
                let v = f64::from_le_bytes(self.mem.read(a)?);
                let lat = self.mem_access(a, false);
                r.fpr[dst.index() as usize] = v;
                let lat = match self.cfg.load_delay {
                    Some(d) => {
                        r.fpr_ready[dst.index() as usize] = self.metrics.cycles + 1 + d;
                        1
                    }
                    None => lat,
                };
                self.metrics.cycles += lat;
                self.metrics.mem_op_cycles += lat;
                self.metrics.main_mem_ops += 1;
            }
            Op::Store { val, addr } | Op::StoreAI { val, addr, .. } => {
                let off = match op {
                    Op::StoreAI { off, .. } => *off,
                    _ => 0,
                };
                let a = r.gpr[addr.index() as usize].wrapping_add(off);
                let v = r.gpr[val.index() as usize] as i32;
                self.mem.write(a, v.to_le_bytes())?;
                let lat = match self.cfg.load_delay {
                    Some(_) => 1,
                    None => self.mem_access(a, true),
                };
                self.metrics.cycles += lat;
                self.metrics.mem_op_cycles += lat;
                self.metrics.main_mem_ops += 1;
            }
            Op::FStore { val, addr } | Op::FStoreAI { val, addr, .. } => {
                let off = match op {
                    Op::FStoreAI { off, .. } => *off,
                    _ => 0,
                };
                let a = r.gpr[addr.index() as usize].wrapping_add(off);
                let v = r.fpr[val.index() as usize];
                self.mem.write(a, v.to_le_bytes())?;
                let lat = match self.cfg.load_delay {
                    Some(_) => 1,
                    None => self.mem_access(a, true),
                };
                self.metrics.cycles += lat;
                self.metrics.mem_op_cycles += lat;
                self.metrics.main_mem_ops += 1;
            }

            // ---- CCM: CCM_LATENCY, disjoint address space -----------
            Op::CcmStore { val, off } => {
                let v = r.gpr[val.index() as usize] as i32;
                let at = self.ccm_check(*off, 4)?;
                self.ccm[at..at + 4].copy_from_slice(&v.to_le_bytes());
                self.charge_ccm();
            }
            Op::CcmLoad { off, dst } => {
                let at = self.ccm_check(*off, 4)?;
                let v = i32::from_le_bytes(self.ccm[at..at + 4].try_into().expect("4 bytes"));
                r.gpr[dst.index() as usize] = v as i64;
                self.charge_ccm();
            }
            Op::CcmFStore { val, off } => {
                let v = r.fpr[val.index() as usize];
                let at = self.ccm_check(*off, 8)?;
                self.ccm[at..at + 8].copy_from_slice(&v.to_le_bytes());
                self.charge_ccm();
            }
            Op::CcmFLoad { off, dst } => {
                let at = self.ccm_check(*off, 8)?;
                let v = f64::from_le_bytes(self.ccm[at..at + 8].try_into().expect("8 bytes"));
                r.fpr[dst.index() as usize] = v;
                self.charge_ccm();
            }

            // ---- control flow ---------------------------------------
            Op::Jump { target } => {
                self.metrics.cycles += 1;
                return Ok(Flow::Jump(target.index()));
            }
            Op::Cbr {
                cond,
                taken,
                not_taken,
            } => {
                self.metrics.cycles += 1;
                let t = if r.gpr[cond.index() as usize] != 0 {
                    taken
                } else {
                    not_taken
                };
                return Ok(Flow::Jump(t.index()));
            }
            Op::Call(call) => {
                self.metrics.cycles += 1;
                self.metrics.calls += 1;
                return match self.names[name] {
                    NO_NAME => Err(SimError::UnknownFunction(call.callee.clone())),
                    f => Ok(Flow::Call {
                        callee: f as usize,
                        args: &call.args,
                        rets: &call.rets,
                    }),
                };
            }
            Op::Ret { vals } => {
                self.metrics.cycles += 1;
                return Ok(Flow::Ret(vals));
            }

            Op::Phi { .. } => return Err(SimError::PhiEncountered),
            Op::Nop => {
                self.metrics.cycles += 1;
            }
        }
        Ok(Flow::Next)
    }

    fn mem_access(&mut self, addr: i64, is_store: bool) -> u64 {
        match &mut self.cache {
            Some(c) => c.access(addr as u64, is_store),
            None => MEM_LATENCY,
        }
    }

    /// The CCM index of an access of `size` bytes at `off`, if it lies
    /// inside the CCM. The bound test cannot overflow.
    fn ccm_check(&self, off: u32, size: u32) -> Result<usize, SimError> {
        if u64::from(off) + u64::from(size) > u64::from(self.cfg.ccm_size) {
            Err(SimError::CcmOutOfBounds {
                off,
                size: self.cfg.ccm_size,
            })
        } else {
            Ok(off as usize)
        }
    }

    fn charge_ccm(&mut self) {
        self.metrics.cycles += CCM_LATENCY;
        self.metrics.mem_op_cycles += CCM_LATENCY;
        self.metrics.ccm_ops += 1;
    }
}

impl Drop for Machine<'_> {
    /// Returns the main-memory image to `SPARE_MEM` all-zero: it zeroes
    /// what stores wrote and the global data below `globals_end`, which
    /// [`Machine::new`] wrote without a store.
    fn drop(&mut self) {
        self.mem.clear_dirty();
        let globals_end = self.mem.globals_end.min(self.mem.bytes.len());
        self.mem.bytes[..globals_end].fill(0);
        let mem = std::mem::take(&mut self.mem.bytes);
        // During thread teardown the slot may already be gone; the image
        // is then simply freed.
        let _ = SPARE_MEM.try_with(|spare| spare.set(Some(mem)));
    }
}

/// Runs `entry` (which must take no parameters) of `module` to
/// completion on a fresh machine and returns `(values, metrics)`.
///
/// # Errors
///
/// Returns a [`SimError`] on any trap; see the enum for conditions.
pub fn run_module(
    module: &Module,
    cfg: MachineConfig,
    entry: &str,
) -> Result<(RetValues, Metrics), SimError> {
    let mut m = Machine::new(module, cfg);
    let v = m.run(entry)?;
    Ok((v, m.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{Function, Global, Module, RegClass};

    fn module_of(fns: Vec<Function>, globals: Vec<Global>) -> Module {
        let mut m = Module::new();
        for g in globals {
            m.push_global(g);
        }
        for f in fns {
            m.push_function(f);
        }
        m.verify().unwrap();
        m
    }

    #[test]
    fn arithmetic_and_return() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(6);
        let b = fb.loadi(7);
        let c = fb.mult(a, b);
        fb.ret(&[c]);
        let m = module_of(vec![fb.finish()], vec![]);
        let (v, metrics) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![42]);
        assert_eq!(metrics.instrs, 4);
        assert_eq!(metrics.cycles, 4); // all single-cycle
        assert_eq!(metrics.mem_op_cycles, 0);
    }

    #[test]
    fn memory_ops_cost_two_cycles() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let base = fb.loadsym("g");
        let v = fb.loadi(5);
        fb.storeai(v, base, 0);
        let r = fb.loadai(base, 0);
        fb.ret(&[r]);
        let m = module_of(vec![fb.finish()], vec![Global::zeroed("g", 8)]);
        let (v, metrics) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![5]);
        // 3 single-cycle + 2 two-cycle memory ops = 7 cycles.
        assert_eq!(metrics.cycles, 7);
        assert_eq!(metrics.mem_op_cycles, 4);
        assert_eq!(metrics.main_mem_ops, 2);
    }

    #[test]
    fn ccm_ops_cost_one_cycle_and_are_disjoint() {
        // Write 11 to ccm[0] and 22 to main memory address of g; they must
        // not alias.
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr, RegClass::Gpr]);
        let base = fb.loadsym("g");
        let a = fb.loadi(11);
        let b = fb.loadi(22);
        fb.emit(Op::CcmStore { val: a, off: 0 });
        fb.storeai(b, base, 0);
        let x = fb.vreg(RegClass::Gpr);
        fb.emit(Op::CcmLoad { off: 0, dst: x });
        let y = fb.loadai(base, 0);
        fb.ret(&[x, y]);
        let m = module_of(vec![fb.finish()], vec![Global::zeroed("g", 8)]);
        let (v, metrics) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![11, 22]);
        assert_eq!(metrics.ccm_ops, 2);
        assert_eq!(metrics.main_mem_ops, 2);
        // CCM ops cost 1; memory ops cost 2.
        assert_eq!(metrics.mem_op_cycles, 2 + 2 * 2);
    }

    #[test]
    fn float_roundtrip_through_memory_and_ccm() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Fpr, RegClass::Fpr]);
        let base = fb.loadsym("g");
        let x = fb.loadf(2.75);
        fb.fstoreai(x, base, 8);
        fb.emit(Op::CcmFStore { val: x, off: 16 });
        let a = fb.floadai(base, 8);
        let b = fb.vreg(RegClass::Fpr);
        fb.emit(Op::CcmFLoad { off: 16, dst: b });
        fb.ret(&[a, b]);
        let m = module_of(vec![fb.finish()], vec![Global::zeroed("g", 16)]);
        let (v, _) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.floats, vec![2.75, 2.75]);
    }

    #[test]
    fn loop_sums_correctly() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let acc = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadI { imm: 0, dst: acc });
        fb.counted_loop(0, 10, 1, |fb, iv| {
            let t = fb.add(acc, iv);
            fb.emit(Op::I2I { src: t, dst: acc });
        });
        fb.ret(&[acc]);
        let m = module_of(vec![fb.finish()], vec![]);
        let (v, _) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![45]);
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        let mut callee = FuncBuilder::new("addmul");
        let p = callee.param(RegClass::Gpr);
        let q = callee.param(RegClass::Fpr);
        callee.set_ret_classes(&[RegClass::Fpr]);
        let pf = callee.i2f(p);
        let r = callee.fmult(pf, q);
        callee.ret(&[r]);

        let mut main = FuncBuilder::new("main");
        main.set_ret_classes(&[RegClass::Fpr]);
        let a = main.loadi(4);
        let x = main.loadf(2.5);
        let rets = main.call("addmul", &[a, x], &[RegClass::Fpr]);
        main.ret(&[rets[0]]);

        let m = module_of(vec![callee.finish(), main.finish()], vec![]);
        let (v, metrics) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.floats, vec![10.0]);
        assert_eq!(metrics.calls, 1);
        assert_eq!(metrics.max_depth, 2);
    }

    #[test]
    fn recursion_works_with_separate_frames() {
        // fact(n) via recursion, each frame with its own registers.
        let mut f = FuncBuilder::new("fact");
        let n = f.param(RegClass::Gpr);
        f.set_ret_classes(&[RegClass::Gpr]);
        let one = f.loadi(1);
        let c = f.icmp(iloc::CmpKind::Le, n, one);
        let base = f.block("base");
        let rec = f.block("rec");
        f.cbr(c, base, rec);
        f.switch_to(base);
        let r1 = f.loadi(1);
        f.ret(&[r1]);
        f.switch_to(rec);
        let nm1 = f.subi(n, 1);
        let sub = f.call("fact", &[nm1], &[RegClass::Gpr]);
        let r = f.mult(n, sub[0]);
        f.ret(&[r]);

        let mut main = FuncBuilder::new("main");
        main.set_ret_classes(&[RegClass::Gpr]);
        let five = main.loadi(5);
        let rets = main.call("fact", &[five], &[RegClass::Gpr]);
        main.ret(&[rets[0]]);

        let m = module_of(vec![f.finish(), main.finish()], vec![]);
        let (v, metrics) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![120]);
        assert_eq!(metrics.max_depth, 6);
    }

    #[test]
    fn frame_locals_are_per_activation() {
        // Callee writes to its frame; caller's frame unaffected.
        let mut callee = FuncBuilder::new("scribble");
        callee.alloc_local(16);
        let v = callee.loadi(99);
        callee.storeai(v, Reg::RARP, 0);
        callee.ret(&[]);

        let mut main = FuncBuilder::new("main");
        main.set_ret_classes(&[RegClass::Gpr]);
        main.alloc_local(16);
        let v = main.loadi(7);
        main.storeai(v, Reg::RARP, 0);
        main.call("scribble", &[], &[]);
        let r = main.loadai(Reg::RARP, 0);
        main.ret(&[r]);

        let m = module_of(vec![callee.finish(), main.finish()], vec![]);
        let (v, _) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![7]);
    }

    #[test]
    fn ccm_out_of_bounds_traps() {
        let mut fb = FuncBuilder::new("main");
        let a = fb.loadi(1);
        fb.emit(Op::CcmStore { val: a, off: 1022 });
        fb.ret(&[]);
        let m = module_of(vec![fb.finish()], vec![]);
        let err = run_module(&m, MachineConfig::with_ccm(1024), "main").unwrap_err();
        assert!(matches!(err, SimError::CcmOutOfBounds { .. }));
    }

    #[test]
    fn memory_out_of_bounds_traps() {
        let mut fb = FuncBuilder::new("main");
        let a = fb.loadi(-5);
        let _ = fb.loadai(a, 0);
        fb.ret(&[]);
        let m = module_of(vec![fb.finish()], vec![]);
        let err = run_module(&m, MachineConfig::default(), "main").unwrap_err();
        assert!(matches!(err, SimError::MemOutOfBounds { .. }));
    }

    #[test]
    fn divide_by_zero_traps() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let a = fb.loadi(1);
        let z = fb.loadi(0);
        let q = fb.idiv(a, z);
        fb.ret(&[q]);
        let m = module_of(vec![fb.finish()], vec![]);
        assert_eq!(
            run_module(&m, MachineConfig::default(), "main").unwrap_err(),
            SimError::DivideByZero
        );
    }

    #[test]
    fn step_limit_catches_infinite_loop() {
        let mut fb = FuncBuilder::new("main");
        let spin = fb.block("spin");
        fb.jump(spin);
        fb.switch_to(spin);
        fb.jump(spin);
        let m = module_of(vec![fb.finish()], vec![]);
        for max_steps in [1, 2, 17, 1000] {
            let cfg = MachineConfig {
                max_steps,
                ..MachineConfig::default()
            };
            let mut machine = Machine::new(&m, cfg);
            assert_eq!(machine.run("main").unwrap_err(), SimError::StepLimit);
            // The trap fires on the first instruction past the budget,
            // before it executes: every counted instruction but that one
            // cost its cycle.
            assert_eq!(machine.metrics.instrs, max_steps + 1);
            assert_eq!(machine.metrics.cycles, max_steps);
        }
    }

    #[test]
    fn unknown_global_traps_when_executed() {
        let mut fb = FuncBuilder::new("main");
        let d = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadSym {
            sym: "nope".into(),
            dst: d,
        });
        fb.ret(&[]);
        let mut m = Module::new();
        m.push_function(fb.finish());
        assert_eq!(
            run_module(&m, MachineConfig::default(), "main").unwrap_err(),
            SimError::UnknownGlobal("nope".to_string())
        );
    }

    #[test]
    fn unknown_global_on_cold_path_does_not_trap() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let one = fb.loadi(1);
        let hot = fb.block("hot");
        let cold = fb.block("cold");
        fb.cbr(one, hot, cold);
        fb.switch_to(cold);
        let d = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadSym {
            sym: "nope".into(),
            dst: d,
        });
        fb.ret(&[d]);
        fb.switch_to(hot);
        let r = fb.loadi(7);
        fb.ret(&[r]);
        let mut m = Module::new();
        m.push_function(fb.finish());
        let (v, _) = run_module(&m, MachineConfig::default(), "main").expect("cold path");
        assert_eq!(v.ints, vec![7]);
    }

    #[test]
    fn unknown_callee_traps() {
        let mut fb = FuncBuilder::new("main");
        fb.call("ghost", &[], &[]);
        fb.ret(&[]);
        let mut m = Module::new();
        m.push_function(fb.finish());
        assert_eq!(
            run_module(&m, MachineConfig::default(), "main").unwrap_err(),
            SimError::UnknownFunction("ghost".to_string())
        );
    }

    #[test]
    fn missing_terminator_traps() {
        let mut f = Function::new("main");
        let e = f.entry();
        let v = f.new_vreg(RegClass::Gpr);
        f.block_mut(e)
            .instrs
            .push(iloc::Instr::new(Op::LoadI { imm: 1, dst: v }));
        let mut m = Module::new();
        m.push_function(f);
        let mut machine = Machine::new(&m, MachineConfig::default());
        assert_eq!(
            machine.run("main").unwrap_err(),
            SimError::MissingTerminator
        );
        // One real instruction ran; the fall-off is counted but costs
        // no cycle.
        assert_eq!(machine.metrics.instrs, 2);
        assert_eq!(machine.metrics.cycles, 1);
    }

    #[test]
    fn a_dropped_machine_leaves_an_all_zero_image_for_the_next() {
        // Writes a global at the bottom of memory and a frame slot at the
        // top (the stack), then reads both back.
        let mut f = Function::new("main");
        f.ret_classes = vec![RegClass::Gpr, RegClass::Gpr];
        let slot = f.frame.new_slot(RegClass::Gpr);
        let off = f.frame.slot(slot).offset as i64;
        let e = f.entry();
        let (g, v, w, x) = (
            f.new_vreg(RegClass::Gpr),
            f.new_vreg(RegClass::Gpr),
            f.new_vreg(RegClass::Gpr),
            f.new_vreg(RegClass::Gpr),
        );
        f.block_mut(e).instrs = [
            Op::LoadSym {
                sym: "g".into(),
                dst: g,
            },
            Op::LoadI { imm: -1, dst: v },
            Op::StoreAI {
                val: v,
                addr: g,
                off: 4,
            },
            Op::StoreAI {
                val: v,
                addr: Reg::RARP,
                off,
            },
            Op::LoadAI {
                addr: Reg::RARP,
                off,
                dst: w,
            },
            Op::LoadAI {
                addr: g,
                off: 4,
                dst: x,
            },
            Op::Ret {
                vals: [w, x].into(),
            },
        ]
        .into_iter()
        .map(iloc::Instr::new)
        .collect();
        let m = module_of(vec![f], vec![Global::from_i32s("g", &[7, 0])]);
        for _ in 0..2 {
            // The second run starts from the returned image and must see
            // exactly what the first saw.
            let (v, _) = run_module(&m, MachineConfig::default(), "main").unwrap();
            assert_eq!(v.ints, vec![-1, -1]);
            let mem = SPARE_MEM.with(Cell::take).expect("image returned");
            assert_eq!(mem.len(), MEM_SIZE);
            assert!(mem.iter().all(|&b| b == 0), "image not cleared");
            SPARE_MEM.with(|spare| spare.set(Some(mem)));
        }
    }

    #[test]
    fn a_run_zeroes_exactly_what_its_stores_wrote() {
        // Reads, then overwrites, four places: the first global byte, an
        // f64 across `globals_end` (g's last word and the first padding
        // word after it), a computed address in the gap between globals
        // and stack, and the last 8 bytes of memory. One run on each of
        // two machines on one thread: the second starts from the image the
        // first returned and must read the initial values again. The
        // bytes just past the crossing store and just below the gap store
        // hold canaries no store writes: a drop must leave them alone.
        let mem_size = MEM_SIZE as i64;
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr, RegClass::Gpr, RegClass::Fpr, RegClass::Fpr]);
        let g = fb.loadsym("g");
        let gap = fb.loadi(mem_size / 2 + 12);
        let top = fb.loadi(mem_size - 8);
        let first = fb.loadai(g, 0);
        let across = fb.floadai(g, 8);
        let in_gap = fb.loadai(gap, 0);
        let last = fb.floadai(top, 0);
        let v = fb.loadi(-3);
        let x = fb.loadf(6.5);
        fb.storeai(v, g, 0);
        fb.fstoreai(x, g, 8);
        fb.storeai(v, gap, 0);
        fb.fstoreai(x, top, 0);
        fb.ret(&[first, in_gap, across, last]);
        let m = module_of(vec![fb.finish()], vec![Global::from_i32s("g", &[7, 8, 9])]);
        let canaries = [64 + 16, mem_size as usize / 2 + 11];
        let mut seen = None;
        for _ in 0..2 {
            let mut machine = Machine::new(&m, MachineConfig::default());
            assert_eq!(machine.mem.globals_end, 64 + 12, "g ends mid-f64");
            for c in canaries {
                machine.mem.bytes[c] = 0xa5;
            }
            let v = machine.run("main").unwrap();
            assert_eq!(v.ints, vec![7, 0]);
            assert_eq!(v.floats[0].to_bits(), 9, "g's last word, then zeros");
            assert_eq!(v.floats[1].to_bits(), 0);
            let now = (v, machine.metrics);
            assert_eq!(*seen.get_or_insert_with(|| now.clone()), now);
            drop(machine);
            let mut mem = SPARE_MEM.with(Cell::take).expect("image returned");
            for c in canaries {
                assert_eq!(mem[c], 0xa5, "drop zeroed byte {c}");
                mem[c] = 0;
            }
            assert!(mem.iter().all(|&b| b == 0), "image not cleared");
            SPARE_MEM.with(|spare| spare.set(Some(mem)));
        }
    }

    #[test]
    fn huge_offsets_trap_at_the_wrapped_address() {
        // `base + off` wraps rather than overflowing, so a debug build
        // traps exactly where a release build does.
        for off in [i64::MAX, i64::MIN] {
            for class in [RegClass::Gpr, RegClass::Fpr] {
                for store in [false, true] {
                    let mut fb = FuncBuilder::new("main");
                    let base = fb.loadsym("g");
                    let v = fb.vreg(class);
                    fb.emit(match (class, store) {
                        (RegClass::Gpr, false) => Op::LoadAI {
                            addr: base,
                            off,
                            dst: v,
                        },
                        (RegClass::Gpr, true) => Op::StoreAI {
                            val: v,
                            addr: base,
                            off,
                        },
                        (RegClass::Fpr, false) => Op::FLoadAI {
                            addr: base,
                            off,
                            dst: v,
                        },
                        (RegClass::Fpr, true) => Op::FStoreAI {
                            val: v,
                            addr: base,
                            off,
                        },
                    });
                    fb.ret(&[]);
                    let m = module_of(vec![fb.finish()], vec![Global::zeroed("g", 8)]);
                    assert_eq!(
                        run_module(&m, MachineConfig::default(), "main").unwrap_err(),
                        SimError::MemOutOfBounds {
                            addr: 64i64.wrapping_add(off)
                        },
                        "{class:?} store={store} off={off}"
                    );
                }
            }
        }
        // The CCM bound test cannot overflow either.
        let mut fb = FuncBuilder::new("main");
        let v = fb.loadi(1);
        fb.emit(Op::CcmStore {
            val: v,
            off: u32::MAX,
        });
        fb.ret(&[]);
        let m = module_of(vec![fb.finish()], vec![]);
        assert_eq!(
            run_module(&m, MachineConfig::default(), "main").unwrap_err(),
            SimError::CcmOutOfBounds {
                off: u32::MAX,
                size: 1024
            }
        );
    }

    #[test]
    fn spill_tags_counted() {
        // Hand-write tagged spill code.
        let mut f = Function::new("main");
        f.ret_classes = vec![RegClass::Gpr];
        let slot = f.frame.new_slot(RegClass::Gpr);
        let off = f.frame.slot(slot).offset as i64;
        let e = f.entry();
        let v = f.new_vreg(RegClass::Gpr);
        let w = f.new_vreg(RegClass::Gpr);
        f.block_mut(e)
            .instrs
            .push(iloc::Instr::new(Op::LoadI { imm: 3, dst: v }));
        f.block_mut(e).instrs.push(iloc::Instr::spill_store(
            Op::StoreAI {
                val: v,
                addr: Reg::RARP,
                off,
            },
            slot,
        ));
        f.block_mut(e).instrs.push(iloc::Instr::spill_restore(
            Op::LoadAI {
                addr: Reg::RARP,
                off,
                dst: w,
            },
            slot,
        ));
        f.block_mut(e)
            .instrs
            .push(iloc::Instr::new(Op::Ret { vals: [w].into() }));
        let m = module_of(vec![f], vec![]);
        let (v, metrics) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![3]);
        assert_eq!(metrics.spill_stores, 1);
        assert_eq!(metrics.spill_restores, 1);
    }

    #[test]
    fn cache_model_changes_latency() {
        // Two loads of the same address: miss then hit.
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let base = fb.loadsym("g");
        let a = fb.loadai(base, 0);
        let b = fb.loadai(base, 0);
        let s = fb.add(a, b);
        fb.ret(&[s]);
        let m = module_of(vec![fb.finish()], vec![Global::zeroed("g", 8)]);
        let cfg = MachineConfig {
            cache: Some(crate::cache::CacheConfig::small_direct_mapped()),
            ..MachineConfig::default()
        };
        let (_, metrics) = run_module(&m, cfg, "main").unwrap();
        assert_eq!(metrics.cache.misses, 1);
        assert_eq!(metrics.cache.hits, 1);
        // loadsym(1) + miss(10) + hit(1) + add(1) + ret(1) = 14.
        assert_eq!(metrics.cycles, 14);
    }

    #[test]
    fn phi_execution_traps() {
        let mut f = Function::new("main");
        let e = f.entry();
        let d = f.new_vreg(RegClass::Gpr);
        f.block_mut(e).instrs.push(iloc::Instr::new(Op::Phi {
            dst: d,
            args: [].into(),
        }));
        f.block_mut(e)
            .instrs
            .push(iloc::Instr::new(Op::Ret { vals: [].into() }));
        let mut m = Module::new();
        m.push_function(f);
        assert_eq!(
            run_module(&m, MachineConfig::default(), "main").unwrap_err(),
            SimError::PhiEncountered
        );
    }

    #[test]
    fn globals_are_initialized() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let base = fb.loadsym("w");
        let x = fb.floadai(base, 8);
        fb.ret(&[x]);
        let m = module_of(vec![fb.finish()], vec![Global::from_f64s("w", &[1.5, 2.5])]);
        let (v, _) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.floats, vec![2.5]);
    }

    #[test]
    fn read_global_helpers() {
        // `main` stores into the global; a separate function reads it
        // back through its own `loadSym`.
        let mut peek = FuncBuilder::new("peek");
        peek.set_ret_classes(&[RegClass::Fpr]);
        let base = peek.loadsym("out");
        let v = peek.floadai(base, 8);
        peek.ret(&[v]);
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let base = fb.loadsym("out");
        let v = fb.loadf(9.25);
        fb.fstoreai(v, base, 8);
        let r = fb.call("peek", &[], &[RegClass::Fpr]);
        fb.ret(&r);
        let mut m = Module::new();
        m.push_global(Global::zeroed("out", 16));
        m.push_function(fb.finish());
        m.push_function(peek.finish());
        let mut machine = Machine::new(&m, MachineConfig::default());
        assert_eq!(machine.run("main").unwrap().floats, vec![9.25]);
    }
}

#[cfg(test)]
mod ccm_semantics_tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{Module, RegClass};

    /// The CCM is a single global resource: a value spilled by the caller
    /// is visible (and clobberable) during a callee's execution — exactly
    /// why the paper's interprocedural conventions exist.
    #[test]
    fn ccm_is_shared_across_activations() {
        // callee writes 99 into ccm[0]; caller wrote 7 there before the
        // call and reads it back after → must see 99, not 7.
        let mut callee = FuncBuilder::new("clobber");
        let v = callee.loadi(99);
        callee.emit(Op::CcmStore { val: v, off: 0 });
        callee.ret(&[]);

        let mut main = FuncBuilder::new("main");
        main.set_ret_classes(&[RegClass::Gpr]);
        let s = main.loadi(7);
        main.emit(Op::CcmStore { val: s, off: 0 });
        main.call("clobber", &[], &[]);
        let r = main.vreg(RegClass::Gpr);
        main.emit(Op::CcmLoad { off: 0, dst: r });
        main.ret(&[r]);

        let mut m = Module::new();
        m.push_function(callee.finish());
        m.push_function(main.finish());
        let (v, _) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![99], "CCM must be shared, not per-frame");
    }

    /// CCM contents are zeroed at program start and survive across calls
    /// that do not touch them.
    #[test]
    fn ccm_persists_across_nonclobbering_calls() {
        let mut callee = FuncBuilder::new("noop");
        callee.ret(&[]);

        let mut main = FuncBuilder::new("main");
        main.set_ret_classes(&[RegClass::Gpr, RegClass::Gpr]);
        let zero_read = main.vreg(RegClass::Gpr);
        main.emit(Op::CcmLoad {
            off: 12,
            dst: zero_read,
        });
        let s = main.loadi(1234);
        main.emit(Op::CcmStore { val: s, off: 12 });
        main.call("noop", &[], &[]);
        let r = main.vreg(RegClass::Gpr);
        main.emit(Op::CcmLoad { off: 12, dst: r });
        main.ret(&[zero_read, r]);

        let mut m = Module::new();
        m.push_function(callee.finish());
        m.push_function(main.finish());
        let (v, _) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![0, 1234]);
    }

    /// 32-bit integer semantics: multiplication wraps exactly as a spill
    /// round-trip through a 4-byte slot would, so the two always agree.
    #[test]
    fn integer_ops_wrap_to_32_bits() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr, RegClass::Gpr]);
        let big = fb.loadi(0x4000_0000); // 2^30
        let wrapped = fb.mult(big, big); // 2^60 wraps to 0 in 32 bits
                                         // And a spill-style memory round trip of a negative value.
        let neg = fb.loadi(-5);
        let g = fb.loadsym("g");
        fb.storeai(neg, g, 0);
        let back = fb.loadai(g, 0);
        fb.ret(&[wrapped, back]);
        let mut m = Module::new();
        m.push_global(iloc::Global::zeroed("g", 8));
        m.push_function(fb.finish());
        let (v, _) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![0, -5]);
    }

    /// Deep recursion hits the stack-overflow guard rather than UB.
    #[test]
    fn runaway_recursion_traps_as_stack_overflow() {
        let mut f = FuncBuilder::new("down");
        f.alloc_local(1 << 16); // big frame to exhaust memory quickly
        f.call("down", &[], &[]);
        f.ret(&[]);
        let mut main = FuncBuilder::new("main");
        main.call("down", &[], &[]);
        main.ret(&[]);
        let mut m = Module::new();
        m.push_function(f.finish());
        m.push_function(main.finish());
        let err = run_module(&m, MachineConfig::default(), "main").unwrap_err();
        assert_eq!(err, SimError::StackOverflow);
    }

    /// NaN and infinities survive CCM and memory round trips bit-exactly.
    #[test]
    fn special_floats_round_trip() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Fpr, RegClass::Fpr]);
        let zero = fb.loadf(0.0);
        let nan = fb.fdiv(zero, zero);
        let one = fb.loadf(1.0);
        let inf = fb.fdiv(one, zero);
        fb.emit(Op::CcmFStore { val: nan, off: 0 });
        fb.emit(Op::CcmFStore { val: inf, off: 8 });
        let a = fb.vreg(RegClass::Fpr);
        let b = fb.vreg(RegClass::Fpr);
        fb.emit(Op::CcmFLoad { off: 0, dst: a });
        fb.emit(Op::CcmFLoad { off: 8, dst: b });
        fb.ret(&[a, b]);
        let mut m = Module::new();
        m.push_function(fb.finish());
        let (v, _) = run_module(&m, MachineConfig::default(), "main").unwrap();
        assert!(v.floats[0].is_nan());
        assert_eq!(v.floats[1], f64::INFINITY);
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{Global, Module, RegClass};

    fn pipelined(delay: u64) -> MachineConfig {
        MachineConfig {
            load_delay: Some(delay),
            ..MachineConfig::default()
        }
    }

    #[test]
    fn dependent_use_stalls_independent_does_not() {
        // load; use-immediately: the use stalls for the delay.
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let base = fb.loadsym("g");
        let l = fb.loadai(base, 0);
        let r = fb.addi(l, 1); // immediately dependent
        fb.ret(&[r]);
        let mut m = Module::new();
        m.push_global(Global::zeroed("g", 8));
        m.push_function(fb.finish());
        let (_, dependent) = run_module(&m, pipelined(3), "main").unwrap();
        assert!(dependent.stall_cycles >= 2, "{:?}", dependent.stall_cycles);

        // Same program with independent work between load and use.
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let base = fb.loadsym("g");
        let l = fb.loadai(base, 0);
        let a = fb.loadi(1);
        let b = fb.addi(a, 2);
        let c = fb.addi(b, 3);
        let r = fb.add(l, c);
        fb.ret(&[r]);
        let mut m2 = Module::new();
        m2.push_global(Global::zeroed("g", 8));
        m2.push_function(fb.finish());
        let (_, hidden) = run_module(&m2, pipelined(3), "main").unwrap();
        assert_eq!(hidden.stall_cycles, 0, "independent work hides the delay");
    }

    #[test]
    fn default_model_unchanged() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let base = fb.loadsym("g");
        let l = fb.loadai(base, 0);
        let r = fb.addi(l, 1);
        fb.ret(&[r]);
        let mut m = Module::new();
        m.push_global(Global::zeroed("g", 8));
        m.push_function(fb.finish());
        let (_, metrics) = run_module(&m, MachineConfig::default(), "main").unwrap();
        // loadsym(1) + load(2) + add(1) + ret(1) = 5; no stalls.
        assert_eq!(metrics.cycles, 5);
        assert_eq!(metrics.stall_cycles, 0);
    }

    #[test]
    fn results_identical_across_models() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let base = fb.loadsym("g");
        let acc = fb.vreg(RegClass::Fpr);
        fb.emit(Op::LoadF { imm: 0.0, dst: acc });
        fb.counted_loop(0, 8, 1, |fb, iv| {
            let off = fb.shli(iv, 3);
            let at = fb.add(base, off);
            let v = fb.floadai(at, 0);
            let t = fb.fadd(acc, v);
            fb.emit(Op::F2F { src: t, dst: acc });
            fb.fstoreai(t, at, 0);
        });
        fb.ret(&[acc]);
        let mut m = Module::new();
        let vals: Vec<f64> = (0..8).map(|i| i as f64 * 1.5).collect();
        m.push_global(Global::from_f64s("g", &vals));
        m.push_function(fb.finish());
        let (v0, _) = run_module(&m, MachineConfig::default(), "main").unwrap();
        let (v1, m1) = run_module(&m, pipelined(2), "main").unwrap();
        assert_eq!(
            v0, v1,
            "pipelining is a timing model, not a semantics change"
        );
        assert!(m1.cycles > 0);
    }

    #[test]
    fn waw_on_inflight_register_stalls() {
        // A load into r, then an immediate overwrite of r must wait for
        // the in-flight load (in-order completion).
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let base = fb.loadsym("g");
        let r = fb.vreg(RegClass::Gpr);
        fb.emit(Op::LoadAI {
            addr: base,
            off: 0,
            dst: r,
        });
        fb.emit(Op::LoadI { imm: 7, dst: r });
        fb.ret(&[r]);
        let mut m = Module::new();
        m.push_global(Global::zeroed("g", 8));
        m.push_function(fb.finish());
        let (v, metrics) = run_module(&m, pipelined(4), "main").unwrap();
        assert_eq!(v.ints, vec![7]);
        assert!(metrics.stall_cycles > 0);
    }
}

/// The block-slice engine against its per-instruction reference path
/// (`Machine::step_by_step`: one instruction per slice, so the budget,
/// call depth and traps are accounted at every instruction).
#[cfg(test)]
mod budget_tests {
    use super::*;
    use iloc::Module;
    use regalloc::AllocConfig;

    /// What a run shows: the returned values (floats by bit pattern) or
    /// the trap, and the full metrics.
    type Outcome = (Result<(Vec<i64>, Vec<u64>), SimError>, Metrics);

    fn outcome(m: &Module, cfg: &MachineConfig, step_by_step: bool) -> Outcome {
        let mut machine = Machine::new(m, cfg.clone());
        machine.step_by_step = step_by_step;
        let r = machine.run("main").map(|v| {
            let floats = v.floats.iter().map(|f| f.to_bits()).collect();
            (v.ints, floats)
        });
        (r, machine.metrics)
    }

    /// Step budgets that end at slice starts, one instruction and half a
    /// block past them, inside callees, and around the end of the run.
    fn budgets(m: &Module, cfg: &MachineConfig) -> Vec<u64> {
        let mut machine = Machine::new(m, cfg.clone());
        machine.slice_starts = Some(Vec::new());
        machine.run("main").expect("an unbounded run completes");
        let total = machine.metrics.instrs;
        let starts = machine.slice_starts.take().expect("recorded");
        let spread = |picked: Vec<&(u64, u64, usize)>| -> Vec<(u64, u64, usize)> {
            let step = picked.len().div_ceil(6).max(1);
            picked.into_iter().step_by(step).copied().collect()
        };
        let mut chosen: Vec<(u64, u64, usize)> = starts.iter().take(6).copied().collect();
        chosen.extend(spread(starts.iter().collect()));
        chosen.extend(spread(starts.iter().filter(|s| s.1 > 1).collect()));
        let mut out = vec![total - 1, total, total + 1];
        for (at, _, len) in chosen {
            out.extend([at, at + 1, at + len as u64 / 2]);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn check(unit: &str, m: &Module) {
        let pipelined = MachineConfig {
            load_delay: Some(2),
            ..MachineConfig::default()
        };
        let cached = MachineConfig {
            cache: Some(crate::cache::CacheConfig::small_direct_mapped()),
            ..MachineConfig::default()
        };
        for cfg in [MachineConfig::default(), pipelined, cached] {
            for max_steps in budgets(m, &cfg) {
                let cfg = MachineConfig {
                    max_steps,
                    ..cfg.clone()
                };
                assert_eq!(
                    outcome(m, &cfg, false),
                    outcome(m, &cfg, true),
                    "{unit} under {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn block_slices_match_the_per_instruction_path() {
        let mut calls = 0;
        for k in suite::kernels() {
            let mut m = suite::build_optimized(&k);
            regalloc::allocate_module(&mut m, &AllocConfig::default());
            check(k.name, &m);
            calls += usize::from(m.functions.len() > 1);
        }
        assert!(calls > 0, "some budgets end inside a callee");
        for i in 0..128 {
            let mut m = fuzz::gen_module(fuzz::case_seed(1, i));
            check(&format!("fuzz:{i}"), &m);
            regalloc::allocate_module(&mut m, &AllocConfig::default());
            check(&format!("fuzz:{i} allocated"), &m);
        }
    }
}
