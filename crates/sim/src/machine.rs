//! The instruction-level simulator.
//!
//! Interprets a [`Module`] directly, counting cycles under the paper's
//! machine model. Globals are laid out at the bottom of main memory, the
//! stack at the top; the CCM is a **disjoint** byte array reached only by
//! `spill`/`restore` instructions, exactly as the paper's hardware sketch
//! prescribes. The simulator runs both pre-allocation code (virtual
//! registers) and allocated code (physical registers) — register files
//! are sized per function — which lets tests compare observable behavior
//! across every compilation configuration.

use std::collections::HashMap;
use std::fmt;

use iloc::{BlockId, FBinKind, Function, IBinKind, Module, Op, Reg, RegClass, SpillKind};

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::metrics::Metrics;

/// A simulator trap.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// Entry or callee not found.
    UnknownFunction(String),
    /// A `loadSym` referenced a global the module does not declare.
    UnknownGlobal(String),
    /// Main-memory access outside `[0, mem_size)`.
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

struct Frame<'m> {
    func: usize,
    block: usize,
    idx: usize,
    gpr: Vec<i64>,
    fpr: Vec<f64>,
    /// Cycle at which each register's pending load completes (pipelined
    /// model only; empty otherwise).
    gpr_ready: Vec<u64>,
    fpr_ready: Vec<u64>,
    /// Caller registers receiving this activation's return values —
    /// borrowed from the caller's `Op::Call`, never cloned.
    ret_dsts: &'m [Reg],
    saved_sp: i64,
}

/// The machine: memory, CCM, and execution state.
pub struct Machine<'m> {
    module: &'m Module,
    cfg: MachineConfig,
    mem: Vec<u8>,
    ccm: Vec<u8>,
    globals: HashMap<String, i64>,
    globals_end: i64,
    cache: Option<Cache>,
    /// Execution counters, reset by [`Machine::run`].
    pub metrics: Metrics,
    /// Per-function (max gpr index, max fpr index).
    reg_limits: Vec<(u32, u32)>,
    /// Dirty main-memory watermarks: the byte range `[dirty_lo,
    /// dirty_hi)` written by stores since the last reset. [`Machine::run`]
    /// clears only this range instead of re-zeroing all of `mem`.
    dirty_lo: usize,
    dirty_hi: usize,
}

impl<'m> Machine<'m> {
    /// Creates a machine and lays out the module's globals.
    pub fn new(module: &'m Module, cfg: MachineConfig) -> Machine<'m> {
        let mut mem = vec![0u8; cfg.mem_size];
        let mut globals = HashMap::new();
        let mut next: i64 = 64; // keep address 0 unmapped
        for g in &module.globals {
            next = (next + 7) & !7;
            globals.insert(g.name.clone(), next);
            let base = next as usize;
            mem[base..base + g.init.len()].copy_from_slice(&g.init);
            next += g.size as i64;
        }
        let reg_limits = module
            .functions
            .iter()
            .map(|f| {
                let mut maxg = 0;
                let mut maxf = 0;
                f.for_each_reg(|r| match r.class() {
                    RegClass::Gpr => maxg = maxg.max(r.index()),
                    RegClass::Fpr => maxf = maxf.max(r.index()),
                });
                (maxg, maxf)
            })
            .collect();
        let cache = cfg.cache.clone().map(Cache::new);
        let ccm = vec![0u8; cfg.ccm_size as usize];
        Machine {
            module,
            cfg,
            mem,
            ccm,
            globals,
            globals_end: next,
            cache,
            metrics: Metrics::default(),
            reg_limits,
            dirty_lo: usize::MAX,
            dirty_hi: 0,
        }
    }

    /// The base address of global `name`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownGlobal`] if the module declares no such
    /// global — a structured trap, not a panic, so one bad module cannot
    /// abort a whole campaign.
    pub fn global_base(&self, name: &str) -> Result<i64, SimError> {
        self.globals
            .get(name)
            .copied()
            .ok_or_else(|| SimError::UnknownGlobal(name.to_string()))
    }

    /// Raw bytes of global `name` (after execution, reflects stores).
    /// Host-side inspection API: panics on an unknown name (runtime code
    /// goes through [`Machine::global_base`] instead).
    pub fn global_bytes(&self, name: &str) -> &[u8] {
        let base = self.global_base(name).expect("global exists") as usize;
        let size = self.module.global(name).expect("global exists").size as usize;
        &self.mem[base..base + size]
    }

    /// Reads the `index`-th f64 of global `name`.
    pub fn read_global_f64(&self, name: &str, index: usize) -> f64 {
        let b = self.global_bytes(name);
        f64::from_le_bytes(b[index * 8..index * 8 + 8].try_into().expect("in bounds"))
    }

    /// Reads the `index`-th i32 of global `name`.
    pub fn read_global_i32(&self, name: &str, index: usize) -> i32 {
        let b = self.global_bytes(name);
        i32::from_le_bytes(b[index * 4..index * 4 + 4].try_into().expect("in bounds"))
    }

    /// Runs `entry` (which must take no parameters) to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on any trap; see the enum for conditions.
    pub fn run(&mut self, entry: &str) -> Result<RetValues, SimError> {
        self.reset_run();
        if inject::faultpoint!("sim.unknown_global") {
            return Err(SimError::UnknownGlobal("__injected__".to_string()));
        }
        self.interpret(entry)
    }

    /// Per-run reset: metrics, the CCM, and only the *dirty* range of
    /// main memory (tracked by the store helpers), then re-initialized
    /// globals — repeated runs stay independent without an O(mem_size)
    /// clear or a CCM reallocation.
    fn reset_run(&mut self) {
        self.metrics = Metrics::default();
        self.ccm.fill(0);
        if self.dirty_hi > self.dirty_lo {
            self.mem[self.dirty_lo..self.dirty_hi].fill(0);
        }
        self.dirty_lo = usize::MAX;
        self.dirty_hi = 0;
        let module = self.module;
        for g in &module.globals {
            let base = self.globals[&g.name] as usize;
            self.mem[base..base + g.init.len()].copy_from_slice(&g.init);
        }
    }

    /// The interpreter loop: walks the module's blocks directly.
    fn interpret(&mut self, entry: &str) -> Result<RetValues, SimError> {
        let findex = self.module.function_indices();
        let entry_idx = *findex
            .get(entry)
            .ok_or_else(|| SimError::UnknownFunction(entry.to_string()))?;

        let mut sp: i64 = self.cfg.mem_size as i64;
        let mut frames: Vec<Frame<'m>> = Vec::new();
        let first = self.new_frame(entry_idx, &mut sp, &[])?;
        frames.push(first);

        loop {
            self.metrics.instrs += 1;
            if self.metrics.instrs > self.cfg.max_steps || inject::faultpoint!("sim.budget") {
                return Err(SimError::StepLimit);
            }
            self.metrics.max_depth = self.metrics.max_depth.max(frames.len() as u64);

            let frame = frames.last_mut().expect("at least one frame");
            let func = &self.module.functions[frame.func];
            let block = &func.blocks[frame.block];
            let instr = block
                .instrs
                .get(frame.idx)
                .ok_or(SimError::MissingTerminator)?;
            frame.idx += 1;

            match instr.spill {
                SpillKind::Store(_) => self.metrics.spill_stores += 1,
                SpillKind::Restore(_) => self.metrics.spill_restores += 1,
                SpillKind::None => {}
            }

            // Pipelined-load model: stall until every register this
            // instruction touches is ready.
            if self.cfg.load_delay.is_some() {
                let mut ready = 0u64;
                let scan = |r: Reg, ready: &mut u64, frame: &Frame| {
                    let t = match r.class() {
                        RegClass::Gpr => frame.gpr_ready[r.index() as usize],
                        RegClass::Fpr => frame.fpr_ready[r.index() as usize],
                    };
                    *ready = (*ready).max(t);
                };
                instr.op.visit_uses(|r| scan(r, &mut ready, frame));
                instr.op.visit_defs(|r| scan(r, &mut ready, frame));
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
                    frame.gpr[dst.index() as usize] = *imm as i32 as i64;
                }
                Op::LoadF { imm, dst } => {
                    self.metrics.cycles += 1;
                    frame.fpr[dst.index() as usize] = *imm;
                }
                Op::LoadSym { sym, dst } => {
                    self.metrics.cycles += 1;
                    frame.gpr[dst.index() as usize] = match self.globals.get(sym) {
                        Some(&base) => base,
                        None => return Err(SimError::UnknownGlobal(sym.clone())),
                    };
                }
                Op::IBin {
                    kind,
                    lhs,
                    rhs,
                    dst,
                } => {
                    self.metrics.cycles += 1;
                    let a = frame.gpr[lhs.index() as usize];
                    let b = frame.gpr[rhs.index() as usize];
                    frame.gpr[dst.index() as usize] = ibin(*kind, a, b)?;
                }
                Op::IBinI {
                    kind,
                    lhs,
                    imm,
                    dst,
                } => {
                    self.metrics.cycles += 1;
                    let a = frame.gpr[lhs.index() as usize];
                    frame.gpr[dst.index() as usize] = ibin(*kind, a, *imm)?;
                }
                Op::FBin {
                    kind,
                    lhs,
                    rhs,
                    dst,
                } => {
                    self.metrics.cycles += 1;
                    let a = frame.fpr[lhs.index() as usize];
                    let b = frame.fpr[rhs.index() as usize];
                    frame.fpr[dst.index() as usize] = match kind {
                        FBinKind::Add => a + b,
                        FBinKind::Sub => a - b,
                        FBinKind::Mult => a * b,
                        FBinKind::Div => a / b,
                    };
                }
                Op::ICmp {
                    kind,
                    lhs,
                    rhs,
                    dst,
                } => {
                    self.metrics.cycles += 1;
                    let a = frame.gpr[lhs.index() as usize];
                    let b = frame.gpr[rhs.index() as usize];
                    frame.gpr[dst.index() as usize] = cmp(*kind, &a, &b);
                }
                Op::FCmp {
                    kind,
                    lhs,
                    rhs,
                    dst,
                } => {
                    self.metrics.cycles += 1;
                    let a = frame.fpr[lhs.index() as usize];
                    let b = frame.fpr[rhs.index() as usize];
                    frame.gpr[dst.index() as usize] = fcmp(*kind, a, b);
                }
                Op::I2I { src, dst } => {
                    self.metrics.cycles += 1;
                    frame.gpr[dst.index() as usize] = frame.gpr[src.index() as usize];
                }
                Op::F2F { src, dst } => {
                    self.metrics.cycles += 1;
                    frame.fpr[dst.index() as usize] = frame.fpr[src.index() as usize];
                }
                Op::I2F { src, dst } => {
                    self.metrics.cycles += 1;
                    frame.fpr[dst.index() as usize] = frame.gpr[src.index() as usize] as f64;
                }
                Op::F2I { src, dst } => {
                    self.metrics.cycles += 1;
                    frame.gpr[dst.index() as usize] = frame.fpr[src.index() as usize] as i32 as i64;
                }

                // ---- main memory: mem_latency (or cache) ----------------
                Op::Load { addr, dst } | Op::LoadAI { addr, dst, .. } => {
                    let off = match op {
                        Op::LoadAI { off, .. } => *off,
                        _ => 0,
                    };
                    let a = frame.gpr[addr.index() as usize] + off;
                    let v = self.read_i32(a)?;
                    let lat = self.mem_access(a, false);
                    let delay = self.cfg.load_delay;
                    let frame = frames.last_mut().expect("frame");
                    frame.gpr[dst.index() as usize] = v as i64;
                    let lat = match delay {
                        Some(d) => {
                            frame.gpr_ready[dst.index() as usize] = self.metrics.cycles + 1 + d;
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
                    let a = frame.gpr[addr.index() as usize] + off;
                    let v = self.read_f64(a)?;
                    let lat = self.mem_access(a, false);
                    let delay = self.cfg.load_delay;
                    let frame = frames.last_mut().expect("frame");
                    frame.fpr[dst.index() as usize] = v;
                    let lat = match delay {
                        Some(d) => {
                            frame.fpr_ready[dst.index() as usize] = self.metrics.cycles + 1 + d;
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
                    let a = frame.gpr[addr.index() as usize] + off;
                    let v = frame.gpr[val.index() as usize] as i32;
                    self.write_i32(a, v)?;
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
                    let a = frame.gpr[addr.index() as usize] + off;
                    let v = frame.fpr[val.index() as usize];
                    self.write_f64(a, v)?;
                    let lat = match self.cfg.load_delay {
                        Some(_) => 1,
                        None => self.mem_access(a, true),
                    };
                    self.metrics.cycles += lat;
                    self.metrics.mem_op_cycles += lat;
                    self.metrics.main_mem_ops += 1;
                }

                // ---- CCM: ccm_latency, disjoint address space -----------
                Op::CcmStore { val, off } => {
                    let v = frame.gpr[val.index() as usize] as i32;
                    self.ccm_check(*off, 4)?;
                    self.ccm[*off as usize..*off as usize + 4].copy_from_slice(&v.to_le_bytes());
                    self.metrics.cycles += self.cfg.ccm_latency;
                    self.metrics.mem_op_cycles += self.cfg.ccm_latency;
                    self.metrics.ccm_ops += 1;
                }
                Op::CcmLoad { off, dst } => {
                    self.ccm_check(*off, 4)?;
                    let v = i32::from_le_bytes(
                        self.ccm[*off as usize..*off as usize + 4]
                            .try_into()
                            .expect("4 bytes"),
                    );
                    frame.gpr[dst.index() as usize] = v as i64;
                    self.metrics.cycles += self.cfg.ccm_latency;
                    self.metrics.mem_op_cycles += self.cfg.ccm_latency;
                    self.metrics.ccm_ops += 1;
                }
                Op::CcmFStore { val, off } => {
                    let v = frame.fpr[val.index() as usize];
                    self.ccm_check(*off, 8)?;
                    self.ccm[*off as usize..*off as usize + 8].copy_from_slice(&v.to_le_bytes());
                    self.metrics.cycles += self.cfg.ccm_latency;
                    self.metrics.mem_op_cycles += self.cfg.ccm_latency;
                    self.metrics.ccm_ops += 1;
                }
                Op::CcmFLoad { off, dst } => {
                    self.ccm_check(*off, 8)?;
                    let v = f64::from_le_bytes(
                        self.ccm[*off as usize..*off as usize + 8]
                            .try_into()
                            .expect("8 bytes"),
                    );
                    frame.fpr[dst.index() as usize] = v;
                    self.metrics.cycles += self.cfg.ccm_latency;
                    self.metrics.mem_op_cycles += self.cfg.ccm_latency;
                    self.metrics.ccm_ops += 1;
                }

                // ---- control flow ---------------------------------------
                Op::Jump { target } => {
                    self.metrics.cycles += 1;
                    frame.block = target.index();
                    frame.idx = 0;
                }
                Op::Cbr {
                    cond,
                    taken,
                    not_taken,
                } => {
                    self.metrics.cycles += 1;
                    let c = frame.gpr[cond.index() as usize];
                    let t: BlockId = if c != 0 { *taken } else { *not_taken };
                    frame.block = t.index();
                    frame.idx = 0;
                }
                Op::Call { callee, args, rets } => {
                    self.metrics.cycles += 1;
                    self.metrics.calls += 1;
                    let callee_idx = *findex
                        .get(callee.as_str())
                        .ok_or_else(|| SimError::UnknownFunction(callee.clone()))?;
                    // Evaluate arguments in the caller's frame.
                    let mut int_args = Vec::new();
                    let mut float_args = Vec::new();
                    for a in args {
                        match a.class() {
                            RegClass::Gpr => int_args.push(frame.gpr[a.index() as usize]),
                            RegClass::Fpr => float_args.push(frame.fpr[a.index() as usize]),
                        }
                    }
                    let mut new = self.new_frame(callee_idx, &mut sp, rets)?;
                    // Bind arguments to the callee's parameter registers.
                    let callee_f = &self.module.functions[callee_idx];
                    let (mut ii, mut fi) = (0, 0);
                    for p in &callee_f.params {
                        match p.class() {
                            RegClass::Gpr => {
                                new.gpr[p.index() as usize] = int_args[ii];
                                ii += 1;
                            }
                            RegClass::Fpr => {
                                new.fpr[p.index() as usize] = float_args[fi];
                                fi += 1;
                            }
                        }
                    }
                    frames.push(new);
                }
                Op::Ret { vals } => {
                    self.metrics.cycles += 1;
                    let frame = frames.pop().expect("current frame");
                    sp = frame.saved_sp;
                    if let Some(caller) = frames.last_mut() {
                        for (v, dst) in vals.iter().zip(frame.ret_dsts) {
                            match v.class() {
                                RegClass::Gpr => {
                                    caller.gpr[dst.index() as usize] = frame.gpr[v.index() as usize]
                                }
                                RegClass::Fpr => {
                                    caller.fpr[dst.index() as usize] = frame.fpr[v.index() as usize]
                                }
                            }
                        }
                    } else {
                        // Entry function returned: collect values.
                        let mut out = RetValues::default();
                        for v in vals {
                            match v.class() {
                                RegClass::Gpr => out.ints.push(frame.gpr[v.index() as usize]),
                                RegClass::Fpr => out.floats.push(frame.fpr[v.index() as usize]),
                            }
                        }
                        if let Some(c) = &self.cache {
                            self.metrics.cache = c.stats;
                        }
                        return Ok(out);
                    }
                }

                Op::Phi { .. } => return Err(SimError::PhiEncountered),
                Op::Nop => {
                    self.metrics.cycles += 1;
                }
            }
        }
    }

    fn new_frame(
        &self,
        func_idx: usize,
        sp: &mut i64,
        ret_dsts: &'m [Reg],
    ) -> Result<Frame<'m>, SimError> {
        let f: &Function = &self.module.functions[func_idx];
        let size = f.frame.frame_size() as i64;
        let saved_sp = *sp;
        let new_sp = (*sp - size) & !7;
        if new_sp < self.globals_end {
            return Err(SimError::StackOverflow);
        }
        *sp = new_sp;
        let (maxg, maxf) = self.reg_limits[func_idx];
        let mut gpr = vec![0i64; maxg as usize + 1];
        let fpr = vec![0f64; maxf as usize + 1];
        gpr[Reg::RARP.index() as usize] = new_sp;
        let (gpr_ready, fpr_ready) = if self.cfg.load_delay.is_some() {
            (vec![0u64; maxg as usize + 1], vec![0u64; maxf as usize + 1])
        } else {
            (Vec::new(), Vec::new())
        };
        Ok(Frame {
            func: func_idx,
            block: 0,
            idx: 0,
            gpr,
            fpr,
            gpr_ready,
            fpr_ready,
            ret_dsts,
            saved_sp,
        })
    }

    fn mem_access(&mut self, addr: i64, is_store: bool) -> u64 {
        match &mut self.cache {
            Some(c) => c.access(addr as u64, is_store),
            None => self.cfg.mem_latency,
        }
    }

    fn check_addr(&self, addr: i64, size: i64) -> Result<usize, SimError> {
        if addr < 0 || addr + size > self.cfg.mem_size as i64 {
            Err(SimError::MemOutOfBounds { addr })
        } else {
            Ok(addr as usize)
        }
    }

    fn ccm_check(&self, off: u32, size: u32) -> Result<(), SimError> {
        if off + size > self.cfg.ccm_size {
            Err(SimError::CcmOutOfBounds {
                off,
                size: self.cfg.ccm_size,
            })
        } else {
            Ok(())
        }
    }

    fn read_i32(&self, addr: i64) -> Result<i32, SimError> {
        let a = self.check_addr(addr, 4)?;
        Ok(i32::from_le_bytes(
            self.mem[a..a + 4].try_into().expect("4 bytes"),
        ))
    }

    fn write_i32(&mut self, addr: i64, v: i32) -> Result<(), SimError> {
        let a = self.check_addr(addr, 4)?;
        self.mem[a..a + 4].copy_from_slice(&v.to_le_bytes());
        self.dirty_lo = self.dirty_lo.min(a);
        self.dirty_hi = self.dirty_hi.max(a + 4);
        Ok(())
    }

    fn read_f64(&self, addr: i64) -> Result<f64, SimError> {
        let a = self.check_addr(addr, 8)?;
        Ok(f64::from_le_bytes(
            self.mem[a..a + 8].try_into().expect("8 bytes"),
        ))
    }

    fn write_f64(&mut self, addr: i64, v: f64) -> Result<(), SimError> {
        let a = self.check_addr(addr, 8)?;
        self.mem[a..a + 8].copy_from_slice(&v.to_le_bytes());
        self.dirty_lo = self.dirty_lo.min(a);
        self.dirty_hi = self.dirty_hi.max(a + 8);
        Ok(())
    }
}

/// Integer ALU semantics: the machine's general-purpose registers hold
/// 32-bit signed values (Fortran `INTEGER`), kept sign-extended in the
/// interpreter's 64-bit register file. Every result wraps to 32 bits, so
/// a value spilled through a 4-byte slot reloads bit-identically.
fn ibin(kind: IBinKind, a: i64, b: i64) -> Result<i64, SimError> {
    let (a, b) = (a as i32, b as i32);
    let r: i32 = match kind {
        IBinKind::Add => a.wrapping_add(b),
        IBinKind::Sub => a.wrapping_sub(b),
        IBinKind::Mult => a.wrapping_mul(b),
        IBinKind::Div => {
            if b == 0 {
                return Err(SimError::DivideByZero);
            }
            a.wrapping_div(b)
        }
        IBinKind::Rem => {
            if b == 0 {
                return Err(SimError::DivideByZero);
            }
            a.wrapping_rem(b)
        }
        IBinKind::And => a & b,
        IBinKind::Or => a | b,
        IBinKind::Xor => a ^ b,
        IBinKind::Shl => a.wrapping_shl(b as u32),
        IBinKind::Shr => a.wrapping_shr(b as u32),
    };
    Ok(r as i64)
}

fn cmp(kind: iloc::CmpKind, a: &i64, b: &i64) -> i64 {
    use iloc::CmpKind::*;
    (match kind {
        Lt => a < b,
        Le => a <= b,
        Gt => a > b,
        Ge => a >= b,
        Eq => a == b,
        Ne => a != b,
    }) as i64
}

fn fcmp(kind: iloc::CmpKind, a: f64, b: f64) -> i64 {
    use iloc::CmpKind::*;
    (match kind {
        Lt => a < b,
        Le => a <= b,
        Gt => a > b,
        Ge => a >= b,
        Eq => a == b,
        Ne => a != b,
    }) as i64
}

/// Convenience: build a machine, run `entry`, and return `(values,
/// metrics)`.
///
/// # Errors
///
/// Propagates any [`SimError`] from execution.
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
    use iloc::{Global, Module, RegClass};

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
            sym: "nope".to_string(),
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
            sym: "nope".to_string(),
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
    fn reruns_of_one_machine_are_identical() {
        // Each run reads main memory and the CCM before writing them: a
        // second run must see the zeroed state again, which pins the
        // dirty-range memory reset and the reused CCM buffer.
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr, RegClass::Gpr]);
        let base = fb.loadsym("g");
        let old = fb.loadai(base, 0);
        let v = fb.loadi(41);
        let v1 = fb.addi(v, 1);
        fb.storeai(v1, base, 0);
        let now = fb.loadai(base, 0);
        let s = fb.add(old, now);
        let stale = fb.vreg(RegClass::Gpr);
        fb.emit(Op::CcmLoad { off: 8, dst: stale });
        fb.emit(Op::CcmStore { val: s, off: 8 });
        fb.ret(&[s, stale]);
        let m = module_of(vec![fb.finish()], vec![Global::zeroed("g", 8)]);
        let mut machine = Machine::new(&m, MachineConfig::default());
        let first = machine.run("main").unwrap();
        let metrics = machine.metrics;
        assert_eq!(first.ints, vec![42, 0]);
        for _ in 0..3 {
            assert_eq!(machine.run("main").unwrap(), first);
            assert_eq!(machine.metrics, metrics);
        }
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
            .push(iloc::Instr::new(Op::Ret { vals: vec![w] }));
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
            args: vec![],
        }));
        f.block_mut(e)
            .instrs
            .push(iloc::Instr::new(Op::Ret { vals: vec![] }));
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
        let mut fb = FuncBuilder::new("main");
        let base = fb.loadsym("out");
        let v = fb.loadf(9.25);
        fb.fstoreai(v, base, 0);
        fb.ret(&[]);
        let mut m = Module::new();
        m.push_global(Global::zeroed("out", 8));
        m.push_function(fb.finish());
        let mut machine = Machine::new(&m, MachineConfig::default());
        machine.run("main").unwrap();
        assert_eq!(machine.read_global_f64("out", 0), 9.25);
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
