//! Negative tests for the post-allocation checker: hand-mutate
//! known-good allocated modules and assert the right check fires, with a
//! diagnostic naming the offending site. Also validates the JSON
//! renderer with a minimal hand-written parser.

use checker::{check_module, render_json, render_text, CheckerConfig, Diagnostic, Severity};
use iloc::builder::FuncBuilder;
use iloc::{Function, Instr, Module, Op, Reg, RegClass, SlotId, SpillKind};
use regalloc::AllocConfig;

// ---------------------------------------------------------------------------
// Fixtures: deterministic allocated (and promoted) modules.
// ---------------------------------------------------------------------------

/// A single-function module that spills heavily under three registers.
fn spilled_module() -> (Module, AllocConfig) {
    let mut fb = FuncBuilder::new("main");
    fb.set_ret_classes(&[RegClass::Gpr]);
    let vals: Vec<_> = (0..16).map(|i| fb.loadi(i)).collect();
    let mut acc = vals[15];
    for v in vals[..15].iter().rev() {
        acc = fb.add(acc, *v);
    }
    fb.ret(&[acc]);
    let mut m = Module::new();
    m.push_function(fb.finish());
    let alloc = AllocConfig::tiny(3);
    regalloc::allocate_module(&mut m, &alloc);
    (m, alloc)
}

/// `spilled_module` after post-pass CCM promotion into 512 bytes.
fn promoted_module() -> (Module, AllocConfig) {
    let (mut m, alloc) = spilled_module();
    ccm::postpass_promote(
        &mut m,
        &ccm::PostpassConfig {
            ccm_size: 512,
            interprocedural: true,
        },
    );
    assert!(
        m.functions[0].frame.slots.iter().any(|s| s.in_ccm),
        "fixture must promote at least one slot"
    );
    (m, alloc)
}

/// A two-function module where `main`'s spills are live across a call to
/// a leaf that itself uses the CCM; promoted interprocedurally.
fn interproc_module() -> (Module, AllocConfig) {
    let mut leaf = FuncBuilder::new("leaf");
    leaf.set_ret_classes(&[RegClass::Gpr]);
    let vals: Vec<_> = (0..16).map(|i| leaf.loadi(i)).collect();
    let mut acc = vals[15];
    for v in vals[..15].iter().rev() {
        acc = leaf.add(acc, *v);
    }
    leaf.ret(&[acc]);

    let mut fb = FuncBuilder::new("main");
    fb.set_ret_classes(&[RegClass::Gpr]);
    let vals: Vec<_> = (0..16).map(|i| fb.loadi(i)).collect();
    let call_ret = fb.call("leaf", &[], &[RegClass::Gpr]);
    let mut acc = call_ret[0];
    for v in &vals {
        acc = fb.add(acc, *v);
    }
    fb.ret(&[acc]);

    let mut m = Module::new();
    m.push_function(fb.finish());
    m.push_function(leaf.finish());
    let alloc = AllocConfig::tiny(3);
    regalloc::allocate_module(&mut m, &alloc);
    ccm::postpass_promote(
        &mut m,
        &ccm::PostpassConfig {
            ccm_size: 512,
            interprocedural: true,
        },
    );
    (m, alloc)
}

fn cfg(alloc: AllocConfig) -> CheckerConfig {
    CheckerConfig::with_alloc(512, alloc)
}

/// Moves slot `s` of `f` to `new_off`, patching both the frame record
/// and every spill instruction addressing it — a consistent but possibly
/// unsafe relocation, like a buggy compaction pass would produce.
fn retarget_slot(f: &mut Function, s: SlotId, new_off: u32) {
    f.frame.slot_mut(s).offset = new_off;
    for b in &mut f.blocks {
        for instr in &mut b.instrs {
            if instr.spill_slot() != Some(s) {
                continue;
            }
            match &mut instr.op {
                Op::StoreAI { off, .. }
                | Op::LoadAI { off, .. }
                | Op::FStoreAI { off, .. }
                | Op::FLoadAI { off, .. } => *off = new_off as i64,
                Op::CcmStore { off, .. }
                | Op::CcmLoad { off, .. }
                | Op::CcmFStore { off, .. }
                | Op::CcmFLoad { off, .. } => *off = new_off,
                _ => {}
            }
        }
    }
}

fn find(diags: &[Diagnostic], check: &str) -> Vec<Diagnostic> {
    diags.iter().filter(|d| d.check == check).cloned().collect()
}

// ---------------------------------------------------------------------------
// Mutations.
// ---------------------------------------------------------------------------

#[test]
fn baseline_fixtures_are_clean() {
    let (m, alloc) = spilled_module();
    assert!(!checker::has_errors(&check_module(&m, &cfg(alloc))));
    let (m, alloc) = promoted_module();
    assert!(!checker::has_errors(&check_module(&m, &cfg(alloc))));
    let (m, alloc) = interproc_module();
    let diags = check_module(&m, &cfg(alloc));
    assert!(!checker::has_errors(&diags), "{}", render_text(&diags));
}

#[test]
fn reintroduced_vreg_is_caught() {
    let (mut m, alloc) = spilled_module();
    let f = &mut m.functions[0];
    let e = f.entry();
    let v = Reg::new(RegClass::Gpr, iloc::FIRST_VREG + 7);
    f.block_mut(e)
        .instrs
        .insert(2, Instr::new(Op::LoadI { imm: 9, dst: v }));
    let diags = check_module(&m, &cfg(alloc));
    let hits = find(&diags, "machine-vreg");
    assert_eq!(hits.len(), 1, "{}", render_text(&diags));
    assert_eq!(hits[0].function, "main");
    assert!(hits[0].block.is_some(), "diagnostic must name the block");
    assert_eq!(hits[0].instr, Some(2));
    assert_eq!(hits[0].severity, Severity::Error);
}

#[test]
fn out_of_bounds_register_is_caught() {
    let (mut m, alloc) = spilled_module();
    let f = &mut m.functions[0];
    let e = f.entry();
    // tiny(3) allows %r1..%r3; %r9 is a register the machine lacks.
    f.block_mut(e).instrs.insert(
        0,
        Instr::new(Op::LoadI {
            imm: 1,
            dst: Reg::gpr(9),
        }),
    );
    let diags = check_module(&m, &cfg(alloc));
    let hits = find(&diags, "machine-reg-bounds");
    assert!(!hits.is_empty(), "{}", render_text(&diags));
    assert_eq!(hits[0].instr, Some(0));
    assert!(hits[0].message.contains("%r9"));
}

#[test]
fn a_bad_register_is_reported_once_per_instruction() {
    let (mut m, alloc) = spilled_module();
    let f = &mut m.functions[0];
    let e = f.entry();
    // `add %r9, %r9 => %r9` under tiny(3): three operands, one register.
    let r9 = Reg::gpr(9);
    f.block_mut(e).instrs.insert(
        0,
        Instr::new(Op::IBin {
            kind: iloc::IBinKind::Add,
            lhs: r9,
            rhs: r9,
            dst: r9,
        }),
    );
    let diags = check_module(&m, &cfg(alloc));
    let hits = find(&diags, "machine-reg-bounds");
    assert_eq!(hits.len(), 1, "{}", render_text(&diags));
    assert_eq!(hits[0].instr, Some(0));
    assert!(hits[0].message.contains("%r9"));
}

#[test]
fn read_before_write_is_caught() {
    let (mut m, alloc) = spilled_module();
    let f = &mut m.functions[0];
    let e = f.entry();
    // %r2 is a legal register but holds nothing at function entry.
    f.block_mut(e).instrs.insert(
        0,
        Instr::new(Op::IBin {
            kind: iloc::IBinKind::Add,
            lhs: Reg::gpr(2),
            rhs: Reg::gpr(2),
            dst: Reg::gpr(1),
        }),
    );
    let diags = check_module(&m, &cfg(alloc));
    let hits = find(&diags, "machine-def-use");
    assert_eq!(hits.len(), 1, "{}", render_text(&diags));
    assert_eq!(hits[0].instr, Some(0));
    assert!(hits[0].message.contains("%r2"));
}

#[test]
fn aliased_interfering_slots_are_caught() {
    let (mut m, alloc) = spilled_module();
    let f = &mut m.functions[0];
    // Find an interfering frame-resident pair and give them one offset.
    let sa = ccm::SlotAnalysis::compute(f);
    let (a, b) = (0..sa.n)
        .flat_map(|i| sa.adj[i].iter().map(move |j| (i, j)))
        .find(|&(i, j)| i < j && !f.frame.slots[i].in_ccm && !f.frame.slots[j].in_ccm)
        .expect("fixture has interfering slots");
    let shared = f.frame.slots[a].offset;
    retarget_slot(f, SlotId(b as u32), shared);
    let diags = check_module(&m, &cfg(alloc));
    let hits = find(&diags, "slot-overlap");
    assert_eq!(hits.len(), 1, "{}", render_text(&diags));
    assert_eq!(hits[0].function, "main");
    assert!(hits[0].message.contains("frame"));
}

#[test]
fn ccm_offset_past_capacity_is_caught() {
    let (mut m, alloc) = promoted_module();
    let f = &mut m.functions[0];
    let s = (0..f.frame.slots.len())
        .find(|&i| f.frame.slots[i].in_ccm)
        .unwrap();
    retarget_slot(f, SlotId(s as u32), 512); // one past the last byte
    let diags = check_module(&m, &cfg(alloc));
    let hits = find(&diags, "ccm-bounds");
    assert!(!hits.is_empty(), "{}", render_text(&diags));
    // At least one diagnostic pins the offending access down to an
    // instruction inside a block.
    assert!(
        hits.iter().any(|d| d.block.is_some() && d.instr.is_some()),
        "{}",
        render_text(&diags)
    );
}

#[test]
fn dropped_spill_store_is_caught() {
    let (mut m, alloc) = spilled_module();
    let f = &mut m.functions[0];
    let mut dropped = None;
    'outer: for b in &mut f.blocks {
        for i in 0..b.instrs.len() {
            if let SpillKind::Store(s) = b.instrs[i].spill {
                b.instrs.remove(i);
                dropped = Some(s);
                break 'outer;
            }
        }
    }
    let dropped = dropped.expect("fixture has spill stores");
    let diags = check_module(&m, &cfg(alloc));
    let hits = find(&diags, "slot-undef-load");
    assert!(!hits.is_empty(), "{}", render_text(&diags));
    assert!(hits[0].message.contains(&dropped.index().to_string()));
    assert!(hits[0].block.is_some() && hits[0].instr.is_some());
}

#[test]
fn dead_spill_store_is_warned_not_errored() {
    let (mut m, alloc) = spilled_module();
    let f = &mut m.functions[0];
    // Clone an existing spill store to just before the return: nothing
    // restores the slot afterwards, so the store is dead.
    let e = f.entry();
    let store = f
        .block(e)
        .instrs
        .iter()
        .find(|i| matches!(i.spill, SpillKind::Store(_)))
        .expect("fixture has spill stores")
        .clone();
    let at = f.block(e).instrs.len() - 1;
    f.block_mut(e).instrs.insert(at, store);
    let diags = check_module(&m, &cfg(alloc));
    let hits = find(&diags, "slot-dead-store");
    assert!(!hits.is_empty(), "{}", render_text(&diags));
    assert!(hits.iter().all(|d| d.severity == Severity::Warning));
    assert!(!checker::has_errors(&diags), "{}", render_text(&diags));
}

#[test]
fn untagged_ccm_access_is_caught() {
    let (mut m, alloc) = promoted_module();
    let f = &mut m.functions[0];
    let mut stripped = false;
    'outer: for b in &mut f.blocks {
        for instr in &mut b.instrs {
            if instr.op.is_ccm_op() {
                instr.spill = SpillKind::None;
                stripped = true;
                break 'outer;
            }
        }
    }
    assert!(stripped, "fixture has CCM accesses");
    let diags = check_module(&m, &cfg(alloc));
    let hits = find(&diags, "ccm-mark");
    assert_eq!(hits.len(), 1, "{}", render_text(&diags));
    assert!(hits[0].block.is_some() && hits[0].instr.is_some());
}

#[test]
fn interprocedural_clobber_is_caught() {
    let (mut m, alloc) = interproc_module();
    // Find a CCM slot in `main` that is live across the call to `leaf`
    // and shove it down to offset 0 — inside leaf's scratchpad area.
    let mi = m.function_indices()["main"];
    let f = &mut m.functions[mi];
    let sa = ccm::SlotAnalysis::compute(f);
    let victim = (0..sa.n)
        .find(|&i| f.frame.slots[i].in_ccm && sa.crosses_call[i])
        .expect("main must keep a CCM value live across the call");
    assert!(
        f.frame.slots[victim].offset > 0,
        "honest promotion placed the slot above leaf's high-water mark"
    );
    retarget_slot(f, SlotId(victim as u32), 0);
    let diags = check_module(&m, &cfg(alloc));
    let hits = find(&diags, "ccm-interproc");
    assert!(!hits.is_empty(), "{}", render_text(&diags));
    assert_eq!(hits[0].function, "main");
    assert!(hits[0].message.contains("leaf"));
}

#[test]
fn inconsistent_spill_offset_is_caught() {
    let (mut m, alloc) = spilled_module();
    let f = &mut m.functions[0];
    // Skew one spill store's offset without touching the slot record.
    let e = f.entry();
    let mut skewed = false;
    for instr in &mut f.block_mut(e).instrs {
        if matches!(instr.spill, SpillKind::Store(_)) {
            if let Op::StoreAI { off, .. } = &mut instr.op {
                *off += 4;
                skewed = true;
                break;
            }
        }
    }
    assert!(skewed);
    let diags = check_module(&m, &cfg(alloc));
    let hits = find(&diags, "slot-frame");
    assert!(!hits.is_empty(), "{}", render_text(&diags));
    assert!(hits[0].message.contains("slot record says"));
}

// ---------------------------------------------------------------------------
// Hand-built allocated code.
// ---------------------------------------------------------------------------

/// A module whose `main` starts with the instructions `body` returns, then
/// branches back to its own entry block or on to a returning exit block.
/// `body` may add frame slots to the function it is given.
fn entry_loop_module(body: impl FnOnce(&mut Function) -> Vec<Instr>) -> Module {
    let mut fb = FuncBuilder::new("main");
    let entry = fb.entry();
    let exit = fb.block("exit");
    fb.emit(Op::LoadI {
        imm: 0,
        dst: Reg::gpr(3),
    });
    fb.cbr(Reg::gpr(3), entry, exit);
    fb.switch_to(exit);
    fb.ret(&[]);
    let mut f = fb.finish();
    let body = body(&mut f);
    let e = f.entry();
    f.block_mut(e).instrs.splice(0..0, body);
    let mut m = Module::new();
    m.push_function(f);
    m
}

fn slot_store(s: SlotId, off: u32, val: Reg) -> Instr {
    Instr::spill_store(
        Op::StoreAI {
            val,
            addr: Reg::RARP,
            off: off as i64,
        },
        s,
    )
}

fn slot_restore(s: SlotId, off: u32, dst: Reg) -> Instr {
    Instr::spill_restore(
        Op::LoadAI {
            addr: Reg::RARP,
            off: off as i64,
            dst,
        },
        s,
    )
}

/// The entry block reads `%r1` before writing it. Its back edge carries
/// the write to its top on later trips, but not on the first one.
#[test]
fn read_before_write_in_a_looping_entry_is_caught() {
    let m = entry_loop_module(|_| {
        vec![
            Instr::new(Op::I2I {
                src: Reg::gpr(1),
                dst: Reg::gpr(2),
            }),
            Instr::new(Op::LoadI {
                imm: 1,
                dst: Reg::gpr(1),
            }),
        ]
    });
    let diags = check_module(&m, &cfg(AllocConfig::tiny(3)));
    let hits = find(&diags, "machine-def-use");
    assert_eq!(hits.len(), 1, "{}", render_text(&diags));
    assert_eq!(hits[0].instr, Some(0));
    assert!(hits[0].message.contains("%r1"));
}

/// The entry block restores a slot before storing it: only the back edge
/// stores it first.
#[test]
fn restore_before_store_in_a_looping_entry_is_caught() {
    let m = entry_loop_module(|f| {
        let s = f.frame.new_slot(RegClass::Gpr);
        let off = f.frame.slot(s).offset;
        vec![
            slot_restore(s, off, Reg::gpr(1)),
            slot_store(s, off, Reg::gpr(1)),
        ]
    });
    let diags = check_module(&m, &cfg(AllocConfig::tiny(3)));
    let hits = find(&diags, "slot-undef-load");
    assert_eq!(hits.len(), 1, "{}", render_text(&diags));
    assert_eq!(hits[0].instr, Some(0));
    assert!(hits[0].message.contains("slot 0"));
}

/// A store and a restore tagged with slot 3 of a one-slot frame: the
/// structural verifier names the tag, and the slot analyses skip it
/// rather than index their per-slot tables with it.
#[test]
fn a_spill_tag_naming_no_slot_is_a_structure_error() {
    let m = entry_loop_module(|f| {
        let s = f.frame.new_slot(RegClass::Gpr);
        let off = f.frame.slot(s).offset;
        vec![
            Instr::new(Op::LoadI {
                imm: 1,
                dst: Reg::gpr(1),
            }),
            slot_store(s, off, Reg::gpr(1)),
            slot_store(SlotId(3), off, Reg::gpr(1)),
            slot_restore(SlotId(3), off, Reg::gpr(2)),
            slot_restore(s, off, Reg::gpr(2)),
        ]
    });
    let diags = check_module(&m, &cfg(AllocConfig::tiny(3)));
    let hits = find(&diags, "structure");
    assert_eq!(hits.len(), 1, "{}", render_text(&diags));
    assert!(
        hits[0]
            .message
            .contains("spill tag names nonexistent slot3"),
        "{}",
        render_text(&diags)
    );
}

/// Slot 0 stays live while eight other slots are each stored and
/// restored, and all nine share one offset: the eight `slot-overlap`
/// errors name slot 0's partners in ascending order.
#[test]
fn overlap_partners_are_reported_in_ascending_order() {
    let mut fb = FuncBuilder::new("main");
    fb.emit(Op::LoadI {
        imm: 1,
        dst: Reg::gpr(1),
    });
    fb.ret(&[]);
    let mut f = fb.finish();
    let slots: Vec<SlotId> = (0..9).map(|_| f.frame.new_slot(RegClass::Gpr)).collect();
    let off = f.frame.slot(slots[0]).offset;
    for &s in &slots {
        f.frame.slot_mut(s).offset = off;
    }
    let mut body = vec![slot_store(slots[0], off, Reg::gpr(1))];
    for &s in &slots[1..] {
        body.push(slot_store(s, off, Reg::gpr(1)));
        body.push(slot_restore(s, off, Reg::gpr(2)));
    }
    body.push(slot_restore(slots[0], off, Reg::gpr(2)));
    let e = f.entry();
    f.block_mut(e).instrs.splice(1..1, body);
    let mut m = Module::new();
    m.push_function(f);

    let diags = check_module(&m, &cfg(AllocConfig::tiny(3)));
    let hits = find(&diags, "slot-overlap");
    let partners: Vec<usize> = hits
        .iter()
        .map(|d| {
            let rest = d
                .message
                .strip_prefix("interfering slots 0 (offset ")
                .unwrap_or_else(|| panic!("not a slot-0 overlap: {}", d.message));
            let partner = rest.split(" and ").nth(1).expect("names a partner");
            partner.split(' ').next().unwrap().parse().unwrap()
        })
        .collect();
    assert_eq!(
        partners,
        (1..9).collect::<Vec<_>>(),
        "{}",
        render_text(&diags)
    );
    assert_eq!(checker::errors(&diags).len(), 8, "{}", render_text(&diags));
}

// ---------------------------------------------------------------------------
// Mutations lifted from the differential fuzzer. These are the injected
// bugs `fuzz::apply_mutation` uses to prove the oracle can catch a broken
// allocator; here they run against deterministic fixtures to pin down
// exactly which checks catch them.
// ---------------------------------------------------------------------------

/// A CCM restore pushed past the scratchpad's last byte — the fuzzer's
/// `BumpCcmOffset` aimed at the top of the CCM. Unlike
/// `ccm_offset_past_capacity_is_caught` (which relocates the whole slot
/// consistently), only the restore instruction moves: both the bounds
/// check and the slot/instruction consistency check must fire on it.
#[test]
fn out_of_bounds_ccm_restore_is_caught() {
    let (mut m, alloc) = promoted_module();
    let f = &mut m.functions[0];
    let mut bumped = false;
    'outer: for b in &mut f.blocks {
        for i in &mut b.instrs {
            if let Op::CcmLoad { off, .. } | Op::CcmFLoad { off, .. } = &mut i.op {
                *off = 512; // one past the last CCM byte
                bumped = true;
                break 'outer;
            }
        }
    }
    assert!(bumped, "fixture has CCM restores");
    let diags = check_module(&m, &cfg(alloc));
    assert!(
        !find(&diags, "ccm-bounds").is_empty(),
        "{}",
        render_text(&diags)
    );
    assert!(
        !find(&diags, "slot-frame").is_empty(),
        "{}",
        render_text(&diags)
    );
}

/// The fuzzer's `OverlapSlots` mutation on the interprocedural fixture:
/// two CCM-resident slots of one function — spill traffic that stays hot
/// across the call to `leaf` — are collapsed onto one offset, so a store
/// to the second slot clobbers the first while it is still live.
#[test]
fn fuzz_overlap_mutation_clobbers_live_slot() {
    let (mut m, alloc) = interproc_module();
    assert!(
        fuzz::apply_mutation(&mut m, fuzz::Mutation::OverlapSlots),
        "fixture must carry two CCM slots in one function"
    );
    let diags = check_module(&m, &cfg(alloc));
    let hits = find(&diags, "slot-overlap");
    assert!(!hits.is_empty(), "{}", render_text(&diags));
    assert!(
        hits.iter().any(|d| d.message.contains("CCM")),
        "{}",
        render_text(&diags)
    );
}

// ---------------------------------------------------------------------------
// JSON output: validated with a minimal hand-written parser.
// ---------------------------------------------------------------------------

/// A tiny JSON value model — just enough to validate the renderer.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && (self.s[self.i] as char).is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        self.ws();
        assert_eq!(&self.s[self.i..self.i + word.len()], word.as_bytes());
        self.i += word.len();
        v
    }

    fn number(&mut self) -> Json {
        self.ws();
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|&c| c.is_ascii_digit() || b"+-.eE".contains(&c))
        {
            self.i += 1;
        }
        Json::Num(
            std::str::from_utf8(&self.s[start..self.i])
                .unwrap()
                .parse()
                .expect("malformed number"),
        )
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            match self.s[self.i] {
                b'"' => {
                    self.i += 1;
                    return out;
                }
                b'\\' => {
                    self.i += 1;
                    match self.s[self.i] {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i + 1..self.i + 5]).unwrap();
                            let code = u32::from_str_radix(hex, 16).expect("bad \\u escape");
                            out.push(char::from_u32(code).expect("bad code point"));
                            self.i += 4;
                        }
                        other => panic!("unsupported escape \\{}", other as char),
                    }
                    self.i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 passes through unharmed.
                    let rest = std::str::from_utf8(&self.s[self.i..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.i += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Json::Arr(items);
                }
                other => panic!("expected , or ] but found {:?}", other as char),
            }
        }
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut fields = Vec::new();
        if self.peek() == b'}' {
            self.i += 1;
            return Json::Obj(fields);
        }
        loop {
            let key = self.string();
            self.eat(b':');
            fields.push((key, self.value()));
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                other => panic!("expected , or }} but found {:?}", other as char),
            }
        }
    }

    fn parse(mut self) -> Json {
        let v = self.value();
        self.ws();
        assert_eq!(self.i, self.s.len(), "trailing bytes after JSON value");
        v
    }
}

#[test]
fn json_output_parses_and_carries_the_fields() {
    let (mut m, alloc) = spilled_module();
    let f = &mut m.functions[0];
    let e = f.entry();
    // Two mutations so the array has both an error and a warning.
    let v = Reg::new(RegClass::Gpr, iloc::FIRST_VREG);
    f.block_mut(e)
        .instrs
        .insert(0, Instr::new(Op::LoadI { imm: 1, dst: v }));
    let store = f
        .block(e)
        .instrs
        .iter()
        .find(|i| matches!(i.spill, SpillKind::Store(_)))
        .unwrap()
        .clone();
    let at = f.block(e).instrs.len() - 1;
    f.block_mut(e).instrs.insert(at, store);

    let diags = check_module(&m, &cfg(alloc));
    let json = render_json(&diags);
    let parsed = Parser::new(&json).parse();
    let Json::Arr(items) = &parsed else {
        panic!("top level must be an array")
    };
    assert_eq!(items.len(), diags.len());
    for (item, d) in items.iter().zip(&diags) {
        assert_eq!(
            item.get("severity").and_then(Json::as_str),
            Some(d.severity.to_string().as_str())
        );
        assert_eq!(
            item.get("function").and_then(Json::as_str),
            Some(d.function.as_str())
        );
        assert_eq!(item.get("check").and_then(Json::as_str), Some(d.check));
        assert_eq!(
            item.get("message").and_then(Json::as_str),
            Some(d.message.as_str())
        );
        match d.instr {
            Some(n) => assert_eq!(item.get("instr"), Some(&Json::Num(n as f64))),
            None => assert_eq!(item.get("instr"), Some(&Json::Null)),
        }
        match &d.block {
            Some(b) => assert_eq!(item.get("block").and_then(Json::as_str), Some(b.as_str())),
            None => assert_eq!(item.get("block"), Some(&Json::Null)),
        }
    }
    let severities: Vec<&str> = items
        .iter()
        .map(|i| i.get("severity").unwrap().as_str().unwrap())
        .collect();
    assert!(severities.contains(&"error") && severities.contains(&"warning"));

    // Escaping: a function name with quote, backslash, and newline.
    let hostile = vec![Diagnostic::error(
        "structure",
        "we\"ird\\name",
        "line one\nline two\ttabbed".to_string(),
    )];
    let parsed = Parser::new(&render_json(&hostile)).parse();
    let Json::Arr(items) = &parsed else { panic!() };
    assert_eq!(
        items[0].get("function").and_then(Json::as_str),
        Some("we\"ird\\name")
    );
    assert_eq!(
        items[0].get("message").and_then(Json::as_str),
        Some("line one\nline two\ttabbed")
    );
}
