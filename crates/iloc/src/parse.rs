//! Textual parser for the IR.
//!
//! Accepts the exact format produced by the [`Display`](std::fmt::Display)
//! implementations in [`crate::print`]; printing and parsing round-trip.
//! Comments begin with `;` or `#` and run to end of line.

use std::collections::HashMap;
use std::fmt;

use crate::block::BlockId;
use crate::func::{Function, SlotId, SpillKind, SpillSlot};
use crate::module::{Global, Module};
use crate::op::{Call, CmpKind, FBinKind, IBinKind, Instr, Op};
use crate::reg::{Reg, RegClass};

/// An error produced while parsing IR text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number of the offending text.
    pub line: usize,
    /// Explanation of the failure.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

type PResult<T> = Result<T, ParseError>;

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                let l = match l.find([';', '#']) {
                    Some(p) => &l[..p],
                    None => l,
                };
                (i + 1, l.trim())
            })
            .filter(|(_, l)| !l.is_empty())
            .collect();
        Parser { lines, pos: 0 }
    }

    fn err<T>(&self, line: usize, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            line,
            message: msg.into(),
        })
    }

    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        let l = self.peek();
        if l.is_some() {
            self.pos += 1;
        }
        l
    }

    fn parse_module(&mut self) -> PResult<Module> {
        let mut m = Module::new();
        while let Some((ln, line)) = self.peek() {
            if line.starts_with("global ") {
                self.pos += 1;
                m.globals.push(parse_global(ln, line)?);
            } else if line.starts_with("func ") {
                m.functions.push(self.parse_function()?);
            } else {
                return self.err(ln, format!("expected `global` or `func`, found `{line}`"));
            }
        }
        Ok(m)
    }

    fn parse_function(&mut self) -> PResult<Function> {
        let (ln, header) = self.next_line().expect("caller checked");
        let (mut f, _) = parse_func_header(ln, header)?;

        // Slot declarations.
        while let Some((ln, line)) = self.peek() {
            if let Some(rest) = line.strip_prefix("slot ") {
                self.pos += 1;
                let slot = parse_slot_decl(ln, rest)?;
                f.frame.slots.push(slot);
            } else {
                break;
            }
        }

        // First pass: gather block labels and raw instruction lines.
        let mut labels: HashMap<String, BlockId> = HashMap::new();
        let mut raw_blocks: Vec<(String, Vec<(usize, &str)>)> = Vec::new();
        loop {
            let (ln, line) = match self.next_line() {
                Some(x) => x,
                None => return self.err(0, "unexpected end of input inside function"),
            };
            if line == "}" {
                break;
            }
            if let Some(label) = line.strip_suffix(':') {
                if !is_ident(label) {
                    return self.err(ln, format!("invalid block label `{label}`"));
                }
                if labels.contains_key(label) {
                    return self.err(ln, format!("duplicate block label `{label}`"));
                }
                labels.insert(label.to_string(), BlockId(raw_blocks.len() as u32));
                raw_blocks.push((label.to_string(), Vec::new()));
            } else {
                match raw_blocks.last_mut() {
                    Some((_, instrs)) => instrs.push((ln, line)),
                    None => return self.err(ln, "instruction before first block label"),
                }
            }
        }
        if raw_blocks.is_empty() {
            return self.err(ln, "function has no blocks");
        }

        // Second pass: parse instructions with label resolution.
        f.blocks.clear();
        for (label, lines) in raw_blocks {
            let id = f.add_block(label);
            for (ln, line) in lines {
                let instr = parse_instr(ln, line, &labels)?;
                f.block_mut(id).instrs.push(instr);
            }
        }
        f.reset_vreg_counter();
        Ok(f)
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        && !s.chars().next().unwrap().is_ascii_digit()
}

fn parse_global(ln: usize, line: &str) -> PResult<Global> {
    // global NAME SIZE [= HEXBYTES]
    let rest = line.strip_prefix("global ").unwrap();
    let mut parts = rest.split_whitespace();
    let name = parts
        .next()
        .ok_or_else(|| perr(ln, "missing global name"))?;
    let size: u32 = parts
        .next()
        .ok_or_else(|| perr(ln, "missing global size"))?
        .parse()
        .map_err(|_| perr(ln, "bad global size"))?;
    let mut init = Vec::new();
    if let Some(eq) = parts.next() {
        if eq != "=" {
            return Err(perr(ln, "expected `=` before global initializer"));
        }
        let hex = parts.next().ok_or_else(|| perr(ln, "missing hex bytes"))?;
        if hex.len() % 2 != 0 {
            return Err(perr(ln, "odd-length hex initializer"));
        }
        for i in (0..hex.len()).step_by(2) {
            let b = u8::from_str_radix(&hex[i..i + 2], 16)
                .map_err(|_| perr(ln, "bad hex byte in initializer"))?;
            init.push(b);
        }
    }
    Ok(Global {
        name: name.to_string(),
        size,
        init,
    })
}

fn perr(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_func_header(ln: usize, line: &str) -> PResult<(Function, ())> {
    // func NAME(params) [rets c1,c2] locals N {
    let rest = line
        .strip_prefix("func ")
        .ok_or_else(|| perr(ln, "expected `func`"))?;
    let open = rest.find('(').ok_or_else(|| perr(ln, "missing `(`"))?;
    let name = rest[..open].trim();
    if !is_ident(name) {
        return Err(perr(ln, format!("invalid function name `{name}`")));
    }
    let close = rest.find(')').ok_or_else(|| perr(ln, "missing `)`"))?;
    let mut f = Function::new(name);
    f.blocks.clear();
    let params_str = &rest[open + 1..close];
    for p in params_str
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        f.params.push(parse_reg(ln, p)?);
    }
    let mut tail = rest[close + 1..].trim();
    if let Some(r) = tail.strip_prefix("rets ") {
        let sp = r
            .find(" locals")
            .ok_or_else(|| perr(ln, "missing `locals`"))?;
        for c in r[..sp].split(',').map(str::trim) {
            f.ret_classes.push(match c {
                "gpr" => RegClass::Gpr,
                "fpr" => RegClass::Fpr,
                other => return Err(perr(ln, format!("bad ret class `{other}`"))),
            });
        }
        tail = r[sp..].trim();
    }
    let tail = tail
        .strip_prefix("locals ")
        .ok_or_else(|| perr(ln, "missing `locals`"))?;
    let tail = tail
        .strip_suffix('{')
        .ok_or_else(|| perr(ln, "missing `{`"))?
        .trim();
    f.frame.locals_size = tail.parse().map_err(|_| perr(ln, "bad locals size"))?;
    Ok((f, ()))
}

fn parse_slot_decl(ln: usize, rest: &str) -> PResult<SpillSlot> {
    // `slot N: CLASS @ OFFSET [ccm]`  (leading "slot " already stripped)
    let colon = rest.find(':').ok_or_else(|| perr(ln, "missing `:`"))?;
    let body = rest[colon + 1..].trim();
    let mut parts = body.split_whitespace();
    let class = match parts.next() {
        Some("gpr") => RegClass::Gpr,
        Some("fpr") => RegClass::Fpr,
        _ => return Err(perr(ln, "bad slot class")),
    };
    if parts.next() != Some("@") {
        return Err(perr(ln, "missing `@` in slot declaration"));
    }
    let offset: u32 = parts
        .next()
        .ok_or_else(|| perr(ln, "missing slot offset"))?
        .parse()
        .map_err(|_| perr(ln, "bad slot offset"))?;
    let in_ccm = match parts.next() {
        None => false,
        Some("ccm") => true,
        Some(other) => return Err(perr(ln, format!("unexpected token `{other}`"))),
    };
    Ok(SpillSlot {
        offset,
        class,
        in_ccm,
    })
}

fn parse_reg(ln: usize, s: &str) -> PResult<Reg> {
    let (class, n) = if let Some(n) = s.strip_prefix("%r") {
        (RegClass::Gpr, n)
    } else if let Some(n) = s.strip_prefix("%f") {
        (RegClass::Fpr, n)
    } else {
        return Err(perr(ln, format!("expected register, found `{s}`")));
    };
    match n.parse() {
        Ok(index) if index <= Reg::MAX_INDEX => Ok(Reg::new(class, index)),
        _ => Err(perr(ln, format!("bad register `{s}`"))),
    }
}

fn parse_imm(ln: usize, s: &str) -> PResult<i64> {
    s.parse()
        .map_err(|_| perr(ln, format!("bad immediate `{s}`")))
}

fn parse_fimm(ln: usize, s: &str) -> PResult<f64> {
    s.parse()
        .map_err(|_| perr(ln, format!("bad float immediate `{s}`")))
}

fn lookup_label(ln: usize, labels: &HashMap<String, BlockId>, l: &str) -> PResult<BlockId> {
    labels
        .get(l)
        .copied()
        .ok_or_else(|| perr(ln, format!("unknown label `{l}`")))
}

/// The kind in `all` whose mnemonic is `m`.
fn by_mnemonic<K: Copy>(all: &[K], mnemonic: fn(K) -> &'static str, m: Option<&str>) -> Option<K> {
    all.iter().copied().find(|&k| Some(mnemonic(k)) == m)
}

/// Splits `a, b, c` into trimmed pieces (empty input → empty vec).
fn commas(s: &str) -> Vec<&str> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect()
}

fn parse_instr(ln: usize, line: &str, labels: &HashMap<String, BlockId>) -> PResult<Instr> {
    // Strip and remember a spill tag suffix.
    let (line, spill) = if let Some(p) = line.rfind("!store(") {
        let n: u32 = line[p + 7..]
            .trim_end_matches(')')
            .trim()
            .parse()
            .map_err(|_| perr(ln, "bad !store tag"))?;
        (line[..p].trim_end(), SpillKind::Store(SlotId(n)))
    } else if let Some(p) = line.rfind("!restore(") {
        let n: u32 = line[p + 9..]
            .trim_end_matches(')')
            .trim()
            .parse()
            .map_err(|_| perr(ln, "bad !restore tag"))?;
        (line[..p].trim_end(), SpillKind::Restore(SlotId(n)))
    } else {
        (line, SpillKind::None)
    };

    let op = parse_op(ln, line, labels)?;
    Ok(Instr { op, spill })
}

fn parse_op(ln: usize, line: &str, labels: &HashMap<String, BlockId>) -> PResult<Op> {
    let (mn, rest) = match line.find(' ') {
        Some(p) => (&line[..p], line[p + 1..].trim()),
        None => (line, ""),
    };

    // Helper: split "ARGS => DSTS".
    let arrow = |s: &str| -> (String, Option<String>) {
        match s.find("=>") {
            Some(p) => (
                s[..p].trim().to_string(),
                Some(s[p + 2..].trim().to_string()),
            ),
            None => (s.trim().to_string(), None),
        }
    };

    let (args_s, dst_s) = arrow(rest);
    let need_dst = || {
        dst_s
            .clone()
            .ok_or_else(|| perr(ln, "missing `=>` destination"))
    };

    match mn {
        "nop" => Ok(Op::Nop),
        "loadI" => Ok(Op::LoadI {
            imm: parse_imm(ln, &args_s)?,
            dst: parse_reg(ln, &need_dst()?)?,
        }),
        "loadF" => Ok(Op::LoadF {
            imm: parse_fimm(ln, &args_s)?,
            dst: parse_reg(ln, &need_dst()?)?,
        }),
        "loadSym" => {
            let sym = args_s
                .strip_prefix('@')
                .ok_or_else(|| perr(ln, "loadSym needs @name"))?;
            Ok(Op::LoadSym {
                sym: sym.into(),
                dst: parse_reg(ln, &need_dst()?)?,
            })
        }
        "load" => Ok(Op::Load {
            addr: parse_reg(ln, &args_s)?,
            dst: parse_reg(ln, &need_dst()?)?,
        }),
        "fload" => Ok(Op::FLoad {
            addr: parse_reg(ln, &args_s)?,
            dst: parse_reg(ln, &need_dst()?)?,
        }),
        "loadAI" | "floadAI" => {
            let a = commas(&args_s);
            if a.len() != 2 {
                return Err(perr(ln, "loadAI needs addr, off"));
            }
            let addr = parse_reg(ln, a[0])?;
            let off = parse_imm(ln, a[1])?;
            let dst = parse_reg(ln, &need_dst()?)?;
            Ok(if mn == "loadAI" {
                Op::LoadAI { addr, off, dst }
            } else {
                Op::FLoadAI { addr, off, dst }
            })
        }
        "store" | "fstore" => {
            let val = parse_reg(ln, &args_s)?;
            let addr = parse_reg(ln, &need_dst()?)?;
            Ok(if mn == "store" {
                Op::Store { val, addr }
            } else {
                Op::FStore { val, addr }
            })
        }
        "storeAI" | "fstoreAI" => {
            let val = parse_reg(ln, &args_s)?;
            let d = need_dst()?;
            let a = commas(&d);
            if a.len() != 2 {
                return Err(perr(ln, "storeAI needs => addr, off"));
            }
            let addr = parse_reg(ln, a[0])?;
            let off = parse_imm(ln, a[1])?;
            Ok(if mn == "storeAI" {
                Op::StoreAI { val, addr, off }
            } else {
                Op::FStoreAI { val, addr, off }
            })
        }
        "spill" | "fspill" => {
            let val = parse_reg(ln, &args_s)?;
            let d = need_dst()?;
            let off = parse_ccm_ref(ln, &d)?;
            Ok(if mn == "spill" {
                Op::CcmStore { val, off }
            } else {
                Op::CcmFStore { val, off }
            })
        }
        "restore" | "frestore" => {
            let off = parse_ccm_ref(ln, &args_s)?;
            let dst = parse_reg(ln, &need_dst()?)?;
            Ok(if mn == "restore" {
                Op::CcmLoad { off, dst }
            } else {
                Op::CcmFLoad { off, dst }
            })
        }
        "i2i" | "f2f" | "i2f" | "f2i" => {
            let src = parse_reg(ln, &args_s)?;
            let dst = parse_reg(ln, &need_dst()?)?;
            Ok(match mn {
                "i2i" => Op::I2I { src, dst },
                "f2f" => Op::F2F { src, dst },
                "i2f" => Op::I2F { src, dst },
                _ => Op::F2I { src, dst },
            })
        }
        "jump" => {
            let l = rest
                .strip_prefix("->")
                .ok_or_else(|| perr(ln, "jump needs `->`"))?
                .trim();
            Ok(Op::Jump {
                target: lookup_label(ln, labels, l)?,
            })
        }
        "cbr" => {
            let arr = rest.find("->").ok_or_else(|| perr(ln, "cbr needs `->`"))?;
            let cond = parse_reg(ln, rest[..arr].trim())?;
            let t = commas(&rest[arr + 2..]);
            if t.len() != 2 {
                return Err(perr(ln, "cbr needs two targets"));
            }
            Ok(Op::Cbr {
                cond,
                taken: lookup_label(ln, labels, t[0])?,
                not_taken: lookup_label(ln, labels, t[1])?,
            })
        }
        "call" => {
            let open = rest.find('(').ok_or_else(|| perr(ln, "call needs `(`"))?;
            let close = rest.find(')').ok_or_else(|| perr(ln, "call needs `)`"))?;
            let callee = rest[..open].trim().to_string();
            let mut args = Vec::new();
            for a in commas(&rest[open + 1..close]) {
                args.push(parse_reg(ln, a)?);
            }
            let mut rets = Vec::new();
            let tail = rest[close + 1..].trim();
            if let Some(rs) = tail.strip_prefix("=>") {
                for r in commas(rs) {
                    rets.push(parse_reg(ln, r)?);
                }
            }
            Ok(Op::Call(Box::new(Call { callee, args, rets })))
        }
        "ret" => {
            let mut vals = Vec::new();
            for v in commas(rest) {
                vals.push(parse_reg(ln, v)?);
            }
            Ok(Op::Ret { vals: vals.into() })
        }
        "phi" => {
            // phi [L0: %r1, L1: %r2] => %r3
            let open = rest.find('[').ok_or_else(|| perr(ln, "phi needs `[`"))?;
            let close = rest.find(']').ok_or_else(|| perr(ln, "phi needs `]`"))?;
            let mut args = Vec::new();
            for pair in commas(&rest[open + 1..close]) {
                let colon = pair
                    .find(':')
                    .ok_or_else(|| perr(ln, "phi arg needs `:`"))?;
                let b = lookup_label(ln, labels, pair[..colon].trim())?;
                let r = parse_reg(ln, pair[colon + 1..].trim())?;
                args.push((b, r));
            }
            let d = rest[close + 1..]
                .trim()
                .strip_prefix("=>")
                .ok_or_else(|| perr(ln, "phi needs `=>`"))?
                .trim();
            Ok(Op::Phi {
                dst: parse_reg(ln, d)?,
                args: args.into(),
            })
        }
        _ => {
            // The ALU forms `MNEMONIC lhs, rhs => dst` (an immediate `rhs`
            // after an `I` suffix), each named by its kind's `mnemonic()`.
            let a = commas(&args_s);
            let operands = |msg: &str| match a[..] {
                [lhs, rhs] => Ok((parse_reg(ln, lhs)?, rhs)),
                _ => Err(perr(ln, msg)),
            };
            let regs = |msg: &str| -> PResult<(Reg, Reg, Reg)> {
                let (lhs, rhs) = operands(msg)?;
                Ok((lhs, parse_reg(ln, rhs)?, parse_reg(ln, &need_dst()?)?))
            };
            let cmp =
                |prefix| by_mnemonic(&CmpKind::ALL, CmpKind::mnemonic, mn.strip_prefix(prefix));
            let ibin = |m| by_mnemonic(&IBinKind::ALL, IBinKind::mnemonic, m);
            if let Some(kind) = cmp("cmp_") {
                let (lhs, rhs, dst) = regs("cmp needs two operands")?;
                return Ok(Op::ICmp {
                    kind,
                    lhs,
                    rhs,
                    dst,
                });
            }
            if let Some(kind) = cmp("fcmp_") {
                let (lhs, rhs, dst) = regs("fcmp needs two operands")?;
                return Ok(Op::FCmp {
                    kind,
                    lhs,
                    rhs,
                    dst,
                });
            }
            if let Some(kind) = ibin(mn.strip_suffix('I')) {
                let (lhs, imm) = operands("immediate op needs reg, imm")?;
                let (imm, dst) = (parse_imm(ln, imm)?, parse_reg(ln, &need_dst()?)?);
                return Ok(Op::IBinI {
                    kind,
                    lhs,
                    imm,
                    dst,
                });
            }
            if let Some(kind) = ibin(Some(mn)) {
                let (lhs, rhs, dst) = regs("binary op needs two operands")?;
                return Ok(Op::IBin {
                    kind,
                    lhs,
                    rhs,
                    dst,
                });
            }
            if let Some(kind) = by_mnemonic(&FBinKind::ALL, FBinKind::mnemonic, Some(mn)) {
                let (lhs, rhs, dst) = regs("binary op needs two operands")?;
                return Ok(Op::FBin {
                    kind,
                    lhs,
                    rhs,
                    dst,
                });
            }
            Err(perr(ln, format!("unknown mnemonic `{mn}`")))
        }
    }
}

fn parse_ccm_ref(ln: usize, s: &str) -> PResult<u32> {
    let inner = s
        .strip_prefix("ccm[")
        .and_then(|x| x.strip_suffix(']'))
        .ok_or_else(|| perr(ln, format!("expected ccm[OFF], found `{s}`")))?;
    inner.parse().map_err(|_| perr(ln, "bad ccm offset"))
}

/// Parses a complete module from IR text.
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number on malformed input.
///
/// # Example
///
/// ```
/// let text = "\
/// global g 8
/// func main() rets gpr locals 0 {
/// entry:
///     loadI 42 => %r64
///     ret %r64
/// }
/// ";
/// let m = iloc::parse_module(text).unwrap();
/// assert_eq!(m.functions.len(), 1);
/// ```
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    Parser::new(text).parse_module()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::op::Op;

    #[test]
    fn parse_minimal_module() {
        let m = parse_module(
            "global g 16\nfunc main() locals 8 {\nentry:\n    loadI 1 => %r64\n    ret\n}\n",
        )
        .unwrap();
        assert_eq!(m.globals[0].size, 16);
        assert_eq!(m.functions[0].frame.locals_size, 8);
        assert_eq!(m.functions[0].blocks[0].instrs.len(), 2);
    }

    #[test]
    fn comments_are_stripped() {
        let m =
            parse_module("; leading comment\nfunc f() locals 0 {\nentry:\n    ret ; trailing\n}\n")
                .unwrap();
        assert_eq!(m.functions[0].instr_count(), 1);
    }

    #[test]
    fn forward_branch_targets_resolve() {
        let m =
            parse_module("func f() locals 0 {\nentry:\n    jump -> later\nlater:\n    ret\n}\n")
                .unwrap();
        let f = &m.functions[0];
        assert_eq!(*f.successors(f.entry()), [BlockId(1)]);
    }

    #[test]
    fn unknown_label_is_error() {
        let e = parse_module("func f() locals 0 {\nentry:\n    jump -> nowhere\n}\n").unwrap_err();
        assert!(e.message.contains("unknown label"));
        assert_eq!(e.line, 3);
    }

    #[test]
    fn spill_tags_round_trip() {
        let text = "func f() locals 0 {\nentry:\n    storeAI %r64 => %r0, 8 !store(0)\n    loadAI %r0, 8 => %r64 !restore(0)\n    ret\n}\n";
        let m = parse_module(text).unwrap();
        let f = &m.functions[0];
        assert_eq!(f.blocks[0].instrs[0].spill, SpillKind::Store(SlotId(0)));
        assert_eq!(f.blocks[0].instrs[1].spill, SpillKind::Restore(SlotId(0)));
    }

    #[test]
    fn print_parse_round_trip() {
        let mut fb = FuncBuilder::new("kernel");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let p = fb.param(RegClass::Gpr);
        let base = fb.loadsym("data");
        let idx = fb.mult(p, p);
        let addr = fb.add(base, idx);
        let x = fb.floadai(addr, 16);
        let y = fb.loadf(3.25);
        let z = fb.fmult(x, y);
        let c = fb.fcmp(CmpKind::Lt, z, y);
        let exit = fb.block("exit");
        let other = fb.block("other");
        fb.cbr(c, exit, other);
        fb.switch_to(other);
        let rets = fb.call("helper", &[p], &[RegClass::Fpr]);
        fb.fstoreai(rets[0], base, 0);
        fb.jump(exit);
        fb.switch_to(exit);
        fb.ret(&[z]);
        let f = fb.finish();

        let mut m = Module::new();
        m.push_global(crate::module::Global::from_f64s("data", &[1.0, 2.0, 3.0]));
        m.push_function(f);

        let text = m.to_string();
        let m2 = parse_module(&text).unwrap();
        assert_eq!(m, m2, "round trip failed; printed form:\n{text}");
    }

    #[test]
    fn phi_round_trip() {
        let text = "func f() locals 0 {\nentry:\n    jump -> join\njoin:\n    phi [entry: %r64, join: %r65] => %r66\n    jump -> join\n}\n";
        let m = parse_module(text).unwrap();
        let f = &m.functions[0];
        match &f.blocks[1].instrs[0].op {
            Op::Phi { dst, args } => {
                assert_eq!(*dst, Reg::gpr(66));
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected phi, got {other:?}"),
        }
        let text2 = m.to_string();
        assert_eq!(m, parse_module(&text2).unwrap());
    }

    #[test]
    fn ccm_ops_round_trip() {
        let text = "func f() locals 0 {\nentry:\n    spill %r64 => ccm[12]\n    restore ccm[12] => %r65\n    fspill %f64 => ccm[16]\n    frestore ccm[16] => %f65\n    ret\n}\n";
        let m = parse_module(text).unwrap();
        assert_eq!(m, parse_module(&m.to_string()).unwrap());
        assert!(matches!(
            m.functions[0].blocks[0].instrs[0].op,
            Op::CcmStore { off: 12, .. }
        ));
    }

    #[test]
    fn slot_declarations_round_trip() {
        let text = "func f() locals 16 {\n  slot 0: gpr @ 16\n  slot 1: fpr @ 24 ccm\nentry:\n    ret\n}\n";
        let m = parse_module(text).unwrap();
        let fr = &m.functions[0].frame;
        assert_eq!(fr.slots.len(), 2);
        assert!(fr.slots[1].in_ccm);
        assert_eq!(m, parse_module(&m.to_string()).unwrap());
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;

    fn expect_err(text: &str, needle: &str) {
        let e = parse_module(text).expect_err("should fail");
        assert!(
            e.message.contains(needle),
            "error `{}` does not mention `{needle}`",
            e.message
        );
    }

    #[test]
    fn rejects_garbage_toplevel() {
        expect_err("banana\n", "expected `global` or `func`");
    }

    #[test]
    fn rejects_unterminated_function() {
        let e = parse_module("func f() locals 0 {\nentry:\n    ret\n").expect_err("eof");
        assert!(e.message.contains("unexpected end of input"));
    }

    #[test]
    fn rejects_bad_register() {
        expect_err(
            "func f() locals 0 {\nentry:\n    add %q1, %r2 => %r3\n    ret\n}\n",
            "register",
        );
    }

    #[test]
    fn rejects_a_register_index_past_the_packed_range() {
        let module = |op: &str| format!("func f() locals 0 {{\nentry:\n    {op}\n    ret\n}}\n");
        assert!(parse_module(&module("i2i %r2147483647 => %r64")).is_ok());
        for (op, reg) in [
            ("i2i %r2147483648 => %r64", "%r2147483648"),
            ("f2f %f4294967295 => %f64", "%f4294967295"),
        ] {
            let e = parse_module(&module(op)).expect_err(reg);
            assert_eq!((e.line, e.message), (3, format!("bad register `{reg}`")));
        }
    }

    #[test]
    fn rejects_unknown_mnemonic() {
        expect_err(
            "func f() locals 0 {\nentry:\n    frobnicate %r1 => %r2\n    ret\n}\n",
            "unknown mnemonic",
        );
    }

    #[test]
    fn rejects_duplicate_label() {
        expect_err(
            "func f() locals 0 {\nentry:\n    ret\nentry:\n    ret\n}\n",
            "duplicate block label",
        );
    }

    #[test]
    fn rejects_instruction_before_label() {
        expect_err(
            "func f() locals 0 {\n    ret\n}\n",
            "before first block label",
        );
    }

    #[test]
    fn rejects_missing_arrow() {
        expect_err(
            "func f() locals 0 {\nentry:\n    i2i %r65\n    ret\n}\n",
            "missing `=>`",
        );
    }

    #[test]
    fn rejects_odd_hex_global() {
        expect_err("global g 4 = 0ab\n", "odd-length hex");
    }

    #[test]
    fn rejects_bad_ccm_reference() {
        expect_err(
            "func f() locals 0 {\nentry:\n    restore ccm(8) => %r64\n    ret\n}\n",
            "expected ccm[OFF]",
        );
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse_module("global g 8\nfunc f() locals 0 {\nentry:\n    nope\n    ret\n}\n")
            .expect_err("bad mnemonic");
        assert_eq!(e.line, 4);
        // And the Display form mentions it.
        assert!(e.to_string().contains("line 4"));
    }
}
