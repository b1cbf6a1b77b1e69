//! A small two-pass assembler for the ISA.
//!
//! The accepted syntax is one instruction, label, or directive per line:
//!
//! ```text
//! ; comments start with ';', '#', or '//'
//! loop:                   ; labels end with ':'
//!     addi r1, r1, -1     ; immediates: decimal, 0x hex, 0b binary
//!     lw   r2, 4(r3)      ; loads/stores use off(base) addressing
//!     bne  r1, r0, loop   ; branch/jump targets are labels or addresses
//!     ldrrm r2            ; relocation instructions assemble like any other
//!     add  r1, r2, c1.r6  ; multi-RRM selector syntax (paper section 5.3)
//!     .word 0xdeadbeef    ; raw data word
//!     .space 4            ; four zero words
//!     halt
//! ```
//!
//! Register operands are *context-relative*; the assembler enforces only the
//! architectural bound [`crate::MAX_CONTEXT_SIZE`]. A machine configured with
//! a narrower effective operand width checks the tighter bound at run time.

use std::collections::HashMap;

use crate::encode::encode;
use crate::error::{AsmError, AsmErrorKind};
use crate::instr::{Instr, ADDR20_LIMIT, IMM14_MAX, IMM14_MIN};
use crate::reg::ContextReg;

/// An assembled program: encoded words plus the label map.
///
/// # Example
///
/// ```
/// use rr_isa::assemble;
///
/// let p = assemble("start: li r1, 5\n jmp start")?;
/// assert_eq!(p.label("start"), Some(0));
/// assert_eq!(p.words().len(), 2);
/// # Ok::<(), rr_isa::AsmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    origin: u32,
    words: Vec<u32>,
    labels: HashMap<String, u32>,
}

impl Program {
    /// The encoded instruction/data words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// The word address of the first word.
    pub fn origin(&self) -> u32 {
        self.origin
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The absolute word address of `name`, if defined.
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }

    /// All labels and their absolute addresses.
    pub fn labels(&self) -> impl Iterator<Item = (&str, u32)> {
        self.labels.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Assembles `source` with origin 0.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered, with its source line.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    assemble_at(source, 0)
}

/// Assembles `source` so that its first word sits at word address `origin`.
///
/// Labels resolve to absolute addresses; branches encode PC-relative offsets.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered, with its source line.
pub fn assemble_at(source: &str, origin: u32) -> Result<Program, AsmError> {
    let items = parse(source)?;

    // Pass 1: assign addresses to labels.
    let mut labels: HashMap<String, u32> = HashMap::new();
    // Every address must stay nameable by a label, so a program may end
    // at `ADDR20_LIMIT` but not past it; pass 2 then cannot overflow.
    let mut addr = origin;
    for item in &items {
        let size = match &item.kind {
            ItemKind::Label(name) => {
                if labels.insert(name.clone(), addr).is_some() {
                    return Err(AsmError {
                        line: item.line,
                        kind: AsmErrorKind::DuplicateLabel(name.clone()),
                    });
                }
                0
            }
            ItemKind::Stmt(stmt) => stmt_words(stmt),
            ItemKind::Word(_) => 1,
            ItemKind::Space(n) => *n,
        };
        addr = addr.checked_add(size).filter(|&end| end <= ADDR20_LIMIT).ok_or(AsmError {
            line: item.line,
            kind: AsmErrorKind::ProgramTooLarge { end: u64::from(addr) + u64::from(size) },
        })?;
    }

    // Pass 2: encode.
    let mut words = Vec::new();
    let mut addr = origin;
    for item in &items {
        match &item.kind {
            ItemKind::Label(_) => {}
            ItemKind::Word(w) => {
                words.push(*w);
                addr += 1;
            }
            ItemKind::Space(n) => {
                words.extend(std::iter::repeat_n(0, *n as usize));
                addr += n;
            }
            ItemKind::Stmt(stmt) if stmt.mnemonic == "li32" => {
                for instr in lower_li32(stmt, item.line)? {
                    let word = encode(&instr).map_err(|e| AsmError {
                        line: item.line,
                        kind: AsmErrorKind::BadImmediate(e.to_string()),
                    })?;
                    words.push(word);
                    addr += 1;
                }
            }
            ItemKind::Stmt(stmt) => {
                let instr = lower(stmt, addr, &labels, item.line)?;
                let word = encode(&instr).map_err(|e| AsmError {
                    line: item.line,
                    kind: AsmErrorKind::BadImmediate(e.to_string()),
                })?;
                words.push(word);
                addr += 1;
            }
        }
    }

    Ok(Program { origin, words, labels })
}

#[derive(Debug)]
struct Item {
    line: usize,
    kind: ItemKind,
}

#[derive(Debug)]
enum ItemKind {
    Label(String),
    Stmt(Stmt),
    Word(u32),
    Space(u32),
}

#[derive(Debug)]
struct Stmt {
    mnemonic: String,
    operands: Vec<String>,
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for (i, c) in line.char_indices() {
        if c == ';' || c == '#' {
            end = i;
            break;
        }
        if c == '/' && line[i..].starts_with("//") {
            end = i;
            break;
        }
    }
    &line[..end]
}

fn parse(source: &str) -> Result<Vec<Item>, AsmError> {
    let mut items = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let mut text = strip_comment(raw).trim();
        // A line may carry a label and an instruction: `loop: addi r1, r1, -1`.
        while let Some(colon) = text.find(':') {
            let (head, rest) = text.split_at(colon);
            let name = head.trim();
            if name.is_empty() || !is_ident(name) {
                return Err(AsmError {
                    line: line_no,
                    kind: AsmErrorKind::BadDirective(text.to_string()),
                });
            }
            items.push(Item { line: line_no, kind: ItemKind::Label(name.to_string()) });
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix(".word") {
            // Signed or unsigned 32-bit, as `li32` takes.
            let v = parse_int(rest.trim())
                .filter(|v| WORD_RANGE.contains(v))
                .ok_or_else(|| AsmError {
                    line: line_no,
                    kind: AsmErrorKind::BadDirective(text.to_string()),
                })?;
            items.push(Item { line: line_no, kind: ItemKind::Word(v as u32) });
            continue;
        }
        if let Some(rest) = text.strip_prefix(".space") {
            let v = parse_int(rest.trim())
                .filter(|v| (0..=i64::from(ADDR20_LIMIT)).contains(v))
                .ok_or_else(|| AsmError {
                    line: line_no,
                    kind: AsmErrorKind::BadDirective(text.to_string()),
                })?;
            items.push(Item { line: line_no, kind: ItemKind::Space(v as u32) });
            continue;
        }
        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(i) => (&text[..i], text[i..].trim()),
            None => (text, ""),
        };
        let operands: Vec<String> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(|s| s.trim().to_string()).collect()
        };
        items.push(Item {
            line: line_no,
            kind: ItemKind::Stmt(Stmt { mnemonic: mnemonic.to_ascii_lowercase(), operands }),
        });
    }
    Ok(items)
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_int(s: &str) -> Option<i64> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        i64::from_str_radix(bin, 2).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn parse_reg(tok: &str, line: usize) -> Result<ContextReg, AsmError> {
    let bad = || AsmError { line, kind: AsmErrorKind::BadRegister(tok.to_string()) };
    // Multi-RRM selector syntax: cK.rN
    if let Some(rest) = tok.strip_prefix('c').or_else(|| tok.strip_prefix('C')) {
        if let Some((sel, reg)) = rest.split_once('.') {
            let selector: u8 = sel.parse().map_err(|_| bad())?;
            let reg = reg.strip_prefix('r').or_else(|| reg.strip_prefix('R')).ok_or_else(bad)?;
            let number: u8 = reg.parse().map_err(|_| bad())?;
            return ContextReg::with_selector(number, selector).map_err(|_| bad());
        }
    }
    let body = tok.strip_prefix('r').or_else(|| tok.strip_prefix('R')).ok_or_else(bad)?;
    let number: u8 = body.parse().map_err(|_| bad())?;
    ContextReg::new(number).map_err(|_| bad())
}

fn parse_imm(tok: &str, line: usize) -> Result<i32, AsmError> {
    let v = parse_int(tok).ok_or_else(|| AsmError {
        line,
        kind: AsmErrorKind::BadImmediate(tok.to_string()),
    })?;
    if v < i64::from(IMM14_MIN) || v > i64::from(IMM14_MAX) {
        return Err(AsmError { line, kind: AsmErrorKind::BadImmediate(tok.to_string()) });
    }
    Ok(v as i32)
}

fn parse_shamt(tok: &str, line: usize) -> Result<u8, AsmError> {
    let v = parse_int(tok).ok_or_else(|| AsmError {
        line,
        kind: AsmErrorKind::BadImmediate(tok.to_string()),
    })?;
    if !(0..32).contains(&v) {
        return Err(AsmError { line, kind: AsmErrorKind::BadImmediate(tok.to_string()) });
    }
    Ok(v as u8)
}

/// Parses `off(base)` memory operand syntax.
fn parse_mem(tok: &str, line: usize) -> Result<(i32, ContextReg), AsmError> {
    let bad = || AsmError { line, kind: AsmErrorKind::BadOperands {
        mnemonic: "lw/sw".to_string(),
        expected: "rd, off(base)",
    }};
    let open = tok.find('(').ok_or_else(bad)?;
    let close = tok.rfind(')').ok_or_else(bad)?;
    if close <= open {
        return Err(bad());
    }
    let off_text = tok[..open].trim();
    let off = if off_text.is_empty() { 0 } else { parse_imm(off_text, line)? };
    let base = parse_reg(tok[open + 1..close].trim(), line)?;
    Ok((off, base))
}

fn resolve_target(
    tok: &str,
    labels: &HashMap<String, u32>,
    line: usize,
) -> Result<u32, AsmError> {
    if let Some(v) = parse_int(tok) {
        if v < 0 || v as u64 >= u64::from(ADDR20_LIMIT) {
            return Err(AsmError {
                line,
                kind: AsmErrorKind::JumpOutOfRange { to: v.max(0) as u32 },
            });
        }
        return Ok(v as u32);
    }
    labels.get(tok).copied().ok_or_else(|| AsmError {
        line,
        kind: AsmErrorKind::UndefinedLabel(tok.to_string()),
    })
}

fn branch_offset(from: u32, to: u32, line: usize) -> Result<i32, AsmError> {
    // Offset is relative to the instruction after the branch.
    let off = i64::from(to) - i64::from(from) - 1;
    if off < i64::from(IMM14_MIN) || off > i64::from(IMM14_MAX) {
        return Err(AsmError { line, kind: AsmErrorKind::BranchOutOfRange { from, to } });
    }
    Ok(off as i32)
}

fn expect(
    stmt: &Stmt,
    n: usize,
    expected: &'static str,
    line: usize,
) -> Result<(), AsmError> {
    if stmt.operands.len() == n {
        Ok(())
    } else {
        Err(AsmError {
            line,
            kind: AsmErrorKind::BadOperands { mnemonic: stmt.mnemonic.clone(), expected },
        })
    }
}

/// Number of encoded words a statement expands to.
fn stmt_words(stmt: &Stmt) -> u32 {
    if stmt.mnemonic == "li32" {
        LI32_WORDS
    } else {
        1
    }
}

/// The values a 32-bit constant may take: signed or unsigned 32-bit.
const WORD_RANGE: std::ops::Range<i64> = -(1i64 << 31)..(1i64 << 32);

/// Words produced by the `li32` pseudo-instruction. The expansion is
/// fixed-length so label addresses never depend on the constant's value.
const LI32_WORDS: u32 = 5;

/// Expands `li32 rd, imm32`: loads an arbitrary 32-bit constant in three
/// 11-or-fewer-bit positive chunks, shifting between them. The paper's
/// runtime code needs such constants (Appendix A's bitmap masks); the real
/// ISA's 14-bit immediates cannot carry them in one instruction.
fn lower_li32(stmt: &Stmt, line: usize) -> Result<Vec<Instr<ContextReg>>, AsmError> {
    if stmt.operands.len() != 2 {
        return Err(AsmError {
            line,
            kind: AsmErrorKind::BadOperands { mnemonic: stmt.mnemonic.clone(), expected: "rd, imm32" },
        });
    }
    let d = parse_reg(&stmt.operands[0], line)?;
    let v = parse_int(&stmt.operands[1])
        .filter(|v| WORD_RANGE.contains(v))
        .ok_or_else(|| AsmError {
            line,
            kind: AsmErrorKind::BadImmediate(stmt.operands[1].clone()),
        })? as u32;
    let hi = (v >> 22) as i32; // 10 bits
    let mid = ((v >> 11) & 0x7ff) as i32; // 11 bits
    let lo = (v & 0x7ff) as i32; // 11 bits
    Ok(vec![
        Instr::Li { d, imm: hi },
        Instr::Slli { d, s: d, shamt: 11 },
        Instr::Ori { d, s: d, imm: mid },
        Instr::Slli { d, s: d, shamt: 11 },
        Instr::Ori { d, s: d, imm: lo },
    ])
}

fn lower(
    stmt: &Stmt,
    addr: u32,
    labels: &HashMap<String, u32>,
    line: usize,
) -> Result<Instr<ContextReg>, AsmError> {
    let ops = &stmt.operands;
    let reg = |i: usize| parse_reg(&ops[i], line);
    let imm = |i: usize| parse_imm(&ops[i], line);
    macro_rules! rrr {
        ($v:ident) => {{
            expect(stmt, 3, "rd, rs, rt", line)?;
            Instr::$v { d: reg(0)?, s: reg(1)?, t: reg(2)? }
        }};
    }
    macro_rules! rri {
        ($v:ident) => {{
            expect(stmt, 3, "rd, rs, imm", line)?;
            Instr::$v { d: reg(0)?, s: reg(1)?, imm: imm(2)? }
        }};
    }
    macro_rules! shift {
        ($v:ident) => {{
            expect(stmt, 3, "rd, rs, shamt", line)?;
            Instr::$v { d: reg(0)?, s: reg(1)?, shamt: parse_shamt(&ops[2], line)? }
        }};
    }
    Ok(match stmt.mnemonic.as_str() {
        "nop" => {
            expect(stmt, 0, "", line)?;
            Instr::Nop
        }
        "halt" => {
            expect(stmt, 0, "", line)?;
            Instr::Halt
        }
        "add" => rrr!(Add),
        "sub" => rrr!(Sub),
        "and" => rrr!(And),
        "or" => rrr!(Or),
        "xor" => rrr!(Xor),
        "sll" => rrr!(Sll),
        "srl" => rrr!(Srl),
        "sra" => rrr!(Sra),
        "slt" => rrr!(Slt),
        "addi" => rri!(Addi),
        "andi" => rri!(Andi),
        "ori" => rri!(Ori),
        "xori" => rri!(Xori),
        "slti" => rri!(Slti),
        "slli" => shift!(Slli),
        "srli" => shift!(Srli),
        "srai" => shift!(Srai),
        "li" => {
            expect(stmt, 2, "rd, imm", line)?;
            Instr::Li { d: reg(0)?, imm: imm(1)? }
        }
        "lw" => {
            expect(stmt, 2, "rd, off(base)", line)?;
            let (off, base) = parse_mem(&ops[1], line)?;
            Instr::Lw { d: reg(0)?, base, off }
        }
        "sw" => {
            expect(stmt, 2, "rs, off(base)", line)?;
            let (off, base) = parse_mem(&ops[1], line)?;
            Instr::Sw { s: reg(0)?, base, off }
        }
        "mov" => {
            expect(stmt, 2, "rd, rs", line)?;
            Instr::Mov { d: reg(0)?, s: reg(1)? }
        }
        "beq" | "bne" => {
            expect(stmt, 3, "rs, rt, target", line)?;
            let target = resolve_target(&ops[2], labels, line)?;
            let off = branch_offset(addr, target, line)?;
            if stmt.mnemonic == "beq" {
                Instr::Beq { s: reg(0)?, t: reg(1)?, off }
            } else {
                Instr::Bne { s: reg(0)?, t: reg(1)?, off }
            }
        }
        "jmp" | "j" => {
            expect(stmt, 1, "target", line)?;
            Instr::Jmp { target: resolve_target(&ops[0], labels, line)? }
        }
        "jal" => {
            expect(stmt, 2, "rd, target", line)?;
            Instr::Jal { d: reg(0)?, target: resolve_target(&ops[1], labels, line)? }
        }
        "jr" => {
            expect(stmt, 1, "rs", line)?;
            Instr::Jr { s: reg(0)? }
        }
        "jalr" => {
            expect(stmt, 2, "rd, rs", line)?;
            Instr::Jalr { d: reg(0)?, s: reg(1)? }
        }
        "ldrrm" => {
            expect(stmt, 1, "rs", line)?;
            Instr::Ldrrm { s: reg(0)? }
        }
        "mfpsw" => {
            expect(stmt, 1, "rd", line)?;
            Instr::Mfpsw { d: reg(0)? }
        }
        "mtpsw" => {
            expect(stmt, 1, "rs", line)?;
            Instr::Mtpsw { s: reg(0)? }
        }
        other => {
            return Err(AsmError {
                line,
                kind: AsmErrorKind::UnknownMnemonic(other.to_string()),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode;

    #[test]
    fn assembles_figure3_yield_sequence() {
        let p = assemble(
            r#"
            yield:
                ldrrm r2
                mfpsw r1
                mtpsw r1
                jr r0
            "#,
        )
        .unwrap();
        assert_eq!(p.label("yield"), Some(0));
        let texts: Vec<String> =
            p.words().iter().map(|w| decode(*w).unwrap().to_string()).collect();
        assert_eq!(texts, vec!["ldrrm r2", "mfpsw r1", "mtpsw r1", "jr r0"]);
    }

    #[test]
    fn labels_on_same_line_as_instruction() {
        let p = assemble("loop: addi r1, r1, -1\n bne r1, r0, loop\n halt").unwrap();
        assert_eq!(p.label("loop"), Some(0));
        assert_eq!(p.len(), 3);
        match decode(p.words()[1]).unwrap() {
            Instr::Bne { off, .. } => assert_eq!(off, -2),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn branch_offsets_respect_origin() {
        let p = assemble_at("loop: beq r0, r0, loop", 100).unwrap();
        assert_eq!(p.label("loop"), Some(100));
        match decode(p.words()[0]).unwrap() {
            Instr::Beq { off, .. } => assert_eq!(off, -1),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn forward_references_resolve() {
        let p = assemble("jmp end\n nop\n end: halt").unwrap();
        match decode(p.words()[0]).unwrap() {
            Instr::Jmp { target } => assert_eq!(target, 2),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn memory_operands() {
        let p = assemble("lw r1, -4(r2)\n sw r3, (r4)\n lw r5, 0x10(r6)").unwrap();
        assert_eq!(decode(p.words()[0]).unwrap().to_string(), "lw r1, -4(r2)");
        assert_eq!(decode(p.words()[1]).unwrap().to_string(), "sw r3, 0(r4)");
        assert_eq!(decode(p.words()[2]).unwrap().to_string(), "lw r5, 16(r6)");
    }

    #[test]
    fn multi_rrm_selector_syntax() {
        let p = assemble("add c0.r3, c0.r4, c1.r6").unwrap();
        match decode(p.words()[0]).unwrap() {
            Instr::Add { d, s, t } => {
                assert_eq!((d.selector(), d.offset()), (0, 3));
                assert_eq!((s.selector(), s.offset()), (0, 4));
                assert_eq!((t.selector(), t.offset()), (1, 6));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn directives() {
        let p = assemble(".word 0xdeadbeef\n .space 3\n halt").unwrap();
        assert_eq!(p.words()[0], 0xdead_beef);
        assert_eq!(&p.words()[1..4], &[0, 0, 0]);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn directives_and_program_size_are_bounded() {
        // A 20-bit address space: a program may end at ADDR20_LIMIT, not past it.
        let limit = ADDR20_LIMIT;
        assert_eq!(assemble(&format!(".space {limit}")).unwrap().len(), limit as usize);
        let err = assemble(&format!(".space {limit}\n nop")).unwrap_err();
        assert_eq!((err.line, err.kind), (2, AsmErrorKind::ProgramTooLarge { end: 1 << 20 | 1 }));
        for too_big in [".space 4294967295\n nop", ".space 5000000001", ".space 1048577"] {
            let err = assemble(too_big).unwrap_err();
            assert!(matches!(err.kind, AsmErrorKind::BadDirective(_)), "{too_big}: {err}");
        }
        assert_eq!(assemble(".word 0xffffffff").unwrap().words(), &[0xffff_ffff]);
        assert_eq!(assemble(".word -2147483648").unwrap().words(), &[0x8000_0000]);
        for out_of_range in [".word 0x100000000", ".word -2147483649"] {
            assert!(assemble(out_of_range).is_err(), "{out_of_range}");
        }
    }

    #[test]
    fn comments_in_all_styles() {
        let p = assemble("nop ; one\nnop # two\nnop // three\n").unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn error_reporting() {
        let err = assemble("frob r1").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(matches!(err.kind, AsmErrorKind::UnknownMnemonic(_)));

        let err = assemble("nop\n add r1, r2").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, AsmErrorKind::BadOperands { .. }));

        let err = assemble("add r1, r2, r99").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::BadRegister(_)));

        let err = assemble("jmp nowhere").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::UndefinedLabel(_)));

        let err = assemble("x: nop\n x: nop").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::DuplicateLabel(_)));

        let err = assemble("li r1, 100000").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::BadImmediate(_)));
    }

    #[test]
    fn li32_expands_to_five_words_and_labels_stay_correct() {
        let p = assemble(
            r#"
            li32 r1, 0x11111111
            target:
                nop
                jmp target
            "#,
        )
        .unwrap();
        assert_eq!(p.label("target"), Some(5));
        assert_eq!(p.len(), 7);
        match decode(p.words()[6]).unwrap() {
            Instr::Jmp { target } => assert_eq!(target, 5),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn li32_rejects_bad_operands() {
        assert!(assemble("li32 r1").is_err());
        assert!(assemble("li32 r1, 0x1FFFFFFFF").is_err());
        assert!(assemble("li32 r99, 5").is_err());
    }

    #[test]
    fn label_only_lines_and_blank_lines() {
        let p = assemble("a:\n\nb:\n nop\n").unwrap();
        assert_eq!(p.label("a"), Some(0));
        assert_eq!(p.label("b"), Some(0));
        assert_eq!(p.len(), 1);
    }
}
