//! Two-pass assembler.
//!
//! Supports the usual comfort layer of a MIPS-style assembler: `.text` /
//! `.data` sections, labels, data directives (`.word`, `.byte`, `.ascii`,
//! `.asciiz`, `.space`, `.align`), character/hex/decimal immediates, and a
//! set of pseudo-instructions (`li`, `la`, `move`, `mul`, `b`, `beqz`,
//! `bnez`, `blt`, `bgt`, `ble`, `bge`, `not`, `neg`) that expand to fixed
//! instruction sequences so that pass-one sizing is exact.

use std::collections::HashMap;

use crate::error::AssembleError;
use crate::inst::{Inst, Reg};
use crate::mem::DATA_BASE;

/// An assembled program: decoded text segment, initialised data segment,
/// and the resolved symbol tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The text segment: pre-decoded instructions.
    pub insts: Vec<Inst>,
    /// The initialised data segment, loaded at
    /// [`DATA_BASE`].
    pub data: Vec<u8>,
    /// Text labels → instruction index.
    pub text_labels: HashMap<String, u32>,
    /// Data labels → absolute byte address.
    pub data_labels: HashMap<String, u32>,
    /// Entry instruction index (the `main` label if present, else 0).
    pub entry: u32,
}

impl Program {
    /// Renders a disassembly listing: one line per instruction with its
    /// index, preceded by any labels bound to that index. Branch targets
    /// appear as `@index`, so the listing cross-references itself.
    #[must_use]
    pub fn listing(&self) -> String {
        let mut labels_at: HashMap<u32, Vec<&str>> = HashMap::new();
        for (name, &idx) in &self.text_labels {
            labels_at.entry(idx).or_default().push(name);
        }
        for names in labels_at.values_mut() {
            names.sort_unstable();
        }
        let mut out = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            if let Some(names) = labels_at.get(&(i as u32)) {
                for name in names {
                    out.push_str(&format!("{name}:\n"));
                }
            }
            out.push_str(&format!("{i:6}  {inst}\n"));
        }
        if !self.data.is_empty() {
            out.push_str(&format!(
                "\n.data  {} bytes at {:#010x}\n",
                self.data.len(),
                crate::mem::DATA_BASE
            ));
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

#[derive(Debug, Clone)]
struct Statement {
    line: usize,
    mnemonic: String,
    operands: Vec<String>,
}

/// Assembles source text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AssembleError`] naming the offending line for syntax
/// errors, unknown mnemonics or registers, out-of-range immediates, and
/// unresolved or duplicate labels.
pub fn assemble(source: &str) -> Result<Program, AssembleError> {
    let mut section = Section::Text;
    let mut text_stmts: Vec<Statement> = Vec::new();
    let mut text_labels: HashMap<String, u32> = HashMap::new();
    let mut data_labels: HashMap<String, u32> = HashMap::new();
    let mut data_items: Vec<(usize, String, Vec<String>)> = Vec::new(); // (line, directive, args)
    let mut inst_count: u32 = 0;
    let mut data_offset: u32 = 0;

    // ---- pass 1: record labels and sizes ----
    for (line_no, raw) in source.lines().enumerate() {
        let line_no = line_no + 1;
        let mut line = raw;
        if let Some(i) = line.find('#') {
            line = &line[..i];
        }
        let mut rest = line.trim();
        // Peel leading labels (possibly several on one line).
        while let Some(colon) = find_label_colon(rest) {
            let name = rest[..colon].trim();
            if !is_valid_label(name) {
                return Err(AssembleError::new(
                    line_no,
                    format!("invalid label `{name}`"),
                ));
            }
            let dup = match section {
                Section::Text => text_labels.insert(name.to_string(), inst_count).is_some(),
                Section::Data => {
                    // Labels on data bind to the next item's (aligned)
                    // offset; alignment for .word happens at emit, so
                    // align eagerly here for determinism.
                    data_labels
                        .insert(name.to_string(), DATA_BASE + data_offset)
                        .is_some()
                }
            } || (text_labels.contains_key(name) && data_labels.contains_key(name));
            if dup {
                return Err(AssembleError::new(
                    line_no,
                    format!("duplicate label `{name}`"),
                ));
            }
            rest = rest[colon + 1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        if let Some(directive) = rest.strip_prefix('.') {
            let (name, args_str) = split_first_word(directive);
            match name {
                "text" => section = Section::Text,
                "data" => section = Section::Data,
                "globl" | "global" | "ent" | "end" => {} // accepted, ignored
                "word" | "byte" | "half" | "ascii" | "asciiz" | "space" | "align" => {
                    if section != Section::Data {
                        return Err(AssembleError::new(
                            line_no,
                            format!(".{name} is only valid in the .data section"),
                        ));
                    }
                    let args = split_data_args(args_str);
                    let size = data_directive_size(name, &args, data_offset)
                        .map_err(|m| AssembleError::new(line_no, m))?;
                    // .word aligns to 4 first; fix the label we just bound
                    // if alignment moved the offset.
                    let aligned = data_directive_aligned_start(name, data_offset);
                    if aligned != data_offset {
                        for v in data_labels.values_mut() {
                            if *v == DATA_BASE + data_offset {
                                *v = DATA_BASE + aligned;
                            }
                        }
                    }
                    data_offset = aligned + size;
                    data_items.push((line_no, name.to_string(), args));
                }
                other => {
                    return Err(AssembleError::new(
                        line_no,
                        format!("unknown directive .{other}"),
                    ));
                }
            }
            continue;
        }
        if section != Section::Text {
            return Err(AssembleError::new(
                line_no,
                "instructions are only valid in the .text section",
            ));
        }
        let stmt = parse_statement(line_no, rest)?;
        inst_count += statement_size(&stmt)?;
        text_stmts.push(stmt);
    }

    // ---- pass 2: emit ----
    let mut data: Vec<u8> = Vec::with_capacity(data_offset as usize);
    for (line_no, name, args) in &data_items {
        emit_data(name, args, &mut data, &text_labels, &data_labels)
            .map_err(|m| AssembleError::new(*line_no, m))?;
    }
    let symbols = SymbolTables {
        text: &text_labels,
        data: &data_labels,
    };
    let mut insts: Vec<Inst> = Vec::with_capacity(inst_count as usize);
    for stmt in &text_stmts {
        emit_statement(stmt, &symbols, &mut insts)?;
    }
    debug_assert_eq!(
        insts.len() as u32,
        inst_count,
        "pass-1 sizing must be exact"
    );
    let entry = text_labels.get("main").copied().unwrap_or(0);
    Ok(Program {
        insts,
        data,
        text_labels,
        data_labels,
        entry,
    })
}

struct SymbolTables<'a> {
    text: &'a HashMap<String, u32>,
    data: &'a HashMap<String, u32>,
}

impl SymbolTables<'_> {
    fn text_target(&self, label: &str, line: usize) -> Result<u32, AssembleError> {
        self.text
            .get(label)
            .copied()
            .ok_or_else(|| AssembleError::new(line, format!("unresolved text label `{label}`")))
    }

    /// Value of a label for address-forming instructions: data labels give
    /// their absolute address, text labels their instruction index (useful
    /// for jump tables).
    fn value(&self, label: &str, line: usize) -> Result<u32, AssembleError> {
        self.data
            .get(label)
            .or_else(|| self.text.get(label))
            .copied()
            .ok_or_else(|| AssembleError::new(line, format!("unresolved label `{label}`")))
    }
}

fn find_label_colon(s: &str) -> Option<usize> {
    // A label colon must come before any whitespace-separated operand and
    // must not be inside a string literal.
    let first_quote = s.find('"').unwrap_or(usize::MAX);
    let colon = s.find(':')?;
    (colon < first_quote).then_some(colon)
}

fn is_valid_label(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn split_first_word(s: &str) -> (&str, &str) {
    let s = s.trim();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    }
}

/// Splits data-directive arguments on commas, respecting string literals.
fn split_data_args(s: &str) -> Vec<String> {
    let mut args = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_string {
            current.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            current.push(c);
            in_string = true;
        } else if c == ',' {
            if !current.trim().is_empty() {
                args.push(current.trim().to_string());
            }
            current.clear();
        } else {
            current.push(c);
        }
    }
    if !current.trim().is_empty() {
        args.push(current.trim().to_string());
    }
    args
}

fn data_directive_aligned_start(name: &str, offset: u32) -> u32 {
    match name {
        "word" => (offset + 3) & !3,
        "half" => (offset + 1) & !1,
        _ => offset,
    }
}

fn data_directive_size(name: &str, args: &[String], _offset: u32) -> Result<u32, String> {
    match name {
        "word" => Ok(4 * args.len() as u32),
        "half" => Ok(2 * args.len() as u32),
        "byte" => Ok(args.len() as u32),
        "ascii" | "asciiz" => {
            let mut total = 0;
            for a in args {
                let s = parse_string_literal(a)?;
                total += s.len() as u32 + u32::from(name == "asciiz");
            }
            Ok(total)
        }
        "space" => {
            let n = args
                .first()
                .ok_or_else(|| ".space needs a size".to_string())?;
            parse_imm(n).map_err(|e| e.to_string()).and_then(|v| {
                u32::try_from(v).map_err(|_| ".space size must be non-negative".into())
            })
        }
        "align" => {
            // Handled at emit time; sizing conservatively assumes the
            // current offset is already aligned (we re-align at emit).
            let n = args
                .first()
                .ok_or_else(|| ".align needs an exponent".to_string())?;
            let exp = parse_imm(n).map_err(|e| e.to_string())?;
            if !(0..=12).contains(&exp) {
                return Err(".align exponent must be in 0..=12".into());
            }
            // Pass 1 cannot know padding without tracking offset — but we
            // do have it: compute from _offset.
            let align = 1u32 << exp;
            Ok(_offset.div_ceil(align) * align - _offset)
        }
        _ => unreachable!("caller filters directive names"),
    }
}

fn emit_data(
    name: &str,
    args: &[String],
    data: &mut Vec<u8>,
    text_labels: &HashMap<String, u32>,
    data_labels: &HashMap<String, u32>,
) -> Result<(), String> {
    let lookup = |label: &str| -> Option<i64> {
        data_labels
            .get(label)
            .or_else(|| text_labels.get(label))
            .map(|&v| i64::from(v))
    };
    match name {
        "word" => {
            while !data.len().is_multiple_of(4) {
                data.push(0);
            }
            for a in args {
                let v = match parse_imm(a) {
                    Ok(v) => v,
                    Err(_) => lookup(a).ok_or_else(|| format!("unresolved word value `{a}`"))?,
                };
                data.extend_from_slice(&(v as u32).to_le_bytes());
            }
        }
        "half" => {
            while !data.len().is_multiple_of(2) {
                data.push(0);
            }
            for a in args {
                let v = parse_imm(a)?;
                data.extend_from_slice(&(v as u16).to_le_bytes());
            }
        }
        "byte" => {
            for a in args {
                let v = parse_imm(a)?;
                data.push(v as u8);
            }
        }
        "ascii" | "asciiz" => {
            for a in args {
                let s = parse_string_literal(a)?;
                data.extend_from_slice(&s);
                if name == "asciiz" {
                    data.push(0);
                }
            }
        }
        "space" => {
            let n = parse_imm(&args[0])?;
            data.extend(std::iter::repeat_n(0u8, n as usize));
        }
        "align" => {
            let exp = parse_imm(&args[0])?;
            let align = 1usize << exp;
            while !data.len().is_multiple_of(align) {
                data.push(0);
            }
        }
        _ => unreachable!(),
    }
    Ok(())
}

fn parse_string_literal(s: &str) -> Result<Vec<u8>, String> {
    let inner = s
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected string literal, got `{s}`"))?;
    let mut out = Vec::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push(b'\n'),
                Some('t') => out.push(b'\t'),
                Some('0') => out.push(0),
                Some('\\') => out.push(b'\\'),
                Some('"') => out.push(b'"'),
                other => return Err(format!("unknown escape \\{other:?}")),
            }
        } else {
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        }
    }
    Ok(out)
}

fn parse_imm(s: &str) -> Result<i64, String> {
    let s = s.trim();
    if let Some(c) = s.strip_prefix('\'').and_then(|t| t.strip_suffix('\'')) {
        let c = match c {
            "\\n" => '\n',
            "\\t" => '\t',
            "\\0" => '\0',
            "\\\\" => '\\',
            single => {
                let mut it = single.chars();
                let ch = it.next().ok_or("empty char literal")?;
                if it.next().is_some() {
                    return Err(format!("invalid char literal '{single}'"));
                }
                ch
            }
        };
        return Ok(c as i64);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).map_err(|_| format!("bad hex literal `{s}`"))?
    } else {
        body.parse::<i64>()
            .map_err(|_| format!("bad integer `{s}`"))?
    };
    Ok(if neg { -v } else { v })
}

fn parse_statement(line: usize, text: &str) -> Result<Statement, AssembleError> {
    let (mnemonic, rest) = split_first_word(text);
    let operands: Vec<String> = rest
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if mnemonic.is_empty() {
        return Err(AssembleError::new(line, "empty statement"));
    }
    Ok(Statement {
        line,
        mnemonic: mnemonic.to_ascii_lowercase(),
        operands,
    })
}

/// How many machine instructions a statement expands to.
fn statement_size(stmt: &Statement) -> Result<u32, AssembleError> {
    Ok(match stmt.mnemonic.as_str() {
        "li" => {
            let imm = parse_imm(stmt.operands.get(1).map_or("", String::as_str))
                .map_err(|m| AssembleError::new(stmt.line, m))?;
            li_size(imm)
        }
        "la" => 2,
        "mul" => 2,
        "blt" | "bgt" | "ble" | "bge" => 2,
        "lw" | "sw" | "lb" | "lbu" | "sb" => {
            // Label-addressed forms expand to la + access.
            let mem = stmt.operands.get(1).map_or("", String::as_str);
            if mem.contains('(') || mem.starts_with('$') {
                1
            } else {
                3
            }
        }
        _ => 1,
    })
}

fn li_size(imm: i64) -> u32 {
    let single =
        i16::try_from(imm).is_ok() || (0..=0xffff).contains(&imm) || imm as u32 & 0xffff == 0;
    if single {
        1
    } else {
        2
    }
}

struct Operands<'a> {
    line: usize,
    ops: &'a [String],
}

impl<'a> Operands<'a> {
    fn want(&self, n: usize) -> Result<(), AssembleError> {
        if self.ops.len() == n {
            Ok(())
        } else {
            Err(AssembleError::new(
                self.line,
                format!("expected {n} operands, got {}", self.ops.len()),
            ))
        }
    }

    fn reg(&self, i: usize) -> Result<Reg, AssembleError> {
        let s = self
            .ops
            .get(i)
            .ok_or_else(|| AssembleError::new(self.line, format!("missing operand {i}")))?;
        let name = s.strip_prefix('$').ok_or_else(|| {
            AssembleError::new(self.line, format!("expected register, got `{s}`"))
        })?;
        Reg::by_name(name)
            .ok_or_else(|| AssembleError::new(self.line, format!("unknown register `{s}`")))
    }

    fn imm(&self, i: usize) -> Result<i64, AssembleError> {
        let s = self
            .ops
            .get(i)
            .ok_or_else(|| AssembleError::new(self.line, format!("missing operand {i}")))?;
        parse_imm(s).map_err(|m| AssembleError::new(self.line, m))
    }

    fn imm16(&self, i: usize) -> Result<i16, AssembleError> {
        let v = self.imm(i)?;
        i16::try_from(v)
            .map_err(|_| AssembleError::new(self.line, format!("immediate {v} out of i16 range")))
    }

    fn uimm16(&self, i: usize) -> Result<u16, AssembleError> {
        let v = self.imm(i)?;
        u16::try_from(v)
            .map_err(|_| AssembleError::new(self.line, format!("immediate {v} out of u16 range")))
    }

    fn shamt(&self, i: usize) -> Result<u8, AssembleError> {
        let v = self.imm(i)?;
        if (0..32).contains(&v) {
            Ok(v as u8)
        } else {
            Err(AssembleError::new(
                self.line,
                format!("shift amount {v} out of 0..32"),
            ))
        }
    }

    fn label(&self, i: usize) -> Result<&'a str, AssembleError> {
        self.ops
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| AssembleError::new(self.line, format!("missing operand {i}")))
    }

    /// Parses `offset($base)` / `($base)` memory operands.
    fn mem(&self, i: usize) -> Result<(Reg, i16), AssembleError> {
        let s = self
            .ops
            .get(i)
            .ok_or_else(|| AssembleError::new(self.line, format!("missing operand {i}")))?;
        let open = s.find('(').ok_or_else(|| {
            AssembleError::new(self.line, format!("expected mem operand, got `{s}`"))
        })?;
        let close = s
            .rfind(')')
            .ok_or_else(|| AssembleError::new(self.line, "unterminated mem operand"))?;
        let offset_str = s[..open].trim();
        let offset = if offset_str.is_empty() {
            0
        } else {
            let v = parse_imm(offset_str).map_err(|m| AssembleError::new(self.line, m))?;
            i16::try_from(v).map_err(|_| {
                AssembleError::new(self.line, format!("offset {v} out of i16 range"))
            })?
        };
        let reg_str = s[open + 1..close].trim();
        let name = reg_str.strip_prefix('$').ok_or_else(|| {
            AssembleError::new(
                self.line,
                format!("expected base register, got `{reg_str}`"),
            )
        })?;
        let base = Reg::by_name(name).ok_or_else(|| {
            AssembleError::new(self.line, format!("unknown register `{reg_str}`"))
        })?;
        Ok((base, offset))
    }
}

#[allow(clippy::too_many_lines)]
fn emit_statement(
    stmt: &Statement,
    symbols: &SymbolTables<'_>,
    out: &mut Vec<Inst>,
) -> Result<(), AssembleError> {
    let o = Operands {
        line: stmt.line,
        ops: &stmt.operands,
    };
    let line = stmt.line;
    match stmt.mnemonic.as_str() {
        // ---- three-register ALU ----
        m @ ("add" | "addu" | "sub" | "subu" | "and" | "or" | "xor" | "nor" | "slt" | "sltu") => {
            o.want(3)?;
            let (rd, rs, rt) = (o.reg(0)?, o.reg(1)?, o.reg(2)?);
            out.push(match m {
                "add" | "addu" => Inst::Add { rd, rs, rt },
                "sub" | "subu" => Inst::Sub { rd, rs, rt },
                "and" => Inst::And { rd, rs, rt },
                "or" => Inst::Or { rd, rs, rt },
                "xor" => Inst::Xor { rd, rs, rt },
                "nor" => Inst::Nor { rd, rs, rt },
                "slt" => Inst::Slt { rd, rs, rt },
                _ => Inst::Sltu { rd, rs, rt },
            });
        }
        m @ ("sllv" | "srlv" | "srav") => {
            o.want(3)?;
            let (rd, rt, rs) = (o.reg(0)?, o.reg(1)?, o.reg(2)?);
            out.push(match m {
                "sllv" => Inst::Sllv { rd, rt, rs },
                "srlv" => Inst::Srlv { rd, rt, rs },
                _ => Inst::Srav { rd, rt, rs },
            });
        }
        m @ ("sll" | "srl" | "sra") => {
            o.want(3)?;
            let (rd, rt, shamt) = (o.reg(0)?, o.reg(1)?, o.shamt(2)?);
            out.push(match m {
                "sll" => Inst::Sll { rd, rt, shamt },
                "srl" => Inst::Srl { rd, rt, shamt },
                _ => Inst::Sra { rd, rt, shamt },
            });
        }
        m @ ("mult" | "multu" | "div" | "divu") => {
            o.want(2)?;
            let (rs, rt) = (o.reg(0)?, o.reg(1)?);
            out.push(match m {
                "mult" => Inst::Mult { rs, rt },
                "multu" => Inst::Multu { rs, rt },
                "div" => Inst::Div { rs, rt },
                _ => Inst::Divu { rs, rt },
            });
        }
        "mfhi" => {
            o.want(1)?;
            out.push(Inst::Mfhi { rd: o.reg(0)? });
        }
        "mflo" => {
            o.want(1)?;
            out.push(Inst::Mflo { rd: o.reg(0)? });
        }
        // ---- immediates ----
        m @ ("addi" | "addiu" | "slti" | "sltiu") => {
            o.want(3)?;
            let (rt, rs, imm) = (o.reg(0)?, o.reg(1)?, o.imm16(2)?);
            out.push(match m {
                "addi" | "addiu" => Inst::Addi { rt, rs, imm },
                "slti" => Inst::Slti { rt, rs, imm },
                _ => Inst::Sltiu { rt, rs, imm },
            });
        }
        m @ ("andi" | "ori" | "xori") => {
            o.want(3)?;
            let (rt, rs, imm) = (o.reg(0)?, o.reg(1)?, o.uimm16(2)?);
            out.push(match m {
                "andi" => Inst::Andi { rt, rs, imm },
                "ori" => Inst::Ori { rt, rs, imm },
                _ => Inst::Xori { rt, rs, imm },
            });
        }
        "lui" => {
            o.want(2)?;
            out.push(Inst::Lui {
                rt: o.reg(0)?,
                imm: o.uimm16(1)?,
            });
        }
        // ---- memory ----
        m @ ("lw" | "sw" | "lb" | "lbu" | "sb") => {
            o.want(2)?;
            let rt = o.reg(0)?;
            let operand = o.label(1)?;
            let (base, offset) = if operand.contains('(') {
                o.mem(1)?
            } else if let Some(name) = operand.strip_prefix('$') {
                // Bare register means zero offset.
                let base = Reg::by_name(name).ok_or_else(|| {
                    AssembleError::new(line, format!("unknown register `{operand}`"))
                })?;
                (base, 0)
            } else {
                // Label-addressed access: materialise the address in $at.
                let addr = symbols.value(operand, line)?;
                out.push(Inst::Lui {
                    rt: Reg::AT,
                    imm: (addr >> 16) as u16,
                });
                out.push(Inst::Ori {
                    rt: Reg::AT,
                    rs: Reg::AT,
                    imm: (addr & 0xffff) as u16,
                });
                (Reg::AT, 0)
            };
            out.push(match m {
                "lw" => Inst::Lw { rt, base, offset },
                "sw" => Inst::Sw { rt, base, offset },
                "lb" => Inst::Lb { rt, base, offset },
                "lbu" => Inst::Lbu { rt, base, offset },
                _ => Inst::Sb { rt, base, offset },
            });
        }
        // ---- control ----
        m @ ("beq" | "bne") => {
            o.want(3)?;
            let (rs, rt) = (o.reg(0)?, o.reg(1)?);
            let target = symbols.text_target(o.label(2)?, line)?;
            out.push(if m == "beq" {
                Inst::Beq { rs, rt, target }
            } else {
                Inst::Bne { rs, rt, target }
            });
        }
        m @ ("blez" | "bgtz" | "bltz" | "bgez") => {
            o.want(2)?;
            let rs = o.reg(0)?;
            let target = symbols.text_target(o.label(1)?, line)?;
            out.push(match m {
                "blez" => Inst::Blez { rs, target },
                "bgtz" => Inst::Bgtz { rs, target },
                "bltz" => Inst::Bltz { rs, target },
                _ => Inst::Bgez { rs, target },
            });
        }
        m @ ("beqz" | "bnez") => {
            o.want(2)?;
            let rs = o.reg(0)?;
            let target = symbols.text_target(o.label(1)?, line)?;
            out.push(if m == "beqz" {
                Inst::Beq {
                    rs,
                    rt: Reg::ZERO,
                    target,
                }
            } else {
                Inst::Bne {
                    rs,
                    rt: Reg::ZERO,
                    target,
                }
            });
        }
        "b" => {
            o.want(1)?;
            let target = symbols.text_target(o.label(0)?, line)?;
            out.push(Inst::Beq {
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                target,
            });
        }
        m @ ("blt" | "bgt" | "ble" | "bge") => {
            o.want(3)?;
            let (rs, rt) = (o.reg(0)?, o.reg(1)?);
            let target = symbols.text_target(o.label(2)?, line)?;
            // blt: rs < rt  → slt $at, rs, rt ; bne $at, $zero
            // bge: !(rs<rt) → slt $at, rs, rt ; beq $at, $zero
            // bgt: rt < rs  → slt $at, rt, rs ; bne $at, $zero
            // ble: !(rt<rs) → slt $at, rt, rs ; beq $at, $zero
            let (cmp_rs, cmp_rt, branch_ne) = match m {
                "blt" => (rs, rt, true),
                "bge" => (rs, rt, false),
                "bgt" => (rt, rs, true),
                _ => (rt, rs, false),
            };
            out.push(Inst::Slt {
                rd: Reg::AT,
                rs: cmp_rs,
                rt: cmp_rt,
            });
            out.push(if branch_ne {
                Inst::Bne {
                    rs: Reg::AT,
                    rt: Reg::ZERO,
                    target,
                }
            } else {
                Inst::Beq {
                    rs: Reg::AT,
                    rt: Reg::ZERO,
                    target,
                }
            });
        }
        "j" => {
            o.want(1)?;
            out.push(Inst::J {
                target: symbols.text_target(o.label(0)?, line)?,
            });
        }
        "jal" => {
            o.want(1)?;
            out.push(Inst::Jal {
                target: symbols.text_target(o.label(0)?, line)?,
            });
        }
        "jr" => {
            o.want(1)?;
            out.push(Inst::Jr { rs: o.reg(0)? });
        }
        "jalr" => {
            if o.ops.len() == 1 {
                out.push(Inst::Jalr {
                    rd: Reg::RA,
                    rs: o.reg(0)?,
                });
            } else {
                o.want(2)?;
                out.push(Inst::Jalr {
                    rd: o.reg(0)?,
                    rs: o.reg(1)?,
                });
            }
        }
        // ---- pseudo-instructions ----
        "li" => {
            o.want(2)?;
            let rt = o.reg(0)?;
            let imm = o.imm(1)?;
            if !(-(1i64 << 31)..(1i64 << 32)).contains(&imm) {
                return Err(AssembleError::new(
                    line,
                    format!("li value {imm} out of 32-bit range"),
                ));
            }
            if let Ok(v) = i16::try_from(imm) {
                out.push(Inst::Addi {
                    rt,
                    rs: Reg::ZERO,
                    imm: v,
                });
            } else if (0..=0xffff).contains(&imm) {
                out.push(Inst::Ori {
                    rt,
                    rs: Reg::ZERO,
                    imm: imm as u16,
                });
            } else if imm as u32 & 0xffff == 0 {
                out.push(Inst::Lui {
                    rt,
                    imm: (imm as u32 >> 16) as u16,
                });
            } else {
                out.push(Inst::Lui {
                    rt,
                    imm: (imm as u32 >> 16) as u16,
                });
                out.push(Inst::Ori {
                    rt,
                    rs: rt,
                    imm: (imm as u32 & 0xffff) as u16,
                });
            }
        }
        "la" => {
            o.want(2)?;
            let rt = o.reg(0)?;
            let addr = symbols.value(o.label(1)?, line)?;
            out.push(Inst::Lui {
                rt,
                imm: (addr >> 16) as u16,
            });
            out.push(Inst::Ori {
                rt,
                rs: rt,
                imm: (addr & 0xffff) as u16,
            });
        }
        "move" => {
            o.want(2)?;
            out.push(Inst::Add {
                rd: o.reg(0)?,
                rs: o.reg(1)?,
                rt: Reg::ZERO,
            });
        }
        "mul" => {
            o.want(3)?;
            let (rd, rs, rt) = (o.reg(0)?, o.reg(1)?, o.reg(2)?);
            out.push(Inst::Mult { rs, rt });
            out.push(Inst::Mflo { rd });
        }
        "not" => {
            o.want(2)?;
            out.push(Inst::Nor {
                rd: o.reg(0)?,
                rs: o.reg(1)?,
                rt: Reg::ZERO,
            });
        }
        "neg" => {
            o.want(2)?;
            out.push(Inst::Sub {
                rd: o.reg(0)?,
                rs: Reg::ZERO,
                rt: o.reg(1)?,
            });
        }
        "syscall" => {
            o.want(0)?;
            out.push(Inst::Syscall);
        }
        "nop" => {
            o.want(0)?;
            out.push(Inst::Nop);
        }
        other => {
            return Err(AssembleError::new(
                line,
                format!("unknown mnemonic `{other}`"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_across_sections() {
        let p = assemble(
            r#"
            .data
            x: .word 42
            .text
            main:
                la $t0, x
                lw $t1, 0($t0)
                j end
            end:
                nop
        "#,
        )
        .unwrap();
        assert_eq!(p.entry, p.text_labels["main"]);
        assert_eq!(p.data_labels["x"], DATA_BASE);
        assert_eq!(&p.data[..4], &42u32.to_le_bytes());
        // la expands to lui+ori, lw is 1, j is 1, nop is 1.
        assert_eq!(p.insts.len(), 5);
        assert_eq!(p.text_labels["end"], 4);
    }

    #[test]
    fn li_picks_minimal_encoding() {
        let p = assemble(
            ".text\nli $t0, 5\nli $t1, -3\nli $t2, 0x8000\nli $t3, 0x10000\nli $t4, 0x12345678\n",
        )
        .unwrap();
        assert_eq!(
            p.insts,
            vec![
                Inst::Addi {
                    rt: Reg(8),
                    rs: Reg::ZERO,
                    imm: 5
                },
                Inst::Addi {
                    rt: Reg(9),
                    rs: Reg::ZERO,
                    imm: -3
                },
                Inst::Ori {
                    rt: Reg(10),
                    rs: Reg::ZERO,
                    imm: 0x8000
                },
                Inst::Lui {
                    rt: Reg(11),
                    imm: 1
                },
                Inst::Lui {
                    rt: Reg(12),
                    imm: 0x1234
                },
                Inst::Ori {
                    rt: Reg(12),
                    rs: Reg(12),
                    imm: 0x5678
                },
            ]
        );
    }

    #[test]
    fn branch_pseudos_expand_with_at() {
        let p = assemble(
            r#"
            .text
            top: blt $t0, $t1, top
                 bge $t0, $t1, top
        "#,
        )
        .unwrap();
        assert_eq!(p.insts.len(), 4);
        assert_eq!(
            p.insts[0],
            Inst::Slt {
                rd: Reg::AT,
                rs: Reg(8),
                rt: Reg(9)
            }
        );
        assert!(matches!(p.insts[1], Inst::Bne { target: 0, .. }));
        assert!(matches!(p.insts[3], Inst::Beq { target: 0, .. }));
    }

    #[test]
    fn data_directives_layout() {
        let p = assemble(
            r#"
            .data
            a: .byte 1, 2
            b: .word 0x11223344
            s: .asciiz "hi\n"
            sp: .space 3
            c: .byte 'A'
        "#,
        )
        .unwrap();
        // bytes 1,2 then pad to 4, then word, then "hi\n\0", space 3, 'A'
        assert_eq!(p.data[0], 1);
        assert_eq!(p.data[1], 2);
        assert_eq!(&p.data[4..8], &0x1122_3344u32.to_le_bytes());
        assert_eq!(&p.data[8..12], b"hi\n\0");
        assert_eq!(p.data[15], b'A');
        assert_eq!(p.data_labels["b"], DATA_BASE + 4);
        assert_eq!(p.data_labels["c"], DATA_BASE + 15);
    }

    #[test]
    fn word_labels_in_data() {
        let p = assemble(
            r#"
            .data
            ptr: .word target
            .text
            main: nop
            target: nop
        "#,
        )
        .unwrap();
        assert_eq!(&p.data[..4], &1u32.to_le_bytes(), "text label index stored");
    }

    #[test]
    fn errors_name_the_line() {
        let e = assemble(".text\nbogus $t0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
        let e = assemble(".text\nadd $t0, $t1\n").unwrap_err();
        assert!(e.message.contains("expected 3 operands"));
        let e = assemble(".text\nadd $t0, $t1, $woof\n").unwrap_err();
        assert!(e.message.contains("woof"));
        let e = assemble(".text\nbeq $t0, $t1, nowhere\n").unwrap_err();
        assert!(e.message.contains("nowhere"));
        let e = assemble(".text\naddi $t0, $t1, 40000\n").unwrap_err();
        assert!(e.message.contains("out of i16 range"));
    }

    #[test]
    fn duplicate_labels_rejected() {
        let e = assemble(".text\nx: nop\nx: nop\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("# header\n.text\n  # indented comment\nnop # trailing\n\n").unwrap();
        assert_eq!(p.insts, vec![Inst::Nop]);
    }

    #[test]
    fn mem_operand_forms() {
        let p = assemble(".text\nlw $t0, 8($sp)\nlw $t1, ($sp)\nsw $t0, -4($sp)\n").unwrap();
        assert_eq!(
            p.insts[0],
            Inst::Lw {
                rt: Reg(8),
                base: Reg::SP,
                offset: 8
            }
        );
        assert_eq!(
            p.insts[1],
            Inst::Lw {
                rt: Reg(9),
                base: Reg::SP,
                offset: 0
            }
        );
        assert_eq!(
            p.insts[2],
            Inst::Sw {
                rt: Reg(8),
                base: Reg::SP,
                offset: -4
            }
        );
    }

    #[test]
    fn label_addressed_loads_expand() {
        let p = assemble(
            r#"
            .data
            v: .word 9
            .text
            lw $t0, v
        "#,
        )
        .unwrap();
        assert_eq!(p.insts.len(), 3);
        assert!(matches!(p.insts[0], Inst::Lui { rt: Reg::AT, .. }));
        assert!(matches!(
            p.insts[2],
            Inst::Lw {
                base: Reg::AT,
                offset: 0,
                ..
            }
        ));
    }

    #[test]
    fn entry_defaults_to_zero_without_main() {
        let p = assemble(".text\nnop\n").unwrap();
        assert_eq!(p.entry, 0);
    }
}

#[cfg(test)]
mod listing_tests {
    use super::*;

    #[test]
    fn listing_shows_labels_and_targets() {
        let p = assemble(
            r#"
            .data
            v: .word 1
            .text
            main:
                li  $t0, 3
            loop:
                addi $t0, $t0, -1
                bgtz $t0, loop
                jr  $ra
        "#,
        )
        .unwrap();
        let listing = p.listing();
        assert!(listing.contains("main:"));
        assert!(listing.contains("loop:"));
        assert!(listing.contains("addi $t0, $t0, -1"));
        assert!(listing.contains("@1"), "branch target index shown");
        assert!(listing.contains(".data  4 bytes"));
        // One line per instruction plus label and data lines.
        assert_eq!(listing.lines().count(), 4 + 2 + 2);
    }
}
