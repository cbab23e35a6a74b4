//! BLIF (Berkeley Logic Interchange Format) import and export.
//!
//! The parser is streaming and line-oriented: `#` comments, `\`
//! continuations, `.model`/`.inputs`/`.outputs`/`.names`/`.latch`/`.end`
//! directives. Every token borrows from the source text; the netlist
//! holds the one owned copy of each name. Each `.names` single-output
//! cover is mapped onto the [`lowvolt_circuit`] gate library — first by
//! truth-table matching (fanin ≤ 3 covers that compute exactly a library
//! function become one gate, input order preserved), then by
//! sum-of-products decomposition (each cube an AND chain of literals,
//! cubes OR-ed, off-set covers inverted). `.latch` becomes a
//! [`GateKind::Dff`] clocked by the latch's `re` control signal.
//!
//! The writer emits one canonical on-set cover per gate kind, so every
//! library gate survives a write → parse cycle as itself, and nodes are
//! created at first textual reference on both sides — the round-trip
//! identity the fixture tests pin down.

use lowvolt_circuit::netlist::{Circuit, GateKind, NodeId};

use crate::builder::{fold_chain, strip_comment, NetBuilder};
use crate::IoError;

/// Maximum cover fanin the parser accepts. SOP decomposition is linear
/// in cubes × literals, but truth-table phase handling expands the
/// input plane, and real BLIF from synthesis rarely exceeds this.
const MAX_COVER_FANIN: usize = 24;

/// One logical line: a physical line plus the `\` continuation lines
/// folded into it. A fold stands for whitespace, so no token straddles
/// one and every token borrows from the source text.
struct Line<'a> {
    /// Number of the first physical line.
    line_no: usize,
    /// Physical line and 1-based byte column of the first token.
    first_at: (usize, usize),
    /// The source from the line's first byte on; only an error message
    /// reads it again, to place a token.
    rest: &'a str,
}

impl<'a> Line<'a> {
    /// `(physical line number, text)` of each piece, in order: the
    /// comment-stripped text of each physical line, without the `\` that
    /// folds the next one in.
    fn pieces(&self) -> impl Iterator<Item = (usize, &'a str)> {
        let mut physical = (self.line_no..).zip(self.rest.lines());
        let mut more = true;
        std::iter::from_fn(move || {
            if !more {
                return None;
            }
            let (line, raw) = physical.next()?;
            let (text, continues) = split_continuation(raw);
            more = continues;
            Some((line, text))
        })
    }

    /// Physical line and 1-based column where `token` first occurs in
    /// this line (the start of the line if it does not occur).
    fn position_of(&self, token: &str) -> (usize, usize) {
        self.pieces()
            .find_map(|(line, text)| text.find(token).map(|at| (line, at + 1)))
            .unwrap_or((self.line_no, 1))
    }

    /// A parse error anchored at `token`'s [`Line::position_of`].
    fn error(&self, token: &str, message: impl Into<String>) -> IoError {
        let (line, column) = self.position_of(token);
        IoError::parse(line, column, message)
    }
}

/// The comment-stripped text of one physical line, without its trailing
/// `\` and with whether it had one.
fn split_continuation(raw: &str) -> (&str, bool) {
    let stripped = strip_comment(raw);
    match stripped.trim_end().strip_suffix('\\') {
        Some(head) => (head, true),
        None => (stripped, false),
    }
}

/// Splits BLIF text into logical lines and their tokens in one pass over
/// the bytes. Whitespace is what [`char::is_whitespace`] accepts, `#`
/// starts a comment that runs to the end of the physical line, and a `\`
/// ending a physical line's last token folds the next line in.
struct Scanner<'a> {
    text: &'a str,
    /// Byte offset of the next physical line.
    pos: usize,
    /// Its 1-based number.
    line_no: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Scanner<'a> {
        Scanner {
            text,
            pos: 0,
            line_no: 1,
        }
    }

    /// Reads the next logical line, its tokens replacing `tokens`'s.
    fn next_line(&mut self, tokens: &mut Vec<&'a str>) -> Option<Line<'a>> {
        let rest = self.text.get(self.pos..).filter(|r| !r.is_empty())?;
        tokens.clear();
        let mut line = Line {
            line_no: self.line_no,
            first_at: (self.line_no, 1),
            rest,
        };
        loop {
            let (line_no, line_start, piece) = (self.line_no, self.pos, tokens.len());
            self.physical_line(tokens);
            if piece == 0 {
                if let Some(first) = tokens.first() {
                    let column = first.as_ptr() as usize - self.text.as_ptr() as usize;
                    line.first_at = (line_no, column - line_start + 1);
                }
            }
            let Some(last) = tokens[piece..].last_mut() else {
                return Some(line);
            };
            let Some(head) = last.strip_suffix('\\') else {
                return Some(line);
            };
            if head.is_empty() {
                tokens.pop();
            } else {
                *last = head;
            }
            if self.pos >= self.text.len() {
                return Some(line);
            }
        }
    }

    /// Appends the tokens of the physical line at `pos` and moves past
    /// its newline. ASCII bytes are classified through [`BYTE_CLASS`]
    /// and a run of token bytes is crossed in one inner loop; only a
    /// non-ASCII byte decodes a `char`.
    fn physical_line(&mut self, tokens: &mut Vec<&'a str>) {
        let bytes = self.text.as_bytes();
        let mut at = self.pos;
        let mut token: Option<usize> = None;
        while let Some(&b) = bytes.get(at) {
            let here = at;
            let space = match BYTE_CLASS[usize::from(b)] {
                Class::Token => {
                    token.get_or_insert(at);
                    at += 1;
                    while bytes
                        .get(at)
                        .is_some_and(|&b| BYTE_CLASS[usize::from(b)] == Class::Token)
                    {
                        at += 1;
                    }
                    continue;
                }
                Class::Space => {
                    at += 1;
                    true
                }
                Class::Stop => break,
                Class::Wide => match self.text.get(at..).and_then(|r| r.chars().next()) {
                    Some(c) => {
                        at += c.len_utf8();
                        c.is_whitespace()
                    }
                    None => break,
                },
            };
            match (space, token) {
                (true, Some(start)) => {
                    tokens.push(&self.text[start..here]);
                    token = None;
                }
                (false, None) => token = Some(here),
                _ => {}
            }
        }
        if let Some(start) = token {
            tokens.push(&self.text[start..at]);
        }
        // Past the comment, if any, and the newline.
        self.pos = match bytes.get(at) {
            Some(b'\n') => at + 1,
            Some(_) => match self.text.get(at..).and_then(|r| r.find('\n')) {
                Some(newline) => at + newline + 1,
                None => self.text.len(),
            },
            None => self.text.len(),
        };
        self.line_no += 1;
    }
}

/// How [`Scanner::physical_line`] treats a byte.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// An ASCII byte of a token.
    Token,
    /// ASCII whitespace other than `\n` (what [`char::is_whitespace`]
    /// accepts below 0x80).
    Space,
    /// `\n` or `#`: the physical line's tokens end here.
    Stop,
    /// A byte of a multi-byte `char`, which decides for itself.
    Wide,
}

/// [`Class`] of every byte value.
const BYTE_CLASS: [Class; 256] = {
    let mut table = [Class::Wide; 256];
    let mut b = 0;
    while b < 0x80 {
        table[b] = match b as u8 {
            b'\n' | b'#' => Class::Stop,
            b' ' | b'\t'..=b'\r' => Class::Space,
            _ => Class::Token,
        };
        b += 1;
    }
    table
};

/// Truth tables are bitmaps over input assignments: bit `idx` is the
/// output for the assignment whose bit `i` is input `i`. `INPUT_BITS[i]`
/// is input `i` itself, over three inputs.
const INPUT_BITS: [u64; 3] = [0xAA, 0xCC, 0xF0];
const A: u64 = INPUT_BITS[0];
const B: u64 = INPUT_BITS[1];
const C: u64 = INPUT_BITS[2];

/// Library gates eligible for truth-table matching, grouped by arity,
/// with their truth tables. Order is fixed: it decides which kind a
/// matching cover becomes, and the writer's canonical covers land on
/// these same entries.
const MATCH_1: [(GateKind, u64); 2] = [(GateKind::Buf, A & 0x3), (GateKind::Not, !A & 0x3)];
const MATCH_2: [(GateKind, u64); 6] = [
    (GateKind::And2, A & B & 0xF),
    (GateKind::Or2, (A | B) & 0xF),
    (GateKind::Nand2, !(A & B) & 0xF),
    (GateKind::Nor2, !(A | B) & 0xF),
    (GateKind::Xor2, (A ^ B) & 0xF),
    (GateKind::Xnor2, !(A ^ B) & 0xF),
];
const MATCH_3: [(GateKind, u64); 5] = [
    (GateKind::And3, A & B & C),
    (GateKind::Or3, A | B | C),
    (GateKind::Nand3, !(A & B & C) & 0xFF),
    (GateKind::Nor3, !(A | B | C) & 0xFF),
    // inputs [sel, a, b]: a when sel=0, b when sel=1.
    (GateKind::Mux2, (!A & B | A & C) & 0xFF),
];

/// The truth table of a cover over `n ≤ 3` inputs.
fn cover_truth_table(n: usize, planes: &[&str], phase: bool) -> u64 {
    let all = (1u64 << (1u64 << n)) - 1;
    let on = planes.iter().fold(0, |on, plane| {
        let cube = plane
            .bytes()
            .zip(INPUT_BITS)
            .fold(all, |cube, (c, bits)| match c {
                b'1' => cube & bits,
                b'0' => cube & !bits,
                _ => cube,
            });
        on | cube
    });
    if phase {
        on
    } else {
        !on & all
    }
}

/// The `.names` cover being read: its signals and cube rows, borrowed
/// from the source. One value is reused for every cover of a file.
#[derive(Default)]
struct Cover<'a> {
    /// Line and column of the open cover's `.names`, `None` when no
    /// cover is open.
    at: Option<(usize, usize)>,
    /// The input names, then the output name.
    signals: Vec<&'a str>,
    /// Input planes of the cube rows (validated `0`/`1`/`-`).
    planes: Vec<&'a str>,
    /// Output bit of the first row: `true` for an on-set cover.
    phase: Option<bool>,
    /// Whether a later row's output bit differs from the first's.
    mixed: bool,
}

impl<'a> Cover<'a> {
    /// The input names of the open cover.
    fn inputs(&self) -> &[&'a str] {
        self.signals.split_last().map_or(&[], |(_, inputs)| inputs)
    }

    /// Builds the open cover, if any, and closes it.
    fn flush(&mut self, b: &mut NetBuilder) -> Result<(), IoError> {
        let Some((line_no, column)) = self.at.take() else {
            return Ok(());
        };
        let built = self.build(b, line_no, column);
        self.signals.clear();
        self.planes.clear();
        self.phase = None;
        self.mixed = false;
        built
    }

    /// Builds the gates for one cover: a single library gate when the
    /// truth table matches, otherwise an SOP decomposition. Errors are
    /// anchored at the cover's `.names`.
    fn build(&self, b: &mut NetBuilder, line_no: usize, column: usize) -> Result<(), IoError> {
        let err = |msg: String| IoError::parse(line_no, column, msg);
        let Some((&output, inputs)) = self.signals.split_last() else {
            return Err(err(".names needs at least an output signal".to_string()));
        };
        let n = inputs.len();
        if n == 0 {
            return Err(err(format!(
                "constant cover for `{output}` is not supported: the gate library has \
                 no constant driver (tie the signal to an input instead)"
            )));
        }
        if n > MAX_COVER_FANIN {
            return Err(err(format!(
                "cover fanin {n} exceeds the supported maximum {MAX_COVER_FANIN}"
            )));
        }
        let Some(phase) = self.phase else {
            return Err(err(format!("cover for `{output}` has inputs but no cubes")));
        };
        if self.mixed {
            return Err(err("cover mixes on-set and off-set rows".to_string()));
        }

        // Fast path: small covers that compute exactly a library function
        // become one gate, preserving the cover's input order.
        if n <= 3 {
            let tt = cover_truth_table(n, &self.planes, phase);
            let candidates: &[(GateKind, u64)] = match n {
                1 => &MATCH_1,
                2 => &MATCH_2,
                _ => &MATCH_3,
            };
            if let Some(&(kind, _)) = candidates.iter().find(|&&(_, t)| t == tt) {
                let mut ins = [NodeId::from_index(0); 3];
                for (slot, name) in ins.iter_mut().zip(inputs) {
                    *slot = b.node(name);
                }
                let out = b.drive(output).map_err(err)?;
                b.netlist
                    .gate_into(kind, &ins[..n], out)
                    .map_err(|e| err(e.to_string()))?;
                return Ok(());
            }
        }

        // General path: SOP decomposition. Literals are resolved lazily so
        // node-creation order is the sub-gate reference order — the same
        // order a re-parse of the written form produces.
        let mut inverters: Vec<Option<NodeId>> = vec![None; n];
        let mut cube_nodes: Vec<NodeId> = Vec::with_capacity(self.planes.len());
        let mut literals: Vec<NodeId> = Vec::with_capacity(n);
        for plane in &self.planes {
            if plane.bytes().all(|c| c == b'-') {
                return Err(err(format!(
                    "cube `{plane}` covers every assignment, making `{output}` constant \
                     — constants are not supported"
                )));
            }
            literals.clear();
            for ((c, name), inverter) in plane.bytes().zip(inputs).zip(&mut inverters) {
                match c {
                    b'1' => literals.push(b.node(name)),
                    b'0' => {
                        let lit = match *inverter {
                            Some(inv) => inv,
                            None => {
                                let base = b.node(name);
                                let inv = b.synth_gate(GateKind::Not, &[base]).map_err(err)?;
                                *inverter = Some(inv);
                                inv
                            }
                        };
                        literals.push(lit);
                    }
                    _ => {}
                }
            }
            let cube = fold_chain(b, GateKind::And2, &literals).map_err(err)?;
            cube_nodes.push(cube);
        }
        // OR the cubes; invert for off-set covers; the last gate drives the
        // declared output node directly.
        let out = b.drive(output).map_err(err)?;
        let sum = match cube_nodes.split_last() {
            Some((&last, [])) => last,
            Some((&last, rest)) => {
                let partial = fold_chain(b, GateKind::Or2, rest).map_err(err)?;
                if phase {
                    b.netlist
                        .gate_into(GateKind::Or2, &[partial, last], out)
                        .map_err(|e| err(e.to_string()))?;
                    return Ok(());
                }
                b.synth_gate(GateKind::Or2, &[partial, last]).map_err(err)?
            }
            None => return Err(err("cube has no literals".to_string())),
        };
        let final_kind = if phase { GateKind::Buf } else { GateKind::Not };
        b.netlist
            .gate_into(final_kind, &[sum], out)
            .map_err(|e| err(e.to_string()))?;
        Ok(())
    }
}

/// Parses BLIF text into a [`Circuit`].
///
/// Supported directives: `.model` (first one names the circuit; a
/// second model is rejected), `.inputs`, `.outputs` (both repeatable,
/// appending), `.names` single-output covers, `.latch input output
/// [re|fe clock] [init]`, `.end`. `.exdc`, `.subckt`, `.search`,
/// `.gate`, and friends are rejected with a positioned error rather
/// than silently skipped.
///
/// All latches must share one `re` clock (the event and compiled
/// engines drive a single two-phase clock); `fe` latches and latch
/// types other than `re` are rejected.
///
/// # Errors
///
/// [`IoError::Parse`] anchored at the offending line and column.
pub fn parse_blif(fallback_name: &str, text: &str) -> Result<Circuit, IoError> {
    let mut name: Option<String> = None;
    let mut b = NetBuilder::for_text(text.len());
    let mut inputs: Vec<NodeId> = Vec::new();
    let mut outputs: Vec<NodeId> = Vec::new();
    let mut clock_name: Option<&str> = None;
    let mut cover = Cover::default();
    let mut saw_end = false;

    let mut last_line = 1;
    let mut scanner = Scanner::new(text);
    // Reused for every line.
    let mut tokens: Vec<&str> = Vec::new();
    while let Some(line) = scanner.next_line(&mut tokens) {
        last_line = line.line_no;
        let Some((&first, args)) = tokens.split_first() else {
            continue;
        };
        if saw_end && first.starts_with('.') {
            return Err(line.error(first, format!("`{first}` after .end (one model per file)")));
        }
        match first {
            ".model" => {
                cover.flush(&mut b)?;
                if name.is_some() {
                    return Err(
                        line.error(first, "second .model — multi-model files are not supported")
                    );
                }
                name = Some(args.first().copied().unwrap_or(fallback_name).to_string());
            }
            ".inputs" => {
                cover.flush(&mut b)?;
                for &t in args {
                    inputs.push(b.input(t).map_err(|m| line.error(t, m))?);
                }
            }
            ".outputs" => {
                cover.flush(&mut b)?;
                for &t in args {
                    outputs.push(b.output(t).map_err(|m| line.error(t, m))?);
                }
            }
            ".names" => {
                cover.flush(&mut b)?;
                if args.is_empty() {
                    return Err(line.error(first, ".names needs at least an output signal"));
                }
                cover.signals.extend_from_slice(args);
                // The first token sits where `position_of` would find it.
                cover.at = Some(line.first_at);
            }
            ".latch" => {
                cover.flush(&mut b)?;
                // .latch input output [type control] [init-val]
                let count = args.len();
                let (d, q, control) = match *args {
                    [] | [_] => {
                        return Err(line.error(first, ".latch needs an input and an output signal"))
                    }
                    // An optional trailing init only.
                    [d, q] | [d, q, _] => (d, q, None),
                    [d, q, ty, clk] | [d, q, ty, clk, _] => (d, q, Some((ty, clk))),
                    _ => {
                        return Err(
                            line.error(first, format!(".latch takes 2–5 fields, got {count}"))
                        )
                    }
                };
                let clk = match control {
                    Some(("re", clk)) => clk,
                    Some((ty, _)) => {
                        return Err(line.error(
                            ty,
                            format!("latch type `{ty}` is not supported (only rising-edge `re`)"),
                        ))
                    }
                    None => {
                        return Err(line.error(
                            first,
                            ".latch without a clock: declare `re <clock>` \
                             (the simulators drive one explicit clock)",
                        ))
                    }
                };
                match clock_name {
                    None => clock_name = Some(clk),
                    Some(existing) if existing == clk => {}
                    Some(existing) => {
                        return Err(line.error(
                            first,
                            format!(
                                "latch clock `{clk}` conflicts with `{existing}` \
                                 — a single global clock is required"
                            ),
                        ))
                    }
                }
                // Build immediately (reference order: d, clk, q) so gate
                // order matches statement order.
                let dn = b.node(d);
                let cn = b.node(clk);
                let qn = b.drive(q).map_err(|m| line.error(first, m))?;
                b.netlist
                    .gate_into(GateKind::Dff, &[cn, dn], qn)
                    .map_err(|e| line.error(first, e.to_string()))?;
            }
            ".end" => {
                cover.flush(&mut b)?;
                saw_end = true;
            }
            ".exdc" | ".subckt" | ".gate" | ".mlatch" | ".search" | ".clock" | ".attribute" => {
                return Err(line.error(
                    first,
                    format!("`{first}` is not supported (structural BLIF subset only)"),
                ));
            }
            other if other.starts_with('.') => {
                return Err(line.error(first, format!("unknown directive `{other}`")));
            }
            _ => {
                // A cover row.
                if cover.at.is_none() {
                    return Err(line.error(first, format!("`{first}` outside any .names cover")));
                }
                let width = cover.inputs().len();
                let (plane, out) = match *args {
                    [out] => (first, out),
                    [] if width == 0 => ("", first),
                    _ => {
                        return Err(line.error(first, "cover rows are `<input-plane> <output-bit>`"))
                    }
                };
                if plane.len() != width {
                    return Err(line.error(
                        first,
                        format!(
                            "cube width {} does not match the {width} cover input(s)",
                            plane.len()
                        ),
                    ));
                }
                let on = match out {
                    "1" => true,
                    "0" => false,
                    other => {
                        return Err(
                            line.error(out, format!("cover output must be 0 or 1, got `{other}`"))
                        )
                    }
                };
                if !plane.bytes().all(|c| matches!(c, b'0' | b'1' | b'-')) {
                    let bad = plane
                        .chars()
                        .find(|c| !matches!(c, '0' | '1' | '-'))
                        .unwrap_or('?');
                    return Err(line.error(
                        first,
                        format!("invalid cube character `{bad}` (expected 0, 1, or -)"),
                    ));
                }
                cover.mixed |= *cover.phase.get_or_insert(on) != on;
                cover.planes.push(plane);
            }
        }
    }
    cover.flush(&mut b)?;

    // Undriven signals (referenced but never defined and not inputs) are
    // parse errors: a partially connected netlist would lint as floating
    // anyway, and naming the wire here is far more useful.
    if let Some((count, wire)) = b.undriven() {
        return Err(IoError::parse(
            last_line,
            1,
            format!(
                "{count} signal(s) referenced but never driven or declared as inputs \
                 (first: `{wire}`)"
            ),
        ));
    }

    let clock = clock_name.map(|n| b.node(n));
    inputs.retain(|&id| Some(id) != clock);
    Ok(Circuit {
        name: name.unwrap_or_else(|| fallback_name.to_string()),
        netlist: b.netlist,
        inputs,
        outputs,
        clock,
    })
}

/// The canonical on-set cover rows the writer emits for one gate kind.
/// Each maps back to the same kind through the parser's truth-table
/// matcher, which is what makes write → parse the identity on library
/// gates.
fn canonical_cover(kind: GateKind) -> &'static [&'static str] {
    match kind {
        GateKind::Buf => &["1 1"],
        GateKind::Not => &["0 1"],
        GateKind::And2 => &["11 1"],
        GateKind::And3 => &["111 1"],
        GateKind::Or2 => &["1- 1", "-1 1"],
        GateKind::Or3 => &["1-- 1", "-1- 1", "--1 1"],
        GateKind::Nand2 => &["0- 1", "-0 1"],
        GateKind::Nand3 => &["0-- 1", "-0- 1", "--0 1"],
        GateKind::Nor2 => &["00 1"],
        GateKind::Nor3 => &["000 1"],
        GateKind::Xor2 => &["10 1", "01 1"],
        GateKind::Xnor2 => &["11 1", "00 1"],
        // inputs [sel, a, b]: a when sel=0, b when sel=1.
        GateKind::Mux2 => &["01- 1", "1-1 1"],
        GateKind::Dff => &[],
    }
}

/// A name is writable if the line-oriented format can carry it
/// unambiguously.
fn check_name(name: &str) -> Result<(), IoError> {
    if name.is_empty()
        || name.starts_with('.')
        || name
            .chars()
            .any(|c| c.is_whitespace() || c == '#' || c == '\\')
    {
        return Err(IoError::Unwritable {
            reason: format!(
                "node name `{name}` cannot be represented in BLIF \
                 (empty, leading dot, whitespace, `#`, or `\\`)"
            ),
        });
    }
    Ok(())
}

/// Serialises a [`Circuit`] as structural BLIF.
///
/// Primary inputs come from the netlist (clock included), outputs from
/// the circuit's declared list, and gates are emitted in creation order
/// — `.latch` for flip-flops, a canonical `.names` cover for everything
/// else — so `parse_blif(write_blif(c))` reproduces `c` (see
/// [`crate::circuits_equivalent`]).
///
/// # Errors
///
/// [`IoError::Unwritable`] if a node name cannot be carried by the
/// format, or if flip-flops exist without a resolvable clock.
pub fn write_blif(circuit: &Circuit) -> Result<String, IoError> {
    let n = &circuit.netlist;
    let mut out = String::with_capacity(64 + n.gate_count() * 24);
    out.push_str(".model ");
    out.push_str(&circuit.name);
    out.push('\n');

    let write_names = |out: &mut String, directive: &str, ids: &[NodeId]| -> Result<(), IoError> {
        for chunk in ids.chunks(10) {
            out.push_str(directive);
            for &id in chunk {
                let name = n.node_name(id);
                check_name(name)?;
                out.push(' ');
                out.push_str(name);
            }
            out.push('\n');
        }
        Ok(())
    };
    write_names(&mut out, ".inputs", n.primary_inputs())?;
    write_names(&mut out, ".outputs", &circuit.outputs)?;

    for gate in n.gates() {
        if gate.kind == GateKind::Dff {
            let clk = n.node_name(gate.inputs()[0]);
            let d = n.node_name(gate.inputs()[1]);
            let q = n.node_name(gate.output);
            for name in [clk, d, q] {
                check_name(name)?;
            }
            out.push_str(&format!(".latch {d} {q} re {clk} 3\n"));
        } else {
            out.push_str(".names");
            for &i in gate.inputs() {
                let name = n.node_name(i);
                check_name(name)?;
                out.push(' ');
                out.push_str(name);
            }
            let oname = n.node_name(gate.output);
            check_name(oname)?;
            out.push(' ');
            out.push_str(oname);
            out.push('\n');
            for row in canonical_cover(gate.kind) {
                out.push_str(row);
                out.push('\n');
            }
        }
    }
    out.push_str(".end\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits_equivalent;
    use proptest::prelude::*;

    /// Checks the one-pass scanner against the line-by-line reading it
    /// replaces: every logical line's tokens are its pieces' whitespace
    /// split, the first token sits where `position_of` finds it, and the
    /// next line starts after this one's pieces.
    fn assert_scans_like_lines(text: &str) {
        let mut scanner = Scanner::new(text);
        let mut tokens = Vec::new();
        let mut expected_line = 1;
        let mut count = 0;
        while let Some(line) = scanner.next_line(&mut tokens) {
            assert_eq!(line.line_no, expected_line, "{text:?}");
            let pieces: Vec<(usize, &str)> = line.pieces().collect();
            let reference: Vec<&str> = pieces
                .iter()
                .flat_map(|(_, t)| t.split_whitespace())
                .collect();
            assert_eq!(tokens, reference, "{text:?} line {expected_line}");
            if let Some(first) = tokens.first() {
                assert_eq!(line.first_at, line.position_of(first), "{text:?}");
            }
            expected_line += pieces.len();
            count += pieces.len();
        }
        assert_eq!(count, text.lines().count(), "{text:?}");
    }

    #[test]
    fn scanner_folds_comments_and_continuations_like_lines() {
        for text in [
            "",
            "\n",
            "a b\\\nc\n",
            ".names a \\ # c\n b y\n11 1\n",
            "\\\n\\\n x",
            "a\\\\\nb",
            "a \\",
            "a \\\n",
            "x\r\ny \\\r\n z\r",
            "\u{a0}a\u{2028}b\u{3000}\\\u{85}\nc\x0bd\x1ce",
            "# only a comment \\\nnext",
            "é#\\\nq",
        ] {
            assert_scans_like_lines(text);
        }
    }

    /// Pieces of random scanner input: token bytes, comment and
    /// continuation marks, ASCII and Unicode whitespace, and non-ASCII
    /// token chars.
    const ALPHABET: [&str; 20] = [
        "a", "b", ".", "#", "\\", " ", "\t", "\r", "\n", "\n", "\u{a0}", "\u{2028}", "é", "0", "1",
        "-", "\x0b", "\x1f", "\u{85}", "𝄞",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]

        #[test]
        fn scanner_matches_line_reading_on_random_text(
            picks in proptest::collection::vec(0usize..20, 0..60)
        ) {
            let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            assert_scans_like_lines(&text);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A long run of ASCII token bytes (the scanner's inner loop) cut
        /// at every offset by each byte or char that ends or splits a
        /// token, followed by random text.
        #[test]
        fn scanner_matches_line_reading_around_long_token_runs(
            run in proptest::collection::vec(0usize..16, 1..48),
            tail in proptest::collection::vec(0usize..20, 0..12),
        ) {
            // Every ASCII token byte next to a class boundary, and some.
            const TOKEN_BYTES: [&str; 16] = [
                "a", "Z", "_", "0", ".", "[", "-", "\x00", "\x08", "\x0e", "\x1f", "!", "\"", "$",
                "\x7f", "~",
            ];
            const CUTS: [&str; 7] = ["#", "\\", "\r", "\u{85}", "\u{a0}", "\u{2028}", "\\\n"];
            let run: String = run.iter().map(|&i| TOKEN_BYTES[i]).collect();
            let tail: String = tail.iter().map(|&i| ALPHABET[i]).collect();
            for cut in CUTS {
                for offset in 0..=run.len() {
                    let (head, rest) = run.split_at(offset);
                    assert_scans_like_lines(&format!("{head}{cut}{rest}{tail}"));
                    assert_scans_like_lines(&format!(" {run} {head}{cut}{rest}\n{tail}"));
                }
            }
        }
    }

    #[test]
    fn parses_simple_and() {
        let c = parse_blif(
            "t",
            ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
        )
        .unwrap();
        assert_eq!(c.name, "t");
        assert_eq!(c.netlist.gate_count(), 1);
        assert_eq!(c.netlist.gates()[0].kind, GateKind::And2);
        assert_eq!(c.inputs.len(), 2);
        assert_eq!(c.outputs.len(), 1);
        assert!(c.clock.is_none());
    }

    #[test]
    fn library_matching_covers_every_kind() {
        for kind in [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And2,
            GateKind::Or2,
            GateKind::Nand2,
            GateKind::Nor2,
            GateKind::Xor2,
            GateKind::Xnor2,
            GateKind::And3,
            GateKind::Or3,
            GateKind::Nand3,
            GateKind::Nor3,
            GateKind::Mux2,
        ] {
            let names: Vec<String> = (0..kind.arity()).map(|i| format!("i{i}")).collect();
            let mut text = format!(
                ".model m\n.inputs {}\n.outputs y\n.names {} y\n",
                names.join(" "),
                names.join(" ")
            );
            for row in canonical_cover(kind) {
                text.push_str(row);
                text.push('\n');
            }
            text.push_str(".end\n");
            let c = parse_blif("m", &text).unwrap();
            assert_eq!(c.netlist.gate_count(), 1, "{}", kind.name());
            assert_eq!(c.netlist.gates()[0].kind, kind, "{}", kind.name());
        }
    }

    #[test]
    fn match_tables_agree_with_gate_evaluation() {
        use lowvolt_circuit::logic::Bit;
        let tables = MATCH_1.iter().chain(&MATCH_2).chain(&MATCH_3);
        for &(kind, table) in tables {
            let n = kind.arity();
            for idx in 0..(1u64 << n) {
                let bits: Vec<Bit> = (0..n)
                    .map(|i| {
                        if idx >> i & 1 == 1 {
                            Bit::One
                        } else {
                            Bit::Zero
                        }
                    })
                    .collect();
                let on = kind.evaluate(&bits) == Bit::One;
                assert_eq!(table >> idx & 1 == 1, on, "{} at {idx:b}", kind.name());
            }
            assert_eq!(
                table >> (1u64 << n),
                0,
                "{}: bits past the table",
                kind.name()
            );
        }
    }

    #[test]
    fn duplicate_output_deep_in_a_long_list_keeps_its_position() {
        // 5000 outputs, ten per line as the writer emits them; the
        // 5000th repeats the 124th. The error names the repeat's line
        // and the column where its text first occurs on that line.
        let mut text = String::from(".model t\n.inputs a\n");
        let names: Vec<String> = (0..4999)
            .map(|i| format!("o{i}"))
            .chain(["o123".to_owned()])
            .collect();
        for chunk in names.chunks(10) {
            text.push_str(&format!(".outputs {}\n", chunk.join(" ")));
        }
        let err = parse_blif("t", &text).unwrap_err();
        assert_eq!(
            err,
            IoError::parse(502, 64, "`o123` is declared an output twice")
        );

        // All on one line: the column is that of the first occurrence of
        // the repeated name's text, the first declaration.
        let line = format!(".model t\n.outputs {} o17\n", names[..4999].join(" "));
        let err = parse_blif("t", &line).unwrap_err();
        let first = line.find(" o17 ").unwrap() - ".model t\n".len() + 2;
        assert_eq!(
            err,
            IoError::parse(2, first, "`o17` is declared an output twice")
        );
    }

    #[test]
    fn off_set_cover_inverts() {
        // ~(a & b) expressed as an off-set cover: output 0 when a=b=1.
        let c = parse_blif(
            "t",
            ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n",
        )
        .unwrap();
        assert_eq!(c.netlist.gate_count(), 1);
        assert_eq!(c.netlist.gates()[0].kind, GateKind::Nand2);
    }

    #[test]
    fn wide_cover_decomposes_and_roundtrips() {
        let text = ".model wide\n.inputs a b c d\n.outputs y\n\
                    .names a b c d y\n1100 1\n0011 1\n.end\n";
        let c = parse_blif("wide", text).unwrap();
        assert!(c.netlist.gate_count() > 1);
        let written = write_blif(&c).unwrap();
        let again = parse_blif("wide", &written).unwrap();
        circuits_equivalent(&c, &again).unwrap();
        // And the rewrite is a fixpoint.
        assert_eq!(written, write_blif(&again).unwrap());
    }

    #[test]
    fn latch_becomes_dff_with_shared_clock() {
        let text = ".model seq\n.inputs d clk\n.outputs q\n\
                    .latch d q re clk 3\n.end\n";
        let c = parse_blif("seq", text).unwrap();
        assert_eq!(c.netlist.gate_count(), 1);
        assert_eq!(c.netlist.gates()[0].kind, GateKind::Dff);
        assert_eq!(c.inputs.len(), 1, "clock excluded from stimulus inputs");
        assert!(c.clock.is_some());
    }

    #[test]
    fn conflicting_latch_clocks_rejected() {
        let text = ".model seq\n.inputs d e c1 c2\n.outputs q r\n\
                    .latch d q re c1 3\n.latch e r re c2 3\n.end\n";
        let err = parse_blif("seq", text).unwrap_err();
        match err {
            IoError::Parse { line, message, .. } => {
                assert_eq!(line, 5);
                assert!(message.contains("c2"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse_blif(
            "t",
            ".model t\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n",
        )
        .unwrap_err();
        match err {
            IoError::Parse { line, message, .. } => {
                assert_eq!(line, 5);
                assert!(message.contains('2'), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn undriven_signal_named() {
        let err = parse_blif(
            "t",
            ".model t\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn double_drive_rejected() {
        let text = ".model t\n.inputs a b\n.outputs y\n\
                    .names a y\n1 1\n.names b y\n1 1\n.end\n";
        let err = parse_blif("t", text).unwrap_err();
        assert!(err.to_string().contains("driven twice"), "{err}");
    }

    #[test]
    fn continuation_lines_fold() {
        let text = ".model t\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n";
        let c = parse_blif("t", text).unwrap();
        assert_eq!(c.inputs.len(), 2);
    }

    #[test]
    fn constant_cover_rejected() {
        let err = parse_blif("t", ".model t\n.outputs y\n.names y\n1\n.end\n").unwrap_err();
        assert!(err.to_string().contains("constant"), "{err}");
    }
}
