//! BLIF (Berkeley Logic Interchange Format) import and export.
//!
//! The parser is streaming and line-oriented: `#` comments, `\`
//! continuations, `.model`/`.inputs`/`.outputs`/`.names`/`.latch`/`.end`
//! directives. Each `.names` single-output cover is mapped onto the
//! [`lowvolt_circuit`] gate library — first by truth-table matching
//! (fanin ≤ 3 covers that compute exactly a library function become one
//! gate, input order preserved), then by sum-of-products decomposition
//! (each cube an AND chain of literals, cubes OR-ed, off-set covers
//! inverted). `.latch` becomes a [`GateKind::Dff`] clocked by the
//! latch's `re` control signal.
//!
//! The writer emits one canonical on-set cover per gate kind, so every
//! library gate survives a write → parse cycle as itself, and nodes are
//! created at first textual reference on both sides — the round-trip
//! identity the fixture tests pin down.

use std::collections::HashMap;

use lowvolt_circuit::logic::Bit;
use lowvolt_circuit::netlist::{GateKind, Netlist, NodeId};

use crate::{ImportedCircuit, IoError};

/// Maximum cover fanin the parser accepts. SOP decomposition is linear
/// in cubes × literals, but truth-table phase handling expands the
/// input plane, and real BLIF from synthesis rarely exceeds this.
const MAX_COVER_FANIN: usize = 24;

/// One logical (continuation-joined) line and where it started.
struct Line<'a> {
    line_no: usize,
    text: &'a str,
    joined: String,
    /// For a joined line: where each continuation line's text starts in
    /// `joined`, and that physical line's number.
    folds: Vec<(usize, usize)>,
}

impl Line<'_> {
    /// The effective text: the borrowed line, or the joined buffer when
    /// continuations were folded in.
    fn text(&self) -> &str {
        if self.joined.is_empty() {
            self.text
        } else {
            &self.joined
        }
    }

    /// Physical line and 1-based column where `token` first occurs in
    /// this line (the start of the line if it does not occur).
    fn position_of(&self, token: &str) -> (usize, usize) {
        let at = self.text().find(token).unwrap_or(0);
        let (line, start) = self
            .folds
            .iter()
            .rev()
            .find(|&&(start, _)| start <= at)
            .map_or((self.line_no, 0), |&(start, line)| (line, start));
        (line, at - start + 1)
    }

    /// A parse error anchored at `token`'s [`Line::position_of`].
    fn error(&self, token: &str, message: impl Into<String>) -> IoError {
        let (line, column) = self.position_of(token);
        IoError::parse(line, column, message)
    }
}

/// Strips a `#` comment, honouring nothing fancier (BLIF has no
/// strings).
fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(p) => &line[..p],
        None => line,
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

/// Folds `\` continuations into logical lines, one at a time, tracking
/// the physical line each began on and where each folded line starts.
fn logical_lines(text: &str) -> impl Iterator<Item = Line<'_>> {
    let mut physical = text.lines().enumerate();
    std::iter::from_fn(move || {
        let (i, raw) = physical.next()?;
        let (content, mut continues) = split_continuation(raw);
        if !continues {
            return Some(Line {
                line_no: i + 1,
                text: content,
                joined: String::new(),
                folds: Vec::new(),
            });
        }
        let mut line = Line {
            line_no: i + 1,
            text: "",
            joined: content.to_string(),
            folds: Vec::new(),
        };
        while continues {
            let Some((j, raw)) = physical.next() else {
                break;
            };
            let (content, more) = split_continuation(raw);
            line.joined.push(' ');
            line.folds.push((line.joined.len(), j + 1));
            line.joined.push_str(content);
            continues = more;
        }
        Some(line)
    })
}

/// Builder state shared by both parsers: a netlist, the name → node
/// map (nodes created at first reference — the round-trip ordering
/// contract), and the driven-signal set enforcing single drivers.
pub(crate) struct NetBuilder {
    pub netlist: Netlist,
    nodes: HashMap<String, NodeId>,
    driven: Vec<bool>,
    declared_input: Vec<bool>,
}

impl NetBuilder {
    pub(crate) fn new() -> NetBuilder {
        NetBuilder {
            netlist: Netlist::new(),
            nodes: HashMap::new(),
            driven: Vec::new(),
            declared_input: Vec::new(),
        }
    }

    /// The node for `name`, created as a plain node on first reference.
    pub(crate) fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.nodes.get(name) {
            return id;
        }
        let id = self.netlist.node(name);
        self.nodes.insert(name.to_string(), id);
        self.driven.push(false);
        self.declared_input.push(false);
        id
    }

    /// Declares `name` a primary input. Errors if it is already driven
    /// by a gate or already declared.
    pub(crate) fn input(&mut self, name: &str) -> Result<NodeId, String> {
        if let Some(&id) = self.nodes.get(name) {
            if self.declared_input[id.index()] {
                return Err(format!("`{name}` is declared an input twice"));
            }
            if self.driven[id.index()] {
                return Err(format!("`{name}` is both a gate output and an input"));
            }
            // The node exists but was only referenced; netlists cannot
            // retrofit the input flag, so forward references to a name
            // later declared `.inputs` are rejected for determinism.
            return Err(format!("`{name}` was used before its input declaration"));
        }
        let id = self.netlist.input(name);
        self.nodes.insert(name.to_string(), id);
        self.driven.push(false);
        self.declared_input.push(false);
        self.declared_input[id.index()] = true;
        Ok(id)
    }

    /// Marks `name`'s node as gate-driven, enforcing one driver and no
    /// drive fights with declared inputs. Returns the node.
    pub(crate) fn drive(&mut self, name: &str) -> Result<NodeId, String> {
        let id = self.node(name);
        if self.declared_input[id.index()] {
            return Err(format!("`{name}` is a declared input and cannot be driven"));
        }
        if self.driven[id.index()] {
            return Err(format!("`{name}` is driven twice"));
        }
        self.driven[id.index()] = true;
        Ok(id)
    }

    /// Adds an intermediate gate (auto-named output) during SOP or
    /// wide-fanin decomposition; the auto-generated name is registered
    /// so the written form re-parses to the identical structure.
    pub(crate) fn synth_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NodeId],
    ) -> Result<NodeId, String> {
        let out = self.netlist.gate(kind, inputs).map_err(|e| e.to_string())?;
        let name = self.netlist.node_name(out).to_string();
        if self.nodes.contains_key(&name) {
            return Err(format!(
                "auto-generated name `{name}` collides with an existing signal"
            ));
        }
        self.nodes.insert(name, out);
        self.driven.push(true);
        self.declared_input.push(false);
        Ok(out)
    }

    /// Whether any signal with this name exists yet.
    pub(crate) fn contains(&self, name: &str) -> bool {
        self.nodes.contains_key(name)
    }

    /// Signals that are referenced somewhere but never driven, never
    /// declared inputs: undriven wires the caller may want to report.
    pub(crate) fn undriven(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for (name, &id) in &self.nodes {
            if !self.driven[id.index()] && !self.declared_input[id.index()] {
                out.push(name.clone());
            }
        }
        out.sort();
        out
    }
}

/// A `.names` cover: input names, output name, and the cube rows.
struct Cover {
    line_no: usize,
    column: usize,
    inputs: Vec<String>,
    output: String,
    /// `(input plane, output bit)` rows; the plane uses `0`/`1`/`-`.
    rows: Vec<(String, char)>,
}

/// Library gates eligible for truth-table matching, grouped by arity.
/// Order is fixed: it decides which kind a matching cover becomes, and
/// the writer's canonical covers land on these same entries.
const MATCH_1: [GateKind; 2] = [GateKind::Buf, GateKind::Not];
const MATCH_2: [GateKind; 6] = [
    GateKind::And2,
    GateKind::Or2,
    GateKind::Nand2,
    GateKind::Nor2,
    GateKind::Xor2,
    GateKind::Xnor2,
];
const MATCH_3: [GateKind; 5] = [
    GateKind::And3,
    GateKind::Or3,
    GateKind::Nand3,
    GateKind::Nor3,
    GateKind::Mux2,
];

/// The truth table of a cover over `n ≤ 6` inputs as a bitmap indexed
/// by the input assignment (bit `i` of the index = input `i`).
fn cover_truth_table(n: usize, rows: &[(String, char)], phase: bool) -> u64 {
    let mut on = 0u64;
    for idx in 0..(1u64 << n) {
        let covered = rows.iter().any(|(plane, _)| {
            plane.chars().enumerate().all(|(i, c)| match c {
                '1' => idx >> i & 1 == 1,
                '0' => idx >> i & 1 == 0,
                _ => true,
            })
        });
        if covered {
            on |= 1 << idx;
        }
    }
    if phase {
        on
    } else {
        !on & ((1u64 << (1u64 << n)) - 1)
    }
}

/// The truth table of a library gate over its arity.
fn kind_truth_table(kind: GateKind) -> u64 {
    let n = kind.arity();
    let mut on = 0u64;
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
        if kind.evaluate(&bits) == Bit::One {
            on |= 1 << idx;
        }
    }
    on
}

/// Builds the gates for one cover: a single library gate when the truth
/// table matches, otherwise an SOP decomposition. `err` converts a
/// message into a positioned parse error.
fn build_cover(b: &mut NetBuilder, cover: &Cover) -> Result<(), IoError> {
    let err = |msg: String| IoError::parse(cover.line_no, cover.column, msg);
    let n = cover.inputs.len();
    if n == 0 {
        return Err(err(format!(
            "constant cover for `{}` is not supported: the gate library has \
             no constant driver (tie the signal to an input instead)",
            cover.output
        )));
    }
    if n > MAX_COVER_FANIN {
        return Err(err(format!(
            "cover fanin {n} exceeds the supported maximum {MAX_COVER_FANIN}"
        )));
    }
    if cover.rows.is_empty() {
        return Err(err(format!(
            "cover for `{}` has inputs but no cubes",
            cover.output
        )));
    }
    let phase = cover.rows[0].1 == '1';
    if cover.rows.iter().any(|&(_, out)| (out == '1') != phase) {
        return Err(err("cover mixes on-set and off-set rows".to_string()));
    }

    // Fast path: small covers that compute exactly a library function
    // become one gate, preserving the cover's input order.
    if n <= 3 {
        let tt = cover_truth_table(n, &cover.rows, phase);
        let candidates: &[GateKind] = match n {
            1 => &MATCH_1,
            2 => &MATCH_2,
            _ => &MATCH_3,
        };
        if let Some(&kind) = candidates.iter().find(|&&k| kind_truth_table(k) == tt) {
            let ins: Vec<NodeId> = cover.inputs.iter().map(|s| b.node(s)).collect();
            let out = b.drive(&cover.output).map_err(err)?;
            b.netlist
                .gate_into(kind, &ins, out)
                .map_err(|e| err(e.to_string()))?;
            return Ok(());
        }
    }

    // General path: SOP decomposition. Literals are resolved lazily so
    // node-creation order is the sub-gate reference order — the same
    // order a re-parse of the written form produces.
    let mut inverters: HashMap<usize, NodeId> = HashMap::new();
    let mut cube_nodes: Vec<NodeId> = Vec::with_capacity(cover.rows.len());
    for (plane, _) in &cover.rows {
        if plane.chars().all(|c| c == '-') {
            return Err(err(format!(
                "cube `{plane}` covers every assignment, making `{}` constant \
                 — constants are not supported",
                cover.output
            )));
        }
        let mut literals: Vec<NodeId> = Vec::new();
        for (i, c) in plane.chars().enumerate() {
            match c {
                '-' => {}
                '1' => literals.push(b.node(&cover.inputs[i])),
                '0' => {
                    let lit = match inverters.get(&i) {
                        Some(&inv) => inv,
                        None => {
                            let base = b.node(&cover.inputs[i]);
                            let inv = b.synth_gate(GateKind::Not, &[base]).map_err(err)?;
                            inverters.insert(i, inv);
                            inv
                        }
                    };
                    literals.push(lit);
                }
                other => {
                    return Err(err(format!("invalid cube character `{other}`")));
                }
            }
        }
        let cube = fold_chain(b, GateKind::And2, &literals).map_err(err)?;
        cube_nodes.push(cube);
    }
    // OR the cubes; invert for off-set covers; the last gate drives the
    // declared output node directly.
    let out = b.drive(&cover.output).map_err(err)?;
    let sum = if cube_nodes.len() == 1 {
        cube_nodes[0]
    } else {
        let partial =
            fold_chain(b, GateKind::Or2, &cube_nodes[..cube_nodes.len() - 1]).map_err(err)?;
        if phase {
            b.netlist
                .gate_into(
                    GateKind::Or2,
                    &[partial, cube_nodes[cube_nodes.len() - 1]],
                    out,
                )
                .map_err(|e| err(e.to_string()))?;
            return Ok(());
        }
        b.synth_gate(GateKind::Or2, &[partial, cube_nodes[cube_nodes.len() - 1]])
            .map_err(err)?
    };
    let final_kind = if phase { GateKind::Buf } else { GateKind::Not };
    b.netlist
        .gate_into(final_kind, &[sum], out)
        .map_err(|e| err(e.to_string()))?;
    Ok(())
}

/// Left-folds `nodes` into a chain of 2-input gates; a single node is
/// returned unchanged.
pub(crate) fn fold_chain(
    b: &mut NetBuilder,
    kind: GateKind,
    nodes: &[NodeId],
) -> Result<NodeId, String> {
    match nodes {
        [] => Err("cube has no literals".to_string()),
        [one] => Ok(*one),
        [first, rest @ ..] => {
            let mut acc = *first;
            for &next in rest {
                acc = b.synth_gate(kind, &[acc, next])?;
            }
            Ok(acc)
        }
    }
}

/// Parses BLIF text into an [`ImportedCircuit`].
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
pub fn parse_blif(fallback_name: &str, text: &str) -> Result<ImportedCircuit, IoError> {
    let mut name: Option<String> = None;
    let mut b = NetBuilder::new();
    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<String> = Vec::new();
    let mut clock_name: Option<String> = None;
    let mut pending_cover: Option<Cover> = None;
    let mut saw_end = false;

    let flush_cover = |b: &mut NetBuilder, pending: &mut Option<Cover>| match pending.take() {
        Some(cover) => build_cover(b, &cover),
        None => Ok(()),
    };

    let mut last_line = 1;
    for line in logical_lines(text) {
        last_line = line.line_no;
        let text = line.text().trim();
        if text.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let first = tokens[0];
        if saw_end && first.starts_with('.') {
            return Err(line.error(first, format!("`{first}` after .end (one model per file)")));
        }
        match first {
            ".model" => {
                flush_cover(&mut b, &mut pending_cover)?;
                if name.is_some() {
                    return Err(
                        line.error(first, "second .model — multi-model files are not supported")
                    );
                }
                name = Some(
                    tokens
                        .get(1)
                        .map_or_else(|| fallback_name.to_string(), ToString::to_string),
                );
            }
            ".inputs" => {
                flush_cover(&mut b, &mut pending_cover)?;
                for t in &tokens[1..] {
                    b.input(t).map_err(|m| line.error(t, m))?;
                    input_names.push((*t).to_string());
                }
            }
            ".outputs" => {
                flush_cover(&mut b, &mut pending_cover)?;
                for t in &tokens[1..] {
                    if output_names.iter().any(|o| o == t) {
                        return Err(line.error(t, format!("`{t}` is declared an output twice")));
                    }
                    b.node(t);
                    output_names.push((*t).to_string());
                }
            }
            ".names" => {
                flush_cover(&mut b, &mut pending_cover)?;
                if tokens.len() < 2 {
                    return Err(line.error(first, ".names needs at least an output signal"));
                }
                let output = tokens[tokens.len() - 1].to_string();
                let inputs = tokens[1..tokens.len() - 1]
                    .iter()
                    .map(ToString::to_string)
                    .collect();
                let (line_no, column) = line.position_of(first);
                pending_cover = Some(Cover {
                    line_no,
                    column,
                    inputs,
                    output,
                    rows: Vec::new(),
                });
            }
            ".latch" => {
                flush_cover(&mut b, &mut pending_cover)?;
                // .latch input output [type control] [init-val]
                let rest = &tokens[1..];
                if rest.len() < 2 {
                    return Err(line.error(first, ".latch needs an input and an output signal"));
                }
                let (d, q) = (rest[0].to_string(), rest[1].to_string());
                let control = match rest.len() {
                    2 | 3 => None, // optional trailing init only
                    4 | 5 => Some((rest[2], rest[3])),
                    _ => {
                        return Err(line.error(
                            first,
                            format!(".latch takes 2–5 fields, got {}", rest.len()),
                        ))
                    }
                };
                let clk = match control {
                    Some(("re", clk)) => clk.to_string(),
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
                match clock_name.as_deref() {
                    None => clock_name = Some(clk.clone()),
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
                let dn = b.node(&d);
                let cn = b.node(&clk);
                let qn = b.drive(&q).map_err(|m| line.error(first, m))?;
                b.netlist
                    .gate_into(GateKind::Dff, &[cn, dn], qn)
                    .map_err(|e| line.error(first, e.to_string()))?;
            }
            ".end" => {
                flush_cover(&mut b, &mut pending_cover)?;
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
                let Some(cover) = pending_cover.as_mut() else {
                    return Err(line.error(first, format!("`{first}` outside any .names cover")));
                };
                let (plane, out) = match tokens.as_slice() {
                    [plane, out] => ((*plane).to_string(), *out),
                    [single] if cover.inputs.is_empty() => (String::new(), *single),
                    _ => {
                        return Err(line.error(first, "cover rows are `<input-plane> <output-bit>`"))
                    }
                };
                if plane.len() != cover.inputs.len() {
                    return Err(line.error(
                        first,
                        format!(
                            "cube width {} does not match the {} cover input(s)",
                            plane.len(),
                            cover.inputs.len()
                        ),
                    ));
                }
                let out_bit = match out {
                    "1" => '1',
                    "0" => '0',
                    other => {
                        return Err(
                            line.error(out, format!("cover output must be 0 or 1, got `{other}`"))
                        )
                    }
                };
                if let Some(bad) = plane.chars().find(|c| !matches!(c, '0' | '1' | '-')) {
                    return Err(line.error(
                        first,
                        format!("invalid cube character `{bad}` (expected 0, 1, or -)"),
                    ));
                }
                cover.rows.push((plane, out_bit));
            }
        }
    }
    flush_cover(&mut b, &mut pending_cover)?;

    // Undriven signals (referenced but never defined and not inputs) are
    // parse errors: a partially connected netlist would lint as floating
    // anyway, and naming the wire here is far more useful.
    let undriven = b.undriven();
    if let Some(wire) = undriven.first() {
        return Err(IoError::parse(
            last_line,
            1,
            format!(
                "{} signal(s) referenced but never driven or declared as inputs \
                 (first: `{wire}`)",
                undriven.len()
            ),
        ));
    }

    let inputs: Vec<NodeId> = input_names
        .iter()
        .filter(|n| Some(n.as_str()) != clock_name.as_deref())
        .map(|n| b.node(n))
        .collect();
    let outputs: Vec<NodeId> = output_names.iter().map(|n| b.node(n)).collect();
    let clock = clock_name.as_deref().map(|n| b.node(n));
    Ok(ImportedCircuit {
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

/// Serialises an [`ImportedCircuit`] as structural BLIF.
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
pub fn write_blif(circuit: &ImportedCircuit) -> Result<String, IoError> {
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
            let clk = n.node_name(gate.inputs[0]);
            let d = n.node_name(gate.inputs[1]);
            let q = n.node_name(gate.output);
            for name in [clk, d, q] {
                check_name(name)?;
            }
            out.push_str(&format!(".latch {d} {q} re {clk} 3\n"));
        } else {
            out.push_str(".names");
            for &i in &gate.inputs {
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
