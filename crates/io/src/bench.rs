//! ISCAS-85/89 bench format import.
//!
//! The format is three statement shapes — `INPUT(g)`, `OUTPUT(g)`,
//! `g = GATE(a, b, ...)` — with `#` comments. Gate names are matched
//! case-insensitively: `AND`/`NAND`/`OR`/`NOR`/`XOR`/`XNOR` at any
//! fanin ≥ 2 (fanin above the library's 2/3-input gates is decomposed
//! into a chain of 2-input gates with the completing gate carrying the
//! inversion/parity), `NOT`/`BUF`/`BUFF` at fanin 1, and `DFF` (the
//! ISCAS-89 flip-flop) at fanin 1, clocked by an implicit global clock
//! primary input named `__clock__` created at the first `DFF`.

use lowvolt_circuit::netlist::{Circuit, GateKind, NodeId};

use crate::builder::{fold_chain, strip_comment, NetBuilder};
use crate::IoError;

/// The implicit global clock every ISCAS-89 `DFF` is tied to. The '89
/// benchmarks leave the clock out of the netlist entirely; the event
/// and compiled simulators need it explicit, so the parser adds one
/// primary input (kept out of the stimulus input list).
pub(crate) const IMPLICIT_CLOCK: &str = "__clock__";

/// The gate function an ISCAS statement names, before arity mapping.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Func {
    And,
    Or,
    Nand,
    Nor,
    Xor,
    Xnor,
    Not,
    Buf,
    Dff,
}

impl Func {
    fn from_name(name: &str) -> Option<Func> {
        const NAMES: [(&str, Func); 11] = [
            ("AND", Func::And),
            ("OR", Func::Or),
            ("NAND", Func::Nand),
            ("NOR", Func::Nor),
            ("XOR", Func::Xor),
            ("XNOR", Func::Xnor),
            ("NOT", Func::Not),
            ("INV", Func::Not),
            ("BUF", Func::Buf),
            ("BUFF", Func::Buf),
            ("DFF", Func::Dff),
        ];
        NAMES
            .iter()
            .find(|(known, _)| known.eq_ignore_ascii_case(name))
            .map(|&(_, func)| func)
    }

    /// The exact-fit library gate for this function at fanin `n`, if
    /// one exists.
    fn library_kind(self, n: usize) -> Option<GateKind> {
        match (self, n) {
            (Func::And, 2) => Some(GateKind::And2),
            (Func::And, 3) => Some(GateKind::And3),
            (Func::Or, 2) => Some(GateKind::Or2),
            (Func::Or, 3) => Some(GateKind::Or3),
            (Func::Nand, 2) => Some(GateKind::Nand2),
            (Func::Nand, 3) => Some(GateKind::Nand3),
            (Func::Nor, 2) => Some(GateKind::Nor2),
            (Func::Nor, 3) => Some(GateKind::Nor3),
            (Func::Xor, 2) => Some(GateKind::Xor2),
            (Func::Xnor, 2) => Some(GateKind::Xnor2),
            (Func::Not, 1) => Some(GateKind::Not),
            (Func::Buf, 1) => Some(GateKind::Buf),
            _ => None,
        }
    }

    /// For fanin above the library: the 2-input gate that folds the
    /// first `n-1` operands and the 2-input gate that completes the
    /// chain (carrying any inversion so only the final gate differs).
    fn chain_kinds(self) -> Option<(GateKind, GateKind)> {
        match self {
            Func::And => Some((GateKind::And2, GateKind::And2)),
            Func::Or => Some((GateKind::Or2, GateKind::Or2)),
            Func::Nand => Some((GateKind::And2, GateKind::Nand2)),
            Func::Nor => Some((GateKind::Or2, GateKind::Nor2)),
            Func::Xor => Some((GateKind::Xor2, GateKind::Xor2)),
            Func::Xnor => Some((GateKind::Xor2, GateKind::Xnor2)),
            _ => None,
        }
    }
}

/// Parses ISCAS-85/89 bench text into a [`Circuit`].
///
/// Statement order is free-form (names may be used before they are
/// defined within a file — c17 and friends define fanins first, but the
/// '89 sequential benches reference flip-flop outputs early); what must
/// hold at the end is that every referenced signal is an `INPUT` or
/// driven by exactly one gate.
///
/// # Errors
///
/// [`IoError::Parse`] anchored at the offending line and column.
pub fn parse_bench(fallback_name: &str, text: &str) -> Result<Circuit, IoError> {
    let mut b = NetBuilder::for_text(text.len());
    let mut inputs: Vec<NodeId> = Vec::new();
    let mut outputs: Vec<NodeId> = Vec::new();
    let mut has_dff = false;
    let mut last_line = 1;
    // Reused for every statement.
    let mut args: Vec<&str> = Vec::new();
    let mut operands: Vec<NodeId> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        last_line = line_no;
        let stmt = strip_comment(raw).trim();
        if stmt.is_empty() {
            continue;
        }
        let col = raw
            .find(stmt.chars().next().unwrap_or(' '))
            .map_or(1, |p| p + 1);
        let err = |msg: String| IoError::parse(line_no, col, msg);

        if let Some(rest) = strip_keyword(stmt, "INPUT") {
            let name = parse_parens(rest).ok_or_else(|| {
                err("INPUT takes one parenthesised signal: INPUT(name)".to_string())
            })?;
            if name == IMPLICIT_CLOCK {
                return Err(err(format!(
                    "`{IMPLICIT_CLOCK}` is reserved for the implicit DFF clock"
                )));
            }
            inputs.push(b.input(name).map_err(err)?);
            continue;
        }
        if let Some(rest) = strip_keyword(stmt, "OUTPUT") {
            let name = parse_parens(rest).ok_or_else(|| {
                err("OUTPUT takes one parenthesised signal: OUTPUT(name)".to_string())
            })?;
            outputs.push(b.output(name).map_err(err)?);
            continue;
        }

        // `target = GATE(a, b, ...)`
        let Some((target, call)) = stmt.split_once('=') else {
            return Err(err(format!(
                "expected INPUT(...), OUTPUT(...), or `name = GATE(...)`, got `{stmt}`"
            )));
        };
        let target = target.trim();
        if target.is_empty() {
            return Err(err("missing signal name before `=`".to_string()));
        }
        let call = call.trim();
        let Some((func_name, args_text)) = call
            .split_once('(')
            .and_then(|(f, rest)| rest.strip_suffix(')').map(|a| (f.trim(), a)))
        else {
            return Err(err(format!(
                "expected `GATE(args)` after `=`, got `{call}`"
            )));
        };
        let Some(func) = Func::from_name(func_name) else {
            return Err(err(format!(
                "unknown gate `{func_name}` (supported: AND OR NAND NOR XOR XNOR NOT BUF DFF)"
            )));
        };
        args.clear();
        args.extend(
            args_text
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty()),
        );
        if args_text.split(',').any(|a| a.trim().is_empty()) && !args_text.trim().is_empty() {
            return Err(err(format!("empty operand in `{func_name}({args_text})`")));
        }

        if func == Func::Dff {
            if args.len() != 1 {
                return Err(err(format!("DFF takes one data input, got {}", args.len())));
            }
            if !has_dff {
                has_dff = true;
                if b.contains(IMPLICIT_CLOCK) {
                    return Err(err(format!(
                        "`{IMPLICIT_CLOCK}` already exists; cannot add the implicit clock"
                    )));
                }
                b.input(IMPLICIT_CLOCK).map_err(err)?;
            }
            let d = b.node(args[0]);
            let clk = b.node(IMPLICIT_CLOCK);
            let q = b.drive(target).map_err(err)?;
            b.netlist
                .gate_into(GateKind::Dff, &[clk, d], q)
                .map_err(|e| err(e.to_string()))?;
            continue;
        }

        let min_arity = match func {
            Func::Not | Func::Buf => 1,
            _ => 2,
        };
        if args.len() < min_arity {
            return Err(err(format!(
                "{func_name} needs at least {min_arity} input(s), got {}",
                args.len()
            )));
        }
        if matches!(func, Func::Not | Func::Buf) && args.len() != 1 {
            return Err(err(format!(
                "{func_name} takes exactly one input, got {}",
                args.len()
            )));
        }

        operands.clear();
        operands.extend(args.iter().map(|a| b.node(a)));
        if let Some(kind) = func.library_kind(operands.len()) {
            let out = b.drive(target).map_err(err)?;
            b.netlist
                .gate_into(kind, &operands, out)
                .map_err(|e| err(e.to_string()))?;
        } else {
            let Some((fold_kind, final_kind)) = func.chain_kinds() else {
                return Err(err(format!(
                    "{func_name} at fanin {} is not supported",
                    operands.len()
                )));
            };
            let head =
                fold_chain(&mut b, fold_kind, &operands[..operands.len() - 1]).map_err(err)?;
            let out = b.drive(target).map_err(err)?;
            b.netlist
                .gate_into(final_kind, &[head, operands[operands.len() - 1]], out)
                .map_err(|e| err(e.to_string()))?;
        }
    }

    if let Some((count, wire)) = b.undriven() {
        return Err(IoError::parse(
            last_line,
            1,
            format!(
                "{count} signal(s) referenced but never driven or declared INPUT \
                 (first: `{wire}`)"
            ),
        ));
    }
    if outputs.is_empty() {
        return Err(IoError::parse(
            last_line,
            1,
            "no OUTPUT(...) declarations — the circuit is unobservable",
        ));
    }

    let clock = has_dff.then(|| b.node(IMPLICIT_CLOCK));
    Ok(Circuit {
        name: fallback_name.to_string(),
        netlist: b.netlist,
        inputs,
        outputs,
        clock,
    })
}

/// `strip_keyword("INPUT(x)", "INPUT")` → `Some("(x)")`, matching the
/// keyword case-insensitively and only when followed by `(` or
/// whitespace (so a signal named `INPUTx` still parses as a target).
fn strip_keyword<'a>(stmt: &'a str, keyword: &str) -> Option<&'a str> {
    // `get` rather than indexing: a multi-byte character straddling the
    // keyword's length is a mismatch, not a slicing panic.
    let head = stmt.get(..keyword.len())?;
    let rest = stmt.get(keyword.len()..)?;
    if !head.eq_ignore_ascii_case(keyword) {
        return None;
    }
    let next = rest.trim_start();
    next.starts_with('(').then_some(rest)
}

/// `parse_parens("( x )")` → `Some("x")`; rejects empty names.
fn parse_parens(rest: &str) -> Option<&str> {
    let inner = rest.trim().strip_prefix('(')?.strip_suffix(')')?.trim();
    (!inner.is_empty() && !inner.contains(|c: char| c.is_whitespace() || c == ',')).then_some(inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = "\
# trivial NAND network
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    #[test]
    fn parses_c17() {
        let c = parse_bench("c17", C17).unwrap();
        assert_eq!(c.inputs.len(), 5);
        assert_eq!(c.outputs.len(), 2);
        assert_eq!(c.netlist.gate_count(), 6);
        assert!(c.netlist.gates().iter().all(|g| g.kind == GateKind::Nand2));
        assert!(c.clock.is_none());
    }

    #[test]
    fn dff_gets_implicit_clock() {
        let text = "INPUT(d)\nOUTPUT(q)\nq = DFF(d)\n";
        let c = parse_bench("s1", text).unwrap();
        assert_eq!(c.netlist.gate_count(), 1);
        assert_eq!(c.netlist.gates()[0].kind, GateKind::Dff);
        let clk = c.clock.expect("sequential circuit has a clock");
        assert_eq!(c.netlist.node_name(clk), IMPLICIT_CLOCK);
        assert!(c.netlist.is_primary_input(clk));
        assert_eq!(c.inputs.len(), 1, "clock is not a stimulus input");
    }

    #[test]
    fn wide_fanin_decomposes() {
        let text = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = NAND(a, b, c, d)\n";
        let c = parse_bench("wide", text).unwrap();
        // And2(a,b), And2(·,c), Nand2(·,d)
        assert_eq!(c.netlist.gate_count(), 3);
        let kinds: Vec<GateKind> = c.netlist.gates().iter().map(|g| g.kind).collect();
        assert_eq!(kinds, [GateKind::And2, GateKind::And2, GateKind::Nand2]);
    }

    #[test]
    fn forward_references_allowed() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(t)\nt = BUF(a)\n";
        let c = parse_bench("fwd", text).unwrap();
        assert_eq!(c.netlist.gate_count(), 2);
    }

    #[test]
    fn unknown_gate_positioned() {
        let err = parse_bench("t", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n").unwrap_err();
        match err {
            IoError::Parse { line, message, .. } => {
                assert_eq!(line, 3);
                assert!(message.contains("FROB"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn undriven_signal_rejected() {
        let err = parse_bench("t", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n").unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn double_drive_rejected() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(b)\n";
        let err = parse_bench("t", text).unwrap_err();
        assert!(err.to_string().contains("driven twice"), "{err}");
    }

    #[test]
    fn duplicate_output_deep_in_a_long_list_keeps_its_position() {
        let mut text = String::from("INPUT(a)\n");
        for i in 0..4999 {
            text.push_str(&format!("OUTPUT(o{i})\n"));
        }
        text.push_str("  OUTPUT( o123 )\n");
        let err = parse_bench("t", &text).unwrap_err();
        assert_eq!(
            err,
            IoError::parse(5001, 3, "`o123` is declared an output twice")
        );
    }

    #[test]
    fn no_outputs_rejected() {
        let err = parse_bench("t", "INPUT(a)\n").unwrap_err();
        assert!(err.to_string().contains("OUTPUT"), "{err}");
    }
}
