#![warn(missing_docs)]

//! # lowvolt-io
//!
//! Netlist interchange for the lowvolt toolkit: streaming parsers for
//! **BLIF** (`.model`/`.inputs`/`.outputs`/`.names`/`.latch`, SOP covers
//! mapped onto the [`lowvolt_circuit`] gate library) and the
//! **ISCAS-85/89 bench** format (`INPUT`/`OUTPUT`/`= GATE(...)`, `DFF`),
//! a BLIF **writer** for round-tripping, and a **seeded deterministic
//! random-netlist generator** scaled to 10⁵–10⁶ gates.
//!
//! Every parser and the generator produce a [`Circuit`] — the one
//! netlist + stimulus contract type the fault-campaign, lint, STA, and
//! activity layers consume — and fail with a typed, line- and
//! column-anchored [`IoError`] instead of panicking or returning a
//! partially built netlist.
//!
//! Guarantees:
//!
//! - **Round-trip**: `parse(write(parse(text)))` is structurally
//!   identical to `parse(text)` (see [`circuits_equivalent`]); covers
//!   the writer emits are canonical, so every library gate survives a
//!   write → parse cycle as itself.
//! - **Generator soundness**: generated netlists are acyclic (with
//!   flip-flop edges cut), single-driver, free of dangling nets (every
//!   sink is a declared output), keep the clock out of the data
//!   network, and never route a register output back into a register
//!   data input — exactly the shape the compiled bit-parallel engine
//!   accepts.
//! - **Determinism**: the same [`GeneratorConfig`] (seed included)
//!   produces a byte-identical netlist, on any host.

mod bench;
mod blif;
mod builder;
mod generate;

pub use bench::parse_bench;
pub use blif::{parse_blif, write_blif};
pub use generate::{generate, GeneratorConfig};

use std::fmt;
use std::path::Path;

use lowvolt_circuit::netlist::{Circuit, Netlist, NodeId};

/// A supported interchange format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Berkeley Logic Interchange Format (`.blif`).
    Blif,
    /// ISCAS-85/89 bench format (`.bench`).
    Bench,
}

impl Format {
    /// Detects the format from a file extension.
    #[must_use]
    pub fn from_path(path: &Path) -> Option<Format> {
        match path.extension()?.to_str()? {
            "blif" => Some(Format::Blif),
            "bench" | "isc" => Some(Format::Bench),
            _ => None,
        }
    }

    /// The conventional lowercase name (`blif`, `bench`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Format::Blif => "blif",
            Format::Bench => "bench",
        }
    }
}

/// Why an import, export, or generation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// The input text violates the format. Carries the 1-based line and
    /// column of the offending token, so the message renders as
    /// `line:column: …`.
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// 1-based column of the offending token.
        column: usize,
        /// What went wrong, in format vocabulary.
        message: String,
    },
    /// The file could not be read or its format was not recognised.
    File {
        /// The path involved.
        path: String,
        /// The underlying reason.
        reason: String,
    },
    /// A netlist could not be serialised (e.g. a node name containing
    /// whitespace, which the line-oriented formats cannot quote).
    Unwritable {
        /// Why the netlist cannot be written.
        reason: String,
    },
    /// A [`GeneratorConfig`] field is outside its meaningful range.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// The constraint it violated.
        constraint: &'static str,
    },
}

impl IoError {
    /// Builds a parse error at a position.
    #[must_use]
    pub fn parse(line: usize, column: usize, message: impl Into<String>) -> IoError {
        IoError::Parse {
            line,
            column,
            message: message.into(),
        }
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Parse {
                line,
                column,
                message,
            } => write!(f, "{line}:{column}: {message}"),
            IoError::File { path, reason } => write!(f, "{path}: {reason}"),
            IoError::Unwritable { reason } => write!(f, "cannot write netlist: {reason}"),
            IoError::InvalidConfig { field, constraint } => {
                write!(f, "generator config: {field} {constraint}")
            }
        }
    }
}

impl std::error::Error for IoError {}

/// Reads and parses a netlist file, detecting the format from the
/// extension (`.blif` → BLIF, `.bench`/`.isc` → ISCAS bench).
///
/// # Errors
///
/// [`IoError::File`] if the file cannot be read or the extension is not
/// a supported format; [`IoError::Parse`] (line/column-anchored) if the
/// contents are malformed.
pub fn parse_path(path: &Path) -> Result<Circuit, IoError> {
    parse_path_counted(path).map(|(circuit, _)| circuit)
}

/// [`parse_path`], also returning the byte length of the text it parsed.
///
/// # Errors
///
/// As [`parse_path`].
pub fn parse_path_counted(path: &Path) -> Result<(Circuit, usize), IoError> {
    let format = Format::from_path(path).ok_or_else(|| IoError::File {
        path: path.display().to_string(),
        reason: "unrecognised extension (supported: .blif, .bench)".to_string(),
    })?;
    let text = std::fs::read_to_string(path).map_err(|e| IoError::File {
        path: path.display().to_string(),
        reason: e.to_string(),
    })?;
    let fallback_name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("imported")
        .to_string();
    Ok((parse_str(format, &fallback_name, &text)?, text.len()))
}

/// Parses netlist text in an explicit format. `fallback_name` names the
/// circuit when the text itself does not (bench files, BLIF without a
/// `.model` name).
///
/// # Errors
///
/// [`IoError::Parse`] with the offending line and column.
pub fn parse_str(format: Format, fallback_name: &str, text: &str) -> Result<Circuit, IoError> {
    match format {
        Format::Blif => parse_blif(fallback_name, text),
        Format::Bench => parse_bench(fallback_name, text),
    }
}

/// Structural equivalence of two imported circuits, up to node
/// renumbering: node names are the matching key, and the check covers
/// node count, per-name input flags, the full gate list (kind, delay,
/// input/output names, in gate order), the primary-input name sequence,
/// the declared-output name sequence, and the clock.
///
/// This is the round-trip contract: parsers create nodes at first
/// textual reference, so `parse(write(c))` reproduces `c` exactly under
/// this equivalence (and usually with identical node ids too).
///
/// # Errors
///
/// Returns a human-readable description of the first mismatch.
pub fn circuits_equivalent(a: &Circuit, b: &Circuit) -> Result<(), String> {
    let (na, nb) = (&a.netlist, &b.netlist);
    if na.node_count() != nb.node_count() {
        return Err(format!(
            "node counts differ: {} vs {}",
            na.node_count(),
            nb.node_count()
        ));
    }
    if na.gate_count() != nb.gate_count() {
        return Err(format!(
            "gate counts differ: {} vs {}",
            na.gate_count(),
            nb.gate_count()
        ));
    }
    // Name → id maps; names must be unique for the mapping to be a
    // bijection (our parsers and generator guarantee this).
    let names_of = |n: &Netlist| -> Result<std::collections::HashMap<String, NodeId>, String> {
        let mut m = std::collections::HashMap::with_capacity(n.node_count());
        for id in n.node_ids() {
            if m.insert(n.node_name(id).to_string(), id).is_some() {
                return Err(format!("duplicate node name `{}`", n.node_name(id)));
            }
        }
        Ok(m)
    };
    let map_b = names_of(nb)?;
    names_of(na)?;
    for id in na.node_ids() {
        let name = na.node_name(id);
        let Some(&other) = map_b.get(name) else {
            return Err(format!("node `{name}` missing from the second netlist"));
        };
        if na.is_primary_input(id) != nb.is_primary_input(other) {
            return Err(format!("node `{name}`: primary-input flags differ"));
        }
    }
    for (i, (ga, gb)) in na.gates().iter().zip(nb.gates()).enumerate() {
        if ga.kind != gb.kind {
            return Err(format!(
                "gate {i}: kinds differ ({} vs {})",
                ga.kind.name(),
                gb.kind.name()
            ));
        }
        if ga.delay != gb.delay {
            return Err(format!("gate {i}: delays differ"));
        }
        if na.node_name(ga.output) != nb.node_name(gb.output) {
            return Err(format!(
                "gate {i}: outputs differ (`{}` vs `{}`)",
                na.node_name(ga.output),
                nb.node_name(gb.output)
            ));
        }
        for (j, (&ia, &ib)) in ga.inputs().iter().zip(gb.inputs()).enumerate() {
            if na.node_name(ia) != nb.node_name(ib) {
                return Err(format!(
                    "gate {i} input {j}: `{}` vs `{}`",
                    na.node_name(ia),
                    nb.node_name(ib)
                ));
            }
        }
    }
    let name_seq = |n: &Netlist, ids: &[NodeId]| -> Vec<String> {
        ids.iter().map(|&i| n.node_name(i).to_string()).collect()
    };
    if name_seq(na, na.primary_inputs()) != name_seq(nb, nb.primary_inputs()) {
        return Err("primary-input orders differ".to_string());
    }
    if name_seq(na, &a.inputs) != name_seq(nb, &b.inputs) {
        return Err("stimulus input lists differ".to_string());
    }
    if name_seq(na, &a.outputs) != name_seq(nb, &b.outputs) {
        return Err("declared output lists differ".to_string());
    }
    match (a.clock, b.clock) {
        (None, None) => {}
        (Some(ca), Some(cb)) if na.node_name(ca) == nb.node_name(cb) => {}
        _ => return Err("clocks differ".to_string()),
    }
    Ok(())
}
