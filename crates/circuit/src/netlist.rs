//! Gate-level netlist representation.
//!
//! A [`Netlist`] owns a set of named nodes and gates. Every node carries a
//! lumped capacitance that is accumulated structurally as gates are
//! attached: each gate input adds MOS gate capacitance to the node driving
//! it, and each gate output contributes drain junction plus local wiring
//! capacitance. These per-node capacitances are what turn transition
//! counts into switched capacitance (the paper's `α·C_L` product).

use std::fmt::Write as _;
use std::sync::OnceLock;

use crate::error::CircuitError;
use crate::logic::Bit;
use crate::sim::Fnv1a;
use lowvolt_device::units::Farads;

/// Identifier of a node (wire) within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a node id from a raw index. The id is not validated here;
    /// netlist and simulator entry points reject foreign ids with
    /// [`CircuitError::UnknownNode`], which makes this constructor safe
    /// to use for fault-injection and robustness harnesses.
    #[must_use]
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index)
    }
}

/// Identifier of a gate within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateId(pub(crate) usize);

impl GateId {
    /// The raw index of this gate.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a gate id from a raw index. As with
    /// [`NodeId::from_index`], the id is not validated here; netlist
    /// entry points reject foreign ids with
    /// [`CircuitError::UnknownGate`], and tolerant consumers (power
    /// intent, lint) treat out-of-range ids as no-ops or diagnostics.
    #[must_use]
    pub fn from_index(index: usize) -> GateId {
        GateId(index)
    }
}

/// The logic function a gate computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Non-inverting buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 2-input OR.
    Or2,
    /// 3-input OR.
    Or3,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer; inputs are `[sel, a, b]`, output `a` when
    /// `sel = 0`, `b` when `sel = 1`.
    Mux2,
    /// Positive-edge-triggered D flip-flop; inputs are `[clk, d]`.
    Dff,
}

impl GateKind {
    /// Number of inputs this gate kind requires.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            GateKind::Buf | GateKind::Not => 1,
            GateKind::And2
            | GateKind::Or2
            | GateKind::Nand2
            | GateKind::Nor2
            | GateKind::Xor2
            | GateKind::Xnor2
            | GateKind::Dff => 2,
            GateKind::And3 | GateKind::Or3 | GateKind::Nand3 | GateKind::Nor3 | GateKind::Mux2 => 3,
        }
    }

    /// Short lowercase name, used in diagnostics and auto-generated node
    /// names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And2 => "and2",
            GateKind::And3 => "and3",
            GateKind::Or2 => "or2",
            GateKind::Or3 => "or3",
            GateKind::Nand2 => "nand2",
            GateKind::Nand3 => "nand3",
            GateKind::Nor2 => "nor2",
            GateKind::Nor3 => "nor3",
            GateKind::Xor2 => "xor2",
            GateKind::Xnor2 => "xnor2",
            GateKind::Mux2 => "mux2",
            GateKind::Dff => "dff",
        }
    }

    /// Number of transistor gates each input of this cell drives — the
    /// structural input-loading weight used for capacitance accumulation.
    #[must_use]
    pub fn input_load_units(self, input_index: usize) -> f64 {
        match self {
            GateKind::Buf | GateKind::Not => 2.0,
            GateKind::And2 | GateKind::Or2 | GateKind::Nand2 | GateKind::Nor2 => 2.0,
            GateKind::And3 | GateKind::Or3 | GateKind::Nand3 | GateKind::Nor3 => 2.0,
            // Static CMOS XOR/XNOR present both true and complement loads.
            GateKind::Xor2 | GateKind::Xnor2 => 4.0,
            // Mux select drives the pass network plus its local inverter.
            GateKind::Mux2 => {
                if input_index == 0 {
                    4.0
                } else {
                    2.0
                }
            }
            // Flip-flop clock pin loads several clocked transistor pairs.
            GateKind::Dff => {
                if input_index == 0 {
                    4.0
                } else {
                    3.0
                }
            }
        }
    }

    /// Evaluates the combinational function over three-valued inputs.
    ///
    /// For [`GateKind::Dff`] this returns [`Bit::X`]; the simulator handles
    /// flip-flop state separately. A slice whose length does not match
    /// [`GateKind::arity`] evaluates to [`Bit::X`] — the netlist builder
    /// enforces arity, so simulation never takes that path.
    #[must_use]
    pub fn evaluate(self, inputs: &[Bit]) -> Bit {
        if inputs.len() != self.arity() {
            return Bit::X;
        }
        match self {
            GateKind::Buf => inputs[0],
            GateKind::Not => inputs[0].not(),
            GateKind::And2 => inputs[0].and(inputs[1]),
            GateKind::And3 => inputs[0].and(inputs[1]).and(inputs[2]),
            GateKind::Or2 => inputs[0].or(inputs[1]),
            GateKind::Or3 => inputs[0].or(inputs[1]).or(inputs[2]),
            GateKind::Nand2 => inputs[0].and(inputs[1]).not(),
            GateKind::Nand3 => inputs[0].and(inputs[1]).and(inputs[2]).not(),
            GateKind::Nor2 => inputs[0].or(inputs[1]).not(),
            GateKind::Nor3 => inputs[0].or(inputs[1]).or(inputs[2]).not(),
            GateKind::Xor2 => inputs[0].xor(inputs[1]),
            GateKind::Xnor2 => inputs[0].xor(inputs[1]).not(),
            GateKind::Mux2 => match inputs[0] {
                Bit::Zero => inputs[1],
                Bit::One => inputs[2],
                Bit::X => {
                    // If both data inputs agree, the select doesn't matter.
                    if inputs[1] == inputs[2] {
                        inputs[1]
                    } else {
                        Bit::X
                    }
                }
            },
            GateKind::Dff => Bit::X,
        }
    }
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// The logic function.
    pub kind: GateKind,
    /// Input pins held inline: the first `kind.arity()` are the inputs,
    /// the rest are `NodeId(0)`, so derived equality sees only inputs.
    pins: [NodeId; 3],
    /// Output node.
    pub output: NodeId,
    /// Propagation delay in simulator ticks (≥ 1).
    pub delay: u32,
}

impl Gate {
    /// Input nodes, in [`GateKind`]-defined order; the length is
    /// `kind.arity()`.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.pins[..self.kind.arity()]
    }
}

/// Every node name of a netlist in one string arena: name `i` is
/// `text[ends[i - 1]..ends[i]]`. Two allocations for any node count,
/// where a `String` per node would make one each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeNames {
    text: String,
    /// Exclusive end offset of each name in `text`. Offsets are `u32`,
    /// like the fanout index's offsets, so the names of one netlist may
    /// total at most 4 GiB.
    ends: Vec<u32>,
}

impl NodeNames {
    /// An empty arena with room for `names` names of `bytes` total
    /// length.
    fn with_capacity(names: usize, bytes: usize) -> NodeNames {
        NodeNames {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(names),
        }
    }

    /// Number of names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the arena holds no name.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Name `index` (empty for an index past the end).
    #[must_use]
    pub fn get(&self, index: usize) -> &str {
        let Some(&end) = self.ends.get(index) else {
            return "";
        };
        let start = match index {
            0 => 0,
            i => self.ends[i - 1],
        };
        self.text.get(start as usize..end as usize).unwrap_or("")
    }

    /// Appends a name.
    pub fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.close();
    }

    /// Appends the name `{prefix}_{n}`, written in place.
    fn push_numbered(&mut self, prefix: &str, n: usize) {
        // Writing to a `String` cannot fail.
        let _ = write!(self.text, "{prefix}_{n}");
        self.close();
    }

    /// Ends the name the text was last extended with.
    fn close(&mut self) {
        self.ends.push(self.text.len() as u32);
    }
}

/// A node's electrical data; its name lives in the netlist's
/// [`NodeNames`] arena at the same index.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    cap_ff: f64,
    is_input: bool,
}

/// Gate capacitance of one transistor-gate load unit, fF (a ~1 µm-wide
/// device at 0.44 µm length on 9 nm oxide).
pub const UNIT_GATE_CAP_FF: f64 = 1.7;

/// Drain-junction capacitance contributed by a cell's output stage, fF.
pub const DRAIN_JUNCTION_CAP_FF: f64 = 2.4;

/// Local interconnect capacitance per node, fF.
pub const WIRE_CAP_FF: f64 = 1.6;

/// Flat compressed-sparse-row fanout adjacency: gate ids of every node's
/// fanout stored contiguously, indexed by a per-node offset table. One
/// slice lookup per driven node in the simulator's inner loop, with all
/// fanout lists packed into two cache-friendly arrays instead of one
/// heap-allocated `Vec` per node.
#[derive(Debug, Default)]
pub(crate) struct FanoutIndex {
    /// `offsets[n]..offsets[n + 1]` bounds node `n`'s slice of `gates`.
    offsets: Vec<u32>,
    /// All fanout gate ids, grouped by driving node, insertion order
    /// preserved within each group.
    gates: Vec<GateId>,
}

impl FanoutIndex {
    /// Builds the CSR layout from the gates' input pins with a stable
    /// counting sort, so each node's fanout keeps gate-insertion order
    /// (a gate reading a node on two pins appears twice).
    fn build(node_count: usize, gate_list: &[Gate]) -> FanoutIndex {
        let pins = || {
            gate_list
                .iter()
                .enumerate()
                .flat_map(|(g, gate)| gate.inputs().iter().map(move |n| (n.0, g)))
        };
        let mut offsets = vec![0u32; node_count + 1];
        for (node, _) in pins() {
            offsets[node + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets.clone();
        let mut gates = vec![GateId(0); offsets[node_count] as usize];
        for (node, gate) in pins() {
            let slot = cursor[node];
            gates[slot as usize] = GateId(gate);
            cursor[node] = slot + 1;
        }
        FanoutIndex { offsets, gates }
    }

    /// The fanout slice of one node (empty for a foreign index).
    pub(crate) fn fanout(&self, node: usize) -> &[GateId] {
        match (self.offsets.get(node), self.offsets.get(node + 1)) {
            (Some(&start), Some(&end)) => &self.gates[start as usize..end as usize],
            _ => &[],
        }
    }
}

/// A gate-level netlist.
#[derive(Debug, Default)]
pub struct Netlist {
    nodes: Vec<Node>,
    /// Node names, indexed like `nodes`.
    names: NodeNames,
    gates: Vec<Gate>,
    /// Lazily built CSR fanout, invalidated by any structural mutation.
    /// `OnceLock` keeps the netlist shareable across campaign worker
    /// threads (`&Netlist` is `Sync`).
    fanout_index: OnceLock<FanoutIndex>,
    inputs: Vec<NodeId>,
}

impl Clone for Netlist {
    fn clone(&self) -> Netlist {
        Netlist {
            nodes: self.nodes.clone(),
            names: self.names.clone(),
            gates: self.gates.clone(),
            // The clone rebuilds its CSR on first use.
            fanout_index: OnceLock::new(),
            inputs: self.inputs.clone(),
        }
    }
}

/// Equal when built identically: the same nodes (name, capacitance,
/// input flag), gates and inputs in the same order. The fanout index is
/// derived from the gate list and is not compared.
impl PartialEq for Netlist {
    fn eq(&self, other: &Netlist) -> bool {
        self.nodes == other.nodes
            && self.names == other.names
            && self.gates == other.gates
            && self.inputs == other.inputs
    }
}

/// A gate-level design plus its stimulus contract: the one circuit type
/// that the parsers, the generator, fault campaigns, lint, STA and
/// activity extraction all work from.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    /// Name (e.g. `adder8`, a `.model` name, a file stem, or a
    /// generator tag).
    pub name: String,
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Stimulus-driven inputs, in stimulus column order (excluding the
    /// clock).
    pub inputs: Vec<NodeId>,
    /// Observable outputs, in declaration order.
    pub outputs: Vec<NodeId>,
    /// Clock for sequential circuits: driven low before and high after
    /// each data vector.
    pub clock: Option<NodeId>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new() -> Netlist {
        Netlist::default()
    }

    /// An empty netlist with room for `nodes` nodes whose names total
    /// `name_bytes` and `gates` gates, so a parser that can estimate its
    /// output builds without regrowing.
    #[must_use]
    pub fn with_capacity(nodes: usize, name_bytes: usize, gates: usize) -> Netlist {
        Netlist {
            nodes: Vec::with_capacity(nodes),
            names: NodeNames::with_capacity(nodes, name_bytes),
            gates: Vec::with_capacity(gates),
            ..Netlist::default()
        }
    }

    /// Adds a named internal node and returns its id.
    pub fn node(&mut self, name: impl AsRef<str>) -> NodeId {
        self.names.push(name.as_ref());
        self.push_node()
    }

    /// Adds the node whose name was just appended to the arena.
    fn push_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            cap_ff: WIRE_CAP_FF,
            is_input: false,
        });
        self.fanout_index.take();
        id
    }

    /// Adds a primary-input node and returns its id.
    pub fn input(&mut self, name: impl AsRef<str>) -> NodeId {
        let id = self.node(name);
        self.nodes[id.0].is_input = true;
        self.inputs.push(id);
        id
    }

    /// Adds a gate of `kind` whose output drives the existing node
    /// `output`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ArityMismatch`] if the input count is wrong
    /// for the kind, or [`CircuitError::UnknownNode`] if any node id is
    /// foreign.
    pub fn gate_into(
        &mut self,
        kind: GateKind,
        inputs: &[NodeId],
        output: NodeId,
    ) -> Result<GateId, CircuitError> {
        if inputs.len() != kind.arity() {
            return Err(CircuitError::ArityMismatch {
                kind: kind.name(),
                expected: kind.arity(),
                got: inputs.len(),
            });
        }
        for &n in inputs.iter().chain(std::iter::once(&output)) {
            if n.0 >= self.nodes.len() {
                return Err(CircuitError::UnknownNode(n.0));
            }
        }
        let id = GateId(self.gates.len());
        for (i, &n) in inputs.iter().enumerate() {
            self.nodes[n.0].cap_ff += kind.input_load_units(i) * UNIT_GATE_CAP_FF;
        }
        self.fanout_index.take();
        self.nodes[output.0].cap_ff += DRAIN_JUNCTION_CAP_FF;
        let mut pins = [NodeId(0); 3];
        pins[..inputs.len()].copy_from_slice(inputs);
        self.gates.push(Gate {
            kind,
            pins,
            output,
            delay: 1,
        });
        Ok(id)
    }

    /// Adds a gate of `kind`, creating a fresh auto-named output node.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ArityMismatch`] if the input count is wrong
    /// for the kind, or [`CircuitError::UnknownNode`] if any input id is
    /// foreign. No output node is created on failure.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NodeId]) -> Result<NodeId, CircuitError> {
        if inputs.len() != kind.arity() {
            return Err(CircuitError::ArityMismatch {
                kind: kind.name(),
                expected: kind.arity(),
                got: inputs.len(),
            });
        }
        for &n in inputs {
            if n.0 >= self.nodes.len() {
                return Err(CircuitError::UnknownNode(n.0));
            }
        }
        self.names.push_numbered(kind.name(), self.gates.len());
        let out = self.push_node();
        self.gate_into(kind, inputs, out)?;
        Ok(out)
    }

    /// Sets the propagation delay (in ticks) of a gate.
    ///
    /// CSR-cache note: this mutator deliberately does **not** clear
    /// `fanout_index` — delay changes touch no node or edge, and the
    /// fanout CSR encodes only node→gate adjacency. Every mutator that
    /// *does* change adjacency (`node`, `input` via `node`, `gate_into`,
    /// `gate` via both) resets the `OnceLock`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] if `delay` is zero
    /// (zero-delay loops would hang the simulator) or
    /// [`CircuitError::UnknownGate`] if the gate id is foreign.
    pub fn set_delay(&mut self, gate: GateId, delay: u32) -> Result<(), CircuitError> {
        if delay == 0 {
            return Err(CircuitError::InvalidParameter {
                name: "delay",
                value: 0.0,
                constraint: "gate delay must be at least one tick",
            });
        }
        match self.gates.get_mut(gate.0) {
            Some(g) => {
                g.delay = delay;
                Ok(())
            }
            None => Err(CircuitError::UnknownGate(gate.0)),
        }
    }

    /// Adds extra (wire) capacitance to a node, in farads.
    ///
    /// CSR-cache note: like [`Netlist::set_delay`], this changes no
    /// adjacency, so the cached fanout index stays valid and is not
    /// cleared.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if the node id is foreign, or
    /// [`CircuitError::InvalidParameter`] if `extra` is negative or not
    /// finite.
    pub fn add_capacitance(&mut self, node: NodeId, extra: Farads) -> Result<(), CircuitError> {
        if !extra.0.is_finite() || extra.0 < 0.0 {
            return Err(CircuitError::InvalidParameter {
                name: "extra_capacitance",
                value: extra.0,
                constraint: "must be finite and non-negative",
            });
        }
        match self.nodes.get_mut(node.0) {
            Some(n) => {
                n.cap_ff += extra.0 * 1e15;
                Ok(())
            }
            None => Err(CircuitError::UnknownNode(node.0)),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The gates, indexable by [`GateId`].
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Primary-input nodes in creation order.
    #[must_use]
    pub fn primary_inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Gates driven by (having an input on) `node`. A foreign node id has
    /// an empty fanout.
    ///
    /// Served from a flat CSR fanout index, built on first query after
    /// the last structural mutation.
    #[must_use]
    pub fn fanout(&self, node: NodeId) -> &[GateId] {
        self.fanout_index().fanout(node.0)
    }

    /// The CSR fanout index, building it if a mutation invalidated it.
    /// The simulator grabs this once at construction so its inner loop
    /// pays no lazy-init check.
    pub(crate) fn fanout_index(&self) -> &FanoutIndex {
        self.fanout_index
            .get_or_init(|| FanoutIndex::build(self.nodes.len(), &self.gates))
    }

    /// Lumped capacitance of a node (zero for a foreign node id).
    #[must_use]
    pub fn node_capacitance(&self, node: NodeId) -> Farads {
        Farads::from_femtofarads(self.nodes.get(node.0).map_or(0.0, |n| n.cap_ff))
    }

    /// Name of a node (empty for a foreign node id).
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> &str {
        self.names.get(node.0)
    }

    /// All node names, indexed like the nodes.
    #[must_use]
    pub fn node_names(&self) -> &NodeNames {
        &self.names
    }

    /// Whether a node is a primary input (false for a foreign node id).
    #[must_use]
    pub fn is_primary_input(&self, node: NodeId) -> bool {
        self.nodes.get(node.0).is_some_and(|n| n.is_input)
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Total capacitance over all nodes (a size metric for reports).
    #[must_use]
    pub fn total_capacitance(&self) -> Farads {
        Farads::from_femtofarads(self.nodes.iter().map(|n| n.cap_ff).sum())
    }

    /// FNV-1a hash of the netlist's *logical* structure: node count,
    /// input flags, and every gate's kind, connectivity, and delay.
    /// Node names and capacitances are deliberately excluded — two
    /// netlists with equal structural hashes produce identical
    /// simulation traces for identical stimulus, which is exactly the
    /// property the golden-trace cache keys on.
    #[must_use]
    pub fn structural_hash(&self) -> u64 {
        // The standard offset basis: the value `lowvolt_exec::fnv64` gives
        // for the same bytes, hashed as they are visited.
        let mut h = Fnv1a::new(0xcbf2_9ce4_8422_2325);
        h.write_u64(self.nodes.len() as u64);
        for n in &self.nodes {
            h.write_u8(u8::from(n.is_input));
        }
        h.write_u64(self.gates.len() as u64);
        for g in &self.gates {
            h.write_bytes(g.kind.name().as_bytes());
            h.write_u8(0xFF);
            h.write_bytes(&g.delay.to_le_bytes());
            h.write_u64(g.output.0 as u64);
            for i in g.inputs() {
                h.write_u64(i.0 as u64);
            }
        }
        for i in &self.inputs {
            h.write_u64(i.0 as u64);
        }
        h.finish()
    }

    /// Gate-kind census: `(kind, count)` pairs for every kind present,
    /// most frequent first — the composition summary synthesis reports
    /// print.
    #[must_use]
    pub fn gate_census(&self) -> Vec<(GateKind, usize)> {
        let mut counts: std::collections::HashMap<GateKind, usize> =
            std::collections::HashMap::new();
        for g in &self.gates {
            *counts.entry(g.kind).or_insert(0) += 1;
        }
        let mut v: Vec<(GateKind, usize)> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.name().cmp(b.0.name())));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arities() {
        assert_eq!(GateKind::Not.arity(), 1);
        assert_eq!(GateKind::Nand2.arity(), 2);
        assert_eq!(GateKind::Mux2.arity(), 3);
        assert_eq!(GateKind::Dff.arity(), 2);
    }

    #[test]
    fn evaluate_basic_gates() {
        use Bit::{One, Zero};
        assert_eq!(GateKind::Nand2.evaluate(&[One, One]), Zero);
        assert_eq!(GateKind::Nand2.evaluate(&[One, Zero]), One);
        assert_eq!(GateKind::Nor3.evaluate(&[Zero, Zero, Zero]), One);
        assert_eq!(GateKind::Xor2.evaluate(&[One, Zero]), One);
        assert_eq!(GateKind::Xnor2.evaluate(&[One, One]), One);
        assert_eq!(GateKind::And3.evaluate(&[One, One, One]), One);
        assert_eq!(GateKind::Or3.evaluate(&[Zero, Zero, One]), One);
        assert_eq!(GateKind::Buf.evaluate(&[Zero]), Zero);
    }

    #[test]
    fn mux_select_semantics() {
        use Bit::{One, Zero, X};
        // inputs: [sel, a, b]
        assert_eq!(GateKind::Mux2.evaluate(&[Zero, One, Zero]), One);
        assert_eq!(GateKind::Mux2.evaluate(&[One, One, Zero]), Zero);
        // Unknown select, but agreeing data: known output.
        assert_eq!(GateKind::Mux2.evaluate(&[X, One, One]), One);
        assert_eq!(GateKind::Mux2.evaluate(&[X, One, Zero]), X);
    }

    #[test]
    fn build_accumulates_capacitance() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let base = n.node_capacitance(a).to_femtofarads();
        let _y = n.gate(GateKind::Not, &[a]).unwrap();
        let loaded = n.node_capacitance(a).to_femtofarads();
        assert!((loaded - base - 2.0 * UNIT_GATE_CAP_FF).abs() < 1e-9);
    }

    #[test]
    fn fanout_tracks_gates() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let y1 = n.gate(GateKind::Not, &[a]).unwrap();
        let _y2 = n.gate(GateKind::Not, &[a]).unwrap();
        assert_eq!(n.fanout(a).len(), 2);
        assert_eq!(n.fanout(y1).len(), 0);
        assert_eq!(n.gate_count(), 2);
    }

    #[test]
    fn gate_into_validates() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let out = n.node("out");
        assert_eq!(
            n.gate_into(GateKind::Nand2, &[a], out),
            Err(CircuitError::ArityMismatch {
                kind: "nand2",
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            n.gate_into(GateKind::Not, &[NodeId(99)], out),
            Err(CircuitError::UnknownNode(99))
        );
        assert!(n.gate_into(GateKind::Nand2, &[a, a], out).is_ok());
    }

    #[test]
    fn primary_inputs_recorded() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let _g = n.gate(GateKind::And2, &[a, b]).unwrap();
        assert_eq!(n.primary_inputs(), &[a, b]);
        assert!(n.is_primary_input(a));
        assert!(!n.is_primary_input(NodeId(2)));
    }

    #[test]
    fn gate_census_counts_by_kind() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.gate(GateKind::Xor2, &[a, b]).unwrap();
        let _ = n.gate(GateKind::Xor2, &[x, a]).unwrap();
        let _ = n.gate(GateKind::And2, &[a, b]).unwrap();
        let census = n.gate_census();
        assert_eq!(census[0], (GateKind::Xor2, 2));
        assert_eq!(census[1], (GateKind::And2, 1));
    }

    #[test]
    fn zero_delay_rejected() {
        let mut n = Netlist::new();
        let a = n.input("a");
        n.gate(GateKind::Not, &[a]).unwrap();
        assert!(matches!(
            n.set_delay(GateId(0), 0),
            Err(CircuitError::InvalidParameter { name: "delay", .. })
        ));
        assert_eq!(n.set_delay(GateId(9), 2), Err(CircuitError::UnknownGate(9)));
        assert!(n.set_delay(GateId(0), 3).is_ok());
    }

    #[test]
    fn fallible_gate_creates_no_orphan_node() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let before = n.node_count();
        assert!(n.gate(GateKind::Nand2, &[a]).is_err());
        assert_eq!(n.node_count(), before, "failed gate() must not leak a node");
    }

    #[test]
    fn fanout_csr_invalidated_by_mutation() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let _y1 = n.gate(GateKind::Not, &[a]).unwrap();
        // Force the CSR index to build, then mutate the structure.
        assert_eq!(n.fanout(a).len(), 1);
        let _y2 = n.gate(GateKind::Not, &[a]).unwrap();
        assert_eq!(n.fanout(a).len(), 2, "stale CSR index after gate()");
        // Clones must rebuild their own index, not alias a stale one.
        let mut m = n.clone();
        let _y3 = m.gate(GateKind::Not, &[a]).unwrap();
        assert_eq!(m.fanout(a).len(), 3);
        assert_eq!(n.fanout(a).len(), 2, "clone mutation must not leak back");
    }

    #[test]
    fn structural_hash_ignores_names_but_sees_structure() {
        let build = |name: &str| {
            let mut n = Netlist::new();
            let a = n.input(format!("{name}_a"));
            let b = n.input(format!("{name}_b"));
            let x = n.gate(GateKind::Xor2, &[a, b]).unwrap();
            (n, x)
        };
        let (n1, _) = build("first");
        let (n2, _) = build("second");
        assert_eq!(
            n1.structural_hash(),
            n2.structural_hash(),
            "names are not structure"
        );
        let (mut n3, _) = build("first");
        n3.set_delay(GateId(0), 5).unwrap();
        assert_ne!(n1.structural_hash(), n3.structural_hash(), "delay is");
        let (mut n4, _) = build("first");
        let a = NodeId(0);
        let _ = n4.gate(GateKind::Not, &[a]).unwrap();
        assert_ne!(n1.structural_hash(), n4.structural_hash(), "gates are");
    }

    #[test]
    fn inline_pins_hold_exactly_the_arity() {
        let kinds = [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And2,
            GateKind::And3,
            GateKind::Or2,
            GateKind::Or3,
            GateKind::Nand2,
            GateKind::Nand3,
            GateKind::Nor2,
            GateKind::Nor3,
            GateKind::Xor2,
            GateKind::Xnor2,
            GateKind::Mux2,
            GateKind::Dff,
        ];
        let mut n = Netlist::new();
        let pins = [n.input("a"), n.input("b"), n.input("c")];
        for kind in kinds {
            let arity = kind.arity();
            let out = n.gate(kind, &pins[..arity]).unwrap();
            let gate = &n.gates()[n.gate_count() - 1];
            assert_eq!(gate.inputs().len(), arity, "{kind:?}");
            assert_eq!(gate.inputs(), &pins[..arity], "{kind:?}");
            assert_eq!(gate.output, out);
            assert_eq!(
                n.node_name(out),
                format!("{}_{}", kind.name(), n.gate_count() - 1)
            );
        }
    }

    #[test]
    fn name_arena_survives_clone_and_compares_by_name() {
        let mut n = Netlist::new();
        let names = ["", "a", "ünïcödé", "𝄞😀", "a"];
        let ids: Vec<NodeId> = names.iter().map(|&name| n.node(name)).collect();
        let y = n.gate(GateKind::Not, &[ids[1]]).unwrap();
        let copy = n.clone();
        for netlist in [&n, &copy] {
            for (&id, &name) in ids.iter().zip(&names) {
                assert_eq!(netlist.node_name(id), name);
            }
            assert_eq!(netlist.node_name(y), "not_0");
            assert_eq!(netlist.node_name(NodeId(ids.len() + 1)), "");
            assert_eq!(netlist.node_names().len(), netlist.node_count());
        }
        assert_eq!(copy, n);
        let mut renamed = Netlist::new();
        for name in ["", "a", "ünïcödé", "𝄞😀", "b"] {
            renamed.node(name);
        }
        renamed.gate(GateKind::Not, &[ids[1]]).unwrap();
        assert_ne!(renamed, n, "names are part of equality");
    }

    #[test]
    fn foreign_ids_degrade_gracefully() {
        let n = Netlist::new();
        let ghost = NodeId(42);
        assert_eq!(n.node_name(ghost), "");
        assert!(n.fanout(ghost).is_empty());
        assert!(!n.is_primary_input(ghost));
        assert_eq!(n.node_capacitance(ghost).to_femtofarads(), 0.0);
    }
}
