//! Gate-level → switch-level lowering.
//!
//! Expands every combinational [`GateKind`] into its static CMOS
//! transistor network ([`SwitchNetlist`]), keeping a node map so the two
//! abstraction levels can be driven with the same stimulus and compared
//! node for node. This is the bridge the paper's §5.3 methodology
//! implies: the gate-level engine is fast enough for datapath-wide
//! activity extraction, and the switch-level engine is the reference it
//! is calibrated against — the lowering makes that calibration a
//! checkable property instead of a claim (see `tests/differential.rs`).
//!
//! The mapping is structural, cell by cell:
//!
//! | gate kind      | network                                             |
//! |----------------|-----------------------------------------------------|
//! | `Not`          | inverter                                            |
//! | `Buf`          | two inverters                                       |
//! | `Nand2/3`      | parallel PMOS pull-up, series NMOS pull-down        |
//! | `Nor2/3`       | series PMOS pull-up, parallel NMOS pull-down        |
//! | `And2/3`       | NAND + inverter                                     |
//! | `Or2/3`        | NOR + inverter                                      |
//! | `Xor2`/`Xnor2` | complementary pass network with local complements   |
//! | `Mux2`         | two transmission gates + select inverter            |
//! | `Dff`          | rejected ([`CircuitError::NoSwitchLowering`])       |
//!
//! Sequential cells are deliberately out of scope — the clocked styles
//! live in [`crate::switch_registers`] where their dynamic/keeper
//! behaviour is modelled on purpose, not synthesised.

use crate::error::CircuitError;
use crate::netlist::{GateKind, Netlist, NodeId};
use crate::switchlevel::{SwKind, SwNodeId, SwitchNetlist};

/// A switch-level expansion of a gate-level netlist, with the node map
/// linking the two.
#[derive(Debug, Clone)]
pub struct Lowered {
    netlist: SwitchNetlist,
    map: Vec<SwNodeId>,
}

impl Lowered {
    /// The transistor-level netlist.
    #[must_use]
    pub fn netlist(&self) -> &SwitchNetlist {
        &self.netlist
    }

    /// The switch-level node corresponding to a gate-level node (`None`
    /// for a foreign id). Every gate-level node has an image; the
    /// expansion's internal nodes (series-stack midpoints, local
    /// complements) have no gate-level preimage.
    #[must_use]
    pub fn switch_node(&self, node: NodeId) -> Option<SwNodeId> {
        self.map.get(node.index()).copied()
    }

    /// Maps a slice of gate-level nodes (typically a port list) to their
    /// switch-level images, in order.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if any id is foreign.
    pub fn switch_nodes(&self, nodes: &[NodeId]) -> Result<Vec<SwNodeId>, CircuitError> {
        nodes
            .iter()
            .map(|&n| {
                self.switch_node(n)
                    .ok_or(CircuitError::UnknownNode(n.index()))
            })
            .collect()
    }

    /// All `(gate-level, switch-level)` node pairs, in gate-level node
    /// order.
    pub fn mapped_nodes(&self) -> impl Iterator<Item = (NodeId, SwNodeId)> + '_ {
        self.map
            .iter()
            .enumerate()
            .map(|(i, &sw)| (NodeId::from_index(i), sw))
    }
}

/// A series transistor chain `from → … → to`, one device per gate node,
/// with auto-named midpoints.
fn series(
    sw: &mut SwitchNetlist,
    kind: SwKind,
    gates: &[SwNodeId],
    from: SwNodeId,
    to: SwNodeId,
    tag: &str,
) -> Result<(), CircuitError> {
    let mut prev = from;
    for (i, &g) in gates.iter().enumerate() {
        let next = if i + 1 == gates.len() {
            to
        } else {
            sw.node(format!("{tag}.s{i}"))
        };
        sw.transistor(kind, g, prev, next)?;
        prev = next;
    }
    Ok(())
}

/// Parallel transistors between `from` and `to`, one per gate node.
fn parallel(
    sw: &mut SwitchNetlist,
    kind: SwKind,
    gates: &[SwNodeId],
    from: SwNodeId,
    to: SwNodeId,
) -> Result<(), CircuitError> {
    for &g in gates {
        sw.transistor(kind, g, from, to)?;
    }
    Ok(())
}

/// Static CMOS NAND (an inverter for one input): parallel PMOS pull-up,
/// series NMOS pull-down.
fn nand_into(
    sw: &mut SwitchNetlist,
    ins: &[SwNodeId],
    out: SwNodeId,
    tag: &str,
) -> Result<(), CircuitError> {
    let (vdd, gnd) = (sw.vdd(), sw.gnd());
    parallel(sw, SwKind::P, ins, vdd, out)?;
    series(sw, SwKind::N, ins, out, gnd, tag)
}

/// Static CMOS NOR: series PMOS pull-up, parallel NMOS pull-down.
fn nor_into(
    sw: &mut SwitchNetlist,
    ins: &[SwNodeId],
    out: SwNodeId,
    tag: &str,
) -> Result<(), CircuitError> {
    let (vdd, gnd) = (sw.vdd(), sw.gnd());
    series(sw, SwKind::P, ins, vdd, out, tag)?;
    parallel(sw, SwKind::N, ins, gnd, out)
}

/// A local complement: a fresh inverter output for `input`.
fn complement(
    sw: &mut SwitchNetlist,
    input: SwNodeId,
    tag: &str,
) -> Result<SwNodeId, CircuitError> {
    let out = sw.node(format!("{tag}.n"));
    nand_into(sw, &[input], out, tag)?;
    Ok(out)
}

/// The XOR/XNOR complementary network over `a`, `b` and their local
/// complements `na`, `nb`. `parity_one` selects XOR (`true` pulls the
/// output high when the inputs differ) vs XNOR.
#[allow(clippy::many_single_char_names)]
fn parity_into(
    sw: &mut SwitchNetlist,
    a: SwNodeId,
    b: SwNodeId,
    out: SwNodeId,
    parity_one: bool,
    tag: &str,
) -> Result<(), CircuitError> {
    let na = complement(sw, a, &format!("{tag}.ca"))?;
    let nb = complement(sw, b, &format!("{tag}.cb"))?;
    let (vdd, gnd) = (sw.vdd(), sw.gnd());
    // PMOS branches conduct when both gates are low; NMOS when both high.
    let (up1, up2, dn1, dn2) = if parity_one {
        // XOR: high for (1,0) / (0,1), low for (1,1) / (0,0).
        ([na, b], [a, nb], [a, b], [na, nb])
    } else {
        // XNOR: high for (0,0) / (1,1), low for (1,0) / (0,1).
        ([a, b], [na, nb], [a, nb], [na, b])
    };
    series(sw, SwKind::P, &up1, vdd, out, &format!("{tag}.u1"))?;
    series(sw, SwKind::P, &up2, vdd, out, &format!("{tag}.u2"))?;
    series(sw, SwKind::N, &dn1, out, gnd, &format!("{tag}.d1"))?;
    series(sw, SwKind::N, &dn2, out, gnd, &format!("{tag}.d2"))
}

/// Lowers a gate-level netlist to transistors.
///
/// Every gate-level node gets a same-named switch-level node (primary
/// inputs stay externally driven); every gate becomes the static CMOS
/// network in the module table. The result simulates under
/// [`crate::switchlevel::SwitchSim`] and must agree with
/// [`crate::sim::Simulator`] on every mapped node once both settle —
/// the differential property the integration tests enforce.
///
/// # Errors
///
/// Returns [`CircuitError::NoSwitchLowering`] if the netlist contains a
/// sequential gate ([`GateKind::Dff`]); structural errors from the
/// switch netlist builder propagate unchanged.
pub fn lower(n: &Netlist) -> Result<Lowered, CircuitError> {
    let mut sw = SwitchNetlist::new();
    let map: Vec<SwNodeId> = n
        .node_ids()
        .map(|node| {
            let name = n.node_name(node).to_string();
            if n.is_primary_input(node) {
                sw.input(name)
            } else {
                sw.node(name)
            }
        })
        .collect();
    for (gi, gate) in n.gates().iter().enumerate() {
        let ins: Vec<SwNodeId> = gate.inputs().iter().map(|&i| map[i.index()]).collect();
        let out = map[gate.output.index()];
        let tag = format!("g{gi}.{}", gate.kind.name());
        match gate.kind {
            GateKind::Not => nand_into(&mut sw, &ins, out, &tag)?,
            GateKind::Buf => {
                let mid = complement(&mut sw, ins[0], &tag)?;
                nand_into(&mut sw, &[mid], out, &format!("{tag}.i"))?;
            }
            GateKind::Nand2 | GateKind::Nand3 => nand_into(&mut sw, &ins, out, &tag)?,
            GateKind::Nor2 | GateKind::Nor3 => nor_into(&mut sw, &ins, out, &tag)?,
            GateKind::And2 | GateKind::And3 => {
                let mid = sw.node(format!("{tag}.m"));
                nand_into(&mut sw, &ins, mid, &tag)?;
                nand_into(&mut sw, &[mid], out, &format!("{tag}.i"))?;
            }
            GateKind::Or2 | GateKind::Or3 => {
                let mid = sw.node(format!("{tag}.m"));
                nor_into(&mut sw, &ins, mid, &tag)?;
                nand_into(&mut sw, &[mid], out, &format!("{tag}.i"))?;
            }
            GateKind::Xor2 => parity_into(&mut sw, ins[0], ins[1], out, true, &tag)?,
            GateKind::Xnor2 => parity_into(&mut sw, ins[0], ins[1], out, false, &tag)?,
            GateKind::Mux2 => {
                // inputs are [sel, a, b]: a passes while sel = 0.
                let nsel = complement(&mut sw, ins[0], &tag)?;
                sw.transmission_gate(ins[1], out, nsel, ins[0])?;
                sw.transmission_gate(ins[2], out, ins[0], nsel)?;
            }
            GateKind::Dff => {
                return Err(CircuitError::NoSwitchLowering {
                    kind: gate.kind.name(),
                })
            }
        }
    }
    Ok(Lowered { netlist: sw, map })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::Bit;
    use crate::switchlevel::SwitchSim;

    /// Drives every input combination of a small netlist through both
    /// engines and asserts every mapped node agrees.
    fn exhaustive_check(n: &Netlist) {
        let low = lower(n).expect("combinational lowering");
        let inputs = n.primary_inputs().to_vec();
        let sw_inputs = low.switch_nodes(&inputs).expect("inputs map");
        for pattern in 0..(1u32 << inputs.len()) {
            let bits: Vec<Bit> = (0..inputs.len())
                .map(|i| {
                    if pattern & (1 << i) != 0 {
                        Bit::One
                    } else {
                        Bit::Zero
                    }
                })
                .collect();
            let mut gate_sim = crate::sim::Simulator::new(n);
            gate_sim.apply_vector(&inputs, &bits).expect("gate settle");
            let mut sw_sim = SwitchSim::new(low.netlist());
            sw_sim.set_inputs(&sw_inputs, &bits).expect("switch settle");
            for (gnode, snode) in low.mapped_nodes() {
                assert_eq!(
                    gate_sim.value(gnode),
                    sw_sim.value(snode),
                    "node `{}` diverges on pattern {pattern:b}",
                    n.node_name(gnode)
                );
            }
        }
    }

    #[test]
    fn every_combinational_kind_lowers_correctly() {
        use GateKind::{
            And2, And3, Buf, Mux2, Nand2, Nand3, Nor2, Nor3, Not, Or2, Or3, Xnor2, Xor2,
        };
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        for kind in [Not, Buf] {
            n.gate(kind, &[a]).expect("unary");
        }
        for kind in [And2, Or2, Nand2, Nor2, Xor2, Xnor2] {
            n.gate(kind, &[a, b]).expect("binary");
        }
        for kind in [And3, Or3, Nand3, Nor3, Mux2] {
            n.gate(kind, &[a, b, c]).expect("ternary");
        }
        exhaustive_check(&n);
    }

    #[test]
    fn lowered_gates_compose_through_logic_depth() {
        // A two-level structure: the mux output re-converges with a
        // parity of the same inputs — pass-gate outputs driving a
        // complementary network.
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let s = n.input("s");
        let m = n.gate(GateKind::Mux2, &[s, a, b]).expect("mux");
        let x = n.gate(GateKind::Xor2, &[a, b]).expect("xor");
        let _y = n.gate(GateKind::Nand2, &[m, x]).expect("nand");
        exhaustive_check(&n);
    }

    #[test]
    fn dff_is_rejected() {
        let mut n = Netlist::new();
        let clk = n.input("clk");
        let d = n.input("d");
        n.gate(GateKind::Dff, &[clk, d]).expect("dff builds");
        assert_eq!(
            lower(&n).err(),
            Some(CircuitError::NoSwitchLowering { kind: "dff" })
        );
    }

    #[test]
    fn node_map_covers_every_gate_level_node() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let _y = n.gate(GateKind::Not, &[a]).expect("inverter");
        let low = lower(&n).expect("lowering");
        assert_eq!(low.mapped_nodes().count(), n.node_count());
        for (gnode, snode) in low.mapped_nodes() {
            assert_eq!(n.node_name(gnode), low.netlist().node_name(snode));
            assert_eq!(
                n.is_primary_input(gnode),
                low.netlist().is_input(snode),
                "input-ness must survive lowering"
            );
        }
        assert!(low.switch_node(NodeId::from_index(999)).is_none());
        assert!(low.switch_nodes(&[NodeId::from_index(999)]).is_err());
    }
}
