//! Structural design-rule checks (LV001–LV004): driver/fanout
//! bookkeeping plus combinational-loop detection by Tarjan's strongly
//! connected components algorithm over the netlist's CSR fanout index.

use std::collections::BTreeSet;

use lowvolt_circuit::netlist::{GateKind, Netlist, NodeId};

use crate::diagnostic::{Diagnostic, Location, Rule};
use crate::target::LintTarget;

/// Runs the structural pass.
#[must_use]
pub fn run(target: &LintTarget) -> Vec<Diagnostic> {
    let n = &target.circuit.netlist;
    let mut diags = Vec::new();

    let mut driver_count = vec![0usize; n.node_count()];
    for gate in n.gates() {
        if let Some(slot) = driver_count.get_mut(gate.output.index()) {
            *slot += 1;
        }
    }
    let declared: BTreeSet<usize> = target.circuit.outputs.iter().map(|o| o.index()).collect();

    for node in n.node_ids() {
        let idx = node.index();
        let drivers = driver_count[idx];
        let used = !n.fanout(node).is_empty();
        let is_output = declared.contains(&idx);
        let loc = node_loc(n, node);
        if n.is_primary_input(node) {
            // A gate driving a primary input is a drive fight between the
            // stimulus and the netlist.
            if drivers > 0 {
                diags.push(Diagnostic::new(
                    Rule::MultipleDrivers,
                    loc,
                    format!("primary input is also driven by {drivers} gate output(s)"),
                    "remove the gate driver or demote the node from the input list".to_string(),
                ));
            }
            continue;
        }
        if drivers == 0 && (used || is_output) {
            diags.push(Diagnostic::new(
                Rule::FloatingNode,
                loc,
                format!(
                    "no driver, but {} depend on it",
                    if used {
                        "downstream gates"
                    } else {
                        "declared outputs"
                    }
                ),
                "drive the node from a gate output or declare it a primary input".to_string(),
            ));
        } else if drivers > 1 {
            diags.push(Diagnostic::new(
                Rule::MultipleDrivers,
                loc,
                format!("driven by {drivers} gate outputs"),
                "keep exactly one driver per node; mux or gate the sources instead".to_string(),
            ));
        } else if drivers == 1 && !used && !is_output {
            diags.push(Diagnostic::new(
                Rule::DanglingOutput,
                loc,
                "driven but never consumed and not a declared output".to_string(),
                "declare the node as an output or remove the dead logic (it still burns leakage)"
                    .to_string(),
            ));
        }
    }

    diags.extend(combinational_loops(target));
    diags
}

fn node_loc(n: &Netlist, node: NodeId) -> Location {
    Location::Node {
        index: node.index(),
        name: n.node_name(node).to_string(),
    }
}

/// Finds combinational cycles: Tarjan SCC over the node graph whose
/// edges are `gate input -> gate output` for every non-flip-flop gate
/// (a [`GateKind::Dff`] output changes only on a clock edge, so it
/// legitimately breaks a cycle). Any SCC of size > 1, or any single
/// node with a combinational self-edge, is a loop.
fn combinational_loops(target: &LintTarget) -> Vec<Diagnostic> {
    let n = &target.circuit.netlist;
    let node_count = n.node_count();

    // Iterative Tarjan over the CSR fanout index: successors of node v
    // are the outputs of v's combinational fanout gates.
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; node_count];
    let mut lowlink = vec![0usize; node_count];
    let mut on_stack = vec![false; node_count];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frames: (node, position in its fanout slice).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..node_count {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut fanout_pos)) = frames.last_mut() {
            // Next combinational successor; flip-flop readers are skipped.
            let fanout = n.fanout(NodeId::from_index(v));
            let next = fanout[*fanout_pos..].iter().find_map(|&g| {
                *fanout_pos += 1;
                let gate = n.gates().get(g.index())?;
                (gate.kind != GateKind::Dff).then(|| gate.output.index())
            });
            if let Some(w) = next {
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut component = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if component.len() > 1 {
                        sccs.push(component);
                    }
                }
            }
        }
    }

    // Size-1 SCCs with a self-edge (a combinational gate feeding its own
    // output node) are loops too; Tarjan above only keeps size > 1.
    let mut diags: Vec<Diagnostic> = n
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| g.kind != GateKind::Dff && g.inputs().contains(&g.output))
        .map(|(i, g)| {
            Diagnostic::new(
                Rule::CombinationalLoop,
                Location::Gate {
                    index: i,
                    kind: g.kind.name().to_string(),
                    output: n.node_name(g.output).to_string(),
                },
                "gate output feeds directly back into its own input".to_string(),
                "break the loop with a flip-flop or remove the feedback".to_string(),
            )
        })
        .collect();

    for mut component in sccs {
        component.sort_unstable();
        let names: Vec<&str> = component
            .iter()
            .take(6)
            .map(|&v| n.node_name(NodeId::from_index(v)))
            .collect();
        let suffix = if component.len() > names.len() {
            format!(", … ({} nodes total)", component.len())
        } else {
            String::new()
        };
        let anchor = NodeId::from_index(component[0]);
        diags.push(Diagnostic::new(
            Rule::CombinationalLoop,
            node_loc(n, anchor),
            format!(
                "combinational cycle through {{{}{}}} with no flip-flop to break it",
                names.join(", "),
                suffix
            ),
            "insert a Dff in the cycle or restructure the feedback".to_string(),
        ));
    }

    diags
}
