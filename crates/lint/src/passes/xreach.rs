//! X-reachability (LV010–LV011): forward contamination analysis. A
//! source that can carry `X` forever — a floating net or a primary
//! input outside the target's stimulus contract — contaminates every
//! node reachable from it through combinational gates. Any declared
//! output in that set can silently read `X` in simulation, which is
//! exactly the failure the fault campaign classifies as
//! `PropagatedAsX`; this pass predicts it without running a vector.
//!
//! The analysis is deliberately conservative (structural reachability,
//! no don't-care masking): a `Mux2` with a contaminated data leg is
//! counted as contaminated even if the select could steer around it.

use std::collections::BTreeSet;
use std::collections::VecDeque;

use lowvolt_circuit::netlist::NodeId;

use crate::diagnostic::{Diagnostic, Location, Rule};
use crate::target::LintTarget;

/// Runs the X-reachability pass.
#[must_use]
pub fn run(target: &LintTarget) -> Vec<Diagnostic> {
    let c = &target.circuit;
    let n = &c.netlist;
    let mut diags = Vec::new();

    let constrained: BTreeSet<usize> = c
        .inputs
        .iter()
        .chain(c.clock.iter())
        .map(|i| i.index())
        .collect();

    let mut driver_count = vec![0usize; n.node_count()];
    for gate in n.gates() {
        if let Some(slot) = driver_count.get_mut(gate.output.index()) {
            *slot += 1;
        }
    }

    // X sources: unconstrained primary inputs and floating internal
    // nodes that something consumes.
    let mut sources: Vec<(NodeId, &'static str)> = Vec::new();
    for node in n.node_ids() {
        let idx = node.index();
        if n.is_primary_input(node) {
            if !constrained.contains(&idx) {
                sources.push((node, "unconstrained primary input"));
                diags.push(Diagnostic::new(
                    Rule::UnconstrainedInput,
                    Location::Node {
                        index: idx,
                        name: n.node_name(node).to_string(),
                    },
                    "primary input is not driven by the target's stimulus contract".to_string(),
                    "add the input to the stimulus list (or the clock slot) or tie it off"
                        .to_string(),
                ));
            }
        } else if driver_count[idx] == 0 && !n.fanout(node).is_empty() {
            sources.push((node, "floating node"));
        }
    }

    if sources.is_empty() {
        return diags;
    }

    // BFS forward over gate edges. Flip-flops do not stop contamination:
    // an X on `d` is latched on the next clock edge.
    let mut contaminated = vec![false; n.node_count()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    // Remember which source first reaches each node, for the message.
    let mut origin: Vec<Option<usize>> = vec![None; n.node_count()];
    for (si, (node, _)) in sources.iter().enumerate() {
        let idx = node.index();
        if !contaminated[idx] {
            contaminated[idx] = true;
            origin[idx] = Some(si);
            queue.push_back(idx);
        }
    }
    while let Some(v) = queue.pop_front() {
        for &g in n.fanout(NodeId::from_index(v)) {
            let Some(gate) = n.gates().get(g.index()) else {
                continue;
            };
            let out = gate.output.index();
            if !contaminated[out] {
                contaminated[out] = true;
                origin[out] = origin[v];
                queue.push_back(out);
            }
        }
    }

    for output in &c.outputs {
        let idx = output.index();
        if idx < contaminated.len() && contaminated[idx] {
            let via = origin[idx]
                .and_then(|si| sources.get(si))
                .map_or_else(String::new, |(node, what)| {
                    format!(" via {} '{}'", what, n.node_name(*node))
                });
            diags.push(Diagnostic::new(
                Rule::XContamination,
                Location::Node {
                    index: idx,
                    name: n.node_name(*output).to_string(),
                },
                format!("declared output is reachable from an X source{via}"),
                "constrain or tie off the contaminating source".to_string(),
            ));
        }
    }

    diags
}
