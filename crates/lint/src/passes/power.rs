//! Power-intent checks (LV020–LV026): the static verification layer for
//! the paper's §4 power-down options. Cross-checks the declared intent
//! against the `lowvolt_core::mtcmos` sleep-transistor sizing model and
//! the `lowvolt_device::body` back-gate law, and — when a switch-level
//! view is attached — proves there is no conduction path from the
//! supply that bypasses every sleep device.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use lowvolt_core::mtcmos::MtcmosSizer;

use crate::config::LintConfig;
use crate::diagnostic::{Diagnostic, Location, Rule, Severity};
use crate::intent::{DomainKind, PowerIntent};
use crate::target::{LintTarget, SwitchView};

/// Runs the power-intent pass.
#[must_use]
pub fn run(target: &LintTarget, config: &LintConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if let Some(intent) = &target.intent {
        check_intent_shape(target, intent, &mut diags);
        check_sleep_networks(intent, config, &mut diags);
        check_isolation(target, intent, &mut diags);
        check_body_bias(intent, &mut diags);
    }
    if let Some(view) = &target.switch_view {
        check_sleep_bypass(view, &mut diags);
    }
    diags
}

fn domain_loc(intent: &PowerIntent, idx: usize) -> Location {
    match intent.domains.get(idx) {
        Some(d) => Location::Domain {
            name: d.name.clone(),
        },
        None => Location::Design,
    }
}

/// LV024: the intent must actually describe this netlist.
fn check_intent_shape(target: &LintTarget, intent: &PowerIntent, diags: &mut Vec<Diagnostic>) {
    let gates = target.circuit.netlist.gate_count();
    if intent.assignment.len() != gates {
        diags.push(Diagnostic::new(
            Rule::MalformedIntent,
            Location::Design,
            format!(
                "intent assigns {} gate(s) but the netlist has {gates}",
                intent.assignment.len()
            ),
            "rebuild the intent from the final netlist (one domain entry per gate)".to_string(),
        ));
    }
    let bad_domain_refs = intent
        .assignment
        .iter()
        .filter(|&&d| d >= intent.domains.len())
        .count();
    if bad_domain_refs > 0 {
        diags.push(Diagnostic::new(
            Rule::MalformedIntent,
            Location::Design,
            format!(
                "{bad_domain_refs} gate assignment(s) reference a domain that does not exist \
                 ({} domain(s) declared)",
                intent.domains.len()
            ),
            "fix the assignment table to point at declared domains".to_string(),
        ));
    }
    let nodes = target.circuit.netlist.node_count();
    let bad_iso = intent.isolated.iter().filter(|&&i| i >= nodes).count();
    if bad_iso > 0 {
        diags.push(Diagnostic::new(
            Rule::MalformedIntent,
            Location::Design,
            format!("{bad_iso} isolation marker(s) reference nodes outside the netlist"),
            "mark isolation on real nets".to_string(),
        ));
    }
    if intent.domains.is_empty() {
        diags.push(Diagnostic::new(
            Rule::MalformedIntent,
            Location::Design,
            "intent declares no power domains".to_string(),
            "declare at least one domain and assign every gate to it".to_string(),
        ));
    }
}

/// LV020 + LV025: every gated domain's sleep network must be able to cut
/// off, and its sizing must not cost more active delay than allowed.
fn check_sleep_networks(intent: &PowerIntent, config: &LintConfig, diags: &mut Vec<Diagnostic>) {
    for (idx, domain) in intent.domains.iter().enumerate() {
        let DomainKind::Gated { sleep } = &domain.kind else {
            continue;
        };
        let loc = domain_loc(intent, idx);
        let sizer =
            match MtcmosSizer::new(sleep.peak_current, sleep.vdd, sleep.low_vt, sleep.high_vt) {
                Ok(sizer) => sizer,
                Err(e) => {
                    diags.push(Diagnostic::new(
                        Rule::IncompleteSleepCutoff,
                        loc,
                        format!(
                        "sleep network cannot cut off (V_T,sleep {} vs V_T,logic {}, V_DD {}): {e}",
                        sleep.high_vt, sleep.low_vt, sleep.vdd
                    ),
                        "use a high-V_T sleep device with V_T,logic < V_T,sleep < V_DD (paper §4)"
                            .to_string(),
                    ));
                    continue;
                }
            };
        let droop = sizer.rail_droop(sleep.width);
        let penalty = sizer.delay_penalty(sleep.width);
        if !penalty.is_finite() || droop >= sleep.vdd {
            diags.push(
                Diagnostic::new(
                    Rule::UndersizedSleepDevice,
                    loc,
                    format!(
                        "sleep device of width {} cannot carry the {} peak current: virtual rail \
                         collapses",
                        sleep.width, sleep.peak_current
                    ),
                    "widen the sleep device until the rail droop stays well below V_DD".to_string(),
                )
                .with_severity(Severity::Error),
            );
        } else if penalty > config.max_sleep_penalty {
            diags.push(Diagnostic::new(
                Rule::UndersizedSleepDevice,
                loc,
                format!(
                    "sleep device costs {:.1}% active delay (rail droop {}), over the {:.1}% \
                     ceiling",
                    penalty * 100.0,
                    droop,
                    config.max_sleep_penalty * 100.0
                ),
                "widen the sleep device or raise the allowed penalty".to_string(),
            ));
        }
    }
}

/// LV021: a net crossing out of a gated domain floats when that domain
/// sleeps, so any consumer in a *different* domain needs an isolation
/// cell on the crossing.
fn check_isolation(target: &LintTarget, intent: &PowerIntent, diags: &mut Vec<Diagnostic>) {
    let n = &target.circuit.netlist;
    // Driving gate of each node (first driver wins; multi-driver nets are
    // already LV002 territory).
    let mut driver: Vec<Option<usize>> = vec![None; n.node_count()];
    for (gi, gate) in n.gates().iter().enumerate() {
        let slot = &mut driver[gate.output.index()];
        if slot.is_none() {
            *slot = Some(gi);
        }
    }
    for (gi, gate) in n.gates().iter().enumerate() {
        let Some((sink_dom, _)) = intent.domain_of(gi) else {
            continue; // malformed assignments already reported as LV024
        };
        for input in gate.inputs() {
            let Some(src_gate) = driver[input.index()] else {
                continue; // primary inputs and floating nets
            };
            let Some((src_dom, src)) = intent.domain_of(src_gate) else {
                continue;
            };
            if src_dom == sink_dom {
                continue;
            }
            if !matches!(src.kind, DomainKind::Gated { .. }) {
                continue;
            }
            if intent.isolated.contains(&input.index()) {
                continue;
            }
            diags.push(Diagnostic::new(
                Rule::MissingIsolation,
                Location::Gate {
                    index: gi,
                    kind: gate.kind.name().to_string(),
                    output: n.node_name(gate.output).to_string(),
                },
                format!(
                    "input '{}' comes from gated domain '{}' without an isolation cell; it \
                     floats when that domain sleeps",
                    n.node_name(*input),
                    src.name
                ),
                "add an isolation cell on the crossing (mark_isolated) or move the consumer \
                 into the gated domain"
                    .to_string(),
            ));
        }
    }
}

/// LV022 + LV023: body-bias feasibility per domain and consistency per
/// shared rail.
fn check_body_bias(intent: &PowerIntent, diags: &mut Vec<Diagnostic>) {
    use lowvolt_device::body::BodyEffect;

    // rail name -> (domain index, required bias in volts)
    let mut rails: BTreeMap<&str, Vec<(usize, f64)>> = BTreeMap::new();

    for (idx, domain) in intent.domains.iter().enumerate() {
        let Some(body) = &domain.body else { continue };
        let loc = domain_loc(intent, idx);
        let model = match BodyEffect::new(body.vt0, body.gamma, body.surface_potential) {
            Ok(m) => m,
            Err(e) => {
                diags.push(Diagnostic::new(
                    Rule::MalformedIntent,
                    loc,
                    format!("body-bias spec is not a valid body-effect model: {e}"),
                    "use a non-negative gamma and positive surface potential".to_string(),
                ));
                continue;
            }
        };
        let bias = match model.bias_for_vt_shift(body.standby_shift) {
            Ok(b) => b,
            Err(e) => {
                diags.push(Diagnostic::new(
                    Rule::ExcessiveBodyBias,
                    loc,
                    format!(
                        "no substrate bias achieves the requested {} V_T shift: {e}",
                        body.standby_shift
                    ),
                    "request a non-negative shift on a device with real body effect".to_string(),
                ));
                continue;
            }
        };
        if bias > body.max_bias {
            diags.push(Diagnostic::new(
                Rule::ExcessiveBodyBias,
                loc,
                format!(
                    "raising V_T by {} needs {bias} of reverse bias, but the rail delivers at \
                     most {} (square-root law saturates — the paper's Fig. 5 caveat)",
                    body.standby_shift, body.max_bias
                ),
                "lower the standby shift, raise gamma, or combine with power gating".to_string(),
            ));
        }
        rails
            .entry(body.rail.as_str())
            .or_default()
            .push((idx, bias.0));
    }

    // Domains on one physical rail all see the same bias; requirements
    // more than 1 mV apart cannot all be met.
    const RAIL_TOLERANCE_V: f64 = 1e-3;
    for (rail, members) in rails {
        if members.len() < 2 {
            continue;
        }
        let min = members
            .iter()
            .map(|&(_, b)| b)
            .fold(f64::INFINITY, f64::min);
        let max = members
            .iter()
            .map(|&(_, b)| b)
            .fold(f64::NEG_INFINITY, f64::max);
        if max - min > RAIL_TOLERANCE_V {
            let names: Vec<String> = members
                .iter()
                .filter_map(|&(idx, bias)| {
                    intent
                        .domains
                        .get(idx)
                        .map(|d| format!("{} ({bias:.3} V)", d.name))
                })
                .collect();
            diags.push(Diagnostic::new(
                Rule::BodyBiasConflict,
                Location::Domain {
                    name: rail.to_string(),
                },
                format!(
                    "domains on body rail '{rail}' need biases {:.3} V apart: {}",
                    max - min,
                    names.join(", ")
                ),
                "split the rail or align the domains' V_T shift targets".to_string(),
            ));
        }
    }
}

/// LV026: delete every sleep transistor from the switch-level view and
/// check that no gated node still reaches the supply through channel
/// edges. A surviving path is a sneak supply that defeats power gating
/// (standby current flows no matter what the sleep signal says).
fn check_sleep_bypass(view: &SwitchView, diags: &mut Vec<Diagnostic>) {
    let n = &view.netlist;
    let node_count = n.node_count();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); node_count];
    for (ti, t) in n.transistors().iter().enumerate() {
        if view.sleep_transistors.contains(&ti) {
            continue;
        }
        let (a, b) = (t.a.index(), t.b.index());
        if a < node_count && b < node_count {
            adj[a].push(b);
            adj[b].push(a);
        }
    }
    let mut reachable = vec![false; node_count];
    let start = n.vdd().index();
    let gnd = n.gnd().index();
    let mut queue = VecDeque::new();
    if start < node_count {
        reachable[start] = true;
        queue.push_back(start);
    }
    while let Some(v) = queue.pop_front() {
        // The ground rail is absorbing: a walk entering gnd is a
        // pull-down path, not a supply bypass, so it does not extend to
        // gnd's other channel neighbours.
        if v == gnd {
            continue;
        }
        for &w in &adj[v] {
            if !reachable[w] {
                reachable[w] = true;
                queue.push_back(w);
            }
        }
    }
    for &node in &view.gated_nodes {
        let idx = node.index();
        if idx < node_count && reachable[idx] {
            diags.push(Diagnostic::new(
                Rule::SleepBypass,
                Location::Node {
                    index: idx,
                    name: n.node_name(node).to_string(),
                },
                "gated node still reaches the supply with every sleep transistor cut off"
                    .to_string(),
                "route every pull-up through the sleep header (or register the bypass device \
                 as a sleep transistor)"
                    .to_string(),
            ));
        }
    }
}
