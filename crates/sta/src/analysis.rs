//! Forward arrival / backward required propagation over the compiled DAG.

use crate::price::DelayPricer;
use crate::report::{EndpointKind, EndpointSummary, NodeSlack, PathStep, StaReport};
use crate::StaError;
use lowvolt_circuit::compiled::CompiledNetlist;
use lowvolt_circuit::netlist::{Netlist, NodeId};
use lowvolt_device::units::{Seconds, Volts};
use lowvolt_exec::ExecPolicy;
use lowvolt_obs::{names, span, Recorder};

/// Nominal operating supply used by defaults across the toolkit.
pub const NOMINAL_VDD: Volts = Volts(1.0);
/// Nominal low threshold voltage used by defaults across the toolkit.
pub const NOMINAL_VT: Volts = Volts(0.2);

/// Operating point and constraint for one analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaConfig {
    /// Supply voltage to price delays at.
    pub vdd: Volts,
    /// Threshold voltage to price delays at.
    pub vt: Volts,
    /// Required time applied at every endpoint. `None` uses the critical
    /// delay itself, which pins the worst slack to exactly zero and
    /// makes the per-node slack a pure "distance off the critical path".
    pub required_time: Option<Seconds>,
}

impl StaConfig {
    /// The nominal `(1.0 V, 0.2 V)` operating point, unconstrained.
    #[must_use]
    pub fn nominal() -> StaConfig {
        StaConfig::at(NOMINAL_VDD, NOMINAL_VT)
    }

    /// An unconstrained analysis at an explicit operating point.
    #[must_use]
    pub fn at(vdd: Volts, vt: Volts) -> StaConfig {
        StaConfig {
            vdd,
            vt,
            required_time: None,
        }
    }

    /// Same operating point with an explicit required time.
    #[must_use]
    pub fn with_required(mut self, required: Seconds) -> StaConfig {
        self.required_time = Some(required);
        self
    }
}

/// Runs static timing analysis with the paper-default delay pricing
/// (ring-oscillator drive/load constants, load scaled by fanout).
///
/// The [`ExecPolicy`] argument is ignored: the analysis is one forward
/// and one backward pass with no parallel region. The parameter stays
/// only so existing callers keep compiling.
///
/// # Errors
///
/// Returns [`StaError::Circuit`] when the netlist cannot be levelized
/// (every offending structure named) and [`StaError::NoEndpoints`] when
/// `outputs` is empty and the netlist holds no registers.
pub fn analyze(
    _policy: &ExecPolicy,
    rec: &dyn Recorder,
    target_name: &str,
    netlist: &Netlist,
    outputs: &[NodeId],
    config: StaConfig,
) -> Result<StaReport, StaError> {
    let pricer = DelayPricer::paper_default();
    analyze_priced(rec, target_name, netlist, outputs, config, &|_, fanout| {
        pricer.delay(config.vdd, config.vt, fanout)
    })
}

/// [`analyze`] with caller-supplied delay pricing.
///
/// `price(original_gate_index, fanout)` returns the propagation delay of
/// the gate at `original_gate_index` in `netlist` (pre-levelization
/// numbering, so callers can look the gate up in side tables such as a
/// power-intent domain assignment) driving `fanout` readers. Infinite
/// delays are legal and mark the operating point infeasible for every
/// endpoint they reach. `config.vdd` / `config.vt` are carried into the
/// report as labels only — the pricing closure is the authority.
///
/// # Errors
///
/// Propagates [`StaError::Circuit`] from levelization, pricing errors
/// from `price`, and [`StaError::NoEndpoints`].
pub fn analyze_priced(
    rec: &dyn Recorder,
    target_name: &str,
    netlist: &Netlist,
    outputs: &[NodeId],
    config: StaConfig,
    price: &dyn Fn(usize, usize) -> Result<Seconds, StaError>,
) -> Result<StaReport, StaError> {
    let comp = CompiledNetlist::compile(netlist)?;
    let _span = span(rec, names::SPAN_STA_ANALYZE);
    let nodes = comp.node_count();
    let gates = comp.gate_count();

    // Price every gate once. Compiled order is level-ascending, so plain
    // index order is topological for both passes.
    let mut delay = Vec::with_capacity(gates);
    for p in 0..gates {
        let out = comp.gate_output(p);
        delay.push(price(comp.gate_source(p), comp.node_fanout(out))?.0);
    }

    let Forward {
        arrival,
        pred,
        driver,
        depth,
        start,
    } = forward(&comp, &delay);
    let (endpoints, critical_node) = endpoints(&comp, outputs, &arrival)?;
    let critical = arrival[critical_node];
    let feasible = critical.is_finite();
    let required_t = config.required_time.map_or(critical, |s| s.0);

    // Backward pass: earliest required time per node. Skipped when the
    // critical delay is already infinite — `inf - inf` would poison the
    // propagation with NaN and per-node slack is meaningless anyway.
    // Gates whose output reaches no endpoint keep `required = inf`
    // (unconstrained); an infinite delay on such a dead branch yields a
    // NaN candidate that `f64::min` discards, so it cannot leak.
    let mut node_slacks = Vec::new();
    if feasible {
        let mut required = vec![f64::INFINITY; nodes];
        for &(n, _) in &endpoints {
            required[n] = required_t;
        }
        for p in (0..gates).rev() {
            let out = comp.gate_output(p);
            let r = required[out] - delay[p];
            let ins = comp.gate_inputs(p);
            for &i in &ins[..comp.gate_kind(p).arity()] {
                required[i] = required[i].min(r);
            }
        }
        node_slacks.reserve(nodes);
        for n in 0..nodes {
            node_slacks.push(NodeSlack {
                node: netlist.node_name(NodeId::from_index(n)).to_owned(),
                level: comp.node_level(n),
                arrival: Seconds(arrival[n]),
                required: Seconds(required[n]),
                slack: Seconds(required[n] - arrival[n]),
            });
        }
    }

    // Per-endpoint worst-path summaries, O(1) each.
    let mut summaries = Vec::with_capacity(endpoints.len());
    for &(n, kind) in &endpoints {
        let slack = if arrival[n].is_finite() {
            required_t - arrival[n]
        } else {
            f64::NEG_INFINITY
        };
        summaries.push(EndpointSummary {
            node: netlist.node_name(NodeId::from_index(n)).to_owned(),
            node_index: n,
            kind,
            arrival: Seconds(arrival[n]),
            required: Seconds(required_t),
            slack: Seconds(slack),
            depth: depth[n] as usize,
            startpoint: netlist
                .node_name(NodeId::from_index(start[n] as usize))
                .to_owned(),
        });
    }
    let worst_slack = summaries
        .iter()
        .map(|s| s.slack.0)
        .fold(f64::INFINITY, f64::min);

    // Named critical-path chain, startpoint gate first.
    let mut critical_path = Vec::new();
    let mut cur = critical_node;
    while driver[cur] != u32::MAX {
        let p = driver[cur] as usize;
        critical_path.push(PathStep {
            gate: comp.gate_kind(p).name().to_owned(),
            output: netlist.node_name(NodeId::from_index(cur)).to_owned(),
            level: comp.gate_level(p),
            fanout: comp.node_fanout(cur),
            delay: Seconds(delay[p]),
            arrival: Seconds(arrival[cur]),
        });
        cur = pred[cur] as usize;
    }
    critical_path.reverse();

    rec.add(names::STA_NODES, nodes as u64);
    rec.add(names::STA_LEVELS, comp.level_count() as u64);
    let critical_ps = if feasible {
        (critical * 1e12).round() as u64
    } else {
        0
    };
    rec.add(names::STA_CRITICAL_PS, critical_ps);

    Ok(StaReport {
        target: target_name.to_owned(),
        vdd: config.vdd,
        vt: config.vt,
        feasible,
        nodes,
        gates,
        levels: comp.level_count(),
        registers: comp.dff_count(),
        critical: Seconds(critical),
        required: Seconds(required_t),
        worst_slack: Seconds(worst_slack),
        critical_path,
        endpoints: summaries,
        node_slacks,
    })
}

/// The forward pass's per-node results.
pub(crate) struct Forward {
    /// Latest arrival: the largest cost sum over any path into the node.
    pub(crate) arrival: Vec<f64>,
    /// Worst input node of the node's driver (`u32::MAX` when undriven).
    pub(crate) pred: Vec<u32>,
    /// Compiled position of the node's driver (`u32::MAX` when undriven).
    pub(crate) driver: Vec<u32>,
    /// Gate count of the worst path into the node.
    pub(crate) depth: Vec<u32>,
    /// Startpoint of the worst path; an undriven node is its own.
    pub(crate) start: Vec<u32>,
}

/// Forward pass: latest arrival per node with `cost[p]` charged at
/// compiled gate `p`, and the worst-input predecessor recorded for the
/// critical-path chain. Ties keep the first (lowest-slot) input.
/// Compiled order is level-ascending, so plain index order is
/// topological. Each node's worst-path gate count and startpoint ride
/// along, so endpoint summaries need no walk back up the chain.
pub(crate) fn forward(comp: &CompiledNetlist, cost: &[f64]) -> Forward {
    let nodes = comp.node_count();
    let mut f = Forward {
        arrival: vec![0.0f64; nodes],
        pred: vec![u32::MAX; nodes],
        driver: vec![u32::MAX; nodes],
        depth: vec![0u32; nodes],
        start: (0..nodes as u32).collect(),
    };
    for (p, &gate_cost) in cost.iter().enumerate() {
        let ins = comp.gate_inputs(p);
        let arity = comp.gate_kind(p).arity();
        let mut worst = ins[0];
        let mut worst_t = f.arrival[ins[0]];
        for &i in &ins[1..arity] {
            if f.arrival[i] > worst_t {
                worst_t = f.arrival[i];
                worst = i;
            }
        }
        let out = comp.gate_output(p);
        f.arrival[out] = worst_t + gate_cost;
        f.pred[out] = worst as u32;
        f.driver[out] = p as u32;
        f.depth[out] = f.depth[worst] + 1;
        f.start[out] = f.start[worst];
    }
    f
}

/// Timing endpoints — declared primary outputs first, then register
/// data pins, deduplicated, netlist order within each group — and the
/// critical one by `arrival`: strictly-greater-wins, so the first
/// endpoint in that order breaks ties.
///
/// # Errors
///
/// [`StaError::NoEndpoints`] when there are none.
pub(crate) fn endpoints(
    comp: &CompiledNetlist,
    outputs: &[NodeId],
    arrival: &[f64],
) -> Result<(Vec<(usize, EndpointKind)>, usize), StaError> {
    let mut is_endpoint = vec![false; comp.node_count()];
    let mut endpoints = Vec::new();
    let outputs = outputs.iter().map(|o| (o.index(), EndpointKind::Output));
    let registers = comp
        .dff_data_nodes()
        .into_iter()
        .map(|d| (d, EndpointKind::Register));
    for (n, kind) in outputs.chain(registers) {
        if !is_endpoint[n] {
            is_endpoint[n] = true;
            endpoints.push((n, kind));
        }
    }
    let mut critical = endpoints.first().ok_or(StaError::NoEndpoints)?.0;
    for &(n, _) in &endpoints[1..] {
        if arrival[n] > arrival[critical] {
            critical = n;
        }
    }
    Ok((endpoints, critical))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvolt_circuit::netlist::GateKind;
    use lowvolt_obs::json::Json;
    use lowvolt_obs::noop;

    /// `a -> not -> x -> not -> y` plus a direct `a -> not -> z` side
    /// branch; `y` is the deep output.
    fn chain() -> (Netlist, Vec<NodeId>) {
        let mut n = Netlist::new();
        let a = n.input("a");
        let x = n.node("x");
        let y = n.node("y");
        let z = n.node("z");
        n.gate_into(GateKind::Not, &[a], x).unwrap();
        n.gate_into(GateKind::Not, &[x], y).unwrap();
        n.gate_into(GateKind::Not, &[a], z).unwrap();
        (n, vec![y, z])
    }

    #[test]
    fn critical_path_is_the_deep_branch() {
        let (n, outs) = chain();
        let report = analyze(
            &ExecPolicy::serial(),
            noop(),
            "chain",
            &n,
            &outs,
            StaConfig::nominal(),
        )
        .unwrap();
        assert!(report.feasible);
        assert_eq!(report.levels, 2);
        assert_eq!(report.critical_path.len(), 2);
        assert_eq!(report.critical_path[1].output, "y");
        assert_eq!(report.critical_path_gates(), vec!["not", "not"]);
        // Worst slack defaults to exactly zero (required = critical).
        assert!(report.worst_slack.0.abs() < 1e-18);
        // The shallow output has positive slack.
        let z = report.endpoints.iter().find(|e| e.node == "z").unwrap();
        assert!(z.slack.0 > 0.0);
        assert_eq!(z.depth, 1);
        assert_eq!(z.startpoint, "a");
    }

    #[test]
    fn slack_is_required_minus_arrival_at_every_node() {
        let (n, outs) = chain();
        let report = analyze(
            &ExecPolicy::serial(),
            noop(),
            "chain",
            &n,
            &outs,
            StaConfig::nominal().with_required(Seconds(1e-9)),
        )
        .unwrap();
        assert_eq!(report.node_slacks.len(), report.nodes);
        for ns in &report.node_slacks {
            if ns.required.0.is_finite() {
                let recomputed = ns.required.0 - ns.arrival.0;
                assert!((ns.slack.0 - recomputed).abs() < 1e-18, "{}", ns.node);
            }
        }
    }

    #[test]
    fn subthreshold_point_is_reported_infeasible() {
        let (n, outs) = chain();
        let report = analyze(
            &ExecPolicy::serial(),
            noop(),
            "chain",
            &n,
            &outs,
            StaConfig::at(Volts(0.2), Volts(0.3)),
        )
        .unwrap();
        assert!(!report.feasible);
        assert!(report.critical.0.is_infinite());
        assert!(report.worst_slack.0 == f64::NEG_INFINITY);
        assert!(report.node_slacks.is_empty());
        let json = Json::parse(&report.to_json()).unwrap();
        assert_eq!(json.get("critical_ps"), Some(&Json::Null));
        assert_eq!(json.get("worst_slack_ps"), Some(&Json::Null));
        assert_eq!(json.get("feasible").and_then(Json::as_bool), Some(false));
        assert_eq!(
            json.get("node_slack").and_then(Json::as_array),
            Some(&[][..])
        );
    }

    #[test]
    fn no_endpoints_is_an_error() {
        let mut n = Netlist::new();
        let a = n.input("a");
        n.gate(GateKind::Not, &[a]).unwrap();
        let err = analyze(
            &ExecPolicy::serial(),
            noop(),
            "dead",
            &n,
            &[],
            StaConfig::nominal(),
        )
        .unwrap_err();
        assert_eq!(err, StaError::NoEndpoints);
    }

    #[test]
    fn registers_cut_paths_and_become_endpoints() {
        let mut n = Netlist::new();
        let clk = n.input("clk");
        let a = n.input("a");
        let x = n.node("x");
        let q = n.node("q");
        let y = n.node("y");
        n.gate_into(GateKind::Not, &[a], x).unwrap();
        n.gate_into(GateKind::Dff, &[clk, x], q).unwrap();
        n.gate_into(GateKind::Not, &[q], y).unwrap();
        let report = analyze(
            &ExecPolicy::serial(),
            noop(),
            "reg",
            &n,
            &[y],
            StaConfig::nominal(),
        )
        .unwrap();
        assert_eq!(report.registers, 1);
        // Endpoints: the declared output plus the dff data pin.
        assert_eq!(report.endpoints.len(), 2);
        let reg = report
            .endpoints
            .iter()
            .find(|e| e.kind == EndpointKind::Register)
            .unwrap();
        assert_eq!(reg.node, "x");
        // The q -> y path starts at the register output (level 0).
        let out = report.endpoints.iter().find(|e| e.node == "y").unwrap();
        assert_eq!(out.depth, 1);
        assert_eq!(out.startpoint, "q");
    }

    #[test]
    fn raising_vdd_never_slows_the_critical_path() {
        let (n, outs) = chain();
        let lo = analyze(
            &ExecPolicy::serial(),
            noop(),
            "c",
            &n,
            &outs,
            StaConfig::at(Volts(0.8), Volts(0.2)),
        )
        .unwrap();
        let hi = analyze(
            &ExecPolicy::serial(),
            noop(),
            "c",
            &n,
            &outs,
            StaConfig::at(Volts(1.2), Volts(0.2)),
        )
        .unwrap();
        assert!(hi.critical.0 < lo.critical.0);
    }

    #[test]
    fn custom_pricing_sees_original_gate_indices_and_fanout() {
        let (n, outs) = chain();
        // Constant unit delay: critical delay == deepest level count.
        let report = analyze_priced(noop(), "c", &n, &outs, StaConfig::nominal(), &|_, _| {
            Ok(Seconds(1e-12))
        })
        .unwrap();
        assert!((report.critical.0 - report.levels as f64 * 1e-12).abs() < 1e-24);
        assert_eq!(report.critical_path.len(), report.levels);
    }

    #[test]
    fn counters_record_nodes_levels_and_rounded_ps() {
        let (n, outs) = chain();
        let reg = lowvolt_obs::MetricsRegistry::new();
        let report = analyze(
            &ExecPolicy::serial(),
            &reg,
            "c",
            &n,
            &outs,
            StaConfig::nominal(),
        )
        .unwrap();
        assert_eq!(reg.counter(names::STA_NODES), 4);
        assert_eq!(reg.counter(names::STA_LEVELS), 2);
        let ps = (report.critical.0 * 1e12).round() as u64;
        assert_eq!(reg.counter(names::STA_CRITICAL_PS), ps);
        assert!(reg.timer(names::SPAN_STA_ANALYZE).is_some());
    }
}
