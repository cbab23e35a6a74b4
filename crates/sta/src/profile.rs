//! Lumped load extraction for the optimizer handoff.
//!
//! Under uniform delay pricing every gate's propagation delay factors as
//! `k · V_DD / I_on(V_DD, V_T)` times the gate's load, so the
//! load-maximising path through the DAG is the critical path at *every*
//! operating point. That makes a circuit's whole delay constraint
//! collapse to a single alpha-power-law stage driving the worst path's
//! total capacitance — exactly the shape the fixed-throughput optimizer
//! (`lowvolt_core::optimizer`) prices, which lets `optimize --sta`
//! substitute a real datapath's critical path for the 101-stage
//! ring-oscillator proxy.

use crate::analysis::{endpoints, forward};
use crate::StaError;
use lowvolt_circuit::compiled::CompiledNetlist;
use lowvolt_circuit::netlist::Circuit;
use lowvolt_circuit::ring::DEFAULT_STAGE_LOAD;
use lowvolt_device::units::Farads;
use lowvolt_obs::{names, span, Recorder};

/// Lumped capacitance profile of one circuit, computed with the same
/// fanout-scaled unit loads as [`crate::DelayPricer::paper_default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitLoadProfile {
    /// Combinational gate count — the number of leaking devices when the
    /// circuit idles.
    pub gates: usize,
    /// Gates on the worst (load-maximising) path to any endpoint.
    pub depth: usize,
    /// Total capacitance along the worst path.
    pub path_load: Farads,
    /// Total switched capacitance: every gate's fanout-scaled output
    /// load, summed over the circuit.
    pub switched_cap: Farads,
}

/// Extracts the lumped load profile of `circuit` with endpoints at its
/// declared outputs and every register data pin (the same endpoint set
/// as [`crate::analyze`]). Levelization is timed as the
/// `compiled.compile` span on `rec`.
///
/// # Errors
///
/// Returns [`StaError::Circuit`] when the netlist cannot be levelized,
/// [`StaError::NoCombinationalPath`] when it has no combinational gate
/// (a bare register bank), and [`StaError::NoEndpoints`] when no output
/// or register constrains a path.
pub fn load_profile(rec: &dyn Recorder, circuit: &Circuit) -> Result<CircuitLoadProfile, StaError> {
    let comp = {
        let _span = span(rec, names::SPAN_COMPILED_COMPILE);
        CompiledNetlist::compile(&circuit.netlist)?
    };
    let gates = comp.gate_count();
    if gates == 0 {
        return Err(StaError::NoCombinationalPath {
            circuit: circuit.name.clone(),
        });
    }

    let mut load = Vec::with_capacity(gates);
    let mut switched = 0.0f64;
    for p in 0..gates {
        let readers = comp.node_fanout(comp.gate_output(p)).max(1) as f64;
        let c = DEFAULT_STAGE_LOAD.0 * readers;
        switched += c;
        load.push(c);
    }

    // The timing pass's forward recurrence and endpoint choice with
    // delay replaced by load, so the same path wins.
    let path = forward(&comp, &load);
    let (_, critical) = endpoints(&comp, &circuit.outputs, &path.arrival)?;
    Ok(CircuitLoadProfile {
        gates,
        depth: path.depth[critical] as usize,
        path_load: Farads(path.arrival[critical]),
        switched_cap: Farads(switched),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, StaConfig};
    use lowvolt_circuit::netlist::{GateKind, Netlist};
    use lowvolt_exec::ExecPolicy;
    use lowvolt_obs::noop;

    /// `a -> not -> x -> not -> y` plus `a -> not -> z`.
    fn chain() -> Circuit {
        let mut n = Netlist::new();
        let a = n.input("a");
        let x = n.node("x");
        let y = n.node("y");
        let z = n.node("z");
        n.gate_into(GateKind::Not, &[a], x).unwrap();
        n.gate_into(GateKind::Not, &[x], y).unwrap();
        n.gate_into(GateKind::Not, &[a], z).unwrap();
        Circuit {
            name: "chain".to_owned(),
            netlist: n,
            inputs: vec![a],
            outputs: vec![y, z],
            clock: None,
        }
    }

    #[test]
    fn chain_profile_sums_unit_loads() {
        let p = load_profile(noop(), &chain()).unwrap();
        assert_eq!(p.gates, 3);
        assert_eq!(p.depth, 2);
        // x is read by one gate; y and z by nobody (floor of one unit).
        let unit = DEFAULT_STAGE_LOAD.0;
        assert!((p.path_load.0 - 2.0 * unit).abs() < 1e-24);
        assert!((p.switched_cap.0 - 3.0 * unit).abs() < 1e-24);
    }

    #[test]
    fn profile_depth_matches_the_analyzer_critical_path() {
        let c = chain();
        let p = load_profile(noop(), &c).unwrap();
        let report = analyze(
            &ExecPolicy::serial(),
            noop(),
            "chain",
            &c.netlist,
            &c.outputs,
            StaConfig::nominal(),
        )
        .unwrap();
        assert_eq!(p.depth, report.critical_path.len());
        // Same uniform pricing: critical delay is proportional to the
        // path load, delay = k * vdd / I_on * C.
        let per_farad = report.critical.0 / p.path_load.0;
        assert!(per_farad.is_finite() && per_farad > 0.0);
    }

    #[test]
    fn no_endpoints_is_an_error() {
        let mut c = chain();
        c.outputs.clear();
        assert_eq!(load_profile(noop(), &c).unwrap_err(), StaError::NoEndpoints);
    }

    #[test]
    fn a_register_bank_has_no_combinational_path() {
        let mut n = Netlist::new();
        let clk = n.input("clk");
        let d = n.input("d");
        let q = n.node("q");
        n.gate_into(GateKind::Dff, &[clk, d], q).unwrap();
        let c = Circuit {
            name: "bank".to_owned(),
            netlist: n,
            inputs: vec![d],
            outputs: vec![q],
            clock: Some(clk),
        };
        let err = load_profile(noop(), &c).unwrap_err();
        assert_eq!(
            err,
            StaError::NoCombinationalPath {
                circuit: "bank".to_owned()
            }
        );
        assert!(err.to_string().contains("`bank` has no combinational"));
    }

    #[test]
    fn levelization_is_its_own_span() {
        let reg = lowvolt_obs::MetricsRegistry::new();
        load_profile(&reg, &chain()).unwrap();
        assert!(reg
            .timer(lowvolt_obs::names::SPAN_COMPILED_COMPILE)
            .is_some());
    }
}
