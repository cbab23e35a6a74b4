//! What the linter runs on: a netlist plus its stimulus contract,
//! optional power intent, and an optional switch-level view of the
//! sleep network.

use lowvolt_circuit::faults::standard_targets;
use lowvolt_circuit::netlist::{Circuit, Netlist};
use lowvolt_circuit::switchlevel::{SwNodeId, SwitchNetlist};
use lowvolt_device::units::{Amps, Volts};

use crate::intent::{DomainKind, PowerDomain, PowerIntent, SleepSpec};
use crate::LintError;

/// A switch-level view of a target's power-gating fabric, used by the
/// LV026 sleep-bypass check: with every sleep transistor removed, no
/// gated node may still reach the supply rail through channel edges.
#[derive(Debug, Clone)]
pub struct SwitchView {
    /// The switch-level netlist.
    pub netlist: SwitchNetlist,
    /// Indices (into [`SwitchNetlist::transistors`]) of the sleep
    /// devices.
    pub sleep_transistors: Vec<usize>,
    /// Nodes that belong to the gated domain and must lose their supply
    /// path when the sleep devices are cut.
    pub gated_nodes: Vec<SwNodeId>,
}

/// One unit of lint work: a circuit plus the optional power views the
/// power pass reads.
#[derive(Debug, Clone)]
pub struct LintTarget {
    /// The circuit; its name is the one used in reports.
    pub circuit: Circuit,
    /// Power intent; `None` skips the power pass's intent checks and
    /// prices leakage for the whole design at the default threshold.
    pub intent: Option<PowerIntent>,
    /// Switch-level sleep-network view; `None` skips LV026.
    pub switch_view: Option<SwitchView>,
}

impl LintTarget {
    /// A target without power intent or a switch-level view, as for an
    /// imported or generated circuit (the interchange formats carry no
    /// intent).
    #[must_use]
    pub fn new(circuit: Circuit) -> LintTarget {
        LintTarget {
            circuit,
            intent: None,
            switch_view: None,
        }
    }
}

/// Per-gate peak-current estimate used to size the default sleep
/// devices: 5 µA of simultaneous switching current per gate, the same
/// order as the MTCMOS sizing example in `lowvolt_core::mtcmos`.
pub const PEAK_CURRENT_PER_GATE: Amps = Amps(5e-6);

/// Logic threshold of the default gated domain.
pub const DEFAULT_LOW_VT: Volts = Volts(0.2);

/// Sleep-device threshold of the default gated domain; well above the
/// logic `V_T`, as the paper's §4 MTCMOS scheme requires.
pub const DEFAULT_HIGH_VT: Volts = Volts(0.55);

/// Supply of the default domain.
pub const DEFAULT_VDD: Volts = Volts(1.0);

/// Delay-penalty target used to size the default sleep device; half the
/// default LV025 warning ceiling, so standard targets lint clean.
pub const DEFAULT_SIZING_PENALTY: f64 = 0.05;

/// Default power intent for a standard datapath: a single MTCMOS-gated
/// domain over the whole netlist, sleep device sized for a 5% delay
/// penalty.
///
/// # Errors
///
/// Returns [`LintError::Core`] if the sleep sizing model rejects the
/// parameters (it cannot for the constants used here unless the netlist
/// has zero gates, which yields zero peak current).
pub fn default_gated_intent(netlist: &Netlist) -> Result<PowerIntent, LintError> {
    let gates = netlist.gate_count().max(1);
    let peak = Amps(PEAK_CURRENT_PER_GATE.0 * gates as f64);
    let sleep = SleepSpec::sized_for_penalty(
        DEFAULT_LOW_VT,
        DEFAULT_HIGH_VT,
        DEFAULT_VDD,
        peak,
        DEFAULT_SIZING_PENALTY,
    )?;
    Ok(PowerIntent::single(
        PowerDomain {
            name: "core".to_string(),
            kind: DomainKind::Gated { sleep },
            body: None,
        },
        netlist,
    ))
}

/// The five standard datapaths (`adder`, `shifter`, `multiplier`,
/// `alu`, `registers`) as lint targets, each annotated with the default
/// gated power intent. These are the designs the CI lint-gate requires
/// to be clean.
///
/// # Errors
///
/// Returns [`LintError::Circuit`] if a generator rejects `width`, or
/// [`LintError::Core`] if sleep sizing fails.
pub fn standard_lint_targets(width: usize) -> Result<Vec<LintTarget>, LintError> {
    let mut out = Vec::with_capacity(5);
    for circuit in standard_targets(width)? {
        let mut t = LintTarget::new(circuit);
        t.intent = Some(default_gated_intent(&t.circuit.netlist)?);
        out.push(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_targets_carry_gated_intent() {
        let targets = standard_lint_targets(4).expect("generators accept width 4");
        assert_eq!(targets.len(), 5);
        for t in &targets {
            let intent = t.intent.as_ref().expect("intent attached");
            assert_eq!(intent.assignment.len(), t.circuit.netlist.gate_count());
            match &intent.domains[0].kind {
                DomainKind::Gated { sleep } => {
                    assert!(sleep.width.0 > 0.0);
                    assert!(sleep.high_vt > sleep.low_vt);
                }
                DomainKind::AlwaysOn { .. } => panic!("default intent must be gated"),
            }
        }
    }

    #[test]
    fn invalid_width_is_a_circuit_error() {
        assert!(matches!(
            standard_lint_targets(0),
            Err(LintError::Circuit(_))
        ));
    }
}
