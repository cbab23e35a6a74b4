//! Error type for netlist construction and simulation — the circuit
//! layer's failure-mode catalogue.
//!
//! Every way a netlist build, a gate-level simulation, or a switch-level
//! simulation can fail maps to one variant here; library code never
//! panics on these paths. The watchdog variants distinguish *diagnosed*
//! failures (a genuine oscillation with a measured period, a floating
//! dynamic node) from *resource* failures (an exhausted event budget),
//! so callers can tell "your circuit is broken like this" apart from
//! "the simulator gave up".

use std::error::Error;
use std::fmt;

/// Error returned by netlist construction and simulation operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// A gate was created with the wrong number of inputs for its kind.
    ArityMismatch {
        /// The gate kind's name.
        kind: &'static str,
        /// Expected input count.
        expected: usize,
        /// Supplied input count.
        got: usize,
    },
    /// A node id does not belong to the netlist.
    UnknownNode(usize),
    /// A gate id does not belong to the netlist.
    UnknownGate(usize),
    /// The simulation exceeded its event budget without settling and
    /// without the oscillation watchdog finding a repeating state —
    /// a resource limit, not a diagnosis.
    DidNotSettle {
        /// The budget that was exhausted.
        event_budget: usize,
    },
    /// The oscillation watchdog caught the circuit revisiting an earlier
    /// simulation state: a genuine combinational oscillation.
    Oscillation {
        /// Number of events between the repeated states.
        period_events: usize,
        /// Names of nodes still switching when the cycle was detected
        /// (capped to a handful for readability).
        ringing: Vec<String>,
    },
    /// The switch-level relaxation revisited an earlier network state
    /// without reaching a fixed point: an astable transistor structure.
    SwitchOscillation {
        /// Number of relaxation passes between the repeated states.
        period_passes: usize,
    },
    /// The switch-level relaxation ran out of passes without either
    /// converging or provably cycling.
    NonConvergent {
        /// The pass budget that was exhausted.
        passes: usize,
    },
    /// A node was left floating (no conducting or potentially conducting
    /// path to any driver) while the floating-node watchdog was armed —
    /// the MTCMOS sleep-transistor hazard.
    FloatingNode {
        /// Name of the floating node.
        node: String,
    },
    /// A switch-level node that is not an input was driven externally.
    NotAnInput {
        /// Name of the node.
        node: String,
    },
    /// A bus/vector width did not match the node list it was applied to.
    WidthMismatch {
        /// What was being widened/applied.
        what: &'static str,
        /// Expected width.
        expected: usize,
        /// Supplied width.
        got: usize,
    },
    /// A stimulus or measurement request was malformed.
    InvalidStimulus {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A datapath generator was asked for an unsupported width.
    InvalidWidth {
        /// The rejected width.
        width: usize,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// A numeric parameter is outside its meaningful range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// A gate kind has no combinational switch-level lowering (sequential
    /// cells are built from the switch-register library instead of being
    /// lowered structurally).
    NoSwitchLowering {
        /// Name of the kind that cannot be lowered.
        kind: &'static str,
    },
    /// Settling was abandoned because the run's cooperative cancellation
    /// token fired (per-item deadline exceeded or cancelled by the
    /// caller) — a scheduling decision by the fault-tolerant execution
    /// layer, not a property of the circuit.
    Cancelled {
        /// Progress made before cancellation was observed: events
        /// applied at gate level, relaxation passes at switch level.
        after_events: usize,
    },
    /// An internal invariant broke. Reaching this indicates a bug in the
    /// simulator, not in the caller's circuit; it is still reported as a
    /// typed error so library paths never panic.
    Internal {
        /// What broke.
        detail: &'static str,
    },
    /// The netlist cannot be compiled into a levelized bit-parallel form
    /// (combinational cycle, register-to-register feedback, or a fault
    /// kind the packed evaluator does not model). Callers should fall
    /// back to the event-driven engine.
    Unlevelizable {
        /// Why levelization was refused.
        reason: &'static str,
    },
    /// The netlist (or netlist/campaign pairing) has **several**
    /// structures only the event-driven engine can simulate. Each entry
    /// names one offending structure — multiply-driven nodes, driven
    /// primary inputs, cycle members, gated clocks, register feedback,
    /// bridge faults — so a netlist can be fixed in a single pass
    /// instead of one refusal at a time. A single offending structure is
    /// still reported as [`CircuitError::Unlevelizable`].
    UnlevelizableMany {
        /// One named reason per unsupported structure found.
        reasons: Vec<String>,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::ArityMismatch {
                kind,
                expected,
                got,
            } => write!(f, "{kind} gate expects {expected} inputs, got {got}"),
            CircuitError::UnknownNode(id) => write!(f, "node id {id} is not in this netlist"),
            CircuitError::UnknownGate(id) => write!(f, "gate id {id} is not in this netlist"),
            CircuitError::DidNotSettle { event_budget } => write!(
                f,
                "simulation did not settle within {event_budget} events (no repeating state found; \
                 raise the budget or check for slow-converging feedback)"
            ),
            CircuitError::Oscillation {
                period_events,
                ringing,
            } => {
                write!(
                    f,
                    "combinational oscillation: simulation state repeats every {period_events} events"
                )?;
                if !ringing.is_empty() {
                    write!(f, " (ringing nodes: {})", ringing.join(", "))?;
                }
                Ok(())
            }
            CircuitError::SwitchOscillation { period_passes } => write!(
                f,
                "astable switch network: relaxation state repeats every {period_passes} passes"
            ),
            CircuitError::NonConvergent { passes } => write!(
                f,
                "switch network failed to converge within {passes} relaxation passes"
            ),
            CircuitError::FloatingNode { node } => write!(
                f,
                "node '{node}' is floating: no possible path to any driver \
                 (sleep transistor off? missing keeper?)"
            ),
            CircuitError::NotAnInput { node } => {
                write!(
                    f,
                    "node '{node}' is not an input and cannot be driven externally"
                )
            }
            CircuitError::WidthMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected width {expected}, got {got}"),
            CircuitError::InvalidStimulus { reason } => write!(f, "invalid stimulus: {reason}"),
            CircuitError::InvalidWidth { width, constraint } => {
                write!(f, "invalid datapath width {width}: {constraint}")
            }
            CircuitError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "invalid parameter {name} = {value}: {constraint}"),
            CircuitError::NoSwitchLowering { kind } => write!(
                f,
                "gate kind {kind} has no switch-level lowering (combinational kinds only; \
                 build sequential cells from the switch-register library)"
            ),
            CircuitError::Cancelled { after_events } => write!(
                f,
                "simulation cancelled by its deadline/cancellation token after {after_events} \
                 events or passes"
            ),
            CircuitError::Internal { detail } => {
                write!(f, "internal simulator invariant violated: {detail}")
            }
            CircuitError::Unlevelizable { reason } => write!(
                f,
                "netlist cannot be levelized for the compiled engine: {reason} \
                 (use the event-driven engine instead)"
            ),
            CircuitError::UnlevelizableMany { reasons } => write!(
                f,
                "netlist cannot be levelized for the compiled engine: {} issues: {} \
                 (use the event-driven engine instead)",
                reasons.len(),
                reasons.join("; ")
            ),
        }
    }
}

impl Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = CircuitError::ArityMismatch {
            kind: "nand2",
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("nand2"));
        assert!(CircuitError::UnknownNode(7).to_string().contains('7'));
        assert!(CircuitError::DidNotSettle { event_budget: 10 }
            .to_string()
            .contains("10"));
        assert!(CircuitError::InvalidWidth {
            width: 0,
            constraint: "must be positive"
        }
        .to_string()
        .contains("positive"));
    }

    #[test]
    fn watchdog_messages_name_the_diagnosis() {
        let e = CircuitError::Oscillation {
            period_events: 6,
            ringing: vec!["loop".into(), "not_1".into()],
        };
        let s = e.to_string();
        assert!(s.contains("every 6 events"));
        assert!(s.contains("loop"));
        assert!(CircuitError::FloatingNode {
            node: "virtual_gnd".into()
        }
        .to_string()
        .contains("virtual_gnd"));
        assert!(CircuitError::SwitchOscillation { period_passes: 2 }
            .to_string()
            .contains("2 passes"));
        assert!(CircuitError::NonConvergent { passes: 200 }
            .to_string()
            .contains("200"));
    }

    #[test]
    fn misuse_messages_are_precise() {
        let e = CircuitError::WidthMismatch {
            what: "set_bus",
            expected: 8,
            got: 7,
        };
        assert!(e.to_string().contains("set_bus"));
        assert!(CircuitError::NotAnInput { node: "y".into() }
            .to_string()
            .contains('y'));
        assert!(CircuitError::InvalidParameter {
            name: "duty",
            value: 1.5,
            constraint: "must lie in [0, 1]"
        }
        .to_string()
        .contains("duty"));
        assert_eq!(
            CircuitError::Internal { detail: "x" }.to_string(),
            "internal simulator invariant violated: x"
        );
        assert!(CircuitError::Unlevelizable {
            reason: "combinational cycle"
        }
        .to_string()
        .contains("combinational cycle"));
    }

    #[test]
    fn multi_reason_refusals_name_every_structure() {
        let e = CircuitError::UnlevelizableMany {
            reasons: vec![
                "node 'x' is driven by more than one gate".into(),
                "combinational cycle through node 'fb'".into(),
            ],
        };
        let s = e.to_string();
        assert!(s.contains("2 issues"));
        assert!(s.contains("node 'x'"));
        assert!(s.contains("node 'fb'"));
    }
}
