//! Seeded-defect fixtures: the adder datapath with one deliberate
//! defect per pass family. These are what the CI lint-gate runs with an
//! expectation of *failure*, and what the acceptance tests use to prove
//! each pass actually detects its defect class.

use lowvolt_circuit::netlist::GateKind;
use lowvolt_circuit::switchlevel::{SwKind, SwitchNetlist};
use lowvolt_device::units::Volts;

use crate::intent::{DomainKind, PowerDomain, PowerIntent, SleepSpec};
use crate::target::{default_gated_intent, standard_lint_targets, LintTarget, SwitchView};
use crate::LintError;

/// Which deliberate defect to seed into the adder datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// A floating net feeding logic that reaches a declared output
    /// (structural + X-reachability families: LV001, LV010).
    FloatingNode,
    /// A combinational feedback loop with no flip-flop (LV004).
    CombinationalLoop,
    /// A sleep network that cannot cut off, plus a switch-level pull-up
    /// that bypasses the sleep header (power-intent family: LV020,
    /// LV026).
    IncompleteSleep,
    /// An always-on low-`V_T` domain that blows the standby-leakage
    /// budget (LV030).
    LeakageBudget,
    /// An always-on domain run so close to threshold that every endpoint
    /// misses the required time (timing family: LV040).
    NegativeSlack,
}

impl Defect {
    /// All defects, one per pass family.
    pub const ALL: [Defect; 5] = [
        Defect::FloatingNode,
        Defect::CombinationalLoop,
        Defect::IncompleteSleep,
        Defect::LeakageBudget,
        Defect::NegativeSlack,
    ];

    /// CLI name of the defect.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Defect::FloatingNode => "floating",
            Defect::CombinationalLoop => "loop",
            Defect::IncompleteSleep => "sleep",
            Defect::LeakageBudget => "leakage",
            Defect::NegativeSlack => "slack",
        }
    }

    /// Parses a CLI defect name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Defect> {
        Defect::ALL
            .iter()
            .copied()
            .find(|d| d.name().eq_ignore_ascii_case(s.trim()))
    }
}

/// Builds the 8-bit adder datapath with the given defect seeded in.
///
/// # Errors
///
/// Returns [`LintError`] only if the underlying generators fail, which
/// the fixed parameters here do not provoke.
pub fn seeded_defect(defect: Defect) -> Result<LintTarget, LintError> {
    let mut targets = standard_lint_targets(8)?;
    // standard_lint_targets puts the adder first; take it by name so a
    // reordering there cannot silently change the fixture.
    let pos = targets
        .iter()
        .position(|t| t.circuit.name.starts_with("adder"))
        .unwrap_or(0);
    let mut target = targets.swap_remove(pos);
    target.circuit.name = format!("{}+{}", target.circuit.name, defect.name());

    match defect {
        Defect::FloatingNode => {
            // A net nobody drives, XORed into a new declared output: the
            // float is an LV001 error and the output it reaches is LV010.
            let c = &mut target.circuit;
            let float = c.netlist.node("float_net");
            let sum0 = c.outputs[0];
            let bad = c
                .netlist
                .gate(GateKind::Xor2, &[sum0, float])
                .map_err(LintError::Circuit)?;
            c.outputs.push(bad);
            // The new gate joins the gated domain like everything else.
            target.intent = Some(default_gated_intent(&target.circuit.netlist)?);
        }
        Defect::CombinationalLoop => {
            // sum[7] NAND fb -> y, and y buffered straight back into fb:
            // a two-node combinational cycle with no flip-flop.
            let n = &mut target.circuit.netlist;
            let sum_hi = target.circuit.outputs[7];
            let fb = n.node("fb");
            let y = n
                .gate(GateKind::Nand2, &[sum_hi, fb])
                .map_err(LintError::Circuit)?;
            n.gate_into(GateKind::Buf, &[y], fb)
                .map_err(LintError::Circuit)?;
            target.intent = Some(default_gated_intent(&target.circuit.netlist)?);
        }
        Defect::IncompleteSleep => {
            // Thresholds reversed: the "sleep" device turns off *less*
            // than the logic it gates, so standby current never stops.
            let sleep = SleepSpec {
                low_vt: Volts(0.30),
                high_vt: Volts(0.18),
                vdd: Volts(1.0),
                peak_current: lowvolt_device::units::Amps(2e-4),
                width: lowvolt_device::units::Micrometers(20.0),
            };
            target.intent = Some(PowerIntent::single(
                PowerDomain {
                    name: "core".to_string(),
                    kind: DomainKind::Gated { sleep },
                    body: None,
                },
                &target.circuit.netlist,
            ));
            target.switch_view = Some(bypassed_sleep_view()?);
        }
        Defect::LeakageBudget => {
            // The Fig. 5 trap: V_T scaled down to 50 mV for speed with no
            // power gating. ~40 gates of leaking width at that threshold
            // is microwatts of standby power, over the 1 µW default
            // budget.
            target.intent = Some(PowerIntent::single(
                PowerDomain {
                    name: "core".to_string(),
                    kind: DomainKind::AlwaysOn {
                        logic_vt: Volts(0.05),
                        vdd: Volts(1.0),
                    },
                    body: None,
                },
                &target.circuit.netlist,
            ));
        }
        Defect::NegativeSlack => {
            // Voltage scaled for energy with V_T left high: 30 mV of
            // overdrive makes every gate tens of times slower than at
            // the nominal point, so the whole datapath misses the
            // default required time — the slack side of the paper's
            // Figs. 3-4 trade-off.
            target.intent = Some(PowerIntent::single(
                PowerDomain {
                    name: "core".to_string(),
                    kind: DomainKind::AlwaysOn {
                        logic_vt: Volts(0.30),
                        vdd: Volts(0.33),
                    },
                    body: None,
                },
                &target.circuit.netlist,
            ));
        }
    }
    Ok(target)
}

/// A tiny switch-level power-gating fabric with a deliberate hole: two
/// inverters nominally on the virtual rail behind a PMOS sleep header,
/// but the second inverter's pull-up was wired to the real supply — a
/// sneak path the LV026 reachability check must find.
fn bypassed_sleep_view() -> Result<SwitchView, LintError> {
    let mut n = SwitchNetlist::new();
    let sleep_b = n.input("sleep_b");
    let vvdd = n.node("vvdd");
    let (vdd, gnd) = (n.vdd(), n.gnd());
    let header = n
        .transistor(SwKind::P, sleep_b, vdd, vvdd)
        .map_err(LintError::Circuit)?;

    let a1 = n.input("a1");
    let y1 = n.node("y1");
    n.transistor(SwKind::P, a1, vvdd, y1)
        .map_err(LintError::Circuit)?;
    n.transistor(SwKind::N, a1, y1, gnd)
        .map_err(LintError::Circuit)?;

    let a2 = n.input("a2");
    let y2 = n.node("y2");
    // The defect: pull-up tied to the real rail instead of vvdd.
    n.transistor(SwKind::P, a2, vdd, y2)
        .map_err(LintError::Circuit)?;
    n.transistor(SwKind::N, a2, y2, gnd)
        .map_err(LintError::Circuit)?;

    Ok(SwitchView {
        netlist: n,
        sleep_transistors: vec![header],
        gated_nodes: vec![y1, y2],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defect_names_round_trip() {
        for d in Defect::ALL {
            assert_eq!(Defect::parse(d.name()), Some(d));
            assert_eq!(Defect::parse(&d.name().to_uppercase()), Some(d));
        }
        assert_eq!(Defect::parse("nope"), None);
    }

    #[test]
    fn fixtures_build() {
        for d in Defect::ALL {
            let t = seeded_defect(d).expect("fixture builds");
            assert!(t.circuit.name.contains(d.name()));
        }
    }
}
