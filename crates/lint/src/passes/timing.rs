//! Slack-aware static timing (LV040, LV041): runs the zero-simulation
//! STA engine over the target with each gate priced at *its own power
//! domain's* operating point, then checks every endpoint against the
//! configured required time.
//!
//! - **LV040** fires on endpoints whose worst-path arrival misses the
//!   required time outright — including domains run so close to (or
//!   below) threshold that their gates effectively never switch.
//! - **LV041** fires when the base analysis meets timing but a second
//!   run with each gated domain's delays derated by its sized MTCMOS
//!   sleep-device penalty (`lowvolt_core::mtcmos`) no longer does: the
//!   sleep network as sized eats all the slack, so the sizing is
//!   slack-infeasible even though LV025's penalty ceiling is met.
//!
//! Unlevelizable netlists are skipped here — the structural pass owns
//! combinational loops and multi-driver reporting — as are targets with
//! no endpoints.

use lowvolt_core::mtcmos::MtcmosSizer;
use lowvolt_device::units::Seconds;
use lowvolt_sta::{
    analyze_priced, DelayPricer, StaConfig, StaError, StaReport, NOMINAL_VDD, NOMINAL_VT,
};

use crate::config::LintConfig;
use crate::diagnostic::{Diagnostic, Location, Rule};
use crate::intent::DomainKind;
use crate::target::LintTarget;

/// Runs the timing pass.
#[must_use]
pub fn run(target: &LintTarget, config: &LintConfig) -> Vec<Diagnostic> {
    let pricer = DelayPricer::paper_default();
    let sta_config = StaConfig::at(NOMINAL_VDD, NOMINAL_VT).with_required(config.timing_required);

    // Per-gate operating point from the gate's power domain; gates with
    // no intent (or a malformed assignment, which LV024 reports) price
    // at the toolkit-wide nominal point.
    let base = analyze(target, sta_config, &|gi, fanout| {
        let (vdd, vt) = match target.intent.as_ref().and_then(|i| i.domain_of(gi)) {
            Some((_, d)) => match &d.kind {
                DomainKind::AlwaysOn { logic_vt, vdd } => (*vdd, *logic_vt),
                DomainKind::Gated { sleep } => (sleep.vdd, sleep.low_vt),
            },
            None => (NOMINAL_VDD, NOMINAL_VT),
        };
        pricer.delay(vdd, vt, fanout)
    });
    let Some(base) = base else {
        return Vec::new();
    };

    let mut diags = Vec::new();
    let mut base_clean = true;
    for ep in &base.endpoints {
        if ep.slack.0 >= 0.0 {
            continue;
        }
        base_clean = false;
        let message = if ep.arrival.0.is_finite() {
            format!(
                "worst path ({} gates from '{}') arrives at {} against a required time of {} \
                 (slack {})",
                ep.depth,
                base.node_name(ep.startpoint),
                fmt_ps(ep.arrival),
                fmt_ps(ep.required),
                fmt_ps(ep.slack)
            )
        } else {
            format!(
                "endpoint is unreachable: its domain operates with V_DD at or below V_T, so the \
                 worst path ({} gates from '{}') never settles",
                ep.depth,
                base.node_name(ep.startpoint)
            )
        };
        diags.push(Diagnostic::new(
            Rule::NegativeSlack,
            Location::Node {
                index: ep.node,
                name: base.node_name(ep.node).to_owned(),
            },
            message,
            "raise the domain's V_DD, lower its V_T along the iso-delay contour (paper Figs. \
             3-4), or relax the required time"
                .to_string(),
        ));
    }

    // LV041 only makes sense when the base point meets timing and at
    // least one gated domain carries a finite, non-zero delay penalty.
    if !base_clean {
        return diags;
    }
    let Some(intent) = &target.intent else {
        return diags;
    };
    let mut penalty = vec![0.0f64; intent.domains.len()];
    let mut any_penalty = false;
    for (idx, domain) in intent.domains.iter().enumerate() {
        if let DomainKind::Gated { sleep } = &domain.kind {
            // Infeasible sizer parameters are LV020's finding; an
            // infinite penalty (rail collapse) is LV025's. Both derate
            // runs would only double-report, so they price as zero here.
            if let Ok(sizer) =
                MtcmosSizer::new(sleep.peak_current, sleep.vdd, sleep.low_vt, sleep.high_vt)
            {
                let p = sizer.delay_penalty(sleep.width);
                if p.is_finite() && p > 0.0 {
                    penalty[idx] = p;
                    any_penalty = true;
                }
            }
        }
    }
    if !any_penalty {
        return diags;
    }

    let derated = analyze(target, sta_config, &|gi, fanout| {
        let (vdd, vt, factor) = match intent.domain_of(gi) {
            Some((id, d)) => match &d.kind {
                DomainKind::AlwaysOn { logic_vt, vdd } => (*vdd, *logic_vt, 1.0),
                DomainKind::Gated { sleep } => (sleep.vdd, sleep.low_vt, 1.0 + penalty[id.0]),
            },
            None => (NOMINAL_VDD, NOMINAL_VT, 1.0),
        };
        let d = pricer.delay(vdd, vt, fanout)?;
        Ok(Seconds(d.0 * factor))
    });
    let Some(derated) = derated else {
        return diags;
    };
    for ep in &derated.endpoints {
        if ep.slack.0 >= 0.0 {
            continue;
        }
        diags.push(Diagnostic::new(
            Rule::SlackInfeasibleSleep,
            Location::Node {
                index: ep.node,
                name: derated.node_name(ep.node).to_owned(),
            },
            format!(
                "meets timing without power gating, but the sized sleep device's active-delay \
                 penalty pushes the worst path ({} gates from '{}') to {} against a required \
                 time of {} (slack {})",
                ep.depth,
                derated.node_name(ep.startpoint),
                fmt_ps(ep.arrival),
                fmt_ps(ep.required),
                fmt_ps(ep.slack)
            ),
            "widen the sleep transistor (trading standby leakage for delay, paper §4) or relax \
             the required time"
                .to_string(),
        ));
    }
    diags
}

/// Runs the STA engine, mapping "not a timing problem" errors to `None`:
/// unlevelizable netlists belong to the structural pass and endpoint-free
/// netlists constrain nothing.
fn analyze(
    target: &LintTarget,
    config: StaConfig,
    price: &dyn Fn(usize, usize) -> Result<Seconds, StaError>,
) -> Option<StaReport> {
    analyze_priced(
        lowvolt_obs::noop(),
        &target.circuit.name,
        &target.circuit.netlist,
        &target.circuit.outputs,
        config,
        price,
    )
    .ok()
}

/// `123.456 ps` for finite values; diagnostics never print raw `inf`.
fn fmt_ps(s: Seconds) -> String {
    if s.0.is_finite() {
        format!("{:.3} ps", s.0 * 1e12)
    } else {
        "unreachable".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::{PowerDomain, PowerIntent, SleepSpec};
    use crate::target::standard_lint_targets;
    use lowvolt_device::units::{Amps, Volts};

    #[test]
    fn standard_datapaths_meet_the_default_required_time() {
        for t in standard_lint_targets(8).expect("targets build") {
            let diags = run(&t, &LintConfig::default());
            assert!(diags.is_empty(), "{}: {:?}", t.circuit.name, diags);
        }
    }

    #[test]
    fn near_threshold_domain_fires_lv040() {
        let mut targets = standard_lint_targets(8).expect("targets build");
        let mut t = targets.swap_remove(0);
        t.intent = Some(PowerIntent::single(
            PowerDomain {
                name: "slow".to_string(),
                kind: DomainKind::AlwaysOn {
                    logic_vt: Volts(0.30),
                    vdd: Volts(0.33),
                },
                body: None,
            },
            &t.circuit.netlist,
        ));
        let diags = run(&t, &LintConfig::default());
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.rule == Rule::NegativeSlack));
    }

    #[test]
    fn subthreshold_domain_reports_unreachable_endpoints() {
        let mut targets = standard_lint_targets(8).expect("targets build");
        let mut t = targets.swap_remove(0);
        t.intent = Some(PowerIntent::single(
            PowerDomain {
                name: "dead".to_string(),
                kind: DomainKind::AlwaysOn {
                    logic_vt: Volts(0.40),
                    vdd: Volts(0.35),
                },
                body: None,
            },
            &t.circuit.netlist,
        ));
        let diags = run(&t, &LintConfig::default());
        assert!(!diags.is_empty());
        assert!(diags[0].message.contains("unreachable"));
    }

    #[test]
    fn undersized_sleep_that_eats_the_slack_fires_lv041() {
        let mut targets = standard_lint_targets(8).expect("targets build");
        let mut t = targets.swap_remove(0);
        // Find the required time that leaves ~2% of headroom over the
        // penalty-free critical path, then attach a sleep device whose
        // penalty is far larger than that headroom (but still finite).
        let pricer = DelayPricer::paper_default();
        let base = analyze(&t, StaConfig::at(NOMINAL_VDD, NOMINAL_VT), &|_, fanout| {
            pricer.delay(NOMINAL_VDD, NOMINAL_VT, fanout)
        })
        .expect("analyzable");
        let sleep =
            SleepSpec::sized_for_penalty(Volts(0.2), Volts(0.55), Volts(1.0), Amps(2e-4), 0.05)
                .expect("feasible sizing");
        let sizer = MtcmosSizer::new(sleep.peak_current, sleep.vdd, sleep.low_vt, sleep.high_vt)
            .expect("feasible sizer");
        let penalty = sizer.delay_penalty(sleep.width);
        assert!(penalty.is_finite() && penalty > 0.02, "penalty {penalty}");
        t.intent = Some(PowerIntent::single(
            PowerDomain {
                name: "gated".to_string(),
                kind: DomainKind::Gated { sleep },
                body: None,
            },
            &t.circuit.netlist,
        ));
        let config = LintConfig::default().with_timing_required(Seconds(base.critical.0 * 1.02));
        let diags = run(&t, &config);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.rule == Rule::SlackInfeasibleSleep));
    }

    #[test]
    fn unlevelizable_targets_are_left_to_the_structural_pass() {
        let t = crate::fixtures::seeded_defect(crate::fixtures::Defect::CombinationalLoop)
            .expect("fixture builds");
        assert!(run(&t, &LintConfig::default()).is_empty());
    }
}
