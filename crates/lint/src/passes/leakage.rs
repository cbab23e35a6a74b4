//! Static leakage bounds (LV030): prices each power domain's worst-case
//! standby leakage with the paper's Eq. 2 sub-threshold device model and
//! the Eq. 3/4 leakage-width convention
//! (`lowvolt_core::energy::LEAK_WIDTH_PER_GATE_UM`), then compares it to
//! the configured budget.
//!
//! - An **always-on** domain leaks through its full logic width at the
//!   logic `V_T` — the scenario Fig. 5 warns about when `V_T` is scaled
//!   down for speed.
//! - A **gated** domain in standby leaks only through its high-`V_T`
//!   sleep device (the series header limits the path), so the bound is
//!   that device's off-current at its sized width.
//!
//! Domains without power intent are not priced: leakage is a function
//! of `V_T`, and without intent there is no declared threshold to
//! price. Attach intent (see `standard_lint_targets`) to opt in.

use lowvolt_core::energy::LEAK_WIDTH_PER_GATE_UM;
use lowvolt_core::power::leakage_power;
use lowvolt_device::mosfet::Mosfet;
use lowvolt_device::units::{Micrometers, Watts};

use crate::config::LintConfig;
use crate::diagnostic::{Diagnostic, Location, Rule, Severity};
use crate::intent::DomainKind;
use crate::target::LintTarget;

/// Runs the leakage pass.
#[must_use]
pub fn run(target: &LintTarget, config: &LintConfig) -> Vec<Diagnostic> {
    let Some(intent) = &target.intent else {
        return Vec::new();
    };
    let mut diags = Vec::new();

    // Gate population per domain, from the assignment table (entries the
    // intent-shape check flags as malformed simply don't count here).
    let mut population = vec![0usize; intent.domains.len()];
    for gi in 0..target.circuit.netlist.gate_count() {
        if let Some((id, _)) = intent.domain_of(gi) {
            population[id.0] += 1;
        }
    }

    for (idx, domain) in intent.domains.iter().enumerate() {
        let gates = population[idx];
        let (standby, vdd, path) = match &domain.kind {
            DomainKind::AlwaysOn { logic_vt, vdd } => {
                let width = Micrometers(LEAK_WIDTH_PER_GATE_UM * gates as f64);
                if width.0 <= 0.0 {
                    continue;
                }
                let leak = Mosfet::nmos_with_vt(*logic_vt)
                    .with_width(width)
                    .off_current(*vdd);
                (
                    leakage_power(leak, *vdd),
                    *vdd,
                    format!("{gates} gate(s), {width} of leaking width at V_T {logic_vt}"),
                )
            }
            DomainKind::Gated { sleep } => {
                let leak = Mosfet::nmos_with_vt(sleep.high_vt)
                    .with_width(sleep.width)
                    .off_current(sleep.vdd);
                (
                    leakage_power(leak, sleep.vdd),
                    sleep.vdd,
                    format!(
                        "series sleep device, {} at V_T {}",
                        sleep.width, sleep.high_vt
                    ),
                )
            }
        };
        let budget = config.standby_budget;
        let warn_at = Watts(budget.0 * config.leakage_warn_fraction);
        let loc = Location::Domain {
            name: domain.name.clone(),
        };
        if standby > budget {
            diags.push(Diagnostic::new(
                Rule::LeakageBudget,
                loc,
                format!(
                    "worst-case standby leakage {} exceeds the {budget} budget at V_DD {vdd} \
                     ({path})",
                    standby
                ),
                "raise V_T, power-gate the domain with a high-V_T sleep device, or raise the \
                 budget"
                    .to_string(),
            ));
        } else if standby > warn_at {
            diags.push(
                Diagnostic::new(
                    Rule::LeakageBudget,
                    loc,
                    format!(
                        "standby leakage {} is within budget but over {:.0}% of it ({path})",
                        standby,
                        config.leakage_warn_fraction * 100.0
                    ),
                    "headroom is thin; consider a higher V_T or power gating before scaling \
                     the block up"
                        .to_string(),
                )
                .with_severity(Severity::Warning),
            );
        }
    }
    diags
}
