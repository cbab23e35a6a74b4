//! Acceptance tests for the lint engine: the five standard datapaths
//! must be clean (zero false positives), every seeded-defect fixture
//! must be caught by its pass family, filters and gating behave as the
//! CLI relies on, and results are identical under any thread count.

use lowvolt_circuit::netlist::GateKind;
use lowvolt_exec::ExecPolicy;
use lowvolt_lint::{seeded_defect, standard_lint_targets, Defect, LintConfig, Linter, Rule};
use lowvolt_obs::json::Json;
use lowvolt_obs::noop;

fn rules_of(report: &lowvolt_lint::LintReport) -> Vec<Rule> {
    report.diagnostics.iter().map(|d| d.rule).collect()
}

#[test]
fn standard_datapaths_lint_clean() {
    let linter = Linter::with_defaults();
    for target in standard_lint_targets(8).expect("standard targets build") {
        let report = linter.lint(&target);
        assert!(
            report.is_clean(),
            "false positive(s) on {}:\n{report}",
            target.circuit.name
        );
        assert!(report.passes_gate(true));
    }
}

#[test]
fn floating_node_fixture_is_caught_by_structural_and_xreach() {
    let target = seeded_defect(Defect::FloatingNode).expect("fixture");
    let report = Linter::with_defaults().lint(&target);
    let rules = rules_of(&report);
    assert!(rules.contains(&Rule::FloatingNode), "{report}");
    assert!(rules.contains(&Rule::XContamination), "{report}");
    assert!(report.errors() >= 1);
    assert!(!report.passes_gate(false));
    // The defect is precisely located: the floating diagnostic names the
    // seeded net.
    let float = report
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::FloatingNode)
        .expect("LV001 present");
    assert!(float.location.to_string().contains("float_net"), "{float}");
}

#[test]
fn combinational_loop_fixture_is_caught() {
    let target = seeded_defect(Defect::CombinationalLoop).expect("fixture");
    let report = Linter::with_defaults().lint(&target);
    let rules = rules_of(&report);
    assert!(rules.contains(&Rule::CombinationalLoop), "{report}");
    assert!(!report.passes_gate(false));
    // The loop is the only defect: no structural false positives ride
    // along.
    assert!(
        rules.iter().all(|r| *r == Rule::CombinationalLoop),
        "unexpected extra findings: {report}"
    );
}

#[test]
fn incomplete_sleep_fixture_is_caught_with_bypass_localised() {
    let target = seeded_defect(Defect::IncompleteSleep).expect("fixture");
    let report = Linter::with_defaults().lint(&target);
    let rules = rules_of(&report);
    assert!(rules.contains(&Rule::IncompleteSleepCutoff), "{report}");
    assert!(rules.contains(&Rule::SleepBypass), "{report}");
    // Only the inverter wired past the header is flagged; the properly
    // gated one is not.
    let bypasses: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::SleepBypass)
        .collect();
    assert_eq!(bypasses.len(), 1, "{report}");
    assert!(bypasses[0].location.to_string().contains("y2"));
}

#[test]
fn leakage_budget_fixture_is_caught() {
    let target = seeded_defect(Defect::LeakageBudget).expect("fixture");
    let report = Linter::with_defaults().lint(&target);
    assert!(rules_of(&report).contains(&Rule::LeakageBudget), "{report}");
    assert!(report.errors() >= 1, "over-budget must be an error");
    // Raising the budget three orders of magnitude clears the finding —
    // the check responds to configuration, not hard-coded numbers.
    let generous = LintConfig::default().with_standby_budget(lowvolt_device::units::Watts(1e-3));
    let report = Linter::new(generous).lint(&target);
    assert!(
        !rules_of(&report).contains(&Rule::LeakageBudget),
        "{report}"
    );
}

#[test]
fn csr_cache_is_invalidated_by_mutation_between_lints() {
    // Lint once (builds and caches the CSR fanout index), mutate the
    // netlist, lint again: the second run must see the new adjacency,
    // proving every mutating method cleared the OnceLock cache.
    let mut targets = standard_lint_targets(8).expect("targets");
    let mut target = targets.remove(0);
    let linter = Linter::with_defaults();
    assert!(linter.lint(&target).is_clean());

    let float = target.circuit.netlist.node("late_float");
    let sum0 = target.circuit.outputs[0];
    let bad = target
        .circuit
        .netlist
        .gate(GateKind::Xor2, &[sum0, float])
        .expect("gate");
    target.circuit.outputs.push(bad);

    let report = linter.lint(&target);
    let rules = rules_of(&report);
    assert!(
        rules.contains(&Rule::FloatingNode),
        "stale fanout index: mutation invisible to re-lint\n{report}"
    );
    // The gate count changed under the intent, which the shape check
    // must also notice on the fresh views.
    assert!(rules.contains(&Rule::MalformedIntent), "{report}");
}

#[test]
fn allow_and_deny_filters_compose() {
    let target = seeded_defect(Defect::FloatingNode).expect("fixture");

    let allowed = LintConfig::default()
        .allow_named("LV001")
        .expect("valid rule");
    let report = Linter::new(allowed).lint(&target);
    let rules = rules_of(&report);
    assert!(!rules.contains(&Rule::FloatingNode));
    assert!(rules.contains(&Rule::XContamination), "{report}");

    let denied = LintConfig::default()
        .deny_named("x-contamination")
        .expect("valid rule");
    let report = Linter::new(denied).lint(&target);
    let xc = report
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::XContamination)
        .expect("LV010 present");
    assert_eq!(xc.severity, lowvolt_lint::Severity::Error);
}

#[test]
fn deny_warnings_gates_warning_only_reports() {
    // A driven-but-unused node is only a warning (LV003): the report
    // passes the default gate but fails under --deny warnings.
    let mut targets = standard_lint_targets(8).expect("targets");
    let mut target = targets.remove(0);
    let sum0 = target.circuit.outputs[0];
    target
        .circuit
        .netlist
        .gate(GateKind::Buf, &[sum0])
        .expect("dead buffer");
    // Keep the intent consistent with the mutated netlist.
    target.intent =
        Some(lowvolt_lint::target::default_gated_intent(&target.circuit.netlist).expect("intent"));

    let report = Linter::with_defaults().lint(&target);
    assert_eq!(report.errors(), 0, "{report}");
    assert!(report.warnings() >= 1, "{report}");
    assert!(report.passes_gate(false));
    assert!(!report.passes_gate(true));
}

#[test]
fn json_rendering_is_structured() {
    let target = seeded_defect(Defect::IncompleteSleep).expect("fixture");
    let report = Linter::with_defaults().lint(&target);
    let json = report.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    let v = Json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
    assert_eq!(v.get("target").and_then(Json::as_str), Some("adder8+sleep"));
    let diagnostics = v.get("diagnostics").and_then(Json::as_array).expect("list");
    let field = |d: &Json, key: &str| d.get(key).and_then(Json::as_str).map(str::to_string);
    let rules: Vec<String> = diagnostics
        .iter()
        .filter_map(|d| field(d, "rule"))
        .collect();
    let expected: Vec<&str> = rules_of(&report).iter().map(|r| r.id()).collect();
    assert_eq!(rules, expected, "one object per finding, in order");
    for id in ["LV020", "LV026"] {
        assert!(rules.iter().any(|r| r == id), "missing {id} in {json}");
    }
    let has = |key: &str, value: &str| {
        diagnostics
            .iter()
            .any(|d| field(d, key).as_deref() == Some(value))
    };
    assert!(has("pass", "power-intent"), "{json}");
    assert!(has("severity", "error"), "{json}");
    assert!(
        diagnostics.iter().all(|d| field(d, "hint").is_some()),
        "{json}"
    );
}

#[test]
fn reports_are_identical_across_thread_counts() {
    let linter = Linter::with_defaults();
    for defect in Defect::ALL {
        let target = seeded_defect(defect).expect("fixture");
        let serial = linter.lint_recorded(&ExecPolicy::serial(), noop(), &target);
        for threads in [2, 4, 8] {
            let parallel =
                linter.lint_recorded(&ExecPolicy::with_threads(threads), noop(), &target);
            assert_eq!(serial, parallel, "divergence at {threads} threads");
        }
    }
}

#[test]
fn lint_all_covers_every_target_in_order() {
    let targets = standard_lint_targets(8).expect("targets");
    let reports =
        Linter::with_defaults().lint_all_recorded(&ExecPolicy::with_threads(4), noop(), &targets);
    assert_eq!(reports.len(), targets.len());
    for (t, r) in targets.iter().zip(&reports) {
        assert_eq!(t.circuit.name, r.target);
        assert!(r.is_clean(), "{r}");
    }
}

#[test]
fn recorded_lint_flushes_counters_and_pass_spans() {
    use lowvolt_obs::{names, MetricsRegistry};

    let target = seeded_defect(Defect::IncompleteSleep).expect("fixture");
    let linter = Linter::with_defaults();

    let run = |threads: usize| {
        let reg = MetricsRegistry::new();
        let report = linter.lint_recorded(&ExecPolicy::with_threads(threads), &reg, &target);
        (reg.snapshot(), report)
    };

    let (snap, report) = run(1);
    assert_eq!(snap.counter(names::LINT_TARGETS), 1);
    assert_eq!(snap.counter(names::LINT_PASSES), 5);
    assert_eq!(
        snap.counter(names::LINT_DIAGNOSTICS),
        report.diagnostics.len() as u64
    );
    for pass in [
        "structural",
        "x-reachability",
        "power-intent",
        "leakage",
        "timing",
    ] {
        let name = format!("{}.{pass}", names::SPAN_LINT_PASS_PREFIX);
        assert!(snap.span(&name).is_some(), "missing span {name}");
    }

    // Counter totals are thread-invariant (exec.chunks excepted).
    let (snap4, _) = run(4);
    for &name in names::COUNTERS {
        if name == names::EXEC_CHUNKS {
            continue;
        }
        assert_eq!(snap.counter(name), snap4.counter(name), "counter {name}");
    }
}

#[test]
fn recorded_lint_all_covers_every_target() {
    use lowvolt_obs::{names, MetricsRegistry};

    let targets = standard_lint_targets(4).expect("targets");
    let reg = MetricsRegistry::new();
    let reports =
        Linter::with_defaults().lint_all_recorded(&ExecPolicy::with_threads(2), &reg, &targets);
    assert_eq!(reports.len(), targets.len());
    let snap = reg.snapshot();
    assert_eq!(snap.counter(names::LINT_TARGETS), targets.len() as u64);
    assert_eq!(snap.counter(names::LINT_PASSES), (5 * targets.len()) as u64);
}
