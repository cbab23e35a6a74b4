//! Structured lint findings: severities, stable rule identifiers,
//! netlist locations, and the [`LintReport`] container with human-text
//! and JSON rendering.

use lowvolt_obs::json::quote;
use std::fmt;
use std::fmt::Write as _;

/// How serious a finding is. Ordered so that `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Purely informational; never fails a gate.
    Info,
    /// Suspicious but not necessarily broken; fails a gate only under
    /// `--deny warnings`.
    Warning,
    /// A defect; always fails the gate.
    Error,
}

impl Severity {
    /// Lower-case label used in text and JSON output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The five analysis pass families. Passes are independent and run in
/// parallel under an `ExecPolicy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pass {
    /// Structural design-rule checks over the gate-level netlist.
    Structural,
    /// Forward X-contamination reachability from unconstrained sources.
    XReachability,
    /// MTCMOS sleep-network, isolation, and body-bias consistency.
    PowerIntent,
    /// Worst-case standby leakage vs. the configured budget.
    Leakage,
    /// Slack-aware static timing at each domain's operating point.
    Timing,
}

impl Pass {
    /// All passes, in the order the engine schedules them.
    pub const ALL: [Pass; 5] = [
        Pass::Structural,
        Pass::XReachability,
        Pass::PowerIntent,
        Pass::Leakage,
        Pass::Timing,
    ];

    /// Short kebab-case name used in output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Pass::Structural => "structural",
            Pass::XReachability => "x-reachability",
            Pass::PowerIntent => "power-intent",
            Pass::Leakage => "leakage",
            Pass::Timing => "timing",
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable rule identifiers. The numeric id (`LVnnn`) never changes once
/// published; the kebab-case name is the human alias accepted by
/// `--allow` / `--deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// LV001: a used node with no driver and no primary-input declaration.
    FloatingNode,
    /// LV002: a node driven by more than one gate (or a driven primary input).
    MultipleDrivers,
    /// LV003: a driven node that nothing consumes and no output declares.
    DanglingOutput,
    /// LV004: a combinational cycle (not broken by any flip-flop).
    CombinationalLoop,
    /// LV010: a declared output reachable from an X-producing source.
    XContamination,
    /// LV011: a primary input not covered by the target's stimulus contract.
    UnconstrainedInput,
    /// LV020: a gated domain whose sleep device cannot cut off.
    IncompleteSleepCutoff,
    /// LV021: an always-on gate consuming a gated-domain output without isolation.
    MissingIsolation,
    /// LV022: two domains demand conflicting body biases on one shared rail.
    BodyBiasConflict,
    /// LV023: a body-bias domain needs more reverse bias than its rail allows.
    ExcessiveBodyBias,
    /// LV024: power intent that does not match the netlist it annotates.
    MalformedIntent,
    /// LV025: a sleep device sized so small that the active-delay penalty
    /// exceeds the configured ceiling (or collapses the virtual rail).
    UndersizedSleepDevice,
    /// LV026: a switch-level conduction path from the supply that bypasses
    /// every sleep transistor.
    SleepBypass,
    /// LV030: standby leakage above the configured budget.
    LeakageBudget,
    /// LV040: an endpoint whose worst-path arrival exceeds the required
    /// time at its domain's operating point.
    NegativeSlack,
    /// LV041: timing that is met only without the MTCMOS sleep device's
    /// active-delay penalty — the sized sleep network eats all the slack.
    SlackInfeasibleSleep,
}

impl Rule {
    /// Every rule, ordered by id.
    pub const ALL: [Rule; 16] = [
        Rule::FloatingNode,
        Rule::MultipleDrivers,
        Rule::DanglingOutput,
        Rule::CombinationalLoop,
        Rule::XContamination,
        Rule::UnconstrainedInput,
        Rule::IncompleteSleepCutoff,
        Rule::MissingIsolation,
        Rule::BodyBiasConflict,
        Rule::ExcessiveBodyBias,
        Rule::MalformedIntent,
        Rule::UndersizedSleepDevice,
        Rule::SleepBypass,
        Rule::LeakageBudget,
        Rule::NegativeSlack,
        Rule::SlackInfeasibleSleep,
    ];

    /// The stable `LVnnn` identifier.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::FloatingNode => "LV001",
            Rule::MultipleDrivers => "LV002",
            Rule::DanglingOutput => "LV003",
            Rule::CombinationalLoop => "LV004",
            Rule::XContamination => "LV010",
            Rule::UnconstrainedInput => "LV011",
            Rule::IncompleteSleepCutoff => "LV020",
            Rule::MissingIsolation => "LV021",
            Rule::BodyBiasConflict => "LV022",
            Rule::ExcessiveBodyBias => "LV023",
            Rule::MalformedIntent => "LV024",
            Rule::UndersizedSleepDevice => "LV025",
            Rule::SleepBypass => "LV026",
            Rule::LeakageBudget => "LV030",
            Rule::NegativeSlack => "LV040",
            Rule::SlackInfeasibleSleep => "LV041",
        }
    }

    /// The kebab-case alias accepted by CLI filters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::FloatingNode => "floating-node",
            Rule::MultipleDrivers => "multiple-drivers",
            Rule::DanglingOutput => "dangling-output",
            Rule::CombinationalLoop => "combinational-loop",
            Rule::XContamination => "x-contamination",
            Rule::UnconstrainedInput => "unconstrained-input",
            Rule::IncompleteSleepCutoff => "incomplete-sleep-cutoff",
            Rule::MissingIsolation => "missing-isolation",
            Rule::BodyBiasConflict => "body-bias-conflict",
            Rule::ExcessiveBodyBias => "excessive-body-bias",
            Rule::MalformedIntent => "malformed-intent",
            Rule::UndersizedSleepDevice => "undersized-sleep-device",
            Rule::SleepBypass => "sleep-bypass",
            Rule::LeakageBudget => "leakage-budget",
            Rule::NegativeSlack => "negative-slack",
            Rule::SlackInfeasibleSleep => "slack-infeasible-sleep",
        }
    }

    /// The pass family that emits this rule.
    #[must_use]
    pub fn pass(self) -> Pass {
        match self {
            Rule::FloatingNode
            | Rule::MultipleDrivers
            | Rule::DanglingOutput
            | Rule::CombinationalLoop => Pass::Structural,
            Rule::XContamination | Rule::UnconstrainedInput => Pass::XReachability,
            Rule::IncompleteSleepCutoff
            | Rule::MissingIsolation
            | Rule::BodyBiasConflict
            | Rule::ExcessiveBodyBias
            | Rule::MalformedIntent
            | Rule::UndersizedSleepDevice
            | Rule::SleepBypass => Pass::PowerIntent,
            Rule::LeakageBudget => Pass::Leakage,
            Rule::NegativeSlack | Rule::SlackInfeasibleSleep => Pass::Timing,
        }
    }

    /// The severity a finding of this rule carries unless escalated or
    /// downgraded by the emitting pass.
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            Rule::DanglingOutput
            | Rule::XContamination
            | Rule::UnconstrainedInput
            | Rule::UndersizedSleepDevice
            | Rule::SlackInfeasibleSleep => Severity::Warning,
            Rule::NegativeSlack
            | Rule::FloatingNode
            | Rule::MultipleDrivers
            | Rule::CombinationalLoop
            | Rule::IncompleteSleepCutoff
            | Rule::MissingIsolation
            | Rule::BodyBiasConflict
            | Rule::ExcessiveBodyBias
            | Rule::MalformedIntent
            | Rule::SleepBypass
            | Rule::LeakageBudget => Severity::Error,
        }
    }

    /// One-line description for the `--rules` catalog listing.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Rule::FloatingNode => "used node has no driver and is not a primary input",
            Rule::MultipleDrivers => "node is driven by more than one gate output",
            Rule::DanglingOutput => "driven node has no fanout and is not a declared output",
            Rule::CombinationalLoop => "combinational cycle not broken by a flip-flop",
            Rule::XContamination => "declared output reachable from an X-producing source",
            Rule::UnconstrainedInput => "primary input outside the target's stimulus contract",
            Rule::IncompleteSleepCutoff => {
                "gated domain's sleep device cannot cut off standby current"
            }
            Rule::MissingIsolation => {
                "always-on gate consumes a gated-domain output without isolation"
            }
            Rule::BodyBiasConflict => "domains sharing a body rail require conflicting biases",
            Rule::ExcessiveBodyBias => "required reverse body bias exceeds the rail limit",
            Rule::MalformedIntent => "power intent inconsistent with the annotated netlist",
            Rule::UndersizedSleepDevice => "sleep device too small: delay penalty over the ceiling",
            Rule::SleepBypass => "supply path bypasses every sleep transistor",
            Rule::LeakageBudget => "worst-case standby leakage exceeds the budget",
            Rule::NegativeSlack => {
                "endpoint misses the required time at its domain's operating point"
            }
            Rule::SlackInfeasibleSleep => {
                "timing met only without the sleep device's active-delay penalty"
            }
        }
    }

    /// Parses a rule from its `LVnnn` id or kebab-case name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim();
        Rule::ALL
            .iter()
            .copied()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id(), self.name())
    }
}

/// Where in the design a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Location {
    /// The design as a whole (e.g. a budget over the full netlist).
    Design,
    /// A specific net/node.
    Node {
        /// Node index within the netlist.
        index: usize,
        /// The node's debug name.
        name: String,
    },
    /// A specific gate, identified by its index and output net.
    Gate {
        /// Gate index within the netlist.
        index: usize,
        /// Gate kind name (e.g. `Nand2`).
        kind: String,
        /// Debug name of the gate's output node.
        output: String,
    },
    /// A power domain.
    Domain {
        /// The domain's name from the power intent.
        name: String,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Design => f.write_str("design"),
            Location::Node { index, name } => write!(f, "node {name} (#{index})"),
            Location::Gate {
                index,
                kind,
                output,
            } => write!(f, "gate #{index} {kind} -> {output}"),
            Location::Domain { name } => write!(f, "domain {name}"),
        }
    }
}

/// A single lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Severity after any engine-side escalation.
    pub severity: Severity,
    /// Where in the design the finding points.
    pub location: Location,
    /// What is wrong, with concrete values.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl Diagnostic {
    /// Builds a diagnostic at the rule's default severity.
    #[must_use]
    pub fn new(rule: Rule, location: Location, message: String, hint: String) -> Diagnostic {
        Diagnostic {
            rule,
            severity: rule.default_severity(),
            location,
            message,
            hint,
        }
    }

    /// Overrides the severity (used e.g. when an undersized sleep device
    /// collapses the rail outright).
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Diagnostic {
        self.severity = severity;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}: {}",
            self.severity,
            self.rule.id(),
            self.location,
            self.message
        )?;
        if !self.hint.is_empty() {
            write!(f, "\n    hint: {}", self.hint)?;
        }
        Ok(())
    }
}

/// The outcome of linting one target: all surviving diagnostics, sorted
/// by descending severity then rule id then location.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    /// Name of the linted target (e.g. `adder8`).
    pub target: String,
    /// Findings, sorted by the engine.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` when there are no findings at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether the report passes a CI gate: no errors, and no warnings
    /// either when `deny_warnings` is set.
    #[must_use]
    pub fn passes_gate(&self, deny_warnings: bool) -> bool {
        self.errors() == 0 && (!deny_warnings || self.warnings() == 0)
    }

    /// Renders the report as a compact JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.diagnostics.len() * 192);
        let _ = write!(
            out,
            "{{\"target\":{},\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            quote(&self.target),
            self.errors(),
            self.warnings()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"rule\":{},\"name\":{},\"pass\":{},\"severity\":{},\"location\":{},\"message\":{},\"hint\":{}}}",
                if i > 0 { "," } else { "" },
                quote(d.rule.id()),
                quote(d.rule.name()),
                quote(d.rule.pass().name()),
                quote(d.severity.label()),
                quote(&d.location.to_string()),
                quote(&d.message),
                quote(&d.hint)
            );
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "{}: clean", self.target);
        }
        writeln!(
            f,
            "{}: {} error(s), {} warning(s)",
            self.target,
            self.errors(),
            self.warnings()
        )?;
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvolt_obs::json::Json;

    #[test]
    fn rule_ids_are_unique_and_parse_round_trip() {
        let mut seen = std::collections::BTreeSet::new();
        for r in Rule::ALL {
            assert!(seen.insert(r.id()), "duplicate id {}", r.id());
            assert_eq!(Rule::parse(r.id()), Some(r));
            assert_eq!(Rule::parse(r.name()), Some(r));
            assert_eq!(Rule::parse(&r.id().to_lowercase()), Some(r));
        }
        assert_eq!(Rule::parse("LV999"), None);
        assert_eq!(Rule::parse(""), None);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_gate_semantics() {
        let warn = Diagnostic::new(
            Rule::DanglingOutput,
            Location::Design,
            "w".into(),
            String::new(),
        );
        let err = Diagnostic::new(
            Rule::FloatingNode,
            Location::Design,
            "e".into(),
            String::new(),
        );
        let clean = LintReport {
            target: "t".into(),
            diagnostics: vec![],
        };
        assert!(clean.is_clean() && clean.passes_gate(true));
        let warned = LintReport {
            target: "t".into(),
            diagnostics: vec![warn],
        };
        assert!(warned.passes_gate(false) && !warned.passes_gate(true));
        let errored = LintReport {
            target: "t".into(),
            diagnostics: vec![err],
        };
        assert!(!errored.passes_gate(false));
    }

    #[test]
    fn json_escapes_specials() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        for hostile in [
            "quo\"te",
            "back\\slash",
            controls.as_str(),
            "ünïcödé",
            "astral 𝄞😀\u{10FFFF}",
        ] {
            let rep = LintReport {
                target: hostile.into(),
                diagnostics: vec![Diagnostic::new(
                    Rule::LeakageBudget,
                    Location::Domain {
                        name: hostile.into(),
                    },
                    format!("over budget {hostile}"),
                    hostile.into(),
                )],
            };
            let json = rep.to_json();
            let v = Json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
            assert_eq!(v.get("target").and_then(Json::as_str), Some(hostile));
            assert_eq!(v.get("errors").and_then(Json::as_u64), Some(1));
            assert_eq!(v.get("warnings").and_then(Json::as_u64), Some(0));
            let d = &v.get("diagnostics").and_then(Json::as_array).unwrap()[0];
            let field = |k: &str| d.get(k).and_then(Json::as_str).unwrap().to_string();
            assert_eq!(field("rule"), "LV030");
            assert_eq!(field("name"), Rule::LeakageBudget.name());
            assert_eq!(field("pass"), "leakage");
            assert_eq!(field("severity"), rep.diagnostics[0].severity.label());
            assert_eq!(field("location"), rep.diagnostics[0].location.to_string());
            assert_eq!(field("message"), format!("over budget {hostile}"));
            assert_eq!(field("hint"), hostile);
        }
    }
}
