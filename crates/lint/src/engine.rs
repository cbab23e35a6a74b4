//! The lint engine: fans the five pass families out over the
//! deterministic execution engine, then applies the configured rule
//! filters and a stable sort.

use std::cmp::Reverse;

use lowvolt_exec::{parallel_map, ExecPolicy};
use lowvolt_obs::{names, span, Recorder};

use crate::config::LintConfig;
use crate::diagnostic::{Diagnostic, LintReport, Pass, Severity};
use crate::passes::run_pass;
use crate::target::LintTarget;

/// Runs lint passes over targets.
#[derive(Debug, Clone, Default)]
pub struct Linter {
    /// The configuration every run of this linter uses.
    pub config: LintConfig,
}

impl Linter {
    /// A linter with the given configuration.
    #[must_use]
    pub fn new(config: LintConfig) -> Linter {
        Linter { config }
    }

    /// A linter with [`LintConfig::default`].
    #[must_use]
    pub fn with_defaults() -> Linter {
        Linter::default()
    }

    /// Lints one target with the environment's execution policy and no
    /// metrics.
    #[must_use]
    pub fn lint(&self, target: &LintTarget) -> LintReport {
        self.lint_recorded(&ExecPolicy::from_env(), lowvolt_obs::noop(), target)
    }

    /// Lints one target, running the five pass families in parallel under
    /// `policy`, with lint metrics flushed to `rec`: one
    /// `lint.pass.<name>` span per pass family, plus the `lint.targets`,
    /// `lint.passes`, and `lint.diagnostics` counters (diagnostics are
    /// counted after allow/deny filtering, matching what the report
    /// carries). Results are deterministic regardless of thread count:
    /// `parallel_map` returns pass outputs in input order and the final
    /// sort is total. Counter totals are thread-invariant; only span
    /// durations vary.
    #[must_use]
    pub fn lint_recorded(
        &self,
        policy: &ExecPolicy,
        rec: &dyn Recorder,
        target: &LintTarget,
    ) -> LintReport {
        let per_pass: Vec<Vec<Diagnostic>> = parallel_map(policy, rec, &Pass::ALL, |_, &pass| {
            let _timer = span(
                rec,
                format!("{}.{}", names::SPAN_LINT_PASS_PREFIX, pass.name()),
            );
            run_pass(pass, target, &self.config)
        });
        let mut diagnostics: Vec<Diagnostic> = per_pass
            .into_iter()
            .flatten()
            .filter(|d| !self.config.allow.contains(&d.rule))
            .map(|mut d| {
                if self.config.deny.contains(&d.rule) {
                    d.severity = Severity::Error;
                }
                d
            })
            .collect();
        diagnostics.sort_by(|a, b| {
            (Reverse(a.severity), a.rule.id(), &a.location, &a.message).cmp(&(
                Reverse(b.severity),
                b.rule.id(),
                &b.location,
                &b.message,
            ))
        });
        if rec.is_enabled() {
            rec.add(names::LINT_TARGETS, 1);
            rec.add(names::LINT_PASSES, Pass::ALL.len() as u64);
            rec.add(names::LINT_DIAGNOSTICS, diagnostics.len() as u64);
        }
        LintReport {
            target: target.circuit.name.clone(),
            diagnostics,
        }
    }

    /// Lints many targets, parallelising across targets (each target's
    /// passes then run serially — the outer fan-out already saturates
    /// the policy's workers). The outer fan-out goes through the
    /// execution engine's metrics and every inner (serial-policy) lint
    /// run flushes its own pass spans and counters to `rec`.
    #[must_use]
    pub fn lint_all_recorded(
        &self,
        policy: &ExecPolicy,
        rec: &dyn Recorder,
        targets: &[LintTarget],
    ) -> Vec<LintReport> {
        parallel_map(policy, rec, targets, |_, t| {
            self.lint_recorded(&ExecPolicy::serial(), rec, t)
        })
    }
}
