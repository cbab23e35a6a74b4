#![warn(missing_docs)]

//! # lowvolt-obs
//!
//! The observability layer under the whole toolkit: lock-free counters,
//! histogram-style timers, and a JSON metrics report, behind a
//! [`Recorder`] trait whose default implementation ([`NoopRecorder`])
//! compiles to nothing. It also holds the workspace's one JSON codec,
//! [`json`]: every report and the `lowvolt serve` wire protocol write
//! through its escaper and number rule and read through its parser.
//!
//! Design rules, in the order they matter:
//!
//! 1. **Zero cost when off.** Every instrumented subsystem holds a
//!    `&dyn Recorder` that defaults to [`noop()`]. Hot loops keep their
//!    existing local counters and flush them to the recorder once per
//!    boundary (a settle, a pass, a chunk) — never per event. A [`span`]
//!    taken against a disabled recorder never reads the clock.
//! 2. **Deterministic counters.** Counter totals are sums of per-boundary
//!    deltas via relaxed atomic adds, which commute: totals are identical
//!    for 1, 2, or N worker threads. Span *counts* are deterministic too;
//!    only wall-clock durations vary run to run (`wall_ms`,
//!    `tasks_per_sec`, `busy_workers`), so tests compare parsed reports
//!    with those fields left out.
//! 3. **Stable names.** Every counter lives in the [`names::COUNTERS`]
//!    catalog (sorted, dotted, `subsystem.noun.verb`); the JSON report
//!    always emits the full catalog in catalog order, so consumers can
//!    rely on the key set without feature detection.
//!
//! ```
//! use lowvolt_obs::{names, span, MetricsRegistry, Recorder};
//!
//! let reg = MetricsRegistry::new();
//! {
//!     let _timer = span(&reg, "example.work");
//!     reg.add(names::SIM_EVENTS_PROCESSED, 42);
//! }
//! let report = reg.snapshot();
//! assert_eq!(report.counter(names::SIM_EVENTS_PROCESSED), 42);
//! assert!(report.to_json().contains("\"sim.events.processed\": 42"));
//! ```

pub mod json;
pub mod names;
mod registry;
mod report;

pub use registry::{MetricsRegistry, TimerStat, TIMER_BUCKETS};
pub use report::{MetricsReport, SpanStat};

use std::borrow::Cow;
use std::time::Instant;

/// Sink for counters and span durations.
///
/// All methods default to no-ops so that `impl Recorder for MyType {}`
/// yields a disabled recorder; implementations that actually record must
/// override [`Recorder::is_enabled`] to return `true`, which is what
/// lets [`span`] skip the clock read entirely on the noop path.
///
/// `Debug` is a supertrait so instrumented structs can hold a
/// `&dyn Recorder` and still `#[derive(Debug)]`.
pub trait Recorder: Sync + std::fmt::Debug {
    /// Whether this recorder stores anything. Disabled recorders let
    /// instrumentation skip flush work (and clock reads) entirely.
    fn is_enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the counter named `counter`. Names must come from
    /// the [`names::COUNTERS`] catalog; unknown names are ignored so a
    /// stale call site can never panic a simulation.
    fn add(&self, counter: &'static str, delta: u64) {
        let _ = (counter, delta);
    }

    /// Records one completed span of `nanos` nanoseconds under `name`.
    /// Span names are free-form dotted strings (they may be built at
    /// runtime, e.g. `lint.pass.structural`).
    fn record_nanos(&self, name: &str, nanos: u64) {
        let _ = (name, nanos);
    }
}

/// The zero-cost default recorder: every method is the trait's no-op
/// default and [`Recorder::is_enabled`] is `false`, so instrumented code
/// paths collapse to a branch on a constant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// The shared static [`NoopRecorder`] that instrumented structs default
/// to, avoiding an `Option<&dyn Recorder>` check at every flush site.
#[must_use]
pub fn noop() -> &'static NoopRecorder {
    static NOOP: NoopRecorder = NoopRecorder;
    &NOOP
}

/// An RAII span timer: measures from construction to drop and reports
/// the duration to the recorder. Against a disabled recorder the clock
/// is never read.
///
/// Hierarchy is by dotted name: [`Span::child`] appends a segment, so
/// nested guards produce `campaign.run`, `campaign.run.golden`, … and
/// the report's lexicographic span ordering groups a subtree together.
#[must_use = "a span measures until dropped; binding it to _ drops immediately"]
pub struct Span<'a> {
    rec: &'a dyn Recorder,
    name: Cow<'static, str>,
    start: Option<Instant>,
}

/// Starts a [`Span`] named `name` against `rec`.
pub fn span<'a>(rec: &'a dyn Recorder, name: impl Into<Cow<'static, str>>) -> Span<'a> {
    let start = rec.is_enabled().then(Instant::now);
    Span {
        rec,
        name: name.into(),
        start,
    }
}

impl<'a> Span<'a> {
    /// A child span named `{self.name}.{segment}` on the same recorder.
    pub fn child(&self, segment: &str) -> Span<'a> {
        span(self.rec, format!("{}.{segment}", self.name))
    }

    /// The span's full dotted name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.rec.record_nanos(&self.name, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_inert() {
        let n = NoopRecorder;
        assert!(!n.is_enabled());
        n.add(names::SIM_EVENTS_PROCESSED, 7);
        n.record_nanos("anything", 1);
        assert!(!noop().is_enabled());
    }

    #[test]
    fn span_against_noop_never_reads_clock() {
        let s = span(noop(), "x.y");
        assert!(s.start.is_none());
        assert_eq!(s.name(), "x.y");
    }

    #[test]
    fn span_records_on_drop() {
        let reg = MetricsRegistry::new();
        {
            let _s = span(&reg, "outer.work");
        }
        let rep = reg.snapshot();
        let s = rep.span("outer.work").expect("span recorded");
        assert_eq!(s.count, 1);
    }

    #[test]
    fn child_spans_extend_the_dotted_name() {
        let reg = MetricsRegistry::new();
        {
            let outer = span(&reg, "a.b");
            let inner = outer.child("c");
            assert_eq!(inner.name(), "a.b.c");
        }
        let rep = reg.snapshot();
        assert!(rep.span("a.b").is_some());
        assert!(rep.span("a.b.c").is_some());
    }

    #[test]
    fn default_trait_impl_is_noop() {
        #[derive(Debug)]
        struct Bare;
        impl Recorder for Bare {}
        let b = Bare;
        assert!(!b.is_enabled());
        b.add(names::EXEC_ITEMS, 3);
    }
}
