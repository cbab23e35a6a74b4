//! The shared job layer: every service job kind (`campaign`,
//! `optimize`, `lint`, `sta`, `profile`) is executed and rendered here,
//! and the `lowvolt` CLI delegates to the same functions — so a result
//! payload streamed over the socket is byte-identical to the
//! corresponding CLI run *by construction*, not by parallel
//! maintenance.
//!
//! Campaign jobs run every target through the one
//! [`lowvolt_circuit::faults::run_campaign`] on the spec's [`Engine`]
//! (re-exported here), which owns the work-item layout: an injection
//! for the event engine, a (64-vector stimulus word, 1024-fault range)
//! pair for the compiled one. Each job is one pass over its work
//! items, optionally through the `LVJR0001` checkpoint journal; the
//! daemon's sharded mode adds a progress report every `shard_items`
//! newly journaled items. Because per-item results are deterministic
//! for any thread count and journal replay decodes to the same
//! classification the simulator computes, the final table is
//! byte-identical whether the job ran clean, journaled, or across a
//! daemon kill/restart.

use std::collections::HashMap;
use std::io::{self, Write};

pub use lowvolt_circuit::faults::Engine;
use lowvolt_circuit::faults::{run_campaign, standard_targets, stuck_at_universe, CampaignOptions};
use lowvolt_circuit::ring::RingOscillator;
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_circuit::Circuit;
use lowvolt_core::optimizer::{CriticalPathModel, FixedThroughputOptimizer};
use lowvolt_core::report::{fmt_sig, Table};
use lowvolt_device::units::{Micrometers, Seconds, Volts, Watts};
use lowvolt_exec::{
    ByteCache, CheckpointJournal, CheckpointSpec, ExecPolicy, FaultPolicy, OnAppend,
};
use lowvolt_io::{generate, parse_path_counted, GeneratorConfig, IoError};
use lowvolt_isa::bblocks::BlockProfile;
use lowvolt_isa::cpu::Cpu;
use lowvolt_isa::profile::Profiler;
use lowvolt_lint::target::default_gated_intent;
use lowvolt_lint::{seeded_defect, Defect, LintConfig, LintReport, LintTarget, Linter};
use lowvolt_obs::{names, span, Recorder};
use lowvolt_sta::{analyze, load_profile, StaConfig, StaReport, NOMINAL_VDD, NOMINAL_VT};

/// A job failed: carries the user-facing message (identical to the
/// message the CLI would print for the same failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError(pub String);

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for JobError {}

impl From<String> for JobError {
    fn from(s: String) -> JobError {
        JobError(s)
    }
}

impl From<lowvolt_circuit::CircuitError> for JobError {
    fn from(e: lowvolt_circuit::CircuitError) -> JobError {
        JobError(e.to_string())
    }
}

impl From<lowvolt_core::error::CoreError> for JobError {
    fn from(e: lowvolt_core::error::CoreError) -> JobError {
        JobError(e.to_string())
    }
}

impl From<lowvolt_device::error::DeviceError> for JobError {
    fn from(e: lowvolt_device::error::DeviceError) -> JobError {
        JobError(e.to_string())
    }
}

impl From<lowvolt_lint::UnknownRule> for JobError {
    fn from(e: lowvolt_lint::UnknownRule) -> JobError {
        JobError(format!("{e} (see `lowvolt lint --rules` for the catalog)"))
    }
}

impl From<lowvolt_lint::LintError> for JobError {
    fn from(e: lowvolt_lint::LintError) -> JobError {
        JobError(e.to_string())
    }
}

/// Streaming side-channel for long jobs: progress reports and
/// non-payload warnings. The daemon forwards these to the client as
/// `progress` / `warning` events; the CLI uses [`NullSink`]. `Send`
/// because a sharded campaign reports progress from whichever worker
/// journaled the item that completed a report.
pub trait JobSink: Send {
    /// `done` of `total` work units are complete: journal items for a
    /// sharded campaign, grid tiles for an optimize sweep.
    fn progress(&mut self, done: u64, total: u64);
    /// A non-fatal diagnostic that is *not* part of the result payload.
    fn warning(&mut self, message: &str);
}

/// A sink that discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl JobSink for NullSink {
    fn progress(&mut self, _done: u64, _total: u64) {}
    fn warning(&mut self, _message: &str) {}
}

/// Which circuit a job runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceSpec {
    /// The command's own `--circuit` selection (standard datapaths).
    Builtin,
    /// A gate-level netlist imported from a `.blif` / `.bench` /
    /// `.isc` file.
    Netlist {
        /// File path, format detected by extension.
        path: String,
    },
    /// A seeded deterministic random netlist.
    Generate {
        /// Gate count.
        gates: u64,
        /// PRNG seed; the same seed reproduces the identical circuit.
        seed: u64,
        /// Primary-input count override.
        inputs: Option<u64>,
        /// Flip-flop share override.
        dff_fraction: Option<f64>,
    },
}

impl SourceSpec {
    /// Resolves the spec to a circuit; [`SourceSpec::Builtin`]
    /// resolves to `None` (the command falls back to its `--circuit`
    /// selection). A netlist file's import is timed as the
    /// [`names::SPAN_IO_PARSE`] span on `rec`, a generated netlist's
    /// construction as [`names::SPAN_IO_GENERATE`].
    ///
    /// # Errors
    ///
    /// Import failures surface as a single `PATH:LINE:COL: message`
    /// error; generator failures carry the generator's message.
    pub fn resolve(&self, rec: &dyn Recorder) -> Result<Option<Circuit>, JobError> {
        match self {
            SourceSpec::Builtin => Ok(None),
            SourceSpec::Netlist { path } => {
                let _span = span(rec, names::SPAN_IO_PARSE);
                match parse_path_counted(std::path::Path::new(path)) {
                    Ok((c, bytes)) => {
                        rec.add(names::IO_BYTES_PARSED, bytes as u64);
                        Ok(Some(c))
                    }
                    // Anchor parse errors at PATH:LINE:COL; file errors
                    // already name the path in their Display form.
                    Err(e @ IoError::Parse { .. }) => Err(JobError(format!("{path}:{e}"))),
                    Err(e) => Err(JobError(e.to_string())),
                }
            }
            SourceSpec::Generate {
                gates,
                seed,
                inputs,
                dff_fraction,
            } => {
                let mut cfg =
                    GeneratorConfig::new(usize::try_from(*gates).unwrap_or(usize::MAX), *seed);
                if let Some(k) = inputs {
                    cfg.inputs = usize::try_from(*k).unwrap_or(usize::MAX);
                }
                if let Some(f) = dff_fraction {
                    cfg.dff_fraction = *f;
                }
                let _span = span(rec, names::SPAN_IO_GENERATE);
                Ok(Some(generate(&cfg).map_err(|e| JobError(e.to_string()))?))
            }
        }
    }
}

/// A copy of `c`, kept only for `e2ebench`; ROADMAP item 8 deletes it.
#[doc(hidden)]
#[must_use]
pub fn imported_fault_target(c: &Circuit) -> Circuit {
    c.clone()
}

/// A copy of `c`, kept only for `e2ebench`; ROADMAP item 8 deletes it.
#[doc(hidden)]
#[must_use]
pub fn imported_lint_target(c: &Circuit) -> Circuit {
    c.clone()
}

/// Selects standard datapaths by exact name (`adder8`) or family name
/// (`adder`); `all` returns every standard datapath.
///
/// # Errors
///
/// Unknown names list the valid family names.
pub fn select_standard_targets(name: &str, width: usize) -> Result<Vec<Circuit>, JobError> {
    let all = standard_targets(width).map_err(|e| JobError(e.to_string()))?;
    match name {
        "all" => Ok(all),
        name => {
            let chosen: Vec<_> = all
                .into_iter()
                .filter(|c| c.name == name || c.name.trim_end_matches(char::is_numeric) == name)
                .collect();
            if chosen.is_empty() {
                return Err(JobError(format!(
                    "unknown circuit `{name}` (adder, shifter, multiplier, alu, registers, all)"
                )));
            }
            Ok(chosen)
        }
    }
}

/// What a stuck-at campaign runs: circuit source, stimulus shape, and
/// per-injection fault policy.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Circuit source; [`SourceSpec::Builtin`] runs the standard
    /// datapaths at `width`.
    pub source: SourceSpec,
    /// Datapath width for builtin targets.
    pub width: usize,
    /// Stimulus vectors per injection.
    pub vectors: usize,
    /// Base stimulus seed (target `i` uses `seed + i`).
    pub seed: u64,
    /// Simulation engine.
    pub engine: Engine,
    /// Retries per failing injection.
    pub max_retries: u32,
    /// Cooperative per-item deadline.
    pub item_timeout_ms: Option<u64>,
}

impl CampaignSpec {
    /// A spec with the CLI's defaults for the given source.
    #[must_use]
    pub fn new(source: SourceSpec) -> CampaignSpec {
        CampaignSpec {
            source,
            width: 8,
            vectors: 32,
            seed: 42,
            engine: Engine::Event,
            max_retries: 0,
            item_timeout_ms: None,
        }
    }
}

/// How one campaign run is scheduled and persisted.
#[derive(Debug)]
pub struct CampaignPersist<'a> {
    /// `LVJR0001` journal path; `None` runs unjournaled (only valid
    /// with [`RunMode::Once`]).
    pub checkpoint: Option<&'a str>,
    /// Replay an existing journal instead of truncating it.
    pub resume: bool,
    /// Golden-trace cache shared across runs.
    pub cache: Option<&'a ByteCache>,
    /// A bounded pass (CLI) or a whole pass with progress reports
    /// (daemon).
    pub mode: RunMode,
    /// Whether persistence details (checkpoint path, cache directory,
    /// fault policy) are announced in the payload header and warnings
    /// are appended to the payload. The daemon turns this off so a
    /// job's payload is byte-identical to a *clean* CLI run regardless
    /// of the daemon's own journaling.
    pub announce: bool,
}

impl Default for CampaignPersist<'_> {
    fn default() -> Self {
        CampaignPersist {
            checkpoint: None,
            resume: false,
            cache: None,
            mode: RunMode::Once {
                interrupt_after: None,
            },
            announce: true,
        }
    }
}

/// Campaign scheduling mode. Either way every work item is attempted
/// at most once per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// One pass, optionally stopping after a number of new items (the
    /// CLI's `--interrupt-after`).
    Once {
        /// Stop after this many newly computed items.
        interrupt_after: Option<usize>,
    },
    /// One whole journaled pass that calls [`JobSink::progress`] after
    /// every `shard_items` newly journaled items (never, for 0) and
    /// once more, at `(total, total)`, when it ends. Requires a
    /// checkpoint path.
    Sharded {
        /// Newly journaled items per progress report.
        shard_items: usize,
    },
}

/// A finished (or interrupted) campaign: the rendered payload plus
/// journal accounting for the service's result event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// The full report, byte-identical to the CLI's stdout string.
    pub payload: String,
    /// Journal items (injections, or (word, fault range) pairs) in the
    /// whole job.
    pub total_items: u64,
    /// Items already on the journal when this run started.
    pub replayed: u64,
    /// Items newly computed by this run.
    pub computed: u64,
    /// Items still pending (nonzero only for interrupted `Once` runs).
    pub pending: u64,
    /// Records on the journal after the run (0 when unjournaled).
    pub journal_records: u64,
}

/// Runs a stuck-at fault campaign and renders the coverage report.
///
/// In [`RunMode::Sharded`] `sink.progress` reports the items on file
/// as the pass journals them; the payload is byte-identical to a clean
/// one-shot run.
///
/// # Errors
///
/// Returns the same user-facing messages the CLI prints for bad
/// sources, refused circuits, and journal/cache failures.
pub fn run_campaign_job(
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    spec: &CampaignSpec,
    persist: &CampaignPersist<'_>,
    sink: &mut dyn JobSink,
) -> Result<CampaignOutcome, JobError> {
    let (interrupt_after, report_every) = match persist.mode {
        RunMode::Once { interrupt_after } => (interrupt_after, None),
        RunMode::Sharded { .. } if persist.checkpoint.is_none() => {
            return Err(JobError(
                "sharded campaign execution requires a checkpoint journal".to_string(),
            ))
        }
        RunMode::Sharded { shard_items } => (None, Some(shard_items as u64)),
    };
    let imported = spec.source.resolve(rec)?;
    let from_source = imported.is_some();
    let targets = match imported {
        Some(t) => vec![t],
        None => standard_targets(spec.width).map_err(|e| JobError(e.to_string()))?,
    };
    let faults_per: Vec<_> = targets
        .iter()
        .map(|t| stuck_at_universe(&t.netlist))
        .collect();
    let items_for = |i: usize| spec.engine.work_items(spec.vectors, faults_per[i].len());
    let total_items = (0..targets.len())
        .map(items_for)
        .fold(0u64, u64::saturating_add);

    // Header block: everything before the first blank line may vary
    // between a fresh, interrupted, and resumed run; the coverage table
    // after it must not (the CI resume gate diffs the table).
    let mut out = match targets.first().filter(|_| from_source) {
        Some(t) => format!(
            "stuck-at fault campaign: {} ({} gates), {} vectors/injection, {} worker thread(s)\n",
            t.name,
            t.netlist.gate_count(),
            spec.vectors,
            policy.threads()
        ),
        None => format!(
            "stuck-at fault campaign: width {}, {} vectors/injection, {} worker thread(s)\n",
            spec.width,
            spec.vectors,
            policy.threads()
        ),
    };
    if spec.engine == Engine::Compiled {
        out.push_str(
            "engine: compiled (bit-parallel levelized; checkpoint unit = 64-vector word)\n",
        );
    }

    let mut warnings: Vec<String> = Vec::new();
    let mut journal_state = match persist.checkpoint {
        Some(path) if persist.resume => {
            let (journal, replay) =
                CheckpointJournal::resume(path).map_err(|e| JobError(e.to_string()))?;
            warnings.extend(replay.warning.clone());
            let completed = replay.completed();
            Some((journal, completed))
        }
        Some(path) => Some((
            CheckpointJournal::create(path).map_err(|e| JobError(e.to_string()))?,
            HashMap::new(),
        )),
        None => None,
    };
    if let (Some(path), Some((_, completed))) = (persist.checkpoint, &journal_state) {
        if persist.announce {
            out.push_str(&format!(
                "checkpoint: {path} ({} completed {}(s) on file)\n",
                completed.len(),
                spec.engine.work_unit()
            ));
        }
    }
    if let Some(c) = persist.cache {
        if persist.announce {
            out.push_str(&format!("golden-trace cache: {}\n", c.dir().display()));
        }
    }
    if (spec.max_retries > 0 || spec.item_timeout_ms.is_some()) && persist.announce {
        out.push_str(&format!(
            "fault policy: {} retries, item timeout {}\n",
            spec.max_retries,
            match spec.item_timeout_ms {
                Some(ms) => format!("{ms} ms"),
                None => "unbounded".to_string(),
            }
        ));
    }
    out.push('\n');
    let replayed = journal_state
        .as_ref()
        .map_or(0, |(_, completed)| completed.len() as u64);

    // Progress counts items on file. It is clamped to the total and
    // sent only when it rises: an undecodable record counts again when
    // its item is journaled anew, and a report may already sit at the
    // total when the pass ends.
    let mut reported: Option<u64> = None;
    let mut report = |done: u64| {
        let done = done.min(total_items);
        if reported < Some(done) {
            reported = Some(done);
            sink.progress(done, total_items);
            rec.add(names::SERVE_SHARD_ROUNDS, 1);
        }
    };
    let mut journaled = 0u64;
    let mut on_append = || {
        journaled += 1;
        if report_every.is_some_and(|every| journaled.is_multiple_of(every)) {
            report(replayed + journaled);
        }
    };

    let mut table = Table::new([
        "target",
        "faults",
        "detected",
        "corrupted",
        "as-X",
        "masked",
        "errored",
        "coverage",
    ]);
    let (mut computed, mut skipped) = (0, 0);
    let mut index_base = 0u64;
    let mut budget = interrupt_after;
    for (i, target) in targets.iter().enumerate() {
        let faults = &faults_per[i];
        let target_seed = spec.seed.wrapping_add(i as u64);
        let mut stimulus = PatternSource::wide_random(target.inputs.len(), target_seed)?;
        let options = CampaignOptions {
            engine: spec.engine,
            policy: *policy,
            recorder: rec,
            fault: FaultPolicy {
                max_retries: spec.max_retries,
                item_timeout_ms: spec.item_timeout_ms,
            },
            cache: persist.cache.map(|c| (c, target_seed)),
            checkpoint: journal_state
                .as_mut()
                .map(|(journal, completed)| CheckpointSpec {
                    journal,
                    completed,
                    index_base,
                    max_new_items: budget,
                }),
            on_append: report_every.map(|_| OnAppend(&mut on_append)),
        };
        let res = run_campaign(target, faults, &mut stimulus, spec.vectors, options)?;
        warnings.extend(res.warnings.iter().cloned());
        if let Some(b) = budget {
            budget = Some(b.saturating_sub(res.computed));
        }
        computed += res.computed;
        skipped += res.skipped;
        index_base += items_for(i);
        let (masked, errored) = (res.count("masked"), res.count("errored"));
        let resolved = res.outcomes.resolved();
        table.push_row([
            res.target.clone(),
            faults.len().to_string(),
            res.count("detected").to_string(),
            res.count("corrupted").to_string(),
            res.count("propagated-as-X").to_string(),
            masked.to_string(),
            errored.to_string(),
            coverage_cell(faults.len(), resolved, masked + errored),
        ]);
    }
    if report_every.is_some() {
        report(total_items);
    }

    out.push_str(&table.to_string());
    if skipped > 0 {
        out.push_str(&format!(
            "\ncampaign interrupted: {skipped} {}(s) pending; \
             rerun with --resume --checkpoint to finish\n",
            spec.engine.work_unit()
        ));
    }
    if persist.announce {
        if !warnings.is_empty() {
            out.push('\n');
            for w in &warnings {
                out.push_str(&format!("warning: {w}\n"));
            }
        }
    } else {
        for w in &warnings {
            sink.warning(w);
        }
    }
    Ok(CampaignOutcome {
        payload: out,
        total_items,
        replayed,
        computed: computed as u64,
        pending: skipped as u64,
        journal_records: journal_state
            .as_ref()
            .map_or(0, |(journal, _)| journal.records()),
    })
}

/// What a lint job checks.
#[derive(Debug, Clone, PartialEq)]
pub struct LintSpec {
    /// Circuit source; [`SourceSpec::Builtin`] lints `circuit`.
    pub source: SourceSpec,
    /// A seeded defect fixture instead of a circuit.
    pub fixture: Option<String>,
    /// Standard-target selection (`all`, a family, or an exact name).
    pub circuit: String,
    /// Datapath width for standard targets.
    pub width: usize,
    /// Emit the machine-readable JSON report.
    pub json: bool,
    /// Comma-separated allow list (rule ids or names).
    pub allow: Option<String>,
    /// `warnings` or a comma-separated deny list.
    pub deny: Option<String>,
    /// Standby leakage budget in microwatts.
    pub leakage_budget_uw: Option<f64>,
}

impl LintSpec {
    /// A spec with the CLI's defaults for the given source.
    #[must_use]
    pub fn new(source: SourceSpec) -> LintSpec {
        LintSpec {
            source,
            fixture: None,
            circuit: "all".to_string(),
            width: 8,
            json: false,
            allow: None,
            deny: None,
            leakage_budget_uw: None,
        }
    }
}

/// A lint run's rendered report plus its gate verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintOutcome {
    /// The full report (text or JSON), byte-identical to the CLI's.
    pub payload: String,
    /// Whether any target failed the gate (CLI exit code 1).
    pub gate_failed: bool,
}

/// Runs the lint job and renders its report.
///
/// # Errors
///
/// Unknown fixtures, rules, circuits, and invalid budgets return the
/// same messages the CLI prints.
pub fn run_lint_job(
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    spec: &LintSpec,
) -> Result<LintOutcome, JobError> {
    let mut config = LintConfig::default();
    if let Some(names) = &spec.allow {
        config = config.allow_named(names)?;
    }
    if let Some(names) = &spec.deny {
        config = config.deny_named(names)?;
    }
    if let Some(uw) = spec.leakage_budget_uw {
        if !(uw.is_finite() && uw > 0.0) {
            return Err(JobError(format!(
                "--leakage-budget-uw must be a positive number, got {uw}"
            )));
        }
        config = config.with_standby_budget(Watts(uw * 1e-6));
    }

    let targets = if let Some(fixture) = &spec.fixture {
        let defect = Defect::parse(fixture).ok_or_else(|| {
            JobError(format!(
                "unknown fixture `{fixture}` (floating, loop, sleep, leakage, slack)"
            ))
        })?;
        vec![seeded_defect(defect)?]
    } else if let Some(c) = spec.source.resolve(rec)? {
        vec![LintTarget::new(c)]
    } else {
        // The standard datapaths lint under the default gated intent.
        let mut targets = Vec::new();
        for circuit in select_standard_targets(&spec.circuit, spec.width)? {
            let mut t = LintTarget::new(circuit);
            t.intent = Some(default_gated_intent(&t.circuit.netlist)?);
            targets.push(t);
        }
        targets
    };

    let deny_warnings = config.deny_warnings;
    let reports = Linter::new(config).lint_all_recorded(policy, rec, &targets);
    let failed = reports
        .iter()
        .filter(|r| !r.passes_gate(deny_warnings))
        .count();

    let out = if spec.json {
        json_array(&reports, LintReport::to_json)
    } else {
        let mut s = String::new();
        for r in &reports {
            s.push_str(&r.to_string());
            s.push('\n');
        }
        s.push_str(&format!(
            "{} target(s) linted, {failed} failing the gate{}\n",
            reports.len(),
            if deny_warnings {
                " (warnings denied)"
            } else {
                ""
            }
        ));
        s
    };
    Ok(LintOutcome {
        payload: out,
        gate_failed: failed > 0,
    })
}

/// The `--json` payload of a multi-target job: each target's JSON
/// document, in order, as one array.
fn json_array<T>(reports: &[T], to_json: impl Fn(&T) -> String) -> String {
    let docs: Vec<String> = reports.iter().map(to_json).collect();
    format!("[{}]", docs.join(","))
}

/// What a static-timing job analyzes.
#[derive(Debug, Clone, PartialEq)]
pub struct StaSpec {
    /// Circuit source; [`SourceSpec::Builtin`] analyzes `circuit`.
    pub source: SourceSpec,
    /// Standard-target selection.
    pub circuit: String,
    /// Datapath width for standard targets.
    pub width: usize,
    /// Supply voltage (defaults to the nominal operating point).
    pub vdd: Option<f64>,
    /// Threshold voltage (defaults to the nominal operating point).
    pub vt: Option<f64>,
    /// Explicit required time in picoseconds.
    pub required_ps: Option<f64>,
    /// Emit the machine-readable JSON report.
    pub json: bool,
}

impl StaSpec {
    /// A spec with the CLI's defaults for the given source.
    #[must_use]
    pub fn new(source: SourceSpec) -> StaSpec {
        StaSpec {
            source,
            circuit: "all".to_string(),
            width: 8,
            vdd: None,
            vt: None,
            required_ps: None,
            json: false,
        }
    }
}

/// The analyzed reports of one static-timing job, ready to render.
///
/// [`StaJob::run`] raises every error the job can have; [`StaJob::write`]
/// only renders, so a report streamed to its sink never starts before
/// the job could still fail.
#[derive(Debug)]
pub struct StaJob {
    reports: Vec<StaReport>,
    json: bool,
}

impl StaJob {
    /// Resolves the circuit source and analyzes every selected target.
    ///
    /// # Errors
    ///
    /// Bad operating points, unknown circuits, import failures and
    /// unanalyzable netlists return the same messages the CLI prints.
    pub fn run(
        policy: &ExecPolicy,
        rec: &dyn Recorder,
        spec: &StaSpec,
    ) -> Result<StaJob, JobError> {
        let vdd = Volts(spec.vdd.unwrap_or(NOMINAL_VDD.0));
        let vt = Volts(spec.vt.unwrap_or(NOMINAL_VT.0));
        let mut config = StaConfig::at(vdd, vt);
        if let Some(ps) = spec.required_ps {
            if !(ps.is_finite() && ps > 0.0) {
                return Err(JobError(format!(
                    "--required-ps must be a positive number, got {ps}"
                )));
            }
            config = config.with_required(Seconds::from_picos(ps));
        }
        let targets = match spec.source.resolve(rec)? {
            Some(c) => vec![c],
            None => select_standard_targets(&spec.circuit, spec.width)?,
        };
        let mut reports = Vec::with_capacity(targets.len());
        for t in &targets {
            reports.push(
                analyze(policy, rec, &t.name, &t.netlist, &t.outputs, config)
                    .map_err(|e| JobError(e.to_string()))?,
            );
        }
        Ok(StaJob {
            reports,
            json: spec.json,
        })
    }

    /// Renders every report into `out` and flushes it: each text report
    /// followed by a blank line, or one JSON array of the reports. The
    /// whole write, flush included, is timed as
    /// [`names::SPAN_STA_RENDER`] and its bytes are counted under
    /// [`names::STA_REPORT_BYTES`].
    ///
    /// # Errors
    ///
    /// Only `out`'s own write errors.
    pub fn write<W: Write + ?Sized>(&self, rec: &dyn Recorder, out: &mut W) -> io::Result<()> {
        let _span = span(rec, names::SPAN_STA_RENDER);
        let mut out = Counted {
            inner: out,
            bytes: 0,
        };
        let written = self.write_reports(&mut out).and_then(|()| out.flush());
        rec.add(names::STA_REPORT_BYTES, out.bytes);
        written
    }

    fn write_reports(&self, out: &mut impl Write) -> io::Result<()> {
        if self.json {
            out.write_all(b"[")?;
            for (i, r) in self.reports.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                r.write_json(out)?;
            }
            out.write_all(b"]")
        } else {
            for r in &self.reports {
                r.write_text(out)?;
                out.write_all(b"\n")?;
            }
            Ok(())
        }
    }
}

/// A writer that counts the bytes it passes on.
struct Counted<'a, W: ?Sized> {
    inner: &'a mut W,
    bytes: u64,
}

impl<W: Write + ?Sized> Write for Counted<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Runs static timing analysis and renders the text or JSON report
/// into a string: [`StaJob::run`] then [`StaJob::write`].
///
/// # Errors
///
/// Bad operating points and unknown circuits return the same messages
/// the CLI prints.
pub fn run_sta_job(
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    spec: &StaSpec,
) -> Result<String, JobError> {
    let job = StaJob::run(policy, rec, spec)?;
    let mut out = Vec::new();
    // Writing to a `Vec` cannot fail, and both renderings are UTF-8.
    let _ = job.write(rec, &mut out);
    String::from_utf8(out).map_err(|e| JobError(e.to_string()))
}

/// A campaign table's coverage cell: the share of `faults` a campaign
/// saw reach an output (detected, corrupted or propagated as X), or
/// `--` while only `resolved` of them have a result. Masked faults and
/// errored ones — whose injection never finished — are `uncovered`.
fn coverage_cell(faults: usize, resolved: usize, uncovered: usize) -> String {
    if resolved < faults {
        return "--".to_string();
    }
    format!("{:.1}%", (1.0 - uncovered as f64 / faults as f64) * 100.0)
}

/// What a V_DD/V_T design-space sweep optimizes.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeSpec {
    /// Per-stage (ring mode) or per-gate (STA mode) delay target.
    pub delay_ps: f64,
    /// Fixed throughput in MHz.
    pub throughput_mhz: f64,
    /// Switching activity factor.
    pub activity: f64,
    /// Replace the ring-oscillator proxy with a real circuit's
    /// critical path.
    pub sta: Option<OptimizeStaTarget>,
    /// Sweep-grid tile size: the 20-point V_T grid is priced in tiles
    /// of this many points, with a progress event per tile. Pointwise
    /// evaluation makes the concatenated table independent of tiling.
    pub tile_points: usize,
}

/// The circuit an STA-mode optimization prices.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeStaTarget {
    /// Circuit source; [`SourceSpec::Builtin`] uses `circuit`.
    pub source: SourceSpec,
    /// Standard-target selection (one circuit, not `all`).
    pub circuit: String,
    /// Datapath width for standard targets.
    pub width: usize,
}

impl OptimizeSpec {
    /// A spec with the CLI's defaults.
    #[must_use]
    pub fn new() -> OptimizeSpec {
        OptimizeSpec {
            delay_ps: 150.0,
            throughput_mhz: 1.0,
            activity: 1.0,
            sta: None,
            tile_points: 20,
        }
    }
}

impl Default for OptimizeSpec {
    fn default() -> Self {
        OptimizeSpec::new()
    }
}

/// Runs the fixed-throughput energy optimization and renders the
/// V_T/V_DD sweep table plus the optimum line.
///
/// # Errors
///
/// `all` in STA mode and model failures return the same messages the
/// CLI prints.
pub fn run_optimize_job(
    policy: &ExecPolicy,
    spec: &OptimizeSpec,
    sink: &mut dyn JobSink,
) -> Result<String, JobError> {
    let delay_ps = spec.delay_ps;
    let mhz = spec.throughput_mhz;
    let activity = spec.activity;
    let (opt, mut out) = if let Some(sta) = &spec.sta {
        let target = match sta.source.resolve(lowvolt_obs::noop())? {
            Some(c) => c,
            None => {
                if sta.circuit == "all" {
                    return Err(JobError(
                        "optimize --sta wants one circuit, not `all`".to_string(),
                    ));
                }
                select_standard_targets(&sta.circuit, sta.width)?.swap_remove(0)
            }
        };
        let target = &target;
        let profile =
            load_profile(lowvolt_obs::noop(), target).map_err(|e| JobError(e.to_string()))?;
        let model = CriticalPathModel::new(
            Micrometers(2.0),
            profile.path_load,
            profile.switched_cap,
            profile.gates,
        )?;
        let path_target = Seconds::from_picos(delay_ps * profile.depth as f64);
        let opt = FixedThroughputOptimizer::for_critical_path(model, path_target, activity)?;
        let header = format!(
            "sta mode: {} — critical path {} gates ({:.1} fF), switched cap {:.1} fF over {} gates\ndelay target {delay_ps} ps/gate ({:.1} ps whole-path), throughput {mhz} MHz, activity {activity}\n\n",
            target.name,
            profile.depth,
            profile.path_load.to_femtofarads(),
            profile.switched_cap.to_femtofarads(),
            profile.gates,
            path_target.0 * 1e12,
        );
        (opt, header)
    } else {
        let ring = RingOscillator::paper_default()?;
        let opt = FixedThroughputOptimizer::new(ring, Seconds::from_picos(delay_ps), activity)
            .map_err(|e| JobError(e.to_string()))?;
        let header = format!(
            "delay target {delay_ps} ps/stage, throughput {mhz} MHz, activity {activity}\n\n"
        );
        (opt, header)
    };
    let t_op = Seconds(1e-6 / mhz);
    let mut t = Table::new(["V_T (V)", "V_DD (V)", "E_total (J/op)"]);
    let vts: Vec<Volts> = (1..=20).map(|i| Volts(0.03 * f64::from(i))).collect();
    // Price the grid tile by tile: `energy_curve` is a pointwise map,
    // so concatenating per-tile results is byte-identical to one call.
    let tile = spec.tile_points.max(1);
    let tiles_total = vts.len().div_ceil(tile) as u64;
    for (tile_index, chunk) in vts.chunks(tile).enumerate() {
        for p in opt.energy_curve(chunk, t_op) {
            t.push_row([
                format!("{:.2}", p.vt.0),
                format!("{:.3}", p.vdd.0),
                fmt_sig(p.total().0, 3),
            ]);
        }
        if tiles_total > 1 {
            sink.progress(tile_index as u64 + 1, tiles_total);
        }
    }
    out.push_str(&t.to_string());
    let best = opt
        .optimum_with(policy, t_op)
        .map_err(|e| JobError(e.to_string()))?;
    out.push_str(&format!(
        "\noptimum: V_T = {:.3} V, V_DD = {:.3} V, {} J/op\n",
        best.vt.0,
        best.vdd.0,
        fmt_sig(best.total().0, 3)
    ));
    Ok(out)
}

/// Which guest program a profile job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramSource {
    /// A named example workload.
    Example(String),
    /// Assembly source text.
    Text(String),
}

/// What a profile job executes and measures.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSpec {
    /// The guest program.
    pub source: ProgramSource,
    /// Instruction budget before the run is aborted.
    pub budget: u64,
    /// Functional-unit power-down hysteresis in instructions.
    pub hysteresis: u64,
    /// Bursty execution duty cycle (enables the burst energy model).
    pub duty: Option<f64>,
    /// Report hot basic blocks instead of plain unit statistics.
    pub blocks: bool,
}

impl ProfileSpec {
    /// A spec with the CLI's defaults for the given program.
    #[must_use]
    pub fn new(source: ProgramSource) -> ProfileSpec {
        ProfileSpec {
            source,
            budget: 200_000_000,
            hysteresis: 1,
            duty: None,
            blocks: false,
        }
    }
}

/// Resolves a named example workload to its assembly source.
///
/// # Errors
///
/// Unknown names list the valid examples.
pub fn example_source(name: &str) -> Result<String, JobError> {
    match name {
        "idea" => Ok(lowvolt_workloads::idea::program(50)),
        "espresso" => {
            Ok(lowvolt_workloads::espresso::program(120, 42)
                .map_err(|e| JobError(e.to_string()))?)
        }
        "li" => Ok(lowvolt_workloads::li::program(9, 42, 5)),
        "fir" => Ok(lowvolt_workloads::fir::program(200, 42)),
        other => Err(JobError(format!(
            "unknown example `{other}` (idea, espresso, li, fir)"
        ))),
    }
}

/// Runs the ISA profiler job and renders its report.
///
/// # Errors
///
/// Assembly, execution, and budget failures return the same messages
/// the CLI prints.
pub fn run_profile_job(rec: &dyn Recorder, spec: &ProfileSpec) -> Result<String, JobError> {
    let source = match &spec.source {
        ProgramSource::Example(name) => example_source(name)?,
        ProgramSource::Text(text) => text.clone(),
    };
    let budget = spec.budget;
    let hysteresis = spec.hysteresis;
    let mut out = String::new();

    let report = if let Some(duty) = spec.duty {
        let schedule = lowvolt_workloads::bursty::BurstSchedule::with_duty(1_000, duty)
            .map_err(|e| JobError(e.to_string()))?;
        out.push_str(&format!(
            "bursty execution: duty {:.3} ({} on / {} idle)\n",
            schedule.duty(),
            schedule.burst_len,
            schedule.idle_len
        ));
        lowvolt_workloads::bursty::profile_bursty_recorded(
            &source, schedule, budget, hysteresis, rec,
        )
        .map_err(JobError)?
    } else {
        let timer = span(rec, names::SPAN_PROFILE_RUN);
        let program = lowvolt_isa::assemble(&source).map_err(|e| JobError(e.to_string()))?;
        let mut cpu = Cpu::new(program.clone());
        let mut profiler = Profiler::standard().with_hysteresis(hysteresis);
        if spec.blocks {
            let mut blocks = BlockProfile::new(&program);
            let mut executed = 0u64;
            while !cpu.halted() {
                if executed >= budget {
                    return Err(JobError(format!(
                        "budget of {budget} instructions exhausted"
                    )));
                }
                blocks.record_pc(cpu.pc());
                if let Some(inst) = cpu.step().map_err(|e| JobError(e.to_string()))? {
                    profiler.record(&inst);
                    executed += 1;
                }
            }
            blocks.flush_metrics(rec);
            out.push_str("hot basic blocks (dynamic instructions):\n");
            let mut t = Table::new(["range", "static len", "dynamic instrs"]);
            for (b, dynamic) in blocks.hottest(5) {
                t.push_row([
                    format!("[{}..{})", b.start, b.end),
                    b.len().to_string(),
                    dynamic.to_string(),
                ]);
            }
            out.push_str(&t.to_string());
            out.push('\n');
        } else {
            cpu.run_profiled(budget, &mut profiler)
                .map_err(|e| JobError(e.to_string()))?;
        }
        drop(timer);
        profiler.flush_metrics(rec);
        if !cpu.output().is_empty() {
            out.push_str(&format!("program output: {}\n\n", cpu.output()));
        }
        profiler.report()
    };
    out.push_str(&report.to_string());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvolt_obs::noop;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lowvolt_serve_jobs_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    struct CountingSink {
        progress: Vec<(u64, u64)>,
        warnings: Vec<String>,
    }

    impl CountingSink {
        fn new() -> CountingSink {
            CountingSink {
                progress: Vec::new(),
                warnings: Vec::new(),
            }
        }
    }

    impl JobSink for CountingSink {
        fn progress(&mut self, done: u64, total: u64) {
            self.progress.push((done, total));
        }
        fn warning(&mut self, message: &str) {
            self.warnings.push(message.to_string());
        }
    }

    fn small_spec(engine: Engine) -> CampaignSpec {
        CampaignSpec {
            width: 2,
            vectors: 4,
            engine,
            ..CampaignSpec::new(SourceSpec::Builtin)
        }
    }

    #[test]
    fn sharded_campaign_payload_matches_one_shot() {
        let dir = tmp_dir("sharded_vs_once");
        let policy = ExecPolicy::with_threads(2);
        let spec = small_spec(Engine::Event);
        let clean = run_campaign_job(
            &policy,
            noop(),
            &spec,
            &CampaignPersist::default(),
            &mut NullSink,
        )
        .unwrap();
        let journal = dir.join("job.lvjr");
        let mut sink = CountingSink::new();
        let sharded = run_campaign_job(
            &policy,
            noop(),
            &spec,
            &CampaignPersist {
                checkpoint: Some(journal.to_str().unwrap()),
                resume: true,
                cache: None,
                mode: RunMode::Sharded { shard_items: 7 },
                announce: false,
            },
            &mut sink,
        )
        .unwrap();
        assert_eq!(
            clean.payload, sharded.payload,
            "sharded must be byte-identical"
        );
        assert_eq!(sharded.pending, 0);
        assert_eq!(sharded.replayed, 0);
        assert_eq!(sharded.computed, sharded.total_items);
        assert_eq!(sharded.journal_records, sharded.total_items);
        assert!(
            sink.progress.len() >= 2,
            "a progress event every 7 journaled items"
        );
        let (done, total) = *sink.progress.last().unwrap();
        assert_eq!((done, total), (sharded.total_items, sharded.total_items));
        // Monotone progress.
        for w in sink.progress.windows(2) {
            assert!(w[1].0 > w[0].0, "{:?}", sink.progress);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_campaign_resumes_a_partial_journal() {
        let dir = tmp_dir("sharded_resume");
        let journal = dir.join("job.lvjr");
        let policy = ExecPolicy::with_threads(1);
        let spec = small_spec(Engine::Compiled);
        // Interrupt a one-shot run after 2 words, then finish sharded.
        let interrupted = run_campaign_job(
            &policy,
            noop(),
            &spec,
            &CampaignPersist {
                checkpoint: Some(journal.to_str().unwrap()),
                resume: false,
                cache: None,
                mode: RunMode::Once {
                    interrupt_after: Some(2),
                },
                announce: true,
            },
            &mut NullSink,
        )
        .unwrap();
        assert!(interrupted.pending > 0);
        let clean = run_campaign_job(
            &policy,
            noop(),
            &spec,
            &CampaignPersist::default(),
            &mut NullSink,
        )
        .unwrap();
        let resumed = run_campaign_job(
            &policy,
            noop(),
            &spec,
            &CampaignPersist {
                checkpoint: Some(journal.to_str().unwrap()),
                resume: true,
                cache: None,
                mode: RunMode::Sharded { shard_items: 1 },
                announce: false,
            },
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(resumed.payload, clean.payload);
        assert_eq!(resumed.replayed, 2, "two words were already on file");
        assert_eq!(
            resumed.replayed + resumed.computed,
            resumed.total_items,
            "only the remaining shards re-execute"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The coverage table: everything after the header block.
    fn table(payload: &str) -> &str {
        payload.split_once("\n\n").map_or("", |(_, t)| t)
    }

    #[test]
    fn sharded_campaign_whose_items_all_fail_finishes() {
        // Items that fail every attempt are never journaled; the job must
        // still attempt each once and finish, as the one-pass CLI does.
        let dir = tmp_dir("all_errored");
        let journal = dir.join("job.lvjr").to_str().unwrap().to_string();
        let spec = CampaignSpec {
            item_timeout_ms: Some(0),
            ..small_spec(Engine::Event)
        };
        let policy = ExecPolicy::with_threads(1);
        let cli = run_campaign_job(
            &policy,
            noop(),
            &spec,
            &CampaignPersist::default(),
            &mut NullSink,
        )
        .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut sink = CountingSink::new();
            let sharded = run_campaign_job(
                &policy,
                noop(),
                &spec,
                &CampaignPersist {
                    checkpoint: Some(&journal),
                    resume: true,
                    cache: None,
                    mode: RunMode::Sharded { shard_items: 1 },
                    announce: false,
                },
                &mut sink,
            );
            let _ = tx.send((sharded, sink.progress));
        });
        let (sharded, progress) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the sharded job finishes instead of re-running failed items");
        let sharded = sharded.unwrap();
        assert_eq!(table(&sharded.payload), table(&cli.payload));
        assert!(table(&cli.payload).contains("errored"));
        assert_eq!(sharded.journal_records, 0, "no item succeeded");
        assert_eq!(
            progress,
            [(sharded.total_items, sharded.total_items)],
            "only the final report: nothing was journaled"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The coverage table's rows, each split into its cells.
    fn table_rows(payload: &str) -> Vec<Vec<&str>> {
        table(payload)
            .lines()
            .skip(2)
            .filter(|row| !row.trim().is_empty())
            .map(|row| row.split_whitespace().collect())
            .collect()
    }

    #[test]
    fn errored_faults_are_not_covered() {
        let spec = CampaignSpec {
            item_timeout_ms: Some(0),
            ..small_spec(Engine::Compiled)
        };
        let out = run_campaign_job(
            &ExecPolicy::with_threads(1),
            noop(),
            &spec,
            &CampaignPersist::default(),
            &mut NullSink,
        )
        .unwrap();
        let rows = table_rows(&out.payload);
        assert!(!rows.is_empty(), "{}", out.payload);
        for row in rows {
            // target faults detected corrupted as-X masked errored coverage
            assert_eq!(row[6], row[1], "every fault errored: {row:?}");
            assert_eq!(row[7], "0.0%", "{row:?}");
        }
    }

    #[test]
    fn coverage_counts_only_faults_that_reached_an_output() {
        // 8 faults: 3 detected, 1 corrupted, 2 masked, 2 errored.
        assert_eq!(coverage_cell(8, 8, 2 + 2), "50.0%");
        assert_eq!(coverage_cell(8, 8, 0), "100.0%");
        assert_eq!(coverage_cell(3, 3, 1), "66.7%");
        // A fault without a result leaves the cell open.
        assert_eq!(coverage_cell(8, 7, 2), "--");
    }

    #[test]
    fn sharded_mode_requires_a_journal_and_progress() {
        let policy = ExecPolicy::with_threads(1);
        let spec = small_spec(Engine::Event);
        let err = run_campaign_job(
            &policy,
            noop(),
            &spec,
            &CampaignPersist {
                mode: RunMode::Sharded { shard_items: 4 },
                ..CampaignPersist::default()
            },
            &mut NullSink,
        )
        .unwrap_err();
        assert!(err.0.contains("checkpoint"), "{err}");
    }

    #[test]
    fn optimize_tiling_is_invariant() {
        let policy = ExecPolicy::with_threads(1);
        let whole = run_optimize_job(&policy, &OptimizeSpec::new(), &mut NullSink).unwrap();
        let mut sink = CountingSink::new();
        let tiled = run_optimize_job(
            &policy,
            &OptimizeSpec {
                tile_points: 3,
                ..OptimizeSpec::new()
            },
            &mut sink,
        )
        .unwrap();
        assert_eq!(whole, tiled, "tile size must not change the table");
        assert_eq!(sink.progress.len(), 7, "ceil(20/3) tiles");
        assert_eq!(*sink.progress.last().unwrap(), (7, 7));
    }

    #[test]
    fn engine_and_example_parsing_match_the_cli_messages() {
        assert_eq!(Engine::parse("event").unwrap(), Engine::Event);
        assert_eq!(Engine::parse("compiled").unwrap(), Engine::Compiled);
        let err = Engine::parse("vliw").unwrap_err();
        assert_eq!(err, "unknown engine `vliw` (event, compiled)");
        let err = example_source("nonsuch").unwrap_err();
        assert!(err.0.contains("unknown example `nonsuch`"), "{err}");
    }
}
