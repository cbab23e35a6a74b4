//! Subcommand implementations. Each returns its full report as a string
//! that the binary prints, except `sta`, whose report [`stream_sta`]
//! writes straight into the binary's stdout.

use std::fmt;
use std::io::{self, Write};

use crate::args::Parsed;
use lowvolt_circuit::compiled::CompiledNetlist;
use lowvolt_circuit::faults::standard_targets;
use lowvolt_circuit::sim::Simulator;
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_circuit::Circuit;
use lowvolt_core::activity::ActivityVars;
use lowvolt_core::energy::{BlockParams, BurstEnergyModel};
use lowvolt_core::report::{fmt_sig, Table};
use lowvolt_device::body::BodyEffect;
use lowvolt_device::mosfet::Mosfet;
use lowvolt_device::soias::SoiasDevice;
use lowvolt_device::technology::Technology;
use lowvolt_device::units::{Hertz, Volts};
use lowvolt_exec::{ByteCache, ExecPolicy, MAX_RETRIES};
use lowvolt_lint::{Rule, UnknownRule};
use lowvolt_obs::json::Json;
use lowvolt_obs::{MetricsRegistry, Recorder};
use lowvolt_serve::client::{self, Event as SubmitEvent};
use lowvolt_serve::jobs::{
    self, CampaignPersist, Engine, JobError, NullSink, ProgramSource, RunMode, SourceSpec,
};
use lowvolt_serve::server::Server;

/// A command failed: carries the message shown to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> CliError {
        CliError(s)
    }
}

impl From<lowvolt_circuit::CircuitError> for CliError {
    fn from(e: lowvolt_circuit::CircuitError) -> CliError {
        CliError(e.to_string())
    }
}

impl From<lowvolt_core::error::CoreError> for CliError {
    fn from(e: lowvolt_core::error::CoreError) -> CliError {
        CliError(e.to_string())
    }
}

impl From<lowvolt_device::error::DeviceError> for CliError {
    fn from(e: lowvolt_device::error::DeviceError) -> CliError {
        CliError(e.to_string())
    }
}

impl From<JobError> for CliError {
    fn from(e: JobError) -> CliError {
        CliError(e.0)
    }
}

/// Why a command did not succeed — and where its output belongs.
///
/// `Gate` carries a *completed* report whose lint gate failed: the
/// binary prints it to stdout (so `--json` output stays
/// machine-readable even on failure) and exits 1. `Error` is a usage or
/// runtime error whose message belongs on stderr, exit 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliFailure {
    /// Usage or runtime error: message to stderr, exit 2.
    Error(CliError),
    /// Completed report that failed its gate: report to stdout, exit 1.
    Gate(String),
}

impl fmt::Display for CliFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliFailure::Error(e) => write!(f, "{e}"),
            CliFailure::Gate(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for CliFailure {}

impl From<CliError> for CliFailure {
    fn from(e: CliError) -> CliFailure {
        CliFailure::Error(e)
    }
}

impl From<String> for CliFailure {
    fn from(s: String) -> CliFailure {
        CliFailure::Error(CliError(s))
    }
}

impl From<UnknownRule> for CliFailure {
    fn from(e: UnknownRule) -> CliFailure {
        CliFailure::Error(e.into())
    }
}

impl From<lowvolt_lint::LintError> for CliFailure {
    fn from(e: lowvolt_lint::LintError) -> CliFailure {
        CliFailure::Error(e.into())
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
lowvolt — low-voltage digital system design toolkit

USAGE:
  lowvolt profile  (<file.s> | --example idea|espresso|li|fir) [--budget N]
                   [--hysteresis N] [--blocks] [--duty D] [--metrics-json PATH]
  lowvolt sim      (--circuit adder8|adder16|shifter8|mult8|alu8 | SOURCE)
                   [--patterns random|counting] [--cycles N] [--seed N]
                   [--engine event|compiled] [--metrics-json PATH]
  lowvolt activity (--circuit adder8|adder16|shifter8|mult8|alu8 | SOURCE)
                   [--patterns random|counting] [--cycles N] [--seed N]
  lowvolt optimize [--delay-ps PS] [--throughput-mhz F] [--activity A]
                   [--threads N] [--sta [--circuit NAME | SOURCE] [--width N]]
  lowvolt sta      [--circuit adder|shifter|multiplier|alu|registers|all | SOURCE]
                   [--width N] [--vdd V] [--vt V] [--required-ps PS]
                   [--json] [--metrics-json PATH]
  lowvolt campaign [--width N | SOURCE] [--vectors N] [--seed N] [--threads N]
                   [--engine event|compiled]
                   [--checkpoint PATH [--resume] [--interrupt-after N]]
                   [--max-retries N] [--item-timeout-ms MS] [--cache DIR]
                   [--metrics-json PATH]
  lowvolt circuits
  lowvolt compare  --fga F --bga B [--alpha A] [--block adder|shifter|multiplier]
                   [--vdd V] [--mhz F]
  lowvolt iv       [--vt V] [--soias] [--vds V]
  lowvolt lint     [--circuit NAME|all | SOURCE] [--width N]
                   [--fixture floating|loop|sleep|leakage|slack]
                   [--json] [--deny warnings|RULES] [--allow RULES]
                   [--leakage-budget-uw F] [--threads N] [--rules]
                   [--metrics-json PATH]
  lowvolt disasm   (<file.s> | --example idea|espresso|li|fir)
  lowvolt serve    [--listen ADDR] [--state DIR]
  lowvolt submit   --connect ADDR --request JSON [--metrics-json PATH]
  lowvolt help

SOURCE selects a circuit beyond the built-ins, anywhere --circuit is
accepted: `--netlist PATH` imports a gate-level netlist (.blif
structural BLIF or .bench/.isc ISCAS-85/89, format by extension;
malformed input exits 2 with a single PATH:LINE:COL-anchored message on
stderr), and `--generate N` synthesizes a seeded deterministic random
netlist with N gates (`--seed S`, `--gen-inputs K`, `--dff-fraction F`
shape it; the same seed reproduces the identical circuit on any host).
`lowvolt circuits` prints the full catalog: built-in datapaths,
standard families, import formats, and generator knobs.

`--threads N` selects the worker count for parallel sweeps (N = 0 or the
LOWVOLT_THREADS environment variable mean \"all available cores\");
results are identical for any thread count.

`--metrics-json PATH` collects internal counters and span timings while
the command runs and writes them as JSON to PATH (`-` replaces the
normal report on stdout with the metrics JSON). Counter totals are
identical for any thread count; only wall-clock fields vary.

`campaign` is fault-tolerant: `--checkpoint PATH` journals every
completed injection so a killed run finishes later with `--resume`
(the resumed coverage table is byte-identical to an uninterrupted
run's); `--max-retries N` and `--item-timeout-ms MS` bound each
injection, degrading persistent failures to typed per-injection
errors; `--cache DIR` reuses golden traces across invocations;
`--interrupt-after N` stops after N new injections (the deterministic
interruption hook the resume tests use).

`--engine compiled` selects the bit-parallel levelized engine: gates
are topologically levelized, 64 stimulus vectors are packed per machine
word, and each fault re-evaluates only its difference frontier against
the golden planes. Classifications, the coverage table, and settled
activity are byte-identical to the event engine on supported circuits;
structures only the event engine can simulate (combinational cycles,
bridge faults, gated flip-flop clocks, register feedback) are refused
with an explanatory error. Under `--engine compiled` the checkpoint,
`--interrupt-after`, and resume unit is a *work item* (one 64-vector
stimulus word over a range of up to 1024 faults), not an injection;
the checkpoint line and the interrupted run's pending count are in
work items. A journal written by one
engine is not replayed by the other (the mismatched records are
recomputed with a warning).

`sta` runs zero-simulation static timing analysis over a standard
datapath: the critical path as a named gate chain, per-endpoint arrival
and slack, all priced from the alpha-power-law delay model at the
`--vdd`/`--vt` operating point. `--required-ps` sets an explicit
required time (default: the critical delay itself, pinning worst slack
to zero).

`optimize --sta` replaces the 101-stage ring-oscillator proxy with the
chosen circuit's own critical path from static timing analysis:
`--delay-ps` then budgets each critical-path gate (the whole-path
target is PS x path depth), switching energy prices the circuit's
switched capacitance, and leakage its gate count — an optimum per
circuit rather than per proxy.

`serve` starts the job daemon: a TCP service speaking one JSON object
per line that runs the same five job kinds (campaign, optimize, lint,
sta, profile) with byte-identical payloads. Campaign jobs journal each
completed item under `--state DIR`, so a killed daemon resumes
completed work when the job is resubmitted. `submit` sends one request
line (`--request '{\"job\":\"campaign\",...}'`) to a running daemon,
streams progress to stderr, and prints the result payload to stdout
exactly as the equivalent direct command would.

Run any experiment of the paper with the separate `regen` binary.";

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns [`CliFailure::Error`] with a user-facing message for unknown
/// commands, bad arguments, or failed runs, and [`CliFailure::Gate`]
/// with the full report when `lint` completes but the gate fails.
pub fn run_command(parsed: &Parsed) -> Result<String, CliFailure> {
    if parsed.command == "lint" {
        return lint(parsed);
    }
    if parsed.command == "submit" {
        return submit(parsed);
    }
    match parsed.command.as_str() {
        "profile" => profile(parsed),
        "sim" => sim(parsed),
        "activity" => activity(parsed),
        "optimize" => optimize(parsed),
        "sta" => sta(parsed),
        "campaign" => campaign(parsed),
        "circuits" => circuits(),
        "compare" => compare(parsed),
        "iv" => iv(parsed),
        "disasm" => disasm(parsed),
        "serve" => serve(parsed),
        "help" | "" => Ok(USAGE.to_string()),
        other => Err(CliError(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
    .map_err(CliFailure::Error)
}

/// Resolves the execution policy for a command: `--threads N` when
/// given (0 = all cores), else the `LOWVOLT_THREADS` environment
/// variable, else the machine's available parallelism.
fn exec_policy(parsed: &Parsed) -> Result<ExecPolicy, CliError> {
    Ok(match parsed.threads()? {
        Some(n) => ExecPolicy::with_threads(n),
        None => ExecPolicy::from_env(),
    })
}

/// Metrics collection for one command invocation, driven by
/// `--metrics-json PATH`. Without the flag the recorder is the shared
/// noop and instrumentation costs nothing; with it, a
/// [`MetricsRegistry`] collects counters and spans, and [`Metrics::finish`]
/// either writes the JSON report to PATH or (PATH = `-`) returns it as
/// the command's stdout output in place of the normal report.
#[derive(Debug)]
struct Metrics {
    registry: Option<MetricsRegistry>,
    dest: Option<String>,
}

impl Metrics {
    fn from_args(parsed: &Parsed) -> Result<Metrics, CliError> {
        let dest = match parsed.get("metrics-json") {
            None => None,
            Some("") => {
                return Err(CliError(
                    "--metrics-json expects a file path (or `-` for stdout)".to_string(),
                ))
            }
            Some(path) => Some(path.to_string()),
        };
        Ok(Metrics {
            registry: dest.as_ref().map(|_| MetricsRegistry::new()),
            dest,
        })
    }

    fn recorder(&self) -> &dyn Recorder {
        match &self.registry {
            Some(reg) => reg,
            None => lowvolt_obs::noop(),
        }
    }

    fn finish(&self, out: String) -> Result<String, CliError> {
        let (Some(reg), Some(dest)) = (&self.registry, &self.dest) else {
            return Ok(out);
        };
        let json = reg.snapshot().to_json();
        if dest == "-" {
            return Ok(json);
        }
        std::fs::write(dest, json)
            .map_err(|e| CliError(format!("cannot write metrics to {dest}: {e}")))?;
        Ok(out)
    }
}

fn profile(parsed: &Parsed) -> Result<String, CliError> {
    let source = if let Some(example) = parsed.get("example") {
        ProgramSource::Example(example.to_string())
    } else if let Some(path) = parsed.positional.first() {
        ProgramSource::Text(
            std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("cannot read {path}: {e}")))?,
        )
    } else {
        return Err(CliError(
            "profile needs a source file or --example NAME".to_string(),
        ));
    };
    let mut spec = jobs::ProfileSpec::new(source);
    spec.budget = parsed.get_u64("budget")?.unwrap_or(200_000_000);
    spec.hysteresis = parsed.get_u64("hysteresis")?.unwrap_or(1);
    spec.duty = parsed.get_f64("duty")?;
    spec.blocks = parsed.has("blocks");
    let metrics = Metrics::from_args(parsed)?;
    let out = jobs::run_profile_job(metrics.recorder(), &spec)?;
    metrics.finish(out)
}

/// Builds one of the named demo circuits: the standard datapath of that
/// family and width (indices in `standard_targets` order: adder,
/// shifter, multiplier, ALU) under its demo name.
fn build_circuit(name: &str) -> Result<Circuit, CliError> {
    let (index, width) = match name {
        "adder8" => (0, 8),
        "adder16" => (0, 16),
        "shifter8" => (1, 8),
        "mult8" => (2, 8),
        "alu8" => (3, 8),
        other => {
            return Err(CliError(format!(
                "unknown circuit `{other}` (adder8, adder16, shifter8, mult8, alu8)"
            )))
        }
    };
    let mut circuit = standard_targets(width)?.swap_remove(index);
    circuit.name = name.to_string();
    Ok(circuit)
}

fn pattern_source(parsed: &Parsed, width: usize, seed: u64) -> Result<PatternSource, CliError> {
    match parsed.get("patterns").unwrap_or("random") {
        "random" => Ok(PatternSource::wide_random(width, seed)?),
        "counting" => Ok(PatternSource::counting(width.min(64), 0)?),
        other => Err(CliError(format!(
            "unknown pattern kind `{other}` (random, counting)"
        ))),
    }
}

/// Builds the job-layer circuit source from the `--netlist` /
/// `--generate` flags: [`SourceSpec::Builtin`] when neither is present
/// (the command falls back to its `--circuit` selection).
fn source_spec(parsed: &Parsed) -> Result<SourceSpec, CliError> {
    let netlist_flag = parsed.get("netlist");
    let generate_count = parsed.get_u64("generate")?;
    match (netlist_flag, generate_count) {
        (Some(_), Some(_)) => Err(CliError(
            "--netlist and --generate are mutually exclusive".to_string(),
        )),
        (Some(""), None) => Err(CliError(
            "--netlist expects a file path (.blif or .bench)".to_string(),
        )),
        (Some(path), None) => Ok(SourceSpec::Netlist {
            path: path.to_string(),
        }),
        (None, Some(gates)) => Ok(SourceSpec::Generate {
            gates,
            seed: parsed.get_u64("seed")?.unwrap_or(42),
            inputs: parsed.get_u64("gen-inputs")?,
            dff_fraction: parsed.get_f64("dff-fraction")?,
        }),
        (None, None) => Ok(SourceSpec::Builtin),
    }
}

/// The circuit `sim` and `activity` run on: the `--netlist` /
/// `--generate` source when given, else the `--circuit` demo (default
/// `adder8`).
///
/// Parse failures surface as a single `PATH:LINE:COL: message` error —
/// the binary routes that to stderr with exit 2, with no partial
/// report on stdout.
fn sim_circuit(parsed: &Parsed) -> Result<Circuit, CliError> {
    match source_spec(parsed)?.resolve(lowvolt_obs::noop())? {
        Some(c) => Ok(c),
        None => build_circuit(parsed.get("circuit").unwrap_or("adder8")),
    }
}

/// `lowvolt circuits`: the catalog of circuit sources — built-in
/// datapaths (with their sizes), standard lint/STA families, supported
/// import formats, and the generator knobs.
fn circuits() -> Result<String, CliError> {
    let mut out = String::from("built-in datapaths (sim/activity --circuit NAME):\n");
    let mut t = Table::new(["name", "gates", "nodes", "inputs"]);
    for name in ["adder8", "adder16", "shifter8", "mult8", "alu8"] {
        let c = build_circuit(name)?;
        t.push_row([
            name.to_string(),
            c.netlist.gate_count().to_string(),
            c.netlist.node_count().to_string(),
            c.inputs.len().to_string(),
        ]);
    }
    out.push_str(&t.to_string());

    out.push_str("\nstandard families (lint/sta/optimize --circuit NAME, sized by --width):\n");
    let mut t = Table::new(["name", "gates @ width 8", "sequential"]);
    for c in standard_targets(8)? {
        t.push_row([
            c.name.trim_end_matches(char::is_numeric).to_string(),
            c.netlist.gate_count().to_string(),
            if c.clock.is_some() { "yes" } else { "no" }.to_string(),
        ]);
    }
    out.push_str(&t.to_string());

    out.push_str(
        "\nimport formats (--netlist PATH, detected by extension):\n\
         \x20 .blif         structural BLIF: .model/.inputs/.outputs/.names covers,\n\
         \x20               .latch (rising-edge, one global clock) -> flip-flops\n\
         \x20 .bench, .isc  ISCAS-85/89: INPUT/OUTPUT, AND OR NAND NOR XOR XNOR NOT\n\
         \x20               BUF at any fanin, DFF with an implicit global clock\n\
         \nsynthetic circuits (--generate N, deterministic per seed):\n\
         \x20 --generate N       gate count (1..=2000000)\n\
         \x20 --seed S           PRNG seed (default 42); same seed, same netlist\n\
         \x20 --gen-inputs K     primary inputs (default 16, 1..=4096)\n\
         \x20 --dff-fraction F   flip-flop share 0.0..=0.5 (default 0.1; 0 = pure\n\
         \x20                    combinational, no clock)\n\
         \nEvery lint, campaign (either engine), sim, sta, and optimize --sta run\n\
         accepts --netlist or --generate in place of --circuit.\n",
    );
    Ok(out)
}

fn engine_flag(parsed: &Parsed) -> Result<Engine, CliError> {
    Ok(Engine::parse(parsed.get("engine").unwrap_or("event"))?)
}

/// Event-driven simulation of a demo circuit under a pattern stream,
/// reporting settle statistics and extracted switching activity. The
/// instrumentation showcase: with `--metrics-json` the simulator's
/// internal counters (`sim.events.processed`, `sim.settle.iterations`,
/// `sim.heap.pushes`, per-net transitions) and per-stage spans land in
/// the metrics report.
fn sim(parsed: &Parsed) -> Result<String, CliError> {
    let metrics = Metrics::from_args(parsed)?;
    let cycles = parsed.get_u64("cycles")?.unwrap_or(256) as usize;
    let seed = parsed.get_u64("seed")?.unwrap_or(42);
    let engine = engine_flag(parsed)?;
    let Circuit {
        name: circuit,
        netlist: n,
        inputs,
        ..
    } = sim_circuit(parsed)?;
    let mut source = pattern_source(parsed, inputs.len(), seed)?;
    let warmup = (cycles / 10).max(4);
    let report = match engine {
        Engine::Event => {
            let mut sim = Simulator::new(&n);
            sim.set_recorder(metrics.recorder());
            sim.measure_activity(&mut source, &inputs, cycles + warmup, warmup)?
        }
        Engine::Compiled => {
            let comp = CompiledNetlist::compile(&n)?;
            comp.measure_activity(
                &n,
                metrics.recorder(),
                &mut source,
                &inputs,
                cycles + warmup,
                warmup,
            )?
        }
    };
    // The compiled engine reports settled activity only; the event engine
    // additionally counts glitch transitions, so alpha may differ.
    let engine_line = match engine {
        Engine::Event => "",
        Engine::Compiled => "engine: compiled (bit-parallel, settled activity)\n",
    };
    let out = format!(
        "circuit: {circuit} ({} gates, {} nodes)\n{engine_line}simulated {} cycles ({} warmup)\nmean alpha = {:.4}\nswitched capacitance = {:.1} fF/cycle\n",
        n.gate_count(),
        n.node_count(),
        cycles,
        warmup,
        report.mean_transition_probability(),
        report.switched_capacitance_per_cycle().to_femtofarads(),
    );
    metrics.finish(out)
}

fn activity(parsed: &Parsed) -> Result<String, CliError> {
    let cycles = parsed.get_u64("cycles")?.unwrap_or(520) as usize;
    let seed = parsed.get_u64("seed")?.unwrap_or(42);
    let Circuit {
        name: circuit,
        netlist: n,
        inputs,
        ..
    } = sim_circuit(parsed)?;
    let mut source = pattern_source(parsed, inputs.len(), seed)?;
    let mut sim = Simulator::new(&n);
    let warmup = (cycles / 10).max(4);
    let report = sim.measure_activity(&mut source, &inputs, cycles + warmup, warmup)?;
    Ok(format!(
        "circuit: {circuit} ({} gates, {} nodes)\n{}\nmean alpha = {:.4}\ncapacitance-weighted alpha = {:.4}\nswitched capacitance = {:.1} fF/cycle\n",
        n.gate_count(),
        n.node_count(),
        report.histogram(12)?,
        report.mean_transition_probability(),
        report.weighted_transition_probability(),
        report.switched_capacitance_per_cycle().to_femtofarads(),
    ))
}

/// `sta` into a string: the bytes [`stream_sta`] writes.
fn sta(parsed: &Parsed) -> Result<String, CliError> {
    let mut out = Vec::new();
    stream_sta(parsed, &mut out)?.map_err(|e| CliError(e.to_string()))?;
    String::from_utf8(out).map_err(|e| CliError(e.to_string()))
}

/// Runs `lowvolt sta` — static timing analysis of the standard
/// datapaths or of a `--netlist` / `--generate` source: named critical
/// path, per-endpoint arrival/required/slack, text or JSON — and writes
/// what it prints on stdout into `out` (without the final newline the
/// binary adds), flushing it. The report is rendered straight into
/// `out`; with `--metrics-json -` the metrics JSON replaces it. The
/// analysis is serial, so `--threads` is not read.
///
/// # Errors
///
/// `Err` is a usage or job error, raised before anything is written.
/// `Ok(Err(e))` is `out`'s own write error, which may come mid-report.
/// A metrics file that cannot be created fails before the report
/// starts; one that cannot be written after it is an `Err`.
pub fn stream_sta(parsed: &Parsed, out: &mut dyn Write) -> Result<io::Result<()>, CliError> {
    let metrics = Metrics::from_args(parsed)?;
    let mut spec = jobs::StaSpec::new(source_spec(parsed)?);
    spec.circuit = parsed.get("circuit").unwrap_or("all").to_string();
    spec.width = parsed.get_u64("width")?.unwrap_or(8) as usize;
    spec.vdd = parsed.get_f64("vdd")?;
    spec.vt = parsed.get_f64("vt")?;
    spec.required_ps = parsed.get_f64("required-ps")?;
    spec.json = parsed.has("json");
    let rec = metrics.recorder();
    let job = jobs::StaJob::run(&ExecPolicy::serial(), rec, &spec)?;
    let Some((registry, dest)) = metrics.registry.as_ref().zip(metrics.dest.as_deref()) else {
        return Ok(job.write(rec, out));
    };
    if dest == "-" {
        // The metrics JSON is stdout; the report is still rendered and
        // timed, into a sink that cannot fail.
        let _ = job.write(rec, &mut io::sink());
        let json = registry.snapshot().to_json();
        return Ok(out.write_all(json.as_bytes()).and_then(|()| out.flush()));
    }
    let cannot = |e: io::Error| CliError(format!("cannot write metrics to {dest}: {e}"));
    let mut file = std::fs::File::create(dest).map_err(cannot)?;
    if let Err(e) = job.write(rec, out) {
        return Ok(Err(e));
    }
    file.write_all(registry.snapshot().to_json().as_bytes())
        .map_err(cannot)?;
    Ok(Ok(()))
}

fn optimize(parsed: &Parsed) -> Result<String, CliError> {
    let mut spec = jobs::OptimizeSpec::new();
    spec.delay_ps = parsed.get_f64("delay-ps")?.unwrap_or(150.0);
    spec.throughput_mhz = parsed.get_f64("throughput-mhz")?.unwrap_or(1.0);
    spec.activity = parsed.get_f64("activity")?.unwrap_or(1.0);
    if parsed.has("sta") {
        spec.sta = Some(jobs::OptimizeStaTarget {
            source: source_spec(parsed)?,
            circuit: parsed.get("circuit").unwrap_or("adder").to_string(),
            width: parsed.get_u64("width")?.unwrap_or(8) as usize,
        });
    }
    let policy = exec_policy(parsed)?;
    Ok(jobs::run_optimize_job(&policy, &spec, &mut NullSink)?)
}

fn campaign(parsed: &Parsed) -> Result<String, CliError> {
    let width = parsed.get_u64("width")?.unwrap_or(8) as usize;
    let vectors = parsed.get_u64("vectors")?.unwrap_or(32) as usize;
    let seed = parsed.get_u64("seed")?.unwrap_or(42);
    let max_retries = parsed.get_u64("max-retries")?.unwrap_or(0);
    let max_retries = u32::try_from(max_retries)
        .ok()
        .filter(|&n| n <= MAX_RETRIES)
        .ok_or_else(|| {
            CliError(format!(
                "--max-retries must be at most {MAX_RETRIES}, got {max_retries}"
            ))
        })?;
    let item_timeout_ms = parsed.get_u64("item-timeout-ms")?;
    let interrupt_after = parsed.get_u64("interrupt-after")?.map(|n| n as usize);
    let resume = parsed.has("resume");
    let checkpoint_path = match parsed.get("checkpoint") {
        Some("") => {
            return Err(CliError(
                "--checkpoint expects a journal file path".to_string(),
            ))
        }
        other => other.map(str::to_string),
    };
    if resume && checkpoint_path.is_none() {
        return Err(CliError("--resume requires --checkpoint PATH".to_string()));
    }
    if interrupt_after.is_some() && checkpoint_path.is_none() {
        return Err(CliError(
            "--interrupt-after requires --checkpoint PATH (the interrupted work \
             would otherwise be unrecoverable)"
                .to_string(),
        ));
    }
    let cache = match parsed.get("cache") {
        Some("") => return Err(CliError("--cache expects a directory path".to_string())),
        Some(dir) => Some(ByteCache::open(dir).map_err(|e| CliError(e.to_string()))?),
        None => None,
    };
    let policy = exec_policy(parsed)?;
    let metrics = Metrics::from_args(parsed)?;
    let mut spec = jobs::CampaignSpec::new(source_spec(parsed)?);
    spec.width = width;
    spec.vectors = vectors;
    spec.seed = seed;
    spec.engine = engine_flag(parsed)?;
    spec.max_retries = max_retries;
    spec.item_timeout_ms = item_timeout_ms;
    let persist = CampaignPersist {
        checkpoint: checkpoint_path.as_deref(),
        resume,
        cache: cache.as_ref(),
        mode: RunMode::Once { interrupt_after },
        announce: true,
    };
    let outcome =
        jobs::run_campaign_job(&policy, metrics.recorder(), &spec, &persist, &mut NullSink)?;
    metrics.finish(outcome.payload)
}

fn compare(parsed: &Parsed) -> Result<String, CliError> {
    let fga = parsed
        .get_f64("fga")?
        .ok_or_else(|| CliError("compare requires --fga".to_string()))?;
    let bga = parsed
        .get_f64("bga")?
        .ok_or_else(|| CliError("compare requires --bga".to_string()))?;
    let alpha = parsed.get_f64("alpha")?.unwrap_or(0.5);
    let vdd = Volts(parsed.get_f64("vdd")?.unwrap_or(1.0));
    let mhz = parsed.get_f64("mhz")?.unwrap_or(1.0);
    let block = match parsed.get("block").unwrap_or("adder") {
        "adder" => BlockParams::adder_8bit()?,
        "shifter" => BlockParams::shifter_8bit()?,
        "multiplier" => BlockParams::multiplier_8x8()?,
        other => {
            return Err(CliError(format!(
                "unknown block `{other}` (adder, shifter, multiplier)"
            )))
        }
    };
    let activity = ActivityVars::new(fga, bga, alpha).map_err(|e| CliError(e.to_string()))?;
    let model =
        BurstEnergyModel::new(vdd, Hertz(mhz * 1e6)).map_err(|e| CliError(e.to_string()))?;
    let device = SoiasDevice::paper_fig6();
    let technologies = [
        Technology::soi_fixed_vt_device(device.front_device(Volts(3.0))),
        Technology::soias(device, Volts(3.0)).map_err(|e| CliError(e.to_string()))?,
        Technology::mtcmos(Volts(0.084), Volts(0.55), vdd).map_err(|e| CliError(e.to_string()))?,
        Technology::substrate_bias(BodyEffect::with_vt0(Volts(0.084)), Volts(2.0))
            .map_err(|e| CliError(e.to_string()))?,
    ];
    let base = model.energy_per_cycle(&technologies[0], &block, activity).0;
    let mut best: (String, f64) = (technologies[0].name().to_string(), base);
    let mut t = Table::new(["technology", "E/cycle (J)", "vs fixed-V_T SOI"]);
    for tech in &technologies {
        let e = model.energy_per_cycle(tech, &block, activity).0;
        if e < best.1 {
            best = (tech.name().to_string(), e);
        }
        t.push_row([
            tech.name().to_string(),
            fmt_sig(e, 3),
            format!("{:.3}x", e / base),
        ]);
    }
    Ok(format!(
        "block: {}, activity: {activity}\n{t}\nrecommendation: {} ({} J/cycle)\n",
        block.name,
        best.0,
        fmt_sig(best.1, 3)
    ))
}

fn iv(parsed: &Parsed) -> Result<String, CliError> {
    let vds = Volts(parsed.get_f64("vds")?.unwrap_or(1.0));
    let mut out = String::new();
    if parsed.has("soias") {
        let d = SoiasDevice::paper_fig6();
        let mut t = Table::new(["V_gf (V)", "I_D @ V_gb=0 (A)", "I_D @ V_gb=3 (A)"]);
        for i in 0..=20 {
            let vgf = Volts(0.05 * f64::from(i));
            t.push_row([
                format!("{:.2}", vgf.0),
                fmt_sig(d.front_device(Volts(0.0)).drain_current(vgf, vds).0, 3),
                fmt_sig(d.front_device(Volts(3.0)).drain_current(vgf, vds).0, 3),
            ]);
        }
        out.push_str(&format!(
            "SOIAS device, V_ds = {} V; V_T = {:.3} / {:.3} V\n{t}",
            vds.0,
            d.vt(Volts(0.0)).0,
            d.vt(Volts(3.0)).0
        ));
    } else {
        let vt = Volts(parsed.get_f64("vt")?.unwrap_or(0.25));
        let m = Mosfet::nmos_with_vt(vt);
        let mut t = Table::new(["V_gs (V)", "I_D (A)"]);
        for i in 0..=20 {
            let vgs = Volts(0.05 * f64::from(i));
            t.push_row([
                format!("{:.2}", vgs.0),
                fmt_sig(m.drain_current(vgs, vds).0, 3),
            ]);
        }
        out.push_str(&format!(
            "NMOS, V_T = {} V, V_ds = {} V, S_th = {:.1} mV/dec\n{t}",
            vt.0,
            vds.0,
            m.subthreshold_slope().0 * 1e3
        ));
    }
    Ok(out)
}

impl From<UnknownRule> for CliError {
    fn from(e: UnknownRule) -> CliError {
        CliError(format!("{e} (see `lowvolt lint --rules` for the catalog)"))
    }
}

impl From<lowvolt_lint::LintError> for CliError {
    fn from(e: lowvolt_lint::LintError) -> CliError {
        CliError(e.to_string())
    }
}

fn rule_catalog() -> String {
    let mut t = Table::new(["id", "name", "pass", "severity", "summary"]);
    for r in Rule::ALL {
        t.push_row([
            r.id().to_string(),
            r.name().to_string(),
            r.pass().name().to_string(),
            r.default_severity().label().to_string(),
            r.summary().to_string(),
        ]);
    }
    format!("lint rule catalog:\n{t}")
}

fn lint(parsed: &Parsed) -> Result<String, CliFailure> {
    if parsed.has("rules") {
        return Ok(rule_catalog());
    }
    let policy = exec_policy(parsed)?;
    let mut spec = jobs::LintSpec::new(source_spec(parsed).map_err(CliFailure::Error)?);
    spec.fixture = parsed.get("fixture").map(str::to_string);
    spec.circuit = parsed.get("circuit").unwrap_or("all").to_string();
    spec.width = parsed.get_u64("width")?.unwrap_or(8) as usize;
    spec.json = parsed.has("json");
    spec.allow = parsed.get("allow").map(str::to_string);
    spec.deny = parsed.get("deny").map(str::to_string);
    spec.leakage_budget_uw = parsed.get_f64("leakage-budget-uw")?;
    let metrics = Metrics::from_args(parsed).map_err(CliFailure::Error)?;
    let outcome = jobs::run_lint_job(&policy, metrics.recorder(), &spec)
        .map_err(|e| CliFailure::Error(e.into()))?;
    let out = metrics.finish(outcome.payload).map_err(CliFailure::Error)?;
    if outcome.gate_failed {
        Err(CliFailure::Gate(out))
    } else {
        Ok(out)
    }
}

fn disasm(parsed: &Parsed) -> Result<String, CliError> {
    let source = if let Some(example) = parsed.get("example") {
        jobs::example_source(example)?
    } else if let Some(path) = parsed.positional.first() {
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?
    } else {
        return Err(CliError(
            "disasm needs a source file or --example NAME".to_string(),
        ));
    };
    let program = lowvolt_isa::assemble(&source).map_err(|e| CliError(e.to_string()))?;
    Ok(format!(
        "{} instructions, entry @{}\n\n{}",
        program.insts.len(),
        program.entry,
        program.listing()
    ))
}

/// `lowvolt serve`: bind the job daemon and block until a `shutdown`
/// command arrives. The listening line is printed (and flushed) before
/// the accept loop starts, so scripts can parse the bound port from a
/// `--listen 127.0.0.1:0` ephemeral bind.
fn serve(parsed: &Parsed) -> Result<String, CliError> {
    let listen = match parsed.get("listen") {
        Some("") => {
            return Err(CliError(
                "--listen expects HOST:PORT (use 127.0.0.1:0 for an ephemeral port)".to_string(),
            ))
        }
        Some(addr) => addr,
        None => "127.0.0.1:7651",
    };
    let state_dir = match parsed.get("state") {
        Some("") => return Err(CliError("--state expects a directory path".to_string())),
        Some(dir) => dir.to_string(),
        None => ".lowvolt-serve".to_string(),
    };
    let server = Server::bind(listen, &state_dir).map_err(|e| CliError(e.to_string()))?;
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(
            stdout,
            "lowvolt-serve listening on {}\nstate: {state_dir}",
            server.local_addr()
        );
        let _ = stdout.flush();
    }
    server.run().map_err(|e| CliError(e.to_string()))?;
    Ok("lowvolt-serve: shut down".to_string())
}

/// `lowvolt submit`: send one request line to a running daemon, stream
/// progress/warning events to stderr, and print the result payload to
/// stdout — byte-identical to the equivalent direct command.
fn submit(parsed: &Parsed) -> Result<String, CliFailure> {
    let addr = match parsed.get("connect") {
        Some("") | None => {
            return Err(CliFailure::Error(CliError(
                "submit requires --connect HOST:PORT".to_string(),
            )))
        }
        Some(addr) => addr,
    };
    let request = match parsed.get("request") {
        Some("") | None => {
            return Err(CliFailure::Error(CliError(
                "submit requires --request JSON (one job or command object)".to_string(),
            )))
        }
        Some(json) => json,
    };
    let metrics_dest = match parsed.get("metrics-json") {
        Some("") => {
            return Err(CliFailure::Error(CliError(
                "--metrics-json expects a file path (or `-` for stdout)".to_string(),
            )))
        }
        other => other.map(str::to_string),
    };
    let quiet = parsed.has("quiet");
    // A control command (`{"cmd": ...}`) has a single reply line, not a
    // job event stream: relay the daemon's answer verbatim.
    if let Ok(v) = Json::parse(request) {
        if let Some(cmd) = v.get("cmd").and_then(Json::as_str) {
            let answer =
                client::control(addr, cmd).map_err(|e| CliFailure::Error(CliError(e.0)))?;
            if let Ok(event) = Json::parse(&answer) {
                if event.get("event").and_then(Json::as_str) == Some("error") {
                    let message = event
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("daemon reported an error")
                        .to_string();
                    return Err(CliFailure::Error(CliError(message)));
                }
            }
            return Ok(answer);
        }
    }
    let mut on_event = |event: &SubmitEvent| {
        if quiet {
            return;
        }
        match event {
            SubmitEvent::Accepted { id } => eprintln!("job {id} accepted"),
            SubmitEvent::Progress { done, total } => eprintln!("progress: {done}/{total}"),
            SubmitEvent::Warning { message } => eprintln!("warning: {message}"),
        }
    };
    let outcome = client::submit_line(addr, request, &mut on_event)
        .map_err(|e| CliFailure::Error(CliError(e.0)))?;
    let payload = match &metrics_dest {
        Some(dest) if dest == "-" => outcome.metrics.clone(),
        Some(dest) => {
            std::fs::write(dest, &outcome.metrics).map_err(|e| {
                CliFailure::Error(CliError(format!("cannot write metrics to {dest}: {e}")))
            })?;
            outcome.payload
        }
        None => outcome.payload,
    };
    if outcome.status == "gate_failed" {
        return Err(CliFailure::Gate(payload));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn parse_json(json: &str) -> Json {
        Json::parse(json).unwrap_or_else(|e| panic!("{e}: {json}"))
    }

    /// A counter of a parsed `--metrics-json` report, which always
    /// carries the full catalog.
    fn counter(m: &Json, name: &str) -> u64 {
        let value = m.get("counters").and_then(|c| c.get(name));
        value.and_then(Json::as_u64).expect("catalog counter")
    }

    /// How often the span `name` completed, if it did.
    fn span_count(m: &Json, name: &str) -> Option<u64> {
        let spans = m.get("spans").and_then(Json::as_array)?;
        let span = spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))?;
        span.get("count").and_then(Json::as_u64)
    }

    /// A parsed metrics report without its wall-clock values: counters,
    /// span names and span counts, all deterministic.
    fn without_timings(json: &str) -> Json {
        let Json::Obj(mut fields) = parse_json(json) else {
            panic!("metrics report is an object: {json}")
        };
        fields.retain(|(k, _)| k != "derived");
        for (_, spans) in fields.iter_mut().filter(|(k, _)| k == "spans") {
            let Json::Arr(spans) = spans else {
                panic!("span list")
            };
            for span in spans {
                let Json::Obj(f) = span else {
                    panic!("span object")
                };
                f.retain(|(k, _)| k != "wall_ms");
            }
        }
        Json::Obj(fields)
    }

    fn run(args: &[&str]) -> Result<String, CliError> {
        // Collapse the failure kinds: these tests assert on message
        // content; stdout/stderr routing is covered by
        // `failure_kinds_route_reports_and_errors` and the binary
        // end-to-end tests.
        run_command(&parse(
            &args.iter().map(ToString::to_string).collect::<Vec<_>>(),
        ))
        .map_err(|f| match f {
            CliFailure::Error(e) => e,
            CliFailure::Gate(report) => CliError(report),
        })
    }

    #[test]
    fn failure_kinds_route_reports_and_errors() {
        let parse1 =
            |args: &[&str]| parse(&args.iter().map(ToString::to_string).collect::<Vec<_>>());
        // A completed-but-failing lint is a Gate failure carrying the
        // report; a usage error stays an Error.
        match run_command(&parse1(&["lint", "--fixture", "loop"])) {
            Err(CliFailure::Gate(report)) => assert!(report.contains("LV004"), "{report}"),
            other => panic!("expected gate failure, got {other:?}"),
        }
        match run_command(&parse1(&["lint", "--fixture", "nonsuch"])) {
            Err(CliFailure::Error(e)) => assert!(e.0.contains("nonsuch")),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn max_retries_is_capped_not_wrapped() {
        // 2^32 and 2^32 + 1 used to wrap to 0 and 1 retries.
        for n in ["17", "4294967296", "4294967297"] {
            let err = run(&["campaign", "--width", "2", "--max-retries", n]).unwrap_err();
            assert_eq!(err.0, format!("--max-retries must be at most 16, got {n}"));
        }
        let out = run(&[
            "campaign",
            "--width",
            "2",
            "--vectors",
            "2",
            "--max-retries",
            "16",
        ]);
        assert!(out.unwrap().contains("fault policy: 16 retries"));
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&["help"]).unwrap().contains("USAGE"));
        assert!(run(&[]).unwrap().contains("USAGE"));
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(err.0.contains("frobnicate"));
    }

    #[test]
    fn profile_example_idea() {
        let out = run(&["profile", "--example", "idea", "--budget", "100000000"]).unwrap();
        assert!(out.contains("Total Instructions"));
        assert!(out.contains("Multiplications"));
        assert!(out.contains("program output:"));
    }

    #[test]
    fn profile_with_blocks() {
        let out = run(&["profile", "--example", "fir", "--blocks"]).unwrap();
        assert!(out.contains("hot basic blocks"));
        assert!(out.contains("dynamic instrs"));
    }

    #[test]
    fn profile_with_duty() {
        let out = run(&["profile", "--example", "idea", "--duty", "0.2"]).unwrap();
        assert!(out.contains("bursty execution"));
        assert!(out.contains("Total Instructions"));
    }

    #[test]
    fn profile_needs_a_source() {
        let err = run(&["profile"]).unwrap_err();
        assert!(err.0.contains("--example"));
        let err = run(&["profile", "--example", "nonsuch"]).unwrap_err();
        assert!(err.0.contains("nonsuch"));
        let err = run(&["profile", "/definitely/not/a/file.s"]).unwrap_err();
        assert!(err.0.contains("cannot read"));
    }

    #[test]
    fn activity_circuits() {
        let out = run(&["activity", "--circuit", "adder8", "--cycles", "100"]).unwrap();
        assert!(out.contains("mean alpha"));
        assert!(out.contains("40 gates"));
        let out = run(&["activity", "--circuit", "alu8", "--cycles", "60"]).unwrap();
        assert!(out.contains("switched capacitance"));
        let err = run(&["activity", "--circuit", "gpu"]).unwrap_err();
        assert!(err.0.contains("gpu"));
    }

    #[test]
    fn optimize_reports_sub_1v_optimum() {
        let out = run(&["optimize", "--delay-ps", "150"]).unwrap();
        assert!(out.contains("optimum: V_T"));
        let vdd: f64 = out
            .split("V_DD = ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("vdd parses");
        assert!(vdd < 1.2, "vdd = {vdd}");
    }

    #[test]
    fn optimize_accepts_threads_flag() {
        let serial = run(&["optimize", "--delay-ps", "150", "--threads", "1"]).unwrap();
        let parallel = run(&["optimize", "--delay-ps", "150", "--threads", "4"]).unwrap();
        assert_eq!(serial, parallel, "thread count must not change results");
        let err = run(&["optimize", "--threads", "two"]).unwrap_err();
        assert!(err.0.contains("--threads"));
    }

    #[test]
    fn sta_names_the_critical_path() {
        let out = run(&["sta", "--circuit", "adder"]).unwrap();
        assert!(out.contains("static timing report: adder8"), "{out}");
        assert!(out.contains("critical path ("), "{out}");
        assert!(out.contains("critical delay"), "{out}");
        assert!(out.contains("endpoints ("), "{out}");
    }

    #[test]
    fn sta_critical_delay_tracks_the_operating_point() {
        let delay = |args: &[&str]| -> f64 {
            let out = run(args).unwrap();
            out.split("critical delay ")
                .nth(1)
                .and_then(|s| s.split(" ps").next())
                .and_then(|s| s.parse().ok())
                .expect("critical delay parses")
        };
        let base = delay(&["sta", "--circuit", "adder"]);
        let starved = delay(&["sta", "--circuit", "adder", "--vdd", "0.7"]);
        assert!(
            starved > base,
            "lower V_DD must be slower: {starved} vs {base}"
        );
        let fast = delay(&["sta", "--circuit", "adder", "--vt", "0.1"]);
        assert!(fast < base, "lower V_T must be faster: {fast} vs {base}");
    }

    #[test]
    fn sta_covers_all_standard_datapaths() {
        let out = run(&["sta"]).unwrap();
        for name in ["adder8", "shifter8", "multiplier8", "alu8", "registers8"] {
            assert!(
                out.contains(&format!("static timing report: {name}")),
                "{out}"
            );
        }
        let err = run(&["sta", "--circuit", "gpu"]).unwrap_err();
        assert!(err.0.contains("gpu"));
        let err = run(&["sta", "--required-ps", "-3"]).unwrap_err();
        assert!(err.0.contains("--required-ps"), "{}", err.0);
    }

    #[test]
    fn sta_json_and_threads_are_stable() {
        let json = run(&["sta", "--json"]).unwrap();
        assert!(json.starts_with('['), "{json}");
        let reports = parse_json(&json);
        let reports = reports.as_array().unwrap();
        assert_eq!(reports.len(), 5, "one report per standard target");
        for r in reports {
            assert!(r.get("critical_ps").and_then(Json::as_f64).is_some(), "{r}");
            assert!(
                r.get("node_slack").and_then(Json::as_array).is_some(),
                "{r}"
            );
        }
        let t1 = run(&["sta", "--threads", "1"]).unwrap();
        let t2 = run(&["sta", "--threads", "2"]).unwrap();
        let t8 = run(&["sta", "--threads", "8"]).unwrap();
        assert_eq!(t1, t2, "thread count must not change the report");
        assert_eq!(t1, t8, "thread count must not change the report");
        let j1 = run(&["sta", "--json", "--threads", "1"]).unwrap();
        let j8 = run(&["sta", "--json", "--threads", "8"]).unwrap();
        assert_eq!(j1, j8, "thread count must not change the JSON");
    }

    #[test]
    fn sta_required_time_sets_the_slack_reference() {
        let out = run(&["sta", "--circuit", "adder", "--required-ps", "100000"]).unwrap();
        assert!(out.contains("required 100000.000 ps"), "{out}");
    }

    #[test]
    fn sta_metrics_json_records_the_analysis() {
        let json = run(&["sta", "--circuit", "adder", "--metrics-json", "-"]).unwrap();
        let m = parse_json(&json);
        assert!(counter(&m, "sta.nodes") > 0, "{json}");
        assert!(counter(&m, "sta.critical_ps") > 0, "{json}");
        assert_eq!(span_count(&m, "sta.analyze"), Some(1), "{json}");
        // The report is rendered, and counted, though the metrics replace it.
        let report = run(&["sta", "--circuit", "adder"]).unwrap();
        assert_eq!(counter(&m, "sta.report_bytes"), report.len() as u64);
        assert_eq!(span_count(&m, "sta.render"), Some(1), "{json}");
    }

    /// A writer that takes `room` bytes, then fails every write with
    /// `kind`.
    struct FailingWriter {
        taken: Vec<u8>,
        room: usize,
        kind: io::ErrorKind,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.room - self.taken.len());
            if n == 0 && !buf.is_empty() {
                return Err(self.kind.into());
            }
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn stream(args: &[&str], out: &mut dyn Write) -> Result<io::Result<()>, CliError> {
        stream_sta(
            &parse(&args.iter().map(ToString::to_string).collect::<Vec<_>>()),
            out,
        )
    }

    #[test]
    fn stream_sta_hands_back_a_mid_report_write_error() {
        let mut out = FailingWriter {
            taken: Vec::new(),
            room: 5000,
            kind: io::ErrorKind::StorageFull,
        };
        let err = stream(&["sta", "--circuit", "multiplier"], &mut out)
            .expect("the job itself succeeds")
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let whole = run(&["sta", "--circuit", "multiplier"]).unwrap();
        assert!(whole.len() > out.taken.len());
        assert!(whole.as_bytes().starts_with(&out.taken));
    }

    #[test]
    fn stream_sta_raises_job_errors_before_writing() {
        for args in [
            &["sta", "--circuit", "nonsuch"][..],
            &["sta", "--required-ps", "-1"],
            &["sta", "--netlist", "missing.blif"],
        ] {
            let mut out = FailingWriter {
                taken: Vec::new(),
                room: 0,
                kind: io::ErrorKind::Other,
            };
            assert!(stream(args, &mut out).is_err(), "{args:?}");
            assert!(out.taken.is_empty(), "{args:?}");
        }
    }

    #[test]
    fn optimize_sta_mode_constrains_the_real_datapath() {
        let ring = run(&["optimize", "--delay-ps", "150"]).unwrap();
        let sta = run(&[
            "optimize",
            "--delay-ps",
            "150",
            "--sta",
            "--circuit",
            "adder",
        ])
        .unwrap();
        assert!(sta.contains("sta mode: adder8"), "{sta}");
        assert!(sta.contains("whole-path"), "{sta}");
        let optimum = |s: &str| {
            s.split("optimum: ")
                .nth(1)
                .map(str::to_string)
                .expect("optimum line present")
        };
        assert_ne!(
            optimum(&ring),
            optimum(&sta),
            "the datapath-backed optimum must differ from the ring proxy"
        );
        let err = run(&["optimize", "--sta", "--circuit", "all"]).unwrap_err();
        assert!(err.0.contains("one circuit"), "{}", err.0);
    }

    #[test]
    fn sim_reports_activity_summary() {
        let out = run(&["sim", "--circuit", "adder8", "--cycles", "64"]).unwrap();
        assert!(out.contains("simulated 64 cycles"));
        assert!(out.contains("mean alpha"));
        let err = run(&["sim", "--circuit", "gpu"]).unwrap_err();
        assert!(err.0.contains("gpu"));
    }

    #[test]
    fn sim_metrics_json_on_stdout_is_complete_and_thread_invariant() {
        let run_sim = |threads: &str| {
            run(&[
                "sim",
                "--circuit",
                "adder8",
                "--cycles",
                "64",
                "--metrics-json",
                "-",
                "--threads",
                threads,
            ])
            .unwrap()
        };
        let json = run_sim("1");
        // The metrics JSON replaces the report and carries the headline
        // simulation counters plus per-stage wall-clock spans.
        assert!(json.trim_start().starts_with('{'), "{json}");
        let m = parse_json(&json);
        for name in [
            "sim.events.processed",
            "sim.settle.iterations",
            "sim.heap.pushes",
            "sim.alpha.nodes",
        ] {
            assert!(counter(&m, name) > 0, "{name} in {json}");
        }
        for name in ["sim.settle", "sim.measure_activity"] {
            assert!(span_count(&m, name).is_some(), "{name} in {json}");
        }
        let spans = m.get("spans").and_then(Json::as_array).unwrap();
        assert!(spans.iter().all(|s| s.get("wall_ms").is_some()), "{json}");
        // Equal across thread counts once wall-clock fields are removed
        // (the sim pipeline is single-threaded; counters are
        // deterministic by construction).
        let masked: Vec<Json> = ["1", "2", "8"]
            .iter()
            .map(|t| without_timings(&run_sim(t)))
            .collect();
        assert_eq!(masked[0], without_timings(&json));
        assert_eq!(masked[0], masked[1]);
        assert_eq!(masked[0], masked[2]);
    }

    #[test]
    fn campaign_metrics_json_writes_to_a_file() {
        let dir = std::env::temp_dir().join("lowvolt_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign_metrics.json");
        let out = run(&[
            "campaign",
            "--width",
            "2",
            "--vectors",
            "4",
            "--metrics-json",
            path.to_str().unwrap(),
        ])
        .unwrap();
        // The normal report still goes to stdout; metrics land in the file.
        assert!(out.contains("coverage"));
        let json = std::fs::read_to_string(&path).unwrap();
        let m = parse_json(&json);
        assert!(counter(&m, "campaign.injections") > 0, "{json}");
        assert!(counter(&m, "exec.items") > 0, "{json}");
        // One campaign per standard datapath.
        assert_eq!(span_count(&m, "campaign.run"), Some(5), "{json}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lint_and_profile_accept_metrics_json() {
        let json = run(&["lint", "--circuit", "adder", "--metrics-json", "-"]).unwrap();
        let m = parse_json(&json);
        assert_eq!(counter(&m, "lint.passes"), 5, "{json}");
        assert!(span_count(&m, "lint.pass.structural").is_some(), "{json}");
        assert!(span_count(&m, "lint.pass.timing").is_some(), "{json}");

        let json = run(&["profile", "--example", "fir", "--metrics-json", "-"]).unwrap();
        let m = parse_json(&json);
        assert!(counter(&m, "profile.instructions") > 0, "{json}");
        assert!(span_count(&m, "profile.run").is_some(), "{json}");

        let err = run(&["sim", "--metrics-json", "--cycles"]).unwrap_err();
        assert!(err.0.contains("--metrics-json"), "{}", err.0);
    }

    #[test]
    fn campaign_reports_coverage_table() {
        let out = run(&["campaign", "--width", "2", "--vectors", "4"]).unwrap();
        assert!(out.contains("stuck-at fault campaign"));
        assert!(out.contains("adder2"));
        assert!(out.contains("coverage"));
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let serial = run(&[
            "campaign",
            "--width",
            "2",
            "--vectors",
            "4",
            "--threads",
            "1",
        ])
        .unwrap();
        let parallel = run(&[
            "campaign",
            "--width",
            "2",
            "--vectors",
            "4",
            "--threads",
            "3",
        ])
        .unwrap();
        // The reported thread count differs; everything after the header
        // (the per-target coverage table) must not.
        let table = |s: &str| s.split("\n\n").nth(1).map(str::to_string);
        assert_eq!(table(&serial).as_deref(), table(&parallel).as_deref());
        assert!(table(&serial).is_some());
    }

    #[test]
    fn campaign_checkpoint_interrupt_and_resume_match_clean_run() {
        let dir = std::env::temp_dir().join("lowvolt_cli_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.lvjr");
        let _ = std::fs::remove_file(&journal);
        let base = ["campaign", "--width", "2", "--vectors", "4"];
        let with = |extra: &[&str]| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend_from_slice(extra);
            run(&args).unwrap()
        };
        let clean = with(&["--threads", "2"]);
        let interrupted = with(&[
            "--threads",
            "1",
            "--checkpoint",
            journal.to_str().unwrap(),
            "--interrupt-after",
            "10",
        ]);
        assert!(
            interrupted.contains("campaign interrupted"),
            "{interrupted}"
        );
        assert!(interrupted.contains("--"), "partial coverage shown");
        let resumed = with(&[
            "--threads",
            "3",
            "--checkpoint",
            journal.to_str().unwrap(),
            "--resume",
        ]);
        // The resumed run finishes the journal and its coverage table is
        // byte-identical to the uninterrupted run's.
        let table = |s: &str| s.split("\n\n").nth(1).map(str::to_string);
        assert_eq!(table(&clean), table(&resumed));
        assert!(!resumed.contains("campaign interrupted"), "{resumed}");
        assert!(resumed.contains("completed injection(s) on file"));
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn campaign_golden_cache_hits_across_invocations() {
        let dir = std::env::temp_dir().join("lowvolt_cli_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let args = [
            "campaign",
            "--width",
            "2",
            "--vectors",
            "4",
            "--cache",
            dir.to_str().unwrap(),
            "--metrics-json",
            "-",
        ];
        let first = run(&args).unwrap();
        assert!(first.contains("\"cache.misses\": 5"), "{first}");
        let second = run(&args).unwrap();
        assert!(second.contains("\"cache.hits\": 5"), "{second}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_flag_validation() {
        let err = run(&["campaign", "--resume"]).unwrap_err();
        assert!(err.0.contains("--checkpoint"), "{}", err.0);
        let err = run(&["campaign", "--interrupt-after", "5"]).unwrap_err();
        assert!(err.0.contains("--checkpoint"), "{}", err.0);
        let err = run(&["campaign", "--checkpoint"]).unwrap_err();
        assert!(err.0.contains("journal file path"), "{}", err.0);
    }

    #[test]
    fn sim_compiled_engine_reports_and_flushes_counters() {
        let out = run(&[
            "sim",
            "--circuit",
            "adder8",
            "--cycles",
            "64",
            "--engine",
            "compiled",
        ])
        .unwrap();
        assert!(out.contains("engine: compiled"), "{out}");
        assert!(out.contains("simulated 64 cycles"), "{out}");
        assert!(out.contains("mean alpha"), "{out}");
        let json = run(&[
            "sim",
            "--circuit",
            "adder8",
            "--cycles",
            "64",
            "--engine",
            "compiled",
            "--metrics-json",
            "-",
        ])
        .unwrap();
        assert!(json.contains("\"compiled.words\""), "{json}");
        assert!(json.contains("\"compiled.gate_evals\""), "{json}");
        let err = run(&["sim", "--engine", "vliw"]).unwrap_err();
        assert!(err.0.contains("unknown engine `vliw`"), "{}", err.0);
    }

    #[test]
    fn campaign_compiled_coverage_table_matches_event() {
        let event = run(&["campaign", "--width", "2", "--vectors", "4"]).unwrap();
        let compiled = run(&[
            "campaign",
            "--width",
            "2",
            "--vectors",
            "4",
            "--engine",
            "compiled",
        ])
        .unwrap();
        assert!(compiled.contains("engine: compiled"), "{compiled}");
        let table = |s: &str| s.split("\n\n").nth(1).map(str::to_string);
        assert_eq!(table(&event), table(&compiled));
        assert!(table(&event).is_some());
    }

    #[test]
    fn campaign_compiled_is_thread_count_invariant() {
        let base = [
            "campaign",
            "--width",
            "2",
            "--vectors",
            "70",
            "--engine",
            "compiled",
        ];
        let table = |s: &str| s.split("\n\n").nth(1).map(str::to_string);
        let runs: Vec<String> = ["1", "2", "8"]
            .iter()
            .map(|t| {
                let mut args = base.to_vec();
                args.extend_from_slice(&["--threads", t]);
                run(&args).unwrap()
            })
            .collect();
        assert_eq!(table(&runs[0]), table(&runs[1]));
        assert_eq!(table(&runs[0]), table(&runs[2]));
        assert!(table(&runs[0]).is_some());
    }

    #[test]
    fn campaign_compiled_checkpoint_interrupt_and_resume_match_clean_run() {
        let dir = std::env::temp_dir().join("lowvolt_cli_compiled_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.lvjr");
        let _ = std::fs::remove_file(&journal);
        // 70 vectors = 2 packed words per target; interrupting after 3
        // words leaves later targets unresolved.
        let base = [
            "campaign",
            "--width",
            "2",
            "--vectors",
            "70",
            "--engine",
            "compiled",
        ];
        let with = |extra: &[&str]| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend_from_slice(extra);
            run(&args).unwrap()
        };
        let clean = with(&["--threads", "2"]);
        let interrupted = with(&[
            "--threads",
            "1",
            "--checkpoint",
            journal.to_str().unwrap(),
            "--interrupt-after",
            "3",
        ]);
        assert!(
            interrupted.contains("campaign interrupted"),
            "{interrupted}"
        );
        assert!(
            interrupted.contains("campaign interrupted: 7 work item(s) pending"),
            "{interrupted}"
        );
        assert!(interrupted.contains("--"), "partial coverage shown");
        let resumed = with(&[
            "--threads",
            "3",
            "--checkpoint",
            journal.to_str().unwrap(),
            "--resume",
        ]);
        let table = |s: &str| s.split("\n\n").nth(1).map(str::to_string);
        assert_eq!(table(&clean), table(&resumed));
        assert!(!resumed.contains("campaign interrupted"), "{resumed}");
        assert!(
            resumed.contains("(3 completed work item(s) on file)"),
            "{resumed}"
        );
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn campaign_compiled_golden_cache_interop_with_event() {
        let dir = std::env::temp_dir().join("lowvolt_cli_compiled_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let with_engine = |engine: &str| {
            run(&[
                "campaign",
                "--width",
                "2",
                "--vectors",
                "4",
                "--engine",
                engine,
                "--cache",
                dir.to_str().unwrap(),
                "--metrics-json",
                "-",
            ])
            .unwrap()
        };
        // The compiled engine populates the same golden-trace cache the
        // event engine reads (and vice versa): identical key and payload.
        let first = with_engine("compiled");
        assert!(first.contains("\"cache.misses\": 5"), "{first}");
        let event = with_engine("event");
        assert!(event.contains("\"cache.hits\": 5"), "{event}");
        let again = with_engine("compiled");
        assert!(again.contains("\"cache.hits\": 5"), "{again}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_recommends_a_standby_technology_when_idle() {
        let out = run(&["compare", "--fga", "0.01", "--bga", "0.001"]).unwrap();
        assert!(out.contains("recommendation:"));
        assert!(!out.contains("recommendation: soi-fixed-vt"), "{out}");
        let err = run(&["compare", "--bga", "0.1"]).unwrap_err();
        assert!(err.0.contains("--fga"));
    }

    #[test]
    fn iv_tables() {
        let out = run(&["iv", "--vt", "0.4"]).unwrap();
        assert!(out.contains("V_T = 0.4"));
        assert!(out.contains("mV/dec"));
        let out = run(&["iv", "--soias"]).unwrap();
        assert!(out.contains("V_gb=3"));
    }

    #[test]
    fn lint_standard_datapaths_are_clean() {
        let out = run(&["lint", "--deny", "warnings"]).unwrap();
        assert!(out.contains("adder8: clean"), "{out}");
        assert!(out.contains("registers8: clean"), "{out}");
        assert!(out.contains("5 target(s) linted, 0 failing"), "{out}");
    }

    #[test]
    fn lint_single_circuit_by_family_name() {
        let out = run(&["lint", "--circuit", "alu", "--width", "4"]).unwrap();
        assert!(out.contains("alu4: clean"), "{out}");
        assert!(out.contains("1 target(s) linted"), "{out}");
        let err = run(&["lint", "--circuit", "gpu"]).unwrap_err();
        assert!(err.0.contains("gpu"));
    }

    #[test]
    fn lint_fixtures_fail_the_gate() {
        for fixture in ["floating", "loop", "sleep", "leakage", "slack"] {
            let err = run(&["lint", "--fixture", fixture]).unwrap_err();
            assert!(err.0.contains("error"), "fixture {fixture}: {}", err.0);
            assert!(err.0.contains("failing the gate"), "{}", err.0);
        }
        let err = run(&["lint", "--fixture", "slack"]).unwrap_err();
        assert!(err.0.contains("LV040"), "{}", err.0);
        let err = run(&["lint", "--fixture", "nonsuch"]).unwrap_err();
        assert!(err.0.contains("nonsuch"));
    }

    #[test]
    fn lint_json_output_is_machine_readable() {
        let err = run(&["lint", "--fixture", "sleep", "--json"]).unwrap_err();
        assert!(err.0.starts_with('['), "{}", err.0);
        assert!(err.0.contains("\"rule\":\"LV020\""), "{}", err.0);
        let ok = run(&["lint", "--circuit", "adder", "--json"]).unwrap();
        assert!(ok.contains("\"diagnostics\":[]"), "{ok}");
    }

    #[test]
    fn lint_allow_filter_can_waive_a_fixture() {
        // Allowing both rules the floating fixture trips turns the
        // failure into a clean pass — the filter plumbing reaches the
        // engine.
        let out = run(&[
            "lint",
            "--fixture",
            "floating",
            "--allow",
            "LV001,x-contamination",
        ])
        .unwrap();
        assert!(out.contains("0 failing"), "{out}");
        let err = run(&["lint", "--allow", "LV999"]).unwrap_err();
        assert!(err.0.contains("LV999"));
        assert!(err.0.contains("--rules"));
    }

    #[test]
    fn lint_budget_flag_rescues_leakage_fixture() {
        let err = run(&["lint", "--fixture", "leakage"]).unwrap_err();
        assert!(err.0.contains("LV030"), "{}", err.0);
        let out = run(&[
            "lint",
            "--fixture",
            "leakage",
            "--leakage-budget-uw",
            "1000",
        ])
        .unwrap();
        assert!(out.contains("0 failing"), "{out}");
        let err = run(&["lint", "--leakage-budget-uw", "-1"]).unwrap_err();
        assert!(err.0.contains("positive"));
    }

    #[test]
    fn lint_rules_catalog_lists_every_rule() {
        let out = run(&["lint", "--rules"]).unwrap();
        for rule in Rule::ALL {
            assert!(out.contains(rule.id()), "missing {}", rule.id());
        }
        assert!(out.contains("power-intent"));
    }

    #[test]
    fn lint_is_thread_count_invariant() {
        let serial = run(&["lint", "--threads", "1"]).unwrap();
        let parallel = run(&["lint", "--threads", "4"]).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn disasm_lists_instructions() {
        let out = run(&["disasm", "--example", "fir"]).unwrap();
        assert!(out.contains("entry @"));
        assert!(out.contains("mult"));
        assert!(out.contains("main:"));
        let err = run(&["disasm"]).unwrap_err();
        assert!(err.0.contains("--example"));
    }

    #[test]
    fn profile_reads_a_real_file() {
        let dir = std::env::temp_dir().join("lowvolt_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.s");
        std::fs::write(
            &path,
            ".text\nli $a0, 7\nli $v0, 1\nsyscall\nli $v0, 10\nsyscall\n",
        )
        .unwrap();
        let out = run(&["profile", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("program output: 7"));
    }
}
