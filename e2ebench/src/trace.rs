//! The per-layer run (`--trace 1`): the first jobs of a workload, plus a
//! probe of one job of each serve kind, are executed in this process,
//! re-run through the CLI, and submitted to a daemon over a raw socket.
//! Spans are kept in memory and written out at the end.
//!
//! Layer times are timed from outside the program. Each repetition of a
//! traced job makes one call to the job's `serve::jobs` function, with a
//! metrics registry, and separate calls into the layers that job is made
//! of: `parse_path`, the target copy, `CompiledNetlist::compile`, the
//! frees, and the rendering of its report. The time spent in the STA
//! passes or the campaign proper is the program's own `sta.analyze` /
//! `campaign.run` span, which opens once the netlist is compiled. Since
//! every layer is timed on its own, their sum shows how much of the job
//! function's wall time they explain (`trace.coverage`); the rest is
//! work no layer covers, such as the campaign's fault universe.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

use lowvolt_circuit::compiled::CompiledNetlist;
use lowvolt_core::report::Table;
use lowvolt_device::units::Volts;
use lowvolt_exec::ExecPolicy;
use lowvolt_io::parse_path;
use lowvolt_obs::{names, MetricsRegistry, MetricsReport, Recorder};
use lowvolt_serve::jobs::{self as sj, CampaignPersist, RunMode};
use lowvolt_serve::json::{escape, Json};
use lowvolt_serve::proto::{parse_request, JobKind};
use lowvolt_sta::{analyze, StaConfig, StaReport};

use crate::check::campaign_table;
use crate::jobs::{make_inputs, JobStream, Scale, Spec, Workload, KINDS};
use crate::measure::{Metric, Outcome};
use crate::proc::{cpu_seconds, CliRun, Daemon, Program};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The traced job it belongs to.
    pub job: usize,
    /// Layer or step name.
    pub name: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, job: usize, name: &str, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            job,
            name: name.to_string(),
            parent,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    /// Closes a span, returning its duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        (end_us - span.start_us) / 1e3
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        job: usize,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(job, name, parent);
        let out = f();
        (out, self.end(id))
    }

    /// The spans as one JSON document.
    #[must_use]
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"spans\":[",
            escape(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"job\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                s.job,
                escape(&s.name),
                s.start_us,
                s.end_us
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What one repetition of a traced job measured.
struct LayerRun {
    /// `(layer, ms)` in call order.
    layers: Vec<(&'static str, f64)>,
    /// Wall time of the job function.
    job_ms: f64,
    /// The job function's output.
    output: String,
    /// What the program recorded during the job function.
    report: MetricsReport,
    /// Levels of the compiled netlist, for jobs that compile one.
    levels: Option<usize>,
}

/// A daemon round trip timed from a raw socket client.
#[derive(Debug, Clone)]
struct ServeTrace {
    accept_ms: f64,
    exec_ms: f64,
    decode_ms: f64,
    result_kb: f64,
    request_parse_us: f64,
    payload: String,
    status: String,
    replayed: u64,
    computed: u64,
    cache_hits: u64,
    cache_misses: u64,
    checkpoint_records: u64,
    shard_rounds: u64,
}

/// Everything measured about one traced job.
struct TracedJob {
    spec: Spec,
    input_bytes: Option<u64>,
    /// Minimum time of each layer over the repetitions.
    layers: BTreeMap<&'static str, f64>,
    /// Minimum over repetitions of the summed layer times.
    layered_ms: f64,
    /// Minimum over repetitions of the job function's wall time.
    job_ms: f64,
    levels: Option<usize>,
    report_bytes: usize,
    report: MetricsReport,
    cli: Option<CliRun>,
    serve: Option<ServeTrace>,
}

impl TracedJob {
    fn layer(&self, name: &str) -> Option<f64> {
        self.layers.get(name).copied()
    }

    fn counter(&self, name: &str) -> f64 {
        self.report.counter(name) as f64
    }

    /// How much of the job function's wall time the separately timed
    /// layers account for, for the kinds split into several layers. Both
    /// sides are minima over the repetitions: on a shared host the noise
    /// only ever adds time.
    fn coverage(&self) -> Option<f64> {
        split(&self.spec).then(|| self.layered_ms / self.job_ms)
    }
}

/// Whether a job is broken into several layers: STA and compiled
/// campaigns. Every other kind is one layer, its job function.
fn split(spec: &Spec) -> bool {
    matches!(spec, Spec::Sta { .. } | Spec::CampaignCompiled { .. })
}

/// The layer name of a kind without a finer breakdown.
fn job_layer(kind: &str) -> &'static str {
    match kind {
        "lint" => "job.lint",
        "optimize" => "job.optimize",
        "profile" => "job.profile",
        "campaign-event" => "job.campaign-event",
        _ => "job.campaign-replay",
    }
}

/// The journal-backed persistence the daemon uses, for in-process
/// resubmissions.
fn replay_persist(journal: &str) -> CampaignPersist<'_> {
    CampaignPersist {
        checkpoint: Some(journal),
        resume: true,
        cache: None,
        mode: RunMode::Sharded {
            shard_items: lowvolt_serve::server::DEFAULT_SHARD_ITEMS,
        },
        announce: false,
    }
}

/// Total milliseconds the program recorded under span `name`.
fn timer_ms(registry: &MetricsRegistry, name: &str) -> Result<f64, String> {
    registry
        .timer(name)
        .map(|t| t.total_nanos as f64 / 1e6)
        .ok_or_else(|| format!("the job recorded no `{name}` span"))
}

/// The job as the program runs it: its `serve::jobs` function, with the
/// daemon's journal for resubmissions.
fn run_job(
    spec: &Spec,
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    journal: &str,
) -> Result<String, String> {
    match (spec, spec.job()) {
        (Spec::Replay(_), JobKind::Campaign(campaign)) => {
            let out = sj::run_campaign_job(
                policy,
                rec,
                &campaign,
                &replay_persist(journal),
                &mut sj::NullSink,
            )
            .map_err(|e| e.0)?;
            if out.computed != 0 {
                return Err(format!(
                    "in-process resubmission recomputed {} item(s)",
                    out.computed
                ));
            }
            Ok(out.payload)
        }
        _ => spec.run_in_process(policy, rec),
    }
}

/// One repetition of a traced job: the layer calls, then the job
/// function. `sta_report` is the job's report, for timing its rendering.
fn layered(
    spec: &Spec,
    policy: &ExecPolicy,
    tracer: &mut Tracer,
    job: usize,
    journal: &str,
    sta_report: Option<&StaReport>,
) -> Result<LayerRun, String> {
    let rep = tracer.begin(job, "trace.rep", None);
    let mut layers = Vec::new();
    let mut levels = None;
    if let Some(n) = spec.netlist() {
        let (c, ms) = tracer.time(job, "io.parse", Some(rep), || parse_path(&n.path));
        let c = c.map_err(|e| e.to_string())?;
        layers.push(("io.parse", ms));
        if split(spec) {
            // The job copies the imported netlist into its target, compiles
            // the copy, and frees all three when it ends.
            let (netlist, ms) = tracer.time(job, "job.target", Some(rep), || match spec {
                Spec::Sta { .. } => sj::imported_lint_target(&c).netlist,
                _ => sj::imported_fault_target(&c).netlist,
            });
            layers.push(("job.target", ms));
            let (comp, ms) = tracer.time(job, "circuit.compile", Some(rep), || {
                CompiledNetlist::compile(&netlist)
            });
            let comp = comp.map_err(|e| e.to_string())?;
            levels = Some(comp.level_count());
            layers.push(("circuit.compile", ms));
            let ((), ms) = tracer.time(job, "job.free", Some(rep), move || {
                drop((c, netlist, comp));
            });
            layers.push(("job.free", ms));
        }
    }
    let registry = MetricsRegistry::new();
    let (output, job_ms) = tracer.time(job, &format!("job.{}", spec.kind()), Some(rep), || {
        run_job(spec, policy, &registry, journal)
    });
    let output = output?;
    match spec {
        Spec::Sta { .. } => {
            layers.push(("sta.analyze", timer_ms(&registry, names::SPAN_STA_ANALYZE)?));
            let report = sta_report.ok_or("no STA report to render")?;
            let (text, ms) = tracer.time(job, "sta.render", Some(rep), || report.to_string());
            if output.strip_suffix('\n') != Some(text.as_str()) {
                return Err(format!(
                    "sta job {job}: rendered report differs from the job's"
                ));
            }
            layers.push(("sta.render", ms));
        }
        Spec::CampaignCompiled { .. } => {
            layers.push((
                "campaign.packed",
                timer_ms(&registry, names::SPAN_CAMPAIGN_RUN)?,
            ));
            let (header, rows) = campaign_table(&output)?;
            let mut table = Table::new(header);
            for row in rows {
                table.push_row(row);
            }
            let (text, ms) = tracer.time(job, "campaign.render", Some(rep), || table.to_string());
            if !output.contains(&text) {
                return Err(format!(
                    "campaign job {job}: rendered table differs from the job's"
                ));
            }
            layers.push(("campaign.render", ms));
        }
        _ => {
            let parse_ms = layers.first().map_or(0.0, |&(_, ms)| ms);
            layers.push((job_layer(spec.kind()), job_ms - parse_ms));
        }
    }
    tracer.end(rep);
    Ok(LayerRun {
        layers,
        job_ms,
        output,
        report: registry.snapshot(),
        levels,
    })
}

/// Submits one request over a raw socket, timing the wait for
/// `accepted`, the execution until the `result` line has arrived, and
/// the decoding of that line.
fn submit_traced(
    addr: &str,
    spec: &Spec,
    tracer: &mut Tracer,
    job: usize,
) -> Result<ServeTrace, String> {
    let request = spec.request();
    let reps = 200u32;
    let t = Instant::now();
    for _ in 0..reps {
        parse_request(std::hint::black_box(&request)).map_err(|e| e.0)?;
    }
    let request_parse_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(reps);

    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let root = tracer.begin(job, "serve.submit", None);
    let wait = tracer.begin(job, "serve.accept", Some(root));
    writer
        .write_all(format!("{request}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut accept_ms = None;
    let mut exec = None;
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("daemon closed the connection before the result".to_string());
        }
        if line.starts_with("{\"event\":\"result\"") {
            break;
        }
        let event = Json::parse(line.trim_end()).map_err(|e| e.to_string())?;
        match event.get("event").and_then(Json::as_str) {
            Some("accepted") => {
                accept_ms = Some(tracer.end(wait));
                exec = Some(tracer.begin(job, "serve.exec", Some(root)));
            }
            Some("progress" | "warning") => {}
            _ => return Err(format!("{}: {}", spec.kind(), line.trim_end())),
        }
    }
    let (accept_ms, exec) = accept_ms
        .zip(exec)
        .ok_or("result arrived before `accepted`")?;
    let exec_ms = tracer.end(exec);
    let (event, decode_ms) = tracer.time(job, "serve.decode", Some(root), || {
        Json::parse(line.trim_end())
    });
    tracer.end(root);
    let event = event.map_err(|e| e.to_string())?;
    let text = |k: &str| {
        event
            .get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let num = |k: &str| event.get(k).and_then(Json::as_u64).unwrap_or(0);
    let counter = |k: &str| {
        event
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    Ok(ServeTrace {
        accept_ms,
        exec_ms,
        decode_ms,
        result_kb: line.len() as f64 / 1024.0,
        request_parse_us,
        payload: text("payload"),
        status: text("status"),
        replayed: num("replayed"),
        computed: num("computed"),
        cache_hits: counter(names::CACHE_HITS),
        cache_misses: counter(names::CACHE_MISSES),
        checkpoint_records: counter(names::CHECKPOINT_RECORDS),
        shard_rounds: counter(names::SERVE_SHARD_ROUNDS),
    })
}

/// What the traced run needs besides the job list.
struct Context<'a> {
    program: &'a Program,
    daemon: &'a Daemon,
    policy: ExecPolicy,
    scale: Scale,
    work: &'a Path,
}

/// The report an STA job renders, made once per traced job so that its
/// rendering can be timed on its own.
fn sta_report(spec: &Spec, policy: &ExecPolicy) -> Result<Option<StaReport>, String> {
    let Spec::Sta { netlist, vdd, vt } = spec else {
        return Ok(None);
    };
    let c = parse_path(&netlist.path).map_err(|e| e.to_string())?;
    let target = sj::imported_lint_target(&c);
    analyze(
        policy,
        lowvolt_obs::noop(),
        &target.name,
        &target.netlist,
        &target.outputs,
        StaConfig::at(Volts(*vdd), Volts(*vt)),
    )
    .map(Some)
    .map_err(|e| e.to_string())
}

/// Traces one job: `trace_reps` repetitions (more, up to 50, while less
/// than `trace_min_s` was spent, so that short jobs get stable minima),
/// then the optional CLI re-run and daemon submission.
fn trace_job(
    ctx: &Context<'_>,
    tracer: &mut Tracer,
    job: usize,
    spec: &Spec,
    via_cli: bool,
    via_serve: bool,
    errors: &mut Vec<String>,
) -> Result<TracedJob, String> {
    let journal = ctx.work.join(format!("journal{job}.lvjr"));
    let journal = journal.display().to_string();
    if let (Spec::Replay(_), JobKind::Campaign(campaign)) = (spec, spec.job()) {
        // The resubmitted campaign's first run, which fills the journal.
        sj::run_campaign_job(
            &ctx.policy,
            lowvolt_obs::noop(),
            &campaign,
            &replay_persist(&journal),
            &mut sj::NullSink,
        )
        .map_err(|e| e.0)?;
    }
    let sta_report = sta_report(spec, &ctx.policy)?;
    let mut last: Option<LayerRun> = None;
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut layered_ms, mut job_ms) = (f64::INFINITY, f64::INFINITY);
    let started = Instant::now();
    let mut reps = 0;
    while reps < ctx.scale.trace_reps
        || (started.elapsed().as_secs_f64() < ctx.scale.trace_min_s && reps < 50)
    {
        let run = layered(
            spec,
            &ctx.policy,
            tracer,
            job,
            &journal,
            sta_report.as_ref(),
        )?;
        for &(name, ms) in &run.layers {
            let slot = layers.entry(name).or_insert(f64::INFINITY);
            *slot = slot.min(ms);
        }
        layered_ms = layered_ms.min(run.layers.iter().map(|(_, ms)| ms).sum());
        job_ms = job_ms.min(run.job_ms);
        last = Some(run);
        reps += 1;
    }
    let run = last.ok_or("no repetition ran")?;
    if let Err(e) = spec.check(&run.output) {
        errors.push(format!("{} job {job}: {e}", spec.kind()));
    }
    let cli = if via_cli {
        let (cli, _) = tracer.time(job, &format!("cli.{}", spec.kind()), None, || {
            ctx.program.run_cli(spec)
        });
        let cli = cli?;
        if let Some(e) = &cli.error {
            errors.push(format!("{} job {job} via CLI: {e}", spec.kind()));
        } else if cli.stdout.strip_suffix('\n') != Some(run.output.as_str()) {
            // `lowvolt` prints the job's output with one newline added.
            errors.push(format!(
                "{} job {job}: CLI stdout differs from the job function's output",
                spec.kind()
            ));
        }
        Some(cli)
    } else {
        None
    };
    let serve = if via_serve {
        let trace = submit_traced(&ctx.daemon.addr, spec, tracer, job)?;
        if trace.status != "ok" {
            errors.push(format!(
                "{} job {job}: status {}",
                spec.kind(),
                trace.status
            ));
        }
        if matches!(spec, Spec::Replay(_)) && trace.computed != 0 {
            errors.push(format!(
                "resubmission job {job} recomputed {}",
                trace.computed
            ));
        }
        if trace.payload != run.output {
            errors.push(format!(
                "{} job {job}: serve payload differs from the job function's output",
                spec.kind()
            ));
        }
        Some(trace)
    } else {
        None
    };
    Ok(TracedJob {
        spec: spec.clone(),
        input_bytes: spec.netlist().map(|n| n.bytes),
        layers,
        layered_ms,
        job_ms,
        levels: run.levels,
        report_bytes: run.output.len(),
        report: run.report,
        cli,
        serve,
    })
}

/// Mean of `f` over the jobs where it is defined.
fn mean(jobs: &[TracedJob], f: impl Fn(&TracedJob) -> Option<f64>) -> Option<f64> {
    let values: Vec<f64> = jobs.iter().filter_map(f).collect();
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// `num / den` summed over the jobs where `den` is positive.
fn ratio(jobs: &[TracedJob], f: impl Fn(&TracedJob) -> Option<(f64, f64)>) -> Option<f64> {
    let (n, d) = jobs
        .iter()
        .filter_map(f)
        .fold((0.0, 0.0), |(n, d), (a, b)| (n + a, d + b));
    (d > 0.0).then(|| n / d)
}

/// Every per-layer metric over `js`, in report order; `None` where no
/// job in `js` entered the layer.
fn layer_metrics(js: &[TracedJob]) -> Vec<(String, &'static str, Option<f64>)> {
    let layer = |name: &str| mean(js, |j| j.layer(name));
    let packed = |j: &TracedJob| j.layer("campaign.packed");
    let serve = |f: fn(&ServeTrace) -> f64| mean(js, |j| j.serve.as_ref().map(f));
    let mut metrics = vec![
        ("io.parse_ms".to_string(), "ms", layer("io.parse")),
        (
            "io.parse_mb_per_s".to_string(),
            "MB/s",
            ratio(js, |j| {
                Some((j.input_bytes? as f64 / 1e6, j.layer("io.parse")? / 1e3))
            }),
        ),
        (
            "circuit.compile_ms".to_string(),
            "ms",
            layer("circuit.compile"),
        ),
        (
            "circuit.levels".to_string(),
            "count",
            mean(js, |j| j.levels.map(|l| l as f64)),
        ),
        (
            "sta.analyze_self_ms".to_string(),
            "ms",
            layer("sta.analyze"),
        ),
        ("sta.render_ms".to_string(), "ms", layer("sta.render")),
        (
            "sta.report_mb".to_string(),
            "MB",
            mean(js, |j| {
                (j.spec.kind() == "sta").then(|| j.report_bytes as f64 / 1e6)
            }),
        ),
        (
            "campaign.packed_ms".to_string(),
            "ms",
            layer("campaign.packed"),
        ),
        (
            "campaign.inj_per_s".to_string(),
            "1/s",
            ratio(js, |j| {
                Some((j.counter(names::CAMPAIGN_INJECTIONS), packed(j)? / 1e3))
            }),
        ),
        (
            "compiled.gate_evals".to_string(),
            "count",
            mean(js, |j| {
                packed(j).map(|_| j.counter(names::COMPILED_GATE_EVALS))
            }),
        ),
        (
            "compiled.ns_per_gate_eval".to_string(),
            "ns",
            ratio(js, |j| {
                Some((packed(j)? * 1e6, j.counter(names::COMPILED_GATE_EVALS)))
            }),
        ),
        (
            "compiled.dropout_ratio".to_string(),
            "ratio",
            ratio(js, |j| {
                packed(j).map(|_| {
                    (
                        j.counter(names::COMPILED_FAULT_DROPOUTS),
                        j.counter(names::CAMPAIGN_INJECTIONS) * j.counter(names::COMPILED_WORDS),
                    )
                })
            }),
        ),
        (
            "campaign.render_ms".to_string(),
            "ms",
            layer("campaign.render"),
        ),
        (
            "exec.utilization".to_string(),
            "ratio",
            ratio(js, |j| {
                let worker = j.report.span(names::SPAN_EXEC_WORKER)?.total_nanos as f64;
                let region = j.report.span(names::SPAN_EXEC_REGION)?.total_nanos as f64;
                let threads = ExecPolicy::max_parallel().threads() as f64;
                Some((worker, threads * region))
            }),
        ),
        (
            "exec.items".to_string(),
            "count",
            mean(js, |j| {
                j.report
                    .span(names::SPAN_EXEC_REGION)
                    .map(|_| j.counter(names::EXEC_ITEMS))
            }),
        ),
        (
            "cli.cpu_per_wall".to_string(),
            "ratio",
            ratio(js, |j| j.cli.as_ref().map(|c| (c.cpu_s * 1e3, c.wall_ms))),
        ),
        (
            "cli.overhead_ms".to_string(),
            "ms",
            mean(js, |j| j.cli.as_ref().map(|c| c.wall_ms - j.job_ms)),
        ),
        (
            "serve.request_parse_us".to_string(),
            "us",
            serve(|s| s.request_parse_us),
        ),
        ("serve.accept_ms".to_string(), "ms", serve(|s| s.accept_ms)),
    ];
    for kind in KINDS {
        let of_kind = |f: fn(&ServeTrace) -> f64| {
            mean(js, |j| {
                j.serve.as_ref().filter(|_| j.spec.kind() == kind).map(f)
            })
        };
        metrics.push((
            format!("serve.exec_ms.{kind}"),
            "ms",
            of_kind(|s| s.exec_ms),
        ));
        metrics.push((
            format!("serve.decode_ms.{kind}"),
            "ms",
            of_kind(|s| s.decode_ms),
        ));
        metrics.push((
            format!("serve.result_kb.{kind}"),
            "KiB",
            of_kind(|s| s.result_kb),
        ));
    }
    let campaigns = |f: fn(&ServeTrace) -> f64| {
        mean(js, |j| {
            j.serve
                .as_ref()
                .filter(|_| matches!(j.spec.job(), JobKind::Campaign(_)))
                .map(f)
        })
    };
    metrics.extend([
        (
            "exec.cache_hit_ratio".to_string(),
            "ratio",
            ratio(js, |j| {
                let s = j.serve.as_ref()?;
                Some((s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64))
            }),
        ),
        (
            "exec.replay_ratio".to_string(),
            "ratio",
            ratio(js, |j| {
                let s = j.serve.as_ref()?;
                Some((s.replayed as f64, (s.replayed + s.computed) as f64))
            }),
        ),
        (
            "checkpoint.records".to_string(),
            "count",
            campaigns(|s| s.checkpoint_records as f64),
        ),
        (
            "serve.shard_rounds".to_string(),
            "count",
            campaigns(|s| s.shard_rounds as f64),
        ),
    ]);
    metrics
}

/// The traced run of one workload. `work` is an empty scratch
/// directory; the spans are written to `spans_out`.
///
/// # Errors
///
/// Set-up failures, or a layer metric that nothing measured.
pub fn trace(
    program: &Program,
    workload: Workload,
    seed: u64,
    scale: &Scale,
    work: &Path,
    spans_out: &Path,
) -> Result<Outcome, String> {
    let inputs_dir = work.join("inputs");
    std::fs::create_dir_all(&inputs_dir).map_err(|e| e.to_string())?;
    let inputs = make_inputs(workload, scale, seed, &inputs_dir)?.swap_remove(0);
    let probe_inputs = match workload {
        Workload::ServeMix => inputs.clone(),
        _ => make_inputs(Workload::ServeMix, scale, seed, &inputs_dir)?.swap_remove(0),
    };
    let own: Vec<Spec> = JobStream::new(workload, &inputs, seed, 0)
        .take(scale.traced_jobs)
        .collect();
    let probe = probe_specs(&probe_inputs, seed);
    let daemon = program.start_daemon(&work.join("state"), &work.join("daemon.log"))?;
    let ctx = Context {
        program,
        daemon: &daemon,
        policy: ExecPolicy::max_parallel(),
        scale: *scale,
        work,
    };
    let mut tracer = Tracer::default();
    let mut errors = Vec::new();

    let serve_own = workload == Workload::ServeMix;
    let mut own_jobs = Vec::new();
    let cpu0 = (cpu_seconds(daemon.pid), Instant::now());
    let mut reruns = 0;
    for (i, spec) in own.iter().enumerate() {
        let via_cli = reruns < scale.cli_reruns && !matches!(spec, Spec::Replay(_));
        reruns += usize::from(via_cli);
        own_jobs.push(trace_job(
            &ctx,
            &mut tracer,
            i,
            spec,
            via_cli,
            serve_own,
            &mut errors,
        )?);
    }
    let own_cpu = serve_own.then(|| cpu_ratio(daemon.pid, cpu0));
    let cpu1 = (cpu_seconds(daemon.pid), Instant::now());
    let mut probe_jobs = Vec::new();
    for (i, spec) in probe.iter().enumerate() {
        let job = own.len() + i;
        probe_jobs.push(trace_job(
            &ctx,
            &mut tracer,
            job,
            spec,
            true,
            true,
            &mut errors,
        )?);
    }
    let probe_cpu = cpu_ratio(daemon.pid, cpu1);
    daemon.shutdown()?;

    // A layer the workload's own jobs never enter is measured on the
    // probe.
    let mut metrics = Vec::new();
    for ((name, unit, own), (_, _, probe)) in layer_metrics(&own_jobs)
        .into_iter()
        .zip(layer_metrics(&probe_jobs))
    {
        let value = own
            .or(probe)
            .ok_or_else(|| format!("no traced job measured {name}"))?;
        metrics.push(Metric::new(name, value, unit));
    }
    metrics.push(Metric::new(
        "serve.daemon_cpu_per_wall",
        own_cpu.unwrap_or(probe_cpu),
        "ratio",
    ));
    let coverage = own_jobs
        .iter()
        .chain(&probe_jobs)
        .filter_map(TracedJob::coverage)
        .fold(f64::INFINITY, f64::min);
    metrics.push(Metric::new("trace.coverage", coverage, "ratio"));

    std::fs::write(spans_out, tracer.to_json(workload.name(), seed))
        .map_err(|e| format!("cannot write {}: {e}", spans_out.display()))?;
    let notes = own_jobs
        .iter()
        .chain(&probe_jobs)
        .enumerate()
        .map(|(i, j)| {
            let coverage = j
                .coverage()
                .map_or(String::new(), |c| format!("  coverage {c:.3}"));
            format!(
                "job {i:>2} {:<17} job function {:>9.3} ms  layers {:>9.3} ms{coverage}",
                j.spec.kind(),
                j.job_ms,
                j.layered_ms
            )
        })
        .collect();
    Ok(Outcome {
        attempted: own_jobs.len() + probe_jobs.len(),
        failed: errors.len(),
        metrics,
        digest: None,
        failures: errors,
        notes,
    })
}

fn cpu_ratio(pid: u32, (cpu0, t0): (f64, Instant)) -> f64 {
    (cpu_seconds(pid) - cpu0) / t0.elapsed().as_secs_f64()
}

/// The job stream the probe draws from: a `serve-mix` client of its
/// own, so its campaigns are fresh even when the workload is `serve-mix`.
const PROBE_CLIENT: u64 = 0x5052_4F42;

/// One job of each serve kind from the probe's `serve-mix` stream, the
/// resubmission replaying the probe's own compiled campaign.
fn probe_specs(inputs: &crate::jobs::Inputs, seed: u64) -> Vec<Spec> {
    let mut found: BTreeMap<&'static str, Spec> = BTreeMap::new();
    for spec in JobStream::new(Workload::ServeMix, inputs, seed, PROBE_CLIENT).take(200) {
        if !matches!(spec, Spec::Replay(_)) {
            found.entry(spec.kind()).or_insert(spec);
        }
    }
    let mut probe: Vec<Spec> = KINDS.iter().filter_map(|k| found.get(k).cloned()).collect();
    if let Some(c) = found.get("campaign-compiled") {
        probe.push(Spec::Replay(Box::new(c.clone())));
    }
    probe
}
