//! `perf` — the persisted benchmark baseline for the parallel engine.
//!
//! Times the parallelised hot paths — fault campaign, experiment
//! regeneration, the (V_DD, V_T) optimisation sweep, and the static
//! timing sweep over the standard datapaths — once under the serial
//! policy and once under the requested thread count, verifies the
//! outputs are identical, and writes `BENCH_sim.json`. Three further
//! stages exercise the netlist-interchange subsystem at scale: a BLIF
//! round-trip parse, a packed fault campaign on a seeded generated
//! netlist, and static timing analysis of a 10⁵-gate generated netlist.
//!
//! Usage:
//!
//! ```text
//! perf                      # full run, BENCH_sim.json in the cwd
//! perf --quick              # smaller workloads (CI smoke)
//! perf --threads 4          # explicit worker count for the parallel leg
//! perf --out path/to.json   # alternative output path
//! ```
//!
//! The workloads are fixed-seed and deterministic, so successive runs
//! measure the same work; `identical: true` in every stage certifies
//! that the parallel leg reproduced the serial output bit for bit.

use lowvolt_bench::{all_experiments, run_experiments_with, BenchError};
use lowvolt_circuit::faults::{
    run_campaign, standard_targets, stuck_at_universe, CampaignOptions, Engine, FaultTarget,
};
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_core::optimizer::FixedThroughputOptimizer;
use lowvolt_core::sensitivity::{analyse_with, DesignPoint};
use lowvolt_device::units::Seconds;
use lowvolt_exec::ExecPolicy;
use lowvolt_io::{
    circuits_equivalent, generate, parse_str, write_blif, Format, GeneratorConfig, ImportedCircuit,
};
use lowvolt_obs::json::{fixed, quote};
use lowvolt_obs::{names, MetricsRegistry, Recorder};
use lowvolt_serve::jobs::imported_fault_target;
use lowvolt_sta::{analyze, StaConfig, NOMINAL_VDD, NOMINAL_VT};
use std::fmt::Write as _;
use std::time::Instant;

/// One stage's measurements. Counters come from the serial leg's
/// metrics registry — the same `lowvolt_obs::names` catalog the CLI's
/// `--metrics-json` emits, so the two outputs cannot drift apart.
struct StageResult {
    name: &'static str,
    /// Which simulation engine the stage exercised; `None` for stages
    /// that are not engine-selectable (regen, optimize).
    engine: Option<&'static str>,
    serial_wall_ms: f64,
    parallel_wall_ms: f64,
    identical: bool,
    counters: Vec<(&'static str, u64)>,
}

impl StageResult {
    fn speedup(&self) -> f64 {
        if self.parallel_wall_ms > 0.0 {
            self.serial_wall_ms / self.parallel_wall_ms
        } else {
            1.0
        }
    }

    /// Campaign throughput: completed injections per second of serial
    /// wall clock (the engine-to-engine comparison, independent of
    /// thread count). `None` when the stage recorded no injections.
    fn injections_per_sec(&self) -> Option<f64> {
        let injections = self
            .counters
            .iter()
            .find(|(name, _)| *name == names::CAMPAIGN_INJECTIONS)
            .map(|&(_, v)| v)?;
        if self.serial_wall_ms > 0.0 {
            Some(injections as f64 / (self.serial_wall_ms / 1e3))
        } else {
            None
        }
    }
}

/// Times one closure invocation in milliseconds, returning its output.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs both legs of a stage and compares their outputs. The serial leg
/// carries a metrics registry; its nonzero counters become the stage's
/// counter columns. The parallel leg runs unrecorded, so the timing
/// comparison is not skewed by collection overhead on one side only.
fn stage<R: PartialEq>(
    name: &'static str,
    engine: Option<&'static str>,
    policy: &ExecPolicy,
    run: impl Fn(&ExecPolicy, &dyn Recorder) -> Result<R, String>,
) -> Result<StageResult, String> {
    let serial = ExecPolicy::serial();
    let registry = MetricsRegistry::new();
    let (serial_out, serial_wall_ms) = timed(|| run(&serial, &registry));
    let (parallel_out, parallel_wall_ms) = timed(|| run(policy, lowvolt_obs::noop()));
    let identical = serial_out? == parallel_out?;
    let counters = registry
        .snapshot()
        .counters()
        .iter()
        .filter(|&&(_, v)| v > 0)
        .copied()
        .collect();
    Ok(StageResult {
        name,
        engine,
        serial_wall_ms,
        parallel_wall_ms,
        identical,
        counters,
    })
}

/// The campaign stage: the full stuck-at universe over every standard
/// datapath target, fixed-seed random vectors, on `engine`. The rendered
/// reports are byte-identical between the two engines, so the
/// event/compiled rows in `BENCH_sim.json` time the same classification
/// work.
fn campaign_leg(
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    width: usize,
    vectors: usize,
    engine: Engine,
) -> Result<String, String> {
    let targets = standard_targets(width).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for (i, target) in targets.iter().enumerate() {
        let stimulus = PatternSource::random(target.inputs.len(), 0xC0FFEE + i as u64)
            .map_err(|e| e.to_string())?;
        out.push_str(&campaign_report(
            policy, rec, target, stimulus, vectors, engine,
        )?);
    }
    Ok(out)
}

/// One campaign over `target`'s full stuck-at universe, rendered as
/// its report text.
fn campaign_report(
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    target: &FaultTarget,
    mut stimulus: PatternSource,
    vectors: usize,
    engine: Engine,
) -> Result<String, String> {
    let faults = stuck_at_universe(&target.netlist);
    let options = CampaignOptions {
        engine,
        policy: *policy,
        recorder: rec,
        ..CampaignOptions::default()
    };
    let res = run_campaign(target, &faults, &mut stimulus, vectors, options)
        .map_err(|e| e.to_string())?;
    Ok(res
        .report()
        .ok_or("campaign left injections unresolved")?
        .to_string())
}

/// The regen stage: a fixed slice of the experiment registry, one
/// experiment per work item.
fn regen_leg(policy: &ExecPolicy, ids: &[&str]) -> Result<String, String> {
    let registry = all_experiments();
    let selected: Vec<_> = registry
        .into_iter()
        .filter(|e| ids.contains(&e.id))
        .collect();
    if selected.len() != ids.len() {
        return Err(format!(
            "regen stage resolved {}/{} ids",
            selected.len(),
            ids.len()
        ));
    }
    let outputs: Result<Vec<String>, BenchError> = run_experiments_with(policy, &selected)
        .into_iter()
        .collect();
    Ok(outputs.map_err(|e| e.to_string())?.join("\n"))
}

/// The optimize stage: the Fig. 4 coarse grid + refinement, plus the
/// sensitivity analysis (seven further optimisations).
fn optimize_leg(policy: &ExecPolicy, quick: bool) -> Result<String, String> {
    let opt = FixedThroughputOptimizer::paper_ring(Seconds::from_nanos(2.0))
        .map_err(|e| e.to_string())?;
    let best = opt
        .optimum_with(policy, Seconds(1e-6))
        .map_err(|e| e.to_string())?;
    let mut out = format!("optimum vt={:.6} vdd={:.6}\n", best.vt.0, best.vdd.0);
    if !quick {
        let point = DesignPoint::paper_nominal().map_err(|e| e.to_string())?;
        let report = analyse_with(policy, point, 0.2).map_err(|e| e.to_string())?;
        for e in &report.entries {
            out.push_str(&format!(
                "sensitivity {} swing={:.6}\n",
                e.parameter, e.energy_swing
            ));
        }
    }
    Ok(out)
}

/// The STA stage: full text reports (critical path, endpoints, node
/// slack) for every standard datapath at the nominal operating point —
/// the endpoint summaries parallelise through the policy.
fn sta_leg(policy: &ExecPolicy, rec: &dyn Recorder, width: usize) -> Result<String, String> {
    let targets = standard_targets(width).map_err(|e| e.to_string())?;
    let config = StaConfig::at(NOMINAL_VDD, NOMINAL_VT);
    let mut out = String::new();
    for target in &targets {
        let report = analyze(
            policy,
            rec,
            &target.name,
            &target.netlist,
            &target.outputs,
            config,
        )
        .map_err(|e| e.to_string())?;
        out.push_str(&report.to_string());
        out.push('\n');
    }
    Ok(out)
}

/// The parse stage: a seeded generated netlist is rendered to BLIF once
/// up front; each leg re-parses the text and checks structural
/// equivalence against the source, timing the streaming parser end to
/// end. Parsing is inherently serial, so this row is a throughput
/// baseline, not a speedup measurement.
fn parse_leg(source: &ImportedCircuit, text: &str) -> Result<String, String> {
    let parsed = parse_str(Format::Blif, &source.name, text).map_err(|e| e.to_string())?;
    circuits_equivalent(source, &parsed)?;
    Ok(format!(
        "parsed {} nodes {} gates hash {:016x}",
        parsed.netlist.node_count(),
        parsed.netlist.gate_count(),
        parsed.netlist.structural_hash()
    ))
}

/// The generated-campaign stage: the full stuck-at universe of a large
/// seeded random netlist under the compiled bit-parallel engine — the
/// scale row the interchange subsystem exists for.
fn generated_campaign_leg(
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    target: &FaultTarget,
    vectors: usize,
) -> Result<String, String> {
    let stimulus =
        PatternSource::wide_random(target.inputs.len(), 0xD1CE).map_err(|e| e.to_string())?;
    campaign_report(policy, rec, target, stimulus, vectors, Engine::Compiled)
}

/// The generated-STA stage: one full static timing report over a
/// 10⁵-gate seeded netlist at the nominal operating point.
fn generated_sta_leg(
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    c: &ImportedCircuit,
) -> Result<String, String> {
    let config = StaConfig::at(NOMINAL_VDD, NOMINAL_VT);
    let report =
        analyze(policy, rec, &c.name, &c.netlist, &c.outputs, config).map_err(|e| e.to_string())?;
    Ok(report.to_string())
}

fn render_json(threads: usize, parallelism: usize, quick: bool, stages: &[StageResult]) -> String {
    let mut out = format!(
        "{{\n  \"threads\": {threads},\n  \"parallelism_available\": {parallelism},\n  \"quick\": {quick},\n  \"stages\": [\n"
    );
    for (i, s) in stages.iter().enumerate() {
        let _ = write!(out, "    {{\"name\": {}, ", quote(s.name));
        if let Some(e) = s.engine {
            let _ = write!(out, "\"engine\": {}, ", quote(e));
        }
        let _ = write!(
            out,
            "\"serial_wall_ms\": {}, \"parallel_wall_ms\": {}, \"speedup\": {}, ",
            fixed(s.serial_wall_ms, 3),
            fixed(s.parallel_wall_ms, 3),
            fixed(s.speedup(), 3)
        );
        if let Some(r) = s.injections_per_sec() {
            let _ = write!(out, "\"injections_per_sec\": {}, ", fixed(r, 1));
        }
        let _ = write!(out, "\"identical\": {}, \"counters\": {{", s.identical);
        for (j, (name, v)) in s.counters.iter().enumerate() {
            let sep = if j > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}{}: {v}", quote(name));
        }
        let sep = if i + 1 < stages.len() { "," } else { "" };
        let _ = writeln!(out, "}}}}{sep}");
    }
    out.push_str("  ]\n}\n");
    out
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    if let Some(pos) = args.iter().position(|a| a == "--quick") {
        args.remove(pos);
        quick = true;
    }
    let mut take_value = |flag: &str| -> Result<Option<String>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(pos) if pos + 1 < args.len() => {
                let v = args.remove(pos + 1);
                args.remove(pos);
                Ok(Some(v))
            }
            Some(_) => Err(format!("{flag} needs a value")),
        }
    };
    let out_path = take_value("--out")?.unwrap_or_else(|| "BENCH_sim.json".to_string());
    let policy = match take_value("--threads")? {
        None => ExecPolicy::from_env(),
        Some(v) => match v.parse::<usize>() {
            Ok(n) => ExecPolicy::with_threads(n),
            Err(_) => return Err(format!("--threads needs a number, got `{v}`")),
        },
    };
    if let Some(unknown) = args.first() {
        return Err(format!("unknown argument `{unknown}`"));
    }

    let parallelism = ExecPolicy::max_parallel().threads();
    eprintln!(
        "perf: {} worker thread(s), {} available, {} workload",
        policy.threads(),
        parallelism,
        if quick { "quick" } else { "full" }
    );

    let (width, vectors) = if quick { (4, 8) } else { (8, 32) };
    let regen_ids: &[&str] = if quick {
        &["fig1", "fig2", "fig6"]
    } else {
        &[
            "fig1", "fig2", "fig3", "fig6", "fig7", "table1", "table2", "table3",
        ]
    };

    // Generated-netlist workloads, seeded so every run measures the
    // same circuits. The campaign and STA sizes mirror the CLI
    // acceptance invocations (`--generate N --seed 42`).
    let (parse_gates, gen_gates, gen_vectors, sta_gates) = if quick {
        (2_000, 1_500, 8, 10_000)
    } else {
        (20_000, 10_000, 32, 100_000)
    };
    let parse_circuit =
        generate(&GeneratorConfig::new(parse_gates, 0xB11F)).map_err(|e| e.to_string())?;
    let parse_text = write_blif(&parse_circuit).map_err(|e| e.to_string())?;
    let gen_target = imported_fault_target(
        &generate(&GeneratorConfig::new(gen_gates, 42)).map_err(|e| e.to_string())?,
    );
    let sta_circuit = generate(&GeneratorConfig::new(sta_gates, 42)).map_err(|e| e.to_string())?;

    let stages = vec![
        stage(names::STAGE_CAMPAIGN, Some("event"), &policy, |p, rec| {
            campaign_leg(p, rec, width, vectors, Engine::Event)
        })?,
        stage(
            names::STAGE_CAMPAIGN,
            Some("compiled"),
            &policy,
            |p, rec| campaign_leg(p, rec, width, vectors, Engine::Compiled),
        )?,
        stage(names::STAGE_REGEN, None, &policy, |p, _| {
            regen_leg(p, regen_ids)
        })?,
        stage(names::STAGE_OPTIMIZE, None, &policy, |p, _| {
            optimize_leg(p, quick)
        })?,
        stage(names::STAGE_STA, None, &policy, |p, rec| {
            sta_leg(p, rec, width)
        })?,
        stage(names::STAGE_PARSE, None, &policy, |_, _| {
            parse_leg(&parse_circuit, &parse_text)
        })?,
        stage(
            names::STAGE_CAMPAIGN_GENERATED,
            Some("compiled"),
            &policy,
            |p, rec| generated_campaign_leg(p, rec, &gen_target, gen_vectors),
        )?,
        stage(names::STAGE_STA_GENERATED, None, &policy, |p, rec| {
            generated_sta_leg(p, rec, &sta_circuit)
        })?,
    ];

    for s in &stages {
        let label = match s.engine {
            Some(e) => format!("{}[{e}]", s.name),
            None => s.name.to_string(),
        };
        let throughput = s
            .injections_per_sec()
            .map(|r| format!("  {r:.0} inj/s"))
            .unwrap_or_default();
        eprintln!(
            "perf: {label:28} serial {:8.1} ms  parallel {:8.1} ms  speedup {:.2}x  identical {}{throughput}",
            s.serial_wall_ms,
            s.parallel_wall_ms,
            s.speedup(),
            s.identical
        );
    }
    if let Some(bad) = stages.iter().find(|s| !s.identical) {
        return Err(format!(
            "stage `{}` parallel output diverged from serial",
            bad.name
        ));
    }

    let json = render_json(policy.threads(), parallelism, quick, &stages);
    std::fs::write(&out_path, &json).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("perf: wrote {out_path}");
    Ok(())
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("perf: error: {msg}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvolt_obs::json::{escape, Json};

    /// A stage name with a quote, a backslash, the three named control
    /// escapes, two `\u00XX` ones and a non-ASCII letter.
    const AWKWARD: &str = "a\"b\\c\nd\re\tf\u{1}g\u{1f}h é";

    #[test]
    fn escaped_strings_parse_back_to_the_original() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        for s in [AWKWARD, every_control.as_str()] {
            let parsed = Json::parse(&format!("\"{}\"", escape(s))).expect("valid JSON string");
            assert_eq!(parsed.as_str(), Some(s));
        }
    }

    #[test]
    fn rendered_json_parses_back_with_control_characters_in_names() {
        let every_control: &'static str = Box::leak(
            (0u8..0x20)
                .map(char::from)
                .collect::<String>()
                .into_boxed_str(),
        );
        let stages: Vec<StageResult> = [AWKWARD, every_control, "astral 𝄞😀\u{10FFFF}"]
            .into_iter()
            .map(|name| StageResult {
                name,
                engine: Some(name),
                serial_wall_ms: 2.0,
                parallel_wall_ms: 1.0,
                identical: true,
                counters: vec![(name, 3), (names::CAMPAIGN_INJECTIONS, 10)],
            })
            .collect();
        let doc = Json::parse(&render_json(2, 2, true, &stages)).expect("valid JSON document");
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        let rows = doc.get("stages").and_then(Json::as_array).expect("stages");
        assert_eq!(rows.len(), stages.len());
        for (row, stage) in rows.iter().zip(&stages) {
            assert_eq!(row.get("name").and_then(Json::as_str), Some(stage.name));
            assert_eq!(row.get("engine").and_then(Json::as_str), stage.engine);
            assert_eq!(
                row.get("counters")
                    .and_then(|c| c.get(stage.name))
                    .and_then(Json::as_u64),
                Some(3)
            );
            assert_eq!(row.get("speedup").and_then(Json::as_f64), Some(2.0));
            assert_eq!(
                row.get("injections_per_sec").and_then(Json::as_f64),
                Some(5000.0)
            );
        }
    }

    #[test]
    fn non_finite_timings_render_as_null() {
        let stage = StageResult {
            name: "nan",
            engine: None,
            serial_wall_ms: f64::NAN,
            parallel_wall_ms: f64::INFINITY,
            identical: false,
            counters: vec![],
        };
        let doc = Json::parse(&render_json(1, 1, false, &[stage])).expect("valid JSON document");
        let row = &doc.get("stages").and_then(Json::as_array).expect("stages")[0];
        for key in ["serial_wall_ms", "parallel_wall_ms", "speedup"] {
            assert!(row.get(key).is_some_and(Json::is_null), "{key}");
        }
        assert!(row.get("engine").is_none());
    }
}
