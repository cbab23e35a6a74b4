//! `perf` — the workspace's one benchmark harness; writes
//! `BENCH_sim.json`.
//!
//! Times the parallelised hot paths — fault campaign, experiment
//! regeneration, the (V_DD, V_T) optimisation sweep, and the static
//! timing sweep over the standard datapaths — plus three
//! netlist-interchange stages at scale (a BLIF round-trip parse, a
//! packed fault campaign on a seeded generated netlist, static timing
//! analysis of a 10⁵-gate generated netlist) and the three kernels under
//! the paper's tool flow: gate-level activity extraction, the profiled
//! guest-program interpreter and the device model.
//!
//! Usage:
//!
//! ```text
//! perf                      # BENCH_sim.json in the cwd
//! perf --out path/to.json   # alternative output path
//! ```
//!
//! `LOWVOLT_THREADS` sets the parallel leg's worker count, as for every
//! other binary. Every stage runs three legs, interleaved, [`REPEATS`]
//! times each: `recorded` (serial policy, live metrics registry — its
//! counters become the row's counters), `serial` (serial policy, no
//! recorder) and `parallel` (the environment's policy, no recorder).
//! Each leg reports its median and minimum wall time, so `recorded`
//! beside `serial` is the recorder's cost and `serial` beside
//! `parallel` is the speedup. The workloads are fixed-seed and
//! deterministic; `identical: true` in every stage certifies that every
//! repeat of every leg reproduced the first output bit for bit.

use lowvolt_bench::{all_experiments, run_experiments_with, BenchError};
use lowvolt_circuit::activity::ActivityReport;
use lowvolt_circuit::adder::ripple_carry_adder;
use lowvolt_circuit::faults::{
    run_campaign, standard_targets, stuck_at_universe, CampaignOptions, Engine,
};
use lowvolt_circuit::multiplier::array_multiplier;
use lowvolt_circuit::netlist::{Circuit, Netlist, NodeId};
use lowvolt_circuit::sim::Simulator;
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_core::optimizer::FixedThroughputOptimizer;
use lowvolt_core::sensitivity::{analyse_with, DesignPoint};
use lowvolt_device::mosfet::Mosfet;
use lowvolt_device::units::{Seconds, Volts};
use lowvolt_exec::ExecPolicy;
use lowvolt_io::{circuits_equivalent, generate, parse_str, write_blif, Format, GeneratorConfig};
use lowvolt_isa::asm::Program;
use lowvolt_isa::profile::ProfileReport;
use lowvolt_isa::{assemble, Cpu, Profiler};
use lowvolt_obs::json::{fixed, quote};
use lowvolt_obs::{names, MetricsRegistry, Recorder};
use lowvolt_sta::{analyze, StaConfig, NOMINAL_VDD, NOMINAL_VT};
use lowvolt_workloads::idea;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Timed runs of each leg per stage. A constant, not a flag: the
/// committed baseline and CI's smoke run measure the same workload, so
/// their counters compare exactly.
const REPEATS: usize = 5;

/// One leg's wall time over [`REPEATS`] runs.
#[derive(Debug, Clone, Copy)]
struct LegTiming {
    median_ms: f64,
    min_ms: f64,
}

impl LegTiming {
    fn of(mut samples: Vec<f64>) -> LegTiming {
        samples.sort_by(f64::total_cmp);
        LegTiming {
            median_ms: samples[samples.len() / 2],
            min_ms: samples[0],
        }
    }
}

/// One stage's measurements. Counters come from the recorded leg's
/// metrics registry — the same `lowvolt_obs::names` catalog the CLI's
/// `--metrics-json` emits, so the two outputs cannot drift apart.
struct StageResult {
    name: &'static str,
    /// Which simulation engine the stage exercised; `None` for stages
    /// that are not engine-selectable.
    engine: Option<&'static str>,
    recorded: LegTiming,
    serial: LegTiming,
    parallel: LegTiming,
    identical: bool,
    counters: Vec<(&'static str, u64)>,
}

impl StageResult {
    fn speedup(&self) -> f64 {
        if self.parallel.median_ms > 0.0 {
            self.serial.median_ms / self.parallel.median_ms
        } else {
            1.0
        }
    }

    /// Campaign throughput: completed injections per second of the
    /// serial median (the engine-to-engine comparison, independent of
    /// thread count). `None` when the stage recorded no injections.
    fn injections_per_sec(&self) -> Option<f64> {
        let injections = self
            .counters
            .iter()
            .find(|(name, _)| *name == names::CAMPAIGN_INJECTIONS)
            .map(|&(_, v)| v)?;
        if self.serial.median_ms > 0.0 {
            Some(injections as f64 / (self.serial.median_ms / 1e3))
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

/// Runs the three legs of a stage [`REPEATS`] times each and compares
/// every output with the first. The legs interleave, and the leg that
/// runs first rotates from repeat to repeat, so cache warm-up and
/// frequency drift fall on every leg alike.
fn stage<R: PartialEq>(
    name: &'static str,
    engine: Option<&'static str>,
    policy: &ExecPolicy,
    run: impl Fn(&ExecPolicy, &dyn Recorder) -> Result<R, String>,
) -> Result<StageResult, String> {
    let serial = ExecPolicy::serial();
    let mut samples: [Vec<f64>; 3] = Default::default();
    let mut first: Option<R> = None;
    let mut identical = true;
    let mut counters = Vec::new();
    for rep in 0..REPEATS {
        let registry = MetricsRegistry::new();
        for k in 0..3 {
            let leg = (rep + k) % 3;
            let (out, ms) = match leg {
                0 => timed(|| run(&serial, &registry)),
                1 => timed(|| run(&serial, lowvolt_obs::noop())),
                _ => timed(|| run(policy, lowvolt_obs::noop())),
            };
            samples[leg].push(ms);
            let out = out?;
            match &first {
                None => first = Some(out),
                Some(f) => identical &= *f == out,
            }
        }
        counters = registry
            .snapshot()
            .counters()
            .iter()
            .filter(|&&(_, v)| v > 0)
            .copied()
            .collect();
    }
    let [recorded, serial, parallel] = samples.map(LegTiming::of);
    Ok(StageResult {
        name,
        engine,
        recorded,
        serial,
        parallel,
        identical,
        counters,
    })
}

/// The campaign stage: the full stuck-at universe over every standard
/// datapath target, fixed-seed random vectors, on `engine`. The rendered
/// reports are byte-identical between the two engines, so the
/// event/compiled rows in `BENCH_sim.json` time the same classification
/// work.
fn campaign_leg(policy: &ExecPolicy, rec: &dyn Recorder, engine: Engine) -> Result<String, String> {
    let targets = standard_targets(8).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for (i, target) in targets.iter().enumerate() {
        let stimulus = PatternSource::random(target.inputs.len(), 0xC0FFEE + i as u64)
            .map_err(|e| e.to_string())?;
        out.push_str(&campaign_report(policy, rec, target, stimulus, engine)?);
    }
    Ok(out)
}

/// One 32-vector campaign over `target`'s full stuck-at universe,
/// rendered as its report text.
fn campaign_report(
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    target: &Circuit,
    mut stimulus: PatternSource,
    engine: Engine,
) -> Result<String, String> {
    let faults = stuck_at_universe(&target.netlist);
    let options = CampaignOptions {
        engine,
        policy: *policy,
        recorder: rec,
        ..CampaignOptions::default()
    };
    let res =
        run_campaign(target, &faults, &mut stimulus, 32, options).map_err(|e| e.to_string())?;
    Ok(res
        .report(&faults)
        .ok_or("campaign left injections unresolved")?
        .to_string())
}

/// The regen stage: the whole experiment registry, one experiment per
/// work item — what the `regen` binary prints.
fn regen_leg(policy: &ExecPolicy) -> Result<String, String> {
    let outputs: Result<Vec<String>, BenchError> = run_experiments_with(policy, &all_experiments())
        .into_iter()
        .collect();
    Ok(outputs.map_err(|e| e.to_string())?.join("\n"))
}

/// The optimize stage: the Fig. 4 coarse grid + refinement, plus the
/// sensitivity analysis (seven further optimisations).
fn optimize_leg(policy: &ExecPolicy) -> Result<String, String> {
    let opt = FixedThroughputOptimizer::paper_ring(Seconds::from_nanos(2.0))
        .map_err(|e| e.to_string())?;
    let best = opt
        .optimum_with(policy, Seconds(1e-6))
        .map_err(|e| e.to_string())?;
    let mut out = format!("optimum vt={:.6} vdd={:.6}\n", best.vt.0, best.vdd.0);
    let point = DesignPoint::paper_nominal().map_err(|e| e.to_string())?;
    let report = analyse_with(policy, point, 0.2).map_err(|e| e.to_string())?;
    for e in &report.entries {
        out.push_str(&format!(
            "sensitivity {} swing={:.6}\n",
            e.parameter, e.energy_swing
        ));
    }
    Ok(out)
}

/// The STA stage: full text reports (critical path, endpoints, node
/// slack) for every standard datapath at the nominal operating point.
/// The analysis is two serial passes that ignore the policy, so this
/// row is a baseline, not a speedup measurement.
fn sta_leg(policy: &ExecPolicy, rec: &dyn Recorder) -> Result<String, String> {
    let targets = standard_targets(8).map_err(|e| e.to_string())?;
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
/// up front and each leg re-parses the text, so the row times the
/// streaming parser alone ([`check_round_trip`] checks the result once,
/// outside the legs). Parsing is inherently serial, so this row is a
/// throughput baseline, not a speedup measurement.
fn parse_leg(name: &str, text: &str) -> Result<Circuit, String> {
    parse_str(Format::Blif, name, text).map_err(|e| e.to_string())
}

/// The parse stage's correctness check: the parsed text is structurally
/// equivalent to its source. Returns a one-line summary with the parsed
/// netlist's structural hash.
fn check_round_trip(source: &Circuit, text: &str) -> Result<String, String> {
    let parsed = parse_leg(&source.name, text)?;
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
    target: &Circuit,
) -> Result<String, String> {
    let stimulus =
        PatternSource::wide_random(target.inputs.len(), 0xD1CE).map_err(|e| e.to_string())?;
    campaign_report(policy, rec, target, stimulus, Engine::Compiled)
}

/// The generated-STA stage: one full static timing report over a
/// 10⁵-gate seeded netlist at the nominal operating point.
fn generated_sta_leg(
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    c: &Circuit,
) -> Result<String, String> {
    let config = StaConfig::at(NOMINAL_VDD, NOMINAL_VT);
    let report =
        analyze(policy, rec, &c.name, &c.netlist, &c.outputs, config).map_err(|e| e.to_string())?;
    Ok(report.to_string())
}

/// The activity-extraction kernel behind Figs. 8–9: event-driven
/// `measure_activity` over 200 random vectors (8 of them warm-up) on
/// each of `circuits`.
fn sim_activity_leg(
    rec: &dyn Recorder,
    circuits: &[(Netlist, Vec<NodeId>)],
) -> Result<Vec<ActivityReport>, String> {
    circuits
        .iter()
        .map(|(netlist, inputs)| {
            let mut sim = Simulator::new(netlist);
            sim.set_recorder(rec);
            let mut src = PatternSource::random(inputs.len(), 3).map_err(|e| e.to_string())?;
            sim.measure_activity(&mut src, inputs, 200, 8)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The interpreter kernel behind Tables 1–3: the IDEA guest program run
/// once raw and once under the ATOM-style profiler.
fn interpreter_leg(rec: &dyn Recorder, program: &Program) -> Result<(u64, ProfileReport), String> {
    const BUDGET: u64 = 100_000_000;
    let mut raw = Cpu::new(program.clone());
    raw.run(BUDGET).map_err(|e| e.to_string())?;
    let mut cpu = Cpu::new(program.clone());
    let mut profiler = Profiler::standard();
    cpu.run_profiled(BUDGET, &mut profiler)
        .map_err(|e| e.to_string())?;
    profiler.flush_metrics(rec);
    Ok((raw.steps(), profiler.report()))
}

/// The device-model kernel behind Figs. 2 and 6: a 1000-point EKV
/// drain-current sweep of V_gs at V_ds = 1 V.
fn device_iv_leg(m: &Mosfet) -> f64 {
    (0..1000)
        .map(|i| {
            let vgs = Volts(black_box(f64::from(i) * 0.003));
            m.drain_current(vgs, Volts(1.0)).0
        })
        .sum()
}

fn leg_json(t: LegTiming) -> String {
    format!(
        "{{\"median_ms\": {}, \"min_ms\": {}}}",
        fixed(t.median_ms, 3),
        fixed(t.min_ms, 3)
    )
}

fn render_json(threads: usize, parallelism: usize, stages: &[StageResult]) -> String {
    let mut out = format!(
        "{{\n  \"threads\": {threads},\n  \"parallelism_available\": {parallelism},\n  \"repeats\": {REPEATS},\n  \"stages\": [\n"
    );
    for (i, s) in stages.iter().enumerate() {
        let _ = write!(out, "    {{\"name\": {}, ", quote(s.name));
        if let Some(e) = s.engine {
            let _ = write!(out, "\"engine\": {}, ", quote(e));
        }
        let _ = write!(
            out,
            "\"recorded\": {}, \"serial\": {}, \"parallel\": {}, \"speedup\": {}, ",
            leg_json(s.recorded),
            leg_json(s.serial),
            leg_json(s.parallel),
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
    let mut out_path = "BENCH_sim.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().ok_or("--out needs a value")?,
            _ => return Err(format!("unknown argument `{arg}`")),
        }
    }

    let policy = ExecPolicy::from_env();
    let parallelism = ExecPolicy::max_parallel().threads();
    eprintln!(
        "perf: {} worker thread(s), {} available, {REPEATS} repeats per leg",
        policy.threads(),
        parallelism,
    );

    // Generated-netlist workloads, seeded so every run measures the
    // same circuits. The campaign and STA sizes mirror the CLI
    // acceptance invocations (`--generate N --seed 42`).
    let parse_circuit =
        generate(&GeneratorConfig::new(20_000, 0xB11F)).map_err(|e| e.to_string())?;
    let parse_text = write_blif(&parse_circuit).map_err(|e| e.to_string())?;
    eprintln!(
        "perf: parse round trip: {}",
        check_round_trip(&parse_circuit, &parse_text)?
    );
    let gen_target = generate(&GeneratorConfig::new(10_000, 42)).map_err(|e| e.to_string())?;
    let sta_circuit = generate(&GeneratorConfig::new(100_000, 42)).map_err(|e| e.to_string())?;

    let mut rca = Netlist::new();
    let rca_inputs = ripple_carry_adder(&mut rca, 8)
        .map_err(|e| e.to_string())?
        .input_nodes();
    let mut mult = Netlist::new();
    let mult_inputs = array_multiplier(&mut mult, 8)
        .map_err(|e| e.to_string())?
        .input_nodes();
    let activity_circuits = [(rca, rca_inputs), (mult, mult_inputs)];
    let idea_program = assemble(&idea::program(10)).map_err(|e| e.to_string())?;
    let nmos = Mosfet::nmos_with_vt(Volts(0.25));

    let stages = vec![
        stage(names::STAGE_CAMPAIGN, Some("event"), &policy, |p, rec| {
            campaign_leg(p, rec, Engine::Event)
        })?,
        stage(
            names::STAGE_CAMPAIGN,
            Some("compiled"),
            &policy,
            |p, rec| campaign_leg(p, rec, Engine::Compiled),
        )?,
        stage(names::STAGE_REGEN, None, &policy, |p, _| regen_leg(p))?,
        stage(names::STAGE_OPTIMIZE, None, &policy, |p, _| optimize_leg(p))?,
        stage(names::STAGE_STA, None, &policy, sta_leg)?,
        stage(names::STAGE_PARSE, None, &policy, |_, _| {
            parse_leg(&parse_circuit.name, &parse_text)
        })?,
        stage(
            names::STAGE_CAMPAIGN_GENERATED,
            Some("compiled"),
            &policy,
            |p, rec| generated_campaign_leg(p, rec, &gen_target),
        )?,
        stage(names::STAGE_STA_GENERATED, None, &policy, |p, rec| {
            generated_sta_leg(p, rec, &sta_circuit)
        })?,
        stage(
            names::STAGE_SIM_ACTIVITY,
            Some("event"),
            &policy,
            |_, rec| sim_activity_leg(rec, &activity_circuits),
        )?,
        stage(names::STAGE_INTERPRETER, None, &policy, |_, rec| {
            interpreter_leg(rec, &idea_program)
        })?,
        stage(names::STAGE_DEVICE_IV, None, &policy, |_, _| {
            Ok(device_iv_leg(&nmos))
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
            "perf: {label:28} recorded {:9.3} ms  serial {:9.3} ms  parallel {:9.3} ms  speedup {:.2}x  identical {}{throughput}",
            s.recorded.median_ms,
            s.serial.median_ms,
            s.parallel.median_ms,
            s.speedup(),
            s.identical
        );
    }
    if let Some(bad) = stages.iter().find(|s| !s.identical) {
        return Err(format!(
            "stage `{}` output diverged between legs or repeats",
            bad.name
        ));
    }

    let json = render_json(policy.threads(), parallelism, &stages);
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

    fn leg(median_ms: f64, min_ms: f64) -> LegTiming {
        LegTiming { median_ms, min_ms }
    }

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
                recorded: leg(2.5, 2.25),
                serial: leg(2.0, 1.75),
                parallel: leg(1.0, 0.5),
                identical: true,
                counters: vec![(name, 3), (names::CAMPAIGN_INJECTIONS, 10)],
            })
            .collect();
        let doc = Json::parse(&render_json(2, 2, &stages)).expect("valid JSON document");
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(
            doc.get("repeats").and_then(Json::as_u64),
            Some(REPEATS as u64)
        );
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
            for (key, median, min) in [
                ("recorded", 2.5, 2.25),
                ("serial", 2.0, 1.75),
                ("parallel", 1.0, 0.5),
            ] {
                let timing = row.get(key).expect(key);
                assert_eq!(timing.get("median_ms").and_then(Json::as_f64), Some(median));
                assert_eq!(timing.get("min_ms").and_then(Json::as_f64), Some(min));
            }
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
            recorded: leg(f64::NAN, f64::NEG_INFINITY),
            serial: leg(f64::NAN, f64::NAN),
            parallel: leg(f64::INFINITY, f64::INFINITY),
            identical: false,
            counters: vec![],
        };
        let doc = Json::parse(&render_json(1, 1, &[stage])).expect("valid JSON document");
        let row = &doc.get("stages").and_then(Json::as_array).expect("stages")[0];
        for leg in ["recorded", "serial", "parallel"] {
            for key in ["median_ms", "min_ms"] {
                let value = row.get(leg).and_then(|t| t.get(key));
                assert!(value.is_some_and(Json::is_null), "{leg}.{key}");
            }
        }
        assert!(row.get("speedup").is_some_and(Json::is_null));
        assert!(row.get("engine").is_none());
    }

    #[test]
    fn leg_timing_is_the_median_and_min_of_its_samples() {
        let t = LegTiming::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((t.median_ms, t.min_ms), (3.0, 1.0));
    }
}
