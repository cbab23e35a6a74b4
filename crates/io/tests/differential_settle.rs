//! Differential testing of imported and generated circuits: the event
//! simulator against the compiled bit-parallel engine, on the parsed
//! c17 fixture and on generated netlists — settled node values must
//! agree exactly (X included), and packed fault campaigns must be
//! byte-identical across 1/2/8 worker threads.

use std::path::Path;

use lowvolt_circuit::compiled::CompiledNetlist;
use lowvolt_circuit::faults::{
    run_campaign, stuck_at_universe, CampaignOptions, CampaignReport, Engine, GateFault,
};
use lowvolt_circuit::logic::Bit;
use lowvolt_circuit::sim::Simulator;
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_circuit::{Circuit, NodeId};
use lowvolt_exec::ExecPolicy;
use lowvolt_io::{generate, parse_path, GeneratorConfig};
use lowvolt_obs::{names, MetricsRegistry};

fn c17() -> Circuit {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/c17.bench");
    parse_path(&path).expect("c17 fixture parses")
}

/// A deterministic three-valued vector stream: every third cycle
/// scatters X bits through the pattern, so the Kleene (val, known)
/// planes of the compiled engine get exercised, not just the binary
/// fast path.
fn vector_with_x(width: usize, cycle: usize) -> Vec<Bit> {
    let mut state = (cycle as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..width)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (state >> 33) ^ (i as u64);
            if cycle % 3 == 0 && r % 5 == 0 {
                Bit::X
            } else if r % 2 == 0 {
                Bit::Zero
            } else {
                Bit::One
            }
        })
        .collect()
}

/// Every node settles to the same value under both engines, for every
/// vector — driven inputs, undriven inputs (X), and injected X bits.
fn assert_settle_agreement(c: &Circuit, cycles: usize) {
    let compiled = CompiledNetlist::compile(&c.netlist).expect("levelizes");
    let mut sim = Simulator::new(&c.netlist);
    // Drive the clock low alongside the data inputs so sequential
    // circuits are settled in their inert phase identically by both
    // engines (flip-flop outputs stay X without an edge).
    let mut driven: Vec<NodeId> = c.inputs.clone();
    if let Some(clk) = c.clock {
        driven.push(clk);
    }
    let nodes: Vec<NodeId> = c.netlist.node_ids().collect();
    for cycle in 0..cycles {
        let mut bits = vector_with_x(c.inputs.len(), cycle);
        if c.clock.is_some() {
            bits.push(Bit::Zero);
        }
        sim.apply_vector(&driven, &bits).expect("event settles");
        let packed = compiled
            .settle_vector(&driven, &bits)
            .expect("compiled settles");
        for &n in &nodes {
            assert_eq!(
                sim.value(n),
                packed[n.index()],
                "cycle {cycle}: node `{}` diverged",
                c.netlist.node_name(n)
            );
        }
    }
}

#[test]
fn c17_settles_identically_in_both_engines() {
    assert_settle_agreement(&c17(), 60);
}

#[test]
fn generated_combinational_settles_identically() {
    let mut cfg = GeneratorConfig::new(1500, 0xC0FFEE);
    cfg.dff_fraction = 0.0;
    let c = generate(&cfg).expect("generates");
    assert_settle_agreement(&c, 12);
}

#[test]
fn generated_sequential_settles_identically() {
    let mut cfg = GeneratorConfig::new(800, 0xBEEF);
    cfg.dff_fraction = 0.15;
    let c = generate(&cfg).expect("generates");
    assert!(c.clock.is_some());
    assert_settle_agreement(&c, 12);
}

/// Full packed fault campaign on the parsed c17: per-fault outcomes and
/// the rendered report match the event engine byte for byte, at 1, 2,
/// and 8 threads.
#[test]
fn c17_campaign_event_vs_compiled_thread_invariant() {
    const VECTORS: usize = 96;
    const SEED: u64 = 0x17C1;
    let target = c17();
    let faults = stuck_at_universe(&target.netlist);
    let mut stimulus = PatternSource::random(target.inputs.len(), SEED).expect("stimulus builds");
    let event = run_campaign(
        &target,
        &faults,
        &mut stimulus,
        VECTORS,
        CampaignOptions::default(),
    )
    .expect("event campaign runs");
    let event_report = event.report().expect("event campaign completed");
    for threads in [1usize, 2, 8] {
        let mut stimulus =
            PatternSource::random(target.inputs.len(), SEED).expect("stimulus builds");
        let packed = run_campaign(
            &target,
            &faults,
            &mut stimulus,
            VECTORS,
            CampaignOptions {
                engine: Engine::Compiled,
                policy: ExecPolicy::with_threads(threads),
                ..CampaignOptions::default()
            },
        )
        .expect("packed campaign runs");
        for (f, (e, p)) in faults.iter().zip(event.reports.iter().zip(&packed.reports)) {
            let e = e.as_ref().expect("event outcome resolved");
            let p = p.as_ref().expect("packed outcome resolved");
            assert_eq!(e.outcome, p.outcome, "threads {threads} fault {f:?}");
        }
        assert_eq!(
            event_report.to_string(),
            packed.report().expect("completed").to_string(),
            "rendered report diverged at {threads} thread(s)"
        );
    }
}

/// Packed campaign on a generated netlist is byte-identical across
/// thread counts (the event engine is too slow at this size to be the
/// reference; thread-invariance is the contract here).
#[test]
fn generated_campaign_thread_invariant() {
    const VECTORS: usize = 128;
    let mut cfg = GeneratorConfig::new(3000, 0xD1CE);
    cfg.dff_fraction = 0.0;
    let target = generate(&cfg).expect("generates");
    let faults = stuck_at_universe(&target.netlist);
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 8] {
        let mut stimulus = PatternSource::random(target.inputs.len(), 7).expect("stimulus builds");
        let packed = run_campaign(
            &target,
            &faults,
            &mut stimulus,
            VECTORS,
            CampaignOptions {
                engine: Engine::Compiled,
                policy: ExecPolicy::with_threads(threads),
                ..CampaignOptions::default()
            },
        )
        .expect("packed campaign runs");
        let rendered = packed.report().expect("completed").to_string();
        match &reference {
            None => reference = Some(rendered),
            Some(first) => assert_eq!(first, &rendered, "diverged at {threads} thread(s)"),
        }
    }
}

/// Packed campaign on a clocked generated netlist with more than one
/// 1024-fault range and a partial second stimulus word: the outcome of
/// every sampled fault equals the event engine's, and so does the
/// rendered report over the sample; the full packed report is
/// byte-identical at 1, 2, and 8 threads. This exercises the compiled
/// engine's sparse flip-flop reseeding (only flip-flops whose data node
/// a fault changed get a new state) and its classification over
/// touched outputs only, across work-item boundaries. The event engine
/// runs every seventh fault — per-fault outcomes do not depend on the
/// other faults — to keep the debug-build run to a few seconds; the
/// stride is odd so both stuck values of a node get sampled.
#[test]
fn clocked_multi_range_campaign_event_vs_compiled() {
    const VECTORS: usize = 70;
    const SEED: u64 = 0x5EC;
    const STRIDE: usize = 7;
    let mut cfg = GeneratorConfig::new(600, 0xF1F0);
    cfg.dff_fraction = 0.15;
    let target = generate(&cfg).expect("generates");
    assert!(target.clock.is_some(), "expected a clocked netlist");
    let faults = stuck_at_universe(&target.netlist);
    assert!(faults.len() > 1024, "{} faults fit one range", faults.len());
    let sample: Vec<GateFault> = faults.iter().step_by(STRIDE).cloned().collect();
    let mut stimulus = PatternSource::random(target.inputs.len(), SEED).expect("stimulus builds");
    let event = run_campaign(
        &target,
        &sample,
        &mut stimulus,
        VECTORS,
        CampaignOptions {
            policy: ExecPolicy::with_threads(2),
            ..CampaignOptions::default()
        },
    )
    .expect("event campaign runs")
    .report()
    .expect("event campaign completed");
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 8] {
        let mut stimulus =
            PatternSource::random(target.inputs.len(), SEED).expect("stimulus builds");
        let packed = run_campaign(
            &target,
            &faults,
            &mut stimulus,
            VECTORS,
            CampaignOptions {
                engine: Engine::Compiled,
                policy: ExecPolicy::with_threads(threads),
                ..CampaignOptions::default()
            },
        )
        .expect("packed campaign runs")
        .report()
        .expect("packed campaign completed");
        let sampled = CampaignReport {
            reports: packed.reports.iter().step_by(STRIDE).cloned().collect(),
            ..packed.clone()
        };
        for (e, p) in event.reports.iter().zip(&sampled.reports) {
            assert_eq!(e, p, "threads {threads}");
        }
        assert_eq!(
            event.to_string(),
            sampled.to_string(),
            "sampled report diverged at {threads} thread(s)"
        );
        let rendered = packed.to_string();
        match &reference {
            None => reference = Some(rendered),
            Some(first) => assert_eq!(first, &rendered, "diverged at {threads} thread(s)"),
        }
    }
}

/// `compiled.fault_dropouts` counts the observed (clock-high) pass of a
/// clocked target only. Phase A's frontier is confined to the capture
/// cone and nearly always drains, so folding it in made the counter
/// read almost every fault (1,032 of 1,034 here). An observed pass that
/// stops at a detection counts under `compiled.detect_stops` instead,
/// so each observed pass is a dropout, a stop, or neither. The pinned
/// values are also what `lowvolt campaign --generate 500 --seed 7
/// --vectors 32 --engine compiled` reports (its `--seed` seeds both the
/// generator and the stimulus).
#[test]
fn fault_dropouts_count_the_observed_pass_only() {
    let target = generate(&GeneratorConfig::new(500, 7)).expect("generates");
    assert!(target.clock.is_some(), "expected a clocked netlist");
    let faults = stuck_at_universe(&target.netlist);
    let mut stimulus = PatternSource::wide_random(target.inputs.len(), 7).expect("stimulus");
    let reg = MetricsRegistry::new();
    let options = CampaignOptions {
        engine: Engine::Compiled,
        recorder: &reg,
        ..CampaignOptions::default()
    };
    run_campaign(&target, &faults, &mut stimulus, 32, options).expect("campaign runs");
    assert_eq!(faults.len(), 1034);
    assert_eq!(reg.counter(names::COMPILED_FAULT_DROPOUTS), 275);
    // One stimulus word: every corrupted fault's one observed pass stops.
    assert_eq!(reg.counter(names::CAMPAIGN_CORRUPTED), 743);
    assert_eq!(reg.counter(names::COMPILED_DETECT_STOPS), 743);
    assert_eq!(reg.counter(names::COMPILED_GATE_EVALS), 7720);
}
