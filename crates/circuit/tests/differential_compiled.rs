//! Differential testing: the event-driven fault-campaign engine against
//! the compiled bit-parallel levelized engine.
//!
//! The compiled engine packs 64 stimulus vectors per machine word and
//! re-evaluates only each fault's difference frontier, so it must be
//! checked against the event engine it replaces, not against intuition:
//! every stuck-at fault on every standard datapath must classify
//! identically, the rendered campaign reports must match byte for byte
//! at every thread count, and the settled per-node activity must equal
//! an event-side harness that samples settled values (the event
//! engine's own counters also tally glitches, which the compiled
//! engine's settled semantics deliberately exclude).

use std::collections::HashMap;

use lowvolt_circuit::compiled::CompiledNetlist;
use lowvolt_circuit::faults::{
    run_campaign, standard_targets, stuck_at_universe, CampaignOptions, Engine, FaultOutcome,
    GateFault, ResilientCampaign,
};
use lowvolt_circuit::logic::Bit;
use lowvolt_circuit::netlist::{GateKind, Netlist};
use lowvolt_circuit::sim::Simulator;
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_circuit::{Circuit, NodeId};
use lowvolt_exec::ExecPolicy;
use lowvolt_obs::{names, noop, MetricsRegistry, Recorder};

const VECTORS: usize = 96; // two packed words, the second half-full
const SEED: u64 = 0xD1FF;

fn campaign(
    target: &Circuit,
    seed: u64,
    engine: Engine,
    threads: usize,
    recorder: &dyn Recorder,
) -> ResilientCampaign {
    let faults = stuck_at_universe(&target.netlist);
    let mut stimulus =
        PatternSource::random(target.inputs.len(), seed).expect("stimulus width is nonzero");
    let options = CampaignOptions {
        engine,
        policy: ExecPolicy::with_threads(threads),
        recorder,
        ..CampaignOptions::default()
    };
    run_campaign(target, &faults, &mut stimulus, VECTORS, options).expect("campaign runs")
}

/// Every fault on every standard datapath classifies identically under
/// both engines, at 1, 2, and 8 worker threads, and the rendered
/// campaign reports are byte-identical.
#[test]
fn packed_campaign_matches_event_on_all_standard_targets() {
    let targets = standard_targets(4).expect("standard targets build");
    for (i, target) in targets.iter().enumerate() {
        let seed = SEED.wrapping_add(i as u64);
        let event = campaign(target, seed, Engine::Event, 1, noop());
        let event_report = event.report().expect("event campaign completed");
        let faults = stuck_at_universe(&target.netlist);
        for threads in [1usize, 2, 8] {
            let packed = campaign(target, seed, Engine::Compiled, threads, noop());
            assert_eq!(event.reports.len(), packed.reports.len());
            for (f, (e, p)) in faults.iter().zip(event.reports.iter().zip(&packed.reports)) {
                let e = e.as_ref().expect("event outcome resolved");
                let p = p.as_ref().expect("packed outcome resolved");
                assert_eq!(
                    e.outcome, p.outcome,
                    "target {} threads {threads} fault {f:?}",
                    target.name
                );
            }
            let packed_report = packed.report().expect("packed campaign completed");
            assert_eq!(
                event_report.to_string(),
                packed_report.to_string(),
                "rendered report diverged on {} at {threads} thread(s)",
                target.name
            );
        }
    }
}

/// The shared campaign epilogue makes the `campaign.*` counters part of
/// the cross-engine contract: both engines report the same targets,
/// injections, simulated vectors and outcome classes on every standard
/// datapath at every thread count.
#[test]
fn campaign_counters_match_across_engines() {
    let targets = standard_targets(4).expect("standard targets build");
    for (i, target) in targets.iter().enumerate() {
        let seed = SEED.wrapping_add(i as u64);
        let counters = |engine: Engine, threads: usize| {
            let reg = MetricsRegistry::new();
            campaign(target, seed, engine, threads, &reg);
            let snap = reg.snapshot();
            names::COUNTERS
                .iter()
                .filter(|name| name.starts_with("campaign."))
                .map(|&name| (name, snap.counter(name)))
                .collect::<Vec<_>>()
        };
        let reference = counters(Engine::Event, 1);
        let faults = stuck_at_universe(&target.netlist).len() as u64;
        let get = |name: &str| {
            reference
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, v)| v)
        };
        assert_eq!(reference.len(), 7, "every campaign counter compared");
        assert_eq!(get(names::CAMPAIGN_TARGETS), 1);
        assert_eq!(get(names::CAMPAIGN_INJECTIONS), faults);
        assert_eq!(get(names::CAMPAIGN_VECTORS), faults * VECTORS as u64);
        for engine in [Engine::Event, Engine::Compiled] {
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    counters(engine, threads),
                    reference,
                    "{} on {engine:?} at {threads} thread(s)",
                    target.name
                );
            }
        }
    }
}

/// A clocked target with one of each shape the compiled engine's
/// per-pass gate pruning distinguishes: a gate that feeds only a
/// flip-flop data input, an observed gate that feeds no flip-flop, a
/// gate chain that reaches neither, a data node that is also an
/// observed output, and a stimulus input (`f`) that reaches only a
/// flip-flop.
fn cone_target() -> Circuit {
    let mut n = Netlist::new();
    let clk = n.input("clk");
    let [a, b, c, e, f] = ["a", "b", "c", "e", "f"].map(|name| n.input(name));
    let g = |n: &mut Netlist, kind, ins: &[NodeId]| n.gate(kind, ins).expect("gate wires");
    // Capture only: f → d1 → q1.
    let nf = g(&mut n, GateKind::Not, &[f]);
    let d1 = g(&mut n, GateKind::And2, &[nf, b]);
    let q1 = g(&mut n, GateKind::Dff, &[clk, d1]);
    // Observed, feeds no flip-flop.
    let obs = g(&mut n, GateKind::Or2, &[b, c]);
    // Reaches neither a flip-flop nor an output.
    let dead = g(&mut n, GateKind::Xor2, &[a, c]);
    let _dead2 = g(&mut n, GateKind::Nor2, &[dead, e]);
    // A data node that is also observed.
    let d2 = g(&mut n, GateKind::Nand2, &[c, e]);
    let q2 = g(&mut n, GateKind::Dff, &[clk, d2]);
    // State read back out through observed logic.
    let y = g(&mut n, GateKind::Xor2, &[q1, obs]);
    let z = g(&mut n, GateKind::Mux2, &[a, q2, e]);
    Circuit {
        name: "cone".into(),
        netlist: n,
        inputs: vec![a, b, c, e, f],
        outputs: vec![obs, d2, y, z],
        clock: Some(clk),
    }
}

/// Per-fault outcomes on [`cone_target`] equal the event engine's at 1,
/// 2 and 8 threads, over stuck-at faults on every node (the clock
/// included, which takes the stuck-clock path) plus `InputX` and
/// `StimulusBitFlip` on every input — among them `f`, which reaches
/// only a flip-flop.
#[test]
fn cone_pruned_campaign_matches_event_on_every_cone_shape() {
    let target = cone_target();
    let faults = fault_universe(&target);
    let outcomes_at =
        |engine: Engine, threads: usize| outcomes(run(&target, &faults, VECTORS, engine, threads));
    let event = outcomes_at(Engine::Event, 1);
    // The fault on the flip-flop-only input is visible at the outputs
    // only through the captured state.
    let f_flip = faults
        .iter()
        .position(|x| *x == GateFault::StimulusBitFlip { input_index: 4 })
        .expect("f is input 4");
    assert_eq!(event[f_flip], FaultOutcome::Corrupted);
    for threads in [1usize, 2, 8] {
        let packed = outcomes_at(Engine::Compiled, threads);
        for (fault, (e, p)) in faults.iter().zip(event.iter().zip(&packed)) {
            assert_eq!(e, p, "{fault:?} at {threads} thread(s)");
        }
    }
}

/// A clocked target whose observed output `o = !clk & a` is also a
/// flip-flop data node, in front of a deeper data node `d2 = !!!a`
/// whose captured state reaches the other output only through `q2`.
/// With the clock low, a fault on `a` changes `o` definitely before
/// `d2` is evaluated; with the clock high `o` reads 0 either way.
fn capture_behind_output_target() -> Circuit {
    let mut n = Netlist::new();
    let clk = n.input("clk");
    let [a, b] = ["a", "b"].map(|name| n.input(name));
    let g = |n: &mut Netlist, kind, ins: &[NodeId]| n.gate(kind, ins).expect("gate wires");
    let nclk = g(&mut n, GateKind::Not, &[clk]);
    let o = g(&mut n, GateKind::And2, &[nclk, a]);
    let _q1 = g(&mut n, GateKind::Dff, &[clk, o]);
    let na = g(&mut n, GateKind::Not, &[a]);
    let a2 = g(&mut n, GateKind::Not, &[na]);
    let d2 = g(&mut n, GateKind::Not, &[a2]);
    let q2 = g(&mut n, GateKind::Dff, &[clk, d2]);
    let z = g(&mut n, GateKind::Xor2, &[q2, b]);
    Circuit {
        name: "capture-behind-output".into(),
        netlist: n,
        inputs: vec![a, b],
        outputs: vec![o, z],
        clock: Some(clk),
    }
}

/// The capture pass (clock low) is never stopped by a definite
/// difference at an observed output: its captured state is what the
/// observed pass reads. On [`capture_behind_output_target`], `a` stuck
/// at 1 is visible at the outputs only through `q2`.
#[test]
fn the_capture_pass_runs_past_an_observed_difference() {
    let target = capture_behind_output_target();
    let faults = fault_universe(&target);
    let outcomes_of = |engine: Engine| outcomes(run(&target, &faults, VECTORS, engine, 1));
    let event = outcomes_of(Engine::Event);
    let a_stuck_at_1 = GateFault::NodeStuckAt {
        node: target.inputs[0],
        value: Bit::One,
    };
    let at = faults
        .iter()
        .position(|f| *f == a_stuck_at_1)
        .expect("a is stuck-at faulted");
    assert_eq!(event[at], FaultOutcome::Corrupted);
    for (fault, (e, p)) in faults
        .iter()
        .zip(event.iter().zip(&outcomes_of(Engine::Compiled)))
    {
        assert_eq!(e, p, "{fault:?}");
    }
}

/// `faults` on `target` over `vectors` seeded random stimulus vectors.
fn run(
    target: &Circuit,
    faults: &[GateFault],
    vectors: usize,
    engine: Engine,
    threads: usize,
) -> ResilientCampaign {
    let mut stimulus = PatternSource::random(target.inputs.len(), SEED).expect("stimulus");
    let options = CampaignOptions {
        engine,
        policy: ExecPolicy::with_threads(threads),
        ..CampaignOptions::default()
    };
    run_campaign(target, faults, &mut stimulus, vectors, options).expect("campaign runs")
}

/// Every fault's outcome in a completed campaign.
fn outcomes(run: ResilientCampaign) -> Vec<FaultOutcome> {
    run.reports
        .into_iter()
        .map(|r| r.expect("outcome resolved").outcome)
        .collect()
}

/// Stuck-at faults on every node plus `InputX` and `StimulusBitFlip` on
/// every input.
fn fault_universe(target: &Circuit) -> Vec<GateFault> {
    let mut faults = stuck_at_universe(&target.netlist);
    for input_index in 0..target.inputs.len() {
        faults.push(GateFault::InputX { input_index });
        faults.push(GateFault::StimulusBitFlip { input_index });
    }
    faults
}

/// Event ≡ compiled at the packed word's edges: one lane, a word one
/// short of full, exactly full, one lane into a second word, and a
/// third, two-lane word — on a combinational and a clocked target, at
/// 1, 2 and 8 threads. A partial last word classifies only its active
/// lanes, and a fault's class folds the same across words whichever of
/// them stopped at a detection.
#[test]
fn packed_campaign_matches_event_at_word_edges() {
    let adder = standard_targets(4)
        .expect("standard targets build")
        .swap_remove(0);
    assert!(adder.clock.is_none(), "expected the combinational adder");
    for target in [adder, cone_target()] {
        let faults = fault_universe(&target);
        for vectors in [1usize, 63, 64, 65, 130] {
            let campaign_at =
                |engine: Engine, threads: usize| run(&target, &faults, vectors, engine, threads);
            let event = campaign_at(Engine::Event, 1);
            let event_report = event
                .report()
                .expect("event campaign completed")
                .to_string();
            for threads in [1usize, 2, 8] {
                let packed = campaign_at(Engine::Compiled, threads);
                let at = format!(
                    "{} at {vectors} vector(s), {threads} thread(s)",
                    target.name
                );
                for (fault, (e, p)) in faults.iter().zip(event.reports.iter().zip(&packed.reports))
                {
                    let e = &e.as_ref().expect("event outcome resolved").outcome;
                    let p = &p.as_ref().expect("packed outcome resolved").outcome;
                    assert_eq!(e, p, "{fault:?} on {at}");
                }
                let packed_report = packed.report().expect("packed campaign completed");
                assert_eq!(event_report, packed_report.to_string(), "report on {at}");
            }
        }
    }
}

/// `compiled.capture_evals` is the phase-A share of
/// `compiled.gate_evals`: 0 on a combinational target, at most the total
/// on a clocked one, and nonzero there when a fault reaches a flip-flop.
#[test]
fn capture_evals_are_the_clocked_share_of_gate_evals() {
    let adder = &standard_targets(4).expect("standard targets build")[0];
    assert!(adder.clock.is_none(), "expected the combinational adder");
    let clocked = cone_target();
    for (target, clocked) in [(adder, false), (&clocked, true)] {
        let reg = MetricsRegistry::new();
        campaign(target, SEED, Engine::Compiled, 2, &reg);
        let capture = reg.counter(names::COMPILED_CAPTURE_EVALS);
        let total = reg.counter(names::COMPILED_GATE_EVALS);
        assert!(total > 0, "{}", target.name);
        if clocked {
            assert!(0 < capture && capture <= total, "{capture} of {total}");
        } else {
            assert_eq!(capture, 0);
        }
    }
}

/// Samples settled node values from the event simulator, cycle by
/// cycle, and counts known-0→known-1 / known-1→known-0 transitions in
/// the measured window — the same settled semantics the compiled
/// engine's activity counters use.
fn settled_counts(
    target: &Circuit,
    seed: u64,
    cycles: usize,
    warmup: usize,
) -> HashMap<NodeId, (u64, u64)> {
    let mut source =
        PatternSource::random(target.inputs.len(), seed).expect("stimulus width is nonzero");
    let mut sim = Simulator::new(&target.netlist);
    let nodes: Vec<NodeId> = target.netlist.node_ids().collect();
    let mut prev: HashMap<NodeId, Bit> = nodes.iter().map(|&n| (n, Bit::X)).collect();
    let mut counts: HashMap<NodeId, (u64, u64)> = nodes.iter().map(|&n| (n, (0, 0))).collect();
    for cycle in 0..cycles {
        let bits = source.next_pattern();
        sim.apply_vector(&target.inputs, &bits)
            .expect("vector settles");
        for &n in &nodes {
            let cur = sim.value(n);
            if cycle >= warmup {
                let c = counts.get_mut(&n).expect("node seeded");
                match (prev[&n], cur) {
                    (Bit::Zero, Bit::One) => c.0 += 1,
                    (Bit::One, Bit::Zero) => c.1 += 1,
                    _ => {}
                }
            }
            prev.insert(n, cur);
        }
    }
    counts
}

/// The compiled engine's per-node settled activity equals the
/// event-side settled harness exactly, on every standard datapath —
/// including the clocked register file, whose undriven clock leaves the
/// flip-flops inert (X) in both engines.
#[test]
fn packed_settled_activity_matches_event_settled_sampling() {
    let (cycles, warmup) = (70usize, 6usize); // crosses a 64-lane word boundary
    let targets = standard_targets(4).expect("standard targets build");
    for (i, target) in targets.iter().enumerate() {
        let seed = SEED.wrapping_add(0x51A0 + i as u64);
        let expected = settled_counts(target, seed, cycles, warmup);
        let comp = CompiledNetlist::compile(&target.netlist).expect("standard targets levelize");
        let mut source =
            PatternSource::random(target.inputs.len(), seed).expect("stimulus width is nonzero");
        let report = comp
            .measure_activity(
                &target.netlist,
                lowvolt_obs::noop(),
                &mut source,
                &target.inputs,
                cycles,
                warmup,
            )
            .expect("packed activity runs");
        assert_eq!(report.cycles(), (cycles - warmup) as u64);
        for e in report.entries() {
            let &(rising, falling) = expected.get(&e.node).expect("entry for every node");
            assert_eq!(
                (e.rising, e.falling),
                (rising, falling),
                "settled activity diverged on {} node {}",
                target.name,
                e.name
            );
        }
        assert_eq!(report.entries().len(), expected.len());
    }
}
