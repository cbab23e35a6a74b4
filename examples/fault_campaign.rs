//! Fault-injection campaign over the gate-level datapaths.
//!
//! Sweeps the classical single-stuck-at universe (every node stuck at 0
//! and stuck at 1) over the 8-bit ripple-carry adder, classifies each
//! injection against a golden run, then prints the per-fault breakdown
//! for the carry chain and a summary across all five standard datapath
//! targets. Demonstrates the robustness contract: every fault — including
//! ones that send the simulator into oscillation — is *classified*, never
//! a panic. Every campaign goes through the one `run_campaign`; its
//! `CampaignOptions` pick the engine, threads, metrics, cache and journal.
//!
//! Run with: `cargo run --release --example fault_campaign`

use lowvolt::circuit::faults::{
    run_campaign, standard_targets, stuck_at_universe, CampaignOptions, Engine, FaultOutcome,
    GateFault,
};
use lowvolt::circuit::stimulus::PatternSource;
use lowvolt::exec::ExecPolicy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Injections are partitioned over LOWVOLT_THREADS workers (default:
    // all cores); the report is bit-identical for any thread count and
    // for either engine.
    let policy = ExecPolicy::from_env();
    println!("running with {} worker thread(s)\n", policy.threads());
    let options = |engine| CampaignOptions {
        engine,
        policy,
        ..CampaignOptions::default()
    };

    // ---- the 8-bit adder, in depth ----
    let targets = standard_targets(8)?;
    let adder = &targets[0];
    let faults = stuck_at_universe(&adder.netlist);
    let mut src = PatternSource::random(adder.inputs.len(), 1996)?;
    let run = run_campaign(adder, &faults, &mut src, 64, options(Engine::Event))?;
    let report = run.report().ok_or("campaign left faults unresolved")?;
    println!("== single-stuck-at sweep, 8-bit ripple-carry adder ==");
    print!("{report}");

    // Show what a corrupted carry chain looks like, node by node.
    println!("\nsample corrupted-output faults:");
    let mut shown = 0;
    for r in &report.reports {
        if matches!(r.outcome, FaultOutcome::Corrupted) {
            if let GateFault::NodeStuckAt { node, .. } = r.fault {
                println!(
                    "  {:30} ({})",
                    r.fault.to_string(),
                    adder.netlist.node_name(node)
                );
                shown += 1;
                if shown == 8 {
                    break;
                }
            }
        }
    }

    // Harness-level faults: an undriven and an inverted input column.
    let harness = [
        GateFault::InputX { input_index: 0 },
        GateFault::StimulusBitFlip { input_index: 0 },
    ];
    let mut src = PatternSource::random(adder.inputs.len(), 7)?;
    let hr = run_campaign(adder, &harness, &mut src, 64, CampaignOptions::default())?;
    println!("\nharness faults on input column 0:");
    for r in hr.reports.iter().flatten() {
        println!("  {:30} -> {}", r.fault.to_string(), r.outcome.label());
    }

    // ---- summary over all five standard datapaths, on the compiled
    // bit-parallel engine (64 vectors per machine word) ----
    println!("\n== stuck-at coverage across the standard targets (width 4) ==");
    for target in &standard_targets(4)? {
        let faults = stuck_at_universe(&target.netlist);
        let mut src = PatternSource::random(target.inputs.len(), 42)?;
        let run = run_campaign(target, &faults, &mut src, 32, options(Engine::Compiled))?;
        print!("{}", run.report().ok_or("campaign left faults unresolved")?);
    }
    println!("\nevery fault above was classified — zero panics by construction.");
    Ok(())
}
