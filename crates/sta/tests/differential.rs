//! Differential tests pinning the analyzer against independent oracles:
//! under constant unit pricing the critical path must be exactly the
//! levelizer's deepest level on every standard datapath and seeded
//! generated netlist, and reports must be byte-identical across thread
//! counts.

use std::collections::HashSet;

use lowvolt_circuit::faults::standard_targets;
use lowvolt_circuit::netlist::{Netlist, NodeId};
use lowvolt_device::units::Seconds;
use lowvolt_exec::ExecPolicy;
use lowvolt_io::{generate, GeneratorConfig};
use lowvolt_sta::{analyze, analyze_priced, StaConfig};

/// With every gate priced at the same constant delay, the worst path is
/// purely structural: the critical delay collapses to `levels × unit`
/// and the traced chain holds one gate per level. Every endpoint's
/// worst path likewise has one gate per level of its node and starts at
/// a level-0 node. The levelizer is an independent oracle — it never
/// looks at delays.
#[test]
fn constant_pricing_reduces_sta_to_levelization() {
    let mut circuits: Vec<(String, Netlist, Vec<NodeId>)> = standard_targets(8)
        .expect("standard targets build")
        .into_iter()
        .map(|t| (t.name, t.netlist, t.outputs))
        .collect();
    for seed in [1, 42, 7] {
        let c = generate(&GeneratorConfig::new(2000, seed)).expect("generator config is valid");
        circuits.push((c.name, c.netlist, c.outputs));
    }
    for (name, netlist, outputs) in &circuits {
        let report = analyze_priced(
            lowvolt_obs::noop(),
            name,
            netlist,
            outputs,
            StaConfig::nominal(),
            &|_, _| Ok(Seconds(1e-12)),
        )
        .expect("targets are analyzable");
        assert_eq!(
            report.critical_path.len(),
            report.levels,
            "{name}: critical path must visit one gate per level"
        );
        assert!(
            (report.critical.0 - report.levels as f64 * 1e-12).abs() < 1e-24,
            "{name}: critical delay {} != levels {} x 1 ps",
            report.critical.0,
            report.levels
        );
        // Structural depth of the worst endpoint agrees with the chain.
        let worst = report
            .endpoints
            .iter()
            .max_by(|a, b| a.arrival.0.total_cmp(&b.arrival.0))
            .expect("at least one endpoint");
        assert_eq!(worst.depth, report.levels, "{name}");
        let level_zero: HashSet<usize> = report
            .node_slacks
            .iter()
            .filter(|n| n.level == 0)
            .map(|n| n.node)
            .collect();
        for ep in &report.endpoints {
            assert_eq!(
                ep.depth,
                report.node_slacks[ep.node].level,
                "{name}: endpoint {} depth",
                report.node_name(ep.node)
            );
            assert!(
                level_zero.contains(&ep.startpoint),
                "{name}: endpoint {} starts at {}, not a level-0 node",
                report.node_name(ep.node),
                report.node_name(ep.startpoint)
            );
        }
    }
}

/// The analysis ignores its execution policy; the rendered text and JSON
/// must not depend on the worker count it is handed.
#[test]
fn reports_are_byte_identical_across_thread_counts() {
    for target in standard_targets(8).expect("standard targets build") {
        let run = |threads: usize| {
            let report = analyze(
                &ExecPolicy::with_threads(threads),
                lowvolt_obs::noop(),
                &target.name,
                &target.netlist,
                &target.outputs,
                StaConfig::nominal(),
            )
            .expect("standard targets are analyzable");
            (report.to_string(), report.to_json())
        };
        let serial = run(1);
        assert_eq!(serial, run(2), "{}: 2 threads diverged", target.name);
        assert_eq!(serial, run(8), "{}: 8 threads diverged", target.name);
    }
}
