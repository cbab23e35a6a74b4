//! Generator soundness properties: for any seed and any knob setting in
//! range, the generated circuit passes structural DRC (LV001–LV004
//! clean), levelizes in the compiled bit-parallel engine, and is
//! byte-deterministic — the same config writes the identical BLIF.

use lowvolt_circuit::compiled::CompiledNetlist;
use lowvolt_circuit::faults::standard_targets;
use lowvolt_circuit::netlist::{GateKind, Netlist};
use lowvolt_io::{generate, write_blif, GeneratorConfig};
use lowvolt_lint::passes::structural;
use lowvolt_lint::target::LintTarget;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Structural DRC is clean and the compiled engine levelizes the
    /// netlist for arbitrary seeds and knob settings.
    #[test]
    fn generated_netlists_are_drc_clean_and_levelizable(
        seed in any::<u64>(),
        gates in 1usize..400,
        inputs in 1usize..40,
        dff_tenths in 0u32..5,
        window in 1usize..100,
    ) {
        let cfg = GeneratorConfig {
            gates,
            seed,
            inputs,
            dff_fraction: f64::from(dff_tenths) / 10.0,
            window,
        };
        let t = LintTarget::new(generate(&cfg).expect("valid config generates"));
        let diags = structural::run(&t);
        prop_assert!(
            diags.is_empty(),
            "structural DRC found {} issue(s), first: {}",
            diags.len(),
            diags[0]
        );
        let compiled = CompiledNetlist::compile(&t.circuit.netlist);
        prop_assert!(compiled.is_ok(), "levelization failed: {:?}", compiled.err());
    }

    /// The same config is byte-identical; a different seed is not
    /// (overwhelmingly — at ≥ 50 gates two seeds colliding would mean
    /// the PRNG stream repeated).
    #[test]
    fn generation_is_byte_deterministic(seed in any::<u64>(), gates in 50usize..300) {
        let cfg = GeneratorConfig::new(gates, seed);
        let a = write_blif(&generate(&cfg).expect("generates")).expect("writable");
        let b = write_blif(&generate(&cfg).expect("generates")).expect("writable");
        prop_assert_eq!(&a, &b);
        let other = GeneratorConfig::new(gates, seed.wrapping_add(1));
        let c = write_blif(&generate(&other).expect("generates")).expect("writable");
        prop_assert_ne!(a, c);
    }
}

/// The scale the tentpole promises: a 10⁴-gate netlist generates, lints
/// clean, and levelizes — fast enough to live in the default test run.
#[test]
fn ten_thousand_gates_generate_and_levelize() {
    let mut cfg = GeneratorConfig::new(10_000, 42);
    cfg.dff_fraction = 0.05;
    let t = LintTarget::new(generate(&cfg).expect("generates"));
    assert_eq!(t.circuit.netlist.gate_count(), 10_000);
    assert!(structural::run(&t).is_empty());
    let compiled = CompiledNetlist::compile(&t.circuit.netlist).expect("levelizes");
    assert_eq!(compiled.gate_count() + compiled.dff_count(), 10_000);
}

/// The levelizer's contract, checked against the source netlist:
/// compiled positions strictly ascend by (level, gate id), every gate
/// sits one level above its deepest input and gives its output that
/// level, a node's fanout counts the combinational input pins on it, and
/// every gate is either compiled or a cut flip-flop.
fn assert_levelization_contract(netlist: &Netlist) {
    let comp = CompiledNetlist::compile(netlist).expect("levelizes");
    assert_eq!(comp.gate_count() + comp.dff_count(), netlist.gate_count());
    let key = |p: usize| (comp.gate_level(p), comp.gate_source(p));
    for p in 1..comp.gate_count() {
        assert!(key(p - 1) < key(p), "position {p}");
    }
    for p in 0..comp.gate_count() {
        let arity = comp.gate_kind(p).arity();
        let deepest = comp.gate_inputs(p)[..arity]
            .iter()
            .map(|&n| comp.node_level(n))
            .max()
            .unwrap_or(0);
        assert_eq!(comp.gate_level(p), 1 + deepest, "position {p}");
        assert_eq!(comp.node_level(comp.gate_output(p)), comp.gate_level(p));
    }
    let mut pins = vec![0usize; netlist.node_count()];
    for g in netlist.gates().iter().filter(|g| g.kind != GateKind::Dff) {
        for n in g.inputs() {
            pins[n.index()] += 1;
        }
    }
    for (n, &count) in pins.iter().enumerate() {
        assert_eq!(comp.node_fanout(n), count, "node {n}");
    }
}

#[test]
fn levelization_contract_holds_on_generated_and_standard_netlists() {
    for seed in [1, 7, 42, 2024] {
        for dff_fraction in [0.0, 0.15] {
            let mut cfg = GeneratorConfig::new(2_000, seed);
            cfg.dff_fraction = dff_fraction;
            assert_levelization_contract(&generate(&cfg).expect("generates").netlist);
        }
    }
    for target in standard_targets(8).expect("builds") {
        assert_levelization_contract(&target.netlist);
    }
}

/// The node names a BLIF parse creates, in creation order: every signal
/// at its first textual reference (`.latch d q re clk` references `d`,
/// then `clk`, then `q`). An oracle for the name arena that reads the
/// text, not the netlist.
fn names_in_reference_order(blif: &str) -> Vec<&str> {
    let mut seen = std::collections::HashSet::new();
    let mut order = Vec::new();
    for line in blif.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let signals = match tokens.as_slice() {
            [".inputs" | ".outputs" | ".names", rest @ ..] => rest.to_vec(),
            [".latch", d, q, _, clk, ..] => vec![*d, *clk, *q],
            _ => Vec::new(),
        };
        for s in signals {
            if seen.insert(s) {
                order.push(s);
            }
        }
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every node of a parsed netlist, and of its clone, resolves to the
    /// name the BLIF text gave it; a foreign id resolves to "".
    #[test]
    fn parsed_node_names_match_the_written_text(seed in any::<u64>(), gates in 1usize..600) {
        let c = generate(&GeneratorConfig::new(gates, seed)).expect("valid config generates");
        let text = write_blif(&c).expect("generated names are writable");
        let parsed = lowvolt_io::parse_str(lowvolt_io::Format::Blif, "t", &text)
            .expect("written BLIF parses");
        let copy = parsed.clone();
        let want = names_in_reference_order(&text);
        for netlist in [&parsed.netlist, &copy.netlist] {
            prop_assert_eq!(netlist.node_count(), want.len());
            for (id, name) in netlist.node_ids().zip(&want) {
                prop_assert_eq!(netlist.node_name(id), *name);
            }
            let foreign = lowvolt_circuit::netlist::NodeId::from_index(want.len());
            prop_assert_eq!(netlist.node_name(foreign), "");
        }
        prop_assert!(copy == parsed);
        // The generator's own arena holds the same names.
        let mut generated: Vec<&str> = c.netlist.node_ids().map(|id| c.netlist.node_name(id)).collect();
        let mut parsed_names = want.clone();
        generated.sort_unstable();
        parsed_names.sort_unstable();
        prop_assert_eq!(generated, parsed_names);
    }
}
