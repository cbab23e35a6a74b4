//! Golden-fixture round trips: parse → write → parse must reproduce the
//! identical `Netlist` — same node ids, same gates, same structural
//! hash — not merely an equivalent one, because both parsers create
//! nodes at first textual reference and the writer emits references in
//! exactly that order.

use std::path::Path;

use lowvolt_circuit::netlist::{Circuit, GateKind};
use lowvolt_io::{
    circuits_equivalent, generate, parse_path, parse_str, write_blif, Format, GeneratorConfig,
};

fn fixture(name: &str) -> Circuit {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    parse_path(&path).unwrap_or_else(|e| panic!("fixture {name} parses: {e}"))
}

/// Round trip plus identity checks shared by both fixtures.
fn assert_roundtrip_identity(original: &Circuit) {
    let written = write_blif(original).expect("writable");
    let again = parse_str(Format::Blif, &original.name, &written).expect("re-parses");
    circuits_equivalent(original, &again).expect("round trip is structurally equivalent");
    // Stronger: the same nodes in the same order (ids preserved), so the
    // structural hash — which folds ids, kinds, and wiring — matches.
    assert_eq!(
        original.netlist.structural_hash(),
        again.netlist.structural_hash(),
        "round trip must preserve node ids, not just structure"
    );
    for id in original.netlist.node_ids() {
        assert_eq!(
            original.netlist.node_name(id),
            again.netlist.node_name(id),
            "node {id:?} renamed by the round trip"
        );
    }
    // And the writer is a fixpoint: writing the re-parse is byte-equal.
    assert_eq!(written, write_blif(&again).expect("writable"));
}

#[test]
fn c17_parses_to_the_known_structure() {
    let c17 = fixture("c17.bench");
    assert_eq!(c17.name, "c17");
    assert_eq!(c17.inputs.len(), 5);
    assert_eq!(c17.outputs.len(), 2);
    assert_eq!(c17.netlist.gate_count(), 6);
    assert!(c17.clock.is_none());
    assert!(
        c17.netlist
            .gates()
            .iter()
            .all(|g| g.kind == GateKind::Nand2),
        "c17 is a pure NAND2 network"
    );
    let outs: Vec<&str> = c17
        .outputs
        .iter()
        .map(|&o| c17.netlist.node_name(o))
        .collect();
    assert_eq!(outs, ["22", "23"]);
}

#[test]
fn c17_roundtrips_exactly() {
    assert_roundtrip_identity(&fixture("c17.bench"));
}

#[test]
fn latch2_parses_to_the_known_structure() {
    let c = fixture("latch2.blif");
    assert_eq!(c.name, "latch2");
    let kinds: Vec<GateKind> = c.netlist.gates().iter().map(|g| g.kind).collect();
    assert_eq!(kinds, [GateKind::And2, GateKind::Dff]);
    assert_eq!(c.inputs.len(), 2, "clk is the clock, not a stimulus input");
    let clk = c.clock.expect("latch fixture is sequential");
    assert_eq!(c.netlist.node_name(clk), "clk");
    assert!(c.netlist.is_primary_input(clk));
}

#[test]
fn latch2_roundtrips_exactly() {
    assert_roundtrip_identity(&fixture("latch2.blif"));
}

/// The `sta-import` benchmark's scale: a 20k-gate generated netlist
/// survives write → parse structurally intact (the generator numbers
/// nodes in its own order, so ids may differ), and writing the parse
/// gives the same text back.
#[test]
fn generated_20k_gates_roundtrip() {
    for seed in [1, 42] {
        let c = generate(&GeneratorConfig::new(20_000, seed)).expect("generates");
        let written = write_blif(&c).expect("writable");
        let parsed = parse_str(Format::Blif, &c.name, &written).expect("parses");
        circuits_equivalent(&c, &parsed).expect("round trip is structurally equivalent");
        assert_eq!(written, write_blif(&parsed).expect("writable"));
    }
}

#[test]
fn format_detection_matches_fixture_extensions() {
    assert_eq!(
        Format::from_path(Path::new("x/c17.bench")),
        Some(Format::Bench)
    );
    assert_eq!(
        Format::from_path(Path::new("x/latch2.blif")),
        Some(Format::Blif)
    );
    assert_eq!(Format::from_path(Path::new("x/netlist.v")), None);
}
