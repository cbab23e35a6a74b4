//! No-panic property harness: the simulators must survive arbitrary —
//! including degenerate and malformed — netlists and stimuli, returning
//! typed [`CircuitError`]s instead of panicking.
//!
//! Shapes covered: random gate soups with feedback and self-loops,
//! zero-node netlists, all-X (undriven) inputs, out-of-range node ids,
//! width-mismatched stimulus, and full stuck-at fault campaigns over
//! random circuits.

use lowvolt_circuit::faults::{run_campaign, stuck_at_universe, CampaignOptions};
use lowvolt_circuit::logic::Bit;
use lowvolt_circuit::netlist::{GateKind, Netlist, NodeId};
use lowvolt_circuit::sim::Simulator;
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_circuit::{Circuit, CircuitError};
use proptest::prelude::*;

const KINDS: [GateKind; 14] = [
    GateKind::Buf,
    GateKind::Not,
    GateKind::And2,
    GateKind::And3,
    GateKind::Or2,
    GateKind::Or3,
    GateKind::Nand2,
    GateKind::Nand3,
    GateKind::Nor2,
    GateKind::Nor3,
    GateKind::Xor2,
    GateKind::Xnor2,
    GateKind::Mux2,
    GateKind::Dff,
];

/// One random-gate instruction, decoded from a raw `u64` tape word
/// (the vendored proptest has no tuple strategies).
struct Op {
    kind: GateKind,
    picks: [usize; 3],
    into_existing: bool,
}

fn decode(word: u64) -> Op {
    Op {
        kind: KINDS[(word & 0xf) as usize % KINDS.len()],
        picks: [
            ((word >> 4) & 0x3f) as usize,
            ((word >> 10) & 0x3f) as usize,
            ((word >> 16) & 0x3f) as usize,
        ],
        into_existing: word & (1 << 22) != 0,
    }
}

/// Builds a random netlist from an opcode tape. Gates wire to arbitrary
/// existing nodes — feedback loops, self-loops (`gate_into` targeting one
/// of its own inputs), and dangling nodes all arise naturally. Build
/// errors are allowed; panics are not.
fn random_netlist(n_inputs: usize, tape: &[u64], allow_feedback: bool) -> Netlist {
    let mut n = Netlist::new();
    for i in 0..n_inputs {
        n.input(format!("in{i}"));
    }
    for &word in tape {
        let op = decode(word);
        let count = n.node_count();
        if count == 0 {
            // Arity >= 1 against an empty netlist: must be a typed error.
            assert!(n.gate(op.kind, &[]).is_err());
            n.node("seed");
            continue;
        }
        let pick = |raw: usize| NodeId::from_index(raw % count);
        let inputs: Vec<NodeId> = op.picks[..op.kind.arity()]
            .iter()
            .map(|&r| pick(r))
            .collect();
        if allow_feedback && op.into_existing {
            // Reuse an existing node as the output: feedback and
            // self-loops. An out-of-range id must be a typed error.
            let _ = n.gate_into(op.kind, &inputs, pick(op.picks[0] + op.picks[1]));
            assert!(n
                .gate_into(op.kind, &inputs, NodeId::from_index(count + 7))
                .is_err());
        } else {
            let _ = n.gate(op.kind, &inputs);
        }
    }
    n
}

proptest! {
    /// Random gate soups (with feedback and self-loops) never panic the
    /// event simulator: settle either converges or reports a typed
    /// oscillation / non-convergence diagnosis.
    #[test]
    fn random_netlists_never_panic(
        n_inputs in 0usize..5,
        tape in proptest::collection::vec(any::<u64>(), 0..30),
        drives in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let n = random_netlist(n_inputs, &tape, true);
        let mut sim = Simulator::new(&n);
        for &word in &drives {
            // May target a non-input or out-of-range node: typed errors ok.
            let id = NodeId::from_index(word as usize % (n.node_count() + 1));
            let _ = sim.set_input(id, Bit::from(word & 1 == 1));
        }
        match sim.settle() {
            Ok(_) => {}
            Err(
                CircuitError::Oscillation { .. }
                | CircuitError::NonConvergent { .. }
                | CircuitError::UnknownNode(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
        // Reading any node — even a foreign id — is always safe.
        for id in n.node_ids() {
            let _ = sim.value(id);
        }
        let _ = sim.value(NodeId::from_index(n.node_count() + 1000));
    }

    /// Activity measurement survives arbitrary width mismatches and
    /// degenerate cycle budgets with typed errors only.
    #[test]
    fn activity_measurement_never_panics(
        n_inputs in 0usize..5,
        tape in proptest::collection::vec(any::<u64>(), 0..20),
        src_width in 0usize..8,
        seed in any::<u64>(),
        cycles in 0usize..40,
        warmup in 0usize..40,
    ) {
        let n = random_netlist(n_inputs, &tape, true);
        let mut sim = Simulator::new(&n);
        let inputs: Vec<NodeId> = n.primary_inputs().to_vec();
        match PatternSource::random(src_width, seed) {
            Ok(mut src) => {
                // Width mismatch, warmup >= cycles, oscillating feedback:
                // all must surface as Err, never panic.
                let _ = sim.measure_activity(&mut src, &inputs, cycles, warmup);
            }
            Err(CircuitError::InvalidStimulus { .. }) => prop_assert_eq!(src_width, 0),
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// An undriven circuit is all-X everywhere; settling and reading it
    /// is well-defined and panic-free.
    #[test]
    fn all_x_inputs_never_panic(
        n_inputs in 1usize..6,
        tape in proptest::collection::vec(any::<u64>(), 0..20),
    ) {
        let n = random_netlist(n_inputs, &tape, true);
        let mut sim = Simulator::new(&n);
        // No set_input at all: every primary input stays X.
        let _ = sim.settle();
        for id in n.node_ids() {
            let _ = sim.value(id);
        }
    }

    /// A full single-stuck-at campaign over a random combinational
    /// circuit classifies every fault in the universe without panicking.
    #[test]
    fn fault_campaigns_classify_everything(
        n_inputs in 1usize..5,
        tape in proptest::collection::vec(any::<u64>(), 1..15),
        seed in any::<u64>(),
    ) {
        // Fresh-output gates only: the campaign golden run must be clean,
        // so keep the target combinational and loop-free.
        let mut n = random_netlist(n_inputs, &tape, false);
        // Skip Dff-bearing tapes: clockless sequential gates legitimately
        // hold X, which is a target property, not a campaign one.
        if n.gates().iter().any(|g| matches!(g.kind, GateKind::Dff)) {
            return Ok(());
        }
        if n.gate_count() == 0 {
            n.node("obs");
        }
        let inputs: Vec<NodeId> = n.primary_inputs().to_vec();
        let outputs: Vec<NodeId> = n.node_ids().collect();
        let faults = stuck_at_universe(&n);
        let universe = faults.len();
        let target = Circuit {
            name: "random".to_string(),
            netlist: n,
            inputs: inputs.clone(),
            outputs,
            clock: None,
        };
        let mut src = PatternSource::random(inputs.len(), seed).expect("non-zero width");
        match run_campaign(&target, &faults, &mut src, 6, CampaignOptions::default()) {
            Ok(res) => {
                let report = res.report().expect("an unjournaled run resolves every fault");
                prop_assert_eq!(report.faults(), universe);
                // A panicking injection would be isolated as `errored`,
                // which this sum leaves out.
                prop_assert_eq!(
                    report.detected()
                        + report.corrupted()
                        + report.propagated_as_x()
                        + report.masked(),
                    universe,
                    "every fault must be classified",
                );
            }
            // A golden run may legitimately fail to settle on adversarial
            // topologies; that is a typed diagnosis, not a panic.
            Err(CircuitError::Oscillation { .. } | CircuitError::NonConvergent { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }
}

/// The empty netlist is a legal, if vacuous, simulation subject.
#[test]
fn zero_node_netlist_is_fine() {
    let n = Netlist::new();
    let mut sim = Simulator::new(&n);
    let stats = sim.settle().expect("empty circuit settles trivially");
    assert_eq!(stats.events, 0);
    assert!(matches!(
        PatternSource::random(0, 1),
        Err(CircuitError::InvalidStimulus { .. })
    ));
}
