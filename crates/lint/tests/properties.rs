//! Lint soundness property: any randomly built netlist that passes the
//! structural DRC error-free also simulates cleanly — the event
//! simulator settles without tripping its oscillation or budget
//! watchdogs on random stimulus. In other words, structural lint
//! over-approximates the runtime failure modes it claims to predict.

use lowvolt_circuit::logic::Bit;
use lowvolt_circuit::netlist::{GateKind, Netlist, NodeId};
use lowvolt_circuit::sim::Simulator;
use lowvolt_circuit::Circuit;
use lowvolt_lint::passes::structural;
use lowvolt_lint::{LintTarget, Severity};
use proptest::prelude::*;

/// Deterministic xorshift64* generator so the netlist shape is a pure
/// function of the proptest-supplied seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

const COMBINATIONAL: [GateKind; 10] = [
    GateKind::Buf,
    GateKind::Not,
    GateKind::And2,
    GateKind::Or2,
    GateKind::Nand2,
    GateKind::Nor2,
    GateKind::Xor2,
    GateKind::Xnor2,
    GateKind::Mux2,
    GateKind::And3,
];

/// How the forward-declared node (if any) is closed, exercising each
/// structural verdict: a combinational back-edge (must be flagged), a
/// flip-flop closure (legal), or left floating (must be flagged when
/// used).
#[derive(Clone, Copy)]
enum Closure {
    None,
    CombinationalBackEdge,
    FlipFlop,
    LeftFloating,
}

fn build_random(seed: u64, n_inputs: usize, n_gates: usize, closure: Closure) -> LintTarget {
    let mut rng = Rng(seed);
    let mut n = Netlist::new();
    let inputs: Vec<NodeId> = (0..n_inputs).map(|i| n.input(format!("in{i}"))).collect();
    let clk = n.input("clk");

    let fwd = match closure {
        Closure::None => None,
        _ => Some(n.node("fwd")),
    };

    // Candidate fan-in pool grows as gates are added: a DAG by
    // construction, except for any edge through `fwd`.
    let mut pool: Vec<NodeId> = inputs.clone();
    if let Some(f) = fwd {
        pool.push(f);
    }
    let mut last = inputs[0];
    for _ in 0..n_gates {
        let kind = COMBINATIONAL[rng.below(COMBINATIONAL.len())];
        let fanin: Vec<NodeId> = (0..kind.arity())
            .map(|_| pool[rng.below(pool.len())])
            .collect();
        if let Ok(out) = n.gate(kind, &fanin) {
            pool.push(out);
            last = out;
        }
    }

    match (closure, fwd) {
        (Closure::CombinationalBackEdge, Some(f)) => {
            // Close the forward node from the last gate output: if any
            // consumer of `fwd` feeds `last`, this is a genuine loop.
            let _ = n.gate_into(GateKind::Buf, &[last], f);
        }
        (Closure::FlipFlop, Some(f)) => {
            let _ = n.gate_into(GateKind::Dff, &[clk, last], f);
        }
        _ => {}
    }

    LintTarget::new(Circuit {
        name: format!("random{seed:x}"),
        netlist: n,
        inputs,
        outputs: vec![last],
        clock: Some(clk),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn structural_drc_pass_implies_clean_simulation(
        seed in any::<u64>(),
        n_inputs in 2usize..5,
        n_gates in 1usize..48,
        mode in 0usize..4,
        stim in any::<u64>(),
    ) {
        let closure = [
            Closure::None,
            Closure::CombinationalBackEdge,
            Closure::FlipFlop,
            Closure::LeftFloating,
        ][mode];
        let target = build_random(seed, n_inputs, n_gates, closure);

        let findings = structural::run(&target);
        let structurally_sound = findings
            .iter()
            .all(|d| d.severity != Severity::Error);
        if !structurally_sound {
            // Nothing to prove: lint rejected it. (The interesting
            // direction — accepted implies simulable — is below.)
            return Ok(());
        }

        let mut sim = Simulator::new(&target.circuit.netlist);
        let mut bits = stim;
        for &input in &target.circuit.inputs {
            sim.set_input(input, Bit::from(bits & 1 == 1)).expect("input");
            bits >>= 1;
        }
        if let Some(clk) = target.circuit.clock {
            sim.set_input(clk, Bit::Zero).expect("clock");
        }
        // A structurally sound netlist must settle: no oscillation, no
        // exhausted budget. (Floating nets may read X; that is the
        // X-reachability pass's business, not a settling failure.)
        prop_assert!(sim.settle().is_ok(), "accepted netlist failed to settle");
        // And a clock edge on the sequential closure must also settle.
        if let Some(clk) = target.circuit.clock {
            sim.set_input(clk, Bit::One).expect("clock");
            prop_assert!(sim.settle().is_ok(), "clock edge failed to settle");
        }
    }

    #[test]
    fn combinational_back_edges_never_go_unflagged(
        seed in any::<u64>(),
        n_gates in 1usize..32,
    ) {
        // Force a guaranteed cycle: fwd -> buf -> ... -> fwd. When the
        // first gate consumes fwd and the closure buffers the last
        // output back, a cycle exists iff fwd reaches last; make that
        // certain by chaining every gate off the previous output.
        let mut n = Netlist::new();
        let _a = n.input("a");
        let fwd = n.node("fwd");
        let mut last = fwd;
        for _ in 0..n_gates {
            last = n.gate(GateKind::Not, &[last]).expect("chain gate");
        }
        let _ = n.gate_into(GateKind::Buf, &[last], fwd).expect("close loop");
        let target = LintTarget::new(Circuit {
            name: format!("forced-loop{seed:x}"),
            netlist: n,
            inputs: vec![],
            outputs: vec![last],
            clock: None,
        });
        let findings = structural::run(&target);
        prop_assert!(
            findings
                .iter()
                .any(|d| d.rule == lowvolt_lint::Rule::CombinationalLoop),
            "a certain cycle of {} gates was not flagged",
            n_gates + 1
        );
    }
}
