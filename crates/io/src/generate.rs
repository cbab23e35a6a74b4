//! Seeded deterministic random-netlist generation.
//!
//! The generator grows a gate-level netlist one gate at a time, always
//! wiring new gates to already-existing nodes — so the result is
//! acyclic and single-driver *by construction* — while tracking which
//! nodes are combinationally downstream of a flip-flop output
//! ("tainted"): flip-flop data inputs only ever pick untainted nodes,
//! so there is no register-to-register feedback and the compiled
//! bit-parallel engine accepts every generated circuit. The clock is a
//! dedicated primary input kept out of the data network and the
//! stimulus input list, and every sink gate output is declared a
//! primary output, so structural DRC (LV001–LV004) passes clean.
//!
//! Randomness comes from an in-crate SplitMix64 stream seeded by
//! [`GeneratorConfig::seed`]: no platform, thread-count, or library
//! dependence, so the same config is byte-identical (as written BLIF)
//! forever.

use std::fmt::Write as _;

use lowvolt_circuit::netlist::{Circuit, GateKind, Netlist, NodeId};

use crate::IoError;

/// SplitMix64: tiny, seedable, and stable across platforms — exactly
/// what eternal byte-determinism needs (the vendored `rand` is a stub).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish index in `0..n` (modulo bias is irrelevant at the
    /// pool sizes involved, and bias-free rejection would make the
    /// stream consumption input-dependent).
    fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        usize::try_from(self.next() % n.max(1) as u64).unwrap_or(0)
    }

    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

/// Weighted combinational gate-kind distribution, loosely shaped like
/// synthesized standard-cell netlists: NAND/NOR-heavy, occasional wide
/// gates, muxes, and inverter/buffer sprinkles.
const KIND_WEIGHTS: [(GateKind, u64); 13] = [
    (GateKind::Nand2, 20),
    (GateKind::Nor2, 14),
    (GateKind::And2, 10),
    (GateKind::Or2, 10),
    (GateKind::Not, 12),
    (GateKind::Xor2, 6),
    (GateKind::Xnor2, 4),
    (GateKind::Nand3, 6),
    (GateKind::Nor3, 4),
    (GateKind::And3, 4),
    (GateKind::Or3, 4),
    (GateKind::Mux2, 4),
    (GateKind::Buf, 2),
];

/// Knobs for [`generate`]. Construct with [`GeneratorConfig::new`] and
/// adjust fields; `Default` is a 1000-gate, 16-input, 10%-flip-flop
/// circuit at seed 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Total gates (flip-flops included). 1 ..= 2_000_000.
    pub gates: usize,
    /// PRNG seed; same config + seed ⇒ byte-identical netlist.
    pub seed: u64,
    /// Stimulus-driven primary inputs (the clock is extra). 1 ..= 4096.
    pub inputs: usize,
    /// Fraction of gates that are flip-flops, 0.0 ..= 0.5. Zero makes
    /// the circuit purely combinational (no clock input is created).
    pub dff_fraction: f64,
    /// Locality window: gate fanins prefer the most recent `window`
    /// nodes with probability 3/4, reaching anywhere otherwise. Shapes
    /// the depth/fanout profile; must be ≥ 1.
    pub window: usize,
}

impl GeneratorConfig {
    /// A config with the default input count, flip-flop fraction, and
    /// locality window.
    #[must_use]
    pub fn new(gates: usize, seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            gates,
            seed,
            ..GeneratorConfig::default()
        }
    }

    fn validate(&self) -> Result<(), IoError> {
        let bad = |field: &'static str, constraint: &'static str| {
            Err(IoError::InvalidConfig { field, constraint })
        };
        if self.gates == 0 || self.gates > 2_000_000 {
            return bad("gates", "must be in 1..=2000000");
        }
        if self.inputs == 0 || self.inputs > 4096 {
            return bad("inputs", "must be in 1..=4096");
        }
        if !(0.0..=0.5).contains(&self.dff_fraction) {
            return bad("dff_fraction", "must be in 0.0..=0.5");
        }
        if self.window == 0 {
            return bad("window", "must be >= 1");
        }
        Ok(())
    }
}

impl Default for GeneratorConfig {
    fn default() -> GeneratorConfig {
        GeneratorConfig {
            gates: 1000,
            seed: 0,
            inputs: 16,
            dff_fraction: 0.1,
            window: 64,
        }
    }
}

/// Generates a random circuit named `gen{gates}_s{seed}`.
///
/// Guarantees, for every valid config:
///
/// - acyclic (with flip-flop edges cut) and single-driver by
///   construction — new gates only consume already-created nodes;
/// - no dangling nets: every gate output nothing consumes is declared a
///   primary output (there is always at least one — the last gate's);
/// - the clock (present iff `dff_fraction > 0`) is a primary input used
///   only by flip-flop clock pins and excluded from the stimulus input
///   list;
/// - no register-to-register feedback: flip-flop data inputs are drawn
///   only from nodes with no flip-flop output upstream, so the compiled
///   engine's levelization and state-feedback checks both pass;
/// - byte-determinism: the same config writes the identical BLIF.
///
/// # Errors
///
/// [`IoError::InvalidConfig`] when a knob is out of range.
pub fn generate(config: &GeneratorConfig) -> Result<Circuit, IoError> {
    config.validate()?;
    let mut rng = SplitMix64(config.seed);
    // One node per gate and input plus the clock; names like `n12345`.
    let nodes = config.gates + config.inputs + 1;
    let mut netlist = Netlist::with_capacity(nodes, nodes * 8, config.gates);
    let mut name = String::new();

    // truncation-safe: gates ≤ 2e6 and dff_fraction ≤ 0.5.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let dff_total = (config.dff_fraction * config.gates as f64).round() as usize;
    // A flip-flop at gate slot i iff the even-spread quota steps there.
    let dff_here = |i: usize| (i + 1) * dff_total / config.gates > i * dff_total / config.gates;

    let clock = (dff_total > 0).then(|| netlist.input("clk"));
    let inputs: Vec<NodeId> = (0..config.inputs)
        .map(|i| netlist.input(format!("in{i}")))
        .collect();

    // The data network: every node a combinational gate may consume.
    // `untainted` is the subset with no flip-flop output upstream.
    let mut pool: Vec<NodeId> = inputs.clone();
    let mut untainted: Vec<NodeId> = inputs.clone();
    let mut tainted = vec![false; netlist.node_count()];
    let mut consumed = vec![false; netlist.node_count()];

    let weight_total: u64 = KIND_WEIGHTS.iter().map(|&(_, w)| w).sum();

    for i in 0..config.gates {
        if dff_here(i) {
            let d = untainted[rng.below(untainted.len())];
            let q = netlist.node(numbered(&mut name, 'q', i));
            let clk = clock.unwrap_or(d);
            netlist
                .gate_into(GateKind::Dff, &[clk, d], q)
                .map_err(|e| IoError::Unwritable {
                    reason: format!("generator built an invalid flip-flop: {e}"),
                })?;
            consumed.resize(netlist.node_count(), false);
            consumed[d.index()] = true;
            tainted.resize(netlist.node_count(), false);
            tainted[q.index()] = true;
            pool.push(q);
            continue;
        }

        let mut pick = rng.next() % weight_total;
        let mut kind = GateKind::Nand2;
        for &(k, w) in &KIND_WEIGHTS {
            if pick < w {
                kind = k;
                break;
            }
            pick -= w;
        }
        let mut pins = [NodeId::from_index(0); 3];
        for f in &mut pins[..kind.arity()] {
            *f = if pool.len() > config.window && rng.chance(3, 4) {
                pool[pool.len() - config.window + rng.below(config.window)]
            } else {
                pool[rng.below(pool.len())]
            };
        }
        let fanins = &pins[..kind.arity()];
        let out = netlist.node(numbered(&mut name, 'n', i));
        netlist
            .gate_into(kind, fanins, out)
            .map_err(|e| IoError::Unwritable {
                reason: format!("generator built an invalid gate: {e}"),
            })?;
        consumed.resize(netlist.node_count(), false);
        tainted.resize(netlist.node_count(), false);
        let mut any_tainted = false;
        for &f in fanins {
            consumed[f.index()] = true;
            any_tainted |= tainted[f.index()];
        }
        tainted[out.index()] = any_tainted;
        if !any_tainted {
            untainted.push(out);
        }
        pool.push(out);
    }

    // Every unconsumed gate output becomes a primary output (id order,
    // which is creation order). The final gate's output is always here.
    let outputs: Vec<NodeId> = netlist
        .gates()
        .iter()
        .map(|g| g.output)
        .filter(|&o| !consumed[o.index()])
        .collect();

    Ok(Circuit {
        name: format!("gen{}_s{}", config.gates, config.seed),
        netlist,
        inputs,
        outputs,
        clock,
    })
}

/// `name` set to `{prefix}{i}`, reusing its buffer.
fn numbered(name: &mut String, prefix: char, i: usize) -> &str {
    name.clear();
    name.push(prefix);
    // Writing to a `String` cannot fail.
    let _ = write!(name, "{i}");
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_blif;

    #[test]
    fn default_config_generates() {
        let c = generate(&GeneratorConfig::new(200, 7)).unwrap();
        assert_eq!(c.netlist.gate_count(), 200);
        assert_eq!(c.name, "gen200_s7");
        assert!(!c.outputs.is_empty());
        assert!(c.clock.is_some(), "10% dff fraction ⇒ sequential");
    }

    #[test]
    fn zero_dff_fraction_is_combinational() {
        let mut cfg = GeneratorConfig::new(100, 1);
        cfg.dff_fraction = 0.0;
        let c = generate(&cfg).unwrap();
        assert!(c.clock.is_none());
        assert!(c.netlist.gates().iter().all(|g| g.kind != GateKind::Dff));
    }

    #[test]
    fn same_seed_same_bytes() {
        let cfg = GeneratorConfig::new(500, 42);
        let a = write_blif(&generate(&cfg).unwrap()).unwrap();
        let b = write_blif(&generate(&cfg).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = write_blif(&generate(&GeneratorConfig::new(500, 1)).unwrap()).unwrap();
        let b = write_blif(&generate(&GeneratorConfig::new(500, 2)).unwrap()).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn dff_quota_is_exact() {
        let mut cfg = GeneratorConfig::new(1000, 3);
        cfg.dff_fraction = 0.25;
        let c = generate(&cfg).unwrap();
        let dffs = c
            .netlist
            .gates()
            .iter()
            .filter(|g| g.kind == GateKind::Dff)
            .count();
        assert_eq!(dffs, 250);
    }

    #[test]
    fn no_register_to_register_feedback() {
        let mut cfg = GeneratorConfig::new(2000, 9);
        cfg.dff_fraction = 0.3;
        let c = generate(&cfg).unwrap();
        // Recompute taint independently and check every DFF d input.
        let n = &c.netlist;
        let mut tainted = vec![false; n.node_count()];
        for g in n.gates() {
            if g.kind == GateKind::Dff {
                assert!(
                    !g.inputs()[1..].iter().any(|&d| tainted[d.index()]),
                    "DFF data input is downstream of a register"
                );
                tainted[g.output.index()] = true;
            } else if g.inputs().iter().any(|&i| tainted[i.index()]) {
                tainted[g.output.index()] = true;
            }
        }
    }

    #[test]
    fn clock_stays_out_of_data_network() {
        let mut cfg = GeneratorConfig::new(1000, 11);
        cfg.dff_fraction = 0.2;
        let c = generate(&cfg).unwrap();
        let clk = c.clock.unwrap();
        for g in c.netlist.gates() {
            if g.kind == GateKind::Dff {
                assert_eq!(g.inputs()[0], clk);
                assert_ne!(g.inputs()[1], clk);
            } else {
                assert!(!g.inputs().contains(&clk));
            }
        }
        assert!(!c.inputs.contains(&clk));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(generate(&GeneratorConfig::new(0, 0)).is_err());
        let mut cfg = GeneratorConfig::new(10, 0);
        cfg.dff_fraction = 0.9;
        assert!(generate(&cfg).is_err());
        let mut cfg = GeneratorConfig::new(10, 0);
        cfg.inputs = 0;
        assert!(generate(&cfg).is_err());
    }
}
