//! Compiled bit-parallel (parallel-pattern) simulation backend.
//!
//! The event-driven [`Simulator`](crate::sim::Simulator) pays a queue
//! push/pop per gate evaluation and re-settles the whole netlist once per
//! (fault, vector) pair. This module trades that generality for
//! throughput the classic EDA way: a **levelization pass** over the
//! netlist's CSR fanout index cuts `Dff` edges (exactly as the lint
//! engine's Tarjan pass does), topologically orders the combinational
//! core into per-level struct-of-arrays gate tables, and a **two-plane
//! bitwise evaluator** (`val`/`known` u64 planes, so X propagates soundly
//! through Kleene logic) settles 64 stimulus vectors per machine word per
//! gate — no event queue, no per-vector allocation.
//!
//! On an acyclic combinational core the event simulator's settled state
//! is the unique fixpoint of the gate functions, which is exactly what
//! levelized evaluation computes, so packed results are **bit-identical**
//! to the event engine — including X propagation, because every plane
//! operation implements the same three-valued algebra as
//! [`GateKind::evaluate`].
//!
//! On top of the evaluator,
//! [`run_campaign`](crate::faults::run_campaign) on
//! [`Engine::Compiled`](crate::faults::Engine::Compiled) computes the
//! golden planes once per 64-vector word and, per fault, re-evaluates
//! only levels at or after the injection point and only gates whose
//! output can reach what the pass is read for, early-exiting the
//! moment the difference frontier against the golden planes goes
//! all-zero (concurrent-fault-style dropout) and, on the pass that is
//! classified, at the first definite difference at an observed output
//! (fault dropping on detection). The event engine remains required
//! for combinational cycles, bridge-fault drive fights, gated or derived
//! flip-flop clocks, register-to-register feedback, and
//! oscillation/timing diagnosis — a levelized evaluator cannot
//! oscillate, so such netlists are refused with
//! [`CircuitError::Unlevelizable`] rather than silently mis-simulated.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::activity::{ActivityReport, NodeActivity};
use crate::error::CircuitError;
use crate::faults::{CampaignEngine, FaultOutcome, GateFault};
use crate::logic::Bit;
use crate::netlist::{Circuit, GateKind, Netlist, NodeId};
use crate::stimulus::PatternSource;
use lowvolt_exec::{CancelToken, ExecError, ItemStatus};
use lowvolt_obs::{names, span, Recorder};

/// One node's 64 packed lanes: `(val, known)`. Encoding is canonical
/// Kleene: `One` = `(1, 1)`, `Zero` = `(0, 1)`, `X` = `(0, 0)`; a set
/// `val` bit implies a set `known` bit, and every plane operation below
/// preserves that invariant.
type P = (u64, u64);

const ONES: u64 = !0u64;

/// Word-local classification bytes stored in checkpoint-journal records.
const CLASS_MASKED: u8 = 0;
const CLASS_X: u8 = 1;
const CLASS_CORRUPTED: u8 = 2;
const CLASS_BAD_INPUT_INDEX: u8 = 3;
const CLASS_UNKNOWN_NODE: u8 = 4;

#[inline]
fn bit_planes(bit: Bit) -> P {
    match bit {
        Bit::Zero => (0, ONES),
        Bit::One => (ONES, ONES),
        Bit::X => (0, 0),
    }
}

#[inline]
fn lane_bit(p: P, lane: usize) -> Bit {
    if (p.1 >> lane) & 1 == 0 {
        Bit::X
    } else if (p.0 >> lane) & 1 == 1 {
        Bit::One
    } else {
        Bit::Zero
    }
}

#[inline]
fn p_not(a: P) -> P {
    (!a.0 & a.1, a.1)
}

#[inline]
fn p_and(a: P, b: P) -> P {
    // Known when both known, or either side is a known Zero (Zero
    // dominates, as in `Bit::and`).
    (a.0 & b.0, (a.1 & b.1) | (a.1 & !a.0) | (b.1 & !b.0))
}

#[inline]
fn p_or(a: P, b: P) -> P {
    // Known when both known, or either side is a known One.
    (a.0 | b.0, (a.1 & b.1) | a.0 | b.0)
}

#[inline]
fn p_xor(a: P, b: P) -> P {
    let k = a.1 & b.1;
    ((a.0 ^ b.0) & k, k)
}

#[inline]
fn p_mux(s: P, a: P, b: P) -> P {
    let sel0 = s.1 & !s.0;
    let sel1 = s.0;
    let xsel = !s.1;
    // With an X select the output is the data value only where both data
    // inputs are known and agree — `GateKind::evaluate`'s rule.
    let agree = a.1 & b.1 & !(a.0 ^ b.0);
    (
        (sel0 & a.0) | (sel1 & b.0) | (xsel & agree & a.0),
        (sel0 & a.1) | (sel1 & b.1) | (xsel & agree),
    )
}

/// The packed counterpart of [`GateKind::evaluate`], 64 lanes at a time.
#[inline]
fn eval_kind(kind: GateKind, a: P, b: P, c: P) -> P {
    match kind {
        GateKind::Buf => a,
        GateKind::Not => p_not(a),
        GateKind::And2 => p_and(a, b),
        GateKind::And3 => p_and(p_and(a, b), c),
        GateKind::Or2 => p_or(a, b),
        GateKind::Or3 => p_or(p_or(a, b), c),
        GateKind::Nand2 => p_not(p_and(a, b)),
        GateKind::Nand3 => p_not(p_and(p_and(a, b), c)),
        GateKind::Nor2 => p_not(p_or(a, b)),
        GateKind::Nor3 => p_not(p_or(p_or(a, b), c)),
        GateKind::Xor2 => p_xor(a, b),
        GateKind::Xnor2 => p_not(p_xor(a, b)),
        GateKind::Mux2 => p_mux(a, b, c),
        // Flip-flop outputs are level-0 state, never combinationally
        // evaluated; `GateKind::evaluate` returns X for Dff too.
        GateKind::Dff => (0, 0),
    }
}

/// Per-node `(val, known)` bit planes for one 64-vector word,
/// interleaved so a node's two planes share a cache line.
#[derive(Clone, Debug, PartialEq)]
struct Planes(Vec<P>);

impl Planes {
    fn new(nodes: usize) -> Planes {
        Planes(vec![(0, 0); nodes])
    }

    #[inline]
    fn get(&self, node: usize) -> P {
        self.0[node]
    }

    /// Planes for a possibly-foreign node id — X, matching
    /// [`Simulator::value`](crate::sim::Simulator::value)'s behaviour.
    #[inline]
    fn get_or_x(&self, node: usize) -> P {
        self.0.get(node).copied().unwrap_or((0, 0))
    }

    #[inline]
    fn set(&mut self, node: usize, p: P) {
        self.0[node] = p;
    }
}

/// One flip-flop with its `Dff` edge cut: the clock and data inputs it
/// samples and the state output it drives at level 0.
#[derive(Debug, Clone, Copy)]
struct CompiledDff {
    clk: u32,
    d: u32,
    q: u32,
}

/// Accumulates every structure the compiled engine cannot model, so a
/// refusal names all of them in one error instead of stopping at the
/// first. Each finding carries its historical static category string
/// plus a named detail; a single finding keeps the historical
/// [`CircuitError::Unlevelizable`] shape (exact static reason, the
/// contract differential tests match on), while several findings become
/// [`CircuitError::UnlevelizableMany`] with one named entry each. The
/// static timing analyzer reuses this collector through
/// [`CompiledNetlist::compile`] for its cycle refusal.
#[derive(Debug, Default)]
struct IssueCollector {
    /// `(historical static reason, named detail)` per finding.
    issues: Vec<(&'static str, String)>,
}

impl IssueCollector {
    fn push(&mut self, category: &'static str, detail: String) {
        self.issues.push((category, detail));
    }

    /// The refusal built from the collected findings; `Ok(())` when
    /// nothing was collected.
    fn into_result(self) -> Result<(), CircuitError> {
        match self.issues.len() {
            0 => Ok(()),
            1 => Err(CircuitError::Unlevelizable {
                reason: self.issues[0].0,
            }),
            _ => Err(CircuitError::UnlevelizableMany {
                reasons: self.issues.into_iter().map(|(_, d)| d).collect(),
            }),
        }
    }
}

/// A netlist levelized for bit-parallel evaluation: the combinational
/// gates in topological-level order as flat struct-of-arrays tables
/// (kind, input slots, output slot), plus the cut flip-flop edges and a
/// node → reader-gate CSR used to seed fault difference frontiers.
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    node_count: usize,
    /// Gate kind per compiled gate, ordered by (level, original gate id).
    kinds: Vec<GateKind>,
    in0: Vec<u32>,
    in1: Vec<u32>,
    in2: Vec<u32>,
    outs: Vec<u32>,
    /// Topological level per compiled gate (≥ 1; level 0 is nodes).
    gate_level: Vec<u32>,
    /// Highest gate level: the number of levels in the combinational
    /// core.
    level_count: usize,
    /// CSR of compiled-gate positions reading each node, one entry per
    /// input pin; the order within a node carries no meaning.
    reader_starts: Vec<usize>,
    readers: Vec<u32>,
    /// Original netlist gate index per compiled gate — the key that
    /// maps compiled positions back to gate-keyed annotations such as
    /// power-intent domain assignments.
    source: Vec<u32>,
    /// Level of every node (0 for inputs, flip-flop outputs, and
    /// undriven nodes).
    node_level: Vec<u32>,
    dffs: Vec<CompiledDff>,
}

impl CompiledNetlist {
    /// Levelizes `netlist` for packed evaluation: flip-flop edges are
    /// cut (their outputs become level-0 state nodes, exactly the edge
    /// filter the lint engine's Tarjan pass applies), and every
    /// combinational gate gets level `1 + max(input levels)`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Unlevelizable`] if the combinational core
    /// contains a cycle, a node has more than one driver, or a gate
    /// drives a primary input — all structures only the event-driven
    /// engine can simulate. When several such structures exist they are
    /// all collected and named in one
    /// [`CircuitError::UnlevelizableMany`], so a netlist can be fixed in
    /// a single pass.
    pub fn compile(netlist: &Netlist) -> Result<CompiledNetlist, CircuitError> {
        let node_count = netlist.node_count();
        let gates = netlist.gates();
        let mut issues = IssueCollector::default();
        let mut has_driver = vec![false; node_count];
        // A node is level 0 unless a combinational gate drives it. A
        // driven node starts at 1, a lower bound its driver raises to the
        // exact level when Kahn's walk dequeues it.
        let mut node_level = vec![0u32; node_count];
        let mut dffs = Vec::new();
        let mut comb: Vec<usize> = Vec::new();
        for (gi, g) in gates.iter().enumerate() {
            let out = g.output.index();
            if has_driver[out] {
                issues.push(
                    "a node is driven by more than one gate",
                    format!(
                        "node '{}' is driven by more than one gate",
                        netlist.node_name(g.output)
                    ),
                );
            }
            has_driver[out] = true;
            if netlist.is_primary_input(g.output) {
                issues.push(
                    "a gate drives a primary input",
                    format!(
                        "a gate drives primary input '{}'",
                        netlist.node_name(g.output)
                    ),
                );
            }
            if g.kind == GateKind::Dff {
                dffs.push(CompiledDff {
                    clk: g.inputs()[0].index() as u32,
                    d: g.inputs()[1].index() as u32,
                    q: out as u32,
                });
            } else {
                node_level[out] = 1;
                comb.push(gi);
            }
        }

        // The reader CSR, built once over every combinational input pin:
        // entries are indices into `comb` while Kahn's walk runs on it,
        // and compiled positions afterwards. A gate's in-degree counts
        // its pins on driven nodes.
        let mut reader_starts = vec![0usize; node_count + 1];
        let mut indeg: Vec<u32> = vec![0; comb.len()];
        for (ci, &gi) in comb.iter().enumerate() {
            for inp in gates[gi].inputs() {
                reader_starts[inp.index() + 1] += 1;
                indeg[ci] += u32::from(node_level[inp.index()] > 0);
            }
        }
        for i in 0..node_count {
            reader_starts[i + 1] += reader_starts[i];
        }
        let mut cursor = reader_starts.clone();
        let mut readers = vec![0u32; reader_starts[node_count]];
        for (ci, &gi) in comb.iter().enumerate() {
            for inp in gates[gi].inputs() {
                readers[cursor[inp.index()]] = ci as u32;
                cursor[inp.index()] += 1;
            }
        }

        // Kahn's algorithm: a gate is queued once, when its last pending
        // pin resolves. A multiply-driven node (already collected above)
        // releases its readers once per driver; a release that finds the
        // count at zero changes nothing.
        let mut queue: Vec<u32> = (0..comb.len() as u32)
            .filter(|&ci| indeg[ci as usize] == 0)
            .collect();
        let mut head = 0usize;
        while head < queue.len() {
            let g = &gates[comb[queue[head] as usize]];
            head += 1;
            let out = g.output.index();
            node_level[out] = 1 + g
                .inputs()
                .iter()
                .map(|n| node_level[n.index()])
                .max()
                .unwrap_or(0);
            for &r in &readers[reader_starts[out]..reader_starts[out + 1]] {
                let d = &mut indeg[r as usize];
                if *d == 1 {
                    queue.push(r);
                }
                *d = d.saturating_sub(1);
            }
        }
        if queue.len() != comb.len() {
            // Name the cycle members: outputs of gates never queued.
            let stuck: Vec<&str> = comb
                .iter()
                .zip(&indeg)
                .filter(|&(_, &d)| d > 0)
                .map(|(&gi, _)| netlist.node_name(gates[gi].output))
                .take(8)
                .collect();
            issues.push(
                "combinational cycle",
                format!("combinational cycle through node(s) {}", stuck.join(", ")),
            );
        }
        issues.into_result()?;

        // Compiled order: (level, original gate id) — deterministic and
        // cache-friendly per-level sweeps. `comb` ascends by gate id, so
        // one stable counting pass over the levels gives that order.
        let level_of = |gi: usize| node_level[gates[gi].output.index()] as usize;
        let level_count = comb.iter().map(|&gi| level_of(gi)).max().unwrap_or(0);
        // First free compiled position per level (index 0 unused).
        let mut next = vec![0u32; level_count + 1];
        for &gi in &comb {
            next[level_of(gi)] += 1;
        }
        let mut acc = 0u32;
        for slot in &mut next {
            let n = *slot;
            *slot = acc;
            acc += n;
        }
        let n = comb.len();
        let mut kinds = vec![GateKind::Buf; n];
        let mut in0 = vec![0u32; n];
        let mut in1 = vec![0u32; n];
        let mut in2 = vec![0u32; n];
        let mut outs = vec![0u32; n];
        let mut gate_level = vec![0u32; n];
        let mut source = vec![0u32; n];
        let mut position = vec![0u32; n];
        for (ci, &gi) in comb.iter().enumerate() {
            let g = &gates[gi];
            let lvl = level_of(gi);
            let p = next[lvl] as usize;
            next[lvl] += 1;
            position[ci] = p as u32;
            kinds[p] = g.kind;
            let a = g.inputs()[0].index() as u32;
            in0[p] = a;
            in1[p] = g.inputs().get(1).map_or(a, |n| n.index() as u32);
            in2[p] = g.inputs().get(2).map_or(a, |n| n.index() as u32);
            outs[p] = g.output.index() as u32;
            gate_level[p] = lvl as u32;
            source[p] = gi as u32;
        }
        for r in &mut readers {
            *r = position[*r as usize];
        }

        Ok(CompiledNetlist {
            node_count,
            kinds,
            in0,
            in1,
            in2,
            outs,
            gate_level,
            level_count,
            reader_starts,
            readers,
            source,
            node_level,
            dffs,
        })
    }

    /// Number of topological levels in the combinational core.
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.level_count
    }

    /// Number of combinational gates in the compiled tables.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of flip-flop edges cut during levelization.
    #[must_use]
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Number of nodes in the source netlist (levelized node ids are the
    /// netlist's node indices).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Kind of compiled gate `p`. Compiled positions are level-ascending
    /// (all of level 1, then level 2, …), so a plain `0..gate_count()`
    /// sweep is a topological order — the property the static timing
    /// analyzer's forward/backward passes rely on.
    #[must_use]
    pub fn gate_kind(&self, p: usize) -> GateKind {
        self.kinds[p]
    }

    /// Input node indices of compiled gate `p`; only the first
    /// [`GateKind::arity`] entries are meaningful (unary gates repeat
    /// their single input in the unused slots).
    #[must_use]
    pub fn gate_inputs(&self, p: usize) -> [usize; 3] {
        [
            self.in0[p] as usize,
            self.in1[p] as usize,
            self.in2[p] as usize,
        ]
    }

    /// Output node index of compiled gate `p`.
    #[must_use]
    pub fn gate_output(&self, p: usize) -> usize {
        self.outs[p] as usize
    }

    /// Original netlist gate index of compiled gate `p`, for looking up
    /// gate-keyed annotations (e.g. power-intent domain assignments).
    #[must_use]
    pub fn gate_source(&self, p: usize) -> usize {
        self.source[p] as usize
    }

    /// Topological level of compiled gate `p` (levels start at 1; level
    /// 0 is the node plane).
    #[must_use]
    pub fn gate_level(&self, p: usize) -> usize {
        self.gate_level[p] as usize
    }

    /// Topological level of node `n`: 0 for primary inputs, flip-flop
    /// outputs, and undriven nodes; the driving gate's level otherwise.
    #[must_use]
    pub fn node_level(&self, n: usize) -> usize {
        self.node_level[n] as usize
    }

    /// Number of compiled-gate input pins reading node `n` — the fanout
    /// count the static timing analyzer prices capacitive load from.
    #[must_use]
    pub fn node_fanout(&self, n: usize) -> usize {
        self.reader_starts[n + 1] - self.reader_starts[n]
    }

    /// Node indices of every cut flip-flop's data (`d`) input — the
    /// register capture endpoints of the combinational DAG.
    #[must_use]
    pub fn dff_data_nodes(&self) -> Vec<usize> {
        self.dffs.iter().map(|d| d.d as usize).collect()
    }

    /// Node indices of every cut flip-flop's state (`q`) output — the
    /// level-0 register launch points of the combinational DAG.
    #[must_use]
    pub fn dff_state_nodes(&self) -> Vec<usize> {
        self.dffs.iter().map(|d| d.q as usize).collect()
    }

    #[inline]
    fn eval_at(&self, p: usize, planes: &Planes) -> P {
        eval_kind(
            self.kinds[p],
            planes.get(self.in0[p] as usize),
            planes.get(self.in1[p] as usize),
            planes.get(self.in2[p] as usize),
        )
    }

    /// Full-netlist packed settle: one sweep in level order.
    fn eval_all(&self, planes: &mut Planes) {
        for p in 0..self.kinds.len() {
            let out = self.outs[p] as usize;
            let v = self.eval_at(p, planes);
            planes.set(out, v);
        }
    }

    fn node_readers(&self, node: usize) -> &[u32] {
        &self.readers[self.reader_starts[node]..self.reader_starts[node + 1]]
    }

    /// Checks the netlist/target pairing against the packed campaign's
    /// supported shapes (see the module docs for the full list). Every
    /// violation is collected and named, so a refusal lists all of the
    /// target's unsupported structures at once; `bridge_faults` folds
    /// the fault-universe check into the same report.
    fn validate_campaign(&self, target: &Circuit, bridge_faults: bool) -> Result<(), CircuitError> {
        let mut issues = IssueCollector::default();
        let name_of = |n: usize| target.netlist.node_name(NodeId::from_index(n));
        match target.clock {
            Some(clk) => {
                let clk = clk.index();
                if clk >= self.node_count {
                    return Err(CircuitError::UnknownNode(clk));
                }
                if target.inputs.iter().any(|n| n.index() == clk) {
                    issues.push(
                        "the campaign clock overlaps the stimulus inputs",
                        format!(
                            "the campaign clock '{}' overlaps the stimulus inputs",
                            name_of(clk)
                        ),
                    );
                }
                if self.node_level[clk] > 0 || self.dffs.iter().any(|d| d.q as usize == clk) {
                    issues.push(
                        "the campaign clock is itself a driven node",
                        format!(
                            "the campaign clock '{}' is itself a driven node",
                            name_of(clk)
                        ),
                    );
                }
                let gated: Vec<&str> = self
                    .dffs
                    .iter()
                    .filter(|d| d.clk as usize != clk)
                    .map(|d| name_of(d.q as usize))
                    .take(8)
                    .collect();
                if !gated.is_empty() {
                    issues.push(
                        "gated or derived flip-flop clocks need the event engine",
                        format!(
                            "gated or derived flip-flop clocks need the event engine \
                             (flip-flop(s) {})",
                            gated.join(", ")
                        ),
                    );
                }
                if self.state_feedback() {
                    issues.push(
                        "register-to-register feedback needs the event engine",
                        "register-to-register feedback needs the event engine".to_string(),
                    );
                }
            }
            None => {
                // Without a declared clock the event engine never
                // toggles one either, so flip-flops are inert (stuck at
                // X) — but only if nothing can edge their clock pins.
                let edged: Vec<&str> = self
                    .dffs
                    .iter()
                    .filter(|d| {
                        let clk = d.clk as usize;
                        self.node_level[clk] > 0 || target.inputs.iter().any(|n| n.index() == clk)
                    })
                    .map(|d| name_of(d.q as usize))
                    .take(8)
                    .collect();
                if !edged.is_empty() {
                    issues.push(
                        "flip-flops without a declared campaign clock need the event engine",
                        format!(
                            "flip-flops without a declared campaign clock need the event \
                             engine (flip-flop(s) {})",
                            edged.join(", ")
                        ),
                    );
                }
            }
        }
        if bridge_faults {
            issues.push(
                "bridge faults need the event engine",
                "bridge faults need the event engine".to_string(),
            );
        }
        issues.into_result()
    }

    /// Whether any flip-flop output combinationally reaches any
    /// flip-flop data input. Lane-local single-shot capture is only
    /// sound when it does not: with feedback, vector `t`'s captured
    /// state depends on vector `t - 1`.
    fn state_feedback(&self) -> bool {
        let is_d: Vec<bool> = {
            let mut v = vec![false; self.node_count];
            for dff in &self.dffs {
                v[dff.d as usize] = true;
            }
            v
        };
        let mut seen = vec![false; self.node_count];
        let mut stack: Vec<usize> = Vec::new();
        for dff in &self.dffs {
            let q = dff.q as usize;
            if !seen[q] {
                seen[q] = true;
                stack.push(q);
            }
        }
        while let Some(n) = stack.pop() {
            if is_d[n] {
                return true;
            }
            for &p in self.node_readers(n) {
                let out = self.outs[p as usize] as usize;
                if !seen[out] {
                    seen[out] = true;
                    stack.push(out);
                }
            }
        }
        false
    }

    /// Settles a single stimulus vector and returns every node's settled
    /// value — the packed evaluator running one lane, for differential
    /// and property testing against [`Simulator::settle`].
    ///
    /// [`Simulator::settle`]: crate::sim::Simulator::settle
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthMismatch`] if `bits` and `inputs`
    /// disagree in length, [`CircuitError::UnknownNode`] for a foreign
    /// input node, or [`CircuitError::Unlevelizable`] if a flip-flop
    /// clock could see an edge (combinationally driven), where event
    /// timing decides what gets captured.
    pub fn settle_vector(&self, inputs: &[NodeId], bits: &[Bit]) -> Result<Vec<Bit>, CircuitError> {
        if inputs.len() != bits.len() {
            return Err(CircuitError::WidthMismatch {
                what: "set_bus",
                expected: inputs.len(),
                got: bits.len(),
            });
        }
        for n in inputs {
            if n.index() >= self.node_count {
                return Err(CircuitError::UnknownNode(n.index()));
            }
        }
        if self
            .dffs
            .iter()
            .any(|d| self.node_level[d.clk as usize] > 0)
        {
            return Err(CircuitError::Unlevelizable {
                reason: "gated or derived flip-flop clocks need the event engine",
            });
        }
        let mut planes = Planes::new(self.node_count);
        for (n, &b) in inputs.iter().zip(bits) {
            planes.set(n.index(), bit_planes(b));
        }
        self.eval_all(&mut planes);
        Ok((0..self.node_count)
            .map(|n| lane_bit(planes.get(n), 0))
            .collect())
    }
}

/// Per-item worklist state for one kind of fault pass (phase A, or
/// phase B and the single pass): a working plane set kept equal to its golden reference between faults
/// via an undo log, and the difference frontier as one bit per compiled
/// gate. Compiled positions ascend by level and every reader sits after
/// the gate that enqueues it, so an upward bit scan from the lowest
/// enqueued word visits the frontier in topological order.
struct Scratch<'a> {
    planes: Planes,
    /// Every node whose planes differ from the reference: the undo log,
    /// and the only nodes that can change a classification.
    touched: Vec<u32>,
    /// The gates this pass may evaluate (see [`FaultSim`]); a reader
    /// outside it is never enqueued.
    live: &'a [u64],
    /// Enqueued gates, one bit per compiled position; all clear between
    /// passes.
    frontier: Vec<u64>,
    /// Lowest frontier word holding a bit; `frontier.len()` when empty.
    lo: usize,
    /// Observed outputs, indexed by node.
    outputs: &'a [bool],
    /// Lanes in which a definite difference at an observed output ends
    /// the pass (the word's active lanes); 0 for phase A, which never
    /// stops early because its captured state feeds phase B.
    watch: u64,
}

impl<'a> Scratch<'a> {
    fn new(reference: &Planes, live: &'a [u64], outputs: &'a [bool], watch: u64) -> Scratch<'a> {
        Scratch {
            planes: reference.clone(),
            touched: Vec::new(),
            live,
            frontier: vec![0; live.len()],
            lo: live.len(),
            outputs,
            watch,
        }
    }

    /// Whether `node`, whose golden planes are `g`, now reads `f`, a
    /// definite difference at an observed output in a watched lane —
    /// which fixes the word's class at `Corrupted`.
    fn detects(&self, node: usize, g: P, f: P) -> bool {
        g.1 & f.1 & (g.0 ^ f.0) & self.watch != 0 && self.outputs[node]
    }

    fn undo(&mut self, reference: &Planes) {
        while let Some(n) = self.touched.pop() {
            let n = n as usize;
            self.planes.set(n, reference.get(n));
        }
    }
}

/// How a fault pass ended. On an observed pass exactly one holds; phase
/// A never stops.
enum PassEnd {
    /// The frontier drained before the last level with no detection (a
    /// pass that enqueued nothing counts here).
    Dropped,
    /// A definite output difference in a watched lane ended the pass.
    Stopped,
    /// The frontier reached the last level.
    Ran,
}

impl CompiledNetlist {
    fn enqueue_readers(&self, s: &mut Scratch, node: usize, pending: &mut usize) {
        for &p in self.node_readers(node) {
            let (w, bit) = (p as usize / 64, 1u64 << (p % 64));
            if s.live[w] & !s.frontier[w] & bit != 0 {
                s.frontier[w] |= bit;
                s.lo = s.lo.min(w);
                *pending += 1;
            }
        }
    }

    /// Writes `new` at `node` if it differs from the working planes,
    /// logging the touch and enqueueing the node's readers.
    fn seed(&self, s: &mut Scratch, node: usize, new: P, pending: &mut usize) {
        if s.planes.get(node) == new {
            return;
        }
        s.touched.push(node as u32);
        s.planes.set(node, new);
        self.enqueue_readers(s, node, pending);
    }

    /// Difference-frontier propagation: evaluates only enqueued gates,
    /// in position (so level) order from the lowest enqueued word,
    /// enqueueing fanout only where the faulty planes diverge from
    /// `reference`. Early-exits the moment no gate remains enqueued —
    /// the concurrent-fault-style dropout — and, on a pass that watches
    /// lanes, the moment a seed or an evaluation leaves an observed
    /// output definitely different from `reference` (fault dropping on
    /// detection); the rest of the frontier is then cleared unevaluated.
    /// Returns the gate evaluations performed and how the pass ended.
    fn propagate(
        &self,
        s: &mut Scratch,
        reference: &Planes,
        forced: Option<usize>,
        mut pending: usize,
    ) -> (u64, PassEnd) {
        let mut evals = 0u64;
        let mut last = None;
        let mut w = std::mem::replace(&mut s.lo, s.frontier.len());
        // Before propagation `touched` holds exactly the seeded nodes.
        let mut stopped = s.touched.iter().any(|&n| {
            let n = n as usize;
            s.detects(n, reference.get(n), s.planes.get(n))
        });
        while pending > 0 && !stopped {
            let bits = s.frontier[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            s.frontier[w] = bits & (bits - 1);
            pending -= 1;
            let p = w * 64 + bits.trailing_zeros() as usize;
            last = Some(p);
            let out = self.outs[p] as usize;
            if forced == Some(out) {
                continue;
            }
            evals += 1;
            let new = self.eval_at(p, &s.planes);
            let g = reference.get(out);
            if new != g {
                s.touched.push(out as u32);
                s.planes.set(out, new);
                stopped = s.detects(out, g, new);
                if !stopped {
                    self.enqueue_readers(s, out, &mut pending);
                }
            }
        }
        // A stop leaves bits in word `w` and above only: the scan has
        // passed every lower word, and readers sit above their driver.
        while pending > 0 {
            pending -= s.frontier[w].count_ones() as usize;
            s.frontier[w] = 0;
            w += 1;
        }
        // Fanout enqueued during the sweep moved `lo` off the sentinel,
        // but every bit is clear now.
        s.lo = s.frontier.len();
        debug_assert!(s.frontier.iter().all(|&b| b == 0), "frontier leaked");
        let end = if stopped {
            PassEnd::Stopped
        } else if last.map_or(0, |p| self.gate_level[p] as usize) < self.level_count() {
            PassEnd::Dropped
        } else {
            PassEnd::Ran
        };
        (evals, end)
    }
}

/// Golden (fault-free) planes for one 64-vector stimulus word.
pub(crate) struct GoldenWord {
    /// Stimulus columns, one per target input, for seeding fault planes.
    input_planes: Vec<P>,
    /// Phase-A planes (clock low) for clocked targets; `None` for
    /// combinational ones.
    a: Option<Planes>,
    /// The planes classification samples: phase B for clocked targets,
    /// the single settled pass otherwise.
    fin: Planes,
    /// Mask of lanes carrying real stimulus vectors (the last word of a
    /// campaign may be partial).
    active: u64,
}

impl CompiledNetlist {
    /// Packs and settles stimulus word `w` fault-free. Clocked targets
    /// run the event engine's two-phase protocol: settle with the clock
    /// low, capture every flip-flop's data plane, then settle with the
    /// clock high and the captured state installed. Single-shot capture
    /// is lane-local because `validate_campaign` rejected
    /// register-to-register feedback.
    fn golden_word(&self, target: &Circuit, vecs: &[Vec<Bit>], w: usize) -> (GoldenWord, u64) {
        let base = w * 64;
        let lanes = (vecs.len() - base).min(64);
        let active = if lanes == 64 {
            ONES
        } else {
            (1u64 << lanes) - 1
        };
        let mut input_planes = vec![(0u64, 0u64); target.inputs.len()];
        for t in 0..lanes {
            let row = &vecs[base + t];
            for (j, col) in input_planes.iter_mut().enumerate() {
                match row[j] {
                    Bit::One => {
                        col.0 |= 1 << t;
                        col.1 |= 1 << t;
                    }
                    Bit::Zero => col.1 |= 1 << t,
                    Bit::X => {}
                }
            }
        }
        let set_inputs = |planes: &mut Planes| {
            for (n, &p) in target.inputs.iter().zip(&input_planes) {
                planes.set(n.index(), p);
            }
        };
        let (a, fin, evals) = match target.clock {
            Some(clk) => {
                let mut pa = Planes::new(self.node_count);
                set_inputs(&mut pa);
                pa.set(clk.index(), (0, ONES));
                self.eval_all(&mut pa);
                let captured: Vec<P> = self.dffs.iter().map(|d| pa.get(d.d as usize)).collect();
                let mut pb = Planes::new(self.node_count);
                set_inputs(&mut pb);
                pb.set(clk.index(), (ONES, ONES));
                for (dff, &q) in self.dffs.iter().zip(&captured) {
                    pb.set(dff.q as usize, q);
                }
                self.eval_all(&mut pb);
                (Some(pa), pb, 2 * self.gate_count() as u64)
            }
            None => {
                let mut p = Planes::new(self.node_count);
                set_inputs(&mut p);
                self.eval_all(&mut p);
                (None, p, self.gate_count() as u64)
            }
        };
        (
            GoldenWord {
                input_planes,
                a,
                fin,
                active,
            },
            evals,
        )
    }
}

/// The per-campaign tables the per-fault loop reads, built once so
/// each fault costs work proportional to the nodes it changes: which
/// nodes are observed outputs, which flip-flops capture each node, and
/// which gates each pass can need.
///
/// A pass is read only through the nodes it touches: phase A (clock
/// low) through flip-flop data nodes, phase B and the single pass
/// through observed outputs. A gate whose output reaches none of those
/// cannot change the result, so each pass evaluates only its live set
/// (fan-in cone pruning) and the outcome is exact.
struct FaultSim<'a> {
    comp: &'a CompiledNetlist,
    target: &'a Circuit,
    is_output: Vec<bool>,
    /// CSR node → indices into `comp.dffs` of the flip-flops whose data
    /// input is that node.
    capture_starts: Vec<usize>,
    captured_by: Vec<u32>,
    /// Gates whose output reaches a flip-flop data node: phase A's live
    /// set, one bit per compiled position.
    live_capture: Vec<u64>,
    /// Gates whose output reaches an observed output: the live set of
    /// phase B and of the single pass.
    live_observe: Vec<u64>,
}

/// Work a run of fault passes performed, flushed into the campaign's
/// counters once per work item.
#[derive(Default)]
struct Work {
    gate_evals: u64,
    /// The phase-A share of `gate_evals`.
    capture_evals: u64,
    /// Observed passes whose frontier drained before the last level.
    dropouts: u64,
    /// Observed passes ended by a detection.
    detect_stops: u64,
}

/// The gates whose output reaches a node `reaches` marks, one bit per
/// compiled position. One reverse sweep suffices: every reader of a
/// gate's output sits at a higher position, so whether that output
/// reaches a sink is settled by the time the sweep gets to the gate.
fn live_gates(comp: &CompiledNetlist, mut reaches: Vec<bool>) -> Vec<u64> {
    let mut live = vec![0u64; comp.gate_count().div_ceil(64)];
    for p in (0..comp.gate_count()).rev() {
        if reaches[comp.outs[p] as usize] {
            live[p / 64] |= 1 << (p % 64);
            for &n in &comp.gate_inputs(p)[..comp.kinds[p].arity()] {
                reaches[n] = true;
            }
        }
    }
    live
}

impl<'a> FaultSim<'a> {
    fn new(comp: &'a CompiledNetlist, target: &'a Circuit) -> FaultSim<'a> {
        let mut is_output = vec![false; comp.node_count];
        // Foreign output ids read X on both sides and can never differ.
        for n in &target.outputs {
            if let Some(slot) = is_output.get_mut(n.index()) {
                *slot = true;
            }
        }
        let mut is_d = vec![false; comp.node_count];
        let mut capture_starts = vec![0usize; comp.node_count + 1];
        for dff in &comp.dffs {
            is_d[dff.d as usize] = true;
            capture_starts[dff.d as usize + 1] += 1;
        }
        for i in 0..comp.node_count {
            capture_starts[i + 1] += capture_starts[i];
        }
        let mut cursor = capture_starts.clone();
        let mut captured_by = vec![0u32; comp.dffs.len()];
        for (k, dff) in comp.dffs.iter().enumerate() {
            captured_by[cursor[dff.d as usize]] = k as u32;
            cursor[dff.d as usize] += 1;
        }
        FaultSim {
            comp,
            target,
            live_capture: live_gates(comp, is_d),
            live_observe: live_gates(comp, is_output.clone()),
            is_output,
            capture_starts,
            captured_by,
        }
    }

    /// Seeds one fault's perturbation into `s` (whose planes equal
    /// `reference`). Returns the forced node (for stuck-at faults) or an
    /// early `Err(class)` for malformed faults the event engine would
    /// classify as `Detected`.
    fn seed_fault(
        &self,
        s: &mut Scratch,
        gw: &GoldenWord,
        fault: &GateFault,
        pending: &mut usize,
    ) -> Result<Option<usize>, u8> {
        let comp = self.comp;
        match *fault {
            GateFault::NodeStuckAt { node, value } => {
                let n = node.index();
                if n >= comp.node_count {
                    return Err(CLASS_UNKNOWN_NODE);
                }
                comp.seed(s, n, bit_planes(value), pending);
                Ok(Some(n))
            }
            GateFault::InputX { input_index } => {
                if input_index >= self.target.inputs.len() {
                    return Err(CLASS_BAD_INPUT_INDEX);
                }
                let n = self.target.inputs[input_index].index();
                comp.seed(s, n, (0, 0), pending);
                Ok(None)
            }
            GateFault::StimulusBitFlip { input_index } => {
                if input_index >= self.target.inputs.len() {
                    return Err(CLASS_BAD_INPUT_INDEX);
                }
                let n = self.target.inputs[input_index].index();
                // `Bit::not` flips known lanes and keeps X lanes X.
                let cur = gw.input_planes[input_index];
                comp.seed(s, n, (cur.0 ^ cur.1, cur.1), pending);
                Ok(None)
            }
            // Rejected up front by `CompiledNetlist::for_campaign`.
            GateFault::Bridge { .. } => Err(CLASS_UNKNOWN_NODE),
        }
    }

    /// Classifies the faulty planes in `s` against the golden planes
    /// over the observed outputs, restricted to active lanes — the
    /// packed form of the event campaign's per-vector `classify` scan.
    /// Untouched nodes equal golden, so only touched outputs are read.
    fn classify(&self, gw: &GoldenWord, s: &Scratch) -> u8 {
        let mut definite = 0u64;
        let mut xdiv = 0u64;
        for &n in &s.touched {
            let n = n as usize;
            if self.is_output[n] {
                let g = gw.fin.get(n);
                let f = s.planes.get(n);
                definite |= g.1 & f.1 & (g.0 ^ f.0);
                xdiv |= g.1 ^ f.1;
            }
        }
        if definite & gw.active != 0 {
            CLASS_CORRUPTED
        } else if xdiv & gw.active != 0 {
            CLASS_X
        } else {
            CLASS_MASKED
        }
    }

    /// Evaluates one fault over one stimulus word via difference-frontier
    /// propagation, returning the word-local class byte and adding the
    /// passes' work to `work`.
    fn fault_word_class(
        &self,
        gw: &GoldenWord,
        sa: &mut Option<Scratch>,
        sb: &mut Scratch,
        fault: &GateFault,
        work: &mut Work,
    ) -> u8 {
        let comp = self.comp;
        // A stuck clock never produces the clean low→high edge flip-flops
        // capture on, so state is X for every lane; everything else about
        // the circuit still sees the forced clock level.
        let clock_fault = match (fault, self.target.clock) {
            (&GateFault::NodeStuckAt { node, value }, Some(clk)) if node == clk => Some(value),
            _ => None,
        };
        if let (Some(ga), None) = (gw.a.as_ref(), clock_fault) {
            // Clocked target, non-clock fault: phase A computes the
            // faulty captured state, phase B samples the outputs.
            let Some(sa) = sa.as_mut() else {
                return CLASS_MASKED;
            };
            let mut pending = 0usize;
            let forced = match self.seed_fault(sa, gw, fault, &mut pending) {
                Ok(f) => f,
                Err(class) => return class,
            };
            // Phase A's frontier is confined to the capture cone and
            // nearly always drains early; only the observed pass's
            // dropout is counted.
            let (evals, _) = comp.propagate(sa, ga, forced, pending);
            work.gate_evals += evals;
            work.capture_evals += evals;

            let mut pending = 0usize;
            let forced = match self.seed_fault(sb, gw, fault, &mut pending) {
                Ok(f) => f,
                Err(class) => {
                    sa.undo(ga);
                    return class;
                }
            };
            // Golden phase B already holds the golden captured state, so
            // only flip-flops whose data node phase A changed get a new
            // `q`.
            for &d in &sa.touched {
                let d = d as usize;
                let capturing = self.capture_starts[d]..self.capture_starts[d + 1];
                for &k in &self.captured_by[capturing] {
                    let q = comp.dffs[k as usize].q as usize;
                    if forced != Some(q) {
                        comp.seed(sb, q, sa.planes.get(d), &mut pending);
                    }
                }
            }
            sa.undo(ga);
            return self.observe(gw, sb, forced, pending, work);
        }
        // Combinational target, inert flip-flops, or a stuck clock:
        // a single pass in the sampled (phase-B) plane space.
        let mut pending = 0usize;
        let forced = match clock_fault {
            Some(value) => {
                let clk = match self.target.clock {
                    Some(c) => c.index(),
                    None => 0,
                };
                comp.seed(sb, clk, bit_planes(value), &mut pending);
                for dff in &comp.dffs {
                    comp.seed(sb, dff.q as usize, (0, 0), &mut pending);
                }
                Some(clk)
            }
            None => match self.seed_fault(sb, gw, fault, &mut pending) {
                Ok(f) => f,
                Err(class) => return class,
            },
        };
        self.observe(gw, sb, forced, pending, work)
    }

    /// Runs the observed pass (phase B, or the single pass) from the
    /// seeds already in `sb`, tallies its work, classifies it and
    /// restores `sb` to golden.
    fn observe(
        &self,
        gw: &GoldenWord,
        sb: &mut Scratch,
        forced: Option<usize>,
        pending: usize,
        work: &mut Work,
    ) -> u8 {
        let (evals, end) = self.comp.propagate(sb, &gw.fin, forced, pending);
        work.gate_evals += evals;
        let class = self.classify(gw, sb);
        match end {
            PassEnd::Stopped => {
                debug_assert_eq!(class, CLASS_CORRUPTED);
                work.detect_stops += 1;
            }
            PassEnd::Dropped => work.dropouts += 1,
            PassEnd::Ran => {}
        }
        sb.undo(&gw.fin);
        class
    }
}

impl CompiledNetlist {
    /// The packed counterpart of
    /// [`Simulator::measure_activity`](crate::sim::Simulator::measure_activity):
    /// applies `cycles` pattern vectors 64 at a time and counts **settled**
    /// per-node transitions between consecutive cycles, discarding
    /// transitions into the first `warmup` cycles.
    ///
    /// The event engine counts every transition its event loop applies,
    /// *including glitches* on reconvergent paths; a zero-delay levelized
    /// evaluator has no event ordering, so this method reports the
    /// settled-state activity instead — the α a glitch-free
    /// implementation of the same logic would exhibit. The two agree
    /// exactly on glitch-free circuits.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidStimulus`] if `warmup >= cycles`,
    /// [`CircuitError::WidthMismatch`] if the source width mismatches the
    /// input count, [`CircuitError::UnknownNode`] for a foreign input
    /// node, or [`CircuitError::Unlevelizable`] if any flip-flop clock
    /// could see an edge (stimulus-driven or combinationally driven) —
    /// multi-cycle state needs the event engine.
    pub fn measure_activity(
        &self,
        netlist: &Netlist,
        rec: &dyn Recorder,
        source: &mut PatternSource,
        inputs: &[NodeId],
        cycles: usize,
        warmup: usize,
    ) -> Result<ActivityReport, CircuitError> {
        if warmup >= cycles {
            return Err(CircuitError::InvalidStimulus {
                reason: "warmup must leave cycles to measure",
            });
        }
        if source.width() != inputs.len() {
            return Err(CircuitError::WidthMismatch {
                what: "set_bus",
                expected: inputs.len(),
                got: source.width(),
            });
        }
        for n in inputs {
            if n.index() >= self.node_count {
                return Err(CircuitError::UnknownNode(n.index()));
            }
        }
        for dff in &self.dffs {
            let clk = dff.clk as usize;
            if self.node_level[clk] > 0 || inputs.iter().any(|n| n.index() == clk) {
                return Err(CircuitError::Unlevelizable {
                    reason: "clocked activity measurement needs the event engine",
                });
            }
        }
        let timer = span(rec, names::SPAN_SIM_MEASURE_ACTIVITY);
        let vecs: Vec<Vec<Bit>> = (0..cycles).map(|_| source.next_pattern()).collect();
        let mut rising = vec![0u64; self.node_count];
        let mut falling = vec![0u64; self.node_count];
        let mut planes = Planes::new(self.node_count);
        // Lane 63 of each word carried into lane 0 of the next; the
        // initial "previous cycle" is X, so nothing counts into cycle 0.
        let mut carry_v = vec![0u64; self.node_count];
        let mut carry_k = vec![0u64; self.node_count];
        let n_words = cycles.div_ceil(64);
        let mut evals = 0u64;
        for w in 0..n_words {
            let base = w * 64;
            let lanes = (cycles - base).min(64);
            for (j, n) in inputs.iter().enumerate() {
                let mut col = (0u64, 0u64);
                for (t, row) in vecs[base..base + lanes].iter().enumerate() {
                    match row[j] {
                        Bit::One => {
                            col.0 |= 1 << t;
                            col.1 |= 1 << t;
                        }
                        Bit::Zero => col.1 |= 1 << t,
                        Bit::X => {}
                    }
                }
                planes.set(n.index(), col);
            }
            self.eval_all(&mut planes);
            evals += self.gate_count() as u64;
            // Transitions *into* cycle t count when t >= warmup — the
            // event engine enables counting after the warmup settles.
            let mut measured = if lanes == 64 {
                ONES
            } else {
                (1u64 << lanes) - 1
            };
            if warmup > base {
                let skip = warmup - base;
                measured = if skip >= 64 {
                    0
                } else {
                    measured & (ONES << skip)
                };
            }
            for n in 0..self.node_count {
                let cur = planes.get(n);
                let prev_v = (cur.0 << 1) | carry_v[n];
                let prev_k = (cur.1 << 1) | carry_k[n];
                rising[n] += u64::from((prev_k & !prev_v & cur.0 & cur.1 & measured).count_ones());
                falling[n] += u64::from((prev_v & prev_k & !cur.0 & cur.1 & measured).count_ones());
                if lanes == 64 {
                    carry_v[n] = cur.0 >> 63;
                    carry_k[n] = cur.1 >> 63;
                }
            }
        }
        let entries: Vec<NodeActivity> = netlist
            .node_ids()
            .map(|n| NodeActivity {
                node: n,
                name: netlist.node_name(n).to_string(),
                rising: rising[n.index()],
                falling: falling[n.index()],
                capacitance: netlist.node_capacitance(n),
                is_primary_input: netlist.is_primary_input(n),
            })
            .collect();
        drop(timer);
        if rec.is_enabled() {
            let internal = entries.iter().filter(|e| !e.is_primary_input).count();
            rec.add(names::SIM_ALPHA_NODES, internal as u64);
            rec.add(
                names::SIM_TRANSITIONS_RISING,
                entries.iter().map(|e| e.rising).sum(),
            );
            rec.add(
                names::SIM_TRANSITIONS_FALLING,
                entries.iter().map(|e| e.falling).sum(),
            );
            rec.add(names::COMPILED_WORDS, n_words as u64);
            rec.add(names::COMPILED_GATE_EVALS, evals);
        }
        Ok(ActivityReport::new(entries, (cycles - warmup) as u64))
    }
}

/// Faults per packed work item. The size is fixed rather than derived
/// from the thread count, so a target's journal layout is the same at
/// every thread count and a journal written at one resumes at any
/// other. At 1024 faults an item is milliseconds of propagation on a
/// generated netlist: coarse enough that per-item scratch setup is
/// noise, fine enough that a one-word campaign over thousands of faults
/// spreads over every core.
const FAULT_RANGE: usize = 1024;

/// Fault ranges per stimulus word — at least one, so a campaign with no
/// faults still evaluates its words.
fn fault_ranges(faults: usize) -> usize {
    faults.div_ceil(FAULT_RANGE).max(1)
}

/// Work items in a packed campaign of `vectors` stimulus vectors over
/// `faults` faults: one per (64-vector word, 1024-fault range) pair.
/// Item `w * ranges + r` is word `w` over fault range `r`.
pub(crate) fn packed_items(vectors: usize, faults: usize) -> u64 {
    (vectors.div_ceil(64) as u64).saturating_mul(fault_ranges(faults) as u64)
}

/// One packed work item: a stimulus word and a contiguous fault range.
#[derive(Clone)]
pub(crate) struct PackedItem {
    word: usize,
    faults: Range<usize>,
}

/// One fault's outcome from its word-local class bytes, with the event
/// engine's precedence: a trace error is `Detected` before any vector is
/// classified, a definite disagreement anywhere dominates X divergence,
/// and X divergence dominates agreement.
fn fold_word_classes(fault: &GateFault, classes: impl Iterator<Item = u8>) -> FaultOutcome {
    let mut has = [false; 5];
    for c in classes {
        has[usize::from(c)] = true;
    }
    if has[usize::from(CLASS_UNKNOWN_NODE)] {
        match *fault {
            GateFault::NodeStuckAt { node, .. } => {
                FaultOutcome::Detected(CircuitError::UnknownNode(node.index()))
            }
            _ => FaultOutcome::Detected(CircuitError::Internal {
                detail: "unknown-node class for a non-stuck-at fault",
            }),
        }
    } else if has[usize::from(CLASS_BAD_INPUT_INDEX)] {
        FaultOutcome::Detected(CircuitError::InvalidStimulus {
            reason: "fault input index out of range",
        })
    } else if has[usize::from(CLASS_CORRUPTED)] {
        FaultOutcome::Corrupted
    } else if has[usize::from(CLASS_X)] {
        FaultOutcome::PropagatedAsX
    } else {
        FaultOutcome::Masked
    }
}

impl CompiledNetlist {
    /// Compiles `target`'s netlist for a packed campaign over `faults`
    /// and checks that the engine supports the pairing.
    pub(crate) fn for_campaign(
        rec: &dyn Recorder,
        target: &Circuit,
        faults: &[GateFault],
    ) -> Result<CompiledNetlist, CircuitError> {
        let comp = {
            let _compile_timer = span(rec, names::SPAN_COMPILED_COMPILE);
            CompiledNetlist::compile(&target.netlist)?
        };
        comp.validate_campaign(
            target,
            faults.iter().any(|f| matches!(f, GateFault::Bridge { .. })),
        )?;
        Ok(comp)
    }
}

/// The compiled engine's side of
/// [`run_campaign`](crate::faults::run_campaign): the golden planes are
/// computed once per 64-vector stimulus word, each fault is
/// re-evaluated per word via difference-frontier propagation with
/// dropout, and per-fault outcomes are folded from per-word class
/// bytes. A fault is unresolved until every word of its range is done.
pub(crate) struct PackedCampaign<'a> {
    faults: &'a [GateFault],
    vectors: usize,
    sim: FaultSim<'a>,
    gate_evals: AtomicU64,
    capture_evals: AtomicU64,
    dropouts: AtomicU64,
    detect_stops: AtomicU64,
    word_evaluated: Vec<AtomicBool>,
}

impl<'a> PackedCampaign<'a> {
    pub(crate) fn new(
        comp: &'a CompiledNetlist,
        target: &'a Circuit,
        faults: &'a [GateFault],
        vectors: usize,
    ) -> PackedCampaign<'a> {
        PackedCampaign {
            faults,
            vectors,
            sim: FaultSim::new(comp, target),
            gate_evals: AtomicU64::new(0),
            capture_evals: AtomicU64::new(0),
            dropouts: AtomicU64::new(0),
            detect_stops: AtomicU64::new(0),
            word_evaluated: (0..vectors.div_ceil(64))
                .map(|_| AtomicBool::new(false))
                .collect(),
        }
    }
}

impl CampaignEngine for PackedCampaign<'_> {
    type Golden = Vec<GoldenWord>;
    type Item = PackedItem;
    type Record = Vec<u8>;

    /// Classification always runs against freshly computed planes, so a
    /// cached trace only marks the run as a cache hit; the stimulus is
    /// dropped once it is packed into the planes.
    fn golden(
        &self,
        vecs: Vec<Vec<Bit>>,
        _cached: Option<Vec<Vec<Bit>>>,
    ) -> Result<Vec<GoldenWord>, CircuitError> {
        let comp = self.sim.comp;
        let mut evals = 0u64;
        let words = (0..self.word_evaluated.len())
            .map(|w| {
                let (gw, e) = comp.golden_word(self.sim.target, &vecs, w);
                evals += e;
                gw
            })
            .collect();
        self.gate_evals.fetch_add(evals, Ordering::Relaxed);
        Ok(words)
    }

    /// The golden output trace read back out of the planes: the cache
    /// key and payload are engine-independent, so the two engines share
    /// entries.
    fn golden_trace<'g>(&self, golden: &'g Vec<GoldenWord>) -> Cow<'g, [Vec<Bit>]> {
        Cow::Owned(
            (0..self.vectors)
                .map(|t| {
                    let gw = &golden[t / 64];
                    self.sim
                        .target
                        .outputs
                        .iter()
                        .map(|n| lane_bit(gw.fin.get_or_x(n.index()), t % 64))
                        .collect()
                })
                .collect(),
        )
    }

    fn items(&self) -> Cow<'_, [PackedItem]> {
        let faults = self.faults.len();
        let ranges = fault_ranges(faults);
        Cow::Owned(
            (0..self.word_evaluated.len())
                .flat_map(|word| {
                    (0..ranges).map(move |r| PackedItem {
                        word,
                        faults: r * FAULT_RANGE..((r + 1) * FAULT_RANGE).min(faults),
                    })
                })
                .collect(),
        )
    }

    fn item_vectors(&self, item: &PackedItem) -> u64 {
        ((self.vectors - item.word * 64).min(64) * item.faults.len()) as u64
    }

    fn run_item(
        &self,
        golden: &Vec<GoldenWord>,
        item: &PackedItem,
        token: &CancelToken,
    ) -> ItemStatus<Vec<u8>> {
        let gw = &golden[item.word];
        let sim = &self.sim;
        let mut sa =
            gw.a.as_ref()
                .map(|ga| Scratch::new(ga, &sim.live_capture, &sim.is_output, 0));
        let mut sb = Scratch::new(&gw.fin, &sim.live_observe, &sim.is_output, gw.active);
        let mut classes = Vec::with_capacity(item.faults.len());
        let mut work = Work::default();
        for f in &self.faults[item.faults.clone()] {
            if token.is_cancelled() {
                return ItemStatus::TimedOut;
            }
            classes.push(sim.fault_word_class(gw, &mut sa, &mut sb, f, &mut work));
        }
        self.gate_evals
            .fetch_add(work.gate_evals, Ordering::Relaxed);
        self.capture_evals
            .fetch_add(work.capture_evals, Ordering::Relaxed);
        self.dropouts.fetch_add(work.dropouts, Ordering::Relaxed);
        self.detect_stops
            .fetch_add(work.detect_stops, Ordering::Relaxed);
        self.word_evaluated[item.word].store(true, Ordering::Relaxed);
        ItemStatus::Done(classes)
    }

    fn encode(classes: &Vec<u8>) -> Vec<u8> {
        crate::persist::encode_word_classes(classes)
    }

    /// A record of another length belongs to a different item layout
    /// (e.g. a journal written with one item per word) and is
    /// recomputed with a warning, never misassigned.
    fn decode(item: &PackedItem, bytes: &[u8]) -> Option<Vec<u8>> {
        crate::persist::decode_word_classes(bytes).filter(|c| c.len() == item.faults.len())
    }

    fn outcomes(
        &self,
        slots: Vec<Option<Result<Vec<u8>, ExecError>>>,
    ) -> impl Iterator<Item = Option<FaultOutcome>> {
        let ranges = fault_ranges(self.faults.len());
        let n_words = self.word_evaluated.len();
        self.faults.iter().enumerate().map(move |(fi, f)| {
            let (r, offset) = (fi / FAULT_RANGE, fi % FAULT_RANGE);
            // An interrupted run has whole items outstanding, and a
            // fault needs every word of its range.
            let words: Vec<&Result<Vec<u8>, ExecError>> = (0..n_words)
                .map(|w| slots[w * ranges + r].as_ref())
                .collect::<Option<_>>()?;
            // An item-level execution failure (exhausted retries or a
            // deadline) leaves no classes for its faults over those
            // lanes: the packed analogue of the event engine's
            // per-injection `Errored` slots.
            Some(match words.iter().find_map(|w| w.as_ref().err()) {
                Some(e) => FaultOutcome::Errored(e.clone()),
                None => fold_word_classes(
                    f,
                    words
                        .iter()
                        .filter_map(|w| w.as_ref().ok())
                        .map(|c| c[offset]),
                ),
            })
        })
    }

    fn flush(&self, rec: &dyn Recorder) {
        rec.add(
            names::COMPILED_WORDS,
            self.word_evaluated
                .iter()
                .filter(|w| w.load(Ordering::Relaxed))
                .count() as u64,
        );
        rec.add(
            names::COMPILED_GATE_EVALS,
            self.gate_evals.load(Ordering::Relaxed),
        );
        rec.add(
            names::COMPILED_CAPTURE_EVALS,
            self.capture_evals.load(Ordering::Relaxed),
        );
        rec.add(
            names::COMPILED_FAULT_DROPOUTS,
            self.dropouts.load(Ordering::Relaxed),
        );
        rec.add(
            names::COMPILED_DETECT_STOPS,
            self.detect_stops.load(Ordering::Relaxed),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{run_campaign, standard_targets, CampaignOptions, Engine};
    use crate::sim::Simulator;
    use lowvolt_exec::ExecPolicy;

    fn outcomes(
        engine: Engine,
        target: &Circuit,
        faults: &[GateFault],
        vectors: usize,
        seed: u64,
    ) -> Vec<FaultOutcome> {
        let mut src = PatternSource::random(target.inputs.len(), seed).unwrap();
        let options = CampaignOptions {
            engine,
            ..CampaignOptions::default()
        };
        let run = run_campaign(target, faults, &mut src, vectors, options).unwrap();
        run.reports
            .into_iter()
            .map(|r| r.unwrap().outcome)
            .collect()
    }

    fn stuck_faults(target: &Circuit) -> Vec<GateFault> {
        let mut faults = Vec::new();
        for n in target.netlist.node_ids() {
            faults.push(GateFault::NodeStuckAt {
                node: n,
                value: Bit::Zero,
            });
            faults.push(GateFault::NodeStuckAt {
                node: n,
                value: Bit::One,
            });
        }
        for i in 0..target.inputs.len() {
            faults.push(GateFault::InputX { input_index: i });
            faults.push(GateFault::StimulusBitFlip { input_index: i });
        }
        faults
    }

    #[test]
    fn compile_levelizes_a_chain() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.gate(GateKind::And2, &[a, b]).unwrap();
        let y = n.gate(GateKind::Not, &[x]).unwrap();
        let _z = n.gate(GateKind::Or2, &[y, a]).unwrap();
        let comp = CompiledNetlist::compile(&n).unwrap();
        assert_eq!(comp.gate_count(), 3);
        assert_eq!(comp.level_count(), 3);
        assert_eq!(comp.dff_count(), 0);
        // Levels ascend through the compiled tables.
        assert!(comp.gate_level.windows(2).all(|w| w[0] <= w[1]));
        // The public levelization accessors the STA crate builds on.
        assert_eq!(comp.node_count(), n.node_count());
        assert_eq!(comp.gate_kind(0), GateKind::And2);
        assert_eq!(comp.gate_level(0), 1);
        assert_eq!(comp.gate_inputs(0)[..2], [a.index(), b.index()]);
        assert_eq!(comp.node_level(comp.gate_output(0)), 1);
        assert_eq!(comp.node_fanout(a.index()), 2);
        assert!(comp.dff_data_nodes().is_empty());
        assert!(comp.dff_state_nodes().is_empty());
    }

    #[test]
    fn readers_are_one_per_pin_and_sit_above_the_driver() {
        // A gate reading one node on both pins, plus every standard
        // datapath (two of them clocked).
        let mut n = Netlist::new();
        let a = n.input("a");
        let x = n.gate(GateKind::Not, &[a]).unwrap();
        let y = n.gate(GateKind::And2, &[x, x]).unwrap();
        let _z = n.gate(GateKind::Xor2, &[y, a]).unwrap();
        let mut netlists = vec![n];
        netlists.extend(standard_targets(4).unwrap().into_iter().map(|t| t.netlist));
        for n in &netlists {
            let comp = CompiledNetlist::compile(n).unwrap();
            let mut driver = vec![None; comp.node_count()];
            for p in 0..comp.gate_count() {
                driver[comp.gate_output(p)] = Some(p);
            }
            for node in 0..comp.node_count() {
                let readers = comp.node_readers(node);
                for &r in readers {
                    let r = r as usize;
                    let pins = comp.gate_inputs(r)[..comp.gate_kind(r).arity()]
                        .iter()
                        .filter(|&&i| i == node)
                        .count();
                    assert!(pins > 0, "gate {r} does not read node {node}");
                    let entries = readers.iter().filter(|&&q| q as usize == r).count();
                    assert_eq!(entries, pins, "gate {r} on node {node}");
                    if let Some(d) = driver[node] {
                        assert!(r > d, "reader {r} not above driver {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn compile_refuses_a_combinational_cycle() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let fb = n.node("fb");
        let x = n.gate(GateKind::And2, &[a, fb]).unwrap();
        n.gate_into(GateKind::Not, &[x], fb).unwrap();
        assert_eq!(
            CompiledNetlist::compile(&n).unwrap_err(),
            CircuitError::Unlevelizable {
                reason: "combinational cycle"
            }
        );
    }

    #[test]
    fn compile_collects_and_names_every_refusal() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let fb = n.node("fb");
        let x = n.gate(GateKind::And2, &[a, fb]).unwrap();
        n.gate_into(GateKind::Not, &[x], fb).unwrap();
        // A second refusal alongside the cycle: a gate driving a
        // primary input. One error must name both.
        n.gate_into(GateKind::Buf, &[fb], a).unwrap();
        match CompiledNetlist::compile(&n).unwrap_err() {
            CircuitError::UnlevelizableMany { reasons } => {
                assert_eq!(reasons.len(), 2, "{reasons:?}");
                assert!(reasons.iter().any(|r| r.contains("primary input 'a'")));
                assert!(reasons
                    .iter()
                    .any(|r| r.contains("combinational cycle") && r.contains("fb")));
            }
            other => panic!("expected UnlevelizableMany, got {other:?}"),
        }
    }

    #[test]
    fn campaign_validation_collects_multiple_issues() {
        // Register feedback AND a bridge fault: one refusal names both.
        let mut n = Netlist::new();
        let clk = n.input("clk");
        let a = n.input("a");
        let d = n.node("d");
        let q = n.gate(GateKind::Dff, &[clk, d]).unwrap();
        n.gate_into(GateKind::Not, &[q], d).unwrap();
        let y = n.gate(GateKind::And2, &[q, a]).unwrap();
        let target = Circuit {
            name: "feedback".into(),
            netlist: n,
            inputs: vec![a],
            outputs: vec![y],
            clock: Some(clk),
        };
        let faults = vec![GateFault::Bridge { a, b: y }];
        let mut src = PatternSource::random(1, 1).unwrap();
        let err = run_campaign(
            &target,
            &faults,
            &mut src,
            8,
            CampaignOptions {
                engine: Engine::Compiled,
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        match err {
            CircuitError::UnlevelizableMany { reasons } => {
                assert_eq!(reasons.len(), 2, "{reasons:?}");
                assert!(reasons
                    .iter()
                    .any(|r| r.contains("register-to-register feedback")));
                assert!(reasons.iter().any(|r| r.contains("bridge faults")));
            }
            other => panic!("expected UnlevelizableMany, got {other:?}"),
        }
    }

    #[test]
    fn compile_cuts_dff_loops() {
        // q feeding back through an inverter into d is fine to *compile*
        // (the Dff edge is cut); only the packed campaign path rejects
        // it as register-to-register feedback.
        let mut n = Netlist::new();
        let clk = n.input("clk");
        let d = n.node("d");
        let q = n.gate(GateKind::Dff, &[clk, d]).unwrap();
        n.gate_into(GateKind::Not, &[q], d).unwrap();
        let comp = CompiledNetlist::compile(&n).unwrap();
        assert_eq!(comp.dff_count(), 1);
        assert!(comp.state_feedback());
    }

    #[test]
    fn settle_vector_matches_the_event_simulator_including_x() {
        let mut n = Netlist::new();
        let adder = crate::adder::ripple_carry_adder(&mut n, 4).unwrap();
        let inputs = adder.input_nodes();
        let comp = CompiledNetlist::compile(&n).unwrap();
        let mut src = PatternSource::random(inputs.len(), 0xBEEF).unwrap();
        for round in 0..16 {
            let mut bits = src.next_pattern();
            // Poison a rotating subset of columns with X.
            for (j, b) in bits.iter_mut().enumerate() {
                if (j + round) % 3 == 0 {
                    *b = Bit::X;
                }
            }
            let packed = comp.settle_vector(&inputs, &bits).unwrap();
            let mut sim = Simulator::new(&n);
            sim.apply_vector(&inputs, &bits).unwrap();
            for node in n.node_ids() {
                assert_eq!(
                    packed[node.index()],
                    sim.value(node),
                    "node {} diverged on round {round}",
                    n.node_name(node)
                );
            }
        }
    }

    #[test]
    fn packed_campaign_matches_event_on_a_combinational_target() {
        let targets = standard_targets(4).unwrap();
        let adder = &targets[0];
        let mut faults = stuck_faults(adder);
        faults.push(GateFault::NodeStuckAt {
            node: NodeId(adder.netlist.node_count() + 7),
            value: Bit::One,
        });
        faults.push(GateFault::InputX { input_index: 999 });
        assert_eq!(
            outcomes(Engine::Compiled, adder, &faults, 100, 42),
            outcomes(Engine::Event, adder, &faults, 100, 42)
        );
    }

    #[test]
    fn packed_campaign_matches_event_on_a_clocked_target() {
        let targets = standard_targets(4).unwrap();
        let registers = targets.last().unwrap();
        assert!(registers.clock.is_some(), "expected the register target");
        let mut faults = stuck_faults(registers);
        // Clock-stuck faults exercise the no-edge state-X path.
        if let Some(clk) = registers.clock {
            faults.push(GateFault::NodeStuckAt {
                node: clk,
                value: Bit::Zero,
            });
            faults.push(GateFault::NodeStuckAt {
                node: clk,
                value: Bit::One,
            });
        }
        assert_eq!(
            outcomes(Engine::Compiled, registers, &faults, 70, 7),
            outcomes(Engine::Event, registers, &faults, 70, 7)
        );
    }

    #[test]
    fn packed_campaign_rejects_bridge_faults() {
        let targets = standard_targets(4).unwrap();
        let adder = &targets[0];
        let faults = vec![GateFault::Bridge {
            a: adder.inputs[0],
            b: adder.inputs[1],
        }];
        let mut src = PatternSource::random(adder.inputs.len(), 1).unwrap();
        let err = run_campaign(
            adder,
            &faults,
            &mut src,
            8,
            CampaignOptions {
                engine: Engine::Compiled,
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            CircuitError::Unlevelizable {
                reason: "bridge faults need the event engine"
            }
        );
    }

    #[test]
    fn packed_campaign_flushes_compiled_counters_and_drops_out() {
        let targets = standard_targets(8).unwrap();
        let adder = &targets[0];
        // A fault on the highest-index input's stuck value rarely reaches
        // every output; the frontier should die early at least once.
        let faults = stuck_faults(adder);
        let reg = lowvolt_obs::MetricsRegistry::new();
        let mut src = PatternSource::random(adder.inputs.len(), 3).unwrap();
        let run = run_campaign(
            adder,
            &faults,
            &mut src,
            130,
            CampaignOptions {
                engine: Engine::Compiled,
                recorder: &reg,
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(!run.interrupted());
        assert_eq!(reg.counter(names::COMPILED_WORDS), 3);
        assert!(reg.counter(names::COMPILED_GATE_EVALS) > 0);
        assert!(reg.counter(names::COMPILED_FAULT_DROPOUTS) > 0);
        assert_eq!(reg.counter(names::CAMPAIGN_TARGETS), 1);
        assert_eq!(reg.counter(names::CAMPAIGN_INJECTIONS), faults.len() as u64);
        assert_eq!(
            reg.counter(names::CAMPAIGN_VECTORS),
            130 * faults.len() as u64
        );
    }

    /// An observed output at level 1 (`y = a & b`) in front of a
    /// 32-gate inverter chain that reaches the other output, `z`. The
    /// clocked variant also captures the chain's midpoint in a
    /// flip-flop and folds it into `z`, so phase A has work too.
    fn deep_cone_target(clocked: bool) -> Circuit {
        let mut n = Netlist::new();
        let clk = clocked.then(|| n.input("clk"));
        let (a, b) = (n.input("a"), n.input("b"));
        let y = n.gate(GateKind::And2, &[a, b]).unwrap();
        let mut chain = vec![y];
        for _ in 0..32 {
            let prev = *chain.last().unwrap();
            chain.push(n.gate(GateKind::Not, &[prev]).unwrap());
        }
        let tail = chain[32];
        let z = match clk {
            Some(clk) => {
                let q = n.gate(GateKind::Dff, &[clk, chain[16]]).unwrap();
                n.gate(GateKind::Xor2, &[q, tail]).unwrap()
            }
            None => tail,
        };
        Circuit {
            name: "deep-cone".into(),
            netlist: n,
            inputs: vec![a, b],
            outputs: vec![y, z],
            clock: clk,
        }
    }

    /// `(gate_evals, detect_stops, fault_dropouts)` of a compiled
    /// campaign, and its outcomes.
    fn compiled_run(
        target: &Circuit,
        faults: &[GateFault],
        vectors: usize,
    ) -> ((u64, u64, u64), Vec<FaultOutcome>) {
        let reg = lowvolt_obs::MetricsRegistry::new();
        let mut src = PatternSource::random(target.inputs.len(), 11).unwrap();
        let options = CampaignOptions {
            engine: Engine::Compiled,
            recorder: &reg,
            ..CampaignOptions::default()
        };
        let run = run_campaign(target, faults, &mut src, vectors, options).unwrap();
        let counters = (
            reg.counter(names::COMPILED_GATE_EVALS),
            reg.counter(names::COMPILED_DETECT_STOPS),
            reg.counter(names::COMPILED_FAULT_DROPOUTS),
        );
        let outcomes = run.reports.into_iter().map(|r| r.unwrap().outcome);
        (counters, outcomes.collect())
    }

    #[test]
    fn a_detection_at_a_shallow_output_skips_the_deep_cone() {
        for clocked in [false, true] {
            let target = deep_cone_target(clocked);
            let comp = CompiledNetlist::compile(&target.netlist).unwrap();
            let golden = comp.gate_count() as u64 * if clocked { 2 } else { 1 };
            let stuck = |node: NodeId| GateFault::NodeStuckAt {
                node,
                value: Bit::Zero,
            };
            let (a, y) = (target.inputs[0], target.outputs[0]);
            // `a` stuck at 0 flips `y` in every lane where `a & b`: the
            // observed pass evaluates `y` and stops with the chain
            // still enqueued.
            let ((evals, stops, drops), out) = compiled_run(&target, &[stuck(a)], 64);
            assert_eq!(out, [FaultOutcome::Corrupted]);
            assert_eq!((stops, drops), (1, 0), "clocked {clocked}");
            let capture = if clocked { 17 } else { 0 };
            assert_eq!(evals, golden + capture + 1, "clocked {clocked}");
            // A fault seeded on the observed output itself stops before
            // evaluating anything.
            // Phase A still runs: it skips the forced `y` and evaluates
            // the chain up to the captured midpoint.
            let ((evals, stops, _), _) = compiled_run(&target, &[stuck(y)], 64);
            let capture = if clocked { 16 } else { 0 };
            assert_eq!((evals, stops), (golden + capture, 1), "clocked {clocked}");
            let faults = stuck_faults(&target);
            let packed = compiled_run(&target, &faults, 130).1;
            let event = outcomes(Engine::Event, &target, &faults, 130, 11);
            assert_eq!(packed, event, "clocked {clocked}");
        }
    }

    /// One work item runs every fault, and some stop with gates still
    /// enqueued; each later fault must still see an empty frontier and
    /// golden planes. Its outcome and work must equal a campaign of that
    /// fault alone.
    #[test]
    fn a_stopped_pass_leaves_nothing_for_the_next_fault() {
        for clocked in [false, true] {
            let target = deep_cone_target(clocked);
            let faults = stuck_faults(&target);
            let golden = compiled_run(&target, &[], 64).0 .0;
            let ((evals, stops, drops), out) = compiled_run(&target, &faults, 64);
            assert!(stops > 0, "clocked {clocked}");
            let mut sum = (golden, 0, 0);
            for (f, fault) in faults.iter().enumerate() {
                let ((e, s, d), alone) = compiled_run(&target, std::slice::from_ref(fault), 64);
                assert_eq!(alone[0], out[f], "{fault:?} clocked {clocked}");
                sum = (sum.0 + e - golden, sum.1 + s, sum.2 + d);
            }
            assert_eq!((evals, stops, drops), sum, "clocked {clocked}");
        }
    }

    #[test]
    fn packed_campaign_emits_compile_golden_and_fault_spans() {
        let targets = standard_targets(4).unwrap();
        let registers = targets.last().unwrap();
        let faults = stuck_faults(registers);
        let reg = lowvolt_obs::MetricsRegistry::new();
        let mut src = PatternSource::random(registers.inputs.len(), 5).unwrap();
        run_campaign(
            registers,
            &faults,
            &mut src,
            70,
            CampaignOptions {
                engine: Engine::Compiled,
                policy: ExecPolicy::with_threads(2),
                recorder: &reg,
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        let report = reg.snapshot();
        let nanos = |name: &str| {
            report
                .span(name)
                .unwrap_or_else(|| panic!("span {name} missing"))
                .total_nanos
        };
        assert!(nanos(names::SPAN_COMPILED_COMPILE) > 0);
        // The two children nest inside the run span.
        assert!(
            nanos(names::SPAN_CAMPAIGN_GOLDEN) + nanos(names::SPAN_CAMPAIGN_FAULTS)
                <= nanos(names::SPAN_CAMPAIGN_RUN)
        );
    }

    #[test]
    fn packed_activity_matches_event_on_a_glitch_free_chain() {
        // A buffer/inverter chain has single-path fanin everywhere, so the
        // event engine sees no glitches and the settled-α definitions
        // coincide exactly.
        let mut n = Netlist::new();
        let a = n.input("a");
        let b1 = n.gate(GateKind::Buf, &[a]).unwrap();
        let i1 = n.gate(GateKind::Not, &[b1]).unwrap();
        let _b2 = n.gate(GateKind::Buf, &[i1]).unwrap();
        let comp = CompiledNetlist::compile(&n).unwrap();
        let mut src_a = PatternSource::random(1, 77).unwrap();
        let mut src_b = PatternSource::random(1, 77).unwrap();
        let packed = comp
            .measure_activity(&n, lowvolt_obs::noop(), &mut src_a, &[a], 200, 10)
            .unwrap();
        let mut sim = Simulator::new(&n);
        let event = sim.measure_activity(&mut src_b, &[a], 200, 10).unwrap();
        for (p, e) in packed.entries().iter().zip(event.entries()) {
            assert_eq!(p.node, e.node);
            assert_eq!(p.rising, e.rising, "rising mismatch on {}", p.name);
            assert_eq!(p.falling, e.falling, "falling mismatch on {}", p.name);
        }
    }

    #[test]
    fn packed_activity_validates_like_the_event_engine() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let _x = n.gate(GateKind::Not, &[a]).unwrap();
        let comp = CompiledNetlist::compile(&n).unwrap();
        let mut src = PatternSource::random(1, 1).unwrap();
        assert_eq!(
            comp.measure_activity(&n, lowvolt_obs::noop(), &mut src, &[a], 5, 5)
                .unwrap_err(),
            CircuitError::InvalidStimulus {
                reason: "warmup must leave cycles to measure"
            }
        );
        let mut wide = PatternSource::random(2, 1).unwrap();
        assert!(matches!(
            comp.measure_activity(&n, lowvolt_obs::noop(), &mut wide, &[a], 5, 0)
                .unwrap_err(),
            CircuitError::WidthMismatch {
                what: "set_bus",
                ..
            }
        ));
    }
}
