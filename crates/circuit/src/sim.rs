//! Event-driven logic simulation with transition-activity extraction.
//!
//! The simulator advances a tick-based event queue with per-gate transport
//! delays: when a gate's input changes, the gate is evaluated against the
//! circuit state *at that instant* and the resulting value is scheduled
//! one gate delay later. Skewed input arrivals therefore produce real
//! output pulses — such as the carry-chain races of a ripple adder — which
//! propagate and are counted. This mirrors what the paper's switch-level
//! flow (IRSIM) measures: functional plus glitch transitions. Re-evaluations
//! within the same tick coalesce to the final value, so zero-width pulses
//! are never counted.
//!
//! # Watchdogs
//!
//! [`Simulator::settle_with_budget`] carries two layers of protection
//! against non-settling circuits. An *oscillation watchdog* periodically
//! fingerprints the complete simulation state (node values plus the
//! time-normalised pending event queue); because the simulator is
//! deterministic, a repeated fingerprint proves the circuit will cycle
//! forever and yields a diagnosed [`CircuitError::Oscillation`] naming the
//! still-ringing nodes. The event budget remains as a backstop for
//! circuits that merely converge too slowly, reported as the distinct
//! [`CircuitError::DidNotSettle`].
//!
//! # Fault hooks
//!
//! [`Simulator::force_node`] pins a node to a value that overrides every
//! driver (stuck-at faults), and [`Simulator::bridge_nodes`] shorts two
//! nodes together with an agree-or-X resolution rule (bridging faults /
//! drive fights). The [`crate::faults`] module builds campaign tooling on
//! top of these primitives.

use std::collections::HashMap;

use lowvolt_exec::CancelToken;
use lowvolt_obs::{names, span, Recorder};

use crate::activity::{ActivityReport, NodeActivity};
use crate::error::CircuitError;
use crate::logic::Bit;
use crate::netlist::{FanoutIndex, GateKind, Netlist, NodeId};
use crate::stimulus::PatternSource;

/// The gates scheduled for one tick: a bit per gate, a summary bit per
/// non-zero word (so a sparse tick of a large netlist skips empty
/// words), and the value most recently scheduled for each gate.
#[derive(Debug, Default)]
struct Tick {
    time: u64,
    words: Vec<u64>,
    summary: Vec<u64>,
    values: Vec<Bit>,
    /// Summary words below this one are zero.
    hint: usize,
}

impl Tick {
    fn new(gates: usize) -> Tick {
        let words = gates.div_ceil(64);
        Tick {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            values: vec![Bit::X; gates],
            ..Tick::default()
        }
    }

    fn set(&mut self, gate: usize, value: Bit) {
        let w = gate / 64;
        self.summary[w / 64] |= 1 << (w % 64);
        self.words[w] |= 1 << (gate % 64);
        self.values[gate] = value;
    }

    /// Removes and returns the lowest scheduled gate and its value.
    fn take_lowest(&mut self) -> Option<(u32, Bit)> {
        while *self.summary.get(self.hint)? == 0 {
            self.hint += 1;
        }
        let w = self.hint * 64 + self.summary[self.hint].trailing_zeros() as usize;
        let gate = w * 64 + self.words[w].trailing_zeros() as usize;
        self.words[w] &= self.words[w] - 1;
        if self.words[w] == 0 {
            self.summary[self.hint] &= self.summary[self.hint] - 1;
        }
        Some((gate as u32, self.values[gate]))
    }

    /// The scheduled `(time, gate, value)` updates, in gate order.
    fn scheduled(&self) -> impl Iterator<Item = (u64, u32, Bit)> + '_ {
        (0..self.values.len())
            .filter(|&g| self.words[g / 64] >> (g % 64) & 1 == 1)
            .map(|g| (self.time, g as u32, self.values[g]))
    }
}

/// The pending-event queue. Updates apply in `(time, gate)` order, and
/// updates scheduled for the same `(time, gate)` collapse into one
/// carrying the most recently scheduled value ("exactly one update per
/// gate per tick, final value wins"). A gate delay is at least one tick,
/// so nothing is scheduled into the tick being drained, and the pending
/// ticks are the few distinct `now + delay` values.
#[derive(Debug, Default)]
struct EventQueue {
    gates: usize,
    /// The tick being drained; its time is the current time.
    current: Tick,
    /// Later ticks with scheduled gates, in no particular order.
    later: Vec<Tick>,
    /// Drained ticks kept for reuse.
    spare: Vec<Tick>,
}

impl EventQueue {
    fn new(gates: usize) -> EventQueue {
        // The default current tick has no gates: time 0 is never scheduled.
        EventQueue {
            gates,
            ..EventQueue::default()
        }
    }

    fn is_empty(&self) -> bool {
        let current = &self.current.summary[self.current.hint..];
        self.later.is_empty() && current.iter().all(|&s| s == 0)
    }

    /// Schedules `gate` to take `value` at `time`, a tick after the one
    /// being drained.
    fn push(&mut self, time: u64, gate: u32, value: Bit) {
        debug_assert!(time > self.current.time, "gate delay below one tick");
        let i = match self.later.iter().position(|t| t.time == time) {
            Some(i) => i,
            None => {
                let mut tick = self.spare.pop().unwrap_or_else(|| Tick::new(self.gates));
                (tick.time, tick.hint) = (time, 0);
                self.later.push(tick);
                self.later.len() - 1
            }
        };
        self.later[i].set(gate as usize, value);
    }

    /// Pops the next `(time, gate)` update: its time, gate and value.
    fn pop(&mut self) -> Option<(u64, u32, Bit)> {
        loop {
            if let Some((gate, value)) = self.current.take_lowest() {
                return Some((self.current.time, gate, value));
            }
            let next = (0..self.later.len()).min_by_key(|&i| self.later[i].time)?;
            let drained = std::mem::replace(&mut self.current, self.later.swap_remove(next));
            if drained.values.len() == self.gates {
                self.spare.push(drained);
            }
        }
    }

    /// Every pending update as `(time, gate, value)`.
    fn pending(&self) -> impl Iterator<Item = (u64, u32, Bit)> + '_ {
        std::iter::once(&self.current)
            .chain(&self.later)
            .flat_map(Tick::scheduled)
    }
}

/// Gate data flattened for the simulation inner loop: fixed-size input
/// array (max arity is 3) instead of a heap `Vec` per gate, laid out
/// contiguously by gate id.
#[derive(Debug, Clone, Copy)]
struct FlatGate {
    kind: GateKind,
    inputs: [NodeId; 3],
    arity: u8,
    output: NodeId,
    delay: u32,
}

/// Default number of events [`Simulator::settle`] will process before
/// giving up on quiescence.
pub const DEFAULT_EVENT_BUDGET: usize = 4_000_000;

/// Minimum events processed before the oscillation watchdog starts
/// sampling state fingerprints. The effective warmup is the larger of
/// this floor and half the settle budget: a healthy-but-large settle
/// (deep carry chains, packed campaign fan-out) should never pay for
/// fingerprinting, while a genuine oscillation still leaves the second
/// half of the budget for the watchdog to catch the repeating state.
const WATCHDOG_WARMUP_EVENTS: usize = 1024;

/// Events between successive watchdog fingerprints once armed.
const WATCHDOG_SAMPLE_INTERVAL: usize = 64;

/// Maximum number of ringing-node names attached to an
/// [`CircuitError::Oscillation`] diagnosis.
const MAX_RINGING_NAMES: usize = 8;

/// Progress accounting for one [`Simulator::settle_with_budget`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SettleStats {
    /// Events processed during this settle.
    pub events: usize,
    /// Simulation ticks the circuit took to go quiescent.
    pub ticks: u64,
}

/// An event-driven simulator over a borrowed [`Netlist`].
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    /// CSR fanout adjacency, resolved once at construction.
    fanout: &'a FanoutIndex,
    /// Flattened gate table (see [`FlatGate`]), indexed by gate id.
    gates: Vec<FlatGate>,
    values: Vec<Bit>,
    /// Pending gate updates.
    queue: EventQueue,
    /// Entries scheduled so far (the `sim.heap.pushes` counter).
    seq: u64,
    time: u64,
    rising: Vec<u64>,
    falling: Vec<u64>,
    counting: bool,
    /// Stuck-at overrides: a `Some(v)` entry pins the node to `v`
    /// regardless of what its drivers compute.
    forced: Vec<Option<Bit>>,
    /// Shorted node pairs; disagreeing values resolve to [`Bit::X`].
    bridges: Vec<(usize, usize)>,
    /// Scratch buffer reused by every watchdog fingerprint
    /// ([`Simulator::state_signature`]): `(dt, gate, value)` rows
    /// collected from the queue, sorted in place. Reuse keeps the
    /// periodic sampling allocation-free after the first fingerprint.
    sig_scratch: Vec<(u64, u32, u8)>,
    /// Metrics sink; defaults to the zero-cost noop. The hot loop never
    /// touches it — locals are flushed once per settle.
    recorder: &'a dyn Recorder,
    /// Cooperative cancellation token, polled at the oscillation
    /// watchdog's sampling cadence. Defaults to the never-fired token,
    /// whose poll is a single relaxed load.
    cancel: &'a CancelToken,
    /// Value of `seq` at the last metrics flush, so heap pushes made
    /// between settles (stimulus scheduling) are attributed to the next
    /// settle instead of being lost.
    seq_flushed: u64,
}

/// Per-settle instrumentation locals, flushed to the recorder in one
/// batch whether the settle succeeds or errors.
#[derive(Debug, Default)]
struct SettleTally {
    events: usize,
    fingerprints: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with every node in the unknown state.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Simulator<'a> {
        let gates = netlist
            .gates()
            .iter()
            .map(|g| {
                let mut inputs = [NodeId(0); 3];
                for (slot, &n) in inputs.iter_mut().zip(g.inputs()) {
                    *slot = n;
                }
                FlatGate {
                    kind: g.kind,
                    inputs,
                    arity: g.inputs().len() as u8,
                    output: g.output,
                    delay: g.delay,
                }
            })
            .collect();
        Simulator {
            netlist,
            fanout: netlist.fanout_index(),
            gates,
            values: vec![Bit::X; netlist.node_count()],
            queue: EventQueue::new(netlist.gates().len()),
            seq: 0,
            time: 0,
            rising: vec![0; netlist.node_count()],
            falling: vec![0; netlist.node_count()],
            counting: false,
            forced: vec![None; netlist.node_count()],
            bridges: Vec::new(),
            sig_scratch: Vec::new(),
            recorder: lowvolt_obs::noop(),
            cancel: CancelToken::never(),
            seq_flushed: 0,
        }
    }

    /// Attaches a metrics recorder. Settles flush `sim.events.processed`,
    /// `sim.heap.pushes`, `sim.settle.iterations`, and
    /// `sim.watchdog.fingerprints`; [`Simulator::measure_activity`] adds
    /// `sim.alpha.nodes` and the per-net transition totals. All flushes
    /// happen at settle boundaries, so the event loop itself is
    /// identical with or without a live recorder.
    pub fn set_recorder(&mut self, rec: &'a dyn Recorder) {
        self.recorder = rec;
    }

    /// Attaches a cooperative cancellation token. Settles poll it on
    /// entry and at the oscillation watchdog's sampling cadence
    /// (every 64 events), failing with
    /// [`CircuitError::Cancelled`] once it fires — the hook the
    /// fault-tolerant execution layer uses to time out runaway items
    /// without killing their worker threads.
    pub fn set_cancel_token(&mut self, token: &'a CancelToken) {
        self.cancel = token;
    }

    /// Current simulation time in ticks.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Current value of a node ([`Bit::X`] for a foreign node id).
    #[must_use]
    pub fn value(&self, node: NodeId) -> Bit {
        self.values.get(node.index()).copied().unwrap_or(Bit::X)
    }

    /// Power-consuming (`0 → 1`) transitions recorded on a node while
    /// counting was enabled (zero for a foreign node id).
    #[must_use]
    pub fn rising_count(&self, node: NodeId) -> u64 {
        self.rising.get(node.index()).copied().unwrap_or(0)
    }

    /// `1 → 0` transitions recorded on a node while counting was enabled
    /// (zero for a foreign node id).
    #[must_use]
    pub fn falling_count(&self, node: NodeId) -> u64 {
        self.falling.get(node.index()).copied().unwrap_or(0)
    }

    /// Enables or disables transition counting (disabled initially so that
    /// power-up initialisation is excluded).
    pub fn set_counting(&mut self, on: bool) {
        self.counting = on;
    }

    /// Clears all transition counters.
    pub fn reset_counters(&mut self) {
        self.rising.fill(0);
        self.falling.fill(0);
    }

    /// Drives a node to a value at the current time, propagating to its
    /// fanout on subsequent [`Simulator::settle`]. A force on the node
    /// ([`Simulator::force_node`]) overrides the driven value.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if the node id is foreign.
    pub fn set_input(&mut self, node: NodeId, value: Bit) -> Result<(), CircuitError> {
        if node.index() >= self.values.len() {
            return Err(CircuitError::UnknownNode(node.index()));
        }
        let effective = self.forced[node.index()].unwrap_or(value);
        if self.values[node.index()] != effective {
            self.change_node(node, effective);
        }
        Ok(())
    }

    /// Drives a little-endian bus.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthMismatch`] if `bits.len() !=
    /// nodes.len()`, or [`CircuitError::UnknownNode`] for a foreign node.
    pub fn set_bus(&mut self, nodes: &[NodeId], bits: &[Bit]) -> Result<(), CircuitError> {
        if nodes.len() != bits.len() {
            return Err(CircuitError::WidthMismatch {
                what: "set_bus",
                expected: nodes.len(),
                got: bits.len(),
            });
        }
        for (&n, &b) in nodes.iter().zip(bits) {
            self.set_input(n, b)?;
        }
        Ok(())
    }

    /// Reads a little-endian bus as an integer; `None` if any bit is X.
    #[must_use]
    pub fn read_bus(&self, nodes: &[NodeId]) -> Option<u64> {
        let bits: Vec<Bit> = nodes.iter().map(|&n| self.value(n)).collect();
        crate::logic::value_of(&bits)
    }

    /// Pins `node` to `value`, overriding every driver — a stuck-at fault.
    /// The node transitions to `value` immediately and ignores all writes
    /// until [`Simulator::clear_force`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if the node id is foreign.
    pub fn force_node(&mut self, node: NodeId, value: Bit) -> Result<(), CircuitError> {
        if node.index() >= self.values.len() {
            return Err(CircuitError::UnknownNode(node.index()));
        }
        self.forced[node.index()] = Some(value);
        if self.values[node.index()] != value {
            self.change_node(node, value);
        }
        Ok(())
    }

    /// Removes a stuck-at force from a node. The node keeps its pinned
    /// value until a driver next evaluates.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if the node id is foreign.
    pub fn clear_force(&mut self, node: NodeId) -> Result<(), CircuitError> {
        match self.forced.get_mut(node.index()) {
            Some(slot) => {
                *slot = None;
                Ok(())
            }
            None => Err(CircuitError::UnknownNode(node.index())),
        }
    }

    /// Shorts two distinct nodes together — a bridging fault. At every
    /// [`Simulator::settle`], once events drain, any bridged pair left
    /// disagreeing resolves both sides to [`Bit::X`] (a sustained drive
    /// fight); pairs that settle to agreeing values pass through
    /// unchanged, so transient skew across the bridge is not a fight.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] for a foreign node id, or
    /// [`CircuitError::InvalidStimulus`] if `a == b`.
    pub fn bridge_nodes(&mut self, a: NodeId, b: NodeId) -> Result<(), CircuitError> {
        for n in [a, b] {
            if n.index() >= self.values.len() {
                return Err(CircuitError::UnknownNode(n.index()));
            }
        }
        if a == b {
            return Err(CircuitError::InvalidStimulus {
                reason: "cannot bridge a node to itself",
            });
        }
        self.bridges.push((a.index(), b.index()));
        Ok(())
    }

    /// Removes all forces and bridges (the fault-free configuration).
    pub fn clear_faults(&mut self) {
        self.forced.fill(None);
        self.bridges.clear();
    }

    /// Processes events until the circuit is quiescent, returning how many
    /// events and ticks the settle consumed.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Oscillation`] when the watchdog proves the
    /// circuit revisits an earlier state (a combinational loop ringing
    /// forever), [`CircuitError::DidNotSettle`] if `budget` events are
    /// exhausted without either quiescence or a proof of cycling, or
    /// [`CircuitError::Cancelled`] when an attached cancellation token
    /// ([`Simulator::set_cancel_token`]) fires mid-settle.
    pub fn settle_with_budget(&mut self, budget: usize) -> Result<SettleStats, CircuitError> {
        let timer = span(self.recorder, names::SPAN_SIM_SETTLE);
        let mut tally = SettleTally::default();
        let result = self.settle_inner(budget, &mut tally);
        drop(timer);
        if self.recorder.is_enabled() {
            self.recorder.add(names::SIM_SETTLE_ITERATIONS, 1);
            self.recorder
                .add(names::SIM_EVENTS_PROCESSED, tally.events as u64);
            self.recorder
                .add(names::SIM_HEAP_PUSHES, self.seq - self.seq_flushed);
            self.seq_flushed = self.seq;
            self.recorder
                .add(names::SIM_WATCHDOG_FINGERPRINTS, tally.fingerprints);
        }
        result
    }

    fn settle_inner(
        &mut self,
        budget: usize,
        tally: &mut SettleTally,
    ) -> Result<SettleStats, CircuitError> {
        let start_time = self.time;
        let mut spent = 0usize;
        let mut seen: HashMap<(u64, u64), usize> = HashMap::new();
        loop {
            // Polled once per drain pass (covers settle entry and every
            // bridge-resolution round) and every sample interval inside
            // the event loop below.
            if self.cancel.is_cancelled() {
                tally.events = spent;
                return Err(CircuitError::Cancelled {
                    after_events: spent,
                });
            }
            // Each pop is one (time, gate) update: its value is the final
            // same-tick re-evaluation, so exactly one update per gate per
            // tick is applied.
            while let Some((t, g, new_value)) = self.queue.pop() {
                self.time = t;
                spent += 1;
                if spent > budget {
                    tally.events = spent;
                    return Err(CircuitError::DidNotSettle {
                        event_budget: budget,
                    });
                }
                let output = self.gates.get(g as usize).map(|gate| gate.output).ok_or(
                    CircuitError::Internal {
                        detail: "pending event names a foreign gate",
                    },
                )?;
                if self.values[output.index()] != new_value {
                    self.change_node(output, new_value);
                }
                if spent.is_multiple_of(WATCHDOG_SAMPLE_INTERVAL) && self.cancel.is_cancelled() {
                    tally.events = spent;
                    return Err(CircuitError::Cancelled {
                        after_events: spent,
                    });
                }
                if spent >= WATCHDOG_WARMUP_EVENTS.max(budget / 2)
                    && spent.is_multiple_of(WATCHDOG_SAMPLE_INTERVAL)
                    && !self.queue.is_empty()
                {
                    tally.fingerprints += 1;
                    let sig = self.state_signature();
                    if let Some(&earlier) = seen.get(&sig) {
                        tally.events = spent;
                        return Err(CircuitError::Oscillation {
                            period_events: spent - earlier,
                            ringing: self.ringing_nodes(),
                        });
                    }
                    seen.insert(sig, spent);
                }
            }
            // Events drained: resolve bridging faults on the settled state.
            // A disagreement X-es both sides and schedules their fanout, so
            // keep draining; a circuit that bounces between bridge resolution
            // and re-evaluation revisits a state and is caught as an
            // oscillation.
            if !self.resolve_bridges_settled() {
                break;
            }
            tally.fingerprints += 1;
            let sig = self.state_signature();
            if let Some(&earlier) = seen.get(&sig) {
                tally.events = spent;
                return Err(CircuitError::Oscillation {
                    period_events: spent.saturating_sub(earlier).max(1),
                    ringing: self.ringing_nodes(),
                });
            }
            seen.insert(sig, spent);
        }
        tally.events = spent;
        Ok(SettleStats {
            events: spent,
            ticks: self.time.saturating_sub(start_time),
        })
    }

    /// [`Simulator::settle_with_budget`] with [`DEFAULT_EVENT_BUDGET`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Oscillation`] or
    /// [`CircuitError::DidNotSettle`] on non-settling circuits.
    pub fn settle(&mut self) -> Result<SettleStats, CircuitError> {
        self.settle_with_budget(DEFAULT_EVENT_BUDGET)
    }

    /// Applies one input vector and settles the circuit — one "cycle" of a
    /// combinational activity measurement.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthMismatch`] if the vector width
    /// mismatches `inputs`, or any settle-time error (oscillation, budget
    /// exhaustion).
    pub fn apply_vector(
        &mut self,
        inputs: &[NodeId],
        bits: &[Bit],
    ) -> Result<SettleStats, CircuitError> {
        self.set_bus(inputs, bits)?;
        self.settle()
    }

    /// Runs the paper's §5.3 activity-measurement flow: applies `cycles`
    /// pattern vectors to `inputs`, discarding the first `warmup` cycles,
    /// and returns the per-node transition report.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidStimulus`] if `warmup >= cycles`,
    /// [`CircuitError::WidthMismatch`] if the source width mismatches the
    /// input count, or any settle-time error.
    pub fn measure_activity(
        &mut self,
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
        let timer = span(self.recorder, names::SPAN_SIM_MEASURE_ACTIVITY);
        self.set_counting(false);
        self.reset_counters();
        for _ in 0..warmup {
            let v = source.next_pattern();
            self.apply_vector(inputs, &v)?;
        }
        self.set_counting(true);
        let measured = cycles - warmup;
        for _ in 0..measured {
            let v = source.next_pattern();
            self.apply_vector(inputs, &v)?;
        }
        self.set_counting(false);
        let entries: Vec<NodeActivity> = self
            .netlist
            .node_ids()
            .map(|n| NodeActivity {
                node: n,
                name: self.netlist.node_name(n).to_string(),
                rising: self.rising_count(n),
                falling: self.falling_count(n),
                capacitance: self.netlist.node_capacitance(n),
                is_primary_input: self.netlist.is_primary_input(n),
            })
            .collect();
        drop(timer);
        if self.recorder.is_enabled() {
            let internal = entries.iter().filter(|e| !e.is_primary_input).count();
            self.recorder.add(names::SIM_ALPHA_NODES, internal as u64);
            self.recorder.add(
                names::SIM_TRANSITIONS_RISING,
                entries.iter().map(|e| e.rising).sum(),
            );
            self.recorder.add(
                names::SIM_TRANSITIONS_FALLING,
                entries.iter().map(|e| e.falling).sum(),
            );
        }
        Ok(ActivityReport::new(entries, measured as u64))
    }

    fn change_node(&mut self, node: NodeId, value: Bit) {
        let value = self.forced[node.index()].unwrap_or(value);
        let old = self.values[node.index()];
        if old == value {
            return;
        }
        self.values[node.index()] = value;
        if self.counting {
            match (old, value) {
                (Bit::Zero, Bit::One) => self.rising[node.index()] += 1,
                (Bit::One, Bit::Zero) => self.falling[node.index()] += 1,
                _ => {}
            }
        }
        for &g in self.fanout.fanout(node.index()) {
            let gate = self.gates[g.index()];
            let fire_at = self.time + u64::from(gate.delay);
            if gate.kind == GateKind::Dff {
                // Only a clean rising clock edge captures data.
                if gate.inputs[0] == node && old == Bit::Zero && value == Bit::One {
                    let captured = self.values[gate.inputs[1].index()];
                    self.schedule(fire_at, g.index(), captured);
                }
            } else {
                // Inputs gathered into a stack array: no per-event heap
                // allocation in the hot loop (max arity is 3).
                let arity = usize::from(gate.arity);
                let mut inputs = [Bit::X; 3];
                for (slot, &n) in inputs.iter_mut().zip(&gate.inputs[..arity]) {
                    *slot = self.values[n.index()];
                }
                let evaluated = gate.kind.evaluate(&inputs[..arity]);
                self.schedule(fire_at, g.index(), evaluated);
            }
        }
    }

    /// Applies drive-fight resolution to every bridged pair on the settled
    /// state; returns whether anything changed (scheduling new events).
    fn resolve_bridges_settled(&mut self) -> bool {
        let mut changed = false;
        let pairs = self.bridges.clone();
        for (a, b) in pairs {
            if self.values[a] != self.values[b] {
                self.resolve_bridge(a, b);
                changed = true;
            }
        }
        changed
    }

    /// Applies the bridge resolution rule to a shorted pair: disagreeing
    /// values drive both nodes to X. Monotone toward X, so the recursion
    /// through `change_node` terminates.
    fn resolve_bridge(&mut self, a: usize, b: usize) {
        let (va, vb) = (self.values[a], self.values[b]);
        if va != vb {
            if va != Bit::X {
                self.change_node(NodeId(a), Bit::X);
            }
            if vb != Bit::X {
                self.change_node(NodeId(b), Bit::X);
            }
        }
    }

    fn schedule(&mut self, time: u64, gate: usize, value: Bit) {
        self.seq += 1;
        self.queue.push(time, gate as u32, value);
    }

    /// 128-bit FNV-1a fingerprint of the complete simulation state: node
    /// values plus the pending queue with event times normalised to the
    /// current tick. Two equal fingerprints (collisions aside) mean the
    /// deterministic simulation must repeat forever.
    ///
    /// Pending rows (one per `(dt, gate)`, carrying the value that will
    /// stand) are sorted into `(dt, gate)` order in the reused scratch
    /// buffer before hashing. The schedule counter never enters the hash
    /// (it grows forever and would mask revisited states).
    fn state_signature(&mut self) -> (u64, u64) {
        let now = self.time;
        self.sig_scratch.clear();
        self.sig_scratch.extend(
            self.queue
                .pending()
                .map(|(t, g, v)| (t.saturating_sub(now), g, v as u8)),
        );
        self.sig_scratch.sort_unstable();
        let mut h1 = Fnv1a::new(0xcbf2_9ce4_8422_2325);
        let mut h2 = Fnv1a::new(0x6c62_272e_07bb_0142);
        for &v in &self.values {
            let byte = v as u8;
            h1.write_u8(byte);
            h2.write_u8(byte);
        }
        for &(dt, g, v) in &self.sig_scratch {
            for h in [&mut h1, &mut h2] {
                h.write_u64(dt);
                h.write_u64(u64::from(g));
                h.write_u8(v);
            }
        }
        (h1.finish(), h2.finish())
    }

    /// Names of nodes with still-pending updates, for oscillation
    /// diagnostics (deduplicated, capped, sorted). Only called on the
    /// error path, so this is the one place node names are materialised.
    fn ringing_nodes(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .queue
            .pending()
            .filter_map(|(_, g, _)| self.gates.get(g as usize))
            .map(|gate| self.netlist.node_name(gate.output).to_string())
            .collect();
        names.sort_unstable();
        names.dedup();
        names.truncate(MAX_RINGING_NAMES);
        names
    }
}

/// Minimal FNV-1a hasher with a selectable offset basis, used for the
/// oscillation watchdogs' dual state fingerprints (here and in
/// [`crate::switchlevel`]).
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new(basis: u64) -> Fnv1a {
        Fnv1a(basis)
    }

    pub(crate) fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::bits_of;
    use crate::netlist::{GateKind, Netlist};

    #[test]
    fn inverter_chain_propagates() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let y1 = n.gate(GateKind::Not, &[a]).unwrap();
        let y2 = n.gate(GateKind::Not, &[y1]).unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_input(a, Bit::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.value(y1), Bit::One);
        assert_eq!(sim.value(y2), Bit::Zero);
        let t0 = sim.time();
        sim.set_input(a, Bit::One).unwrap();
        let stats = sim.settle().unwrap();
        assert_eq!(sim.value(y2), Bit::One);
        // Two gate delays elapse between the edge and quiescence.
        assert_eq!(sim.time() - t0, 2);
        assert_eq!(stats.ticks, 2);
        assert_eq!(stats.events, 2);
    }

    #[test]
    fn unknowns_resolve_after_driving() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.gate(GateKind::Nand2, &[a, b]).unwrap();
        let mut sim = Simulator::new(&n);
        assert_eq!(sim.value(y), Bit::X);
        // A dominant zero resolves the output even with b unknown.
        sim.set_input(a, Bit::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Bit::One);
    }

    #[test]
    fn transition_counting_rising_only_when_enabled() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let y = n.gate(GateKind::Buf, &[a]).unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_input(a, Bit::Zero).unwrap();
        sim.settle().unwrap();
        // Not counting yet.
        assert_eq!(sim.rising_count(y), 0);
        sim.set_counting(true);
        for _ in 0..3 {
            sim.set_input(a, Bit::One).unwrap();
            sim.settle().unwrap();
            sim.set_input(a, Bit::Zero).unwrap();
            sim.settle().unwrap();
        }
        assert_eq!(sim.rising_count(y), 3);
        assert_eq!(sim.falling_count(y), 3);
        assert_eq!(sim.rising_count(a), 3);
        sim.reset_counters();
        assert_eq!(sim.rising_count(y), 0);
    }

    #[test]
    fn glitch_propagates_through_unequal_paths() {
        // y = a AND (NOT a through two inverters) — a static-1 hazard:
        // a rising edge reaches the AND directly one tick before the
        // inverted-path change arrives, producing a real glitch.
        let mut n = Netlist::new();
        let a = n.input("a");
        let inv1 = n.gate(GateKind::Not, &[a]).unwrap();
        let y = n.gate(GateKind::And2, &[a, inv1]).unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_input(a, Bit::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Bit::Zero);
        sim.set_counting(true);
        sim.set_input(a, Bit::One).unwrap();
        sim.settle().unwrap();
        // Final value is 0 (a AND !a), but a glitch pulsed high.
        assert_eq!(sim.value(y), Bit::Zero);
        assert_eq!(sim.rising_count(y), 1, "hazard glitch must be counted");
        assert_eq!(sim.falling_count(y), 1);
    }

    #[test]
    fn dff_captures_on_rising_edge_only() {
        let mut n = Netlist::new();
        let clk = n.input("clk");
        let d = n.input("d");
        let q = n.gate(GateKind::Dff, &[clk, d]).unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_input(clk, Bit::Zero).unwrap();
        sim.set_input(d, Bit::One).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.value(q), Bit::X, "no edge yet");
        // Falling D after the fact must not matter: capture is edge-timed.
        sim.set_input(clk, Bit::One).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.value(q), Bit::One);
        sim.set_input(clk, Bit::Zero).unwrap();
        sim.set_input(d, Bit::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.value(q), Bit::One, "q holds between edges");
        sim.set_input(clk, Bit::One).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.value(q), Bit::Zero);
    }

    #[test]
    fn ring_of_inverters_diagnosed_as_oscillation() {
        let mut n = Netlist::new();
        let a = n.node("loop");
        let y1 = n.gate(GateKind::Not, &[a]).unwrap();
        let y2 = n.gate(GateKind::Not, &[y1]).unwrap();
        let y3 = n.gate(GateKind::Not, &[y2]).unwrap();
        n.gate_into(GateKind::Buf, &[y3], a).unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_input(a, Bit::Zero).unwrap();
        let err = sim.settle_with_budget(100_000).unwrap_err();
        match err {
            CircuitError::Oscillation {
                period_events,
                ringing,
            } => {
                assert!(period_events > 0);
                assert!(!ringing.is_empty(), "diagnosis should name ringing nodes");
            }
            other => panic!("expected Oscillation, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_stays_disarmed_through_long_healthy_settles() {
        use lowvolt_obs::MetricsRegistry;
        // A 2000-buffer chain settles in well over WATCHDOG_WARMUP_EVENTS
        // events but far under half the default budget, so the delayed
        // arming must take zero fingerprints — large healthy settles pay
        // nothing for the oscillation watchdog.
        let reg = MetricsRegistry::new();
        let mut n = Netlist::new();
        let a = n.input("a");
        let mut node = a;
        for _ in 0..2000 {
            node = n.gate(GateKind::Buf, &[node]).unwrap();
        }
        let mut sim = Simulator::new(&n);
        sim.set_recorder(&reg);
        sim.set_input(a, Bit::Zero).unwrap();
        sim.settle().unwrap();
        sim.set_input(a, Bit::One).unwrap();
        sim.settle().unwrap();
        assert!(reg.counter(names::SIM_EVENTS_PROCESSED) > WATCHDOG_WARMUP_EVENTS as u64);
        assert_eq!(reg.counter(names::SIM_WATCHDOG_FINGERPRINTS), 0);
    }

    #[test]
    fn delayed_watchdog_still_diagnoses_oscillation_past_half_budget() {
        use lowvolt_obs::MetricsRegistry;
        // Fingerprinting now starts at max(warmup, budget / 2): the ring
        // must still be caught, and only after half the budget is spent.
        let reg = MetricsRegistry::new();
        let mut n = Netlist::new();
        let a = n.node("loop");
        let y1 = n.gate(GateKind::Not, &[a]).unwrap();
        let y2 = n.gate(GateKind::Not, &[y1]).unwrap();
        let y3 = n.gate(GateKind::Not, &[y2]).unwrap();
        n.gate_into(GateKind::Buf, &[y3], a).unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_recorder(&reg);
        sim.set_input(a, Bit::Zero).unwrap();
        let err = sim.settle_with_budget(100_000).unwrap_err();
        assert!(
            matches!(err, CircuitError::Oscillation { .. }),
            "got {err:?}"
        );
        assert!(reg.counter(names::SIM_EVENTS_PROCESSED) >= 50_000);
        assert!(reg.counter(names::SIM_WATCHDOG_FINGERPRINTS) > 0);
    }

    #[test]
    fn tiny_budget_still_reports_did_not_settle() {
        // With a budget below the watchdog warmup, the budget backstop
        // fires before any fingerprint is taken.
        let mut n = Netlist::new();
        let a = n.node("loop");
        let y1 = n.gate(GateKind::Not, &[a]).unwrap();
        n.gate_into(GateKind::Buf, &[y1], a).unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_input(a, Bit::Zero).unwrap();
        let err = sim.settle_with_budget(100).unwrap_err();
        assert!(matches!(
            err,
            CircuitError::DidNotSettle { event_budget: 100 }
        ));
    }

    #[test]
    fn cancelled_token_aborts_even_a_ring_oscillator() {
        // A ring oscillator never settles; a cancelled token must stop
        // it with Cancelled — not Oscillation, not budget exhaustion.
        let mut n = Netlist::new();
        let a = n.node("loop");
        let y1 = n.gate(GateKind::Not, &[a]).unwrap();
        let y2 = n.gate(GateKind::Not, &[y1]).unwrap();
        let y3 = n.gate(GateKind::Not, &[y2]).unwrap();
        n.gate_into(GateKind::Buf, &[y3], a).unwrap();
        let token = CancelToken::unbounded();
        token.cancel();
        let mut sim = Simulator::new(&n);
        sim.set_cancel_token(&token);
        sim.set_input(a, Bit::Zero).unwrap();
        let err = sim.settle_with_budget(100_000).unwrap_err();
        assert!(matches!(err, CircuitError::Cancelled { .. }), "got {err:?}");
    }

    #[test]
    fn unfired_token_changes_nothing() {
        let token = CancelToken::unbounded();
        let mut n = Netlist::new();
        let a = n.input("a");
        let y = n.gate(GateKind::Not, &[a]).unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_cancel_token(&token);
        sim.set_input(a, Bit::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Bit::One);
    }

    #[test]
    fn forced_node_overrides_drivers() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let y = n.gate(GateKind::Not, &[a]).unwrap();
        let z = n.gate(GateKind::Buf, &[y]).unwrap();
        let mut sim = Simulator::new(&n);
        sim.force_node(y, Bit::Zero).unwrap();
        sim.set_input(a, Bit::Zero).unwrap();
        sim.settle().unwrap();
        // NOT(0) = 1, but y is stuck at 0 and that propagates.
        assert_eq!(sim.value(y), Bit::Zero);
        assert_eq!(sim.value(z), Bit::Zero);
        sim.clear_force(y).unwrap();
        sim.set_input(a, Bit::One).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Bit::Zero, "NOT(1) = 0 after release");
        sim.set_input(a, Bit::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Bit::One, "driver regains control");
    }

    #[test]
    fn bridged_nodes_fight_to_x() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let ya = n.gate(GateKind::Buf, &[a]).unwrap();
        let yb = n.gate(GateKind::Buf, &[b]).unwrap();
        let out = n.gate(GateKind::And2, &[ya, yb]).unwrap();
        let mut sim = Simulator::new(&n);
        sim.bridge_nodes(ya, yb).unwrap();
        sim.set_input(a, Bit::One).unwrap();
        sim.set_input(b, Bit::One).unwrap();
        sim.settle().unwrap();
        // Agreeing values survive the bridge.
        assert_eq!(sim.value(out), Bit::One);
        sim.set_input(b, Bit::Zero).unwrap();
        sim.settle().unwrap();
        // Drive fight: both shorted nodes go X.
        assert_eq!(sim.value(ya), Bit::X);
        assert_eq!(sim.value(yb), Bit::X);
        assert_eq!(sim.value(out), Bit::X);
        assert!(matches!(
            sim.bridge_nodes(ya, ya),
            Err(CircuitError::InvalidStimulus { .. })
        ));
    }

    #[test]
    fn bus_helpers_roundtrip() {
        let mut n = Netlist::new();
        let bus: Vec<_> = (0..4).map(|i| n.input(format!("b{i}"))).collect();
        let mut sim = Simulator::new(&n);
        sim.set_bus(&bus, &bits_of(0b1010, 4)).unwrap();
        assert_eq!(sim.read_bus(&bus), Some(0b1010));
        assert!(matches!(
            sim.set_bus(&bus, &bits_of(0, 3)),
            Err(CircuitError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn measure_activity_excludes_warmup() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let _y = n.gate(GateKind::Not, &[a]).unwrap();
        let mut sim = Simulator::new(&n);
        let mut src = PatternSource::counting(1, 0).unwrap(); // a toggles 0,1,0,1,…
        let report = sim.measure_activity(&mut src, &[a], 10, 2).unwrap();
        assert_eq!(report.cycles(), 8);
        // Toggling input rises every other cycle: 4 rising edges in 8.
        let a_entry = report.entry(a).unwrap();
        assert_eq!(a_entry.rising, 4);
    }

    #[test]
    fn recorder_flushes_settle_counters() {
        use lowvolt_obs::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let mut n = Netlist::new();
        let a = n.input("a");
        let y1 = n.gate(GateKind::Not, &[a]).unwrap();
        let _y2 = n.gate(GateKind::Not, &[y1]).unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_recorder(&reg);
        sim.set_input(a, Bit::Zero).unwrap();
        let s1 = sim.settle().unwrap();
        sim.set_input(a, Bit::One).unwrap();
        let s2 = sim.settle().unwrap();
        assert_eq!(reg.counter(names::SIM_SETTLE_ITERATIONS), 2);
        assert_eq!(
            reg.counter(names::SIM_EVENTS_PROCESSED),
            (s1.events + s2.events) as u64
        );
        assert!(reg.counter(names::SIM_HEAP_PUSHES) >= reg.counter(names::SIM_EVENTS_PROCESSED));
        let snap = reg.snapshot();
        assert_eq!(snap.span(names::SPAN_SIM_SETTLE).map(|s| s.count), Some(2));
    }

    #[test]
    fn recorder_flushes_on_error_paths_too() {
        use lowvolt_obs::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let mut n = Netlist::new();
        let a = n.node("loop");
        let y1 = n.gate(GateKind::Not, &[a]).unwrap();
        n.gate_into(GateKind::Buf, &[y1], a).unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_recorder(&reg);
        sim.set_input(a, Bit::Zero).unwrap();
        let _ = sim.settle_with_budget(100_000).unwrap_err();
        assert!(reg.counter(names::SIM_EVENTS_PROCESSED) >= WATCHDOG_WARMUP_EVENTS as u64);
        assert!(reg.counter(names::SIM_WATCHDOG_FINGERPRINTS) > 0);
        assert_eq!(reg.counter(names::SIM_SETTLE_ITERATIONS), 1);
    }

    #[test]
    fn recorder_counts_activity_extraction() {
        use lowvolt_obs::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let mut n = Netlist::new();
        let a = n.input("a");
        let _y = n.gate(GateKind::Not, &[a]).unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_recorder(&reg);
        let mut src = PatternSource::counting(1, 0).unwrap();
        let report = sim.measure_activity(&mut src, &[a], 10, 2).unwrap();
        // One internal node (the inverter output).
        assert_eq!(reg.counter(names::SIM_ALPHA_NODES), 1);
        let total_rising: u64 = report.entries().iter().map(|e| e.rising).sum();
        assert_eq!(reg.counter(names::SIM_TRANSITIONS_RISING), total_rising);
        assert!(reg
            .snapshot()
            .span(names::SPAN_SIM_MEASURE_ACTIVITY)
            .is_some());
    }

    #[test]
    fn recorder_counters_are_deterministic_across_runs() {
        use lowvolt_obs::MetricsRegistry;
        let run = || {
            let reg = MetricsRegistry::new();
            let mut n = Netlist::new();
            let adder = crate::adder::ripple_carry_adder(&mut n, 8).unwrap();
            let inputs = adder.input_nodes();
            let mut sim = Simulator::new(&n);
            sim.set_recorder(&reg);
            let mut src = PatternSource::random(inputs.len(), 7).unwrap();
            sim.measure_activity(&mut src, &inputs, 64, 8).unwrap();
            (
                reg.counter(names::SIM_EVENTS_PROCESSED),
                reg.counter(names::SIM_HEAP_PUSHES),
                reg.counter(names::SIM_SETTLE_ITERATIONS),
                reg.counter(names::SIM_TRANSITIONS_RISING),
            )
        };
        let first = run();
        assert!(first.0 > 0);
        assert_eq!(first, run());
    }

    #[test]
    fn misuse_is_reported_not_panicked() {
        let n = Netlist::new();
        let mut sim = Simulator::new(&n);
        let ghost = NodeId(5);
        assert_eq!(sim.value(ghost), Bit::X);
        assert_eq!(sim.rising_count(ghost), 0);
        assert!(matches!(
            sim.set_input(ghost, Bit::One),
            Err(CircuitError::UnknownNode(5))
        ));
        assert!(matches!(
            sim.force_node(ghost, Bit::One),
            Err(CircuitError::UnknownNode(5))
        ));
        let mut src = PatternSource::counting(1, 0).unwrap();
        assert!(matches!(
            sim.measure_activity(&mut src, &[], 2, 2),
            Err(CircuitError::InvalidStimulus { .. })
        ));
    }

    /// The event queue against the ordering it must reproduce: a binary
    /// heap of `(time, gate, seq)` entries where each pop drains every
    /// entry of the same `(time, gate)` and keeps the newest value.
    /// Random interleavings of pushes (delays 1..=4 plus occasional long
    /// ones, gates spread past one summary word) and pops must yield the
    /// same updates in the same order, and the same pending set.
    #[test]
    fn event_queue_applies_updates_in_heap_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        const GATES: usize = 5000;
        let bits = [Bit::Zero, Bit::One, Bit::X];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut queue = EventQueue::new(GATES);
        let mut heap: BinaryHeap<Reverse<(u64, u32, u64, u8)>> = BinaryHeap::new();
        let (mut now, mut seq) = (0u64, 0u64);
        for step in 0..20_000 {
            if next(3) > 0 {
                let delay = match next(50) {
                    0 => 70 + next(200),
                    _ => 1 + next(4),
                };
                let gate = if next(4) == 0 {
                    next(GATES as u64)
                } else {
                    next(40)
                } as u32;
                let value = bits[next(3) as usize];
                seq += 1;
                queue.push(now + delay, gate, value);
                heap.push(Reverse((now + delay, gate, seq, value as u8)));
            } else {
                let expected = heap.pop().map(|Reverse((t, g, _, mut v))| {
                    while let Some(&Reverse((t2, g2, _, v2))) = heap.peek() {
                        if (t2, g2) != (t, g) {
                            break;
                        }
                        v = v2;
                        heap.pop();
                    }
                    (t, g, v)
                });
                let got = queue.pop().map(|(t, g, v)| (t, g, v as u8));
                assert_eq!(got, expected, "pop at step {step}");
                if let Some((t, _, _)) = got {
                    now = t;
                }
            }
            if step % 500 == 0 {
                let mut pending: Vec<(u64, u32, u8)> =
                    queue.pending().map(|(t, g, v)| (t, g, v as u8)).collect();
                pending.sort_unstable();
                let mut newest = std::collections::BTreeMap::new();
                for &Reverse((t, g, s, v)) in &heap {
                    let e = newest.entry((t, g)).or_insert((s, v));
                    if s > e.0 {
                        *e = (s, v);
                    }
                }
                let expected: Vec<(u64, u32, u8)> = newest
                    .into_iter()
                    .map(|((t, g), (_, v))| (t, g, v))
                    .collect();
                assert_eq!(pending, expected, "pending at step {step}");
                assert_eq!(queue.is_empty(), heap.is_empty());
            }
        }
    }
}
