//! Composable fault models and a fault-injection campaign runner.
//!
//! Low-voltage operation erodes noise margins, so the paper's design flow
//! implicitly assumes the simulation tools can tell a *broken* circuit
//! from a *slow* one. This module makes that assumption testable: it
//! defines structural fault models at both abstraction levels —
//! stuck-at/bridging faults on gate-level nodes and stuck-on/stuck-off
//! transistors at switch level — and one campaign runner,
//! [`run_campaign`], that sweeps a fault universe across a datapath on
//! either [`Engine`], classifying every injection as detected (the
//! simulator raised a typed error), corrupted (definite wrong outputs),
//! propagated-as-X, or masked.
//!
//! The campaign never panics: every failure mode surfaces as a
//! [`FaultOutcome::Detected`] or [`FaultOutcome::Errored`]
//! classification or a typed [`CircuitError`] from the runner itself.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::compiled::{CompiledNetlist, PackedCampaign};
use crate::error::CircuitError;
use crate::logic::Bit;
use crate::netlist::{Circuit, Netlist, NodeId};
use crate::sim::Simulator;
use crate::stimulus::PatternSource;
use crate::switchlevel::{SwNodeId, SwitchNetlist, SwitchSim};
use lowvolt_exec::{
    fnv64, parallel_map_isolated, run_checkpointed, ByteCache, CacheKey, CancelToken,
    CheckpointSpec, ExecError, ExecPolicy, FaultPolicy, ItemStatus,
};
use lowvolt_obs::{names, span, Recorder};

/// A structural fault injected into a gate-level simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateFault {
    /// A node pinned to a constant, overriding every driver. With
    /// [`Bit::X`] this models an unknown-injection fault.
    NodeStuckAt {
        /// The faulted node.
        node: NodeId,
        /// The pinned value.
        value: Bit,
    },
    /// Two nodes resistively shorted; whenever they disagree both read
    /// [`Bit::X`] (a drive fight).
    Bridge {
        /// One side of the short.
        a: NodeId,
        /// The other side.
        b: NodeId,
    },
    /// One stimulus column replaced by [`Bit::X`] on every vector — an
    /// undriven or marginal primary input.
    InputX {
        /// Index into the target's input list.
        input_index: usize,
    },
    /// One stimulus column inverted on every vector — a corrupted test
    /// harness or wiring swap.
    StimulusBitFlip {
        /// Index into the target's input list.
        input_index: usize,
    },
}

impl std::fmt::Display for GateFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateFault::NodeStuckAt { node, value } => {
                write!(f, "node {} stuck at {value}", node.index())
            }
            GateFault::Bridge { a, b } => {
                write!(f, "bridge between nodes {} and {}", a.index(), b.index())
            }
            GateFault::InputX { input_index } => write!(f, "input column {input_index} reads X"),
            GateFault::StimulusBitFlip { input_index } => {
                write!(f, "input column {input_index} inverted")
            }
        }
    }
}

/// A structural fault injected into a switch-level simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchFault {
    /// Transistor channel permanently conducting regardless of its gate.
    TransistorStuckOn {
        /// Index into [`SwitchNetlist::transistors`].
        index: usize,
    },
    /// Transistor channel permanently open regardless of its gate.
    TransistorStuckOff {
        /// Index into [`SwitchNetlist::transistors`].
        index: usize,
    },
    /// A node pinned to a constant, overriding drivers and charge.
    NodeStuckAt {
        /// The faulted node.
        node: SwNodeId,
        /// The pinned value.
        value: Bit,
    },
}

/// How a single fault injection played out, judged against the golden
/// (fault-free) run over the same stimulus.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultOutcome {
    /// The simulator itself refused the faulted circuit with a typed
    /// error — an oscillation, non-convergence, or floating node that the
    /// fault created and a watchdog caught.
    Detected(CircuitError),
    /// At least one observed output took a definite value different from
    /// the golden run: silent data corruption.
    Corrupted,
    /// No definite disagreement, but the fault reached an output as
    /// [`Bit::X`] where the golden run was definite.
    PropagatedAsX,
    /// Every observed output matched the golden run exactly.
    Masked,
    /// The injection's simulation itself failed at the execution layer —
    /// it panicked on every attempt or exhausted its per-item deadline —
    /// so no classification exists.
    Errored(ExecError),
}

impl FaultOutcome {
    /// Short classification label for report tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultOutcome::Detected(_) => "detected",
            FaultOutcome::Corrupted => "corrupted",
            FaultOutcome::PropagatedAsX => "propagated-as-X",
            FaultOutcome::Masked => "masked",
            FaultOutcome::Errored(_) => "errored",
        }
    }

    /// Severity rank used by [`FaultOutcome::merge`]; higher dominates.
    fn merge_rank(&self) -> u8 {
        match self {
            // A word-level execution failure leaves no classes for any
            // lane, so it dominates even detection (mirroring the packed
            // runner, which degrades the whole target to `Errored` when
            // any stimulus word exhausts its retries or deadline).
            FaultOutcome::Errored(_) => 5,
            FaultOutcome::Detected(CircuitError::UnknownNode(_)) => 4,
            FaultOutcome::Detected(_) => 3,
            FaultOutcome::Corrupted => 2,
            FaultOutcome::PropagatedAsX => 1,
            FaultOutcome::Masked => 0,
        }
    }

    /// Combines the outcomes of the *same* fault classified over two
    /// disjoint stimulus subsets (e.g. two shards of a campaign's vector
    /// range), returning what a single run over the union would report.
    ///
    /// The precedence mirrors the packed engine's per-word class fold,
    /// descending: `Errored`, `Detected(UnknownNode)`, `Detected(_)`,
    /// `Corrupted`, `PropagatedAsX`, `Masked`. The operation is
    /// associative and commutative (a max over a total order), which is
    /// exactly what makes shard-merged campaign results bit-identical
    /// to unsharded ones regardless of how the vector range was split.
    #[must_use]
    pub fn merge(self, other: FaultOutcome) -> FaultOutcome {
        if other.merge_rank() > self.merge_rank() {
            other
        } else {
            self
        }
    }
}

/// Result of one fault injection within a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// The injected fault.
    pub fault: GateFault,
    /// Its classified outcome.
    pub outcome: FaultOutcome,
}

/// Aggregated results of a fault campaign over one target.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Target name.
    pub target: String,
    /// Vectors applied per injection.
    pub vectors: usize,
    /// Per-fault classifications.
    pub reports: Vec<FaultReport>,
}

impl CampaignReport {
    /// Number of injected faults.
    #[must_use]
    pub fn faults(&self) -> usize {
        self.reports.len()
    }

    /// Count of outcomes with the given label.
    fn count(&self, label: &str) -> usize {
        self.reports
            .iter()
            .filter(|r| r.outcome.label() == label)
            .count()
    }

    /// Faults the simulator rejected with a typed error.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.count("detected")
    }

    /// Faults producing definite wrong outputs.
    #[must_use]
    pub fn corrupted(&self) -> usize {
        self.count("corrupted")
    }

    /// Faults reaching the outputs only as X.
    #[must_use]
    pub fn propagated_as_x(&self) -> usize {
        self.count("propagated-as-X")
    }

    /// Faults invisible at the observed outputs.
    #[must_use]
    pub fn masked(&self) -> usize {
        self.count("masked")
    }

    /// Injections whose simulation failed at the execution layer
    /// (panicked every attempt or timed out).
    #[must_use]
    pub fn errored(&self) -> usize {
        self.count("errored")
    }

    /// Fraction of faults that were observable (anything but masked);
    /// the campaign's coverage figure.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        1.0 - self.masked() as f64 / self.reports.len() as f64
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} faults x {} vectors",
            self.target,
            self.faults(),
            self.vectors
        )?;
        write!(
            f,
            "  detected {:4}  corrupted {:4}  propagated-as-X {:4}  masked {:4}  coverage {:.1}%",
            self.detected(),
            self.corrupted(),
            self.propagated_as_x(),
            self.masked(),
            self.coverage() * 100.0
        )?;
        if self.errored() > 0 {
            write!(f, "  errored {:4}", self.errored())?;
        }
        writeln!(f)
    }
}

/// The classical single-stuck-at fault universe: every node stuck at 0
/// and stuck at 1.
#[must_use]
pub fn stuck_at_universe(netlist: &Netlist) -> Vec<GateFault> {
    let mut out = Vec::with_capacity(netlist.node_count() * 2);
    for node in netlist.node_ids() {
        out.push(GateFault::NodeStuckAt {
            node,
            value: Bit::Zero,
        });
        out.push(GateFault::NodeStuckAt {
            node,
            value: Bit::One,
        });
    }
    out
}

/// Every transistor stuck on and stuck off — the switch-level analogue of
/// [`stuck_at_universe`].
#[must_use]
pub fn switch_stuck_universe(netlist: &SwitchNetlist) -> Vec<SwitchFault> {
    let mut out = Vec::with_capacity(netlist.transistor_count() * 2);
    for index in 0..netlist.transistor_count() {
        out.push(SwitchFault::TransistorStuckOn { index });
        out.push(SwitchFault::TransistorStuckOff { index });
    }
    out
}

/// Installs a switch-level fault into a live simulation.
///
/// # Errors
///
/// Returns [`CircuitError::UnknownGate`]/[`CircuitError::UnknownNode`]
/// for indices foreign to the simulated netlist, or any relaxation error
/// the installation itself triggers.
pub fn apply_switch_fault(sim: &mut SwitchSim<'_>, fault: SwitchFault) -> Result<(), CircuitError> {
    match fault {
        SwitchFault::TransistorStuckOn { index } => sim.set_transistor_stuck_on(index),
        SwitchFault::TransistorStuckOff { index } => sim.set_transistor_stuck_off(index),
        SwitchFault::NodeStuckAt { node, value } => sim.force_node(node, value),
    }
}

fn flip(bit: Bit) -> Bit {
    bit.not()
}

/// Applies `fault`'s stimulus-side corruption to one vector in place.
fn corrupt_vector(fault: &GateFault, bits: &mut [Bit]) -> Result<(), CircuitError> {
    match *fault {
        GateFault::InputX { input_index } => match bits.get_mut(input_index) {
            Some(slot) => {
                *slot = Bit::X;
                Ok(())
            }
            None => Err(CircuitError::InvalidStimulus {
                reason: "fault input index out of range",
            }),
        },
        GateFault::StimulusBitFlip { input_index } => match bits.get_mut(input_index) {
            Some(slot) => {
                *slot = flip(*slot);
                Ok(())
            }
            None => Err(CircuitError::InvalidStimulus {
                reason: "fault input index out of range",
            }),
        },
        GateFault::NodeStuckAt { .. } | GateFault::Bridge { .. } => Ok(()),
    }
}

/// Installs `fault`'s structural side into a fresh simulator.
fn install_fault(sim: &mut Simulator<'_>, fault: &GateFault) -> Result<(), CircuitError> {
    match *fault {
        GateFault::NodeStuckAt { node, value } => sim.force_node(node, value),
        GateFault::Bridge { a, b } => sim.bridge_nodes(a, b),
        GateFault::InputX { .. } | GateFault::StimulusBitFlip { .. } => Ok(()),
    }
}

/// Runs the target over `vectors`, returning the output trace, or the
/// first typed simulation error. The cancellation token is polled by
/// the simulator's watchdog loop; pass [`CancelToken::never`] for an
/// uncancellable run.
fn run_trace(
    target: &Circuit,
    vectors: &[Vec<Bit>],
    fault: Option<&GateFault>,
    rec: &dyn Recorder,
    cancel: &CancelToken,
) -> Result<Vec<Vec<Bit>>, CircuitError> {
    let mut sim = Simulator::new(&target.netlist);
    sim.set_recorder(rec);
    sim.set_cancel_token(cancel);
    if let Some(f) = fault {
        install_fault(&mut sim, f)?;
    }
    let mut trace = Vec::with_capacity(vectors.len());
    for vector in vectors {
        let mut bits = vector.clone();
        if let Some(f) = fault {
            corrupt_vector(f, &mut bits)?;
        }
        if let Some(clk) = target.clock {
            sim.set_input(clk, Bit::Zero)?;
            sim.set_bus(&target.inputs, &bits)?;
            sim.settle()?;
            sim.set_input(clk, Bit::One)?;
            sim.settle()?;
        } else {
            sim.apply_vector(&target.inputs, &bits)?;
        }
        trace.push(target.outputs.iter().map(|&n| sim.value(n)).collect());
    }
    Ok(trace)
}

/// Classifies a faulted output trace against the golden trace.
fn classify(golden: &[Vec<Bit>], faulty: &[Vec<Bit>]) -> FaultOutcome {
    let mut saw_x = false;
    for (g_row, f_row) in golden.iter().zip(faulty) {
        for (&g, &f) in g_row.iter().zip(f_row) {
            if g == f {
                continue;
            }
            if f.is_known() && g.is_known() {
                return FaultOutcome::Corrupted;
            }
            saw_x = true;
        }
    }
    if saw_x {
        FaultOutcome::PropagatedAsX
    } else {
        FaultOutcome::Masked
    }
}

/// Largest `vectors` a campaign accepts. The stimulus is expanded up
/// front, so the cap bounds the allocation an untrusted request can ask
/// for; it is far above anything the workloads use.
const MAX_CAMPAIGN_VECTORS: usize = 1 << 20;

/// Which simulation engine a fault campaign runs on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// The event-driven simulator: handles every circuit, one work item
    /// per injection.
    #[default]
    Event,
    /// The bit-parallel levelized engine (64 vectors per word). One work
    /// item is a (64-vector stimulus word, 1024-fault range) pair, so a
    /// target with at most 1024 faults has one item per word.
    Compiled,
}

impl Engine {
    /// Parses an engine name as the `--engine` flag and the `"engine"`
    /// job field spell it.
    ///
    /// # Errors
    ///
    /// Unknown names get a message listing the valid engines.
    pub fn parse(name: &str) -> Result<Engine, String> {
        match name {
            "event" => Ok(Engine::Event),
            "compiled" => Ok(Engine::Compiled),
            other => Err(format!("unknown engine `{other}` (event, compiled)")),
        }
    }

    /// Work items, and so checkpoint-journal records, in a campaign of
    /// `vectors` stimulus vectors over `faults` faults. Item `i` of the
    /// compiled engine is word `i / ranges` over fault range
    /// `i % ranges`. Saturates rather than overflowing.
    #[must_use]
    pub fn work_items(self, vectors: usize, faults: usize) -> u64 {
        match self {
            Engine::Event => faults as u64,
            Engine::Compiled => crate::compiled::packed_items(vectors, faults),
        }
    }

    /// What one work item is called in checkpoint and interruption text.
    #[must_use]
    pub fn work_unit(self) -> &'static str {
        match self {
            Engine::Event => "injection",
            Engine::Compiled => "work item",
        }
    }
}

/// Options for [`run_campaign`]. The default is the event engine on the
/// calling thread, no metrics, no retries or deadline, no cache and no
/// journal.
#[derive(Debug)]
pub struct CampaignOptions<'a> {
    /// Simulation engine.
    pub engine: Engine,
    /// Worker threads the work items are spread over.
    pub policy: ExecPolicy,
    /// Receives the `campaign.*` counters and spans, the `exec.*`
    /// region metrics, and the engine's own `sim.*` or `compiled.*`
    /// counters.
    pub recorder: &'a dyn Recorder,
    /// Retry and cooperative-deadline policy applied to every work item.
    pub fault: FaultPolicy,
    /// Golden-trace cache plus the stimulus seed that keys it; `None`
    /// recomputes the golden run unconditionally.
    pub cache: Option<(&'a ByteCache, u64)>,
    /// Checkpoint journal bookkeeping; `None` runs uncheckpointed.
    pub checkpoint: Option<CheckpointSpec<'a>>,
}

impl Default for CampaignOptions<'_> {
    fn default() -> Self {
        CampaignOptions {
            engine: Engine::Event,
            policy: ExecPolicy::serial(),
            recorder: lowvolt_obs::noop(),
            fault: FaultPolicy::default(),
            cache: None,
            checkpoint: None,
        }
    }
}

/// Result of a fault campaign: per-injection outcome slots (with `None`
/// where an interruption cap skipped the injection) plus replay/compute
/// accounting and non-fatal diagnostics.
#[derive(Debug)]
pub struct ResilientCampaign {
    /// Target name.
    pub target: String,
    /// Vectors applied per injection.
    pub vectors: usize,
    /// One slot per fault, in fault order; `None` only when the run was
    /// interrupted by [`CheckpointSpec::max_new_items`] before every
    /// work item the fault needs was done.
    pub reports: Vec<Option<FaultReport>>,
    /// Work items restored from the checkpoint journal without
    /// simulating.
    pub replayed: usize,
    /// Work items actually simulated this run.
    pub computed: usize,
    /// Work items skipped by the interruption cap.
    pub skipped: usize,
    /// Whether the golden trace came from the cache instead of a fresh
    /// simulation.
    pub golden_from_cache: bool,
    /// Non-fatal diagnostics: discarded journal tails, undecodable
    /// records, cache or journal write failures.
    pub warnings: Vec<String>,
}

impl ResilientCampaign {
    /// Whether the run stopped early and needs a resume pass to finish.
    #[must_use]
    pub fn interrupted(&self) -> bool {
        self.skipped > 0
    }

    /// Resolved faults whose outcome carries `label`
    /// ([`FaultOutcome::label`]).
    #[must_use]
    pub fn count(&self, label: &str) -> usize {
        self.reports
            .iter()
            .flatten()
            .filter(|r| r.outcome.label() == label)
            .count()
    }

    /// The completed run as a classic [`CampaignReport`]; `None` while
    /// any injection is still unexecuted.
    #[must_use]
    pub fn report(&self) -> Option<CampaignReport> {
        let reports: Option<Vec<FaultReport>> = self.reports.iter().cloned().collect();
        Some(CampaignReport {
            target: self.target.clone(),
            vectors: self.vectors,
            reports: reports?,
        })
    }
}

/// Content half of the golden-trace cache key: the netlist's structural
/// hash mixed with the observation interface (input/output/clock node
/// ids) and the expanded stimulus itself, so a cache entry can only hit
/// when the golden run it stores would be recomputed identically.
fn golden_cache_content(target: &Circuit, vecs: &[Vec<Bit>]) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&target.netlist.structural_hash().to_le_bytes());
    bytes.extend_from_slice(&(target.inputs.len() as u64).to_le_bytes());
    for n in &target.inputs {
        bytes.extend_from_slice(&(n.index() as u64).to_le_bytes());
    }
    bytes.extend_from_slice(&(target.outputs.len() as u64).to_le_bytes());
    for n in &target.outputs {
        bytes.extend_from_slice(&(n.index() as u64).to_le_bytes());
    }
    match target.clock {
        Some(clk) => {
            bytes.push(1);
            bytes.extend_from_slice(&(clk.index() as u64).to_le_bytes());
        }
        None => bytes.push(0),
    }
    bytes.extend_from_slice(&crate::persist::encode_trace(vecs));
    fnv64(&bytes)
}

/// Sweeps `faults` over `target`, applying the same `vectors`-long
/// stimulus to a golden run and to every injection, and classifies each
/// outcome on the engine `options` selects.
///
/// The work is split into the engine's work items (see
/// [`Engine::work_items`]) and spread over the policy's threads. Each
/// item runs under panic isolation with bounded retries and an optional
/// deadline; completed items stream into the checkpoint journal when
/// one is given, so a killed campaign resumes where it stopped; and the
/// golden trace is served from the cache when one is given. Both
/// engines share the cache entries, and a journal written by one engine
/// is not replayed by the other.
///
/// Determinism contract: `reports` are identical for either engine on
/// circuits both accept, for any thread count, and for an interrupted
/// run resumed to completion at any thread count — outcomes land at
/// their fault's index and journal replay keys on the item index. A
/// permanently failing item (panicking every attempt or exceeding its
/// deadline) degrades its faults to [`FaultOutcome::Errored`]; it never
/// aborts the campaign and is retried on resume rather than journaled.
///
/// Counters: `campaign.injections` counts faults resolved this run
/// (replayed or computed), `campaign.vectors` counts only vectors
/// actually simulated, and the outcome-class counters tally the
/// outcomes present in `reports` — so an interrupted run's counters
/// reflect what it really did. Every counter except `exec.chunks` is
/// the same for any thread count.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidStimulus`] if `vectors` is zero or
/// above 2^20, [`CircuitError::WidthMismatch`] if the stimulus width
/// mismatches the target's input count, or any error from the *golden*
/// run — a golden run that fails means the target, not the fault, is
/// broken. The compiled engine also refuses, with
/// [`CircuitError::Unlevelizable`], the shapes only the event engine can
/// simulate: combinational cycles, multiply-driven nodes, gated or
/// derived flip-flop clocks, register-to-register feedback, and bridge
/// faults. Faulted-run failures of any kind are classifications
/// ([`FaultOutcome::Detected`] or [`FaultOutcome::Errored`]), never
/// campaign failures.
pub fn run_campaign(
    target: &Circuit,
    faults: &[GateFault],
    stimulus: &mut PatternSource,
    vectors: usize,
    options: CampaignOptions<'_>,
) -> Result<ResilientCampaign, CircuitError> {
    if vectors == 0 {
        return Err(CircuitError::InvalidStimulus {
            reason: "campaign needs at least one vector",
        });
    }
    if vectors > MAX_CAMPAIGN_VECTORS {
        return Err(CircuitError::InvalidStimulus {
            reason: "campaign accepts at most 1048576 (2^20) vectors",
        });
    }
    if stimulus.width() != target.inputs.len() {
        return Err(CircuitError::WidthMismatch {
            what: "fault campaign stimulus",
            expected: target.inputs.len(),
            got: stimulus.width(),
        });
    }
    match options.engine {
        Engine::Event => {
            let engine = EventCampaign {
                target,
                faults,
                vectors,
                rec: options.recorder,
            };
            drive(&engine, target, faults, stimulus, vectors, options)
        }
        Engine::Compiled => {
            let comp = CompiledNetlist::for_campaign(options.recorder, target, faults)?;
            let engine = PackedCampaign::new(&comp, target, faults, vectors);
            drive(&engine, target, faults, stimulus, vectors, options)
        }
    }
}

/// What an engine supplies to [`run_campaign`]: its golden run, its
/// work items, how one item is simulated and journaled, and how item
/// records become per-fault outcomes. Validation, stimulus expansion,
/// the golden-trace cache, dispatch and the `campaign.*` counters are
/// the shared pipeline's.
pub(crate) trait CampaignEngine: Sync {
    /// The fault-free reference items are classified against.
    type Golden: Sync;
    /// One unit of parallel work and of checkpoint journaling.
    type Item: Clone + Sync;
    /// One item's result, as journaled.
    type Record: Send;

    /// Runs the fault-free simulation over the expanded stimulus
    /// `vecs`, keeping what the items need of it. `cached` is a golden
    /// output trace from the cache, already shape-checked, which the
    /// engine may use instead of simulating.
    fn golden(
        &self,
        vecs: Vec<Vec<Bit>>,
        cached: Option<Vec<Vec<Bit>>>,
    ) -> Result<Self::Golden, CircuitError>;

    /// The golden output trace to store in the cache.
    fn golden_trace<'g>(&self, golden: &'g Self::Golden) -> Cow<'g, [Vec<Bit>]>;

    /// The campaign's work items, in journal-index order.
    fn items(&self) -> Cow<'_, [Self::Item]>;

    /// Vectors one completed item simulated.
    fn item_vectors(&self, item: &Self::Item) -> u64;

    /// Simulates one item, polling `token` for its deadline.
    fn run_item(
        &self,
        golden: &Self::Golden,
        item: &Self::Item,
        token: &CancelToken,
    ) -> ItemStatus<Self::Record>;

    /// A record's journal payload.
    fn encode(record: &Self::Record) -> Vec<u8>;

    /// A journal payload back as `item`'s record; `None` recomputes it.
    fn decode(item: &Self::Item, bytes: &[u8]) -> Option<Self::Record>;

    /// Per-fault outcomes from the item slots, in fault order; `None`
    /// where a fault still waits on a skipped item. Lazy, so the
    /// reports are built without a second per-fault buffer.
    fn outcomes(
        &self,
        slots: Vec<Option<Result<Self::Record, ExecError>>>,
    ) -> impl Iterator<Item = Option<FaultOutcome>>;

    /// Flushes the engine's own counters.
    fn flush(&self, _rec: &dyn Recorder) {}
}

/// The event engine: one fresh simulator per injection, every vector
/// replayed, outcomes journaled per injection.
struct EventCampaign<'a> {
    target: &'a Circuit,
    faults: &'a [GateFault],
    vectors: usize,
    rec: &'a dyn Recorder,
}

impl CampaignEngine for EventCampaign<'_> {
    /// The stimulus every injection replays, and the golden output
    /// trace.
    type Golden = (Vec<Vec<Bit>>, Vec<Vec<Bit>>);
    type Item = GateFault;
    type Record = FaultOutcome;

    fn golden(
        &self,
        vecs: Vec<Vec<Bit>>,
        cached: Option<Vec<Vec<Bit>>>,
    ) -> Result<Self::Golden, CircuitError> {
        let trace = match cached {
            Some(trace) => trace,
            None => run_trace(self.target, &vecs, None, self.rec, CancelToken::never())?,
        };
        Ok((vecs, trace))
    }

    fn golden_trace<'g>(&self, (_, trace): &'g Self::Golden) -> Cow<'g, [Vec<Bit>]> {
        Cow::Borrowed(trace)
    }

    fn items(&self) -> Cow<'_, [GateFault]> {
        Cow::Borrowed(self.faults)
    }

    fn item_vectors(&self, _: &GateFault) -> u64 {
        self.vectors as u64
    }

    fn run_item(
        &self,
        (vecs, golden): &Self::Golden,
        fault: &GateFault,
        token: &CancelToken,
    ) -> ItemStatus<FaultOutcome> {
        match run_trace(self.target, vecs, Some(fault), self.rec, token) {
            Ok(trace) => ItemStatus::Done(classify(golden, &trace)),
            Err(CircuitError::Cancelled { .. }) if token.is_cancelled() => ItemStatus::TimedOut,
            Err(err) => ItemStatus::Done(FaultOutcome::Detected(err)),
        }
    }

    fn encode(outcome: &FaultOutcome) -> Vec<u8> {
        crate::persist::encode_outcome(outcome)
    }

    fn decode(_: &GateFault, bytes: &[u8]) -> Option<FaultOutcome> {
        crate::persist::decode_outcome(bytes)
    }

    fn outcomes(
        &self,
        slots: Vec<Option<Result<FaultOutcome, ExecError>>>,
    ) -> impl Iterator<Item = Option<FaultOutcome>> {
        slots
            .into_iter()
            .map(|slot| slot.map(|res| res.unwrap_or_else(FaultOutcome::Errored)))
    }
}

/// The engine-independent campaign pipeline behind [`run_campaign`],
/// run after the stimulus checks.
fn drive<E: CampaignEngine>(
    engine: &E,
    target: &Circuit,
    faults: &[GateFault],
    stimulus: &mut PatternSource,
    vectors: usize,
    options: CampaignOptions<'_>,
) -> Result<ResilientCampaign, CircuitError> {
    let CampaignOptions {
        policy,
        recorder: rec,
        fault,
        cache,
        checkpoint,
        ..
    } = options;
    let timer = span(rec, names::SPAN_CAMPAIGN_RUN);
    let mut warnings = Vec::new();
    let (golden, golden_from_cache) = {
        let _golden_timer = span(rec, names::SPAN_CAMPAIGN_GOLDEN);
        let vecs: Vec<Vec<Bit>> = (0..vectors).map(|_| stimulus.next_pattern()).collect();
        let key = cache.map(|(c, seed)| {
            (
                c,
                CacheKey {
                    content: golden_cache_content(target, &vecs),
                    seed,
                },
            )
        });
        let cached = key.and_then(|(c, k)| {
            let bytes = c.load(k, rec)?;
            match crate::persist::decode_trace(&bytes) {
                Some(trace)
                    if trace.len() == vectors
                        && trace.iter().all(|row| row.len() == target.outputs.len()) =>
                {
                    Some(trace)
                }
                _ => {
                    warnings.push(format!(
                        "golden-trace cache entry {} decoded to the wrong shape; recomputing",
                        k.file_name()
                    ));
                    None
                }
            }
        });
        let from_cache = cached.is_some();
        let golden = engine.golden(vecs, cached)?;
        if let (Some((c, k)), false) = (key, from_cache) {
            let trace = engine.golden_trace(&golden);
            if let Err(e) = c.store(k, &crate::persist::encode_trace(&trace)) {
                warnings.push(format!("golden-trace cache store failed: {e}"));
            }
        }
        (golden, from_cache)
    };
    let items = engine.items();
    let vectors_done = AtomicU64::new(0);
    let run_item = |_: usize, item: &E::Item, token: &CancelToken| {
        let status = engine.run_item(&golden, item, token);
        if matches!(status, ItemStatus::Done(_)) {
            vectors_done.fetch_add(engine.item_vectors(item), Ordering::Relaxed);
        }
        status
    };
    let faults_timer = span(rec, names::SPAN_CAMPAIGN_FAULTS);
    let (slots, replayed, computed, skipped) = match checkpoint {
        Some(spec) => {
            let out = run_checkpointed(
                &policy,
                &fault,
                rec,
                &items,
                spec,
                E::encode,
                E::decode,
                run_item,
            );
            warnings.extend(out.warnings);
            (out.results, out.replayed, out.computed, out.skipped)
        }
        None => {
            let res = parallel_map_isolated(&policy, &fault, rec, &items, run_item);
            let computed = res.len();
            (res.into_iter().map(Some).collect(), 0, computed, 0)
        }
    };
    drop(faults_timer);
    drop(timer);
    let reports = engine
        .outcomes(slots)
        .zip(faults)
        .map(|(outcome, f)| {
            outcome.map(|outcome| FaultReport {
                fault: f.clone(),
                outcome,
            })
        })
        .collect();
    let res = ResilientCampaign {
        target: target.name.clone(),
        vectors,
        reports,
        replayed,
        computed,
        skipped,
        golden_from_cache,
        warnings,
    };
    if rec.is_enabled() {
        let count = |label: &str| res.count(label) as u64;
        rec.add(names::CAMPAIGN_TARGETS, 1);
        rec.add(
            names::CAMPAIGN_INJECTIONS,
            res.reports.iter().flatten().count() as u64,
        );
        rec.add(
            names::CAMPAIGN_VECTORS,
            vectors_done.load(Ordering::Relaxed),
        );
        rec.add(names::CAMPAIGN_DETECTED, count("detected"));
        rec.add(names::CAMPAIGN_CORRUPTED, count("corrupted"));
        rec.add(names::CAMPAIGN_PROPAGATED_X, count("propagated-as-X"));
        rec.add(names::CAMPAIGN_MASKED, count("masked"));
        engine.flush(rec);
    }
    Ok(res)
}

/// Builds the five standard datapath targets at the given width: the
/// ripple-carry adder, barrel shifter, array multiplier, ALU, and a
/// clocked register bank.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidWidth`] if any generator rejects
/// `width`.
pub fn standard_targets(width: usize) -> Result<Vec<Circuit>, CircuitError> {
    let mut targets = Vec::with_capacity(5);

    let mut n = Netlist::new();
    let adder = crate::adder::ripple_carry_adder(&mut n, width)?;
    let mut outputs = adder.sum.clone();
    outputs.push(adder.cout);
    targets.push(Circuit {
        name: format!("adder{width}"),
        inputs: adder.input_nodes(),
        outputs,
        netlist: n,
        clock: None,
    });

    let mut n = Netlist::new();
    let shifter = crate::shifter::barrel_shifter_right(&mut n, width)?;
    targets.push(Circuit {
        name: format!("shifter{width}"),
        inputs: shifter.input_nodes(),
        outputs: shifter.out.clone(),
        netlist: n,
        clock: None,
    });

    let mut n = Netlist::new();
    let mult = crate::multiplier::array_multiplier(&mut n, width)?;
    targets.push(Circuit {
        name: format!("multiplier{width}"),
        inputs: mult.input_nodes(),
        outputs: mult.product.clone(),
        netlist: n,
        clock: None,
    });

    let mut n = Netlist::new();
    let alu = crate::alu::alu(&mut n, width)?;
    let mut outputs = alu.result.clone();
    outputs.push(alu.carry_out);
    targets.push(Circuit {
        name: format!("alu{width}"),
        inputs: alu.input_nodes(),
        outputs,
        netlist: n,
        clock: None,
    });

    let mut n = Netlist::new();
    let clk = n.input("clk");
    let d: Vec<NodeId> = (0..width).map(|i| n.input(format!("d{i}"))).collect();
    let q = crate::cells::register(&mut n, clk, &d)?;
    targets.push(Circuit {
        name: format!("registers{width}"),
        inputs: d,
        outputs: q,
        netlist: n,
        clock: Some(clk),
    });

    Ok(targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GateKind;
    use crate::switch_registers::{c2mos_register, clock_cycle};

    fn adder_target(width: usize) -> Circuit {
        standard_targets(width).unwrap().into_iter().next().unwrap()
    }

    /// A default-options campaign's completed report.
    fn campaign(
        target: &Circuit,
        faults: &[GateFault],
        stimulus: &mut PatternSource,
        vectors: usize,
    ) -> CampaignReport {
        run_campaign(
            target,
            faults,
            stimulus,
            vectors,
            CampaignOptions::default(),
        )
        .unwrap()
        .report()
        .unwrap()
    }

    #[test]
    fn outcome_merge_is_a_max_over_the_word_class_precedence() {
        let detected_unknown = || FaultOutcome::Detected(CircuitError::UnknownNode(3));
        let detected_stim = || {
            FaultOutcome::Detected(CircuitError::InvalidStimulus {
                reason: "fault input index out of range",
            })
        };
        let errored = || {
            FaultOutcome::Errored(ExecError::ItemPanicked {
                index: 0,
                attempts: 1,
                message: "boom".to_string(),
            })
        };
        // Ascending precedence; merge must pick the later element of any
        // pair, in either argument order.
        let ladder = [
            FaultOutcome::Masked,
            FaultOutcome::PropagatedAsX,
            FaultOutcome::Corrupted,
            detected_stim(),
            detected_unknown(),
            errored(),
        ];
        for (i, low) in ladder.iter().enumerate() {
            for high in &ladder[i..] {
                assert_eq!(
                    low.clone().merge(high.clone()).label(),
                    high.label(),
                    "{} vs {}",
                    low.label(),
                    high.label()
                );
                assert_eq!(
                    high.clone().merge(low.clone()).label(),
                    high.label(),
                    "commutativity: {} vs {}",
                    high.label(),
                    low.label()
                );
            }
        }
        // Within `Detected`, unknown-node dominates bad-input (the packed
        // fold checks the unknown-node class first).
        assert_eq!(
            detected_stim().merge(detected_unknown()),
            detected_unknown()
        );
        assert_eq!(
            FaultOutcome::Masked.merge(FaultOutcome::Masked),
            FaultOutcome::Masked
        );
    }

    #[test]
    fn recorded_campaign_counters_are_exact_and_thread_invariant() {
        use lowvolt_obs::MetricsRegistry;

        let target = adder_target(4);
        let faults = stuck_at_universe(&target.netlist);
        assert!(faults.len() > 4);

        let run = |threads: usize| {
            let reg = MetricsRegistry::new();
            let mut src = PatternSource::counting(target.inputs.len(), 1).unwrap();
            let options = CampaignOptions {
                policy: ExecPolicy::with_threads(threads),
                recorder: &reg,
                ..CampaignOptions::default()
            };
            let res = run_campaign(&target, &faults, &mut src, 6, options).unwrap();
            // Without a journal or cache every injection is computed
            // fresh and nothing is worth a warning.
            assert!(!res.interrupted());
            assert_eq!(res.replayed, 0);
            assert_eq!(res.computed, faults.len());
            assert!(!res.golden_from_cache);
            assert!(res.warnings.is_empty());
            (reg.snapshot(), res.report().unwrap())
        };

        let (snap1, report) = run(1);
        assert_eq!(snap1.counter(names::CAMPAIGN_TARGETS), 1);
        assert_eq!(
            snap1.counter(names::CAMPAIGN_INJECTIONS),
            faults.len() as u64
        );
        assert_eq!(
            snap1.counter(names::CAMPAIGN_VECTORS),
            (6 * faults.len()) as u64
        );
        let outcomes = snap1.counter(names::CAMPAIGN_DETECTED)
            + snap1.counter(names::CAMPAIGN_CORRUPTED)
            + snap1.counter(names::CAMPAIGN_PROPAGATED_X)
            + snap1.counter(names::CAMPAIGN_MASKED);
        assert_eq!(outcomes, faults.len() as u64);
        assert_eq!(
            snap1.counter(names::CAMPAIGN_MASKED),
            report.masked() as u64
        );
        // The per-injection simulators flush into the same registry.
        assert!(snap1.counter(names::SIM_SETTLE_ITERATIONS) > 0);
        assert!(snap1.counter(names::SIM_EVENTS_PROCESSED) > 0);
        assert!(snap1.span(names::SPAN_CAMPAIGN_RUN).is_some());
        assert!(snap1.span("campaign.run.golden").is_some());

        let (snap4, _) = run(4);
        for &name in names::COUNTERS {
            if name == names::EXEC_CHUNKS {
                continue; // chunk count depends on worker claiming order
            }
            assert_eq!(snap1.counter(name), snap4.counter(name), "counter {name}");
        }
    }

    #[test]
    fn stuck_output_is_corrupted_or_propagated() {
        let target = adder_target(4);
        let fault = GateFault::NodeStuckAt {
            node: target.outputs[0],
            value: Bit::One,
        };
        let mut src = PatternSource::counting(target.inputs.len(), 0).unwrap();
        let report = campaign(&target, &[fault], &mut src, 8);
        assert_eq!(report.reports[0].outcome, FaultOutcome::Corrupted);
    }

    #[test]
    fn input_x_propagates_as_x() {
        let target = adder_target(4);
        // cin is the last input column; X there reaches the sum as X.
        let fault = GateFault::InputX {
            input_index: target.inputs.len() - 1,
        };
        let mut src = PatternSource::zeros(target.inputs.len()).unwrap();
        let report = campaign(&target, &[fault], &mut src, 4);
        assert_eq!(report.reports[0].outcome, FaultOutcome::PropagatedAsX);
    }

    #[test]
    fn redundant_node_fault_is_masked() {
        // Stuck-at-0 on an input that is already always 0 changes nothing.
        let target = adder_target(4);
        let fault = GateFault::NodeStuckAt {
            node: target.inputs[0],
            value: Bit::Zero,
        };
        let mut src = PatternSource::zeros(target.inputs.len()).unwrap();
        let report = campaign(&target, &[fault], &mut src, 4);
        assert_eq!(report.reports[0].outcome, FaultOutcome::Masked);
    }

    #[test]
    fn oscillation_inducing_fault_is_detected() {
        // A gated feedback loop closed onto a stimulus-driven node:
        // r = Not(And(en, r)). With en = 0 the AND breaks the cycle and
        // every vector settles; the stimulus writing r each vector keeps
        // the loop seeded with a definite value (an all-X loop would just
        // sit at the Kleene fixpoint). A stuck-at-1 on the enable closes
        // an odd inverting loop — a ring — and the settle watchdog must
        // diagnose the oscillation, which the campaign classifies as
        // detected.
        let mut n = Netlist::new();
        let en = n.input("en");
        let r = n.input("r");
        let gated = n.gate(GateKind::And2, &[en, r]).unwrap();
        n.gate_into(GateKind::Not, &[gated], r).unwrap();
        let target = Circuit {
            name: "gated_loop".into(),
            inputs: vec![en, r],
            outputs: vec![r],
            netlist: n,
            clock: None,
        };
        let fault = GateFault::NodeStuckAt {
            node: en,
            value: Bit::One,
        };
        let mut src = PatternSource::zeros(2).unwrap();
        let report = campaign(&target, &[fault], &mut src, 2);
        assert!(
            matches!(
                report.reports[0].outcome,
                FaultOutcome::Detected(CircuitError::Oscillation { .. })
            ),
            "got {:?}",
            report.reports[0].outcome
        );
    }

    #[test]
    fn agreeing_bridge_is_masked() {
        // Bridging a buffer chain's output onto its own input shorts two
        // nodes that settle to the same value every vector: the campaign
        // must call it masked, not X everything out over transient skew.
        let mut n = Netlist::new();
        let a = n.input("a");
        let buf1 = n.gate(GateKind::Buf, &[a]).unwrap();
        let buf2 = n.gate(GateKind::Buf, &[buf1]).unwrap();
        let target = Circuit {
            name: "chain".into(),
            inputs: vec![a],
            outputs: vec![buf2],
            netlist: n,
            clock: None,
        };
        let fault = GateFault::Bridge { a, b: buf2 };
        let mut src = PatternSource::counting(1, 0).unwrap();
        let report = campaign(&target, &[fault], &mut src, 4);
        assert_eq!(report.reports[0].outcome, FaultOutcome::Masked);
    }

    #[test]
    fn campaign_validates_stimulus() {
        let target = adder_target(4);
        let mut narrow = PatternSource::zeros(2).unwrap();
        assert!(matches!(
            run_campaign(&target, &[], &mut narrow, 4, CampaignOptions::default()),
            Err(CircuitError::WidthMismatch { .. })
        ));
        let mut ok = PatternSource::zeros(target.inputs.len()).unwrap();
        assert!(matches!(
            run_campaign(&target, &[], &mut ok, 0, CampaignOptions::default()),
            Err(CircuitError::InvalidStimulus { .. })
        ));
    }

    #[test]
    fn campaign_rejects_unbounded_vectors_before_allocating() {
        let target = adder_target(2);
        let faults = stuck_at_universe(&target.netlist);
        for engine in [Engine::Event, Engine::Compiled] {
            let options = || CampaignOptions {
                engine,
                ..CampaignOptions::default()
            };
            let mut src = PatternSource::zeros(target.inputs.len()).unwrap();
            // 10^11 vectors would ask for terabytes of expanded stimulus.
            assert_eq!(
                run_campaign(&target, &faults, &mut src, 100_000_000_000, options()).unwrap_err(),
                CircuitError::InvalidStimulus {
                    reason: "campaign accepts at most 1048576 (2^20) vectors",
                }
            );
            assert!(matches!(
                run_campaign(&target, &[], &mut src, MAX_CAMPAIGN_VECTORS + 1, options()),
                Err(CircuitError::InvalidStimulus { .. })
            ));
        }
    }

    #[test]
    fn universe_covers_every_node_twice() {
        let target = adder_target(2);
        let u = stuck_at_universe(&target.netlist);
        assert_eq!(u.len(), target.netlist.node_count() * 2);
    }

    #[test]
    fn register_target_latches_through_campaign() {
        let targets = standard_targets(4).unwrap();
        let regs = &targets[4];
        assert!(regs.clock.is_some());
        let fault = GateFault::NodeStuckAt {
            node: regs.outputs[0],
            value: Bit::One,
        };
        let mut src = PatternSource::counting(4, 0).unwrap();
        let report = campaign(regs, &[fault], &mut src, 6);
        assert_eq!(report.reports[0].outcome, FaultOutcome::Corrupted);
    }

    #[test]
    fn switch_universe_and_faults_classify() {
        let mut n = SwitchNetlist::new();
        let ports = c2mos_register(&mut n).unwrap();
        let universe = switch_stuck_universe(&n);
        assert_eq!(universe.len(), n.transistor_count() * 2);
        // A stuck-off slave pull-down cannot drive q low any more: the
        // faulted register must disagree with the golden one somewhere.
        let mut disagreements = 0;
        for fault in universe {
            let mut golden = SwitchSim::new(&n);
            let mut faulty = SwitchSim::new(&n);
            apply_switch_fault(&mut faulty, fault).unwrap();
            let mut differs = false;
            for (i, d) in [true, false, true, true, false].into_iter().enumerate() {
                let g = clock_cycle(&mut golden, ports, d);
                let f = clock_cycle(&mut faulty, ports, d);
                match (g, f) {
                    (Ok(gv), Ok(fv)) => {
                        if gv != fv {
                            differs = true;
                        }
                    }
                    // A typed error from the faulted run also counts as
                    // observable; golden must never fail.
                    (Ok(_), Err(_)) => differs = true,
                    (Err(e), _) => panic!("golden run failed at cycle {i}: {e}"),
                }
            }
            if differs {
                disagreements += 1;
            }
        }
        assert!(disagreements > 0, "some switch fault must be observable");
    }

    #[test]
    fn item_deadline_degrades_to_errored_outcomes() {
        let target = adder_target(2);
        let faults = stuck_at_universe(&target.netlist);
        let options = CampaignOptions {
            fault: FaultPolicy {
                item_timeout_ms: Some(0),
                ..FaultPolicy::default()
            },
            ..CampaignOptions::default()
        };
        let mut src = PatternSource::counting(target.inputs.len(), 1).unwrap();
        let res = run_campaign(&target, &faults[..3], &mut src, 4, options).unwrap();
        // The golden run carries no deadline, so the campaign proceeds;
        // every injection hits the already-fired token and degrades to a
        // typed per-item error instead of aborting anything.
        assert_eq!(res.reports.len(), 3);
        for r in &res.reports {
            let report = r.as_ref().unwrap();
            assert!(
                matches!(
                    report.outcome,
                    FaultOutcome::Errored(ExecError::ItemTimedOut { .. })
                ),
                "got {report:?}"
            );
        }
        assert_eq!(res.report().unwrap().errored(), 3);
        let rendered = res.report().unwrap().to_string();
        assert!(rendered.contains("errored"), "{rendered}");
    }

    #[test]
    fn golden_trace_cache_hits_on_second_run() {
        use lowvolt_obs::MetricsRegistry;
        let dir = std::env::temp_dir().join(format!("lowvolt-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ByteCache::open(&dir).unwrap();
        let target = adder_target(2);
        let faults = stuck_at_universe(&target.netlist);
        let run = || {
            let reg = MetricsRegistry::new();
            let mut src = PatternSource::counting(target.inputs.len(), 1).unwrap();
            let res = run_campaign(
                &target,
                &faults,
                &mut src,
                4,
                CampaignOptions {
                    recorder: &reg,
                    cache: Some((&cache, 1)),
                    ..CampaignOptions::default()
                },
            )
            .unwrap();
            (res, reg)
        };
        let (first, reg1) = run();
        assert!(!first.golden_from_cache);
        assert_eq!(reg1.counter(names::CACHE_MISSES), 1);
        assert_eq!(reg1.counter(names::CACHE_HITS), 0);
        let (second, reg2) = run();
        assert!(second.golden_from_cache);
        assert_eq!(reg2.counter(names::CACHE_HITS), 1);
        assert_eq!(reg2.counter(names::CACHE_MISSES), 0);
        assert_eq!(second.report(), first.report());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn display_formats_are_stable() {
        let f = GateFault::NodeStuckAt {
            node: NodeId(3),
            value: Bit::One,
        };
        assert!(f.to_string().contains("stuck at"));
        let report = CampaignReport {
            target: "adder4".into(),
            vectors: 8,
            reports: vec![FaultReport {
                fault: f,
                outcome: FaultOutcome::Masked,
            }],
        };
        let s = report.to_string();
        assert!(s.contains("adder4"));
        assert!(s.contains("masked"));
    }
}
