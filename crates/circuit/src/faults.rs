//! Composable fault models and a fault-injection campaign runner.
//!
//! Low-voltage operation erodes noise margins, so the paper's design flow
//! implicitly assumes the simulation tools can tell a *broken* circuit
//! from a *slow* one. This module makes that assumption testable: it
//! defines structural fault models at both abstraction levels —
//! stuck-at/bridging faults on gate-level nodes and stuck-on/stuck-off
//! transistors at switch level — and a campaign runner that sweeps a
//! fault universe across a datapath, classifying every injection as
//! detected (the simulator raised a typed error), corrupted (definite
//! wrong outputs), propagated-as-X, or masked.
//!
//! The campaign never panics: every failure mode surfaces as either a
//! [`FaultOutcome::Detected`] classification or a typed
//! [`CircuitError`] from the runner itself.

use crate::error::CircuitError;
use crate::logic::Bit;
use crate::netlist::{Netlist, NodeId};
use crate::sim::Simulator;
use crate::stimulus::PatternSource;
use crate::switchlevel::{SwNodeId, SwitchNetlist, SwitchSim};
use lowvolt_exec::{
    fnv64, parallel_map_isolated, parallel_map_recorded, run_checkpointed, ByteCache, CacheKey,
    CancelToken, CheckpointSpec, ExecError, ExecPolicy, FaultPolicy, ItemStatus,
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
    /// so no classification exists. Only the resilient runner produces
    /// this; the classic runner would have aborted (panic) or waited
    /// forever instead.
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

/// A circuit prepared for fault-injection campaigns: a netlist plus the
/// input columns the stimulus drives and the output nodes the classifier
/// observes. Sequential targets carry a clock node that the runner
/// toggles low→high around every vector.
#[derive(Debug, Clone)]
pub struct FaultTarget {
    /// Human-readable target name (e.g. `"adder8"`).
    pub name: String,
    /// The circuit itself.
    pub netlist: Netlist,
    /// Stimulus-driven inputs, in stimulus column order (excluding any
    /// clock).
    pub inputs: Vec<NodeId>,
    /// Observable outputs compared against the golden run.
    pub outputs: Vec<NodeId>,
    /// Clock for sequential targets: driven low before and high after
    /// each data vector.
    pub clock: Option<NodeId>,
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
    /// (panicked every attempt or timed out); zero outside the
    /// resilient runner.
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
    target: &FaultTarget,
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

/// Sweeps `faults` over `target`, applying the same `vectors`-long
/// stimulus to a golden run and to every injection, and classifies each
/// outcome.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidStimulus`] if `vectors` is zero,
/// [`CircuitError::WidthMismatch`] if the stimulus width mismatches the
/// target's input count, or any error from the *golden* run — a golden
/// run that fails means the target, not the fault, is broken. Errors
/// during faulted runs are classifications
/// ([`FaultOutcome::Detected`]), not campaign failures.
pub fn run_campaign(
    target: &FaultTarget,
    faults: &[GateFault],
    stimulus: &mut PatternSource,
    vectors: usize,
) -> Result<CampaignReport, CircuitError> {
    run_campaign_with(&ExecPolicy::serial(), target, faults, stimulus, vectors)
}

/// [`run_campaign`] with an explicit execution policy: injections are
/// partitioned over the policy's worker threads, one fresh simulator per
/// injection as in the serial path. The stimulus is expanded and the
/// golden run executed up front on the calling thread, so the report is
/// **bit-identical** to the serial campaign for any thread count — the
/// per-fault results land at their fault's index regardless of which
/// worker classified them.
///
/// # Errors
///
/// Exactly the serial [`run_campaign`] contract: stimulus validation
/// errors or a failing *golden* run abort the campaign; faulted-run
/// errors are [`FaultOutcome::Detected`] classifications.
pub fn run_campaign_with(
    policy: &ExecPolicy,
    target: &FaultTarget,
    faults: &[GateFault],
    stimulus: &mut PatternSource,
    vectors: usize,
) -> Result<CampaignReport, CircuitError> {
    run_campaign_recorded(
        policy,
        lowvolt_obs::noop(),
        target,
        faults,
        stimulus,
        vectors,
    )
}

/// [`run_campaign_with`] with campaign metrics flushed to `rec`: the
/// `campaign.*` counters (injections, vector applications, one count per
/// outcome class), a `campaign.run` span with a `.golden` child, the
/// execution engine's `exec.*` chunk/region metrics, and — because every
/// per-injection simulator carries the recorder — the aggregate `sim.*`
/// counters across all faulted runs. Every counter except `exec.chunks`
/// is identical for any thread count: the per-settle deltas are fixed by
/// the deterministic simulation and atomic addition commutes.
///
/// # Errors
///
/// Exactly the [`run_campaign`] contract.
pub fn run_campaign_recorded(
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    target: &FaultTarget,
    faults: &[GateFault],
    stimulus: &mut PatternSource,
    vectors: usize,
) -> Result<CampaignReport, CircuitError> {
    if vectors == 0 {
        return Err(CircuitError::InvalidStimulus {
            reason: "campaign needs at least one vector",
        });
    }
    if stimulus.width() != target.inputs.len() {
        return Err(CircuitError::WidthMismatch {
            what: "fault campaign stimulus",
            expected: target.inputs.len(),
            got: stimulus.width(),
        });
    }
    let timer = span(rec, names::SPAN_CAMPAIGN_RUN);
    let vecs: Vec<Vec<Bit>> = (0..vectors).map(|_| stimulus.next_pattern()).collect();
    // The golden run also warms the netlist's CSR fanout index, so the
    // workers share the prebuilt adjacency read-only.
    let golden = {
        let _golden_timer = span(rec, names::SPAN_CAMPAIGN_GOLDEN);
        run_trace(target, &vecs, None, rec, CancelToken::never())?
    };
    let faults_timer = span(rec, names::SPAN_CAMPAIGN_FAULTS);
    let reports = parallel_map_recorded(policy, rec, faults, |_, fault| {
        let outcome = match run_trace(target, &vecs, Some(fault), rec, CancelToken::never()) {
            Ok(trace) => classify(&golden, &trace),
            Err(err) => FaultOutcome::Detected(err),
        };
        FaultReport {
            fault: fault.clone(),
            outcome,
        }
    });
    drop(faults_timer);
    drop(timer);
    let report = CampaignReport {
        target: target.name.clone(),
        vectors,
        reports,
    };
    if rec.is_enabled() {
        rec.add(names::CAMPAIGN_TARGETS, 1);
        rec.add(names::CAMPAIGN_INJECTIONS, faults.len() as u64);
        rec.add(names::CAMPAIGN_VECTORS, (vectors * faults.len()) as u64);
        rec.add(names::CAMPAIGN_DETECTED, report.detected() as u64);
        rec.add(names::CAMPAIGN_CORRUPTED, report.corrupted() as u64);
        rec.add(
            names::CAMPAIGN_PROPAGATED_X,
            report.propagated_as_x() as u64,
        );
        rec.add(names::CAMPAIGN_MASKED, report.masked() as u64);
    }
    Ok(report)
}

/// Options steering the fault-tolerant campaign runner
/// [`run_campaign_resilient`]: per-injection retry/deadline policy,
/// an optional golden-trace cache, and optional checkpoint-journal
/// bookkeeping.
#[derive(Debug, Default)]
pub struct CampaignOptions<'a> {
    /// Retry and cooperative-deadline policy applied to every injection.
    pub fault: FaultPolicy,
    /// Golden-trace cache plus the stimulus seed that keys it; `None`
    /// recomputes the golden run unconditionally.
    pub cache: Option<(&'a ByteCache, u64)>,
    /// Checkpoint journal bookkeeping; `None` runs uncheckpointed.
    pub checkpoint: Option<CheckpointSpec<'a>>,
}

/// Result of a fault-tolerant campaign: per-injection outcome slots
/// (with `None` where an interruption cap skipped the injection) plus
/// replay/compute accounting and non-fatal diagnostics.
#[derive(Debug)]
pub struct ResilientCampaign {
    /// Target name.
    pub target: String,
    /// Vectors applied per injection.
    pub vectors: usize,
    /// One slot per fault, in fault order; `None` only when the run was
    /// interrupted by [`CheckpointSpec::max_new_items`] before reaching
    /// the injection.
    pub reports: Vec<Option<FaultReport>>,
    /// Injections restored from the checkpoint journal without
    /// simulating.
    pub replayed: usize,
    /// Injections actually simulated this run.
    pub computed: usize,
    /// Injections skipped by the interruption cap.
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
pub(crate) fn golden_cache_content(target: &FaultTarget, vecs: &[Vec<Bit>]) -> u64 {
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

/// [`run_campaign_recorded`] hardened for long campaigns: every
/// injection runs under panic isolation with bounded retries and an
/// optional per-item deadline, completed injections stream into a
/// checkpoint journal so a killed campaign resumes where it stopped,
/// and the golden trace is served from a content-addressed cache when
/// one is supplied.
///
/// Determinism contract: an interrupted run resumed to completion
/// produces `reports` byte-identical to an uninterrupted run, for any
/// thread count on either side — outcomes land at their fault's index
/// and journal replay keys on that index. A permanently failing
/// injection (panicking every attempt or exceeding its deadline)
/// degrades to [`FaultOutcome::Errored`] at its slot; it never aborts
/// the campaign and is retried on resume rather than journaled.
///
/// Counters: `campaign.injections` counts slots resolved this run
/// (replayed + computed), `campaign.vectors` counts only vectors
/// actually simulated, and the outcome-class counters tally the
/// outcomes present in `reports` — so an interrupted run's counters
/// reflect what it really did.
///
/// # Errors
///
/// The [`run_campaign`] contract: stimulus validation errors or a
/// failing *golden* run abort the campaign. Faulted-run failures of any
/// kind are classifications, never campaign failures.
pub fn run_campaign_resilient(
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    target: &FaultTarget,
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
    if stimulus.width() != target.inputs.len() {
        return Err(CircuitError::WidthMismatch {
            what: "fault campaign stimulus",
            expected: target.inputs.len(),
            got: stimulus.width(),
        });
    }
    let CampaignOptions {
        fault,
        cache,
        checkpoint,
    } = options;
    let timer = span(rec, names::SPAN_CAMPAIGN_RUN);
    let vecs: Vec<Vec<Bit>> = (0..vectors).map(|_| stimulus.next_pattern()).collect();
    let mut warnings = Vec::new();
    let mut golden_from_cache = false;
    let golden = {
        let _golden_timer = span(rec, names::SPAN_CAMPAIGN_GOLDEN);
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
        match cached {
            Some(trace) => {
                golden_from_cache = true;
                trace
            }
            None => {
                let trace = run_trace(target, &vecs, None, rec, CancelToken::never())?;
                if let Some((c, k)) = key {
                    if let Err(e) = c.store(k, &crate::persist::encode_trace(&trace)) {
                        warnings.push(format!("golden-trace cache store failed: {e}"));
                    }
                }
                trace
            }
        }
    };
    let classify_item = |f: &GateFault, token: &CancelToken| -> ItemStatus<FaultOutcome> {
        match run_trace(target, &vecs, Some(f), rec, token) {
            Ok(trace) => ItemStatus::Done(classify(&golden, &trace)),
            Err(CircuitError::Cancelled { .. }) if token.is_cancelled() => ItemStatus::TimedOut,
            Err(err) => ItemStatus::Done(FaultOutcome::Detected(err)),
        }
    };
    let faults_timer = span(rec, names::SPAN_CAMPAIGN_FAULTS);
    let (slots, replayed, computed, skipped) = match checkpoint {
        Some(spec) => {
            let out = run_checkpointed(
                policy,
                &fault,
                rec,
                faults,
                spec,
                |o: &FaultOutcome| crate::persist::encode_outcome(o),
                |_, bytes| crate::persist::decode_outcome(bytes),
                |_, f, token| classify_item(f, token),
            );
            warnings.extend(out.warnings);
            (out.results, out.replayed, out.computed, out.skipped)
        }
        None => {
            let res = parallel_map_isolated(policy, &fault, rec, faults, |_, f, token| {
                classify_item(f, token)
            });
            let computed = res.len();
            (
                res.into_iter().map(Some).collect::<Vec<_>>(),
                0,
                computed,
                0,
            )
        }
    };
    drop(faults_timer);
    drop(timer);
    let reports: Vec<Option<FaultReport>> = slots
        .into_iter()
        .zip(faults)
        .map(|(slot, f)| {
            slot.map(|res| FaultReport {
                fault: f.clone(),
                outcome: match res {
                    Ok(o) => o,
                    Err(e) => FaultOutcome::Errored(e),
                },
            })
        })
        .collect();
    if rec.is_enabled() {
        let count = |label: &str| {
            reports
                .iter()
                .flatten()
                .filter(|r| r.outcome.label() == label)
                .count() as u64
        };
        rec.add(names::CAMPAIGN_TARGETS, 1);
        rec.add(names::CAMPAIGN_INJECTIONS, (replayed + computed) as u64);
        rec.add(names::CAMPAIGN_VECTORS, (vectors * computed) as u64);
        rec.add(names::CAMPAIGN_DETECTED, count("detected"));
        rec.add(names::CAMPAIGN_CORRUPTED, count("corrupted"));
        rec.add(names::CAMPAIGN_PROPAGATED_X, count("propagated-as-X"));
        rec.add(names::CAMPAIGN_MASKED, count("masked"));
    }
    Ok(ResilientCampaign {
        target: target.name.clone(),
        vectors,
        reports,
        replayed,
        computed,
        skipped,
        golden_from_cache,
        warnings,
    })
}

/// Builds the five standard datapath targets at the given width: the
/// ripple-carry adder, barrel shifter, array multiplier, ALU, and a
/// clocked register bank.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidWidth`] if any generator rejects
/// `width`.
pub fn standard_targets(width: usize) -> Result<Vec<FaultTarget>, CircuitError> {
    let mut targets = Vec::with_capacity(5);

    let mut n = Netlist::new();
    let adder = crate::adder::ripple_carry_adder(&mut n, width)?;
    let mut outputs = adder.sum.clone();
    outputs.push(adder.cout);
    targets.push(FaultTarget {
        name: format!("adder{width}"),
        inputs: adder.input_nodes(),
        outputs,
        netlist: n,
        clock: None,
    });

    let mut n = Netlist::new();
    let shifter = crate::shifter::barrel_shifter_right(&mut n, width)?;
    targets.push(FaultTarget {
        name: format!("shifter{width}"),
        inputs: shifter.input_nodes(),
        outputs: shifter.out.clone(),
        netlist: n,
        clock: None,
    });

    let mut n = Netlist::new();
    let mult = crate::multiplier::array_multiplier(&mut n, width)?;
    targets.push(FaultTarget {
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
    targets.push(FaultTarget {
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
    targets.push(FaultTarget {
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

    fn adder_target(width: usize) -> FaultTarget {
        standard_targets(width).unwrap().into_iter().next().unwrap()
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
            let policy = ExecPolicy::with_threads(threads);
            let report =
                run_campaign_recorded(&policy, &reg, &target, &faults, &mut src, 6).unwrap();
            (reg.snapshot(), report)
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
        let report = run_campaign(&target, &[fault], &mut src, 8).unwrap();
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
        let report = run_campaign(&target, &[fault], &mut src, 4).unwrap();
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
        let report = run_campaign(&target, &[fault], &mut src, 4).unwrap();
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
        let target = FaultTarget {
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
        let report = run_campaign(&target, &[fault], &mut src, 2).unwrap();
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
        let target = FaultTarget {
            name: "chain".into(),
            inputs: vec![a],
            outputs: vec![buf2],
            netlist: n,
            clock: None,
        };
        let fault = GateFault::Bridge { a, b: buf2 };
        let mut src = PatternSource::counting(1, 0).unwrap();
        let report = run_campaign(&target, &[fault], &mut src, 4).unwrap();
        assert_eq!(report.reports[0].outcome, FaultOutcome::Masked);
    }

    #[test]
    fn campaign_validates_stimulus() {
        let target = adder_target(4);
        let mut narrow = PatternSource::zeros(2).unwrap();
        assert!(matches!(
            run_campaign(&target, &[], &mut narrow, 4),
            Err(CircuitError::WidthMismatch { .. })
        ));
        let mut ok = PatternSource::zeros(target.inputs.len()).unwrap();
        assert!(matches!(
            run_campaign(&target, &[], &mut ok, 0),
            Err(CircuitError::InvalidStimulus { .. })
        ));
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
        let report = run_campaign(regs, &[fault], &mut src, 6).unwrap();
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
    fn resilient_matches_classic_runner_without_options() {
        let target = adder_target(2);
        let faults = stuck_at_universe(&target.netlist);
        let mut src = PatternSource::counting(target.inputs.len(), 1).unwrap();
        let classic = run_campaign(&target, &faults, &mut src, 4).unwrap();
        let mut src = PatternSource::counting(target.inputs.len(), 1).unwrap();
        let resilient = run_campaign_resilient(
            &ExecPolicy::with_threads(2),
            lowvolt_obs::noop(),
            &target,
            &faults,
            &mut src,
            4,
            CampaignOptions::default(),
        )
        .unwrap();
        assert!(!resilient.interrupted());
        assert_eq!(resilient.replayed, 0);
        assert_eq!(resilient.computed, faults.len());
        assert!(!resilient.golden_from_cache);
        assert!(resilient.warnings.is_empty());
        assert_eq!(resilient.report().unwrap(), classic);
    }

    #[test]
    fn item_deadline_degrades_to_errored_outcomes() {
        let target = adder_target(2);
        let faults = stuck_at_universe(&target.netlist);
        let options = CampaignOptions {
            fault: FaultPolicy {
                item_timeout_ms: Some(0),
                backoff_base_ms: 0,
                ..FaultPolicy::default()
            },
            ..CampaignOptions::default()
        };
        let mut src = PatternSource::counting(target.inputs.len(), 1).unwrap();
        let res = run_campaign_resilient(
            &ExecPolicy::serial(),
            lowvolt_obs::noop(),
            &target,
            &faults[..3],
            &mut src,
            4,
            options,
        )
        .unwrap();
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
            let res = run_campaign_resilient(
                &ExecPolicy::serial(),
                &reg,
                &target,
                &faults,
                &mut src,
                4,
                CampaignOptions {
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
