//! The stable metric-name catalog.
//!
//! Naming convention: `subsystem.noun[.qualifier]`, all lowercase,
//! dot-separated, no runtime formatting for counters. Every counter a
//! recorder can be asked to bump appears in [`COUNTERS`], which is kept
//! sorted so lookups are a binary search and the JSON report's key order
//! is the catalog order. Span (timer) names are free-form dotted strings
//! but the fixed ones used by the toolkit are also declared here so CLI
//! output and `BENCH_sim.json` cannot drift apart.

/// Events popped and applied by the gate-level event simulator.
pub const SIM_EVENTS_PROCESSED: &str = "sim.events.processed";
/// Gate updates scheduled by the event simulator (including those later
/// superseded by same-tick coalescing).
pub const SIM_HEAP_PUSHES: &str = "sim.heap.pushes";
/// Calls into the simulator's settle loop (one per input vector applied).
pub const SIM_SETTLE_ITERATIONS: &str = "sim.settle.iterations";
/// Oscillation-watchdog state fingerprints taken during settling.
pub const SIM_WATCHDOG_FINGERPRINTS: &str = "sim.watchdog.fingerprints";
/// Internal nodes contributing to an extracted activity (`α`) report.
pub const SIM_ALPHA_NODES: &str = "sim.alpha.nodes";
/// Rising transitions counted across all nets during activity extraction.
pub const SIM_TRANSITIONS_RISING: &str = "sim.transitions.rising";
/// Falling transitions counted across all nets during activity extraction.
pub const SIM_TRANSITIONS_FALLING: &str = "sim.transitions.falling";

/// Picoseconds of critical-path delay reported by the most recent
/// static timing analysis (rounded to the nearest integer picosecond;
/// infinite delays — V_DD at or below V_T — record 0 and are flagged in
/// the report instead).
pub const STA_CRITICAL_PS: &str = "sta.critical_ps";
/// Topological levels traversed by a static timing analysis.
pub const STA_LEVELS: &str = "sta.levels";
/// Netlist nodes covered by a static timing analysis.
pub const STA_NODES: &str = "sta.nodes";

/// Settle invocations of the switch-level simulator.
pub const SWITCH_SETTLES: &str = "switch.settles";
/// Gauss–Seidel relaxation passes across all switch-level settles.
pub const SWITCH_RELAX_PASSES: &str = "switch.relax.passes";
/// Node value transitions observed by the switch-level simulator.
pub const SWITCH_TRANSITIONS: &str = "switch.transitions";

/// Golden-trace cache lookups that found a valid entry.
pub const CACHE_HITS: &str = "cache.hits";
/// Golden-trace cache lookups that missed (absent, corrupt, or
/// mismatched entries all count as misses; corrupt files are also
/// quarantined).
pub const CACHE_MISSES: &str = "cache.misses";
/// Records appended to a checkpoint journal (one per completed work
/// item whose result was persisted).
pub const CHECKPOINT_RECORDS: &str = "checkpoint.records";

/// The phase-A share of [`COMPILED_GATE_EVALS`]: fault re-evaluations
/// with the clock low, computing the state the flip-flops capture. Only
/// gates that reach a flip-flop data input are evaluated there, so it
/// is 0 on a combinational target.
pub const COMPILED_CAPTURE_EVALS: &str = "compiled.capture_evals";
/// (fault, word) evaluations in the compiled bit-parallel engine whose
/// observed pass (phase B, or the single pass) stopped at the first
/// definite difference at an observed output in an active lane: that
/// difference fixes the word's class at `Corrupted`, so the rest of the
/// frontier is left unevaluated. Such a pass is not a dropout.
pub const COMPILED_DETECT_STOPS: &str = "compiled.detect_stops";
/// (fault, word) evaluations in the compiled bit-parallel engine that
/// early-exited because their difference frontier went all-zero before
/// reaching the last level with no detection. On a clocked target this is the observed
/// (clock-high) pass's frontier; the capture pass's is not counted.
pub const COMPILED_FAULT_DROPOUTS: &str = "compiled.fault_dropouts";
/// Gate evaluations performed by the compiled bit-parallel engine
/// (golden passes plus fault re-evaluations; each processes 64 packed
/// vectors).
pub const COMPILED_GATE_EVALS: &str = "compiled.gate_evals";
/// 64-vector stimulus words evaluated by the compiled bit-parallel
/// engine (replayed checkpoint words are not re-evaluated and do not
/// count).
pub const COMPILED_WORDS: &str = "compiled.words";

/// Fault-campaign targets run.
pub const CAMPAIGN_TARGETS: &str = "campaign.targets";
/// Faults injected across all campaign targets.
pub const CAMPAIGN_INJECTIONS: &str = "campaign.injections";
/// Stimulus-vector applications summed over all faulted runs
/// (`vectors x injections` per campaign).
pub const CAMPAIGN_VECTORS: &str = "campaign.vectors";
/// Injections classified `Detected`.
pub const CAMPAIGN_DETECTED: &str = "campaign.detected";
/// Injections classified `Corrupted`.
pub const CAMPAIGN_CORRUPTED: &str = "campaign.corrupted";
/// Injections classified `PropagatedAsX`.
pub const CAMPAIGN_PROPAGATED_X: &str = "campaign.propagated_x";
/// Injections classified `Masked`.
pub const CAMPAIGN_MASKED: &str = "campaign.masked";

/// Work items submitted to `lowvolt_exec::parallel_map` regions (isolated
/// and checkpointed runs included).
pub const EXEC_ITEMS: &str = "exec.items";
/// Chunks claimed from the work-pool cursor (varies with thread count —
/// the one deliberately thread-dependent counter in the catalog).
pub const EXEC_CHUNKS: &str = "exec.chunks";
/// Parallel regions entered.
pub const EXEC_REGIONS: &str = "exec.regions";
/// Work items whose closure panicked (caught and isolated by the fault
/// layer; each attempt that panics counts once).
pub const EXEC_PANICS: &str = "exec.panics";
/// Retry attempts performed by the fault layer (a first attempt is not
/// a retry).
pub const EXEC_RETRIES: &str = "exec.retries";
/// Work-item attempts that hit their cooperative deadline and were
/// cancelled.
pub const EXEC_TIMEOUTS: &str = "exec.timeouts";

/// Lint targets analysed.
pub const LINT_TARGETS: &str = "lint.targets";
/// Lint passes executed (five per target).
pub const LINT_PASSES: &str = "lint.passes";
/// Diagnostics emitted after allow/deny filtering.
pub const LINT_DIAGNOSTICS: &str = "lint.diagnostics";

/// Client connections accepted by the `lowvolt serve` daemon.
pub const SERVE_CONNECTIONS: &str = "serve.connections";
/// Jobs executed by the daemon (every kind, successful or not).
pub const SERVE_JOBS: &str = "serve.jobs";
/// Protocol lines rejected with a structured `error` event (malformed
/// JSON, unknown job kinds, oversized lines).
pub const SERVE_REQUESTS_BAD: &str = "serve.requests.bad";
/// Progress reports sent by sharded campaign jobs: one per
/// `shard_items` newly journaled items, plus the final `(total, total)`
/// report each finished job sends.
pub const SERVE_SHARD_ROUNDS: &str = "serve.shard_rounds";

/// Instructions recorded by the ISA profiler.
pub const PROFILE_INSTRUCTIONS: &str = "profile.instructions";
/// Functional-unit uses summed over all units (the `fga` numerator).
pub const PROFILE_UNIT_USES: &str = "profile.unit.uses";
/// Functional-unit runs summed over all units (the `bga` numerator).
pub const PROFILE_UNIT_RUNS: &str = "profile.unit.runs";
/// `fga` values extracted (one per functional unit per report).
pub const PROFILE_EXTRACTIONS_FGA: &str = "profile.extractions.fga";
/// `bga` values extracted (one per functional unit per report).
pub const PROFILE_EXTRACTIONS_BGA: &str = "profile.extractions.bga";
/// Basic blocks observed by block-level profiling.
pub const PROFILE_BLOCKS: &str = "profile.blocks";

/// Every counter the registry stores, **sorted**. The JSON report emits
/// exactly this set in exactly this order; [`counter_index`] binary
/// searches it.
pub const COUNTERS: &[&str] = &[
    CACHE_HITS,
    CACHE_MISSES,
    CAMPAIGN_CORRUPTED,
    CAMPAIGN_DETECTED,
    CAMPAIGN_INJECTIONS,
    CAMPAIGN_MASKED,
    CAMPAIGN_PROPAGATED_X,
    CAMPAIGN_TARGETS,
    CAMPAIGN_VECTORS,
    CHECKPOINT_RECORDS,
    COMPILED_CAPTURE_EVALS,
    COMPILED_DETECT_STOPS,
    COMPILED_FAULT_DROPOUTS,
    COMPILED_GATE_EVALS,
    COMPILED_WORDS,
    EXEC_CHUNKS,
    EXEC_ITEMS,
    EXEC_PANICS,
    EXEC_REGIONS,
    EXEC_RETRIES,
    EXEC_TIMEOUTS,
    LINT_DIAGNOSTICS,
    LINT_PASSES,
    LINT_TARGETS,
    PROFILE_BLOCKS,
    PROFILE_EXTRACTIONS_BGA,
    PROFILE_EXTRACTIONS_FGA,
    PROFILE_INSTRUCTIONS,
    PROFILE_UNIT_RUNS,
    PROFILE_UNIT_USES,
    SERVE_CONNECTIONS,
    SERVE_JOBS,
    SERVE_REQUESTS_BAD,
    SERVE_SHARD_ROUNDS,
    SIM_ALPHA_NODES,
    SIM_EVENTS_PROCESSED,
    SIM_HEAP_PUSHES,
    SIM_SETTLE_ITERATIONS,
    SIM_TRANSITIONS_FALLING,
    SIM_TRANSITIONS_RISING,
    SIM_WATCHDOG_FINGERPRINTS,
    STA_CRITICAL_PS,
    STA_LEVELS,
    STA_NODES,
    SWITCH_RELAX_PASSES,
    SWITCH_SETTLES,
    SWITCH_TRANSITIONS,
];

/// Catalog position of `name`, or `None` for names outside the catalog.
#[must_use]
pub fn counter_index(name: &str) -> Option<usize> {
    COUNTERS.binary_search(&name).ok()
}

/// Span name for one gate-level settle (one input vector to quiescence).
pub const SPAN_SIM_SETTLE: &str = "sim.settle";
/// Span name for a full activity-extraction run.
pub const SPAN_SIM_MEASURE_ACTIVITY: &str = "sim.measure_activity";
/// Span name for one switch-level settle.
pub const SPAN_SWITCH_SETTLE: &str = "switch.settle";
/// Span name for one fault-campaign target.
pub const SPAN_CAMPAIGN_RUN: &str = "campaign.run";
/// Child of [`SPAN_CAMPAIGN_RUN`]: stimulus expansion plus the golden
/// (fault-free) evaluation and its cache lookup/store.
pub const SPAN_CAMPAIGN_GOLDEN: &str = "campaign.run.golden";
/// Child of [`SPAN_CAMPAIGN_RUN`]: fault injection, propagation and
/// classification of every work item. With [`SPAN_CAMPAIGN_GOLDEN`] it
/// accounts for the parent's wall time.
pub const SPAN_CAMPAIGN_FAULTS: &str = "campaign.run.faults";
/// Span name for levelizing a netlist into the compiled engine's tables
/// (opened before, not inside, [`SPAN_CAMPAIGN_RUN`] and
/// [`SPAN_STA_ANALYZE`]).
pub const SPAN_COMPILED_COMPILE: &str = "compiled.compile";
/// Span name for a whole `lowvolt_exec::parallel_map` region (serial or
/// parallel).
pub const SPAN_EXEC_REGION: &str = "exec.region";
/// Span name accumulating each worker's busy time inside a region;
/// `Σ exec.worker / (threads × exec.region)` is the thread utilization.
pub const SPAN_EXEC_WORKER: &str = "exec.worker";
/// Span name accumulating per-chunk wall time inside a region.
pub const SPAN_EXEC_CHUNK: &str = "exec.chunk";
/// Prefix for per-pass lint spans: `lint.pass.<pass name>`.
pub const SPAN_LINT_PASS_PREFIX: &str = "lint.pass";
/// Span name for one profiled program execution.
pub const SPAN_PROFILE_RUN: &str = "profile.run";
/// Span name for one static-timing analysis (delay pricing, forward
/// and backward passes, endpoint summaries), opened once the netlist is
/// levelized under [`SPAN_COMPILED_COMPILE`].
pub const SPAN_STA_ANALYZE: &str = "sta.analyze";
/// Span name for rendering a job's static-timing reports (text or
/// JSON), after [`SPAN_STA_ANALYZE`].
pub const SPAN_STA_RENDER: &str = "sta.render";
/// Span name for importing one netlist file (read plus BLIF or bench
/// parse) as a job's circuit source.
pub const SPAN_IO_PARSE: &str = "io.parse";
/// Span name for building a seeded generated netlist as a job's circuit
/// source.
pub const SPAN_IO_GENERATE: &str = "io.generate";

/// `perf` stage: fault campaign over the standard targets.
pub const STAGE_CAMPAIGN: &str = "campaign";
/// `perf` stage: figure-table regeneration sweep.
pub const STAGE_REGEN: &str = "regen";
/// `perf` stage: design-space optimization sweep.
pub const STAGE_OPTIMIZE: &str = "optimize";
/// `perf` stage: static timing analysis over the standard datapaths.
pub const STAGE_STA: &str = "sta";
/// `perf` stage: BLIF round-trip parse of a generated netlist.
pub const STAGE_PARSE: &str = "parse";
/// `perf` stage: packed fault campaign on a large generated netlist.
pub const STAGE_CAMPAIGN_GENERATED: &str = "campaign-generated";
/// `perf` stage: static timing analysis of a large generated netlist.
pub const STAGE_STA_GENERATED: &str = "sta-generated";
/// `perf` stage: event-driven activity extraction on the 8-bit adder and
/// multiplier (the Figs. 8–9 kernel).
pub const STAGE_SIM_ACTIVITY: &str = "sim-activity";
/// `perf` stage: the IDEA guest program, interpreted raw and profiled
/// (the Tables 1–3 kernel).
pub const STAGE_INTERPRETER: &str = "interpreter";
/// `perf` stage: a 1000-point drain-current sweep (the device-model
/// kernel of Figs. 2 and 6).
pub const STAGE_DEVICE_IV: &str = "device-iv";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_and_unique() {
        for w in COUNTERS.windows(2) {
            assert!(w[0] < w[1], "catalog must be sorted: {} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn counter_index_finds_every_catalog_entry() {
        for (i, name) in COUNTERS.iter().enumerate() {
            assert_eq!(counter_index(name), Some(i));
        }
        assert_eq!(counter_index("no.such.metric"), None);
    }

    #[test]
    fn names_follow_the_dotted_lowercase_convention() {
        for name in COUNTERS {
            assert!(name.contains('.'), "{name}: needs a subsystem prefix");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "{name}: lowercase dotted only"
            );
            assert!(!name.starts_with('.') && !name.ends_with('.'));
        }
    }

    #[test]
    fn issue_required_metrics_are_present() {
        // The metrics the CLI acceptance gate greps for.
        for required in [
            "sim.events.processed",
            "sim.heap.pushes",
            "sim.settle.iterations",
            "sim.watchdog.fingerprints",
            "sim.alpha.nodes",
        ] {
            assert!(counter_index(required).is_some(), "{required}");
        }
    }

    #[test]
    fn fault_layer_counters_are_present() {
        // The counters the CI resume-gate asserts on.
        for required in [
            "exec.panics",
            "exec.retries",
            "exec.timeouts",
            "cache.hits",
            "cache.misses",
            "checkpoint.records",
        ] {
            assert!(counter_index(required).is_some(), "{required}");
        }
    }
}
