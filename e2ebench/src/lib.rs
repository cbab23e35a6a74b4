//! `lvbench` — the end-to-end benchmark of the `lowvolt` binary.
//!
//! Every job runs the real program: `lowvolt sta` / `lowvolt campaign`
//! child processes, or requests to a `lowvolt serve` child process. The
//! harness generates all inputs from `--seed` (`lowvolt_io::generate`,
//! written as BLIF files; the program only ever sees the files) and
//! checks every output.
//!
//! # Workloads
//!
//! All three are closed loops: a client sends its next job only after
//! the previous one completed. Sizes are those of [`jobs::Scale::full`].
//!
//! | workload | clients | jobs | inputs |
//! |---|---|---|---|
//! | `sta-import` | 1 | `lowvolt sta --netlist P --vdd V --vt T`, V_DD ∈ [1, 3) V, V_T ∈ [0.2, 0.5) V | 32 × 20k-gate BLIFs, cycled |
//! | `campaign-import` | 1 | `lowvolt campaign --engine compiled --netlist P --seed S` | 32 × 6k-gate BLIFs, cycled |
//! | `serve-mix` | 2 | per 20 jobs: 4 sta, 5 fresh compiled campaigns, 3 resubmissions, 2 event campaigns (builtin, width 8, 16 vectors), 2 lint, 2 `optimize --sta`, 2 profile | 32 × 1k-gate BLIFs (sta, lint, optimize), 32 × 5k-gate BLIFs (campaigns), one copy per client |
//!
//! A run measures for `--seconds` and for at least 100 jobs (50 per
//! `serve-mix` client), so that the p90 has ten samples beyond it. The
//! netlists differ in depth from seed to seed (STA job times vary by
//! about 13% between them); 32 of them per run keep a run's median close
//! to the same on every seed.
//!
//! # Usage
//!
//! ```text
//! lvbench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the JSON result
//! lvbench run --seed N [--out FILE]                       timed runs of all workloads, RUN_SECONDS each
//! lvbench trace --seed N                                  per-layer runs of all workloads
//! lvbench compare A.json B.json                           two `run --out` files against BENCHMARK.json's bounds
//! ```
//!
//! `compare` reads `BENCHMARK.json` from the current directory: run it
//! from the repository root.
//!
//! Build first with `cargo build --release -p lowvolt-cli` (repository
//! root) and `cargo build --release --manifest-path e2ebench/Cargo.toml`
//! into the same `CARGO_TARGET_DIR`: `lvbench` runs the `lowvolt` next
//! to its own executable, with `LOWVOLT_THREADS` removed from every
//! child's environment. `python3 e2ebench/run.py ARGS` does both builds
//! and then runs `lvbench ARGS`.
//!
//! # Reading the results
//!
//! A timed run (`--trace 0`, `run`) reports, per workload:
//!
//! - `job_p50_ms`, `job_p90_ms` — job time: spawn to reap with stdout
//!   drained for CLI jobs, submit to decoded result for serve jobs.
//!   Output checks and hashing happen after the clock stops.
//! - `jobs_per_s` — completed jobs per second of the measuring loop.
//! - `peak_rss_mb` — the largest child `ru_maxrss`; for `serve-mix`,
//!   the daemon's `VmHWM` read before shutdown.
//! - `setup_s` — median of eleven set-ups (input generation, BLIF writes,
//!   daemon start until it answers `ping`).
//!
//! `attempted`/`failed` count jobs; a failure is a nonzero exit, an
//! `error` event, or a failed output check (STA header gate count and a
//! finite positive critical delay; campaign classes summing to `faults`
//! with nothing errored; serve status `ok` and `computed == 0` on a
//! resubmission). `output_digest` is FNV-64 over the first 100 outputs
//! (50 per serve client) in job order: equal seeds give equal digests.
//!
//! A traced run (`--trace 1`, `trace`) re-executes the first 10 jobs of
//! the workload inside this process (see [`trace`]), re-runs 3 of them
//! through the CLI, and for `serve-mix` submits them over a raw socket.
//! A probe of one job of each serve kind runs the same way on every
//! workload and asserts the serve payload is byte-identical to the CLI
//! stdout; a layer the workload's own jobs never enter is measured on
//! the probe. Each traced job is repeated (15 times, more for short
//! jobs) and a layer's time is its minimum. Each repetition calls the
//! job's `serve::jobs` function once and times the layers by separate
//! calls (parse, target copy, compile, frees, render); the STA passes
//! and the campaign proper are the program's own spans inside the job
//! call. `trace.coverage` is the smallest ratio, over the traced STA and
//! compiled-campaign jobs (the kinds split into several layers), of the
//! summed layer times to the wall time of the job function, both minima
//! over the repetitions: what it lacks of 1 is work no layer covers
//! (such as the campaign's fault universe). `serve.accept_ms` is the
//! wait from sending a request until the `accepted` line is complete,
//! and `serve.exec_ms` runs from there to the complete `result` line.
//! `cli.overhead_ms` is a CLI run's wall time less the job function's:
//! process start, stdout and exit. Which end-to-end number each layer
//! should move:
//!
//! | layer metric | moves | on |
//! |---|---|---|
//! | `io.parse_*` | `job_p50_ms`, `peak_rss_mb` | `sta-import` (heavy), `campaign-import` |
//! | `circuit.*` | `job_p50_ms` | both CLI workloads |
//! | `sta.*` | `job_p50_ms` | `sta-import` |
//! | `campaign.*`, `compiled.*` | `job_p50_ms`, `jobs_per_s` | `campaign-import` |
//! | `exec.utilization`, `exec.items`, `cli.cpu_per_wall` | `jobs_per_s` | `campaign-import`, `serve-mix` |
//! | `cli.overhead_ms` | `job_p50_ms` | `sta-import` (multi-MB stdout) |
//! | `serve.request_parse_us`, `serve.accept_ms` | `job_p90_ms`, `jobs_per_s` | `serve-mix` |
//! | `serve.{exec,decode}_ms.<kind>`, `serve.result_kb.<kind>` | `job_p50_ms`, `job_p90_ms` | `serve-mix` |
//! | `exec.cache_hit_ratio`, `exec.replay_ratio`, `checkpoint.records`, `serve.shard_rounds`, `serve.daemon_cpu_per_wall` | `job_p50_ms` of replayed vs fresh campaigns | `serve-mix` |

pub mod check;
pub mod compare;
pub mod jobs;
pub mod measure;
pub mod proc;
pub mod stats;
pub mod trace;

use std::path::Path;

use lowvolt_serve::json::Json;

use crate::jobs::{Scale, Workload};
use crate::measure::Outcome;
use crate::proc::Program;

/// Seconds one timed run measures: `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 30;

/// Runs one workload — timed, or traced when `traced` — in a fresh
/// scratch directory under `work_root`, which it removes afterwards.
/// A traced run leaves its spans in `work_root`.
///
/// # Errors
///
/// Set-up failures, missing samples, or a non-finite metric.
pub fn run_workload(
    program: &Program,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: &Scale,
    work_root: &Path,
) -> Result<Outcome, String> {
    let work = work_root.join(format!(
        "{}-seed{seed}-pid{}",
        workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let outcome = if traced {
        let spans = work_root.join(format!("spans-{}-seed{seed}.json", workload.name()));
        trace::trace(program, workload, seed, scale, &work, &spans)
    } else {
        measure::measure(program, workload, seed, seconds, scale, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome?;
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{} measured {} = {}",
            workload.name(),
            m.name,
            m.value
        ));
    }
    Ok(outcome)
}

/// The metrics as a JSON object `{name: {"value": v, "unit": u}}`.
#[must_use]
pub fn metrics_json(outcome: &Outcome) -> Json {
    Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), value)
            })
            .collect(),
    )
}

/// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(outcome: &Outcome) -> String {
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(outcome.correct())),
        ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("metrics".to_string(), metrics_json(outcome)),
    ])
    .to_string()
}
