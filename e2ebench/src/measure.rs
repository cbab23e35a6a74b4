//! Timed end-to-end runs (tracing off): closed-loop clients drive the
//! real program for `--seconds`, every output is checked, and the run
//! reports job latency, throughput, peak memory and set-up time.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lowvolt_serve::client;

use crate::check::Digest;
use crate::jobs::{make_inputs, Inputs, JobStream, Scale, Spec, Workload};
use crate::proc::{vm_hwm_kb, Daemon, Program};
use crate::stats::{median, tail_quantile};

/// Hard stop for the measuring loop, whatever the minimum job count
/// asks, so a run on a badly overloaded host still ends in time.
const HARD_CAP: Duration = Duration::from_secs(120);

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Jobs started.
    pub attempted: usize,
    /// Jobs that exited nonzero, returned an `error` event, or failed
    /// an output check.
    pub failed: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// FNV-64 of the per-job outputs in job order (over a fixed number
    /// of jobs per client, so it does not depend on the host's speed);
    /// timed runs only.
    pub digest: Option<String>,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Per-job lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every job succeeded and passed its checks.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The files and daemon one set-up produced.
struct Prepared {
    dir: PathBuf,
    inputs: Vec<Inputs>,
    daemon: Option<Daemon>,
}

/// Set-up: input generation, BLIF writes, and (for `serve-mix`) daemon
/// start until it answers `ping`. Repeated `scale.setup_reps` times; the
/// median is `setup_s` and the last set-up is the one measured.
fn set_up(
    program: &Program,
    workload: Workload,
    seed: u64,
    scale: &Scale,
    work: &Path,
) -> Result<(Prepared, f64), String> {
    let mut times = Vec::new();
    let mut kept: Option<Prepared> = None;
    for rep in 0..scale.setup_reps.max(1) {
        let dir = work.join(format!("setup{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let start = Instant::now();
        let inputs = make_inputs(workload, scale, seed, &dir)?;
        let daemon = match workload {
            Workload::ServeMix => {
                Some(program.start_daemon(&dir.join("state"), &dir.join("daemon.log"))?)
            }
            _ => None,
        };
        times.push(start.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(Prepared {
            dir,
            inputs,
            daemon,
        }) {
            if let Some(d) = old.daemon {
                d.shutdown()?;
            }
            std::fs::remove_dir_all(&old.dir).map_err(|e| format!("{}: {e}", old.dir.display()))?;
        }
    }
    let setup_s = median(&times).ok_or("no set-up ran")?;
    Ok((kept.ok_or("no set-up ran")?, setup_s))
}

/// One client's record of its jobs.
#[derive(Default)]
struct ClientLog {
    times_ms: Vec<f64>,
    failed: usize,
    failures: Vec<String>,
    digest: Digest,
    digested: usize,
    peak_rss_kb: u64,
}

impl ClientLog {
    fn record(&mut self, ms: f64, output: &str, verdict: Result<(), String>, digest_jobs: usize) {
        self.times_ms.push(ms);
        if let Err(e) = verdict {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(e);
            }
        }
        if self.digested < digest_jobs {
            self.digest.push(output.as_bytes());
            self.digested += 1;
        }
    }
}

/// Runs one workload for `seconds` (and at least `scale.min_jobs`
/// jobs) with tracing off. `work` is an empty scratch directory.
///
/// # Errors
///
/// Set-up failures, or too few jobs for a p90.
pub fn measure(
    program: &Program,
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    work: &Path,
) -> Result<Outcome, String> {
    let (prepared, setup_s) = set_up(program, workload, seed, scale, work)?;
    let clients = workload.clients();
    let min_per_client = scale.min_jobs.div_ceil(clients);
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let keep_going = |done: usize| {
        let t = start.elapsed();
        (t < deadline || done < min_per_client) && t < HARD_CAP
    };

    let (logs, peak_rss_kb) = match &prepared.daemon {
        None => {
            let mut log = ClientLog::default();
            let stream = JobStream::new(workload, &prepared.inputs[0], seed, 0);
            for spec in stream {
                if !keep_going(log.times_ms.len()) {
                    break;
                }
                let run = program.run_cli(&spec)?;
                let verdict = match &run.error {
                    Some(e) => Err(format!("{}: {e}", spec.kind())),
                    None => spec.check(&run.stdout),
                };
                log.peak_rss_kb = log.peak_rss_kb.max(run.maxrss_kb);
                log.record(run.wall_ms, &run.stdout, verdict, min_per_client);
            }
            let rss = log.peak_rss_kb;
            (vec![log], rss)
        }
        Some(daemon) => {
            let logs = std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let inputs = &prepared.inputs[c];
                        s.spawn(move || {
                            let mut log = ClientLog::default();
                            for spec in JobStream::new(workload, inputs, seed, c as u64) {
                                if !keep_going(log.times_ms.len()) {
                                    break;
                                }
                                let t = Instant::now();
                                let res =
                                    client::submit_line(&daemon.addr, &spec.request(), &mut |_| {});
                                let ms = t.elapsed().as_secs_f64() * 1e3;
                                let (payload, verdict) = serve_verdict(&spec, res);
                                log.record(ms, &payload, verdict, min_per_client);
                            }
                            log
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            (logs, vm_hwm_kb(daemon.pid).unwrap_or(0))
        }
    };
    let elapsed_s = start.elapsed().as_secs_f64();
    if let Some(d) = prepared.daemon {
        d.shutdown()?;
    }

    let times: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.times_ms.iter().copied())
        .collect();
    let mut digest = Digest::default();
    for log in &logs {
        digest.push(log.digest.hex().as_bytes());
    }
    let p50 = median(&times).ok_or("no jobs completed")?;
    let p90 = tail_quantile(&times, 0.9)?;
    Ok(Outcome {
        attempted: times.len(),
        failed: logs.iter().map(|l| l.failed).sum(),
        metrics: vec![
            Metric::new("job_p50_ms", p50, "ms"),
            Metric::new("job_p90_ms", p90, "ms"),
            Metric::new("jobs_per_s", times.len() as f64 / elapsed_s, "1/s"),
            Metric::new("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MiB"),
            Metric::new("setup_s", setup_s, "s"),
        ],
        digest: Some(digest.hex()),
        failures: logs.into_iter().flat_map(|l| l.failures).collect(),
        notes: Vec::new(),
    })
}

/// The payload a serve job returned and whether it passes: status `ok`,
/// the kind's output check, and no recomputation on a resubmission.
fn serve_verdict(
    spec: &Spec,
    res: Result<client::SubmitOutcome, lowvolt_serve::jobs::JobError>,
) -> (String, Result<(), String>) {
    match res {
        Err(e) => (String::new(), Err(format!("{}: {e}", spec.kind()))),
        Ok(out) => {
            let verdict = if out.status != "ok" {
                Err(format!("{}: status `{}`", spec.kind(), out.status))
            } else if matches!(spec, Spec::Replay(_)) && out.computed != 0 {
                Err(format!(
                    "resubmission recomputed {} journal item(s)",
                    out.computed
                ))
            } else {
                spec.check(&out.payload)
            };
            (out.payload, verdict)
        }
    }
}
