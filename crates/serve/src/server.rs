//! The `lowvolt serve` daemon: a TCP accept loop, one handler thread
//! per connection, and journal/cache-backed job execution.
//!
//! State layout under the daemon's state directory:
//!
//! ```text
//! <state>/cache/                   shared LVGC0001 golden-trace cache
//! <state>/jobs/job-<id16>.lvjr     LVJR0001 journal per campaign job id
//! ```
//!
//! A campaign job's journal is keyed by the job identity
//! ([`crate::proto::JobRequest::id`]), so resubmitting the same job —
//! including after the daemon was killed mid-job — resumes from the
//! journal instead of recomputing, and the final payload is
//! byte-identical to an uninterrupted run. Orphaned cache temp files
//! from a kill are swept at bind time.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use lowvolt_exec::{ByteCache, ExecPolicy};
use lowvolt_obs::json::quote;
use lowvolt_obs::{names, MetricsRegistry, Recorder};

use crate::jobs::{
    run_campaign_job, run_lint_job, run_optimize_job, run_profile_job, run_sta_job,
    CampaignPersist, JobError, JobSink, RunMode,
};
use crate::proto::{
    accepted_event, error_event, hello_event, parse_request, progress_event, warning_event,
    write_result_event, JobKind, JobRequest, Request, MAX_LINE_BYTES,
};

/// Default campaign shard size (newly journaled items per progress
/// report) when the request does not specify `shard_items`.
pub const DEFAULT_SHARD_ITEMS: usize = 256;

/// A daemon-level failure (bind, state-directory, or accept error).
#[derive(Debug)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ServeError {}

struct ServerState {
    cache: ByteCache,
    jobs_dir: PathBuf,
    registry: MetricsRegistry,
    active: Mutex<std::collections::HashSet<u64>>,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// The campaign/sweep job service.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the service socket and prepares the state directory
    /// (creating `cache/` and `jobs/`, sweeping orphaned cache temp
    /// files from a previous kill).
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the address cannot be bound or the state
    /// directory cannot be created.
    pub fn bind(addr: &str, state_dir: impl Into<PathBuf>) -> Result<Server, ServeError> {
        let state_dir = state_dir.into();
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError(format!("cannot listen on {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError(format!("cannot resolve bound address: {e}")))?;
        let cache =
            ByteCache::open(state_dir.join("cache")).map_err(|e| ServeError(e.to_string()))?;
        cache.sweep_temp_files();
        let jobs_dir = state_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)
            .map_err(|e| ServeError(format!("cannot create {}: {e}", jobs_dir.display())))?;
        sweep_tmp(&jobs_dir);
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                cache,
                jobs_dir,
                registry: MetricsRegistry::new(),
                active: Mutex::new(std::collections::HashSet::new()),
                shutdown: AtomicBool::new(false),
                addr: local,
            }),
        })
    }

    /// The actually-bound socket address (resolves `:0` listens).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Accepts and serves connections until a `shutdown` command
    /// arrives. Each connection gets its own handler thread; in-flight
    /// jobs on other connections are not waited for (their journal
    /// records survive for a resumed submission).
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the accept loop itself fails.
    pub fn run(&self) -> Result<(), ServeError> {
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) => return Err(ServeError(format!("accept failed: {e}"))),
            };
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || handle_connection(&state, stream));
        }
        Ok(())
    }
}

fn sweep_tmp(dir: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") && path.is_file() {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// `{"name":count,...}` for every non-zero catalog counter.
fn counters_json(registry: &MetricsRegistry) -> String {
    let mut out = String::from("{");
    let snapshot = registry.snapshot();
    let mut first = true;
    for (name, value) in snapshot.counters() {
        if *value == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{}:{value}", quote(name)));
    }
    out.push('}');
    out
}

/// The full metrics report as a single-line JSON object (the obs JSON
/// is pretty-printed; escaped strings never contain a raw newline, so
/// stripping them keeps it valid).
fn metrics_json(registry: &MetricsRegistry) -> String {
    registry.snapshot().to_json().replace('\n', "")
}

enum LineRead {
    Eof,
    Line(String),
    Oversized,
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] bytes.
/// Longer lines are consumed to their newline and reported as
/// [`LineRead::Oversized`] so the connection stays in sync.
fn read_line_capped<R: BufRead>(reader: &mut R) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if oversized {
                return Ok(LineRead::Oversized);
            }
            if buf.is_empty() {
                return Ok(LineRead::Eof);
            }
            // A trailing line without a newline still counts.
            return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
        }
        let newline = available.iter().position(|&b| b == b'\n');
        match newline {
            Some(i) => {
                if !oversized && buf.len() + i <= MAX_LINE_BYTES {
                    buf.extend_from_slice(&available[..i]);
                } else {
                    oversized = true;
                }
                reader.consume(i + 1);
                if oversized {
                    return Ok(LineRead::Oversized);
                }
                let mut line = String::from_utf8_lossy(&buf).into_owned();
                if line.ends_with('\r') {
                    line.pop();
                }
                return Ok(LineRead::Line(line));
            }
            None => {
                let n = available.len();
                if !oversized && buf.len() + n <= MAX_LINE_BYTES {
                    buf.extend_from_slice(available);
                } else {
                    oversized = true;
                    buf.clear();
                }
                reader.consume(n);
            }
        }
    }
}

/// A connection's event stream. Each line is buffered and flushed
/// once, so a line that fits the buffer leaves in one write; with
/// `TCP_NODELAY` on the socket, the last write of a longer line does
/// not wait for the client's delayed ACK either.
type Events = BufWriter<TcpStream>;

/// Writes one event line; returns `false` once the client is gone so
/// callers can stop emitting without aborting the job (journaled work
/// is never wasted by a disconnect).
fn send(out: &mut Events, event: &str) -> bool {
    send_with(out, |out| out.write_all(event.as_bytes()))
}

/// [`send`] for a line that `write` renders straight into the stream.
fn send_with(out: &mut Events, write: impl FnOnce(&mut Events) -> std::io::Result<()>) -> bool {
    write(out)
        .and_then(|()| out.write_all(b"\n"))
        .and_then(|()| out.flush())
        .is_ok()
}

/// Blocks until the client closes the connection, discarding anything
/// it sends.
fn hold(mut stream: &TcpStream) {
    let mut buf = [0u8; 256];
    while matches!(stream.read(&mut buf), Ok(n) if n > 0) {}
}

fn handle_connection(state: &ServerState, stream: TcpStream) {
    state.registry.add(names::SERVE_CONNECTIONS, 1);
    // Events are whole lines written once each; Nagle's algorithm would
    // only add a delayed-ACK wait to every round trip.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => BufWriter::new(w),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    if !send(&mut writer, &hello_event()) {
        return;
    }
    loop {
        let line = match read_line_capped(&mut reader) {
            Ok(LineRead::Eof) => return,
            Ok(LineRead::Line(line)) => line,
            Ok(LineRead::Oversized) => {
                state.registry.add(names::SERVE_REQUESTS_BAD, 1);
                if !send(
                    &mut writer,
                    &error_event(&format!("request line exceeds {MAX_LINE_BYTES} bytes")),
                ) {
                    return;
                }
                continue;
            }
            // A mid-write disconnect or reset: clean drop.
            Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Err(e) => {
                state.registry.add(names::SERVE_REQUESTS_BAD, 1);
                if !send(&mut writer, &error_event(&e.0)) {
                    return;
                }
            }
            Ok(Request::Ping) => {
                if !send(&mut writer, "{\"event\":\"pong\"}") {
                    return;
                }
            }
            Ok(Request::Stats) => {
                let event = format!(
                    "{{\"event\":\"stats\",\"counters\":{}}}",
                    counters_json(&state.registry)
                );
                if !send(&mut writer, &event) {
                    return;
                }
            }
            Ok(Request::Shutdown) => {
                state.shutdown.store(true, Ordering::SeqCst);
                let _ = send(&mut writer, "{\"event\":\"bye\"}");
                // Unblock the accept loop so `run` observes the flag.
                let _ = TcpStream::connect(state.addr);
                return;
            }
            Ok(Request::Job(job)) => {
                if !run_job(state, &mut writer, &job) {
                    return;
                }
            }
        }
    }
}

/// Streams a job's progress/warning events to the client.
struct StreamSink<'a> {
    writer: &'a mut Events,
    registry: &'a MetricsRegistry,
    id: u64,
    connected: bool,
    /// Progress events left before the job is held
    /// ([`JobRequest::hold_after`]).
    hold_in: Option<u64>,
}

impl JobSink for StreamSink<'_> {
    fn progress(&mut self, done: u64, total: u64) {
        if self.connected {
            let event = progress_event(self.id, done, total, &counters_json(self.registry));
            self.connected = send(self.writer, &event);
        }
        if let Some(left) = &mut self.hold_in {
            *left = left.saturating_sub(1);
            if *left == 0 && self.connected {
                hold(self.writer.get_ref());
                self.connected = false;
            }
        }
    }

    fn warning(&mut self, message: &str) {
        if self.connected {
            self.connected = send(self.writer, &warning_event(self.id, message));
        }
    }
}

/// Removes the job id from the active set even on unwind.
struct ActiveGuard<'a> {
    state: &'a ServerState,
    id: u64,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        if let Ok(mut active) = self.state.active.lock() {
            active.remove(&self.id);
        }
    }
}

/// Runs one job and emits its event stream. Returns `false` once the
/// client connection is gone.
fn run_job(state: &ServerState, writer: &mut Events, job: &JobRequest) -> bool {
    let id = job.id();
    {
        let Ok(mut active) = state.active.lock() else {
            return send(writer, &error_event("daemon state poisoned"));
        };
        if !active.insert(id) {
            return send(
                writer,
                &error_event(&format!(
                    "job {id:016x} is already running (identical submission in flight)"
                )),
            );
        }
    }
    let guard = ActiveGuard { state, id };
    state.registry.add(names::SERVE_JOBS, 1);
    if !send(writer, &accepted_event(id, job.kind.name())) {
        // Client gone before the job even started: skip the work.
        return false;
    }
    let policy = match job.threads {
        Some(n) => ExecPolicy::with_threads(n),
        None => ExecPolicy::from_env(),
    };
    let registry = MetricsRegistry::new();
    let outcome = execute_kind(state, writer, job, id, &policy, &registry);
    // Release the id before the final event: a client that resubmits as
    // soon as it reads the result must find the job no longer running.
    drop(guard);
    match outcome {
        Err(e) => send(writer, &error_event(&e.0)),
        Ok(done) => {
            let metrics = metrics_json(&registry);
            send_with(writer, |out| {
                write_result_event(
                    out,
                    id,
                    done.status,
                    done.replayed,
                    done.computed,
                    done.journal_records,
                    &done.payload,
                    &metrics,
                )
            })
        }
    }
}

struct JobDone {
    status: &'static str,
    payload: String,
    replayed: u64,
    computed: u64,
    journal_records: u64,
}

impl JobDone {
    fn plain(payload: String) -> JobDone {
        JobDone {
            status: "ok",
            payload,
            replayed: 0,
            computed: 0,
            journal_records: 0,
        }
    }
}

fn execute_kind(
    state: &ServerState,
    writer: &mut Events,
    job: &JobRequest,
    id: u64,
    policy: &ExecPolicy,
    registry: &MetricsRegistry,
) -> Result<JobDone, JobError> {
    let mut sink = StreamSink {
        writer,
        registry,
        id,
        connected: true,
        hold_in: job.hold_after,
    };
    match &job.kind {
        JobKind::Campaign(spec) => {
            let journal = state.jobs_dir.join(format!("job-{id:016x}.lvjr"));
            let journal = journal.display().to_string();
            let persist = CampaignPersist {
                checkpoint: Some(&journal),
                resume: true,
                cache: Some(&state.cache),
                mode: RunMode::Sharded {
                    shard_items: job.shard_items.unwrap_or(DEFAULT_SHARD_ITEMS).max(1),
                },
                announce: false,
            };
            let outcome = run_campaign_job(policy, registry, spec, &persist, &mut sink)?;
            Ok(JobDone {
                status: "ok",
                payload: outcome.payload,
                replayed: outcome.replayed,
                computed: outcome.computed,
                journal_records: outcome.journal_records,
            })
        }
        JobKind::Optimize(spec) => {
            let mut spec = spec.clone();
            if let Some(tile) = job.shard_items {
                spec.tile_points = tile.max(1);
            }
            Ok(JobDone::plain(run_optimize_job(policy, &spec, &mut sink)?))
        }
        JobKind::Lint(spec) => {
            let outcome = run_lint_job(policy, registry, spec)?;
            Ok(JobDone {
                status: if outcome.gate_failed {
                    "gate_failed"
                } else {
                    "ok"
                },
                payload: outcome.payload,
                replayed: 0,
                computed: 0,
                journal_records: 0,
            })
        }
        JobKind::Sta(spec) => Ok(JobDone::plain(run_sta_job(policy, registry, spec)?)),
        JobKind::Profile(spec) => Ok(JobDone::plain(run_profile_job(registry, spec)?)),
    }
}
