//! A minimal blocking client for the serve protocol, used by
//! `lowvolt submit` and the conformance tests.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use lowvolt_obs::json::{quote, Json};

use crate::jobs::JobError;

/// Everything a finished job reported.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// `"ok"` or `"gate_failed"`.
    pub status: String,
    /// The report payload, byte-identical to the equivalent CLI run.
    pub payload: String,
    /// The job's single-line metrics report (JSON object text).
    pub metrics: String,
    /// Journal items replayed from a previous submission.
    pub replayed: u64,
    /// Journal items newly computed by this submission.
    pub computed: u64,
    /// Records on the job's journal after completion.
    pub journal_records: u64,
}

/// A streamed event observed while a submission runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The job was accepted under this id (16 hex digits).
    Accepted {
        /// Job identity as rendered by the daemon.
        id: String,
    },
    /// `done` of `total` journal items complete.
    Progress {
        /// Items complete so far.
        done: u64,
        /// Items in the whole job.
        total: u64,
    },
    /// A non-payload diagnostic.
    Warning {
        /// Warning text.
        message: String,
    },
}

/// Connects to `addr`, submits one request line, and streams events to
/// `on_event` until the final `result` arrives.
///
/// # Errors
///
/// [`JobError`] on connection failure, protocol violations, or a
/// daemon-side `error` event (whose message is passed through).
pub fn submit_line(
    addr: &str,
    request: &str,
    on_event: &mut dyn FnMut(&Event),
) -> Result<SubmitOutcome, JobError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| JobError(format!("cannot connect to {addr}: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| JobError(format!("cannot clone connection: {e}")))?;
    let mut reader = BufReader::new(stream);

    let mut hello = String::new();
    reader
        .read_line(&mut hello)
        .map_err(|e| JobError(format!("connection lost reading hello: {e}")))?;
    let hello = Json::parse(hello.trim_end())
        .map_err(|e| JobError(format!("malformed hello from daemon: {e}")))?;
    if hello.get("event").and_then(Json::as_str) != Some("hello") {
        return Err(JobError("daemon did not say hello".to_string()));
    }

    writer
        .write_all(request.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| JobError(format!("cannot send request: {e}")))?;

    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| JobError(format!("connection lost: {e}")))?;
        if n == 0 {
            return Err(JobError(
                "daemon closed the connection before the result".to_string(),
            ));
        }
        let event = Json::parse(line.trim_end())
            .map_err(|e| JobError(format!("malformed event from daemon: {e}")))?;
        match event.get("event").and_then(Json::as_str) {
            Some("accepted") => {
                let id = event
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                on_event(&Event::Accepted { id });
            }
            Some("progress") => {
                let done = event.get("done").and_then(Json::as_u64).unwrap_or(0);
                let total = event.get("total").and_then(Json::as_u64).unwrap_or(0);
                on_event(&Event::Progress { done, total });
            }
            Some("warning") => {
                let message = event
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                on_event(&Event::Warning { message });
            }
            Some("result") => {
                let field_str = |key: &str| {
                    event
                        .get(key)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                let field_u64 = |key: &str| event.get(key).and_then(Json::as_u64).unwrap_or(0);
                return Ok(SubmitOutcome {
                    status: field_str("status"),
                    payload: field_str("payload"),
                    metrics: event
                        .get("metrics")
                        .map(std::string::ToString::to_string)
                        .unwrap_or_default(),
                    replayed: field_u64("replayed"),
                    computed: field_u64("computed"),
                    journal_records: field_u64("journal_records"),
                });
            }
            Some("error") => {
                let message = event
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("daemon reported an error")
                    .to_string();
                return Err(JobError(message));
            }
            other => return Err(JobError(format!("unexpected event from daemon: {other:?}"))),
        }
    }
}

/// Sends one control command (`ping`, `stats`, `shutdown`) and returns
/// the daemon's answer line.
///
/// # Errors
///
/// [`JobError`] on connection or protocol failure.
pub fn control(addr: &str, cmd: &str) -> Result<String, JobError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| JobError(format!("cannot connect to {addr}: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| JobError(format!("cannot clone connection: {e}")))?;
    let mut reader = BufReader::new(stream);
    let mut hello = String::new();
    reader
        .read_line(&mut hello)
        .map_err(|e| JobError(format!("connection lost reading hello: {e}")))?;
    writer
        .write_all(format!("{{\"cmd\":{}}}\n", quote(cmd)).as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| JobError(format!("cannot send command: {e}")))?;
    let mut answer = String::new();
    reader
        .read_line(&mut answer)
        .map_err(|e| JobError(format!("connection lost: {e}")))?;
    Ok(answer.trim_end().to_string())
}
