//! Protocol robustness: malformed JSON, unknown job kinds, oversized
//! lines, and mid-write client disconnects must each yield a structured
//! `error` event (or a clean connection drop) without killing the
//! daemon — and no journal or cache temp files may be left behind.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use lowvolt_exec::ExecPolicy;
use lowvolt_serve::client;
use lowvolt_serve::jobs::{run_campaign_job, CampaignPersist, CampaignSpec, NullSink, SourceSpec};
use lowvolt_serve::server::Server;

/// Binds an in-process daemon on an ephemeral port with its own state
/// directory; returns the address, the state dir, and the serve thread.
fn start(name: &str) -> (String, PathBuf, std::thread::JoinHandle<()>) {
    let state = std::env::temp_dir().join(format!(
        "lowvolt_serve_protocol_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&state);
    let server = Server::bind("127.0.0.1:0", &state).expect("binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, state, handle)
}

/// A raw protocol connection (no client-library conveniences) so tests
/// can send byte-exact garbage.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connects");
        let writer = stream.try_clone().expect("clones");
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
        };
        let hello = conn.recv();
        assert!(hello.contains("\"event\":\"hello\""), "{hello}");
        conn
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("writes");
        self.writer.write_all(b"\n").expect("writes newline");
        self.writer.flush().expect("flushes");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reads");
        assert!(n > 0, "daemon closed the connection unexpectedly");
        line.trim_end().to_string()
    }
}

/// Every `*.tmp` file anywhere under the daemon's state directory.
fn temp_files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            found.extend(temp_files(&path));
        } else if path.extension().is_some_and(|e| e == "tmp") {
            found.push(path);
        }
    }
    found
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let bye = client::control(addr, "shutdown").expect("shutdown answers");
    assert!(bye.contains("\"event\":\"bye\""), "{bye}");
    handle.join().expect("serve thread exits cleanly");
}

#[test]
fn malformed_json_gets_a_structured_error_and_the_connection_survives() {
    let (addr, state, handle) = start("malformed");
    let mut conn = Conn::open(&addr);

    conn.send("this is not json {{{");
    let err = conn.recv();
    assert!(err.contains("\"event\":\"error\""), "{err}");

    // Same connection, same daemon: still serving.
    conn.send("{\"cmd\":\"ping\"}");
    assert!(conn.recv().contains("\"event\":\"pong\""));

    // Non-object JSON and tag-less objects are rejected with messages,
    // not drops.
    conn.send("[1,2,3]");
    assert!(conn.recv().contains("JSON object"));
    conn.send("{\"neither\":true}");
    assert!(conn.recv().contains("`job` or `cmd`"));

    shutdown(&addr, handle);
    assert!(temp_files(&state).is_empty());
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn unknown_job_kinds_and_commands_are_rejected_by_name() {
    let (addr, state, handle) = start("unknown");
    let mut conn = Conn::open(&addr);

    conn.send("{\"job\":\"mine-bitcoin\"}");
    let err = conn.recv();
    assert!(err.contains("unknown job kind `mine-bitcoin`"), "{err}");
    assert!(
        err.contains("campaign, optimize, lint, sta, profile"),
        "{err}"
    );

    conn.send("{\"cmd\":\"reboot\"}");
    let err = conn.recv();
    assert!(err.contains("unknown command `reboot`"), "{err}");

    // A well-formed job with a bad field value is also a structured
    // error, not a crash.
    conn.send("{\"job\":\"campaign\",\"vectors\":\"many\"}");
    let err = conn.recv();
    assert!(err.contains("non-negative integer"), "{err}");

    shutdown(&addr, handle);
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn unbounded_campaign_vectors_are_an_error_not_a_daemon_abort() {
    let (addr, state, handle) = start("vectors");
    let mut conn = Conn::open(&addr);

    // 10^11 vectors would expand to terabytes of stimulus; the daemon
    // must refuse the job, for every client, and keep serving.
    for engine in ["event", "compiled"] {
        conn.send(&format!(
            "{{\"job\":\"campaign\",\"width\":2,\"vectors\":100000000000,\"engine\":\"{engine}\"}}"
        ));
        let mut event = conn.recv();
        while event.contains("\"event\":\"accepted\"") {
            event = conn.recv();
        }
        assert!(event.contains("\"event\":\"error\""), "{event}");
        assert!(event.contains("at most 1048576 (2^20) vectors"), "{event}");
    }
    conn.send("{\"cmd\":\"ping\"}");
    assert!(conn.recv().contains("\"event\":\"pong\""));

    shutdown(&addr, handle);
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn oversized_lines_are_rejected_and_the_stream_stays_in_sync() {
    let (addr, state, handle) = start("oversized");
    let mut conn = Conn::open(&addr);

    // One line just past the 1 MiB cap. The daemon must consume the
    // whole line (staying in sync) and answer with an error event.
    let huge = "x".repeat((1 << 20) + 1);
    conn.send(&huge);
    let err = conn.recv();
    assert!(err.contains("exceeds"), "{err}");

    // The very next line must parse as its own request.
    conn.send("{\"cmd\":\"ping\"}");
    assert!(conn.recv().contains("\"event\":\"pong\""));

    shutdown(&addr, handle);
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn mid_write_disconnect_is_a_clean_drop() {
    let (addr, state, handle) = start("disconnect");

    // Half a request with no newline, then hang up.
    {
        let mut stream = TcpStream::connect(&addr).expect("connects");
        let mut hello = String::new();
        BufReader::new(stream.try_clone().expect("clones"))
            .read_line(&mut hello)
            .expect("hello");
        stream.write_all(b"{\"job\":\"camp").expect("partial write");
        stream.flush().expect("flushes");
    } // dropped here, mid-request

    // Hang up before even reading the hello.
    drop(TcpStream::connect(&addr).expect("connects"));

    // The daemon must still be alive and serving new connections.
    let mut conn = Conn::open(&addr);
    conn.send("{\"cmd\":\"ping\"}");
    assert!(conn.recv().contains("\"event\":\"pong\""));

    shutdown(&addr, handle);
    assert!(temp_files(&state).is_empty());
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn stats_reports_daemon_counters() {
    let (addr, state, handle) = start("stats");
    let mut conn = Conn::open(&addr);
    conn.send("{\"job\":\"mine-bitcoin\"}");
    let _ = conn.recv();
    conn.send("{\"cmd\":\"stats\"}");
    let stats = conn.recv();
    assert!(stats.contains("\"event\":\"stats\""), "{stats}");
    assert!(stats.contains("\"serve.connections\":"), "{stats}");
    assert!(stats.contains("\"serve.requests.bad\":"), "{stats}");
    shutdown(&addr, handle);
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn resubmitted_campaign_replays_the_journal_and_leaves_no_temp_files() {
    let (addr, state, handle) = start("resubmit");
    let request =
        "{\"job\":\"campaign\",\"width\":2,\"vectors\":4,\"threads\":2,\"shard_items\":7}";

    let mut progress: Vec<(u64, u64)> = Vec::new();
    let first = client::submit_line(&addr, request, &mut |e| {
        if let client::Event::Progress { done, total } = e {
            progress.push((*done, *total));
        }
    })
    .expect("first submission completes");
    assert_eq!(first.status, "ok");
    assert!(first.journal_records > 0);
    assert_eq!(first.replayed, 0);
    assert!(first.computed > 0);
    assert!(
        progress.len() >= 2,
        "a progress event every 7 journaled items"
    );
    for w in progress.windows(2) {
        assert!(w[1].0 > w[0].0, "monotone progress: {progress:?}");
    }
    let (done, total) = *progress.last().expect("has progress");
    assert_eq!(done, total);

    // Same request again: the journal satisfies every item, the golden
    // traces come from the cache, and the payload is unchanged.
    let again = client::submit_line(&addr, request, &mut |_| {}).expect("resubmission completes");
    assert_eq!(again.payload, first.payload, "byte-identical resubmission");
    assert_eq!(again.computed, 0, "nothing re-executes");
    assert_eq!(again.replayed, first.computed);
    assert!(
        again.metrics.contains("\"cache.hits\""),
        "{}",
        again.metrics
    );

    assert!(temp_files(&state).is_empty(), "{:?}", temp_files(&state));
    shutdown(&addr, handle);
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn a_job_resubmitted_the_moment_its_result_arrives_is_accepted() {
    let (addr, state, handle) = start("result_then_resubmit");
    let request = "{\"job\":\"sta\",\"source\":{\"kind\":\"generate\",\"gates\":100,\"seed\":7}}";
    const ROUNDS: usize = 20;

    // Two connections take turns: each submits the identical job as
    // soon as the other has read its result, so the daemon must have
    // released the job id before it sent that result.
    let mut conns = [Conn::open(&addr), Conn::open(&addr)];
    conns[0].send(request);
    for round in 0..ROUNDS {
        let conn = &mut conns[round % 2];
        let accepted = conn.recv();
        assert!(
            accepted.contains("\"event\":\"accepted\""),
            "round {round}: {accepted}"
        );
        loop {
            let event = conn.recv();
            assert!(
                !event.contains("\"event\":\"error\""),
                "round {round}: {event}"
            );
            if event.contains("\"event\":\"result\"") {
                break;
            }
        }
        if round + 1 < ROUNDS {
            conns[(round + 1) % 2].send(request);
        }
    }

    shutdown(&addr, handle);
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn a_campaign_whose_items_all_fail_finishes() {
    // With a 0 ms item deadline every item fails and none is journaled;
    // the daemon must still attempt each item once and answer.
    let (addr, state, handle) = start("all_errored");
    let request =
        "{\"job\":\"campaign\",\"width\":4,\"vectors\":8,\"threads\":1,\"item_timeout_ms\":0}";
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut progress: Vec<(u64, u64)> = Vec::new();
            let result = client::submit_line(&addr, request, &mut |e| {
                if let client::Event::Progress { done, total } = e {
                    progress.push((*done, *total));
                }
            });
            let _ = tx.send((result, progress));
        }
    });
    let (result, progress) = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the job finishes instead of re-running failed items");
    let result = result.expect("a result, not an error");

    // The CLI's `campaign --width 4 --vectors 8 --threads 1
    // --item-timeout-ms 0`, whose table follows its header block.
    let spec = CampaignSpec {
        width: 4,
        vectors: 8,
        item_timeout_ms: Some(0),
        ..CampaignSpec::new(SourceSpec::Builtin)
    };
    let cli = run_campaign_job(
        &ExecPolicy::with_threads(1),
        lowvolt_obs::noop(),
        &spec,
        &CampaignPersist::default(),
        &mut NullSink,
    )
    .expect("CLI run");
    let table = |payload: &str| payload.split_once("\n\n").map(|(_, t)| t.to_string());
    assert_eq!(table(&result.payload), table(&cli.payload));
    assert_eq!(result.journal_records, 0, "no item succeeded");
    let (done, total) = *progress.last().expect("has progress");
    assert_eq!(done, total);

    shutdown(&addr, handle);
    std::fs::remove_dir_all(&state).ok();
}
