//! End-to-end conformance suite for `lowvolt serve`: the real binary
//! runs as a daemon, jobs are submitted over the socket, and every
//! result payload is asserted byte-identical to the equivalent direct
//! CLI invocation — including after a SIGKILL of the daemon mid-job,
//! at 1/2/8 workers.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Output, Stdio};

use lowvolt_serve::client;

fn lowvolt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lowvolt"))
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lowvolt_serve_e2e_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The daemon as a child process. Killed on drop so a failing test
/// never leaves an orphan listening.
struct Daemon {
    child: Child,
    addr: String,
    // Held open: dropping the pipe would make the daemon's final
    // shutdown message fail to print.
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn start(state: &Path) -> Daemon {
        let mut child = lowvolt()
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--state",
                state.to_str().expect("utf-8 path"),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("banner line");
        let addr = banner
            .trim()
            .strip_prefix("lowvolt-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Graceful stop: shutdown command, then wait for a clean exit.
    fn shutdown(mut self) {
        let bye = client::control(&self.addr, "shutdown").expect("shutdown answers");
        assert!(bye.contains("\"event\":\"bye\""), "{bye}");
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon exit status: {status}");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest).ok();
        assert!(rest.contains("shut down"), "{rest}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn run_cli(args: &[&str]) -> Output {
    lowvolt().args(args).output().expect("cli runs")
}

fn submit(addr: &str, request: &str) -> Output {
    lowvolt()
        .args(["submit", "--connect", addr, "--request", request, "--quiet"])
        .output()
        .expect("submit runs")
}

/// Reads one integer counter out of a single-line metrics JSON report.
fn counter(metrics: &str, name: &str) -> u64 {
    let key = format!("\"{name}\"");
    let at = metrics
        .find(&key)
        .unwrap_or_else(|| panic!("counter {name} missing from {metrics}"));
    let tail = &metrics[at + key.len()..];
    let digits: String = tail
        .chars()
        .skip_while(|c| *c == ':' || c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("counter {name} not an integer in {metrics}"))
}

#[test]
fn daemon_smoke_ping_stats_shutdown() {
    let state = state_dir("smoke");
    let daemon = Daemon::start(&state);

    let pong = client::control(&daemon.addr, "ping").expect("ping answers");
    assert!(pong.contains("\"event\":\"pong\""), "{pong}");
    let stats = client::control(&daemon.addr, "stats").expect("stats answers");
    assert!(stats.contains("\"serve.connections\":"), "{stats}");

    // `submit` relays command objects too: the daemon's single reply
    // line goes to stdout, unknown commands exit 2.
    let out = submit(&daemon.addr, "{\"cmd\":\"ping\"}");
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"event\":\"pong\""),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let bad = submit(&daemon.addr, "{\"cmd\":\"reboot\"}");
    assert_eq!(bad.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("unknown command"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );

    daemon.shutdown();
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn every_job_kind_is_byte_identical_to_the_cli() {
    let state = state_dir("conformance");
    let daemon = Daemon::start(&state);

    // (CLI invocation, equivalent serve request). The builtin campaign
    // covers all five standard datapaths in one table; the sta job
    // covers the seeded 10000-gate generated netlist source.
    let cases: &[(&[&str], &str)] = &[
        (
            &["campaign", "--width", "4", "--vectors", "16", "--threads", "2"],
            "{\"job\":\"campaign\",\"width\":4,\"vectors\":16,\"threads\":2}",
        ),
        (
            &[
                "campaign", "--width", "4", "--vectors", "16", "--threads", "2", "--engine",
                "compiled",
            ],
            "{\"job\":\"campaign\",\"width\":4,\"vectors\":16,\"threads\":2,\"engine\":\"compiled\"}",
        ),
        (
            &["sta", "--generate", "10000", "--seed", "42"],
            "{\"job\":\"sta\",\"source\":{\"kind\":\"generate\",\"gates\":10000,\"seed\":42}}",
        ),
        (
            &["lint", "--circuit", "adder"],
            "{\"job\":\"lint\",\"circuit\":\"adder\"}",
        ),
        (&["optimize"], "{\"job\":\"optimize\"}"),
        (
            &["profile", "--example", "fir", "--budget", "100000000"],
            "{\"job\":\"profile\",\"example\":\"fir\",\"budget\":100000000}",
        ),
    ];
    for (args, request) in cases {
        let direct = run_cli(args);
        assert!(
            direct.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&direct.stderr)
        );
        let served = submit(&daemon.addr, request);
        assert!(
            served.status.success(),
            "{request}: {}",
            String::from_utf8_lossy(&served.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&served.stdout),
            String::from_utf8_lossy(&direct.stdout),
            "payload must be byte-identical for {request}"
        );
    }

    // The builtin campaign table really does contain every datapath.
    let table = String::from_utf8_lossy(&run_cli(cases[0].0).stdout).to_string();
    for target in ["adder4", "shifter4", "multiplier4", "alu4", "registers4"] {
        assert!(table.contains(target), "missing {target} in {table}");
    }

    daemon.shutdown();
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn campaign_conformance_holds_at_1_2_8_workers() {
    let state = state_dir("workers");
    let daemon = Daemon::start(&state);
    for workers in ["1", "2", "8"] {
        let direct = run_cli(&[
            "campaign",
            "--width",
            "2",
            "--vectors",
            "8",
            "--threads",
            workers,
        ]);
        assert!(direct.status.success());
        let request =
            format!("{{\"job\":\"campaign\",\"width\":2,\"vectors\":8,\"threads\":{workers}}}");
        let served = submit(&daemon.addr, &request);
        assert!(
            served.status.success(),
            "{}",
            String::from_utf8_lossy(&served.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&served.stdout),
            String::from_utf8_lossy(&direct.stdout),
            "workers={workers}"
        );
    }
    daemon.shutdown();
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn kill_mid_job_then_restart_resumes_byte_identically() {
    // Sweep the kill point K (completed shard rounds before SIGKILL)
    // together with the resubmission's worker count.
    for (kill_after, workers) in [(1u64, 1usize), (2, 2), (3, 8)] {
        let state = state_dir(&format!("kill_{kill_after}_{workers}"));
        let request = format!(
            "{{\"job\":\"campaign\",\"width\":4,\"vectors\":16,\"threads\":{workers},\"shard_items\":8}}"
        );
        let direct = run_cli(&[
            "campaign",
            "--width",
            "4",
            "--vectors",
            "16",
            "--threads",
            &workers.to_string(),
        ]);
        assert!(direct.status.success());
        let expected = String::from_utf8_lossy(&direct.stdout).to_string();

        // Submit from a helper thread; SIGKILL the daemon once K shard
        // rounds have been journaled.
        let daemon = Daemon::start(&state);
        let addr = daemon.addr.clone();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let submitter = std::thread::spawn({
            let request = request.clone();
            move || {
                client::submit_line(&addr, &request, &mut |event| {
                    if matches!(event, client::Event::Progress { .. }) {
                        let _ = tx.send(());
                    }
                })
            }
        });
        for _ in 0..kill_after {
            rx.recv().expect("progress event before daemon death");
        }
        daemon.kill();
        let interrupted = submitter.join().expect("submit thread");
        assert!(
            interrupted.is_err(),
            "the killed daemon cannot have delivered a result"
        );

        // Restart on the same state directory and resubmit the very
        // same request: the journal replays, only the remaining shards
        // execute, and the payload matches the uninterrupted CLI run.
        let daemon = Daemon::start(&state);
        let resumed =
            client::submit_line(&daemon.addr, &request, &mut |_| {}).expect("resumed run finishes");
        assert_eq!(
            format!("{}\n", resumed.payload),
            expected,
            "K={kill_after} workers={workers}"
        );
        assert_eq!(resumed.status, "ok");
        assert!(
            resumed.replayed >= kill_after,
            "each completed round journaled at least one item: {resumed:?}"
        );
        assert_eq!(
            resumed.replayed + resumed.computed,
            resumed.journal_records,
            "only the remaining shards re-execute: {resumed:?}"
        );
        assert!(
            counter(&resumed.metrics, "cache.hits") >= 1,
            "resumed golden traces must come from the cache: {}",
            resumed.metrics
        );

        daemon.shutdown();
        std::fs::remove_dir_all(&state).ok();
    }
}

#[test]
fn submit_streams_metrics_and_routes_gate_failures() {
    let state = state_dir("metrics_gate");
    let daemon = Daemon::start(&state);

    // `--metrics-json -` replaces the payload with the job's single-line
    // metrics report, counters included.
    let out = lowvolt()
        .args([
            "submit",
            "--connect",
            &daemon.addr,
            "--request",
            "{\"job\":\"campaign\",\"width\":2,\"vectors\":8,\"threads\":2,\"shard_items\":4}",
            "--metrics-json",
            "-",
            "--quiet",
        ])
        .output()
        .expect("submit runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(metrics.trim_start().starts_with('{'), "{metrics}");
    assert_eq!(metrics.trim_end().lines().count(), 1, "single line");
    assert!(counter(&metrics, "serve.shard_rounds") >= 1, "{metrics}");
    assert!(counter(&metrics, "cache.misses") >= 1, "{metrics}");

    // A failing lint gate exits 1 with the report on stdout — exactly
    // like the direct CLI invocation.
    let direct = run_cli(&["lint", "--fixture", "sleep", "--json"]);
    assert_eq!(direct.status.code(), Some(1));
    let served = submit(
        &daemon.addr,
        "{\"job\":\"lint\",\"fixture\":\"sleep\",\"json\":true}",
    );
    assert_eq!(served.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&served.stdout),
        String::from_utf8_lossy(&direct.stdout)
    );

    // A rejected job is a plain error: exit 2, message on stderr.
    let bad = submit(&daemon.addr, "{\"job\":\"mine-bitcoin\"}");
    assert_eq!(bad.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("unknown job kind"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );
    assert!(bad.stdout.is_empty());

    daemon.shutdown();
    std::fs::remove_dir_all(&state).ok();
}
