//! Running the program under test: CLI jobs as child processes reaped
//! with `wait4` (for their resource usage), the `lowvolt serve` daemon,
//! and `/proc` readings of memory and CPU time.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lowvolt_exec::ExecPolicy;
use lowvolt_serve::client;
use lowvolt_serve::server::Server;

use crate::jobs::Spec;

/// The environment variable that would pin the program's thread count;
/// it is removed from every child so jobs use every core, as by default.
const THREADS_ENV: &str = "LOWVOLT_THREADS";

/// Where jobs run.
#[derive(Debug, Clone)]
pub enum Program {
    /// The real `lowvolt` executable at this path: CLI jobs are child
    /// processes and the daemon is `lowvolt serve`.
    Binary(PathBuf),
    /// The same job functions and `Server` called inside this process —
    /// the smoke tests' stand-in for the executable.
    InProcess,
}

/// One finished CLI job.
#[derive(Debug, Clone)]
pub struct CliRun {
    /// Spawn to reap, with stdout fully drained.
    pub wall_ms: f64,
    /// Everything the job printed on stdout.
    pub stdout: String,
    /// `None` on exit code 0, otherwise what went wrong.
    pub error: Option<String>,
    /// Peak resident set size in KiB (`ru_maxrss`).
    pub maxrss_kb: u64,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs,
/// the first of which is `ru_maxrss`.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Reaps `pid`, returning its raw wait status and resource usage.
fn reap(pid: u32) -> Result<(i32, Rusage), String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out as
        // the C `int` and `struct rusage` wait4 fills; `pid` is our own
        // unreaped child, so wait4 cannot touch another process.
        let r = unsafe { wait4(pid, &raw mut status, 0, &raw mut usage) };
        if r == pid {
            return Ok((status, usage));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}) failed: {err}"));
        }
    }
}

fn secs(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

fn drain(mut pipe: impl Read) -> Vec<u8> {
    let mut buf = Vec::new();
    let _ = pipe.read_to_end(&mut buf);
    buf
}

impl Program {
    /// The `lowvolt` executable next to this program's own.
    ///
    /// # Errors
    ///
    /// When it does not exist.
    pub fn beside_self() -> Result<Program, String> {
        let me = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
        let bin = me.with_file_name("lowvolt");
        if !bin.is_file() {
            return Err(format!(
                "{} not found; build it with `cargo build --release -p lowvolt-cli` into the same target directory",
                bin.display()
            ));
        }
        Ok(Program::Binary(bin))
    }

    /// Runs one job the way a CLI user does.
    ///
    /// # Errors
    ///
    /// Only when the process cannot be spawned or reaped; a failing job
    /// is reported in [`CliRun::error`].
    pub fn run_cli(&self, spec: &Spec) -> Result<CliRun, String> {
        match self {
            Program::Binary(bin) => run_binary(bin, spec),
            Program::InProcess => {
                let cpu0 = cpu_seconds(std::process::id());
                let start = Instant::now();
                let out = spec.run_in_process(&ExecPolicy::max_parallel(), lowvolt_obs::noop());
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                let (stdout, error) = match out {
                    // As `lowvolt` prints it.
                    Ok(s) => (s + "\n", None),
                    Err(e) => (String::new(), Some(e)),
                };
                Ok(CliRun {
                    wall_ms,
                    stdout,
                    error,
                    maxrss_kb: vm_hwm_kb(std::process::id()).unwrap_or(0),
                    cpu_s: cpu_seconds(std::process::id()) - cpu0,
                })
            }
        }
    }

    /// Starts a daemon with `state` as its (empty) state directory and
    /// waits until it answers `ping`. The daemon's stderr goes to `log`.
    ///
    /// # Errors
    ///
    /// Spawn, bind, or handshake failures.
    pub fn start_daemon(&self, state: &Path, log: &Path) -> Result<Daemon, String> {
        let daemon = match self {
            Program::Binary(bin) => {
                let log = std::fs::File::create(log)
                    .map_err(|e| format!("cannot create {}: {e}", log.display()))?;
                let mut child = Command::new(bin)
                    .arg("serve")
                    .arg("--listen")
                    .arg("127.0.0.1:0")
                    .arg("--state")
                    .arg(state)
                    .env_remove(THREADS_ENV)
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(log)
                    .spawn()
                    .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
                let mut stdout = BufReader::new(child.stdout.take().ok_or("daemon stdout")?);
                let mut banner = String::new();
                let read = stdout.read_line(&mut banner);
                let addr = banner
                    .trim()
                    .strip_prefix("lowvolt-serve listening on ")
                    .map(str::to_string);
                let Some(addr) = addr.filter(|_| read.is_ok()) else {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("daemon did not start: `{}`", banner.trim()));
                };
                Daemon {
                    addr,
                    pid: child.id(),
                    child: Some((child, stdout)),
                    thread: None,
                }
            }
            Program::InProcess => {
                let server = Server::bind("127.0.0.1:0", state).map_err(|e| e.0)?;
                let addr = server.local_addr().to_string();
                let thread = std::thread::spawn(move || server.run().map_err(|e| e.0));
                Daemon {
                    addr,
                    pid: std::process::id(),
                    child: None,
                    thread: Some(thread),
                }
            }
        };
        daemon.ping()?;
        Ok(daemon)
    }
}

fn run_binary(bin: &Path, spec: &Spec) -> Result<CliRun, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(spec.cli_args())
        .env_remove(THREADS_ENV)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().ok_or("child stdout")?;
    let stderr = child.stderr.take().ok_or("child stderr")?;
    let pid = child.id();
    let (reaped, out, err) = std::thread::scope(|s| {
        let out = s.spawn(|| drain(stdout));
        let err = s.spawn(|| drain(stderr));
        let reaped = reap(pid);
        (reaped, out.join(), err.join())
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    // The child is reaped: dropping the handle neither waits nor kills.
    drop(child);
    let (status, usage) = reaped?;
    let stdout = String::from_utf8_lossy(&out.unwrap_or_default()).into_owned();
    let error = (status != 0).then(|| {
        let stderr = String::from_utf8_lossy(&err.unwrap_or_default()).into_owned();
        format!("exit status {status:#x}: {}", stderr.trim())
    });
    Ok(CliRun {
        wall_ms,
        stdout,
        error,
        maxrss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
    })
}

/// A running daemon. Stopped (and waited for) by [`Daemon::shutdown`],
/// or killed on drop if a run fails first.
#[derive(Debug)]
pub struct Daemon {
    /// `host:port` it listens on.
    pub addr: String,
    /// The process whose memory and CPU time the daemon's work shows in.
    pub pid: u32,
    child: Option<(Child, BufReader<ChildStdout>)>,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// Sends `ping`, retrying briefly while the listener comes up.
    ///
    /// # Errors
    ///
    /// When no `pong` arrives.
    pub fn ping(&self) -> Result<(), String> {
        let mut last = String::new();
        for _ in 0..200 {
            match client::control(&self.addr, "ping") {
                Ok(answer) if answer.contains("\"pong\"") => return Ok(()),
                Ok(answer) => last = answer,
                Err(e) => last = e.0,
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err(format!(
            "daemon at {} never answered ping: {last}",
            self.addr
        ))
    }

    /// Asks the daemon to shut down and waits for it to end.
    ///
    /// # Errors
    ///
    /// When it does not acknowledge or exits uncleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = client::control(&self.addr, "shutdown").map_err(|e| e.0)?;
        if !bye.contains("\"bye\"") {
            return Err(format!("daemon answered shutdown with `{bye}`"));
        }
        if let Some((mut child, stdout)) = self.child.take() {
            let rest = drain(stdout);
            let status = child.wait().map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!(
                    "daemon exited with {status}: {}",
                    String::from_utf8_lossy(&rest)
                ));
            }
        }
        if let Some(thread) = self.thread.take() {
            thread.join().map_err(|_| "server thread panicked")??;
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some((mut child, _)) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(thread) = self.thread.take() {
            // An error only means the server already ended.
            let _ = client::control(&self.addr, "shutdown");
            let _ = thread.join();
        }
    }
}

/// `VmHWM` (peak resident set) of a process in KiB.
#[must_use]
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// User plus system CPU seconds a process has used so far (0 when
/// unreadable).
#[must_use]
pub fn cpu_seconds(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    // SAFETY: sysconf only reads a process-wide constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) if hz > 0 => (u + s) / hz as f64,
        _ => 0.0,
    }
}
