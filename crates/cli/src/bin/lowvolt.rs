//! The `lowvolt` command-line tool. All logic lives in `lowvolt_cli`;
//! this binary parses, dispatches, prints, and sets the exit code.

use std::io::{BufWriter, ErrorKind, Write};
use std::process::ExitCode;

use lowvolt_cli::CliFailure;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = lowvolt_cli::parse(&args);
    // 32 KiB per write: the default 8 KiB costs a 20k-gate `sta`
    // report ~270 pipe writes and wakeups of its reader.
    let mut stdout = BufWriter::with_capacity(32 * 1024, std::io::stdout().lock());
    let (written, verdict) = if parsed.command == "sta" {
        // The report streams into stdout as it is rendered.
        match lowvolt_cli::stream_sta(&parsed, &mut stdout) {
            Ok(written) => (written, ExitCode::SUCCESS),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let (report, verdict) = match lowvolt_cli::run_command(&parsed) {
            Ok(report) => (report, ExitCode::SUCCESS),
            // A completed report whose gate failed is still the command's
            // output (text or --json): stdout, with the exit code carrying
            // the verdict — so `lint --json` stays machine-readable in CI.
            Err(CliFailure::Gate(report)) => (report, ExitCode::from(1)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        (stdout.write_all(report.as_bytes()), verdict)
    };
    let written = written
        .and_then(|()| stdout.write_all(b"\n"))
        .and_then(|()| stdout.flush());
    match written {
        // A reader that closed the pipe early (`| head`) took all it
        // wanted; the verdict stands.
        Ok(()) => verdict,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => verdict,
        Err(e) => {
            eprintln!("error: cannot write the report: {e}");
            ExitCode::from(2)
        }
    }
}
