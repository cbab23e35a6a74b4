//! The `lowvolt` command-line tool. All logic lives in `lowvolt_cli`;
//! this binary parses, dispatches, prints, and sets the exit code.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use lowvolt_cli::CliFailure;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = lowvolt_cli::parse(&args);
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
    let mut stdout = std::io::stdout().lock();
    let written = stdout
        .write_all(report.as_bytes())
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
