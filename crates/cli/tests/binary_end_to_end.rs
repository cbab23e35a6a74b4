//! End-to-end tests of the `lowvolt` binary itself: exit codes, stderr
//! routing, and a full profile run through the real executable.

use std::process::Command;

fn lowvolt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lowvolt"))
}

#[test]
fn help_exits_zero() {
    let out = lowvolt().arg("help").output().expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn errors_go_to_stderr_with_nonzero_exit() {
    let out = lowvolt().arg("explode").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("explode"));
    assert!(out.stdout.is_empty());
}

#[test]
fn campaign_with_unbounded_vectors_exits_2_instead_of_aborting() {
    // Expanding 10^11 stimulus vectors up front would need terabytes;
    // the campaign must refuse the count before allocating anything.
    for engine in ["event", "compiled"] {
        let out = lowvolt()
            .args(["campaign", "--width", "2", "--vectors", "100000000000"])
            .args(["--engine", engine])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{engine}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("at most 1048576 (2^20) vectors"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{engine}");
    }
}

#[test]
fn non_finite_float_flags_exit_2() {
    // JSON has no infinity or NaN, and the daemon's decoder rejects
    // them, so the CLI refuses them too rather than printing `inf`.
    for (flag, value) in [
        ("--vdd", "inf"),
        ("--vt", "NaN"),
        ("--required-ps", "1e400"),
    ] {
        let out = lowvolt()
            .args(["sta", "--circuit", "adder", "--json", flag, value])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} expects a finite number, got `{value}`")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value}");
    }
}

#[test]
fn lint_gate_failure_prints_report_to_stdout_with_exit_1() {
    let out = lowvolt()
        .args(["lint", "--fixture", "sleep", "--json"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    // The JSON report is the command's output, not an error message:
    // stdout must carry it unprefixed so tools can parse it.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('['), "{stdout}");
    assert!(stdout.contains("\"rule\":\"LV020\""), "{stdout}");
    assert!(out.stderr.is_empty());
}

#[test]
fn lint_clean_through_the_binary() {
    let out = lowvolt()
        .args(["lint", "--circuit", "adder", "--deny", "warnings"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("adder8: clean"));
}

#[test]
fn profile_example_through_the_binary() {
    let out = lowvolt()
        .args(["profile", "--example", "fir", "--budget", "100000000"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Total Instructions"));
    assert!(text.contains("Multiplications"));
}

#[test]
fn iv_through_the_binary() {
    let out = lowvolt()
        .args(["iv", "--vt", "0.3"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("mV/dec"));
}

#[test]
fn sim_metrics_json_through_the_binary() {
    let out = lowvolt()
        .args([
            "sim",
            "--circuit",
            "alu8",
            "--cycles",
            "32",
            "--metrics-json",
            "-",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"sim.events.processed\""), "{stdout}");
    assert!(stdout.contains("\"sim.settle.iterations\""), "{stdout}");
    assert!(stdout.contains("\"wall_ms\""), "{stdout}");
}
