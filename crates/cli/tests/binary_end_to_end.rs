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

/// Pins the exact bytes `lowvolt sta` prints, text and `--json`, for the
/// five standard datapaths and three seeded 20k-gate generated
/// netlists. Each entry is the FNV-1a 64 digest of the whole stdout
/// (one report followed by a newline for text, a one-element array for
/// JSON), so any change to arrival, slack, endpoint or path rendering
/// shows up here.
#[test]
fn sta_report_bytes_are_pinned() {
    let cases: [(&[&str], u64, u64); 8] = [
        (
            &["--circuit", "adder"],
            0x24e7_0e94_75be_32d9,
            0xc9f8_d284_168e_a7a1,
        ),
        (
            &["--circuit", "shifter"],
            0xdacc_ec15_5720_04fa,
            0xa034_7cf5_1fa1_3aa5,
        ),
        (
            &["--circuit", "multiplier"],
            0xc073_05f0_45a2_abe1,
            0xb738_b7f6_ef9f_628e,
        ),
        (
            &["--circuit", "alu"],
            0xcae7_8f64_c764_d15b,
            0x473f_3758_47a5_2367,
        ),
        (
            &["--circuit", "registers"],
            0xc114_7e2f_4d1a_2669,
            0x41ba_7ba3_8a8a_3744,
        ),
        (
            &["--generate", "20000", "--seed", "1"],
            0x8de6_a795_2323_13eb,
            0x7742_30ec_35a2_c42a,
        ),
        (
            &["--generate", "20000", "--seed", "42"],
            0x3218_148b_8a5e_e073,
            0x2778_b370_3e70_a90d,
        ),
        (
            &["--generate", "20000", "--seed", "7"],
            0x7acf_9006_7ce4_73a9,
            0x7a28_7f62_acad_f17f,
        ),
    ];
    for (args, text_digest, json_digest) in cases {
        for (json, want) in [(false, text_digest), (true, json_digest)] {
            let mut cmd = lowvolt();
            cmd.arg("sta").args(args);
            if json {
                cmd.arg("--json");
            }
            let out = cmd.output().expect("runs");
            assert!(out.status.success(), "{args:?} json={json}");
            let got = lowvolt_exec::fnv64(&out.stdout);
            assert_eq!(got, want, "{args:?} json={json}: digest {got:#018x}");
        }
    }
}
