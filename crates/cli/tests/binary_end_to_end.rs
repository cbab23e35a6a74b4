//! End-to-end tests of the `lowvolt` binary itself: exit codes, stderr
//! routing, and a full profile run through the real executable.

use std::process::{Command, Stdio};

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
fn optimize_sta_on_a_register_bank_names_the_missing_path() {
    let out = lowvolt()
        .args(["optimize", "--sta", "--circuit", "registers"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`registers8` has no combinational gate")
            && stderr.contains("no combinational path to price"),
        "{stderr}"
    );
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

/// A reader that closes stdout early (`lowvolt sta … | head`), before
/// the first byte or in the middle of a streamed report, ends the run
/// quietly: no panic on stderr, and the exit code is still the verdict
/// — 0 for a report, 1 for a failed gate.
#[test]
fn closed_stdout_ends_quietly_with_the_verdict() {
    use std::io::Read;
    let sta = &["sta", "--generate", "20000", "--seed", "42"][..];
    for (args, code, head) in [
        (sta, 0, 0),
        (sta, 0, 4096),
        (&["lint", "--fixture", "sleep"][..], 1, 0),
    ] {
        let mut child = lowvolt()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawns");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let mut first = vec![0u8; head];
        stdout.read_exact(&mut first).expect("the report starts");
        drop(stdout);
        let out = child.wait_with_output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(code), "{args:?}");
    }
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

/// The circuit as ISCAS bench text: every primary input but the clock
/// is an `INPUT`, flip-flops become `DFF(d)` on the implicit clock, and
/// the one gate bench has no name for, `mux2`, is spelled out as
/// `OR(AND(NOT(s), a), AND(s, b))` through helper signals.
fn write_bench(c: &lowvolt_circuit::Circuit) -> String {
    use lowvolt_circuit::netlist::GateKind;
    let n = &c.netlist;
    let mut out = format!("# {}\n", c.name);
    for &i in n.primary_inputs() {
        if Some(i) != c.clock {
            out.push_str(&format!("INPUT({})\n", n.node_name(i)));
        }
    }
    for &o in &c.outputs {
        out.push_str(&format!("OUTPUT({})\n", n.node_name(o)));
    }
    for g in n.gates() {
        let y = n.node_name(g.output);
        let ins: Vec<&str> = g.inputs().iter().map(|&i| n.node_name(i)).collect();
        match g.kind {
            GateKind::Dff => out.push_str(&format!("{y} = DFF({})\n", ins[1])),
            GateKind::Mux2 => out.push_str(&format!(
                "{y}_ns = NOT({s})\n{y}_a = AND({y}_ns, {a})\n{y}_b = AND({s}, {b})\n\
                 {y} = OR({y}_a, {y}_b)\n",
                s = ins[0],
                a = ins[1],
                b = ins[2]
            )),
            kind => {
                let func = match kind {
                    GateKind::Buf => "BUFF".to_owned(),
                    other => other.name().trim_end_matches(['2', '3']).to_uppercase(),
                };
                out.push_str(&format!("{y} = {func}({})\n", ins.join(", ")));
            }
        }
    }
    out
}

/// Pins the exact bytes the import path feeds into every analysis:
/// generated netlists written as BLIF (20k gates at seeds 1/42/7, the
/// `sta-import` shape, and 6k gates, the `campaign-import` shape) plus
/// one ISCAS bench file are read back through `--netlist`, and the
/// FNV-1a 64 digest of each command's whole stdout is compared. A
/// change anywhere in lexing, name interning, cover matching or report
/// rendering shows up here.
#[test]
fn import_path_bytes_are_pinned() {
    use lowvolt_io::{generate, write_blif, GeneratorConfig};
    let dir = std::env::temp_dir().join(format!("lowvolt-import-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let circuit = |gates, seed| generate(&GeneratorConfig::new(gates, seed)).expect("generates");
    let mut files = Vec::new();
    for (gates, seed) in [(20_000, 1), (20_000, 42), (20_000, 7), (6_000, 42)] {
        let path = dir.join(format!("g{gates}s{seed}.blif"));
        let text = write_blif(&circuit(gates, seed)).expect("writes");
        std::fs::write(&path, text).expect("temp file writes");
        files.push(path);
    }
    let path = dir.join("g6000s9.bench");
    std::fs::write(&path, write_bench(&circuit(6_000, 9))).expect("temp file writes");
    files.push(path);

    let commands: [&[&str]; 6] = [
        &["sta"],
        &["sta", "--json"],
        &["lint"],
        // The campaign header names the worker count; pin it.
        &["campaign", "--engine", "compiled", "--threads", "1"],
        &["sim", "--cycles", "32"],
        &["activity", "--cycles", "32"],
    ];
    // One row per file, one digest per command above.
    let want: [[u64; 6]; 5] = [
        [
            0xc752_8a3d_4aeb_1297,
            0x2bed_9a2c_3864_9ca8,
            0x65a6_7356_c5e6_cb1c,
            0x5044_df4f_2e23_0c9b,
            0xa1ac_2e61_55af_4940,
            0x7ad1_0f2a_8b2d_2d18,
        ],
        [
            0x53e6_2a5f_c634_99e1,
            0xc5c3_3122_8650_ba43,
            0x6df3_3d38_10a9_8c20,
            0x8672_4c01_8f5b_1ae0,
            0xf003_cbe8_b95c_4f2a,
            0x7308_15a2_0f33_0508,
        ],
        [
            0x5d55_cc09_200f_814b,
            0x1162_af9b_4aa5_cd01,
            0x8943_6d44_746e_c34d,
            0xb4ab_3af0_b74d_b9c5,
            0x0478_f9c2_5e6f_ac06,
            0xde88_2e8e_23eb_b09e,
        ],
        [
            0xe7d9_a78c_63e6_771c,
            0xf8f7_3ddf_8fc6_fa24,
            0x1962_0291_40bf_9d00,
            0x9704_cdb9_c264_b0e5,
            0xf249_7f35_5b2d_93d5,
            0x81c3_2d7c_97c3_5b5a,
        ],
        [
            0xf1d9_5e30_61a8_00e3,
            0x6d80_611d_b89e_c3aa,
            0x849a_46ca_f043_c5e8,
            0x523b_3fb5_3824_a9aa,
            0xd1a0_d7ae_2cf9_0689,
            0xd43e_d202_f710_f39f,
        ],
    ];
    let mut mismatches = Vec::new();
    for (path, want) in files.iter().zip(want) {
        for (args, want) in commands.iter().zip(want) {
            let out = lowvolt()
                .arg(args[0])
                .arg("--netlist")
                .arg(path)
                .args(&args[1..])
                .output()
                .expect("runs");
            // `lint` exits 1 when a rule fires (LV040 on these deep
            // netlists); its report is still the whole of stdout.
            assert!(
                matches!(out.status.code(), Some(0 | 1)) && out.stderr.is_empty(),
                "{args:?} {}: {}",
                path.display(),
                String::from_utf8_lossy(&out.stderr)
            );
            let got = lowvolt_exec::fnv64(&out.stdout);
            if got != want {
                mismatches.push(format!("{args:?} {}: {got:#018x}", path.display()));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}

/// Pins `lowvolt sta --netlist` stdout, text and `--json`, at the
/// operating points the `sta-import` benchmark sweeps: a non-default
/// `(V_DD, V_T)`, an explicit `--required-ps` below the critical delay
/// (negative slack, and `inf` required time on nodes that reach no
/// endpoint), and an infeasible point (`V_DD < V_T`, every delay `inf`,
/// no node-slack rows).
#[test]
fn import_sta_operating_points_are_pinned() {
    use lowvolt_io::{generate, write_blif, GeneratorConfig};
    let dir = std::env::temp_dir().join(format!("lowvolt-sta-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut files = Vec::new();
    for seed in [1, 42] {
        let path = dir.join(format!("g20000s{seed}.blif"));
        let c = generate(&GeneratorConfig::new(20_000, seed)).expect("generates");
        std::fs::write(&path, write_blif(&c).expect("writes")).expect("temp file writes");
        files.push(path);
    }
    let points: [&[&str]; 3] = [
        &["--vdd", "1.7", "--vt", "0.35"],
        &["--vdd", "2.4", "--vt", "0.25", "--required-ps", "30000"],
        &["--vdd", "0.2", "--vt", "0.3"],
    ];
    // One row per file; per point, the text digest then the JSON one.
    let want: [[u64; 6]; 2] = [
        [
            0x7d4a_59bb_6177_6065,
            0x3aa6_66a1_abcf_8976,
            0x4c56_1ccf_ce29_7934,
            0x8578_0175_4cf7_24cb,
            0x9193_69c1_4391_09c0,
            0xec9f_c929_f5bf_afec,
        ],
        [
            0x5e4c_dae9_7539_865f,
            0x7c58_75a3_4dca_b20e,
            0x6d40_17a7_352a_7ff6,
            0x3fcf_55de_e844_1a36,
            0x6fd4_19e4_e172_ca05,
            0x4706_7d87_a404_ab9a,
        ],
    ];
    let mut mismatches = Vec::new();
    for (path, want) in files.iter().zip(want) {
        let runs = points.iter().flat_map(|p| [(*p, false), (*p, true)]);
        for ((point, json), want) in runs.zip(want) {
            let mut cmd = lowvolt();
            cmd.arg("sta").arg("--netlist").arg(path).args(point);
            if json {
                cmd.arg("--json");
            }
            let out = cmd.output().expect("runs");
            assert!(
                out.status.success() && out.stderr.is_empty(),
                "{point:?} {}: {}",
                path.display(),
                String::from_utf8_lossy(&out.stderr)
            );
            let got = lowvolt_exec::fnv64(&out.stdout);
            if got != want {
                mismatches.push(format!(
                    "{point:?} json={json} {}: {got:#018x}",
                    path.display()
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}

/// A seeded 20k-gate netlist written as BLIF into its own temp dir,
/// returned as (dir, file).
fn temp_blif(tag: &str, seed: u64) -> (std::path::PathBuf, std::path::PathBuf) {
    use lowvolt_io::{generate, write_blif, GeneratorConfig};
    let dir = std::env::temp_dir().join(format!("lowvolt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("g20000s{seed}.blif"));
    let c = generate(&GeneratorConfig::new(20_000, seed)).expect("generates");
    std::fs::write(&path, write_blif(&c).expect("writes")).expect("temp file writes");
    (dir, path)
}

/// `lowvolt sta` streams its reports into stdout as it renders them;
/// the bytes must be the in-process job payload plus the binary's final
/// newline, for text and JSON, at a feasible and an infeasible point,
/// on an imported netlist and on every builtin datapath.
#[test]
fn streamed_sta_stdout_is_the_job_payload() {
    use lowvolt_exec::ExecPolicy;
    use lowvolt_serve::jobs::{run_sta_job, SourceSpec, StaSpec};
    let (dir, path) = temp_blif("sta-stream", 5);
    let file = path.to_str().expect("UTF-8 temp path").to_owned();
    let sources = [
        (
            vec!["--netlist", file.as_str()],
            SourceSpec::Netlist { path: file.clone() },
        ),
        (vec!["--circuit", "all"], SourceSpec::Builtin),
    ];
    let points: [(&[&str], Option<f64>, Option<f64>); 2] = [
        (&[], None, None),
        (&["--vdd", "0.2", "--vt", "0.3"], Some(0.2), Some(0.3)),
    ];
    for (args, source) in &sources {
        for (point, vdd, vt) in points {
            for json in [false, true] {
                let mut spec = StaSpec::new(source.clone());
                spec.vdd = vdd;
                spec.vt = vt;
                spec.json = json;
                let mut want = run_sta_job(&ExecPolicy::serial(), lowvolt_obs::noop(), &spec)
                    .expect("job runs")
                    .into_bytes();
                want.push(b'\n');
                let mut cmd = lowvolt();
                cmd.arg("sta").args(args).args(point);
                if json {
                    cmd.arg("--json");
                }
                let out = cmd.output().expect("runs");
                let case = format!("{args:?} {point:?} json={json}");
                assert!(out.status.success() && out.stderr.is_empty(), "{case}");
                assert!(out.stdout == want, "{case}: streamed bytes differ");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stdout that fails mid-report with anything but a closed pipe is an
/// error: exit 2 and one line naming the failed write.
#[test]
fn a_failing_stdout_exits_2_naming_the_write() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        // No always-full device on this platform.
        return;
    };
    let out = lowvolt()
        .args(["sta", "--generate", "20000", "--seed", "42"])
        .stdout(full)
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: cannot write the report"),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

/// `--metrics-json -` prints only the metrics JSON, whose counters give
/// the import and the rendering their sizes: the file's bytes and the
/// report's bytes (the plain run's stdout less its final newline).
#[test]
fn sta_metrics_on_stdout_count_parsed_and_report_bytes() {
    use lowvolt_obs::json::Json;
    let (dir, path) = temp_blif("sta-metrics", 6);
    let report = lowvolt()
        .arg("sta")
        .arg("--netlist")
        .arg(&path)
        .output()
        .expect("runs");
    assert!(report.status.success());
    let out = lowvolt()
        .arg("sta")
        .arg("--netlist")
        .arg(&path)
        .args(["--metrics-json", "-"])
        .output()
        .expect("runs");
    assert!(out.status.success() && out.stderr.is_empty());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    let metrics = Json::parse(&stdout).unwrap_or_else(|e| panic!("{e}: {stdout:.200}"));
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
    };
    let file_len = std::fs::metadata(&path).expect("file").len();
    assert_eq!(counter("io.bytes_parsed"), Some(file_len));
    assert_eq!(
        counter("sta.report_bytes"),
        Some(report.stdout.len() as u64 - 1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
