//! End-to-end tests of the `--netlist` / `--generate` circuit sources
//! through the real binary: happy paths for both import formats and the
//! generator, the `circuits` catalog, and the parse-error contract —
//! malformed input must exit 2 with a single line/column-anchored
//! message on stderr and no partial output on stdout.

use std::path::PathBuf;
use std::process::Command;

fn lowvolt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lowvolt"))
}

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../io/fixtures")
        .join(name)
        .display()
        .to_string()
}

/// Writes a malformed netlist to a temp file; returns its path.
fn temp_file(name: &str, contents: &str) -> String {
    let path = std::env::temp_dir().join(format!("lowvolt-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp file writes");
    path.display().to_string()
}

#[test]
fn sim_imports_the_c17_bench_fixture() {
    let out = lowvolt()
        .args(["sim", "--netlist", &fixture("c17.bench"), "--cycles", "32"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("circuit: c17 (6 gates"), "{stdout}");
}

#[test]
fn lint_and_sta_import_the_blif_fixture() {
    let out = lowvolt()
        .args(["lint", "--netlist", &fixture("latch2.blif")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("latch2: clean"));

    let out = lowvolt()
        .args(["sta", "--netlist", &fixture("c17.bench")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("static timing report: c17"));
}

#[test]
fn generated_campaign_runs_on_both_engines() {
    for engine in ["event", "compiled"] {
        let out = lowvolt()
            .args([
                "campaign",
                "--generate",
                "300",
                "--seed",
                "7",
                "--vectors",
                "64",
                "--engine",
                engine,
            ])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "engine {engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("gen300_s7"), "engine {engine}: {stdout}");
    }
}

#[test]
fn circuits_catalog_lists_sources() {
    let out = lowvolt().arg("circuits").output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "adder8",
        "registers",
        ".blif",
        ".bench",
        "--generate N",
        "--dff-fraction",
    ] {
        assert!(stdout.contains(needle), "missing {needle}: {stdout}");
    }
}

#[test]
fn malformed_blif_exits_2_with_anchored_message() {
    let path = temp_file(
        "bad.blif",
        ".model bad\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n",
    );
    let out = lowvolt()
        .args(["sim", "--netlist", &path])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no partial output on stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "single-line message: {stderr}");
    assert!(
        stderr.contains(&format!("{path}:5:1:")),
        "line/column anchor missing: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn malformed_bench_exits_2_with_anchored_message() {
    let path = temp_file("bad.bench", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n");
    let out = lowvolt()
        .args(["campaign", "--netlist", &path])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no partial output on stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "single-line message: {stderr}");
    assert!(stderr.contains(&format!("{path}:3:1:")), "{stderr}");
    assert!(stderr.contains("FROB"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn netlist_and_generate_are_mutually_exclusive() {
    let out = lowvolt()
        .args(["sim", "--netlist", "x.blif", "--generate", "100"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

/// The span names `lowvolt sta SOURCE --metrics-json -` reports, each
/// checked to have been opened exactly once.
fn sta_span_names(source: &[&str]) -> Vec<String> {
    use lowvolt_obs::json::Json;
    let out = lowvolt()
        .arg("sta")
        .args(source)
        .args(["--metrics-json", "-"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = Json::parse(&stdout).unwrap_or_else(|e| panic!("{e}: {stdout}"));
    let spans = report.get("spans").and_then(Json::as_array).expect("spans");
    for span in spans {
        assert_eq!(
            span.get("count").and_then(Json::as_u64),
            Some(1),
            "{stdout}"
        );
    }
    spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .map(str::to_owned)
        .collect()
}

#[test]
fn sta_metrics_name_the_import_analysis_and_render_spans() {
    assert_eq!(
        sta_span_names(&["--netlist", &fixture("latch2.blif")]),
        ["compiled.compile", "io.parse", "sta.analyze", "sta.render"]
    );
}

#[test]
fn sta_metrics_name_the_generator_span() {
    assert_eq!(
        sta_span_names(&["--generate", "2000", "--seed", "42"]),
        [
            "compiled.compile",
            "io.generate",
            "sta.analyze",
            "sta.render"
        ]
    );
}
