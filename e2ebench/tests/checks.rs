//! The output checkers and `compare` verdicts against canned outputs.

use lowvolt_e2ebench::check::{check_campaign, check_sta, Digest};
use lowvolt_e2ebench::compare::{compare, load_bounds, verdict, Bound, Verdict};

const STA: &str = "static timing report: gen10000_s1
operating point: vdd 1.500 V, vt 0.300 V
nodes 10017  gates 9000  levels 447  registers 1000
critical delay 52033.038 ps  required 52033.038 ps  worst slack 0.000 ps
critical path (424 gates, to 'n9995'):
";

const CAMPAIGN: &str =
    "stuck-at fault campaign: gen5000_s3 (5000 gates), 32 vectors/injection, 2 worker thread(s)
engine: compiled (bit-parallel levelized; checkpoint unit = 64-vector word)

    target  faults  detected  corrupted  as-X  masked  errored  coverage
------------------------------------------------------------------------
gen5000_s3   10034         0       7223     2    2809        0     72.0%
";

#[test]
fn sta_checker_accepts_a_good_report() {
    assert_eq!(check_sta(STA, 10_000), Ok(()));
}

#[test]
fn sta_checker_rejects_bad_reports() {
    let err = check_sta(STA, 9_000).unwrap_err();
    assert!(err.contains("9000 gates + 1000 registers"), "{err}");
    for (bad, what) in [
        (
            STA.replace("52033.038 ps  required", "inf  required"),
            "finite",
        ),
        (
            STA.replace("52033.038 ps  required", "fast  required"),
            "unreadable",
        ),
        (
            STA.replace("52033.038 ps  required", "0.000 ps  required"),
            "positive",
        ),
        (
            STA.replace("critical delay", "critical-ish"),
            "no critical delay",
        ),
        (STA.replace("nodes 10017", "vertices 10017"), "no `nodes"),
        (String::new(), "no `nodes"),
    ] {
        let err = check_sta(&bad, 10_000).unwrap_err();
        assert!(err.contains(what), "{what}: {err}");
    }
}

#[test]
fn campaign_checker_accepts_a_good_table() {
    assert_eq!(check_campaign(CAMPAIGN), Ok(()));
    let two_rows = format!(
        "{CAMPAIGN}adder8        10         4          6     0       0        0    100.0%\n"
    );
    assert_eq!(check_campaign(&two_rows), Ok(()));
}

#[test]
fn campaign_checker_rejects_bad_tables() {
    for (bad, what) in [
        (CAMPAIGN.replace("7223", "7224"), "classes sum to"),
        (
            CAMPAIGN.replace("2809        0", "2808        1"),
            "injections errored",
        ),
        (CAMPAIGN.replace("10034", "many"), "malformed"),
        (
            CAMPAIGN.replace("    target", "    victim"),
            "no coverage table",
        ),
        (
            CAMPAIGN
                .split("gen5000_s3   ")
                .next()
                .unwrap_or_default()
                .to_string(),
            "no rows",
        ),
    ] {
        let err = check_campaign(&bad).unwrap_err();
        assert!(err.contains(what), "{what}: {err}");
    }
}

#[test]
fn digest_depends_on_content_and_order() {
    let digest = |outputs: &[&str]| {
        let mut d = Digest::default();
        for o in outputs {
            d.push(o.as_bytes());
        }
        d.hex()
    };
    assert_eq!(digest(&["a", "b"]), digest(&["a", "b"]));
    assert_ne!(digest(&["a", "b"]), digest(&["b", "a"]));
    assert_ne!(digest(&["ab", ""]), digest(&["a", "b"]));
    assert_eq!(digest(&["a"]).len(), 16);
}

#[test]
fn verdicts_follow_direction_and_bound() {
    let lower = Bound {
        name: "job_p50_ms".to_string(),
        lower_is_better: true,
        bound: 0.1,
    };
    let higher = Bound {
        lower_is_better: false,
        ..lower.clone()
    };
    assert_eq!(verdict(&lower, 100.0, 109.0), Verdict::Ok);
    assert_eq!(verdict(&lower, 100.0, 111.0), Verdict::Regressed);
    assert_eq!(verdict(&lower, 100.0, 89.0), Verdict::Improved);
    assert_eq!(verdict(&higher, 100.0, 111.0), Verdict::Improved);
    assert_eq!(verdict(&higher, 100.0, 89.0), Verdict::Regressed);
}

#[test]
fn compare_flags_regressions_and_digest_mismatches() {
    let bounds = load_bounds(
        r#"{"end_to_end":[{"name":"job_p50_ms","unit":"ms","better":"lower","bound":0.1}]}"#,
    )
    .unwrap();
    let results = |p50: f64, digest: &str| {
        format!(
            r#"{{"workloads":[{{"name":"sta-import","failed":0,"output_digest":"{digest}","metrics":{{"job_p50_ms":{{"value":{p50},"unit":"ms"}}}}}}]}}"#
        )
    };
    let (report, holds) = compare(&results(100.0, "aa"), &results(105.0, "aa"), &bounds).unwrap();
    assert!(holds, "{report}");
    assert!(report.contains(" ok"), "{report}");
    let (report, holds) = compare(&results(100.0, "aa"), &results(120.0, "aa"), &bounds).unwrap();
    assert!(!holds && report.contains("regressed"), "{report}");
    let (report, holds) = compare(&results(100.0, "aa"), &results(100.0, "bb"), &bounds).unwrap();
    assert!(!holds && report.contains("MISMATCH"), "{report}");
}
