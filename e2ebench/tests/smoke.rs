//! In-process smoke run of every workload at tiny sizes — job functions
//! called directly and a library `Server` on an ephemeral port standing
//! in for the executable — asserting that the timed and traced runs
//! emit exactly the metrics `BENCHMARK.json` names, with its units.

use std::path::PathBuf;

use lowvolt_e2ebench::jobs::{Scale, Workload};
use lowvolt_e2ebench::measure::Outcome;
use lowvolt_e2ebench::proc::Program;
use lowvolt_e2ebench::{result_line, run_workload, RUN_SECONDS};
use lowvolt_serve::json::Json;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn work_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lvbench_smoke_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let doc = benchmark();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["sta-import", "campaign-import", "serve-mix"]);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_u64),
        Some(RUN_SECONDS)
    );

    let root = work_root("all");
    let scale = Scale::tiny();
    for w in Workload::ALL {
        let timed = run_workload(&Program::InProcess, w, 7, 0.0, false, &scale, &root)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(timed.correct(), "{}: {:?}", w.name(), timed.failures);
        assert!(timed.attempted >= scale.min_jobs, "{}", w.name());
        assert_eq!(emitted(&timed), end_to_end, "{}", w.name());
        assert!(timed.metrics.iter().all(|m| m.value > 0.0), "{timed:?}");
        let line = Json::parse(&result_line(&timed)).expect("result line parses");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));

        let traced = run_workload(&Program::InProcess, w, 7, 0.0, true, &scale, &root)
            .unwrap_or_else(|e| panic!("{} traced: {e}", w.name()));
        assert!(traced.correct(), "{}: {:?}", w.name(), traced.failures);
        assert_eq!(emitted(&traced), per_layer, "{}", w.name());
        let spans = root.join(format!("spans-{}-seed7.json", w.name()));
        let spans = std::fs::read_to_string(spans).expect("spans written");
        Json::parse(&spans).expect("spans parse");
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn equal_seeds_give_equal_digests() {
    let root = work_root("digest");
    let scale = Scale::tiny();
    let digest = |seed| {
        run_workload(
            &Program::InProcess,
            Workload::StaImport,
            seed,
            0.0,
            false,
            &scale,
            &root,
        )
        .expect("run")
        .digest
        .expect("timed runs have a digest")
    };
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
    std::fs::remove_dir_all(&root).ok();
}
