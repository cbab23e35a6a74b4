//! The fault-tolerance layer's headline guarantee, exhaustively: a
//! campaign killed after K completed injections and resumed produces a
//! report **byte-identical** to an uninterrupted run — for every K in
//! the fault universe and across thread counts on both sides of the
//! interruption. Plus the corruption contract: a damaged journal tail
//! is discarded with a warning and recomputed, never trusted and never
//! a panic. The compiled engine's (word, fault range) journal items get
//! the same kill-and-resume guarantee at every item cut point.

use std::collections::HashMap;
use std::path::PathBuf;

use lowvolt_circuit::faults::{
    run_campaign, standard_targets, stuck_at_universe, CampaignOptions, Engine, FaultOutcome,
    GateFault,
};
use lowvolt_circuit::persist::encode_word_classes;
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_circuit::Circuit;
use lowvolt_exec::{CheckpointJournal, CheckpointSpec, ExecPolicy, FaultPolicy};

const SEED: u64 = 0xC0FFEE;
const VECTORS: usize = 4;

fn adder_target() -> Circuit {
    standard_targets(2)
        .expect("standard targets")
        .into_iter()
        .next()
        .expect("adder target")
}

fn stimulus(target: &Circuit) -> PatternSource {
    PatternSource::random(target.inputs.len(), SEED).expect("stimulus")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lowvolt-resume-{name}-{}", std::process::id()));
    p
}

/// Runs the campaign against `journal` with at most `cap` new items.
fn run_with_journal(
    target: &Circuit,
    faults: &[GateFault],
    journal: &mut CheckpointJournal,
    completed: &HashMap<u64, Vec<u8>>,
    cap: Option<usize>,
    threads: usize,
) -> lowvolt_circuit::faults::ResilientCampaign {
    run_campaign(
        target,
        faults,
        &mut stimulus(target),
        VECTORS,
        CampaignOptions {
            policy: ExecPolicy::with_threads(threads),
            checkpoint: Some(CheckpointSpec {
                journal,
                completed,
                index_base: 0,
                max_new_items: cap,
            }),
            ..CampaignOptions::default()
        },
    )
    .expect("campaign runs")
}

#[test]
fn kill_after_k_and_resume_is_byte_identical_for_every_k() {
    let target = adder_target();
    let faults = stuck_at_universe(&target.netlist);
    let reference = run_campaign(
        &target,
        &faults,
        &mut stimulus(&target),
        VECTORS,
        CampaignOptions::default(),
    )
    .expect("reference campaign")
    .report(&faults)
    .expect("reference is complete");

    // K sweeps the full range: kill before anything completed, after
    // every prefix, and after everything completed (a no-op resume).
    for k in 0..=faults.len() {
        for &threads in &[1usize, 2, 8] {
            let path = tmp(&format!("k{k}-t{threads}"));
            let _ = std::fs::remove_file(&path);
            let mut journal = CheckpointJournal::create(&path).expect("create journal");
            let partial = run_with_journal(
                &target,
                &faults,
                &mut journal,
                &HashMap::new(),
                Some(k),
                threads,
            );
            assert_eq!(partial.computed, k.min(faults.len()), "K = {k}");
            assert_eq!(partial.skipped, faults.len() - k, "K = {k}");
            drop(journal);

            let (mut journal, replay) = CheckpointJournal::resume(&path).expect("resume journal");
            assert!(replay.warning.is_none(), "clean journal, K = {k}");
            let completed = replay.completed();
            assert_eq!(completed.len(), k, "one record per completed injection");
            let resumed =
                run_with_journal(&target, &faults, &mut journal, &completed, None, threads);
            assert!(!resumed.interrupted());
            assert_eq!(resumed.replayed, k, "K = {k}, threads = {threads}");
            assert_eq!(resumed.computed, faults.len() - k);

            let report = resumed.report(&faults).expect("resumed run is complete");
            assert_eq!(report, reference, "K = {k}, threads = {threads}");
            // Byte-identical includes the rendered table text.
            assert_eq!(report.to_string(), reference.to_string());
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn seeded_journal_corruption_degrades_to_recompute_with_warning() {
    let target = adder_target();
    let faults = stuck_at_universe(&target.netlist);
    let reference = run_campaign(
        &target,
        &faults,
        &mut stimulus(&target),
        VECTORS,
        CampaignOptions::default(),
    )
    .expect("reference campaign")
    .report(&faults)
    .expect("reference is complete");

    // Write a 10-record prefix, then corrupt it three ways: truncate
    // mid-record, truncate mid-header, and flip a payload bit. Resume
    // must retain only the valid prefix, warn, and still converge to
    // the reference.
    let pristine = {
        let path = tmp("corrupt-src");
        let _ = std::fs::remove_file(&path);
        let mut journal = CheckpointJournal::create(&path).expect("create");
        let partial =
            run_with_journal(&target, &faults, &mut journal, &HashMap::new(), Some(10), 2);
        assert_eq!(partial.computed, 10);
        drop(journal);
        let bytes = std::fs::read(&path).expect("read journal");
        let _ = std::fs::remove_file(&path);
        bytes
    };

    let corruptions: Vec<(&str, Vec<u8>)> = vec![
        ("truncate-tail", pristine[..pristine.len() - 5].to_vec()),
        ("truncate-deep", pristine[..pristine.len() / 2].to_vec()),
        ("bitflip", {
            let mut b = pristine.clone();
            let mid = b.len() - 10;
            b[mid] ^= 0x40;
            b
        }),
    ];
    for (name, bytes) in corruptions {
        let path = tmp(&format!("corrupt-{name}"));
        std::fs::write(&path, &bytes).expect("write corrupted journal");
        let (mut journal, replay) = CheckpointJournal::resume(&path).expect("resume never panics");
        assert!(
            replay.warning.is_some(),
            "{name}: corruption must be diagnosed"
        );
        assert!(
            replay.entries.len() < 10,
            "{name}: some records must have been discarded"
        );
        let completed = replay.completed();
        let resumed = run_with_journal(&target, &faults, &mut journal, &completed, None, 2);
        assert_eq!(
            resumed.report(&faults).expect("complete"),
            reference,
            "{name}: corrupted journal still converges to the reference"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn timed_out_injections_are_retried_on_resume_not_journaled() {
    let target = adder_target();
    let faults: Vec<GateFault> = stuck_at_universe(&target.netlist)
        .into_iter()
        .take(6)
        .collect();
    let path = tmp("timeout");
    let _ = std::fs::remove_file(&path);
    let mut journal = CheckpointJournal::create(&path).expect("create");
    let doomed = run_campaign(
        &target,
        &faults,
        &mut stimulus(&target),
        VECTORS,
        CampaignOptions {
            policy: ExecPolicy::with_threads(2),
            fault: FaultPolicy {
                item_timeout_ms: Some(0),
                ..FaultPolicy::default()
            },
            checkpoint: Some(CheckpointSpec {
                journal: &mut journal,
                completed: &HashMap::new(),
                index_base: 0,
                max_new_items: None,
            }),
            ..CampaignOptions::default()
        },
    )
    .expect("campaign survives universal timeouts");
    // Every injection degraded to a typed error; none aborted the run
    // and none were checkpointed as if they had succeeded.
    for slot in doomed.outcomes.iter() {
        assert!(matches!(
            slot.expect("slot resolved"),
            FaultOutcome::Errored(_)
        ));
    }
    assert_eq!(journal.records(), 0, "failures must not be journaled");
    drop(journal);

    // Resuming without the deadline recomputes everything cleanly.
    let (mut journal, replay) = CheckpointJournal::resume(&path).expect("resume");
    let completed = replay.completed();
    let resumed = run_with_journal(&target, &faults, &mut journal, &completed, None, 2);
    assert_eq!(resumed.replayed, 0);
    assert_eq!(resumed.computed, faults.len());
    assert!(resumed
        .outcomes
        .iter()
        .flatten()
        .all(|o| !matches!(o, FaultOutcome::Errored(_))));
    let _ = std::fs::remove_file(&path);
}

/// A width-16 multiplier: more than 2048 stuck-at faults, so each
/// packed stimulus word splits into three fault-range work items.
fn multi_range_target() -> (Circuit, Vec<GateFault>) {
    let target = standard_targets(16)
        .expect("standard targets")
        .into_iter()
        .nth(2)
        .expect("multiplier target");
    let faults = stuck_at_universe(&target.netlist);
    assert!(
        (2049..=3072).contains(&faults.len()),
        "{} faults are not three ranges",
        faults.len()
    );
    (target, faults)
}

/// 70 vectors: one full stimulus word and one partial.
const PACKED_VECTORS: usize = 70;

fn run_packed_with_journal(
    target: &Circuit,
    faults: &[GateFault],
    journal: &mut CheckpointJournal,
    completed: &HashMap<u64, Vec<u8>>,
    cap: Option<usize>,
    threads: usize,
) -> lowvolt_circuit::faults::ResilientCampaign {
    run_campaign(
        target,
        faults,
        &mut stimulus(target),
        PACKED_VECTORS,
        CampaignOptions {
            engine: Engine::Compiled,
            policy: ExecPolicy::with_threads(threads),
            checkpoint: Some(CheckpointSpec {
                journal,
                completed,
                index_base: 0,
                max_new_items: cap,
            }),
            ..CampaignOptions::default()
        },
    )
    .expect("packed campaign runs")
}

/// The packed engine's journal items are (word, fault range) pairs in
/// word-major order, so K = 3 cuts at the word boundary and every other
/// K in 1..6 cuts mid-word. Every cut point resumes to the clean run's
/// bytes, with each item either replayed or computed exactly once.
#[test]
fn packed_kill_after_k_items_and_resume_is_byte_identical() {
    let (target, faults) = multi_range_target();
    let total = Engine::Compiled.work_items(PACKED_VECTORS, faults.len()) as usize;
    assert_eq!(total, 6, "2 words x 3 fault ranges");
    let reference = run_campaign(
        &target,
        &faults,
        &mut stimulus(&target),
        PACKED_VECTORS,
        CampaignOptions {
            engine: Engine::Compiled,
            ..CampaignOptions::default()
        },
    )
    .expect("reference campaign")
    .report(&faults)
    .expect("reference is complete")
    .to_string();
    for k in 0..=total {
        for (before, after) in [(1usize, 2usize), (2, 1), (8, 8)] {
            let path = tmp(&format!("packed-k{k}-t{before}{after}"));
            let _ = std::fs::remove_file(&path);
            let mut journal = CheckpointJournal::create(&path).expect("create journal");
            let partial = run_packed_with_journal(
                &target,
                &faults,
                &mut journal,
                &HashMap::new(),
                Some(k),
                before,
            );
            assert_eq!(
                (partial.computed, partial.skipped),
                (k, total - k),
                "K = {k}"
            );
            // A fault resolves once every word of its range is done:
            // range r's last item is 3 + r.
            let resolved = partial.outcomes.resolved();
            let expected = (k.saturating_sub(3) * 1024).min(faults.len());
            assert_eq!(resolved, expected, "K = {k}");
            drop(journal);

            let (mut journal, replay) = CheckpointJournal::resume(&path).expect("resume journal");
            assert!(replay.warning.is_none(), "clean journal, K = {k}");
            let completed = replay.completed();
            let resumed =
                run_packed_with_journal(&target, &faults, &mut journal, &completed, None, after);
            assert!(!resumed.interrupted());
            assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);
            assert_eq!(resumed.replayed, k, "K = {k}");
            assert_eq!(resumed.replayed + resumed.computed, total, "K = {k}");
            let report = resumed.report(&faults).expect("resumed run is complete");
            assert_eq!(
                report.to_string(),
                reference,
                "K = {k}, {before}->{after} threads"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// A record whose class count does not match its item — here a
/// word-sized record, as a journal written with one item per stimulus
/// word would hold — is recomputed with a warning, never misassigned.
#[test]
fn packed_record_of_the_wrong_length_is_recomputed_with_a_warning() {
    let (target, faults) = multi_range_target();
    let total = Engine::Compiled.work_items(PACKED_VECTORS, faults.len()) as usize;
    let clean = {
        let path = tmp("packed-wrong-len-ref");
        let _ = std::fs::remove_file(&path);
        let mut journal = CheckpointJournal::create(&path).expect("create journal");
        let run = run_packed_with_journal(&target, &faults, &mut journal, &HashMap::new(), None, 2);
        let _ = std::fs::remove_file(&path);
        run.report(&faults).expect("complete").to_string()
    };
    let path = tmp("packed-wrong-len");
    let _ = std::fs::remove_file(&path);
    let mut journal = CheckpointJournal::create(&path).expect("create journal");
    journal
        .append(
            0,
            &encode_word_classes(&vec![0u8; faults.len()]),
            lowvolt_obs::noop(),
        )
        .expect("append stale record");
    drop(journal);
    let (mut journal, replay) = CheckpointJournal::resume(&path).expect("resume journal");
    let completed = replay.completed();
    let resumed = run_packed_with_journal(&target, &faults, &mut journal, &completed, None, 2);
    assert_eq!((resumed.replayed, resumed.computed), (0, total));
    assert!(
        resumed
            .warnings
            .iter()
            .any(|w| w.contains("checkpoint record 0 could not be decoded")),
        "{:?}",
        resumed.warnings
    );
    assert_eq!(
        resumed.report(&faults).expect("complete").to_string(),
        clean
    );
    let _ = std::fs::remove_file(&path);
}
