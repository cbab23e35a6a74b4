//! The parallel engine's core guarantee, end to end: a fault campaign
//! partitioned over worker threads produces a report **bit-identical**
//! to the serial sweep, for any thread count.

use lowvolt_circuit::faults::{
    run_campaign, standard_targets, stuck_at_universe, CampaignOptions, CampaignReport,
};
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_circuit::Circuit;
use lowvolt_exec::ExecPolicy;

fn report(target: &Circuit, policy: ExecPolicy, seed: u64, vectors: usize) -> CampaignReport {
    let faults = stuck_at_universe(&target.netlist);
    let mut src = PatternSource::random(target.inputs.len(), seed).expect("stimulus");
    let options = CampaignOptions {
        policy,
        ..CampaignOptions::default()
    };
    run_campaign(target, &faults, &mut src, vectors, options)
        .expect("campaign runs")
        .report()
        .expect("an unjournaled run resolves every fault")
}

#[test]
fn campaign_identical_for_any_thread_count() {
    let width = 4;
    let vectors = 8;
    let targets = standard_targets(width).expect("standard targets build");
    let serial: Vec<CampaignReport> = targets
        .iter()
        .map(|target| report(target, ExecPolicy::serial(), 0xD5EED, vectors))
        .collect();
    for threads in [1, 2, 3, 8] {
        let policy = ExecPolicy::with_threads(threads);
        for (target, expected) in targets.iter().zip(&serial) {
            let got = report(target, policy, 0xD5EED, vectors);
            // Structural equality: same faults in the same order with the
            // same classifications…
            assert_eq!(&got, expected, "threads = {threads}, {}", target.name);
            // …and the rendered summary matches byte for byte.
            assert_eq!(
                got.to_string(),
                expected.to_string(),
                "threads = {threads}, {}",
                target.name
            );
        }
    }
}

#[test]
fn campaign_default_policy_matches_serial() {
    // Whatever the machine's parallelism, the env-derived default policy
    // must agree with the serial reference.
    let targets = standard_targets(2).expect("standard targets build");
    let target = &targets[0];
    let serial = report(target, ExecPolicy::serial(), 7, 4);
    let parallel = report(target, ExecPolicy::from_env(), 7, 4);
    assert_eq!(serial, parallel);
}
