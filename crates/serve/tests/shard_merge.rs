//! Shard-merge determinism: splitting a packed campaign's stimulus into
//! arbitrary vector shards and folding the per-shard classifications
//! with [`FaultOutcome::merge`] reproduces the unsharded
//! compiled-engine [`run_campaign`] result bit-for-bit — for random shard sizes
//! and worker counts 1/2/8. This is the algebraic core of the serve
//! daemon's resume guarantee: a job interrupted at any shard boundary
//! and finished later reports exactly what an uninterrupted run would.

use lowvolt_circuit::faults::{
    run_campaign, standard_targets, stuck_at_universe, CampaignOptions, Engine, FaultOutcome,
    GateFault,
};
use lowvolt_circuit::logic::Bit;
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_circuit::Circuit;
use lowvolt_exec::ExecPolicy;
use proptest::prelude::*;

/// One of the combinational standard datapaths at the given width.
fn target(index: usize, width: usize) -> Circuit {
    let mut all = standard_targets(width).expect("standard targets build");
    // 0 = adder, 1 = shifter, 2 = multiplier, 3 = alu (the register
    // bank is clocked; the packed runner drives it too, but the
    // combinational ones keep case runtime down).
    all.swap_remove(index % 4)
}

/// Deterministic stimulus: `total` vectors from the seeded PRNG stream.
fn vectors(width: usize, seed: u64, total: usize) -> Vec<Vec<Bit>> {
    let mut src = PatternSource::random(width, seed).expect("width in range");
    (0..total).map(|_| src.next_pattern()).collect()
}

/// Classifies every fault in `faults` over exactly `stimulus`,
/// returning outcomes in fault order.
fn classify(
    policy: &ExecPolicy,
    target: &Circuit,
    faults: &[GateFault],
    stimulus: &[Vec<Bit>],
) -> Vec<FaultOutcome> {
    let mut src = PatternSource::replay(stimulus.to_vec()).expect("replay");
    let res = run_campaign(
        target,
        faults,
        &mut src,
        stimulus.len(),
        CampaignOptions {
            engine: Engine::Compiled,
            policy: *policy,
            ..CampaignOptions::default()
        },
    )
    .expect("campaign runs");
    res.reports
        .into_iter()
        .map(|r| r.expect("uninterrupted run resolves every fault").outcome)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For a random vector budget split into random shard sizes, the
    /// per-fault merge of per-shard classifications equals the
    /// unsharded classification — at 1, 2, and 8 workers on both
    /// sides, in every combination.
    #[test]
    fn merged_shards_equal_the_unsharded_campaign(
        target_index in 0usize..4,
        seed in any::<u64>(),
        total in 1usize..150,
        // Shard boundaries: cut points drawn as raw sizes, re-walked
        // below so they always cover `total` exactly.
        raw_sizes in prop::collection::vec(1usize..70, 1..6),
    ) {
        let target = target(target_index, 2);
        let faults = stuck_at_universe(&target.netlist);
        let stimulus = vectors(target.inputs.len(), seed, total);

        let baseline = classify(&ExecPolicy::with_threads(1), &target, &faults, &stimulus);

        for workers in [1usize, 2, 8] {
            let policy = ExecPolicy::with_threads(workers);

            // The whole range at this worker count must already match
            // the single-threaded baseline (thread-count determinism).
            let whole = classify(&policy, &target, &faults, &stimulus);
            prop_assert_eq!(&whole, &baseline, "workers={}", workers);

            // Walk the random shard sizes across the vector range.
            let mut merged: Vec<Option<FaultOutcome>> = vec![None; faults.len()];
            let mut start = 0usize;
            let mut cuts = raw_sizes.iter().cycle();
            while start < total {
                let len = (*cuts.next().expect("cycle never ends")).min(total - start);
                let shard = classify(&policy, &target, &faults, &stimulus[start..start + len]);
                for (slot, outcome) in merged.iter_mut().zip(shard) {
                    *slot = Some(match slot.take() {
                        Some(acc) => acc.merge(outcome),
                        None => outcome,
                    });
                }
                start += len;
            }
            let merged: Vec<FaultOutcome> =
                merged.into_iter().map(|o| o.expect("covered")).collect();
            prop_assert_eq!(&merged, &baseline, "workers={}", workers);
        }
    }
}

/// A fixed heavier case outside proptest: word-boundary-straddling
/// shard sizes (63/64/65) over a 130-vector range, which exercises
/// repacking — a shard of 65 vectors spans two words that the full run
/// packs differently.
#[test]
fn word_straddling_shards_merge_exactly() {
    let target = target(0, 4);
    let faults = stuck_at_universe(&target.netlist);
    let stimulus = vectors(target.inputs.len(), 0xA5A5, 130);
    let policy = ExecPolicy::with_threads(2);
    let whole = classify(&policy, &target, &faults, &stimulus);

    for sizes in [[63usize, 64, 65], [65, 63, 64], [64, 65, 63]] {
        let mut merged: Vec<Option<FaultOutcome>> = vec![None; faults.len()];
        let mut start = 0usize;
        for size in sizes {
            if start >= stimulus.len() {
                break;
            }
            let len = size.min(stimulus.len() - start);
            let shard = classify(&policy, &target, &faults, &stimulus[start..start + len]);
            for (slot, outcome) in merged.iter_mut().zip(shard) {
                *slot = Some(match slot.take() {
                    Some(acc) => acc.merge(outcome),
                    None => outcome,
                });
            }
            start += len;
        }
        let merged: Vec<FaultOutcome> = merged.into_iter().map(|o| o.expect("covered")).collect();
        assert_eq!(merged, whole, "sizes {sizes:?}");
    }
}
