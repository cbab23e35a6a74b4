//! Generator soundness properties: for any seed and any knob setting in
//! range, the generated circuit passes structural DRC (LV001–LV004
//! clean), levelizes in the compiled bit-parallel engine, and is
//! byte-deterministic — the same config writes the identical BLIF.

use lowvolt_circuit::compiled::CompiledNetlist;
use lowvolt_io::{generate, write_blif, GeneratorConfig};
use lowvolt_lint::passes::structural;
use lowvolt_lint::target::LintTarget;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Structural DRC is clean and the compiled engine levelizes the
    /// netlist for arbitrary seeds and knob settings.
    #[test]
    fn generated_netlists_are_drc_clean_and_levelizable(
        seed in any::<u64>(),
        gates in 1usize..400,
        inputs in 1usize..40,
        dff_tenths in 0u32..5,
        window in 1usize..100,
    ) {
        let cfg = GeneratorConfig {
            gates,
            seed,
            inputs,
            dff_fraction: f64::from(dff_tenths) / 10.0,
            window,
        };
        let t = LintTarget::new(generate(&cfg).expect("valid config generates"));
        let diags = structural::run(&t);
        prop_assert!(
            diags.is_empty(),
            "structural DRC found {} issue(s), first: {}",
            diags.len(),
            diags[0]
        );
        let compiled = CompiledNetlist::compile(&t.circuit.netlist);
        prop_assert!(compiled.is_ok(), "levelization failed: {:?}", compiled.err());
    }

    /// The same config is byte-identical; a different seed is not
    /// (overwhelmingly — at ≥ 50 gates two seeds colliding would mean
    /// the PRNG stream repeated).
    #[test]
    fn generation_is_byte_deterministic(seed in any::<u64>(), gates in 50usize..300) {
        let cfg = GeneratorConfig::new(gates, seed);
        let a = write_blif(&generate(&cfg).expect("generates")).expect("writable");
        let b = write_blif(&generate(&cfg).expect("generates")).expect("writable");
        prop_assert_eq!(&a, &b);
        let other = GeneratorConfig::new(gates, seed.wrapping_add(1));
        let c = write_blif(&generate(&other).expect("generates")).expect("writable");
        prop_assert_ne!(a, c);
    }
}

/// The scale the tentpole promises: a 10⁴-gate netlist generates, lints
/// clean, and levelizes — fast enough to live in the default test run.
#[test]
fn ten_thousand_gates_generate_and_levelize() {
    let mut cfg = GeneratorConfig::new(10_000, 42);
    cfg.dff_fraction = 0.05;
    let t = LintTarget::new(generate(&cfg).expect("generates"));
    assert_eq!(t.circuit.netlist.gate_count(), 10_000);
    assert!(structural::run(&t).is_empty());
    let compiled = CompiledNetlist::compile(&t.circuit.netlist).expect("levelizes");
    assert_eq!(compiled.gate_count() + compiled.dff_count(), 10_000);
}
