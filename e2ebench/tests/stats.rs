//! Percentile math: nearest rank, and p90 refused without ten samples
//! beyond it.

use lowvolt_e2ebench::stats::{median, quantile, tail_quantile, MIN_TAIL_SAMPLES};

fn samples(n: usize) -> Vec<f64> {
    // Shuffled on purpose: the functions must sort.
    (1..=n).rev().map(|v| v as f64).collect()
}

#[test]
fn nearest_rank_quantiles() {
    let v = samples(100);
    assert_eq!(quantile(&v, 0.5), Some(50.0));
    assert_eq!(quantile(&v, 0.9), Some(90.0));
    assert_eq!(quantile(&v, 1.0), Some(100.0));
    assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
    assert_eq!(median(&samples(5)), Some(3.0));
    assert_eq!(quantile(&[], 0.5), None);
    assert_eq!(quantile(&v, 0.0), None);
    assert_eq!(quantile(&v, 1.5), None);
}

#[test]
fn p90_needs_ten_samples_beyond_it() {
    // 100 samples: p90 is the 90th, with exactly ten beyond.
    assert_eq!(tail_quantile(&samples(100), 0.9), Ok(90.0));
    assert_eq!(tail_quantile(&samples(250), 0.9), Ok(225.0));
    // 99 samples: the 90th is p90, with only nine beyond.
    let err = tail_quantile(&samples(99), 0.9).unwrap_err();
    assert!(err.contains("9 beyond"), "{err}");
    for n in [1, 10, 50, 95] {
        assert!(tail_quantile(&samples(n), 0.9).is_err(), "{n} samples");
    }
    assert!(tail_quantile(&[], 0.9).is_err());
    assert_eq!(MIN_TAIL_SAMPLES, 10);
}
