//! Order statistics over job times.

/// Samples that must lie strictly beyond a reported tail percentile, so
/// that the percentile rests on more than a handful of slow jobs.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it. `None` for an empty slice or `q` outside
/// `(0, 1]`.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let (rank, sorted) = rank_of(values, q)?;
    Some(sorted[rank - 1])
}

/// [`quantile`] for a tail percentile such as p90: refused (`Err`) when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
///
/// # Errors
///
/// Names the sample count and how many samples the tail needs.
pub fn tail_quantile(values: &[f64], q: f64) -> Result<f64, String> {
    let (rank, sorted) =
        rank_of(values, q).ok_or_else(|| format!("no samples for p{}", q * 100.0))?;
    let beyond = sorted.len() - rank;
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{} of {} samples has {beyond} beyond it; at least {MIN_TAIL_SAMPLES} are needed",
            q * 100.0,
            sorted.len()
        ));
    }
    Ok(sorted[rank - 1])
}

/// The median (nearest rank, so always one of the samples).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

fn rank_of(values: &[f64], q: f64) -> Option<(usize, Vec<f64>)> {
    if values.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // truncation-safe: q ≤ 1, so the rank is at most the sample count.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((rank, sorted))
}
