//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition: the q-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(q * n)`. A
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; otherwise a single outlier would decide it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `q` (0 < q <= 1) among `n`
/// samples, clamped to `1..=n`.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "rank of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    // The small epsilon keeps exact products such as 0.95 * 200 = 190
    // from rounding up to 191 through floating-point error.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// True when `n` samples support reporting the `q` percentile: at least
/// [`MIN_BEYOND`] of them lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// The smallest sample count that [`supports`] the `q` percentile.
pub fn min_samples(q: f64) -> usize {
    (1..).find(|&n| supports(n, q)).expect("unbounded search")
}

/// The nearest-rank `q` percentile of `samples` (any order).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// The median: the mean of the two middle samples for even counts.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
