//! Order statistics over latency samples.

use std::time::Duration;

/// Percentile of unsorted samples (`p` in `0..=1`), interpolated between
/// the two nearest ranks so that samples clustered at a few levels do not
/// make it jump from one level to the next; NaN when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() - 1) as f64 * p;
    let (below, above) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Mean over the final eighth of the samples (at least one).
pub fn late_mean(samples: &[f64]) -> f64 {
    let tail = (samples.len() / 8).max(1).min(samples.len());
    mean(&samples[samples.len() - tail..])
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
