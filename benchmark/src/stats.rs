//! Order statistics over latency samples and across runs.

/// Samples a percentile needs before it is reported: the highest percentile
/// reported is the one with at least ten samples beyond it.
pub const MIN_SAMPLES_P90: usize = 100;

/// The `q`-quantile (nearest rank) of unsorted samples; `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (mean of the two middle samples when the count is even).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The 90th percentile, or — below [`MIN_SAMPLES_P90`] samples, where fewer
/// than ten lie beyond it — the highest sample-supported percentile instead:
/// the value with ten samples above it, or the maximum for tiny runs.
pub fn p90_or_supported(samples: &[f64]) -> Option<f64> {
    if samples.len() >= MIN_SAMPLES_P90 {
        return percentile(samples, 0.90);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = sorted
        .len()
        .checked_sub(11)
        .unwrap_or(sorted.len().saturating_sub(1));
    sorted.get(index).copied()
}

/// Min, median, max and `(max − min) / median` of one metric across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub ratio: f64,
}

pub fn spread(values: &[f64]) -> Option<Spread> {
    let median = median(values)?;
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let ratio = if median == 0.0 {
        0.0
    } else {
        (max - min) / median.abs()
    };
    Some(Spread {
        min,
        median,
        max,
        ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.99), Some(99.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90_or_supported(&hundred), Some(90.0));
        // 50 samples: the reported value is the one with ten beyond it.
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(p90_or_supported(&fifty), Some(40.0));
        // Ten or fewer samples: nothing has ten beyond it; report the maximum.
        assert_eq!(p90_or_supported(&[5.0, 9.0, 7.0]), Some(9.0));
        assert_eq!(p90_or_supported(&[]), None);
    }

    #[test]
    fn spread_is_range_over_median() {
        let s = spread(&[9.0, 10.0, 12.0]).unwrap();
        assert_eq!((s.min, s.median, s.max), (9.0, 10.0, 12.0));
        assert!((s.ratio - 0.3).abs() < 1e-12);
    }
}
