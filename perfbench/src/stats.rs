//! Order statistics of latency samples.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// Mean of the values left after dropping the lowest and the highest
/// `trim` share (rounded down) of them: robust to a few samples spoiled by
/// host noise, and unlike the median it averages over samples that fall
/// into a few discrete levels (dispatch ticks, integer counts).
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    assert!(!values.is_empty(), "trimmed mean of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * trim).floor() as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Share trimmed from each end by the benchmark's central estimates.
pub const TRIM: f64 = 0.2;

/// The percentile ladder the tail rule climbs.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Whether percentile `p` of `n` samples has at least ten samples beyond it.
pub fn supported(p: f64, n: usize) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// The tail rule: the highest percentile of the ladder with at least ten
/// samples beyond it, with its value and the sample count. `None` when even
/// the median is unsupported (fewer than 20 samples).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64, usize)> {
    let n = sorted.len();
    LADDER
        .iter()
        .rev()
        .find(|&&p| supported(p, n))
        .map(|&p| (p, quantile_sorted(sorted, p / 100.0), n))
}

/// Percentile `p` when the sample supports it (ten samples beyond it).
pub fn percentile_if_supported(sorted: &[f64], p: f64) -> Option<f64> {
    supported(p, sorted.len()).then(|| quantile_sorted(sorted, p / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank() {
        let s = ramp(10);
        assert_eq!(quantile_sorted(&s, 0.5), 5.0);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let mut v = ramp(10);
        v[9] = 1e9;
        // Drops 1, 2 and 9, 1e9: the mean of 3..=8.
        assert_eq!(trimmed_mean(&v, 0.2), 5.5);
        assert_eq!(trimmed_mean(&[4.0], 0.2), 4.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0], 0.2), 2.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&ramp(99)).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&ramp(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0, 1000)));
        assert_eq!(tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
        assert_eq!(tail(&ramp(100_000)).map(|t| t.0), Some(99.99));
    }

    #[test]
    fn p99_only_when_supported() {
        assert_eq!(percentile_if_supported(&ramp(999), 99.0), None);
        assert_eq!(percentile_if_supported(&ramp(1000), 99.0), Some(990.0));
    }
}
