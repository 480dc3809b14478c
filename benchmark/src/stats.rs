//! Order statistics over small samples.

/// Median (mean of the middle two when even). Panics on an empty sample:
/// every caller measures at least one lap first.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Sum over parts of each part's median over the laps; `laps[l][i]` is part
/// `i` of lap `l`, and every lap has the same parts.
pub fn sum_of_part_medians(laps: &[&[f64]]) -> f64 {
    let parts = laps.first().map_or(0, |lap| lap.len());
    (0..parts).map(|i| median(&laps.iter().map(|lap| lap[i]).collect::<Vec<_>>())).sum()
}

/// Nearest-rank quantile, the rule `rgb_core::obs::Histogram::quantile`
/// uses, so driver-measured live latencies and engine histograms read
/// alike. `0.0` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `(max - min) / median`, the lap-to-lap spread of one run.
pub fn spread_share(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let max = samples.iter().copied().fold(f64::MIN, f64::max);
    let min = samples.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 9.0, 3.0, 7.0], 0.5), 5.0);
        assert_eq!(quantile(&[5.0, 1.0, 9.0, 3.0, 7.0], 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(spread_share(&[2.0, 3.0, 4.0]), 2.0 / 3.0);
        assert_eq!(sum_of_part_medians(&[&[1.0, 9.0], &[2.0, 1.0], &[7.0, 2.0]]), 4.0);
        assert_eq!(sum_of_part_medians(&[]), 0.0);
    }
}
