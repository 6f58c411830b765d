//! Order statistics for timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least ten samples beyond it ([`highest_percentile`]); with
//! fewer samples a tail figure is one outlier, not a distribution.

/// Samples that must lie beyond a percentile for it to be reportable.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics — the rule Python's `statistics.quantiles(method="inclusive")`
/// and numpy's default use. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    let weight = rank - below as f64;
    Some(sorted[below] * (1.0 - weight) + sorted[above] * weight)
}

/// The median; `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest whole percentile with at least [`TAIL_SAMPLES`] samples
/// strictly beyond it, or `None` when even the median has fewer (under
/// 20 samples). 100 samples give 90, 1000 give 99.
pub fn highest_percentile(count: usize) -> Option<u32> {
    // `beyond(p) = count - ceil(count * p / 100)` samples lie strictly
    // above the p-th percentile's rank.
    (50..=99u32).rev().find(|&p| {
        let at_or_below = (count * p as usize).div_ceil(100);
        count - at_or_below >= TAIL_SAMPLES
    })
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method:
/// rank `i * (n + 1) / 4`, clamped to the sample). `None` under two
/// samples, where that function raises.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let scaled = i * (n + 1);
        let j = (scaled / 4).clamp(1, n - 1);
        let delta = scaled as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The interquartile distance as a share of the median — the run-to-run
/// spread the benchmark's bounds are judged against.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50));
        assert_eq!(highest_percentile(64), Some(84));
        assert_eq!(highest_percentile(99), Some(89));
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(101), Some(90));
        assert_eq!(highest_percentile(200), Some(95));
        assert_eq!(highest_percentile(1000), Some(99));
        assert_eq!(highest_percentile(100_000), Some(99));
        // The rule really leaves ten samples beyond the reported rank.
        for count in 20..400 {
            let p = highest_percentile(count).unwrap() as usize;
            assert!(count - (count * p).div_ceil(100) >= TAIL_SAMPLES, "count {count} p{p}");
            if p < 99 {
                let next = p + 1;
                assert!(count - (count * next).div_ceil(100) < TAIL_SAMPLES, "count {count}");
            }
        }
    }

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), Some(2.5));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 100.0), Some(4.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&samples), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 4.0, 12.0)));
        assert_eq!(spread(&samples), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
