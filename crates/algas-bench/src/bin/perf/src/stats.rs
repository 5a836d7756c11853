//! Order statistics: the percentile rule of the benchmark and the
//! quartiles `repeat` reports.

/// Nearest-rank percentile `p` (0 < p < 1) of ascending `sorted`.
///
/// Refuses (returns `None`) when fewer than ten samples lie beyond the
/// returned one: a tail read off a handful of samples is noise, and the
/// benchmark reports only percentiles its sample supports.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    if sorted.is_empty() || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    if sorted.len() - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of ascending `sorted` (mean of the two middle values for an
/// even count); `None` when empty. No ten-sample rule: a median of few
/// samples is still the best single summary of them.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Sorts a copy ascending (values are finite by construction).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them,
/// so `repeat` prints the spread the driver will compute.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // 1000 samples leave one beyond p99.9.
        assert_eq!(percentile(&v, 0.999), None);
        // p99 of 1009 samples is rank 999: exactly ten beyond it.
        let v: Vec<f64> = (1..=1009).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(999.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[1.0, 2.0, 4.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }
}
