//! Order statistics over latency samples.

/// Nearest-rank percentile (`pct` in (0, 100]) of an ascending sample;
/// `0.0` for an empty sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count); `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail the benchmark reports: the highest of p99, p95, p90, p75 and
/// p50 that leaves at least ten samples beyond it, so the tail always
/// rests on ten observations. Returns `(percentile, value)`; for fewer
/// than twenty samples it falls back to the maximum, reported as p100.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    for pct in [99, 95, 90, 75, 50] {
        let rank = (pct * n).div_ceil(100);
        if n - rank >= 10 {
            return (pct as f64, percentile(sorted, pct as f64));
        }
    }
    (100.0, sorted.last().copied().unwrap_or(0.0))
}

/// Sort a sample ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), (99.0, 990.0));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), (90.0, 90.0));
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&s), (100.0, 5.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
