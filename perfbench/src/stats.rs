//! Percentiles over latency samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `q` in `(0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.9 / p99 / p90 / p50 that still has ten samples
/// beyond it — the tail a sample of this size can support.
pub fn supported_tail(samples: usize) -> f64 {
    [(0.999, 1000), (0.99, 100), (0.9, 10)]
        .into_iter()
        .find(|(_, one_in)| samples / one_in >= 10)
        .map_or(0.5, |(q, _)| q)
}

/// Median of unsorted floats (mean of the middle two for even counts).
pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.001), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(50), 0.5);
        assert_eq!(supported_tail(100), 0.9);
        assert_eq!(supported_tail(1_000), 0.99);
        assert_eq!(supported_tail(10_000), 0.999);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
