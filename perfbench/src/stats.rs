//! Order statistics used by every metric the benchmark reports.

/// Percentiles the benchmark may report as a distribution's tail, lowest
/// first.
pub const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in percent) of an ascending `sorted`
/// sample: the smallest value with at least `p`% of the sample at or
/// below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`, in integer
/// millionths so that e.g. p99.9 of 10 000 is exactly rank 9 990.
fn rank(n: usize, p: f64) -> usize {
    let ppm = (p * 1e4).round() as u128;
    let rank = (ppm * n as u128).div_ceil(1_000_000) as usize;
    rank.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest of [`TAIL_PERCENTILES`] with at least [`MIN_BEYOND`]
/// samples beyond it in a sample of `n`, or `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of an unsorted sample (mean of the middle pair for even sizes),
/// or `0.0` for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Sorts a sample ascending in place and returns it.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; 999 leaves 9.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in [1, 20, 100, 999, 1000, 12_345] {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= MIN_BEYOND);
                let higher = TAIL_PERCENTILES.iter().find(|&&q| q > p);
                if let Some(&q) = higher {
                    assert!(beyond(n, q) < MIN_BEYOND, "n={n}: p{q} also qualifies");
                }
            }
        }
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
