//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 * n)`.

/// Fewest samples a tail percentile needs: ten samples beyond it plus the
/// sample itself.
pub const MIN_TAIL_SAMPLES: usize = 11;

/// How many samples must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending). `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median (the nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(values), 50.0)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail percentile a sample supports: the highest percentile that
/// still has at least ten samples beyond it, with its value and the
/// sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in `(0, 100)`.
    pub percentile: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Choose the tail percentile of `values`. The highest nearest-rank
/// percentile with ten samples beyond it sits at rank `n - 10`, i.e. at
/// `p = 100 (n - 10) / n`. `None` when fewer than [`MIN_TAIL_SAMPLES`]
/// samples exist, so a record never states a tail it cannot support.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    let percentile = 100.0 * rank as f64 / n as f64;
    let value = nearest_rank(&sorted(values), percentile)?;
    Some(Tail {
        percentile,
        value,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 51.0), Some(6.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples support no tail");
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.samples), (1.0, 11));
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|x| **x > t.value).count(), 10);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
    }
}
