//! Equi-depth histograms over a sample.
//!
//! Built lazily from the per-attribute sample: each bucket holds the same
//! number of sampled values, so `fraction ≤ v` is read off by locating `v`'s
//! bucket. Works over any datum type via the total ordering (numeric in
//! practice; strings order lexicographically, the same semantics as the
//! engine's comparisons).

use nodb_rawcsv::Datum;

/// Equi-depth histogram: `bounds[i]` is the upper bound of bucket `i`;
/// every bucket holds ~`1/bounds.len()` of the distribution.
#[derive(Debug, Clone)]
pub struct EquiDepthHistogram {
    bounds: Vec<Datum>,
    /// Smallest sampled value (lower bound of bucket 0).
    lo: Datum,
}

impl EquiDepthHistogram {
    /// Build from a sample (unordered, non-null values) with at most
    /// `buckets` buckets. Returns `None` for an empty sample.
    pub fn build(sample: &[Datum], buckets: usize) -> Option<Self> {
        if sample.is_empty() {
            return None;
        }
        let mut sorted: Vec<Datum> = sample.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        let b = buckets.clamp(1, n);
        let mut bounds = Vec::with_capacity(b);
        for i in 1..=b {
            // Upper bound of bucket i-1 = value at the i/b quantile.
            let idx = (i * n).div_ceil(b) - 1;
            bounds.push(sorted[idx.min(n - 1)].clone());
        }
        let lo = sorted[0].clone();
        Some(EquiDepthHistogram { bounds, lo })
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.bounds.len()
    }

    /// Estimated fraction of the distribution that is `<= v`, in `[0, 1]`.
    ///
    /// Uses bucket position plus linear interpolation within the bucket for
    /// numeric values.
    pub fn fraction_le(&self, v: &Datum) -> f64 {
        let b = self.bounds.len() as f64;
        if v.total_cmp(&self.lo) == std::cmp::Ordering::Less {
            return 0.0;
        }
        // Buckets whose upper bound is <= v are fully covered.
        let idx = self
            .bounds
            .partition_point(|ub| ub.total_cmp(v) != std::cmp::Ordering::Greater);
        if idx >= self.bounds.len() {
            return 1.0;
        }
        let full = idx as f64 / b;
        // Interpolate inside bucket `idx` (whose upper bound exceeds v) when
        // numeric; otherwise split the difference.
        let bucket_lo = if idx == 0 {
            &self.lo
        } else {
            &self.bounds[idx - 1]
        };
        let bucket_hi = &self.bounds[idx];
        let frac_in_bucket = match (bucket_lo.as_float(), bucket_hi.as_float(), v.as_float()) {
            (Some(lo), Some(hi), Some(x)) if hi > lo => ((x - lo) / (hi - lo)).clamp(0.0, 1.0),
            _ => 0.5,
        };
        (full + frac_in_bucket / b).clamp(0.0, 1.0)
    }

    /// Estimated fraction strictly inside `[lo, hi]`.
    pub fn fraction_between(&self, lo: &Datum, hi: &Datum) -> f64 {
        (self.fraction_le(hi) - self.fraction_le(lo)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_sample(n: i64) -> Vec<Datum> {
        (0..n).map(Datum::Int).collect()
    }

    #[test]
    fn empty_sample_builds_nothing() {
        assert!(EquiDepthHistogram::build(&[], 8).is_none());
    }

    #[test]
    fn uniform_fractions_are_linear() {
        let h = EquiDepthHistogram::build(&uniform_sample(1000), 20).unwrap();
        for (v, expect) in [(0i64, 0.0), (250, 0.25), (500, 0.5), (999, 1.0)] {
            let f = h.fraction_le(&Datum::Int(v));
            assert!((f - expect).abs() < 0.06, "le({v}) = {f}, expect ~{expect}");
        }
    }

    #[test]
    fn below_min_is_zero_above_max_is_one() {
        let h = EquiDepthHistogram::build(&uniform_sample(100), 10).unwrap();
        assert_eq!(h.fraction_le(&Datum::Int(-5)), 0.0);
        assert_eq!(h.fraction_le(&Datum::Int(1000)), 1.0);
    }

    #[test]
    fn between_matches_difference() {
        let h = EquiDepthHistogram::build(&uniform_sample(1000), 20).unwrap();
        let f = h.fraction_between(&Datum::Int(200), &Datum::Int(400));
        assert!((f - 0.2).abs() < 0.08, "between = {f}");
    }

    #[test]
    fn skewed_sample_shifts_buckets() {
        // 90% of mass at value 0.
        let mut s: Vec<Datum> = std::iter::repeat_with(|| Datum::Int(0)).take(900).collect();
        s.extend((1..=100).map(Datum::Int));
        let h = EquiDepthHistogram::build(&s, 10).unwrap();
        let f = h.fraction_le(&Datum::Int(0));
        assert!(f >= 0.85, "le(0) = {f}");
    }

    #[test]
    fn string_histogram_orders_lexicographically() {
        let s: Vec<Datum> = ["apple", "banana", "cherry", "date", "fig"]
            .iter()
            .map(|&x| Datum::from(x))
            .collect();
        let h = EquiDepthHistogram::build(&s, 5).unwrap();
        assert!(h.fraction_le(&Datum::from("banana")) < h.fraction_le(&Datum::from("date")));
    }

    #[test]
    fn more_buckets_than_samples_is_clamped() {
        let h = EquiDepthHistogram::build(&uniform_sample(3), 100).unwrap();
        assert!(h.buckets() <= 3);
    }
}
