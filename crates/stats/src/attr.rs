//! Per-attribute statistics accumulator — a mergeable summary.
//!
//! Fed by the scan operator for *requested attributes only* (§3.3: "creates
//! statistics only on requested attributes") and incrementally augmented as
//! queries touch more rows. Every component is order-free: `rows_seen` and
//! `nulls` add, `min`/`max` compare, the NDV bitmap ORs, and the sample is a
//! bottom-k by row hash ([`crate::sample::BottomK`]). So an accumulator over
//! a row set is the same whether it observed the rows one by one, in any
//! order, or merged summaries of any split of them
//! ([`AttrStats::merge`]) — which is how a parallel scan's partitions feed
//! statistics without a serial replay.

use std::cmp::Ordering;

use nodb_rawcsv::Datum;

use crate::histogram::EquiDepthHistogram;
use crate::ndv::DistinctCounter;
use crate::sample::BottomK;

/// Sample capacity (`k` of the bottom-k) per attribute.
pub const DEFAULT_SAMPLE_CAPACITY: usize = 1024;

/// Running statistics for one attribute of one raw file.
#[derive(Debug, Clone)]
pub struct AttrStats {
    attr: usize,
    /// Values observed (including NULLs).
    rows_seen: u64,
    /// NULLs observed.
    nulls: u64,
    /// Smallest non-null value (total order).
    min: Option<Datum>,
    /// Largest non-null value (total order).
    max: Option<Datum>,
    sample: BottomK,
    ndv: DistinctCounter,
    /// Histogram cache, keyed by the non-null count it was built at (the
    /// sample can only change when that count grows).
    histogram: Option<(u64, EquiDepthHistogram)>,
}

impl AttrStats {
    /// Fresh accumulator for attribute `attr`.
    pub fn new(attr: usize) -> Self {
        AttrStats {
            attr,
            rows_seen: 0,
            nulls: 0,
            min: None,
            max: None,
            sample: BottomK::new(DEFAULT_SAMPLE_CAPACITY),
            ndv: DistinctCounter::default_size(),
            histogram: None,
        }
    }

    /// The attribute index this accumulator describes.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// Observe the value of data row `row` (0-based, file order). The row
    /// id picks the value's place in the bottom-k sample, so each row must
    /// be observed at most once.
    pub fn observe(&mut self, row: u64, d: &Datum) {
        if self.note(d) {
            self.sample.offer(row, d);
        }
    }

    /// Observe many rows at once — `(row, value)` pairs, each row at most
    /// once. Equivalent to [`Self::observe`] per pair; the sample buffers
    /// its candidates and prunes them in bulk (the scan summariser's path).
    pub fn observe_batch(&mut self, rows: impl IntoIterator<Item = (u64, Datum)>) {
        let mut batch = self.sample.batch();
        for (row, d) in rows {
            if self.note(&d) {
                batch.offer(row, &d);
            }
        }
        self.sample.absorb(batch);
    }

    /// Count `d` and fold it into the extremes and the NDV bitmap; returns
    /// whether it is non-null (a sample candidate).
    fn note(&mut self, d: &Datum) -> bool {
        self.rows_seen += 1;
        if d.is_null() {
            self.nulls += 1;
            return false;
        }
        self.widen(d, d);
        self.ndv.add(d);
        true
    }

    /// Widen the observed extremes to cover `[lo, hi]`.
    fn widen(&mut self, lo: &Datum, hi: &Datum) {
        if self
            .min
            .as_ref()
            .is_none_or(|m| lo.total_cmp(m) == Ordering::Less)
        {
            self.min = Some(lo.clone());
        }
        if self
            .max
            .as_ref()
            .is_none_or(|m| hi.total_cmp(m) == Ordering::Greater)
        {
            self.max = Some(hi.clone());
        }
    }

    /// Fold in a summary of a disjoint row set: counts add, extremes
    /// compare, NDV bitmaps OR and samples merge to the bottom-k of the
    /// union — the same state observing both row sets would have produced.
    pub fn merge(&mut self, other: AttrStats) {
        self.rows_seen += other.rows_seen;
        self.nulls += other.nulls;
        if let (Some(lo), Some(hi)) = (&other.min, &other.max) {
            self.widen(lo, hi);
        }
        self.ndv.merge(&other.ndv);
        self.sample.merge(other.sample);
    }

    /// Values observed so far (including NULLs).
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// Fraction of observed values that were NULL.
    pub fn null_fraction(&self) -> f64 {
        if self.rows_seen == 0 {
            0.0
        } else {
            self.nulls as f64 / self.rows_seen as f64
        }
    }

    /// Estimated number of distinct non-null values.
    pub fn ndv(&self) -> f64 {
        self.ndv.estimate().max(1.0)
    }

    /// The NDV bitmap words (exact-state comparisons and snapshots).
    pub fn ndv_words(&self) -> &[u64] {
        self.ndv.words()
    }

    /// Observed minimum.
    pub fn min(&self) -> Option<&Datum> {
        self.min.as_ref()
    }

    /// Observed maximum.
    pub fn max(&self) -> Option<&Datum> {
        self.max.as_ref()
    }

    /// The current sample (non-null values, in ascending row-hash order).
    pub fn sample(&self) -> &[Datum] {
        self.sample.sample()
    }

    /// Equi-depth histogram over the current sample (rebuilt lazily when the
    /// sample has grown since the last build).
    pub fn histogram(&mut self) -> Option<&EquiDepthHistogram> {
        let nonnull = self.rows_seen - self.nulls;
        let stale = match &self.histogram {
            Some((at, _)) => *at != nonnull,
            None => true,
        };
        if stale {
            self.histogram =
                EquiDepthHistogram::build(self.sample.sample(), 64).map(|h| (nonnull, h));
        }
        self.histogram.as_ref().map(|(_, h)| h)
    }

    /// Reset (file replaced).
    pub fn clear(&mut self) {
        self.rows_seen = 0;
        self.nulls = 0;
        self.min = None;
        self.max = None;
        self.sample.clear();
        self.ndv.clear();
        self.histogram = None;
    }

    /// Export the full accumulator state for snapshotting. The histogram
    /// cache is deliberately excluded — it rebuilds lazily from the sample.
    pub fn export_state(&self) -> AttrStatsState {
        AttrStatsState {
            attr: self.attr,
            rows_seen: self.rows_seen,
            nulls: self.nulls,
            min: self.min.clone(),
            max: self.max.clone(),
            sample: self.sample.entries(),
            ndv_words: self.ndv.words().to_vec(),
        }
    }

    /// Rebuild an accumulator from [`Self::export_state`]. Returns `None`
    /// when any component is inconsistent (untrusted sidecar input) —
    /// nulls exceeding rows seen, more samples than non-null rows, a
    /// malformed sample, or an empty NDV bitmap.
    pub fn from_state(state: AttrStatsState) -> Option<Self> {
        if state.nulls > state.rows_seen
            || state.sample.len() as u64 > state.rows_seen - state.nulls
        {
            return None;
        }
        Some(AttrStats {
            attr: state.attr,
            rows_seen: state.rows_seen,
            nulls: state.nulls,
            min: state.min,
            max: state.max,
            sample: BottomK::from_entries(DEFAULT_SAMPLE_CAPACITY, state.sample)?,
            ndv: DistinctCounter::from_words(state.ndv_words)?,
            histogram: None,
        })
    }
}

/// Serializable snapshot of an [`AttrStats`] accumulator.
#[derive(Debug, Clone)]
pub struct AttrStatsState {
    /// Attribute index.
    pub attr: usize,
    /// Values observed (including NULLs).
    pub rows_seen: u64,
    /// NULLs observed.
    pub nulls: u64,
    /// Observed minimum.
    pub min: Option<Datum>,
    /// Observed maximum.
    pub max: Option<Datum>,
    /// Bottom-k sample: `(row hash, value)` in ascending hash order.
    pub sample: Vec<(u64, Datum)>,
    /// NDV linear-counting bitmap words.
    pub ndv_words: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe_all(s: &mut AttrStats, vals: impl IntoIterator<Item = Datum>) {
        for (row, d) in vals.into_iter().enumerate() {
            s.observe(row as u64, &d);
        }
    }

    #[test]
    fn min_max_null_tracking() {
        let mut s = AttrStats::new(0);
        observe_all(
            &mut s,
            [Datum::Int(5), Datum::Null, Datum::Int(-3), Datum::Int(9)],
        );
        assert_eq!(s.min(), Some(&Datum::Int(-3)));
        assert_eq!(s.max(), Some(&Datum::Int(9)));
        assert_eq!(s.rows_seen(), 4);
        assert!((s.null_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn ndv_counts_distinct() {
        let mut s = AttrStats::new(1);
        observe_all(&mut s, (0..50).map(|i| Datum::Int(i % 10)));
        let e = s.ndv();
        assert!((e - 10.0).abs() < 3.0, "ndv = {e}");
    }

    #[test]
    fn histogram_rebuilds_after_growth() {
        let mut s = AttrStats::new(2);
        for i in 0..100 {
            s.observe(i as u64, &Datum::Int(i));
        }
        let f1 = s.histogram().unwrap().fraction_le(&Datum::Int(50));
        assert!(f1 > 0.3 && f1 < 0.7);
        for i in 100..1000 {
            s.observe(i as u64, &Datum::Int(i));
        }
        let f2 = s.histogram().unwrap().fraction_le(&Datum::Int(50));
        assert!(f2 < 0.2, "after growth le(50) = {f2}");
    }

    #[test]
    fn state_round_trip_continues_identically() {
        let mut a = AttrStats::new(5);
        observe_all(
            &mut a,
            (0..2_000).map(|i| {
                if i % 13 == 0 {
                    Datum::Null
                } else {
                    Datum::Int(i % 97)
                }
            }),
        );
        let mut b = AttrStats::from_state(a.export_state()).expect("consistent");
        assert_eq!(a.attr(), b.attr());
        assert_eq!(a.rows_seen(), b.rows_seen());
        assert_eq!(a.null_fraction(), b.null_fraction());
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        assert_eq!(a.ndv(), b.ndv());
        assert_eq!(a.sample(), b.sample());
        // Further observations must evolve both identically.
        for i in 0..3_000 {
            let d = Datum::Int(i * 3 + 1);
            a.observe(2_000 + i as u64, &d);
            b.observe(2_000 + i as u64, &d);
        }
        assert_eq!(a.sample(), b.sample());
        assert_eq!(a.ndv(), b.ndv());
    }

    #[test]
    fn from_state_rejects_inconsistent_counts() {
        let mut a = AttrStats::new(0);
        a.observe(0, &Datum::Int(1));
        let mut s = a.export_state();
        s.nulls = s.rows_seen + 1;
        assert!(AttrStats::from_state(s).is_none());
        let mut s2 = a.export_state();
        s2.ndv_words = Vec::new();
        assert!(AttrStats::from_state(s2).is_none());
        let mut s3 = a.export_state();
        s3.sample.push((u64::MAX, Datum::Int(2))); // more samples than rows
        assert!(AttrStats::from_state(s3).is_none());
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = AttrStats::new(3);
        s.observe(0, &Datum::Int(1));
        s.clear();
        assert_eq!(s.rows_seen(), 0);
        assert!(s.min().is_none());
        assert!(s.histogram().is_none());
    }

    /// splitmix64 stream for the randomized merge tests.
    struct TestRng(u64);

    impl TestRng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(1);
            crate::sample::row_hash(self.0) % n.max(1)
        }
    }

    /// Column `ty` (0 int, 1 float, 2 str, 3 bool) with ~1 NULL in 7.
    fn column(ty: u64, n: usize, rng: &mut TestRng) -> Vec<Datum> {
        (0..n)
            .map(|_| {
                if rng.below(7) == 0 {
                    return Datum::Null;
                }
                let v = rng.below(500);
                match ty {
                    0 => Datum::Int(v as i64 - 250),
                    1 => Datum::Float(v as f64 * 0.25 - 60.0),
                    2 => Datum::from(format!("s{v}").as_str()),
                    _ => Datum::Bool(v.is_multiple_of(2)),
                }
            })
            .collect()
    }

    /// Summary of rows `[lo, hi)` of `col` under the sampling stride,
    /// through the batch path or row by row.
    fn summarise(col: &[Datum], lo: usize, hi: usize, stride: u64, batch: bool) -> AttrStats {
        let mut s = AttrStats::new(7);
        let rows = (lo..hi).filter(|&r| (r as u64).is_multiple_of(stride));
        if batch {
            s.observe_batch(rows.map(|r| (r as u64, col[r].clone())));
        } else {
            for row in rows {
                s.observe(row as u64, &col[row]);
            }
        }
        s
    }

    fn assert_same(a: &AttrStats, b: &AttrStats, tag: &str) {
        assert_eq!(a.rows_seen(), b.rows_seen(), "{tag}: rows_seen");
        assert_eq!(a.nulls, b.nulls, "{tag}: nulls");
        assert_eq!(a.min(), b.min(), "{tag}: min");
        assert_eq!(a.max(), b.max(), "{tag}: max");
        assert_eq!(a.ndv_words(), b.ndv_words(), "{tag}: ndv words");
        assert_eq!(a.sample(), b.sample(), "{tag}: sample");
    }

    #[test]
    fn merged_part_summaries_equal_the_whole() {
        let mut rng = TestRng(0x5eed);
        for case in 0..48u64 {
            let ty = case % 4;
            let stride = if case % 8 < 4 { 1 } else { 3 };
            let n = rng.below(4_000) as usize;
            let col = column(ty, n, &mut rng);
            let whole = summarise(&col, 0, n, stride, false);

            // Random contiguous cut points, empty parts included.
            let mut cuts: Vec<usize> = (0..rng.below(9))
                .map(|_| rng.below(n as u64 + 1) as usize)
                .collect();
            cuts.extend([0, n, 0]);
            cuts.sort_unstable();
            let mut parts: Vec<AttrStats> = cuts
                .windows(2)
                .map(|w| summarise(&col, w[0], w[1], stride, case % 2 == 0))
                .collect();
            // Merge in shuffled order.
            for i in (1..parts.len()).rev() {
                parts.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut merged = AttrStats::new(7);
            for p in parts {
                merged.merge(p);
            }
            let tag = format!("case {case} ty {ty} stride {stride} n {n}");
            assert_same(&merged, &whole, &tag);

            // The sample is the brute-force k smallest row hashes.
            let mut rows: Vec<u64> = (0..n as u64)
                .filter(|r| r.is_multiple_of(stride) && !col[*r as usize].is_null())
                .collect();
            rows.sort_by_key(|&r| crate::sample::row_hash(r));
            rows.truncate(DEFAULT_SAMPLE_CAPACITY);
            let want: Vec<Datum> = rows.iter().map(|&r| col[r as usize].clone()).collect();
            assert_eq!(merged.sample(), &want[..], "{tag}: brute-force bottom-k");
        }
    }
}
