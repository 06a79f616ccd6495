//! Bottom-k sampling by row hash: a uniform sample that merges.
//!
//! Every observed row id is hashed with `splitmix64`; the sample keeps the
//! `k` values whose rows have the smallest hashes. The hash is a bijection
//! on `u64`, so distinct rows never tie and the kept set depends only on
//! *which* rows were offered — not on their order, nor on how the rows were
//! split between accumulators. Two samples over disjoint row sets merge
//! into exactly the sample of their union (a k-way minimum), which is what
//! lets scan partitions summarise their rows in parallel and the driver
//! merge the summaries in any order.

use nodb_rawcsv::Datum;

/// The `splitmix64` finalizer: the row hash that orders a [`BottomK`]
/// sample. A bijection, so distinct rows get distinct hashes.
#[inline]
pub fn row_hash(row: u64) -> u64 {
    let mut z = row.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fixed-capacity sample of the values whose rows hash smallest.
///
/// Held in ascending hash order, so [`Self::sample`] is canonical: the same
/// row set yields the same slice whatever the arrival order.
#[derive(Debug, Clone)]
pub struct BottomK {
    capacity: usize,
    hashes: Vec<u64>,
    values: Vec<Datum>,
}

impl BottomK {
    /// Empty sample keeping at most `capacity` values.
    pub fn new(capacity: usize) -> Self {
        BottomK {
            capacity: capacity.max(1),
            hashes: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Offer the (non-null) value of row `row`.
    pub fn offer(&mut self, row: u64, d: &Datum) {
        let h = row_hash(row);
        if self.hashes.len() == self.capacity && self.hashes.last().is_some_and(|&m| h >= m) {
            return;
        }
        self.insert(h, d.clone());
    }

    /// Start a run of offers ([`BatchOffer`]) to fold in later with
    /// [`Self::absorb`]. Equivalent to [`Self::offer`] per row, but
    /// candidates are buffered and pruned in bulk — O(1) amortized per row
    /// instead of a sorted insert.
    pub fn batch(&self) -> BatchOffer {
        let threshold = if self.hashes.len() == self.capacity {
            self.hashes.last().copied().unwrap_or(u64::MAX)
        } else {
            u64::MAX
        };
        BatchOffer {
            capacity: self.capacity,
            threshold,
            buf: Vec::new(),
        }
    }

    /// Fold in a run of offers started with [`Self::batch`].
    pub fn absorb(&mut self, mut batch: BatchOffer) {
        if batch.buf.is_empty() {
            return;
        }
        batch.prune();
        batch.buf.sort_unstable_by_key(|e| e.0);
        let (hashes, values) = batch.buf.into_iter().unzip();
        self.merge(BottomK {
            capacity: self.capacity,
            hashes,
            values,
        });
    }

    /// Insert an entry by hash, dropping the largest past capacity. A hash
    /// already held (the same row offered twice) is ignored.
    fn insert(&mut self, h: u64, d: Datum) {
        let Err(at) = self.hashes.binary_search(&h) else {
            return;
        };
        if at == self.capacity {
            return;
        }
        if self.hashes.len() == self.capacity {
            self.hashes.pop();
            self.values.pop();
        }
        self.hashes.insert(at, h);
        self.values.insert(at, d);
    }

    /// Fold `other` in: the result is the bottom-k of the union of both row
    /// sets (a sorted two-way merge, truncated to capacity).
    pub fn merge(&mut self, other: BottomK) {
        if other.hashes.is_empty() {
            return;
        }
        let mut hashes =
            Vec::with_capacity((self.hashes.len() + other.hashes.len()).min(self.capacity));
        let mut values = Vec::with_capacity(hashes.capacity());
        let mut a = std::mem::take(&mut self.hashes)
            .into_iter()
            .zip(std::mem::take(&mut self.values))
            .peekable();
        let mut b = other.hashes.into_iter().zip(other.values).peekable();
        while hashes.len() < self.capacity {
            let next = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) if x.0 == y.0 => {
                    b.next();
                    a.next()
                }
                (Some(x), Some(y)) if x.0 < y.0 => a.next(),
                (Some(_), Some(_)) | (None, Some(_)) => b.next(),
                (Some(_), None) => a.next(),
                (None, None) => None,
            };
            let Some((h, d)) = next else { break };
            hashes.push(h);
            values.push(d);
        }
        self.hashes = hashes;
        self.values = values;
    }

    /// The sampled values, in ascending row-hash order.
    pub fn sample(&self) -> &[Datum] {
        &self.values
    }

    /// `(row hash, value)` entries in ascending hash order (snapshot export).
    pub fn entries(&self) -> Vec<(u64, Datum)> {
        self.hashes
            .iter()
            .copied()
            .zip(self.values.iter().cloned())
            .collect()
    }

    /// Rebuild a sample from [`Self::entries`]. Returns `None` when the
    /// entries exceed `capacity` or their hashes are not strictly
    /// increasing — restored sidecars are untrusted input.
    pub fn from_entries(capacity: usize, entries: Vec<(u64, Datum)>) -> Option<Self> {
        if entries.len() > capacity || entries.windows(2).any(|w| w[0].0 >= w[1].0) {
            return None;
        }
        let (hashes, values) = entries.into_iter().unzip();
        Some(BottomK {
            capacity: capacity.max(1),
            hashes,
            values,
        })
    }

    /// Number of sampled values currently held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Reset (file replaced).
    pub fn clear(&mut self) {
        self.hashes.clear();
        self.values.clear();
    }
}

/// A run of offers for a [`BottomK`] (see [`BottomK::batch`]).
///
/// Rows hashing below the running threshold are buffered; when the buffer
/// holds twice the capacity it is cut back to its `k` smallest hashes and
/// the threshold drops to the largest kept one. Only those `k` can belong
/// to the bottom-k of the union, so the result is exact.
pub struct BatchOffer {
    capacity: usize,
    threshold: u64,
    buf: Vec<(u64, Datum)>,
}

impl BatchOffer {
    /// Offer the (non-null) value of row `row`.
    #[inline]
    pub fn offer(&mut self, row: u64, d: &Datum) {
        let h = row_hash(row);
        if h >= self.threshold {
            return;
        }
        self.buf.push((h, d.clone()));
        if self.buf.len() >= 2 * self.capacity {
            self.prune();
        }
    }

    fn prune(&mut self) {
        let k = self.capacity;
        if self.buf.len() > k {
            self.buf.select_nth_unstable_by_key(k - 1, |e| e.0);
            self.buf.truncate(k);
        }
        if self.buf.len() == k {
            self.threshold = self.buf.iter().map(|e| e.0).max().unwrap_or(u64::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(cap: usize, rows: impl IntoIterator<Item = u64>) -> BottomK {
        let mut s = BottomK::new(cap);
        for r in rows {
            s.offer(r, &Datum::Int(r as i64));
        }
        s
    }

    #[test]
    fn row_hash_is_injective_on_a_range() {
        let mut hs: Vec<u64> = (0..10_000).map(row_hash).collect();
        hs.sort_unstable();
        hs.dedup();
        assert_eq!(hs.len(), 10_000);
    }

    #[test]
    fn fills_to_capacity_then_keeps_smallest_hashes() {
        let s = filled(10, 0..100);
        assert_eq!(s.len(), 10);
        let mut want: Vec<u64> = (0..100).collect();
        want.sort_by_key(|&r| row_hash(r));
        let want: Vec<Datum> = want[..10].iter().map(|&r| Datum::Int(r as i64)).collect();
        assert_eq!(s.sample(), &want[..]);
    }

    #[test]
    fn short_streams_keep_everything() {
        assert_eq!(filled(100, 0..5).len(), 5);
    }

    #[test]
    fn arrival_order_does_not_matter() {
        assert_eq!(
            filled(8, 0..1000).sample(),
            filled(8, (0..1000).rev()).sample()
        );
    }

    #[test]
    fn batch_offers_equal_single_offers() {
        for (cap, n) in [(1usize, 50u64), (8, 5), (8, 1000), (64, 20_000)] {
            let mut batched = filled(cap, 0..n / 3);
            let mut b = batched.batch();
            for r in (n / 3..n).rev() {
                b.offer(r, &Datum::Int(r as i64));
            }
            batched.absorb(b);
            assert_eq!(
                batched.sample(),
                filled(cap, 0..n).sample(),
                "cap {cap} n {n}"
            );
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = filled(16, (0..500).filter(|r| r % 3 == 0));
        let b = filled(16, (0..500).filter(|r| r % 3 != 0));
        a.merge(b);
        assert_eq!(a.sample(), filled(16, 0..500).sample());
        // Merging an empty sample, or the same rows again, changes nothing.
        let before = a.sample().to_vec();
        a.merge(BottomK::new(16));
        a.merge(filled(16, 0..500));
        assert_eq!(a.sample(), &before[..]);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Mean of a uniform sample over 0..10000 should be near 5000.
        let s = filled(200, 0..10_000);
        let mean: f64 = s.sample().iter().filter_map(Datum::as_float).sum::<f64>() / s.len() as f64;
        assert!((mean - 5000.0).abs() < 1500.0, "mean = {mean}");
    }

    #[test]
    fn entries_round_trip_and_reject_bad_shapes() {
        let s = filled(8, 0..100);
        let back = BottomK::from_entries(8, s.entries()).expect("consistent");
        assert_eq!(back.sample(), s.sample());
        assert!(
            BottomK::from_entries(4, s.entries()).is_none(),
            "over capacity"
        );
        let mut unsorted = s.entries();
        unsorted.swap(0, 1);
        assert!(
            BottomK::from_entries(8, unsorted).is_none(),
            "unsorted hashes"
        );
    }

    #[test]
    fn clear_resets() {
        let mut s = filled(4, 0..3);
        s.clear();
        assert!(s.is_empty());
    }
}
