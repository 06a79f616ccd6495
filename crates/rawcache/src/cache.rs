//! The cache proper: per-attribute columns, byte budget, LRU eviction.

use std::collections::HashMap;

use nodb_rawcsv::{ColumnType, Datum};

use crate::column::TypedColumn;

/// Cache policy knobs ("the size of the cache is a parameter that can be
/// tuned depending on the resources", §3.2).
#[derive(Debug, Clone, Copy)]
pub struct CachePolicy {
    /// Byte budget for all cached columns together.
    pub budget_bytes: usize,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy {
            budget_bytes: 1 << 30,
        } // 1 GiB: effectively unbounded on demo data
    }
}

impl CachePolicy {
    /// Policy with an explicit budget.
    pub fn with_budget(budget_bytes: usize) -> Self {
        CachePolicy { budget_bytes }
    }
}

/// Lifetime counters and gauges for the monitoring panel (Fig 2).
#[derive(Debug, Default, Clone)]
pub struct CacheMetrics {
    /// Row-level cache hits (values served without touching the raw file).
    pub hits: u64,
    /// Row-level misses (value had to be parsed from raw bytes).
    pub misses: u64,
    /// Columns evicted by LRU pressure.
    pub evictions: u64,
    /// Columns a scan merge stopped short of its scanned rows because the
    /// budget was exhausted and no other column could be evicted.
    pub admission_stalls: u64,
}

impl CacheMetrics {
    /// Hit ratio in `[0, 1]`; 0 when nothing was accessed.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident cached column plus bookkeeping.
#[derive(Debug)]
struct Entry {
    col: TypedColumn,
    last_used: u64,
}

/// One attribute's scan output for [`RawCache::admit_segments`]: typed
/// partition segments that, concatenated in slice order, hold rows
/// `[0, n)` of the attribute.
#[derive(Debug)]
pub struct ColumnSegments {
    /// Attribute index.
    pub attr: usize,
    /// Partition segments in slice order.
    pub segments: Vec<TypedColumn>,
}

/// A column's rows beyond the cache's coverage, staged for admission.
struct Pending {
    attr: usize,
    /// Coverage when staged: the global row of the first staged value.
    from: usize,
    /// Rows `[from, from + rows)`, in order.
    segs: Vec<TypedColumn>,
    rows: usize,
    /// Per-row width of the value vector (`Box<str>` for strings).
    width: usize,
    /// Strings only: prefix sums of the staged rows' byte lengths
    /// (`rows + 1` entries); empty for fixed-width types.
    str_prefix: Vec<usize>,
}

impl Pending {
    /// Stage the rows of `col` at or beyond `from` (the frontier): whole
    /// segments below it are dropped and the one straddling it is trimmed.
    /// `None` when nothing lies beyond the frontier.
    fn stage(col: ColumnSegments, from: usize) -> Option<Pending> {
        let width = match col.segments.first()?.ty() {
            ColumnType::Int | ColumnType::Float => 8,
            ColumnType::Bool => 1,
            ColumnType::Str => std::mem::size_of::<Box<str>>(),
        };
        let mut base = 0usize;
        let mut segs = Vec::with_capacity(col.segments.len());
        for seg in col.segments {
            let len = seg.len();
            if base + len > from && len > 0 {
                segs.push(if base >= from {
                    seg
                } else {
                    seg.export_range(from - base, len)
                });
            }
            base += len;
        }
        let rows = base.checked_sub(from).filter(|&r| r > 0)?;
        let mut str_prefix = Vec::new();
        for seg in &segs {
            if let TypedColumn::Str { values, .. } = seg {
                if str_prefix.is_empty() {
                    str_prefix.reserve(rows + 1);
                    str_prefix.push(0);
                }
                let mut sum = str_prefix.last().copied().unwrap_or(0);
                str_prefix.extend(values.iter().map(|v| {
                    sum += v.len();
                    sum
                }));
            }
        }
        Some(Pending {
            attr: col.attr,
            from,
            segs,
            rows,
            width,
            str_prefix,
        })
    }

    fn end(&self) -> usize {
        self.from + self.rows
    }

    /// Footprint growth of the resident column when rows `[from, upto)`
    /// are appended — the [`TypedColumn::footprint`] arithmetic: value
    /// bytes, string payload bytes, and one null-mask word per 64 rows.
    fn growth(&self, upto: usize) -> usize {
        let upto = upto.clamp(self.from, self.end());
        let k = upto - self.from;
        let payload = self.str_prefix.get(k).copied().unwrap_or(0);
        let mask_words = upto.div_ceil(64) - self.from.div_ceil(64);
        k * self.width + payload + mask_words * 8
    }
}

/// The adaptive binary cache for one raw file.
///
/// Rows are addressed with the same row ids the positional map uses, so a
/// single scan can serve attribute A from the cache and attribute B from the
/// raw file position by position.
#[derive(Debug)]
pub struct RawCache {
    entries: HashMap<usize, Entry>,
    policy: CachePolicy,
    bytes_used: usize,
    tick: u64,
    metrics: CacheMetrics,
}

impl RawCache {
    /// Empty cache under the given policy.
    pub fn new(policy: CachePolicy) -> Self {
        RawCache {
            entries: HashMap::new(),
            policy,
            bytes_used: 0,
            tick: 0,
            metrics: CacheMetrics::default(),
        }
    }

    /// Policy in force.
    pub fn policy(&self) -> &CachePolicy {
        &self.policy
    }

    /// Change the budget at runtime (demo knob). Shrinking evicts LRU
    /// columns until the resident ones fit.
    pub fn set_budget(&mut self, budget_bytes: usize) {
        self.policy.budget_bytes = budget_bytes;
        self.make_room(0, u64::MAX, &[]);
    }

    /// Bytes held by cached columns.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Utilization in `[0, 1]` of the budget — the Fig 2 gauge.
    pub fn utilization(&self) -> f64 {
        if self.policy.budget_bytes == 0 {
            return 0.0;
        }
        self.bytes_used as f64 / self.policy.budget_bytes as f64
    }

    /// Lifetime counters.
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// Attributes currently resident, with their coverage (rows cached).
    pub fn resident(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = self
            .entries
            .iter()
            .map(|(&a, e)| (a, e.col.len()))
            .collect();
        v.sort_unstable();
        v
    }

    /// Rows of `attr` served directly from the cache (prefix coverage);
    /// 0 when the attribute is not resident.
    pub fn coverage(&self, attr: usize) -> usize {
        self.entries.get(&attr).map(|e| e.col.len()).unwrap_or(0)
    }

    /// Coverage snapshot for a whole attribute set, in request order.
    ///
    /// This is the admission frontier of a scan's deferred cache merge:
    /// [`Self::admit_segments`] admits only rows at or beyond each column's
    /// coverage, so rows another interleaved query already admitted are
    /// never appended twice.
    pub fn coverage_of(&self, attrs: &[usize]) -> Vec<usize> {
        attrs.iter().map(|&a| self.coverage(a)).collect()
    }

    /// Cached rows of `attr` within the row range `[lo, hi)` — the coverage
    /// probe a two-phase cold-scan partition runs once its global row range
    /// is known. Coverage is a prefix, so this is the prefix clamped to the
    /// range.
    pub fn covered_in_range(&self, attr: usize, lo: usize, hi: usize) -> usize {
        self.coverage(attr).min(hi).saturating_sub(lo.min(hi))
    }

    /// True when every row of `[lo, hi)` is cached for *every* attribute in
    /// `attrs` — the partition-grained probe that lets a worker serve its
    /// whole slice from the cache without opening the raw file.
    pub fn covers_range(&self, attrs: &[usize], lo: usize, hi: usize) -> bool {
        attrs
            .iter()
            .all(|&a| self.covered_in_range(a, lo, hi) == hi.saturating_sub(lo.min(hi)))
    }

    /// Direct read-only handle to a resident column.
    ///
    /// Partition workers resolve the columns they will read *once* per
    /// partition and then index rows straight through the handle — the
    /// per-row `HashMap` probe [`Self::peek`] pays is hoisted out of the
    /// hot loop.
    pub fn column(&self, attr: usize) -> Option<&TypedColumn> {
        self.entries.get(&attr).map(|e| &e.col)
    }

    /// Begin a query touching `attrs`: bumps the LRU clock of the resident
    /// columns among them and returns the clock value, which the scan passes
    /// back to [`Self::admit_segments`] so the current query's columns are
    /// protected from eviction.
    pub fn begin_query(&mut self, attrs: &[usize]) -> u64 {
        self.tick += 1;
        for a in attrs {
            if let Some(e) = self.entries.get_mut(a) {
                e.last_used = self.tick;
            }
        }
        self.tick
    }

    /// Read `attr` at `row` if cached. Counts a hit or miss.
    #[inline]
    pub fn get(&mut self, attr: usize, row: usize) -> Option<Datum> {
        match self.entries.get(&attr).and_then(|e| e.col.datum(row)) {
            Some(d) => {
                self.metrics.hits += 1;
                Some(d)
            }
            None => {
                self.metrics.misses += 1;
                None
            }
        }
    }

    /// Read without counting (planning probes).
    pub fn peek(&self, attr: usize, row: usize) -> Option<Datum> {
        self.entries.get(&attr).and_then(|e| e.col.datum(row))
    }

    /// Fold externally tallied read counts into the hit/miss metrics.
    ///
    /// Parallel scan workers read through [`Self::peek`] (they hold the
    /// cache by shared reference), so the per-row accounting [`Self::get`]
    /// would have done happens on the worker and is merged here — keeping
    /// the hit ratio identical to a sequential scan.
    pub fn record_reads(&mut self, hits: u64, misses: u64) {
        self.metrics.hits += hits;
        self.metrics.misses += misses;
    }

    /// Admit a scan's output columns: the merge step that populates the
    /// cache as a side effect of a raw scan ("cache as a side effect, never
    /// as an obligation").
    ///
    /// Each column is admitted from the cache's *current* coverage of its
    /// attribute (the frontier), so re-merging rows an earlier or
    /// interleaved scan already admitted appends nothing. The `query`
    /// columns are admitted as one group under one budget decision:
    ///
    /// 1. LRU columns outside the group that were not touched at
    ///    `query_tick` are evicted, oldest first (the victims
    ///    [`Self::make_room`] picks), until the group's full growth fits or
    ///    no victim is left;
    /// 2. if it still does not fit, one cut row is computed — the last row
    ///    up to which *every* column of the group fits — and each column
    ///    stops there (a stall in the metrics);
    /// 3. segments move into the resident columns whole; only a segment
    ///    straddling the frontier or the cut is copied.
    ///
    /// `extra` columns (the `cache_force_full_parse` ablation) follow, each
    /// as a group of its own, from its own coverage at that point. Every
    /// admitted column is stamped with `query_tick`, so later groups of the
    /// same call never evict it.
    pub fn admit_segments(
        &mut self,
        query: Vec<ColumnSegments>,
        extra: Vec<ColumnSegments>,
        query_tick: u64,
    ) {
        let group: Vec<Pending> = query
            .into_iter()
            .filter_map(|c| {
                let from = self.coverage(c.attr);
                Pending::stage(c, from)
            })
            .collect();
        self.admit_group(group, query_tick);
        for c in extra {
            let from = self.coverage(c.attr);
            if let Some(p) = Pending::stage(c, from) {
                self.admit_group(vec![p], query_tick);
            }
        }
    }

    /// Budget decision and install for one group of staged columns (see
    /// [`Self::admit_segments`]).
    fn admit_group(&mut self, group: Vec<Pending>, query_tick: u64) {
        let Some(end) = group.iter().map(Pending::end).max() else {
            return;
        };
        let need = |upto: usize| group.iter().map(|p| p.growth(upto)).sum::<usize>();
        let members: Vec<usize> = group.iter().map(|p| p.attr).collect();
        self.make_room(need(end), query_tick, &members);
        let room = self.policy.budget_bytes.saturating_sub(self.bytes_used);
        let cut = if need(end) <= room {
            end
        } else {
            // Largest row with need(cut) <= room; need is monotone and
            // need(lo) = 0, so a binary search over [lo, end) finds it.
            let (mut lo, mut hi) = (group.iter().map(|p| p.from).min().unwrap_or(end), end);
            while lo + 1 < hi {
                let mid = lo + (hi - lo) / 2;
                if need(mid) <= room {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        for p in group {
            self.install_upto(p, cut, query_tick);
        }
    }

    /// Append a staged column's rows below `cut` to its resident column
    /// (created on first admission), stamped with `query_tick`.
    fn install_upto(&mut self, p: Pending, cut: usize, query_tick: u64) {
        let grow = p.growth(cut);
        let mut left = cut.clamp(p.from, p.end()) - p.from;
        if left < p.rows {
            self.metrics.admission_stalls += 1;
        }
        if left == 0 {
            return;
        }
        let mut col = self.entries.remove(&p.attr).map(|e| e.col);
        let before = col.as_ref().map_or(0, TypedColumn::footprint);
        for seg in p.segs {
            if left == 0 {
                break;
            }
            let seg = if seg.len() > left {
                seg.export_range(0, left)
            } else {
                seg
            };
            left -= seg.len();
            match &mut col {
                Some(c) => {
                    c.reserve(left + seg.len());
                    c.append_segment(seg);
                }
                None => col = Some(seg),
            }
        }
        let Some(col) = col else { return };
        let after = col.footprint();
        debug_assert_eq!(after - before, grow, "footprint arithmetic");
        self.bytes_used += after - before;
        self.entries.insert(
            p.attr,
            Entry {
                col,
                last_used: query_tick,
            },
        );
    }

    /// Install a whole restored column for `attr` — the snapshot restore
    /// path, which rebuilds columns wholesale instead of replaying
    /// [`Self::append`] per row. The column's footprint is charged against
    /// the budget with normal LRU room-making; returns `false` (column
    /// dropped) when it cannot fit, when it is empty, or when `attr` is
    /// already resident (a live column is never clobbered by a restore).
    pub fn install_restored(&mut self, attr: usize, col: TypedColumn) -> bool {
        if col.is_empty() || self.entries.contains_key(&attr) {
            return false;
        }
        let fp = col.footprint();
        if fp > self.policy.budget_bytes || !self.make_room(fp, u64::MAX, &[]) {
            return false;
        }
        self.tick += 1;
        self.entries.insert(
            attr,
            Entry {
                col,
                last_used: self.tick,
            },
        );
        self.bytes_used += fp;
        true
    }

    /// The next LRU victim: the least recently used column neither touched
    /// at `protect_tick` nor listed in `keep` (ties broken by attribute, so
    /// the choice never depends on map iteration order).
    fn lru_victim(&self, protect_tick: u64, keep: &[usize]) -> Option<usize> {
        self.entries
            .iter()
            .filter(|(a, e)| e.last_used != protect_tick && !keep.contains(a))
            .min_by_key(|(&a, e)| (e.last_used, a))
            .map(|(&a, _)| a)
    }

    /// Evict LRU columns (never ones touched at `protect_tick` or listed in
    /// `keep`) until `incoming` more bytes fit. Returns whether they now
    /// fit.
    fn make_room(&mut self, incoming: usize, protect_tick: u64, keep: &[usize]) -> bool {
        while self.bytes_used + incoming > self.policy.budget_bytes {
            match self.lru_victim(protect_tick, keep) {
                Some(a) => self.evict_attr(a),
                None => return false,
            }
        }
        true
    }

    /// Drop everything (file replaced).
    pub fn invalidate(&mut self) {
        self.entries.clear();
        self.bytes_used = 0;
    }

    /// Epoch quarantine: the backing file was truncated or rewritten, so
    /// cached values were parsed from bytes of a dead file epoch. Alias of
    /// [`Self::invalidate`] under the name the source-epoch layer uses.
    pub fn quarantine(&mut self) {
        self.invalidate();
    }

    /// Drop a single attribute (LRU eviction, tests and the demo's
    /// component toggles).
    pub fn evict_attr(&mut self, attr: usize) {
        if let Some(e) = self.entries.remove(&attr) {
            self.bytes_used -= e.col.footprint();
            self.metrics.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(range: std::ops::Range<i64>) -> TypedColumn {
        let mut c = TypedColumn::new(ColumnType::Int);
        for i in range {
            c.push(&Datum::Int(i));
        }
        c
    }

    /// `attr`'s rows `[0, n)` as segments of `per` rows (the last shorter).
    fn segments(attr: usize, n: i64, per: i64) -> ColumnSegments {
        let segments = (0..n)
            .step_by(per.max(1) as usize)
            .map(|lo| ints(lo..(lo + per).min(n)))
            .collect();
        ColumnSegments { attr, segments }
    }

    /// One query admitting `attrs`, each with rows `[0, n)`.
    fn admit(cache: &mut RawCache, attrs: &[usize], n: i64, per: i64) -> u64 {
        let tick = cache.begin_query(attrs);
        let cols = attrs.iter().map(|&a| segments(a, n, per)).collect();
        cache.admit_segments(cols, Vec::new(), tick);
        tick
    }

    fn fill(cache: &mut RawCache, attr: usize, n: usize) -> u64 {
        admit(cache, &[attr], n as i64, 7)
    }

    fn footprint_sum(cache: &RawCache) -> usize {
        cache.entries.values().map(|e| e.col.footprint()).sum()
    }

    #[test]
    fn range_coverage_probes() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 0, 10);
        fill(&mut c, 1, 4);
        // Prefix clamped to the range.
        assert_eq!(c.covered_in_range(0, 0, 10), 10);
        assert_eq!(c.covered_in_range(0, 4, 20), 6);
        assert_eq!(c.covered_in_range(1, 2, 8), 2);
        assert_eq!(c.covered_in_range(1, 6, 8), 0);
        assert_eq!(c.covered_in_range(9, 0, 5), 0, "absent attr");
        assert_eq!(c.covered_in_range(0, 5, 5), 0, "empty range");
        assert_eq!(c.covered_in_range(0, 7, 3), 0, "inverted range");
        // Whole-partition probe: all attrs, every row.
        assert!(c.covers_range(&[0], 2, 10));
        assert!(!c.covers_range(&[0], 2, 11));
        assert!(c.covers_range(&[0, 1], 0, 4));
        assert!(!c.covers_range(&[0, 1], 0, 5));
        assert!(c.covers_range(&[0, 1], 4, 4), "empty range always covered");
        // Column handle mirrors peek.
        let col = c.column(1).expect("resident");
        assert_eq!(col.len(), 4);
        assert_eq!(col.datum(3), c.peek(1, 3));
        assert!(c.column(7).is_none());
    }

    #[test]
    fn admit_then_hit() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 2, 10);
        assert_eq!(c.coverage(2), 10);
        assert_eq!(c.get(2, 3), Some(Datum::Int(3)));
        assert_eq!(c.metrics().hits, 1);
        assert_eq!(c.get(2, 99), None);
        assert_eq!(c.metrics().misses, 1);
    }

    #[test]
    fn partial_coverage_is_prefix() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 0, 5);
        assert_eq!(c.peek(0, 4), Some(Datum::Int(4)));
        assert_eq!(c.peek(0, 5), None);
    }

    #[test]
    fn lru_eviction_prefers_cold_columns() {
        // Budget for roughly one 1000-row int column.
        let mut c = RawCache::new(CachePolicy::with_budget(12_000));
        fill(&mut c, 0, 1000);
        // Attr 1 arrives: attr 0 is cold (different tick) and gets evicted.
        fill(&mut c, 1, 1000);
        assert_eq!(c.coverage(0), 0, "cold column evicted");
        assert_eq!(c.coverage(1), 1000);
        assert_eq!(c.metrics().evictions, 1);
    }

    #[test]
    fn current_query_columns_protected() {
        let mut c = RawCache::new(CachePolicy::with_budget(4_000));
        admit(&mut c, &[0, 1], 1000, 100);
        // Neither column evicted the other (both at the protected tick):
        // growth stalls instead, both at the same row.
        assert_eq!(c.metrics().evictions, 0);
        assert_eq!(c.metrics().admission_stalls, 2);
        assert!(c.coverage(0) > 0);
        assert_eq!(c.coverage(0), c.coverage(1));
        assert!(c.bytes_used() <= c.policy().budget_bytes);
    }

    #[test]
    fn set_budget_shrink_evicts() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 0, 100);
        fill(&mut c, 1, 100);
        c.set_budget(0);
        assert_eq!(c.bytes_used(), 0);
        assert_eq!(c.resident().len(), 0);
    }

    #[test]
    fn invalidate_clears() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 0, 10);
        c.invalidate();
        assert_eq!(c.coverage(0), 0);
        assert_eq!(c.bytes_used(), 0);
    }

    #[test]
    fn utilization_and_hit_ratio_gauges() {
        let mut c = RawCache::new(CachePolicy::with_budget(100_000));
        fill(&mut c, 0, 100);
        assert!(c.utilization() > 0.0);
        let _ = c.get(0, 0);
        let _ = c.get(0, 1_000_000);
        assert!((c.metrics().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn resident_lists_coverage() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 3, 4);
        fill(&mut c, 1, 2);
        assert_eq!(c.resident(), vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn install_restored_charges_budget_and_respects_residents() {
        let mut c = RawCache::new(CachePolicy::with_budget(10_000));
        let col = ints(0..100);
        let fp = col.footprint();
        assert!(c.install_restored(3, col));
        assert_eq!(c.coverage(3), 100);
        assert_eq!(c.bytes_used(), fp);
        assert_eq!(c.peek(3, 42), Some(Datum::Int(42)));

        // A live column is never clobbered by a restore.
        assert!(!c.install_restored(3, ints(-1..0)));
        assert_eq!(c.peek(3, 0), Some(Datum::Int(0)));

        // Empty columns are refused.
        assert!(!c.install_restored(4, TypedColumn::new(ColumnType::Int)));

        // Over-budget columns are refused without evicting what fits.
        let mut c2 = RawCache::new(CachePolicy::with_budget(64));
        assert!(!c2.install_restored(0, ints(0..100)));
        assert_eq!(c2.bytes_used(), 0);
    }

    #[test]
    fn string_budget_counts_payload() {
        let mut c = RawCache::new(CachePolicy::with_budget(1 << 20));
        let tick = c.begin_query(&[0]);
        let mut col = TypedColumn::new(ColumnType::Str);
        col.push(&Datum::Str("abcdefgh".into()));
        c.admit_segments(
            vec![ColumnSegments {
                attr: 0,
                segments: vec![col],
            }],
            Vec::new(),
            tick,
        );
        assert!(c.bytes_used() >= 8);
        assert_eq!(c.bytes_used(), footprint_sum(&c));
    }

    // ---- admission cut: one budget decision per merge ----

    #[test]
    fn segment_that_fits_is_admitted_whole() {
        let mut c = RawCache::new(CachePolicy::with_budget(1 << 20));
        admit(&mut c, &[0, 4], 1000, 128);
        for attr in [0, 4] {
            assert_eq!(c.coverage(attr), 1000);
            for row in [0, 127, 128, 999] {
                assert_eq!(c.peek(attr, row), Some(Datum::Int(row as i64)));
            }
        }
        assert_eq!(c.bytes_used(), footprint_sum(&c));
        assert_eq!(c.metrics().admission_stalls, 0);
    }

    #[test]
    fn eviction_takes_the_make_room_victim() {
        // Three older queries' columns at distinct ticks, then a query whose
        // growth needs about one of them gone.
        let build = || {
            let mut c = RawCache::new(CachePolicy::with_budget(3 * 8_128 + 200));
            fill(&mut c, 5, 1000);
            fill(&mut c, 2, 1000);
            fill(&mut c, 7, 1000);
            c
        };
        let growth = ints(0..1000).footprint();
        let mut by_make_room = build();
        let tick = by_make_room.begin_query(&[9]);
        assert!(by_make_room.make_room(growth, tick, &[9]));

        let mut bulk = build();
        admit(&mut bulk, &[9], 1000, 100);
        assert_eq!(bulk.coverage(9), 1000);
        let others = |c: &RawCache| -> Vec<(usize, usize)> {
            c.resident().into_iter().filter(|&(a, _)| a != 9).collect()
        };
        assert_eq!(others(&bulk), others(&by_make_room));
        assert_eq!(
            others(&bulk),
            vec![(2, 1000), (7, 1000)],
            "LRU column 5 went"
        );
        assert_eq!(bulk.metrics().evictions, 1);
        assert!(bulk.bytes_used() <= bulk.policy().budget_bytes);
    }

    #[test]
    fn budget_below_the_segment_cuts_every_column_at_one_row() {
        for budget in [0usize, 100, 1_300, 5_000, 9_999] {
            let mut c = RawCache::new(CachePolicy::with_budget(budget));
            admit(&mut c, &[0, 1, 2], 1000, 90);
            let cut = c.coverage(0);
            assert!(cut < 1000, "budget {budget}");
            for attr in [1, 2] {
                assert_eq!(c.coverage(attr), cut, "budget {budget} c{attr}");
            }
            assert!(c.bytes_used() <= budget, "budget {budget}");
            assert_eq!(c.bytes_used(), footprint_sum(&c));
            // The cut is the last row that fits: one more row would not.
            let fp = |rows: i64| ints(0..rows).footprint();
            assert!(
                3 * fp(cut as i64 + 1) > budget,
                "budget {budget}: cut {cut} not maximal"
            );
        }
    }

    #[test]
    fn str_column_cut_by_prefix_bytes() {
        let vals: Vec<Datum> = (0..300)
            .map(|i| match i % 5 {
                0 => Datum::Null,
                k => Datum::from("x".repeat(k * 7).as_str()),
            })
            .collect();
        let seg = |lo: usize, hi: usize| {
            let mut col = TypedColumn::new(ColumnType::Str);
            for v in &vals[lo..hi] {
                col.push(v);
            }
            col
        };
        let prefix_fp = |rows: usize| seg(0, rows).footprint();
        for budget in [50usize, 1_000, 4_321, 10_000] {
            let mut c = RawCache::new(CachePolicy::with_budget(budget));
            let tick = c.begin_query(&[3]);
            let segments = vec![seg(0, 64), seg(64, 200), seg(200, 300)];
            c.admit_segments(vec![ColumnSegments { attr: 3, segments }], Vec::new(), tick);
            let cut = c.coverage(3);
            let want = (0..=300)
                .rev()
                .find(|&r| prefix_fp(r) <= budget)
                .unwrap_or(0);
            assert_eq!(cut, want, "budget {budget}");
            assert_eq!(c.bytes_used(), prefix_fp(cut));
            for (row, v) in vals.iter().enumerate().take(cut) {
                assert_eq!(c.peek(3, row).as_ref(), Some(v), "row {row}");
            }
        }
    }

    #[test]
    fn second_merge_of_the_same_rows_appends_nothing() {
        let mut c = RawCache::new(CachePolicy::default());
        admit(&mut c, &[0, 1], 500, 64);
        let bytes = c.bytes_used();
        // The same output merged again (a concurrent scan of the same rows)
        // and a longer scan over a covered prefix.
        admit(&mut c, &[0, 1], 500, 33);
        assert_eq!(c.coverage(0), 500);
        assert_eq!(c.bytes_used(), bytes);
        admit(&mut c, &[0, 1], 700, 50);
        assert_eq!(c.coverage(1), 700);
        for row in [0, 499, 500, 699] {
            assert_eq!(c.peek(1, row), Some(Datum::Int(row as i64)), "row {row}");
        }
        assert_eq!(c.bytes_used(), footprint_sum(&c));
    }

    /// Regression: a column stopped under budget pressure must grow again
    /// once a later query can evict something else, not stay frozen until
    /// the budget changes.
    #[test]
    fn budget_stalled_column_grows_once_a_victim_exists() {
        let mut c = RawCache::new(CachePolicy::with_budget(1_300));
        admit(&mut c, &[1, 2], 100, 100);
        assert_eq!(c.coverage(1), 79);
        assert_eq!(c.coverage(2), 79);
        // Query 2 touches only c1; c2 is now the LRU victim.
        admit(&mut c, &[1], 100, 100);
        assert_eq!(c.coverage(1), 100);
        assert_eq!(c.coverage(2), 0, "c2 evicted");
        assert_eq!(c.metrics().evictions, 1);
        assert!(c.bytes_used() <= 1_300);
    }

    #[test]
    fn extra_columns_follow_the_query_group() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 6, 40); // an older prefix of the extra attribute
        let tick = c.begin_query(&[0]);
        c.admit_segments(vec![segments(0, 100, 30)], vec![segments(6, 100, 30)], tick);
        assert_eq!(c.coverage(0), 100);
        assert_eq!(c.coverage(6), 100, "extra continues from its prefix");
        assert_eq!(c.peek(6, 70), Some(Datum::Int(70)));
        assert_eq!(c.bytes_used(), footprint_sum(&c));
    }
}
