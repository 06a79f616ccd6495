//! The metrics `BENCHMARK.json` names, computed from a phase and its trace.

use crate::phase::Phase;
use crate::stats::{self, Tail};
use crate::trace::{counter_sum, totals_by_name, NameTotals, Span};

/// End-to-end metrics: name and unit. Printed by the timed run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit. Printed by the traced run. Times are
/// means per query; counts are per phase unless the unit says otherwise.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("rawcsv.io_ms", "ms"),
    ("rawcsv.tokenize_ms", "ms"),
    ("rawcsv.convert_ms", "ms"),
    ("rawcsv.bytes_read", "bytes/query"),
    ("rawcsv.io_stall_ms", "ms"),
    ("rawcsv.io_retries", "count"),
    ("posmap.navigate_ms", "ms"),
    ("posmap.installs", "count/query"),
    ("posmap.evictions", "count/query"),
    ("posmap.bytes", "bytes"),
    ("rawcache.hit_ratio", "ratio"),
    ("rawcache.fully_cached_share", "ratio"),
    ("rawcache.evictions", "count/query"),
    ("rawcache.bytes", "bytes"),
    ("stats.planning_ms", "ms"),
    ("sqlparse.parse_us", "us"),
    ("core.upkeep_ms", "ms"),
    ("core.first_query_tax", "ratio"),
    ("core.unattributed_ms", "ms"),
    ("core.query_self_ms", "ms"),
    ("core.rows_scanned_per_row_returned", "ratio"),
    ("core.admission_peak_waiting", "count"),
    ("core.admission_rejected", "count"),
    ("core.source_changed", "count"),
    ("epoch.generation_bumps", "count"),
    ("engine.exec_ms", "ms"),
    ("snapshot.saves", "count"),
    ("snapshot.save_failures", "count"),
    ("snapshot.sidecar_bytes", "bytes"),
    ("snapshot.bytes_written_per_user_byte", "ratio"),
    ("server.wire_ms", "ms"),
    ("server.dispatch_ms", "ms"),
    ("server.prepared_hit_ratio", "ratio"),
    ("server.queries_err", "count"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_queries_per_s", "1/s"),
];

/// End-to-end values of one phase, plus the tail percentile they used.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub values: Vec<(&'static str, f64)>,
    pub tail: Option<Tail>,
}

impl EndToEnd {
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// End-to-end metrics of `phase`. Latency statistics are over correct
/// answers; a sample too small for a tail reports its maximum and the
/// record says so (`tail: null`).
pub fn end_to_end(phase: &Phase) -> EndToEnd {
    let sorted = stats::sorted(&phase.latencies_ms);
    let tail = stats::tail(&sorted);
    let ok = phase.attempted.saturating_sub(phase.failed);
    let values = END_TO_END
        .iter()
        .map(|(name, _)| {
            let v = match *name {
                "setup_s" => stats::median(&phase.setup_s).unwrap_or(0.0),
                "query_p50_ms" => stats::nearest_rank(&sorted, 50.0).unwrap_or(0.0),
                "query_tail_ms" => tail
                    .map(|t| t.value)
                    .or_else(|| sorted.last().copied())
                    .unwrap_or(0.0),
                "queries_per_s" => phase.latencies_ms.len() as f64 / phase.measured_s.max(1e-9),
                "success_rate" => ok as f64 / phase.attempted.max(1) as f64,
                "peak_rss_mb" => phase.peak_rss_mb,
                other => unreachable!("unlisted end-to-end metric {other}"),
            };
            (*name, v)
        })
        .collect();
    EndToEnd { values, tail }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced phase. `untraced` is the same workload's
/// untraced phase, for the tracing overhead. A layer the workload does not
/// exercise reads 0.
pub fn per_layer(
    phase: &Phase,
    spans: &[Span],
    traced: &EndToEnd,
    untraced: &EndToEnd,
) -> Vec<(&'static str, f64)> {
    let by = totals_by_name(spans);
    let queries = spans.iter().filter(|s| s.parent.is_none()).count() as f64;
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let mean = |t: NameTotals| ratio(t.total_ms, queries);
    let mean_self = |t: NameTotals| ratio(t.self_ms, queries);
    let sum = |key: &str| counter_sum(spans, key);
    let s = &phase.sys;
    let hits = sum("cache_hits");
    let misses = sum("cache_misses");
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        s.cache_hit_ratio.unwrap_or(0.0)
    };
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            let v = match *name {
                "rawcsv.io_ms" => mean(get("rawcsv.io")),
                "rawcsv.tokenize_ms" => mean(get("rawcsv.tokenize")),
                "rawcsv.convert_ms" => mean(get("rawcsv.convert")),
                "rawcsv.bytes_read" => ratio(sum("bytes_read"), queries),
                "rawcsv.io_stall_ms" => ratio(sum("io_stall_ms"), queries),
                "rawcsv.io_retries" => sum("io_retries"),
                "posmap.navigate_ms" => mean(get("posmap.navigate")),
                "posmap.installs" => ratio(s.map_installs, queries),
                "posmap.evictions" => ratio(s.map_evictions, queries),
                "posmap.bytes" => s.map_bytes,
                "rawcache.hit_ratio" => hit_ratio,
                "rawcache.fully_cached_share" => ratio(sum("fully_cached"), queries),
                "rawcache.evictions" => ratio(s.cache_evictions, queries),
                "rawcache.bytes" => s.cache_bytes,
                "stats.planning_ms" => mean(get("stats.planning")),
                "sqlparse.parse_us" => stats::median(&s.parse_us).unwrap_or(0.0),
                "core.upkeep_ms" => mean(get("core.upkeep")),
                "core.first_query_tax" => s.first_query_tax.unwrap_or(0.0),
                "core.unattributed_ms" => mean(get("core.unattributed")),
                "core.query_self_ms" => mean_self(get("core.query")),
                "core.rows_scanned_per_row_returned" => {
                    ratio(sum("rows_scanned"), sum("rows_returned"))
                }
                "core.admission_peak_waiting" => s.admission_peak_waiting,
                "core.admission_rejected" => s.admission_rejected,
                "core.source_changed" => sum("source_changed"),
                "epoch.generation_bumps" => s.generation_bumps,
                "engine.exec_ms" => mean(get("engine.exec")),
                "snapshot.saves" => s.snapshot_saves,
                "snapshot.save_failures" => s.snapshot_save_failures,
                "snapshot.sidecar_bytes" => s.sidecar_bytes,
                "snapshot.bytes_written_per_user_byte" => {
                    ratio(s.snapshot_bytes_written, s.user_bytes_appended)
                }
                "server.wire_ms" => mean_self(get("client.roundtrip")),
                "server.dispatch_ms" => mean_self(get("server.dispatch")),
                "server.prepared_hit_ratio" => {
                    ratio(s.prepared_hits, s.prepared_hits + s.prepared_misses)
                }
                "server.queries_err" => s.server_queries_err,
                "trace.overhead_p50_ms" => {
                    traced.get("query_p50_ms") - untraced.get("query_p50_ms")
                }
                "trace.overhead_queries_per_s" => {
                    traced.get("queries_per_s") - untraced.get("queries_per_s")
                }
                other => unreachable!("unlisted per-layer metric {other}"),
            };
            (*name, v)
        })
        .collect()
}
